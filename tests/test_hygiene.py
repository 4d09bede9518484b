"""Static checks on the source tree: no dead top-level definitions or
methods in the package and no unused imports in the package or the
tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freefield"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _read_names(node):
    """Every name read below node: plain names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_top_level_definition_is_used_in_the_package():
    defined = []
    used = set()
    for path, tree in _trees(PACKAGE):
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name))
            else:
                used.update(_read_names(stmt))
        # names read inside another definition count as uses
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                used.update(n for n in _read_names(stmt) if n != stmt.name)
    unused = [f"{mod}:{name}" for mod, name in defined if name not in used]
    assert not unused, unused


def test_every_method_is_read_in_the_package():
    # a method counts as used when its name is read anywhere in the
    # package outside its own body; special methods are called implicitly
    methods = []
    reads: dict = {}
    for path, tree in _trees(PACKAGE):
        for name in _read_names(tree):
            reads[name] = reads.get(name, 0) + 1
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [(path.name, cls.name, stmt) for stmt in cls.body
                            if isinstance(stmt, ast.FunctionDef)
                            and not stmt.name.startswith("__")]
    unused = [f"{mod}:{cls}.{stmt.name}" for mod, cls, stmt in methods
              if reads.get(stmt.name, 0)
              == sum(1 for n in _read_names(stmt) if n == stmt.name)]
    assert not unused, unused


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path, tree in _trees(PACKAGE, ROOT / "tests"):
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in sorted(imported.items())
                   if name not in read]
    assert not unused, unused
