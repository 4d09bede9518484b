"""Static checks on the source tree: no dead top-level definitions,
module-level assignments or methods in the package, no unused imports in
the package or the tests, imports only at module level, no reads of
another module's private names, denominators cleared only in `linalg`,
`koszul_insert` called only by `linalg` and `fock`, `nullspace` called
only by `linalg`'s block solver, and a harness that imports no maths."""

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


def test_every_module_level_assignment_is_read_in_the_package():
    # a constant or table that no expression in the package loads is dead
    assigned = []
    loaded = set()
    for path, tree in _trees(PACKAGE):
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                assigned += [(path.name, node.id) for target in targets
                             for node in ast.walk(target)
                             if isinstance(node, ast.Name)]
        loaded.update(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load))
        loaded.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute))
    unused = [f"{mod}:{name}" for mod, name in assigned
              if name not in loaded and not name.startswith("__")]
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


def test_imports_are_at_module_level():
    nested = set()
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                nested.update(f"{path.name}:{sub.lineno}"
                              for sub in ast.walk(node)
                              if isinstance(sub, (ast.Import, ast.ImportFrom)))
    assert not nested, sorted(nested)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_name():
    reads = []
    for path, tree in _trees(PACKAGE):
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                reads += [f"{path.name}:{node.lineno}: {a.name}"
                          for a in node.names if _private(a.name)]
                if node.module is None:  # from . import module
                    modules.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names)
        reads += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert not reads, reads


def test_only_linalg_clears_denominators():
    # `linalg.integral` is the one rule that scales rationals to integers;
    # `rationals.qstr` reads denominators only to format them
    bad = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            # `from math import lcm`, or `math.lcm`
            lcm = (isinstance(node, ast.ImportFrom)
                   and any(a.name == "lcm" for a in node.names)
                   or isinstance(node, ast.Attribute) and node.attr == "lcm")
            if lcm and path.name != "linalg.py":
                bad.append(f"{path.name}:{node.lineno}: lcm")
            if (isinstance(node, ast.Attribute) and node.attr == "denominator"
                    and path.name not in ("linalg.py", "rationals.py")):
                bad.append(f"{path.name}:{node.lineno}: .denominator")
    assert not bad, bad


def test_only_linalg_and_fock_call_koszul_insert():
    # every derivation, D, each x t^r and the Fock translation, goes
    # through `linalg.derive`; the creation-mode inserts of `fock` are the
    # only other callers of the Koszul rule
    bad = []
    for path, tree in _trees(PACKAGE):
        imports = [a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names]
        if path.name not in ("linalg.py", "fock.py") and "koszul_insert" in [
                *_read_names(tree), *imports]:
            bad.append(path.name)
    assert not bad, bad


def test_only_linalg_reads_nullspace():
    # both invariant solvers go through `linalg.block_nullspaces`, the one
    # driver of blockwise elimination
    bad = []
    for path, tree in _trees(PACKAGE):
        imports = [a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names]
        if path.name != "linalg.py" and "nullspace" in [
                *_read_names(tree), *imports]:
            bad.append(path.name)
    assert not bad, bad


def test_only_diffalg_reads_the_invariant_solvers():
    # both invariant sides go through `diffalg.invariant_orbits`, the one
    # place that finds the torus and hands blocks to the block solver
    owners = {"block_nullspaces": "linalg.py", "torus_weights": "liealg.py"}
    bad = []
    for path, tree in _trees(PACKAGE):
        imports = [a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names]
        for name, owner in owners.items():
            if path.name not in ("diffalg.py", owner) and name in [
                    *_read_names(tree), *imports]:
                bad.append(f"{path.name}: {name}")
    assert not bad, bad


# the harness validates and dispatches; the maths lives in the modules
# that own these names
HARNESS_FORBIDDEN_MODULES = {"linalg", "itertools", "random"}
HARNESS_FORBIDDEN_NAMES = {
    "nth_product", "derivative", "symbol", "wick_expand",
    "monomial_from_factors", "lie_jet_action", "zhu_zero_mode", "zhu_star",
    "apply_weyl", "classical_dets", "random_monomial",
}


def test_harness_imports_no_maths():
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module in HARNESS_FORBIDDEN_MODULES):
            bad.append(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bad += [a.name for a in node.names
                    if a.name in HARNESS_FORBIDDEN_MODULES
                    | HARNESS_FORBIDDEN_NAMES]
    assert not bad, bad
