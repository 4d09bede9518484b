"""Layer-by-layer tracing of freefield from outside the package.

`Tracer.install` rebinds the public functions of each layer, in every
freefield module that holds a reference to them, to wrappers that time or
count the call.  Nothing under `src/` changes.

Timed calls keep a stack, so each function's self time (its duration
minus the duration of the timed calls it made) is known.  Calls are
aggregated per function rather than kept one span per call: the hot leaf
functions run hundreds of thousands of times per pass.  The kernel
`_nth_mono`, `Echelon.add` and the monomial enumerators are only counted.
"""

import importlib
import sys
import time

# (module, function) of every timed boundary; spans are named "module.function"
TIMED = (
    ("harness", "run_scenario"),
    ("harness", "resolve_scenario"),
    ("harness", "report_to_json"),
    ("fock", "nth_product"),
    ("diffalg", "invariant_basis"),
    ("diffalg", "lie_jet_action"),
    ("diffalg", "generated_span"),
    ("diffalg", "quantum_correct"),
    ("linalg", "nullspace"),
    ("linalg", "solve_affine"),
    ("constructions", "verify_affine"),
    ("constructions", "commutant_check"),
    ("constructions", "state_invariant_basis"),
    ("constructions", "invariant_lift_search"),
    ("weyl", "zhu_zero_mode"),
    ("weyl", "normal_form_product"),
    ("properties", "run_property_suite"),
)

LAYER_MODULES = ("rationals", "linalg", "liealg", "fock", "diffalg",
                 "constructions", "weyl", "properties", "harness")

# Reported per-layer metrics: name -> unit.  Units "s" are timings, the
# rest are counts and ratios of counts, which must repeat exactly.
METRICS = {
    "fock.nth_product.calls": "count",
    "fock.nth_product.self_s": "s",
    "fock.nth_mono.calls": "count",
    "fock.nth_cache.entries": "count",
    "fock.nth_cache.hit_ratio": "ratio",
    "diffalg.invariant_basis.self_s": "s",
    "diffalg.lie_jet_action.calls": "count",
    "diffalg.lie_jet_action.s": "s",
    "diffalg.enumerate_component.monos": "count",
    "diffalg.generated_span.s": "s",
    "diffalg.quantum_correct.s": "s",
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.rows": "count",
    "linalg.nullspace.cols": "count",
    "linalg.nullspace.rank": "count",
    "linalg.nullspace.s": "s",
    "linalg.echelon.adds": "count",
    "linalg.echelon.useful_ratio": "ratio",
    "linalg.solve_affine.s": "s",
    "linalg.max_block.rows": "count",
    "linalg.max_block.cols": "count",
    "linalg.max_block.rank": "count",
    "constructions.verify_affine.self_s": "s",
    "constructions.commutant_check.self_s": "s",
    "constructions.state_invariant_basis.self_s": "s",
    "constructions.invariant_lift_search.self_s": "s",
    "constructions.component_monomials.monos": "count",
    "weyl.zhu_zero_mode.calls": "count",
    "weyl.zhu_zero_mode.self_s": "s",
    "weyl.normal_form_product.s": "s",
    "properties.run_property_suite.self_s": "s",
    "harness.resolve_s": "s",
    "harness.self_s": "s",
    "harness.report_json_s": "s",
}


def _rebind(modules, orig, new):
    """Point every module-level reference to `orig` at `new`."""
    for mod in modules:
        names = [k for k, v in vars(mod).items() if v is orig]
        for k in names:
            setattr(mod, k, new)


class Tracer:
    """Aggregated spans and counts for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        # seconds since some start; the worker passes its scaled clock
        self._clock = clock
        # name -> [calls, total seconds, self seconds]
        self.spans = {f"{mod}.{fn}": [0, 0.0, 0.0] for mod, fn in TIMED}
        self.counts = {"nth_mono": 0, "adds": 0, "gained": 0,
                       "component_monos": 0, "enumerate_monos": 0,
                       "ns_rows": 0, "ns_cols": 0, "ns_rank": 0}
        self.max_block = (0, 0, 0)
        self._caches = {}
        # open spans' child time; the bottom entry collects top-level calls
        self._stack = [0.0]

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        stats = self.spans[name]
        stack = self._stack
        clock = self._clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child

        return wrapper

    def _block(self, rows, cols, rank):
        # the largest elimination block by rows x cols
        if rows * cols > self.max_block[0] * self.max_block[1]:
            self.max_block = (rows, cols, rank)

    def install(self):
        """Import every layer and rebind its public functions."""
        for m in LAYER_MODULES:
            importlib.import_module("freefield." + m)
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("freefield.") and m is not None]
        fock = sys.modules["freefield.fock"]
        linalg = sys.modules["freefield.linalg"]
        diffalg = sys.modules["freefield.diffalg"]
        constructions = sys.modules["freefield.constructions"]
        counts = self.counts
        caches = self._caches

        nth_mono = fock._nth_mono

        def counted_nth_mono(sys_obj, ma, mb, n):
            counts["nth_mono"] += 1
            return nth_mono(sys_obj, ma, mb, n)

        _rebind(modules, nth_mono, counted_nth_mono)

        nth_product = fock.nth_product

        def nth_product_with_cache(a, b, n):
            cache = a.sys._nth_cache
            caches[id(cache)] = cache
            return nth_product(a, b, n)

        echelon_add = linalg.Echelon.add

        def counted_add(ech, vec, tag=None):
            gained = echelon_add(ech, vec, tag)
            counts["adds"] += 1
            if gained:
                counts["gained"] += 1
            return gained

        linalg.Echelon.add = counted_add

        def monos_counter(fn, key):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[key] += len(out)
                return out
            return wrapper

        enumerate_component = diffalg.enumerate_component
        component_monomials = constructions.component_monomials
        _rebind(modules, enumerate_component,
                monos_counter(enumerate_component, "enumerate_monos"))
        _rebind(modules, component_monomials,
                monos_counter(component_monomials, "component_monos"))

        nullspace = linalg.nullspace

        def nullspace_sized(equations, columns):
            equations = list(equations)
            basis = nullspace(equations, columns)
            rank = len(columns) - len(basis)
            counts["ns_rows"] += len(equations)
            counts["ns_cols"] += len(columns)
            counts["ns_rank"] += rank
            self._block(len(equations), len(columns), rank)
            return basis

        solve_affine = linalg.solve_affine

        def solve_affine_sized(equations, rhs, columns):
            sol, rank = solve_affine(equations, rhs, columns)
            self._block(len(equations), len(columns), rank)
            return sol, rank

        inner = {"fock.nth_product": nth_product_with_cache,
                 "linalg.nullspace": nullspace_sized,
                 "linalg.solve_affine": solve_affine_sized}
        for mod, fn in TIMED:
            name = f"{mod}.{fn}"
            orig = getattr(sys.modules["freefield." + mod], fn)
            _rebind(modules, orig, self._timed(name, inner.get(name, orig)))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric name -> value, in METRICS order."""
        s = self.spans
        c = self.counts
        entries = sum(len(cache) for cache in self._caches.values())
        values = {
            "fock.nth_product.calls": s["fock.nth_product"][0],
            "fock.nth_product.self_s": s["fock.nth_product"][2],
            "fock.nth_mono.calls": c["nth_mono"],
            "fock.nth_cache.entries": entries,
            "fock.nth_cache.hit_ratio":
                1 - entries / c["nth_mono"] if c["nth_mono"] else 0.0,
            "diffalg.invariant_basis.self_s": s["diffalg.invariant_basis"][2],
            "diffalg.lie_jet_action.calls": s["diffalg.lie_jet_action"][0],
            "diffalg.lie_jet_action.s": s["diffalg.lie_jet_action"][1],
            "diffalg.enumerate_component.monos": c["enumerate_monos"],
            "diffalg.generated_span.s": s["diffalg.generated_span"][1],
            "diffalg.quantum_correct.s": s["diffalg.quantum_correct"][1],
            "linalg.nullspace.calls": s["linalg.nullspace"][0],
            "linalg.nullspace.rows": c["ns_rows"],
            "linalg.nullspace.cols": c["ns_cols"],
            "linalg.nullspace.rank": c["ns_rank"],
            "linalg.nullspace.s": s["linalg.nullspace"][1],
            "linalg.echelon.adds": c["adds"],
            "linalg.echelon.useful_ratio":
                c["gained"] / c["adds"] if c["adds"] else 0.0,
            "linalg.solve_affine.s": s["linalg.solve_affine"][1],
            "linalg.max_block.rows": self.max_block[0],
            "linalg.max_block.cols": self.max_block[1],
            "linalg.max_block.rank": self.max_block[2],
            "constructions.verify_affine.self_s":
                s["constructions.verify_affine"][2],
            "constructions.commutant_check.self_s":
                s["constructions.commutant_check"][2],
            "constructions.state_invariant_basis.self_s":
                s["constructions.state_invariant_basis"][2],
            "constructions.invariant_lift_search.self_s":
                s["constructions.invariant_lift_search"][2],
            "constructions.component_monomials.monos": c["component_monos"],
            "weyl.zhu_zero_mode.calls": s["weyl.zhu_zero_mode"][0],
            "weyl.zhu_zero_mode.self_s": s["weyl.zhu_zero_mode"][2],
            "weyl.normal_form_product.s": s["weyl.normal_form_product"][1],
            "properties.run_property_suite.self_s":
                s["properties.run_property_suite"][2],
            "harness.resolve_s": s["harness.resolve_scenario"][1],
            "harness.self_s": s["harness.run_scenario"][2],
            "harness.report_json_s": s["harness.report_to_json"][1],
        }
        assert list(values) == list(METRICS)
        return values
