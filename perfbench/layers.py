"""Which functions of the package are traced, and the per-layer metrics.

The layers are the package's modules.  Every public module-level
function is wrapped, plus the class methods listed in ``METHODS`` and a
few private functions that mark a layer boundary (``PRIVATE``).  O(1)
accessors such as ``is_zero`` or ``degree`` are left out: they run
millions of times per workload and would mostly time the tracer.

A wrapped name is rebound everywhere it is bound: in its own module, in
every module that imported it with ``from ... import``, in class
dictionaries (so ``__rmul__ = __mul__`` aliases are covered) and in
module-level registries such as ``checks.CHECKS``.
"""

import inspect
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("scalars", "partitions", "sympoly", "interpolation", "operators",
          "jack", "checks", "cli")

# Layers whose spans are only aggregated per name, not kept one by one:
# the scalar kernel and the partition helpers run millions of short calls.
AGGREGATE_ONLY = ("scalars", "partitions")

METHODS = {
    "scalars": {
        "UniPoly": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__",
                    "__divmod__", "exact_div", "primitive", "monic", "gcd",
                    "__call__"),
        "RationalFunction": ("__init__", "__add__", "__sub__", "__neg__",
                             "__mul__", "__truediv__", "__rtruediv__",
                             "__pow__", "substitute"),
    },
    "sympoly": {
        "SparsePoly": ("__add__", "__sub__", "__neg__", "__mul__", "evaluate",
                       "translate", "swap_vars", "divide_linear_diff",
                       "map_coeffs", "t_components", "with_t"),
        "SymPoly": ("__add__", "__sub__", "__neg__", "__mul__", "evaluate",
                    "top_component", "map_coeffs", "negate_variables",
                    "to_sparse"),
    },
    "operators": {
        "OperatorMatrix": ("__matmul__", "__sub__", "is_triangular"),
    },
}

PRIVATE = {
    "interpolation": ("_node_matrix",),
    "cli": ("_scan_one", "_verify_one"),   # the pool's task functions
}

POOL_TASKS = ("cli._scan_one", "cli._verify_one")

# metric stem -> traced span name
ALIASES = {
    "scalars.unipoly_mul": "scalars.UniPoly.__mul__",
    "scalars.unipoly_divmod": "scalars.UniPoly.__divmod__",
    "scalars.rf_new": "scalars.RationalFunction.__init__",
    "scalars.gcd": "scalars.UniPoly.gcd",
    "interpolation.basis": "interpolation.interpolation_basis",
    "interpolation.solve_linear": "interpolation.solve_linear",
    "interpolation.node_matrix": "interpolation._node_matrix",
    "sympoly.sparse_mul": "sympoly.SparsePoly.__mul__",
    "sympoly.translate": "sympoly.SparsePoly.translate",
    "sympoly.divide_by_vandermonde": "sympoly.divide_by_vandermonde",
    "sympoly.collect_symmetric": "sympoly.collect_symmetric",
    "sympoly.evaluate": "sympoly.SymPoly.evaluate",
    "operators.difference_family": "operators.apply_difference_family",
    "operators.raising": "operators.apply_raising",
    "operators.sekiguchi": "operators.apply_sekiguchi_debiard",
    "jack.P_eigen": "jack.jack_P_eigen",
    "jack.shifted_J": "jack.shifted_jack_J",
    "jack.conjecture_expand": "jack.conjecture_expand",
    "jack.pieri_verify": "jack.pieri_verify",
    "checks.run_check": "checks.run_check",
}

CHECK_NAMES = ("vanishing", "unitriangular", "special-forms", "uniqueness",
               "eigenvalue", "commutativity", "cutoff", "raising-stability",
               "degree-bound", "extra-vanishing", "ideal-stability",
               "reduction", "jack-agreement", "lift", "pieri")


def _metric_list():
    out = [("scalars.self_s", "s"),
           ("scalars.unipoly_mul.calls", "count"),
           ("scalars.unipoly_divmod.calls", "count"),
           ("scalars.rf_new.calls", "count"),
           ("scalars.gcd.calls", "count"),
           ("scalars.gcd.self_s", "s"),
           ("scalars.gcd.nontrivial_ratio", "ratio"),
           ("interpolation.self_s", "s"),
           ("interpolation.basis.calls", "count"),
           ("interpolation.basis.hit_ratio", "ratio"),
           ("interpolation.solve_linear.calls", "count"),
           ("interpolation.solve_linear.self_s", "s"),
           ("interpolation.solve_linear.unknowns", "count"),
           ("interpolation.node_matrix.self_s", "s"),
           ("sympoly.self_s", "s")]
    for op in ("sparse_mul", "translate", "divide_by_vandermonde",
               "collect_symmetric", "evaluate"):
        out += [(f"sympoly.{op}.calls", "count"), (f"sympoly.{op}.self_s", "s")]
    out.append(("operators.self_s", "s"))
    for op in ("difference_family", "raising", "sekiguchi"):
        out += [(f"operators.{op}.calls", "count"),
                (f"operators.{op}.self_s", "s")]
    out += [("jack.self_s", "s"),
            ("jack.P_eigen.calls", "count"),
            ("jack.P_eigen.hit_ratio", "ratio"),
            ("jack.shifted_J.calls", "count"),
            ("jack.conjecture_expand.calls", "count"),
            ("jack.pieri_verify.calls", "count"),
            ("partitions.self_s", "s"),
            ("checks.self_s", "s"),
            ("checks.run_check.calls", "count")]
    out += [(f"checks.{name}.wall_s", "s") for name in CHECK_NAMES]
    out += [("cli.self_s", "s"),
            ("cli.pool.tasks", "count"),
            ("cli.pool.wait_s", "s"),
            ("cli.pool.worker_busy_s", "s"),
            ("cli.pool.efficiency", "ratio"),
            ("cli.pool.overlap_s", "s"),
            ("other.self_s", "s"),
            ("trace.wall_s", "s"),
            ("trace.overhead_ratio", "ratio")]
    return out


# (name, unit) of every per-layer metric, in report order
PER_LAYER = _metric_list()


# ---------------------------------------------------------------------------
# installing the wrappers (runs inside the traced process)

def _targets(package):
    """Yield (layer, function) for everything traced."""
    for layer in LAYERS:
        mod = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                yield layer, obj
        for attr in PRIVATE.get(layer, ()):
            yield layer, getattr(mod, attr)
        for cls_name, names in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in names:
                yield layer, vars(cls)[attr]


def _cache_probe(tracer, stem, cache):
    """Count calls that found their result in ``cache``: a miss always
    stores a new entry, a hit never does."""
    hits = tracer.counter(f"{stem}.hits")

    def before(args):
        return len(cache)

    def after(size, result):
        if len(cache) == size:
            hits[0] += 1
    return before, after


def _hooks(tracer, package):
    interpolation = sys.modules[f"{package.__name__}.interpolation"]
    jack = sys.modules[f"{package.__name__}.jack"]
    nontrivial = tracer.counter("scalars.gcd.nontrivial")
    unknowns = tracer.counter("interpolation.solve_linear.unknowns")

    def gcd_after(state, result):
        if result.degree() > 0:
            nontrivial[0] += 1

    def solve_before(args):
        unknowns[0] += len(args[0])

    return {
        "scalars.UniPoly.gcd": (None, gcd_after),
        "interpolation.solve_linear": (solve_before, None),
        "interpolation.interpolation_basis": _cache_probe(
            tracer, "interpolation.basis", interpolation._BASIS_CACHE),
        "jack.jack_P_eigen": _cache_probe(
            tracer, "jack.P_eigen", jack._EIGEN_CACHE),
    }


def _traced_pool(tracer):
    capacity = tracer.counter("cli.pool.capacity_s")

    class TracedPool(ProcessPoolExecutor):
        """The package's pool, with a span from entering the ``with``
        block to the end of shutdown; workers fork inside it."""

        def __enter__(self):
            self._span = tracer.begin("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                capacity[0] += self._max_workers * tracer.end(self._span)

    return TracedPool


def install(tracer, package):
    """Wrap every traced function of ``package`` at every binding."""
    hooks = _hooks(tracer, package)
    wrapped = {}
    for layer, fn in _targets(package):
        if id(fn) in wrapped:
            continue
        name = f"{layer}.{fn.__qualname__}"
        before, after = hooks.get(name, (None, None))
        wrapped[id(fn)] = tracer.wrap(fn, name, layer not in AGGREGATE_ONLY,
                                      before, after)
    modules = [package] + [sys.modules[f"{package.__name__}.{layer}"]
                           for layer in LAYERS]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in list(vars(obj).items()):
                    if id(cobj) in wrapped:
                        setattr(obj, cattr, wrapped[id(cobj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if isinstance(value, tuple) and any(
                            id(v) in wrapped for v in value):
                        obj[key] = tuple(wrapped.get(id(v), v) for v in value)
    sys.modules[f"{package.__name__}.cli"].ProcessPoolExecutor = \
        _traced_pool(tracer)


# ---------------------------------------------------------------------------
# metrics from the dumps of one traced run (computed by run.py)

def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def run_metrics(dumps, main_pid):
    """Per-layer metrics of one traced run from every process's dump."""
    agg, counters = {}, {}
    for dump in dumps:
        for name, (calls, total, self_s) in dump["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(stem):
        return agg.get(ALIASES[stem], [0, 0.0, 0.0])[0]

    def self_s(stem):
        return agg.get(ALIASES[stem], [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, s) in agg.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s

    # Worker spans hang under the pool span that forked them.  The pool
    # span's self time is what its workers' task spans do not cover.
    pools = [s for d in dumps if d["pid"] == main_pid for s in d["spans"]
             if s[2] == "cli.pool"]
    tasks = [s for d in dumps if d["pid"] != main_pid for s in d["spans"]
             if s[2] in POOL_TASKS]
    busy = covered = 0.0
    for pool in pools:
        kids = [(max(s[3], pool[3]), min(s[4], pool[4]))
                for s in tasks if s[1] == pool[0]]
        busy += sum(s[4] - s[3] for s in tasks if s[1] == pool[0])
        covered += _union_length(kids)
    layer_self["cli"] -= covered
    wait = agg.get("cli.pool", [0, 0.0, 0.0])[1]
    run = agg["run"]

    m = {}
    m["scalars.self_s"] = layer_self["scalars"]
    for stem in ("scalars.unipoly_mul", "scalars.unipoly_divmod",
                 "scalars.rf_new", "scalars.gcd"):
        m[f"{stem}.calls"] = calls(stem)
    m["scalars.gcd.self_s"] = self_s("scalars.gcd")
    m["scalars.gcd.nontrivial_ratio"] = ratio(
        counters.get("scalars.gcd.nontrivial", 0), calls("scalars.gcd"))
    m["interpolation.self_s"] = layer_self["interpolation"]
    m["interpolation.basis.calls"] = calls("interpolation.basis")
    m["interpolation.basis.hit_ratio"] = ratio(
        counters.get("interpolation.basis.hits", 0),
        calls("interpolation.basis"))
    m["interpolation.solve_linear.calls"] = calls("interpolation.solve_linear")
    m["interpolation.solve_linear.self_s"] = self_s("interpolation.solve_linear")
    m["interpolation.solve_linear.unknowns"] = counters.get(
        "interpolation.solve_linear.unknowns", 0)
    m["interpolation.node_matrix.self_s"] = self_s("interpolation.node_matrix")
    m["sympoly.self_s"] = layer_self["sympoly"]
    for op in ("sparse_mul", "translate", "divide_by_vandermonde",
               "collect_symmetric", "evaluate"):
        m[f"sympoly.{op}.calls"] = calls(f"sympoly.{op}")
        m[f"sympoly.{op}.self_s"] = self_s(f"sympoly.{op}")
    m["operators.self_s"] = layer_self["operators"]
    for op in ("difference_family", "raising", "sekiguchi"):
        m[f"operators.{op}.calls"] = calls(f"operators.{op}")
        m[f"operators.{op}.self_s"] = self_s(f"operators.{op}")
    m["jack.self_s"] = layer_self["jack"]
    m["jack.P_eigen.calls"] = calls("jack.P_eigen")
    m["jack.P_eigen.hit_ratio"] = ratio(counters.get("jack.P_eigen.hits", 0),
                                        calls("jack.P_eigen"))
    for stem in ("jack.shifted_J", "jack.conjecture_expand",
                 "jack.pieri_verify"):
        m[f"{stem}.calls"] = calls(stem)
    m["partitions.self_s"] = layer_self["partitions"]
    m["checks.self_s"] = layer_self["checks"]
    m["checks.run_check.calls"] = calls("checks.run_check")
    for name in CHECK_NAMES:
        fn = "checks.check_" + name.replace("-", "_")
        m[f"checks.{name}.wall_s"] = agg.get(fn, [0, 0.0, 0.0])[1]
    m["cli.self_s"] = layer_self["cli"]
    m["cli.pool.tasks"] = len(tasks)
    m["cli.pool.wait_s"] = wait
    m["cli.pool.worker_busy_s"] = busy
    m["cli.pool.efficiency"] = ratio(busy,
                                     counters.get("cli.pool.capacity_s", 0.0))
    m["cli.pool.overlap_s"] = busy - covered
    m["other.self_s"] = run[2]
    m["trace.wall_s"] = run[1]
    return m


def identity_error(m):
    """Layer self times plus ``other.self_s``, minus the traced wall time
    and the time pool workers ran side by side.  Zero up to rounding."""
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["other.self_s"]
    return total - (m["trace.wall_s"] + m["cli.pool.overlap_s"])


def summarize(runs, untraced_wall):
    """Medians over traced runs, the overhead ratio, and for every count
    the (min, max) over runs so that pool-dependent counts show spread."""
    out, spread = {}, {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        values = [r[name] for r in runs]
        if unit == "count":
            out[name] = statistics.median_low(values)
            spread[name] = (min(values), max(values))
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall
    return out, spread
