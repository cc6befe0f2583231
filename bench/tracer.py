"""Per-layer tracing of lieweyl from outside, by wrapping its public callables.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces class attributes
(aliases such as ``Scalar.__radd__`` included) and every module-level binding
of a wrapped function in every ``lieweyl`` module, so ``realization.matrix_series``
and ``weyl.matrix_series`` are both covered.  It then scans the package and
raises if any binding of an original is left, so a missed wrapper fails the
run instead of reporting zero.

Two kinds of wrapper:

* aggregate (``scalars``, ``poly``): counted and timed in total, no spans.
  A call of the same layer from inside it (``Scalar.__rsub__`` calls
  ``__sub__``) is not counted again.
* span (every layer above): one span per call with its parent, kept in an
  in-memory array until the end.  Self time is span time minus the time of
  its direct children, both spans and aggregate calls.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

AGGREGATE, SPAN = "aggregate", "span"

# (layer, kind, module, class or None, attribute names, count result terms)
LAYERS = [
    ("scalars.ops", AGGREGATE, "scalars", "Scalar",
     ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__neg__"), False),
    ("poly.ops", AGGREGATE, "poly", "Polynomial",
     ("__add__", "__sub__", "__mul__", "scale", "partial"), False),
    ("series.ops", SPAN, "series", None, ("series_coeffs",), False),
    ("series.ops", SPAN, "series", "TruncSeries",
     ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__"), False),
    ("series.ops", SPAN, "series", "BiTruncSeries",
     ("__add__", "__sub__", "__mul__", "__truediv__"), False),
    ("weyl.WeylOp_mul", SPAN, "weyl", "WeylOp", ("__mul__",), True),
    ("weyl.WeylOp_apply", SPAN, "weyl", "WeylOp", ("apply",), False),
    ("weyl.OpMatrix_mul", SPAN, "weyl", "OpMatrix", ("__mul__",), False),
    ("weyl.matrix_series", SPAN, "weyl", None, ("matrix_series",), False),
    ("weyl.series_in_op", SPAN, "weyl", None, ("series_in_op",), False),
    ("realization.build", SPAN, "realization", None,
     ("weyl_realization", "dual_realization", "t_realization"), False),
    ("realization.suite.closure", SPAN, "realization", None, ("verify_realization",), False),
    ("realization.suite.symmetrization", SPAN, "realization", None, ("verify_symmetrization",), False),
    ("realization.suite.appendix", SPAN, "realization", None, ("verify_appendix",), False),
    ("realization.suite.shift", SPAN, "realization", None, ("verify_shift_relations",), False),
    ("pbw.pbw_mul", SPAN, "pbw", None, ("pbw_mul",), True),
    ("pbw.shift", SPAN, "pbw", None, ("t_action", "tinv_action", "y_action"), False),
    ("star.star", SPAN, "star", None, ("star",), False),
    ("star.omega", SPAN, "star", None, ("omega",), False),
    ("star.omega_inv", SPAN, "star", None, ("omega_inv",), False),
    ("star.suite.duality", SPAN, "star", None, ("verify_duality",), False),
    ("kappa.bidiff_star", SPAN, "kappa", None, ("bidiff_star",), False),
    ("kappa.poisson_check", SPAN, "kappa", None, ("kappa_poisson_check",), False),
    ("kappa.closed_forms", SPAN, "kappa", None,
     ("kappa_closed_realization", "kappa_dual_closed", "kappa_t_closed", "kappa_power_check"), False),
    ("cli.main", SPAN, "cli", None, ("main",), False),
]

# per-layer metric -> (layer, field); the order is the order of BENCHMARK.json
METRICS = {}
for _layer, _fields in (
    ("scalars.ops", ("calls", "self_s")),
    ("poly.ops", ("calls", "self_s")),
    ("series.ops", ("calls", "self_s")),
    ("weyl.WeylOp_mul", ("calls", "self_s", "terms_out")),
    ("weyl.OpMatrix_mul", ("calls", "self_s")),
    ("weyl.matrix_series", ("calls", "self_s")),
    ("weyl.series_in_op", ("calls", "self_s")),
    ("weyl.WeylOp_apply", ("calls", "self_s")),
    ("realization.build", ("calls", "self_s")),
    ("realization.suite.closure", ("total_s",)),
    ("realization.suite.symmetrization", ("total_s",)),
    ("realization.suite.appendix", ("total_s",)),
    ("realization.suite.shift", ("total_s",)),
    ("star.suite.duality", ("total_s",)),
    ("pbw.pbw_mul", ("calls", "self_s", "terms_out")),
    ("pbw.shift", ("calls", "self_s")),
    ("star.star", ("calls", "self_s")),
    ("star.omega", ("calls", "self_s")),
    ("star.omega_inv", ("calls", "self_s")),
    ("kappa.bidiff_star", ("calls", "self_s")),
    ("kappa.poisson_check", ("calls", "self_s")),
    ("kappa.closed_forms", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
):
    for _field in _fields:
        METRICS[f"{_layer}.{_field}"] = (_layer, _field)
CACHE_METRICS = ("star.omega_cache_entries", "pbw.cache_entries")
OVERHEAD_METRIC = "trace.overhead_s"
# every per-layer metric a traced run prints, in order
METRIC_NAMES = [*METRICS, *CACHE_METRICS, OVERHEAD_METRIC]
DETERMINISTIC = [m for m in METRIC_NAMES if not m.endswith("_s")]


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class Tracer:
    """Holds the counters and spans of one traced run."""

    SPAN_FIELDS = 5  # layer id, parent span index, start, end, direct child time

    def __init__(self):
        self.layers = list(dict.fromkeys(layer for layer, *_ in LAYERS))
        self._id = {name: k for k, name in enumerate(self.layers)}
        # per aggregate layer: [calls, total_s, self_s]
        self.aggregates = {
            layer: [0, 0.0, 0.0] for layer, kind, *_ in LAYERS if kind == AGGREGATE
        }
        self.terms_out = {layer: 0 for layer, *_, counts in LAYERS if counts}
        self.spans = array("d")
        # open frames: [span index or -1, direct child time]
        self.stack = [[-1, 0.0]]
        self.contexts = []
        self.installed = False

    # -- wrappers ---------------------------------------------------------

    def _aggregate(self, fn, layer, leaf):
        stat = self.aggregates[layer]
        stack = self.stack
        active = [False]

        if leaf:
            def wrapper(*args):
                if active[0]:
                    return fn(*args)
                active[0] = True
                t0 = perf_counter()
                try:
                    return fn(*args)
                finally:
                    dt = perf_counter() - t0
                    active[0] = False
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt
                    stack[-1][1] += dt

            return wrapper

        def wrapper(*args):
            if active[0]:
                return fn(*args)
            active[0] = True
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[0] = False
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                stack[-1][1] += dt

        return wrapper

    def _span(self, fn, layer, count_terms):
        layer_id = float(self._id[layer])
        spans, stack, terms_out = self.spans, self.stack, self.terms_out

        def wrapper(*args, **kwargs):
            # the record is reserved on entry, so spans are in start order
            # and a parent index points at the parent's record
            base = len(spans)
            frame = [base // Tracer.SPAN_FIELDS, 0.0]
            t0 = perf_counter()
            spans.extend((layer_id, stack[-1][0], t0, t0, 0.0))
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][1] += t1 - spans[base + 2]
                spans[base + 3] = t1
                spans[base + 4] = frame[1]
            if count_terms:
                terms_out[layer] += len(out.terms)
            return out

        return wrapper

    def _capture_context(self, fn):
        contexts = self.contexts

        def wrapper(*args, **kwargs):
            ctx = fn(*args, **kwargs)
            contexts.append(ctx)
            return ctx

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer callable in the imported lieweyl package."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "lieweyl" or name.startswith("lieweyl.")) and m is not None]
        replace = {}  # id(original) -> (original, wrapper)
        for layer, kind, mod_name, cls_name, attrs, count_terms in LAYERS:
            mod = sys.modules[f"lieweyl.{mod_name}"]
            owner = getattr(mod, cls_name) if cls_name else mod
            for attr in attrs:
                fn = owner.__dict__[attr]
                if not isinstance(fn, types.FunctionType):
                    raise TypeError(f"{mod_name}.{cls_name or ''}.{attr} is not a function")
                if kind == AGGREGATE:
                    wrapped = self._aggregate(fn, layer, leaf=(layer == "scalars.ops"))
                else:
                    wrapped = self._span(fn, layer, count_terms)
                replace[id(fn)] = (fn, wrapped)
        make_context = sys.modules["lieweyl.star"].make_context
        replace[id(make_context)] = (make_context, self._capture_context(make_context))

        def rebind(owner, namespace):
            for attr, value in list(namespace.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])

        classes = {getattr(sys.modules[f"lieweyl.{mod}"], cls)
                   for _, _, mod, cls, *_ in LAYERS if cls}
        for owner in [*classes, *modules]:
            rebind(owner, vars(owner))
        self._assert_no_original([*classes, *modules], replace)
        self.installed = True

    @staticmethod
    def _assert_no_original(owners, replace):
        for owner in owners:
            for attr, value in vars(owner).items():
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"wrapper missing on {owner.__name__}.{attr}")

    # -- results ------------------------------------------------------------

    def reduce(self):
        """Per-layer calls, self time and total time, from the kept spans."""
        out = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for layer in self.layers}
        for layer, (calls, total, self_s) in self.aggregates.items():
            out[layer].update(calls=calls, total_s=total, self_s=self_s)
        spans, width = self.spans, Tracer.SPAN_FIELDS
        for k in range(0, len(spans), width):
            rec = out[self.layers[int(spans[k])]]
            dur = spans[k + 3] - spans[k + 2]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - spans[k + 4]
        for layer, terms in self.terms_out.items():
            out[layer]["terms_out"] = terms
        return out

    def cache_entries(self):
        """Memo-cache sizes of every StarContext made and of their algebras."""
        omega = sum(len(ctx._omega_cache) for ctx in self.contexts)
        algebras = {}
        for ctx in self.contexts:
            for alg in (ctx.algebra, ctx.dual_alg):
                algebras[id(alg)] = alg
        pbw = sum(len(cache) for alg in algebras.values() for cache in alg._caches.values())
        return {"star.omega_cache_entries": omega, "pbw.cache_entries": pbw}

    def metrics(self):
        layers = self.reduce()
        values = {name: layers[layer][field] for name, (layer, field) in METRICS.items()}
        values.update(self.cache_entries())
        return values
