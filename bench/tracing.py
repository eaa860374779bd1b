"""Spans around the package's public functions, recorded from outside the package.

The package's modules import each other's names with ``from ... import``,
so a wrapper is bound under every name that refers to the function, in the
defining module and in each module that imported it.  ``scipy.optimize.minimize``
is wrapped the same way, together with the objective handed to it, so that
objective evaluations are counted and the minimizer's own time is known.

Spans are kept in memory as tuples ``(op, span, parent, name, dim, start, end)``
and aggregated into per-layer metrics at the end of the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "quditdiscord"
MODULES = ("lie_algebra", "states", "measurement", "discord", "entanglement", "classify", "cli")
MINIMIZE = "scipy.optimize.minimize"
OBJECTIVE = "discord.objective"


def _basis_dim(args):
    return getattr(args[0], "d", 0) if args else 0


def _square_dim(args):
    return int(np.shape(args[0])[0]) if args else 0


def _kron_dim(args):
    return int(round(math.sqrt(np.shape(args[0])[0]))) if args else 0


# Functions whose timings are also split by dimension, and how to read d.
DIM_OF = {
    "lie_algebra.expi": _square_dim,
    "lie_algebra.adjoint_rep": _basis_dim,
    "measurement.frame_from_theta": _basis_dim,
    "measurement.disturbance_from_vectors": _basis_dim,
    "measurement.trace_norm_hermitian": _kron_dim,
    "states.assemble": _basis_dim,
    "discord.classify_correlation": _basis_dim,
}


class Tracer:
    """Records spans while ``op`` is set and the wrappers are bound."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = None
        self._bindings: list = []   # (namespace, attribute, original, wrapper)
        self.wrapped: set = set()   # span names that have a wrapper

    def _wrap(self, name, fn, dim_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            dim = dim_of(args) if dim_of else 0
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (tracer.op, sid, parent, name, dim, start, end)

        return wrapper

    def _minimize_wrapper(self, minimize):
        def traced_minimize(fun, x0, *args, **kwargs):
            return minimize(self._wrap(OBJECTIVE, fun), x0, *args, **kwargs)

        return self._wrap(MINIMIZE, functools.wraps(minimize)(traced_minimize))

    def install(self) -> None:
        """Find every binding to wrap; the package must already be imported.

        ``scipy.optimize`` is imported here, after the package, so that the
        package's own import time is measured as the package does it.
        """
        import scipy.optimize

        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES
                   if f"{PACKAGE}.{m}" in sys.modules}
        targets = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            names = list(getattr(mod, "__all__", []))
            if short == "cli":
                names = ["main"]
            for name in names:
                obj = getattr(mod, name, None)
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    span = f"{short}.{name}"
                    targets[id(obj)] = (obj, self._wrap(span, obj, DIM_OF.get(span)))
                    self.wrapped.add(span)
        minimize = scipy.optimize.minimize
        targets[id(minimize)] = (minimize, self._minimize_wrapper(minimize))
        self.wrapped.update((MINIMIZE, OBJECTIVE))
        for mod in [*modules.values(), scipy.optimize]:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value, hit[1]))

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s[2] >= 0:
            child[s[2]] += s[6] - s[5]
    return [(s[6] - s[5]) - child.get(s[1], 0.0) for s in spans]


def layer_metrics(spans: list, passes: int, wrapped: set, import_s: float | None) -> dict:
    """Per-layer metrics from the spans of ``passes`` identical passes.

    Counts and self times are per pass; ``us_p50``/``.s`` are per call.  A
    metric whose function has no wrapper (it no longer exists) is left out.
    A function that exists but was not called reads 0 calls and 0 time.
    """
    by_name = defaultdict(list)
    by_dim = defaultdict(list)
    self_by_layer = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        dur = s[6] - s[5]
        by_name[s[3]].append(dur)
        if s[4]:
            by_dim[(s[3], s[4])].append(dur)
        self_by_layer["discord.nm_overhead" if s[3] == MINIMIZE else s[3].split(".")[0]] += own

    def exact(count):
        per_pass = count / passes
        return int(per_pass) if float(per_pass).is_integer() else per_pass

    def p50_us(durations):
        return float(np.median(durations)) * 1e6 if durations else 0.0

    out = {}

    def put(key, name, value):
        if name in wrapped:
            out[key] = value

    for name in ("lie_algebra.expi", "lie_algebra.adjoint_rep",
                 "measurement.frame_from_theta", "measurement.disturbance_from_vectors"):
        put(f"{name}.calls", name, exact(len(by_name[name])))
    for name in ("lie_algebra.expi", "lie_algebra.adjoint_rep", "measurement.frame_from_theta",
                 "measurement.disturbance_from_vectors", "measurement.trace_norm_hermitian",
                 "discord.classify_correlation", "discord.lower_bounds", "states.assemble",
                 "states.from_density", "states.validate", "entanglement.entanglement_report"):
        put(f"{name}.us_p50", name, p50_us(by_name[name]))
    for name, dims in (("lie_algebra.expi", (3, 4)), ("lie_algebra.adjoint_rep", (3, 4)),
                       ("measurement.frame_from_theta", (3, 4)),
                       ("measurement.disturbance_from_vectors", (3, 4, 6)),
                       ("measurement.trace_norm_hermitian", (3, 4)),
                       ("states.assemble", range(3, 9)),
                       ("discord.classify_correlation", range(3, 9))):
        for d in dims:
            put(f"{name}.d{d}.us_p50", name, p50_us(by_dim[(name, d)]))
    for name in ("classify.classification_report", "classify.verify_adjoint_fixtures"):
        put(f"{name}.s", name, float(np.median(by_name[name])) if by_name[name] else 0.0)
    minimizers = ("discord.minimize_d1", "discord.minimize_d2")
    if all(m in wrapped for m in minimizers):
        calls = sum(len(by_name[m]) for m in minimizers)
        out["discord.minimize.calls"] = exact(calls)
        nfev = len(by_name[OBJECTIVE])
        out["discord.nfev_per_minimize"] = nfev / calls if calls else 0.0
        out["discord.nm_overhead_s"] = self_by_layer["discord.nm_overhead"] / passes
    for layer in MODULES[:-1]:
        if any(w.startswith(layer + ".") for w in wrapped):
            out[f"{layer}.self_s"] = self_by_layer[layer] / passes
    if import_s is not None:
        out["cli.import_s"] = import_s
    # cli.main is the only function wrapped in cli, so the cli layer is its self time.
    put("cli.main.self_s", "cli.main", self_by_layer["cli"] / passes)
    out["trace.spans"] = exact(len(spans))
    return out


EXACT_COUNTS = ("calls", "discord.nfev_per_minimize", "trace.spans")


def is_exact(metric: str) -> bool:
    """Metrics that must repeat exactly between two runs of one seed."""
    return metric.endswith(".calls") or metric in EXACT_COUNTS
