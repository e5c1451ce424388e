"""Layer spans for the traced benchmark run, recorded from outside the package.

:func:`install` wraps every public function of the atomscreen modules at
each module attribute its callers look up, so the real call path runs
unchanged and ``src/`` is never edited. The LAPACK and dense steps of the
eigensolver are wrapped through proxies of the ``sla`` and ``lapack``
names that ``atomscreen.eigensolve`` calls them by.

A span is ``[op, id, parent, name, start, end, work]``: the operation it
belongs to, its own id, the id of the span that caused it (-1 for none),
perf_counter times in seconds, and a computed work count (0 where the span
has none). Spans stay in memory until the worker writes them out.
:func:`summarize` turns them into per-layer metrics, with self time being
a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

LAYERS = ("model", "bsplines", "operators", "eigensolve", "spectra", "cli")

#: Calls out of ``eigensolve`` into other modules, named as its sub-steps.
SUBSTEPS = {
    "band_to_dense": "eigensolve.densify",
    "band_matvec": "eigensolve.polish",
    "cholesky_banded": "eigensolve.cholesky",
    "eigh": "eigensolve.eig",
}
SUBSTEP_NAMES = frozenset(SUBSTEPS.values()) | {"eigensolve.transform", "eigensolve.backsub"}

#: Spectra calls that hand states (or table rows) back to their caller.
_STATE_RESULTS = frozenset(
    f"spectra.{fn}"
    for fn in ("ionization_table", "helium_binding_table", "lithium_spectrum", "solve_channel")
)


def _work(name: str, args: tuple, kwargs: dict, result) -> float:
    """Computed work of one call, recorded on its span."""
    if name == "bsplines.design_tables":
        quad = args[1] if len(args) > 1 else kwargs["quad"]
        return float(quad.nodes.size)  # intervals x nodes per interval
    if name == "eigensolve.densify":
        n = args[0].shape[1]
        return 8.0 * n * n  # bytes of one dense float64 matrix
    if name == "eigensolve.solve_lowest":
        return float(args[1] if len(args) > 1 else kwargs["k_states"])
    if name == "spectra.ionization_potential":
        return 1.0
    if name in _STATE_RESULTS:
        return float(len(result))
    return 0.0


class Tracer:
    """In-memory span recorder for one single-threaded worker."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        record = [self._op, len(self.spans), self._stack[-1] if self._stack else -1,
                  name, time.perf_counter(), 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[1])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def operation(self):
        """Root span of the next benchmark operation."""
        self._op += 1
        return self.span("op")

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                record[6] = _work(name, args, kwargs, result)
            return result

        return traced


class _ModuleProxy:
    """Stands in for a module, with some attributes replaced."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions wherever a module looks them up."""
    modules = {layer: importlib.import_module(f"atomscreen.{layer}") for layer in LAYERS}
    public = {}
    for layer, module in modules.items():
        for attr in module.__all__:
            obj = getattr(module, attr)
            if callable(obj) and not isinstance(obj, type):
                public[id(obj)] = (obj, f"{layer}.{attr}")
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if id(value) in public:
                fn, name = public[id(value)]
                if layer == "eigensolve" and attr in SUBSTEPS:
                    name = SUBSTEPS[attr]
                setattr(module, attr, tracer.wrap(fn, name))

    eigensolve = modules["eigensolve"]
    sla, lapack = eigensolve.sla, eigensolve.lapack
    dtbtrs = lapack.dtbtrs

    def traced_dtbtrs(*args, **kwargs):
        name = "eigensolve.transform" if kwargs.get("trans") == "T" else "eigensolve.backsub"
        with tracer.span(name):
            return dtbtrs(*args, **kwargs)

    eigensolve.sla = _ModuleProxy(sla, {
        attr: tracer.wrap(getattr(sla, attr), SUBSTEPS[attr])
        for attr in ("cholesky_banded", "eigh")
    })
    eigensolve.lapack = _ModuleProxy(lapack, {"dtbtrs": traced_dtbtrs})


#: Spans reported as time per operation, ``<name>_ms``.
_TIMED = (
    "bsplines.make_knots", "bsplines.make_quadrature", "bsplines.design_tables",
    "model.potential_value", "operators.assemble", "eigensolve.solve_lowest",
    "eigensolve.densify", "eigensolve.cholesky", "eigensolve.transform", "eigensolve.eig",
    "eigensolve.backsub", "eigensolve.polish", "cli.main",
)
#: Spans reported as calls per operation, ``<name>_calls``.
_CALLS = ("model.potential_value", "operators.assemble", "eigensolve.solve_lowest")


def merge(span_lists: list[list[list]]) -> list[list]:
    """Join the spans of several processes, renumbering ids so they stay unique."""
    merged = []
    for recorded in span_lists:
        offset = len(merged)
        for op, sid, parent, *rest in recorded:
            merged.append([op, sid + offset, parent + offset if parent >= 0 else -1, *rest])
    return merged


def summarize(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics, each per operation unless it is a ratio.

    ``ops`` is the number of benchmark operations the spans cover.
    """
    children: dict[int, list[list]] = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)
    names = {span[1]: span[3] for span in spans}

    def duration(span):
        return span[5] - span[4]

    def self_time(span):
        return duration(span) - sum(duration(child) for child in children.get(span[1], ()))

    def named(name):
        return [span for span in spans if span[3] == name]

    def has_descendant(span, name):
        stack = list(children.get(span[1], ()))
        while stack:
            child = stack.pop()
            if child[3] == name:
                return True
            stack.extend(children.get(child[1], ()))
        return False

    per_op = 1.0 / max(ops, 1)
    metrics = {}
    for name in _TIMED:
        metrics[f"{name}_ms"] = 1e3 * per_op * sum(duration(s) for s in named(name))
    for name in _CALLS:
        metrics[f"{name}_calls"] = per_op * len(named(name))
    for layer in LAYERS:
        own = [s for s in spans if s[3].startswith(layer + ".") and s[3] not in SUBSTEP_NAMES]
        metrics[f"{layer}.self_ms"] = 1e3 * per_op * sum(self_time(s) for s in own)

    builds = named("bsplines.build_workspace")
    metrics["bsplines.workspaces_built"] = per_op * sum(1 for s in builds if children.get(s[1]))
    metrics["bsplines.design_nodes"] = per_op * sum(s[6] for s in named("bsplines.design_tables"))
    metrics["eigensolve.dense_bytes"] = per_op * sum(s[6] for s in named("eigensolve.densify"))

    calls = named("spectra.solve_channel")
    solves = named("eigensolve.solve_lowest")
    hits = sum(1 for s in calls if not has_descendant(s, "eigensolve.solve_lowest"))
    metrics["spectra.solve_channel_calls"] = per_op * len(calls)
    metrics["spectra.solves"] = per_op * len(solves)
    metrics["spectra.cache_hit_ratio"] = hits / len(calls) if calls else 0.0
    # States handed to callers outside spectra, against states the solver computed.
    used = sum(
        s[6] for s in spans
        if s[3].startswith("spectra.") and not names.get(s[2], "").startswith("spectra.")
    )
    solved = sum(s[6] for s in solves)
    metrics["spectra.states_solved_per_state_used"] = solved / used if used else 0.0
    return metrics
