"""Layer spans recorded from outside the program.

The benchmark never edits ``repro``: it wraps the public functions of
each layer module at run time (:class:`Tracer.installed`) and records a
span for every call, with a link to the span that was open when it
started.  Spans stay in memory until the run ends; :func:`layer_metrics`
turns them into the per-layer table.

A layer's self time is its spans' time minus the time of their direct
child spans, so the self times of all layers, the client's included,
sum to the wall time of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: ``(module, attribute, layer, span name)``; ``Class.method`` attributes
#: are patched on the class, plain functions wherever a ``repro`` module
#: holds a reference to them.
TARGETS = (
    ("repro.cli", "main", "cli", "cli.main"),
    ("repro.cli", "build_parser", "cli", "cli.build_parser"),
    ("repro.devices.registry", "DeviceRegistry.load_dirs", "devices", "devices.load_dirs"),
    ("repro.apps.matmul_gpu", "MatmulGPUApp.__init__", "apps", "apps.init"),
    ("repro.apps.matmul_gpu", "MatmulGPUApp.sweep_configs", "apps", "apps.sweep_configs"),
    ("repro.sweep.planner", "EvalPlanner.add", "planner", "planner.add"),
    ("repro.sweep.planner", "EvalPlanner.execute", "planner", "planner.execute"),
    ("repro.sweep.planner", "EvalPlanner.table", "planner", "planner.table"),
    ("repro.simgpu.batch", "batch_run_matmul", "batch", "batch.run_matmul"),
    ("repro.store.columnar", "ColumnarStore.append", "store", "store.append"),
    ("repro.store.columnar", "ColumnarStore.open_shards", "store", "store.open_shards"),
    ("repro.store.columnar", "ColumnarStore.contains", "store", "store.contains"),
    ("repro.store.columnar", "ColumnarStore.lookup", "store", "store.lookup"),
    ("repro.core.pareto", "front_indices", "core", "core.front_indices"),
    ("repro.core.pareto", "pareto_front", "core", "core.pareto_front"),
    ("repro.core.tradeoff", "tradeoff_table", "core", "core.tradeoff"),
    ("repro.core.tradeoff", "saving_at_degradation", "core", "core.tradeoff"),
    ("repro.core.tradeoff", "max_energy_saving", "core", "core.tradeoff"),
    ("repro.core.tradeoff", "knee_point", "core", "core.tradeoff"),
)

#: The sweep-driven experiments a ``repro all`` session renders; their
#: ``run`` functions and result ``render`` methods form the
#: ``experiments`` layer.
EXPERIMENT_MODULES = (
    "repro.experiments.fig2_p100_n18432",
    "repro.experiments.fig7_k40c_pareto",
    "repro.experiments.fig8_p100_pareto",
    "repro.experiments.headline",
    "repro.experiments.sensitivity",
    "repro.experiments.budgeted_search",
)

#: Layers in report order; ``client`` is the benchmark's own code.
LAYERS = (
    "client", "cli", "devices", "apps", "planner", "batch", "store",
    "core", "experiments",
)

#: Inclusive-time metrics: metric -> span names.  A span nested inside
#: another span of the same set is not counted twice.
TIME_METRICS = {
    "cli.command_s": ("cli.main",),
    "cli.build_parser_s": ("cli.build_parser",),
    "devices.registry_load_s": ("devices.load_dirs",),
    "apps.enumerate_s": ("apps.init", "apps.sweep_configs"),
    "planner.add_s": ("planner.add",),
    "planner.execute_s": ("planner.execute",),
    "planner.table_s": ("planner.table",),
    "batch.busy_s": ("batch.run_matmul",),
    "store.append_s": ("store.append",),
    "store.open_shards_s": ("store.open_shards",),
    "store.contains_s": ("store.contains",),
    "store.lookup_s": ("store.lookup",),
    "core.front_indices_s": ("core.front_indices",),
    "core.materialize_s": ("core.materialize",),
    "core.tradeoff_s": ("core.tradeoff",),
    "experiments.render_s": ("experiments.run", "experiments.render"),
}

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: a workload does not reach reads 0 there.
PER_LAYER = {
    "interp.startup_s": "s",
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.repro_self_s": "s",
    **{name: "s" for name in TIME_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "apps.configs": "count",
    "planner.dedup_ratio": "ratio",
    "planner.computed": "count",
    "planner.store_hits": "count",
    "batch.calls": "count",
    "batch.points": "count",
    "store.append.calls": "count",
    "store.lookup.calls": "count",
    "store.hit_ratio": "ratio",
    "store.shards": "count",
    "store.bytes_on_disk": "B",
    "store.integrity_warnings": "count",
    "trace_overhead_frac": "ratio",
    "traced_ops": "count",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.planners: dict[int, object] = {}
        self._stack: list[Span] = []
        self._thread = threading.get_ident()
        self._active = False
        self._fixed: list[tuple[object, str, object, object]] | None = None
        self._functions: list[tuple[str, object, object]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, layer: str) -> Span | None:
        if threading.get_ident() != self._thread:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(span)

    def end_op(self) -> None:
        """Fold the stats of the planners an operation used into counts."""
        for planner in self.planners.values():
            stats = planner.stats
            self.counts["planner.requested"] += stats.requested
            self.counts["planner.unique"] += stats.unique_points
            self.counts["planner.computed"] += stats.computed
            self.counts["planner.store_hits"] += stats.store_hits
        self.planners.clear()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            span = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "batch.run_matmul":
            c["batch.calls"] += 1
            c["batch.points"] += len(result)
        elif name == "apps.sweep_configs":
            c["apps.configs"] += len(result)
        elif name == "planner.execute":
            self.planners[id(args[0])] = args[0]
        elif name == "store.append":
            c["store.append.calls"] += 1
        elif name == "store.contains":
            c["store.contains.points"] += len(result)
            c["store.contains.hits"] += int(result.sum())
        elif name == "store.lookup":
            c["store.lookup.calls"] += 1

    # -- patching -----------------------------------------------------------

    def _find_sites(self) -> list[tuple[object, str, object, object]]:
        """Every ``(owner, attribute, original, wrapper)`` to patch.

        Methods are patched on their class, found once.  A plain
        function is patched in every ``repro`` module that holds it,
        looked up again at each install because commands import modules
        lazily.
        """
        if self._fixed is None:
            self._fixed, self._functions = [], []
            for module_name, attr, layer, name in TARGETS:
                module = importlib.import_module(module_name)
                if "." not in attr:
                    original = getattr(module, attr)
                    self._functions.append(
                        (attr, original, self._wrap(original, name, layer)))
                    continue
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, name, layer))
                else:
                    wrapper = self._wrap(original, name, layer)
                self._fixed.append((owner, meth, original, wrapper))
            for module_name in EXPERIMENT_MODULES:
                module = importlib.import_module(module_name)
                self._fixed.append((module, "run", module.run, self._wrap(
                    module.run, "experiments.run", "experiments")))
                for value in list(vars(module).values()):
                    if (
                        isinstance(value, type)
                        and value.__module__ == module_name
                        and "render" in value.__dict__
                    ):
                        original = value.__dict__["render"]
                        self._fixed.append((value, "render", original, self._wrap(
                            original, "experiments.render", "experiments")))
        sites = list(self._fixed)
        modules = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith("repro")]
        for attr, original, wrapper in self._functions:
            for mod in modules:
                # A module imported during a traced operation may have
                # copied the wrapper; it gets the original back too.
                if vars(mod).get(attr) in (original, wrapper):
                    sites.append((mod, attr, original, wrapper))
        return sites

    @contextlib.contextmanager
    def installed(self):
        """The layer functions record spans inside this context."""
        sites = self._find_sites()
        for owner, attr, _, wrapper in sites:
            setattr(owner, attr, wrapper)
        self._active = True
        try:
            yield
        finally:
            self._active = False
            for owner, attr, original, _ in sites:
                setattr(owner, attr, original)


class Clock:
    seconds = 0.0


@contextlib.contextmanager
def operation(tracer: Tracer | None):
    """Time one operation; with a tracer, also wrap the layer functions
    and open the operation's root span.  Yields a :class:`Clock`."""
    clock = Clock()
    if tracer is None:
        t0 = time.perf_counter()
        yield clock
        clock.seconds = time.perf_counter() - t0
        return
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("client.op", "client"):
            yield clock
        clock.seconds = time.perf_counter() - t0
    tracer.end_op()


# -- analysis -----------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: span time minus direct-child span time."""
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start)
        if s.parent is not None:
            parent = spans[s.parent]
            out[parent.layer] = out.get(parent.layer, 0.0) - (s.end - s.start)
    return out


def inclusive_time(spans: list[Span], names: tuple[str, ...]) -> float:
    """Total time of ``names`` spans, counting nested repeats once."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            total += s.end - s.start
    return total


def root_time(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per traced operation.

    Times and counts are means over the ``ops`` traced operations;
    ratios are taken over all of them.
    """
    spans = tracer.spans
    ops = max(ops, 1)
    out = {name: inclusive_time(spans, names) / ops
           for name, names in TIME_METRICS.items()}
    for layer, value in self_times(spans).items():
        out[f"{layer}.self_s"] = value / ops
    c = tracer.counts
    unique = c["planner.unique"]
    out["planner.dedup_ratio"] = c["planner.requested"] / unique if unique else 0.0
    out["planner.computed"] = c["planner.computed"] / ops
    out["planner.store_hits"] = c["planner.store_hits"] / ops
    out["apps.configs"] = c["apps.configs"] / ops
    out["batch.calls"] = c["batch.calls"] / ops
    out["batch.points"] = c["batch.points"] / ops
    out["store.append.calls"] = c["store.append.calls"] / ops
    out["store.lookup.calls"] = c["store.lookup.calls"] / ops
    points = c["store.contains.points"]
    out["store.hit_ratio"] = c["store.contains.hits"] / points if points else 0.0
    return out
