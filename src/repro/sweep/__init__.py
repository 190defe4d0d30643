"""Sweep evaluation: requests, the session planner and the benchmark.

The paper's results (Figs. 2, 7, 8 and the headline statistics) all
derive from exhaustive sweeps of the ``(BS, G, R)`` configuration
space per matrix size and device.  This package provides the one
evaluation path every sweep-driven command and experiment runs on:

* :class:`~repro.sweep.plan.SweepRequest` — a declarative description
  of one ``(device, N)`` sweep, resolvable to its configuration list.
* :class:`~repro.sweep.planner.EvalPlanner` — the sweep engine:
  collects the requests a session will make, deduplicates them,
  partitions them against the columnar store (:mod:`repro.store`) in
  one vectorized pass, and fills the misses as
  :mod:`repro.simgpu.batch` mega-batches (``backend="vectorized"``,
  the default) or per-point reference calls (``backend="scalar"``).
  Results are served as :data:`~repro.sweep.plan.POINT_DTYPE`
  structured arrays (``table``) or ParetoPoints
  (``evaluate_configs``).
* :func:`~repro.sweep.keys.shard_digest` /
  :func:`~repro.sweep.keys.sweep_key` — stable content identities of a
  store shard and of one point (the latter names the records of the
  retired JSON point cache, which ``repro cache migrate`` imports).
* :func:`~repro.sweep.bench.run_benchmark` — times the backends and
  the planner session against each other (``repro bench``).
"""

from repro._lazy import attach

_SUBMODULES = {
    "planner": ("EvalPlanner", "PlannerStats", "collect_session_requests"),
    "bench": ("BenchmarkCase", "run_benchmark"),
    "keys": (
        "BACKENDS", "MODEL_VERSION", "canonical_json", "shard_digest",
        "sweep_key",
    ),
    "plan": ("POINT_DTYPE", "SweepRequest", "resolve_device"),
}

__all__ = sorted(name for names in _SUBMODULES.values() for name in names)
__getattr__, __dir__ = attach(__name__, _SUBMODULES)
