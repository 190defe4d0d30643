"""Backend benchmark for sweep evaluation (``repro bench``).

Times the execution paths — the per-point scalar reference, the
NumPy-vectorized batch, and the cross-experiment planner over the
columnar store — and records the results as ``BENCH_sweep.json`` so
the perf trajectory of the simulator is tracked in-repo.

Methodology
-----------
Each backend evaluates the *same* configuration list (the full default
sweep of :class:`repro.apps.matmul_gpu.MatmulGPUApp`) with no store
attached, so the measurement is pure evaluation:

* ``scalar`` times a direct ``GPUDevice.run_matmul`` loop — the exact
  per-point call of the planner's scalar backend;
* ``vectorized`` times :func:`repro.simgpu.batch.evaluate_configs_batch`.

The ``planner`` section benchmarks a whole *session* on an enlarged
grid (both devices x sizes x total-products variants, with overlapping
requests as real experiment sessions have):

* ``per_experiment_s`` — one fresh ``EvalPlanner(backend="scalar")``
  per request, no store: the per-experiment baseline path (each figure
  evaluating its own sweeps point by point, duplicates included);
* ``planner_cold_s`` — one :class:`repro.sweep.planner.EvalPlanner`
  over an empty columnar store: dedup + vectorized mega-batch fill +
  store append + serving every request as a structured table;
* ``planner_warm_s`` — a fresh planner over the now-filled store:
  pure vectorized shard lookups, zero evaluation.

Every backend case also records the maximum relative deviation of the
vectorized results from the scalar reference, so the reported speedup
is always tied to the parity it was achieved at.  Wall-clock is the
*minimum* over ``repeats`` runs (the standard noise-robust estimator).

The per-``(N, BS, G)`` memo caches (``matmul_kernel_resources`` /
``matmul_traffic``) are cleared before every timed run of every
backend: those caches are keyed by the sweep's inputs, so a production
sweep of a *new* matrix size never hits them — timing warm repeats of
the identical sweep would measure an artifact of the benchmark loop,
not the fresh-sweep cost users pay.  Caches keyed only by BS
(``avg_rows_per_warp``), which are legitimately shared across sweeps,
stay warm.

The ``telemetry_overhead`` section times the warm planner session with
telemetry off and on (``repro.obs``); the run fails if the on-path
overhead exceeds :data:`TELEMETRY_OVERHEAD_LIMIT` (5%), and the
instrumented run's event stream lands next to ``--output`` as
``BENCH_telemetry.jsonl`` (a ``repro trace`` input; CI uploads it as
an artifact).

Bench v4 sections (the zero-copy fast path):

* ``incremental_front`` streams a synthetic point cloud through
  :class:`repro.core.incremental.IncrementalParetoFront` and diffs the
  result against the batch ``front_indices`` kernel — the
  incremental-vs-batch equivalence gate in bench form (any mismatch
  fails the run).
* ``large`` (opt-in via ``--large``) writes a **million-point**
  synthetic shard through the columnar store, then measures the peak
  RSS of a fresh subprocess serving a small lookup from it against a
  control subprocess that only imports.  Because shards are
  memory-mapped, the delta must stay well below the shard's byte size
  (:data:`LARGE_RSS_LIMIT_FRAC`) — resident-set growth linear in shard
  bytes means the zero-copy path regressed to eager loads.

``host.peak_rss_kb`` records the benchmark process's own high-water
resident set (``getrusage``) in every document.

Bench v5 (the performance observatory): every timed case retains its
raw per-repeat wall samples (``samples`` per case,
``planner.samples`` per session path) next to the min-summary, and
the document carries ``git_sha`` plus the planner session's
provenance ``inputs_digest``.  Unless ``--no-history`` is given, the
run appends one ``repro-bench-history/1`` record (host fingerprint +
samples, see :mod:`repro.obs.history`) to ``--history`` —
``BENCH_sweep.json`` stays the latest-run view while the history
JSONL accumulates the trajectory ``repro perf check`` tests against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "BenchmarkCase",
    "run_benchmark",
    "format_results",
    "add_bench_flags",
    "run_from_args",
    "main",
]

#: Schema tag of the BENCH_sweep.json document.  ``/2`` added the
#: per-case ``auto_mode`` field and the session-level ``planner``
#: section; ``/3`` added ``telemetry_overhead`` (warm planner session
#: with telemetry recording on vs off) and the telemetry JSONL
#: artifact; ``/4`` added ``parallel_crossover`` (measured
#: shared-memory pool crossover vs the configured auto threshold),
#: ``incremental_front`` (streaming-vs-batch equivalence gate),
#: ``host.peak_rss_kb``, and the ``--large`` million-point
#: memory-mapped store section with its sub-linear peak-RSS gate;
#: ``/5`` retains the raw per-repeat wall samples (per-case
#: ``samples`` and ``planner.samples``) plus ``git_sha`` and the
#: planner session's provenance ``inputs_digest`` — the inputs of the
#: bench history store and the Mann-Whitney regression sentinel
#: (:mod:`repro.obs.history`, :mod:`repro.obs.sentinel`, ``repro perf
#: check``); ``/6`` removed the process-pool path with its per-case
#: ``parallel_s`` / ``speedup_parallel`` / ``jobs`` / ``auto_mode``
#: fields and the ``parallel_crossover`` section.
BENCH_VERSION = "repro-bench/6"

#: CI gate: telemetry-on may cost at most this fraction over
#: telemetry-off on the warm planner session case.
TELEMETRY_OVERHEAD_LIMIT = 0.05

#: Row count of the ``--large`` synthetic shard.
LARGE_POINTS = 1_000_000

#: CI gate (``--large``): serving a partial lookup from the mapped
#: million-point shard may grow a fresh process's peak RSS by at most
#: this fraction of the shard's bytes on disk.
LARGE_RSS_LIMIT_FRAC = 0.5

#: The paper-scale P100 sweeps the benchmark times by default.
DEFAULT_SIZES = (10240, 18432)

#: Total-products variants of the planner session grid.  T=120 has far
#: more ``(G, R)`` divisor pairs than the paper's T=24, enlarging the
#: per-sweep configuration grid.
PLANNER_PRODUCTS = (24, 120)

#: Devices the planner session covers.
PLANNER_DEVICES = ("k40c", "p100")


@dataclass(frozen=True)
class BenchmarkCase:
    """Timings of one ``(device, N)`` sweep across backends."""

    device: str
    n: int
    configs: int
    scalar_s: float
    vectorized_s: float
    max_rel_deviation: float
    #: Raw per-repeat wall samples per backend (``scalar`` /
    #: ``vectorized``) — the ``*_s`` summaries above are their minima;
    #: the history store keeps the full arrays.
    samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def speedup_vectorized(self) -> float:
        return self.scalar_s / self.vectorized_s

    def as_dict(self) -> dict:
        return {
            "device": self.device,
            "n": self.n,
            "configs": self.configs,
            "scalar_s": self.scalar_s,
            "vectorized_s": self.vectorized_s,
            "speedup_vectorized": self.speedup_vectorized,
            "max_rel_deviation": self.max_rel_deviation,
            "samples": self.samples,
        }


def _clear_sweep_memo() -> None:
    """Reset the per-(N, BS, G) memo caches (see module docstring)."""
    from repro.simgpu.kernel import matmul_kernel_resources
    from repro.simgpu.memhier import matmul_traffic

    matmul_kernel_resources.cache_clear()
    matmul_traffic.cache_clear()


def _samples_of(fn, repeats: int) -> list[float]:
    """Every repeat's wall time — the raw material of the history
    store; summary statistics (min for the latest-run view, medians
    for the sentinel) are derived downstream, never stored alone."""
    samples = []
    for _ in range(repeats):
        _clear_sweep_memo()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def _best_of(fn, repeats: int) -> float:
    return min(_samples_of(fn, repeats))


def _scalar_sweep(spec, cal, n: int, configs) -> list[tuple[float, float]]:
    """The per-point reference: one ``GPUDevice.run_matmul`` per config."""
    from repro.simgpu.device import GPUDevice

    device = GPUDevice(spec, cal)
    out = []
    for c in configs:
        result = device.run_matmul(n, c.bs, c.g, c.r)
        out.append((result.time_s, result.dynamic_energy_j))
    return out


def _bench_case(device: str, n: int, *, repeats: int) -> BenchmarkCase:
    from repro.apps.matmul_gpu import MatmulGPUApp
    from repro.machines import get_machine
    from repro.simgpu.batch import evaluate_configs_batch

    spec = get_machine(device)
    app = MatmulGPUApp(spec)
    cal = app.device.cal
    configs = app.sweep_configs()

    scalar = _scalar_sweep(spec, cal, n, configs)
    vectorized = evaluate_configs_batch(spec, cal, n, configs)
    max_dev = max(
        max(
            abs(v[0] - s[0]) / s[0],
            abs(v[1] - s[1]) / s[1],
        )
        for s, v in zip(scalar, vectorized)
    )

    scalar_samples = _samples_of(
        lambda: _scalar_sweep(spec, cal, n, configs), repeats
    )
    vectorized_samples = _samples_of(
        lambda: evaluate_configs_batch(spec, cal, n, configs), repeats
    )
    return BenchmarkCase(
        device=device,
        n=n,
        configs=len(configs),
        scalar_s=min(scalar_samples),
        vectorized_s=min(vectorized_samples),
        max_rel_deviation=max_dev,
        samples={"scalar": scalar_samples, "vectorized": vectorized_samples},
    )


def _planner_requests(sizes: Sequence[int]) -> list:
    """The enlarged session grid the planner benchmark evaluates.

    Both devices x ``sizes`` x :data:`PLANNER_PRODUCTS`, with every
    P100 request appearing twice — real sessions overlap (e.g. fig8
    and the headline study both sweep P100 N=18432), and the duplicate
    block is exactly what the planner's dedup pass exists to absorb.
    """
    from repro.sweep.plan import SweepRequest

    base = [
        SweepRequest(device=device, n=n, total_products=t)
        for device in PLANNER_DEVICES
        for n in sizes
        for t in PLANNER_PRODUCTS
    ]
    overlap = [r for r in base if r.device == "p100"]
    return base + overlap


def _bench_planner(sizes: Sequence[int], *, repeats: int) -> dict:
    from repro.sweep.planner import EvalPlanner

    requests = _planner_requests(sizes)

    def per_experiment() -> None:
        # The baseline: each experiment evaluates its own sweeps point
        # by point, no shared state, duplicates recomputed in full.
        for request in requests:
            EvalPlanner(backend="scalar").evaluate_configs(
                request, request.configs()
            )

    def run_planner(store_dir) -> EvalPlanner:
        planner = EvalPlanner(store_dir=store_dir)
        planner.add_all(requests)
        planner.execute()
        for request in requests:
            planner.table(request)
        return planner

    def cold() -> None:
        with tempfile.TemporaryDirectory() as d:
            run_planner(d)

    per_experiment_samples = _samples_of(per_experiment, repeats)
    cold_samples = _samples_of(cold, repeats)

    with tempfile.TemporaryDirectory() as d:
        stats = run_planner(d).stats  # fill once (also: dedup stats)
        warm_samples = _samples_of(lambda: run_planner(d), repeats)

    per_experiment_s = min(per_experiment_samples)
    planner_cold_s = min(cold_samples)
    planner_warm_s = min(warm_samples)
    return {
        "devices": list(PLANNER_DEVICES),
        "sizes": list(sizes),
        "products": list(PLANNER_PRODUCTS),
        "requests": len(requests),
        "requested_points": stats.requested,
        "unique_points": stats.unique_points,
        "dedup_ratio": stats.dedup_ratio,
        "backend": "vectorized",
        "per_experiment_s": per_experiment_s,
        "planner_cold_s": planner_cold_s,
        "planner_warm_s": planner_warm_s,
        "speedup_cold": per_experiment_s / planner_cold_s,
        "speedup_warm": per_experiment_s / planner_warm_s,
        "samples": {
            "per_experiment": per_experiment_samples,
            "cold": cold_samples,
            "warm": warm_samples,
        },
    }


def _bench_telemetry(
    sizes: Sequence[int],
    *,
    repeats: int,
    jsonl_path: str | Path | None = None,
) -> dict:
    """Time the warm planner session with telemetry off vs on.

    The on-path runs with an enabled in-memory registry (recording
    spans, counters and histograms exactly like ``--telemetry
    summary``); sink I/O happens once, after timing, when
    ``jsonl_path`` is given — that capture is the CI telemetry
    artifact.  The overhead fraction feeds the bench-smoke gate
    (:data:`TELEMETRY_OVERHEAD_LIMIT`).
    """
    from repro import obs
    from repro.obs.provenance import run_manifest
    from repro.sweep.planner import EvalPlanner

    requests = _planner_requests(sizes)
    # The comparison is a ratio of two ~10 ms measurements; a single
    # noisy sample would dominate it, so floor the repeat count even
    # under --quick, *interleave* the off/on runs pairwise so slow
    # drift (CPU frequency, a co-tenant waking up) hits both sides
    # equally, alternate which side runs first within each pair to
    # cancel ordering bias, and gate on the *interquartile mean of
    # the paired differences* — min-of-block ratios flickered past
    # the 5% gate on 1-2 cpu CI runners because the two minima sample
    # different noise floors.
    repeats = max(51, repeats)

    def session(store_dir) -> None:
        planner = EvalPlanner(store_dir=store_dir)
        planner.add_all(requests)
        planner.execute()
        for request in requests:
            planner.table(request)

    prev = obs.get_telemetry()
    try:
        with tempfile.TemporaryDirectory() as d:
            session(d)  # fill the store once: both paths measure warm

            def timed_off() -> float:
                obs.set_telemetry(obs.Telemetry("off"))
                return _samples_of(lambda: session(d), 1)[0]

            def timed_on() -> float:
                # Fresh registry per on-run so recording cost, not
                # list growth across runs, is what gets measured.
                obs.set_telemetry(obs.Telemetry("summary"))
                return _samples_of(lambda: session(d), 1)[0]

            offs, ons = [], []
            for i in range(repeats):
                if i % 2 == 0:
                    offs.append(timed_off())
                    ons.append(timed_on())
                else:
                    ons.append(timed_on())
                    offs.append(timed_off())
            obs.set_telemetry(obs.Telemetry("off"))
            deltas = sorted(on - off for on, off in zip(ons, offs))
            quarter = len(deltas) // 4
            middle = deltas[quarter : len(deltas) - quarter]
            delta_s = sum(middle) / len(middle)  # interquartile mean
            off_s = sorted(offs)[len(offs) // 2]
            on_s = off_s + delta_s
            if jsonl_path is not None:
                tel = obs.set_telemetry(obs.Telemetry("jsonl", jsonl_path))
                tel.set_manifest(
                    run_manifest(
                        "bench", backend="vectorized", requests=requests
                    )
                )
                session(d)
                tel.write_jsonl()
    finally:
        obs.set_telemetry(prev)

    return {
        "planner_warm_off_s": off_s,
        "planner_warm_on_s": on_s,
        "overhead_frac": on_s / off_s - 1.0,
        "limit_frac": TELEMETRY_OVERHEAD_LIMIT,
        "jsonl": str(jsonl_path) if jsonl_path is not None else None,
    }


def _synthetic_configs(count: int) -> list:
    """``count`` distinct valid configurations (G=1 is always valid)."""
    from repro.apps.matmul_gpu import MatmulConfig

    return [
        MatmulConfig(bs=4 + (i % 29), g=1, r=1 + i // 29)
        for i in range(count)
    ]


def _bench_incremental(*, repeats: int, points: int = 50_000) -> dict:
    """Streaming front maintenance vs the batch array kernel.

    Equivalence (same front, same order, same representatives) is a
    hard gate; the timings document the amortized O(n log n) insert
    stream next to the one-shot lexsort.
    """
    import numpy as np

    from repro.core.incremental import IncrementalParetoFront
    from repro.core.pareto import front_indices

    rng = np.random.default_rng(0)
    times = rng.uniform(0.1, 10.0, points)
    energies = rng.uniform(1.0, 1000.0, points)

    batch_s = _best_of(lambda: front_indices(times, energies), repeats)

    def stream() -> IncrementalParetoFront:
        inc = IncrementalParetoFront()
        inc.extend(zip(times.tolist(), energies.tolist()))
        return inc

    incremental_s = _best_of(stream, repeats)
    inc_front = [(p.time_s, p.energy_j) for p in stream().points()]
    idx = front_indices(times, energies)
    batch_front = list(zip(times[idx].tolist(), energies[idx].tolist()))
    return {
        "points": points,
        "front_size": len(batch_front),
        "batch_s": batch_s,
        "incremental_s": incremental_s,
        "equivalent": inc_front == batch_front,
    }


_CHILD_RSS_SCRIPT = """\
import json, resource, sys

import numpy as np

from repro.store.columnar import ColumnarStore, ShardKey

payload = json.loads(sys.stdin.read())
served = 0
if payload["mode"] == "lookup":
    store = ColumnarStore(payload["root"])
    key = ShardKey(**payload["key"])
    packed = np.asarray(payload["packed"], dtype=np.int64)
    t, e, hit = store.lookup(key, packed)
    served = int(hit.sum())
print(json.dumps({
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "served": served,
}))
"""


def _child_rss(payload: dict) -> dict:
    """Run the RSS probe script in a fresh interpreter."""
    import subprocess

    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_RSS_SCRIPT],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def _bench_large(*, lookup_rows: int = 1024) -> dict:
    """Million-point synthetic shard: build, map, serve, measure RSS.

    The store write is the parent's cost (``build_s``); the serve-side
    measurement runs in fresh subprocesses so the mapped read path is
    measured from a cold address space: one child opens the shard and
    serves ``lookup_rows`` random keys, a control child only imports.
    The peak-RSS delta between them, relative to the shard's bytes on
    disk, is the sub-linearity gate (:data:`LARGE_RSS_LIMIT_FRAC`).
    """
    import dataclasses

    import numpy as np

    from repro.machines import get_machine
    from repro.simgpu.calibration import P100_CAL
    from repro.store.columnar import ColumnarStore, pack_configs, shard_key

    configs = _synthetic_configs(LARGE_POINTS)
    packed, bs, g, r = pack_configs(configs)
    rng = np.random.default_rng(0)
    times = rng.uniform(0.1, 10.0, LARGE_POINTS)
    energies = rng.uniform(1.0, 1000.0, LARGE_POINTS)
    key = shard_key(get_machine("p100"), P100_CAL, 1024)

    with tempfile.TemporaryDirectory() as d:
        store = ColumnarStore(d)
        t0 = time.perf_counter()
        store.append(key, bs, g, r, times, energies)
        build_s = time.perf_counter() - t0
        shard_bytes = (Path(d) / key.filename).stat().st_size

        probe = rng.choice(packed, size=lookup_rows, replace=False)
        t0 = time.perf_counter()
        served_t, served_e, hit = ColumnarStore(d).lookup(key, probe)
        lookup_s = time.perf_counter() - t0
        assert bool(hit.all())

        control = _child_rss({"mode": "import"})
        lookup = _child_rss(
            {
                "mode": "lookup",
                "root": d,
                "key": dataclasses.asdict(key),
                "packed": probe.tolist(),
            }
        )

    delta_bytes = (
        lookup["peak_rss_kb"] - control["peak_rss_kb"]
    ) * 1024
    return {
        "points": LARGE_POINTS,
        "shard_bytes": shard_bytes,
        "build_s": build_s,
        "lookup_rows": lookup_rows,
        "lookup_hits": int(lookup["served"]),
        "lookup_s": lookup_s,
        "bytes_copied": 2 * 8 * lookup_rows,
        "control_peak_rss_kb": control["peak_rss_kb"],
        "lookup_peak_rss_kb": lookup["peak_rss_kb"],
        "rss_delta_bytes": delta_bytes,
        "rss_delta_frac_of_shard": delta_bytes / shard_bytes,
        "limit_frac": LARGE_RSS_LIMIT_FRAC,
    }


def run_benchmark(
    *,
    device: str = "p100",
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 5,
    planner: bool = True,
    large: bool = False,
    telemetry_jsonl: str | Path | None = None,
) -> dict:
    """Run the backend benchmark; returns the BENCH_sweep.json document."""
    import resource

    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    from repro.obs.provenance import git_revision, requests_digest

    cases = [_bench_case(device, n, repeats=repeats) for n in sizes]
    doc = {
        "version": BENCH_VERSION,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "repeats": repeats,
        # What produced these numbers: the checkout and the planner
        # session's input identity (the history store records both, so
        # a timing shift can be tied to a code or an input change).
        "git_sha": git_revision(),
        "inputs_digest": requests_digest(_planner_requests(sizes)),
        "cases": [c.as_dict() for c in cases],
    }
    doc["incremental_front"] = _bench_incremental(repeats=repeats)
    if planner:
        doc["planner"] = _bench_planner(sizes, repeats=repeats)
        doc["telemetry_overhead"] = _bench_telemetry(
            sizes, repeats=repeats, jsonl_path=telemetry_jsonl
        )
    if large:
        doc["large"] = _bench_large()
    doc["host"]["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    return doc


def format_results(doc: dict) -> str:
    """Human-readable table of a benchmark document."""
    from repro.analysis.report import format_table

    rows = [
        (
            c["device"],
            c["n"],
            c["configs"],
            f"{c['scalar_s'] * 1e3:.2f}",
            f"{c['vectorized_s'] * 1e3:.2f} "
            f"({c['speedup_vectorized']:.1f}x)",
            f"{c['max_rel_deviation']:.1e}",
        )
        for c in doc["cases"]
    ]
    out = format_table(
        [
            "device",
            "N",
            "configs",
            "scalar (ms)",
            "vectorized (ms)",
            "max rel dev",
        ],
        rows,
    )
    inc = doc.get("incremental_front")
    if inc is not None:
        out += (
            f"\n\nincremental front: {inc['points']} points -> "
            f"{inc['front_size']} front, batch "
            f"{inc['batch_s'] * 1e3:.2f} ms, streaming "
            f"{inc['incremental_s'] * 1e3:.2f} ms, equivalent: "
            f"{'yes' if inc['equivalent'] else 'NO'}"
        )
    big = doc.get("large")
    if big is not None:
        out += (
            f"\n\nlarge shard ({big['points']} points, "
            f"{big['shard_bytes'] / 1e6:.0f} MB mapped): build "
            f"{big['build_s'] * 1e3:.0f} ms, "
            f"{big['lookup_rows']}-row lookup "
            f"{big['lookup_s'] * 1e3:.2f} ms copying "
            f"{big['bytes_copied'] / 1e3:.0f} kB; peak-RSS delta "
            f"{big['rss_delta_bytes'] / 1e6:.1f} MB = "
            f"{big['rss_delta_frac_of_shard'] * 100:.0f}% of shard "
            f"(limit {big['limit_frac'] * 100:.0f}%)"
        )
    p = doc.get("planner")
    if p is not None:
        out += (
            f"\n\nplanner session: {p['requests']} requests, "
            f"{p['requested_points']} points "
            f"({p['unique_points']} unique, "
            f"dedup {p['dedup_ratio']:.2f}x)\n"
            + format_table(
                ["path", "wall (ms)", "speedup"],
                [
                    (
                        "per-experiment (scalar)",
                        f"{p['per_experiment_s'] * 1e3:.2f}",
                        "1.0x",
                    ),
                    (
                        "planner cold store",
                        f"{p['planner_cold_s'] * 1e3:.2f}",
                        f"{p['speedup_cold']:.1f}x",
                    ),
                    (
                        "planner warm store",
                        f"{p['planner_warm_s'] * 1e3:.2f}",
                        f"{p['speedup_warm']:.1f}x",
                    ),
                ],
            )
        )
    t = doc.get("telemetry_overhead")
    if t is not None:
        out += (
            f"\n\ntelemetry overhead (warm planner session): "
            f"off {t['planner_warm_off_s'] * 1e3:.2f} ms, "
            f"on {t['planner_warm_on_s'] * 1e3:.2f} ms "
            f"({t['overhead_frac'] * 100:+.1f}%, limit "
            f"{t['limit_frac'] * 100:.0f}%)"
        )
        if t.get("jsonl"):
            out += f"\ntelemetry event stream: {t['jsonl']}"
    return out


def add_bench_flags(parser: argparse.ArgumentParser) -> None:
    """Register the ``repro bench`` flags on ``parser``."""
    from repro.devices.registry import gpu_device_choices

    parser.add_argument(
        "--device", choices=gpu_device_choices(), default="p100"
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        metavar="N", help="matrix sizes to sweep (default: 10240 18432)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per backend; wall-clock is the minimum",
    )
    parser.add_argument(
        "--no-planner", action="store_true",
        help="skip the planner session case",
    )
    parser.add_argument(
        "--large", action="store_true",
        help=(
            "include the million-point synthetic shard case (mapped "
            "store build + subprocess peak-RSS gate)"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="single repeat — the CI smoke settings (the planner case "
             "stays on)",
    )
    parser.add_argument(
        "--output", default="BENCH_sweep.json", metavar="FILE",
        help="where to write the JSON document (default BENCH_sweep.json)",
    )
    parser.add_argument(
        "--telemetry-output", default=None, metavar="FILE",
        help=(
            "where to write the planner session's telemetry event "
            "stream (`repro trace` / `repro perf` input; CI uploads "
            "it as an artifact; default: benchmarks/BENCH_telemetry."
            "jsonl when a benchmarks/ directory sits next to "
            "--output, else next to --output)"
        ),
    )
    from repro.obs.history import DEFAULT_HISTORY_PATH

    parser.add_argument(
        "--history", default=str(DEFAULT_HISTORY_PATH), metavar="FILE",
        help=(
            "append this run (host fingerprint + raw wall samples) to "
            "a repro-bench-history/1 JSONL — the `repro perf check` "
            "baseline (default: benchmarks/history/bench_history.jsonl)"
        ),
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the bench history store",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Run the benchmark from parsed flags; returns the exit code.

    Non-zero if the vectorized backend is slower than the serial scalar
    path on any case, or if the warm-store planner session is slower
    than the per-experiment baseline — the benchmark doubles as a perf
    regression gate (CI runs it with ``--quick``).
    """
    telemetry_jsonl = args.telemetry_output
    if telemetry_jsonl is None:
        # Generated artifact — keep it under benchmarks/ (gitignored)
        # when run from a checkout, not loose in the repo root.
        out_dir = Path(args.output).parent
        bench_dir = out_dir / "benchmarks"
        telemetry_jsonl = str(
            bench_dir / "BENCH_telemetry.jsonl"
            if bench_dir.is_dir()
            else out_dir / "BENCH_telemetry.jsonl"
        )
    doc = run_benchmark(
        device=args.device,
        sizes=args.sizes,
        repeats=1 if args.quick else args.repeats,
        planner=not args.no_planner,
        large=args.large,
        telemetry_jsonl=telemetry_jsonl,
    )
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(format_results(doc))
    print(f"\nwrote {args.output}")
    if not args.no_history:
        from repro.obs.history import append_record, history_record

        target = append_record(args.history, history_record(doc))
        print(f"appended history record to {target}")

    failed = False
    slow = [
        c for c in doc["cases"] if c["speedup_vectorized"] < 1.0
    ]
    if slow:
        worst = min(c["speedup_vectorized"] for c in slow)
        print(
            f"FAIL: vectorized backend slower than scalar "
            f"({worst:.2f}x) — perf regression",
            file=sys.stderr,
        )
        failed = True
    planner = doc.get("planner")
    if planner is not None and planner["speedup_warm"] < 1.0:
        print(
            f"FAIL: warm-store planner slower than the per-experiment "
            f"baseline ({planner['speedup_warm']:.2f}x) — perf "
            f"regression",
            file=sys.stderr,
        )
        failed = True
    telemetry = doc.get("telemetry_overhead")
    if (
        telemetry is not None
        and telemetry["overhead_frac"] > TELEMETRY_OVERHEAD_LIMIT
    ):
        print(
            f"FAIL: telemetry-on overhead "
            f"{telemetry['overhead_frac'] * 100:.1f}% exceeds the "
            f"{TELEMETRY_OVERHEAD_LIMIT * 100:.0f}% limit on the warm "
            f"planner session — instrumentation regression",
            file=sys.stderr,
        )
        failed = True
    incremental = doc.get("incremental_front")
    if incremental is not None and not incremental["equivalent"]:
        print(
            "FAIL: incremental Pareto front diverged from the batch "
            "kernel — front maintenance regression",
            file=sys.stderr,
        )
        failed = True
    large = doc.get("large")
    if (
        large is not None
        and large["rss_delta_frac_of_shard"] > LARGE_RSS_LIMIT_FRAC
    ):
        print(
            f"FAIL: partial lookup over the mapped million-point shard "
            f"grew peak RSS by "
            f"{large['rss_delta_frac_of_shard'] * 100:.0f}% of the "
            f"shard bytes (limit {LARGE_RSS_LIMIT_FRAC * 100:.0f}%) — "
            f"zero-copy read path regression",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``tools/bench_sweep.py``)."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Time scalar vs vectorized sweep backends and the planner "
            "session path"
        ),
    )
    add_bench_flags(parser)
    return run_from_args(parser.parse_args(argv))
