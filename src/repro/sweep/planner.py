"""Cross-experiment evaluation planner (``repro all``).

Every sweep-driven experiment (the ``sweep=True`` rows of
:data:`repro.experiments.EXPERIMENTS`) ultimately asks for the same
kind of thing: the ``(time, energy)`` objectives of a set of
``(device, N, BS, G, R)`` points.  Run per-experiment, those requests
overlap heavily (fig2's P100 N=18432 sweep is also one of headline's
eight P100 sweeps; fig7's K40c sizes appear in headline's K40c range)
and each experiment pays its own sweep.  :class:`EvalPlanner` turns
the session inside out:

1. **Collect** — experiments (or :func:`collect_session_requests`)
   register :class:`~repro.sweep.plan.SweepRequest`\\ s up front.
2. **Deduplicate** — a request's configurations arrive as int64
   columns with their packed keys already built
   (:class:`~repro.apps.matmul_gpu.ConfigColumns`); the keys are
   uniqued per shard identity (device + calibration + N + model
   version + backend, hashed once per spec/calibration pair), so a
   point shared by any number of experiments is evaluated at most once
   per session.
3. **Partition** — one vectorized pass per shard against the columnar
   store (:mod:`repro.store`) splits the unique points into hits and
   misses.
4. **Fill** — all misses sharing a ``(spec, calibration)`` are
   evaluated as ONE mega-batch through :func:`repro.simgpu.batch.
   batch_run_matmul` (mixed matrix sizes per batch; per-lane results
   are bit-identical to per-sweep batches), then appended to the store
   shard-at-a-time.

The hot path is columnar end to end — enumerated int64 key columns,
packed int64 keys, float64 objective columns, structured arrays —
with zero per-point object or dict materialization;
:class:`~repro.core.pareto.ParetoPoint` records are only built at the
analysis boundary when an experiment asks for its points.  The planner is the one sweep engine: every experiment's
``engine=`` parameter, ``repro experiment``/``sweep``/``tradeoff``/
``all`` and the benchmarks go through it.  A single-experiment run is
just a session whose requests arrive one at a time: unplanned
requests (e.g. probes of a search loop) are filled lazily through the
same machinery.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.apps.matmul_gpu import MatmulConfig
from repro.core.pareto import ParetoPoint
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.sweep.keys import BACKENDS, FIELD_BITS, FIELD_MAX
from repro.sweep.plan import POINT_DTYPE, SweepRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.columnar import ColumnarStore, ShardKey

__all__ = [
    "BACKENDS",
    "POINT_DTYPE",
    "EvalPlanner",
    "PlannerStats",
    "collect_session_requests",
]


@dataclass
class PlannerStats:
    """Session-level accounting of one planner's lifetime."""

    #: Points registered across requests, before deduplication.
    requested: int = 0
    #: Distinct (shard, config) points after deduplication.
    unique_points: int = 0
    #: Unique points served from the columnar store without computing.
    store_hits: int = 0
    #: Unique points actually evaluated.
    computed: int = 0
    #: Mega-batches the misses were filled in (one per distinct
    #: (spec, calibration) among the missing points).
    batches: int = 0
    #: Points handed to experiments (duplicates across experiments
    #: count every time — this is the work the planner absorbed).
    served: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Requested-to-unique ratio (1.0 = no overlap)."""
        return self.requested / self.unique_points if self.unique_points else 0.0


class _GroupState:
    """Per-shard pending set and resolved-key index.

    With a store the group tracks only the sorted *keys* it has
    resolved — the objective values stay in the (memory-mapped) store
    shard and are copied out at serve time, so a million-point session
    holds one int64 per point here, not three float64 columns.
    Without a store there is nowhere else for computed values to live,
    so the group keeps the objective columns in memory too
    (:meth:`merge` vs :meth:`merge_keys`).
    """

    __slots__ = ("key", "spec", "cal", "n", "pending", "packed", "times", "energies")

    def __init__(
        self, key: ShardKey, spec: GPUSpec, cal: GPUCalibration, n: int
    ) -> None:
        self.key = key
        self.spec = spec
        self.cal = cal
        self.n = n
        self.pending: list[np.ndarray] = []
        self.packed = np.empty(0, dtype=np.int64)
        self.times = np.empty(0, dtype=np.float64)
        self.energies = np.empty(0, dtype=np.float64)

    def known_mask(self, packed: np.ndarray) -> np.ndarray:
        if not len(self.packed):
            return np.zeros(len(packed), dtype=bool)
        pos = np.searchsorted(self.packed, packed)
        in_range = pos < len(self.packed)
        safe = np.where(in_range, pos, 0)
        return in_range & (self.packed[safe] == packed)

    def get(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives for ``packed`` (caller guarantees all known)."""
        pos = np.searchsorted(self.packed, packed)
        return self.times[pos], self.energies[pos]

    def merge_keys(self, packed: np.ndarray) -> None:
        """Mark sorted-unique ``packed`` keys resolved (store-backed)."""
        self.packed = np.union1d(self.packed, packed)

    def merge(
        self, packed: np.ndarray, times: np.ndarray, energies: np.ndarray
    ) -> None:
        all_packed = np.concatenate([self.packed, packed])
        uniq, first = np.unique(all_packed, return_index=True)
        self.packed = uniq
        self.times = np.concatenate([self.times, times])[first]
        self.energies = np.concatenate([self.energies, energies])[first]


class EvalPlanner:
    """Collect, deduplicate and batch-fill sweep requests of a session.

    Parameters
    ----------
    store / store_dir:
        Columnar result store to partition against and fill into
        (:class:`repro.store.ColumnarStore`).  Without one, the planner
        still deduplicates and mega-batches, but nothing persists.
    backend:
        How misses are computed: ``"vectorized"`` (default — one
        :func:`repro.simgpu.batch.batch_run_matmul` mega-batch per
        distinct spec/calibration, within 1e-9 relative of the
        reference) or ``"scalar"`` (the per-point
        ``GPUDevice.run_matmul`` reference, bit-identical to
        ``MatmulGPUApp.sweep_points``).  Stored shards are tagged per
        backend, so the two never serve each other's values.
    """

    def __init__(
        self,
        *,
        store: ColumnarStore | None = None,
        store_dir: str | Path | None = None,
        backend: str = "vectorized",
    ) -> None:
        if store is not None and store_dir is not None:
            raise ValueError("pass store_dir or store, not both")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}: expected one of "
                f"{', '.join(BACKENDS)}"
            )
        if store is None and store_dir is not None:
            from repro.store.columnar import ColumnarStore

            store = ColumnarStore(store_dir)
        self.store = store
        self.backend = backend
        self.stats = PlannerStats()
        self._groups: dict[str, _GroupState] = {}

    # -- collection ---------------------------------------------------------

    def _group_for(
        self, spec: GPUSpec, cal: GPUCalibration, n: int
    ) -> _GroupState:
        from repro.store.columnar import shard_key

        key = shard_key(spec, cal, n, backend=self.backend)
        group = self._groups.get(key.digest)
        if group is None:
            group = _GroupState(key, spec, cal, n)
            self._groups[key.digest] = group
        return group

    def add(
        self,
        request: SweepRequest,
        configs: Sequence[MatmulConfig] | None = None,
    ) -> None:
        """Register one sweep request (its full config list by default)."""
        if configs is None:
            configs = request.configs()
        from repro.store.columnar import pack_configs

        group = self._group_for(request.spec, request.calibration, request.n)
        packed, _, _, _ = pack_configs(configs)
        group.pending.append(packed)
        self.stats.requested += len(packed)
        obs.count("planner.points.requested", len(packed))

    def add_all(self, requests) -> None:
        for request in requests:
            self.add(request)

    # -- execution ----------------------------------------------------------

    def execute(self) -> PlannerStats:
        """Resolve every pending point: dedup, partition, mega-batch fill.

        Idempotent — pending sets are drained, and re-adding known
        points is free.  Returns :attr:`stats`.
        """
        with obs.span("planner.execute", backend=self.backend):
            fills: dict[
                tuple[GPUSpec, GPUCalibration], list[tuple[_GroupState, np.ndarray]]
            ] = {}
            with obs.span("planner.partition", groups=len(self._groups)):
                pending_groups = [
                    g for g in self._groups.values() if g.pending
                ]
                if self.store is not None and pending_groups:
                    # Warm the shard cache with overlapped opens: each
                    # is an independent header + trailer read and mmap,
                    # so a multi-shard partition pays one open latency,
                    # not one per shard.
                    self.store.open_shards([g.key for g in pending_groups])
                for group in pending_groups:
                    packed = np.unique(np.concatenate(group.pending))
                    group.pending.clear()
                    packed = packed[~group.known_mask(packed)]
                    if not packed.size:
                        continue
                    if self.store is not None:
                        # Mask-only partition: no objective page is
                        # faulted and no row copied until serve time.
                        hit = self.store.contains(group.key, packed)
                        hits = int(hit.sum())
                        if hits:
                            group.merge_keys(packed[hit])
                            self.stats.store_hits += hits
                            obs.count("planner.store_hits", hits)
                        packed = packed[~hit]
                    if packed.size:
                        fills.setdefault((group.spec, group.cal), []).append(
                            (group, packed)
                        )
            for (spec, cal), entries in fills.items():
                self._fill(spec, cal, entries)
            self.stats.unique_points = sum(
                len(g.packed) for g in self._groups.values()
            )
            obs.gauge("planner.unique_points", self.stats.unique_points)
            obs.gauge("planner.dedup_ratio", self.stats.dedup_ratio)
            return self.stats

    def _fill(
        self,
        spec: GPUSpec,
        cal: GPUCalibration,
        entries: list[tuple[_GroupState, np.ndarray]],
    ) -> None:
        """Evaluate all missing points of one (spec, cal) as one batch."""
        ns = np.concatenate(
            [np.full(len(p), grp.n, dtype=np.int64) for grp, p in entries]
        )
        packed = np.concatenate([p for _, p in entries])
        bs = packed >> (2 * FIELD_BITS)
        g = (packed >> FIELD_BITS) & FIELD_MAX
        r = packed & FIELD_MAX
        with obs.span(
            "planner.fill_misses",
            device=spec.name,
            backend=self.backend,
            points=int(len(packed)),
            shards=len(entries),
        ):
            self._fill_batch(spec, cal, entries, ns, packed, bs, g, r)

    def _fill_batch(
        self,
        spec: GPUSpec,
        cal: GPUCalibration,
        entries: list[tuple[_GroupState, np.ndarray]],
        ns: np.ndarray,
        packed: np.ndarray,
        bs: np.ndarray,
        g: np.ndarray,
        r: np.ndarray,
    ) -> None:
        """Evaluate one mega-batch and scatter it back per shard."""
        if self.backend == "vectorized":
            from repro.simgpu.batch import batch_run_matmul

            out = batch_run_matmul(spec, cal, ns, bs, g, r)
            times = out.time_s
            energies = out.dynamic_energy_j
        else:
            from repro.simgpu.device import GPUDevice

            device = GPUDevice(spec, cal)
            times = np.empty(len(packed))
            energies = np.empty(len(packed))
            for i in range(len(packed)):
                res = device.run_matmul(
                    int(ns[i]), int(bs[i]), int(g[i]), int(r[i])
                )
                times[i] = res.time_s
                energies[i] = res.dynamic_energy_j
        self.stats.batches += 1
        self.stats.computed += len(packed)
        obs.count("planner.batches")
        obs.count("planner.points.computed", len(packed))

        offset = 0
        for grp, p in entries:
            end = offset + len(p)
            t, e = times[offset:end], energies[offset:end]
            if self.store is not None:
                self.store.append(
                    grp.key, bs[offset:end], g[offset:end], r[offset:end], t, e
                )
                grp.merge_keys(p)  # values live in the store shard
            else:
                grp.merge(p, t, e)
            offset = end

    # -- serving ------------------------------------------------------------

    def table(
        self,
        request: SweepRequest,
        configs: Sequence[MatmulConfig] | None = None,
    ) -> np.ndarray:
        """Results of one request as a structured array (:data:`POINT_DTYPE`).

        The columnar fast path: no per-point dicts, no ParetoPoint
        objects.  Unknown points are filled lazily through the normal
        dedup/partition/mega-batch machinery.  With a store, the
        objective values are copied out of the (memory-mapped) shard
        here — serve time — and nowhere earlier.
        """
        if configs is None:
            configs = request.configs()
        from repro.store.columnar import pack_configs

        with obs.span(
            "planner.serve",
            device=request.spec.name,
            n=request.n,
            points=len(configs),
        ):
            group = self._group_for(
                request.spec, request.calibration, request.n
            )
            packed, bs, g, r = pack_configs(configs)
            unknown = ~group.known_mask(packed)
            if unknown.any():
                missing = np.unique(packed[unknown])
                group.pending.append(missing)
                self.stats.requested += len(missing)
                obs.count("planner.points.requested", len(missing))
                self.execute()
            if self.store is not None:
                times, energies, hit = self.store.lookup(group.key, packed)
                if not hit.all():
                    # Every key was resolved against this shard during
                    # partition/fill, so a miss here means the shard
                    # went untrusted mid-session (e.g. garbage values
                    # surfaced at copy-out).  Fail loudly rather than
                    # serve NaN objectives into an analysis.
                    raise RuntimeError(
                        f"store shard {group.key.filename} lost "
                        f"{int((~hit).sum())} resolved points mid-session"
                    )
            else:
                times, energies = group.get(packed)
        self.stats.served += len(configs)
        obs.count("planner.points.served", len(configs))
        out = np.empty(len(configs), dtype=POINT_DTYPE)
        out["bs"], out["g"], out["r"] = bs, g, r
        out["time_s"], out["energy_j"] = times, energies
        return out

    def evaluate_configs(
        self, request: SweepRequest, configs: Sequence[MatmulConfig]
    ) -> list[ParetoPoint]:
        """ParetoPoints of ``configs``, in ``configs`` order.

        Dict/ParetoPoint materialization happens here, at the analysis
        boundary, and nowhere on the fill path.
        """
        rows = self.table(request, configs)
        return [
            ParetoPoint(time_s=t, energy_j=e, config={"bs": b, "g": g, "r": r})
            for t, e, b, g, r in zip(
                *(rows[f].tolist() for f in ("time_s", "energy_j", "bs", "g", "r"))
            )
        ]

    def evaluate(
        self,
        device: str | GPUSpec,
        n: int,
        config: MatmulConfig | dict[str, int],
        *,
        cal: GPUCalibration | None = None,
    ) -> ParetoPoint:
        """Evaluate one configuration."""
        if isinstance(config, dict):
            config = MatmulConfig(
                bs=config["bs"], g=config["g"], r=config["r"]
            )
        request = SweepRequest(device=device, n=n, cal=cal)
        return self.evaluate_configs(request, [config])[0]

    def sweep(self, device: str | GPUSpec, n: int, **kwargs) -> list[ParetoPoint]:
        """Every valid configuration of one sweep, as ParetoPoints.

        Same enumeration and order as
        :meth:`repro.apps.matmul_gpu.MatmulGPUApp.sweep_points`.
        """
        request = SweepRequest(device=device, n=n, **kwargs)
        return self.evaluate_configs(request, request.configs())


def collect_session_requests() -> tuple[SweepRequest, ...]:
    """Every sweep request of the full figure set, in experiment order.

    The concatenated ``requests()`` of the sweep-driven experiments
    (:data:`repro.experiments.SWEEP_EXPERIMENTS`) — the input of a
    ``repro all`` session.  Duplicates across experiments are
    intentional (the planner's dedup pass is what collapses them).
    """
    from repro.experiments import SWEEP_EXPERIMENTS, experiment_requests

    return tuple(
        request
        for exp_id in SWEEP_EXPERIMENTS
        for request in experiment_requests(exp_id)
    )
