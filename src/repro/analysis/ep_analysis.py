"""High-level energy-proportionality analysis pipelines.

Glue between the simulators/apps and the core library: run a sweep,
apply the strong/weak EP checks, extract fronts and trade-offs, and
package everything into one result object the experiments and benches
render.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.definitions import (
    StrongEPResult,
    WeakEPResult,
    check_strong_ep,
    check_weak_ep,
)
from repro.core.pareto import (
    ParetoPoint,
    front_indices,
    local_pareto_front,
    pareto_front,
)
from repro.core.tradeoff import TradeoffEntry, max_energy_saving, tradeoff_table

__all__ = [
    "StrongEPStudy",
    "WeakEPStudy",
    "materialize",
    "strong_ep_study",
    "weak_ep_study",
    "weak_ep_study_table",
]


@dataclass(frozen=True)
class StrongEPStudy:
    """Strong-EP verdict over a workload sweep on one device."""

    device: str
    work: tuple[float, ...]
    energy_j: tuple[float, ...]
    result: StrongEPResult


@dataclass(frozen=True)
class WeakEPStudy:
    """Weak-EP verdict plus bi-objective analysis of one config sweep.

    Attributes
    ----------
    device:
        Platform label.
    workload:
        Workload identifier (e.g. matrix size N).
    points:
        All evaluated configuration points.  Empty for table-backed
        studies (:func:`weak_ep_study_table`), where the sweep lives
        in :attr:`table` and per-point records are materialized only
        on demand via :meth:`all_points`.
    weak_ep:
        Constancy verdict over the configuration energies.
    front:
        Global Pareto front.
    tradeoffs:
        Trade-off table of the global front.
    headline:
        Max-saving entry (the paper's headline pair).
    local_front:
        Front of the configured sub-region, when a region was given.
    table:
        The full sweep as a ``POINT_DTYPE`` structured array on the
        columnar fast path, ``None`` on the legacy point path.
    """

    device: str
    workload: int
    points: tuple[ParetoPoint, ...]
    weak_ep: WeakEPResult
    front: tuple[ParetoPoint, ...]
    tradeoffs: tuple[TradeoffEntry, ...]
    headline: TradeoffEntry
    local_front: tuple[ParetoPoint, ...] | None = None
    local_headline: TradeoffEntry | None = None
    table: np.ndarray | None = field(default=None, compare=False, repr=False)

    def all_points(self) -> tuple[ParetoPoint, ...]:
        """Every sweep point — the opt-in materialization adapter.

        Table-backed studies keep the sweep columnar; callers that
        genuinely need per-point records (none on the figure path)
        pay the conversion here and nowhere else.
        """
        if self.points or self.table is None:
            return self.points
        return materialize(self.table, range(len(self.table)))


def strong_ep_study(
    device: str, work: Sequence[float], energy_j: Sequence[float]
) -> StrongEPStudy:
    """Apply the strong-EP linearity check to one device's sweep."""
    return StrongEPStudy(
        device=device,
        work=tuple(float(w) for w in work),
        energy_j=tuple(float(e) for e in energy_j),
        result=check_strong_ep(work, energy_j),
    )


def weak_ep_study(
    device: str,
    workload: int,
    points: Sequence[ParetoPoint],
    *,
    region: Callable[[ParetoPoint], bool] | None = None,
) -> WeakEPStudy:
    """Weak-EP + Pareto analysis of one configuration sweep.

    ``region`` optionally selects the sub-space for a *local* front
    (e.g. ``lambda p: p.config["bs"] <= 31`` for the K40c analysis).
    """
    pts = list(points)
    if not pts:
        raise ValueError("empty sweep")
    weak = check_weak_ep([p.energy_j for p in pts])
    front = pareto_front(pts)
    local = None
    local_headline = None
    if region is not None:
        local = tuple(local_pareto_front(pts, region))
        region_points = [p for p in pts if region(p)]
        if region_points:
            local_headline = max_energy_saving(region_points)
    return WeakEPStudy(
        device=device,
        workload=workload,
        points=tuple(pts),
        weak_ep=weak,
        front=tuple(front),
        tradeoffs=tuple(tradeoff_table(pts)),
        headline=max_energy_saving(pts),
        local_front=local,
        local_headline=local_headline,
    )


def materialize(table: np.ndarray, idx) -> tuple[ParetoPoint, ...]:
    """ParetoPoints for the given table rows (reporting boundary only).

    Config payloads are plain-int ``{"bs", "g", "r"}`` dicts, matching
    :meth:`repro.apps.matmul_gpu.MatmulConfig.as_dict` bit for bit so
    renderers and goldens cannot tell the two paths apart.
    """
    bs, g, r = table["bs"], table["g"], table["r"]
    times, energies = table["time_s"], table["energy_j"]
    return tuple(
        ParetoPoint(
            time_s=float(times[i]),
            energy_j=float(energies[i]),
            config={"bs": int(bs[i]), "g": int(g[i]), "r": int(r[i])},
        )
        for i in idx
    )


def weak_ep_study_table(
    device: str,
    workload: int,
    table: np.ndarray,
    *,
    region_mask: np.ndarray | None = None,
) -> WeakEPStudy:
    """Weak-EP + Pareto analysis of one sweep table (columnar fast path).

    The structured-array twin of :func:`weak_ep_study`: ``table`` is a
    ``POINT_DTYPE`` array (``repro.sweep.plan.POINT_DTYPE`` — what
    ``EvalPlanner.table`` serves) and ``region_mask`` an
    optional boolean mask over its rows selecting the *local*-front
    sub-region.  The whole analysis runs on the columns; only the
    front members (a handful of rows) are materialized as
    :class:`ParetoPoint` records, and the resulting study renders
    byte-identically to the point path
    (``tests/test_analysis_table_parity.py``).
    """
    if not len(table):
        raise ValueError("empty sweep")
    weak = check_weak_ep(table["energy_j"])
    front = materialize(
        table, front_indices(table["time_s"], table["energy_j"])
    )
    local = None
    local_headline = None
    if region_mask is not None:
        sub = np.flatnonzero(np.asarray(region_mask, dtype=bool))
        lidx = sub[
            front_indices(table["time_s"][sub], table["energy_j"][sub])
        ]
        local = materialize(table, lidx)
        if sub.size:
            # The max-saving entry of a point set equals that of its
            # front (tradeoff_table reduces to the front internally),
            # so the region's headline needs only the local front.
            local_headline = max_energy_saving(list(local))
    front_list = list(front)
    return WeakEPStudy(
        device=device,
        workload=workload,
        points=(),
        weak_ep=weak,
        front=front,
        tradeoffs=tuple(tradeoff_table(front_list)),
        headline=max_energy_saving(front_list),
        local_front=local,
        local_headline=local_headline,
        table=table,
    )
