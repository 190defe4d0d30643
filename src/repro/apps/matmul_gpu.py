"""The paper's GPU matrix-multiplication application (Section IV).

The application computes ``G × R`` matrix products ``C = A·B`` of two
dense square ``N×N`` double matrices, with three application-level
decision variables:

* ``BS`` — per-block shared-memory tile dimension (1..32, template
  parameter of the device code in Fig. 5);
* ``G``  — size of a group of device matmul codes repeated textually
  one after the other inside one kernel (dgemmG1..dgemmG8 ⇒ G ≤ 8);
* ``R``  — number of runs (kernel launches) of a group.

All configurations compared for one workload solve the *same* total
number of products ``T = G·R`` (weak-EP requirement: equal work), so
admissible G are the divisors of T that also respect the per-block
shared-memory limit for the given BS.

:class:`MatmulGPUApp` enumerates the valid configuration space and
evaluates each configuration on the GPU simulator, yielding the
(time, dynamic energy) points the paper's Figs. 2, 7 and 8 plot.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.biobjective import ConfigurationSpace
from repro.core.pareto import ParetoPoint
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.simgpu.device import GPUDevice, KernelRunResult
from repro.simgpu.kernel import max_group_size
from repro.store.columnar import pack_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sweep.planner import EvalPlanner

__all__ = ["ConfigColumns", "MatmulConfig", "MatmulGPUApp", "divisors"]


def divisors(n: int) -> list[int]:
    """Positive divisors of ``n`` in increasing order."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


@dataclass(frozen=True)
class MatmulConfig:
    """One application configuration (BS, G, R)."""

    bs: int
    g: int
    r: int

    def as_dict(self) -> dict[str, int]:
        return {"bs": self.bs, "g": self.g, "r": self.r}


class ConfigColumns(Sequence):
    """A read-only sequence of :class:`MatmulConfig` held as int64 columns.

    ``bs``, ``g`` and ``r`` are the key columns and ``packed`` their
    :func:`repro.store.columnar.pack_config` keys, all non-writeable.
    The packable-range check runs once, at construction, so the planner
    and store consume the columns with no per-point object in between.
    Indexing by int yields a :class:`MatmulConfig`, slicing yields
    another ``ConfigColumns``, and ``==`` compares element-wise with any
    sequence of configs.
    """

    __slots__ = ("bs", "g", "r", "packed")

    def __init__(self, bs, g, r) -> None:
        self.bs, self.g, self.r = (np.array(c, dtype=np.int64) for c in (bs, g, r))
        if not (self.bs.ndim == 1 and self.bs.shape == self.g.shape == self.r.shape):
            raise ValueError("bs, g and r must be 1-D columns of one length")
        self.packed = pack_columns(self.bs, self.g, self.r)
        for col in (self.bs, self.g, self.r, self.packed):
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ConfigColumns(self.bs[index], self.g[index], self.r[index])
        i = operator.index(index)
        return MatmulConfig(int(self.bs[i]), int(self.g[i]), int(self.r[i]))

    def __iter__(self) -> Iterator[MatmulConfig]:
        return map(
            MatmulConfig, self.bs.tolist(), self.g.tolist(), self.r.tolist()
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConfigColumns):
            return bool(np.array_equal(self.packed, other.packed))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ConfigColumns({len(self)} configs)"


class MatmulGPUApp:
    """The (BS, G, R) matmul application on one simulated GPU.

    Parameters
    ----------
    spec:
        GPU to run on.
    total_products:
        The workload: total matrix products T = G·R each configuration
        must compute.  Defaults to 24, which admits G ∈ {1,2,3,4,6,8}.
    bs_range:
        Tile dimensions to sweep (paper: 1..32).
    g_cap:
        Largest group size in the kernel source (dgemmG8 ⇒ 8).
    min_bs:
        Smallest tile admitted into sweeps.  BS ∈ {1..3} are valid
        configurations but three orders of magnitude slower; sweeps for
        front analysis typically start at 4 to keep runtime sensible,
        matching the paper's focus on the populated regions.
    """

    def __init__(
        self,
        spec: GPUSpec,
        cal: GPUCalibration | None = None,
        *,
        total_products: int = 24,
        bs_range: tuple[int, int] = (1, 32),
        g_cap: int = 8,
        min_bs: int | None = None,
    ) -> None:
        if total_products < 1:
            raise ValueError("total_products must be positive")
        lo, hi = bs_range
        if not (1 <= lo <= hi <= 32):
            raise ValueError("bs_range must satisfy 1 <= lo <= hi <= 32")
        self.spec = spec
        self.device = GPUDevice(spec, cal)
        self.total_products = total_products
        self.bs_range = bs_range
        self.g_cap = g_cap
        self.min_bs = lo if min_bs is None else min_bs

    # -- configuration enumeration ----------------------------------------

    def valid_configs(self, *, min_bs: int | None = None) -> Iterator[MatmulConfig]:
        """All valid (BS, G, R) with G·R = total_products.

        G must divide the workload and respect the shared-memory limit
        for BS (``repro.simgpu.kernel.max_group_size``).
        """
        return iter(self._columns(self.min_bs if min_bs is None else min_bs))

    def _columns(self, min_bs: int) -> ConfigColumns:
        """The valid configurations with BS ≥ ``min_bs``, in row-major
        ``bs × divisors(T)`` order (BS outer, G ascending)."""
        lo, hi = self.bs_range
        bs = np.arange(max(lo, min_bs), hi + 1, dtype=np.int64)
        divs = np.array(divisors(self.total_products), dtype=np.int64)
        gmax = np.array(
            [max_group_size(self.spec, b, self.g_cap) for b in bs.tolist()],
            dtype=np.int64,
        )
        valid = divs[None, :] <= gmax[:, None]
        g = np.broadcast_to(divs, valid.shape)[valid]
        return ConfigColumns(
            np.broadcast_to(bs[:, None], valid.shape)[valid],
            g,
            self.total_products // g,
        )

    def config_space(self) -> ConfigurationSpace:
        """The decision-variable space as a
        :class:`~repro.core.biobjective.ConfigurationSpace`."""
        lo, hi = self.bs_range
        lo = max(lo, self.min_bs)
        divs = divisors(self.total_products)

        def valid(cfg) -> bool:
            if cfg["g"] > max_group_size(self.spec, cfg["bs"], self.g_cap):
                return False
            return cfg["r"] == self.total_products // cfg["g"]

        return ConfigurationSpace(
            variables={
                "bs": list(range(lo, hi + 1)),
                "g": divs,
                "r": divs[::-1],
            },
            is_valid=valid,
        )

    def sweep_configs(self, *, min_bs: int | None = None) -> ConfigColumns:
        """The sweep's configurations as int64 columns, in the reference order.

        Applies the sweep default floor (BS ≥ 4 — the paper's populated
        region) when ``min_bs`` is None.  The result is a read-only
        :class:`ConfigColumns` — a sequence of :class:`MatmulConfig`
        whose ``bs``/``g``/``r``/``packed`` arrays the planner and
        store read directly.  This single enumeration is shared by the
        serial path and :class:`repro.sweep.EvalPlanner`, which is what
        makes their outputs comparable point-for-point.

        Raises
        ------
        ValueError
            If a configuration is outside the packable range (T above
            2^21 - 1).
        """
        if min_bs is None:
            min_bs = max(self.min_bs, 4)
        return self._columns(min_bs)

    # -- evaluation ---------------------------------------------------------

    def run(
        self,
        n: int,
        config: MatmulConfig,
        *,
        rng: np.random.Generator | None = None,
    ) -> KernelRunResult:
        """Run one configuration of the workload (noiselessly by default)."""
        return self.device.run_matmul(n, config.bs, config.g, config.r, rng=rng)

    def evaluate(
        self,
        n: int,
        config: MatmulConfig,
        *,
        rng: np.random.Generator | None = None,
    ) -> ParetoPoint:
        """(time, dynamic energy) point of one configuration."""
        result = self.run(n, config, rng=rng)
        return ParetoPoint(
            time_s=result.time_s,
            energy_j=result.dynamic_energy_j,
            config=config.as_dict(),
        )

    def sweep_points(
        self,
        n: int,
        *,
        min_bs: int | None = None,
        rng: np.random.Generator | None = None,
        engine: "EvalPlanner | None" = None,
    ) -> list[ParetoPoint]:
        """Evaluate every valid configuration for matrix size N.

        This is the paper's exhaustive methodology; the resulting point
        cloud is what Figs. 2, 7 and 8 plot.  With ``engine`` given the
        sweep runs through :class:`repro.sweep.EvalPlanner` (batched
        evaluation, optional persistent store); its scalar backend is
        bit-identical to the in-process path.  Noise-injected sweeps
        (``rng``) always run in-process — noise must not be stored.
        """
        if engine is not None and rng is None:
            from repro.sweep.plan import SweepRequest

            request = SweepRequest(
                device=self.spec,
                n=n,
                total_products=self.total_products,
                min_bs=min_bs,
                cal=self.device.cal,
            )
            return engine.evaluate_configs(
                request, self.sweep_configs(min_bs=min_bs)
            )
        return [
            self.evaluate(n, cfg, rng=rng)
            for cfg in self.sweep_configs(min_bs=min_bs)
        ]

    def sweep_table(
        self,
        n: int,
        *,
        min_bs: int | None = None,
        engine: "EvalPlanner | None" = None,
    ) -> np.ndarray:
        """The sweep as a ``POINT_DTYPE`` structured array (columnar path).

        Same enumeration, same order and same values as
        :meth:`sweep_points`, but no per-point dicts or
        :class:`ParetoPoint` objects — the figure experiments operate
        directly on the columns and materialize points only at the
        reporting boundary.  With an ``engine``
        (:class:`repro.sweep.planner.EvalPlanner`) the array is its
        ``table`` for this sweep.
        """
        from repro.sweep.plan import POINT_DTYPE, SweepRequest

        configs = self.sweep_configs(min_bs=min_bs)
        if engine is not None:
            request = SweepRequest(
                device=self.spec,
                n=n,
                total_products=self.total_products,
                min_bs=min_bs,
                cal=self.device.cal,
            )
            return engine.table(request, configs)
        out = np.empty(len(configs), dtype=POINT_DTYPE)
        for i, cfg in enumerate(configs):
            result = self.run(n, cfg)
            out["time_s"][i] = result.time_s
            out["energy_j"][i] = result.dynamic_energy_j
        out["bs"], out["g"], out["r"] = configs.bs, configs.g, configs.r
        return out
