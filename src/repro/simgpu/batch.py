"""NumPy-vectorized batch evaluation backend for the GPU model.

The scalar reference path (:meth:`repro.simgpu.device.GPUDevice.run_matmul`)
walks one ``(N, BS, G, R)`` configuration at a time through the
kernel-resource model, the occupancy calculator, the pipeline timing
model, the DVFS solver and the component power model.  A full sweep
re-enters that Python pipeline once per configuration, so interpreter
overhead — not the model mathematics — dominates sweep wall-clock.

This module evaluates an *array* of configurations in one pass:

* every per-configuration quantity of :mod:`repro.simgpu.kernel`,
  :mod:`repro.simgpu.memhier`, :mod:`repro.simgpu.warps` and
  :mod:`repro.simgpu.occupancy` becomes a vector over the config axis;
* the clock-dependent timing/power evaluation
  (:mod:`repro.simgpu.device` / :mod:`repro.simgpu.power`) is a
  vectorized function of a clock array;
* the DVFS power-cap bisection (:mod:`repro.simgpu.dvfs`) runs as a
  *masked lockstep* bisection: every lane follows exactly the scalar
  solver's schedule — same initial bracket, same midpoint updates,
  same early-exit tolerance test — and freezes once converged.

**Parity contract.**  Every arithmetic expression mirrors the scalar
path's operation order, so intermediate values agree to the last few
ulps (NumPy's SIMD ``pow``/``exp`` kernels may differ from libm by
~1 ulp).  All branch decisions (power-cap comparisons, bisection
early exit) compare against tolerances ≥ 0.25 W, twelve orders of
magnitude above that noise, so the vectorized solver takes the same
branch sequence as the scalar solver and the final ``(time, energy)``
agree to ≤ 1e-9 relative error (``tests/test_batch_backend.py``
enforces this over the full K40c and P100 configuration spaces).
Quantities that must be *exact* — warp-row counts, the auxiliary
decay — are computed per unique input value with the scalar functions
and broadcast, not re-derived in floating point.

The scalar path remains the reference: caches and golden snapshots
stay keyed to it (see :mod:`repro.sweep.keys`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration, calibration_for
from repro.simgpu.dvfs import MIN_CLOCK_FRACTION
from repro.simgpu.kernel import avg_rows_per_warp, max_group_size
from repro.simgpu.power import aux_decay

__all__ = ["BatchRunResult", "batch_run_matmul", "evaluate_configs_batch"]


@dataclass(frozen=True)
class BatchRunResult:
    """Modelled outcome of a batch of ``(N, BS, G, R)`` kernel runs.

    Index ``i`` of every array corresponds to configuration ``i`` of
    the (broadcast) input arrays; the quantities match the scalar
    :class:`repro.simgpu.device.KernelRunResult` fields of the same
    name to ≤ 1e-9 relative error.
    """

    time_s: np.ndarray
    dynamic_energy_j: np.ndarray
    dynamic_power_w: np.ndarray
    clock_hz: np.ndarray
    throttled: np.ndarray

    def __len__(self) -> int:
        return len(self.time_s)


class _LaneConstants:
    """Clock-independent per-configuration arrays.

    Everything the clock-dependent timing/power evaluation needs, with
    exact-integer quantities (tile counts, warp counts, residency)
    pre-multiplied in the scalar path's association order so the
    float64 products are bit-equal to the scalar path's.
    """

    __slots__ = (
        "g", "r", "compute_cycles", "tile_fetch", "t_dram", "bsk",
        "blocks", "lanes_issued", "total_dram", "act_base", "kaux",
    )

    def __init__(self, **kw: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])


def _per_unique(values: np.ndarray, fn) -> np.ndarray:
    """Apply scalar ``fn`` once per unique int value and broadcast.

    Used for quantities whose scalar computation is not a pure float
    expression (loops, table-like functions): evaluating the *scalar*
    function guarantees exact parity at negligible cost because the
    sweep axes take few distinct values.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    table = np.array([fn(int(v)) for v in uniq], dtype=np.float64)
    return table[inverse]


_ROWS_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _rows_table(warp_size: int, bs_max: int) -> np.ndarray:
    """``avg_rows_per_warp`` for BS = 1..bs_max, indexable by BS."""
    key = (warp_size, bs_max)
    table = _ROWS_TABLES.get(key)
    if table is None:
        table = np.array(
            [0.0]
            + [avg_rows_per_warp(b, warp_size) for b in range(1, bs_max + 1)],
            dtype=np.float64,
        )
        _ROWS_TABLES[key] = table
    return table


def _validate(
    spec: GPUSpec, n: np.ndarray, bs: np.ndarray, g: np.ndarray, r: np.ndarray
) -> None:
    """Reject configurations the scalar path would reject.

    Mirrors the checks of ``GPUDevice.run_matmul`` and
    ``matmul_kernel_resources``; reports the first offending lane.
    """
    if (r < 1).any():
        raise ValueError("R must be at least 1")
    if (n < 1).any():
        raise ValueError("N must be positive")
    bs_max = int(math.isqrt(spec.max_threads_per_block))
    bad = (bs < 1) | (bs > bs_max)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"BS={int(bs[i])} invalid: BS² must not exceed "
            f"{spec.max_threads_per_block} threads per block"
        )
    # Vectorized max_group_size: the shared-memory bound of one G=1
    # product, capped by the kernel source's largest group (dgemmG8).
    per_product = 2 * bs * bs * 8
    gmax = np.where(
        per_product > spec.shared_mem_per_block_bytes,
        0,
        np.minimum(8, spec.shared_mem_per_block_bytes // per_product),
    )
    bad = (g < 1) | (g > gmax)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"G={int(g[i])} not permissible for BS={int(bs[i])} on "
            f"{spec.name} (max {max_group_size(spec, int(bs[i]))})"
        )


def _lane_constants(
    spec: GPUSpec,
    cal: GPUCalibration,
    n: np.ndarray,
    bs: np.ndarray,
    g: np.ndarray,
    r: np.ndarray,
) -> _LaneConstants:
    """Vectorized kernel-resource + occupancy model.

    Mirrors ``matmul_kernel_resources``, ``matmul_traffic`` and
    ``compute_occupancy`` expression by expression (same operation
    order, so products of exactly-representable integers are
    bit-identical to the scalar path).
    """
    ws = spec.warp_size
    n_f = n.astype(np.float64)
    bs_f = bs.astype(np.float64)
    g_f = g.astype(np.float64)

    tiles = np.ceil(n / bs)  # float64, exact integer values
    threads = bs * bs
    threads_f = threads.astype(np.float64)
    wpb = np.ceil(threads / ws)
    rows = _rows_table(ws, int(bs.max()))[bs]
    replay = 1.0 + cal.replay_slope * (rows - 1.0)
    compute_cycles = (
        2.0 * wpb * bs_f * (spec.warp_size / cal.lsu_lanes) * replay * cal.cpi
    )

    # -- traffic (matmul_traffic) --
    element_loads = 2.0 * (tiles * tiles * tiles) * bs_f * bs_f
    useful_read = element_loads * 8.0
    row_bytes = (8 * bs).astype(np.float64)
    sectors = np.ceil(row_bytes / spec.dram_sector_bytes)
    coal = row_bytes / (sectors * spec.dram_sector_bytes)
    fetched = useful_read / coal
    strip_bytes = n_f * bs_f * 8.0
    l2_hit = np.minimum(
        cal.l2_hit_cap, cal.l2_hit_cap * spec.l2_bytes / strip_bytes
    )
    dram_read = fetched * (1.0 - l2_hit)
    dram_write = n_f * n_f * 8.0
    tile_fetch = 2.0 * threads_f * 8.0 / coal * (1.0 - l2_hit)

    icache = 1.0 + cal.icache_penalty * (g_f - 1.0)
    total_dram = g_f * (dram_read + dram_write)
    lanes_issued = (
        g_f * (tiles * tiles) * tiles * wpb * ws * bs_f * replay
    )

    # -- occupancy (compute_occupancy; the paper's kernel never hits
    #    the register or raw-block limits for the admitted BS range) --
    smem = g * 2 * threads * 8
    max_warps = spec.max_threads_per_sm // ws
    by_threads = spec.max_threads_per_sm // threads
    by_warps = max_warps // wpb.astype(np.int64)
    by_smem = spec.shared_mem_per_sm_bytes // smem
    blocks = np.minimum(
        np.minimum(by_threads, by_warps),
        np.minimum(np.int64(spec.max_blocks_per_sm), by_smem),
    )
    active_warps = blocks * wpb.astype(np.int64)
    warp_occ = active_warps / max_warps

    # -- clock-independent timing/power terms --
    bw_sat = np.minimum(1.0, active_warps / cal.warps_to_saturate_bw)
    t_dram = (total_dram / g_f) / (spec.mem_bandwidth_bps * bw_sat)
    bsk = np.ceil((tiles * tiles) / spec.sm_count) * tiles
    act_base = cal.p_act0_w + cal.p_act1_w * warp_occ**cal.occ_exp
    if n[0] == n[-1] and (n == n[0]).all():  # the common one-N sweep
        decay = aux_decay(spec, int(n[0]))
        kaux = cal.aux_power_w * decay * (g_f - 1.0)
    else:
        decay = _per_unique(n, lambda v: aux_decay(spec, v))
        kaux = cal.aux_power_w * decay * (g_f - 1.0)

    return _LaneConstants(
        g=g_f,
        r=r.astype(np.float64),
        compute_cycles=compute_cycles * icache,
        tile_fetch=tile_fetch,
        t_dram=t_dram,
        bsk=bsk,
        blocks=blocks.astype(np.float64),
        lanes_issued=lanes_issued,
        total_dram=total_dram,
        act_base=act_base,
        kaux=kaux,
    )


def _dynamic_power(
    spec: GPUSpec, cal: GPUCalibration, k: _LaneConstants, clock_hz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dynamic_w, product_time_s, launch_time_s)`` at a clock array.

    The vectorized transcription of ``GPUDevice._power_at`` (pipeline
    timing → launch time → ``kernel_power``), preserving the scalar
    path's operation order.
    """
    # ``clock_hz`` may be a Python float (one clock for every lane —
    # the boost/base/floor probes) or a per-lane array (bisection
    # midpoints, blended operating clocks); scalar clocks keep the
    # clock-only subexpressions out of the array pipeline entirely.
    bw_per_sm = spec.mem_bandwidth_bps / (clock_hz * spec.sm_count)
    mem_cycles = cal.mem_latency_cycles + k.tile_fetch / bw_per_sm
    per_block = np.maximum(
        k.compute_cycles, (k.compute_cycles + mem_cycles) / k.blocks
    )
    t_pipe = k.bsk * per_block / clock_hz
    t_product = np.maximum(t_pipe, k.t_dram)
    # The scalar path's launch-time g·t and power-rate g·t are the same
    # product bit for bit, so one multiply serves both.
    g_t = k.g * t_product
    t_launch = cal.launch_overhead_s + g_t

    x = clock_hz / spec.base_clock_hz
    scale = x ** (cal.volt_exp - 1.0)
    act_scale = x**cal.volt_exp
    compute = cal.e_lane_j * scale * (k.lanes_issued / g_t)
    dram = cal.e_dram_j_per_byte * (k.total_dram / g_t)
    activity = k.act_base * act_scale
    aux = k.kaux * t_product / t_launch
    electrical = compute + dram + activity + aux
    leakage = cal.leak_quad * electrical * electrical / 100.0
    dynamic = compute + dram + activity + aux + leakage
    return dynamic, t_product, t_launch


def _evaluate_lanes(
    spec: GPUSpec,
    cal: GPUCalibration,
    k: _LaneConstants,
    *,
    tol_w: float = 0.25,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(dynamic_w, launch_time_s, clock_hz, throttled)`` per lane.

    Lockstep transcription of ``solve_operating_clock`` plus the
    thermal-inertia blend of ``run_matmul``: lanes whose boost power
    fits the cap run at boost; the rest bisect the cap in parallel,
    each lane freezing at the iteration where the scalar solver's
    early-exit test (``|P - cap| ≤ tol_w``) first fires for it.

    The boost/floor probes and the non-autoboost path pass the clock
    as a Python float, so their ``pow`` calls go through libm exactly
    like the scalar path's — lanes that never throttle reuse the boost
    probe bit for bit, and only over-cap lanes are re-evaluated at
    their blended per-lane operating clocks.
    """
    m = len(k.g)
    if not spec.has_autoboost:
        base = spec.base_clock_hz
        dyn, _, tl = _dynamic_power(spec, cal, k, base)
        return dyn, tl, np.full(m, base), np.zeros(m, dtype=bool)

    boost = spec.boost_clock_hz
    dyn, _, tl = _dynamic_power(spec, cal, k, boost)
    p_boost = spec.idle_power_w + dyn
    clock = np.full(m, boost)
    throttled = np.zeros(m, dtype=bool)

    over = p_boost > cal.power_cap_w
    if over.any():
        idx = np.flatnonzero(over)
        sub = _gather(k, idx)
        lo0 = MIN_CLOCK_FRACTION * spec.base_clock_hz
        dyn_lo, _, _ = _dynamic_power(spec, cal, sub, lo0)
        p_lo = spec.idle_power_w + dyn_lo

        cap_clock = np.full(len(idx), lo0)  # floor lanes keep lo0
        bisect = p_lo < cal.power_cap_w
        if bisect.any():
            bidx = np.flatnonzero(bisect)
            kb = _gather(sub, bidx)
            m_b = len(bidx)
            lo = np.full(m_b, lo0)
            hi = np.full(m_b, boost)
            out = np.empty(m_b)
            done = np.zeros(m_b, dtype=bool)
            for _ in range(max_iter):
                mid = 0.5 * (lo + hi)
                dyn_mid, _, _ = _dynamic_power(spec, cal, kb, mid)
                gap = (spec.idle_power_w + dyn_mid) - cal.power_cap_w
                hit = ~done & (np.abs(gap) <= tol_w)
                np.copyto(out, mid, where=hit)
                done |= hit
                # Bracket updates are unconditional: converged lanes'
                # brackets no longer matter (their midpoint is frozen
                # in ``out``), and live lanes see the scalar schedule.
                np.copyto(hi, mid, where=gap > 0.0)
                np.copyto(lo, mid, where=gap <= 0.0)
                if done.all():
                    break
            np.copyto(out, 0.5 * (lo + hi), where=~done)
            cap_clock[bidx] = out

        # Thermal inertia: blend the capped clock toward boost by the
        # heat-soak fraction of the R-launch sequence (run_matmul).
        total_boost_s = sub.r * tl[idx]
        soak = 1.0 - np.exp(-total_boost_s / cal.thermal_tau_s)
        sub_clock = boost * (1.0 - soak) + cap_clock * soak
        clock[idx] = sub_clock
        throttled[idx] = soak > 0.5
        dyn_sub, _, tl_sub = _dynamic_power(spec, cal, sub, sub_clock)
        dyn[idx] = dyn_sub
        tl[idx] = tl_sub
    return dyn, tl, clock, throttled


def _gather(k: _LaneConstants, idx: np.ndarray) -> _LaneConstants:
    return _LaneConstants(
        **{name: getattr(k, name)[idx] for name in _LaneConstants.__slots__}
    )


def batch_run_matmul(
    spec: GPUSpec,
    cal: GPUCalibration | None,
    n,
    bs,
    g,
    r,
) -> BatchRunResult:
    """Model a batch of ``(N, BS, G, R)`` kernel-run configurations.

    ``n``/``bs``/``g``/``r`` are broadcastable integer array-likes;
    the result arrays follow the flattened broadcast shape.  Matches
    the deterministic scalar path (``run_matmul`` with no noise RNG,
    no pinned clock) to ≤ 1e-9 relative error per lane.

    Raises
    ------
    ValueError
        If any lane is a configuration the scalar path would reject.
    """
    if cal is None:
        cal = calibration_for(spec)
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    bs = np.atleast_1d(np.asarray(bs, dtype=np.int64))
    g = np.atleast_1d(np.asarray(g, dtype=np.int64))
    r = np.atleast_1d(np.asarray(r, dtype=np.int64))
    if not (n.shape == bs.shape == g.shape == r.shape):
        n, bs, g, r = (np.ravel(a) for a in np.broadcast_arrays(n, bs, g, r))
    else:
        n, bs, g, r = (np.ravel(a) for a in (n, bs, g, r))
    _validate(spec, n, bs, g, r)
    lanes = int(n.size)
    t0 = time.perf_counter()
    with obs.span("batch.run_matmul", device=spec.name, lanes=lanes):
        k = _lane_constants(spec, cal, n, bs, g, r)
        dynamic_w, t_launch, clock, throttled = _evaluate_lanes(spec, cal, k)
        time_s = k.r * t_launch
        energy_j = dynamic_w * time_s
    elapsed = time.perf_counter() - t0
    obs.count("batch.calls")
    obs.count("batch.points", lanes)
    if elapsed > 0.0:
        obs.observe("batch.points_per_sec", lanes / elapsed)
    return BatchRunResult(
        time_s=time_s,
        dynamic_energy_j=energy_j,
        dynamic_power_w=dynamic_w,
        clock_hz=clock,
        throttled=throttled,
    )


def evaluate_configs_batch(
    spec: GPUSpec,
    cal: GPUCalibration | None,
    n: int,
    configs,
) -> list[tuple[float, float]]:
    """Vectorized per-sweep evaluation as ``(time_s, energy_j)`` pairs.

    ``configs`` is any sequence of objects with ``bs``/``g``/``r``
    attributes (e.g. :class:`repro.apps.matmul_gpu.MatmulConfig`);
    returns index-aligned ``(time_s, dynamic_energy_j)`` pairs.
    """
    count = len(configs)
    if not count:
        return []
    bs = np.fromiter((c.bs for c in configs), dtype=np.int64, count=count)
    g = np.fromiter((c.g for c in configs), dtype=np.int64, count=count)
    r = np.fromiter((c.r for c in configs), dtype=np.int64, count=count)
    out = batch_run_matmul(
        spec, cal, np.full(count, n, dtype=np.int64), bs, g, r
    )
    return list(zip(out.time_s.tolist(), out.dynamic_energy_j.tolist()))
