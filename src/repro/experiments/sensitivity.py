"""Calibration sensitivity analysis.

The shape claims (DESIGN.md §4) should be robust to moderate
perturbations of the calibration constants — if a ±20% nudge of one
constant flips a structural verdict, the reproduction would be
fine-tuned rather than mechanistic.  This experiment perturbs each
load-bearing constant in both directions and re-evaluates the two most
structural verdicts:

* K40c N=10240: global Pareto front has exactly one point, BS = 32;
* P100 N=10240: global Pareto front has ≥ 2 points (a genuine
  bi-objective trade-off exists).

The report lists, per constant, how many of the perturbed settings
preserve each verdict.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.report import format_table
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.core.pareto import front_indices
from repro.machines import get_machine
from repro.simgpu.calibration import calibration_for

# Device resolution by name through the registry-backed lookup (the
# in-code constants resolve identity-preserving; data-file devices
# would resolve the same way).
K40C = get_machine("k40c")
P100 = get_machine("p100")
K40C_CAL = calibration_for(K40C)
P100_CAL = calibration_for(P100)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.planner import EvalPlanner

__all__ = ["SensitivityRow", "SensitivityResult", "run", "PERTURBED_CONSTANTS"]

#: Constants perturbed per device, with the perturbation factors.
PERTURBED_CONSTANTS: tuple[str, ...] = (
    "e_lane_j",
    "e_dram_j_per_byte",
    "p_act0_w",
    "p_act1_w",
    "leak_quad",
    "replay_slope",
    "mem_latency_cycles",
)

FACTORS = (0.8, 1.2)


def requests(n: int = 10240):
    """The sweep requests this experiment will make (planner protocol).

    One request per perturbed calibration and device; the perturbed
    calibrations flow into the shard identity, so the planner keeps
    each perturbation's points separate from the reference model's.
    """
    from repro.sweep.plan import SweepRequest

    reqs = []
    for name in PERTURBED_CONSTANTS:
        for factor in FACTORS:
            for spec, cal in ((K40C, K40C_CAL), (P100, P100_CAL)):
                perturbed = dataclasses.replace(
                    cal, **{name: getattr(cal, name) * factor}
                )
                reqs.append(SweepRequest(device=spec, n=n, cal=perturbed))
    return tuple(reqs)


@dataclass(frozen=True)
class SensitivityRow:
    constant: str
    k40c_verdict_held: int  # out of len(FACTORS)
    p100_verdict_held: int
    trials: int


@dataclass(frozen=True)
class SensitivityResult:
    rows: tuple[SensitivityRow, ...]
    n: int

    def render(self) -> str:
        return format_table(
            [
                "perturbed constant (±20%)",
                "K40c 1-point front held",
                "P100 multi-point front held",
            ],
            [
                (
                    r.constant,
                    f"{r.k40c_verdict_held}/{r.trials}",
                    f"{r.p100_verdict_held}/{r.trials}",
                )
                for r in self.rows
            ],
        )

    @property
    def fraction_held(self) -> float:
        """Overall fraction of perturbed verdicts preserved."""
        held = sum(r.k40c_verdict_held + r.p100_verdict_held for r in self.rows)
        total = sum(2 * r.trials for r in self.rows)
        return held / total


def _k40c_verdict(cal, n, engine=None) -> bool:
    app = MatmulGPUApp(K40C, cal)
    table = app.sweep_table(n, engine=engine)
    idx = front_indices(table["time_s"], table["energy_j"])
    return idx.size == 1 and int(table["bs"][idx[0]]) == 32


def _p100_verdict(cal, n, engine=None) -> bool:
    app = MatmulGPUApp(P100, cal)
    table = app.sweep_table(n, engine=engine)
    return front_indices(table["time_s"], table["energy_j"]).size >= 2


def run(
    n: int = 10240, *, engine: "EvalPlanner | None" = None
) -> SensitivityResult:
    """Perturb each constant ±20% and re-check the structural verdicts.

    The perturbed calibrations flow into the store's shard identity, so
    a store-backed run keeps each perturbation in its own shard and a
    repeat run is pure store hits.
    """
    from repro import obs

    with obs.span(
        "experiment.sensitivity", n=n, constants=len(PERTURBED_CONSTANTS)
    ):
        rows = []
        for name in PERTURBED_CONSTANTS:
            k_held = 0
            p_held = 0
            for factor in FACTORS:
                k_cal = dataclasses.replace(
                    K40C_CAL, **{name: getattr(K40C_CAL, name) * factor}
                )
                p_cal = dataclasses.replace(
                    P100_CAL, **{name: getattr(P100_CAL, name) * factor}
                )
                k_held += _k40c_verdict(k_cal, n, engine)
                p_held += _p100_verdict(p_cal, n, engine)
            rows.append(
                SensitivityRow(
                    constant=name,
                    k40c_verdict_held=k_held,
                    p100_verdict_held=p_held,
                    trials=len(FACTORS),
                )
            )
        return SensitivityResult(rows=tuple(rows), n=n)
