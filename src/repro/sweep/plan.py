"""Declarative sweep requests, device resolution and the result row type.

A :class:`SweepRequest` names one ``(device, N)`` sweep — device (by
registry key or spec), matrix size, workload ``T = G·R``, optional
tile floor and calibration override — and resolves to the exact
configurations the serial reference path enumerates, as int64 columns
(:class:`~repro.apps.matmul_gpu.ConfigColumns`).  The planner
(:mod:`repro.sweep.planner`) evaluates requests and serves their
results as :data:`POINT_DTYPE` rows; everything about *what* to
evaluate lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.matmul_gpu import ConfigColumns, MatmulGPUApp
from repro.machines.specs import GPUSpec, get_machine
from repro.simgpu.calibration import GPUCalibration, calibration_for

__all__ = ["POINT_DTYPE", "SweepRequest", "resolve_device"]

#: Structured row type results flow through on the hot path: the
#: configuration key columns plus the two objective columns.  The
#: planner's serving tables and ``MatmulGPUApp.sweep_table`` use it.
POINT_DTYPE = np.dtype(
    [
        ("bs", np.int64),
        ("g", np.int64),
        ("r", np.int64),
        ("time_s", np.float64),
        ("energy_j", np.float64),
    ]
)


def resolve_device(device: str | GPUSpec) -> GPUSpec:
    """Resolve a machine-registry key (``"k40c"``/``"p100"``) or spec."""
    if isinstance(device, GPUSpec):
        return device
    spec = get_machine(device)
    if not isinstance(spec, GPUSpec):
        raise ValueError(f"machine {device!r} is not a GPU")
    return spec


@dataclass(frozen=True)
class SweepRequest:
    """One ``(device, N)`` sweep over the valid configuration space.

    Attributes
    ----------
    device:
        Machine-registry key or :class:`GPUSpec`.
    n:
        Matrix size N.
    total_products:
        Workload T = G·R shared by every configuration.
    min_bs:
        Smallest tile admitted; None applies the app's sweep default
        (BS ≥ 4, the paper's populated region).
    cal:
        Calibration override (sensitivity studies); None uses the
        device's calibration.
    """

    device: str | GPUSpec
    n: int
    total_products: int = 24
    min_bs: int | None = None
    cal: GPUCalibration | None = field(default=None, compare=False)

    @property
    def spec(self) -> GPUSpec:
        return resolve_device(self.device)

    @property
    def calibration(self) -> GPUCalibration:
        return self.cal if self.cal is not None else calibration_for(self.spec)

    def app(self) -> MatmulGPUApp:
        """The matmul application this request sweeps."""
        return MatmulGPUApp(
            self.spec, self.calibration, total_products=self.total_products
        )

    def configs(self) -> ConfigColumns:
        """The configurations as read-only int64 columns, in the serial
        reference order (:meth:`MatmulGPUApp.sweep_configs`)."""
        return self.app().sweep_configs(min_bs=self.min_bs)
