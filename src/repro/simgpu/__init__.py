"""GPU simulator substrate: occupancy, warp efficiency, memory
hierarchy, kernel pipeline timing, component power, DVFS, CUPTI."""

from repro._lazy import attach

_SUBMODULES = {
    "batch": ("BatchRunResult", "batch_run_matmul", "evaluate_configs_batch"),
    "calibration": (
        "GPUCalibration", "K40C_CAL", "P100_CAL", "calibration_for",
    ),
    "cupti": ("CuptiProfiler", "EventReading", "EVENT_NAMES"),
    "device": ("GPUDevice", "KernelRunResult"),
    "dvfs": ("OperatingPoint", "solve_operating_clock"),
    "kernel": (
        "KernelResources", "avg_rows_per_warp", "matmul_kernel_resources",
        "max_group_size", "shared_mem_per_block",
    ),
    "memhier": ("TrafficModel", "coalescing_efficiency", "matmul_traffic"),
    "nvml": ("NVMLSample", "NVMLSensor"),
    "occupancy": ("Occupancy", "compute_occupancy"),
    "roofline": ("RooflinePlacement", "classify_matmul"),
    "power": ("PowerBreakdown", "aux_decay", "kernel_power"),
    "warps": ("lane_efficiency", "smem_replay_factor", "warps_per_block"),
    "waves": ("WaveAnalysis", "analyze_waves"),
}

__all__ = [name for names in _SUBMODULES.values() for name in names]
__getattr__, __dir__ = attach(__name__, _SUBMODULES)
