"""Measurement substrate: WattsUp Pro simulation, HCLWattsUp energy
extraction, and the paper's Student-t repetition protocol."""

from repro._lazy import attach

_SUBMODULES = {
    "powermeter": ("PowerPhase", "PowerTrace", "PowerSample", "PowerMeter"),
    "hclwattsup": ("EnergyReading", "HCLWattsUp"),
    "runner": ("DataPoint", "ExperimentRunner"),
    "session": ("MeasurementSession", "SessionRecord"),
    "stats": (
        "MeasurementResult", "NormalityCheck", "confidence_halfwidth",
        "run_until_confident", "required_runs_estimate",
        "pearson_normality_check",
    ),
}

__all__ = [name for names in _SUBMODULES.values() for name in names]
__getattr__, __dir__ = attach(__name__, _SUBMODULES)
