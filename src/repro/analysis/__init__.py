"""Higher-level EP analysis pipelines and report formatting.

Exports resolve lazily (PEP 562, :mod:`repro._lazy`): ``from
repro.analysis import format_table`` imports only
:mod:`repro.analysis.report`, not the whole package, so the CLI's
report formatting costs no NumPy import.
"""

from repro._lazy import attach

_SUBMODULES = {
    "comparison": (
        "ComparisonResult", "MethodReading", "compare_cpu_methods",
        "compare_gpu_methods",
    ),
    "asciiplot": ("Series", "scatter_plot"),
    "front_quality": ("additive_epsilon", "igd", "normalized_objectives"),
    "measured": ("measured_gpu_sweep",),
    "nonfunctionality": ("NonfunctionalityVerdict", "nonfunctionality_test"),
    "ep_analysis": (
        "StrongEPStudy", "WeakEPStudy", "strong_ep_study", "weak_ep_study",
    ),
    "summary": ("ReportSection", "generate_report"),
    "report": (
        "format_pct", "format_series", "format_table", "paper_vs_measured",
    ),
}

__all__ = [name for names in _SUBMODULES.values() for name in names]
__getattr__, __dir__ = attach(__name__, _SUBMODULES)
