"""Core library: the paper's primary contribution.

Formal strong/weak energy-proportionality definitions and checks,
Pareto-front machinery for bi-objective (time, energy) analysis,
trade-off quantification, literature EP metrics, and the Section III
core-imbalance theory.
"""

from repro._lazy import attach

_SUBMODULES = {
    "pareto": (
        "ParetoPoint", "dominates", "pareto_front", "local_pareto_front",
        "epsilon_pareto_front", "nondominated_sort", "hypervolume_2d",
        "front_spread", "front_indices", "front_mask",
    ),
    "incremental": ("IncrementalParetoFront",),
    "tradeoff": (
        "TradeoffEntry", "tradeoff_table", "max_energy_saving",
        "saving_at_degradation", "knee_point",
    ),
    "definitions": (
        "PAPER_PRECISION", "StrongEPResult", "WeakEPResult", "check_strong_ep",
        "check_weak_ep",
    ),
    "metrics": (
        "ryckbosch_ep", "wong_annavaram_ld", "wong_annavaram_pr",
        "hsu_poole_ep", "idle_to_peak_ratio", "sen_wood_gap",
    ),
    "theory": ("SimpleEPCore", "TwoCoreModel", "NCoreModel"),
    "biobjective": (
        "ConfigurationSpace", "EvaluatedConfig", "exhaustive_front",
        "greedy_front_search",
    ),
    "scalarization": (
        "min_time_under_energy_budget", "min_energy_under_time_constraint",
        "epsilon_constraint_front", "weighted_sum_point", "weighted_sum_front",
    ),
    "workload_distribution": (
        "ProcessorProfile", "Distribution", "pareto_workload_distributions",
    ),
}

__all__ = [name for names in _SUBMODULES.values() for name in names]
__getattr__, __dir__ = attach(__name__, _SUBMODULES)
