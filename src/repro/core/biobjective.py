"""Bi-objective optimization over discrete application-configuration spaces.

The paper determines Pareto fronts "using the dynamic energies and
execution times determined for all the application configurations
solving the workload" (Section I) — i.e. exhaustive evaluation of a
discrete decision-variable space.  It also notes that exhaustive
evaluation "can be expensive and may not be feasible in dynamic
environments with time constraints" (Section V.B), motivating local
fronts and cheaper search.

This module provides:

* :class:`ConfigurationSpace` — a named discrete decision-variable
  space with a validity predicate (e.g. the shared-memory constraint on
  ``(BS, G, R)``),
* :func:`exhaustive_front` — evaluate every valid configuration and
  extract the global front (the paper's method),
* :func:`greedy_front_search` — an evaluation-budgeted heuristic that
  approximates the front without exhaustive sweeps, for the paper's
  "dynamic environments" scenario.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.pareto import ParetoPoint, pareto_front

__all__ = [
    "ConfigurationSpace",
    "EvaluatedConfig",
    "exhaustive_front",
    "greedy_front_search",
]

#: An objective evaluator maps a configuration dict to (time_s, energy_j).
Evaluator = Callable[[Mapping[str, Any]], tuple[float, float]]


@dataclass(frozen=True)
class EvaluatedConfig:
    """A configuration together with its measured objectives."""

    config: dict[str, Any]
    time_s: float
    energy_j: float

    def to_point(self) -> ParetoPoint:
        return ParetoPoint(self.time_s, self.energy_j, config=self.config)


@dataclass
class ConfigurationSpace:
    """Discrete decision-variable space with an optional validity predicate.

    Attributes
    ----------
    variables:
        Mapping from variable name to the sequence of admissible values.
    is_valid:
        Predicate over a configuration dict; invalid combinations are
        skipped during enumeration (the paper: "due to the limited size
        of the per-block shared memory, only certain (G, R) combinations
        are permissible for a given BS").
    """

    variables: dict[str, Sequence[Any]]
    is_valid: Callable[[Mapping[str, Any]], bool] = field(
        default=lambda cfg: True
    )

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("configuration space needs at least one variable")
        for name, values in self.variables.items():
            if len(values) == 0:
                raise ValueError(f"variable {name!r} has no admissible values")

    def __iter__(self) -> Iterable[dict[str, Any]]:
        names = list(self.variables)
        for combo in itertools.product(*(self.variables[n] for n in names)):
            cfg = dict(zip(names, combo))
            if self.is_valid(cfg):
                yield cfg

    def size(self) -> int:
        """Number of valid configurations (enumerates the space)."""
        return sum(1 for _ in self)


def exhaustive_front(
    space: ConfigurationSpace, evaluate: Evaluator
) -> tuple[list[ParetoPoint], list[EvaluatedConfig]]:
    """Evaluate every valid configuration; return (front, all evaluations).

    This is the paper's methodology: sweep the full decision-variable
    space, measure (time, dynamic energy) for each valid configuration,
    and extract the global Pareto front.
    """
    evaluated = [
        EvaluatedConfig(cfg, *evaluate(cfg)) for cfg in space
    ]
    if not evaluated:
        raise ValueError("configuration space has no valid configurations")
    front = pareto_front(ec.to_point() for ec in evaluated)
    return front, evaluated


def greedy_front_search(
    space: ConfigurationSpace,
    evaluate: Evaluator,
    *,
    budget: int,
    seed: int = 0,
) -> tuple[list[ParetoPoint], list[EvaluatedConfig]]:
    """Budgeted front approximation by coordinate-wise hill descent.

    Starts from configurations spread across the space (low-discrepancy
    stride sampling), then repeatedly perturbs one decision variable of
    a current non-dominated configuration to a neighbouring value,
    keeping evaluations that are not dominated by the running front.
    Deterministic for a fixed ``seed``.  Stops after ``budget``
    evaluations.

    The running front is maintained incrementally
    (:class:`repro.core.incremental.IncrementalParetoFront`) rather
    than re-sorted from scratch each refinement step, so a budget of n
    evaluations costs O(n log n) front work in total instead of
    O(n² log n); the maintained front is provably identical to
    ``pareto_front`` over the evaluations so far, so the rng decision
    sequence — and therefore the search trajectory — is unchanged.

    Returns the approximate front and every configuration evaluated.
    The approximation is only as good as the budget; integration tests
    check it recovers most of the exhaustive front's hypervolume at a
    fraction of the evaluations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    import random

    from repro.core.incremental import IncrementalParetoFront

    rng = random.Random(seed)
    all_cfgs = list(space)
    if not all_cfgs:
        raise ValueError("configuration space has no valid configurations")

    names = list(space.variables)
    evaluated: list[EvaluatedConfig] = []
    running = IncrementalParetoFront()
    seen: set[tuple] = set()

    def key(cfg: Mapping[str, Any]) -> tuple:
        return tuple(cfg[n] for n in names)

    all_keys = [key(c) for c in all_cfgs]

    def try_eval(cfg: dict[str, Any]) -> None:
        k = key(cfg)
        if k in seen or len(evaluated) >= budget:
            return
        seen.add(k)
        ec = EvaluatedConfig(cfg, *evaluate(cfg))
        evaluated.append(ec)
        running.insert_point(ec.to_point())

    # Seed phase: stride-sample ~1/4 of the budget across the space.
    n_seed = max(2, budget // 4)
    stride = max(1, len(all_cfgs) // n_seed)
    for cfg in all_cfgs[::stride]:
        try_eval(cfg)

    # Refinement: perturb front members one variable at a time.
    while len(evaluated) < budget:
        front = running.points()
        base = rng.choice(front).config
        name = rng.choice(names)
        values = list(space.variables[name])
        idx = values.index(base[name])
        step = rng.choice([-1, 1])
        new_idx = idx + step
        if not (0 <= new_idx < len(values)):
            continue
        cand = dict(base)
        cand[name] = values[new_idx]
        if not space.is_valid(cand):
            continue
        before = len(evaluated)
        try_eval(cand)
        if len(evaluated) == before:
            # Duplicate; jump to a random unseen configuration to escape.
            fresh = [
                c for c, k in zip(all_cfgs, all_keys) if k not in seen
            ]
            if not fresh:
                break
            try_eval(rng.choice(fresh))

    return running.points(), evaluated
