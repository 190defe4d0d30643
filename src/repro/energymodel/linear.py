"""Constrained linear energy predictive models.

The theory of energy predictive models [33] derives, from energy
conservation, structural constraints a sound linear model
``E = Σ_i β_i · x_i`` over performance events must satisfy:

* **zero intercept** — an application with zero activity consumes zero
  dynamic energy;
* **non-negative coefficients** — no event's activity may *reduce*
  energy (each β_i is the energy cost of one unit of its event);
* **additive variables** — fitted only over events that pass the
  additivity test.

:class:`LinearEnergyModel` fits with non-negative least squares
(scipy NNLS), reports in-sample quality, and predicts new profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energymodel.events import ApplicationProfile

__all__ = ["LinearEnergyModel", "fit_energy_model"]


@dataclass(frozen=True)
class LinearEnergyModel:
    """A fitted non-negative, zero-intercept linear energy model."""

    event_names: tuple[str, ...]
    coefficients: tuple[float, ...]  # J per event count, all >= 0
    #: In-sample relative RMS error of the fit.
    training_error: float

    def __post_init__(self) -> None:
        if len(self.event_names) != len(self.coefficients):
            raise ValueError("names and coefficients must align")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("coefficients must be non-negative")

    def predict(self, profile: ApplicationProfile) -> float:
        """Predicted dynamic energy (J) of a profiled application."""
        return float(
            sum(
                beta * profile.event(name)
                for name, beta in zip(self.event_names, self.coefficients)
            )
        )

    def relative_error(self, profile: ApplicationProfile) -> float:
        """|predicted − measured| / measured for one profile."""
        if profile.energy_j <= 0:
            raise ValueError("profile energy must be positive")
        return abs(self.predict(profile) - profile.energy_j) / profile.energy_j

    def coefficient(self, event: str) -> float:
        try:
            return self.coefficients[self.event_names.index(event)]
        except ValueError:
            raise KeyError(f"model has no event {event!r}") from None


def fit_energy_model(
    profiles: list[ApplicationProfile],
    event_names: list[str],
) -> LinearEnergyModel:
    """Fit ``E = Σ β_i x_i`` with β ≥ 0 over the given profiles.

    Raises
    ------
    ValueError
        With fewer profiles than events (under-determined), or if any
        profile lacks one of the events.
    """
    if not event_names:
        raise ValueError("need at least one event")
    if len(profiles) < len(event_names):
        raise ValueError(
            f"{len(profiles)} profiles cannot determine {len(event_names)} "
            "coefficients"
        )
    x = np.array(
        [[p.event(name) for name in event_names] for p in profiles], dtype=float
    )
    y = np.array([p.energy_j for p in profiles], dtype=float)
    from scipy.optimize import nnls

    # Column scaling keeps NNLS well-conditioned for event counts that
    # span many orders of magnitude.
    scale = np.maximum(np.abs(x).max(axis=0), 1e-30)
    beta_scaled, _ = nnls(x / scale, y)
    beta = beta_scaled / scale
    predicted = x @ beta
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(predicted - y) / np.where(y > 0, y, 1.0)
    return LinearEnergyModel(
        event_names=tuple(event_names),
        coefficients=tuple(float(b) for b in beta),
        training_error=float(np.sqrt(np.mean(rel**2))),
    )
