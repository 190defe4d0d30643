"""The experiment table is the one list of what ``repro experiment`` runs.

The CLI's choices, ``repro all``'s session and the planner's request
collection all read :data:`repro.experiments.EXPERIMENTS`; these tests
check they agree with it and that every row resolves, without running
any experiment.
"""

from __future__ import annotations

import importlib

import pytest

from repro.cli import build_parser
from repro.experiments import (
    EXPERIMENTS,
    SWEEP_EXPERIMENTS,
    experiment_requests,
)
from repro.sweep.planner import collect_session_requests


def _experiment_choices() -> tuple[str, ...]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    (id_action,) = [
        a for a in sub.choices["experiment"]._actions if a.dest == "id"
    ]
    return tuple(id_action.choices)


def test_parser_choices_are_the_table_ids_in_order():
    assert _experiment_choices() == tuple(EXPERIMENTS)


def test_session_is_the_sweep_rows_in_table_order():
    # `repro all` prints its sections in this order.
    assert SWEEP_EXPERIMENTS == (
        "fig2", "fig7", "fig8", "headline", "sensitivity", "budgeted-search",
    )


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_entry_point_resolves(exp_id):
    exp = EXPERIMENTS[exp_id]
    module = importlib.import_module(f"repro.experiments.{exp.module}")
    assert callable(getattr(module, exp.entry))
    assert callable(getattr(module, "requests", None)) == exp.sweep


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_requests_only_for_sweep_rows(exp_id):
    requests = experiment_requests(exp_id)
    if EXPERIMENTS[exp_id].sweep:
        assert requests and isinstance(requests, tuple)
    else:
        assert requests is None


def test_session_requests_concatenate_the_sweep_modules_requests():
    expected = []
    for exp_id in SWEEP_EXPERIMENTS:
        module = importlib.import_module(
            f"repro.experiments.{EXPERIMENTS[exp_id].module}"
        )
        expected.extend(module.requests())
    assert collect_session_requests() == tuple(expected)

