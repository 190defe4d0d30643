"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines import HASWELL, K40C, P100
from repro.simcpu import MulticoreCPU
from repro.simgpu import GPUDevice


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def k40c() -> GPUDevice:
    return GPUDevice(K40C)


@pytest.fixture(scope="session")
def p100() -> GPUDevice:
    return GPUDevice(P100)


@pytest.fixture(scope="session")
def haswell_cpu() -> MulticoreCPU:
    return MulticoreCPU(HASWELL)


def write_json_cache(root, device, n, *, cal=None) -> list:
    """Write one sweep as a JSON point cache; returns its ParetoPoints.

    Earlier versions persisted sweeps as one ``repro-sweep-cache/1``
    record per point at ``<root>/<key[:2]>/<key>.json``; ``repro cache
    migrate`` imports such caches.  Values are the scalar reference's,
    keyed by :func:`repro.sweep.keys.sweep_key`, as those versions
    wrote them.
    """
    import json
    from pathlib import Path

    from repro.sweep import MODEL_VERSION, SweepRequest, sweep_key

    req = SweepRequest(device=device, n=n, cal=cal)
    spec, cal = req.spec, req.calibration
    points = req.app().sweep_points(n)
    for p in points:
        key = sweep_key(spec, cal, n, p.config)
        path = Path(root) / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "format": "repro-sweep-cache/1",
            "key": key,
            "device": spec.name,
            "n": n,
            "config": p.config,
            "time_s": p.time_s,
            "energy_j": p.energy_j,
            "model_version": MODEL_VERSION,
        }
        path.write_text(json.dumps(record, indent=1) + "\n")
    return points


@pytest.fixture
def json_cache():
    """The :func:`write_json_cache` writer."""
    return write_json_cache
