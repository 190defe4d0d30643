"""Stable content-addressed identities for sweep points and shards.

A sweep point is fully determined by the device specification, the
calibration constants, the matrix size, the ``(BS, G, R)``
configuration, and the simulator version.  :func:`shard_digest` hashes
a canonical JSON encoding of all of those but the configuration — the
identity of one columnar store shard — and :func:`sweep_key` adds the
configuration (the key of one record of the JSON point cache that
``repro cache migrate`` imports).  So

* two runs that would compute the same numbers share one shard,
* any change to a spec constant, a calibration constant (including the
  sensitivity study's perturbed calibrations) or the model version
  produces a different identity — a stale value can never be returned
  for a changed model.

JSON float encoding uses ``repr`` (shortest round-trip), so the key is
stable across processes and Python sessions on the same platform.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - keeps this module stdlib-only
    from repro.machines.specs import GPUSpec
    from repro.simgpu.calibration import GPUCalibration

__all__ = [
    "BACKENDS",
    "MODEL_VERSION",
    "canonical_json",
    "shard_digest",
    "sweep_key",
]

#: How missing points can be computed.  ``vectorized`` evaluates a
#: whole mega-batch in one NumPy pass (:mod:`repro.simgpu.batch`);
#: ``scalar`` calls ``GPUDevice.run_matmul`` per point — the reference
#: the vectorized model is tested against.  A backend other than the
#: reference is part of every key (see :func:`sweep_key`).
BACKENDS = ("scalar", "vectorized")

#: Version of the GPU simulator's *code* (the constants are hashed
#: directly).  Bump whenever `repro.simgpu` changes the mapping from
#: (spec, calibration, N, BS, G, R) to (time, energy); the golden
#: regression tests fail loudly if a change lands without a bump.
MODEL_VERSION = "gpu-matmul/1"


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def sweep_key(
    spec: GPUSpec,
    cal: GPUCalibration,
    n: int,
    config: dict[str, int],
    *,
    backend: str = "scalar",
) -> str:
    """SHA-256 content key of one ``(device, N, config)`` sweep point.

    ``backend`` names the execution path that computed the point.  The
    scalar reference path adds nothing to the payload, so its keys
    never changed when backends were introduced.  Any other backend is
    mixed into the key: its results agree with the reference only to a
    parity tolerance, and must never be served where reference values
    were requested (or vice versa).
    """
    payload = _sweep_payload(spec, cal, n, backend)
    payload["config"] = {k: int(v) for k, v in sorted(config.items())}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _sweep_payload(
    spec: GPUSpec, cal: GPUCalibration, n: int, backend: str
) -> dict[str, Any]:
    """The config-independent part of a sweep point's identity."""
    payload: dict[str, Any] = {
        "model_version": MODEL_VERSION,
        "spec": dataclasses.asdict(spec),
        "calibration": dataclasses.asdict(cal),
        "n": int(n),
    }
    if backend != "scalar":
        payload["backend"] = backend
    return payload


def shard_digest(
    spec: GPUSpec,
    cal: GPUCalibration,
    n: int,
    *,
    backend: str = "scalar",
) -> str:
    """SHA-256 identity of one ``(device, N, model, backend)`` shard.

    This is :func:`sweep_key` minus the configuration: every sweep
    point of one device/size/calibration/backend combination shares one
    digest, which is how the columnar store (:mod:`repro.store`) groups
    points into shards.  Like :func:`sweep_key`, any change to a spec
    constant, a calibration constant or :data:`MODEL_VERSION` moves the
    points to a fresh shard, so a stale shard can never be read for a
    changed model.
    """
    payload = _sweep_payload(spec, cal, n, backend)
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
