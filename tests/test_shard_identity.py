"""Pinned shard identities.

Existing on-disk stores are addressed by ``shard_digest``, so its
bytes must never move without a deliberate model-version bump.  A
store filled and read in one process cannot notice a moved digest;
these literal values can.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.machines import K40C, P100
from repro.simgpu.calibration import K40C_CAL, P100_CAL
from repro.store.columnar import shard_key
from repro.sweep.keys import canonical_json, shard_digest

PINNED = {
    ("p100", 4096, "scalar"): "8c6f7a65b860bff36200c58bdf96b91ff267ba397ff9ce8a638350f1e337cddb",
    ("p100", 4096, "vectorized"): "e413e02b1f632b1db7a90a49094f46edbef2ccf497267421b94860b887ccc416",
    ("p100", 18432, "scalar"): "f1b0245693dd8ffc901d6c2281fad7070f1a0d2fb96f2f9a33204395269df09d",
    ("p100", 18432, "vectorized"): "4ccea0311941e5672da358c50623c4cb0a5429318ff789636973f4119fa0a360",
    ("k40c", 4096, "scalar"): "9939b988c987a13e3132fff64d329fc4be9350c0622e79bb34a682253224e46e",
    ("k40c", 4096, "vectorized"): "7d8e91347750f358c3c7b24a7bc1adebb6ab810b1e65beca52e5c91194eb66c6",
    ("k40c", 18432, "scalar"): "766dd55b0125ff242a1d01c2d13cf434620b57266518a7ff886d80a4e6fce75e",
    ("k40c", 18432, "vectorized"): "18b7cee458ff5b437fc5221c4825e4a5fbfe54e76beb95bd75fa896842c3714f",
}

#: The sensitivity study's P100 ``e_lane_j`` x 1.2 perturbation at N=10240.
PERTURBED = {
    "scalar": "21948befd8e0e7e3587613b76ba31d7e2b9e4d2b7f69a98eafc33a1018238e38",
    "vectorized": "6c374ac58506a3b4fbc00f78b32c11be42ba9f0d565bd520d991028df6a19f3f",
}

DEVICES = {"p100": (P100, P100_CAL), "k40c": (K40C, K40C_CAL)}


def perturbed_cal():
    return dataclasses.replace(P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2)


def uncached_digest(spec, cal, n, backend) -> str:
    """The identity recomputed from scratch: no memo, no splicing."""
    payload = {
        "model_version": "gpu-matmul/1",
        "spec": dataclasses.asdict(spec),
        "calibration": dataclasses.asdict(cal),
        "n": n,
    }
    if backend != "scalar":
        payload["backend"] = backend
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("device,n,backend", sorted(PINNED))
def test_shard_digest_is_pinned(device, n, backend):
    spec, cal = DEVICES[device]
    want = PINNED[(device, n, backend)]
    assert shard_digest(spec, cal, n, backend=backend) == want
    assert shard_key(spec, cal, n, backend=backend).digest == want
    assert uncached_digest(spec, cal, n, backend) == want


@pytest.mark.parametrize("backend", sorted(PERTURBED))
def test_perturbed_calibration_digest_is_pinned(backend):
    cal = perturbed_cal()
    assert shard_digest(P100, cal, 10240, backend=backend) == PERTURBED[backend]
    assert uncached_digest(P100, cal, 10240, backend) == PERTURBED[backend]


def test_memoised_digest_matches_uncached_recomputation():
    """Repeated and interleaved calls (memo hits) hash the same bytes
    as a from-scratch encoding, for equal-valued but distinct objects."""
    pairs = [(P100, P100_CAL), (K40C, K40C_CAL), (P100, perturbed_cal())]
    pairs.append((dataclasses.replace(P100), dataclasses.replace(P100_CAL)))
    for _ in range(2):
        for spec, cal in pairs:
            for n in (1, 4096, 65536):
                for backend in ("scalar", "vectorized"):
                    assert shard_digest(spec, cal, n, backend=backend) == (
                        uncached_digest(spec, cal, n, backend)
                    )
