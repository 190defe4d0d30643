"""Run-provenance manifest: *what produced this output, exactly?*

Every telemetry-carrying run attaches a manifest answering the
reproducibility questions the paper's methodology cares about: which
code (git SHA + simulator :data:`~repro.sweep.keys.MODEL_VERSION`),
which calibrations (content digests, the same identity the store
shards by), which backend, and which *inputs* (an RNG-free
determinism hash over the canonical encoding of every sweep request).
Two runs with equal manifests modulo the ``host`` section must produce
bit-identical experiment outputs — that is the contract the digest
exists to check.

Everything here is best-effort and read-only: a missing ``git``
binary or a non-repo checkout degrades ``git_sha`` to ``"unknown"``,
never to an error.
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "MANIFEST_FORMAT",
    "git_revision",
    "calibration_digest",
    "requests_digest",
    "run_manifest",
]

MANIFEST_FORMAT = "repro-provenance/1"


def git_revision(root: str | Path | None = None) -> str:
    """The checkout's commit SHA (plus ``-dirty``), or ``"unknown"``."""
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if not sha:
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def calibration_digest(spec, cal) -> str:
    """Content identity of one (spec, calibration) pair.

    Exactly the store's scalar shard identity minus the matrix size,
    so the manifest names calibrations the same way shards do.
    """
    import dataclasses

    from repro.sweep.keys import canonical_json

    payload = {
        "spec": dataclasses.asdict(spec),
        "calibration": dataclasses.asdict(cal),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def requests_digest(requests: Sequence[Any]) -> str:
    """RNG-free determinism hash of a session's sweep requests.

    Canonical JSON over each request's full identity — device spec,
    calibration constants, N, and the enumerated configuration list —
    in registration order.  Any change that could change a computed
    number changes the digest; reordering requests changes it too
    (output order is part of what a session produces).
    """
    import numpy as np

    from repro.sweep.keys import canonical_json

    entries = []
    for request in requests:
        configs = request.configs()
        entries.append(
            {
                "identity": calibration_digest(
                    request.spec, request.calibration
                ),
                "device": request.spec.name,
                "n": int(request.n),
                "configs": np.column_stack(
                    [configs.bs, configs.g, configs.r]
                ).tolist(),
            }
        )
    return hashlib.sha256(canonical_json(entries).encode()).hexdigest()


def run_manifest(
    command: str,
    *,
    backend: str | None = None,
    requests: Sequence[Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the provenance manifest of one CLI run.

    ``requests`` (when the command's input is a sweep-request set)
    feeds the determinism hash; ``extra`` lets callers attach
    command-specific identity (e.g. the device/N of a single sweep).
    """
    from repro.sweep.keys import MODEL_VERSION

    manifest: dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "command": command,
        "git_sha": git_revision(),
        "model_version": MODEL_VERSION,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    if backend is not None:
        manifest["backend"] = backend
    if requests is not None:
        manifest["inputs_digest"] = requests_digest(requests)
        manifest["requests"] = len(requests)
        calibrations: dict[str, str] = {}
        for request in requests:
            calibrations.setdefault(
                request.spec.name,
                calibration_digest(request.spec, request.calibration),
            )
        manifest["calibrations"] = dict(sorted(calibrations.items()))
    if extra:
        manifest.update(extra)
    return manifest
