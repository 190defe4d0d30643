"""JSON point cache → columnar store migration (``repro cache migrate``).

Earlier versions persisted sweep points in a per-point JSON cache: one
``<root>/<key[:2]>/<key>.json`` record per point, in format
``repro-sweep-cache/1``.  The columnar store replaced it; this module
is the one-way importer that carries such a cache over, and the only
reader of the record format left.

A JSON cache record carries its content key and the denormalized
``(device, n, config)`` inputs, but *not* the spec/calibration payload
the key was hashed from.  Migration therefore re-derives each record's
identity: for every known GPU in the machine registry (at its default
calibration) and every backend, recompute :func:`repro.sweep.keys.
sweep_key` and claim the record iff the key matches bit for bit.  A
record that matches belongs to exactly one ``(spec, cal, n, backend)``
shard; a record that matches nothing — a perturbed-calibration point
from a sensitivity study, a foreign model version, an unknown device —
is counted and left untouched rather than guessed at.

Because JSON floats round-trip via shortest ``repr`` and the store's
float64 columns are binary, a migrated point is bit-identical to both
the original cache record and a fresh recomputation
(``tests/test_store.py`` enforces the latter).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.machines.specs import GPUSpec, MACHINES
from repro.simgpu.calibration import calibration_for
from repro.store.columnar import ColumnarStore, ShardKey, pack_config, shard_key
from repro.sweep.keys import BACKENDS, sweep_key

__all__ = ["CACHE_FORMAT", "MigrationReport", "migrate_json_cache"]

#: Format tag of a JSON point-cache record.
CACHE_FORMAT = "repro-sweep-cache/1"


@dataclass(frozen=True)
class CacheRecord:
    """One validated JSON cache record.

    ``device``, ``n`` and ``config`` are denormalized copies of the
    inputs the ``key`` was hashed from, kept so the record is readable.
    """

    key: str
    device: str
    n: int
    config: dict[str, int]
    time_s: float
    energy_j: float
    model_version: str

    @classmethod
    def from_dict(cls, doc: Any) -> "CacheRecord":
        """Parse one record; raises ValueError/KeyError/TypeError."""
        if not isinstance(doc, dict):
            raise ValueError("cache record must be a JSON object")
        if doc.get("format") != CACHE_FORMAT:
            raise ValueError(
                f"unsupported cache record format {doc.get('format')!r}"
            )
        time_s = float(doc["time_s"])
        energy_j = float(doc["energy_j"])
        if not math.isfinite(time_s) or not math.isfinite(energy_j):
            raise ValueError("cached objectives must be finite")
        if time_s < 0 or energy_j < 0:
            raise ValueError("cached objectives must be non-negative")
        config = doc["config"]
        if not isinstance(config, dict):
            raise ValueError("cached config must be a mapping")
        return cls(
            key=str(doc["key"]),
            device=str(doc["device"]),
            n=int(doc["n"]),
            config={str(k): int(v) for k, v in config.items()},
            time_s=time_s,
            energy_j=energy_j,
            model_version=str(doc["model_version"]),
        )


@dataclass
class MigrationReport:
    """Outcome of one cache → store migration."""

    scanned: int = 0
    migrated: int = 0
    #: Records whose key matches no registry device at its default
    #: calibration (e.g. sensitivity-study perturbations) — left in the
    #: JSON cache untouched.
    skipped_foreign: int = 0
    #: Unreadable/malformed record files.
    skipped_corrupt: int = 0
    #: Shards written, as ``digest -> point count``.
    shards: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"scanned {self.scanned} cache records: "
            f"{self.migrated} migrated into {len(self.shards)} shards, "
            f"{self.skipped_foreign} foreign (left in JSON cache), "
            f"{self.skipped_corrupt} corrupt",
        ]
        return "\n".join(lines)


def _gpu_registry() -> dict[str, GPUSpec]:
    """Claimable GPUs by full spec name (what cache records carry).

    The union of the in-code machines and the device registry, so
    points cached for a data-file device (``$REPRO_DEVICE_DIR``) are
    claimable too.  A registry that fails to load degrades to the
    in-code set — migration must keep working while the user repairs a
    broken device file.
    """
    from repro.devices.registry import default_registry
    from repro.devices.schema import DeviceError

    by_name = {
        spec.name: spec
        for spec in MACHINES.values()
        if isinstance(spec, GPUSpec)
    }
    try:
        entries = default_registry().entries()
    except DeviceError:
        entries = ()
    for entry in entries:
        if isinstance(entry.spec, GPUSpec):
            by_name.setdefault(entry.spec.name, entry.spec)
    return by_name


def migrate_json_cache(
    cache_root: str | Path,
    store_root: str | Path,
    *,
    backends: tuple[str, ...] = BACKENDS,
) -> MigrationReport:
    """Copy every claimable JSON cache record into a columnar store.

    Idempotent: re-running merges into the existing shards (existing
    rows win on duplicates, and the values are identical anyway).  The
    JSON cache is never modified.
    """
    cache_root = Path(cache_root).expanduser()
    store = ColumnarStore(store_root)
    report = MigrationReport()
    by_name = _gpu_registry()

    # digest -> (ShardKey, row lists) accumulated before one append each.
    groups: dict[str, tuple[ShardKey, list[tuple[int, int, int, float, float]]]] = {}
    for path in sorted(cache_root.glob("??/*.json")):
        report.scanned += 1
        try:
            record = CacheRecord.from_dict(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError, OSError):
            report.skipped_corrupt += 1
            continue
        claimed = _claim(record, by_name, backends)
        if claimed is None:
            report.skipped_foreign += 1
            continue
        key = claimed
        group = groups.get(key.digest)
        if group is None:
            group = (key, [])
            groups[key.digest] = group
        cfg = record.config
        group[1].append(
            (cfg["bs"], cfg["g"], cfg["r"], record.time_s, record.energy_j)
        )
        report.migrated += 1

    for key, rows in groups.values():
        bs, g, r, time_s, energy_j = (np.array(col) for col in zip(*rows))
        report.shards[key.digest] = store.append(
            key, bs, g, r, time_s, energy_j
        )
    return report


def _claim(
    record: CacheRecord,
    by_name: dict[str, GPUSpec],
    backends: tuple[str, ...],
) -> ShardKey | None:
    """The shard a record provably belongs to, or None."""
    spec = by_name.get(record.device)
    if spec is None:
        return None
    cfg = record.config
    if set(cfg) != {"bs", "g", "r"}:
        return None
    try:
        pack_config(cfg["bs"], cfg["g"], cfg["r"])
    except ValueError:
        return None
    cal = calibration_for(spec)
    for backend in backends:
        key = sweep_key(spec, cal, record.n, cfg, backend=backend)
        if key == record.key:
            return shard_key(spec, cal, record.n, backend=backend)
    return None
