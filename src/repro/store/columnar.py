"""Columnar shard store keyed by sweep-point identity (mmap fast path).

Layout: one shard per :func:`repro.sweep.keys.shard_digest` identity —
device spec, calibration, matrix size, model version and execution
backend — under the store root, plus an advisory index::

    <root>/<device>-n<N>-<backend>-<digest16>.npy
    <root>/<device>-n<N>-<backend>-<digest16>.meta.json
    <root>/manifest.json

A shard holds the full column set of one sweep's points — the packed
``(BS, G, R)`` configuration keys (sorted, unique), the unpacked key
columns and the ``time_s`` / ``energy_j`` objective columns — stored
as one ``(6, n)`` int64 block (format ``repro-sweep-store/2``).  The
float64 objective columns live bit-for-bit in int64 lanes so the whole
shard is a single homogeneous ``.npy`` that ``np.load(mmap_mode="r")``
can map lazily; :class:`_Shard` reinterprets them zero-copy.  Opening
a shard therefore touches only the header plus the packed-key column
(for the sorted-unique soundness check); objective pages are faulted
in on demand and copied only for the rows a lookup actually serves
(counted under ``store.shard.bytes_copied``).

The identity/row-count metadata lives in a JSON sidecar.  Because the
filename is derived from the content digest, the *manifest* is
advisory — it powers inspection and stats, but lookups never depend on
it, so a stale or corrupted manifest can degrade tooling output, never
correctness.  The sidecar, by contrast, is load-bearing: a shard whose
sidecar is missing, unreadable, or disagrees with the array's row
count is treated as a torn pair and recomputed.

Only format ``repro-sweep-store/2`` is read.  A file left at a
shard's identity in any other form (such as the monolithic ``.npz`` of
format ``/1``) is never served: the shard reads as cold, its points
are recomputed, and the append writes a v2 pair beside it.

Durability contract: every write goes through a temp file +
``os.replace``, so an interrupted run never leaves a half-written
shard under its final name; a corrupted or truncated shard is treated
as empty and recomputed, and the next append overwrites it.  Appends
re-read the shard from disk before merging, so two concurrent writers
converge on the union of their rows except for a benign
last-write-wins race window (the loser's rows read as misses and are
recomputed — values are deterministic, so nothing can diverge).
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.sweep.keys import MODEL_VERSION, shard_digest

__all__ = [
    "SHARD_FORMAT",
    "MANIFEST_FORMAT",
    "ShardKey",
    "ColumnarStore",
    "StoreIntegrityWarning",
    "shard_key",
    "pack_config",
    "pack_configs",
    "unpack_config",
]


class StoreIntegrityWarning(UserWarning):
    """A shard could not be trusted and its points will be recomputed.

    Emitted (once per shard load) when a shard file is corrupt,
    truncated, or structurally stale at its address.  Correctness is
    unaffected — the shard reads as empty and the points are
    recomputed — but silent recomputes hide lost cache capacity, so
    the event is surfaced here and counted under
    ``store.shard.recompute_fallbacks``.
    """

SHARD_FORMAT = "repro-sweep-store/2"
MANIFEST_FORMAT = "repro-sweep-store-manifest/1"
MANIFEST_NAME = "manifest.json"

#: Bits per packed (BS, G, R) field.  2^21 comfortably covers every
#: admissible value (BS ≤ 32, G ≤ 8, R ≤ total_products) while keeping
#: the packed key inside exact int64 range.
_FIELD_BITS = 21
_FIELD_MAX = (1 << _FIELD_BITS) - 1

#: Row indices of the (6, n) shard block.
_COL_PACKED, _COL_BS, _COL_G, _COL_R, _COL_TIME, _COL_ENERGY = range(6)


def pack_config(bs: int, g: int, r: int) -> int:
    """Pack one ``(BS, G, R)`` configuration into a sortable int64."""
    if not (0 < bs <= _FIELD_MAX and 0 < g <= _FIELD_MAX and 0 < r <= _FIELD_MAX):
        raise ValueError(
            f"(bs={bs}, g={g}, r={r}) outside the packable range "
            f"1..{_FIELD_MAX}"
        )
    return (bs << (2 * _FIELD_BITS)) | (g << _FIELD_BITS) | r


def pack_configs(configs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`pack_config` over a config sequence.

    ``configs`` is any sequence of objects with ``bs``/``g``/``r``
    attributes; returns ``(packed, bs, g, r)`` int64 arrays aligned
    with the input order.
    """
    count = len(configs)
    bs = np.fromiter((c.bs for c in configs), dtype=np.int64, count=count)
    g = np.fromiter((c.g for c in configs), dtype=np.int64, count=count)
    r = np.fromiter((c.r for c in configs), dtype=np.int64, count=count)
    if count and not (
        0 < bs.min() and bs.max() <= _FIELD_MAX
        and 0 < g.min() and g.max() <= _FIELD_MAX
        and 0 < r.min() and r.max() <= _FIELD_MAX
    ):
        raise ValueError(f"configuration outside the packable range 1..{_FIELD_MAX}")
    packed = (bs << (2 * _FIELD_BITS)) | (g << _FIELD_BITS) | r
    return packed, bs, g, r


def unpack_config(packed: int) -> tuple[int, int, int]:
    """Invert :func:`pack_config`; returns ``(bs, g, r)``."""
    p = int(packed)
    return (
        p >> (2 * _FIELD_BITS),
        (p >> _FIELD_BITS) & _FIELD_MAX,
        p & _FIELD_MAX,
    )


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-") or "device"


@dataclass(frozen=True)
class ShardKey:
    """Identity of one shard: ``(device, n, model_version, backend)``.

    ``digest`` is :func:`repro.sweep.keys.shard_digest` over the full
    spec + calibration payload, so two calibrations of the same device
    (e.g. the sensitivity study's perturbations) live in distinct
    shards even though their nominal key fields match.
    """

    device: str
    n: int
    model_version: str
    backend: str
    digest: str

    @property
    def stem(self) -> str:
        return (
            f"{_slug(self.device)}-n{self.n}-{self.backend}-"
            f"{self.digest[:16]}"
        )

    @property
    def filename(self) -> str:
        return f"{self.stem}.npy"

    @property
    def meta_filename(self) -> str:
        return f"{self.stem}.meta.json"


def shard_key(
    spec: GPUSpec,
    cal: GPUCalibration,
    n: int,
    *,
    backend: str = "scalar",
) -> ShardKey:
    """The :class:`ShardKey` of one device/size/calibration/backend."""
    return ShardKey(
        device=spec.name,
        n=int(n),
        model_version=MODEL_VERSION,
        backend=backend,
        digest=shard_digest(spec, cal, n, backend=backend),
    )


@dataclass
class _Shard:
    """One loaded shard: a ``(6, n)`` int64 block, possibly memory-mapped.

    Rows are sorted unique by packed key.  The two objective columns
    are float64 values stored bit-for-bit in int64 lanes so the whole
    shard is one homogeneous mmap-able array; :attr:`time_s` /
    :attr:`energy_j` reinterpret them with a zero-copy view.  With
    ``mapped=True`` no column has been read from disk yet except the
    packed keys (validated at open); objective pages fault in only
    when a lookup serves their rows, and are checked there.
    """

    block: np.ndarray
    mapped: bool = False

    @property
    def packed(self) -> np.ndarray:
        return self.block[_COL_PACKED]

    @property
    def bs(self) -> np.ndarray:
        return self.block[_COL_BS]

    @property
    def g(self) -> np.ndarray:
        return self.block[_COL_G]

    @property
    def r(self) -> np.ndarray:
        return self.block[_COL_R]

    @property
    def time_s(self) -> np.ndarray:
        return self.block[_COL_TIME].view(np.float64)

    @property
    def energy_j(self) -> np.ndarray:
        return self.block[_COL_ENERGY].view(np.float64)

    def __len__(self) -> int:
        return int(self.block.shape[1])


def _make_block(
    packed: np.ndarray,
    bs: np.ndarray,
    g: np.ndarray,
    r: np.ndarray,
    time_s: np.ndarray,
    energy_j: np.ndarray,
) -> np.ndarray:
    """Assemble column arrays into one ``(6, n)`` int64 block."""
    block = np.empty((6, len(packed)), dtype=np.int64)
    block[_COL_PACKED] = packed
    block[_COL_BS] = bs
    block[_COL_G] = g
    block[_COL_R] = r
    block[_COL_TIME] = np.ascontiguousarray(time_s, dtype=np.float64).view(
        np.int64
    )
    block[_COL_ENERGY] = np.ascontiguousarray(energy_j, dtype=np.float64).view(
        np.int64
    )
    return block


_EMPTY = _Shard(block=np.empty((6, 0), dtype=np.int64))

#: Exceptions a torn/foreign/garbage shard file can raise on load.
_LOAD_ERRORS = (OSError, ValueError, KeyError, EOFError)


class ColumnarStore:
    """Shard-level columnar store of sweep points under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        #: Corrupt shard files observed by loads.
        self.corrupt_shards = 0
        #: Structurally sound shards rejected for identity/version
        #: mismatch at their address (e.g. a stale model version).
        self.stale_shards = 0
        self._shards: dict[str, _Shard] = {}

    def _recompute_fallback(self, path: Path, reason: str) -> None:
        """Surface one untrusted-shard event (warning + obs counters).

        ``reason`` is ``"corrupt"`` (unreadable/torn/inconsistent
        columns) or ``"stale"`` (readable but the identity metadata
        does not match the address).
        """
        if reason == "stale":
            self.stale_shards += 1
        else:
            self.corrupt_shards += 1
        obs.count(f"store.shard.{reason}")
        obs.count("store.shard.recompute_fallbacks")
        warnings.warn(
            f"sweep store: {reason} shard {path.name} ignored; its "
            f"points will be recomputed and the shard rewritten on the "
            f"next append",
            StoreIntegrityWarning,
            stacklevel=3,
        )

    # -- paths --------------------------------------------------------------

    def shard_path(self, key: ShardKey) -> Path:
        return self.root / key.filename

    def meta_path(self, key: ShardKey) -> Path:
        return self.root / key.meta_filename

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    # -- loading ------------------------------------------------------------

    def _read_shard(self, key: ShardKey) -> _Shard:
        """Load a shard from disk; a corrupt or absent file is empty.

        The ``.npy`` is *memory-mapped*, not read: only the packed key
        column is touched here (sorted-unique soundness).
        """
        path = self.shard_path(key)
        try:
            meta = json.loads(self.meta_path(key).read_text())
            block = np.load(path, mmap_mode="r", allow_pickle=False)
        except FileNotFoundError:
            # A block without its sidecar (or vice versa) is a torn
            # pair — unless neither exists, which is just a cold shard.
            if path.is_file() or self.meta_path(key).is_file():
                self._recompute_fallback(path, "corrupt")
            return _EMPTY
        except _LOAD_ERRORS + (json.JSONDecodeError,):
            self._recompute_fallback(path, "corrupt")
            return _EMPTY
        obs.count("store.shard.mmap_opens")
        shard = _Shard(block=block, mapped=True)
        reason = self._shard_rejection(key, meta, shard)
        if reason == "unknown-device":
            self._raise_unknown_device(path, meta)
        if reason is not None:
            self._recompute_fallback(path, reason)
            return _EMPTY
        return shard

    @staticmethod
    def _device_known(name: Any) -> bool:
        """Whether a sidecar's device name resolves against the registry.

        A registry that itself fails to load counts as "known": a
        broken ``$REPRO_DEVICE_DIR`` must degrade to the quiet stale
        path, not turn every mismatched shard into a hard error.
        """
        if not isinstance(name, str) or not name:
            return False
        from repro.devices.registry import default_registry
        from repro.devices.schema import DeviceError
        from repro.machines.specs import MACHINES

        if any(spec.name == name for spec in MACHINES.values()):
            return True
        try:
            return default_registry().find(name) is not None
        except DeviceError:
            return True

    def _raise_unknown_device(self, path: Path, meta: dict[str, Any]) -> None:
        """Refuse to serve a shard written for an unregistered device."""
        from repro.devices.registry import default_registry
        from repro.devices.schema import UnknownDeviceError

        obs.count("store.shard.unknown_device")
        try:
            available = default_registry().describe()
        except Exception:  # registry broken: still name the shard
            available = "(registry unavailable)"
        raise UnknownDeviceError(
            f"sweep store shard {path.name} was written for device "
            f"{meta.get('device')!r}, which is not in the device "
            f"registry (registered devices: {available}); restore its "
            f"repro-device/1 file to $REPRO_DEVICE_DIR, or delete the "
            f"shard if the device is gone for good"
        )

    @staticmethod
    def _values_sound(time_s: np.ndarray, energy_j: np.ndarray) -> bool:
        return bool(
            np.isfinite(time_s).all()
            and np.isfinite(energy_j).all()
            and not (time_s < 0).any()
            and not (energy_j < 0).any()
        )

    @staticmethod
    def _shard_rejection(
        key: ShardKey, meta: dict[str, Any], shard: _Shard
    ) -> str | None:
        """Why a shard cannot be trusted at this address (None = sound).

        ``"stale"`` — the file is readable and well-formed but its
        identity metadata does not match the address (renamed/copied
        file, or a shard written by a different model version: its
        digest differs, so stale results never leak).
        ``"unknown-device"`` — identity mismatch *and* the sidecar
        names a device no longer known to the device registry: the
        shard is probably fine and the *environment* is wrong (a
        ``$REPRO_DEVICE_DIR`` file was removed or renamed), so silent
        recomputation would both fail later and hide the real problem
        — the readers raise instead.  ``"corrupt"`` — anything
        structurally broken: wrong format tag, wrong block shape, a
        sidecar row count disagreeing with the array (torn pair),
        unsorted keys.  Deliberately *not* checked here: objective-value
        soundness — that would fault in every
        page, defeating the mmap; served rows are checked at copy-out
        time instead.
        """
        if not isinstance(meta, dict):
            return "corrupt"
        if meta.get("format") != SHARD_FORMAT:
            return "corrupt"
        if (
            meta.get("digest") != key.digest
            or meta.get("model_version") != key.model_version
            or meta.get("backend") != key.backend
            or meta.get("device") != key.device
            or meta.get("n") != key.n
        ):
            if not ColumnarStore._device_known(meta.get("device")):
                return "unknown-device"
            return "stale"
        block = shard.block
        if block.ndim != 2 or block.shape[0] != 6 or block.dtype != np.int64:
            return "corrupt"
        if meta.get("points") != len(shard):
            return "corrupt"  # torn block/sidecar pair
        if len(shard) and not (np.diff(shard.packed) > 0).all():
            return "corrupt"  # lookups require sorted unique keys
        return None

    def _shard(self, key: ShardKey) -> _Shard:
        shard = self._shards.get(key.digest)
        if shard is None:
            shard = self._read_shard(key)
            self._shards[key.digest] = shard
        return shard

    def open_shards(self, keys) -> None:
        """Warm the shard cache for many identities with parallel I/O.

        Shard opens are independent metadata + header reads (the mmap
        faults no data pages), so a multi-shard planner partition can
        overlap them instead of paying the open latency serially.
        Results land in the same per-store cache that :meth:`lookup`
        uses; corrupt/stale fallbacks behave exactly as in serial
        opens.
        """
        pending = [k for k in keys if k.digest not in self._shards]
        # Dedup by digest while preserving order.
        unique: dict[str, ShardKey] = {}
        for k in pending:
            unique.setdefault(k.digest, k)
        if not unique:
            return
        with obs.span("store.open_shards", shards=len(unique)):
            if len(unique) == 1:
                (key,) = unique.values()
                self._shard(key)
                return
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(8, len(unique))
            ) as pool:
                loaded = list(pool.map(self._read_shard, unique.values()))
            for key, shard in zip(unique.values(), loaded):
                self._shards[key.digest] = shard

    # -- queries ------------------------------------------------------------

    def contains(self, key: ShardKey, packed: np.ndarray) -> np.ndarray:
        """Hit mask of a packed-key request, without touching values.

        The partition half of :meth:`lookup`: one ``searchsorted``
        over the (mapped) key column, no objective pages faulted, no
        rows copied.  Use when the values are only needed later (the
        planner partitions every experiment's requests up front and
        serves rows at figure-render time).
        """
        with obs.span(
            "store.contains", device=key.device, n=key.n, points=len(packed)
        ):
            shard = self._shard(key)
            hit = self._hit_positions(shard, packed)[0]
            hits = int(hit.sum())
            obs.count("store.shard.hits", hits)
            obs.count("store.shard.misses", len(packed) - hits)
            return hit

    @staticmethod
    def _hit_positions(
        shard: _Shard, packed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, pos_safe)`` of a packed request against one shard."""
        m = len(packed)
        if not (len(shard) and m):
            return np.zeros(m, dtype=bool), np.zeros(m, dtype=np.intp)
        pos = np.searchsorted(shard.packed, packed)
        in_range = pos < len(shard)
        pos_safe = np.where(in_range, pos, 0)
        hit = in_range & (shard.packed[pos_safe] == packed)
        return hit, pos_safe

    def lookup(
        self, key: ShardKey, packed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Partition a packed-key request into hits and misses.

        One vectorized pass: returns ``(time_s, energy_j, hit)`` arrays
        aligned with ``packed``; miss lanes hold NaN objectives.  Only
        the hit rows' objective lanes are copied out of the mapped
        shard (``store.shard.bytes_copied``); their values are checked
        at this copy-out boundary, so a structurally-sound shard with
        garbage objectives degrades to all-miss + recompute rather
        than serving it.
        """
        with obs.span(
            "store.lookup",
            device=key.device,
            n=key.n,
            points=len(packed),
        ):
            shard = self._shard(key)
            m = len(packed)
            times = np.full(m, np.nan)
            energies = np.full(m, np.nan)
            hit, pos_safe = self._hit_positions(shard, packed)
            hits = int(hit.sum())
            if hits:
                rows = pos_safe[hit]
                t_hit = shard.time_s[rows]  # fancy index: the serve copy
                e_hit = shard.energy_j[rows]
                if not self._values_sound(t_hit, e_hit):
                    self._shards[key.digest] = _EMPTY
                    self._recompute_fallback(self.shard_path(key), "corrupt")
                    return times, energies, np.zeros(m, dtype=bool)
                times[hit] = t_hit
                energies[hit] = e_hit
                obs.count(
                    "store.shard.bytes_copied", 2 * 8 * hits
                )
            obs.count("store.shard.hits", hits)
            obs.count("store.shard.misses", m - hits)
            return times, energies, hit

    def shard_points(self, key: ShardKey) -> int:
        """Number of points stored for one shard identity."""
        return len(self._shard(key))

    # -- writes -------------------------------------------------------------

    def append(
        self,
        key: ShardKey,
        bs: np.ndarray,
        g: np.ndarray,
        r: np.ndarray,
        time_s: np.ndarray,
        energy_j: np.ndarray,
    ) -> int:
        """Merge rows into a shard atomically; returns the new row count.

        Existing rows win on duplicate configuration keys (values are
        deterministic per identity, so the choice is cosmetic).  The
        shard is re-read from disk before merging so rows appended by a
        concurrent writer since our last load are preserved.
        """
        bs = np.asarray(bs, dtype=np.int64)
        g = np.asarray(g, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        time_s = np.asarray(time_s, dtype=np.float64)
        energy_j = np.asarray(energy_j, dtype=np.float64)
        packed = (bs << (2 * _FIELD_BITS)) | (g << _FIELD_BITS) | r

        with obs.span(
            "store.append", device=key.device, n=key.n, points=len(packed)
        ):
            return self._append_merged(key, bs, g, r, time_s, energy_j, packed)

    def _append_merged(
        self,
        key: ShardKey,
        bs: np.ndarray,
        g: np.ndarray,
        r: np.ndarray,
        time_s: np.ndarray,
        energy_j: np.ndarray,
        packed: np.ndarray,
    ) -> int:
        current = self._read_shard(key)  # fresh: pick up concurrent rows
        all_packed = np.concatenate([current.packed, packed])
        # np.unique keeps the first occurrence per duplicate, i.e. the
        # existing row; the result is sorted, which lookups require.
        uniq, first = np.unique(all_packed, return_index=True)
        merged = _Shard(
            block=_make_block(
                uniq,
                np.concatenate([current.bs, bs])[first],
                np.concatenate([current.g, g])[first],
                np.concatenate([current.r, r])[first],
                np.concatenate([current.time_s, time_s])[first],
                np.concatenate([current.energy_j, energy_j])[first],
            ),
        )
        self._write_shard(key, merged)
        self._shards[key.digest] = merged
        self._update_manifest(key, len(merged))
        obs.count("store.shard.appends")
        obs.count("store.points.appended", len(packed))
        return len(merged)

    def _write_shard(self, key: ShardKey, shard: _Shard) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.shard_path(key)
        meta = {
            "format": SHARD_FORMAT,
            "device": key.device,
            "n": key.n,
            "model_version": key.model_version,
            "backend": key.backend,
            "digest": key.digest,
            "points": len(shard),
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.save(fh, np.ascontiguousarray(shard.block))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        # Sidecar second: a crash between the two replaces leaves a
        # block/sidecar row-count mismatch, which reads as a torn pair
        # (corrupt → recompute), never as wrong values.
        meta_path = self.meta_path(key)
        meta_tmp = meta_path.with_name(f".{meta_path.name}.{os.getpid()}.tmp")
        try:
            meta_tmp.write_text(json.dumps(meta, sort_keys=True) + "\n")
            os.replace(meta_tmp, meta_path)
        finally:
            meta_tmp.unlink(missing_ok=True)

    # -- manifest -----------------------------------------------------------

    def _load_manifest(self) -> dict[str, Any]:
        try:
            doc = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return {"format": MANIFEST_FORMAT, "shards": {}}
        except (OSError, json.JSONDecodeError):
            return {"format": MANIFEST_FORMAT, "shards": {}}
        if (
            not isinstance(doc, dict)
            or doc.get("format") != MANIFEST_FORMAT
            or not isinstance(doc.get("shards"), dict)
        ):
            return {"format": MANIFEST_FORMAT, "shards": {}}
        return doc

    def _update_manifest(self, key: ShardKey, points: int) -> None:
        doc = self._load_manifest()
        doc["shards"][key.digest] = {
            "file": key.filename,
            "device": key.device,
            "n": key.n,
            "model_version": key.model_version,
            "backend": key.backend,
            "points": points,
        }
        self._write_manifest(doc)

    def _write_manifest(self, doc: dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_name(
            f".{MANIFEST_NAME}.{os.getpid()}.tmp"
        )
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.manifest_path)

    def rebuild_manifest(self) -> dict[str, Any]:
        """Regenerate the index from the shard files themselves.

        Recovers from a lost or corrupted manifest (the shards are the
        source of truth); unreadable shard files are skipped and
        counted in :attr:`corrupt_shards`.
        """
        doc: dict[str, Any] = {"format": MANIFEST_FORMAT, "shards": {}}
        obs.count("store.manifest.rebuilds")
        if not self.root.is_dir():
            return doc
        for meta_path in sorted(self.root.glob("*.meta.json")):
            npy = meta_path.with_name(
                meta_path.name[: -len(".meta.json")] + ".npy"
            )
            try:
                meta = json.loads(meta_path.read_text())
                block = np.load(npy, mmap_mode="r", allow_pickle=False)
                points = int(block.shape[1])
            except _LOAD_ERRORS + (json.JSONDecodeError, IndexError):
                self.corrupt_shards += 1
                continue
            if (
                not isinstance(meta, dict)
                or meta.get("format") != SHARD_FORMAT
                or "digest" not in meta
                or meta.get("points") != points
            ):
                self.corrupt_shards += 1
                continue
            doc["shards"][meta["digest"]] = {
                "file": npy.name,
                "device": meta.get("device"),
                "n": meta.get("n"),
                "model_version": meta.get("model_version"),
                "backend": meta.get("backend"),
                "points": points,
            }
        self._write_manifest(doc)
        return doc

    def manifest(self) -> dict[str, Any]:
        """The shard index; rebuilt from shard files when absent/corrupt."""
        doc = self._load_manifest()
        if (
            not doc["shards"]
            and self.root.is_dir()
            and any(self.root.glob("*.meta.json"))
        ):
            doc = self.rebuild_manifest()
        return doc

    def __len__(self) -> int:
        """Total points across all shards on disk."""
        return sum(
            int(entry.get("points", 0))
            for entry in self.manifest()["shards"].values()
        )
