"""Columnar, shard-level result store for sweep points.

The store persists whole sweeps columnar, so a warm rerun pays one
vectorized lookup per sweep instead of any per-point I/O:

* :class:`~repro.store.columnar.ColumnarStore` — one memory-mapped
  ``.npy`` block plus a ``.meta.json`` sidecar per ``(device, N,
  calibration, model_version, backend)`` identity
  (:func:`repro.sweep.keys.shard_digest`), holding the packed
  ``(BS, G, R)`` keys and the ``time_s`` / ``energy_j`` columns of
  every point of that sweep.  Lookups partition an entire request into
  hits and misses in one vectorized pass; float64 columns round-trip
  bit-exactly.
* an index manifest (``manifest.json``) describing every shard, kept
  advisory: shard filenames are derived from their content digest, so
  a missing or stale manifest degrades inspection tooling, never
  correctness.
* atomic temp-file + ``os.replace`` writes; corrupted/truncated shards
  are treated as misses and recomputed.
* :func:`~repro.store.migrate.migrate_json_cache` — a one-way import
  of a JSON point cache written by earlier versions (``repro cache
  migrate``).
"""

from repro.store.columnar import (
    SHARD_FORMAT,
    ColumnarStore,
    ShardKey,
    pack_config,
    pack_configs,
    shard_key,
    unpack_config,
)
from repro.store.migrate import MigrationReport, migrate_json_cache

__all__ = [
    "SHARD_FORMAT",
    "ColumnarStore",
    "MigrationReport",
    "ShardKey",
    "migrate_json_cache",
    "pack_config",
    "pack_configs",
    "shard_key",
    "unpack_config",
]
