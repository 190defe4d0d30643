"""Columnar, shard-level result store for sweep points.

The store persists whole sweeps columnar, so a warm rerun pays one
vectorized lookup per sweep instead of any per-point I/O:

* :class:`~repro.store.columnar.ColumnarStore` — one memory-mapped
  ``.npy`` file per ``(device, N, calibration, model_version,
  backend)`` identity (:func:`repro.sweep.keys.shard_digest`), holding
  the packed ``(BS, G, R)`` keys and the ``time_s`` / ``energy_j``
  columns of every point of that sweep, followed by a one-line JSON
  trailer naming that identity.  Lookups partition an entire request
  into hits and misses in one vectorized pass; float64 columns
  round-trip bit-exactly.
* atomic temp-file + ``os.replace`` writes, serialized across
  processes by an ``flock`` on ``<root>/.lock``; corrupted/truncated
  shards are treated as misses and recomputed; temp files a killed
  writer left behind are removed by the next store handle's first
  append.
* :func:`~repro.store.migrate.migrate_json_cache` — a one-way import
  of a JSON point cache written by earlier versions (``repro cache
  migrate``).
"""

from repro._lazy import attach

_SUBMODULES = {
    "columnar": (
        "SHARD_FORMAT", "ColumnarStore", "ShardKey", "pack_config",
        "pack_configs", "shard_key", "unpack_config",
    ),
    "migrate": ("MigrationReport", "migrate_json_cache"),
}

__all__ = sorted(name for names in _SUBMODULES.values() for name in names)
__getattr__, __dir__ = attach(__name__, _SUBMODULES)
