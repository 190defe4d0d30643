"""Unit tests for :mod:`repro.store` — the columnar shard store.

Round-trip bit-exactness, vectorized hit/miss partitioning, the
corruption/truncation → recompute fallback, model-version staleness,
concurrent-writer merging, and the JSON cache → store migration
(including its bit-identity to recomputation).
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.apps.matmul_gpu import MatmulGPUApp
from repro.machines.specs import K40C, P100
from repro.simgpu.calibration import P100_CAL
from repro.store import (
    ColumnarStore,
    MigrationReport,
    migrate_json_cache,
    pack_config,
    pack_configs,
    shard_key,
    unpack_config,
)
from repro.store.columnar import SHARD_FORMAT, StoreIntegrityWarning
from repro.store.migrate import CacheRecord
from repro.sweep import EvalPlanner, SweepRequest


def _p100_key(n=4096, backend="scalar"):
    return shard_key(P100, P100_CAL, n, backend=backend)


@pytest.fixture()
def tel():
    from repro import obs

    prev = obs.get_telemetry()
    tel = obs.set_telemetry(obs.Telemetry("summary"))
    yield tel
    obs.set_telemetry(prev)


def _rows(count=8, seed=3):
    rng = np.random.default_rng(seed)
    bs = rng.integers(1, 33, count)
    g = rng.integers(1, 9, count)
    r = np.arange(1, count + 1)  # distinct r => distinct packed keys
    t = rng.uniform(1.0, 100.0, count)
    e = rng.uniform(100.0, 9000.0, count)
    return bs, g, r, t, e


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        for cfg in [(1, 1, 1), (32, 8, 24), (32, 1, 120), (7, 3, 11)]:
            assert unpack_config(pack_config(*cfg)) == cfg

    def test_pack_orders_lexicographically(self):
        assert pack_config(2, 1, 1) > pack_config(1, 8, 120)
        assert pack_config(4, 2, 1) > pack_config(4, 1, 120)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_config(0, 1, 1)
        with pytest.raises(ValueError):
            pack_config(1, 1, 1 << 21)

    def test_pack_configs_matches_scalar(self):
        configs = MatmulGPUApp(P100).sweep_configs()
        packed, bs, g, r = pack_configs(configs)
        assert [unpack_config(p) for p in packed] == [
            (c.bs, c.g, c.r) for c in configs
        ]
        assert bs.dtype == np.int64 and len(bs) == len(configs)


class TestShardKey:
    def test_digest_distinguishes_identity(self):
        base = _p100_key()
        assert _p100_key(n=8192).digest != base.digest
        assert _p100_key(backend="vectorized").digest != base.digest
        assert shard_key(K40C, P100_CAL, 4096).digest != base.digest
        perturbed = dataclasses.replace(
            P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2
        )
        assert shard_key(P100, perturbed, 4096).digest != base.digest

    def test_scalar_digest_matches_legacy_payload(self):
        """Scalar keys must not depend on the backend tag (back-compat)."""
        from repro.sweep.keys import shard_digest

        assert _p100_key().digest == shard_digest(P100, P100_CAL, 4096)

    def test_filename_is_digest_derived(self):
        key = _p100_key()
        assert key.digest[:16] in key.filename
        assert key.filename.endswith(".npy")


class TestColumnarStore:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)

        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        times, energies, hit = fresh.lookup(key, packed)
        assert hit.all()
        # Exact per-lane equality in request order, regardless of the
        # shard's internal (sorted) layout:
        np.testing.assert_array_equal(times, t)
        np.testing.assert_array_equal(energies, e)

    def test_lookup_partitions_hits_and_misses(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        known = pack_config(int(bs[0]), int(g[0]), int(r[0]))
        unknown = pack_config(31, 7, 99)
        times, energies, hit = store.lookup(
            key, np.array([unknown, known], dtype=np.int64)
        )
        assert list(hit) == [False, True]
        assert np.isnan(times[0]) and np.isnan(energies[0])
        assert times[1] == t[0] and energies[1] == e[0]

    def test_append_merges_and_existing_rows_win(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        store.append(key, [4], [2], [12], [1.5], [300.0])
        # Same config, different (wrong) value: the original must win.
        n_rows = store.append(key, [4, 8], [2, 2], [12, 12], [9.9, 2.5], [1.0, 500.0])
        assert n_rows == 2
        times, energies, hit = store.lookup(
            key,
            np.array([pack_config(4, 2, 12), pack_config(8, 2, 12)]),
        )
        assert hit.all()
        assert times[0] == 1.5 and energies[0] == 300.0
        assert times[1] == 2.5 and energies[1] == 500.0

    def test_concurrent_writers_converge_to_union(self, tmp_path):
        """Two store handles appending disjoint rows both survive."""
        key = _p100_key()
        a = ColumnarStore(tmp_path)
        b = ColumnarStore(tmp_path)
        a.append(key, [4], [2], [12], [1.0], [10.0])
        # b never saw a's write; its append must re-read and merge.
        b.append(key, [8], [2], [12], [2.0], [20.0])
        fresh = ColumnarStore(tmp_path)
        _, _, hit = fresh.lookup(
            key,
            np.array([pack_config(4, 2, 12), pack_config(8, 2, 12)]),
        )
        assert hit.all()
        assert len(list(tmp_path.glob(".*.tmp"))) == 0  # no leftovers

    def test_corrupted_shard_reads_as_empty(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        store.shard_path(key).write_bytes(b"this is not a zip archive")
        fresh = ColumnarStore(tmp_path)
        packed, *_ = pack_configs(
            [type("C", (), {"bs": 4, "g": 2, "r": 12})()]
        )
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            _, _, hit = fresh.lookup(key, packed)
        assert not hit.any()
        assert fresh.corrupt_shards == 1

    def test_truncated_shard_reads_as_empty(self, tmp_path):
        """Every byte-prefix of a shard file — a torn write anywhere in
        header, block or trailer — reads as corrupt, is counted once
        and is never served."""
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows(3)
        store.append(key, bs, g, r, t, e)
        path = store.shard_path(key)
        intact = path.read_bytes()
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        for size in range(len(intact)):
            path.write_bytes(intact[:size])
            fresh = ColumnarStore(tmp_path)
            with pytest.warns(StoreIntegrityWarning, match="corrupt"):
                _, _, hit = fresh.lookup(key, packed)
            assert not hit.any(), size
            assert not fresh.contains(key, packed).any(), size
            assert (fresh.corrupt_shards, fresh.stale_shards) == (1, 0), size

    def test_shard_at_wrong_address_is_rejected(self, tmp_path):
        """A shard copied to another identity's filename never lies."""
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        other = _p100_key(n=8192)
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        shutil.copy(store.shard_path(key), store.shard_path(other))
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            _, _, hit = fresh.lookup(other, packed)
        assert not hit.any()
        assert fresh.stale_shards == 1  # identity mismatch, not corruption

    def test_stale_model_version_is_rejected(self, tmp_path, monkeypatch):
        """A version bump must orphan old shards, not serve them."""
        store = ColumnarStore(tmp_path)
        old_key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(old_key, bs, g, r, t, e)

        monkeypatch.setattr("repro.sweep.keys.MODEL_VERSION", "gpu-matmul/999")
        monkeypatch.setattr(
            "repro.store.columnar.MODEL_VERSION", "gpu-matmul/999"
        )
        new_key = _p100_key()
        assert new_key.digest != old_key.digest  # distinct address
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        _, _, hit = fresh.lookup(new_key, packed)
        assert not hit.any()
        # Even a byte-copy of the stale shard to the new address fails
        # the soundness check (its trailer carries the old version+digest).
        shutil.copy(store.shard_path(old_key), fresh.shard_path(new_key))
        fresh2 = ColumnarStore(tmp_path)
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            _, _, hit = fresh2.lookup(new_key, packed)
        assert not hit.any()
        assert fresh2.stale_shards == 1  # old version at new address


    def test_store_holds_only_shards_and_lock(self, tmp_path):
        """Appends write one ``.npy`` per identity and the lock file —
        no sidecar, no manifest, no leftover temp file."""
        store = ColumnarStore(tmp_path)
        bs, g, r, t, e = _rows()
        keys = [_p100_key(), _p100_key(n=8192), _p100_key(backend="vectorized")]
        for key in keys:
            store.append(key, bs, g, r, t, e)
            store.append(key, bs[:2], g[:2], r[:2], t[:2], e[:2])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [".lock", *(key.filename for key in keys)]
        )

    def test_stray_sidecar_and_manifest_are_ignored(self, tmp_path):
        """Files of the retired two-file layout beside a ``/3`` shard
        neither change what it serves nor get rewritten by appends."""
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs[:4], g[:4], r[:4], t[:4], e[:4])
        sidecar = tmp_path / f"{key.stem}.meta.json"
        sidecar.write_text(json.dumps({"format": "repro-sweep-store/2",
                                       "digest": "0" * 64, "points": 99}))
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json")
        store.append(key, bs[4:], g[4:], r[4:], t[4:], e[4:])
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        times, energies, hit = fresh.lookup(key, packed)
        assert hit.all()
        np.testing.assert_array_equal(times, t)
        np.testing.assert_array_equal(energies, e)
        assert (fresh.corrupt_shards, fresh.stale_shards) == (0, 0)
        assert manifest.read_text() == "{not json"
        assert json.loads(sidecar.read_text())["points"] == 99


class TestUnknownDeviceShards:
    """Mismatched shards: unregistered device → error, known → stale."""

    @staticmethod
    def _ghost_key(n=4096):
        ghost = dataclasses.replace(P100, name="Ghost GPU 9000")
        return shard_key(ghost, P100_CAL, n)

    def test_unregistered_device_raises_not_recomputes(self, tmp_path):
        """A shard for a vanished device must fail loudly, not silently."""
        from repro.devices.schema import UnknownDeviceError

        store = ColumnarStore(tmp_path)
        ghost_key = self._ghost_key()
        bs, g, r, t, e = _rows()
        store.append(ghost_key, bs, g, r, t, e)
        # Identity mismatch (the real-world shape: a model-version bump
        # or moved file) while the trailer names an unregistered device.
        target = _p100_key()
        shutil.copy(store.shard_path(ghost_key), store.shard_path(target))
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        with pytest.raises(UnknownDeviceError) as err:
            fresh.lookup(target, packed)
        message = str(err.value)
        assert "Ghost GPU 9000" in message
        assert "k40c" in message and "p100" in message  # registry listing
        assert "$REPRO_DEVICE_DIR" in message

    def test_registered_device_stays_on_quiet_stale_path(self, tmp_path):
        """Same mismatch with a *known* device name: warn and recompute."""
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        other = _p100_key(n=8192)
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        shutil.copy(store.shard_path(key), store.shard_path(other))
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            _, _, hit = fresh.lookup(other, packed)
        assert not hit.any()
        assert fresh.stale_shards == 1

    def test_restoring_device_file_downgrades_error_to_stale(
        self, tmp_path, monkeypatch
    ):
        """The error's own advice must work: re-register → stale path."""
        from repro.devices.registry import refresh_default_registry
        from repro.devices.schema import UnknownDeviceError, dump_device_json

        store_dir = tmp_path / "store"
        store = ColumnarStore(store_dir)
        ghost_key = self._ghost_key()
        bs, g, r, t, e = _rows()
        store.append(ghost_key, bs, g, r, t, e)
        target = _p100_key()
        shutil.copy(store.shard_path(ghost_key), store.shard_path(target))
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r

        with pytest.raises(UnknownDeviceError):
            ColumnarStore(store_dir).lookup(target, packed)

        dev_dir = tmp_path / "devices"
        dev_dir.mkdir()
        ghost = dataclasses.replace(P100, name="Ghost GPU 9000")
        dump_device_json(dev_dir / "ghost.json", "ghost", ghost, P100_CAL)
        monkeypatch.setenv("REPRO_DEVICE_DIR", str(dev_dir))
        refresh_default_registry()
        try:
            with pytest.warns(StoreIntegrityWarning, match="stale"):
                _, _, hit = ColumnarStore(store_dir).lookup(target, packed)
            assert not hit.any()
        finally:
            refresh_default_registry()

    def test_matching_shard_never_consults_the_registry(self, tmp_path):
        """A sound shard for an unregistered device still serves."""
        store = ColumnarStore(tmp_path)
        ghost_key = self._ghost_key()
        bs, g, r, t, e = _rows()
        store.append(ghost_key, bs, g, r, t, e)
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        _, _, hit = fresh.lookup(ghost_key, packed)
        assert hit.all()


class TestShardFormat:
    """The mmap fast path: lazy opens, copy-on-serve, foreign files."""

    def _seed(self, tmp_path, count=256):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows(count)
        store.append(key, bs, g, r, t, e)
        return key, bs, g, r, t, e

    def test_fresh_lookup_maps_the_shard(self, tmp_path):
        key, bs, g, r, t, e = self._seed(tmp_path)
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        _, _, hit = fresh.lookup(key, packed[:4])
        assert hit.all()
        shard = fresh._shards[key.digest]
        assert shard.mapped
        assert isinstance(shard.block, np.memmap)

    def test_partial_hit_copies_only_served_rows(self, tmp_path, tel):
        """Regression for the eager full-shard decompress: serving a
        small key subset out of a large shard must copy exactly the
        served objective lanes, never the whole shard."""
        key, bs, g, r, t, e = self._seed(tmp_path, count=256)
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        times, energies, hit = fresh.lookup(key, packed[:10])
        assert hit.all()
        np.testing.assert_array_equal(times, t[:10])
        assert tel.counters["store.shard.mmap_opens"] == 1
        # Two float64 lanes per served row — and nothing else.
        assert tel.counters["store.shard.bytes_copied"] == 10 * 2 * 8
        shard_bytes = fresh._shards[key.digest].block.nbytes
        assert tel.counters["store.shard.bytes_copied"] < shard_bytes // 10

    def test_contains_partitions_without_copying_values(self, tmp_path, tel):
        key, bs, g, r, t, e = self._seed(tmp_path)
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        probe = np.concatenate([packed[:5], [pack_config(31, 7, 999)]])
        hit = fresh.contains(key, probe)
        assert list(hit) == [True] * 5 + [False]
        assert tel.counters.get("store.shard.bytes_copied", 0) == 0
        assert tel.counters["store.shard.hits"] == 5
        assert tel.counters["store.shard.misses"] == 1

    def test_open_shards_warms_the_cache(self, tmp_path, tel):
        a = _p100_key()
        b = _p100_key(n=8192)
        store = ColumnarStore(tmp_path)
        bs, g, r, t, e = _rows()
        store.append(a, bs, g, r, t, e)
        store.append(b, bs, g, r, t, e)
        fresh = ColumnarStore(tmp_path)
        fresh.open_shards([a, b, a])  # duplicates are deduped
        assert tel.counters["store.shard.mmap_opens"] == 2
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        _, _, hit = fresh.lookup(a, packed)
        assert hit.all()
        assert tel.counters["store.shard.mmap_opens"] == 2  # cache hit

    @staticmethod
    def _split_trailer(path):
        """``(block bytes, trailer bytes)`` of a shard file."""
        blob = path.read_bytes()
        cut = blob.rindex(b"{")  # the trailer is one flat JSON object
        return blob[:cut], blob[cut:]

    def _assert_never_served(self, tmp_path, key, bs, g, r):
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            _, _, hit = fresh.lookup(key, packed)
        assert not hit.any()
        assert (fresh.corrupt_shards, fresh.stale_shards) == (1, 0)

    def test_trailer_records_shard_identity(self, tmp_path):
        key, bs, g, r, t, e = self._seed(tmp_path, count=16)
        path = ColumnarStore(tmp_path).shard_path(key)
        block, trailer = self._split_trailer(path)
        assert trailer.endswith(b"\n") and trailer.count(b"\n") == 1
        assert json.loads(trailer) == {
            "format": SHARD_FORMAT,
            "device": key.device,
            "n": key.n,
            "model_version": key.model_version,
            "backend": key.backend,
            "digest": key.digest,
        }
        # What precedes the trailer is a plain ``np.save`` block.
        path.write_bytes(block)
        loaded = np.load(path, allow_pickle=False)
        assert loaded.shape == (6, 16) and loaded.dtype == np.int64

    def test_garbled_trailer_is_corrupt(self, tmp_path):
        key, bs, g, r, t, e = self._seed(tmp_path, count=16)
        path = ColumnarStore(tmp_path).shard_path(key)
        block, trailer = self._split_trailer(path)
        path.write_bytes(block + b"{not json" + b" " * len(trailer) + b"\n")
        self._assert_never_served(tmp_path, key, bs, g, r)

    def test_foreign_format_tag_in_trailer_is_corrupt(self, tmp_path):
        key, bs, g, r, t, e = self._seed(tmp_path, count=16)
        path = ColumnarStore(tmp_path).shard_path(key)
        block, trailer = self._split_trailer(path)
        meta = json.loads(trailer)
        meta["format"] = "repro-sweep-store/2"
        path.write_bytes(block + json.dumps(meta).encode() + b"\n")
        self._assert_never_served(tmp_path, key, bs, g, r)

    def test_other_npy_header_version_is_corrupt(self, tmp_path):
        """``np.save`` writes a shard's header as version 1.0; the same
        block and trailer under a 2.0 header is a foreign file."""
        key, bs, g, r, t, e = self._seed(tmp_path, count=16)
        path = ColumnarStore(tmp_path).shard_path(key)
        _, trailer = self._split_trailer(path)
        block = np.load(path, allow_pickle=False)
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, block, version=(2, 0))
            fh.write(trailer)
        self._assert_never_served(tmp_path, key, bs, g, r)

    def test_bytes_after_trailer_are_corrupt(self, tmp_path):
        """An appended tail — with or without a closing newline — makes
        the trailer unparseable, never silently ignored."""
        key, bs, g, r, t, e = self._seed(tmp_path, count=16)
        path = ColumnarStore(tmp_path).shard_path(key)
        intact = path.read_bytes()
        for tail in (b"x", b"{}\n"):
            path.write_bytes(intact + tail)
            self._assert_never_served(tmp_path, key, bs, g, r)

    def test_garbage_values_degrade_to_miss_at_serve_time(self, tmp_path):
        """Mapped opens skip value validation (it would fault every
        page); a structurally-sound shard with non-finite objectives
        must still never be served — the copy-out boundary checks the
        lanes it serves."""
        key, bs, g, r, t, e = self._seed(tmp_path)
        block = np.load(store_path := ColumnarStore(tmp_path).shard_path(key),
                        mmap_mode="r+", allow_pickle=False)
        block[4, :] = np.float64(np.nan).view(np.int64)  # time_s lanes
        block.flush()
        del block
        fresh = ColumnarStore(tmp_path)
        packed = (bs.astype(np.int64) << 42) | (g.astype(np.int64) << 21) | r
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            times, energies, hit = fresh.lookup(key, packed)
        assert not hit.any()
        assert np.isnan(times).all()
        assert fresh.corrupt_shards == 1

    def test_stray_npz_at_identity_is_never_served(self, tmp_path):
        """A file of the retired v1 ``.npz`` format at a shard's identity
        is not read: its points are recomputed and a v3 shard written."""
        req = SweepRequest(device="p100", n=4096)
        key = shard_key(P100, P100_CAL, 4096)
        store = ColumnarStore(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        configs = req.configs()
        packed, bs, g, r = pack_configs(configs)
        order = np.argsort(packed)
        meta = {
            "format": "repro-sweep-store/1",
            "device": key.device,
            "n": key.n,
            "model_version": key.model_version,
            "backend": key.backend,
            "digest": key.digest,
            "points": len(packed),
        }
        with open(tmp_path / f"{key.stem}.npz", "wb") as fh:
            np.savez(
                fh,
                meta=np.array(json.dumps(meta)),
                packed=packed[order],
                bs=bs[order],
                g=g[order],
                r=r[order],
                time_s=np.full(len(packed), 1.0),  # wrong on purpose
                energy_j=np.full(len(packed), 2.0),
            )
        planner = EvalPlanner(store=store, backend="scalar")
        points = planner.evaluate_configs(req, configs)
        assert points == MatmulGPUApp(P100).sweep_points(4096)
        assert planner.stats.store_hits == 0
        assert planner.stats.computed == len(configs)
        assert store.shard_path(key).is_file()
        warm = EvalPlanner(store_dir=tmp_path, backend="scalar")
        assert warm.evaluate_configs(req, configs) == points
        assert warm.stats.computed == 0

    def test_v2_pair_at_identity_is_never_served(self, tmp_path):
        """A format-``/2`` block (no trailer) left at a shard's address
        beside its ``.meta.json`` sidecar reads as corrupt: its points
        are recomputed and the shard is rewritten as ``/3``."""
        req = SweepRequest(device="p100", n=4096)
        key = shard_key(P100, P100_CAL, 4096)
        store = ColumnarStore(tmp_path)
        configs = req.configs()
        packed, bs, g, r = pack_configs(configs)
        order = np.argsort(packed)
        wrong = np.full(len(packed), 1.0).view(np.int64)  # wrong on purpose
        np.save(
            store.shard_path(key),
            np.stack([packed[order], bs[order], g[order], r[order], wrong, wrong]),
        )
        sidecar = {
            "format": "repro-sweep-store/2",
            "device": key.device,
            "n": key.n,
            "model_version": key.model_version,
            "backend": key.backend,
            "digest": key.digest,
            "points": len(packed),
        }
        (tmp_path / f"{key.stem}.meta.json").write_text(
            json.dumps(sidecar, sort_keys=True) + "\n"
        )
        planner = EvalPlanner(store=store, backend="scalar")
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            points = planner.evaluate_configs(req, configs)
        assert points == MatmulGPUApp(P100).sweep_points(4096)
        assert planner.stats.store_hits == 0
        assert planner.stats.computed == len(configs)
        blob = store.shard_path(key).read_bytes()
        assert json.loads(blob[blob.rindex(b"{"):])["format"] == SHARD_FORMAT
        warm = EvalPlanner(store_dir=tmp_path, backend="scalar")
        assert warm.evaluate_configs(req, configs) == points
        assert warm.stats.computed == 0


class TestAppendLock:
    """Appends serialize their read-merge-write on ``<root>/.lock``."""

    def test_uncontended_append_never_waits(self, tmp_path, tel):
        store = ColumnarStore(tmp_path)
        bs, g, r, t, e = _rows()
        store.append(_p100_key(), bs, g, r, t, e)
        store.append(_p100_key(n=8192), bs, g, r, t, e)
        assert tel.counters["store.shard.appends"] == 2
        assert "store.lock.waits" not in tel.counters

    def test_contended_append_waits_for_the_lock(self, tmp_path, tel):
        """A held lock blocks the append before it reads the shard; the
        wait is counted once and the rows land after the release."""
        import fcntl
        import threading
        import time

        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        with open(tmp_path / ".lock", "wb") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            writer = threading.Thread(
                target=store.append, args=(key, bs, g, r, t, e)
            )
            writer.start()
            deadline = time.monotonic() + 30
            while (
                "store.lock.waits" not in tel.counters
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert tel.counters.get("store.lock.waits") == 1
            assert writer.is_alive()
            assert not store.shard_path(key).exists()
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert tel.counters["store.lock.waits"] == 1
        assert ColumnarStore(tmp_path).shard_points(key) == len(bs)

    def test_append_reaps_a_killed_writers_temp_file(self, tmp_path, tel):
        """A writer killed between its temp write and its replace leaves
        ``.<shard>.<pid>.tmp`` behind; the next append removes it, so
        the store holds only shard files and the lock."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        child = (
            "import os, signal\n"
            "from repro.machines.specs import P100\n"
            "from repro.simgpu.calibration import P100_CAL\n"
            "from repro.store import ColumnarStore, shard_key\n"
            "os.replace = lambda *a: os.kill(os.getpid(), signal.SIGKILL)\n"
            f"ColumnarStore({str(tmp_path)!r}).append(\n"
            "    shard_key(P100, P100_CAL, 4096, backend='scalar'),\n"
            "    [4], [1], [24], [1.0], [2.0])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert len(list(tmp_path.glob(".*.tmp"))) == 1
        assert not ColumnarStore(tmp_path).shard_path(_p100_key()).exists()

        store = ColumnarStore(tmp_path)
        bs, g, r, t, e = _rows()
        store.append(_p100_key(), bs, g, r, t, e)
        assert tel.counters["store.tmp.reaped"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".lock", store.shard_path(_p100_key()).name,
        ]
        assert ColumnarStore(tmp_path).shard_points(_p100_key()) == len(bs)


class TestPlannerWithStore:
    def test_store_dir_and_store_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            EvalPlanner(
                store_dir=tmp_path, store=ColumnarStore(tmp_path)
            )

    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        reference = MatmulGPUApp(P100).sweep_points(4096)
        cold = EvalPlanner(store_dir=tmp_path, backend="scalar")
        assert cold.sweep("p100", 4096) == reference
        assert cold.stats.computed == len(reference)

        warm = EvalPlanner(store_dir=tmp_path, backend="scalar")
        assert warm.sweep("p100", 4096) == reference
        assert warm.stats.computed == 0
        assert warm.stats.store_hits == len(reference)

    def test_partial_store_fills_only_misses(self, tmp_path):
        req = SweepRequest(device="k40c", n=4096)
        configs = req.configs()
        seed = EvalPlanner(store_dir=tmp_path, backend="scalar")
        seed.evaluate_configs(req, configs[: len(configs) // 2])

        rest = EvalPlanner(store_dir=tmp_path, backend="scalar")
        points = rest.evaluate_configs(req, configs)
        assert points == MatmulGPUApp(K40C).sweep_points(4096)
        assert rest.stats.store_hits == len(configs) // 2
        assert rest.stats.computed == len(configs) - len(configs) // 2

    def test_corrupted_shard_recomputed_transparently(self, tmp_path):
        from repro.simgpu.calibration import K40C_CAL

        planner = EvalPlanner(store_dir=tmp_path, backend="scalar")
        full = planner.sweep("k40c", 4096)
        key = shard_key(K40C, K40C_CAL, 4096)
        planner2 = EvalPlanner(store_dir=tmp_path, backend="scalar")
        planner2.store.shard_path(key).write_bytes(b"garbage")
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            assert planner2.sweep("k40c", 4096) == full
        assert planner2.stats.computed == len(full)
        # The recomputation healed the shard on disk.
        healed = EvalPlanner(store_dir=tmp_path, backend="scalar")
        assert healed.sweep("k40c", 4096) == full
        assert healed.stats.computed == 0

    def test_backends_use_distinct_shards(self, tmp_path):
        scalar = EvalPlanner(store_dir=tmp_path, backend="scalar")
        scalar.sweep("p100", 4096)
        vec = EvalPlanner(store_dir=tmp_path, backend="vectorized")
        vec.sweep("p100", 4096)
        assert vec.stats.store_hits == 0  # no cross-backend leakage
        assert vec.stats.computed == vec.stats.requested


class TestMigration:
    def test_migrated_store_is_bit_identical_to_recomputation(
        self, tmp_path, json_cache
    ):
        cache_dir = tmp_path / "cache"
        store_dir = tmp_path / "store"
        reference = json_cache(cache_dir, "p100", 4096)

        report = migrate_json_cache(cache_dir, store_dir)
        assert isinstance(report, MigrationReport)
        assert report.scanned == len(reference)
        assert report.migrated == len(reference)
        assert report.skipped_foreign == 0 and report.skipped_corrupt == 0

        warm = EvalPlanner(store_dir=store_dir, backend="scalar")
        assert warm.sweep("p100", 4096) == reference
        assert warm.stats.computed == 0  # every migrated point served
        # ...and every stored objective equals a fresh recomputation
        # bit for bit (JSON repr round-trip + float64 columns).
        assert MatmulGPUApp(P100).sweep_points(4096) == reference

    def test_migration_is_idempotent(self, tmp_path, json_cache):
        cache_dir = tmp_path / "cache"
        store_dir = tmp_path / "store"
        json_cache(cache_dir, "p100", 4096)
        first = migrate_json_cache(cache_dir, store_dir)
        second = migrate_json_cache(cache_dir, store_dir)
        assert second.migrated == first.migrated
        assert second.shards == first.shards

    def test_foreign_records_are_left_in_place(self, tmp_path, json_cache):
        """Perturbed-calibration records can't be claimed — skipped."""
        cache_dir = tmp_path / "cache"
        store_dir = tmp_path / "store"
        perturbed = dataclasses.replace(
            P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2
        )
        json_cache(cache_dir, "p100", 4096, cal=perturbed)
        n_records = len(list(cache_dir.glob("??/*.json")))

        report = migrate_json_cache(cache_dir, store_dir)
        assert report.scanned == n_records
        assert report.migrated == 0
        assert report.skipped_foreign == n_records
        # The JSON cache is untouched.
        assert len(list(cache_dir.glob("??/*.json"))) == n_records

    def test_corrupt_records_are_counted(self, tmp_path, json_cache):
        cache_dir = tmp_path / "cache"
        store_dir = tmp_path / "store"
        reference = json_cache(cache_dir, "p100", 4096)
        victim = sorted(cache_dir.glob("??/*.json"))[0]
        victim.write_text("{torn")
        report = migrate_json_cache(cache_dir, store_dir)
        assert report.skipped_corrupt == 1
        assert report.migrated == len(reference) - 1

    def test_render_summarizes(self, tmp_path, json_cache):
        cache_dir = tmp_path / "cache"
        json_cache(cache_dir, "p100", 4096)
        report = migrate_json_cache(cache_dir, tmp_path / "store")
        text = report.render()
        assert "migrated" in text and str(report.migrated) in text


class TestCacheRecords:
    """Validation of the JSON cache records ``repro cache migrate`` reads.

    A record that fails to parse is counted as corrupt and never
    migrated, so the store can only ever serve values that a warm
    planner would have computed itself.
    """

    N = 2048

    def _cache(self, tmp_path, json_cache):
        cache_dir = tmp_path / "cache"
        reference = json_cache(cache_dir, "p100", self.N)
        return cache_dir, reference

    def _assert_store_serves_reference(self, store_dir, reference, computed):
        warm = EvalPlanner(store_dir=store_dir, backend="scalar")
        assert warm.sweep("p100", self.N) == reference
        assert warm.stats.computed == computed

    def test_record_parse_is_exact(self, tmp_path, json_cache):
        cache_dir, reference = self._cache(tmp_path, json_cache)
        by_config = {tuple(sorted(p.config.items())): p for p in reference}
        paths = sorted(cache_dir.glob("??/*.json"))
        assert len(paths) == len(reference)
        for path in paths:
            rec = CacheRecord.from_dict(json.loads(path.read_text()))
            assert rec.key == path.stem
            assert rec.device == P100.name and rec.n == self.N
            point = by_config[tuple(sorted(rec.config.items()))]
            # Bit-exact float round-trip through the JSON repr.
            assert rec.time_s == point.time_s
            assert rec.energy_j == point.energy_j

    def test_empty_cache_migrates_nothing(self, tmp_path):
        (tmp_path / "cache").mkdir()
        report = migrate_json_cache(tmp_path / "cache", tmp_path / "store")
        assert report.scanned == 0 and report.migrated == 0
        assert report.shards == {}
        assert not list((tmp_path / "store").glob("*.npy"))

    def test_torn_record_is_migrated_once_rewritten(
        self, tmp_path, json_cache
    ):
        cache_dir, reference = self._cache(tmp_path, json_cache)
        store_dir = tmp_path / "store"
        victim = sorted(cache_dir.glob("??/*.json"))[0]
        intact = victim.read_text()
        victim.write_text(intact[:37])  # a torn write
        first = migrate_json_cache(cache_dir, store_dir)
        assert first.skipped_corrupt == 1
        assert first.migrated == len(reference) - 1

        victim.write_text(intact)
        second = migrate_json_cache(cache_dir, store_dir)
        assert second.skipped_corrupt == 0
        assert second.migrated == len(reference)
        self._assert_store_serves_reference(store_dir, reference, 0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(format="other/9"),
            lambda d: d.pop("time_s"),
            lambda d: d.update(time_s="not-a-number"),
            lambda d: d.update(time_s=float("nan")),
            lambda d: d.update(time_s=-1.0),
            lambda d: d.update(config=[1, 2, 3]),
        ],
    )
    def test_malformed_records_are_never_migrated(
        self, tmp_path, json_cache, mutate
    ):
        cache_dir, reference = self._cache(tmp_path, json_cache)
        store_dir = tmp_path / "store"
        victim = sorted(cache_dir.glob("??/*.json"))[0]
        doc = json.loads(victim.read_text())
        mutate(doc)
        victim.write_text(json.dumps(doc, default=str))
        with pytest.raises((ValueError, KeyError, TypeError)):
            CacheRecord.from_dict(json.loads(victim.read_text()))

        report = migrate_json_cache(cache_dir, store_dir)
        assert report.skipped_corrupt == 1
        assert report.migrated == len(reference) - 1
        # The one missing point is recomputed, not read from the record.
        self._assert_store_serves_reference(store_dir, reference, 1)

    def test_tampered_key_is_never_claimed(self, tmp_path, json_cache):
        """A record whose key its inputs do not hash to is foreign."""
        cache_dir, reference = self._cache(tmp_path, json_cache)
        store_dir = tmp_path / "store"
        victim = sorted(cache_dir.glob("??/*.json"))[0]
        doc = json.loads(victim.read_text())
        doc["key"] = "cd" + "1" * 62
        victim.write_text(json.dumps(doc))

        report = migrate_json_cache(cache_dir, store_dir)
        assert report.skipped_foreign == 1 and report.skipped_corrupt == 0
        assert report.migrated == len(reference) - 1
        self._assert_store_serves_reference(store_dir, reference, 1)

    def test_unknown_device_is_foreign(self, tmp_path, json_cache):
        cache_dir, reference = self._cache(tmp_path, json_cache)
        victim = sorted(cache_dir.glob("??/*.json"))[0]
        doc = json.loads(victim.read_text())
        doc["device"] = "Nvidia Z9000"
        victim.write_text(json.dumps(doc))

        report = migrate_json_cache(cache_dir, tmp_path / "store")
        assert report.skipped_foreign == 1
        assert report.migrated == len(reference) - 1

    def test_scanned_counts_records_only(self, tmp_path, json_cache):
        cache_dir = tmp_path / "cache"
        p100 = json_cache(cache_dir, "p100", self.N)
        k40c = json_cache(cache_dir, "k40c", self.N)
        # Files outside the <key[:2]>/<key>.json layout are not records.
        (cache_dir / "stray.json").write_text("{}")
        (cache_dir / "ab").mkdir(exist_ok=True)
        (cache_dir / "ab" / "notes.txt").write_text("not a record")

        report = migrate_json_cache(cache_dir, tmp_path / "store")
        assert report.scanned == len(p100) + len(k40c)
        assert report.migrated == report.scanned
        assert sorted(report.shards.values()) == sorted([len(p100), len(k40c)])
