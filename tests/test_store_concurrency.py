"""Multi-process stress test of the columnar store.

Four writer processes each append 40 single rows to one shard, in a
seeded order, while two reader processes look the whole key set up in
a loop through fresh store handles.  Every served value must be the
value written for its key, no process may see a
:class:`~repro.store.columnar.StoreIntegrityWarning`, and all 160 rows
must be in the shard at the end.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import warnings

import numpy as np

from repro.machines.specs import P100
from repro.simgpu.calibration import P100_CAL
from repro.store import ColumnarStore, pack_config, shard_key
from repro.store.columnar import StoreIntegrityWarning

WRITERS = 4
ROWS = 40
READERS = 2
SEED = 20221
TIMEOUT_S = 120.0


def _key():
    return shard_key(P100, P100_CAL, 4096)


def _config(writer: int, row: int) -> tuple[int, int, int]:
    return writer + 1, 1, row + 1


def _all_packed() -> np.ndarray:
    return np.array(
        [pack_config(*_config(w, i)) for w in range(WRITERS) for i in range(ROWS)],
        dtype=np.int64,
    )


def _values(packed):
    """The one true ``(time_s, energy_j)`` of each packed key."""
    packed = np.asarray(packed, dtype=np.float64)
    return packed * 1e-9 + 1.0, packed * 3e-9 + 2.0


def _integrity_warnings(caught) -> int:
    return sum(issubclass(w.category, StoreIntegrityWarning) for w in caught)


def _writer(root, writer, barrier, results) -> None:
    key = _key()
    order = np.random.default_rng(SEED + writer).permutation(ROWS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        store = ColumnarStore(root)
        barrier.wait(TIMEOUT_S)
        for row in order:
            bs, g, r = _config(writer, int(row))
            t, e = _values([pack_config(bs, g, r)])
            store.append(key, [bs], [g], [r], t, e)
    results.put(("writer", 0, 0, _integrity_warnings(caught)))


def _reader(root, barrier, stop, results) -> None:
    key = _key()
    packed = _all_packed()
    t_ref, e_ref = _values(packed)
    wrong = lookups = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        barrier.wait(TIMEOUT_S)
        while not stop.is_set() or lookups == 0:
            times, energies, hit = ColumnarStore(root).lookup(key, packed)
            wrong += int(((times != t_ref) | (energies != e_ref))[hit].sum())
            lookups += 1
    results.put(("reader", wrong, lookups, _integrity_warnings(caught)))


def test_concurrent_writers_and_readers(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(WRITERS + READERS)
    stop = ctx.Event()
    results = ctx.Queue()
    writers = [
        ctx.Process(target=_writer, args=(tmp_path, w, barrier, results))
        for w in range(WRITERS)
    ]
    readers = [
        ctx.Process(target=_reader, args=(tmp_path, barrier, stop, results))
        for _ in range(READERS)
    ]
    for proc in writers + readers:
        proc.start()
    reports = []
    try:
        while len(reports) < WRITERS:
            reports.append(results.get(timeout=TIMEOUT_S))
        stop.set()
        while len(reports) < WRITERS + READERS:
            reports.append(results.get(timeout=TIMEOUT_S))
    except queue_mod.Empty:
        pass
    finally:
        stop.set()
        for proc in writers + readers:
            proc.join(TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
    assert len(reports) == WRITERS + READERS, "a worker did not report"
    assert all(proc.exitcode == 0 for proc in writers + readers)

    reader_reports = [rep for rep in reports if rep[0] == "reader"]
    assert all(lookups > 0 for _, _, lookups, _ in reader_reports)
    assert [wrong for _, wrong, _, _ in reader_reports] == [0] * READERS
    assert [warned for *_, warned in reports] == [0] * (WRITERS + READERS)

    packed = _all_packed()
    with warnings.catch_warnings():
        warnings.simplefilter("error", StoreIntegrityWarning)
        times, energies, hit = ColumnarStore(tmp_path).lookup(_key(), packed)
    assert int(hit.sum()) == WRITERS * ROWS
    t_ref, e_ref = _values(packed)
    np.testing.assert_array_equal(times, t_ref)
    np.testing.assert_array_equal(energies, e_ref)
