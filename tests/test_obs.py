"""Tests for :mod:`repro.obs` — the telemetry subsystem.

Span nesting and id determinism, the off-mode no-op fast path (with a
measured overhead bound against a vectorized sweep), metrics registry
semantics, JSONL round-trip through ``repro trace``, run-provenance
digests, span-tree determinism across warm vs. cold planner sessions,
the store-integrity warning + counter surface, and the CLI boundary
(``--telemetry`` parsing, ``repro trace``, byte-identical off output).
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

from repro import obs
from repro.cli import main
from repro.machines.specs import K40C, P100
from repro.obs import provenance, trace
from repro.obs.telemetry import _NOOP_SPAN
from repro.simgpu.calibration import K40C_CAL, P100_CAL
from repro.store import ColumnarStore, pack_configs, shard_key
from repro.store.columnar import StoreIntegrityWarning
from repro.sweep import EvalPlanner, SweepRequest


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Every test gets a fresh off-mode global registry."""
    prev = obs.get_telemetry()
    obs.set_telemetry(obs.Telemetry("off"))
    yield
    obs.set_telemetry(prev)


class TestSpans:
    def test_nesting_assigns_sequential_ids_and_parents(self):
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        with obs.span("outer", device="p100"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        assert tel.structure() == [
            (1, None, "outer", (("device", "p100"),)),
            (2, 1, "inner", ()),
            (3, 1, "inner", ()),
        ]
        by_id = {s.span_id: s for s in tel.spans}
        assert by_id[1].depth == 0
        assert by_id[2].depth == 1
        assert all(s.duration_ns >= 0 for s in tel.spans)

    def test_span_set_attaches_mid_span_attrs(self):
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        with obs.span("work") as sp:
            sp.set(points=7)
        assert tel.spans[0].attrs == {"points": 7}

    def test_off_mode_records_nothing(self):
        tel = obs.get_telemetry()  # fixture installed the off registry
        assert obs.span("x", a=1) is _NOOP_SPAN
        with obs.span("x"):
            obs.count("c")
            obs.gauge("g", 1.0)
            obs.observe("h", 2.0)
        assert tel.spans == []
        assert tel.counters == {}
        assert tel.gauges == {}
        assert tel.histograms == {}

    def test_noop_span_is_reentrant_and_shared(self):
        a = obs.span("x")
        with a:
            with obs.span("y") as b:
                assert a is b  # one shared singleton, no allocation


class TestMetrics:
    def test_counters_accumulate(self):
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        obs.count("hits")
        obs.count("hits", 4)
        assert tel.counters == {"hits": 5}

    def test_gauges_are_last_write_wins(self):
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        obs.gauge("ratio", 1.5)
        obs.gauge("ratio", 2.5)
        assert tel.gauges == {"ratio": 2.5}

    def test_histograms_summarize(self):
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        for v in (1.0, 3.0, 2.0):
            obs.observe("wall", v)
        hist = tel.histograms["wall"]
        assert (hist.count, hist.total, hist.min, hist.max) == (3, 6.0, 1.0, 3.0)
        assert hist.mean == 2.0

    def test_snapshot_sorts_names(self):
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        obs.count("z")
        obs.count("a")
        assert list(tel.snapshot()["counters"]) == ["a", "z"]


class TestConfigure:
    def test_none_and_off_disable(self):
        assert obs.configure(None).enabled is False
        assert obs.configure("off").enabled is False

    def test_summary_and_jsonl(self, tmp_path):
        assert obs.configure("summary").mode == "summary"
        tel = obs.configure(f"jsonl:{tmp_path / 'run.jsonl'}")
        assert tel.mode == "jsonl"
        assert tel.path == tmp_path / "run.jsonl"

    def test_jsonl_without_path_rejected(self):
        with pytest.raises(ValueError, match="needs a path"):
            obs.configure("jsonl:")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry spec"):
            obs.configure("csv")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry mode"):
            obs.Telemetry("verbose")


class TestJsonlAndTrace:
    def _sample(self, tmp_path):
        tel = obs.set_telemetry(
            obs.Telemetry("jsonl", tmp_path / "run.jsonl")
        )
        tel.set_manifest(
            provenance.run_manifest("test", backend="vectorized")
        )
        with obs.span("outer", device="p100"):
            with obs.span("inner", points=3):
                obs.count("store.shard.hits", 2)
        return tel.flush() or tel.path

    def test_stream_has_header_provenance_spans_metrics(self, tmp_path):
        self._sample(tmp_path)
        events = trace.load_events(tmp_path / "run.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds == ["header", "provenance", "span", "span", "metrics"]
        assert events[0]["format"] == obs.TELEMETRY_FORMAT
        assert events[1]["format"] == provenance.MANIFEST_FORMAT

    def test_render_covers_tree_metrics_and_provenance(self, tmp_path):
        self._sample(tmp_path)
        out = trace.main(tmp_path / "run.jsonl")
        assert "provenance:" in out
        assert "model_version" in out
        assert "span tree (2 spans" in out
        assert "outer  [device=p100]" in out
        assert "    inner  [points=3]" in out  # nested one level deeper
        assert "store.shard.hits" in out

    def test_self_time_subtracts_direct_children(self, tmp_path):
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        with obs.span("parent"):
            with obs.span("child"):
                time.sleep(0.002)
        out = trace.render_trace(tel.events())
        rows = [
            line.split() for line in out.splitlines() if "ms" not in line
        ]
        parent, child = rows[0], rows[1]
        assert float(parent[1]) <= float(parent[0])  # self <= wall
        assert float(child[0]) > float(parent[1])  # child dominates

    def test_load_rejects_garbage_and_empty(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not a JSON event line"):
            trace.load_events(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty telemetry stream"):
            trace.load_events(empty)

    def test_main_reports_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            trace.main(tmp_path / "nope.jsonl")


class TestProvenance:
    def test_manifest_core_fields(self):
        m = provenance.run_manifest("sweep", backend="scalar")
        assert m["format"] == provenance.MANIFEST_FORMAT
        assert m["command"] == "sweep"
        assert m["backend"] == "scalar"
        from repro.sweep.keys import MODEL_VERSION

        assert m["model_version"] == MODEL_VERSION

    def test_requests_digest_is_deterministic_and_order_sensitive(self):
        a = SweepRequest(device="p100", n=4096)
        b = SweepRequest(device="k40c", n=4096)
        d1 = provenance.requests_digest([a, b])
        assert provenance.requests_digest([a, b]) == d1
        assert provenance.requests_digest([b, a]) != d1

    def test_calibration_digest_tracks_constants(self):
        import dataclasses

        base = provenance.calibration_digest(P100, P100_CAL)
        assert provenance.calibration_digest(P100, P100_CAL) == base
        nudged = dataclasses.replace(
            P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.01
        )
        assert provenance.calibration_digest(P100, nudged) != base

    def test_manifest_names_each_devices_calibration(self):
        reqs = [
            SweepRequest(device="p100", n=2048),
            SweepRequest(device="k40c", n=2048),
        ]
        m = provenance.run_manifest("all", requests=reqs)
        assert set(m["calibrations"]) == {P100.name, K40C.name}
        assert m["requests"] == 2
        assert m["calibrations"][P100.name] == provenance.calibration_digest(
            P100, P100_CAL
        )


def _planner_session(store_dir, reqs):
    """One instrumented planner session; returns (structure, counters)."""
    tel = obs.set_telemetry(obs.Telemetry("summary"))
    planner = EvalPlanner(store_dir=store_dir)
    planner.add_all(reqs)
    planner.execute()
    for req in reqs:
        planner.evaluate_configs(req, req.configs())
    return tel.structure(), dict(tel.counters)


class TestSpanTreeDeterminism:
    """Equal work ⇒ equal span skeleton + counters, cold and warm."""

    def _requests(self):
        return [
            SweepRequest(device="p100", n=2048),
            SweepRequest(device="p100", n=4096),
            SweepRequest(device="k40c", n=2048),
        ]

    def test_cold_sessions_are_structurally_identical(self, tmp_path):
        s1, c1 = _planner_session(tmp_path / "a", self._requests())
        s2, c2 = _planner_session(tmp_path / "b", self._requests())
        assert s1 == s2
        assert c1 == c2
        assert c1["planner.points.computed"] > 0

    def test_warm_sessions_are_structurally_identical(self, tmp_path):
        _planner_session(tmp_path / "s", self._requests())  # fill
        w1, c1 = _planner_session(tmp_path / "s", self._requests())
        w2, c2 = _planner_session(tmp_path / "s", self._requests())
        assert w1 == w2
        assert c1 == c2
        # Warm sessions are store-served: no mega-batch fills at all.
        assert c1.get("planner.points.computed", 0) == 0
        assert not any(name == "planner.fill_misses" for _, _, name, _ in w1)
        assert c1["planner.store_hits"] > 0

    def test_warm_differs_from_cold_only_in_fill_spans(self, tmp_path):
        cold, _ = _planner_session(tmp_path / "s", self._requests())
        warm, _ = _planner_session(tmp_path / "s", self._requests())
        names = lambda struct: [name for _, _, name, _ in struct]  # noqa: E731
        kept = [
            n for n in names(cold)
            if n not in (
                "planner.fill_misses", "batch.run_matmul", "store.append"
            )
        ]
        assert names(warm) == kept


class TestOffPathOverhead:
    def test_off_path_adds_under_two_percent_to_a_vectorized_sweep(self):
        """Bound the no-op instrumentation cost against real sweep work.

        The instrumented sweep path executes a small constant number of
        helper calls per *batch* (spans + counters), never per point.
        Measure the per-call cost of the off fast path directly and
        compare a generous 100-call budget against the measured wall
        time of one vectorized sweep — the overhead must stay < 2%.
        """
        assert obs.get_telemetry().enabled is False
        req = SweepRequest(device="p100", n=4096)
        configs = req.configs()
        sweep_s = min(
            _timed(lambda: EvalPlanner().evaluate_configs(req, configs))
            for _ in range(5)
        )

        def helper_pairs(calls=2000):
            t0 = time.perf_counter()
            for _ in range(calls):
                with obs.span("x", device="p100", points=146):
                    pass
                obs.count("c", 146)
            return (time.perf_counter() - t0) / calls

        per_pair_s = min(helper_pairs() for _ in range(5))

        budget = 20  # actual instrumented path: ~a dozen sites per batch
        assert budget * per_pair_s < 0.02 * sweep_s, (
            f"off-path span+counter pair costs {per_pair_s * 1e9:.0f} ns; "
            f"{budget} sites would add "
            f"{budget * per_pair_s / sweep_s:.2%} to a "
            f"{sweep_s * 1e3:.2f} ms vectorized sweep"
        )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestStoreIntegritySurface:
    def _filled_store(self, tmp_path):
        key = shard_key(P100, P100_CAL, 4096, backend="scalar")
        store = ColumnarStore(tmp_path)
        store.append(key, [4, 8], [2, 2], [12, 12], [1.0, 2.0], [10.0, 20.0])
        return key, store

    def test_corrupt_shard_warns_and_counts(self, tmp_path):
        key, store = self._filled_store(tmp_path)
        store.shard_path(key).write_bytes(b"not a zip archive")
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        fresh = ColumnarStore(tmp_path)
        packed, *_ = pack_configs(
            [type("C", (), {"bs": 4, "g": 2, "r": 12})()]
        )
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            _, _, hit = fresh.lookup(key, packed)
        assert not hit.any()
        assert tel.counters["store.shard.corrupt"] == 1
        assert tel.counters["store.shard.recompute_fallbacks"] == 1

    def test_stale_shard_warns_and_counts(self, tmp_path):
        key, store = self._filled_store(tmp_path)
        other = shard_key(P100, P100_CAL, 8192, backend="scalar")
        shutil.copy(store.shard_path(key), store.shard_path(other))
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        fresh = ColumnarStore(tmp_path)
        packed, *_ = pack_configs(
            [type("C", (), {"bs": 4, "g": 2, "r": 12})()]
        )
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            fresh.lookup(other, packed)
        assert tel.counters["store.shard.stale"] == 1
        assert tel.counters["store.shard.recompute_fallbacks"] == 1

    def test_sound_lookup_counts_hits_without_warning(self, tmp_path):
        key, _ = self._filled_store(tmp_path)
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        fresh = ColumnarStore(tmp_path)
        packed, *_ = pack_configs(
            [type("C", (), {"bs": 4, "g": 2, "r": 12})()]
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreIntegrityWarning)
            _, _, hit = fresh.lookup(key, packed)
        assert hit.all()
        assert tel.counters["store.shard.hits"] == 1
        assert "store.shard.recompute_fallbacks" not in tel.counters


class TestCliTelemetry:
    def test_summary_mode_appends_digest(self, capsys):
        assert main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--telemetry", "summary"]
        ) == 0
        out = capsys.readouterr().out
        assert "-- telemetry summary --" in out
        assert "cli.sweep" in out
        assert "planner.points.requested" in out

    def test_off_is_byte_identical_to_default(self, capsys):
        assert main(["sweep", "--device", "p100", "--n", "2048"]) == 0
        default = capsys.readouterr().out
        assert main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--telemetry", "off"]
        ) == 0
        assert capsys.readouterr().out == default
        assert "telemetry" not in default

    def test_jsonl_then_trace_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            ["sweep", "--device", "k40c", "--n", "2048",
             "--backend", "vectorized", "--telemetry", f"jsonl:{path}"]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "cli.sweep" in out
        assert "batch.run_matmul" in out
        assert "provenance:" in out

    def test_jsonl_provenance_names_the_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--telemetry", f"jsonl:{path}"]
        )
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        prov = next(e for e in events if e["event"] == "provenance")
        assert prov["command"] == "sweep"
        assert prov["device"] == "p100"
        assert prov["requests"] == 1
        assert len(prov["inputs_digest"]) == 64

    def test_bad_spec_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown telemetry spec"):
            main(["sweep", "--telemetry", "xml"])

    def test_trace_on_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main(["trace", str(tmp_path / "gone.jsonl")])
