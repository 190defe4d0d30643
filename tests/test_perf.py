"""Tests for the performance observatory (``repro perf``).

Covers the four pillars of ``docs/MODEL.md`` §6.6: tolerant telemetry
ingestion (:mod:`repro.obs.ingest`), span-profile analytics
(:mod:`repro.obs.perf`), the append-only bench history store
(:mod:`repro.obs.history`) and the Mann-Whitney regression sentinel
(:mod:`repro.obs.sentinel`), plus the OpenMetrics exporter and the
``repro perf`` CLI family end to end.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs import trace
from repro.obs.history import (
    HISTORY_FORMAT,
    append_record,
    case_samples,
    fingerprints_match,
    history_record,
    host_fingerprint,
    load_history,
)
from repro.obs.ingest import (
    TelemetryStreamError,
    load_runs,
    load_single_run,
    load_stream,
)
from repro.obs.openmetrics import (
    escape_label_value,
    metric_name,
    render_openmetrics,
)
from repro.obs.perf import (
    critical_path,
    folded_stacks,
    parse_folded,
    render_diff,
    render_folded,
    render_report,
    span_profile,
)
from repro.obs.sentinel import check_bench, mann_whitney_u


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Each test gets a fresh registry; none leaks into the next."""
    prev = obs.get_telemetry()
    obs.set_telemetry(obs.Telemetry("off"))
    yield
    obs.set_telemetry(prev)


def _span(id, name, dur, parent=None, depth=0):
    return {
        "event": "span",
        "id": id,
        "parent": parent,
        "name": name,
        "depth": depth,
        "start_ns": 0,
        "duration_ns": dur,
        "attrs": {},
    }


#: root(100) -> a(60) -> leaf(20); root -> b(10).  Self times:
#: root 30, a 40, leaf 20, b 10; they sum to the root wall (100).
TREE = [
    _span(1, "root", 100),
    _span(2, "a", 60, parent=1, depth=1),
    _span(3, "leaf", 20, parent=2, depth=2),
    _span(4, "b", 10, parent=1, depth=1),
]


class TestSpanProfile:
    def test_aggregates_self_and_total(self):
        profiles = {p.name: p for p in span_profile(TREE)}
        assert profiles["root"].self_ns == 30
        assert profiles["a"].self_ns == 40
        assert profiles["leaf"].self_ns == 20
        assert profiles["b"].self_ns == 10
        assert profiles["a"].total_ns == 60
        assert profiles["root"].count == 1

    def test_self_times_sum_to_root_wall(self):
        assert sum(p.self_ns for p in span_profile(TREE)) == 100

    def test_sorted_by_self_time_then_name(self):
        names = [p.name for p in span_profile(TREE)]
        assert names == ["a", "root", "leaf", "b"]

    def test_repeated_names_merge(self):
        events = TREE + [_span(5, "b", 7, parent=1, depth=1)]
        b = next(p for p in span_profile(events) if p.name == "b")
        assert b.count == 2 and b.total_ns == 17 and b.self_ns == 17

    def test_self_time_clamped_nonnegative(self):
        # Children overlapping (threads) can sum past the parent wall.
        events = [
            _span(1, "root", 10),
            _span(2, "w1", 8, parent=1),
            _span(3, "w2", 8, parent=1),
        ]
        root = next(p for p in span_profile(events) if p.name == "root")
        assert root.self_ns == 0
        assert all(p.self_ns >= 0 for p in span_profile(events))

    def test_zero_duration_spans_are_kept(self):
        events = TREE + [_span(5, "noop", 0, parent=1, depth=1)]
        noop = next(p for p in span_profile(events) if p.name == "noop")
        assert noop.count == 1 and noop.self_ns == 0
        # ... and the root-wall invariant still holds.
        assert sum(p.self_ns for p in span_profile(events)) == 100

    def test_orphan_spans_become_roots(self):
        orphan = _span(9, "lost", 50, parent=777)  # 777 never appears
        events = TREE + [orphan]
        profiles = {p.name: p for p in span_profile(events)}
        assert profiles["lost"].self_ns == 50  # not dropped
        assert sum(p.self_ns for p in profiles.values()) == 150

    def test_deterministic_across_identical_runs(self):
        import random

        shuffled = list(TREE)
        random.Random(7).shuffle(shuffled)
        assert span_profile(shuffled) == span_profile(TREE)
        assert render_report(shuffled) == render_report(TREE)


class TestCriticalPath:
    def test_follows_longest_child(self):
        path = [hop["name"] for hop in critical_path(TREE)]
        assert path == ["root", "a", "leaf"]

    def test_picks_longest_root(self):
        events = TREE + [_span(5, "other_root", 400)]
        assert critical_path(events)[0]["name"] == "other_root"

    def test_ties_break_on_id(self):
        events = [_span(1, "first", 10), _span(2, "second", 10)]
        assert critical_path(events)[0]["name"] == "first"

    def test_empty_stream(self):
        assert critical_path([]) == []


class TestFoldedStacks:
    def test_stacks_are_root_first(self):
        stacks = folded_stacks(TREE)
        assert stacks == {
            "root": 30,
            "root;a": 40,
            "root;a;leaf": 20,
            "root;b": 10,
        }

    def test_values_sum_to_root_wall(self):
        assert sum(folded_stacks(TREE).values()) == 100

    def test_separator_and_space_escaping(self):
        events = [_span(1, "load config; then run", 5)]
        (stack,) = folded_stacks(events)
        assert stack == "load_config:_then_run"

    def test_round_trips_through_parser(self):
        assert parse_folded(render_folded(TREE)) == folded_stacks(TREE)

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1: not a folded stack"):
            parse_folded("no trailing integer\n")

    def test_parser_merges_duplicate_stacks(self):
        assert parse_folded("a;b 3\na;b 4\n") == {"a;b": 7}


class TestRenderReport:
    def test_profile_table_and_critical_path(self):
        out = render_report(TREE)
        assert "span profile (4 spans, 4 names, 0.00 ms root wall)" in out
        assert "(sum of self)" in out
        assert "critical path" in out

    def test_diff_flags_asymmetric_names(self):
        out = render_diff(TREE, TREE[:2] + [_span(9, "new", 5)])
        assert "(only in A)" in out and "(only in B)" in out
        assert "total self:" in out


class TestIngest:
    def _write(self, tmp_path, lines):
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _header(self):
        return json.dumps({"event": "header", "format": "repro-telemetry/1"})

    def test_truncated_final_line_is_dropped_with_warning(self, tmp_path):
        path = self._write(
            tmp_path,
            [self._header(), json.dumps(_span(1, "x", 5)), '{"event": "sp'],
        )
        stream = load_stream(path)
        assert len(stream.events) == 2
        assert any("truncated final line" in w for w in stream.warnings)

    def test_empty_file_is_a_clear_error(self, tmp_path):
        path = self._write(tmp_path, [""])
        with pytest.raises(TelemetryStreamError, match="empty telemetry"):
            load_stream(path)

    def test_garbage_mid_file_names_the_line(self, tmp_path):
        path = self._write(
            tmp_path, [self._header(), "not json", self._header()]
        )
        with pytest.raises(TelemetryStreamError, match=r":2: not a JSON"):
            load_stream(path)

    def test_non_event_object_is_rejected(self, tmp_path):
        path = self._write(tmp_path, ['{"foo": 1}'])
        with pytest.raises(
            TelemetryStreamError, match="not a telemetry event"
        ):
            load_stream(path)

    def test_concatenated_runs_split_at_headers(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                json.dumps(_span(1, "x", 5)),
                self._header(),
                json.dumps(_span(1, "y", 6)),
            ],
        )
        runs = load_runs(path)
        assert len(runs) == 2
        assert runs[0][1]["name"] == "x" and runs[1][1]["name"] == "y"
        with pytest.raises(TelemetryStreamError, match="2 concatenated"):
            load_single_run(path)

    def test_headerless_prefix_warns(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(_span(1, "x", 5))])
        stream = load_stream(path)
        assert any("does not start with a header" in w
                   for w in stream.warnings)

    def test_trace_renders_multi_run_streams(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [
                self._header(),
                json.dumps(_span(1, "x", 5)),
                self._header(),
                json.dumps(_span(1, "y", 6)),
            ],
        )
        out = trace.main(path)
        assert "== run 1/2 ==" in out and "== run 2/2 ==" in out


class TestHistoryStore:
    DOC = {
        "version": "repro-bench/6",
        "git_sha": "deadbeef",
        "inputs_digest": "ab" * 32,
        "repeats": 3,
        "host": {"peak_rss_kb": 12345},
        "cases": [
            {
                "device": "p100",
                "n": 1024,
                "samples": {
                    "scalar": [0.03, 0.031],
                    "vectorized": [0.001, 0.0011],
                },
            }
        ],
        "planner": {"samples": {"warm": [0.002, 0.0021]}},
    }

    def test_case_samples_keys_are_stable(self):
        samples = case_samples(self.DOC)
        assert set(samples) == {
            "p100/N1024/scalar",
            "p100/N1024/vectorized",
            "planner/warm",
        }

    def test_pre_v5_documents_yield_nothing(self):
        doc = {"cases": [{"device": "p100", "n": 1024}], "planner": {}}
        assert case_samples(doc) == {}

    def test_record_carries_fingerprint_and_provenance(self):
        record = history_record(self.DOC)
        assert record["format"] == HISTORY_FORMAT
        assert record["git_sha"] == "deadbeef"
        assert record["inputs_digest"] == "ab" * 32
        assert record["host"]["peak_rss_kb"] == 12345
        for key in ("cpu_model", "cpus", "machine", "python", "numpy"):
            assert key in record["host"]
        assert [c["case"] for c in record["cases"]] == sorted(
            c["case"] for c in record["cases"]
        )

    def test_append_then_load_round_trips(self, tmp_path):
        path = tmp_path / "hist" / "bench_history.jsonl"
        record = history_record(self.DOC)
        append_record(path, record)
        append_record(path, record)
        assert load_history(path) == [record, record]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(path, history_record(self.DOC))
        with path.open("a") as fh:
            fh.write('{"format": "repro-bench-hist')  # killed mid-append
        assert len(load_history(path)) == 1

    def test_garbage_mid_file_is_an_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("garbage\n")
        append_record(path, history_record(self.DOC))
        with pytest.raises(ValueError, match=r":1: not a history record"):
            load_history(path)

    def test_foreign_format_is_an_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({"format": "other/1"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-bench-history/1"):
            load_history(path)

    def test_fingerprint_matching_rules(self):
        fp = host_fingerprint()
        assert fingerprints_match(fp, dict(fp))
        other = dict(fp, cpus=fp["cpus"] + 1)
        assert not fingerprints_match(fp, other)
        # Patch-level python differences are comparable ...
        patched = dict(fp, python="3.11.99")
        mine = dict(fp, python="3.11.2")
        assert fingerprints_match(mine, patched)
        # ... minor-level ones are not.
        assert not fingerprints_match(
            dict(fp, python="3.11.2"), dict(fp, python="3.12.2")
        )


class TestMannWhitney:
    def test_separated_samples_are_significant(self):
        a = [1.0, 1.1, 1.2, 1.3, 1.4]
        b = [2.0, 2.1, 2.2, 2.3, 2.4]
        u, p = mann_whitney_u(a, b)
        assert u == 0
        assert p == pytest.approx(2 / 252)  # 2 / C(10, 5), exact

    def test_identical_samples_are_not(self):
        a = [1.0, 2.0, 3.0, 4.0]
        _, p = mann_whitney_u(a, a)  # all tied -> normal approximation
        assert p > 0.5

    def test_symmetry(self):
        a, b = [1.0, 3.0, 5.0], [2.0, 4.0, 6.0]
        assert mann_whitney_u(a, b) == mann_whitney_u(b, a)

    def test_interleaved_samples_are_neutral(self):
        a, b = [1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]
        _, p = mann_whitney_u(a, b)
        assert p > 0.5

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            mann_whitney_u([], [1.0])

    def test_large_samples_use_normal_approximation(self):
        a = [float(i) for i in range(30)]
        b = [float(i) + 25.0 for i in range(30)]
        _, p = mann_whitney_u(a, b)  # n*m = 900 > 400
        assert p < 0.001


def _doc(samples, **extra):
    """A minimal bench v6 document with one vectorized case."""
    doc = {
        "version": "repro-bench/6",
        "git_sha": "cafe" * 10,
        "inputs_digest": "00" * 32,
        "repeats": len(samples),
        "host": {"peak_rss_kb": 1000},
        "cases": [
            {
                "device": "p100",
                "n": 1024,
                "samples": {"vectorized": list(samples)},
            }
        ],
    }
    doc.update(extra)
    return doc


#: Three baseline runs around 10 ms, jittered so no two samples tie.
BASELINES = [
    [0.0100, 0.0102, 0.0104, 0.0101, 0.0103],
    [0.0099, 0.0105, 0.0098, 0.0106, 0.0097],
    [0.0107, 0.0096, 0.0108, 0.0095, 0.0109],
]


class TestSentinel:
    def _history(self, fp):
        return [
            history_record(_doc(samples), fingerprint=fp)
            for samples in BASELINES
        ]

    def test_2x_slowdown_is_a_regression(self):
        fp = host_fingerprint()
        current = _doc([0.0200, 0.0204, 0.0208, 0.0202, 0.0206])
        report = check_bench(current, self._history(fp), fingerprint=fp)
        (verdict,) = report.verdicts
        assert verdict.outcome == "regression"
        assert verdict.case == "p100/N1024/vectorized"
        assert verdict.shift == pytest.approx(1.0, abs=0.1)  # ~2x
        assert verdict.p_value < 0.05
        assert report.exit_code == 1
        rendered = report.render()
        assert "regression" in rendered
        assert "p100/N1024/vectorized" in rendered

    def test_unmodified_rerun_is_neutral(self):
        fp = host_fingerprint()
        current = _doc([0.0101, 0.0103, 0.0099, 0.0104, 0.0102])
        report = check_bench(current, self._history(fp), fingerprint=fp)
        (verdict,) = report.verdicts
        assert verdict.outcome == "neutral"
        assert report.exit_code == 0

    def test_2x_speedup_is_an_improvement(self):
        fp = host_fingerprint()
        current = _doc([0.0050, 0.0052, 0.0048, 0.0051, 0.0049])
        report = check_bench(current, self._history(fp), fingerprint=fp)
        assert report.verdicts[0].outcome == "improvement"
        assert report.exit_code == 0  # getting faster never fails a build

    def test_significant_but_tiny_shift_is_neutral(self):
        # Clearly separated distributions (p tiny) but only ~5% apart:
        # the effect-size bar keeps the sentinel quiet.
        fp = host_fingerprint()
        current = _doc([0.01050, 0.01052, 0.01054, 0.01051, 0.01053])
        baselines = [
            [0.01000, 0.01002, 0.01004, 0.01001, 0.01003],
            [0.00999, 0.01005, 0.00998, 0.01006, 0.00997],
            [0.01007, 0.00996, 0.01008, 0.00995, 0.01009],
        ]
        history = [
            history_record(_doc(s), fingerprint=fp) for s in baselines
        ]
        report = check_bench(current, history, fingerprint=fp)
        (verdict,) = report.verdicts
        assert verdict.p_value < 0.05
        assert verdict.outcome == "neutral"

    def test_no_history_outcome(self):
        report = check_bench(_doc([0.01]), [])
        assert report.verdicts[0].outcome == "no-history"
        assert report.exit_code == 0

    def test_host_mismatch_refuses_to_compare(self):
        fp = host_fingerprint()
        alien = dict(fp, cpu_model="Imaginary-9000")
        current = _doc([0.0200, 0.0204, 0.0208])  # 2x, but incomparable
        report = check_bench(current, self._history(alien), fingerprint=fp)
        assert report.verdicts[0].outcome == "host-mismatch"
        assert report.exit_code == 0
        assert "none of it was recorded on a matching host" in (
            report.render()
        )

    def test_insufficient_history_below_min_samples(self):
        fp = host_fingerprint()
        history = [history_record(_doc([0.0100]), fingerprint=fp)]
        report = check_bench(_doc([0.02]), history, fingerprint=fp)
        assert report.verdicts[0].outcome == "insufficient-history"
        assert report.exit_code == 0

    def test_self_only_history_is_thin_not_incomparable(self):
        # The very first bench run appends its own record and then
        # checks: same host, but zero independent baseline — that is
        # insufficient-history, not host-mismatch.
        fp = host_fingerprint()
        current = _doc([0.0100, 0.0102, 0.0104])
        history = [history_record(current, fingerprint=fp)]
        report = check_bench(current, history, fingerprint=fp)
        assert report.matched_runs == 0
        assert report.verdicts[0].outcome == "insufficient-history"
        assert "matching host" not in report.render()

    def test_own_record_is_excluded_from_the_baseline(self):
        # `repro bench` appends its record before `perf check` runs;
        # the sentinel must not compare the run against itself.
        fp = host_fingerprint()
        current = _doc([0.0200, 0.0204, 0.0208, 0.0202, 0.0206])
        history = self._history(fp) + [
            history_record(current, fingerprint=fp)
        ]
        report = check_bench(current, history, fingerprint=fp)
        assert report.matched_runs == 3  # 4 records, self excluded
        assert report.verdicts[0].outcome == "regression"


class TestOpenMetrics:
    def test_metric_name_sanitization(self):
        assert metric_name("store.shard.hits") == "repro_store_shard_hits"
        assert metric_name("9weird name") == "repro__9weird_name"

    def test_label_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_counters_gauges_histograms(self):
        snapshot = {
            "counters": {"store.hits": 3},
            "gauges": {"pool.bytes": 2.5},
            "histograms": {
                "span.ms": {"count": 2, "total": 7.0, "min": 3.0,
                            "max": 4.0},
            },
        }
        out = render_openmetrics(
            snapshot, manifest={"command": "sweep", "git_sha": "abc"}
        )
        assert '# TYPE repro_store_hits_total counter' in out
        assert "repro_store_hits_total 3" in out
        assert "# TYPE repro_pool_bytes gauge" in out
        assert "repro_pool_bytes 2.5" in out
        assert "# TYPE repro_span_ms summary" in out
        assert "repro_span_ms_count 2" in out
        assert "repro_span_ms_sum 7" in out
        assert "repro_span_ms_min 3" in out
        assert 'repro_run_info{command="sweep",git_sha="abc"} 1' in out
        assert out.endswith("\n")

    def test_cli_prom_sink_writes_textfile(self, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--telemetry", f"prom:{path}"]
        ) == 0
        text = path.read_text()
        assert "# TYPE repro_run_info gauge" in text
        assert 'command="sweep"' in text
        assert "repro_planner_points_requested_total" in text


class TestPerfCli:
    def _telemetry(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--telemetry", f"jsonl:{path}"]
        ) == 0
        return path

    def test_report_self_times_sum_to_root_wall(self, tmp_path, capsys):
        path = self._telemetry(tmp_path)
        capsys.readouterr()
        assert main(["perf", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span profile" in out
        assert "critical path" in out
        # The invariant, checked on the real stream, not the render:
        events = load_single_run(path)
        roots = [e for e in events if e.get("event") == "span"
                 and e.get("parent") is None]
        root_wall = sum(s["duration_ns"] for s in roots)
        self_sum = sum(p.self_ns for p in span_profile(events))
        assert self_sum == root_wall

    def test_flamegraph_round_trips(self, tmp_path, capsys):
        path = self._telemetry(tmp_path)
        out_file = tmp_path / "flame.folded"
        capsys.readouterr()
        assert main(
            ["perf", "flamegraph", str(path), "--output", str(out_file)]
        ) == 0
        stacks = parse_folded(out_file.read_text())
        assert stacks  # non-empty, every line parsed
        assert all(stack.startswith("cli.sweep") for stack in stacks)
        events = load_single_run(path)
        assert stacks == folded_stacks(events)

    def test_diff_of_two_runs(self, tmp_path, capsys):
        path_a = self._telemetry(tmp_path)
        path_b = tmp_path / "b.jsonl"
        assert main(
            ["sweep", "--device", "k40c", "--n", "4096",
             "--telemetry", f"jsonl:{path_b}"]
        ) == 0
        capsys.readouterr()
        assert main(["perf", "diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "span-profile diff" in out
        assert "total self:" in out

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main(["perf", "report", str(tmp_path / "gone.jsonl")])

    def test_check_flags_injected_slowdown(self, tmp_path, capsys):
        fp = host_fingerprint()
        hist = tmp_path / "hist.jsonl"
        for samples in BASELINES:
            append_record(
                hist, history_record(_doc(samples), fingerprint=fp)
            )
        bench = tmp_path / "BENCH_sweep.json"
        bench.write_text(
            json.dumps(_doc([0.0200, 0.0204, 0.0208, 0.0202, 0.0206]))
        )
        code = main(
            ["perf", "check", "--bench", str(bench),
             "--history", str(hist)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "regression" in out
        assert "p100/N1024/vectorized" in out

    def test_check_report_only_reports_but_passes(self, tmp_path, capsys):
        fp = host_fingerprint()
        hist = tmp_path / "hist.jsonl"
        for samples in BASELINES:
            append_record(
                hist, history_record(_doc(samples), fingerprint=fp)
            )
        bench = tmp_path / "BENCH_sweep.json"
        bench.write_text(
            json.dumps(_doc([0.0200, 0.0204, 0.0208, 0.0202, 0.0206]))
        )
        code = main(
            ["perf", "check", "--bench", str(bench),
             "--history", str(hist), "--report-only"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "regression" in captured.out
        assert "report-only" in captured.err

    def test_check_neutral_rerun_exits_zero(self, tmp_path, capsys):
        fp = host_fingerprint()
        hist = tmp_path / "hist.jsonl"
        for samples in BASELINES:
            append_record(
                hist, history_record(_doc(samples), fingerprint=fp)
            )
        bench = tmp_path / "BENCH_sweep.json"
        bench.write_text(
            json.dumps(_doc([0.0101, 0.0103, 0.0099, 0.0104, 0.0102]))
        )
        code = main(
            ["perf", "check", "--bench", str(bench),
             "--history", str(hist)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "neutral" in out

    def test_check_missing_bench_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no bench document"):
            main(
                ["perf", "check",
                 "--bench", str(tmp_path / "nope.json"),
                 "--history", str(tmp_path / "hist.jsonl")]
            )
