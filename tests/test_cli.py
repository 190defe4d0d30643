"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.cli import build_parser, main
from repro.sweep.planner import SESSION_EXPERIMENTS


@pytest.fixture(scope="module")
def all_stdout() -> str:
    """Stdout of one in-memory ``repro all`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["all"]) == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.device == "p100"
        assert args.n == 10240
        assert args.products == 24


class TestEngineFlags:
    def test_sweep_engine_flag_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.store_dir is None

    def test_experiment_accepts_engine_flags(self):
        args = build_parser().parse_args(
            ["experiment", "fig7", "--store-dir", "/tmp/s"]
        )
        assert args.store_dir == "/tmp/s"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--n", "0"], "must be at least 1 (got 0)"),
            (["sweep", "--n", "-4"], "must be at least 1 (got -4)"),
            (["sweep", "--products", "0"], "must be at least 1 (got 0)"),
            (["tradeoff", "--n", "0"], "must be at least 1 (got 0)"),
            (["tradeoff", "--budget", "nan"], "finite, non-negative"),
            (["tradeoff", "--budget", "inf"], "finite, non-negative"),
            (["tradeoff", "--budget", "-3"], "finite, non-negative"),
            (["tradeoff", "--budget", "five"], "is not a number"),
        ],
    )
    def test_invalid_sizes_and_budgets_are_clean_errors(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert argv[1] in err
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "fig7", "--jobs", "2"],
            ["sweep", "--cache-dir", "/tmp/c"],
            ["sweep", "--no-cache"],
            ["bench", "--jobs", "2"],
        ],
    )
    def test_removed_engine_knobs_are_rejected(self, argv, capsys):
        """Pool/JSON-cache flags fail loudly instead of being ignored."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = next(a for a in argv if a.startswith("--"))
        assert "unrecognized arguments" in err and flag in err

    @pytest.mark.parametrize("command", ["experiment", "sweep", "all"])
    def test_backend_defaults_to_vectorized(self, command):
        argv = [command, "fig7"] if command == "experiment" else [command]
        assert build_parser().parse_args(argv).backend == "vectorized"

    def test_backend_accepts_vectorized(self):
        args = build_parser().parse_args(
            ["experiment", "fig8", "--backend", "vectorized"]
        )
        assert args.backend == "vectorized"

    def test_unknown_backend_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--backend", "cuda"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "invalid choice: 'cuda'" in capsys.readouterr().err

    def test_vectorized_sweep_output_matches_scalar(self, capsys):
        assert main(
            ["sweep", "--device", "p100", "--n", "4096",
             "--backend", "scalar"]
        ) == 0
        scalar = capsys.readouterr().out
        assert main(["sweep", "--device", "p100", "--n", "4096"]) == 0
        # Front membership and the printed (3-decimal) objectives agree.
        assert capsys.readouterr().out == scalar


class TestBenchCommand:
    def test_bench_quick_writes_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sweep.json"
        history = tmp_path / "history" / "bench_history.jsonl"
        assert main(
            ["bench", "--quick", "--sizes", "1024",
             "--output", str(out), "--history", str(history)]
        ) == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["version"] == "repro-bench/6"
        (case,) = doc["cases"]
        assert case["device"] == "p100" and case["n"] == 1024
        assert case["configs"] == 146
        assert case["max_rel_deviation"] <= 1e-9
        assert case["vectorized_s"] > 0 and case["scalar_s"] > 0
        assert "speedup_vectorized" in case
        assert set(case["samples"]) == {"scalar", "vectorized"}
        planner = doc["planner"]  # --quick keeps the planner case
        assert planner["unique_points"] > 0
        assert planner["dedup_ratio"] > 1.0
        assert planner["planner_warm_s"] > 0
        assert "parallel_crossover" not in doc
        incremental = doc["incremental_front"]
        assert incremental["equivalent"] is True
        assert incremental["front_size"] > 0
        assert "large" not in doc  # million-point case is opt-in
        assert doc["host"]["peak_rss_kb"] > 0
        # Bench v5: raw per-repeat samples + provenance for the
        # history store and the regression sentinel.
        assert case["samples"]["vectorized"]
        assert min(case["samples"]["vectorized"]) == case["vectorized_s"]
        assert planner["samples"]["warm"]
        # 40-hex sha, possibly "-dirty"; empty outside a checkout.
        assert len(doc["git_sha"]) == 0 or doc["git_sha"][:40].isalnum()
        assert len(doc["inputs_digest"]) == 64
        # ... and the run appended one history record.
        from repro.obs.history import load_history

        (record,) = load_history(history)
        assert record["format"] == "repro-bench-history/1"
        assert any(
            c["case"] == "planner/warm" for c in record["cases"]
        )
        assert "vectorized" in capsys.readouterr().out

    def test_sweep_with_store_dir_populates_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(
            ["sweep", "--device", "k40c", "--n", "2048",
             "--store-dir", str(store)]
        ) == 0
        # One v2 shard (block + sidecar), not 146 files.
        assert len(list(store.glob("*.npy"))) == 1
        assert len(list(store.glob("*.meta.json"))) == 1
        first = capsys.readouterr().out
        # Warm rerun: identical output from pure shard lookups.
        assert main(
            ["sweep", "--device", "k40c", "--n", "2048",
             "--store-dir", str(store)]
        ) == 0
        assert capsys.readouterr().out == first


class TestAllCommand:
    def test_all_runs_the_session_and_reports_dedup(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["all", "--store-dir", str(store)]) == 0
        out = capsys.readouterr().out
        for section in ("== fig2 ==", "== fig7 ==", "== fig8 ==",
                        "== headline ==", "== sensitivity ==",
                        "== budgeted-search =="):
            assert section in out
        assert "planner session:" in out
        assert "0 store hits" in out  # cold run
        assert len(list(store.glob("*.npy"))) > 0

        # Warm rerun: everything from the store, zero computed.
        assert main(["all", "--store-dir", str(store)]) == 0
        warm = capsys.readouterr().out
        assert "0 computed in 0 batches" in warm
        # Sections are identical between cold and warm runs.
        assert warm.split("planner session:")[0] == out.split(
            "planner session:"
        )[0]

    def test_all_without_store_runs_in_memory(self, all_stdout):
        assert "planner session:" in all_stdout

    @pytest.mark.parametrize("exp_id", SESSION_EXPERIMENTS)
    def test_experiment_output_equals_its_all_section(
        self, exp_id, all_stdout, capsys
    ):
        """One engine: a single experiment prints exactly what the
        session prints for it."""
        headers = [f"== {e} ==\n" for e in SESSION_EXPERIMENTS]
        start = all_stdout.index(f"== {exp_id} ==\n")
        body = all_stdout[start + len(f"== {exp_id} ==\n"):]
        ends = [body.index(h) for h in headers if h in body]
        ends.append(body.index("planner session:"))
        section = body[: min(ends)]
        assert main(["experiment", exp_id]) == 0
        assert capsys.readouterr().out + "\n" == section


class TestCacheMigrateCommand:
    def test_migrate_then_store_backed_rerun(
        self, tmp_path, capsys, json_cache
    ):
        cache = tmp_path / "cache"
        store = tmp_path / "store"
        json_cache(cache, "p100", 2048)
        assert main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--backend", "scalar"]
        ) == 0
        sweep_out = capsys.readouterr().out
        assert main(
            ["cache", "migrate", "--cache-dir", str(cache),
             "--store-dir", str(store)]
        ) == 0
        assert "146 migrated" in capsys.readouterr().out
        # The migrated store serves the same sweep verbatim.
        assert main(
            ["sweep", "--device", "p100", "--n", "2048",
             "--backend", "scalar", "--store-dir", str(store)]
        ) == 0
        assert capsys.readouterr().out == sweep_out
        # Source cache untouched.
        assert len(list(cache.glob("??/*.json"))) == 146


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "haswell" in out and "p100" in out and "k40c" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Nvidia K40c" in out

    def test_experiment_theory_alias_absent(self):
        with pytest.raises(SystemExit):
            main(["experiment", "theory"])

    def test_sweep_prints_front(self, capsys):
        assert main(["sweep", "--device", "k40c", "--n", "2048"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front:" in out
        assert "Trade-offs" in out

    def test_sweep_all_points(self, capsys):
        main(["sweep", "--device", "k40c", "--n", "2048", "--all-points"])
        out = capsys.readouterr().out
        # All-points table lists every configuration (146 for T=24).
        assert out.count("'bs'") > 140

    def test_tradeoff_budget(self, capsys):
        assert main(
            ["tradeoff", "--device", "p100", "--n", "4096", "--budget", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out and "energy saving" in out

    def test_tradeoff_negative_budget(self):
        with pytest.raises(SystemExit):
            main(["tradeoff", "--budget", "-3"])

    def test_experiment_fig7(self, capsys):
        assert main(["experiment", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "weak EP" in out
