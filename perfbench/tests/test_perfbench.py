"""Tests of the benchmark itself: inputs, names, checkers and spans.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, trace, workloads  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    CliCold,
    Explore,
    StoreReuse,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def first_inputs(name: str, seed: int, work: Path, k: int = 3) -> str:
    """The first ``k`` inputs of a workload, as comparable text."""
    workload = WORKLOADS[name](ROOT, work, seed)
    out = []
    for inp in itertools.islice(workload.inputs(), k):
        if name == "explore":
            requests, picks, where = inp
            inp = (requests, picks.tolist(), where.tolist())
        out.append(repr(inp))
    return "\n".join(out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    assert first_inputs(name, 7, tmp_path) == first_inputs(name, 7, tmp_path)
    assert first_inputs(name, 7, tmp_path) != first_inputs(name, 8, tmp_path)


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(trace.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in e2e + layer + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)


def test_wrong_stdout_fails_the_cli_check(tmp_path):
    workload = CliCold(ROOT, tmp_path, 1, trace=True)
    argv = ("devices", "list")
    assert workload.run(argv).error is None
    workload.refs["devices list"]["stdout"] += " "
    assert "stdout differs" in workload.run(argv).error


def test_wrong_served_value_fails_the_oracle_check(tmp_path, monkeypatch):
    workload = Explore(ROOT, tmp_path, 1)
    study = next(workload.inputs())
    assert workload.run(study).error is None

    from repro.simgpu import batch

    real = batch.batch_run_matmul

    def skewed(*args):
        out = real(*args)
        out.time_s[:] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(batch, "batch_run_matmul", skewed)
    assert "oracle" in workload.run(next(workload.inputs())).error


def test_wrong_stored_value_fails_the_store_check(tmp_path):
    from repro.store.columnar import ColumnarStore, shard_key

    workload = StoreReuse(ROOT, tmp_path, 1)
    workload.setup(0)
    extend, resume = next(workload.inputs())
    assert [r.error for r in workload.run((extend, resume))] == [None, None]

    # Nudge one stored time by a relative 1e-12: still finite and
    # positive, so only a comparison against recomputed values sees it.
    first = resume[0]
    key = shard_key(first.spec, first.calibration, first.n, backend="vectorized")
    path = ColumnarStore(workload.store_dir).shard_path(key)
    block = np.load(path)
    block[4] = (block[4].view(np.float64) * (1.0 + 1e-12)).view(np.int64)
    np.save(path, block)
    assert "differ" in workload.session_op("resume", resume).error


def test_self_times_sum_to_root_wall():
    tracer = trace.Tracer()
    with tracer.span("client.op", "client"):
        with tracer.span("planner.add", "planner"):
            with tracer.span("apps.init", "apps"):
                sum(range(10000))
            with tracer.span("planner.add", "planner"):
                sum(range(10000))
        with tracer.span("core.front_indices", "core"):
            sum(range(10000))
    total = sum(trace.self_times(tracer.spans).values())
    assert total == pytest.approx(trace.root_time(tracer.spans), rel=1e-9)
    # The nested planner.add is counted once in its inclusive time.
    outer = tracer.spans[1]
    assert trace.inclusive_time(tracer.spans, ("planner.add",)) == outer.end - outer.start


def test_traced_study_self_times_sum_to_root_wall(tmp_path):
    workload = Explore(ROOT, tmp_path, 3, trace=True)
    tracer = trace.Tracer()
    result = workload.run(next(workload.inputs()), tracer)
    assert result.error is None
    metrics = trace.layer_metrics(tracer, 1)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in trace.LAYERS)
    assert self_sum == pytest.approx(trace.root_time(tracer.spans), rel=1e-9)
    assert metrics["batch.points"] == metrics["planner.computed"] > 0
    # Wrappers are removed after the traced operation.
    from repro.sweep.planner import EvalPlanner

    assert not hasattr(EvalPlanner.add, "__wrapped__")


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:      2000 |       2100 | numpy\n"
        "import time:       300 |        300 |     scipy.linalg\n"
        "import time:        50 |         50 | repro.cli\n"
    )
    got = workloads.parse_importtime(stderr)
    assert got == pytest.approx(
        {"total": 0.00245, "numpy": 0.0021, "scipy": 0.0003, "repro": 0.00005}
    )


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "store-reuse",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
