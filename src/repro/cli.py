"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the library's experiment and analysis
entry points so a user can regenerate any paper artifact, or analyze a
custom workload, without writing code:

* ``experiment <id>`` — regenerate one paper artifact or extension
  study; the ids, their modules and entry points are the table
  :data:`repro.experiments.EXPERIMENTS`, and
  :func:`repro.experiments.run_experiment` imports only the module it
  runs;
* ``sweep`` — evaluate a GPU matmul configuration sweep and print the
  point cloud, the Pareto front, and the trade-off table;
* ``tradeoff`` — answer "how much energy can I save within an X%
  slowdown budget?" for a workload;
* ``all`` — run the whole sweep-driven figure set (the table's
  ``sweep=True`` rows) through one cross-experiment planner: every
  request is collected up front, deduplicated, partitioned against
  the columnar store, and the misses filled in vectorized
  mega-batches (see :mod:`repro.sweep.planner`);
* ``machines`` — list the platform registry;
* ``devices`` — manage the declarative device registry
  (:mod:`repro.devices`): ``list``/``show``/``validate`` the
  ``repro-device/1`` files, ``synth`` profiling samples from a
  registered device, and ``fit`` a calibration from (time, energy)
  samples;
* ``bench`` — time the scalar / vectorized sweep backends and the
  planner session path, and write ``BENCH_sweep.json``;
* ``cache migrate`` — import a JSON point cache written by earlier
  versions into a columnar store losslessly;
* ``trace`` — render a telemetry JSONL file (written by
  ``--telemetry jsonl:PATH``) as a span tree with self-time, metrics
  and the run-provenance manifest (see :mod:`repro.obs`);
* ``perf`` — the performance observatory (``docs/MODEL.md`` §6.6):
  ``perf report`` (per-span-name self/total profile + critical path
  of a telemetry stream), ``perf diff A B`` (self-time deltas between
  two streams), ``perf flamegraph`` (Brendan-Gregg folded stacks),
  and ``perf check`` (Mann-Whitney regression sentinel comparing a
  bench run's samples against the matched-host history baseline,
  nonzero exit on confirmed regressions);
* ``report`` — run everything and write a single markdown report.

Every sweep-driven command (``experiment``, ``sweep``, ``tradeoff``,
``all``) evaluates through one :class:`repro.sweep.EvalPlanner`.
``experiment``, ``sweep`` and ``all`` accept ``--backend``
(``vectorized``, the default, or the ``scalar`` reference) and
``--store-dir`` (the columnar shard store; see :mod:`repro.store`).
They, plus ``bench``, accept ``--telemetry off|summary|jsonl:PATH``
(:mod:`repro.obs`): ``off`` is the default and byte-identical to the
uninstrumented output.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro.analysis.report import format_pct, format_table

__all__ = ["main", "build_parser"]

def positive_int(text: str) -> int:
    """Argparse type for flags that must be >= 1 (``--n`` etc.).

    Validates at the parser boundary so ``--n 0`` or ``--products -4``
    is a clean usage error instead of a traceback from deep inside the
    model.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 (got {value})"
        )
    return value


def products_int(text: str) -> int:
    """Argparse type for ``--products``: a workload T that packs.

    T is the largest R of a sweep, and a packed point key holds R in
    one 21-bit field (:data:`repro.sweep.keys.FIELD_MAX`).
    """
    from repro.sweep.keys import FIELD_MAX

    value = positive_int(text)
    if value > FIELD_MAX:
        raise argparse.ArgumentTypeError(
            f"must be at most {FIELD_MAX} (got {value})"
        )
    return value


def budget_pct(text: str) -> float:
    """Argparse type for ``--budget``: a finite, non-negative percent."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite, non-negative percentage (got {text})"
        )
    return value


def _add_telemetry_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry", default="off",
        metavar="off|summary|jsonl:PATH|prom:PATH",
        help=(
            "telemetry sink: 'off' (default; output byte-identical to "
            "an uninstrumented run), 'summary' (append a span/metric "
            "digest), 'jsonl:PATH' (write the event stream for "
            "`repro trace` / `repro perf`), or 'prom:PATH' (write the "
            "metrics snapshot in Prometheus textfile format for a "
            "node-exporter textfile collector)"
        ),
    )


def _add_bench_flags(
    p: argparse.ArgumentParser, device_choices: Sequence[str]
) -> None:
    """The ``repro bench`` flags; ``None`` defaults resolve in
    :func:`repro.sweep.bench.run_from_args`, so the parser does not
    import the benchmark."""
    p.add_argument("--device", choices=device_choices, default="p100")
    p.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        metavar="N", help="matrix sizes to sweep (default: 10240 18432)",
    )
    p.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per backend; wall-clock is the minimum",
    )
    p.add_argument(
        "--no-planner", action="store_true",
        help="skip the planner session case",
    )
    p.add_argument(
        "--large", action="store_true",
        help=(
            "include the million-point synthetic shard case (mapped "
            "store build + subprocess peak-RSS gate)"
        ),
    )
    p.add_argument(
        "--quick", action="store_true",
        help="single repeat — the CI smoke settings (the planner case "
             "stays on)",
    )
    p.add_argument(
        "--output", default="BENCH_sweep.json", metavar="FILE",
        help="where to write the JSON document (default BENCH_sweep.json)",
    )
    p.add_argument(
        "--telemetry-output", default=None, metavar="FILE",
        help=(
            "where to write the planner session's telemetry event "
            "stream (`repro trace` / `repro perf` input; CI uploads "
            "it as an artifact; default: benchmarks/BENCH_telemetry."
            "jsonl when a benchmarks/ directory sits next to "
            "--output, else next to --output)"
        ),
    )
    p.add_argument(
        "--history", default=None, metavar="FILE",
        help=(
            "append this run (host fingerprint + raw wall samples) to "
            "a repro-bench-history/1 JSONL — the `repro perf check` "
            "baseline (default: benchmarks/history/bench_history.jsonl)"
        ),
    )
    p.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the bench history store",
    )


def build_parser() -> argparse.ArgumentParser:
    # Every --device flag derives its choices from the device registry
    # — the single source of truth — so subparsers cannot drift apart
    # and data-file devices ($REPRO_DEVICE_DIR) appear everywhere at
    # once.
    from repro.devices.registry import gpu_device_choices
    from repro.experiments import EXPERIMENTS
    from repro.sweep.keys import BACKENDS

    device_choices = gpu_device_choices()

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'On Energy Nonproportionality of "
            "CPUs and GPUs' (IPPS 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend", choices=BACKENDS, default="vectorized",
            help=(
                "sweep evaluation backend: 'vectorized' (default) "
                "evaluates all points in one NumPy batch (<=1e-9 "
                "relative deviation), 'scalar' is the per-point "
                "reference path"
            ),
        )
        p.add_argument(
            "--store-dir", default=None, metavar="DIR",
            help="columnar sweep store directory (default: no store)",
        )
        _add_telemetry_flag(p)

    exp = sub.add_parser(
        "experiment", help="regenerate one paper artifact"
    )
    exp.add_argument("id", choices=tuple(EXPERIMENTS))
    add_engine_flags(exp)

    sweep = sub.add_parser(
        "sweep", help="sweep a GPU matmul workload and print the front"
    )
    add_engine_flags(sweep)
    sweep.add_argument("--device", choices=device_choices, default="p100")
    sweep.add_argument(
        "--n", type=positive_int, default=10240, help="matrix size"
    )
    sweep.add_argument(
        "--products", type=products_int, default=24,
        help="total products T = G*R",
    )
    sweep.add_argument(
        "--all-points", action="store_true",
        help="print every configuration, not just the front",
    )
    sweep.add_argument(
        "--save", default=None, metavar="FILE",
        help="also write the sweep as JSON (repro-sweep/1 format)",
    )

    front = sub.add_parser(
        "front", help="analyze a sweep saved with `sweep --save`"
    )
    front.add_argument("file", help="JSON sweep document")

    trade = sub.add_parser(
        "tradeoff",
        help="best energy saving within a slowdown budget",
    )
    trade.add_argument("--device", choices=device_choices, default="p100")
    trade.add_argument("--n", type=positive_int, default=10240)
    trade.add_argument(
        "--budget", type=budget_pct, default=5.0,
        help="tolerated slowdown in percent",
    )

    run_all = sub.add_parser(
        "all",
        help=(
            "run the full sweep-driven figure set through one "
            "cross-experiment planner"
        ),
    )
    run_all.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "columnar store directory (default: $REPRO_STORE_DIR if "
            "set, else in-memory for this run only)"
        ),
    )
    run_all.add_argument(
        "--backend", choices=BACKENDS, default="vectorized",
        help=(
            "fill backend for store misses (default vectorized: one "
            "NumPy mega-batch per device/size group)"
        ),
    )
    _add_telemetry_flag(run_all)

    trace = sub.add_parser(
        "trace",
        help=(
            "render a telemetry JSONL file (--telemetry jsonl:PATH) as "
            "a span tree with self-time, metrics and provenance"
        ),
    )
    trace.add_argument("file", help="telemetry JSONL file to render")

    perf = sub.add_parser(
        "perf",
        help=(
            "performance observatory: span profiles, flamegraphs and "
            "the bench-history regression sentinel"
        ),
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_report = perf_sub.add_parser(
        "report",
        help=(
            "per-span-name self/total-time profile and call-tree "
            "critical path of one telemetry stream"
        ),
    )
    perf_report.add_argument("file", help="telemetry JSONL file")

    perf_diff = perf_sub.add_parser(
        "diff",
        help=(
            "per-span-name self-time deltas between two telemetry "
            "streams, sorted by the size of the shift"
        ),
    )
    perf_diff.add_argument("file_a", help="baseline telemetry JSONL")
    perf_diff.add_argument("file_b", help="comparison telemetry JSONL")

    perf_flame = perf_sub.add_parser(
        "flamegraph",
        help=(
            "export a telemetry stream as Brendan-Gregg folded stacks "
            "(`name;child;... self_ns`, flamegraph.pl input)"
        ),
    )
    perf_flame.add_argument("file", help="telemetry JSONL file")
    perf_flame.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the folded stacks here instead of stdout",
    )

    perf_check = perf_sub.add_parser(
        "check",
        help=(
            "compare a bench run's wall samples against the "
            "matched-host history baseline (Mann-Whitney U + median "
            "shift); exits nonzero on confirmed regressions"
        ),
    )
    perf_check.add_argument(
        "--bench", default="BENCH_sweep.json", metavar="FILE",
        help="bench document to check (default: BENCH_sweep.json)",
    )
    perf_check.add_argument(
        "--history", default=None, metavar="FILE",
        help=(
            "repro-bench-history/1 JSONL baseline "
            "(default: benchmarks/history/bench_history.jsonl)"
        ),
    )
    perf_check.add_argument(
        "--min-samples", type=positive_int, default=3, metavar="N",
        help=(
            "minimum pooled baseline samples per case before the "
            "sentinel will judge it (fewer: 'insufficient-history')"
        ),
    )
    perf_check.add_argument(
        "--alpha", type=float, default=0.05,
        help="Mann-Whitney significance level (default 0.05)",
    )
    perf_check.add_argument(
        "--min-shift", type=float, default=0.10, metavar="FRAC",
        help=(
            "minimum median shift to call a confirmed change "
            "(default 0.10 = 10%%)"
        ),
    )
    perf_check.add_argument(
        "--report-only", action="store_true",
        help="print verdicts but always exit 0 (PR-lane mode)",
    )

    sub.add_parser("machines", help="list the platform registry")

    devices = sub.add_parser(
        "devices",
        help="manage the declarative device registry (repro-device/1)",
    )
    dev_sub = devices.add_subparsers(dest="devices_command", required=True)

    dev_sub.add_parser(
        "list", help="list every registered device and its source"
    )

    dev_show = dev_sub.add_parser(
        "show", help="print one device's repro-device/1 document"
    )
    dev_show.add_argument("name", help="registry key or full spec name")

    dev_validate = dev_sub.add_parser(
        "validate",
        help=(
            "schema-check device files; --all also verifies the bundled "
            "K40c/P100/Haswell files reproduce the in-code constants "
            "bit-for-bit"
        ),
    )
    dev_validate.add_argument(
        "files", nargs="*", metavar="FILE",
        help="device files to validate (.json/.toml)",
    )
    dev_validate.add_argument(
        "--all", action="store_true",
        help=(
            "validate the whole registry (bundled + $REPRO_DEVICE_DIR) "
            "and the bundled-constants parity"
        ),
    )

    dev_synth = dev_sub.add_parser(
        "synth",
        help=(
            "synthesize pinned-clock (time, energy) profiling samples "
            "from a registered device (round-trip/demo input for `fit`)"
        ),
    )
    dev_synth.add_argument(
        "--device", required=True, choices=device_choices,
        help="registered GPU to sample",
    )
    dev_synth.add_argument(
        "--output", required=True, metavar="FILE",
        help="samples file to write (repro-fit-samples/1 JSON)",
    )
    dev_synth.add_argument(
        "--noise", type=float, default=0.0, metavar="SIGMA",
        help="relative 1-sigma energy jitter (default 0: noiseless)",
    )
    dev_synth.add_argument(
        "--seed", type=int, default=0, help="jitter RNG seed",
    )

    dev_fit = dev_sub.add_parser(
        "fit",
        help=(
            "fit power-model calibration constants from (time, energy) "
            "samples (least squares + cross-validated selection)"
        ),
    )
    dev_fit.add_argument(
        "--samples", required=True, metavar="FILE",
        help="repro-fit-samples/1 JSON file (profiled or `synth` output)",
    )
    dev_fit.add_argument(
        "--device", required=True, choices=device_choices,
        help="registered GPU the samples were taken on (spec source)",
    )
    dev_fit.add_argument(
        "--template", default=None, metavar="NAME",
        help=(
            "registered GPU providing the timing-side constants "
            "(default: --device)"
        ),
    )
    dev_fit.add_argument(
        "--key", default=None, metavar="SLUG",
        help=(
            "registry key for the fitted device document "
            "(default: <device>-fit)"
        ),
    )
    dev_fit.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the fitted device as a repro-device/1 JSON file",
    )
    dev_fit.add_argument(
        "--description", default="", help="description for the output file"
    )

    cache = sub.add_parser(
        "cache", help="manage the persistent sweep result stores"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    migrate = cache_sub.add_parser(
        "migrate",
        help=(
            "import a JSON point cache written by earlier versions "
            "into a columnar store"
        ),
    )
    migrate.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="source JSON cache directory (left untouched)",
    )
    migrate.add_argument(
        "--store-dir", required=True, metavar="DIR",
        help="destination columnar store directory",
    )

    bench = sub.add_parser(
        "bench",
        help="time scalar vs parallel vs vectorized sweep backends",
    )
    _add_bench_flags(bench, device_choices)
    _add_telemetry_flag(bench)

    report = sub.add_parser(
        "report", help="regenerate every artifact into one markdown report"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="output path (default REPORT.md)"
    )
    report.add_argument(
        "--extras", action="store_true",
        help="include the extension studies (slower)",
    )
    return parser


def _build_engine(args: argparse.Namespace):
    """The planner ``experiment`` and ``sweep`` evaluate through."""
    from repro.sweep.planner import EvalPlanner

    return EvalPlanner(store_dir=args.store_dir, backend=args.backend)


def _run_all(store_dir: str | None, backend: str) -> str:
    """Run every sweep-driven experiment through one planner session.

    All requests are collected and executed *before* any experiment
    runs, so each experiment's sweeps are pure store lookups; the
    planner stats at the end show the dedup the session bought.
    """
    import os

    from repro.experiments import SWEEP_EXPERIMENTS, run_experiment
    from repro.sweep.planner import EvalPlanner, collect_session_requests

    if store_dir is None:
        store_dir = os.environ.get("REPRO_STORE_DIR")
    planner = EvalPlanner(store_dir=store_dir, backend=backend)
    planner.add_all(collect_session_requests())
    planner.execute()

    out = []
    for exp_id in SWEEP_EXPERIMENTS:
        out.append(f"== {exp_id} ==")
        out.append(run_experiment(exp_id, engine=planner))
        out.append("")
    s = planner.stats
    out.append(
        f"planner session: {s.requested} points requested, "
        f"{s.unique_points} unique (dedup {s.dedup_ratio:.2f}x), "
        f"{s.store_hits} store hits, {s.computed} computed in "
        f"{s.batches} batches"
    )
    return "\n".join(out)


def _run_cache_migrate(cache_dir: str, store_dir: str) -> str:
    from repro.store import migrate_json_cache

    report = migrate_json_cache(cache_dir, store_dir)
    return report.render()


def _get_gpu(name: str):
    from repro.machines import get_machine

    return get_machine(name)


def _run_sweep(
    device: str, n: int, products: int, all_points: bool,
    save: str | None = None, engine=None,
) -> str:
    from repro.apps.matmul_gpu import MatmulGPUApp
    from repro.core import pareto_front, tradeoff_table

    app = MatmulGPUApp(_get_gpu(device), total_products=products)
    points = app.sweep_points(n, engine=engine)
    out = [f"{len(points)} configurations, N={n}, T={products}\n"]
    if save is not None:
        from repro.io import SweepDocument, save_sweep

        save_sweep(save, SweepDocument(device, n, tuple(points)))
        out.append(f"saved sweep to {save}\n")
    if all_points:
        rows = [
            (str(p.config), f"{p.time_s:.3f}", f"{p.energy_j:.0f}")
            for p in sorted(points, key=lambda p: p.time_s)
        ]
        out.append(format_table(["config", "time (s)", "energy (J)"], rows))
        out.append("")
    front = pareto_front(points)
    out.append("Pareto front:")
    out.append(
        format_table(
            ["config", "time (s)", "energy (J)"],
            [
                (str(p.config), f"{p.time_s:.3f}", f"{p.energy_j:.0f}")
                for p in front
            ],
        )
    )
    out.append("")
    out.append("Trade-offs vs the performance optimum:")
    out.append(
        format_table(
            ["config", "slowdown", "energy saving"],
            [
                (
                    str(e.point.config),
                    format_pct(e.perf_degradation),
                    format_pct(e.energy_saving),
                )
                for e in tradeoff_table(points)
            ],
        )
    )
    return "\n".join(out)


def _run_tradeoff(device: str, n: int, budget_pct: float) -> str:
    from repro.apps.matmul_gpu import MatmulGPUApp
    from repro.core import saving_at_degradation
    from repro.sweep.planner import EvalPlanner

    app = MatmulGPUApp(_get_gpu(device))
    points = app.sweep_points(n, engine=EvalPlanner())
    entry = saving_at_degradation(points, budget_pct / 100.0)
    return (
        f"Within a {budget_pct:.1f}% slowdown budget on {device} (N={n}):\n"
        f"  pick {entry.point.config}\n"
        f"  slowdown      {format_pct(entry.perf_degradation)}\n"
        f"  energy saving {format_pct(entry.energy_saving)}"
    )


def _run_front(path: str) -> str:
    import json
    from pathlib import Path

    from repro.core import pareto_front, tradeoff_table
    from repro.io import load_sweep

    target = Path(path)
    if not target.is_file():
        raise SystemExit(f"repro front: no such file: {target}")
    try:
        doc = load_sweep(target)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"repro front: {target}: not a JSON document ({exc})"
        ) from None
    except ValueError as exc:
        raise SystemExit(f"repro front: {target}: {exc}") from None
    front = pareto_front(doc.points)
    out = [
        f"{doc.device}, N={doc.workload}: {len(doc.points)} points, "
        f"front = {len(front)}",
        format_table(
            ["config", "time (s)", "energy (J)"],
            [
                (str(p.config), f"{p.time_s:.3f}", f"{p.energy_j:.0f}")
                for p in front
            ],
        ),
        "",
        "Trade-offs vs the performance optimum:",
        format_table(
            ["config", "slowdown", "energy saving"],
            [
                (
                    str(e.point.config),
                    format_pct(e.perf_degradation),
                    format_pct(e.energy_saving),
                )
                for e in tradeoff_table(list(doc.points))
            ],
        ),
    ]
    return "\n".join(out)


def _run_machines() -> str:
    from repro.devices.registry import default_registry
    from repro.machines.specs import GPUSpec

    rows = []
    for entry in default_registry().entries():
        key, spec = entry.key, entry.spec
        if isinstance(spec, GPUSpec):
            detail = (
                f"{spec.cuda_cores} CUDA cores, "
                f"{spec.peak_dp_flops / 1e12:.2f} TFLOP/s DP, "
                f"TDP {spec.tdp_w:.0f} W"
            )
        else:
            detail = (
                f"{spec.physical_cores} cores / {spec.logical_cpus} "
                f"threads, {spec.peak_dp_flops / 1e9:.0f} GFLOP/s DP"
            )
        rows.append((key, spec.name, detail))
    return format_table(["key", "name", "summary"], rows)


def _device_source_label(source: str) -> str:
    """Compact provenance label: bundled files print as 'bundled'."""
    from pathlib import Path

    from repro.devices.registry import bundled_dir

    try:
        if Path(source).resolve().parent == bundled_dir():
            return "bundled"
    except (OSError, ValueError):
        pass
    return source


def _run_devices_list() -> str:
    from repro.devices.registry import default_registry

    rows = [
        (
            entry.key,
            entry.kind,
            entry.spec.name,
            _device_source_label(entry.source),
        )
        for entry in default_registry().entries()
    ]
    return format_table(["key", "kind", "name", "source"], rows)


def _run_devices_show(name: str) -> str:
    import json

    from repro.devices.registry import default_registry
    from repro.devices.schema import device_to_document

    entry = default_registry().get(name)
    doc = device_to_document(
        entry.key, entry.spec, entry.calibration,
        description=entry.description,
    )
    # Provenance to stderr so `devices show X > new.json` emits a
    # valid document (the documented start-from-a-bundled-part flow).
    print(
        f"# source: {_device_source_label(entry.source)}", file=sys.stderr
    )
    return json.dumps(doc, indent=2)


def _run_devices_validate(files: list[str], validate_all: bool) -> int:
    from repro.devices.registry import (
        default_registry,
        refresh_default_registry,
        validate_bundled,
    )
    from repro.devices.schema import DeviceError, load_device_file

    if not files and not validate_all:
        raise SystemExit(
            "repro devices validate: give device FILEs and/or --all"
        )
    failures = 0
    for path in files:
        try:
            entry = load_device_file(path)
        except DeviceError as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
        else:
            print(f"ok   {path}: {entry.key} ({entry.kind}, {entry.spec.name})")
    if validate_all:
        # Re-read the directories: validate must see the files as they
        # are *now*, not as a previous command in this process cached
        # them.
        refresh_default_registry()
        try:
            registry = default_registry()
        except DeviceError as exc:
            print(f"FAIL registry: {exc}")
            failures += 1
        else:
            print(
                f"ok   registry: {len(registry)} device(s) "
                f"({', '.join(registry.keys())})"
            )
        for problem in validate_bundled():
            print(f"FAIL bundled parity: {problem}")
            failures += 1
        if failures == 0:
            print(
                "ok   bundled parity: k40c/p100/haswell reproduce the "
                "in-code constants bit-for-bit"
            )
    return 1 if failures else 0


def _run_devices_synth(
    device: str, output: str, noise: float, seed: int
) -> str:
    from repro.devices.fit import save_samples, synthesize_samples
    from repro.devices.registry import device_calibration, device_spec

    spec = device_spec(device)
    samples = synthesize_samples(
        spec, device_calibration(device), noise=noise, seed=seed,
    )
    save_samples(output, samples, device=device)
    return (
        f"wrote {len(samples)} pinned-clock samples for {spec.name} "
        f"to {output}"
        + (f" (noise sigma {noise:g}, seed {seed})" if noise > 0 else "")
    )


def _run_devices_fit(args: argparse.Namespace) -> str:
    from repro.devices.fit import fit_calibration, load_samples
    from repro.devices.registry import device_calibration, device_spec
    from repro.devices.schema import dump_device_json
    from repro.machines.specs import GPUSpec

    spec = device_spec(args.device)
    if not isinstance(spec, GPUSpec):
        raise SystemExit(
            f"repro: device {args.device!r} is not a GPU; the fitting "
            f"pipeline covers the GPU power model only"
        )
    template = device_calibration(args.template or args.device)
    samples = load_samples(args.samples)
    result = fit_calibration(spec, samples, template=template)
    out = [result.render(base=template)]
    if args.output is not None:
        key = args.key or f"{args.device}-fit"
        dump_device_json(
            args.output, key, spec, result.calibration,
            description=args.description
            or f"Fitted from {len(samples)} samples in {args.samples}.",
        )
        out.append(f"\nwrote {args.output} (key {key!r})")
    return "\n".join(out)


def _provenance_for(args: argparse.Namespace) -> dict:
    """Build the run-provenance manifest of one telemetry-carrying run."""
    from repro.obs.provenance import run_manifest

    backend = getattr(args, "backend", None)
    if args.command == "experiment":
        from repro.experiments import experiment_requests

        return run_manifest(
            f"experiment {args.id}",
            backend=backend,
            requests=experiment_requests(args.id),
        )
    if args.command == "sweep":
        from repro.sweep.plan import SweepRequest

        return run_manifest(
            "sweep",
            backend=backend,
            requests=(
                SweepRequest(
                    device=args.device,
                    n=args.n,
                    total_products=args.products,
                ),
            ),
            extra={"device": args.device, "n": args.n},
        )
    if args.command == "all":
        from repro.sweep.planner import collect_session_requests

        return run_manifest(
            "all", backend=backend, requests=collect_session_requests()
        )
    return run_manifest(args.command, backend=backend)


def _load_perf_run(path: str) -> list:
    """One telemetry run for the perf analytics, with CLI-grade errors.

    Multi-run streams analyze the *last* run (the most recent append)
    with a warning — profiling two merged runs as one would
    double-count every aggregate.
    """
    from pathlib import Path

    from repro.obs.ingest import TelemetryStreamError, load_stream

    target = Path(path)
    if not target.is_file():
        raise SystemExit(f"repro perf: no such file: {target}")
    try:
        stream = load_stream(target)
    except TelemetryStreamError as exc:
        raise SystemExit(f"repro perf: {exc}") from None
    for warning in stream.warnings:
        print(f"repro perf: warning: {warning}", file=sys.stderr)
    if len(stream.runs) > 1:
        print(
            f"repro perf: warning: {target} holds "
            f"{len(stream.runs)} concatenated runs; analyzing the last",
            file=sys.stderr,
        )
    return stream.runs[-1]


def _run_perf_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.history import DEFAULT_HISTORY_PATH, load_history
    from repro.obs.sentinel import check_bench

    bench_path = Path(args.bench)
    if not bench_path.is_file():
        raise SystemExit(
            f"repro perf check: no bench document at {bench_path} "
            f"(run `repro bench` first or pass --bench)"
        )
    try:
        doc = json.loads(bench_path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"repro perf check: {bench_path}: not a JSON document ({exc})"
        ) from None
    try:
        history = load_history(args.history or DEFAULT_HISTORY_PATH)
    except ValueError as exc:
        raise SystemExit(f"repro perf check: {exc}") from None
    report = check_bench(
        doc,
        history,
        alpha=args.alpha,
        min_shift=args.min_shift,
        min_samples=args.min_samples,
    )
    print(report.render())
    if report.exit_code and args.report_only:
        print(
            "report-only mode: regressions reported above, exit 0",
            file=sys.stderr,
        )
        return 0
    return report.exit_code


def _run_perf(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import perf as perf_mod

    if args.perf_command == "report":
        print(perf_mod.render_report(_load_perf_run(args.file)))
    elif args.perf_command == "diff":
        print(
            perf_mod.render_diff(
                _load_perf_run(args.file_a),
                _load_perf_run(args.file_b),
                label_a=args.file_a,
                label_b=args.file_b,
            )
        )
    elif args.perf_command == "flamegraph":
        folded = perf_mod.render_folded(_load_perf_run(args.file))
        if args.output is not None:
            Path(args.output).write_text(folded + "\n")
            print(f"wrote {args.output}")
        else:
            print(folded)
    elif args.perf_command == "check":
        return _run_perf_check(args)
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.perf_command)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "experiment":
        from repro.experiments import run_experiment

        print(run_experiment(args.id, engine=_build_engine(args)))
    elif args.command == "sweep":
        print(
            _run_sweep(
                args.device, args.n, args.products, args.all_points,
                save=args.save, engine=_build_engine(args),
            )
        )
    elif args.command == "front":
        print(_run_front(args.file))
    elif args.command == "tradeoff":
        print(_run_tradeoff(args.device, args.n, args.budget))
    elif args.command == "all":
        print(_run_all(args.store_dir, args.backend))
    elif args.command == "machines":
        print(_run_machines())
    elif args.command == "devices":
        if args.devices_command == "list":
            print(_run_devices_list())
        elif args.devices_command == "show":
            print(_run_devices_show(args.name))
        elif args.devices_command == "validate":
            return _run_devices_validate(args.files, args.all)
        elif args.devices_command == "synth":
            print(_run_devices_synth(args.device, args.output, args.noise, args.seed))
        elif args.devices_command == "fit":
            print(_run_devices_fit(args))
        else:  # pragma: no cover - argparse enforces choices
            raise AssertionError(args.devices_command)
    elif args.command == "cache":
        if args.cache_command == "migrate":
            print(_run_cache_migrate(args.cache_dir, args.store_dir))
        else:  # pragma: no cover - argparse enforces choices
            raise AssertionError(args.cache_command)
    elif args.command == "trace":
        from repro.obs.trace import main as trace_main

        print(trace_main(args.file))
    elif args.command == "perf":
        return _run_perf(args)
    elif args.command == "bench":
        from repro.sweep.bench import run_from_args

        return run_from_args(args)
    elif args.command == "report":
        from pathlib import Path

        from repro.analysis.summary import generate_report

        text = generate_report(include_extras=args.extras)
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.command)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import obs

    try:
        tel = obs.configure(getattr(args, "telemetry", None))
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    if tel.enabled:
        tel.set_manifest(_provenance_for(args))
    from repro.devices.schema import DeviceError

    try:
        with obs.span(f"cli.{args.command}"):
            code = _dispatch(args)
    except DeviceError as exc:
        # Schema violations and unknown-device lookups are usage
        # errors with actionable messages, not tracebacks.
        raise SystemExit(f"repro: {exc}")
    except BrokenPipeError:
        # `repro devices show X | head` and friends: the reader went
        # away; exit quietly like any well-behaved filter.
        sys.stderr.close()
        return 0
    summary = tel.flush()
    if summary is not None:
        print(summary)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
