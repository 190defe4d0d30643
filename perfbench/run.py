"""The repository's benchmark of record.

Run from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that wraps the layer functions
(:mod:`perfbench.trace`) and reports the per-layer metrics, their self
times and the tracing overhead.  Every operation is checked; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space and span files, inside the checkout.
OUT_DIR = ROOT / ".perfbench"
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def host_info(work: Path) -> dict[str, str]:
    """The host every number is read against."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fstype, best = "unknown", ""
    try:
        for line in Path("/proc/self/mounts").read_text().splitlines():
            _, mount, kind = line.split()[:3]
            if str(work).startswith(mount) and len(mount) > len(best):
                fstype, best = kind, mount
    except OSError:
        pass
    return {
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "work_fs": fstype,
    }


def percentile_row(values: list[float]) -> str:
    """Median and the highest decile percentile with >= 10 samples beyond."""
    import numpy as np

    n = len(values)
    text = f"p50 {np.median(values):.4f}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            text += f"  p{p} {np.percentile(values, p):.4f}"
            break
    return text + f"  (n={n})"


def measure(workload, seconds: float, tracer, probes: list[float]) -> tuple[list, float]:
    """The closed loop: operations back to back until ``seconds`` pass.

    One input may make several operations (a store-reuse round).  With
    a tracer, odd inputs are traced and even ones are not, so
    the two halves give the tracing overhead.  Each operation is
    followed by the host-speed probe, whose times land in ``probes``.
    """
    from perfbench.workloads import OpResult, reference_s

    results = []
    start = time.perf_counter()
    for i, inp in enumerate(workload.inputs()):
        if time.perf_counter() - start >= seconds and len(results) >= 2:
            break
        traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            done = workload.run(inp, tracer if traced else None)
        except Exception as exc:  # a crashed operation is a failed one
            done = OpResult("crashed", time.perf_counter() - t0, 0, repr(exc))
        done = done if isinstance(done, list) else [done]
        probes.append(reference_s(sum(r.seconds for r in done)))
        results.extend((traced, r) for r in done)
    return results, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    from perfbench.trace import LAYERS, PER_LAYER, Tracer, layer_metrics
    from perfbench.workloads import (
        REF_NOMINAL_S, WORKLOADS, kinds, mix_median, mix_throughput, reference_s,
    )

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, bool(args.trace))
        setups, setup_probes, probes = [], [], []
        for rep in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup(rep)
            setups.append(time.perf_counter() - t0)
            setup_probes.append(reference_s(setups[-1]))
        tracer = Tracer() if args.trace else None
        results, wall = measure(workload, args.seconds, tracer, probes)
        extras = workload.layer_extras() if args.trace else {}
        host = host_info(work)
        rss = workload.peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy as np

    failed = [r for _, r in results if r.error]
    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host: " + "  ".join(f"{k}={v}" for k, v in host.items()))
    # Scaled time = wall time * scale, per phase: the host's speed can
    # change between set-up and the measured loop.
    scale = REF_NOMINAL_S / float(np.median(probes))
    setup_scale = REF_NOMINAL_S / float(np.median(setup_probes))
    print(f"host-speed probe: median {np.median(probes):.5f} s after {len(probes)} "
          f"inputs (range {min(probes):.5f}-{max(probes):.5f} s), "
          f"{np.median(setup_probes):.5f} s over set-up; nominal {REF_NOMINAL_S} s")
    print(f"operations: {len(results)} attempted, {len(failed)} failed, "
          f"error_rate {len(failed) / len(results):.4f}, loop {wall:.2f} s")
    for r in failed[:10]:
        print(f"  FAILED {r.kind}: {r.error}")

    print("wall seconds per operation:")
    for kind, values in sorted(kinds(r for _, r in results).items()):
        print(f"  {kind:<28} {percentile_row(values)}")
    print("setup runs (s): " + ", ".join(f"{t:.4f}" for t in setups))

    if not args.trace:
        metrics = {
            "setup_s": float(np.median(setups)) * setup_scale,
            "op_s_p50": mix_median(kinds(r for _, r in results)) * scale,
            "points_per_s": mix_throughput([r for _, r in results]) / scale,
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    else:
        traced = [r for t, r in results if t]
        plain = [r for t, r in results if not t]
        measured = layer_metrics(tracer, len(traced))
        measured["store.integrity_warnings"] = tracer.counts["store.integrity_warnings"]
        measured.update(extras)
        measured["trace_overhead_frac"] = mix_median(kinds(traced)) / mix_median(kinds(plain)) - 1.0
        measured["traced_ops"] = float(len(traced))
        metrics = {name: measured.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.layer, s.start, s.end]) + "\n")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print("self time per traced operation:")
        for layer in LAYERS:
            print(f"  {layer:<12} {metrics[f'{layer}.self_s']:.6f} s")

    print(f"{'metric':<28} {'value':>16}  unit")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6g}  {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
