"""The benchmark's workloads: seeded inputs, set-up, one operation, checks.

Every workload is a closed loop of one client: the next operation
starts when the previous one (and its correctness check) has finished.
An operation is timed alone; its check runs after the clock stops.
Inputs come only from the seed (:meth:`Workload.inputs`), so the same
seed replays the same operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.trace import operation

#: Matrix sizes the CLI commands draw from; each has a recorded
#: reference output in ``refs.json``.
CLI_SIZES = (4096, 8192, 10240, 12288, 15360, 18432)

#: The CLI command mix, one of each per cycle in a seeded order.
#: ``{n}`` is a seeded size, ``{store}`` the store warmed in set-up.
CLI_MIX = (
    ("--help",),
    ("devices", "list"),
    ("sweep", "--device", "k40c", "--n", "{n}"),
    ("sweep", "--device", "p100", "--n", "{n}"),
    ("tradeoff", "--device", "p100", "--n", "{n}"),
    ("experiment", "fig7"),
    ("experiment", "headline"),
    ("all",),
    ("all", "--store-dir", "{store}"),
)

#: Workloads T = G*R every design-space study sweeps per size.
STUDY_PRODUCTS = (24, 120, 360, 720)
#: Sizes per device in one study (~60k design points over two GPUs).
STUDY_SIZES = 46
#: Served points per study checked against the scalar oracle.
ORACLE_SAMPLES = 16
#: Relative bound of the batch model against the scalar path
#: (``repro.simgpu.batch`` parity contract).
ORACLE_RTOL = 1e-9

#: Store pre-fill: sizes per device, each at these workloads T.
PREFILL_SIZES = 112
PREFILL_PRODUCTS = (24, 120)
#: One resume session: stored (size, T) requests per device.
RESUME_REQUESTS = 32

#: Matrix sizes the in-process workloads draw from, per device.
SIZE_POOL = np.arange(1024, 30721, 4)


#: Time of :func:`reference_s` on the development host (2-CPU x86_64
#: VM, Python 3.11) when it ran fast.  The gated timings are scaled to
#: that host speed; see ``README.md``.
REF_NOMINAL_S = 0.006


def reference_s(after_s: float) -> float:
    """Median time of a fixed pure-Python loop: the host-speed probe.

    A shared host runs the same code up to twice as fast at one time as
    at another; this loop slows down with it.  ``after_s`` is the length
    of the timing just taken: a long one is one sample where a short
    workload has dozens, so it gets more loops (about 3% of its time).
    """
    times = []
    for _ in range(min(8, 1 + int(after_s / 0.25))):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


@dataclass
class OpResult:
    kind: str
    seconds: float
    points: int
    error: str | None = None


def kinds(results, attr: str = "seconds") -> dict[str, list[float]]:
    """One attribute of the operations (``seconds``, ``points``),
    grouped by operation kind."""
    out: dict[str, list[float]] = {}
    for r in results:
        out.setdefault(r.kind, []).append(getattr(r, attr))
    return out


def mix_median(samples: dict[str, list[float]]) -> float:
    """Median per operation kind, averaged over the kinds.

    A run stops part-way through a command cycle, so a plain median
    over a mixed run would depend on which commands the last cycle
    reached; the per-kind median does not.
    """
    return float(np.mean([np.median(v) for v in samples.values()]))


def mix_throughput(results: list[OpResult]) -> float:
    """Points per second of a mix holding one operation of each kind.

    Per-kind means, for the same reason as :func:`mix_median`: the
    kinds serve very different numbers of points.
    """
    points = kinds(results, "points")
    seconds = kinds(results)
    return float(sum(np.mean(v) for v in points.values())
                 / sum(np.mean(v) for v in seconds.values()))


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment of ``python -m repro`` children: no ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["COLUMNS"] = "80"
    env["TMPDIR"] = str(work)
    return env


def store_size(store: Path) -> dict[str, float]:
    files = [p for p in store.iterdir() if p.is_file()]
    return {
        "store.shards": float(sum(p.suffix == ".npy" for p in files)),
        "store.bytes_on_disk": float(sum(p.stat().st_size for p in files)),
    }


class SizePool:
    """Seeded stream of matrix sizes; every size is fresh until the
    pool is exhausted, then the pool is reshuffled."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.order = rng.permutation(SIZE_POOL)
        self.pos = 0

    def take(self, k: int) -> list[int]:
        if self.pos + k > len(self.order):
            self.order = self.rng.permutation(SIZE_POOL)
            self.pos = 0
        out = self.order[self.pos:self.pos + k]
        self.pos += k
        return [int(n) for n in out]


class Workload:
    name = ""
    why = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps = 5

    def __init__(self, root: Path, work: Path, seed: int, trace: bool = False) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.trace = trace

    def setup(self, rep: int) -> None:
        """One full set-up; the runner times several and keeps the last."""

    def inputs(self):
        """The seeded, endless stream of operation inputs."""
        raise NotImplementedError

    def run(self, inp, tracer=None) -> OpResult | list[OpResult]:
        """Run and check the operation(s) of one input."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics measured once per traced run."""
        return {}


# -- cli-cold ---------------------------------------------------------------

def load_refs() -> dict[str, dict]:
    return json.loads(Path(__file__).with_name("refs.json").read_text())


def ref_key(argv: tuple[str, ...]) -> str:
    return " ".join("STORE" if a.startswith(os.sep) else a for a in argv)


def cli_kind(argv: tuple[str, ...]) -> str:
    """The command without its seeded size: one entry of the mix."""
    return ref_key(tuple("N" if a.isdigit() else a for a in argv))


def cli_points(argv: tuple[str, ...]) -> int:
    """Design points a command requests (0 for non-sweep commands)."""
    from repro.sweep.plan import SweepRequest

    def total(requests) -> int:
        return sum(len(r.configs()) for r in requests)

    if argv[0] in ("sweep", "tradeoff"):
        return total([SweepRequest(argv[2], int(argv[4]))])
    if argv[0] == "experiment":
        from repro.experiments import fig7_k40c_pareto, headline

        module = {"fig7": fig7_k40c_pareto, "headline": headline}[argv[1]]
        return total(module.requests())
    if argv[0] == "all":
        from repro.sweep.planner import collect_session_requests

        return total(collect_session_requests())
    return 0


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time in seconds: total and per top-level package."""
    out = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "repro": 0.0}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line.strip())
        if not m:
            continue
        self_s = int(m.group(1)) / 1e6
        top = m.group(2).split(".")[0]
        out["total"] += self_s
        if top in out:
            out[top] += self_s
    return out


class CliCold(Workload):
    name = "cli-cold"
    why = "fresh python -m repro processes: imports, parser and registry dominate"

    #: Fresh-process probes per traced run for the import layer.
    IMPORT_PROBES = 3
    #: Each set-up is a fresh ~2 s process; three keep the run short.
    setup_reps = 3

    def __init__(self, root: Path, work: Path, seed: int, trace: bool = False) -> None:
        super().__init__(root, work, seed, trace)
        self.env = child_env(root, work)
        self.refs = load_refs()
        self.store = work / "store"
        self._points: dict[tuple[str, ...], int] = {}

    def setup(self, rep: int) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "all", "--store-dir", str(self.store)],
            cwd=self.work, env=self.env, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"store warm-up failed: {proc.stderr.decode()[-2000:]}")

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for i in rng.permutation(len(CLI_MIX)):
                n = str(int(rng.choice(CLI_SIZES)))
                yield tuple(
                    a.format(n=n, store=self.store) for a in CLI_MIX[i]
                )

    def _check(self, argv, code: int, stdout: str, stderr: str) -> str | None:
        ref = self.refs.get(ref_key(argv))
        if ref is None:
            return f"no reference output for {ref_key(argv)!r}"
        if code != 0:
            return f"exit code {code}"
        if stdout != ref["stdout"]:
            return "stdout differs from the reference"
        if stderr:
            return f"unexpected stderr: {stderr[:200]!r}"
        return None

    def run(self, argv, tracer=None) -> OpResult:
        if self.trace:
            return self._run_in_process(argv, tracer)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=120,
        )
        seconds = time.perf_counter() - t0
        error = self._check(argv, proc.returncode, proc.stdout, proc.stderr)
        return OpResult(cli_kind(argv), seconds, self.points(argv), error)

    def _run_in_process(self, argv, tracer) -> OpResult:
        """``main(argv)`` in this process, as the traced run replays it.

        Import and interpreter cost is measured separately
        (:meth:`layer_extras`), since modules load only once here.

        The registry cache is dropped first so every command loads it,
        as a fresh process does.
        """
        from repro import cli
        from repro.devices.registry import refresh_default_registry

        refresh_default_registry()
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with operation(tracer) as clock:
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        error = self._check(argv, code, out.getvalue(), err.getvalue())
        return OpResult(cli_kind(argv), clock.seconds, self.points(argv), error)

    def points(self, argv) -> int:
        if argv not in self._points:
            self._points[argv] = cli_points(argv)
        return self._points[argv]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def layer_extras(self) -> dict[str, float]:
        """Interpreter start and import cost, from fresh processes, and
        the size of the warmed store."""
        starts, imports = [], []
        for _ in range(self.IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.work,
                           env=self.env, check=True, timeout=60)
            starts.append(time.perf_counter() - t0)
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                check=True, timeout=60,
            )
            imports.append(parse_importtime(proc.stderr))
        out = {"interp.startup_s": float(np.median(starts))}
        for key in ("total", "scipy", "numpy"):
            out[f"import.{key}_s"] = float(np.median([i[key] for i in imports]))
        out["import.repro_self_s"] = float(np.median([i["repro"] for i in imports]))
        return {**out, **store_size(self.store)}


# -- in-process workloads -----------------------------------------------------

class InProcess(Workload):
    """Shared plumbing of the workloads that call the library directly."""

    def __init__(self, root: Path, work: Path, seed: int, trace: bool = False) -> None:
        super().__init__(root, work, seed, trace)
        from repro.devices.registry import gpu_device_choices

        self.devices = gpu_device_choices()

    def pools(self, rng: np.random.Generator) -> dict[str, SizePool]:
        return {d: SizePool(rng) for d in self.devices}

    @staticmethod
    def session(requests, planner) -> list[np.ndarray]:
        """Register, execute and serve ``requests`` through ``planner``."""
        configs = [r.configs() for r in requests]
        for request, cfgs in zip(requests, configs):
            planner.add(request, cfgs)
        planner.execute()
        return [planner.table(r, c) for r, c in zip(requests, configs)]

    @staticmethod
    def timed(fn, tracer):
        """Run ``fn`` as one operation.

        Returns ``(seconds, result, integrity warnings raised)``.
        """
        from repro.store.columnar import StoreIntegrityWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", StoreIntegrityWarning)
            with operation(tracer) as clock:
                result = fn()
        bad = sum(issubclass(w.category, StoreIntegrityWarning) for w in caught)
        if tracer:
            tracer.counts["store.integrity_warnings"] += bad
        return clock.seconds, result, bad


class Explore(InProcess):
    name = "explore"
    why = "in-process design-space studies on fresh sizes: enumeration, planner, batch model, fronts"
    #: Each set-up is a fresh ~2 s process; three keep the run short.
    setup_reps = 3

    def __init__(self, root: Path, work: Path, seed: int, trace: bool = False) -> None:
        super().__init__(root, work, seed, trace)
        self._oracles = {}

    def _study_input(self, rng, pools):
        from repro.sweep.plan import SweepRequest

        requests = [
            SweepRequest(device, n, t)
            for device in self.devices
            for n in pools[device].take(STUDY_SIZES)
            for t in STUDY_PRODUCTS
        ]
        picks = rng.integers(0, len(requests), ORACLE_SAMPLES)
        return requests, picks, rng.random(ORACLE_SAMPLES)

    def setup(self, rep: int) -> None:
        """A fresh process imports the library and runs one study on
        sizes of its own: what a study script pays before its first
        result, so work moved to import time or to a first call shows
        here."""
        env = child_env(self.root, self.work)
        env["PYTHONPATH"] = f"{self.root}{os.pathsep}{env['PYTHONPATH']}"
        subprocess.run(
            [sys.executable, "-c",
             f"from perfbench.workloads import Explore; Explore.warm_up({self.seed}, {rep})"],
            cwd=self.work, env=env, check=True, timeout=120,
        )

    @classmethod
    def warm_up(cls, seed: int, rep: int) -> None:
        workload = cls(Path(__file__).resolve().parent.parent, Path.cwd(), seed)
        rng = np.random.default_rng([seed, 1 + rep])
        requests, _, _ = workload._study_input(
            rng, {d: SizePool(rng) for d in workload.devices})
        workload._study(requests, None)

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        pools = self.pools(rng)
        while True:
            yield self._study_input(rng, pools)

    @staticmethod
    def _study(requests, tracer):
        """One design-space study: serve every sweep, then its front and
        the best energy saving within a 5% slowdown."""
        from repro.core import pareto, tradeoff
        from repro.sweep.planner import EvalPlanner

        tables = InProcess.session(requests, EvalPlanner())
        answers = []
        for table in tables:
            idx = pareto.front_indices(table["time_s"], table["energy_j"])
            with tracer.span("core.materialize", "core") if tracer else contextlib.nullcontext():
                rows = table[idx]
                front = [
                    pareto.ParetoPoint(t, e, {"bs": b, "g": g, "r": r})
                    for t, e, b, g, r in zip(
                        rows["time_s"].tolist(), rows["energy_j"].tolist(),
                        rows["bs"].tolist(), rows["g"].tolist(), rows["r"].tolist(),
                    )
                ]
            answers.append(tradeoff.saving_at_degradation(front, 0.05))
        return tables, answers

    def run(self, inp, tracer=None) -> OpResult:
        requests, picks, where = inp
        seconds, (tables, answers), _ = self.timed(
            lambda: self._study(requests, tracer), tracer
        )
        error = None
        for i, u in zip(picks, where):
            error = error or self._check_point(requests[i], tables[i], int(u * len(tables[i])))
        if error is None and len(answers) != len(requests):
            error = "missing trade-off answers"
        return OpResult("study", seconds, sum(len(t) for t in tables), error)

    def _check_point(self, request, table, row) -> str | None:
        from repro.simgpu.device import GPUDevice

        key = request.device
        if key not in self._oracles:
            self._oracles[key] = GPUDevice(request.spec, request.calibration)
        bs, g, r = (int(table[f][row]) for f in ("bs", "g", "r"))
        ref = self._oracles[key].run_matmul(request.n, bs, g, r)
        for got, want, what in ((table["time_s"][row], ref.time_s, "time"),
                                (table["energy_j"][row], ref.dynamic_energy_j, "energy")):
            if not abs(got - want) <= ORACLE_RTOL * abs(want):
                return (f"{request.device} N={request.n} ({bs},{g},{r}) {what} "
                        f"{got!r} != oracle {want!r}")
        return None


class StoreReuse(InProcess):
    """Rounds of two sessions on one store pre-filled in set-up: an
    extend session, then a resume session."""

    name = "store-reuse"
    why = "rounds of extend (new shards, read-merge-write appends) and resume (all hits) sessions on one persistent store"

    def __init__(self, root: Path, work: Path, seed: int, trace: bool = False) -> None:
        super().__init__(root, work, seed, trace)
        self.store_dir = work / "store"
        self._refs: dict[tuple, np.ndarray] = {}
        self.stored = self.sizes()[0]

    def sizes(self):
        """``(stored sizes, pools of fresh sizes, rng)`` from the seed."""
        rng = np.random.default_rng(self.seed)
        pools = self.pools(rng)
        return {d: pools[d].take(PREFILL_SIZES) for d in self.devices}, pools, rng

    def setup(self, rep: int) -> None:
        from repro.store.columnar import ColumnarStore
        from repro.sweep.plan import SweepRequest
        from repro.sweep.planner import EvalPlanner

        shutil.rmtree(self.store_dir, ignore_errors=True)
        requests = [SweepRequest(d, n, t) for d in self.devices
                    for n in self.stored[d] for t in PREFILL_PRODUCTS]
        self.session(requests, EvalPlanner(store=ColumnarStore(self.store_dir)))

    def inputs(self):
        """Per round: the extend requests (a new size on one device, and
        a new T on a stored size of every device), then the resume
        requests (stored sizes and T only)."""
        from repro.sweep.plan import SweepRequest

        _, pools, rng = self.sizes()
        for k in itertools.count():
            device = self.devices[k % len(self.devices)]
            new_t = 24 * (k + 6)  # never a pre-fill T, never repeated
            extend = [SweepRequest(device, pools[device].take(1)[0], t)
                      for t in PREFILL_PRODUCTS]
            extend += [SweepRequest(d, int(rng.choice(self.stored[d])), new_t)
                       for d in self.devices]
            resume = [SweepRequest(d, int(n), int(t)) for d in self.devices
                      for n, t in zip(rng.choice(self.stored[d], RESUME_REQUESTS, replace=False),
                                      rng.choice(PREFILL_PRODUCTS, RESUME_REQUESTS))]
            yield extend, resume

    def run(self, inp, tracer=None) -> list[OpResult]:
        extend, resume = inp
        return [self.session_op("extend", extend, tracer),
                self.session_op("resume", resume, tracer)]

    def session_op(self, kind: str, requests, tracer=None) -> OpResult:
        """One session of a fresh planner on the store, then its checks:
        an extend must compute every point, a resume none."""
        from repro.store.columnar import ColumnarStore
        from repro.sweep.planner import EvalPlanner

        def serve():
            planner = EvalPlanner(store=ColumnarStore(self.store_dir))
            return self.session(requests, planner), planner.stats

        seconds, (tables, stats), bad = self.timed(serve, tracer)
        error = f"{bad} store integrity warnings" if bad else None
        if error is None and kind == "extend" and stats.store_hits:
            error = f"{stats.store_hits} unexpected store hits on new points"
        if error is None and kind == "resume" and stats.computed:
            error = f"{stats.computed} stored points were recomputed"
        error = error or self.check(requests, tables)
        return OpResult(kind, seconds, sum(len(t) for t in tables), error)

    def check(self, requests, tables) -> str | None:
        """Served rows must be bit-equal to a store-less planner's."""
        from repro.sweep.planner import EvalPlanner

        keys = [(r.device, r.n, r.total_products) for r in requests]
        todo = [r for r, k in zip(requests, keys) if k not in self._refs]
        if todo:
            for r, table in zip(todo, self.session(todo, EvalPlanner())):
                self._refs[(r.device, r.n, r.total_products)] = table
        for key, table in zip(keys, tables):
            ref = self._refs[key]
            if not (np.array_equal(table[["bs", "g", "r"]], ref[["bs", "g", "r"]])
                    and np.array_equal(table["time_s"].view(np.int64), ref["time_s"].view(np.int64))
                    and np.array_equal(table["energy_j"].view(np.int64), ref["energy_j"].view(np.int64))):
                return f"served rows of {key} differ from a store-less planner"
        return None

    def layer_extras(self) -> dict[str, float]:
        return store_size(self.store_dir)


WORKLOADS = {w.name: w for w in (CliCold, Explore, StoreReuse)}
