"""Telemetry core: hierarchical spans and a process-wide metrics registry.

The subsystem is zero-dependency (stdlib only) and built around one
invariant: **when telemetry is off, the instrumented hot paths pay
(almost) nothing**.  Every instrumentation site goes through the
module-level helpers (:func:`span`, :func:`count`, :func:`gauge`,
:func:`observe`), which check one boolean and return a shared no-op
object on the fast path — no allocation, no locking, no string
formatting (``tests/test_obs.py`` bounds the off-path cost at < 2% of
a vectorized sweep).

Design
------
* **Spans** are context managers with monotonic ``perf_counter_ns``
  timings, parent/child nesting via an explicit stack, and arbitrary
  attributes (device, N, backend, point counts).  Span ids are
  sequential integers assigned at *entry*, so the tree structure —
  ids, parents, names, attributes — is deterministic run-to-run;
  only the timestamps vary.
* **Metrics** live in a flat, process-wide registry under a stable,
  documented namespace (``docs/MODEL.md`` §6): counters (monotonic
  ints), gauges (last-write floats) and histograms
  (count/total/min/max summaries — enough for rates and spread
  without unbounded storage).
* **Sinks**: ``off`` (the default — nothing is recorded),
  ``summary`` (human-readable digest appended to stdout at command
  exit), ``jsonl:PATH`` (one JSON object per line: provenance,
  then spans in completion order, then the final metrics snapshot —
  the input of ``repro trace`` and ``repro perf``) and ``prom:PATH``
  (the final metrics snapshot in Prometheus textfile format for a
  node-exporter textfile collector — see
  :mod:`repro.obs.openmetrics`).

The registry is intentionally *not* thread-local: there is one
registry per process.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "TELEMETRY_FORMAT",
    "Telemetry",
    "SpanRecord",
    "HistogramSummary",
    "configure",
    "get_telemetry",
    "set_telemetry",
    "span",
    "count",
    "gauge",
    "observe",
]

#: Schema tag of the JSONL event stream (``repro trace`` input).
TELEMETRY_FORMAT = "repro-telemetry/1"

#: Sink modes ``configure`` accepts (``jsonl``/``prom`` additionally
#: take a path).
MODES = ("off", "summary", "jsonl", "prom")


@dataclass
class SpanRecord:
    """One completed span: identity, position in the tree, timing.

    ``span_id``/``parent_id`` are sequential entry-order integers
    (root spans have ``parent_id`` None), so equality of everything
    except ``start_ns``/``duration_ns`` is the span-tree determinism
    contract.
    """

    span_id: int
    parent_id: int | None
    name: str
    depth: int
    start_ns: int
    duration_ns: int
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_event(self) -> dict[str, Any]:
        return {
            "event": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": self.attrs,
        }


@dataclass
class HistogramSummary:
    """Bounded-memory distribution summary (count/total/min/max)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class _NoopSpan:
    """Shared reentrant no-op context manager — the off fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one span into its telemetry's log."""

    __slots__ = ("_tel", "_name", "_attrs", "_id", "_parent", "_depth", "_t0")

    def __init__(self, tel: "Telemetry", name: str, attrs: dict[str, Any]):
        self._tel = tel
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        tel = self._tel
        self._id = tel._next_span_id
        tel._next_span_id += 1
        stack = tel._span_stack
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._id)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = time.perf_counter_ns()
        tel = self._tel
        if tel._span_stack and tel._span_stack[-1] == self._id:
            tel._span_stack.pop()
        tel.spans.append(
            SpanRecord(
                span_id=self._id,
                parent_id=self._parent,
                name=self._name,
                depth=self._depth,
                start_ns=self._t0 - tel._epoch_ns,
                duration_ns=t1 - self._t0,
                attrs=self._attrs,
            )
        )

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self._attrs.update(attrs)


class Telemetry:
    """One run's span log, metrics registry and provenance manifest."""

    def __init__(self, mode: str = "off", path: str | Path | None = None):
        if mode not in MODES:
            raise ValueError(
                f"unknown telemetry mode {mode!r}: expected one of "
                f"{', '.join(MODES)}"
            )
        if mode in ("jsonl", "prom") and path is None:
            raise ValueError(
                f"{mode} telemetry needs a path ({mode}:PATH)"
            )
        self.mode = mode
        self.path = Path(path) if path is not None else None
        self.enabled = mode != "off"
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramSummary] = {}
        self.manifest: dict[str, Any] | None = None
        self._span_stack: list[int] = []
        self._next_span_id = 1
        self._epoch_ns = time.perf_counter_ns()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a nested span; a context manager either way."""
        if not self.enabled:
            return _NOOP_SPAN
        return _ActiveSpan(self, name, attrs)

    def count(self, name: str, value: int = 1) -> None:
        """Increment a monotonic counter."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins gauge."""
        if self.enabled:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram summary."""
        if self.enabled:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = HistogramSummary()
            hist.add(float(value))

    def set_manifest(self, manifest: dict[str, Any]) -> None:
        """Attach the run-provenance manifest (see ``repro.obs.provenance``)."""
        if self.enabled:
            self.manifest = manifest

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The metrics registry as one JSON-ready mapping (sorted names)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def structure(self) -> list[tuple[int, int | None, str, tuple]]:
        """The deterministic skeleton of the span tree (no timings).

        Two runs doing the same work must produce equal structures —
        the span-tree determinism contract the tests enforce.
        """
        return [
            (
                s.span_id,
                s.parent_id,
                s.name,
                tuple(sorted(s.attrs.items())),
            )
            for s in sorted(self.spans, key=lambda s: s.span_id)
        ]

    # -- sinks --------------------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        """The full event stream: header, provenance, spans, metrics."""
        out: list[dict[str, Any]] = [
            {"event": "header", "format": TELEMETRY_FORMAT}
        ]
        if self.manifest is not None:
            out.append({"event": "provenance", **self.manifest})
        out.extend(
            s.as_event()
            for s in sorted(self.spans, key=lambda s: s.span_id)
        )
        out.append({"event": "metrics", **self.snapshot()})
        return out

    def write_jsonl(self, path: str | Path | None = None) -> Path:
        """Write the event stream as one JSON object per line."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no jsonl path configured")
        buf = io.StringIO()
        for event in self.events():
            buf.write(json.dumps(event, sort_keys=True))
            buf.write("\n")
        target.write_text(buf.getvalue())
        return target

    def render_summary(self) -> str:
        """Human-readable digest: top spans by total time, key counters."""
        lines = ["-- telemetry summary --"]
        totals: dict[str, tuple[int, int]] = {}
        for s in self.spans:
            n, t = totals.get(s.name, (0, 0))
            totals[s.name] = (n + 1, t + s.duration_ns)
        for name, (n, t) in sorted(
            totals.items(), key=lambda kv: -kv[1][1]
        )[:12]:
            lines.append(f"  span {name:<32} x{n:<5} {t / 1e6:10.2f} ms")
        for name, value in sorted(self.counters.items()):
            lines.append(f"  counter {name:<36} {value}")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"  gauge {name:<38} {value:.6g}")
        for name, hist in sorted(self.histograms.items()):
            lines.append(
                f"  hist {name:<39} n={hist.count} mean={hist.mean:.6g}"
            )
        if self.manifest is not None:
            lines.append(
                "  provenance "
                + " ".join(
                    f"{k}={self.manifest[k]}"
                    for k in ("git_sha", "model_version", "inputs_digest")
                    if k in self.manifest
                )
            )
        return "\n".join(lines)

    def write_prom(self, path: str | Path | None = None) -> Path:
        """Write the metrics snapshot as a Prometheus textfile."""
        from repro.obs.openmetrics import render_openmetrics

        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no prom path configured")
        target.write_text(
            render_openmetrics(self.snapshot(), manifest=self.manifest)
        )
        return target

    def flush(self) -> str | None:
        """Drain to the configured sink; returns summary text if any."""
        if self.mode == "jsonl":
            self.write_jsonl()
            return None
        if self.mode == "prom":
            self.write_prom()
            return None
        if self.mode == "summary":
            return self.render_summary()
        return None


#: The process-wide telemetry the module-level helpers delegate to.
_CURRENT = Telemetry("off")


def get_telemetry() -> Telemetry:
    """The active process-wide :class:`Telemetry`."""
    return _CURRENT


def set_telemetry(tel: Telemetry) -> Telemetry:
    """Install ``tel`` as the process-wide telemetry; returns it."""
    global _CURRENT
    _CURRENT = tel
    return tel


def configure(spec: str | None) -> Telemetry:
    """Parse a ``--telemetry`` spec and install the result.

    Accepted forms: ``off`` (or None), ``summary``, ``jsonl:PATH``.
    """
    if spec is None or spec == "off":
        return set_telemetry(Telemetry("off"))
    if spec == "summary":
        return set_telemetry(Telemetry("summary"))
    for mode in ("jsonl", "prom"):
        if spec.startswith(f"{mode}:"):
            path = spec[len(mode) + 1:]
            if not path:
                raise ValueError(
                    f"{mode} telemetry needs a path ({mode}:PATH)"
                )
            return set_telemetry(Telemetry(mode, path))
    raise ValueError(
        f"unknown telemetry spec {spec!r}: expected off, summary, "
        f"jsonl:PATH or prom:PATH"
    )


# -- module-level helpers (the instrumentation surface) ---------------------
#
# Hot paths call these instead of holding a Telemetry reference so a
# late `configure()` (the CLI) is picked up everywhere, and so the off
# fast path is a single global load + boolean test.

def span(name: str, **attrs: Any):
    """Open a span on the process-wide telemetry (no-op when off)."""
    tel = _CURRENT
    if not tel.enabled:
        return _NOOP_SPAN
    return _ActiveSpan(tel, name, attrs)


def count(name: str, value: int = 1) -> None:
    """Increment a process-wide counter (no-op when off)."""
    tel = _CURRENT
    if tel.enabled:
        tel.counters[name] = tel.counters.get(name, 0) + value


def gauge(name: str, value: float) -> None:
    """Set a process-wide gauge (no-op when off)."""
    tel = _CURRENT
    if tel.enabled:
        tel.gauges[name] = float(value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when off)."""
    tel = _CURRENT
    if tel.enabled:
        tel.observe(name, value)
