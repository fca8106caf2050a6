"""Dependency-free observability: spans, metrics, progress events.

Three cooperating pieces, bundled by :class:`Telemetry`:

* :class:`Tracer` — timed spans (``search`` > ``expand`` /
  ``heuristic`` / ``filter`` / ``prefix``, one per fan-out) with a JSONL
  sink and a human-readable tree renderer;
* :class:`MetricsRegistry` — counters / gauges / histograms snapshotable
  at any point, including on budget exhaustion;
* :class:`ProgressPublisher` — a live :class:`SearchProgressEvent`
  stream emitted every N expansions;
* :class:`TraceRecorder` — an expansion-level search trace with exact
  prune attribution (which rule discarded which subtree), analyzed
  offline by ``repro diagnose``;
* :class:`ResourceSampler` / :class:`SamplingProfiler` — the flight
  recorder: background RSS/CPU/GC sampling and a wall-clock sampling
  profiler with span + kernel-backend attribution, both off the hot
  path (compose with ``hot_path=False`` for near-zero overhead);
* :class:`TelemetrySpec` — picklable per-worker telemetry recipe for
  process-pool fleets; shards merge into a rollup via
  :mod:`repro.obs.export`;
* :class:`RunLedger` — the persistent run ledger
  (:mod:`repro.obs.ledger`): append-only index + per-run artifact
  directories, with the ``run_id`` threaded through telemetry as a
  correlation ID;
* :class:`FleetMonitor` — the ``repro top`` live view over an active
  fleet's telemetry directory (:mod:`repro.obs.monitor`).

:mod:`repro.obs.schema` defines the normalized ``MappingResult.stats``
key set every mapper emits.  The default path (``telemetry=None``) is
near-zero overhead: the search loops run with a do-nothing hook.
"""

from .events import ProgressPublisher, SearchProgressEvent
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .schema import (
    MAPPER_NAMES,
    REQUIRED_STAT_KEYS,
    base_stats,
    missing_stat_keys,
    stats_row,
    validate_stats,
)
from .profiler import DEFAULT_PROFILE_INTERVAL, SamplingProfiler
from .runtime import (
    DEFAULT_RESOURCE_INTERVAL,
    GcPauseTracker,
    ResourceSampler,
    peak_rss_bytes,
    read_rss_bytes,
)
from .ledger import (
    LedgerRun,
    RunLedger,
    config_fingerprint,
    default_ledger_dir,
    git_sha,
    new_run_id,
)
from .monitor import FleetMonitor
from .sinks import FanoutSink, JsonlSink, MemorySink, Sink, read_jsonl
from .telemetry import NULL_TELEMETRY, Telemetry, TelemetrySpec, resolve
from .trace import (
    REASON_TO_STAT,
    TRACE_MODES,
    TraceRecorder,
    TraceSpec,
)
from .tracer import DEFAULT_MAX_SPANS, NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "resolve",
    "Tracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "DEFAULT_MAX_SPANS",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "ProgressPublisher",
    "SearchProgressEvent",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "FanoutSink",
    "read_jsonl",
    "TraceRecorder",
    "TraceSpec",
    "TelemetrySpec",
    "RunLedger",
    "LedgerRun",
    "FleetMonitor",
    "new_run_id",
    "git_sha",
    "config_fingerprint",
    "default_ledger_dir",
    "ResourceSampler",
    "SamplingProfiler",
    "GcPauseTracker",
    "DEFAULT_RESOURCE_INTERVAL",
    "DEFAULT_PROFILE_INTERVAL",
    "peak_rss_bytes",
    "read_rss_bytes",
    "TRACE_MODES",
    "REASON_TO_STAT",
    "REQUIRED_STAT_KEYS",
    "MAPPER_NAMES",
    "base_stats",
    "missing_stat_keys",
    "stats_row",
    "validate_stats",
]
