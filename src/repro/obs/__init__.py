"""repro.obs -- metrics, span tracing, and the structured event journal.

The observability subsystem of the serving stack (see
``docs/OBSERVABILITY.md``): a process-local
:class:`~repro.obs.metrics.MetricsRegistry` with typed Counter / Gauge
/ Histogram families and Prometheus-text / JSON exposition, a
:class:`~repro.obs.trace.SpanTracer` building nested per-request span
trees from an injectable clock, and a bounded
:class:`~repro.obs.journal.EventJournal` recording ingest outcomes,
retries, quarantine reasons, cache evictions and epoch bumps under
monotonic sequence numbers.

Everything composes through :class:`~repro.obs.runtime.Observability`,
the bundle the ``CloudServer`` threads through the request path.  The
deterministic core never reads a clock (fovlint RF005): counters and
journal entries are clock-free, and spans time themselves only through
the tracer's injected clock -- with the default
:data:`~repro.obs.trace.NULL_TRACER` nothing is timed at all.
"""

from repro.obs.journal import Event, EventJournal
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.runtime import Observability
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanTracer,
    TracerLike,
    format_span_tree,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Event",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "Span",
    "SpanTracer",
    "TracerLike",
    "format_span_tree",
    "parse_prometheus",
]
