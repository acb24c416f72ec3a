"""The observability bundle components share.

:class:`Observability` groups the three instruments of this subsystem
-- a :class:`~repro.obs.metrics.MetricsRegistry`, a tracer, and an
:class:`~repro.obs.journal.EventJournal` -- into the one object that
gets threaded through the request path (a server down to its funnel
pass and its caches).  Two constructors cover the two
regimes:

* :meth:`Observability.default` -- metrics + journal always on (both
  are clock-free), tracing off (:data:`~repro.obs.trace.NULL_TRACER`).
  This is what a bare ``CloudServer()`` gets: counting costs almost
  nothing and keeps the RF005 determinism contract trivially.
* :meth:`Observability.tracing` -- a real :class:`SpanTracer` wired to
  the registry, so span durations also populate the
  ``span.duration_s`` histogram family.  The clock is injectable for
  deterministic tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer, TracerLike

__all__ = ["Observability"]


@dataclass
class Observability:
    """The instrument bundle one process (or one server) shares."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: TracerLike = NULL_TRACER
    journal: EventJournal = field(default_factory=EventJournal)

    @classmethod
    def default(cls, journal_capacity: int = 1024) -> "Observability":
        """Metrics and journal on, tracing off (no clock anywhere)."""
        return cls(registry=MetricsRegistry(), tracer=NULL_TRACER,
                   journal=EventJournal(capacity=journal_capacity))

    @classmethod
    def tracing(cls, clock: Callable[[], float] | None = None,
                trace_capacity: int = 64,
                journal_capacity: int = 1024) -> "Observability":
        """Full instrumentation: spans feed the latency histograms."""
        registry = MetricsRegistry()
        tracer = SpanTracer(clock=clock, capacity=trace_capacity,
                            registry=registry)
        return cls(registry=registry, tracer=tracer,
                   journal=EventJournal(capacity=journal_capacity))

    @property
    def span_tracer(self) -> SpanTracer | None:
        """The tracer as a :class:`SpanTracer`, or None when tracing is off."""
        return self.tracer if isinstance(self.tracer, SpanTracer) else None

