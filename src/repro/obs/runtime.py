"""The observability bundle components share, and spatial adapters.

:class:`Observability` groups the three instruments of this subsystem
-- a :class:`~repro.obs.metrics.MetricsRegistry`, a tracer, and an
:class:`~repro.obs.journal.EventJournal` -- into the one object that
gets threaded through the request path (``CloudServer`` down to
``RetrievalEngine`` and the caches).  Two constructors cover the two
regimes:

* :meth:`Observability.default` -- metrics + journal always on (both
  are clock-free), tracing off (:data:`~repro.obs.trace.NULL_TRACER`).
  This is what a bare ``CloudServer()`` gets: counting costs almost
  nothing and keeps the RF005 determinism contract trivially.
* :meth:`Observability.tracing` -- a real :class:`SpanTracer` wired to
  the registry, so span durations also populate the
  ``span.duration_s`` histogram family.  The clock is injectable for
  deterministic tests.

:class:`PackedSearchRecorder` adapts the registry to the
``SearchObserver`` protocol of :mod:`repro.spatial.grid`, turning
per-level descent statistics (entries tested, survivors, frontier
width) into counters and gauges without the spatial layer ever
importing ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer, TracerLike

__all__ = ["Observability", "PackedSearchRecorder"]


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


class PackedSearchRecorder:
    """Registry-backed observer for packed-grid searches.

    Implements the ``repro.spatial.grid.SearchObserver`` protocol
    structurally: :meth:`on_descent` counts one search; :meth:`on_level`
    accumulates how many entry boxes were tested and how many survived
    at each level, and tracks the widest frontier seen -- the numbers
    that explain *why* a packed search was fast or slow (selectivity
    per level), which throughput alone cannot.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._descents = registry.counter(
            "packed.descents", "Packed-grid searches started")
        self._tested = registry.counter(
            "packed.entries_tested",
            "Entry boxes overlap-tested during packed descents",
            labelnames=("level",))
        self._matched = registry.counter(
            "packed.entries_matched",
            "Entry boxes surviving the overlap test per level",
            labelnames=("level",))
        self._peak = registry.gauge(
            "packed.frontier_width_peak",
            "Widest (query, entry) frontier observed in one level pass")
        #: ``level -> (tested child, matched child)``, resolved at a
        #: level's first pass: ``labels()`` validates and locks, once
        #: per level rather than twice per search.
        self._levels: dict[int, tuple[Any, Any]] = {}

    def on_descent(self, queries: int) -> None:
        """Record the start of one search over ``queries`` query boxes."""
        self._descents.inc()

    def on_level(self, level: int, tested: int, matched: int) -> None:
        """Record one level pass: boxes tested and survivors."""
        children = self._levels.get(level)
        if children is None:
            label = str(level)
            children = self._levels[level] = (
                self._tested.labels(level=label),
                self._matched.labels(level=label))
        children[0].inc(tested)
        children[1].inc(matched)
        if tested > self._peak.value:
            self._peak.set(tested)
