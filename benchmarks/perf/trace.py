"""In-memory span recorder and removable wrappers around public functions.

The benchmark traces the serving stack from the outside: it never
edits ``src/``.  :func:`install` replaces a public function or method
with a wrapper that opens a span around the call (and optionally
counts something about its arguments or result), and
:meth:`Installed.remove` puts every original back -- including the
by-name bindings other modules took with ``from x import f``, found by
identity so an aliased import (``replay as wal_replay``) is covered
too.

Spans are ``[name, start, end, parent, op]`` rows kept in a list and
written out only when the run ends.  ``parent`` is the index of the
enclosing span (``-1`` at the top), ``op`` the index of the top-level
operation the span belongs to, so every span of one client call shares
an identifier.  A span's *self time* is its duration minus the
durations of its direct children; with one thread, children never
overlap, so self times of all spans add up to the traced wall exactly.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["SpanRecorder", "Target", "Installed", "install"]

NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    """Nested spans plus named counters, single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1

    def reset(self) -> None:
        """Forget spans and counts (the measured run starts here)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.counts.clear()
        self._op = -1

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._op += 1
        self._stack.append(len(self.spans))
        self.spans.append([name, self._clock(), None, parent, self._op])

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = self._clock()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def add(self, counter: str, n: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def count(self, counter: str) -> float:
        return self.counts.get(counter, 0)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``name -> (total self seconds, calls)`` over closed spans."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_total[span[PARENT]] += span[END] - span[START]
        out: dict[str, tuple[float, int]] = {}
        for i, span in enumerate(self.spans):
            own = span[END] - span[START] - child_total[i]
            total, calls = out.get(span[NAME], (0.0, 0))
            out[span[NAME]] = (total + own, calls + 1)
        return out

    def wall(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is the module or class holding ``attr``.  ``after`` sees
    ``(recorder, args, kwargs, result)`` once the call returned,
    ``failed`` sees ``(recorder, args, kwargs)`` when it raised -- both
    run outside the span, so counting is not billed to the layer.
    ``absorbed_by`` names a span under which this target opens no span
    of its own: a one-line delegate and its delegatee are one layer.
    """

    owner: Any
    attr: str
    span: str
    after: Callable[[SpanRecorder, tuple, dict, Any], None] | None = None
    failed: Callable[[SpanRecorder, tuple, dict], None] | None = None
    absorbed_by: str | None = None


def _wrap(rec: SpanRecorder, target: Target,
          original: Callable[..., Any]) -> Callable[..., Any]:
    name, after, failed = target.span, target.after, target.failed
    absorbed_by = target.absorbed_by

    def traced(*args: Any, **kwargs: Any) -> Any:
        if absorbed_by is not None and rec.current() == absorbed_by:
            return original(*args, **kwargs)
        rec.begin(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            rec.end()
            if failed is not None:
                failed(rec, args, kwargs)
            raise
        rec.end()
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    traced.__wrapped__ = original           # type: ignore[attr-defined]
    traced.__name__ = getattr(original, "__name__", name)
    return traced


def _bindings(original: Any, prefix: str) -> Iterator[tuple[Any, str]]:
    """Every ``(module, attribute)`` under ``prefix`` bound to ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix
                                  or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


class Installed:
    """The set of replaced attributes; :meth:`remove` restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.remove()


def install(rec: SpanRecorder, targets: list[Target],
            package: str = "repro") -> Installed:
    """Wrap every target; module functions are rebound wherever
    ``package`` imported them by name."""
    installed = Installed()
    try:
        for target in targets:
            original = vars(target.owner)[target.attr]
            wrapper = _wrap(rec, target, original)
            if isinstance(target.owner, type):
                installed._replace(target.owner, target.attr, wrapper)
            else:
                for module, attr in list(_bindings(original, package)):
                    installed._replace(module, attr, wrapper)
    except BaseException:
        installed.remove()
        raise
    return installed
