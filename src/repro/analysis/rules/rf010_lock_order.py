"""RF010: lock acquisitions must follow one global order per class.

A class may hold plain locks (the sharded router's ``_log_order`` and
``_digest_lock``) and indexed families of them (a list of lock
stripes).  Two threads acquiring the same pair of locks in opposite
orders deadlock -- silently, under load, never in a unit test.  This rule derives the
class's **lock-acquisition graph** and flags the shapes that can
deadlock:

* **order cycles** -- lock *A* held while acquiring *B* at one site,
  *B* held while acquiring *A* at another (directly or transitively
  through intra-class calls).  Any cycle in the graph is a potential
  deadlock between two threads.
* **non-reentrant re-acquisition** -- ``with self._lock:`` reached
  while ``_lock`` (a plain ``Lock``) is already held, including via a
  helper whose callers all hold it (the fixpoint's guarantee).  That is
  a single-thread self-deadlock.  Re-acquiring an ``RLock`` is fine.
* **intra-family nesting** -- acquiring ``self._stripes[i]`` while
  holding ``self._stripes[j]``.  The model collapses an indexed family
  to one name (``_stripes[*]``), so it cannot prove ``i != j`` or that
  a total order (e.g. ascending index) is respected; nesting within a
  family is flagged and, where the order is real and documented, the
  site carries a suppression saying so.

Edges come from two sources: a ``with self.<lock>:`` entered while
locks are held, and a call to an intra-class method whose transitive
acquisition set (a second fixpoint over the call graph) is non-empty.
Cross-*class* lock order is out of the syntactic model's reach and is
covered by the ownership rules in ``docs/SHARDING.md`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation
from repro.analysis.model import ClassModel

__all__ = ["RF010LockOrder"]


@dataclass(frozen=True)
class _Edge:
    """One ``held -> acquired`` fact with the site that produces it."""

    held: str
    acquired: str
    line: int
    col: int
    via: str            # "" for a direct acquire, else the callee name


def _transitive_acquires(cls: ClassModel) -> dict[str, frozenset[str]]:
    """Locks each method may acquire, directly or via intra-class calls."""
    acquired = {name: {a.lock for a in m.acquires}
                for name, m in cls.methods.items()}
    changed = True
    while changed:
        changed = False
        for name, method in cls.methods.items():
            for call in method.calls:
                callee = acquired.get(call.method)
                if callee and not callee <= acquired[name]:
                    acquired[name] |= callee
                    changed = True
    return {name: frozenset(locks) for name, locks in acquired.items()}


def _edges(cls: ClassModel) -> list[_Edge]:
    closure = _transitive_acquires(cls)
    out: list[_Edge] = []
    seen: set[tuple[str, str, int]] = set()

    def add(held: str, acquired: str, line: int, col: int, via: str) -> None:
        key = (held, acquired, line)
        if key not in seen:
            seen.add(key)
            out.append(_Edge(held, acquired, line, col, via))

    for method in cls.methods.values():
        for acq in method.acquires:
            for held in method.locks_at(acq.locks_held):
                add(held, acq.lock, acq.line, acq.col, "")
        for call in method.calls:
            if call.method not in cls.methods:
                continue
            held_here = method.locks_at(call.locks_held)
            for held in held_here:
                for acquired in closure[call.method]:
                    if (acquired in held_here and acquired != held
                            and cls.is_reentrant(acquired)):
                        continue      # already held and harmlessly re-entered
                    add(held, acquired, call.line, call.col, call.method)
    return out


def _reaches(graph: dict[str, set[str]], src: str, dst: str) -> bool:
    stack, seen = [src], {src}
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for nxt in graph.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


class RF010LockOrder:
    """Flag deadlock-capable shapes in the class lock-acquisition graph."""

    rule_id = "RF010"
    summary = "lock-order cycle, self-deadlock, or intra-family nesting"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag cycles and re-acquisitions in each class's lock graph."""
        if not module.in_package("repro"):
            return []
        out: list[Violation] = []
        model = project.model()
        for cls in model.classes_in_module(module.modname):
            if cls.path != str(module.path) or len(cls.lock_attrs) == 0:
                continue
            edges = _edges(cls)
            graph: dict[str, set[str]] = {}
            for e in edges:
                if e.held != e.acquired:
                    graph.setdefault(e.held, set()).add(e.acquired)
            flagged_pairs: set[tuple[str, str]] = set()
            for e in edges:
                suffix = f" (via 'self.{e.via}()')" if e.via else ""
                if e.held == e.acquired:
                    if e.held.endswith("[*]"):
                        base = e.held.split("[", 1)[0]
                        msg = (f"'{cls.name}' nests two members of the lock "
                               f"family 'self.{base}'{suffix}; without a "
                               f"documented total order this deadlocks the "
                               f"scatter-gather path")
                    elif cls.is_reentrant(e.held):
                        continue
                    else:
                        msg = (f"'{cls.name}' re-acquires non-reentrant lock "
                               f"'self.{e.held}' already held{suffix}: "
                               f"single-thread self-deadlock")
                    out.append(Violation(
                        rule_id=self.rule_id, path=str(module.path),
                        line=e.line, col=e.col, message=msg))
                    continue
                if (e.acquired, e.held) in flagged_pairs:
                    continue
                if _reaches(graph, e.acquired, e.held):
                    flagged_pairs.add((e.held, e.acquired))
                    out.append(Violation(
                        rule_id=self.rule_id, path=str(module.path),
                        line=e.line, col=e.col,
                        message=(f"lock-order cycle in '{cls.name}': "
                                 f"'self.{e.acquired}' is acquired while "
                                 f"holding 'self.{e.held}' here{suffix}, but "
                                 f"the opposite order exists elsewhere -- "
                                 f"two threads can deadlock")))
        return out
