"""RF009: an attribute guarded by a lock must never be touched without it.

The concurrency convention in the runtime (``shard/server.py``,
``core/server.py``, ``obs/*``) is *GuardedBy-by-example*: a class does
not annotate which lock protects which field -- the protection is
implied by the code that writes the field inside ``with self._lock:``.
The failure mode is then a **later** method (often a convenience
accessor or a stats snapshot) touching the same field lock-free,
which races with every guarded writer.  PR 3's bundle-ingest audit and
PR 5's epoch-vector cache both hit exactly this shape.

The rule infers the convention from the
:class:`~repro.analysis.model.ProjectModel`: for each non-lock
attribute of a lock-owning class, the *guard set* is the union of
locks held (lexically or via the fixpoint's caller guarantees) at its
write/mutate sites outside ``__init__``.  If at least one write is
guarded, then every other write/mutate **and every read** of that
attribute must hold at least one guard lock.  ``__init__`` is exempt
(no concurrent aliases exist yet), as are the lock and epoch fields
themselves (epochs belong to RF011).

Unguarded *writes* are races, full stop -- fix them.  Unguarded
*reads* are sometimes intentional (a single aligned load of a counter
for a monitoring endpoint); those are recorded with an inline
``# fovlint: disable=RF009`` plus a one-line justification, so the
decision is visible at the access site and re-litigated when the code
around it changes.
"""

from __future__ import annotations

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation
from repro.analysis.model import ClassModel

__all__ = ["RF009LockDiscipline"]


def _fmt_guard(locks: frozenset[str]) -> str:
    return " / ".join(f"'self.{name}'" for name in sorted(locks))


def _guard_set(cls: ClassModel, attr: str) -> frozenset[str]:
    """Locks ever held at a write/mutate of ``attr`` outside ``__init__``."""
    guard: set[str] = set()
    for method, access in cls.accesses_of(attr):
        if method.name == "__init__" or access.kind == "read":
            continue
        guard |= method.locks_at(access.locks_held)
    return frozenset(guard)


class RF009LockDiscipline:
    """Attribute written under a lock elsewhere is accessed lock-free."""

    rule_id = "RF009"
    summary = "lock-guarded attribute accessed without the guarding lock"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag lock-free accesses of attributes with guarded writers."""
        if not module.in_package("repro"):
            return []
        out: list[Violation] = []
        model = project.model()
        for cls in model.classes_in_module(module.modname):
            if cls.path != str(module.path) or not cls.lock_attrs:
                continue
            for attr in sorted(cls.attr_names()):
                if attr in cls.lock_attrs or attr in cls.epoch_attrs:
                    continue
                guard = _guard_set(cls, attr)
                if not guard:
                    continue
                # A mutator call records both the mutation and the
                # receiver load; report the mutation only.
                mutated_lines = {(m.name, a.line)
                                 for m, a in cls.accesses_of(attr)
                                 if a.kind != "read"}
                for method, access in cls.accesses_of(attr):
                    if method.name == "__init__":
                        continue
                    if method.locks_at(access.locks_held) & guard:
                        continue
                    if (access.kind == "read"
                            and (method.name, access.line) in mutated_lines):
                        continue
                    if access.kind == "read":
                        what = ("read lock-free here; take the lock, or "
                                "suppress with a one-line justification if "
                                "the racy read is intentional")
                    elif access.kind == "write":
                        what = "rebound without it here -- that write races"
                    else:
                        what = ("mutated in place without it here -- that "
                                "mutation races")
                    out.append(Violation(
                        rule_id=self.rule_id,
                        path=str(module.path),
                        line=access.line,
                        col=access.col,
                        message=(f"'{cls.name}.{attr}' is written under "
                                 f"{_fmt_guard(guard)} but {what}"),
                    ))
        return out
