"""RF012: no blocking call inside a lock-guarded region.

A lock in this codebase guards nanoseconds of in-memory state; a
blocking call holds it for milliseconds to forever.  ``time.sleep``
under the ingest lock stalls every concurrent uploader;
``future.result()`` under a shard lock while the worker it waits on
needs that same lock to make progress is a deadlock; file or socket
I/O under the cache lock turns the scatter-gather fan-in into a convoy.  The fix is
always the same shape: compute under the lock, block outside it
(snapshot-then-send, as ``obs/journal.py`` and the shard router
already do).

The model records every potentially blocking call -- sleeping
(``time.sleep``), joining workers (``.join()``, ``.shutdown()``,
``.wait()``, ``.result()``), pool submission (``.submit()``),
subprocess / socket / urllib / requests entry points, and bare
``open()``/``input()`` -- together with the locks held around it
(lexically plus the fixpoint's caller guarantees).  The rule flags any
such call with a non-empty lock set.  The syntactic callee match has
known benign shapes (``", ".join(parts)`` on a string receiver being
the classic), and those sites carry an inline suppression rather than
a model widening that would also hide real ``executor.join`` convoys.
"""

from __future__ import annotations

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation

__all__ = ["RF012BlockingUnderLock"]


class RF012BlockingUnderLock:
    """Blocking/IO call reached while holding a class lock."""

    rule_id = "RF012"
    summary = "blocking call inside a lock-guarded region"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag blocking calls whose held-lock set is non-empty."""
        if not module.in_package("repro"):
            return []
        out: list[Violation] = []
        model = project.model()
        for cls in model.classes_in_module(module.modname):
            if cls.path != str(module.path) or not cls.lock_attrs:
                continue
            for method in cls.methods.values():
                for site in method.blocking:
                    held = method.locks_at(site.locks_held)
                    if not held:
                        continue
                    locks = " / ".join(f"'self.{h}'" for h in sorted(held))
                    out.append(Violation(
                        rule_id=self.rule_id, path=str(module.path),
                        line=site.line, col=site.col,
                        message=(f"'{site.callee}(...)' can block while "
                                 f"'{cls.name}.{method.name}' holds "
                                 f"{locks}; snapshot state under the lock "
                                 f"and block outside it")))
        return out
