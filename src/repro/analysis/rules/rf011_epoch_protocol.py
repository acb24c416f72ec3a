"""RF011: storage mutations bump the epoch counter exactly once.

Epoch counters are the cache-coherence protocol of this codebase: the
query result cache tags entries with the epoch vector it observed, and
a stale entry is detected *only* because every index mutation bumped
the counter (``docs/SHARDING.md``).  Two historical bug shapes motivate
the rule, both from the PR 3 ingest hardening:

* **silent mutation** -- a method changes record storage without any
  bump on any path; caches serve stale results forever.
* **per-record bumping** -- the bump sits inside the record loop
  (``for rec in bundle: ...; self._epoch += 1``), so one bundle
  advances the epoch N times.  That is the "one bump per bundle"
  invariant: over-bumping invalidates sibling cache entries that were
  still coherent, and makes epoch deltas meaningless as a mutation
  count.

For every class owning an epoch attribute (a ``*epoch*``-named field
initialised to an int in ``__init__``), the rule checks each method
that mutates container storage in place (``mutate``-kind accesses:
``.insert()``/``.append()``/``del self.x[k]``/...).  The method is
*covered* when it bumps directly, when an intra-class callee bumps for
it, or -- for a private helper like ``FoVIndex._log_mutation`` -- when
every intra-class caller is itself covered.  Coverage propagates over
the call graph to a fixpoint, so splitting a mutation into helpers
does not trip the rule.  Independently, a bump inside a loop and a
method bumping more than once are flagged whether or not storage
mutation is visible in that same body.
"""

from __future__ import annotations

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation
from repro.analysis.model import ClassModel

__all__ = ["RF011EpochProtocol"]


def _coverage(cls: ClassModel) -> dict[str, bool]:
    """Which methods are covered by an epoch bump on the caller/callee graph."""
    bumps = {name: bool(m.epoch_bumps) for name, m in cls.methods.items()}
    callers: dict[str, list[str]] = {}
    callees: dict[str, list[str]] = {}
    for name, method in cls.methods.items():
        for call in method.calls:
            if call.method in cls.methods:
                callers.setdefault(call.method, []).append(name)
                callees.setdefault(name, []).append(call.method)

    # Pass 1: a method that calls (transitively) into a bumping method
    # is covered -- the bump happens inside the same public operation.
    covered = dict(bumps)
    changed = True
    while changed:
        changed = False
        for name in cls.methods:
            if not covered[name] and any(covered[c]
                                         for c in callees.get(name, ())):
                covered[name] = True
                changed = True

    # Pass 2: a private helper whose every intra-class caller is covered
    # inherits coverage (the caller bumps around the helper's mutation).
    changed = True
    while changed:
        changed = False
        for name, method in cls.methods.items():
            if covered[name] or not method.is_private:
                continue
            calling = callers.get(name)
            if calling and all(covered[c] for c in calling):
                covered[name] = True
                changed = True
    return covered


class RF011EpochProtocol:
    """Mutating methods bump the epoch exactly once, outside loops."""

    rule_id = "RF011"
    summary = "storage mutation without exactly one epoch bump"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag unbumped mutations, looped bumps, and repeated bumps."""
        if not module.in_package("repro"):
            return []
        out: list[Violation] = []
        model = project.model()
        for cls in model.classes_in_module(module.modname):
            if cls.path != str(module.path) or not cls.epoch_attrs:
                continue
            covered = _coverage(cls)
            for method in cls.methods.values():
                if method.name == "__init__":
                    continue
                if not covered[method.name]:
                    mutations = [a for a in method.accesses
                                 if a.kind == "mutate"
                                 and a.attr not in cls.lock_attrs]
                    if mutations:
                        first = min(mutations, key=lambda a: (a.line, a.col))
                        epochs = "/".join(sorted(cls.epoch_attrs))
                        out.append(Violation(
                            rule_id=self.rule_id, path=str(module.path),
                            line=first.line, col=first.col,
                            message=(f"'{cls.name}.{method.name}' mutates "
                                     f"'self.{first.attr}' but no path bumps "
                                     f"'self.{epochs}' -- epoch-tagged "
                                     f"caches will serve stale results")))
                for bump in method.epoch_bumps:
                    if bump.loop_depth > 0:
                        out.append(Violation(
                            rule_id=self.rule_id, path=str(module.path),
                            line=bump.line, col=bump.col,
                            message=(f"'self.{bump.attr}' is bumped inside a "
                                     f"loop in '{cls.name}.{method.name}' -- "
                                     f"bump once per batch, not per record")))
                if len(method.epoch_bumps) > 1:
                    extra = method.epoch_bumps[1]
                    out.append(Violation(
                        rule_id=self.rule_id, path=str(module.path),
                        line=extra.line, col=extra.col,
                        message=(f"'{cls.name}.{method.name}' bumps "
                                 f"'self.{extra.attr}' "
                                 f"{len(method.epoch_bumps)} times -- the "
                                 f"protocol is exactly one bump per "
                                 f"mutation batch")))
        return out
