"""RF005: no wall-clock reads or unseeded randomness in the hot core.

``repro.core`` and ``repro.spatial`` hold the retrieval math and the
index structures; their results must be a pure function of their inputs
so that accuracy experiments (Section VI) replay bit-identically.  The
rule bans, inside those packages only:

* wall-clock reads -- ``time.time``/``time_ns``/``localtime``/
  ``gmtime``/``ctime``, ``datetime.now``/``utcnow``/``today``;
* duration clocks -- ``time.perf_counter``/``monotonic`` (and their
  ``_ns`` forms): latency numbers belong to the caller, so components
  that report wall times take an injectable ``clock`` parameter whose
  default lives outside the scope
  (:func:`repro.net.clock.default_timer`), keeping replay bit-identical
  under a fake clock;
* ``from time import <banned>`` -- the import-form of the same reads;
* module-level randomness -- any ``random.<fn>`` except constructing a
  seeded ``random.Random(seed)`` instance;
* legacy numpy global randomness -- ``np.random.<fn>`` except the
  seedable ``default_rng`` / ``Generator`` / ``SeedSequence`` entry
  points.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation

__all__ = ["RF005Nondeterminism"]

_SCOPED_PACKAGES = ("repro.core", "repro.spatial")

_TIME_BANNED = frozenset({
    "time", "time_ns", "localtime", "gmtime", "ctime", "asctime",
})
_TIME_DURATION = frozenset({
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "process_time_ns", "thread_time", "thread_time_ns",
})
_DATETIME_BANNED = frozenset({"now", "utcnow", "today"})
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})
_NP_RANDOM_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence",
                                "PCG64", "Philox", "MT19937", "SFC64",
                                "BitGenerator"})


def _attr_chain(expr: ast.expr) -> tuple[str, ...]:
    """``np.random.normal`` -> ("np", "random", "normal"); () if not names."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class RF005Nondeterminism:
    """Wall clocks and unseeded RNGs are banned from core/spatial."""

    rule_id = "RF005"
    summary = "wall-clock or unseeded randomness in deterministic core code"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag banned attribute accesses wherever they appear in scope."""
        if not module.in_package(*_SCOPED_PACKAGES):
            return []
        out: list[Violation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module != "time" or node.level:
                    continue
                for alias in node.names:
                    if alias.name in _TIME_BANNED or alias.name in _TIME_DURATION:
                        out.append(Violation(
                            rule_id=self.rule_id,
                            path=str(module.path),
                            line=node.lineno,
                            col=node.col_offset,
                            message=(f"from time import {alias.name}: clock "
                                     f"read in deterministic core code; "
                                     f"inject a clock parameter instead "
                                     f"(repro.net.clock.default_timer)"),
                        ))
                continue
            if not isinstance(node, ast.Attribute):
                continue
            chain = _attr_chain(node)
            reason = self._banned(chain)
            if reason is not None:
                out.append(Violation(
                    rule_id=self.rule_id,
                    path=str(module.path),
                    line=node.lineno,
                    col=node.col_offset,
                    message=f"{'.'.join(chain)}: {reason}",
                ))
        return out

    def _banned(self, chain: tuple[str, ...]) -> str | None:
        if len(chain) < 2:
            return None
        if chain[0] == "time" and chain[1] in _TIME_BANNED:
            return ("wall-clock read; results must not depend on the "
                    "current time")
        if chain[0] == "time" and chain[1] in _TIME_DURATION:
            return ("duration clock read in deterministic core code; "
                    "inject a clock parameter defaulting to "
                    "repro.net.clock.default_timer")
        if chain[0] == "datetime" and chain[-1] in _DATETIME_BANNED:
            return "wall-clock read; pass timestamps in as data"
        if chain[0] == "random" and chain[1] not in _RANDOM_ALLOWED:
            return ("global random state; use a seeded random.Random or "
                    "numpy Generator passed in by the caller")
        if (len(chain) >= 3 and chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and chain[2] not in _NP_RANDOM_ALLOWED):
            return ("legacy numpy global RNG; use "
                    "np.random.default_rng(seed)")
        return None
