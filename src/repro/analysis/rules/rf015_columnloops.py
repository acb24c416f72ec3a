"""RF015: no Python for-loops over packed column arrays in hot modules.

The batched query path earns its speed by keeping every per-record
operation inside NumPy kernels (``docs/PERFORMANCE.md``).  A Python
``for`` statement that iterates a packed column array directly --
``for v in view.lat`` -- boxes one NumPy scalar per element and is
routinely 50-100x slower than either a vectorised kernel or the
sanctioned scalar funnel, a single ``.tolist()`` that converts the
whole column to plain Python floats up front.

The rule is a vectorisation *ratchet* for the modules on the query hot
path (the packed grid, retrieval, the column store, ranking): it
flags any ``for`` statement whose iterable is named like a packed
column (``lat``, ``theta``, ``fused``, ``offsets``, ``rows``,
``ids``, ...), including slices of one and columns threaded through
``enumerate``/``zip``/``reversed``.  Iterating the explicit
``.tolist()`` / ``.item()`` funnel is exempt -- that is the documented
fast path for sub-slab candidate sets.  The shipped tree has no column
loop left, so any column loop trips CI.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation, name_tokens

__all__ = ["RF015ColumnLoop"]

# The query hot path: everything between "packed view in" and "ranked
# rows out", plus the video-retrieval pipeline built on top of it.
# Cold modules (persistence, traces, CLI) may loop freely.
_HOT_MODULES = frozenset({
    "repro.spatial.grid",
    "repro.core.retrieval",
    "repro.core.index",
    "repro.core.ranking",
    "repro.video.scoring",
    "repro.video.retrieval",
    "repro.video.poi",
})

# Names the packed view's columns, its grid's arrays and their derived
# candidate sets travel under (split on ``name_tokens`` boundaries).
_COLUMN_TOKENS = frozenset({
    "lat", "lats", "lng", "lngs", "theta", "thetas",
    "fused", "offsets", "rank", "ranks", "ids",
    "rows", "cand", "cands", "candidates",
})

# The sanctioned scalar funnel: one bulk conversion, then plain floats.
_FUNNEL_METHODS = frozenset({"tolist", "item"})

# Builtins that forward iteration to their arguments.
_TRANSPARENT_WRAPPERS = frozenset({"enumerate", "zip", "reversed"})


def _columnish_name(expr: ast.expr) -> str | None:
    """The column-like name an iterable resolves to, if any.

    Slices are stripped (``rows[lo:hi]`` iterates ``rows``); a call is
    either a transparent wrapper (recurse into its arguments), the
    ``.tolist()``/``.item()`` funnel (sanctioned, never flagged), or
    opaque.
    """
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call):
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _FUNNEL_METHODS):
            return None
        if (isinstance(node.func, ast.Name)
                and node.func.id in _TRANSPARENT_WRAPPERS):
            for arg in node.args:
                name = _columnish_name(arg)
                if name is not None:
                    return name
        return None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    if any(t in _COLUMN_TOKENS for t in name_tokens(name)):
        return name
    return None


class RF015ColumnLoop:
    """Hot-path for-loops over packed columns must vectorise or funnel."""

    rule_id = "RF015"
    summary = "Python for-loop over a packed column array on the hot path"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag for statements iterating column-named arrays."""
        if module.modname not in _HOT_MODULES:
            return []
        out: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.For):
                continue
            name = _columnish_name(node.iter)
            if name is None:
                continue
            out.append(Violation(
                rule_id=self.rule_id,
                path=str(module.path),
                line=node.lineno,
                col=node.col_offset,
                message=(f"for-loop over packed column '{name}' boxes one "
                         f"NumPy scalar per element; vectorise it as an "
                         f"array kernel or funnel once through .tolist()"),
            ))
        return out
