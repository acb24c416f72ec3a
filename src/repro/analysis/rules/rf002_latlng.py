"""RF002: lat/lng argument order at call sites must match the callee.

Positions cross the codebase in two conventions that must never mix:
named records are explicit (``GeoPoint(lat=..., lng=...)``, fields
lat-first), while geometry tuples are axis-ordered ``(x=East/lng,
y=North/lat)`` -- the ``[lng, lat, t]`` R-tree boxes of Section V-A and
the ``(lng, lat)`` degree scales of Section V-B.  A swapped pair is
syntactically fine, numerically plausible near the equator, and
retrieval-breaking everywhere else.

The engine collects every function/constructor signature in the linted
tree; wherever a *positional* argument with a recognisable axis role
(``lat``-ish or ``lng``-ish name) lands in a parameter slot declared
with the *opposite* role, the call is flagged.  Keyword arguments are
checked the same way (``lat=point.lng``).  Callees whose same-named
signatures disagree about the slot roles are skipped rather than
guessed at.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    FunctionSignature,
    ModuleInfo,
    ProjectInfo,
    Violation,
    axis_role,
)

__all__ = ["RF002LatLngOrder"]


def _value_role(expr: ast.expr) -> str | None:
    """Axis role of an argument expression, when recognisable."""
    if isinstance(expr, ast.Name):
        return axis_role(expr.id)
    if isinstance(expr, ast.Attribute):
        return axis_role(expr.attr)
    if isinstance(expr, ast.Starred):
        return None
    return None


def _slot_roles(signatures: list[FunctionSignature]) -> list[str | None] | None:
    """Per-position roles all same-named signatures agree on, else None."""
    width = max(len(s.params) for s in signatures)
    roles: list[str | None] = []
    for i in range(width):
        slot: set[str | None] = set()
        for sig in signatures:
            if i < len(sig.params):
                slot.add(axis_role(sig.params[i]))
        if len(slot) != 1:
            return None
        roles.append(slot.pop())
    return roles


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class RF002LatLngOrder:
    """Swapped lat/lng positional or keyword arguments."""

    rule_id = "RF002"
    summary = "lat/lng argument order contradicts the callee's signature"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Check every call in the module against the signature registry."""
        out: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node.func)
            if name is None:
                continue
            signatures = project.signatures.get(name)
            if signatures:
                roles = _slot_roles(signatures)
                if roles is not None:
                    self._check_positional(node, name, roles, module, out)
            self._check_keywords(node, name, module, out)
        return out

    def _check_positional(self, node: ast.Call, name: str,
                          roles: list[str | None], module: ModuleInfo,
                          out: list[Violation]) -> None:
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred) or i >= len(roles):
                break
            want = roles[i]
            got = _value_role(arg)
            if want is None or got is None or want == got:
                continue
            out.append(Violation(
                rule_id=self.rule_id,
                path=str(module.path),
                line=arg.lineno,
                col=arg.col_offset,
                message=(
                    f"{name}() positional argument {i + 1} is declared "
                    f"{want}-like but receives a {got}-like value "
                    f"(lat/lng order swapped?)"
                ),
            ))

    def _check_keywords(self, node: ast.Call, name: str, module: ModuleInfo,
                        out: list[Violation]) -> None:
        for kw in node.keywords:
            if kw.arg is None:
                continue
            want = axis_role(kw.arg)
            got = _value_role(kw.value)
            if want is None or got is None or want == got:
                continue
            out.append(Violation(
                rule_id=self.rule_id,
                path=str(module.path),
                line=kw.value.lineno,
                col=kw.value.col_offset,
                message=(
                    f"{name}() keyword {kw.arg}= receives a {got}-like "
                    f"value (lat/lng swapped?)"
                ),
            ))
