"""RF001: no raw trig on degree-carrying values.

Azimuths, bearings, latitudes and apertures travel the codebase in
*degrees* (the compass convention of Eq. 1); ``math.sin``/``np.cos``
/etc. consume *radians*.  Feeding one to the other produces silently
wrong geometry -- the classic failure mode no end-to-end accuracy test
localises.  The rule flags any ``sin``/``cos``/``tan`` call whose
argument references a degree-carrying name (``theta``, ``bearing``,
``lat``, ``half_angle``, ...) without an explicit ``radians()`` /
``deg2rad()`` conversion.

A small forward dataflow pass keeps the rule quiet on the idiomatic
two-step form::

    lat1, lat2 = np.radians(p1.lat), np.radians(p2.lat)
    dlat = lat2 - lat1          # derived from converted values
    np.sin(dlat / 2.0)          # ok: dlat is radians-cleared

Names whose tokens say radians (``half_angle_rad``, ``phi_rads``) are
never flagged; a ``degrees()`` / ``rad2deg()`` assignment un-clears its
target again.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    ModuleInfo,
    ProjectInfo,
    Violation,
    is_degree_name,
)

__all__ = ["RF001DegreesIntoTrig"]

_TRIG = frozenset({"sin", "cos", "tan"})
_TRIG_MODULES = frozenset({"math", "np", "numpy"})
_TO_RAD = frozenset({"radians", "deg2rad"})
_TO_DEG = frozenset({"degrees", "rad2deg"})


def _called_name(func: ast.expr) -> str | None:
    """Final callable name of ``math.sin`` / ``np.radians`` / ``sin``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_trig_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr in _TRIG
                and isinstance(func.value, ast.Name)
                and func.value.id in _TRIG_MODULES)
    return isinstance(func, ast.Name) and func.id in _TRIG


def _contains_call_to(expr: ast.expr, names: frozenset[str]) -> bool:
    return any(
        isinstance(n, ast.Call) and _called_name(n.func) in names
        for n in ast.walk(expr)
    )


def _degree_refs(expr: ast.expr, cleared: set[str]) -> list[str]:
    """Degree-carrying identifiers referenced by ``expr`` and not cleared.

    Plain names are exempt when radians-cleared by the dataflow pass;
    attribute references (``self.half_angle``) are judged by their final
    attribute name alone.
    """
    refs: list[str] = []
    for n in ast.walk(expr):
        if isinstance(n, ast.Name):
            if is_degree_name(n.id) and n.id not in cleared:
                refs.append(n.id)
        elif isinstance(n, ast.Attribute):
            if is_degree_name(n.attr):
                refs.append(n.attr)
    return refs


def _clears_value(value: ast.expr, cleared: set[str]) -> bool:
    """True when ``value`` evaluates to radians-safe data."""
    if _contains_call_to(value, _TO_RAD):
        return True
    # Derived purely from already-cleared degree names (dlat = lat2 - lat1):
    # every degree-named reference must be cleared, and at least one
    # cleared reference must justify the clearing.
    names = [n.id for n in ast.walk(value) if isinstance(n, ast.Name)]
    degree_names = [n for n in names if is_degree_name(n)]
    if degree_names and all(n in cleared for n in degree_names):
        return True
    return False


class RF001DegreesIntoTrig:
    """Degree-carrying names must pass through ``radians()`` before trig."""

    rule_id = "RF001"
    summary = "raw sin/cos/tan applied to a degree-carrying value"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Scan every scope of the module with a forward dataflow pass."""
        out: list[Violation] = []
        scopes: list[list[ast.stmt]] = [list(module.tree.body)]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(list(node.body))
        for body in scopes:
            self._scan_scope(body, module, out)
        return out

    def _scan_scope(self, body: list[ast.stmt], module: ModuleInfo,
                    out: list[Violation]) -> None:
        cleared: set[str] = set()
        for stmt in body:
            # Nested defs get their own scope via check(); skip re-walking.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            self._scan_stmt(stmt, cleared, module, out)

    def _scan_stmt(self, stmt: ast.stmt, cleared: set[str],
                   module: ModuleInfo, out: list[Violation]) -> None:
        # Flag trig misuse inside this statement first (against the
        # dataflow state *before* its own assignments take effect).
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, ast.Call) and _is_trig_call(node) and node.args:
                arg = node.args[0]
                if _contains_call_to(arg, _TO_RAD):
                    continue
                refs = _degree_refs(arg, cleared)
                if refs:
                    out.append(Violation(
                        rule_id=self.rule_id,
                        path=str(module.path),
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{_called_name(node.func)}() applied to "
                            f"degree-carrying {sorted(set(refs))} without "
                            f"an explicit radians() conversion"
                        ),
                    ))
        self._apply_assignments(stmt, cleared)

    def _apply_assignments(self, stmt: ast.stmt, cleared: set[str]) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._assign(target, node.value, cleared)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._assign(node.target, node.value, cleared)

    def _assign(self, target: ast.expr, value: ast.expr,
                cleared: set[str]) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                and len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                self._assign(t, v, cleared)
            return
        names = ([target.id] if isinstance(target, ast.Name)
                 else [e.id for e in getattr(target, "elts", [])
                       if isinstance(e, ast.Name)])
        if not names:
            return
        if _contains_call_to(value, _TO_DEG):
            cleared.difference_update(names)
        elif _clears_value(value, cleared):
            cleared.update(names)
        else:
            cleared.difference_update(names)
