"""The fovlint engine: file discovery, parsing, rule dispatch, reporting.

A *rule* is an object with a ``rule_id``, a one-line ``summary`` and a
``check(module, project)`` method returning :class:`Violation` rows.
The engine parses every file once into a :class:`ModuleInfo`, bundles
them into a :class:`ProjectInfo` (which also carries the cross-file
signature registry used by the lat/lng order rule), runs every rule
over every module, and drops violations suppressed by an inline
``# fovlint: disable=RF00x`` comment on the offending line.

Scoping: rules that only make sense inside specific packages (e.g. the
determinism rule for ``repro.core``/``repro.spatial`` hot paths) read
the module's dotted name, which the engine derives from the file path
(``.../src/repro/core/fov.py`` -> ``repro.core.fov``).  A file outside
the package tree -- such as a test fixture -- can opt in with a
``# fovlint: module=repro.core.fixture`` comment near the top.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

if TYPE_CHECKING:                                   # pragma: no cover
    from repro.analysis.model import ProjectModel

__all__ = [
    "FunctionSignature",
    "LintReport",
    "ModuleInfo",
    "ProjectInfo",
    "Rule",
    "Violation",
    "all_rules",
    "axis_role",
    "build_project",
    "discover_files",
    "is_degree_name",
    "lint_paths",
    "lint_source",
    "name_tokens",
    "parse_module",
    "run_lint",
]

_DISABLE_RE = re.compile(r"#\s*fovlint:\s*disable=([A-Z0-9, ]+)")
# Anchored at line start so prose merely *mentioning* the pragma (like
# this engine's own docstring) cannot override a module's name.
_MODULE_RE = re.compile(r"^\s*#\s*fovlint:\s*module=([A-Za-z0-9_.]+)",
                        re.MULTILINE)

#: Name fragments that mark a value as carrying degrees or an axis role.
#: A name is split into lowercase tokens on underscores and digits; one
#: matching token is enough.  ``*_rad``-style tokens mark the opposite.
DEGREE_TOKENS = frozenset({
    "deg", "degs", "degree", "degrees",
    "theta", "thetas", "azimuth", "azimuths", "bearing", "bearings",
    "heading", "headings", "angle", "angles", "alpha",
    "lat", "lats", "lng", "lngs", "lon", "lons",
})
RADIAN_TOKENS = frozenset({"rad", "rads", "radian", "radians"})
LAT_TOKENS = frozenset({"lat", "lats", "latitude", "latitudes"})
LNG_TOKENS = frozenset({"lng", "lngs", "lon", "lons", "longitude",
                        "longitudes"})

_TOKEN_SPLIT = re.compile(r"[_\d]+")


def name_tokens(name: str) -> tuple[str, ...]:
    """Lowercase identifier tokens: ``half_angle_rad`` -> (half, angle, rad)."""
    return tuple(t for t in _TOKEN_SPLIT.split(name.lower()) if t)


def is_degree_name(name: str) -> bool:
    """True when the identifier reads as degree-carrying (and not radians)."""
    tokens = name_tokens(name)
    if any(t in RADIAN_TOKENS for t in tokens):
        return False
    return any(t in DEGREE_TOKENS for t in tokens)


def axis_role(name: str) -> str | None:
    """``"lat"``, ``"lng"`` or None for an identifier's coordinate role."""
    tokens = name_tokens(name)
    is_lat = any(t in LAT_TOKENS for t in tokens)
    is_lng = any(t in LNG_TOKENS for t in tokens)
    if is_lat == is_lng:       # neither, or a name claiming both
        return None
    return "lat" if is_lat else "lng"


@dataclass(frozen=True)
class Violation:
    """One finding: rule, location and an actionable message."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """Conventional ``path:line:col: RULE message`` line."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")


@dataclass(frozen=True)
class FunctionSignature:
    """Positional parameter names of one collected def/class constructor."""

    qualname: str
    params: tuple[str, ...]


@dataclass
class ModuleInfo:
    """One parsed source file plus lint metadata."""

    path: Path
    source: str
    tree: ast.Module
    modname: str
    suppressed: dict[int, frozenset[str]] = field(default_factory=dict)

    def in_package(self, *packages: str) -> bool:
        """True when the module lives under any dotted package prefix."""
        return any(self.modname == p or self.modname.startswith(p + ".")
                   for p in packages)


@dataclass
class ProjectInfo:
    """All modules of one lint invocation plus the signature registry.

    ``signatures`` maps a simple callable name (function, method, or
    class) to every positional-parameter tuple collected for it across
    the project -- the cross-file knowledge the lat/lng argument-order
    rule checks call sites against.
    """

    modules: list[ModuleInfo]
    signatures: dict[str, list[FunctionSignature]] = field(default_factory=dict)
    _model: "ProjectModel | None" = field(default=None, repr=False,
                                          compare=False)

    def model(self) -> "ProjectModel":
        """The phase-1 cross-module model, built once on first demand.

        Per-file rules never pay for it; the concurrency rules
        (RF009-RF013) all share the one instance.
        """
        if self._model is None:
            from repro.analysis.model import build_model
            self._model = build_model(self)
        return self._model


class Rule(Protocol):
    """The interface every RF rule implements."""

    rule_id: str
    summary: str

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Return violations of this rule within one module."""
        ...


def all_rules() -> list[Rule]:
    """Fresh instances of the RF rules (RF001-RF015), in id order."""
    from repro.analysis.rules import RULES
    return [cls() for cls in RULES]


def _derive_modname(path: Path) -> str:
    """Dotted module name from a path, anchored at a ``repro`` component."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return ".".join(parts[i:])
    return parts[-1] if parts else ""


def _collect_pragmas(source: str) -> tuple[dict[int, frozenset[str]], str | None]:
    """Per-line rule suppressions and the optional module-name override."""
    suppressed: dict[int, frozenset[str]] = {}
    override: str | None = None
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _DISABLE_RE.search(line)
        if m:
            ids = frozenset(s.strip() for s in m.group(1).split(",") if s.strip())
            suppressed[lineno] = ids
        m = _MODULE_RE.search(line)
        if m and override is None:
            override = m.group(1)
    return suppressed, override


def parse_module(path: Path, source: str | None = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    text = path.read_text(encoding="utf-8") if source is None else source
    tree = ast.parse(text, filename=str(path))
    suppressed, override = _collect_pragmas(text)
    modname = override if override is not None else _derive_modname(path)
    return ModuleInfo(path=path, source=text, tree=tree, modname=modname,
                      suppressed=suppressed)


def _param_names(args: ast.arguments) -> tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _collect_signatures(project: ProjectInfo) -> None:
    """Fill the signature registry from every def and dataclass-like class."""

    def add(name: str, qualname: str, params: tuple[str, ...]) -> None:
        project.signatures.setdefault(name, []).append(
            FunctionSignature(qualname=qualname, params=params))

    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node.name, f"{module.modname}.{node.name}",
                    _param_names(node.args))
            elif isinstance(node, ast.ClassDef):
                init = next(
                    (n for n in node.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and n.name == "__init__"),
                    None,
                )
                if init is not None:
                    add(node.name, f"{module.modname}.{node.name}",
                        _param_names(init.args))
                    continue
                # No __init__: treat annotated class-body assignments as
                # dataclass fields in declaration order.
                fields = tuple(
                    n.target.id for n in node.body
                    if isinstance(n, ast.AnnAssign)
                    and isinstance(n.target, ast.Name)
                    and not n.target.id.startswith("_")
                )
                if fields:
                    add(node.name, f"{module.modname}.{node.name}", fields)


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        if p.is_dir():
            out.update(q for q in p.rglob("*.py") if q.is_file())
        elif p.suffix == ".py" and p.is_file():
            out.add(p)
        else:
            raise FileNotFoundError(f"no such python file or directory: {p}")
    return sorted(out)


def build_project(files: Iterable[Path]) -> ProjectInfo:
    """Parse all files and assemble the cross-file project view."""
    modules = [parse_module(f) for f in files]
    project = ProjectInfo(modules=modules)
    _collect_signatures(project)
    return project


@dataclass
class LintReport:
    """Outcome of one lint invocation."""

    violations: list[Violation]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = [v.format() for v in self.violations]
        lines.append(
            f"fovlint: {len(self.violations)} violation(s) in "
            f"{self.files_checked} file(s) "
            f"[rules: {', '.join(self.rules_run)}]"
        )
        return "\n".join(lines)


def _run_rules(project: ProjectInfo, rules: Sequence[Rule]) -> list[Violation]:
    out: list[Violation] = []
    for module in project.modules:
        for rule in rules:
            for v in rule.check(module, project):
                if rule.rule_id in module.suppressed.get(v.line, frozenset()):
                    continue
                out.append(v)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return out


def _select_rules(select: Sequence[str] | None) -> list[Rule]:
    rules = all_rules()
    if select is None:
        return rules
    wanted = set(select)
    unknown = wanted - {r.rule_id for r in rules}
    if unknown:
        raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    return [r for r in rules if r.rule_id in wanted]


def lint_paths(paths: Sequence[Path | str],
               select: Sequence[str] | None = None) -> LintReport:
    """Lint files/directories; the main programmatic entry point."""
    rules = _select_rules(select)
    files = discover_files([Path(p) for p in paths])
    project = build_project(files)
    return LintReport(
        violations=_run_rules(project, rules),
        files_checked=len(files),
        rules_run=tuple(r.rule_id for r in rules),
    )


def lint_source(source: str, modname: str = "repro.core.snippet",
                select: Sequence[str] | None = None) -> list[Violation]:
    """Lint one in-memory snippet (unit-test helper).

    ``modname`` places the snippet inside a package so scoped rules
    apply; pass a name outside ``repro.*`` to test scoping itself.
    """
    rules = _select_rules(select)
    module = parse_module(Path("<snippet>.py"), source=source)
    if _MODULE_RE.search(source) is None:
        module.modname = modname
    project = ProjectInfo(modules=[module])
    _collect_signatures(project)
    return _run_rules(project, rules)


def run_lint(paths: Sequence[Path | str],
             select: Sequence[str] | None = None,
             *,
             output_format: str = "text") -> int:
    """CLI-shaped runner: print the report, return a process exit code.

    Exit codes are explicit and stable: ``0`` clean, ``1`` any finding,
    ``2`` engine error (bad paths, syntax error, unknown rule/format).
    The only way to suppress a finding is an inline
    ``# fovlint: disable=RFxxx`` pragma.

    ``output_format`` selects ``text`` (human report) or ``json`` (one
    object per finding).
    """
    import json as _json

    if output_format not in ("text", "json"):
        print(f"fovlint: error: unknown format {output_format!r} "
              f"(choose from text, json)")
        return 2
    try:
        report = lint_paths(paths, select)
    except (FileNotFoundError, ValueError, SyntaxError) as exc:
        print(f"fovlint: error: {exc}")
        return 2

    if output_format == "json":
        rows = [{"rule": v.rule_id, "path": v.path, "line": v.line,
                 "col": v.col, "message": v.message}
                for v in report.violations]
        print(_json.dumps(rows, indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1
