"""RF013: every literal instrument name matches the catalog, exactly once.

RF008 guarantees metric/span names are authoring-time literals; RF013
closes the loop by checking those literals against the declared
catalog (:mod:`repro.obs.catalog`).  The drift shapes it catches:

* **unknown name** -- a call site binds ``"cache.hit"`` but the
  catalog (and every dashboard built from it) says ``"cache.hits"``.
  Typos ship as permanently-empty panels otherwise.
* **kind drift** -- the catalog declares a family as a ``counter`` but
  a call site binds it with ``.gauge()``: same name, incompatible
  semantics, and whichever registers second wins silently.
* **duplicate registration** -- one metric family bound at two call
  sites.  Families are process-wide singletons; a second binding site
  means two modules both believe they own the family's semantics.
  (Spans are *uses*, not registrations -- any number of sites may
  enter the same span.)
* **dead entry** -- a catalog row no instrumented code emits any
  more.  Anchored at the entry's own line in the catalog module, and
  only checked when the catalog is linted as part of a multi-module
  run (linting the catalog file alone would mark everything dead).

The catalog is read straight from the AST of ``repro.obs.catalog``
when that module is part of the lint run (the normal full-tree case);
otherwise the rule imports it, so single-file runs still validate
names.  If neither works (a vendored subset without the catalog), the
rule is inert rather than noisy.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation
from repro.analysis.model import InstrumentUse

__all__ = ["RF013RegistrationDrift"]

_CATALOG_MODNAME = "repro.obs.catalog"


@dataclass
class _Catalog:
    """The declared instrument namespace plus AST anchor lines."""

    metrics: dict[str, str] = field(default_factory=dict)   # name -> kind
    spans: set[str] = field(default_factory=set)
    #: name -> line in the catalog module, when parsed from source.
    lines: dict[str, int] = field(default_factory=dict)
    from_source: bool = False


def _literal_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _parse_catalog(module: ModuleInfo) -> _Catalog:
    """Extract METRICS/SPANS literal dicts from the catalog module AST."""
    cat = _Catalog(from_source=True)
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if not names & {"METRICS", "SPANS"} or not isinstance(value, ast.Dict):
            continue
        for key, val in zip(value.keys, value.values):
            name = _literal_str(key) if key is not None else None
            if name is None:
                continue
            cat.lines[name] = key.lineno           # type: ignore[union-attr]
            if "SPANS" in names:
                cat.spans.add(name)
            elif (isinstance(val, ast.Tuple) and val.elts
                    and (kind := _literal_str(val.elts[0])) is not None):
                cat.metrics[name] = kind
    return cat


def _load_catalog(project: ProjectInfo) -> _Catalog | None:
    for module in project.modules:
        if module.modname == _CATALOG_MODNAME:
            return _parse_catalog(module)
    try:
        from repro.obs import catalog
    except ImportError:                            # pragma: no cover
        return None
    cat = _Catalog()
    cat.metrics = {name: kind for name, (kind, _) in catalog.METRICS.items()}
    cat.spans = set(catalog.SPANS)
    return cat


class RF013RegistrationDrift:
    """Instrument names drift from the declared catalog."""

    rule_id = "RF013"
    summary = "metric/span name unknown, kind-drifted, duplicated, or dead"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Check this module's literal instrument uses against the catalog."""
        if not module.in_package("repro"):
            return []
        catalog = _load_catalog(project)
        if catalog is None:
            return []
        model = project.model()
        if module.modname == _CATALOG_MODNAME:
            return self._dead_entries(module, project, catalog)
        out: list[Violation] = []
        registrations: dict[str, list[InstrumentUse]] = {}
        for use in model.instrument_uses:
            if use.kind == "metric" and use.modname != _CATALOG_MODNAME:
                registrations.setdefault(use.name, []).append(use)
        for use in model.instrument_uses:
            if use.path != str(module.path):
                continue
            if use.kind == "span":
                if use.name not in catalog.spans:
                    out.append(self._v(module, use,
                                       f"span name '{use.name}' is not "
                                       f"declared in {_CATALOG_MODNAME}; "
                                       f"typo or missing catalog entry"))
                continue
            declared = catalog.metrics.get(use.name)
            if declared is None:
                out.append(self._v(module, use,
                                   f"metric family '{use.name}' is not "
                                   f"declared in {_CATALOG_MODNAME}; typo "
                                   f"or missing catalog entry"))
            elif declared != use.callee:
                out.append(self._v(module, use,
                                   f"metric family '{use.name}' is declared "
                                   f"as a {declared} but bound with "
                                   f".{use.callee}() here"))
            sites = sorted(registrations.get(use.name, ()),
                           key=lambda u: (u.path, u.line, u.col))
            if len(sites) > 1 and (use.path, use.line, use.col) != (
                    sites[0].path, sites[0].line, sites[0].col):
                out.append(self._v(module, use,
                                   f"metric family '{use.name}' is already "
                                   f"bound at {sites[0].path}:"
                                   f"{sites[0].line}; families are "
                                   f"process-wide singletons with one "
                                   f"registration site"))
        return out

    def _dead_entries(self, module: ModuleInfo, project: ProjectInfo,
                      catalog: _Catalog) -> list[Violation]:
        if len(project.modules) <= 1 or not catalog.from_source:
            return []
        model = project.model()
        used = {(u.kind, u.name) for u in model.instrument_uses
                if u.modname != _CATALOG_MODNAME}
        # A partial-tree lint (one subpackage) legitimately misses most
        # call sites; a real regression deletes instruments one at a
        # time.  Only report dead entries when the run sees the
        # majority of the catalog alive.
        total = len(catalog.metrics) + len(catalog.spans)
        if total and len(used) * 2 < total:
            return []
        out: list[Violation] = []
        for kind, names in (("metric", catalog.metrics.keys()),
                            ("span", catalog.spans)):
            for name in sorted(names):
                if (kind, name) not in used:
                    out.append(Violation(
                        rule_id=self.rule_id, path=str(module.path),
                        line=catalog.lines.get(name, 1), col=0,
                        message=(f"catalog entry '{name}' ({kind}) has no "
                                 f"call site left -- delete the row or "
                                 f"restore the instrumentation")))
        return out

    def _v(self, module: ModuleInfo, use: InstrumentUse,
           message: str) -> Violation:
        return Violation(rule_id=self.rule_id, path=str(module.path),
                         line=use.line, col=use.col, message=message)
