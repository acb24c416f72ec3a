"""RF003: the public surface of core packages is declared in ``__all__``.

``repro.geometry``, ``repro.core`` and ``repro.spatial`` are the layers
other packages (and downstream users) build on; their modules must keep
``__all__`` exact.  Three failure modes are flagged:

* a public top-level function or class missing from ``__all__`` (the
  ``scalar_similarity`` drift this rule was born from -- imported by two
  other modules yet undeclared);
* an ``__all__`` entry that no longer exists in the module (stale after
  a rename);
* an underscore-private name listed in ``__all__``.

Modules with no public definitions (pure re-export ``__init__`` files
included) are exempt from the "must define ``__all__``" requirement.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation

__all__ = ["RF003PublicInAll"]

_SCOPED_PACKAGES = ("repro.geometry", "repro.core", "repro.spatial")


def _declared_all(tree: ast.Module) -> tuple[list[str], int] | None:
    """The ``__all__`` list literal and its line, or None if absent."""
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = [e.value for e in value.elts
                             if isinstance(e, ast.Constant)
                             and isinstance(e.value, str)]
                    return names, node.lineno
    return None


def _top_level_names(tree: ast.Module) -> set[str]:
    """Every name bound at module top level (defs, classes, assigns, imports)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Tuple):
                    names.update(e.id for e in target.elts
                                 if isinstance(e, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


class RF003PublicInAll:
    """Public defs must be exported; ``__all__`` must not drift."""

    rule_id = "RF003"
    summary = "public definition missing from __all__, or stale __all__ entry"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Compare top-level definitions against the declared ``__all__``."""
        if not module.in_package(*_SCOPED_PACKAGES):
            return []
        out: list[Violation] = []
        declared = _declared_all(module.tree)
        public_defs = [
            node for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")
        ]
        if declared is None:
            if public_defs:
                out.append(Violation(
                    rule_id=self.rule_id, path=str(module.path),
                    line=1, col=0,
                    message=(
                        f"module defines public names "
                        f"{sorted(n.name for n in public_defs)} but no "
                        f"__all__"
                    ),
                ))
            return out
        names, all_line = declared
        exported = set(names)
        for node in public_defs:
            if node.name not in exported:
                out.append(Violation(
                    rule_id=self.rule_id, path=str(module.path),
                    line=node.lineno, col=node.col_offset,
                    message=f"public {node.name!r} is missing from __all__",
                ))
        bound = _top_level_names(module.tree)
        for name in names:
            if name.startswith("_"):
                out.append(Violation(
                    rule_id=self.rule_id, path=str(module.path),
                    line=all_line, col=0,
                    message=f"__all__ exports underscore-private {name!r}",
                ))
            elif name not in bound:
                out.append(Violation(
                    rule_id=self.rule_id, path=str(module.path),
                    line=all_line, col=0,
                    message=f"__all__ lists {name!r} which the module "
                            f"does not define",
                ))
        return out
