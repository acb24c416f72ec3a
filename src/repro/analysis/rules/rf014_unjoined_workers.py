"""RF014: every worker created must have a reachable join/shutdown.

A ``Thread`` nobody joins outlives the test that spawned it and fails
some *other* test's assertion; a ``ProcessPoolExecutor`` nobody shuts
down leaks OS processes until the interpreter dies -- on the ingest
path that is one leaked pool per server restart.  The house pattern:
bind the executor to an attribute at creation, and shut it down in the
owner's ``close()`` (plus any restart path).

The model records three worker lifecycle facts per function body:
*create* (a ``Thread``/``Timer``/``ThreadPoolExecutor``/
``ProcessPoolExecutor``/``Pool`` construction, bound to a local, an
attribute, or nothing), *release* (a ``.join()``/``.shutdown()``/
``.terminate()``/``.close()`` on a named receiver), and *context* (the
constructor used directly as a ``with`` manager, which releases
itself).  The rule then demands:

* an **unbound** construction (``Thread(target=f).start()``) is always
  flagged -- no name means no possible join;
* a **local**-bound worker must be released somewhere in the same
  function (the model is not flow-sensitive: a release on any path
  counts, a factory that intentionally *returns* the worker carries a
  suppression naming the owner);
* a **``self.``-bound** worker must be released by *some* method of
  the same class -- creation in ``__init__`` or a restart helper,
  release in ``close()``, matches the house pattern.
"""

from __future__ import annotations

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation
from repro.analysis.model import MethodModel

__all__ = ["RF014UnjoinedWorkers"]


class RF014UnjoinedWorkers:
    """Worker/executor with no reachable join, shutdown, or context exit."""

    rule_id = "RF014"
    summary = "thread or pool created without a reachable join/shutdown"
    severity = "error"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag worker creations with no matching release site."""
        if not module.in_package("repro"):
            return []
        out: list[Violation] = []
        model = project.model()
        for cls in model.classes_in_module(module.modname):
            if cls.path != str(module.path):
                continue
            class_releases = {w.target for m in cls.methods.values()
                              for w in m.workers if w.kind == "release"}
            for method in cls.methods.values():
                self._check_body(module, method, f"'{cls.name}.{method.name}'",
                                 class_releases, out)
        prefix = f"{module.modname}."
        for qualname, fn in model.functions.items():
            if qualname == prefix + fn.name:
                self._check_body(module, fn, f"'{fn.name}'", set(), out)
        return out

    def _check_body(self, module: ModuleInfo, method: MethodModel, where: str,
                    class_releases: set[str], out: list[Violation]) -> None:
        local_releases = {w.target for w in method.workers
                          if w.kind == "release"}
        for site in method.workers:
            if site.kind != "create":
                continue
            if site.target == "":
                message = (f"worker constructed in {where} without binding "
                           f"it to a name -- nothing can ever join or shut "
                           f"it down")
            elif site.target.startswith("self."):
                if site.target in class_releases:
                    continue
                message = (f"'{site.target}' is created in {where} but no "
                           f"method of the class joins or shuts it down; "
                           f"release it in close()")
            else:
                if site.target in local_releases:
                    continue
                message = (f"local worker '{site.target}' created in "
                           f"{where} is never joined or shut down in the "
                           f"same function (if it intentionally escapes, "
                           f"suppress and name the owner)")
            out.append(Violation(
                rule_id=self.rule_id, path=str(module.path),
                line=site.line, col=site.col, message=message))
