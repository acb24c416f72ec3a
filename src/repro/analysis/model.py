"""Phase 1 of the cross-module analyzer: the whole-program model.

The per-file rules (RF001-RF008) see one module at a time; the
concurrency rules (RF009-RF013, ``docs/STATIC_ANALYSIS.md``) need the
*project* shape: which classes own locks, which attribute accesses run
under which locks, what calls what, where epochs bump.  This module
builds that shape once per lint invocation -- a :class:`ProjectModel`
assembled from every parsed :class:`~repro.analysis.engine.ModuleInfo`
-- and the phase-2 rules query it instead of re-walking ASTs.

The model is deliberately *syntactic*: no type inference, no aliasing.
A lock is an attribute assigned ``threading.Lock()`` (or ``RLock`` /
``Condition`` / ``Semaphore``, directly or inside a list built of
them); a guarded region is a ``with self.<lock>:`` block; an epoch
counter is a ``*epoch*``-named attribute initialised to an integer
constant in ``__init__``.  That syntactic discipline is exactly the
house style the runtime code follows (``shard/server.py``,
``obs/journal.py``), so the approximation is tight in practice -- and
where a component intentionally steps outside it (a lock-free epoch
read, a benign racy gauge), the finding is suppressed inline with a
justification rather than widening the model until the bug class
escapes with it.

**The fixpoint walker.**  Private helpers are routinely called with the
caller's lock already held (``_publish`` under ``_log_order`` in the
sharded router).  :func:`solve_guaranteed_locks` propagates that
context over the intra-class call graph: a private method's
*guaranteed* lock set is the intersection, over every intra-class call
site, of the locks held at that site plus the caller's own guarantee.
Public methods (callable from outside) are pinned to the empty set.
The transfer function is monotone on a finite lattice (subsets of the
class's lock names, intersection only shrinks), so iterating to
fixpoint terminates; the same walk also yields the transitive
lock-acquisition edges RF010 checks for cycles.

Indexed lock families (``self._stripes[i]`` over a list of lock
stripes) are canonicalised to ``"_stripes[*]"``: one name per family.  For
discipline (RF009) that is exact -- the family guards the family's
data.  For ordering (RF010) it is conservative: nesting two members of
one family is flagged as a cycle unless an explicit total order is
documented, which is precisely the scatter-gather deadlock the rule
exists to catch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:                                   # pragma: no cover
    from repro.analysis.engine import ModuleInfo, ProjectInfo

__all__ = [
    "AcquireSite",
    "AttrAccess",
    "BlockingSite",
    "CallSite",
    "ClassModel",
    "EpochBump",
    "InstrumentUse",
    "MethodModel",
    "ProjectModel",
    "build_model",
    "canonical_lock_name",
    "solve_guaranteed_locks",
]

#: Constructors whose result is a mutual-exclusion object.  ``self.x =
#: threading.Lock()`` (or a list comprehension of them) marks ``x`` as
#: a lock field.
_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Method names that mutate a container in place.  Calling one of these
#: on a ``self`` attribute is a *mutation* of that attribute for lock
#: discipline -- unlike arbitrary method calls (``.inc()``, ``.emit()``,
#: ``.observe()``), whose receivers (metric families, journals) are
#: internally synchronised by design (docs/OBSERVABILITY.md).
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "remove", "discard", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "move_to_end", "sort", "reverse", "delete",
})

#: Callables that block the calling thread: sleeping, process spawning,
#: synchronous I/O, joining other workers, or waiting on futures.  Any
#: of these inside a guarded region serialises unrelated work behind
#: the sleeper (RF012).
_BLOCKING_LAST = frozenset({
    "sleep", "join", "result", "shutdown", "wait", "acquire",
    "urlopen", "recv", "recvfrom", "accept", "connect", "sendall",
})
_BLOCKING_FIRST = frozenset({"subprocess", "requests", "socket", "urllib"})
_BLOCKING_BARE = frozenset({"open", "input"})

#: Instrument-binding callees (shared with RF008): a literal first
#: argument is a metric-family or span name.
_INSTRUMENT_KINDS = {
    "counter": "metric", "gauge": "metric", "histogram": "metric",
    "span": "span",
}


@dataclass(frozen=True)
class AttrAccess:
    """One touch of ``self.<attr>`` inside a method body.

    ``kind`` is ``"read"`` (Load), ``"write"`` (assignment rebinding the
    attribute), or ``"mutate"`` (in-place change: a mutator-method call,
    subscript store/delete, or augmented assignment through the
    attribute).  ``locks_held`` are the canonical lock names whose
    guarded regions lexically enclose the access.
    """

    attr: str
    kind: str
    line: int
    col: int
    locks_held: frozenset[str]


@dataclass(frozen=True)
class AcquireSite:
    """One ``with self.<lock>:`` entry and the locks already held there."""

    lock: str
    line: int
    col: int
    locks_held: frozenset[str]


@dataclass(frozen=True)
class CallSite:
    """One ``self.<method>(...)`` call and the locks held at the call."""

    method: str
    line: int
    col: int
    locks_held: frozenset[str]


@dataclass(frozen=True)
class BlockingSite:
    """One potentially blocking call and the locks held around it."""

    callee: str
    line: int
    col: int
    locks_held: frozenset[str]


@dataclass(frozen=True)
class EpochBump:
    """One increment of an epoch counter (``self._epoch += 1``)."""

    attr: str
    line: int
    col: int
    loop_depth: int


@dataclass(frozen=True)
class InstrumentUse:
    """One literal metric/span name bound at a call site (RF013)."""

    name: str
    kind: str            # "metric" | "span"
    callee: str          # counter / gauge / histogram / span
    modname: str
    path: str
    line: int
    col: int


@dataclass
class MethodModel:
    """Everything phase 2 needs to know about one function body."""

    name: str
    qualname: str
    line: int
    is_private: bool = False
    accesses: list[AttrAccess] = field(default_factory=list)
    acquires: list[AcquireSite] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[BlockingSite] = field(default_factory=list)
    epoch_bumps: list[EpochBump] = field(default_factory=list)
    #: Filled by the fixpoint: locks every intra-class caller guarantees.
    guaranteed_locks: frozenset[str] = frozenset()

    def locks_at(self, held: frozenset[str]) -> frozenset[str]:
        """Locks effectively held at a point: lexical plus guaranteed."""
        return held | self.guaranteed_locks


@dataclass
class ClassModel:
    """One class: its locks, epoch counters, attributes, and methods."""

    name: str
    qualname: str
    modname: str
    path: str
    line: int
    lock_attrs: set[str] = field(default_factory=set)
    #: lock attr -> factory name ("Lock", "RLock", ...); reentrancy for
    #: RF010's self-deadlock check.
    lock_kinds: dict[str, str] = field(default_factory=dict)
    epoch_attrs: set[str] = field(default_factory=set)
    methods: dict[str, MethodModel] = field(default_factory=dict)

    def is_reentrant(self, lock: str) -> bool:
        """True when re-acquiring ``lock`` on one thread cannot deadlock."""
        base = lock.split("[", 1)[0]
        return self.lock_kinds.get(base) == "RLock"

    def accesses_of(self, attr: str) -> Iterator[tuple[MethodModel, AttrAccess]]:
        """Every access of one attribute across the class's methods."""
        for method in self.methods.values():
            for access in method.accesses:
                if access.attr == attr:
                    yield method, access

    def attr_names(self) -> set[str]:
        """Every ``self.<attr>`` name the class touches anywhere."""
        return {a.attr for m in self.methods.values() for a in m.accesses}


@dataclass
class ProjectModel:
    """The phase-1 product: every class model plus project-wide facts."""

    classes: dict[str, ClassModel] = field(default_factory=dict)
    instrument_uses: list[InstrumentUse] = field(default_factory=list)

    def classes_in_module(self, modname: str) -> list[ClassModel]:
        """Class models defined by one module, in source order."""
        return sorted((c for c in self.classes.values()
                       if c.modname == modname), key=lambda c: c.line)


# ---------------------------------------------------------------------------
# lock-expression canonicalisation


def _attr_chain(expr: ast.expr) -> tuple[str, ...]:
    """``np.random.normal`` -> ("np", "random", "normal"); () otherwise."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def canonical_lock_name(expr: ast.expr) -> str | None:
    """Canonical name of a ``self``-owned lock expression, or None.

    ``self._lock`` -> ``"_lock"``; ``self._stripes[i]`` -> ``"_stripes[*]"``
    (one name per indexed family).  Anything not rooted at ``self`` is
    out of the model.
    """
    if isinstance(expr, ast.Subscript):
        base = canonical_lock_name(expr.value)
        return None if base is None else f"{base}[*]"
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return expr.attr
    return None


def _lock_factory_kind(expr: ast.expr) -> str | None:
    """Factory name when ``expr`` builds a lock (possibly inside a list)."""
    if isinstance(expr, ast.Call):
        chain = _attr_chain(expr.func)
        if chain and chain[-1] in _LOCK_FACTORIES:
            return chain[-1]
        return None
    if isinstance(expr, ast.ListComp):
        return _lock_factory_kind(expr.elt)
    if isinstance(expr, (ast.List, ast.Tuple)):
        kinds = [_lock_factory_kind(e) for e in expr.elts]
        if kinds and all(k is not None for k in kinds):
            return kinds[0]
        return None
    return None


def _is_epoch_name(attr: str) -> bool:
    from repro.analysis.engine import name_tokens
    return "epoch" in name_tokens(attr)


# ---------------------------------------------------------------------------
# per-function body walk


class _BodyWalker:
    """Walks one function body tracking held locks and loop depth.

    Nested function/class definitions are skipped: their bodies run
    under *their* callers' locks, not the enclosing method's.
    """

    def __init__(self, method: MethodModel, lock_attrs: set[str],
                 epoch_attrs: set[str]) -> None:
        self._m = method
        self._lock_attrs = lock_attrs
        self._epochs = epoch_attrs
        self._held: list[str] = []
        self._loop_depth = 0

    def _held_set(self) -> frozenset[str]:
        return frozenset(self._held)

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._expr(node.iter)
            self._loop_depth += 1
            self.walk(node.body)
            self._loop_depth -= 1
            self.walk(node.orelse)
            return
        if isinstance(node, ast.While):
            self._expr(node.test)
            self._loop_depth += 1
            self.walk(node.body)
            self._loop_depth -= 1
            self.walk(node.orelse)
            return
        if isinstance(node, ast.AugAssign):
            self._aug_assign(node)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._store_target(target)
            self._expr(node.value)
            return
        if isinstance(node, ast.AnnAssign):
            self._store_target(node.target)
            if node.value is not None:
                self._expr(node.value)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._store_target(target, deleting=True)
            return
        # Generic statement: recurse into child statements with the
        # current context, and scan embedded expressions.
        for child_field, value in ast.iter_fields(node):
            del child_field
            if isinstance(value, list):
                if all(isinstance(v, ast.stmt) for v in value) and value:
                    self.walk(value)
                else:
                    for v in value:
                        if isinstance(v, ast.expr):
                            self._expr(v)
                        elif isinstance(v, ast.stmt):
                            self._stmt(v)
                        elif isinstance(v, ast.excepthandler):
                            self.walk(v.body)
            elif isinstance(value, ast.expr):
                self._expr(value)
            elif isinstance(value, ast.stmt):
                self._stmt(value)

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            self._expr(item.context_expr, top_ctx="with")
            lock = canonical_lock_name(item.context_expr)
            base = lock.split("[", 1)[0] if lock else None
            if lock is not None and base in self._lock_attrs:
                self._m.acquires.append(AcquireSite(
                    lock=lock, line=item.context_expr.lineno,
                    col=item.context_expr.col_offset,
                    locks_held=self._held_set()))
                self._held.append(lock)
                acquired.append(lock)
        self.walk(node.body)
        for _ in acquired:
            self._held.pop()

    def _aug_assign(self, node: ast.AugAssign) -> None:
        target = node.target
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            if target.attr in self._epochs and isinstance(node.op, ast.Add):
                self._m.epoch_bumps.append(EpochBump(
                    attr=target.attr, line=node.lineno,
                    col=node.col_offset, loop_depth=self._loop_depth))
            else:
                self._access(target.attr, "mutate", node.lineno,
                             node.col_offset)
        elif isinstance(target, ast.Subscript):
            self._store_target(target)
        self._expr(node.value)

    def _store_target(self, target: ast.expr, deleting: bool = False) -> None:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self._access(target.attr, "write", target.lineno,
                         target.col_offset)
            return
        if isinstance(target, ast.Subscript):
            # self.x[k] = v / del self.x[k]: in-place mutation of x.
            inner = target.value
            if (isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"):
                self._access(inner.attr, "mutate", target.lineno,
                             target.col_offset)
            else:
                self._expr(target.value)
            self._expr(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store_target(elt, deleting=deleting)
            return
        if isinstance(target, ast.Starred):
            self._store_target(target.value, deleting=deleting)

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.expr, top_ctx: str | None = None) -> None:
        """Scan one expression tree.

        ``top_ctx`` marks how the *outermost* node is consumed:
        ``"with"`` for a context-manager expression, whose call is the
        manager's construction, not a blocking call.
        """
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub, top_ctx if sub is node else None)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.ctx, ast.Load)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id == "self"):
                self._access(sub.attr, "read", sub.lineno, sub.col_offset)

    def _call(self, node: ast.Call, top_ctx: str | None = None) -> None:
        func = node.func
        chain = _attr_chain(func)
        # self.attr.mutator(...): in-place mutation of the attribute.
        if (len(chain) == 3 and chain[0] == "self"
                and chain[2] in _MUTATOR_METHODS):
            self._access(chain[1], "mutate", node.lineno, node.col_offset)
        # self.method(...): intra-class call edge.
        if len(chain) == 2 and chain[0] == "self":
            self._m.calls.append(CallSite(
                method=chain[1], line=node.lineno, col=node.col_offset,
                locks_held=self._held_set()))
        # blocking calls (RF012): only interesting under a lock, but the
        # model records them unconditionally; the rule filters.
        blocked = self._blocking_name(chain, func)
        if blocked is not None and top_ctx != "with":
            self._m.blocking.append(BlockingSite(
                callee=blocked, line=node.lineno, col=node.col_offset,
                locks_held=self._held_set()))

    @staticmethod
    def _blocking_name(chain: tuple[str, ...],
                       func: ast.expr) -> str | None:
        if isinstance(func, ast.Name) and func.id in _BLOCKING_BARE:
            return func.id
        if not chain:
            return None
        if chain[0] in _BLOCKING_FIRST:
            return ".".join(chain)
        if chain[-1] in _BLOCKING_LAST and len(chain) >= 2:
            # Exclude lock methods on the class's own locks: acquiring
            # is RF010's domain, not blocking I/O.
            if chain[-1] == "acquire" and chain[0] == "self":
                return None
            return ".".join(chain)
        if chain[-1] == "submit" and len(chain) >= 2:
            return ".".join(chain)
        return None

    def _access(self, attr: str, kind: str, line: int, col: int) -> None:
        self._m.accesses.append(AttrAccess(
            attr=attr, kind=kind, line=line, col=col,
            locks_held=self._held_set()))


# ---------------------------------------------------------------------------
# class / module scans


def _scan_lock_and_epoch_attrs(cls_node: ast.ClassDef
                               ) -> tuple[dict[str, str], set[str]]:
    """Lock fields (attr -> factory) and epoch counters of a class body."""
    locks: dict[str, str] = {}
    epochs: set[str] = set()
    for method in cls_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                kind = _lock_factory_kind(node.value)
                if kind is not None:
                    locks[target.attr] = kind
                elif (method.name == "__init__"
                      and _is_epoch_name(target.attr)
                      and isinstance(node.value, ast.Constant)
                      and isinstance(node.value.value, int)
                      and not isinstance(node.value.value, bool)):
                    epochs.add(target.attr)
    return locks, epochs


def _build_class_model(module: "ModuleInfo",
                       cls_node: ast.ClassDef) -> ClassModel:
    lock_kinds, epochs = _scan_lock_and_epoch_attrs(cls_node)
    model = ClassModel(
        name=cls_node.name,
        qualname=f"{module.modname}.{cls_node.name}",
        modname=module.modname,
        path=str(module.path),
        line=cls_node.lineno,
        lock_attrs=set(lock_kinds),
        lock_kinds=lock_kinds,
        epoch_attrs=epochs,
    )
    for item in cls_node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        method = MethodModel(
            name=item.name,
            qualname=f"{model.qualname}.{item.name}",
            line=item.lineno,
            is_private=item.name.startswith("_") and not (
                item.name.startswith("__") and item.name.endswith("__")),
        )
        _BodyWalker(method, set(lock_kinds), epochs).walk(item.body)
        model.methods[item.name] = method
    return model


def _collect_instrument_uses(module: "ModuleInfo",
                             out: list[InstrumentUse]) -> None:
    """Literal metric/span names bound anywhere in one module (RF013)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.attr if isinstance(func, ast.Attribute)
                  else func.id if isinstance(func, ast.Name) else None)
        if callee not in _INSTRUMENT_KINDS:
            continue
        arg: ast.expr | None = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "name"), None)
        if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            out.append(InstrumentUse(
                name=arg.value, kind=_INSTRUMENT_KINDS[callee],
                callee=callee, modname=module.modname,
                path=str(module.path), line=arg.lineno,
                col=arg.col_offset))


def solve_guaranteed_locks(cls: ClassModel) -> None:
    """The fixpoint walker: propagate caller-held locks to callees.

    A method's *guaranteed* set is the lock context every possible
    caller provides.  Public methods (and dunders) are reachable from
    outside the class, so their guarantee is empty.  A private method
    with intra-class call sites starts at the top of the lattice (all
    canonical lock names the class ever acquires) and shrinks to the
    intersection over its call sites of ``locks held at the site``
    union ``the caller's own guarantee``.  Intersection is monotone
    downward on a finite lattice, so iteration terminates.

    A private method with *no* intra-class call site keeps an empty
    guarantee: the model cannot see its callers (it may be a callback),
    so it assumes none.
    """
    acquired = frozenset(
        a.lock for m in cls.methods.values() for a in m.acquires)
    callers: dict[str, list[tuple[MethodModel, CallSite]]] = {}
    for method in cls.methods.values():
        for call in method.calls:
            if call.method in cls.methods:
                callers.setdefault(call.method, []).append((method, call))

    guarantee: dict[str, frozenset[str]] = {}
    for name, method in cls.methods.items():
        if method.is_private and callers.get(name):
            guarantee[name] = acquired
        else:
            guarantee[name] = frozenset()

    changed = True
    while changed:
        changed = False
        for name, method in cls.methods.items():
            if not (method.is_private and callers.get(name)):
                continue
            new = None
            for caller, site in callers[name]:
                ctx = site.locks_held | guarantee[caller.name]
                new = ctx if new is None else (new & ctx)
            assert new is not None
            if new != guarantee[name]:
                guarantee[name] = new
                changed = True

    for name, method in cls.methods.items():
        method.guaranteed_locks = guarantee[name]


def build_model(project: "ProjectInfo") -> ProjectModel:
    """Assemble the whole-program model from every parsed module."""
    model = ProjectModel()
    for module in project.modules:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                cls = _build_class_model(module, node)
                solve_guaranteed_locks(cls)
                model.classes[cls.qualname] = cls
        _collect_instrument_uses(module, model.instrument_uses)
    return model
