"""RF007: no bare ``struct.unpack`` on wire payloads outside the protocol.

Every byte that crosses the network must enter through
:mod:`repro.net.protocol`'s validated decoders: length-prefixed
framing, CRC32 bundle and record checksums, and semantic range checks
(``docs/PROTOCOL.md``).  A bare ``struct.unpack`` on a payload
anywhere else bypasses all of that -- it either crashes on truncation
with the wrong exception type or silently trusts corrupt bytes.

The rule flags any call whose callee ends in ``unpack`` /
``unpack_from`` / ``iter_unpack`` (module function or ``Struct``
method alike) when one of its arguments is named like a wire buffer
(``payload``, ``packet``, ``bundle``, ``frame``, ...), in every
``repro.*`` module except ``repro.net.protocol`` itself.  Unpacking a
local, non-network buffer under a different name (e.g. a file ``blob``
whose integrity is covered elsewhere) is deliberately out of scope.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation, name_tokens

__all__ = ["RF007RawWireUnpack"]

_EXEMPT_MODULES = frozenset({"repro.net.protocol"})
_UNPACK_NAMES = frozenset({"unpack", "unpack_from", "iter_unpack"})
_PAYLOAD_TOKENS = frozenset({
    "payload", "payloads", "packet", "packets", "bundle", "bundles",
    "wire", "frame", "frames", "datagram", "datagrams", "msg", "message",
    "messages",
})


def _callee_name(func: ast.expr) -> str | None:
    """Final attribute/function name of a call target, if resolvable."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_payloadish(expr: ast.expr) -> bool:
    """True when an argument reads as a wire buffer (incl. slices of one)."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return any(t in _PAYLOAD_TOKENS for t in name_tokens(name))


class RF007RawWireUnpack:
    """Wire payloads must be decoded by repro.net.protocol, nowhere else."""

    rule_id = "RF007"
    summary = "bare struct.unpack on a wire payload outside net/protocol"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag unpack calls fed a payload-named buffer."""
        if module.modname in _EXEMPT_MODULES or not module.in_package("repro"):
            return []
        out: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node.func)
            if callee not in _UNPACK_NAMES:
                continue
            if not any(_is_payloadish(a) for a in node.args):
                continue
            out.append(Violation(
                rule_id=self.rule_id,
                path=str(module.path),
                line=node.lineno,
                col=node.col_offset,
                message=(f"{callee} on a wire payload bypasses the "
                         f"validated decoders (framing, CRC32, range "
                         f"checks); route it through repro.net.protocol"),
            ))
        return out
