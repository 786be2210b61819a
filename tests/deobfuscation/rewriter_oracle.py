"""The AST rewrite of the de-obfuscation engine, kept as the reference.

:func:`repro.deobfuscation.deobfuscate` used to build a folded copy of
the module's AST (``_Rewriter``), drop unreferenced decoders and consts
from it (``_drop_unreferenced``) and print it with the unparser
(:mod:`tests.vba.unparser_oracle`).  It now splices the same folds into
the input text.  :func:`deobfuscate` here is that previous path over the
production ``_Recorder``; its output is the normal form the splice is
compared with.  Kept verbatim apart from the tolerant parse's entry
point (:func:`~repro.vba.parser.parse_tolerant`); do not "fix" it.
"""

from __future__ import annotations

import math
from operator import attrgetter

from repro.deobfuscation.engine import (
    DEEP_SA_BUDGET,
    DeobfuscationReport,
    DeobfuscationResult,
    _Recorder,
)
from repro.sa.domain import TOP
from repro.vba import ast_nodes as ast
from repro.vba.parser import parse_tolerant
from tests.vba.unparser_oracle import unparse_module

_NODES = frozenset({
    ast.Literal, ast.Name, ast.Call, ast.MemberAccess, ast.BinOp, ast.UnaryOp,
    ast.DimStmt, ast.ConstStmt, ast.Assign, ast.IfStmt, ast.ForStmt,
    ast.ForEachStmt, ast.DoLoopStmt, ast.WithStmt, ast.ExitStmt,
    ast.CallStmt, ast.NoOpStmt, ast.Procedure,
})

#: Positions that must stay an expression of their own kind: a call
#: statement's callee, an assignment target, a member's base, a With
#: subject.  Their parts are still rewritten.
_FIXED = {
    (ast.CallStmt, "call"),
    (ast.Assign, "target"),
    (ast.MemberAccess, "base"),
    (ast.WithStmt, "subject"),
}

#: Per node type, its fields in ``__slots__`` order, and whether each may
#: be replaced by a literal.
_FIELDS = {kind: attrgetter(*kind.__slots__) for kind in _NODES}
_REPLACEABLE = {
    kind: tuple((kind, name) not in _FIXED for name in kind.__slots__)
    for kind in _NODES
}

_UNSEEN = object()



def deobfuscate(source: str) -> DeobfuscationResult:
    """Statically simplify one module; total on every input."""
    report = DeobfuscationReport()
    parsed = parse_tolerant(source)
    module = parsed.module
    if module is None:
        report.parsed = False
        report.error = str(parsed.error or "nesting too deep to parse")
        return DeobfuscationResult(source=source, report=report)
    recorder = _Recorder(module, DEEP_SA_BUDGET)
    recorder.run()
    recovery = recorder.result()
    report.recovered_strings = recovery.values()
    if recorder.finished < len(module.procedures):
        reason = recovery.exhausted_reason or "exit outside a procedure"
        report.error = f"analysis cut short ({reason}); nothing rewritten"
        return DeobfuscationResult(source=source, report=report)
    rewritten = _Rewriter(recorder, report).module(module)
    return DeobfuscationResult(source=unparse_module(rewritten), report=report)



class _Rewriter:
    """Maps the analysed module to its folded form."""

    def __init__(self, recorder: _Recorder, report: DeobfuscationReport) -> None:
        self._values = recorder.values
        self._effects = recorder.effects
        self._fold = recorder._fold_binop
        self._procedures = recorder.module.procedures
        self._report = report
        self._evaluated: set[str] = set()

    def module(self, module: ast.Module) -> ast.Module:
        new = ast.Module(
            {key: self._node(procedure) for key, procedure in module.procedures.items()},
            list(self._node(tuple(module.module_statements))),
        )
        removed, consts = _drop_unreferenced(new, self._evaluated)
        self._report.procedures_removed = removed
        self._report.consts_inlined = consts
        return new

    def _node(self, node, replaceable: bool = True):
        """Rewrite ``node``.  Parts in ``_FIXED`` positions are rewritten
        inside but never replaced by a literal."""
        # map() adds no frame per level, so nesting the parser accepted
        # (it spends at least as many frames per level) rewrites.
        kind = type(node)
        if kind is tuple:
            return tuple(map(self._node, node))
        if kind is ast.BinOp:
            return self._spine(node) if replaceable else node
        if kind not in _NODES or kind is ast.Literal:
            return node  # names, operators, flags
        if replaceable:  # statements have no recorded value
            value = self._values.get(id(node), TOP)
            if _renderable(value):
                names, folded = _scan(node)
                if not self._effects.intersection(names):
                    return self._literal(value, names, folded, node.line)
        return kind(*map(self._node, _FIELDS[kind](node), _REPLACEABLE[kind]))

    def _spine(self, top: ast.BinOp) -> ast.Expression:
        """A left-associative chain, without recursion: the SA folded it
        as one spine and recorded only its operands, so the value of
        each prefix is re-folded from them."""
        spine = [top]
        while isinstance(spine[-1].left, ast.BinOp):
            spine.append(spine[-1].left)
        spine.reverse()
        leaf = spine[0].left
        value = self._values.get(id(leaf), TOP)
        values = []
        for node in spine:
            right = self._values.get(id(node.right), TOP)
            value = self._fold(node.op, value, right, node.line)
            values.append(value)
        rewritten = None
        cuts = [k for k, value in enumerate(values) if _renderable(value)]
        if cuts:
            # The prefix ending at spine[k] is the leaf plus the right
            # operands of spine[: k + 1]; it may fold only if none of them
            # calls an effectful procedure.
            scans = []
            for operand in [leaf] + [node.right for node in spine[: cuts[-1] + 1]]:
                scans.append(_scan(operand))
                if self._effects.intersection(scans[-1][0]):
                    scans.pop()
                    break
            cut = next((k for k in reversed(cuts) if k + 2 <= len(scans)), None)
            if cut is not None:
                names = [name for part, _ in scans[: cut + 2] for name in part]
                folded = cut + 1 + sum(count for _, count in scans[: cut + 2])
                rewritten = self._literal(values[cut], names, folded, spine[cut].line)
        if rewritten is None:
            cut, rewritten = -1, self._node(leaf)
        for node in spine[cut + 1:]:
            rewritten = ast.BinOp(node.op, rewritten, self._node(node.right), node.line)
        return rewritten

    def _literal(self, value, names: list[str], folded: int, line: int) -> ast.Literal:
        """The literal replacing ``folded`` operator, name and call nodes
        that read or called ``names``."""
        functions = [
            name
            for name in names
            if name in self._procedures and self._procedures[name].kind == "function"
        ]
        self._report.folded_expressions += folded
        self._report.decoder_calls_evaluated += len(functions)
        self._evaluated.update(functions)
        return ast.Literal(value, line)


def _renderable(value: object) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (str, int))


def _scan(root) -> tuple[list[str], int]:
    """The lower-cased names ``root`` reads or calls, and how many of its
    nodes are not literals."""
    names: list[str] = []
    nodes = 0
    for node in _walk(root):
        kind = type(node)
        nodes += kind is not ast.Literal
        if kind is ast.Name or kind is ast.Call:
            names.append(node.name.lower())
    return names, nodes


def _walk(root):
    """Every node under ``root`` — iteratively, since chains run 10k deep."""
    pending = [root]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is tuple or kind is list:
            pending.extend(node)
        elif kind in _FIELDS:
            yield node
            pending.extend(_FIELDS[kind](node))


def _drop_unreferenced(module: ast.Module, evaluated: set[str]) -> tuple[tuple, int]:
    """Remove evaluated functions and module consts nothing references;
    returns the removed procedures' names and the number of consts.

    Other procedures, unreferenced public functions included (they are
    host-callable entry points), are always kept.  A function's return
    assignment names the function itself, which does not keep it alive.
    """
    statements = module.module_statements
    uses = {key: set(_scan(p.body)[0]) - {key} for key, p in module.procedures.items()}
    consts = {s.name.lower(): s for s in statements if isinstance(s, ast.ConstStmt)}
    uses.update((key, set(_scan(s.value)[0])) for key, s in consts.items())
    roots = set(_scan([s for s in statements if not isinstance(s, ast.ConstStmt)])[0])
    droppable = (evaluated | set(consts)) & set(uses)
    dropped: set[str] = set()
    while newly := droppable - dropped - roots.union(
        *(names for key, names in uses.items() if key not in dropped)
    ):
        dropped |= newly
    module.module_statements = [
        s for s in statements if not (isinstance(s, ast.ConstStmt) and s.name.lower() in dropped)
    ]
    removed = tuple(
        module.procedures.pop(key).name for key in list(module.procedures) if key in dropped
    )
    return removed, len(dropped & set(consts))
