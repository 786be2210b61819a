"""Static de-obfuscation of VBA macros.

The inverse direction the paper's related work explores (JSDES [23] for
JavaScript): statically *undo* the string-level obfuscation classes so that
plaintext indicators ("URLDownloadToFile", URLs, command lines) reappear for
signature scanners and human analysts.

The engine is one pass of the :mod:`repro.sa` abstract interpreter plus a
rewrite of the AST it walked:

1. **analyse** — fold the module under :data:`DEEP_SA_BUDGET`, recording
   each expression's value joined over every context it was evaluated in,
   and which module procedures have effects (reach the host, or write
   state a caller can see).  Consts, ``Chr`` chains, ``Replace`` markers
   and calls to decoder functions all fold there, with no separate
   evaluator.  Where statements may run in an order the pass does not
   follow (jumps, module-level code), only values no path can change
   are recorded;
2. **rewrite** — replace each maximal expression whose value is one
   concrete scalar, and whose calls reach no effectful procedure, with
   its literal;
3. **cleanup** — drop evaluated functions and module consts that nothing
   references any more.

Everything is best-effort: a module the parser rejects is returned
unchanged with the failure recorded in the report.  So is a module whose
pass was cut short (step budget, recursion): its recorded values may miss
contexts.  Budget limits that only widen values to ⊤ (loop trips, string
length, the recovered-string cap) keep the rewrite sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

from repro.resilience.budgets import DEEP_SA_BUDGET
from repro.sa.domain import TOP
from repro.sa.interpreter import AbstractInterpreter
from repro.vba import ast_nodes as ast
from repro.vba.parser import VBAParseError, parse_module
from repro.vba.unparser import unparse_module

#: Tolerant-parse statements that change nothing: error-handling chatter
#: and module options.  Any other verbatim statement (``MsgBox``,
#: ``Open … For Binary``, ``SendKeys``) reaches the host.
_INERT_STATEMENTS = ("on error", "option", "doevents")

#: First words of verbatim statements whose control flow the SA does not
#: follow: jumps, ``Select Case``, and the lines of a block statement the
#: parser could not take (its body then sits flat in the enclosing block).
_CONTROL_WORDS = frozenset({
    "goto", "gosub", "return", "resume", "on", "select", "case", "if",
    "elseif", "else", "end", "for", "next", "do", "loop", "while", "wend",
})
#: ``On Error`` forms that jump nowhere.
_NO_JUMP = frozenset({"on error resume next", "on error goto 0"})

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


@dataclass
class DeobfuscationReport:
    """What the engine did to one module."""

    parsed: bool = True
    folded_expressions: int = 0
    decoder_calls_evaluated: int = 0
    consts_inlined: int = 0
    procedures_removed: tuple[str, ...] = ()
    recovered_strings: list[str] = field(default_factory=list)
    error: str | None = None


@dataclass
class DeobfuscationResult:
    source: str
    report: DeobfuscationReport


def deobfuscate(source: str) -> DeobfuscationResult:
    """Statically simplify one module; total on every input."""
    report = DeobfuscationReport()
    try:
        module = parse_module(source, tolerant=True)
    except (VBAParseError, RecursionError) as error:
        report.parsed = False
        report.error = str(error)
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


# ----------------------------------------------------------------------
# Analysis


class _Recorder(AbstractInterpreter):
    """The SA pass, keeping what the rewrite needs.

    ``values`` maps ``id(expression)`` to its value joined over every
    evaluation (arrays count as ⊤: they have no literal form).
    ``effects`` holds the procedures that, directly or through a callee,
    touched a host member, ran a host statement or unknown function, or
    wrote a module variable or a parameter.  Each entry procedure starts
    from the module's consts with every other module variable ⊤, since
    any procedure may have run before it.  In a region whose statements
    may run in another order than the SA folds them (module-level code,
    or a body with a jump, ``Select Case`` or a block the parser could
    not take), each statement starts with every variable but the module
    consts ⊤, so only values no jump can change are recorded.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.values: dict[int, object] = {}
        self.effects: set[str] = set()
        self._frames: list[ast.Procedure] = []
        self._consts = frozenset(
            statement.name.lower()
            for statement in self.module.module_statements
            if isinstance(statement, ast.ConstStmt)
        )
        self._entry_globals: dict[str, object] | None = None
        self._jumpy = {
            key
            for key, procedure in self.module.procedures.items()
            if _has_unordered_statements(procedure.body)
        }
        #: whether the running region's statements may run in an order the
        #: SA does not follow.  Module-level code is the body of a
        #: procedure whose header the parser could not take, run at some
        #: unknown time: every statement there may be reached from any
        #: state.
        self._unordered = True
        #: entry procedures folded to the end; fewer than the module has
        #: means the pass was cut short and ``values`` may miss contexts
        self.finished = 0

    def _enter(self, procedure: ast.Procedure) -> None:
        if self._entry_globals is None:
            self._unordered = False
            self._entry_globals = {
                key: value if key in self._consts else TOP
                for key, value in self._globals.items()
            }
        self._globals.clear()
        self._globals.update(self._entry_globals)
        super()._enter(procedure)
        self.finished += 1

    def _call_procedure(self, procedure: ast.Procedure, args: list[object]) -> object:
        outer = self._unordered
        self._unordered = procedure.name.lower() in self._jumpy
        self._frames.append(procedure)
        try:
            return super()._call_procedure(procedure, args)
        finally:
            self._frames.pop()
            self._unordered = outer

    def _execute(self, statement: ast.Statement, env: dict[str, object]) -> None:
        if self._unordered:
            # A jump may land here from any point of the region.
            if env is not self._globals:
                env.update(dict.fromkeys(env, TOP))
            self._globals.update(dict.fromkeys(self._globals.keys() - self._consts, TOP))
        super()._execute(statement, env)

    def _touch(self) -> None:
        self.effects.update(frame.name.lower() for frame in self._frames)

    def _eval(self, expression: ast.Expression, env: dict[str, object]) -> object:
        value = super()._eval(expression, env)
        key = id(expression)
        seen = self.values.get(key, _UNSEEN)
        if seen is _UNSEEN:
            self.values[key] = TOP if isinstance(value, list) else value
        elif seen is not TOP and (type(seen) is not type(value) or seen != value):
            self.values[key] = TOP
        return value

    def _eval_member(self, expression, env):
        self._touch()
        return super()._eval_member(expression, env)

    def _eval_host_call(self, expression, env):
        self._touch()
        return super()._eval_host_call(expression, env)

    def _exec_assign(self, statement: ast.Assign, env: dict[str, object]) -> None:
        target = statement.target
        if isinstance(target, ast.MemberAccess):
            self._touch()
        else:
            key = target.name.lower()
            if (key not in env and key in self._globals) or (
                self._frames and key in map(str.lower, self._frames[-1].params)
            ):
                self._touch()
        super()._exec_assign(statement, env)

    def _exec_noop(self, statement: ast.NoOpStmt, env: dict[str, object]) -> None:
        if not statement.text.lower().startswith(_INERT_STATEMENTS):
            self._touch()

    _DISPATCH = {
        **AbstractInterpreter._DISPATCH,
        ast.Assign: _exec_assign,
        ast.NoOpStmt: _exec_noop,
    }


# ----------------------------------------------------------------------
# Rewrite


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


def _has_unordered_statements(body: tuple) -> bool:
    """Whether ``body`` holds a verbatim statement in ``_CONTROL_WORDS``
    other than a plain ``On Error``."""
    for node in _walk(body):
        if type(node) is ast.NoOpStmt:
            words = node.text.lower().split()
            if words and words[0] in _CONTROL_WORDS and " ".join(words) not in _NO_JUMP:
                return True
    return False


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
