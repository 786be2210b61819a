"""Static de-obfuscation of VBA macros.

The inverse direction the paper's related work explores (JSDES [23] for
JavaScript): statically *undo* the string-level obfuscation classes so that
plaintext indicators ("URLDownloadToFile", URLs, command lines) reappear for
signature scanners and human analysts.

The engine is one pass of the :mod:`repro.sa` abstract interpreter plus
edits spliced into the source it parsed:

1. **analyse** — fold the module under :data:`DEEP_SA_BUDGET`, recording
   each expression's value joined over every context it was evaluated in,
   and which module procedures have effects (reach the host, or write
   state a caller can see).  Consts, ``Chr`` chains, ``Replace`` markers
   and calls to decoder functions all fold there, with no separate
   evaluator.  Where statements may run in an order the pass does not
   follow (jumps, module-level code), only values no path can change
   are recorded;
2. **rewrite** — replace the source text of each maximal expression
   whose value is one concrete scalar, and whose calls reach no effectful
   procedure, with its literal (the parser records each node's span of
   tokens);
3. **cleanup** — cut out evaluated functions and module consts that
   nothing references any more.

Every byte outside those edits is the input's: comments, layout, ``As``
types and statements the parser kept verbatim come back as they were.

Everything is best-effort: a module the parser rejects is returned
unchanged with the failure recorded in the report.  So is a module whose
pass was cut short (step budget, recursion): its recorded values may miss
contexts.  Budget limits that only widen values to ⊤ (loop trips, string
length, the recovered-string cap) keep the rewrite sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter

from repro.resilience.budgets import DEEP_SA_BUDGET
from repro.sa.domain import TOP
from repro.sa.interpreter import AbstractInterpreter
from repro.vba import ast_nodes as ast
from repro.vba.lexer import LAYOUT_KINDS, TokenTable, lex
from repro.vba.parser import parse_tolerant, unpack_span
from repro.vba.tokens import TokenKind, render_literal

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

#: How a part may be replaced: not at all (``_FIXED``); by a literal in
#: parentheses when it is not one token; or, as a call argument, which
#: commas delimit, without them (``Shell ("a" & Chr(10)), 1`` would make
#: the first argument read as the argument list).
_KEEP, _WRAP, _BARE = 0, 1, 2

#: Per node type, its fields in ``__slots__`` order, and how each may be
#: replaced.
_FIELDS = {kind: attrgetter(*kind.__slots__) for kind in _NODES}
_MODES = {
    kind: tuple(
        _KEEP if (kind, name) in _FIXED else _BARE if name == "args" else _WRAP
        for name in kind.__slots__
    )
    for kind in _NODES
}

_LINE_ENDS = (TokenKind.NEWLINE, TokenKind.EOF)

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
    """Statically simplify one module; total on every input.  The result
    is ``source`` with folded expressions spliced over by their literals
    and dropped declarations cut out: every other byte is the input's."""
    report = DeobfuscationReport()
    table = lex(source)
    parsed = parse_tolerant(source, table)
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
    rewriter = _Rewriter(recorder, report, source, table, parsed.spans)
    rewriter.module(module)
    return DeobfuscationResult(source=_splice(source, rewriter.edits), report=report)


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


# ----------------------------------------------------------------------
# Rewrite


class _Rewriter:
    """Collects the edits that fold the analysed module: ``(start, end,
    text)`` character ranges of the source and what replaces them."""

    def __init__(
        self,
        recorder: _Recorder,
        report: DeobfuscationReport,
        source: str,
        table: TokenTable,
        spans: dict[int, int],
    ) -> None:
        self._values = recorder.values
        self._effects = recorder.effects
        self._fold = recorder._fold_binop
        self._procedures = recorder.module.procedures
        self._report = report
        self._evaluated: set[str] = set()
        self._source = source
        self._spans = spans
        code = [i for i, kind in enumerate(table.kinds) if kind not in LAYOUT_KINDS]
        offsets = list(accumulate(map(len, table.texts), initial=0))
        #: per code position: where it starts and ends in ``source``, its
        #: kind and its text
        self._starts = [offsets[i] for i in code]
        self._ends = [offsets[i + 1] for i in code]
        self._kinds = [table.kinds[i] for i in code]
        self._texts = [table.texts[i] for i in code]
        self.edits: list[tuple[int, int, str]] = []
        self.replaced: set[int] = set()

    def module(self, module: ast.Module) -> None:
        for procedure in module.procedures.values():
            self._node(procedure)
        self._node(tuple(module.module_statements))
        dropped = _drop_unreferenced(module, self._evaluated, self.replaced)
        removed = [p for key, p in module.procedures.items() if key in dropped]
        for procedure in removed:
            self._delete_lines(*unpack_span(self._spans[id(procedure)]))
        self._report.procedures_removed = tuple(p.name for p in removed)
        self._report.consts_inlined = self._drop_consts(module.module_statements, dropped)

    def _node(self, node, mode: int = _WRAP) -> None:
        """Fold ``node``.  Parts in ``_FIXED`` positions are folded inside
        but never replaced by a literal."""
        kind = type(node)
        if kind is tuple:
            for item in node:
                self._node(item, mode)
            return
        if kind is ast.BinOp:
            if mode:
                self._spine(node, mode)
            return
        if kind not in _NODES or kind is ast.Literal:
            return  # names, operators, flags
        if mode:  # statements have no recorded value
            value = self._values.get(id(node), TOP)
            if _renderable(value):
                names, folded = _scan(node)
                if not self._effects.intersection(names):
                    self._replace(node, value, names, folded, mode)
                    return
        for part, part_mode in zip(_FIELDS[kind](node), _MODES[kind]):
            self._node(part, part_mode)

    def _spine(self, top: ast.BinOp, mode: int) -> None:
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
        cut = -1
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
            cut = next((k for k in reversed(cuts) if k + 2 <= len(scans)), -1)
        if cut >= 0:
            names = [name for part, _ in scans[: cut + 2] for name in part]
            folded = cut + 1 + sum(count for _, count in scans[: cut + 2])
            # A prefix is the left operand of the node above it.
            inner = mode if cut == len(spine) - 1 else _WRAP
            self._replace(spine[cut], values[cut], names, folded, inner)
        else:
            self._node(leaf)
        for node in spine[cut + 1:]:
            self._node(node.right)

    def _replace(self, node, value, names: list[str], folded: int, mode: int) -> None:
        """Replace ``node``, whose ``folded`` operator, name and call nodes
        read or called ``names``, with the literal ``value``.  Source that
        already spells it is left as it is."""
        functions = [
            name
            for name in names
            if name in self._procedures and self._procedures[name].kind == "function"
        ]
        self._report.folded_expressions += folded
        self._report.decoder_calls_evaluated += len(functions)
        self._evaluated.update(functions)
        self.replaced.add(id(node))
        first, last = unpack_span(self._spans[id(node)])
        start, end = self._starts[first], self._ends[last]
        text, atomic = render_literal(value)
        if self._source[start:end] != text:
            if not atomic and mode == _WRAP:
                text = f"({text})"
            self.edits.append((start, end, text))

    def _delete_lines(self, first: int, last: int) -> None:
        """Delete code positions ``first`` to ``last``; when they open their
        line, with its indentation and through its end (or a ``:``)."""
        start, end = self._starts[first], self._ends[last]
        if not first or self._kinds[first - 1] is TokenKind.NEWLINE:
            start = self._ends[first - 1] if first else 0
            if self._kinds[last + 1] in _LINE_ENDS or self._texts[last + 1] == ":":
                end = self._ends[last + 1]
        self.edits.append((start, end, ""))

    def _opens_statement(self, position: int) -> bool:
        """Whether a line break or a ``:`` comes before code position ``position``."""
        return self._kinds[position - 1] is TokenKind.NEWLINE or self._texts[position - 1] == ":"

    def _drop_consts(self, statements: list, dropped: set[str]) -> int:
        """Delete the dropped module ``Const`` items and count the names
        dropped.  An item that shares its statement with one that stays
        goes with the comma between them."""
        names: set[str] = set()
        groups: list[list[tuple[bool, int, int]]] = []
        for statement in statements:
            if type(statement) is ast.ConstStmt:
                names.add(statement.name.lower())
                first, last = unpack_span(self._spans[id(statement)])
                item = (statement.name.lower() in dropped, first, last)
                if groups and groups[-1][-1][2] + 2 == first:  # only a comma between
                    groups[-1].append(item)
                else:
                    groups.append([item])
        for items in groups:
            kept = next((k for k, (drop, _, _) in enumerate(items) if not drop), None)
            if kept is None:  # the whole statement, modifiers and all
                head = items[0][1]
                while head and not self._opens_statement(head):
                    head -= 1
                self._delete_lines(head, items[-1][2])
                continue
            if kept:  # the leading items, up to the first name that stays
                self.edits.append((self._starts[items[0][1]], self._starts[items[kept][1]], ""))
            for previous, (drop, _, last) in zip(items[kept:], items[kept + 1:]):
                if drop:  # the comma before it, through its value
                    self.edits.append((self._starts[previous[2] + 1], self._ends[last], ""))
        return len(names & dropped)


def _splice(source: str, edits: list[tuple[int, int, str]]) -> str:
    """``source`` with each edit's character range replaced by its text.
    Edits never overlap but for those inside a deleted declaration, which
    start after it and go with it."""
    parts, cursor = [], 0
    for start, end, text in sorted(edits):
        if start >= cursor:
            parts += (source[cursor:start], text)
            cursor = end
    return "".join(parts) + source[cursor:]


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


def _scan(root, skip: set[int] | frozenset = frozenset()) -> tuple[list[str], int]:
    """The lower-cased names ``root`` reads or calls, and how many of its
    nodes are not literals, leaving out the subtrees whose ids are in
    ``skip``.  A statement the parser kept verbatim may read any word of
    its text."""
    names: list[str] = []
    nodes = 0
    for node in _walk(root, skip):
        kind = type(node)
        nodes += kind is not ast.Literal
        if kind is ast.Name or kind is ast.Call:
            names.append(node.name.lower())
        elif kind is ast.NoOpStmt:
            names.extend(filter(None, lex(node.text).words))
    return names, nodes


def _walk(root, skip: set[int] | frozenset = frozenset()):
    """Every node under ``root`` but the subtrees whose ids are in
    ``skip`` — iteratively, since chains run 10k deep."""
    pending = [root]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is tuple or kind is list:
            pending.extend(node)
        elif kind in _FIELDS and id(node) not in skip:
            yield node
            pending.extend(_FIELDS[kind](node))


def _drop_unreferenced(module: ast.Module, evaluated: set[str], replaced: set[int]) -> set[str]:
    """The evaluated functions and module consts nothing references once
    the ``replaced`` nodes are literals.

    Other procedures, unreferenced public functions included (they are
    host-callable entry points), are always kept.  A function's return
    assignment names the function itself, which does not keep it alive.
    """
    statements = module.module_statements
    uses = {
        key: set(_scan(p.body, replaced)[0]) - {key}
        for key, p in module.procedures.items()
    }
    consts = {s.name.lower(): s for s in statements if isinstance(s, ast.ConstStmt)}
    uses.update((key, set(_scan(s.value, replaced)[0])) for key, s in consts.items())
    roots = set(
        _scan([s for s in statements if not isinstance(s, ast.ConstStmt)], replaced)[0]
    )
    droppable = (evaluated | set(consts)) & set(uses)
    dropped: set[str] = set()
    while newly := droppable - dropped - roots.union(
        *(names for key, names in uses.items() if key not in dropped)
    ):
        dropped |= newly
    return dropped
