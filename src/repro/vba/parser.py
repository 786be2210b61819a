"""Recursive-descent parser for the executable VBA subset.

Parses the constructs the corpus generators and obfuscation engine emit —
a practical subset of [MS-VBAL] — into the AST of
:mod:`repro.vba.ast_nodes`.  Anything outside the subset raises
:class:`VBAParseError` with a line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from repro.vba import ast_nodes as ast
from repro.vba.lexer import LAYOUT_KINDS, TokenTable, lex
from repro.vba.tokens import TokenKind, string_value


class VBAParseError(Exception):
    """Raised when source falls outside the supported VBA subset."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


#: Statement-position identifiers treated as harmless no-ops (host UI and
#: error-handling chatter that does not affect string/number semantics).
_NOOP_STATEMENTS = frozenset({"doevents", "msgbox", "randomize", "beep", "sendkeys"})

_MODIFIER_KEYWORDS = frozenset({"public", "private", "friend", "global", "static"})

#: Binding power of each binary operator (lower-cased keyword or operator
#: text, which is also its AST name).  Looser binds lower; prefix ``Not``
#: sits at 4, between ``And`` and the comparisons.  Unary ``-``/``+`` and
#: ``^`` bind tighter than all of these (``_parse_unary``).
_BINARY_BP = {
    "imp": 1, "eqv": 1,
    "or": 2, "xor": 2,
    "and": 3,
    "=": 5, "<>": 5, "<": 5, ">": 5, "<=": 5, ">=": 5, "like": 5, "is": 5,
    "&": 6,
    "+": 7, "-": 7,
    "mod": 8,
    "\\": 9,
    "*": 10, "/": 10,
}
_NOT_BP = 4
_POSTFIX = ("(", ".")
_NAME_KINDS = (TokenKind.IDENTIFIER, TokenKind.KEYWORD)


def parse_module(source: str) -> ast.Module:
    """Parse a whole module strictly: procedures plus module-level
    statements, raising :class:`VBAParseError` at the first statement
    outside the supported subset."""
    return _Parser(source).parse_module()


#: A span packs a node's first and last code positions into one int,
#: ``last * _SPAN_BASE + first``; a one-token node's is its position.
_SPAN_BASE = 1 << 32


def unpack_span(span: int) -> tuple[int, int]:
    """The ``(first, last)`` code positions of a packed span."""
    last, first = divmod(span, _SPAN_BASE)
    return first, last or first


@dataclass(frozen=True, slots=True)
class ModuleParse:
    """One tolerant parse of a module and the first error it got past.

    ``module`` is ``None`` when the parse failed outright (a file truncated
    inside a procedure, or nesting past Python's recursion limit).
    ``error`` is the first :class:`VBAParseError` the parse raised: the
    tolerant parse reads its mode only in its two ``except`` handlers, so up
    to that error it takes the strict parse's path, and ``error`` is
    exactly what a strict :func:`parse_module` raises (``None`` when that
    raises no :class:`VBAParseError`).

    ``spans`` maps ``id(node)`` to the packed span (:func:`unpack_span`)
    of code positions (tokens but whitespace, comments and continuations)
    it was parsed from: each expression, with its parentheses, but a
    literal, a member's base and a statement's callee or target; each
    ``Const`` item, name to value; each procedure, modifiers to ``End Sub``.
    """

    module: ast.Module | None
    error: VBAParseError | None
    spans: dict[int, int] = field(default_factory=dict, compare=False, repr=False)


def parse_tolerant(source: str, tokens: TokenTable | None = None) -> ModuleParse:
    """Parse a whole module, keeping each statement outside the supported
    subset verbatim as a :class:`~repro.vba.ast_nodes.NoOpStmt`, so
    host-I/O chatter (``Declare``, ``Open … For Binary``, ``Put #``)
    survives; never raises a parse failure: :class:`VBAParseError` and
    :class:`RecursionError` end in a :class:`ModuleParse` without a module.

    ``tokens`` lets a caller that already lexed ``source`` (the analyzer
    keeps its :class:`~repro.vba.lexer.TokenTable`) skip the
    re-tokenization, which dominates parse cost on large modules.  It must
    be the table :func:`~repro.vba.lexer.lex` built for exactly
    ``source``; the parser reads the table's columns.
    """
    parser = _Parser(source, tolerant=True, tokens=tokens)
    try:
        module = parser.parse_module()
    except VBAParseError as failure:
        return ModuleParse(None, parser.first_error or _detached(failure))
    except RecursionError:
        return ModuleParse(None, parser.first_error)
    return ModuleParse(module, parser.first_error, parser.spans)


def _detached(error: VBAParseError) -> VBAParseError:
    """``error`` without its traceback, whose frames hold the parser (and
    so, through ``first_error``, the error again): a kept error must not
    keep a module's columns alive, or tie them into a reference cycle."""
    return error.with_traceback(None)


def parse_statements(source: str) -> list[ast.Statement]:
    """Parse a bare statement list (no procedure wrapper), for tests."""
    parser = _Parser(source)
    body = parser.parse_statement_block(terminators=frozenset())
    parser.expect_eof()
    return list(body)


class _Parser:
    """A cursor over the code positions of one module's token table.

    The code positions are every token but whitespace, comments and line
    continuations, copied once into four columns: ``_kinds``, ``_texts``,
    ``_lines`` and ``_tags``.  A tag is the lower-cased word of a name and
    the text of anything else, so one compare tests a keyword, a
    punctuation mark or an operator: reserved words lex only as keywords,
    and punctuation, operator and literal texts cannot spell one another.
    """

    def __init__(
        self,
        source: str,
        tolerant: bool = False,
        tokens: TokenTable | None = None,
    ) -> None:
        self._tolerant = tolerant
        table = lex(source) if tokens is None else tokens
        code = [kind not in LAYOUT_KINDS for kind in table.kinds]
        self._kinds = list(compress(table.kinds, code))
        self._texts = list(compress(table.texts, code))
        self._lines = list(compress(table.lines, code))
        self._tags = [
            word or text
            for word, text in zip(compress(table.words, code), self._texts)
        ]
        self._pos = 0
        self._last = len(self._kinds) - 1
        #: statements already parsed but not yet delivered — a single source
        #: statement can expand to several AST statements (``Const A = 1, B = 2``)
        self._pending: list[ast.Statement] = []
        #: the first parse error a tolerant parse recovered from
        self.first_error: VBAParseError | None = None
        #: ``id(node)`` → packed span (see :class:`ModuleParse`)
        self.spans: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Cursor helpers.  ``_pos`` is always a valid index: ``_advance`` stops
    # on the last position (EOF).

    def _advance(self) -> int:
        position = self._pos
        if position < self._last:
            self._pos = position + 1
        return position

    def _at_keyword(self, *words: str) -> bool:
        return self._tags[self._pos] in words

    def _expect(self, tag: str) -> int:
        """Consume the keyword, punctuation or operator ``tag``."""
        position = self._pos
        if self._tags[position] != tag:
            raise VBAParseError(
                f"expected {tag!r}, found {self._texts[position]!r}",
                self._lines[position],
            )
        return self._advance()

    def _expect_identifier(self) -> int:
        position = self._pos
        if self._kinds[position] is not TokenKind.IDENTIFIER:
            raise VBAParseError(
                f"expected identifier, found {self._texts[position]!r}",
                self._lines[position],
            )
        return self._advance()

    def _skip_separators(self) -> None:
        kinds = self._kinds
        tags = self._tags
        while kinds[self._pos] is TokenKind.NEWLINE or tags[self._pos] == ":":
            self._advance()

    def _end_of_statement(self) -> bool:
        position = self._pos
        return (
            self._kinds[position] in (TokenKind.NEWLINE, TokenKind.EOF)
            or self._tags[position] == ":"
        )

    def expect_eof(self) -> None:
        self._skip_separators()
        position = self._pos
        if self._kinds[position] is not TokenKind.EOF:
            raise VBAParseError(
                f"unexpected trailing {self._texts[position]!r}",
                self._lines[position],
            )

    # ------------------------------------------------------------------
    # Module level

    def parse_module(self) -> ast.Module:
        module = ast.Module()
        kinds = self._kinds
        while True:
            if self._pending:
                module.module_statements.append(self._pending.pop(0))
                continue
            self._skip_separators()
            if kinds[self._pos] is TokenKind.EOF:
                break
            head = self._pos
            self._consume_modifiers()
            if self._at_keyword("sub", "function"):
                start = self._pos
                pending_mark = len(self._pending)
                try:
                    procedure = self._parse_procedure()
                except VBAParseError as error:
                    # A malformed header (``Sub Broken(((``) must not abort a
                    # tolerant parse: drop the header line and resume at
                    # module level.  A file truncated mid-procedure (EOF
                    # before ``End Sub``) stays a hard error — its body
                    # cannot be attributed to anything.
                    if not self._tolerant or kinds[self._pos] is TokenKind.EOF:
                        raise
                    self.first_error = self.first_error or _detached(error)
                    self._pos = start
                    del self._pending[pending_mark:]
                    line = self._lines[start]
                    raw = self._skip_rest_of_line()
                    module.module_statements.append(ast.NoOpStmt(raw, line))
                    continue
                self.spans[id(procedure)] = (self._pos - 1) * _SPAN_BASE + head
                module.procedures[procedure.name.lower()] = procedure
                continue
            if self._at_keyword("option"):
                self._skip_rest_of_line()
                continue
            statement = self._parse_statement_or_raw()
            module.module_statements.append(statement)
        return module

    def _consume_modifiers(self) -> bool:
        consumed = False
        while self._tags[self._pos] in _MODIFIER_KEYWORDS:
            self._advance()
            consumed = True
        return consumed

    def _parse_procedure(self) -> ast.Procedure:
        keyword = self._advance()  # sub | function
        kind = self._tags[keyword]
        name = self._texts[self._expect_identifier()]
        params: list[str] = []
        if self._tags[self._pos] == "(":
            self._advance()
            while self._tags[self._pos] != ")":
                # Skip parameter modifiers.
                while self._at_keyword("byval", "byref", "optional", "paramarray"):
                    self._advance()
                params.append(self._texts[self._expect_identifier()])
                if self._tags[self._pos] == "as":
                    self._advance()
                    self._advance()  # type name (keyword or identifier)
                if self._tags[self._pos] == ",":
                    self._advance()
            self._expect(")")
        if self._tags[self._pos] == "as":
            self._advance()
            self._advance()  # return type
        body = self.parse_statement_block(terminators=frozenset({"end"}))
        self._expect("end")
        self._expect(kind)
        return ast.Procedure(
            kind=kind,
            name=name,
            params=tuple(params),
            body=body,
            line=self._lines[keyword],
        )

    # ------------------------------------------------------------------
    # Statements

    def parse_statement_block(
        self, terminators: frozenset[str]
    ) -> tuple[ast.Statement, ...]:
        """Parse statements until a terminator keyword is at statement start."""
        statements: list[ast.Statement] = []
        kinds = self._kinds
        tags = self._tags
        while True:
            if self._pending:
                statements.append(self._pending.pop(0))
                continue
            self._skip_separators()
            position = self._pos
            kind = kinds[position]
            if kind is TokenKind.EOF:
                break
            if kind is TokenKind.KEYWORD and tags[position] in terminators:
                break
            statements.append(self._parse_statement_or_raw())
        return tuple(statements)

    def _parse_statement_or_raw(self) -> ast.Statement:
        start = self._pos
        pending_mark = len(self._pending)
        try:
            return self._parse_statement()
        except VBAParseError as error:
            if not self._tolerant:
                raise
            self.first_error = self.first_error or _detached(error)
            self._pos = start
            del self._pending[pending_mark:]  # drop partial expansions
            raw = self._skip_rest_of_line()
            return ast.NoOpStmt(raw, self._lines[start])

    def _parse_statement(self) -> ast.Statement:
        position = self._pos
        kind = self._kinds[position]
        text = self._texts[position]
        line = self._lines[position]

        if kind is TokenKind.KEYWORD:
            keyword = self._tags[position]
            if keyword in _MODIFIER_KEYWORDS:
                self._consume_modifiers()
                return self._parse_statement()
            if keyword == "dim" or keyword == "redim":
                return self._parse_dim()
            if keyword == "const":
                return self._parse_const()
            if keyword == "set" or keyword == "let":
                self._advance()
                return self._parse_assignment_or_call()
            if keyword == "if":
                return self._parse_if()
            if keyword == "for":
                return self._parse_for()
            if keyword == "do":
                return self._parse_do()
            if keyword == "while":
                return self._parse_while_wend()
            if keyword == "with":
                return self._parse_with()
            if keyword == "exit":
                return self._parse_exit()
            if keyword == "call":
                return self._parse_call_keyword()
            if keyword in ("on", "option", "debug", "stop"):
                self._advance()
                rest = self._skip_rest_of_line()
                return ast.NoOpStmt(f"{text} {rest}".strip(), line)
            raise VBAParseError(f"unsupported statement {text!r}", line)

        if kind is TokenKind.IDENTIFIER:
            if text.lower() in _NOOP_STATEMENTS:
                self._advance()
                rest = self._skip_rest_of_line()
                return ast.NoOpStmt(f"{text} {rest}".strip(), line)
            if self._at_label():
                self._advance()
                self._advance()  # the ``:``
                return ast.NoOpStmt(f"{text}:", line)
            return self._parse_assignment_or_call()

        raise VBAParseError(f"unexpected token {text!r}", line)

    def _at_label(self) -> bool:
        """A line label: the name opening a physical line, then ``:``
        (``Again:`` — a ``GoTo`` target, not a call of ``Again``)."""
        position = self._pos
        return (
            position < self._last
            and (position == 0 or self._kinds[position - 1] is TokenKind.NEWLINE)
            and self._tags[position + 1] == ":"
        )

    def _skip_rest_of_line(self) -> str:
        """Skip to end of statement, returning the skipped tokens' text."""
        start = self._pos
        while not self._end_of_statement():
            self._advance()
        return " ".join(self._texts[start : self._pos])

    def _parse_dim(self) -> ast.Statement:
        keyword = self._advance()  # dim / redim
        tags = self._tags
        names: list[tuple[str, ast.Expression | None]] = []
        while True:
            if tags[self._pos] == "preserve":
                self._advance()
            name = self._texts[self._expect_identifier()]
            extent: ast.Expression | None = None
            if tags[self._pos] == "(":
                self._advance()
                if tags[self._pos] != ")":
                    extent = self._parse_expression()
                    # ``Dim a(1 To 10)`` — keep the upper bound.
                    if tags[self._pos] == "to":
                        self._advance()
                        extent = self._parse_expression()
                self._expect(")")
            names.append((name, extent))
            if tags[self._pos] == "as":
                self._advance()
                self._advance()  # type
            if tags[self._pos] == ",":
                self._advance()
                continue
            break
        return ast.DimStmt(tuple(names), self._lines[keyword])

    def _parse_const(self) -> ast.Statement:
        line = self._lines[self._expect("const")]
        first = self._parse_one_const(line)
        # ``Const A = 1, B = 2`` expands into one ConstStmt per name; the
        # extras are queued and drained by the enclosing block loop.
        while self._tags[self._pos] == ",":
            self._advance()
            self._pending.append(self._parse_one_const(line))
        return first

    def _parse_one_const(self, line: int) -> ast.ConstStmt:
        first = self._expect_identifier()
        if self._tags[self._pos] == "as":
            self._advance()
            self._advance()
        if self._tags[self._pos] != "=":
            raise VBAParseError("Const requires '='", line)
        self._advance()
        value = self._parse_expression()
        statement = ast.ConstStmt(self._texts[first], value, line)
        self.spans[id(statement)] = (self._pos - 1) * _SPAN_BASE + first
        return statement

    def _parse_assignment_or_call(self) -> ast.Statement:
        start = self._pos
        line = self._lines[start]
        target = self._parse_postfix(replaceable=False)
        if self._tags[self._pos] == "=":
            self._advance()
            value = self._parse_expression()
            if isinstance(target, (ast.Name, ast.Call, ast.MemberAccess)):
                return ast.Assign(target, value, line)
            raise VBAParseError("invalid assignment target", line)
        # Statement-position call: ``Helper`` or ``Shell prog, 1``.
        if isinstance(target, (ast.Call, ast.MemberAccess)) and self._end_of_statement():
            return ast.CallStmt(target, line)
        if isinstance(target, ast.Name):
            if self._end_of_statement():
                return ast.CallStmt(ast.Call(target.name, (), line), line)
            return ast.CallStmt(
                ast.Call(target.name, self._parse_bare_arguments(), line), line
            )
        if isinstance(target, ast.MemberAccess):
            # ``obj.Method arg1, arg2`` — attach the arguments.
            return ast.CallStmt(
                ast.MemberAccess(
                    target.base, target.member, self._parse_bare_arguments(), line
                ),
                line,
            )
        raise VBAParseError(
            f"cannot parse statement at {self._texts[start]!r}", line
        )

    def _parse_bare_arguments(self) -> tuple[ast.Expression, ...]:
        """``a, b, c`` after a statement-position call, no parentheses."""
        args = [self._parse_expression()]
        while self._tags[self._pos] == ",":
            self._advance()
            args.append(self._parse_expression())
        return tuple(args)

    def _parse_if(self) -> ast.Statement:
        line = self._lines[self._expect("if")]
        condition = self._parse_expression()
        self._expect("then")
        if not self._end_of_statement():
            # Single-line If: colon-separated statements after ``Then`` are
            # part of the then-body (``If a Then b = 1: c = 2``), up to an
            # optional single-line ``Else``.
            then_body = self._parse_inline_body()
            else_body: tuple[ast.Statement, ...] = ()
            if self._tags[self._pos] == "else":
                self._advance()
                else_body = self._parse_inline_body()
            return ast.IfStmt(((condition, then_body),), else_body, line)
        branches: list[tuple[ast.Expression, tuple[ast.Statement, ...]]] = []
        body = self.parse_statement_block(
            terminators=frozenset({"elseif", "else", "end"})
        )
        branches.append((condition, body))
        else_body = ()
        while True:
            if self._tags[self._pos] == "elseif":
                self._advance()
                branch_condition = self._parse_expression()
                self._expect("then")
                branch_body = self.parse_statement_block(
                    terminators=frozenset({"elseif", "else", "end"})
                )
                branches.append((branch_condition, branch_body))
                continue
            if self._tags[self._pos] == "else":
                self._advance()
                else_body = self.parse_statement_block(
                    terminators=frozenset({"end"})
                )
            break
        self._expect("end")
        self._expect("if")
        return ast.IfStmt(tuple(branches), else_body, line)

    def _parse_inline_body(self) -> tuple[ast.Statement, ...]:
        """Parse colon-joined statements on a single-line ``If`` branch."""
        tags = self._tags
        body = [self._parse_statement()]
        body.extend(self._drain_pending())
        while tags[self._pos] == ":":
            while tags[self._pos] == ":":
                self._advance()
            if self._kinds[self._pos] in (TokenKind.NEWLINE, TokenKind.EOF):
                break
            if self._at_keyword("else", "elseif", "end", "next", "wend", "loop"):
                break
            body.append(self._parse_statement())
            body.extend(self._drain_pending())
        return tuple(body)

    def _drain_pending(self) -> list[ast.Statement]:
        drained = list(self._pending)
        self._pending.clear()
        return drained

    def _skip_next_variable(self) -> None:
        """``Next i``: the loop variable after ``Next`` is optional."""
        self._expect("next")
        if self._kinds[self._pos] is TokenKind.IDENTIFIER:
            self._advance()

    def _parse_for(self) -> ast.Statement:
        line = self._lines[self._expect("for")]
        if self._tags[self._pos] == "each":
            self._advance()
            var = self._texts[self._expect_identifier()]
            self._expect("in")
            iterable = self._parse_expression()
            body = self.parse_statement_block(terminators=frozenset({"next"}))
            self._skip_next_variable()
            return ast.ForEachStmt(var, iterable, body, line)
        var = self._texts[self._expect_identifier()]
        if self._tags[self._pos] != "=":
            raise VBAParseError("For requires '='", line)
        self._advance()
        start = self._parse_expression()
        self._expect("to")
        end = self._parse_expression()
        step: ast.Expression | None = None
        if self._tags[self._pos] == "step":
            self._advance()
            step = self._parse_expression()
        body = self.parse_statement_block(terminators=frozenset({"next"}))
        self._skip_next_variable()
        return ast.ForStmt(var, start, end, step, body, line)

    def _parse_do(self) -> ast.Statement:
        line = self._lines[self._expect("do")]
        if self._at_keyword("while", "until"):
            kind = self._tags[self._advance()]
            condition = self._parse_expression()
            body = self.parse_statement_block(terminators=frozenset({"loop"}))
            self._expect("loop")
            return ast.DoLoopStmt(condition, kind, True, body, line)
        body = self.parse_statement_block(terminators=frozenset({"loop"}))
        self._expect("loop")
        if self._at_keyword("while", "until"):
            kind = self._tags[self._advance()]
            condition = self._parse_expression()
            return ast.DoLoopStmt(condition, kind, False, body, line)
        # ``Do … Loop`` with no condition: infinite — require Exit Do.
        return ast.DoLoopStmt(ast.Literal(True, line), "while", True, body, line)

    def _parse_while_wend(self) -> ast.Statement:
        line = self._lines[self._expect("while")]
        condition = self._parse_expression()
        body = self.parse_statement_block(terminators=frozenset({"wend"}))
        self._expect("wend")
        return ast.DoLoopStmt(condition, "while", True, body, line)

    def _parse_with(self) -> ast.Statement:
        line = self._lines[self._expect("with")]
        subject = self._parse_expression()
        body: list[ast.Statement] = []
        while True:
            self._skip_separators()
            position = self._pos
            if self._tags[position] == "end":
                break
            if self._kinds[position] is TokenKind.EOF:
                raise VBAParseError("unterminated With block", line)
            if self._tags[position] == ".":
                # ``.Member = value`` / ``.Method args`` — host operations
                # on the block subject, preserved verbatim.
                raw = self._skip_rest_of_line()
                body.append(ast.NoOpStmt(raw, self._lines[position]))
                continue
            body.append(self._parse_statement_or_raw())
        self._expect("end")
        self._expect("with")
        return ast.WithStmt(subject, tuple(body), line)

    def _parse_exit(self) -> ast.Statement:
        line = self._lines[self._expect("exit")]
        position = self._advance()
        kind = self._texts[position].lower()
        if kind not in ("sub", "function", "for", "do"):
            raise VBAParseError(
                f"cannot Exit {self._texts[position]!r}", line
            )
        return ast.ExitStmt(kind, line)

    def _parse_call_keyword(self) -> ast.Statement:
        line = self._lines[self._expect("call")]
        target = self._parse_postfix(replaceable=False)
        if isinstance(target, ast.Name):
            target = ast.Call(target.name, (), target.line)
        if not isinstance(target, (ast.Call, ast.MemberAccess)):
            raise VBAParseError("Call requires a procedure", line)
        return ast.CallStmt(target, line)

    # ------------------------------------------------------------------
    # Expressions (binding-power loop over the VBA operator table)

    def _parse_expression(self, min_bp: int = 1) -> ast.Expression:
        """Parse operators binding at least ``min_bp`` tightly.

        Every binary operator is left-associative: its right operand is
        parsed at one more than its own binding power.  ``Not`` is a prefix
        operator at binding power 4 (between ``And`` and the comparisons);
        where a tighter operand is wanted it stays a plain ``Name``.
        """
        tags = self._tags
        position = self._pos
        if min_bp <= _NOT_BP and tags[position] == "not":
            self._pos = position + 1
            operand = self._parse_expression(_NOT_BP)
            left: ast.Expression = ast.UnaryOp("not", operand, self._lines[position])
            self.spans[id(left)] = (self._pos - 1) * _SPAN_BASE + position
        else:
            left = self._parse_unary()
        binding = _BINARY_BP.get
        while True:
            # Only operators and keywords have a tag in ``_BINARY_BP``.
            op = tags[self._pos]
            bp = binding(op)
            if bp is None or bp < min_bp:
                break
            self._pos += 1
            right = self._parse_expression(bp + 1)
            left = ast.BinOp(op, left, right, left.line)
            # Each node of a chain spans from the chain's start.
            self.spans[id(left)] = (self._pos - 1) * _SPAN_BASE + position
        return left

    def _parse_unary(self) -> ast.Expression:
        """Unary ``-``/``+`` over a power: ``^`` binds tighter than a unary
        minus on its left and takes a unary operand on its right."""
        position = self._pos
        tag = self._tags[position]
        if tag == "-":
            self._pos = position + 1
            operand = self._parse_unary()
            negated = ast.UnaryOp("-", operand, self._lines[position])
            self.spans[id(negated)] = (self._pos - 1) * _SPAN_BASE + position
            return negated
        if tag == "+":
            self._pos = position + 1
            return self._parse_unary()
        left = self._parse_postfix()
        if self._tags[self._pos] == "^":
            self._pos += 1
            right = self._parse_unary()
            left = ast.BinOp("^", left, right, left.line)
            self.spans[id(left)] = (self._pos - 1) * _SPAN_BASE + position
        return left

    def _parse_postfix(self, replaceable: bool = True) -> ast.Expression:
        """A primary and its calls and member accesses.  The span of a
        statement's target or callee (not ``replaceable``) goes unrecorded."""
        start = self._pos
        expression = self._parse_primary()
        tags = self._tags
        tag = tags[self._pos]
        if tag != "(" and tag != ".":
            return expression
        while True:
            if tag == "(":
                if not isinstance(expression, (ast.Name, ast.MemberAccess)):
                    raise VBAParseError(
                        "cannot call this expression", self._lines[self._pos]
                    )
                args = self._parse_arguments()
                if isinstance(expression, ast.Name):
                    expression = ast.Call(expression.name, args, expression.line)
                else:
                    expression = ast.MemberAccess(
                        expression.base, expression.member, args, expression.line
                    )
            elif tag == ".":
                self._pos += 1
                member = self._advance()
                if self._kinds[member] not in _NAME_KINDS:
                    raise VBAParseError(
                        f"expected member name, found {self._texts[member]!r}",
                        self._lines[member],
                    )
                expression = ast.MemberAccess(
                    expression, self._texts[member], None, self._lines[member]
                )
            else:
                # Only the whole chain may be replaced: its parts are a
                # callee or a member's base.
                if replaceable:
                    self.spans[id(expression)] = (self._pos - 1) * _SPAN_BASE + start
                return expression
            tag = tags[self._pos]

    def _parse_arguments(self) -> tuple[ast.Expression, ...]:
        """``(a, b, …)``; the cursor is on the ``(``."""
        self._pos += 1
        tags = self._tags
        args: list[ast.Expression] = []
        if tags[self._pos] != ")":
            args.append(self._parse_expression())
            while tags[self._pos] == ",":
                self._pos += 1
                args.append(self._parse_expression())
        self._expect(")")
        return tuple(args)

    def _parse_primary(self) -> ast.Expression:
        position = self._pos
        kind = self._kinds[position]
        text = self._texts[position]
        line = self._lines[position]
        # Every kind matched here sits before EOF, the last position.
        if kind is TokenKind.IDENTIFIER:
            self._pos = position + 1
            name = ast.Name(text, line)
            if self._tags[position + 1] not in _POSTFIX:  # else a callee or a base
                self.spans[id(name)] = position
            return name
        if kind is TokenKind.STRING:
            self._pos = position + 1
            return ast.Literal(string_value(text), line)
        if kind is TokenKind.NUMBER:
            self._pos = position + 1
            return ast.Literal(_parse_number(text, line), line)
        if kind is TokenKind.DATE:
            self._pos = position + 1
            return ast.Literal(text, line)
        if kind is TokenKind.KEYWORD:
            self._pos = position + 1
            keyword = self._tags[position]
            if keyword == "true":
                return ast.Literal(True, line)
            if keyword == "false":
                return ast.Literal(False, line)
            if keyword in ("nothing", "null", "empty"):
                return ast.Literal(None, line)
            # Type-conversion builtins (CStr, CLng, …) lex as keywords but are
            # callable; treat them as names.
            name = ast.Name(text, line)
            if self._tags[position + 1] not in _POSTFIX:
                self.spans[id(name)] = position
            return name
        if text == "(" and kind is TokenKind.PUNCT:
            self._pos = position + 1
            inner = self._parse_expression()
            last = self._expect(")")
            self.spans[id(inner)] = last * _SPAN_BASE + position
            return inner
        raise VBAParseError(f"unexpected token {text!r}", line)


def _parse_number(text: str, line: int) -> int | float:
    body = text.rstrip("%&!#@^")
    if body.lower() in ("&h", "&o"):
        # The lexer takes a bare ``&H``/``&O`` as a number; VBA does not.
        raise VBAParseError(f"radix literal {text!r} has no digits", line)
    if body.lower().startswith("&h"):
        return int(body[2:], 16)
    if body.lower().startswith("&o"):
        return int(body[2:], 8)
    if "." in body or "e" in body.lower():
        return float(body)
    return int(body)
