"""Recursive-descent parser for the executable VBA subset.

Parses the constructs the corpus generators and obfuscation engine emit —
a practical subset of [MS-VBAL] — into the AST of
:mod:`repro.vba.ast_nodes`.  Anything outside the subset raises
:class:`VBAParseError` with a line number.
"""

from __future__ import annotations

from repro.vba import ast_nodes as ast
from repro.vba.lexer import TokenTable, lex
from repro.vba.tokens import Token, TokenKind


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
#: ``^`` bind tighter than all of these (``_parse_unary``/``_parse_power``).
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


def parse_module(
    source: str,
    tolerant: bool = False,
    tokens: TokenTable | None = None,
) -> ast.Module:
    """Parse a whole module: procedures plus module-level statements.

    With ``tolerant=True``, statements outside the supported subset are
    preserved verbatim as :class:`~repro.vba.ast_nodes.NoOpStmt` instead of
    raising — the mode the de-obfuscator uses so host-I/O chatter
    (``Declare``, ``Open … For Binary``, ``Put #``) survives unchanged.

    ``tokens`` lets a caller that already lexed ``source`` (the analyzer
    keeps its :class:`~repro.vba.lexer.TokenTable`) skip the
    re-tokenization, which dominates parse cost on large modules.  It must
    be the table :func:`~repro.vba.lexer.lex` built for exactly
    ``source``; the parser reads the table's shared code-position views.
    """
    return _Parser(source, tolerant=tolerant, tokens=tokens).parse_module()


def parse_statements(source: str) -> list[ast.Statement]:
    """Parse a bare statement list (no procedure wrapper), for tests."""
    parser = _Parser(source)
    body = parser.parse_statement_block(terminators=frozenset())
    parser.expect_eof()
    return list(body)


class _Parser:
    def __init__(
        self,
        source: str,
        tolerant: bool = False,
        tokens: TokenTable | None = None,
    ) -> None:
        self._tolerant = tolerant
        self._tokens = (lex(source) if tokens is None else tokens).code_tokens()
        self._pos = 0
        self._last = len(self._tokens) - 1
        #: statements already parsed but not yet delivered — a single source
        #: statement can expand to several AST statements (``Const A = 1, B = 2``)
        self._pending: list[ast.Statement] = []

    # ------------------------------------------------------------------
    # Token cursor helpers

    def _peek(self) -> Token:
        # ``_advance`` stops on the last token (EOF), so ``_pos`` is always
        # a valid index.
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if self._pos < self._last:
            self._pos += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.KEYWORD and token.text.lower() in words

    def _at_punct(self, text: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.PUNCT and token.text == text

    def _at_operator(self, text: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.OPERATOR and token.text == text

    def _expect_keyword(self, word: str) -> Token:
        if not self._at_keyword(word):
            raise VBAParseError(
                f"expected {word!r}, found {self._peek().text!r}", self._peek().line
            )
        return self._advance()

    def _expect_punct(self, text: str) -> Token:
        if not self._at_punct(text):
            raise VBAParseError(
                f"expected {text!r}, found {self._peek().text!r}", self._peek().line
            )
        return self._advance()

    def _expect_identifier(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENTIFIER:
            raise VBAParseError(
                f"expected identifier, found {token.text!r}", token.line
            )
        return self._advance()

    def _skip_separators(self) -> None:
        while self._peek().kind is TokenKind.NEWLINE or self._at_punct(":"):
            self._advance()

    def _end_of_statement(self) -> bool:
        return self._peek().kind in (TokenKind.NEWLINE, TokenKind.EOF) or self._at_punct(":")

    def expect_eof(self) -> None:
        self._skip_separators()
        if self._peek().kind is not TokenKind.EOF:
            raise VBAParseError(
                f"unexpected trailing {self._peek().text!r}", self._peek().line
            )

    # ------------------------------------------------------------------
    # Module level

    def parse_module(self) -> ast.Module:
        module = ast.Module()
        while True:
            if self._pending:
                module.module_statements.append(self._pending.pop(0))
                continue
            self._skip_separators()
            token = self._peek()
            if token.kind is TokenKind.EOF:
                break
            self._consume_modifiers()
            if self._at_keyword("sub", "function"):
                start = self._pos
                pending_mark = len(self._pending)
                try:
                    procedure = self._parse_procedure()
                except VBAParseError:
                    # A malformed header (``Sub Broken(((``) must not abort a
                    # tolerant parse: drop the header line and resume at
                    # module level.  A file truncated mid-procedure (EOF
                    # before ``End Sub``) stays a hard error — its body
                    # cannot be attributed to anything.
                    if not self._tolerant or self._peek().kind is TokenKind.EOF:
                        raise
                    self._pos = start
                    del self._pending[pending_mark:]
                    line = self._peek().line
                    raw = self._skip_rest_of_line()
                    module.module_statements.append(ast.NoOpStmt(raw, line))
                    continue
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
        while self._peek().kind is TokenKind.KEYWORD and self._peek().text.lower() in _MODIFIER_KEYWORDS:
            self._advance()
            consumed = True
        return consumed

    def _parse_procedure(self) -> ast.Procedure:
        keyword = self._advance()  # sub | function
        kind = keyword.text.lower()
        name = self._expect_identifier()
        params: list[str] = []
        if self._at_punct("("):
            self._advance()
            while not self._at_punct(")"):
                # Skip parameter modifiers.
                while self._at_keyword("byval", "byref", "optional", "paramarray"):
                    self._advance()
                param = self._expect_identifier()
                params.append(param.text)
                if self._at_keyword("as"):
                    self._advance()
                    self._advance()  # type name (keyword or identifier)
                if self._at_punct(","):
                    self._advance()
            self._expect_punct(")")
        if self._at_keyword("as"):
            self._advance()
            self._advance()  # return type
        body = self.parse_statement_block(terminators=frozenset({"end"}))
        self._expect_keyword("end")
        self._expect_keyword(kind)
        return ast.Procedure(
            kind=kind,
            name=name.text,
            params=tuple(params),
            body=body,
            line=keyword.line,
        )

    # ------------------------------------------------------------------
    # Statements

    def parse_statement_block(
        self, terminators: frozenset[str]
    ) -> tuple[ast.Statement, ...]:
        """Parse statements until a terminator keyword is at statement start."""
        statements: list[ast.Statement] = []
        while True:
            if self._pending:
                statements.append(self._pending.pop(0))
                continue
            self._skip_separators()
            token = self._peek()
            if token.kind is TokenKind.EOF:
                break
            if token.kind is TokenKind.KEYWORD and token.text.lower() in terminators:
                break
            statements.append(self._parse_statement_or_raw())
        return tuple(statements)

    def _parse_statement_or_raw(self) -> ast.Statement:
        start = self._pos
        pending_mark = len(self._pending)
        line = self._peek().line
        try:
            return self._parse_statement()
        except VBAParseError:
            if not self._tolerant:
                raise
            self._pos = start
            del self._pending[pending_mark:]  # drop partial expansions
            raw = self._skip_rest_of_line()
            return ast.NoOpStmt(raw, line)

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()

        if token.kind is TokenKind.KEYWORD:
            keyword = token.text.lower()
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
                line = token.line
                head = self._advance().text
                rest = self._skip_rest_of_line()
                text = f"{head} {rest}".strip()
                return ast.NoOpStmt(text, line)
            raise VBAParseError(f"unsupported statement {token.text!r}", token.line)

        if token.kind is TokenKind.IDENTIFIER:
            lowered = token.text.lower()
            if lowered in _NOOP_STATEMENTS:
                line = token.line
                head = self._advance().text
                rest = self._skip_rest_of_line()
                text = f"{head} {rest}".strip()
                return ast.NoOpStmt(text, line)
            if self._at_label():
                self._advance()
                self._advance()  # the ``:``
                return ast.NoOpStmt(f"{token.text}:", token.line)
            return self._parse_assignment_or_call()

        raise VBAParseError(f"unexpected token {token.text!r}", token.line)

    def _at_label(self) -> bool:
        """A line label: the name opening a physical line, then ``:``
        (``Again:`` — a ``GoTo`` target, not a call of ``Again``)."""
        position = self._pos
        tokens = self._tokens
        return (
            position < self._last
            and (position == 0 or tokens[position - 1].kind is TokenKind.NEWLINE)
            and tokens[position + 1].kind is TokenKind.PUNCT
            and tokens[position + 1].text == ":"
        )

    def _skip_rest_of_line(self) -> str:
        """Skip to end of statement, returning the skipped tokens' text."""
        pieces: list[str] = []
        while not self._end_of_statement():
            pieces.append(self._advance().text)
        return " ".join(pieces)

    def _parse_dim(self) -> ast.Statement:
        keyword = self._advance()  # dim / redim
        names: list[tuple[str, ast.Expression | None]] = []
        while True:
            if self._at_keyword("preserve"):
                self._advance()
            name = self._expect_identifier()
            extent: ast.Expression | None = None
            if self._at_punct("("):
                self._advance()
                if not self._at_punct(")"):
                    extent = self._parse_expression()
                    # ``Dim a(1 To 10)`` — keep the upper bound.
                    if self._at_keyword("to"):
                        self._advance()
                        extent = self._parse_expression()
                self._expect_punct(")")
            names.append((name.text, extent))
            if self._at_keyword("as"):
                self._advance()
                self._advance()  # type
            if self._at_punct(","):
                self._advance()
                continue
            break
        return ast.DimStmt(tuple(names), keyword.line)

    def _parse_const(self) -> ast.Statement:
        keyword = self._expect_keyword("const")
        first = self._parse_one_const(keyword.line)
        # ``Const A = 1, B = 2`` expands into one ConstStmt per name; the
        # extras are queued and drained by the enclosing block loop.
        while self._at_punct(","):
            self._advance()
            self._pending.append(self._parse_one_const(keyword.line))
        return first

    def _parse_one_const(self, line: int) -> ast.ConstStmt:
        name = self._expect_identifier()
        if self._at_keyword("as"):
            self._advance()
            self._advance()
        if not self._at_operator("="):
            raise VBAParseError("Const requires '='", line)
        self._advance()
        value = self._parse_expression()
        return ast.ConstStmt(name.text, value, line)

    def _parse_assignment_or_call(self) -> ast.Statement:
        start = self._peek()
        target = self._parse_postfix()
        if self._at_operator("="):
            self._advance()
            value = self._parse_expression()
            if isinstance(target, (ast.Name, ast.Call, ast.MemberAccess)):
                return ast.Assign(target, value, start.line)
            raise VBAParseError("invalid assignment target", start.line)
        # Statement-position call: ``Helper`` or ``Shell prog, 1``.
        if isinstance(target, (ast.Call, ast.MemberAccess)) and self._end_of_statement():
            return ast.CallStmt(target, start.line)
        if isinstance(target, ast.Name):
            if self._end_of_statement():
                return ast.CallStmt(
                    ast.Call(target.name, (), start.line), start.line
                )
            args = [self._parse_expression()]
            while self._at_punct(","):
                self._advance()
                args.append(self._parse_expression())
            return ast.CallStmt(
                ast.Call(target.name, tuple(args), start.line), start.line
            )
        if isinstance(target, ast.MemberAccess):
            # ``obj.Method arg1, arg2`` — attach the arguments.
            args = [self._parse_expression()]
            while self._at_punct(","):
                self._advance()
                args.append(self._parse_expression())
            return ast.CallStmt(
                ast.MemberAccess(
                    target.base, target.member, tuple(args), start.line
                ),
                start.line,
            )
        raise VBAParseError(
            f"cannot parse statement at {start.text!r}", start.line
        )

    def _parse_if(self) -> ast.Statement:
        keyword = self._expect_keyword("if")
        condition = self._parse_expression()
        self._expect_keyword("then")
        if not self._end_of_statement():
            # Single-line If: colon-separated statements after ``Then`` are
            # part of the then-body (``If a Then b = 1: c = 2``), up to an
            # optional single-line ``Else``.
            then_body = self._parse_inline_body()
            else_body: tuple[ast.Statement, ...] = ()
            if self._at_keyword("else"):
                self._advance()
                else_body = self._parse_inline_body()
            return ast.IfStmt(
                ((condition, then_body),), else_body, keyword.line
            )
        branches: list[tuple[ast.Expression, tuple[ast.Statement, ...]]] = []
        body = self.parse_statement_block(
            terminators=frozenset({"elseif", "else", "end"})
        )
        branches.append((condition, body))
        else_body = ()
        while True:
            if self._at_keyword("elseif"):
                self._advance()
                branch_condition = self._parse_expression()
                self._expect_keyword("then")
                branch_body = self.parse_statement_block(
                    terminators=frozenset({"elseif", "else", "end"})
                )
                branches.append((branch_condition, branch_body))
                continue
            if self._at_keyword("else"):
                self._advance()
                else_body = self.parse_statement_block(
                    terminators=frozenset({"end"})
                )
            break
        self._expect_keyword("end")
        self._expect_keyword("if")
        return ast.IfStmt(tuple(branches), else_body, keyword.line)

    def _parse_inline_body(self) -> tuple[ast.Statement, ...]:
        """Parse colon-joined statements on a single-line ``If`` branch."""
        body = [self._parse_statement()]
        body.extend(self._drain_pending())
        while self._at_punct(":"):
            while self._at_punct(":"):
                self._advance()
            if self._peek().kind in (TokenKind.NEWLINE, TokenKind.EOF):
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

    def _parse_for(self) -> ast.Statement:
        keyword = self._expect_keyword("for")
        if self._at_keyword("each"):
            self._advance()
            var = self._expect_identifier()
            self._expect_keyword("in")
            iterable = self._parse_expression()
            body = self.parse_statement_block(terminators=frozenset({"next"}))
            self._expect_keyword("next")
            if self._peek().kind is TokenKind.IDENTIFIER:
                self._advance()
            return ast.ForEachStmt(var.text, iterable, body, keyword.line)
        var = self._expect_identifier()
        if not self._at_operator("="):
            raise VBAParseError("For requires '='", keyword.line)
        self._advance()
        start = self._parse_expression()
        self._expect_keyword("to")
        end = self._parse_expression()
        step: ast.Expression | None = None
        if self._at_keyword("step"):
            self._advance()
            step = self._parse_expression()
        body = self.parse_statement_block(terminators=frozenset({"next"}))
        self._expect_keyword("next")
        if self._peek().kind is TokenKind.IDENTIFIER:
            self._advance()
        return ast.ForStmt(var.text, start, end, step, body, keyword.line)

    def _parse_do(self) -> ast.Statement:
        keyword = self._expect_keyword("do")
        if self._at_keyword("while", "until"):
            kind = self._advance().text.lower()
            condition = self._parse_expression()
            body = self.parse_statement_block(terminators=frozenset({"loop"}))
            self._expect_keyword("loop")
            return ast.DoLoopStmt(condition, kind, True, body, keyword.line)
        body = self.parse_statement_block(terminators=frozenset({"loop"}))
        self._expect_keyword("loop")
        if self._at_keyword("while", "until"):
            kind = self._advance().text.lower()
            condition = self._parse_expression()
            return ast.DoLoopStmt(condition, kind, False, body, keyword.line)
        # ``Do … Loop`` with no condition: infinite — require Exit Do.
        return ast.DoLoopStmt(
            ast.Literal(True, keyword.line), "while", True, body, keyword.line
        )

    def _parse_while_wend(self) -> ast.Statement:
        keyword = self._expect_keyword("while")
        condition = self._parse_expression()
        body = self.parse_statement_block(terminators=frozenset({"wend"}))
        self._expect_keyword("wend")
        return ast.DoLoopStmt(condition, "while", True, body, keyword.line)

    def _parse_with(self) -> ast.Statement:
        keyword = self._expect_keyword("with")
        subject = self._parse_expression()
        body: list[ast.Statement] = []
        while True:
            self._skip_separators()
            if self._at_keyword("end"):
                break
            if self._peek().kind is TokenKind.EOF:
                raise VBAParseError("unterminated With block", keyword.line)
            if self._at_punct("."):
                # ``.Member = value`` / ``.Method args`` — host operations
                # on the block subject, preserved verbatim.
                line = self._peek().line
                raw = self._skip_rest_of_line()
                body.append(ast.NoOpStmt(raw, line))
                continue
            body.append(self._parse_statement_or_raw())
        self._expect_keyword("end")
        self._expect_keyword("with")
        return ast.WithStmt(subject, tuple(body), keyword.line)

    def _parse_exit(self) -> ast.Statement:
        keyword = self._expect_keyword("exit")
        token = self._advance()
        kind = token.text.lower()
        if kind not in ("sub", "function", "for", "do"):
            raise VBAParseError(f"cannot Exit {token.text!r}", keyword.line)
        return ast.ExitStmt(kind, keyword.line)

    def _parse_call_keyword(self) -> ast.Statement:
        keyword = self._expect_keyword("call")
        target = self._parse_postfix()
        if isinstance(target, ast.Name):
            target = ast.Call(target.name, (), target.line)
        if not isinstance(target, (ast.Call, ast.MemberAccess)):
            raise VBAParseError("Call requires a procedure", keyword.line)
        return ast.CallStmt(target, keyword.line)

    # ------------------------------------------------------------------
    # Expressions (binding-power loop over the VBA operator table)

    def _parse_expression(self, min_bp: int = 1) -> ast.Expression:
        """Parse operators binding at least ``min_bp`` tightly.

        Every binary operator is left-associative: its right operand is
        parsed at one more than its own binding power.  ``Not`` is a prefix
        operator at binding power 4 (between ``And`` and the comparisons);
        where a tighter operand is wanted it stays a plain ``Name``.
        """
        token = self._peek()
        if (
            min_bp <= _NOT_BP
            and token.kind is TokenKind.KEYWORD
            and token.text.lower() == "not"
        ):
            self._advance()
            operand = self._parse_expression(_NOT_BP)
            left: ast.Expression = ast.UnaryOp("not", operand, token.line)
        else:
            left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind is not TokenKind.OPERATOR and token.kind is not TokenKind.KEYWORD:
                break
            op = token.text.lower()
            bp = _BINARY_BP.get(op)
            if bp is None or bp < min_bp:
                break
            self._advance()
            right = self._parse_expression(bp + 1)
            left = ast.BinOp(op, left, right, left.line)
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._at_operator("-"):
            token = self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp("-", operand, token.line)
        if self._at_operator("+"):
            self._advance()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self) -> ast.Expression:
        left = self._parse_postfix()
        if self._at_operator("^"):
            self._advance()
            right = self._parse_unary()
            return ast.BinOp("^", left, right, left.line)
        return left

    def _parse_postfix(self) -> ast.Expression:
        expression = self._parse_primary()
        while True:
            if self._at_punct("("):
                if not isinstance(expression, (ast.Name, ast.MemberAccess)):
                    raise VBAParseError(
                        "cannot call this expression", self._peek().line
                    )
                args = self._parse_arguments()
                if isinstance(expression, ast.Name):
                    expression = ast.Call(expression.name, args, expression.line)
                else:
                    expression = ast.MemberAccess(
                        expression.base, expression.member, args, expression.line
                    )
                continue
            if self._at_punct("."):
                self._advance()
                member = self._advance()
                if member.kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
                    raise VBAParseError(
                        f"expected member name, found {member.text!r}", member.line
                    )
                expression = ast.MemberAccess(
                    expression, member.text, None, member.line
                )
                continue
            break
        return expression

    def _parse_arguments(self) -> tuple[ast.Expression, ...]:
        self._expect_punct("(")
        args: list[ast.Expression] = []
        if not self._at_punct(")"):
            args.append(self._parse_expression())
            while self._at_punct(","):
                self._advance()
                args.append(self._parse_expression())
        self._expect_punct(")")
        return tuple(args)

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.string_value, token.line)
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ast.Literal(_parse_number(token.text), token.line)
        if token.kind is TokenKind.DATE:
            self._advance()
            return ast.Literal(token.text, token.line)
        if token.kind is TokenKind.IDENTIFIER:
            self._advance()
            return ast.Name(token.text, token.line)
        if token.kind is TokenKind.KEYWORD:
            keyword = token.text.lower()
            if keyword == "true":
                self._advance()
                return ast.Literal(True, token.line)
            if keyword == "false":
                self._advance()
                return ast.Literal(False, token.line)
            if keyword in ("nothing", "null", "empty"):
                self._advance()
                return ast.Literal(None, token.line)
            # Type-conversion builtins (CStr, CLng, …) lex as keywords but are
            # callable; treat them as names.
            self._advance()
            return ast.Name(token.text, token.line)
        if self._at_punct("("):
            self._advance()
            inner = self._parse_expression()
            self._expect_punct(")")
            return inner
        raise VBAParseError(f"unexpected token {token.text!r}", token.line)


def _parse_number(text: str) -> int | float:
    body = text.rstrip("%&!#@^")
    if body.lower().startswith("&h"):
        return int(body[2:], 16)
    if body.lower().startswith("&o"):
        return int(body[2:], 8)
    if "." in body or "e" in body.lower():
        return float(body)
    return int(body)
