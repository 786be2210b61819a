"""The lint context and token rules before the word index, kept as the reference.

These are the :class:`~repro.lint.context.LintContext` and the O1–O4 and
anti-analysis rules that the indexed context replaced.  Every rule walks
the whole significant-token stream or every logical statement through the
``is_*`` predicates, and the context rebuilds nothing it does not have to,
so the code is slow but spelled out step by step.  The tests require the
production rules to yield the same findings, field for field, on the same
inputs.  Kept verbatim; do not "fix" it.

The ``SA`` rules over recovered strings did not change and are imported
from :mod:`repro.lint.rules.recovered`.
"""

from __future__ import annotations

import re
from functools import cached_property

from repro.lint.findings import Finding, sort_findings
from repro.lint.registry import Rule
from repro.lint.rules.recovered import (
    LiteralDisagreement,
    RecoveredAutoOpen,
    RecoveredIoc,
)
from repro.vba.analyzer import MacroAnalysis
from repro.vba.parser import VBAParseError, parse_module
from repro.vba.tokens import Token, TokenKind

#: rule id -> rule singleton, filled by :func:`register_rule` below.
ORACLE_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    ORACLE_RULES[cls.rule_id] = cls()
    return cls


# -- context ----------------------------------------

_NAME_KINDS = (TokenKind.IDENTIFIER, TokenKind.KEYWORD)


#: ReDoS / pathological-line guard: the longest physical-line prefix any
#: rule gets to scan.  Hostile macros pack megabytes onto one line (a
#: whole payload in one concatenation chain); rules that re-scan line text
#: must stay O(cap), not O(line).  4 KiB comfortably covers every line a
#: human or a legitimate generator writes.
MAX_LINE_SCAN_CHARS = 4096


def is_name(token: Token, *names: str) -> bool:
    """True when the token is an identifier/keyword matching one of ``names``.

    Matching is case-insensitive and ignores a VBA type suffix
    (``Mid$`` matches ``mid``).
    """
    if token.kind not in _NAME_KINDS:
        return False
    text = token.text.lower()
    if text and text[-1] in "%&!#@$":
        text = text[:-1]
    return text in names


def is_keyword(token: Token, *words: str) -> bool:
    return token.kind is TokenKind.KEYWORD and token.text.lower() in words


def is_punct(token: Token, text: str) -> bool:
    return token.kind is TokenKind.PUNCT and token.text == text


def is_operator(token: Token, *texts: str) -> bool:
    return token.kind is TokenKind.OPERATOR and token.text in texts


def token_span(token: Token) -> tuple[int, int]:
    """The 1-based ``[start, end)`` column span of a token on its line."""
    return (token.column, token.column + len(token.text))


class LintContext:
    """Cached views over one macro's analysis, shared across all rules."""

    def __init__(
        self,
        analysis: MacroAnalysis,
        recovery: "object | None" = None,
    ) -> None:
        self.analysis = analysis
        #: statically recovered strings from the engine's RecoverStage;
        #: ``None`` when the recover pass did not run (the SA rules then
        #: stay silent)
        self.recovery = recovery

    @cached_property
    def significant(self) -> list[Token]:
        """Tokens with whitespace, continuations, comments and EOF dropped."""
        unwanted = (
            TokenKind.WHITESPACE,
            TokenKind.NEWLINE,
            TokenKind.LINE_CONTINUATION,
            TokenKind.COMMENT,
            TokenKind.EOF,
        )
        return [
            token
            for token in self.analysis.tokens
            if token.kind not in unwanted
        ]

    @cached_property
    def statements(self) -> list[list[Token]]:
        """Significant tokens grouped into logical statements.

        Statements break on newlines and on ``:`` separators outside
        parentheses (``DoEvents: i = i + 1`` is two statements).  Line
        continuations were already spliced by the lexer, so a continued
        statement arrives as one group.
        """
        groups: list[list[Token]] = []
        current: list[Token] = []
        depth = 0
        unwanted = (
            TokenKind.WHITESPACE,
            TokenKind.LINE_CONTINUATION,
            TokenKind.COMMENT,
            TokenKind.EOF,
        )
        for token in self.analysis.tokens:
            if token.kind in unwanted:
                continue
            if token.kind is TokenKind.NEWLINE or (
                depth == 0 and is_punct(token, ":")
            ):
                if current:
                    groups.append(current)
                    current = []
                continue
            if is_punct(token, "("):
                depth += 1
            elif is_punct(token, ")"):
                depth = max(0, depth - 1)
            current.append(token)
        if current:
            groups.append(current)
        return groups

    @cached_property
    def use_counts(self) -> dict[str, int]:
        """Lower-cased identifier-use counts (declaration sites excluded)."""
        counts: dict[str, int] = {}
        for name in self.analysis.identifier_uses:
            key = name.lower()
            counts[key] = counts.get(key, 0) + 1
        return counts

    @cached_property
    def first_name_token(self) -> dict[str, Token]:
        """First identifier token per lower-cased name, for locating declarations."""
        first: dict[str, Token] = {}
        for token in self.significant:
            if token.kind is TokenKind.IDENTIFIER:
                first.setdefault(token.text.lower(), token)
        return first

    def line_text(self, line: int) -> str:
        """The trimmed source text of a 1-based physical line.

        Capped to :data:`MAX_LINE_SCAN_CHARS` *before* any other string
        work, so one multi-megabyte line cannot turn a rule sweep
        quadratic (the slice keeps every later scan O(cap))."""
        lines = self.analysis.lines
        if 1 <= line <= len(lines):
            return lines[line - 1][:MAX_LINE_SCAN_CHARS].strip()
        return ""

    def evidence(self, token: Token, limit: int = 120) -> str:
        """Trimmed source line of ``token``, capped to ``limit`` characters."""
        text = self.line_text(token.line)
        if len(text) > limit:
            text = text[: limit - 1] + "…"
        return text


# -- rules.antianalysis ----------------------------------------

_USERFORM = re.compile(r"userform\d*\Z")


#: Storage-read members that return data when *called* (need a ``(``).
_CALL_MEMBERS = ("variables", "customdocumentproperties")


#: Storage-read members that hide data in plain control properties.
_PROPERTY_MEMBERS = ("caption", "controltiptext", "tag")


#: Keywords that make a statement a guard condition.
_CONDITION_KEYWORDS = ("if", "elseif", "while", "until")


@register_rule
class HiddenStringRead(Rule):
    """Payload strings read from document storage instead of literals.

    Document variables, custom document properties, and control captions
    (Fig. 8(a) and [MS-OFORMS]) let a macro keep its strings out of the
    module text entirely; any such read is worth surfacing.
    """

    rule_id = "aa-hidden-strings"
    o_class = "AA"
    severity = "high"
    description = "string data read from document storage instead of a literal"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        for index, token in enumerate(tokens):
            nxt = tokens[index + 1] if index + 1 < len(tokens) else None
            nxt2 = tokens[index + 2] if index + 2 < len(tokens) else None
            if is_punct(token, ".") and nxt is not None:
                if is_name(nxt, *_CALL_MEMBERS) and nxt2 is not None and is_punct(
                    nxt2, "("
                ):
                    yield self._read(ctx, token, f".{nxt.text}(")
                elif is_name(nxt, *_PROPERTY_MEMBERS):
                    yield self._read(ctx, token, f".{nxt.text}")
            elif (
                token.kind is TokenKind.IDENTIFIER
                and _USERFORM.match(token.text.lower())
                and nxt is not None
                and is_punct(nxt, ".")
                and nxt2 is not None
                and nxt2.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
            ):
                yield self._read(ctx, token, f"{token.text}.{nxt2.text}")

    def _read(self, ctx: LintContext, token: Token, expr: str) -> Finding:
        return self.finding(ctx, token, f"document-storage read: {expr!r}")


@register_rule
class BrokenCodeShadow(Rule):
    """Fig. 8(b): unparseable code shadowed by an early ``Exit``.

    The signature is an ``Exit Sub``/``Exit Function`` followed by
    statements (before ``End Sub``) that the strict parser rejects while
    the prefix up to the exit parses fine — broken junk that never runs
    but crashes naive parsers.
    """

    rule_id = "aa-broken-code"
    o_class = "AA"
    severity = "high"
    description = "unparseable statements hidden behind an early Exit"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        exit_lines = [
            token.line
            for index, token in enumerate(tokens[:-1])
            if is_keyword(token, "exit")
            and tokens[index + 1].text.lower() in ("sub", "function")
        ]
        if not exit_lines:
            return
        try:
            parse_module(ctx.analysis.source, tokens=ctx.analysis.table)
            return  # everything parses: nothing broken after the exit
        except VBAParseError as error:
            for exit_line in exit_lines:
                if error.line > exit_line:
                    yield Finding(
                        rule_id=self.rule_id,
                        o_class=self.o_class,
                        severity=self.severity,
                        line=error.line,
                        span=(1, max(2, len(ctx.line_text(error.line)) + 1)),
                        message=(
                            f"unparseable statement at line {error.line} is "
                            f"shadowed by Exit at line {exit_line}: {error}"
                        ),
                        evidence=ctx.line_text(error.line),
                    )
                    return


@register_rule
class FlowEvasionGuard(Rule):
    """Sandbox-evasion guards wrapping the payload (§VI.B.3 and [45]).

    Fires only when the environment probe sits in a *condition* statement
    (``If``/``ElseIf``/``While``/``Until``) — reading ``Environ`` into a
    variable is ordinary code, branching on it is evasion.
    """

    rule_id = "aa-flow-evasion"
    o_class = "AA"
    severity = "high"
    description = "environment-check guard around macro logic"

    def scan(self, ctx: LintContext):
        for statement in ctx.statements:
            if not any(
                is_keyword(token, *_CONDITION_KEYWORDS) for token in statement
            ):
                continue
            for index, token in enumerate(statement):
                if self._is_probe(statement, index):
                    yield self.finding(
                        ctx,
                        token,
                        "environment-check guard: "
                        f"{ctx.line_text(token.line)!r}",
                    )

    @staticmethod
    def _is_probe(statement: list[Token], index: int) -> bool:
        token = statement[index]
        nxt = statement[index + 1] if index + 1 < len(statement) else None
        nxt2 = statement[index + 2] if index + 2 < len(statement) else None

        # GetTickCount / Timer used as a bare timing probe.
        if is_name(token, "gettickcount", "timer"):
            return True
        # RecentFiles.Count
        if (
            is_name(token, "recentfiles")
            and nxt is not None
            and is_punct(nxt, ".")
            and nxt2 is not None
            and is_name(nxt2, "count")
        ):
            return True
        # Application.Windows.Count — anchor on the Windows member.
        if (
            is_name(token, "windows")
            and index >= 2
            and is_punct(statement[index - 1], ".")
            and is_name(statement[index - 2], "application")
            and nxt is not None
            and is_punct(nxt, ".")
            and nxt2 is not None
            and is_name(nxt2, "count")
        ):
            return True
        # .MousePointer sandbox probe.
        if (
            is_punct(token, ".")
            and nxt is not None
            and is_name(nxt, "mousepointer")
        ):
            return True
        # Environ("USERNAME") / Environ("COMPUTERNAME")
        if (
            is_name(token, "environ")
            and nxt is not None
            and is_punct(nxt, "(")
            and nxt2 is not None
            and nxt2.kind is TokenKind.STRING
            and nxt2.string_value.upper() in ("USERNAME", "COMPUTERNAME")
        ):
            return True
        return False


# -- rules.o1_random ----------------------------------------

_VOWELS = frozenset("aeiou")


_DIGIT_GROUPS = re.compile(r"[0-9]+")


def looks_machine_generated(name: str) -> bool:
    """Heuristic: is this identifier machine noise rather than a human name?

    Only caseless (no interior capitals, no underscores) names of six or
    more characters qualify — casing and word separators are strong human
    signals, and short names (``i``, ``cnt``, ``tmp``) are idiomatic VBA.
    """
    if len(name) < 6:
        return False
    if any(ch.isupper() for ch in name) or "_" in name:
        return False
    # Letter-digit soup: ``x7k2p9q4w`` — several digit islands in one name.
    if len(_DIGIT_GROUPS.findall(name)) >= 2:
        return True
    letters = [ch for ch in name if ch.isalpha()]
    if len(letters) < 6:
        return False
    vowel_ratio = sum(ch in _VOWELS for ch in letters) / len(letters)
    run = longest = 0
    for ch in letters:
        run = run + 1 if ch not in _VOWELS else 0
        longest = max(longest, run)
    # Uniform letter soup: long consonant pileups or near-vowel-free names.
    if longest >= 4:
        return True
    if vowel_ratio <= 0.2:
        return True
    # Consonant-vowel generators: near-perfect alternation sustained over
    # 8+ letters, which English compounds essentially never do lowercase.
    if len(letters) >= 8 and 0.3 <= vowel_ratio <= 0.6:
        flips = sum(
            (a in _VOWELS) != (b in _VOWELS)
            for a, b in zip(letters, letters[1:])
        )
        if flips / (len(letters) - 1) >= 0.8:
            return True
    return False


@register_rule
class GibberishIdentifier(Rule):
    """A declared identifier that reads as machine-generated noise."""

    rule_id = "o1-gibberish-identifier"
    o_class = "O1"
    severity = "medium"
    description = (
        "declared identifier looks randomly generated "
        "(consonant soup, digit islands, or synthetic syllables)"
    )

    def scan(self, ctx: LintContext):
        for name in ctx.analysis.declared_identifiers:
            if not looks_machine_generated(name):
                continue
            token = ctx.first_name_token.get(name.lower())
            if token is None:
                continue
            yield self.finding(
                ctx,
                token,
                f"identifier {name!r} looks machine-generated",
            )


@register_rule
class NamingProfile(Rule):
    """Every declared name in the module is caseless machine-style.

    Real macros virtually always declare at least one CamelCase procedure
    or Hungarian-prefixed variable; a module whose *entire* declaration
    set is long caseless names has been bulk-renamed.
    """

    rule_id = "o1-naming-profile"
    o_class = "O1"
    severity = "low"
    description = "all declared identifiers share a caseless machine-naming profile"

    def scan(self, ctx: LintContext):
        declared = ctx.analysis.declared_identifiers
        if len(declared) < 2:
            return
        if not all(len(name) >= 6 and name == name.lower() for name in declared):
            return
        token = ctx.first_name_token.get(declared[0].lower())
        if token is None:
            return
        yield self.finding(
            ctx,
            token,
            f"all {len(declared)} declared identifiers are long caseless "
            "names — bulk-renaming profile",
        )


# -- rules.o2_split ----------------------------------------

_CONCAT = ("&", "+")


def iter_const_declarations(ctx: LintContext):
    """Yield ``(name_token, value_token)`` for single-literal Const items.

    Handles ``[Public|Private|Global] Const name [As Type] = "literal"``
    with multiple comma-separated items per statement.
    """
    for statement in ctx.statements:
        index = 0
        if index < len(statement) and is_keyword(
            statement[index], "public", "private", "global"
        ):
            index += 1
        if index >= len(statement) or not is_keyword(statement[index], "const"):
            continue
        index += 1
        while index < len(statement):
            if statement[index].kind is not TokenKind.IDENTIFIER:
                break
            name_token = statement[index]
            index += 1
            if index < len(statement) and is_keyword(statement[index], "as"):
                index += 2  # skip the type name
            if index >= len(statement) or not is_operator(statement[index], "="):
                break
            index += 1
            value_token: Token | None = None
            if (
                index < len(statement)
                and statement[index].kind is TokenKind.STRING
                and (
                    index + 1 >= len(statement)
                    or is_punct(statement[index + 1], ",")
                )
            ):
                value_token = statement[index]
            # Skip the initializer expression up to the next item separator.
            while index < len(statement) and not is_punct(statement[index], ","):
                index += 1
            index += 1
            if value_token is not None:
                yield name_token, value_token


@register_rule
class LiteralConcatenation(Rule):
    """Adjacent *short* string literals joined with ``&``/``+``.

    Benign code concatenates literals too — multi-line SQL, path joining
    (``basePath & "\\" & "data.xlsx"``) — but those fragments are readable
    words.  Split obfuscators carve strings into 1–4 character chunks, so
    the rule demands at least one adjacent pair where *both* literals are
    that short: ``"pow" & "ers" & "hell"`` fires, readable joins do not.
    """

    rule_id = "o2-literal-concat"
    o_class = "O2"
    severity = "medium"
    description = "short string fragments concatenated back-to-back"

    _MAX_FRAGMENT = 4

    def scan(self, ctx: LintContext):
        for statement in ctx.statements:
            index = 0
            while index + 2 < len(statement):
                if not (
                    statement[index].kind is TokenKind.STRING
                    and is_operator(statement[index + 1], *_CONCAT)
                    and statement[index + 2].kind is TokenKind.STRING
                ):
                    index += 1
                    continue
                literals = [statement[index], statement[index + 2]]
                end = index + 2
                while (
                    end + 2 < len(statement)
                    and is_operator(statement[end + 1], *_CONCAT)
                    and statement[end + 2].kind is TokenKind.STRING
                ):
                    literals.append(statement[end + 2])
                    end += 2
                short_pair = any(
                    len(a.string_value) <= self._MAX_FRAGMENT
                    and len(b.string_value) <= self._MAX_FRAGMENT
                    for a, b in zip(literals, literals[1:])
                )
                if short_pair:
                    yield self.finding(
                        ctx,
                        statement[index],
                        f"{len(literals)} string literals concatenated "
                        "back-to-back from short fragments (split-string "
                        "reassembly)",
                    )
                index = end + 1


@register_rule
class FragmentConstant(Rule):
    """A module constant holding a one- or two-character string fragment."""

    rule_id = "o2-fragment-const"
    o_class = "O2"
    severity = "medium"
    description = "Const holds a tiny string fragment of a split literal"

    def scan(self, ctx: LintContext):
        for name_token, value_token in iter_const_declarations(ctx):
            value = value_token.string_value
            if 0 < len(value) <= 2:
                yield self.finding(
                    ctx,
                    name_token,
                    f"constant {name_token.text!r} holds the "
                    f"{len(value)}-char fragment {value!r}",
                )


@register_rule
class DummyStringConstant(Rule):
    """A string constant that nothing in the module ever reads.

    The paper notes split-obfuscated macros 'contain many unused dummy
    strings'; obfuscators pad modules with them to skew string statistics.
    """

    rule_id = "o2-dummy-string"
    o_class = "O2"
    severity = "low"
    description = "unused dummy string constant"

    def scan(self, ctx: LintContext):
        for name_token, value_token in iter_const_declarations(ctx):
            if len(value_token.string_value) < 3:
                continue  # fragments are the other rule's business
            if ctx.use_counts.get(name_token.text.lower(), 0) == 0:
                yield self.finding(
                    ctx,
                    name_token,
                    f"string constant {name_token.text!r} is never read "
                    "(dummy string)",
                )


@register_rule
class CarvedLiteral(Rule):
    """``Mid``/``Left``/``Right``/``StrReverse`` applied to a string literal.

    Carving characters out of a literal at runtime (or reversing one) is
    a split idiom: the value being hidden exists only after the call.
    """

    rule_id = "o2-carved-literal"
    o_class = "O2"
    severity = "medium"
    description = "substring/reverse call carves data out of a string literal"

    _CARVERS = ("mid", "left", "right", "strreverse")

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        for index, token in enumerate(tokens[: len(tokens) - 2]):
            if (
                is_name(token, *self._CARVERS)
                and is_punct(tokens[index + 1], "(")
                and tokens[index + 2].kind is TokenKind.STRING
            ):
                yield self.finding(
                    ctx,
                    token,
                    f"{token.text}() carves data out of a string literal "
                    "at runtime",
                )


# -- rules.o3_encoding ----------------------------------------

_CHR_NAMES = ("chr", "chrw", "chrb")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


_B64_ALPHABET = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)


def _balanced_argument(tokens: list[Token], open_index: int) -> list[Token]:
    """Tokens inside the parenthesis opened at ``open_index`` (exclusive)."""
    depth = 0
    body: list[Token] = []
    for token in tokens[open_index:]:
        if is_punct(token, "("):
            depth += 1
            if depth == 1:
                continue
        elif is_punct(token, ")"):
            depth -= 1
            if depth == 0:
                break
        if depth >= 1:
            body.append(token)
    return body


@register_rule
class ChrChain(Rule):
    """Three or more ``Chr(<number>)`` calls in one statement."""

    rule_id = "o3-chr-chain"
    o_class = "O3"
    severity = "high"
    description = "string assembled from a chain of Chr() character codes"

    def scan(self, ctx: LintContext):
        for statement in ctx.statements:
            first: Token | None = None
            count = 0
            for index, token in enumerate(statement[: len(statement) - 2]):
                if (
                    is_name(token, *_CHR_NAMES)
                    and is_punct(statement[index + 1], "(")
                    and statement[index + 2].kind is TokenKind.NUMBER
                ):
                    count += 1
                    first = first or token
            if count >= 3 and first is not None:
                yield self.finding(
                    ctx,
                    first,
                    f"chain of {count} Chr(<code>) calls assembles a hidden "
                    "string",
                )


@register_rule
class NumericArray(Rule):
    """``Array(...)`` holding a run of plain numbers — encoded byte data."""

    rule_id = "o3-numeric-array"
    o_class = "O3"
    severity = "medium"
    description = "long all-numeric Array() literal (encoded payload bytes)"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        for index, token in enumerate(tokens[: len(tokens) - 1]):
            if not (is_name(token, "array") and is_punct(tokens[index + 1], "(")):
                continue
            body = _balanced_argument(tokens, index + 1)
            if not body:
                continue
            numbers = sum(1 for t in body if t.kind is TokenKind.NUMBER)
            separators = sum(1 for t in body if is_punct(t, ","))
            if numbers >= 4 and numbers == separators + 1 and len(body) == (
                numbers + separators
            ):
                yield self.finding(
                    ctx,
                    token,
                    f"Array() of {numbers} plain numbers looks like encoded "
                    "payload bytes",
                )


@register_rule
class DecodeLoop(Rule):
    """A loop body computing characters with ``Chr(<expression>)``.

    ``acc = acc & Chr(src(i) - 105)`` / ``Chr(b Xor key)`` inside a
    For/Do/While loop is the canonical shape of a user-defined decoder.
    Only non-trivial arguments count — ``Chr(65)`` alone is not a decode.
    """

    rule_id = "o3-decode-loop"
    o_class = "O3"
    severity = "high"
    description = "character-decode expression inside a loop"

    def scan(self, ctx: LintContext):
        depth = 0
        for statement in ctx.statements:
            head = statement[0]
            if is_keyword(head, "for", "do", "while"):
                depth += 1
                continue
            if is_keyword(head, "next", "loop", "wend"):
                depth = max(0, depth - 1)
                continue
            if depth == 0:
                continue
            for index, token in enumerate(statement[: len(statement) - 1]):
                if not (
                    is_name(token, *_CHR_NAMES)
                    and is_punct(statement[index + 1], "(")
                ):
                    continue
                argument = _balanced_argument(statement, index + 1)
                if self._is_computed(argument):
                    yield self.finding(
                        ctx,
                        token,
                        "Chr() over a computed value inside a loop — "
                        "runtime string decoder",
                    )
                    break

    @staticmethod
    def _is_computed(argument: list[Token]) -> bool:
        if len(argument) <= 1:
            return False  # bare number / bare name is not a decode
        return any(
            token.kind is TokenKind.OPERATOR
            or is_keyword(token, "xor", "and", "or", "not", "mod")
            or is_punct(token, "(")
            for token in argument
        )


@register_rule
class HexPackedLiteral(Rule):
    """A string literal that is one long run of hex digit pairs."""

    rule_id = "o3-hex-literal"
    o_class = "O3"
    severity = "medium"
    description = "string literal packed as hexadecimal byte pairs"

    def scan(self, ctx: LintContext):
        for token in ctx.significant:
            if token.kind is not TokenKind.STRING:
                continue
            value = token.string_value
            if (
                len(value) >= 8
                and len(value) % 2 == 0
                and all(ch in _HEX_DIGITS for ch in value)
            ):
                yield self.finding(
                    ctx,
                    token,
                    f"{len(value)}-char literal is a pure hex-digit run "
                    f"({len(value) // 2} packed bytes)",
                )


@register_rule
class Base64ShapedLiteral(Rule):
    """A string literal shaped like Base64-encoded data."""

    rule_id = "o3-base64-literal"
    o_class = "O3"
    severity = "medium"
    description = "string literal shaped like Base64 data"

    def scan(self, ctx: LintContext):
        for token in ctx.significant:
            if token.kind is not TokenKind.STRING:
                continue
            value = token.string_value
            stripped = value.rstrip("=")
            if len(value) - len(stripped) > 2:
                continue
            if (
                len(stripped) >= 16
                and len(value) % 4 == 0
                and all(ch in _B64_ALPHABET for ch in stripped)
                and any(ch.islower() for ch in stripped)
                and any(ch.isupper() for ch in stripped)
            ):
                yield self.finding(
                    ctx,
                    token,
                    f"{len(value)}-char literal matches the Base64 shape",
                )


@register_rule
class ReplaceMarkerDecode(Rule):
    """``Replace()`` over three literals — compile-time-constant decoding.

    ``Replace("savteRKtofilteRK", "teRK", "e")`` only makes sense when the
    first literal was deliberately salted; benign code replaces within
    *variables*, not within constants.
    """

    rule_id = "o3-replace-marker"
    o_class = "O3"
    severity = "high"
    description = "Replace() with all-literal arguments strips an inserted marker"

    def scan(self, ctx: LintContext):
        tokens = ctx.significant
        for index, token in enumerate(tokens[: len(tokens) - 6]):
            if not (is_name(token, "replace") and is_punct(tokens[index + 1], "(")):
                continue
            window = tokens[index + 2 : index + 7]
            if (
                window[0].kind is TokenKind.STRING
                and is_punct(window[1], ",")
                and window[2].kind is TokenKind.STRING
                and is_punct(window[3], ",")
                and window[4].kind is TokenKind.STRING
            ):
                yield self.finding(
                    ctx,
                    token,
                    "Replace() over three string literals — marker-decode of "
                    "a constant",
                )


# -- rules.o4_logic ----------------------------------------

#: Entry points the Office host invokes directly — never dead code.
_HOST_ENTRY_POINTS = frozenset(
    {
        "auto_open",
        "auto_close",
        "auto_exec",
        "autoopen",
        "autoclose",
        "autoexec",
        "document_open",
        "document_close",
        "document_new",
        "workbook_open",
        "workbook_close",
    }
)


def procedure_header(statement: list[Token]) -> tuple[str, Token] | None:
    """Parse ``[visibility] [Static] Sub|Function name`` statement heads.

    Returns ``(visibility, name_token)`` or ``None``.  ``Property``
    procedures are skipped: accessors are invoked implicitly by reads and
    writes, so a use count says nothing about their liveness.
    """
    index = 0
    visibility = "public"
    if index < len(statement) and is_keyword(
        statement[index], "public", "private", "friend"
    ):
        visibility = statement[index].text.lower()
        index += 1
    if index < len(statement) and is_keyword(statement[index], "static"):
        index += 1
    if index >= len(statement) or not is_keyword(
        statement[index], "sub", "function"
    ):
        return None
    index += 1
    if index >= len(statement) or statement[index].kind is not TokenKind.IDENTIFIER:
        return None
    return visibility, statement[index]


def iter_dim_names(statement: list[Token]):
    """Yield the name tokens declared by a ``Dim``/``Static`` statement."""
    index = 0
    if index < len(statement) and is_keyword(
        statement[index], "public", "private", "global"
    ):
        index += 1
    if index >= len(statement) or not is_keyword(statement[index], "dim", "static"):
        return
    index += 1
    depth = 0
    expecting_name = True
    while index < len(statement):
        token = statement[index]
        if token.kind is TokenKind.PUNCT:
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth = max(0, depth - 1)
            elif token.text == "," and depth == 0:
                expecting_name = True
        elif is_keyword(token, "as"):
            expecting_name = False
        elif (
            token.kind is TokenKind.IDENTIFIER and expecting_name and depth == 0
        ):
            yield token
            expecting_name = False
        index += 1


@register_rule
class DeadProcedure(Rule):
    """A ``Private`` procedure that no code in the module ever invokes.

    Private procedures are invisible to the host's macro UI, so an
    uncalled one is unreachable by construction — the signature of
    inserted junk procedures.  Public procedures and host entry points
    are exempt (the host calls them).
    """

    rule_id = "o4-dead-procedure"
    o_class = "O4"
    severity = "medium"
    description = "private procedure is never invoked (dead junk code)"

    def scan(self, ctx: LintContext):
        for statement in ctx.statements:
            header = procedure_header(statement)
            if header is None:
                continue
            visibility, name_token = header
            name = name_token.text.lower()
            if visibility != "private" or name in _HOST_ENTRY_POINTS:
                continue
            if ctx.use_counts.get(name, 0) == 0:
                yield self.finding(
                    ctx,
                    name_token,
                    f"private procedure {name_token.text!r} is never called",
                )


@register_rule
class UnusedVariable(Rule):
    """A ``Dim``'d variable that never appears again in the module."""

    rule_id = "o4-unused-variable"
    o_class = "O4"
    severity = "low"
    description = "declared variable is never used (dummy declaration)"

    def scan(self, ctx: LintContext):
        for statement in ctx.statements:
            for name_token in iter_dim_names(statement):
                if ctx.use_counts.get(name_token.text.lower(), 0) == 0:
                    yield self.finding(
                        ctx,
                        name_token,
                        f"variable {name_token.text!r} is declared but never "
                        "used",
                    )


@register_rule
class UnreachableCode(Rule):
    """Statements after an unconditional top-level ``Exit Sub``/``Function``.

    An ``Exit`` at procedure-body depth (not inside any block) makes every
    following statement before ``End Sub`` unreachable — where obfuscators
    park dummy or deliberately broken code.
    """

    rule_id = "o4-unreachable-code"
    o_class = "O4"
    severity = "medium"
    description = "code after an unconditional Exit Sub/Function is unreachable"

    _OPENERS = ("for", "do", "while", "with", "select")
    _CLOSERS = ("next", "loop", "wend")

    def scan(self, ctx: LintContext):
        statements = ctx.statements
        in_procedure = False
        depth = 0
        pending_exit = False
        for statement in statements:
            head = statement[0]
            if procedure_header(statement) is not None:
                in_procedure = True
                depth = 0
                pending_exit = False
                continue
            if is_keyword(head, "end") and len(statement) > 1 and is_keyword(
                statement[1], "sub", "function"
            ):
                in_procedure = False
                pending_exit = False
                continue
            if not in_procedure:
                continue
            if pending_exit:
                yield self.finding(
                    ctx,
                    head,
                    "statement is unreachable: an unconditional Exit "
                    "precedes it",
                )
                pending_exit = False
                continue
            if is_keyword(head, *self._OPENERS):
                depth += 1
            elif is_keyword(head, *self._CLOSERS):
                depth = max(0, depth - 1)
            elif is_keyword(head, "if") and is_keyword(statement[-1], "then"):
                depth += 1  # block If ... Then
            elif is_keyword(head, "end") and len(statement) > 1 and is_keyword(
                statement[1], "if", "select", "with"
            ):
                depth = max(0, depth - 1)
            elif (
                depth == 0
                and is_keyword(head, "exit")
                and len(statement) > 1
                and is_keyword(statement[1], "sub", "function")
            ):
                pending_exit = True


@register_rule
class NoOpArithmetic(Rule):
    """Arithmetic that provably does nothing (``x + 0``, ``y * 1``, ``a = a``)."""

    rule_id = "o4-noop-arithmetic"
    o_class = "O4"
    severity = "info"
    description = "no-op arithmetic padding"

    def scan(self, ctx: LintContext):
        for statement in ctx.statements:
            if (
                len(statement) == 3
                and statement[0].kind is TokenKind.IDENTIFIER
                and is_operator(statement[1], "=")
                and statement[2].kind is TokenKind.IDENTIFIER
                and statement[0].text.lower() == statement[2].text.lower()
            ):
                yield self.finding(
                    ctx,
                    statement[0],
                    f"self-assignment {statement[0].text!r} = "
                    f"{statement[2].text!r} has no effect",
                )
                continue
            for index, token in enumerate(statement[: len(statement) - 1]):
                follower = statement[index + 1]
                if follower.kind is not TokenKind.NUMBER:
                    continue
                if is_operator(token, "+", "-") and follower.text == "0":
                    yield self.finding(
                        ctx, token, f"'{token.text} 0' is a no-op"
                    )
                elif is_operator(token, "*", "/", "\\", "^") and follower.text == "1":
                    yield self.finding(
                        ctx, token, f"'{token.text} 1' is a no-op"
                    )


for _cls in (LiteralDisagreement, RecoveredAutoOpen, RecoveredIoc):
    register_rule(_cls)


def oracle_lint(
    analysis: MacroAnalysis, rule_ids=None, *, recovery=None
) -> list[Finding]:
    """``repro.lint.lint_analysis`` over the reference rules."""
    ctx = LintContext(analysis, recovery=recovery)
    findings: list[Finding] = []
    for rule_id in sorted(ORACLE_RULES) if rule_ids is None else rule_ids:
        findings.extend(ORACLE_RULES[rule_id].scan(ctx))
    return sort_findings(findings)
