"""AST node definitions for the VBA subset parser.

The subset covers everything the corpus generators and obfuscation engine
emit: procedures, declarations, assignments, the structured control-flow
statements, and the expression grammar with VBA operator precedence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

# ----------------------------------------------------------------------
# Expressions


@dataclass(frozen=True, slots=True)
class Literal:
    value: object  # str | int | float | bool | None
    line: int = 0


@dataclass(frozen=True, slots=True)
class Name:
    name: str
    line: int = 0


@dataclass(frozen=True, slots=True)
class Call:
    """A call or array-index expression: ``name(arg, ...)``.

    VBA uses identical syntax for both; the interpreter disambiguates at
    runtime based on what ``name`` is bound to.
    """

    name: str
    args: tuple["Expression", ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class MemberAccess:
    """``base.member`` or ``base.member(args)`` — parsed but unsupported at
    runtime (host-application object model), except for whitelisted no-ops."""

    base: "Expression"
    member: str
    args: tuple["Expression", ...] | None = None
    line: int = 0


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"
    line: int = 0


@dataclass(frozen=True, slots=True)
class UnaryOp:
    op: str  # "-" | "not"
    operand: "Expression"
    line: int = 0


Expression = Union[Literal, Name, Call, MemberAccess, BinOp, UnaryOp]


# ----------------------------------------------------------------------
# Statements


@dataclass(frozen=True, slots=True)
class DimStmt:
    """``Dim a, b(10) As Long`` — names with optional array extents."""

    names: tuple[tuple[str, Expression | None], ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class ConstStmt:
    name: str
    value: Expression
    line: int = 0


@dataclass(frozen=True, slots=True)
class Assign:
    """``target = expr`` / ``target(idx) = expr`` / ``Set target = expr``.

    A :class:`MemberAccess` target is a host-object property write
    (``Selection.RowHeight = 15``) — kept in the tree, inert at
    interpretation time.
    """

    target: Name | Call | MemberAccess
    value: Expression
    line: int = 0


@dataclass(frozen=True, slots=True)
class IfStmt:
    branches: tuple[tuple[Expression, tuple["Statement", ...]], ...]
    else_body: tuple["Statement", ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class ForStmt:
    var: str
    start: Expression
    end: Expression
    step: Expression | None
    body: tuple["Statement", ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class ForEachStmt:
    var: str
    iterable: Expression
    body: tuple["Statement", ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class DoLoopStmt:
    """All four Do/While flavours.

    ``condition_kind``: "while" or "until"; ``pre_test`` True for
    ``Do While …``/``Do Until …``, False for ``Do … Loop While`` forms.
    A plain ``While … Wend`` parses as pre-test "while".
    """

    condition: Expression
    condition_kind: str
    pre_test: bool
    body: tuple["Statement", ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class WithStmt:
    """``With subject … End With``.

    Body statements addressing the subject (``.Font.Bold = True``) are
    host-object operations; the parser keeps them as verbatim
    :class:`NoOpStmt` lines inside the block.
    """

    subject: Expression
    body: tuple["Statement", ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class ExitStmt:
    kind: str  # "sub" | "function" | "for" | "do"
    line: int = 0


@dataclass(frozen=True, slots=True)
class CallStmt:
    call: Call | MemberAccess
    line: int = 0


@dataclass(frozen=True, slots=True)
class NoOpStmt:
    """``DoEvents``, ``On Error Resume Next``, ``MsgBox …``, etc."""

    text: str
    line: int = 0


Statement = Union[
    DimStmt,
    ConstStmt,
    Assign,
    IfStmt,
    ForStmt,
    ForEachStmt,
    DoLoopStmt,
    WithStmt,
    ExitStmt,
    CallStmt,
    NoOpStmt,
]


# ----------------------------------------------------------------------
# Module structure


@dataclass(frozen=True, slots=True)
class Procedure:
    kind: str  # "sub" | "function"
    name: str
    params: tuple[str, ...]
    body: tuple[Statement, ...]
    line: int = 0


@dataclass(slots=True)
class Module:
    procedures: dict[str, Procedure] = field(default_factory=dict)
    module_statements: list[Statement] = field(default_factory=list)

    def procedure(self, name: str) -> Procedure:
        proc = self.procedures.get(name.lower())
        if proc is None:
            raise KeyError(f"no procedure named {name!r}")
        return proc
