"""The AST unparser, kept as the reference normalizer.

This renderer printed the de-obfuscated module until
:func:`repro.deobfuscation.deobfuscate` began splicing folded literals
into the input instead.  It is normalizing (4-space indents, one
statement per line, comments and ``As`` types dropped), so the splice is
checked against the previous engine by comparing ``unparse_module`` of
both outputs' parses.  Kept verbatim; do not "fix" it.
"""

from __future__ import annotations

from repro.vba import ast_nodes as ast

_INDENT = "    "

#: Operators whose keyword spelling differs from their token text.
_KEYWORD_OPS = {
    "and": "And", "or": "Or", "xor": "Xor", "mod": "Mod",
    "imp": "Imp", "eqv": "Eqv", "like": "Like", "is": "Is",
}

# Binding strength per operator, mirroring the parser's precedence ladder.
_PRECEDENCE = {
    "imp": 1, "eqv": 1,
    "or": 2, "xor": 2,
    "and": 3,
    "=": 5, "<>": 5, "<": 5, ">": 5, "<=": 5, ">=": 5, "like": 5, "is": 5,
    "&": 6,
    "+": 7, "-": 7,
    "mod": 8,
    "\\": 9,
    "*": 10, "/": 10,
    "^": 12,
}


def unparse_module(module: ast.Module) -> str:
    """Render a whole module: module-level statements then procedures."""
    blocks: list[str] = []
    for statement in module.module_statements:
        blocks.append(unparse_statement(statement, 0))
    for procedure in module.procedures.values():
        blocks.append(unparse_procedure(procedure))
    return "\n".join(blocks) + ("\n" if blocks else "")


def unparse_procedure(procedure: ast.Procedure) -> str:
    keyword = "Sub" if procedure.kind == "sub" else "Function"
    params = ", ".join(procedure.params)
    lines = [f"{keyword} {procedure.name}({params})"]
    for statement in procedure.body:
        lines.append(unparse_statement(statement, 1))
    lines.append(f"End {keyword}")
    return "\n".join(lines)


def unparse_statement(statement: ast.Statement, depth: int) -> str:
    pad = _INDENT * depth
    if isinstance(statement, ast.DimStmt):
        rendered = []
        for name, extent in statement.names:
            if extent is not None:
                rendered.append(f"{name}({unparse_expression(extent)})")
            else:
                rendered.append(name)
        return f"{pad}Dim " + ", ".join(rendered)
    if isinstance(statement, ast.ConstStmt):
        return f"{pad}Const {statement.name} = {unparse_expression(statement.value)}"
    if isinstance(statement, ast.Assign):
        target = unparse_expression(statement.target)
        return f"{pad}{target} = {unparse_expression(statement.value)}"
    if isinstance(statement, ast.IfStmt):
        lines = []
        for index, (condition, body) in enumerate(statement.branches):
            opener = "If" if index == 0 else "ElseIf"
            lines.append(f"{pad}{opener} {unparse_expression(condition)} Then")
            lines.extend(unparse_statement(inner, depth + 1) for inner in body)
        if statement.else_body:
            lines.append(f"{pad}Else")
            lines.extend(
                unparse_statement(inner, depth + 1) for inner in statement.else_body
            )
        lines.append(f"{pad}End If")
        return "\n".join(lines)
    if isinstance(statement, ast.ForStmt):
        header = (
            f"{pad}For {statement.var} = {unparse_expression(statement.start)} "
            f"To {unparse_expression(statement.end)}"
        )
        if statement.step is not None:
            header += f" Step {unparse_expression(statement.step)}"
        lines = [header]
        lines.extend(unparse_statement(inner, depth + 1) for inner in statement.body)
        lines.append(f"{pad}Next {statement.var}")
        return "\n".join(lines)
    if isinstance(statement, ast.ForEachStmt):
        lines = [
            f"{pad}For Each {statement.var} In "
            f"{unparse_expression(statement.iterable)}"
        ]
        lines.extend(unparse_statement(inner, depth + 1) for inner in statement.body)
        lines.append(f"{pad}Next {statement.var}")
        return "\n".join(lines)
    if isinstance(statement, ast.DoLoopStmt):
        kind = "While" if statement.condition_kind == "while" else "Until"
        condition = unparse_expression(statement.condition)
        if statement.pre_test:
            lines = [f"{pad}Do {kind} {condition}"]
            lines.extend(
                unparse_statement(inner, depth + 1) for inner in statement.body
            )
            lines.append(f"{pad}Loop")
        else:
            lines = [f"{pad}Do"]
            lines.extend(
                unparse_statement(inner, depth + 1) for inner in statement.body
            )
            lines.append(f"{pad}Loop {kind} {condition}")
        return "\n".join(lines)
    if isinstance(statement, ast.WithStmt):
        lines = [f"{pad}With {unparse_expression(statement.subject)}"]
        lines.extend(unparse_statement(inner, depth + 1) for inner in statement.body)
        lines.append(f"{pad}End With")
        return "\n".join(lines)
    if isinstance(statement, ast.ExitStmt):
        return f"{pad}Exit {statement.kind.capitalize()}"
    if isinstance(statement, ast.CallStmt):
        # A statement-position call takes its arguments without parentheses
        # (``obj.Run "calc", 0``); VBA rejects ``obj.Run("calc", 0)`` without
        # ``Call``.  A first argument that opens with ``(`` would parse as the
        # whole argument list, so that one keeps the ``Call`` form.
        call = statement.call
        if call.args:
            args = ", ".join(unparse_expression(a) for a in call.args)
            if isinstance(call, ast.Call):
                head = call.name
            else:
                head = f"{unparse_expression(call.base)}.{call.member}"
            if args.startswith("("):
                return f"{pad}Call {head}({args})"
            return f"{pad}{head} {args}"
        return f"{pad}{unparse_expression(call)}"
    if isinstance(statement, ast.NoOpStmt):
        # The parser preserves the skipped statement's token text verbatim.
        return f"{pad}{statement.text}"
    raise TypeError(f"cannot unparse {type(statement).__name__}")


def unparse_expression(expression: ast.Expression, parent_bind: int = 0) -> str:
    if isinstance(expression, ast.Literal):
        rendered, bind = _render_literal(expression.value)
        return f"({rendered})" if bind < parent_bind else rendered
    if isinstance(expression, ast.Name):
        return expression.name
    if isinstance(expression, ast.Call):
        args = ", ".join(unparse_expression(a) for a in expression.args)
        return f"{expression.name}({args})"
    if isinstance(expression, ast.MemberAccess):
        base = unparse_expression(expression.base)
        rendered = f"{base}.{expression.member}"
        if expression.args is not None:
            args = ", ".join(unparse_expression(a) for a in expression.args)
            rendered += f"({args})"
        return rendered
    if isinstance(expression, ast.BinOp):
        # Render the left spine bottom-up in a loop: the parser builds
        # left-associative chains 10k operators deep.
        spine = [expression]
        while isinstance(spine[-1].left, ast.BinOp):
            spine.append(spine[-1].left)
        rendered, inner_bind = None, 0
        for node in reversed(spine):
            bind = _PRECEDENCE.get(node.op, 5)
            # The right side binds one tighter (left-associative chains);
            # so does the left side of the right-associative ``^``.
            left_bind = bind + 1 if node.op == "^" else bind
            if rendered is None:
                rendered = unparse_expression(node.left, left_bind)
            elif inner_bind < left_bind:
                rendered = f"({rendered})"
            op = _KEYWORD_OPS.get(node.op, node.op)
            right = unparse_expression(node.right, bind + 1)
            rendered = f"{rendered} {op} {right}"
            inner_bind = bind
        return f"({rendered})" if inner_bind < parent_bind else rendered
    if isinstance(expression, ast.UnaryOp):
        operand = unparse_expression(expression.operand, 11)
        if expression.op == "-":
            rendered, bind = f"-{operand}", 11
        else:
            rendered, bind = f"Not {operand}", 4
        return f"({rendered})" if bind < parent_bind else rendered
    raise TypeError(f"cannot unparse {type(expression).__name__}")


#: Binding strength of a literal that renders as one token.
_ATOM = 99


def _render_literal(value: object) -> tuple[str, int]:
    """Source text for a literal value and how tightly that text binds.

    Negative numbers render as unary minus.  Strings with characters a
    string literal cannot hold on one line (newlines, other control
    characters) render as printable runs joined by ``Chr(n)``.
    """
    if isinstance(value, bool):
        return ("True" if value else "False"), _ATOM
    if isinstance(value, str):
        return _render_string(value)
    if value is None:
        return "Empty", _ATOM
    rendered = repr(value) if isinstance(value, float) else str(value)
    return rendered, (11 if rendered.startswith("-") else _ATOM)


def _render_string(value: str) -> tuple[str, int]:
    if value.isprintable():
        return '"' + value.replace('"', '""') + '"', _ATOM
    parts: list[str] = []
    run: list[str] = []
    for char in value:
        if char.isprintable():
            run.append(char)
            continue
        if run:
            parts.append('"' + "".join(run).replace('"', '""') + '"')
            run = []
        parts.append(f"Chr({ord(char)})")
    if run:
        parts.append('"' + "".join(run).replace('"', '""') + '"')
    if len(parts) == 1:
        return parts[0], _ATOM
    return " & ".join(parts), _PRECEDENCE["&"]
