"""The constant folder with sandboxed decoder evaluation, kept as the reference.

This is the de-obfuscation engine that :func:`repro.deobfuscation.deobfuscate`
replaced with one abstract-interpretation pass plus a rewrite.  It walks the
AST with its own folder (``_Folder``), decides which module functions may
run with a separate purity analysis, executes them in the concrete
:class:`~repro.vba.interpreter.Interpreter` sandbox, and repeats up to
``max_passes`` times.  The differential tests require the production engine
to parse the same inputs, restore at least as many AV detections, keep
every long literal this engine recovers, and be idempotent.  Kept verbatim;
do not "fix" it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vba import ast_nodes as ast
from repro.vba.interpreter import Interpreter, VBARuntimeError, _BUILTINS
from repro.vba.parser import VBAParseError, parse_module
from repro.vba.unparser import unparse_module

#: Built-ins safe to fold at de-obfuscation time: pure string/number
#: functions (no I/O, no host state).
_FOLDABLE_BUILTINS = frozenset(
    {
        "chr", "chrw", "asc", "ascw", "len", "mid", "left", "right",
        "replace", "instr", "instrrev", "lcase", "ucase", "trim", "ltrim",
        "rtrim", "space", "string", "strreverse", "join", "ubound",
        "lbound", "cstr", "clng", "cint", "cdbl", "cbyte", "val", "hex",
        "oct", "abs", "sqr", "round", "int", "fix", "sgn", "strcomp",
        "strconv", "split", "array",
    }
)

_MAX_DECODER_STEPS = 200_000


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


class Deobfuscator:
    """Best-effort static simplifier for obfuscated VBA."""

    def __init__(
        self,
        evaluate_decoders: bool = True,
        remove_dead_procedures: bool = True,
        max_passes: int = 4,
    ) -> None:
        if max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        self.evaluate_decoders = evaluate_decoders
        self.remove_dead_procedures = remove_dead_procedures
        self.max_passes = max_passes

    # ------------------------------------------------------------------

    def run(self, source: str) -> DeobfuscationResult:
        report = DeobfuscationReport()
        try:
            module = parse_module(source, tolerant=True)
        except VBAParseError as error:
            report.parsed = False
            report.error = str(error)
            return DeobfuscationResult(source=source, report=report)

        consts = self._collect_literal_consts(module, report)
        interpreter = self._sandbox(module) if self.evaluate_decoders else None

        folder = _Folder(module, consts, interpreter, report)
        for _ in range(self.max_passes):
            before = (report.folded_expressions, report.decoder_calls_evaluated)
            module = folder.fold_module(module)
            after = (report.folded_expressions, report.decoder_calls_evaluated)
            if after == before:
                break

        if self.remove_dead_procedures:
            module, removed = _drop_unreferenced_procedures(
                module, folder.evaluated_decoders
            )
            report.procedures_removed = removed
        return DeobfuscationResult(source=unparse_module(module), report=report)

    # ------------------------------------------------------------------

    @staticmethod
    def _collect_literal_consts(
        module: ast.Module, report: DeobfuscationReport
    ) -> dict[str, object]:
        consts: dict[str, object] = {}
        for statement in module.module_statements:
            if isinstance(statement, ast.ConstStmt) and isinstance(
                statement.value, ast.Literal
            ):
                consts[statement.name.lower()] = statement.value.value
        report.consts_inlined = len(consts)
        return consts

    @staticmethod
    def _sandbox(module: ast.Module) -> Interpreter | None:
        try:
            return Interpreter(module, max_steps=_MAX_DECODER_STEPS)
        except VBARuntimeError:
            return None


def deobfuscate(source: str) -> DeobfuscationResult:
    """Convenience wrapper with default settings."""
    return Deobfuscator().run(source)


# ----------------------------------------------------------------------


class _Folder:
    def __init__(
        self,
        module: ast.Module,
        consts: dict[str, object],
        interpreter: Interpreter | None,
        report: DeobfuscationReport,
    ) -> None:
        self._module = module
        self._consts = consts
        self._interpreter = interpreter
        self._report = report
        #: lower-cased names of module functions we evaluated away —
        #: the only procedures dead-code removal may drop.
        self.evaluated_decoders: set[str] = set()

    # -- module / statements -------------------------------------------

    def fold_module(self, module: ast.Module) -> ast.Module:
        new = ast.Module()
        new.module_statements = [
            self.fold_statement(s) for s in module.module_statements
        ]
        for key, procedure in module.procedures.items():
            new.procedures[key] = ast.Procedure(
                kind=procedure.kind,
                name=procedure.name,
                params=procedure.params,
                body=tuple(self.fold_statement(s) for s in procedure.body),
                line=procedure.line,
            )
        self._module = new
        return new

    def fold_statement(self, statement: ast.Statement) -> ast.Statement:
        if isinstance(statement, ast.ConstStmt):
            return ast.ConstStmt(
                statement.name, self.fold(statement.value), statement.line
            )
        if isinstance(statement, ast.Assign):
            return ast.Assign(
                self._fold_target(statement.target),
                self.fold(statement.value),
                statement.line,
            )
        if isinstance(statement, ast.IfStmt):
            return ast.IfStmt(
                tuple(
                    (self.fold(cond), tuple(self.fold_statement(s) for s in body))
                    for cond, body in statement.branches
                ),
                tuple(self.fold_statement(s) for s in statement.else_body),
                statement.line,
            )
        if isinstance(statement, ast.ForStmt):
            return ast.ForStmt(
                statement.var,
                self.fold(statement.start),
                self.fold(statement.end),
                self.fold(statement.step) if statement.step is not None else None,
                tuple(self.fold_statement(s) for s in statement.body),
                statement.line,
            )
        if isinstance(statement, ast.ForEachStmt):
            return ast.ForEachStmt(
                statement.var,
                self.fold(statement.iterable),
                tuple(self.fold_statement(s) for s in statement.body),
                statement.line,
            )
        if isinstance(statement, ast.DoLoopStmt):
            return ast.DoLoopStmt(
                self.fold(statement.condition),
                statement.condition_kind,
                statement.pre_test,
                tuple(self.fold_statement(s) for s in statement.body),
                statement.line,
            )
        if isinstance(statement, ast.WithStmt):
            return ast.WithStmt(
                self.fold(statement.subject),
                tuple(self.fold_statement(s) for s in statement.body),
                statement.line,
            )
        if isinstance(statement, ast.CallStmt):
            call = statement.call
            if isinstance(call, ast.Call):
                folded = tuple(self.fold(a) for a in call.args)
                return ast.CallStmt(
                    ast.Call(call.name, folded, call.line), statement.line
                )
            folded_args = (
                tuple(self.fold(a) for a in call.args)
                if call.args is not None
                else None
            )
            return ast.CallStmt(
                ast.MemberAccess(
                    self.fold(call.base), call.member, folded_args, call.line
                ),
                statement.line,
            )
        return statement

    def _fold_target(self, target):
        # Fold index expressions inside ``arr(i) = …`` targets, never the
        # binding itself.
        if isinstance(target, ast.Call):
            return ast.Call(
                target.name, tuple(self.fold(a) for a in target.args), target.line
            )
        return target

    # -- expressions ----------------------------------------------------

    def fold(self, expression: ast.Expression) -> ast.Expression:
        if isinstance(expression, ast.Literal):
            return expression
        if isinstance(expression, ast.Name):
            key = expression.name.lower()
            if key in self._consts:
                self._report.folded_expressions += 1
                return ast.Literal(self._consts[key], expression.line)
            return expression
        if isinstance(expression, ast.BinOp):
            return self._fold_binop(expression)
        if isinstance(expression, ast.UnaryOp):
            operand = self.fold(expression.operand)
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ) and expression.op == "-":
                self._report.folded_expressions += 1
                return ast.Literal(-operand.value, expression.line)
            return ast.UnaryOp(expression.op, operand, expression.line)
        if isinstance(expression, ast.Call):
            return self._fold_call(expression)
        if isinstance(expression, ast.MemberAccess):
            folded_args = (
                tuple(self.fold(a) for a in expression.args)
                if expression.args is not None
                else None
            )
            return ast.MemberAccess(
                self.fold(expression.base),
                expression.member,
                folded_args,
                expression.line,
            )
        return expression

    def _fold_binop(self, expression: ast.BinOp) -> ast.Expression:
        left = self.fold(expression.left)
        right = self.fold(expression.right)
        folded = ast.BinOp(expression.op, left, right, expression.line)
        if not (isinstance(left, ast.Literal) and isinstance(right, ast.Literal)):
            return folded
        lv, rv = left.value, right.value
        op = expression.op
        try:
            if op == "&":
                value = _to_text(lv) + _to_text(rv)
            elif op == "+" and isinstance(lv, str) and isinstance(rv, str):
                value = lv + rv
            elif op in ("+", "-", "*") and _both_numbers(lv, rv):
                value = {"+": lv + rv, "-": lv - rv, "*": lv * rv}[op]
            else:
                return folded
        except TypeError:
            return folded
        self._report.folded_expressions += 1
        if isinstance(value, str) and len(value) >= 6:
            self._report.recovered_strings.append(value)
        return ast.Literal(value, expression.line)

    def _fold_call(self, expression: ast.Call) -> ast.Expression:
        args = tuple(self.fold(a) for a in expression.args)
        folded = ast.Call(expression.name, args, expression.line)
        values = _argument_values(args)
        if values is None:
            return folded
        name = expression.name.lower()

        if name in _FOLDABLE_BUILTINS and name in _BUILTINS:
            # Array() evaluates to a Python list, which has no literal
            # form — keep it symbolic unless consumed by a decoder call.
            if name == "array":
                return folded
            try:
                result = _BUILTINS[name](Interpreter, values, expression.line)
            except (VBARuntimeError, TypeError, ValueError, AttributeError):
                return folded
            return self._literal_or_keep(result, folded)

        if (
            self._interpreter is not None
            and name in self._module.procedures
            and self._is_pure_function(name)
        ):
            try:
                result = self._interpreter.call(name, *values)
            except (VBARuntimeError, RecursionError):
                return folded
            literal = self._literal_or_keep(result, folded)
            if isinstance(literal, ast.Literal):
                self._report.decoder_calls_evaluated += 1
                self.evaluated_decoders.add(name)
            return literal
        return folded

    def _literal_or_keep(self, value, fallback: ast.Expression) -> ast.Expression:
        if isinstance(value, (str, int, float, bool)) or value is None:
            if isinstance(value, str) and len(value) >= 6:
                self._report.recovered_strings.append(value)
            self._report.folded_expressions += 1
            return ast.Literal(value, fallback.line)
        return fallback

    def _is_pure_function(self, name: str) -> bool:
        """A module function is safe to evaluate when its body stays inside
        the pure subset: no member access, no unknown names, no I/O."""
        procedure = self._module.procedures.get(name.lower())
        if procedure is None or procedure.kind != "function":
            return False
        return _statements_are_pure(procedure.body, self._module, {name.lower()})


def _argument_values(args) -> list | None:
    """Extract Python values from folded arguments.

    Accepts literals and ``Array(...)`` calls whose elements are literals
    (the shape decoder calls take); returns None when anything is still
    symbolic.
    """
    values = []
    for arg in args:
        if isinstance(arg, ast.Literal):
            values.append(arg.value)
            continue
        if (
            isinstance(arg, ast.Call)
            and arg.name.lower() == "array"
            and all(isinstance(a, ast.Literal) for a in arg.args)
        ):
            values.append([a.value for a in arg.args])
            continue
        return None
    return values


def _both_numbers(a, b) -> bool:
    return isinstance(a, (int, float)) and not isinstance(a, bool) and isinstance(
        b, (int, float)
    ) and not isinstance(b, bool)


def _to_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if value is None:
        return ""
    return str(value)


# ----------------------------------------------------------------------
# Purity analysis


def _statements_are_pure(
    statements, module: ast.Module, visiting: set[str]
) -> bool:
    return all(_statement_is_pure(s, module, visiting) for s in statements)


def _statement_is_pure(statement, module: ast.Module, visiting: set[str]) -> bool:
    if isinstance(statement, (ast.DimStmt, ast.ExitStmt)):
        return True
    if isinstance(statement, ast.NoOpStmt):
        # MsgBox/SendKeys are UI side effects; only error chatter is pure.
        return statement.text.lower().startswith(("on error", "option", "doevents"))
    if isinstance(statement, ast.ConstStmt):
        return _expression_is_pure(statement.value, module, visiting)
    if isinstance(statement, ast.Assign):
        if isinstance(statement.target, ast.MemberAccess):
            return False
        target_pure = (
            _expression_is_pure(statement.target, module, visiting)
            if isinstance(statement.target, ast.Call)
            else True
        )
        return target_pure and _expression_is_pure(
            statement.value, module, visiting
        )
    if isinstance(statement, ast.IfStmt):
        return all(
            _expression_is_pure(cond, module, visiting)
            and _statements_are_pure(body, module, visiting)
            for cond, body in statement.branches
        ) and _statements_are_pure(statement.else_body, module, visiting)
    if isinstance(statement, ast.ForStmt):
        return (
            _expression_is_pure(statement.start, module, visiting)
            and _expression_is_pure(statement.end, module, visiting)
            and (
                statement.step is None
                or _expression_is_pure(statement.step, module, visiting)
            )
            and _statements_are_pure(statement.body, module, visiting)
        )
    if isinstance(statement, ast.ForEachStmt):
        return _expression_is_pure(
            statement.iterable, module, visiting
        ) and _statements_are_pure(statement.body, module, visiting)
    if isinstance(statement, ast.DoLoopStmt):
        return _expression_is_pure(
            statement.condition, module, visiting
        ) and _statements_are_pure(statement.body, module, visiting)
    if isinstance(statement, ast.CallStmt):
        if isinstance(statement.call, ast.MemberAccess):
            return False
        return _expression_is_pure(statement.call, module, visiting)
    return False


def _expression_is_pure(expression, module: ast.Module, visiting: set[str]) -> bool:
    if isinstance(expression, ast.Literal):
        return True
    if isinstance(expression, ast.Name):
        return True  # local/parameter/const reads are pure
    if isinstance(expression, ast.MemberAccess):
        return False
    if isinstance(expression, ast.UnaryOp):
        return _expression_is_pure(expression.operand, module, visiting)
    if isinstance(expression, ast.BinOp):
        return _expression_is_pure(
            expression.left, module, visiting
        ) and _expression_is_pure(expression.right, module, visiting)
    if isinstance(expression, ast.Call):
        if not all(
            _expression_is_pure(arg, module, visiting) for arg in expression.args
        ):
            return False
        name = expression.name.lower()
        if name in _FOLDABLE_BUILTINS:
            return True
        callee = module.procedures.get(name)
        if callee is not None:
            if name in visiting:
                return True  # recursion: assume pure, the step budget guards
            return _statements_are_pure(callee.body, module, visiting | {name})
        # Could be an array index on a local variable: pure.
        return True
    return False


# ----------------------------------------------------------------------
# Dead-procedure removal


def _drop_unreferenced_procedures(
    module: ast.Module,
    candidates: set[str],
) -> tuple[ast.Module, tuple[str, ...]]:
    """Remove ``candidates`` (evaluated decoder functions) that nothing
    references any more.  Other procedures — including unreferenced public
    functions, which are host-callable entry points — are always kept."""
    references: set[str] = set()

    def visit_expression(expression) -> None:
        if isinstance(expression, ast.Call):
            references.add(expression.name.lower())
            for arg in expression.args:
                visit_expression(arg)
        elif isinstance(expression, ast.BinOp):
            visit_expression(expression.left)
            visit_expression(expression.right)
        elif isinstance(expression, ast.UnaryOp):
            visit_expression(expression.operand)
        elif isinstance(expression, ast.MemberAccess):
            visit_expression(expression.base)
            for arg in expression.args or ():
                visit_expression(arg)
        elif isinstance(expression, ast.Name):
            references.add(expression.name.lower())

    def visit_statement(statement) -> None:
        if isinstance(statement, ast.ConstStmt):
            visit_expression(statement.value)
        elif isinstance(statement, ast.Assign):
            visit_expression(statement.target)
            visit_expression(statement.value)
        elif isinstance(statement, ast.IfStmt):
            for cond, body in statement.branches:
                visit_expression(cond)
                for inner in body:
                    visit_statement(inner)
            for inner in statement.else_body:
                visit_statement(inner)
        elif isinstance(statement, ast.ForStmt):
            visit_expression(statement.start)
            visit_expression(statement.end)
            if statement.step is not None:
                visit_expression(statement.step)
            for inner in statement.body:
                visit_statement(inner)
        elif isinstance(statement, ast.ForEachStmt):
            visit_expression(statement.iterable)
            for inner in statement.body:
                visit_statement(inner)
        elif isinstance(statement, ast.DoLoopStmt):
            visit_expression(statement.condition)
            for inner in statement.body:
                visit_statement(inner)
        elif isinstance(statement, ast.CallStmt):
            visit_expression(statement.call)
        elif isinstance(statement, ast.DimStmt):
            for _, extent in statement.names:
                if extent is not None:
                    visit_expression(extent)

    for statement in module.module_statements:
        visit_statement(statement)
    for key, procedure in module.procedures.items():
        for statement in procedure.body:
            visit_statement(statement)
        # The VBA return convention (``Name = value`` inside the body)
        # self-references every function; that must not keep it alive.
        references.discard(key)

    removed: list[str] = []
    kept = ast.Module()
    # Drop module-level consts that nothing references any more (their
    # fragments were inlined during folding).
    kept.module_statements = [
        statement
        for statement in module.module_statements
        if not (
            isinstance(statement, ast.ConstStmt)
            and statement.name.lower() not in references
        )
    ]
    for key, procedure in module.procedures.items():
        if key in candidates and key not in references:
            removed.append(procedure.name)
        else:
            kept.procedures[key] = procedure
    return kept, tuple(removed)
