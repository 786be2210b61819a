"""The tree-walking VBA interpreter with its own walk, kept as the reference.

This is :class:`repro.vba.interpreter.Interpreter` as it was before it
became the concrete face of the one AST walker
(:class:`repro.sa.interpreter.AbstractInterpreter`): a separate
statement/expression walk with its own coercions and builtins.  The
differential tests run both on the same inputs and require equal return
values, equal module variables and the same raise-or-return outcome,
apart from the divergences they pin one by one.  The de-obfuscation
oracle runs its decoder sandbox on it.  Kept verbatim; do not "fix" it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vba import ast_nodes as ast
from repro.vba.parser import parse_module


class VBARuntimeError(Exception):
    """Raised when execution leaves the supported subset or errors out."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class _ExitSignal(Exception):
    def __init__(self, kind: str) -> None:
        self.kind = kind


_MISSING = object()


@dataclass
class Interpreter:
    """Executes one module.

    Attributes:
        module: the parsed module.
        host_values: values for host storage reads (document variables /
            control captions), keyed by the storage expression's rendered
            text — see :meth:`_eval_member`.
        max_steps: statement-execution budget.
    """

    module: ast.Module
    host_values: dict[str, object] = field(default_factory=dict)
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        self._globals: dict[str, object] = {}
        self._steps = 0
        self._run_module_level()

    # ------------------------------------------------------------------

    @classmethod
    def from_source(
        cls,
        source: str,
        host_values: dict[str, object] | None = None,
        max_steps: int = 2_000_000,
    ) -> "Interpreter":
        return cls(parse_module(source), host_values or {}, max_steps)

    def call(self, name: str, *args: object) -> object:
        """Invoke a module procedure; returns its value (None for Subs)."""
        procedure = self.module.procedures.get(name.lower())
        if procedure is None:
            raise VBARuntimeError(f"no procedure {name!r}")
        return self._call_procedure(procedure, list(args))

    def global_value(self, name: str) -> object:
        value = self._globals.get(name.lower(), _MISSING)
        if value is _MISSING:
            raise VBARuntimeError(f"no global {name!r}")
        return value

    # ------------------------------------------------------------------

    def _run_module_level(self) -> None:
        for statement in self.module.module_statements:
            self._execute(statement, self._globals)

    def _call_procedure(self, procedure: ast.Procedure, args: list[object]) -> object:
        if len(args) > len(procedure.params):
            raise VBARuntimeError(
                f"{procedure.name}: too many arguments", procedure.line
            )
        locals_: dict[str, object] = {
            param.lower(): (args[index] if index < len(args) else None)
            for index, param in enumerate(procedure.params)
        }
        if procedure.kind == "function":
            locals_[procedure.name.lower()] = None
        try:
            for statement in procedure.body:
                self._execute(statement, locals_)
        except _ExitSignal as signal:
            if signal.kind not in ("sub", "function"):
                raise VBARuntimeError(
                    f"Exit {signal.kind} outside loop", procedure.line
                ) from None
        if procedure.kind == "function":
            return locals_[procedure.name.lower()]
        return None

    # ------------------------------------------------------------------
    # Statement execution

    def _tick(self, line: int) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise VBARuntimeError("step budget exceeded", line)

    def _execute(self, statement: ast.Statement, env: dict[str, object]) -> None:
        self._tick(statement.line)
        method = self._DISPATCH[type(statement)]
        method(self, statement, env)

    def _exec_dim(self, statement: ast.DimStmt, env: dict[str, object]) -> None:
        for name, extent in statement.names:
            if extent is not None:
                size = self._as_int(self._eval(extent, env), statement.line)
                env[name.lower()] = [None] * (size + 1)
            else:
                env.setdefault(name.lower(), None)

    def _exec_const(self, statement: ast.ConstStmt, env: dict[str, object]) -> None:
        env[statement.name.lower()] = self._eval(statement.value, env)

    def _exec_assign(self, statement: ast.Assign, env: dict[str, object]) -> None:
        value = self._eval(statement.value, env)
        target = statement.target
        if isinstance(target, ast.Name):
            self._store(target.name, value, env)
            return
        if isinstance(target, ast.MemberAccess):
            # Host-object property write: inert without a host application.
            return
        # ``arr(i) = value`` element assignment.
        container = self._load(target.name, env, target.line)
        if not isinstance(container, list):
            raise VBARuntimeError(
                f"{target.name} is not an array", target.line
            )
        if len(target.args) != 1:
            raise VBARuntimeError(
                "only 1-D element assignment supported", target.line
            )
        index = self._as_int(self._eval(target.args[0], env), target.line)
        if not 0 <= index < len(container):
            raise VBARuntimeError(
                f"subscript out of range: {index}", target.line
            )
        container[index] = value

    def _exec_if(self, statement: ast.IfStmt, env: dict[str, object]) -> None:
        for condition, body in statement.branches:
            if self._truthy(self._eval(condition, env)):
                for inner in body:
                    self._execute(inner, env)
                return
        for inner in statement.else_body:
            self._execute(inner, env)

    def _exec_for(self, statement: ast.ForStmt, env: dict[str, object]) -> None:
        start = self._as_number(self._eval(statement.start, env), statement.line)
        end = self._as_number(self._eval(statement.end, env), statement.line)
        step = (
            self._as_number(self._eval(statement.step, env), statement.line)
            if statement.step is not None
            else 1
        )
        if step == 0:
            raise VBARuntimeError("For step cannot be 0", statement.line)
        var = statement.var.lower()
        current = start
        try:
            while (step > 0 and current <= end) or (step < 0 and current >= end):
                env[var] = current
                for inner in statement.body:
                    self._execute(inner, env)
                current = env[var] + step  # body may reassign the loop var
        except _ExitSignal as signal:
            if signal.kind != "for":
                raise

    def _exec_for_each(
        self, statement: ast.ForEachStmt, env: dict[str, object]
    ) -> None:
        iterable = self._eval(statement.iterable, env)
        if not isinstance(iterable, list):
            raise VBARuntimeError("For Each needs an array", statement.line)
        var = statement.var.lower()
        try:
            for item in iterable:
                env[var] = item
                for inner in statement.body:
                    self._execute(inner, env)
        except _ExitSignal as signal:
            if signal.kind != "for":
                raise

    def _exec_do(self, statement: ast.DoLoopStmt, env: dict[str, object]) -> None:
        def check() -> bool:
            value = self._truthy(self._eval(statement.condition, env))
            return value if statement.condition_kind == "while" else not value

        try:
            if statement.pre_test:
                while check():
                    for inner in statement.body:
                        self._execute(inner, env)
            else:
                while True:
                    for inner in statement.body:
                        self._execute(inner, env)
                    if not check():
                        break
        except _ExitSignal as signal:
            if signal.kind != "do":
                raise

    def _exec_with(self, statement: ast.WithStmt, env: dict[str, object]) -> None:
        # The subject is almost always a host object; evaluate best-effort
        # so pure subjects still raise useful errors, then run the body.
        try:
            self._eval(statement.subject, env)
        except VBARuntimeError:
            pass
        for inner in statement.body:
            self._execute(inner, env)

    def _exec_exit(self, statement: ast.ExitStmt, env: dict[str, object]) -> None:
        raise _ExitSignal(statement.kind)

    def _exec_call(self, statement: ast.CallStmt, env: dict[str, object]) -> None:
        if isinstance(statement.call, ast.MemberAccess):
            # Statement-position host call (``stream.Open``): resolve if a
            # host value is registered, otherwise it is an inert side-effect.
            try:
                self._eval_member(statement.call, env)
            except VBARuntimeError:
                pass
            return
        self._eval_call(statement.call, env)

    def _exec_noop(self, statement: ast.NoOpStmt, env: dict[str, object]) -> None:
        return

    _DISPATCH = {
        ast.DimStmt: _exec_dim,
        ast.ConstStmt: _exec_const,
        ast.Assign: _exec_assign,
        ast.IfStmt: _exec_if,
        ast.ForStmt: _exec_for,
        ast.ForEachStmt: _exec_for_each,
        ast.DoLoopStmt: _exec_do,
        ast.WithStmt: _exec_with,
        ast.ExitStmt: _exec_exit,
        ast.CallStmt: _exec_call,
        ast.NoOpStmt: _exec_noop,
    }

    # ------------------------------------------------------------------
    # Name binding

    def _store(self, name: str, value: object, env: dict[str, object]) -> None:
        key = name.lower()
        if key in env:
            env[key] = value
        elif key in self._globals:
            self._globals[key] = value
        else:
            env[key] = value

    def _load(self, name: str, env: dict[str, object], line: int) -> object:
        key = name.lower()
        if key in env:
            return env[key]
        if key in self._globals:
            return self._globals[key]
        raise VBARuntimeError(f"undefined name {name!r}", line)

    # ------------------------------------------------------------------
    # Expression evaluation

    def _eval(self, expression: ast.Expression, env: dict[str, object]) -> object:
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.Name):
            return self._eval_name(expression, env)
        if isinstance(expression, ast.Call):
            return self._eval_call(expression, env)
        if isinstance(expression, ast.MemberAccess):
            return self._eval_member(expression, env)
        if isinstance(expression, ast.BinOp):
            return self._eval_binop(expression, env)
        if isinstance(expression, ast.UnaryOp):
            operand = self._eval(expression.operand, env)
            if expression.op == "-":
                return -self._as_number(operand, expression.line)
            return not self._truthy(operand)
        raise VBARuntimeError(f"cannot evaluate {expression!r}")

    def _eval_name(self, expression: ast.Name, env: dict[str, object]) -> object:
        key = expression.name.lower()
        if key in env:
            return env[key]
        if key in self._globals:
            return self._globals[key]
        # Zero-argument builtin or procedure used as a value.
        if key in _BUILTINS:
            return _BUILTINS[key](self, [], expression.line)
        procedure = self.module.procedures.get(key)
        if procedure is not None:
            return self._call_procedure(procedure, [])
        raise VBARuntimeError(
            f"undefined name {expression.name!r}", expression.line
        )

    def _eval_call(self, expression: ast.Call, env: dict[str, object]) -> object:
        key = expression.name.lower()
        # Array indexing shares call syntax.
        bound = env.get(key, self._globals.get(key, _MISSING))
        if isinstance(bound, list):
            if len(expression.args) != 1:
                raise VBARuntimeError(
                    "only 1-D array indexing supported", expression.line
                )
            index = self._as_int(
                self._eval(expression.args[0], env), expression.line
            )
            if not 0 <= index < len(bound):
                raise VBARuntimeError(
                    f"subscript out of range: {index}", expression.line
                )
            return bound[index]
        if isinstance(bound, str):
            raise VBARuntimeError(
                f"{expression.name} is not callable", expression.line
            )
        procedure = self.module.procedures.get(key)
        if procedure is not None:
            args = [self._eval(arg, env) for arg in expression.args]
            return self._call_procedure(procedure, args)
        builtin = _BUILTINS.get(key)
        if builtin is not None:
            args = [self._eval(arg, env) for arg in expression.args]
            return builtin(self, args, expression.line)
        raise VBARuntimeError(
            f"unknown function {expression.name!r}", expression.line
        )

    def _eval_member(
        self, expression: ast.MemberAccess, env: dict[str, object]
    ) -> object:
        rendered = _render_member(expression, env, self)
        if rendered in self.host_values:
            return self.host_values[rendered]
        raise VBARuntimeError(
            f"host member access outside executable subset: {rendered}",
            expression.line,
        )

    def _eval_binop(self, expression: ast.BinOp, env: dict[str, object]) -> object:
        op = expression.op
        left = self._eval(expression.left, env)
        if op == "and":
            # VBA And is not short-circuit, but side-effect-free here.
            right = self._eval(expression.right, env)
            return self._truthy(left) and self._truthy(right)
        if op == "or":
            right = self._eval(expression.right, env)
            return self._truthy(left) or self._truthy(right)
        if op == "xor":
            right = self._eval(expression.right, env)
            if isinstance(left, bool) or isinstance(right, bool):
                return self._truthy(left) != self._truthy(right)
            return self._as_int(left, expression.line) ^ self._as_int(
                right, expression.line
            )
        right = self._eval(expression.right, env)
        line = expression.line
        if op == "&":
            return _to_vba_string(left) + _to_vba_string(right)
        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return self._as_number(left, line) + self._as_number(right, line)
        if op == "-":
            return self._as_number(left, line) - self._as_number(right, line)
        if op == "*":
            return self._as_number(left, line) * self._as_number(right, line)
        if op == "/":
            divisor = self._as_number(right, line)
            if divisor == 0:
                raise VBARuntimeError("division by zero", line)
            return self._as_number(left, line) / divisor
        if op == "\\":
            divisor = self._as_int(right, line)
            if divisor == 0:
                raise VBARuntimeError("division by zero", line)
            dividend = self._as_int(left, line)
            # VBA \ truncates toward zero; compute with exact integer math.
            quotient = abs(dividend) // abs(divisor)
            return quotient if (dividend >= 0) == (divisor >= 0) else -quotient
        if op == "mod":
            divisor = self._as_int(right, line)
            if divisor == 0:
                raise VBARuntimeError("division by zero", line)
            dividend = self._as_int(left, line)
            remainder = abs(dividend) % abs(divisor)
            return remainder if dividend >= 0 else -remainder
        if op == "^":
            return self._as_number(left, line) ** self._as_number(right, line)
        if op in ("=", "<>", "<", ">", "<=", ">="):
            return _compare(op, left, right, line)
        raise VBARuntimeError(f"unsupported operator {op!r}", line)

    # ------------------------------------------------------------------
    # Coercions

    @staticmethod
    def _truthy(value: object) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return value != 0
        if value is None:
            return False
        raise VBARuntimeError(f"cannot use {value!r} as a condition")

    @staticmethod
    def _as_number(value: object, line: int) -> int | float:
        if isinstance(value, bool):
            return -1 if value else 0  # VBA True is -1
        if value is None:
            return 0  # uninitialized variables are Empty, numerically 0
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, str):
            try:
                return float(value) if "." in value else int(value)
            except ValueError:
                raise VBARuntimeError(
                    f"type mismatch: {value!r} is not numeric", line
                ) from None
        raise VBARuntimeError(f"type mismatch: {value!r}", line)

    @classmethod
    def _as_int(cls, value: object, line: int) -> int:
        number = cls._as_number(value, line)
        if isinstance(number, float):
            return _banker_round(number)
        return number


def _banker_round(value: float) -> int:
    """VBA CLng/CInt use banker's rounding, which is Python's ``round``."""
    return int(round(value))


def _to_vba_string(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _compare(op: str, left: object, right: object, line: int) -> bool:
    if isinstance(left, str) != isinstance(right, str):
        # Mixed comparison: coerce to numbers where possible.
        left = Interpreter._as_number(left, line)
        right = Interpreter._as_number(right, line)
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    return left >= right


def _render_member(
    expression: ast.MemberAccess, env: dict[str, object], interp: Interpreter
) -> str:
    """Render a member chain as text for host_values lookup.

    ``ActiveDocument.Variables("x").Value()`` renders to exactly that string,
    matching what :class:`repro.obfuscation.antianalysis.StringHider` emits.
    """
    base = expression.base
    if isinstance(base, ast.Name):
        base_text = base.name
    elif isinstance(base, ast.MemberAccess):
        base_text = _render_member(base, env, interp)
    else:
        base_text = "?"
    args_text = ""
    if expression.args is not None:
        rendered_args = []
        for arg in expression.args:
            value = interp._eval(arg, env)
            if isinstance(value, str):
                rendered_args.append(f'"{value}"')
            else:
                rendered_args.append(_to_vba_string(value))
        args_text = "(" + ", ".join(rendered_args) + ")"
    return f"{base_text}.{expression.member}{args_text}"


# ----------------------------------------------------------------------
# Built-in functions


def _require(args: list, count: int, name: str, line: int) -> None:
    if len(args) < count:
        raise VBARuntimeError(f"{name} needs {count} argument(s)", line)


def _bi_chr(interp, args, line):
    _require(args, 1, "Chr", line)
    code = interp._as_int(args[0], line)
    if not 0 <= code < 0x110000:
        raise VBARuntimeError(f"Chr out of range: {code}", line)
    return chr(code)


def _bi_asc(interp, args, line):
    _require(args, 1, "Asc", line)
    text = _to_vba_string(args[0])
    if not text:
        raise VBARuntimeError("Asc of empty string", line)
    return ord(text[0])


def _bi_len(interp, args, line):
    _require(args, 1, "Len", line)
    value = args[0]
    if isinstance(value, list):
        return len(value)
    return len(_to_vba_string(value))


def _bi_mid(interp, args, line):
    _require(args, 2, "Mid", line)
    text = _to_vba_string(args[0])
    start = interp._as_int(args[1], line)
    if start < 1:
        raise VBARuntimeError("Mid start must be >= 1", line)
    if len(args) >= 3:
        length = interp._as_int(args[2], line)
        return text[start - 1 : start - 1 + length]
    return text[start - 1 :]


def _bi_left(interp, args, line):
    _require(args, 2, "Left", line)
    return _to_vba_string(args[0])[: interp._as_int(args[1], line)]


def _bi_right(interp, args, line):
    _require(args, 2, "Right", line)
    count = interp._as_int(args[1], line)
    text = _to_vba_string(args[0])
    return text[-count:] if count else ""


def _bi_replace(interp, args, line):
    _require(args, 3, "Replace", line)
    return _to_vba_string(args[0]).replace(
        _to_vba_string(args[1]), _to_vba_string(args[2])
    )


def _bi_instr(interp, args, line):
    # InStr([start, ]haystack, needle)
    _require(args, 2, "InStr", line)
    if isinstance(args[0], (int, float)) and len(args) >= 3:
        start = interp._as_int(args[0], line)
        haystack = _to_vba_string(args[1])
        needle = _to_vba_string(args[2])
    else:
        start = 1
        haystack = _to_vba_string(args[0])
        needle = _to_vba_string(args[1])
    if start < 1:
        raise VBARuntimeError("InStr start must be >= 1", line)
    position = haystack.find(needle, start - 1)
    return position + 1


def _bi_instrrev(interp, args, line):
    _require(args, 2, "InStrRev", line)
    haystack = _to_vba_string(args[0])
    needle = _to_vba_string(args[1])
    return haystack.rfind(needle) + 1


def _bi_lcase(interp, args, line):
    _require(args, 1, "LCase", line)
    return _to_vba_string(args[0]).lower()


def _bi_ucase(interp, args, line):
    _require(args, 1, "UCase", line)
    return _to_vba_string(args[0]).upper()


def _bi_trim(interp, args, line):
    _require(args, 1, "Trim", line)
    return _to_vba_string(args[0]).strip(" ")


def _bi_ltrim(interp, args, line):
    _require(args, 1, "LTrim", line)
    return _to_vba_string(args[0]).lstrip(" ")


def _bi_rtrim(interp, args, line):
    _require(args, 1, "RTrim", line)
    return _to_vba_string(args[0]).rstrip(" ")


def _bi_space(interp, args, line):
    _require(args, 1, "Space", line)
    return " " * interp._as_int(args[0], line)


def _bi_string(interp, args, line):
    _require(args, 2, "String", line)
    count = interp._as_int(args[0], line)
    char = _to_vba_string(args[1])[:1]
    return char * count


def _bi_strreverse(interp, args, line):
    _require(args, 1, "StrReverse", line)
    return _to_vba_string(args[0])[::-1]


def _bi_split(interp, args, line):
    _require(args, 1, "Split", line)
    delimiter = _to_vba_string(args[1]) if len(args) >= 2 else " "
    return _to_vba_string(args[0]).split(delimiter)


def _bi_join(interp, args, line):
    _require(args, 1, "Join", line)
    if not isinstance(args[0], list):
        raise VBARuntimeError("Join needs an array", line)
    delimiter = _to_vba_string(args[1]) if len(args) >= 2 else " "
    return delimiter.join(_to_vba_string(item) for item in args[0])


def _bi_array(interp, args, line):
    return list(args)


def _bi_ubound(interp, args, line):
    _require(args, 1, "UBound", line)
    if not isinstance(args[0], list):
        raise VBARuntimeError("UBound needs an array", line)
    return len(args[0]) - 1


def _bi_lbound(interp, args, line):
    _require(args, 1, "LBound", line)
    if not isinstance(args[0], list):
        raise VBARuntimeError("LBound needs an array", line)
    return 0


def _bi_cstr(interp, args, line):
    _require(args, 1, "CStr", line)
    return _to_vba_string(args[0])


def _bi_clng(interp, args, line):
    _require(args, 1, "CLng", line)
    value = args[0]
    if isinstance(value, str):
        return _string_to_number(value, line, integral=True)
    return interp._as_int(value, line)


def _bi_cint(interp, args, line):
    return _bi_clng(interp, args, line)


def _bi_cdbl(interp, args, line):
    _require(args, 1, "CDbl", line)
    value = args[0]
    if isinstance(value, str):
        return float(_string_to_number(value, line, integral=False))
    return float(interp._as_number(value, line))


def _bi_val(interp, args, line):
    _require(args, 1, "Val", line)
    text = _to_vba_string(args[0]).strip()
    if text.lower().startswith("&h"):
        digits = ""
        for ch in text[2:]:
            if ch in "0123456789abcdefABCDEF":
                digits += ch
            else:
                break
        return int(digits, 16) if digits else 0
    # Val reads the longest numeric prefix, 0 if none.
    best = 0.0
    matched = False
    for end in range(len(text), 0, -1):
        try:
            best = float(text[:end])
            matched = True
            break
        except ValueError:
            continue
    if not matched:
        return 0
    return int(best) if best.is_integer() else best


def _string_to_number(text: str, line: int, integral: bool) -> int | float:
    stripped = text.strip()
    try:
        if stripped.lower().startswith("&h"):
            return int(stripped[2:], 16)
        value = float(stripped)
    except ValueError:
        raise VBARuntimeError(f"type mismatch: {text!r}", line) from None
    return _banker_round(value) if integral else value


def _bi_hex(interp, args, line):
    _require(args, 1, "Hex", line)
    return format(interp._as_int(args[0], line), "X")


def _bi_oct(interp, args, line):
    _require(args, 1, "Oct", line)
    return format(interp._as_int(args[0], line), "o")


def _bi_abs(interp, args, line):
    _require(args, 1, "Abs", line)
    return abs(interp._as_number(args[0], line))


def _bi_sqr(interp, args, line):
    _require(args, 1, "Sqr", line)
    value = interp._as_number(args[0], line)
    if value < 0:
        raise VBARuntimeError("Sqr of negative number", line)
    return value**0.5


def _bi_round(interp, args, line):
    _require(args, 1, "Round", line)
    digits = interp._as_int(args[1], line) if len(args) >= 2 else 0
    return round(interp._as_number(args[0], line), digits)


def _bi_int(interp, args, line):
    _require(args, 1, "Int", line)
    import math

    return math.floor(interp._as_number(args[0], line))


def _bi_fix(interp, args, line):
    _require(args, 1, "Fix", line)
    return int(interp._as_number(args[0], line))


def _bi_sgn(interp, args, line):
    _require(args, 1, "Sgn", line)
    value = interp._as_number(args[0], line)
    return (value > 0) - (value < 0)


def _bi_isnumeric(interp, args, line):
    _require(args, 1, "IsNumeric", line)
    value = args[0]
    if isinstance(value, (int, float, bool)):
        return True
    if isinstance(value, str):
        try:
            float(value)
            return True
        except ValueError:
            return False
    return False


def _bi_strcomp(interp, args, line):
    _require(args, 2, "StrComp", line)
    left, right = _to_vba_string(args[0]), _to_vba_string(args[1])
    if len(args) >= 3 and interp._as_int(args[2], line) == 1:
        left, right = left.lower(), right.lower()
    return (left > right) - (left < right)


def _bi_strconv(interp, args, line):
    _require(args, 2, "StrConv", line)
    text = _to_vba_string(args[0])
    mode = interp._as_int(args[1], line)
    if mode == 1:
        return text.upper()
    if mode == 2:
        return text.lower()
    if mode == 3:
        return text.title()
    return text


_BUILTINS = {
    "chr": _bi_chr, "chr$": _bi_chr, "chrw": _bi_chr,
    "asc": _bi_asc, "ascw": _bi_asc,
    "len": _bi_len,
    "mid": _bi_mid, "mid$": _bi_mid,
    "left": _bi_left, "left$": _bi_left,
    "right": _bi_right, "right$": _bi_right,
    "replace": _bi_replace,
    "instr": _bi_instr,
    "instrrev": _bi_instrrev,
    "lcase": _bi_lcase, "lcase$": _bi_lcase,
    "ucase": _bi_ucase, "ucase$": _bi_ucase,
    "trim": _bi_trim, "ltrim": _bi_ltrim, "rtrim": _bi_rtrim,
    "space": _bi_space,
    "string": _bi_string, "string$": _bi_string,
    "strreverse": _bi_strreverse,
    "split": _bi_split, "join": _bi_join,
    "array": _bi_array, "ubound": _bi_ubound, "lbound": _bi_lbound,
    "cstr": _bi_cstr, "clng": _bi_clng, "cint": _bi_cint, "cdbl": _bi_cdbl,
    "cbyte": _bi_clng, "cbool": lambda i, a, l: Interpreter._truthy(a[0]),
    "val": _bi_val, "hex": _bi_hex, "oct": _bi_oct,
    "abs": _bi_abs, "sqr": _bi_sqr, "round": _bi_round,
    "int": _bi_int, "fix": _bi_fix, "sgn": _bi_sgn,
    "isnumeric": _bi_isnumeric,
    "strcomp": _bi_strcomp, "strconv": _bi_strconv,
}


def run_function(
    source: str,
    name: str,
    *args: object,
    host_values: dict[str, object] | None = None,
) -> object:
    """Convenience wrapper: parse, then call one function."""
    return Interpreter.from_source(source, host_values).call(name, *args)


def evaluate_expression(
    expression: str,
    host_values: dict[str, object] | None = None,
    module_source: str = "",
) -> object:
    """Evaluate a VBA expression, optionally with helper procedures in scope.

    This is how the obfuscation tests check that an encoded string expression
    decodes back to the original value.
    """
    wrapper = (
        f"{module_source}\n"
        f"Function EvalWrapper__() As Variant\n"
        f"    EvalWrapper__ = {expression}\n"
        f"End Function\n"
    )
    return run_function(wrapper, "EvalWrapper__", host_values=host_values)
