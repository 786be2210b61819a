"""Budgeted constant-folding abstract interpreter over the VBA AST.

This is the static counterpart of :mod:`repro.vba.interpreter`: instead of
*executing* a macro it *folds* it — propagating constants through the
same AST and calling the same string builtins (``Chr``, ``StrReverse``,
``Replace``, ``Mid`` …) on concrete arguments, so the payload strings that
O2/O3 obfuscation hides behind decoder expressions fall out without
running anything.  Everything it cannot pin down — host objects, I/O,
unknown names, over-budget loops — widens to ⊤ (:mod:`repro.sa.domain`)
and the analysis keeps going, which makes it *total*: every input, no
matter how hostile, terminates within the :class:`~repro.resilience.budgets.SABudget`
and yields a :class:`~repro.sa.records.StringRecovery`.

Design notes:

* The value domain is the flat constant lattice.  ``If`` with a ⊤
  condition executes *all* branches, each from the same saved state, and
  joins their exits; loops whose trip count is concrete and under budget
  run concretely, anything else is havoced by chaotic iteration to the
  (height-2) fixpoint.  The state a path can write is the environment,
  the module variables and the elements of every array reachable from
  them (arrays are shared by reference across frames), so all three are
  saved, restored and joined per path.  Recovered strings are therefore
  a *superset* of what one dynamic execution observes — the parity
  property the tests assert.
* Builtins are the dynamic interpreter's own ``_BUILTINS`` table called
  on concrete arguments (their coercions are static methods), wrapped so
  any :class:`~repro.vba.interpreter.VBARuntimeError` becomes ⊤ instead
  of aborting.
* Budgets degrade, never raise: step exhaustion aborts the pass with
  partial results; loop-cap and size-cap trips only widen locally and
  flag ``exhausted`` on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from repro.obs.metrics import NULL_REGISTRY
from repro.resilience.budgets import DEFAULT_SA_BUDGET, SABudget
from repro.sa.domain import TOP, is_concrete, join, join_envs
from repro.sa.records import RecoveredString, StringRecovery
from repro.vba import ast_nodes as ast
from repro.vba.interpreter import (
    _BUILTINS,
    Interpreter,
    VBARuntimeError,
    _compare,
    _to_vba_string,
)
from repro.vba.parser import VBAParseError, parse_module


class _BudgetExhausted(Exception):
    """Internal: the step budget tripped; abort the pass with partials."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _ExitSignal(Exception):
    def __init__(self, kind: str) -> None:
        self.kind = kind


_MISSING = object()


class _PathState(NamedTuple):
    """What one path may write, saved: copies of the environment and the
    module variables, and every reachable array (by id) with a copy of
    its elements."""

    env: dict[str, object]
    globals: dict[str, object]
    arrays: dict[int, tuple[list, list]]

#: chaotic-iteration cap for loop havoc; the flat lattice converges in
#: one widening per variable, this is a hard backstop
_MAX_HAVOC_PASSES = 8

#: builtins whose output size is driven by an integer argument — precheck
#: the count against the string-length budget before calling
_SIZE_PRODUCING = frozenset({"space", "string", "string$"})


@dataclass
class AbstractInterpreter:
    """Folds one module under a budget, collecting recovered strings."""

    module: ast.Module
    budget: SABudget = field(default_factory=lambda: DEFAULT_SA_BUDGET)

    def __post_init__(self) -> None:
        self._globals: dict[str, object] = {}
        self._steps = 0
        self._depth = 0
        self._recovered: dict[str, RecoveredString] = {}
        self._truncated = False
        self._exhausted_reason = ""

    # ------------------------------------------------------------------
    # Entry points

    def run(self) -> None:
        """Fold module-level code, then every procedure with ⊤ arguments."""
        try:
            for statement in self.module.module_statements:
                self._execute(statement, self._globals)
            for procedure in self.module.procedures.values():
                self._enter(procedure)
        except _BudgetExhausted as exhausted:
            self._note_exhausted(exhausted.reason)
        except _ExitSignal:
            pass
        except RecursionError:
            self._note_exhausted("recursion")

    def _enter(self, procedure: ast.Procedure) -> None:
        """Fold one procedure as an entry point: every argument is ⊤."""
        self._call_procedure(procedure, [TOP] * len(procedure.params))

    def result(self) -> StringRecovery:
        return StringRecovery(
            strings=tuple(_maximal_strings(list(self._recovered.values()))),
            exhausted=bool(self._exhausted_reason),
            exhausted_reason=self._exhausted_reason,
            steps_used=self._steps,
            truncated=self._truncated,
        )

    # ------------------------------------------------------------------
    # Bookkeeping

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.budget.max_steps:
            raise _BudgetExhausted("steps")

    def _note_exhausted(self, reason: str) -> None:
        if not self._exhausted_reason:
            self._exhausted_reason = reason

    def _record(self, value: object, line: int, origin: str) -> None:
        if not isinstance(value, str):
            return
        if not (
            self.budget.min_string_length
            <= len(value)
            <= self.budget.max_string_length
        ):
            return
        if value in self._recovered:
            return
        if len(self._recovered) >= self.budget.max_strings:
            self._truncated = True
            self._note_exhausted("strings")
            return
        self._recovered[value] = RecoveredString(value, line, origin)

    # ------------------------------------------------------------------
    # Procedures

    def _call_procedure(
        self, procedure: ast.Procedure, args: list[object]
    ) -> object:
        if self._depth >= self.budget.max_call_depth:
            self._note_exhausted("call_depth")
            return TOP
        locals_: dict[str, object] = {
            param.lower(): (args[index] if index < len(args) else None)
            for index, param in enumerate(procedure.params)
        }
        if procedure.kind == "function":
            locals_[procedure.name.lower()] = None
        self._depth += 1
        try:
            for statement in procedure.body:
                self._execute(statement, locals_)
        except _ExitSignal as signal:
            if signal.kind not in ("sub", "function"):
                pass  # stray Exit For/Do: treat as procedure end
        finally:
            self._depth -= 1
        if procedure.kind == "function":
            value = locals_.get(procedure.name.lower())
            self._record(value, procedure.line, "call")
            return value
        return None

    # ------------------------------------------------------------------
    # Statement folding

    def _execute(self, statement: ast.Statement, env: dict[str, object]) -> None:
        self._tick()
        method = self._DISPATCH[type(statement)]
        method(self, statement, env)

    def _exec_dim(self, statement: ast.DimStmt, env: dict[str, object]) -> None:
        for name, extent in statement.names:
            if extent is None:
                env.setdefault(name.lower(), None)
                continue
            size = self._eval(extent, env)
            if isinstance(size, bool) or not isinstance(size, (int, float)):
                env[name.lower()] = TOP
                continue
            size = int(size)
            if not 0 <= size < self.budget.max_loop_iterations:
                self._note_exhausted("array_size")
                env[name.lower()] = TOP
                continue
            env[name.lower()] = [None] * (size + 1)

    def _exec_const(self, statement: ast.ConstStmt, env: dict[str, object]) -> None:
        env[statement.name.lower()] = self._eval(statement.value, env)

    def _exec_assign(self, statement: ast.Assign, env: dict[str, object]) -> None:
        value = self._eval(statement.value, env)
        target = statement.target
        if isinstance(target, ast.Name):
            self._store(target.name, value, env)
            return
        if isinstance(target, ast.MemberAccess):
            return  # host-object property write: inert
        # ``arr(i) = value`` element assignment.
        container = self._load(target.name, env)
        if container is TOP or not isinstance(container, list):
            self._store(target.name, TOP, env)
            return
        if len(target.args) != 1:
            self._store(target.name, TOP, env)
            return
        index = self._eval(target.args[0], env)
        if (
            isinstance(index, bool)
            or not isinstance(index, (int, float))
            or not 0 <= int(index) < len(container)
        ):
            # Unknown or out-of-range index: the whole array is now unknown.
            self._store(target.name, TOP, env)
            return
        container[int(index)] = value

    def _exec_if(self, statement: ast.IfStmt, env: dict[str, object]) -> None:
        remaining: list[tuple[ast.Statement, ...]] = []
        for condition, body in statement.branches:
            value = self._eval(condition, env)
            truth = self._truthy(value)
            if truth is True:
                if remaining:
                    remaining.append(body)
                    break
                for inner in body:
                    self._execute(inner, env)
                return
            if truth is False:
                continue
            remaining.append(body)  # ⊤ condition: branch may or may not run
        else:
            if not remaining:
                for inner in statement.else_body:
                    self._execute(inner, env)
                return
            remaining.append(statement.else_body)
        # At least one condition was ⊤: fold every possibly-taken branch
        # from the same entry state and join the exits.
        entry = self._save(env)
        exits = []
        for body in remaining:
            self._restore(env, entry)
            try:
                for inner in body:
                    self._execute(inner, env)
            except _ExitSignal:
                pass  # the exit may not happen on other paths; keep folding
            exits.append(self._save(env, entry))
        self._merge(env, exits)

    def _exec_for(self, statement: ast.ForStmt, env: dict[str, object]) -> None:
        start = self._eval(statement.start, env)
        end = self._eval(statement.end, env)
        step: object = (
            self._eval(statement.step, env) if statement.step is not None else 1
        )
        var = statement.var.lower()
        concrete = (
            isinstance(start, (int, float))
            and isinstance(end, (int, float))
            and isinstance(step, (int, float))
            and not isinstance(step, bool)
            and step != 0
        )
        if concrete:
            trips = int((end - start) / step) + 1 if (end - start) * step >= 0 else 0
            if trips <= self.budget.max_loop_iterations:
                current = start
                try:
                    while (step > 0 and current <= end) or (
                        step < 0 and current >= end
                    ):
                        env[var] = current
                        for inner in statement.body:
                            self._execute(inner, env)
                        bound = env.get(var)
                        if isinstance(bound, bool) or not isinstance(
                            bound, (int, float)
                        ):
                            break  # body widened the loop var: havoc below
                        current = bound + step
                    else:
                        return
                except _ExitSignal as signal:
                    if signal.kind != "for":
                        raise
                    return
            else:
                self._note_exhausted("loop_iterations")
        self._havoc_loop(statement.body, env, loop_vars=(var,))

    def _exec_for_each(
        self, statement: ast.ForEachStmt, env: dict[str, object]
    ) -> None:
        iterable = self._eval(statement.iterable, env)
        var = statement.var.lower()
        if (
            isinstance(iterable, list)
            and len(iterable) <= self.budget.max_loop_iterations
        ):
            try:
                for item in iterable:
                    env[var] = item
                    for inner in statement.body:
                        self._execute(inner, env)
            except _ExitSignal as signal:
                if signal.kind != "for":
                    raise
            return
        if isinstance(iterable, list):
            self._note_exhausted("loop_iterations")
        self._havoc_loop(statement.body, env, loop_vars=(var,))

    def _exec_do(self, statement: ast.DoLoopStmt, env: dict[str, object]) -> None:
        iterations = 0
        try:
            if not statement.pre_test:
                # Post-test loops run the body at least once.
                for inner in statement.body:
                    self._execute(inner, env)
                iterations = 1
                truth = self._check_do(statement, env)
                if truth is False:
                    return
                if truth is None:
                    self._havoc_loop(statement.body, env)
                    return
            while True:
                if statement.pre_test:
                    truth = self._check_do(statement, env)
                    if truth is False:
                        return
                    if truth is None:
                        self._havoc_loop(statement.body, env)
                        return
                if iterations >= self.budget.max_loop_iterations:
                    self._note_exhausted("loop_iterations")
                    self._havoc_loop(statement.body, env)
                    return
                for inner in statement.body:
                    self._execute(inner, env)
                iterations += 1
                if not statement.pre_test:
                    truth = self._check_do(statement, env)
                    if truth is False:
                        return
                    if truth is None:
                        self._havoc_loop(statement.body, env)
                        return
        except _ExitSignal as signal:
            if signal.kind != "do":
                raise

    def _check_do(
        self, statement: ast.DoLoopStmt, env: dict[str, object]
    ) -> bool | None:
        """Do/While continue-condition: True, False, or None for ⊤."""
        truth = self._truthy(self._eval(statement.condition, env))
        if truth is None:
            return None
        return truth if statement.condition_kind == "while" else not truth

    def _havoc_loop(
        self,
        body: tuple[ast.Statement, ...],
        env: dict[str, object],
        loop_vars: tuple[str, ...] = (),
    ) -> None:
        """Chaotic iteration to the loop fixpoint: run the body (loop
        variables ⊤), join its exit with its entry, repeat until stable."""
        for var in loop_vars:
            env[var] = TOP
        for _pass in range(_MAX_HAVOC_PASSES):
            entry = self._save(env)
            try:
                for inner in body:
                    self._execute(inner, env)
            except _ExitSignal:
                pass
            self._merge(env, [entry, self._save(env, entry)])
            for var in loop_vars:
                env[var] = TOP
            if (
                env == entry.env
                and self._globals == entry.globals
                and all(array == saved for array, saved in entry.arrays.values())
            ):
                return
        # Backstop: force every bound name and array element to ⊤.
        for array, _ in self._save(env).arrays.values():
            array[:] = [TOP] * len(array)
        for names in (env, self._globals):
            for key in names:
                names[key] = TOP

    # ------------------------------------------------------------------
    # Path states

    def _save(
        self, env: dict[str, object], entry: _PathState | None = None
    ) -> _PathState:
        """Save what a path can write.  A path's exit also keeps the
        arrays of its ``entry``, which other frames may still hold even
        when no name here reaches them any more."""
        arrays: dict[int, tuple[list, list]] = {}
        pending = [
            value
            for value in chain(env.values(), self._globals.values())
            if type(value) is list
        ]
        if entry is not None:
            pending.extend(array for array, _ in entry.arrays.values())
        while pending:
            value = pending.pop()
            if id(value) not in arrays:
                arrays[id(value)] = (value, value[:])
                pending.extend(inner for inner in value if type(inner) is list)
        return _PathState(dict(env), dict(self._globals), arrays)

    def _restore(self, env: dict[str, object], state: _PathState) -> None:
        for array, elements in state.arrays.values():
            array[:] = elements
        self._globals.clear()
        self._globals.update(state.globals)
        env.clear()
        env.update(state.env)

    def _merge(self, env: dict[str, object], states: list[_PathState]) -> None:
        """Set the live state to the join of saved path exits."""
        arrays: dict[int, list] = {}
        elements: dict[int, list] = {}
        for state in states:
            for key, (array, values) in state.arrays.items():
                if key in elements:
                    elements[key] = [join(a, b) for a, b in zip(elements[key], values)]
                else:
                    arrays[key], elements[key] = array, values
        # Arrays first: joining two different arrays bound to one name
        # reads their (now joined) elements.
        for key, array in arrays.items():
            array[:] = elements[key]
        joined_env, joined_globals = dict(states[0].env), dict(states[0].globals)
        for other in states[1:]:
            join_envs(joined_env, other.env)
            join_envs(joined_globals, other.globals)
        self._globals.clear()
        self._globals.update(joined_globals)
        env.clear()
        env.update(joined_env)

    def _exec_with(self, statement: ast.WithStmt, env: dict[str, object]) -> None:
        self._eval(statement.subject, env)
        for inner in statement.body:
            self._execute(inner, env)

    def _exec_exit(self, statement: ast.ExitStmt, env: dict[str, object]) -> None:
        raise _ExitSignal(statement.kind)

    def _exec_call(self, statement: ast.CallStmt, env: dict[str, object]) -> None:
        self._eval(statement.call, env)

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

    def _load(self, name: str, env: dict[str, object]) -> object:
        key = name.lower()
        if key in env:
            return env[key]
        if key in self._globals:
            return self._globals[key]
        return _MISSING

    # ------------------------------------------------------------------
    # Expression folding

    def _truthy(self, value: object) -> bool | None:
        """Three-valued truth: None means ⊤ (either branch possible)."""
        if value is TOP or isinstance(value, list):
            return None
        try:
            return Interpreter._truthy(value)
        except VBARuntimeError:
            return None

    def _eval(self, expression: ast.Expression, env: dict[str, object]) -> object:
        self._tick()
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
            if operand is TOP:
                return TOP
            try:
                if expression.op == "-":
                    return -Interpreter._as_number(operand, expression.line)
                truth = self._truthy(operand)
                return TOP if truth is None else not truth
            except VBARuntimeError:
                return TOP
        return TOP

    def _eval_member(
        self, expression: ast.MemberAccess, env: dict[str, object]
    ) -> object:
        """Host member access: unknown statically, but its base and
        arguments (``CreateObject("WScr" & "ipt.Shell").Run``) still fold."""
        self._eval(expression.base, env)
        for arg in expression.args or ():
            self._eval(arg, env)
        return TOP

    def _eval_name(self, expression: ast.Name, env: dict[str, object]) -> object:
        bound = self._load(expression.name, env)
        if bound is not _MISSING:
            return bound
        key = expression.name.lower()
        procedure = self.module.procedures.get(key)
        if procedure is not None:
            return self._call_procedure(procedure, [])
        builtin = _BUILTINS.get(key)
        if builtin is not None:
            return self._fold_builtin(key, builtin, [], expression.line)
        return TOP  # unknown name: a host global or undeclared variable

    def _eval_call(self, expression: ast.Call, env: dict[str, object]) -> object:
        key = expression.name.lower()
        bound = self._load(expression.name, env)
        if isinstance(bound, list):
            if len(expression.args) != 1:
                return TOP
            index = self._eval(expression.args[0], env)
            if (
                isinstance(index, bool)
                or not isinstance(index, (int, float))
                or not 0 <= int(index) < len(bound)
            ):
                return TOP
            return bound[int(index)]
        if bound is TOP:
            # Could be an array we lost track of — evaluate args for their
            # side budget and give up on the value.
            for arg in expression.args:
                self._eval(arg, env)
            return TOP
        procedure = self.module.procedures.get(key)
        if procedure is not None:
            args = [self._eval(arg, env) for arg in expression.args]
            return self._call_procedure(procedure, args)
        builtin = _BUILTINS.get(key)
        if builtin is not None:
            args = [self._eval(arg, env) for arg in expression.args]
            value = self._fold_builtin(key, builtin, args, expression.line)
            self._record(value, expression.line, key)
            return value
        return self._eval_host_call(expression, env)

    def _eval_host_call(self, expression: ast.Call, env: dict[str, object]) -> object:
        """A call to no module procedure and no builtin: a host API."""
        for arg in expression.args:
            self._eval(arg, env)
        return TOP

    def _fold_builtin(self, key: str, builtin, args: list, line: int) -> object:
        if not all(is_concrete(arg) for arg in args):
            return TOP
        if key in _SIZE_PRODUCING and args:
            count = args[0]
            if not isinstance(count, (int, float)) or not (
                0 <= count <= self.budget.max_string_length
            ):
                self._note_exhausted("string_length")
                return TOP
        try:
            value = builtin(Interpreter, args, line)
        except (VBARuntimeError, ValueError, TypeError, OverflowError):
            return TOP
        if isinstance(value, str) and len(value) > self.budget.max_string_length:
            self._note_exhausted("string_length")
            return TOP
        return value

    def _eval_binop(self, expression: ast.BinOp, env: dict[str, object]) -> object:
        # Flatten the left spine iteratively: the parser builds deep
        # left-associative chains (10k-term concats) that would blow
        # Python's recursion limit if folded recursively.
        spine: list[ast.BinOp] = [expression]
        node: ast.Expression = expression.left
        while isinstance(node, ast.BinOp):
            spine.append(node)
            node = node.left
        value = self._eval(node, env)
        for op_node in reversed(spine):
            self._tick()
            right = self._eval(op_node.right, env)
            value = self._fold_binop(op_node.op, value, right, op_node.line)
            self._record(value, op_node.line, op_node.op)
        return value

    def _fold_binop(self, op: str, left: object, right: object, line: int) -> object:
        if left is TOP or right is TOP:
            return TOP
        if isinstance(left, list) or isinstance(right, list):
            return TOP
        try:
            return self._fold_binop_concrete(op, left, right, line)
        except (VBARuntimeError, ValueError, TypeError, OverflowError):
            return TOP

    def _fold_binop_concrete(
        self, op: str, left: object, right: object, line: int
    ) -> object:
        as_number = Interpreter._as_number
        as_int = Interpreter._as_int
        if op == "&":
            text = _to_vba_string(left) + _to_vba_string(right)
            if len(text) > self.budget.max_string_length:
                self._note_exhausted("string_length")
                return TOP
            return text
        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                if len(left) + len(right) > self.budget.max_string_length:
                    self._note_exhausted("string_length")
                    return TOP
                return left + right
            return as_number(left, line) + as_number(right, line)
        if op == "-":
            return as_number(left, line) - as_number(right, line)
        if op == "*":
            return as_number(left, line) * as_number(right, line)
        if op == "/":
            divisor = as_number(right, line)
            if divisor == 0:
                return TOP
            return as_number(left, line) / divisor
        if op == "\\":
            divisor = as_int(right, line)
            if divisor == 0:
                return TOP
            dividend = as_int(left, line)
            quotient = abs(dividend) // abs(divisor)
            return quotient if (dividend >= 0) == (divisor >= 0) else -quotient
        if op == "mod":
            divisor = as_int(right, line)
            if divisor == 0:
                return TOP
            dividend = as_int(left, line)
            remainder = abs(dividend) % abs(divisor)
            return remainder if dividend >= 0 else -remainder
        if op == "^":
            base = as_number(left, line)
            exponent = as_number(right, line)
            # Unbudgeted exponentiation can materialize million-digit
            # integers; anything past these bounds widens.
            if abs(exponent) > 512 or (abs(base) > 1 and abs(exponent) > 64):
                self._note_exhausted("number_size")
                return TOP
            return base**exponent
        if op in ("=", "<>", "<", ">", "<=", ">="):
            return _compare(op, left, right, line)
        if op == "and":
            a, b = self._truthy(left), self._truthy(right)
            return TOP if a is None or b is None else (a and b)
        if op == "or":
            a, b = self._truthy(left), self._truthy(right)
            return TOP if a is None or b is None else (a or b)
        if op == "xor":
            if isinstance(left, bool) or isinstance(right, bool):
                a, b = self._truthy(left), self._truthy(right)
                return TOP if a is None or b is None else (a != b)
            return as_int(left, line) ^ as_int(right, line)
        return TOP


def _maximal_strings(records: list[RecoveredString]) -> list[RecoveredString]:
    """Keep only maximal recovered values, in recovery order.

    Folding a concat chain records every intermediate prefix; a value that
    appears inside a longer recovered value is such an intermediate, not an
    independent finding.  Skipped above 2 MB of total recovered text, where
    the quadratic substring sweep would cost more than the noise.
    """
    if sum(len(record.value) for record in records) > 2_000_000:
        return records
    by_length = sorted(records, key=lambda record: len(record.value), reverse=True)
    kept: list[str] = []
    for record in by_length:
        if not any(record.value in other for other in kept):
            kept.append(record.value)
    keep = set(kept)
    return [record for record in records if record.value in keep]


# ----------------------------------------------------------------------
# Public entry point


def recover_strings(
    source: str,
    budget: SABudget | None = None,
    metrics=NULL_REGISTRY,
    tokens=None,
) -> StringRecovery:
    """Statically recover hidden strings from one macro's source.

    Total on every input: parse failures, budget exhaustion and internal
    recursion limits all degrade into the returned
    :class:`~repro.sa.records.StringRecovery` rather than raising.

    ``tokens`` optionally carries ``source``'s already-lexed
    :class:`~repro.vba.lexer.TokenTable` (the engine's analyze stage keeps
    one), skipping the re-tokenization that otherwise dominates the pass;
    the parse reads the table's shared views.
    """
    budget = budget or DEFAULT_SA_BUDGET
    try:
        module = parse_module(source, tolerant=True, tokens=tokens)
    except (VBAParseError, RecursionError):
        metrics.counter("sa.parse_failed").inc()
        return StringRecovery(parse_failed=True)
    interpreter = AbstractInterpreter(module, budget)
    interpreter.run()
    recovery = interpreter.result()
    metrics.counter("sa.analyzed").inc()
    if recovery.exhausted:
        metrics.counter("sa.budget_exhausted").inc()
        metrics.counter(f"sa.budget_exhausted.{recovery.exhausted_reason}").inc()
    if recovery.strings:
        metrics.counter("sa.strings_recovered").inc(len(recovery.strings))
    return recovery
