"""The VBA AST walker: budgeted constant folding, and concrete execution.

This is the one statement/expression walker over the :mod:`repro.vba`
AST.  :class:`AbstractInterpreter` *folds* a macro: it propagates
constants and calls the string builtins (``Chr``, ``StrReverse``,
``Replace``, ``Mid`` …) on concrete arguments, so the payload strings
that O2/O3 obfuscation hides behind decoder expressions fall out without
running anything.  Everything it cannot pin down — host objects, I/O,
unknown names, runtime errors, over-budget loops — widens to ⊤
(:mod:`repro.sa.domain`) and the analysis keeps going, which makes it
*total*: every input, no matter how hostile, terminates within the
:class:`~repro.resilience.budgets.SABudget` and yields a
:class:`~repro.sa.records.StringRecovery`.

Design notes:

* Every place the walker gives up on a value goes through one method,
  :meth:`AbstractInterpreter._widen`.  Here it returns ⊤ (noting budget
  caps on the result); :class:`repro.vba.interpreter.Interpreter`
  overrides it to raise, and runs under a budget whose only reachable
  limit is its step count, so the concrete face never sees ⊤ and the
  join/havoc code below never runs for it.
* Values are coerced by the shared :mod:`repro.vba.builtins` functions
  (``_as_number``, ``_as_int``, ``_truthy``), and builtins are that
  module's table called on concrete arguments.
* The value domain is the flat constant lattice.  ``If`` with a ⊤
  condition executes *all* branches, each from the same saved state, and
  joins their exits; loops whose trip count is concrete and under budget
  run concretely, anything else is havoced by chaotic iteration to the
  (height-2) fixpoint.  The state a path can write is the environment,
  the module variables and the elements of every array reachable from
  them (arrays are shared by reference across frames), so all three are
  saved, restored and joined per path.  Recovered strings are therefore
  a *superset* of what one concrete execution observes — the parity
  property the tests assert.
* Budgets degrade, never raise: step exhaustion aborts the pass with
  partial results; loop-cap and size-cap trips only widen locally and
  flag ``exhausted`` on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from repro.obs.metrics import NULL_REGISTRY
from repro.resilience.budgets import DEFAULT_SA_BUDGET, SABudget
from repro.sa.domain import TOP, is_concrete, join, join_envs
from repro.sa.records import RecoveredString, StringRecovery
from repro.vba import ast_nodes as ast
from repro.vba.builtins import (
    _BUILTINS,
    VBARuntimeError,
    _as_int,
    _as_number,
    _compare,
    _to_vba_string,
    _truthy,
)
from repro.vba.analyzer import MacroAnalysis
from repro.vba.parser import parse_tolerant


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

#: decimal digits per bit, to size an integer result from its operands
_LOG10_2 = math.log10(2)

#: widening reasons that are budget caps: they flag the result exhausted
_BUDGET_CAPS = frozenset(
    {"array_size", "call_depth", "loop_iterations", "number_size", "string_length"}
)

#: what a concrete operation on concrete values may raise — VBA runtime
#: errors, and the Python errors of values VBA would reject (a number too
#: large to print, ``0 ^ -1``, ``None < 1``)
_RUNTIME_ERRORS = (VBARuntimeError, ArithmeticError, LookupError, TypeError, ValueError)


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

    def _widen(self, reason: str | Exception, line: int) -> object:
        """Give up on a value: ⊤.  ``reason`` is a budget cap in
        ``_BUDGET_CAPS`` (noted on the result), a runtime error's message,
        or the runtime error itself."""
        if reason in _BUDGET_CAPS:
            self._note_exhausted(reason)
        return TOP

    def _coerce(self, convert, value: object, line: int) -> object:
        """``convert(value, line)`` — a shared coercion — or ⊤."""
        if value is TOP:
            return value
        try:
            return convert(value, line)
        except VBARuntimeError as error:
            return self._widen(error, line)

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
        if len(args) > len(procedure.params):
            self._widen(f"{procedure.name}: too many arguments", procedure.line)
        if self._depth >= self.budget.max_call_depth:
            return self._widen("call_depth", procedure.line)
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
                # A stray Exit For/Do: the procedure ends here.
                self._widen(f"Exit {signal.kind} outside loop", procedure.line)
        finally:
            self._depth -= 1
        if procedure.kind == "function":
            value = locals_.get(procedure.name.lower())
            self._record(value, procedure.line, "call")
            return value
        return None

    # ------------------------------------------------------------------
    # Statements

    def _execute(self, statement: ast.Statement, env: dict[str, object]) -> None:
        self._tick()
        getattr(self, self._DISPATCH[type(statement)])(statement, env)

    def _exec_dim(self, statement: ast.DimStmt, env: dict[str, object]) -> None:
        for name, extent in statement.names:
            key = name.lower()
            if extent is None:
                env.setdefault(key, None)
                continue
            size = self._coerce(_as_int, self._eval(extent, env), statement.line)
            if size is TOP:
                env[key] = size
            elif not 0 <= size < self.budget.max_loop_iterations:
                env[key] = self._widen("array_size", statement.line)
            else:
                env[key] = [None] * (size + 1)

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
        if not isinstance(container, list):
            reason = f"{target.name} is not an array"
        elif len(target.args) != 1:
            reason = "only 1-D element assignment supported"
        else:
            index = self._coerce(_as_int, self._eval(target.args[0], env), target.line)
            if index is not TOP and 0 <= index < len(container):
                container[index] = value
                return
            reason = f"subscript out of range: {index}"
        # Unknown container or index: the whole array is now unknown.
        self._store(target.name, self._widen(reason, target.line), env)

    def _exec_if(self, statement: ast.IfStmt, env: dict[str, object]) -> None:
        remaining: list[tuple[ast.Statement, ...]] = []
        for condition, body in statement.branches:
            truth = self._coerce(_truthy, self._eval(condition, env), statement.line)
            if truth is TOP:
                remaining.append(body)  # the branch may or may not run
            elif truth:
                if remaining:
                    remaining.append(body)
                    break
                for inner in body:
                    self._execute(inner, env)
                return
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
        line = statement.line
        start = self._coerce(_as_number, self._eval(statement.start, env), line)
        end = self._coerce(_as_number, self._eval(statement.end, env), line)
        step = (
            self._coerce(_as_number, self._eval(statement.step, env), line)
            if statement.step is not None
            else 1
        )
        var = statement.var.lower()
        if start is TOP or end is TOP or step is TOP:
            pass  # unknown bounds: havoc below
        elif step == 0:
            self._widen("For step cannot be 0", line)
        elif not _span(start, end, step) < self.budget.max_loop_iterations:
            self._widen("loop_iterations", line)
        else:
            current = start
            try:
                while (step > 0 and current <= end) or (step < 0 and current >= end):
                    env[var] = current
                    for inner in statement.body:
                        self._execute(inner, env)
                    # The body may reassign the loop variable.
                    current = self._coerce(_as_number, env[var], line)
                    if current is TOP:
                        break  # widened: havoc below
                    current += step
                else:
                    return
            except _ExitSignal as signal:
                if signal.kind != "for":
                    raise
                return
        self._havoc_loop(statement.body, env, loop_vars=(var,))

    def _exec_for_each(
        self, statement: ast.ForEachStmt, env: dict[str, object]
    ) -> None:
        iterable = self._eval(statement.iterable, env)
        var = statement.var.lower()
        if not isinstance(iterable, list):
            self._widen("For Each needs an array", statement.line)
        elif len(iterable) > self.budget.max_loop_iterations:
            self._widen("loop_iterations", statement.line)
        else:
            try:
                for item in iterable:
                    env[var] = item
                    for inner in statement.body:
                        self._execute(inner, env)
            except _ExitSignal as signal:
                if signal.kind != "for":
                    raise
            return
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
                if truth is TOP:
                    self._havoc_loop(statement.body, env)
                    return
                if not truth:
                    return
            while True:
                if statement.pre_test:
                    truth = self._check_do(statement, env)
                    if truth is TOP:
                        self._havoc_loop(statement.body, env)
                        return
                    if not truth:
                        return
                if iterations >= self.budget.max_loop_iterations:
                    self._widen("loop_iterations", statement.line)
                    self._havoc_loop(statement.body, env)
                    return
                for inner in statement.body:
                    self._execute(inner, env)
                iterations += 1
                if not statement.pre_test:
                    truth = self._check_do(statement, env)
                    if truth is TOP:
                        self._havoc_loop(statement.body, env)
                        return
                    if not truth:
                        return
        except _ExitSignal as signal:
            if signal.kind != "do":
                raise

    def _check_do(self, statement: ast.DoLoopStmt, env: dict[str, object]) -> object:
        """Do/While continue-condition: True, False, or ⊤."""
        truth = self._coerce(_truthy, self._eval(statement.condition, env), statement.line)
        if truth is TOP or statement.condition_kind == "while":
            return truth
        return not truth

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
        self._exec_host(statement.subject, env)
        for inner in statement.body:
            self._execute(inner, env)

    def _exec_exit(self, statement: ast.ExitStmt, env: dict[str, object]) -> None:
        raise _ExitSignal(statement.kind)

    def _exec_call(self, statement: ast.CallStmt, env: dict[str, object]) -> None:
        if isinstance(statement.call, ast.MemberAccess):
            self._exec_host(statement.call, env)  # ``stream.Open``
        else:
            self._eval(statement.call, env)

    def _exec_noop(self, statement: ast.NoOpStmt, env: dict[str, object]) -> None:
        return

    def _exec_host(self, expression: ast.Expression, env: dict[str, object]) -> None:
        """A host expression in statement position (a ``With`` subject, a
        member call statement): evaluated for its parts, value unused."""
        self._eval(expression, env)

    #: statement type -> the method that runs it (by name, so a
    #: subclass's override is the one called)
    _DISPATCH = {
        ast.DimStmt: "_exec_dim",
        ast.ConstStmt: "_exec_const",
        ast.Assign: "_exec_assign",
        ast.IfStmt: "_exec_if",
        ast.ForStmt: "_exec_for",
        ast.ForEachStmt: "_exec_for_each",
        ast.DoLoopStmt: "_exec_do",
        ast.WithStmt: "_exec_with",
        ast.ExitStmt: "_exec_exit",
        ast.CallStmt: "_exec_call",
        ast.NoOpStmt: "_exec_noop",
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
    # Expressions

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
            if expression.op == "-":
                number = self._coerce(_as_number, operand, expression.line)
                return number if number is TOP else -number
            truth = self._coerce(_truthy, operand, expression.line)
            return truth if truth is TOP else not truth
        return self._widen(f"cannot evaluate {expression!r}", 0)

    def _eval_member(
        self, expression: ast.MemberAccess, env: dict[str, object]
    ) -> object:
        """Host member access: unknown statically, but its base and
        arguments (``CreateObject("WScr" & "ipt.Shell").Run``) still fold."""
        self._eval(expression.base, env)
        for arg in expression.args or ():
            self._eval(arg, env)
        return self._widen("host member access", expression.line)

    def _eval_name(self, expression: ast.Name, env: dict[str, object]) -> object:
        bound = self._load(expression.name, env)
        if bound is not _MISSING:
            return bound
        # A zero-argument procedure or builtin used as a value.
        key = expression.name.lower()
        procedure = self.module.procedures.get(key)
        if procedure is not None:
            return self._call_procedure(procedure, [])
        builtin = _BUILTINS.get(key)
        if builtin is not None:
            return self._fold_builtin(key, builtin, [], expression.line)
        # A host global or an undeclared variable.
        return self._widen(f"undefined name {expression.name!r}", expression.line)

    def _eval_call(self, expression: ast.Call, env: dict[str, object]) -> object:
        key = expression.name.lower()
        bound = self._load(expression.name, env)
        # Array indexing shares call syntax.
        if isinstance(bound, list):
            if len(expression.args) != 1:
                return self._widen("only 1-D array indexing supported", expression.line)
            index = self._coerce(
                _as_int, self._eval(expression.args[0], env), expression.line
            )
            if index is TOP:
                return index
            if 0 <= index < len(bound):
                return bound[index]
            return self._widen(f"subscript out of range: {index}", expression.line)
        if bound is TOP:
            # Could be an array we lost track of — evaluate args for their
            # side budget and give up on the value.
            for arg in expression.args:
                self._eval(arg, env)
            return self._widen(f"{expression.name} is unknown", expression.line)
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
        return self._widen(f"unknown function {expression.name!r}", expression.line)

    def _fold_builtin(self, key: str, builtin, args: list, line: int) -> object:
        if not all(is_concrete(arg) for arg in args):
            return self._widen(f"{key} of an unknown argument", line)
        if key in _SIZE_PRODUCING and args:
            count = self._coerce(_as_number, args[0], line)
            if count is TOP:
                return count
            if count > self.budget.max_string_length:
                return self._widen("string_length", line)
        try:
            value = builtin(args, line)
        except _RUNTIME_ERRORS as error:
            return self._widen(error, line)
        if isinstance(value, str) and len(value) > self.budget.max_string_length:
            return self._widen("string_length", line)
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
            return self._widen(f"{op} of an unknown operand", line)
        if isinstance(left, list) or isinstance(right, list):
            return self._widen(f"type mismatch: array operand of {op}", line)
        try:
            return self._fold_binop_concrete(op, left, right, line)
        except _RUNTIME_ERRORS as error:
            return self._widen(error, line)

    def _fold_binop_concrete(
        self, op: str, left: object, right: object, line: int
    ) -> object:
        if op == "&":
            text = _to_vba_string(left) + _to_vba_string(right)
            if len(text) > self.budget.max_string_length:
                return self._widen("string_length", line)
            return text
        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                if len(left) + len(right) > self.budget.max_string_length:
                    return self._widen("string_length", line)
                return left + right
            return self._grow(op, _as_number(left, line), _as_number(right, line), line)
        if op == "-" or op == "*":
            return self._grow(op, _as_number(left, line), _as_number(right, line), line)
        if op == "/":
            divisor = _as_number(right, line)
            if divisor == 0:
                return self._widen("division by zero", line)
            return _as_number(left, line) / divisor
        if op == "\\":
            divisor = _as_int(right, line)
            if divisor == 0:
                return self._widen("division by zero", line)
            dividend = _as_int(left, line)
            # VBA \ truncates toward zero; compute with exact integer math.
            quotient = abs(dividend) // abs(divisor)
            return quotient if (dividend >= 0) == (divisor >= 0) else -quotient
        if op == "mod":
            divisor = _as_int(right, line)
            if divisor == 0:
                return self._widen("division by zero", line)
            dividend = _as_int(left, line)
            remainder = abs(dividend) % abs(divisor)
            return remainder if dividend >= 0 else -remainder
        if op == "^":
            base = _as_number(left, line)
            exponent = _as_number(right, line)
            # A power whose digits would outgrow the longest string the
            # budget materializes widens instead of being computed.
            if abs(base) > 1 and (
                abs(exponent) * math.log10(abs(base)) > self.budget.max_string_length
            ):
                return self._widen("number_size", line)
            return base**exponent
        if op in ("=", "<>", "<", ">", "<=", ">="):
            return _compare(op, left, right, line)
        if op == "and":
            # Both operands were evaluated: VBA And/Or do not short-circuit.
            return _truthy(left, line) and _truthy(right, line)
        if op == "or":
            return _truthy(left, line) or _truthy(right, line)
        if op == "xor":
            if isinstance(left, bool) or isinstance(right, bool):
                return _truthy(left, line) != _truthy(right, line)
            return _as_int(left, line) ^ _as_int(right, line)
        return self._widen(f"unsupported operator {op!r}", line)

    def _grow(self, op: str, left: int | float, right: int | float, line: int) -> object:
        """``left + right``, ``left - right`` or ``left * right``, unless the
        operands' bit lengths say the integer result would outgrow the
        longest string the budget materializes (the rule ``^`` follows):
        then it widens before computing."""
        if type(left) is int and type(right) is int:
            if op == "*":
                bits = left.bit_length() + right.bit_length()
            else:
                bits = max(left.bit_length(), right.bit_length()) + 1
            if bits * _LOG10_2 > self.budget.max_string_length:
                return self._widen("number_size", line)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        return left * right


def _span(start: int | float, end: int | float, step: int | float) -> float:
    """A For loop's trip span, ``(end - start) / step``; ∞ past a float."""
    try:
        return (end - start) / step
    except OverflowError:
        return math.inf


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
    analysis: MacroAnalysis | None = None,
) -> StringRecovery:
    """Statically recover hidden strings from one macro's source.

    Total on every input: parse failures, budget exhaustion and internal
    recursion limits all degrade into the returned
    :class:`~repro.sa.records.StringRecovery` rather than raising.

    ``analysis`` optionally carries ``source``'s
    :class:`~repro.vba.analyzer.MacroAnalysis` (the engine's analyze stage
    keeps one): the pass then folds its cached tolerant parse, which the
    lint rules share, instead of lexing and parsing ``source`` again.
    """
    budget = budget or DEFAULT_SA_BUDGET
    parsed = parse_tolerant(source) if analysis is None else analysis.ensure_parse()
    module = parsed.module
    if module is None:
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
