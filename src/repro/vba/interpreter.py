"""Concrete execution of the executable VBA subset.

Runs modules parsed by :mod:`repro.vba.parser`.  The interpreter exists
to *verify* the obfuscation engine: running the original and the obfuscated
macro and comparing observable results proves the transforms are
semantics-preserving (the defining property of obfuscation per Section III
of the paper).

It is the one AST walker, :class:`repro.sa.interpreter.AbstractInterpreter`,
with four changes: where the walker would widen a value to ⊤ it raises
:class:`VBARuntimeError`; its budget's only reachable limit is
``max_steps`` (statements and expression nodes evaluated), so no value is
ever ⊤; member reads resolve through ``host_values``; and the entry points
turn a budget trip into :class:`VBARuntimeError`.  Only that error and
:class:`~repro.vba.parser.VBAParseError` leave it.

Scope notes:

* Function return values follow VBA convention: assignment to the function's
  own name inside its body.
* ``Array(...)`` produces zero-based arrays (``Option Base 0``).
* Host-application member access (``ActiveDocument…``) is outside the
  executable subset and raises :class:`VBARuntimeError`; obfuscated samples
  that use §VI.B string hiding can supply the hidden values through
  ``host_values``.
* A step budget guards against runaway loops in generated junk code.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

from repro.resilience.budgets import SABudget
from repro.sa.interpreter import (
    _MISSING,
    AbstractInterpreter,
    _BudgetExhausted,
    _ExitSignal,
)
from repro.vba import ast_nodes as ast
from repro.vba.builtins import VBARuntimeError, _to_vba_string
from repro.vba.parser import parse_module

#: Loop, array, call-depth and string caps no run reaches before its step
#: budget, and a recording threshold no string meets: the walker keeps no
#: recovered strings for a concrete run.
_CONCRETE_BUDGET = SABudget(
    max_loop_iterations=sys.maxsize,
    max_call_depth=sys.maxsize,
    max_string_length=sys.maxsize,
    min_string_length=sys.maxsize,
)


@dataclass
class Interpreter(AbstractInterpreter):
    """Executes one module; module-level code runs at construction.

    Attributes:
        module: the parsed module.
        host_values: values for host storage reads (document variables /
            control captions), keyed by the storage expression's rendered
            text — see :meth:`_eval_member`.
        max_steps: budget of statements and expression nodes evaluated.
    """

    budget: SABudget = field(init=False, repr=False, default=_CONCRETE_BUDGET)
    host_values: dict[str, object] = field(default_factory=dict)
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        self.budget = replace(_CONCRETE_BUDGET, max_steps=self.max_steps)
        super().__post_init__()
        for statement in self.module.module_statements:
            self._entered(self._execute, statement, self._globals)

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
        return self._entered(self._call_procedure, procedure, list(args))

    def global_value(self, name: str) -> object:
        value = self._globals.get(name.lower(), _MISSING)
        if value is _MISSING:
            raise VBARuntimeError(f"no global {name!r}")
        return value

    @staticmethod
    def _entered(run, *args: object) -> object:
        """``run(*args)``, with the walker's aborts as VBA runtime errors."""
        try:
            return run(*args)
        except _BudgetExhausted:
            raise VBARuntimeError("step budget exceeded") from None
        except _ExitSignal as signal:
            raise VBARuntimeError(f"Exit {signal.kind} outside a procedure") from None
        except RecursionError:
            raise VBARuntimeError("call stack too deep") from None

    # ------------------------------------------------------------------
    # Walker hooks

    def _widen(self, reason: str | Exception, line: int) -> object:
        if isinstance(reason, VBARuntimeError):
            raise reason
        raise VBARuntimeError(str(reason), line)

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

    def _exec_host(self, expression: ast.Expression, env: dict[str, object]) -> None:
        # Resolve it if a host value is registered; otherwise the host
        # statement is an inert side effect.
        try:
            self._eval(expression, env)
        except VBARuntimeError:
            pass


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
