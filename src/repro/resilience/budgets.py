"""Per-document resource budgets enforced around each pipeline stage.

A :class:`Budget` bounds what one document may cost the engine:

* ``wall_clock_s`` — a *cooperative* per-document deadline.  The engine
  checks it between stages (two ``perf_counter`` reads per stage, so the
  default-on cost is unmeasurable); a document that overruns is marked
  degraded and its remaining stages are skipped.
* ``stage_timeout_s`` — a *hard* per-stage timeout.  When set, each stage
  runs on a watchdog thread and a stage that hangs (hostile input, chaos
  fault) is abandoned after the timeout.  Off by default: it costs one
  thread spawn per stage and is meant for untrusted-input deployments,
  pool workers, and the chaos harness.
* ``max_input_bytes`` — documents larger than this are refused before the
  first stage runs.
* ``max_macro_count`` / ``max_output_bytes`` — caps on what the stages may
  *produce*: surplus macros (or macros past the total source-character
  budget) are marked ``filtered="budget"`` and their sources dropped, so a
  decompression bomb inside a container cannot balloon the record.

Budgets degrade, never raise: every violation becomes a ``budget`` error
diagnostic plus the record's ``degraded`` marker, and bumps a ``budget.*``
counter in the metrics registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace


class StageTimeout(Exception):
    """A stage exceeded its hard per-stage timeout and was abandoned."""


@dataclass(frozen=True, slots=True)
class Budget:
    """Resource limits for analyzing one document.  ``None`` disables a limit."""

    #: cooperative per-document deadline, checked between stages (seconds)
    wall_clock_s: float | None = 30.0
    #: hard per-stage watchdog timeout (seconds); off by default
    stage_timeout_s: float | None = None
    #: refuse inputs larger than this before the first stage (bytes)
    max_input_bytes: int | None = 64 * 1024 * 1024
    #: cap on extracted/produced macros per document
    max_macro_count: int | None = 512
    #: cap on total macro source characters a document's stages may emit
    max_output_bytes: int | None = 16 * 1024 * 1024

    def clock(self) -> "BudgetClock":
        return BudgetClock(self)


#: The engine's default: size/volume caps on, cooperative deadline on,
#: hard stage watchdog off (opt in for untrusted-input deployments).
DEFAULT_BUDGET = Budget()

#: Untrusted-input preset: tighter deadlines, the hard per-stage watchdog
#: on, and quartered size/volume caps.  For mail gateways and sandboxes
#: where a hostile document hanging a worker costs more than a thread
#: spawn per stage.
STRICT_BUDGET = Budget(
    wall_clock_s=10.0,
    stage_timeout_s=5.0,
    max_input_bytes=16 * 1024 * 1024,
    max_macro_count=128,
    max_output_bytes=4 * 1024 * 1024,
)

#: Everything disabled — benchmarking and trusted-corpus runs only.
UNLIMITED_BUDGET = Budget(
    wall_clock_s=None,
    stage_timeout_s=None,
    max_input_bytes=None,
    max_macro_count=None,
    max_output_bytes=None,
)

#: Named presets behind the CLI ``--budget`` flag.
BUDGET_PRESETS: dict[str, Budget] = {
    "default": DEFAULT_BUDGET,
    "strict": STRICT_BUDGET,
    "off": UNLIMITED_BUDGET,
}


@dataclass(frozen=True, slots=True)
class SABudget:
    """Resource limits for one static-analysis pass (:mod:`repro.sa`).

    The abstract interpreter is *total*: when any limit trips it abandons
    precision (remaining work folds to ⊤), records ``budget_exhausted`` on
    the result, and returns whatever strings it had recovered — it never
    raises and never runs unbounded.
    """

    #: abstract-interpretation steps (statements + expression nodes evaluated)
    max_steps: int = 200_000
    #: concrete iterations a single loop may execute before it is havoced
    max_loop_iterations: int = 4_096
    #: bounded inlining depth for module-local Function calls
    max_call_depth: int = 8
    #: longest string value the domain will materialize (characters)
    max_string_length: int = 65_536
    #: cap on recovered strings reported per macro
    max_strings: int = 512
    #: recovered strings shorter than this are noise and dropped
    min_string_length: int = 4


#: The engine's default static-analysis budget.
DEFAULT_SA_BUDGET = SABudget()

#: Tight preset for untrusted feeds — pairs with :data:`STRICT_BUDGET`.
STRICT_SA_BUDGET = SABudget(
    max_steps=50_000,
    max_loop_iterations=1_024,
    max_call_depth=4,
    max_string_length=16_384,
    max_strings=256,
)

#: Patient preset for forensics runs where wall-clock does not matter.
DEEP_SA_BUDGET = SABudget(
    max_steps=2_000_000,
    max_loop_iterations=65_536,
    max_call_depth=16,
    max_string_length=1_048_576,
    max_strings=4_096,
)

#: Named presets behind the CLI ``--sa-budget`` flag.
SA_BUDGET_PRESETS: dict[str, SABudget] = {
    "default": DEFAULT_SA_BUDGET,
    "strict": STRICT_SA_BUDGET,
    "deep": DEEP_SA_BUDGET,
}


def clip_budget(budget: Budget, deadline_s: float) -> Budget:
    """The tighter of a standing budget and a per-request deadline.

    Serving front-ends carry an absolute deadline per request; the engine
    enforces it by analyzing the document under a budget whose wall clock
    is clipped to the seconds remaining.  Because
    :meth:`BudgetClock.stage_timeout` further clips the per-stage watchdog
    to the remaining wall clock, a request deadline shorter than a
    configured ``--stage-timeout`` wins automatically.  The watchdog is
    always armed under a deadline (a cooperative wall clock alone cannot
    interrupt a hung stage, and "408 on expiry" is a promise).
    """
    deadline_s = max(0.001, deadline_s)
    stage = budget.stage_timeout_s
    stage = deadline_s if stage is None else min(stage, deadline_s)
    wall = budget.wall_clock_s
    wall = deadline_s if wall is None else min(wall, deadline_s)
    if wall == budget.wall_clock_s and stage == budget.stage_timeout_s:
        return budget
    return replace(budget, wall_clock_s=wall, stage_timeout_s=stage)


class BudgetClock:
    """One document's countdown against its budget's wall clock."""

    __slots__ = ("budget", "started_at")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.started_at = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    def expired(self) -> bool:
        limit = self.budget.wall_clock_s
        return limit is not None and self.elapsed() > limit

    def stage_timeout(self) -> float | None:
        """The hard timeout for the next stage: the per-stage cap, further
        clipped to whatever wall-clock budget remains."""
        stage = self.budget.stage_timeout_s
        if stage is None:
            return None
        wall = self.budget.wall_clock_s
        if wall is None:
            return stage
        return max(0.001, min(stage, wall - self.elapsed()))


def call_with_timeout(fn, timeout: float):
    """Run ``fn()`` on a daemon watchdog thread, waiting ``timeout`` seconds.

    Returns ``fn``'s result, re-raises its exception, or raises
    :class:`StageTimeout` when the deadline passes first.  On timeout the
    thread is *abandoned*, not killed — Python offers no safe preemption —
    so callers must stop trusting (and stop mutating alongside) whatever
    state the runaway callable was working on.
    """
    outcome: list = [None, None]  # [result, exception]
    done = threading.Event()

    def target() -> None:
        try:
            outcome[0] = fn()
        except BaseException as error:  # noqa: BLE001 - ferried to the caller
            outcome[1] = error
        finally:
            done.set()

    worker = threading.Thread(target=target, daemon=True, name="stage-watchdog")
    worker.start()
    if not done.wait(timeout):
        raise StageTimeout(f"no result within {timeout:.3f}s")
    if outcome[1] is not None:
        raise outcome[1]
    return outcome[0]
