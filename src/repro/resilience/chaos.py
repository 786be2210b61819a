"""Fault injection: a chaos stage that misbehaves on schedule.

The resilience machinery is only trustworthy if the failure paths run on
every CI push, not just when an attacker finds them.  A :class:`FaultPlan`
names which documents fail and how; a :class:`ChaosStage` spliced into the
engine's stage chain (``AnalysisEngine(chaos=plan)`` or the hidden
``--chaos`` CLI flag) triggers the matching fault:

========  ==============================================================
kind      behavior when a document's ``source_id`` matches
========  ==============================================================
raise     raise :class:`ChaosError` (exercises graceful degradation)
hang      sleep ``hang_s`` seconds (exercises the stage watchdog)
oversize  emit a macro of ``oversize_bytes`` chars (exercises output caps)
exit      ``os._exit(86)`` in a pool worker (exercises dead-worker
          recovery: the task is blamed as ``BrokenProcessPool``);
          downgraded to ``raise`` in the parent process so an
          in-process run degrades instead of killing the CLI
========  ==============================================================

Plans are frozen and picklable, so they travel to pool workers with the
engine — which is exactly how the ``exit`` fault lands inside a worker.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.engine.records import DocumentRecord, MacroRecord
from repro.engine.stages import Stage

FAULT_KINDS = ("raise", "hang", "oversize", "exit")

#: The status a chaos-killed worker dies with (visible in pool post-mortems).
EXIT_STATUS = 86


class ChaosError(RuntimeError):
    """The injected stage failure."""


@dataclass(frozen=True, slots=True)
class Fault:
    """One scheduled failure: ``kind`` fires when ``match`` is a substring
    of the document's ``source_id``."""

    kind: str
    match: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if not self.match:
            raise ValueError("fault match pattern must be non-empty")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A deterministic set of faults plus their tuning knobs."""

    faults: tuple[Fault, ...]
    hang_s: float = 60.0
    oversize_bytes: int = 32 * 1024 * 1024

    @classmethod
    def parse(cls, spec: str, **knobs) -> "FaultPlan":
        """Build a plan from ``kind:pattern[,kind:pattern...]``.

        Example: ``hang:doc_007,exit:doc_013`` hangs any document whose id
        contains ``doc_007`` and kills the worker analyzing ``doc_013``.
        """
        faults = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            kind, separator, match = entry.partition(":")
            if not separator:
                raise ValueError(
                    f"bad fault entry {entry!r}; expected kind:pattern"
                )
            faults.append(Fault(kind=kind.strip(), match=match.strip()))
        if not faults:
            raise ValueError("empty fault plan")
        return cls(faults=tuple(faults), **knobs)

    def fault_for(self, source_id: str) -> Fault | None:
        for fault in self.faults:
            if fault.match in source_id:
                return fault
        return None


class ChaosStage(Stage):
    """The saboteur stage: runs right after extraction, fails on plan."""

    name = "chaos"

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def process(self, document: DocumentRecord) -> None:
        fault = self.plan.fault_for(document.source_id)
        if fault is None:
            return
        kind = fault.kind
        if kind == "exit" and multiprocessing.parent_process() is None:
            # In the parent process an os._exit would take the whole CLI
            # down; degrade to a stage failure so the run stays total.
            kind = "raise"
        if kind == "raise":
            raise ChaosError(f"injected failure for {fault.match!r}")
        if kind == "hang":
            deadline = time.perf_counter() + self.plan.hang_s
            while time.perf_counter() < deadline:
                time.sleep(min(0.05, self.plan.hang_s))
            raise ChaosError(f"hang for {fault.match!r} outlived its budget")
        if kind == "oversize":
            document.macros.append(
                MacroRecord(
                    module_name="ChaosOversize",
                    source="A" * self.plan.oversize_bytes,
                    sha256="0" * 64,  # skip hashing the flood
                )
            )
            return
        if kind == "exit":
            os._exit(EXIT_STATUS)
