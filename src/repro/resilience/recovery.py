"""Worker-failure policy: capped retries, then quarantine — per task.

A multi-task process pool fails collectively: one worker dying mid-task
(a segfaulting parser, an ``os._exit``, the OOM killer) breaks the whole
pool and every task in flight with it, and the pool cannot say *which*
task killed it.  The streaming engine (:mod:`repro.engine.stream`)
removes the ambiguity structurally: each worker slot is one process fed
over its own pipe with at most one task in flight, so a dead worker
indicts exactly the task it was holding (the quarantine reason still
reads ``BrokenProcessPool: …``) — no bisection is needed, and what
remains of recovery is pure *policy*:

* a blamed task is retried up to :attr:`RetryPolicy.max_attempts` times
  with capped exponential backoff (transient failures — OOM pressure, a
  flaky sandbox — get their chance);
* when retries are exhausted the input is **quarantined**: the stream
  keeps its one-record-per-input contract with a
  :func:`~repro.resilience.quarantine.quarantine_record` in that
  position;
* only the dead worker slot is rebuilt; surviving workers stay warm.

Telemetry (unchanged names from PR 4): ``resilience.pool_failures`` /
``resilience.retries`` / ``resilience.quarantined`` counters, a
``pool.recover`` span around each slot rebuild, and a ``quarantine`` span
(outcome ``error``) per quarantined document.  ``resilience.bisections``
is structurally zero now and kept only so dashboards watching it read 0
rather than disappearing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: Monkeypatchable sleep so tests exercise backoff without waiting it out.
_sleep = time.sleep


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How hard the pool tries before quarantining a blamed input."""

    #: total attempts for a blamed task (first run + retries)
    max_attempts: int = 3
    #: backoff before retry ``k`` is ``min(cap, base * 2**k)`` seconds
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0

    def backoff(self, attempt: int) -> float:
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0**attempt))


DEFAULT_RETRY = RetryPolicy()
