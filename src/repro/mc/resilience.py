"""Graceful degradation for the analysis engine: budgets and quarantine.

The ROADMAP goal is running the checkers at production scale over many
protocols; at that scale two failure modes matter that a research
prototype can ignore:

- **a misbehaving checker**: one action that raises must not kill the
  whole run.  The engine isolates the crash to its (checker, function)
  pair and records a structured :class:`Quarantine` diagnostic; every
  other pair still reports (the XCheck-style "tolerate partial input"
  posture, arXiv:2112.08010).
- **a pathological input**: a function whose path space blows past what
  the state cache can tame must not hang the run.  A :class:`Budget`
  bounds machine steps and wall time; when it runs
  out the engine stops *that* exploration, keeps everything found so
  far, and marks the result ``degraded`` (bounded exploration in the
  Abe et al. sense, arXiv:1608.05893).

Both are pure data here; the enforcement lives in
:mod:`repro.mc.engine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

#: How many charged steps pass between wall-clock checks (monotonic()
#: per step would dominate the engine's hot loop).
_TIME_CHECK_INTERVAL = 1024


@dataclass
class Budget:
    """A spending limit shared by every (checker, function) pair of a run.

    ``None`` limits are unlimited.  Charging returns ``False`` once the
    budget is gone; the engine then abandons the current exploration and
    marks its sink degraded.  One Budget can be threaded through many
    ``check_unit`` calls so the limit covers the whole analysis.
    """

    max_steps: Optional[int] = None
    max_seconds: Optional[float] = None
    steps: int = 0
    exhausted_by: Optional[str] = None
    _deadline: Optional[float] = field(default=None, repr=False)

    def start_clock(self) -> None:
        """Arm the wall-clock limit; the first caller wins."""
        if self.max_seconds is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.max_seconds

    @property
    def exhausted(self) -> bool:
        return self.exhausted_by is not None

    def charge_step(self) -> bool:
        """Account one machine step; False when the budget is spent."""
        if self.exhausted_by is not None:
            return False
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            self.exhausted_by = "steps"
            return False
        if (self._deadline is not None
                and self.steps % _TIME_CHECK_INTERVAL == 0
                and time.monotonic() > self._deadline):
            self.exhausted_by = "time"
            return False
        return True

    def note(self) -> str:
        limit = {
            "steps": self.max_steps,
            "time": self.max_seconds,
        }.get(self.exhausted_by or "")
        return (f"budget exhausted by {self.exhausted_by} "
                f"(limit {limit}, charged {self.steps} steps)")


@dataclass(frozen=True)
class Quarantine:
    """One (checker, function) pair removed from the run after a crash.

    ``phase`` says *where* the failure happened: an analysis phase
    (``"cfg-build"`` | ``"path-walk"`` | ``"flow-search"`` |
    ``"checker"``), the fleet's own machinery (``"worker"`` — the item
    was poison-quarantined after exhausting the supervisor's retries),
    or the input itself (``"input"`` — a source file vanished or became
    unreadable between dispatch and execution).
    """

    checker: str
    function: str
    phase: str
    error_type: str
    message: str

    def __str__(self) -> str:
        return (f"quarantined [{self.checker}] {self.function} "
                f"during {self.phase}: {self.error_type}: {self.message}")
