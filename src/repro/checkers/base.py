"""Checker framework: result model, base class, and registry.

Each checker corresponds to one section of the paper and produces a
:class:`CheckerResult`: the diagnostics it emitted, how many times the
check was *applied* (the "Applied" columns of Tables 2, 3 and 6), and any
annotation sites it honoured (Table 4 counts these).  Classifying
diagnostics into true errors / minor violations / false positives is the
benchmark layer's job — the paper's authors did that by hand; we do it
against the code generator's ground-truth manifest.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Type

from ..lang.source import Location
from ..metal.runtime import Report, ReportSink
from ..project import Program


@dataclass
class CheckerResult:
    """Everything one checker produced over one program."""

    checker: str
    reports: list[Report] = field(default_factory=list)
    #: How many program points the check examined (paper's "Applied").
    applied: int = 0
    #: Annotation calls (``has_buffer``/``no_free_needed``/...) honoured.
    annotations: list[Location] = field(default_factory=list)
    #: Checker-specific extras (e.g. Table 5's handler/variable counts).
    extra: dict = field(default_factory=dict)
    #: (checker, function) pairs this run had to isolate after a crash.
    quarantines: list = field(default_factory=list)
    #: True when the result is partial (quarantine or exhausted budget).
    degraded: bool = False
    #: Human-readable notes on what was cut short and why (engine
    #: degradation, skipped work past a run deadline, ...).
    degradation_notes: list[str] = field(default_factory=list)
    #: Per-report path provenance, keyed on (checker, message, location)
    #: — the trail ``mc-check explain`` renders (repro.obs.provenance).
    provenance: dict = field(default_factory=dict)
    #: (report, reason) pairs held back by the engine's report gate —
    #: e.g. reports whose path crossed a tolerant-frontend opaque
    #: region (``suppressed_by="opaque"``).
    suppressed: list = field(default_factory=list)

    @property
    def errors(self) -> list[Report]:
        return [r for r in self.reports if r.severity == "error"]

    @property
    def warnings(self) -> list[Report]:
        return [r for r in self.reports if r.severity == "warning"]

    def __repr__(self) -> str:
        return (f"<CheckerResult {self.checker}: {len(self.reports)} reports, "
                f"applied {self.applied}>")


class Checker(ABC):
    """Base class for all checkers.

    Subclasses set :attr:`name` and :attr:`metal_loc` (the size of the
    equivalent metal extension, reported in Table 7) and implement
    :meth:`check`.
    """

    #: Stable identifier, used in reports and benchmark tables.
    name: str = ""
    #: Lines of metal the paper's version of this checker took (Table 7).
    metal_loc: int = 0
    #: True when ``check`` over a single translation unit produces the
    #: same diagnostics as over the whole program (per-function
    #: analyses).  The parallel driver fans such checkers out one unit
    #: at a time; inter-procedural checkers (lanes, exec-restrict) set
    #: this False and run as one whole-program work item.
    unit_parallel: bool = True

    @abstractmethod
    def check(self, program: Program) -> CheckerResult:
        """Run over ``program`` and return the result."""

    # -- shared helpers ------------------------------------------------------

    def _new_result(self) -> tuple[CheckerResult, ReportSink]:
        result = CheckerResult(checker=self.name)
        sink = ReportSink()
        return result, sink

    def _finish(self, result: CheckerResult, sink: ReportSink) -> CheckerResult:
        result.reports = sink.reports
        result.quarantines = list(getattr(sink, "quarantines", []))
        result.degraded = bool(getattr(sink, "degraded", False))
        result.degradation_notes = list(getattr(sink, "degradation_notes", []))
        result.provenance = dict(getattr(sink, "provenance", {}))
        result.suppressed = list(getattr(sink, "suppressed", []))
        return result


_REGISTRY: dict[str, Type[Checker]] = {}

#: The pseudo-pack every first-party checker belongs to.  The builtin
#: registry is "just the default pack": same origin shape, same
#: provenance surfaces (``mc-check checkers``, report JSON), but wired
#: in at import time rather than discovered from a ``pack.toml``.
BUILTIN_PACK = "builtin"


@dataclass(frozen=True)
class CheckerOrigin:
    """Where a registered checker came from: which pack, which version.

    Folded into cache/journal keys (:func:`repro.mc.cache.checker_fingerprint`)
    and report provenance, so bumping a pack's version invalidates
    exactly that pack's entries and every diagnostic can be attributed
    to the pack that produced it.
    """

    pack: str
    version: str
    #: The implementation file (Python module or ``.metal`` program)
    #: the checker was loaded from; empty for builtins (their source is
    #: located through the class itself).
    source: str = ""

    @property
    def builtin(self) -> bool:
        return self.pack == BUILTIN_PACK

    @property
    def label(self) -> str:
        return f"{self.pack}@{self.version}"


#: Checker name -> origin, for pack-provided checkers.  Builtins are
#: not stored: :func:`checker_origin` synthesizes their origin so the
#: builtin registry needs no load-time bookkeeping.
_ORIGINS: dict[str, CheckerOrigin] = {}


def _builtin_origin() -> CheckerOrigin:
    from .. import __version__
    return CheckerOrigin(pack=BUILTIN_PACK, version=__version__)


def checker_origin(name: str) -> CheckerOrigin:
    """The :class:`CheckerOrigin` of a registered checker.

    Builtins report the ``builtin`` pseudo-pack at the engine version;
    unknown names raise ``KeyError`` like :func:`get_checker`.
    """
    origin = _ORIGINS.get(name)
    if origin is not None:
        return origin
    if name not in _REGISTRY:
        raise KeyError(name)
    return _builtin_origin()


def is_pack_checker(name: str) -> bool:
    """True when ``name`` was provided by a loaded pack (not builtin)."""
    return name in _ORIGINS


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a name")
    _REGISTRY[cls.name] = cls
    return cls


def register_pack_checker(cls: Type[Checker],
                          origin: CheckerOrigin) -> Type[Checker]:
    """Register a pack-provided checker with its provenance.

    Name collisions — with a builtin or with another pack's checker —
    are structural load errors (:class:`repro.packs.PackError`): two
    checkers sharing a name would make reports, cache keys, and
    ``--checker`` selection ambiguous.
    """
    from ..packs.manifest import PackError
    if not cls.name:
        raise PackError(
            f"pack {origin.label}: checker class {cls.__name__} in "
            f"{origin.source or '<module>'} sets no name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        holder = _ORIGINS.get(cls.name)
        held_by = holder.label if holder is not None else "builtin"
        raise PackError(
            f"pack {origin.label}: checker name {cls.name!r} collides "
            f"with the one registered by {held_by}")
    _REGISTRY[cls.name] = cls
    _ORIGINS[cls.name] = origin
    from ..mc.cache import _CHECKER_FP
    _CHECKER_FP.pop(cls.name, None)
    return cls


def unregister_pack_checker(name: str) -> None:
    """Remove a pack checker (pack unload; tests).  Builtin names are
    never removable through this path."""
    if name in _ORIGINS:
        _ORIGINS.pop(name, None)
        _REGISTRY.pop(name, None)
        from ..mc.cache import _CHECKER_FP
        _CHECKER_FP.pop(name, None)


def checker_names() -> list[str]:
    return list(_REGISTRY)

def get_checker(name: str) -> Checker:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown checker {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, registration order."""
    return [cls() for cls in _REGISTRY.values()]


#: Why a checker past the run deadline has no result, in every driver.
DEADLINE_NOTE = "not analysed — run deadline exceeded"


def past_deadline(deadline: Optional[float]) -> bool:
    """Has the absolute ``time.time()`` run deadline passed?"""
    return deadline is not None and time.time() >= deadline


def skipped_result(name: str, where: str, note: str) -> CheckerResult:
    """A degraded, empty result for work on ``where`` that never ran."""
    result = CheckerResult(checker=name, degraded=True)
    result.degradation_notes.append(f"[{name}] {where}: {note}")
    return result


def run_checker(checker: Checker, program: Program, *,
                keep_going: bool = False,
                deadline: Optional[float] = None) -> CheckerResult:
    """Run one checker over ``program`` under the run's crash policy.

    The one policy both drivers share (:func:`run_all` and the fleet's
    checker items in :mod:`repro.mc.parallel`):

    * past ``deadline``, the checker is skipped with a degraded, noted
      result (partial results now beat complete results never);
    * a pack checker that raises is quarantined unconditionally —
      third-party code blowing up costs that pack's result, never the
      run;
    * a builtin that raises is quarantined under ``keep_going`` and
      propagates otherwise.

    A quarantined checker yields a degraded, otherwise-empty result.
    """
    if past_deadline(deadline):
        return skipped_result(checker.name, ", ".join(program.units),
                              DEADLINE_NOTE)
    try:
        return checker.check(program)
    except Exception as exc:
        from_pack = is_pack_checker(checker.name)
        if not keep_going and not from_pack:
            raise
        from ..mc.resilience import Quarantine
        result = CheckerResult(checker=checker.name, degraded=True)
        result.quarantines.append(Quarantine(
            checker=checker.name, function="*",
            phase="pack" if from_pack else "checker",
            error_type=type(exc).__name__, message=str(exc),
        ))
        return result


def run_all(program: Program,
            names: Optional[list[str]] = None, *,
            keep_going: bool = False,
            deadline: Optional[float] = None) -> dict[str, CheckerResult]:
    """Run the named checkers (default: all) over ``program``.

    Each checker runs through :func:`run_checker`: with ``keep_going``,
    one checker blowing up costs only that checker, and every other
    checker still reports — the engine analog of the simulator
    surviving a single handler's fault.  ``deadline`` is an absolute
    ``time.time()`` instant bounding the whole run; the parallel driver
    (:mod:`repro.mc.parallel`) shares the same deadline across every
    worker.
    """
    checkers = (
        [get_checker(n) for n in names] if names is not None else all_checkers()
    )
    return {
        checker.name: run_checker(checker, program, keep_going=keep_going,
                                  deadline=deadline)
        for checker in checkers
    }
