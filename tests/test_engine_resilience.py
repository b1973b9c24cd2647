"""Engine graceful degradation: crash isolation and budgets.

The acceptance behaviour for the robustness work: a checker whose
action raises mid-path costs only its own (checker, function) pair —
everything else still reports — and a budget turns "hangs forever" into
"partial results, marked degraded".
"""

import time

import pytest

from repro.checkers.base import (
    Checker,
    CheckerOrigin,
    CheckerResult,
    register_pack_checker,
    run_all,
    unregister_pack_checker,
)
from repro.lang import annotate
from repro.lang.parser import parse
from repro.metal.runtime import ReportSink
from repro.metal.sm import StateMachine
from repro.mc import (
    Budget,
    Quarantine,
    check_unit,
    find_unguarded,
    format_sink,
    is_call_to,
    quarantining,
    run_machine,
)
from repro.mc.resilience import _TIME_CHECK_INTERVAL
from repro.cfg import build_cfg
from repro.mc.parallel import check_files
from repro.project import Program, program_from_source, read_sources


def build_unit(src):
    unit = parse(src)
    annotate(unit)
    return unit


SRC = """
void bad(void) { use(1); }
void also_bad(void) { use(2); }
void fine(void) { open(1); use(1); }
"""


def reporting_machine():
    """use() before open() is an error."""
    sm = StateMachine("resil")
    sm.decl("any", "x")
    sm.state("start")
    sm.add_rule("start", "open(x)", target="opened")
    sm.state("opened")
    sm.add_rule("start", "use(x)",
                action=lambda ctx: ctx.err("use before open"))
    return sm


def crashing_machine(boom_in: str = "bad"):
    """Raises only inside the named function; reports elsewhere."""
    sm = StateMachine("crashy")
    sm.decl("any", "x")
    sm.state("start")

    def action(ctx):
        if ctx.function_name == boom_in:
            raise RuntimeError("checker bug!")
        ctx.err("use before open")
    sm.add_rule("start", "open(x)", target="opened")
    sm.state("opened")
    sm.add_rule("start", "use(x)", action=action)
    return sm


class TestCrashIsolation:
    def test_crash_propagates_without_keep_going(self):
        unit = build_unit(SRC)
        with pytest.raises(RuntimeError):
            check_unit(crashing_machine(), unit)

    def test_quarantine_isolates_the_pair(self):
        unit = build_unit(SRC)
        sink = check_unit(crashing_machine(), unit, keep_going=True)
        # "bad" is quarantined; "also_bad" still reports its bug.
        assert len(sink.quarantines) == 1
        q = sink.quarantines[0]
        assert (q.checker, q.function) == ("crashy", "bad")
        assert q.error_type == "RuntimeError"
        assert [r.function for r in sink.reports] == ["also_bad"]
        assert sink.degraded

    def test_quarantine_deduplicates(self):
        sink = ReportSink()
        q = Quarantine("c", "f", "path-walk", "ValueError", "x")
        assert sink.add_quarantine(q)
        assert not sink.add_quarantine(q)
        assert len(sink.quarantines) == 1

    def test_run_machine_isolate_flag(self):
        unit = build_unit("void bad(void) { use(1); }")
        sink = ReportSink()
        run_machine(crashing_machine(), build_cfg(unit.function("bad")),
                    sink, isolate=True)
        assert len(sink.quarantines) == 1

    def test_format_sink_renders_quarantine_and_degraded(self):
        unit = build_unit(SRC)
        sink = check_unit(crashing_machine(), unit, keep_going=True)
        text = format_sink(sink)
        assert "quarantined [crashy] bad" in text
        assert "DEGRADED" in text

    def test_first_call_crash_stays_quarantined(self):
        # An action that fails only on its first call: nothing re-runs
        # the pair, so it stays quarantined and reports nothing.
        unit = build_unit("void once(void) { use(1); }")
        calls = {"n": 0}

        sm = StateMachine("flaky")
        sm.decl("any", "x")
        sm.state("start")

        def action(ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            ctx.err("use before open")
        sm.add_rule("start", "use(x)", action=action)

        sink = check_unit(sm, unit, keep_going=True)
        assert [(q.function, q.phase) for q in sink.quarantines] == [
            ("once", "path-walk")]
        assert calls["n"] == 1
        assert sink.reports == []
        assert sink.degraded
        assert not any("recovered" in n for n in sink.degradation_notes)


class TestBudgets:
    def test_exhausted_budget_under_keep_going(self):
        unit = build_unit("void bad(void) { use(1); }\n"
                          "void bad2(void) { use(2); }")
        budget = Budget(max_steps=1)
        sink = check_unit(crashing_machine("never"), unit,
                          keep_going=True, budget=budget)
        # Budget died before any crash; no quarantines, but degraded.
        assert budget.exhausted
        assert sink.quarantines == []
        assert sink.degraded

    def test_step_budget_stops_exploration(self):
        unit = build_unit(SRC)
        budget = Budget(max_steps=3)
        sink = check_unit(reporting_machine(), unit, budget=budget)
        assert budget.exhausted_by == "steps"
        assert sink.degraded
        assert any("budget exhausted" in n for n in sink.degradation_notes)

    def test_unlimited_budget_changes_nothing(self):
        unit = build_unit(SRC)
        plain = check_unit(reporting_machine(), unit)
        budgeted = check_unit(reporting_machine(), unit, budget=Budget())
        assert len(plain) == len(budgeted) == 2
        assert not budgeted.degraded

    def test_time_budget(self):
        # The clock is read once every _TIME_CHECK_INTERVAL steps.
        budget = Budget(max_seconds=0.0)
        budget.start_clock()
        assert all(budget.charge_step()
                   for _ in range(_TIME_CHECK_INTERVAL - 1))
        assert budget.charge_step() is False
        assert budget.exhausted_by == "time"
        assert budget.note() == (
            f"budget exhausted by time (limit 0.0, charged "
            f"{_TIME_CHECK_INTERVAL} steps)")

    def test_budget_is_shared_across_units(self):
        unit = build_unit(SRC)
        budget = Budget(max_steps=1000)
        check_unit(reporting_machine(), unit, budget=budget)
        first = budget.steps
        check_unit(reporting_machine(), unit, budget=budget)
        assert budget.steps > first


class TestFlowcheckQuarantine:
    def test_raising_predicate_is_quarantined(self):
        unit = build_unit("void f(void) { use(1); wait(1); }")
        cfg = build_cfg(unit.function("f"))

        def bomb(node):
            raise ValueError("predicate bug")

        sink = ReportSink()
        wrapped = quarantining(bomb, sink, "flowcheck", "f")
        found = find_unguarded(cfg, wrapped, is_call_to("wait"))
        assert found == []
        assert len(sink.quarantines) == 1
        assert sink.quarantines[0].phase == "flow-search"

    def test_healthy_predicate_untouched(self):
        unit = build_unit("void f(void) { use(1); }")
        cfg = build_cfg(unit.function("f"))
        sink = ReportSink()
        wrapped = quarantining(is_call_to("use"), sink, "flowcheck", "f")
        found = find_unguarded(cfg, wrapped, is_call_to("wait"))
        assert len(found) == 1
        assert sink.quarantines == []


class _BoomChecker(Checker):
    name = "boom"
    metal_loc = 0

    def check(self, program) -> CheckerResult:
        raise RuntimeError("deliberately broken checker")


class TestCheckerLevelIsolation:
    def test_run_all_keep_going_quarantines_crashing_checker(self,
                                                             monkeypatch):
        from repro.checkers import base as checkers_base
        monkeypatch.setitem(checkers_base._REGISTRY, "boom", _BoomChecker)
        program = program_from_source("""
void h(void) {
    SWHANDLER_PROLOGUE();
    unsigned v;
    v = MISCBUS_READ_DB(0, 0);
    return;
}
""")
        with pytest.raises(RuntimeError):
            run_all(program)
        results = run_all(program, keep_going=True)
        boom = results["boom"]
        assert boom.degraded
        assert len(boom.quarantines) == 1
        assert boom.quarantines[0].phase == "checker"
        # every other checker still ran and the seeded race is reported
        others = [r for name, r in results.items() if name != "boom"]
        assert all(not r.quarantines for r in others)
        assert any(r.reports for r in others)


def _degradation(results):
    """Everything a result records about work that did not complete."""
    return {
        name: (result.degraded,
               [(q.checker, q.function, q.phase, q.error_type, q.message)
                for q in result.quarantines],
               result.degradation_notes)
        for name, result in results.items()
    }


@pytest.mark.parametrize("case", ["builtin-keep-going", "pack", "deadline"])
def test_one_crash_policy_across_drivers(case, tmp_path, monkeypatch):
    # run_all and the fleet's checker items share one crash policy:
    # a raising builtin under keep_going, a raising pack checker without
    # it, and a passed deadline give the same records from every driver.
    from repro.checkers import base as checkers_base
    source = tmp_path / "h.c"
    source.write_text("void h(void) { SUBROUTINE_PROLOGUE(); return; }\n")
    path = str(source)
    if case == "pack":
        register_pack_checker(_BoomChecker, CheckerOrigin("boom", "1.0"))
    else:
        monkeypatch.setitem(checkers_base._REGISTRY, "boom", _BoomChecker)
    keep_going = case == "builtin-keep-going"
    deadline = time.time() - 1 if case == "deadline" else None
    names = ["boom", "buffer-race"]
    try:
        serial = run_all(Program(read_sources([path])), names,
                         keep_going=keep_going, deadline=deadline)
        fleets = [check_files([path], names=names, jobs=jobs,
                              keep_going=keep_going, deadline=deadline)
                  for jobs in (1, 2)]
    finally:
        unregister_pack_checker("boom")
    expected = _degradation(serial)
    for run in fleets:
        assert _degradation(run.results) == expected
    degraded, quarantines, notes = expected["boom"]
    assert degraded
    if case == "deadline":
        assert quarantines == []
        assert notes == [f"[boom] {path}: not analysed — run deadline "
                         f"exceeded"]
        assert expected["buffer-race"][2] == [
            f"[buffer-race] {path}: not analysed — run deadline exceeded"]
    else:
        phase = "pack" if case == "pack" else "checker"
        assert quarantines == [("boom", "*", phase, "RuntimeError",
                                "deliberately broken checker")]
        assert notes == []
        assert expected["buffer-race"] == (False, [], [])
