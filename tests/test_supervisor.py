"""The supervision layer: watchdog, retry, quarantine, journal, resume.

The contract under test, end to end:

- a worker crash (process death, not an exception) is retried with
  backoff and the final report is byte-identical to a fault-free run;
- an item that keeps killing its worker is poison-quarantined as
  ``Quarantine(phase="worker")`` and the run continues (exit 2, like
  any quarantine);
- a hung worker is killed by the per-item watchdog and the item
  retried;
- an interrupted run (SIGTERM, or the ``stop_after_items`` test hook)
  flushes a partial report, exits 130, and ``--resume RUN-ID`` replays
  the journal so the finished report is byte-identical to an
  uninterrupted run;
- an input file deleted between dispatch and execution becomes a
  per-item ``phase="input"`` quarantine, not a worker crash;
- a corrupt cache entry is deleted, counted, and treated as a miss.

Worker faults are injected with the same declarative
:class:`~repro.faults.plan.FaultPlan` machinery the simulator uses
(sites ``worker_crash``/``worker_hang``/``worker_slow``), so every
scenario is seeded and repeatable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.faults import FaultPlan, FaultRule
from repro.faults.worker import WorkerFaultInjector
from repro.mc import (
    ResultCache,
    RunJournal,
    StopFlag,
    SupervisorPolicy,
    check_files,
    format_reports,
    metal_files,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

FILE_A = """
void HandlerA(void) {
    SUBROUTINE_PROLOGUE();
    unsigned v;
    v = MISCBUS_READ_DB(0, 0);
    DB_FREE();
    return;
}
"""

FILE_B = """
void HandlerB(void) {
    SUBROUTINE_PROLOGUE();
    unsigned addr;
    addr = HANDLER_GLOBALS(header.nh.addr);
    WAIT_FOR_DB_FULL(addr);
    HANDLER_GLOBALS(dirEntry) = DIR_LOAD(addr);
    return;
}
"""


#: Clean for every checker: no buffer traffic at all.  The CLI tests
#: that pin exit 0 use these.
CLEAN_A = """
void UtilA(void) {
    SUBROUTINE_PROLOGUE();
    unsigned a;
    a = 1 + 2;
    return;
}
"""

CLEAN_B = """
void UtilB(void) {
    SUBROUTINE_PROLOGUE();
    unsigned b;
    b = 40 + 2;
    return;
}
"""


@pytest.fixture
def two_files(tmp_path):
    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text(FILE_A)
    b.write_text(FILE_B)
    return [str(a), str(b)]


@pytest.fixture
def clean_files(tmp_path):
    a = tmp_path / "clean_a.c"
    b = tmp_path / "clean_b.c"
    a.write_text(CLEAN_A)
    b.write_text(CLEAN_B)
    return [str(a), str(b)]


def _formatted(results):
    return "\n".join(
        format_reports(result.reports, heading=name)
        for name, result in results.items()
    )


def crash_plan(**kwargs):
    return FaultPlan(rules=(FaultRule(site="worker_crash", **kwargs),))


class TestWorkerFaultInjector:
    def test_selection_is_a_pure_function_of_item_and_attempt(self):
        plan = crash_plan(after=1, every=2, count=2)
        inj = WorkerFaultInjector(plan)
        fired = [i for i in range(10) if inj.rule_for(i, 0) is not None]
        assert fired == [1, 3]                       # after=1, every=2, count=2
        assert inj.rule_for(1, 1) is None            # attempts defaults to 1
        again = WorkerFaultInjector(plan)
        assert [i for i in range(10) if again.rule_for(i, 0)] == fired

    def test_attempts_field_covers_retries(self):
        inj = WorkerFaultInjector(crash_plan(count=1, attempts=3))
        assert all(inj.rule_for(0, a) is not None for a in range(3))
        assert inj.rule_for(0, 3) is None

    def test_handler_narrows_by_checker_name(self):
        plan = FaultPlan(rules=(
            FaultRule(site="worker_crash", handler="buffer-race"),))
        inj = WorkerFaultInjector(plan)
        assert inj.rule_for(0, 0, checker="buffer-race") is not None
        assert inj.rule_for(0, 0, checker="msg-length") is None

    def test_sim_rules_are_ignored(self):
        inj = WorkerFaultInjector(
            FaultPlan(rules=(FaultRule(site="alloc_fail"),)))
        assert inj.rule_for(0, 0) is None

    def test_worker_rule_validation(self):
        from repro.errors import FaultPlanError
        with pytest.raises(FaultPlanError):
            FaultRule(site="worker_crash", attempts=0)
        with pytest.raises(FaultPlanError):
            FaultRule(site="worker_slow", seconds=-1.0)


class TestCrashRetry:
    def test_crashes_are_retried_and_report_is_identical(self, two_files):
        baseline = check_files(two_files, jobs=2)
        plan = crash_plan(after=0, every=2, count=3)
        run = check_files(two_files, jobs=2,
                          policy=SupervisorPolicy(fault_plan=plan))
        assert run.supervision.crashes == 3
        assert run.supervision.retried == 3
        assert run.supervision.quarantined == 0
        assert _formatted(run.results) == _formatted(baseline.results)
        assert not any(r.degraded for r in run.results.values())
        assert "3 crash(es)" in run.summary_line()

    def test_persistent_crasher_is_poison_quarantined(self, two_files):
        # attempts far past max_retries: the item can never succeed.
        plan = crash_plan(count=1, attempts=10)
        run = check_files(two_files, jobs=2,
                          policy=SupervisorPolicy(fault_plan=plan))
        assert run.supervision.quarantined == 1
        quarantines = [q for r in run.results.values()
                       for q in r.quarantines]
        assert len(quarantines) == 1
        assert quarantines[0].phase == "worker"
        assert quarantines[0].error_type == "WorkerCrash"
        # the rest of the run survived the poison item
        degraded = [n for r in run.results.values() if r.degraded for n in [r]]
        assert len(degraded) == 1

    def test_hang_is_killed_by_watchdog_and_retried(self, two_files):
        baseline = check_files(two_files, jobs=2)
        plan = FaultPlan(rules=(
            FaultRule(site="worker_hang", count=1, seconds=60.0),))
        run = check_files(
            two_files, jobs=2,
            policy=SupervisorPolicy(fault_plan=plan, item_timeout=0.7))
        assert run.supervision.timeouts == 1
        assert run.supervision.retried == 1
        assert _formatted(run.results) == _formatted(baseline.results)

    def test_inline_runs_never_inject_worker_faults(self, two_files):
        # jobs=1 executes in the parent; a worker_crash there would
        # take down the whole process.  The plan must be inert.
        plan = crash_plan(after=0, every=1, attempts=10)
        run = check_files(two_files, jobs=1,
                          policy=SupervisorPolicy(fault_plan=plan))
        assert run.supervision.crashes == 0
        assert not any(r.degraded for r in run.results.values())


class TestInputQuarantine:
    def test_deleted_file_is_an_input_quarantine_not_a_crash(
            self, two_files, monkeypatch):
        # Delete a unit between dispatch and execution by intercepting
        # the worker-side read (the inline path uses the same code).
        import repro.mc.parallel as parallel_mod

        real = parallel_mod._execute_item_plain

        def sabotage(item, config, shared_budget=None):
            if item.paths == (two_files[1],):
                os.unlink(two_files[1])
            return real(item, config, shared_budget)

        monkeypatch.setattr(parallel_mod, "_execute_item_plain", sabotage)
        run = check_files(two_files, jobs=1, names=["buffer-race"])
        result = run.results["buffer-race"]
        assert result.quarantines
        assert all(q.phase == "input" for q in result.quarantines)
        assert result.degraded

    def test_missing_file_up_front_is_a_clean_error(self, tmp_path):
        with pytest.raises(ReproError):
            check_files([str(tmp_path / "gone.c")])


class TestJournalAndResume:
    def test_interrupt_then_resume_is_byte_identical(self, two_files,
                                                     tmp_path):
        baseline = check_files(two_files, jobs=2)
        runs = tmp_path / "runs"
        journal = RunJournal.create(runs)
        first = check_files(
            two_files, jobs=2, journal=journal,
            policy=SupervisorPolicy(stop_after_items=3))
        journal.close()
        assert first.interrupted
        assert first.run_id == journal.run_id
        skipped = [n for r in first.results.values()
                   for n in r.degradation_notes]
        assert any("interrupted" in n for n in skipped)

        resumed_journal = RunJournal.resume(runs, journal.run_id)
        second = check_files(two_files, jobs=2, journal=resumed_journal)
        resumed_journal.close()
        assert not second.interrupted
        assert second.supervision.replayed >= 1
        assert _formatted(second.results) == _formatted(baseline.results)
        for name in baseline.results:
            assert (second.results[name].applied
                    == baseline.results[name].applied)

    def test_stop_flag_interrupts_serial_runs_too(self, two_files):
        flag = StopFlag()
        flag.request("test stop")
        run = check_files(two_files, jobs=1,
                          policy=SupervisorPolicy(stop_flag=flag))
        assert run.interrupted
        assert run.supervision.stop_reason == "test stop"

    def test_journal_tolerates_truncated_tail(self, two_files, tmp_path):
        runs = tmp_path / "runs"
        journal = RunJournal.create(runs)
        check_files(two_files, jobs=1, journal=journal)
        journal.close()
        path = runs / f"{journal.run_id}.jsonl"
        # simulate a kill mid-append: chop the last record in half
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        resumed = RunJournal.resume(runs, journal.run_id)
        second = check_files(two_files, jobs=1, journal=resumed)
        resumed.close()
        baseline = check_files(two_files, jobs=1)
        assert second.supervision.replayed >= 1
        assert _formatted(second.results) == _formatted(baseline.results)

    def test_resume_unknown_run_id_raises(self, tmp_path):
        with pytest.raises(ReproError):
            RunJournal.resume(tmp_path / "runs", "nope")

    def test_journal_never_records_degraded_payloads(self, two_files,
                                                     tmp_path):
        runs = tmp_path / "runs"
        journal = RunJournal.create(runs)
        check_files(two_files, jobs=1, journal=journal,
                    deadline=time.time() - 1.0)
        journal.close()
        lines = (runs / f"{journal.run_id}.jsonl").read_text().splitlines()
        assert len(lines) == 1  # header only: nothing completed cleanly

    def test_editing_a_file_invalidates_its_journal_entries(
            self, two_files, tmp_path):
        runs = tmp_path / "runs"
        journal = RunJournal.create(runs)
        check_files(two_files, jobs=1, journal=journal)
        journal.close()
        Path(two_files[0]).write_text(FILE_A + "\nvoid extra(void) {}\n")
        resumed = RunJournal.resume(runs, journal.run_id)
        run = check_files(two_files, jobs=1, journal=resumed)
        resumed.close()
        # entries for the edited unit no longer match any key; the
        # untouched unit still replays
        total_items = run.supervision.replayed + run.supervision.completed
        assert run.supervision.replayed > 0
        assert run.supervision.completed > 0
        assert run.supervision.replayed < total_items

    def test_serial_step_budgeted_metal_disables_journal(self, two_files,
                                                         tmp_path):
        from repro.checkers.metal_sources import FIGURE_2
        metal = tmp_path / "wait.metal"
        metal.write_text(FIGURE_2)
        runs = tmp_path / "runs"
        journal = RunJournal.create(runs)
        run = metal_files(str(metal), two_files, jobs=1, budget_steps=10**6,
                          journal=journal)
        journal.close()
        assert run.run_id is None  # journal was dropped, run not resumable
        lines = (runs / f"{journal.run_id}.jsonl").read_text().splitlines()
        assert len(lines) == 1


class TestCacheHardening:
    def test_corrupt_entry_is_deleted_and_counted(self, two_files, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        check_files(two_files, cache=cache)
        victim = next(cache.root.rglob("*.json"))
        victim.write_text('{"schema": 1, "truncated')
        second = ResultCache(cache.root)
        run = check_files(two_files, cache=second)
        assert second.stats.corrupt == 1
        assert second.stats.misses == 1
        # the bad entry was deleted, then re-stored from the recompute:
        # what's on disk now parses cleanly
        json.loads(victim.read_text())
        assert "1 corrupt" in run.summary_line()
        # the recomputed entry was re-stored; a third run is all hits
        third = ResultCache(cache.root)
        check_files(two_files, cache=third)
        assert third.stats.misses == 0 and third.stats.corrupt == 0

    def test_clean_stats_line_is_unchanged(self):
        from repro.mc.cache import CacheStats
        stats = CacheStats(hits=3, misses=2)
        assert stats.line() == "cache: 3 hit(s), 2 miss(es)"


def _run_cli(*argv, timeout=180, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestCLIContract:
    def test_crash_plan_run_exits_clean(self, clean_files, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "rules": [{"site": "worker_crash", "every": 2, "count": 3}],
        }))
        proc = _run_cli(
            "check", *clean_files, "--jobs", "2", "--no-cache",
            "--fault-plan", str(plan),
            env_extra={"MC_CHECK_CACHE_DIR": str(tmp_path / "cache")})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "crash(es)" in proc.stdout
        assert "no errors found" in proc.stdout

    def test_sigterm_exits_130_and_resume_reproduces_baseline(
            self, clean_files, tmp_path):
        env_extra = {"MC_CHECK_CACHE_DIR": str(tmp_path / "cache")}
        baseline = _run_cli("check", *clean_files, "--jobs", "2", "--no-cache",
                            env_extra=env_extra)
        assert baseline.returncode == 0, baseline.stdout + baseline.stderr
        base_body = [l for l in baseline.stdout.splitlines()
                     if not l.startswith("run:")]

        plan = tmp_path / "slow.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "rules": [{"site": "worker_slow", "every": 1,
                       "seconds": 0.5, "attempts": 5}],
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.update(env_extra)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "check", *clean_files,
             "--jobs", "2", "--fault-plan", str(plan)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        # wait for the run id on *stderr* (the run has started; stdout
        # stays reserved for the report), then interrupt it
        first_line = proc.stderr.readline()
        assert first_line.startswith("run: id="), first_line
        run_id = first_line.strip().split("=", 1)[1]
        time.sleep(2.0)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
        err = first_line + err
        assert proc.returncode == 130, (proc.returncode, out, err)
        assert "INTERRUPTED" in out
        assert f"--resume {run_id}" in err

        resumed = _run_cli("check", *clean_files, "--jobs", "2", "--no-cache",
                           "--resume", run_id, env_extra=env_extra)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        resumed_body = [l for l in resumed.stdout.splitlines()
                        if not l.startswith("run:")]
        assert resumed_body == base_body

    def test_item_timeout_flag_reaches_the_watchdog(self, clean_files,
                                                    tmp_path):
        plan = tmp_path / "hang.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "rules": [{"site": "worker_hang", "count": 1, "seconds": 60}],
        }))
        proc = _run_cli(
            "check", *clean_files, "--jobs", "2", "--no-cache",
            "--fault-plan", str(plan), "--item-timeout", "0.7",
            env_extra={"MC_CHECK_CACHE_DIR": str(tmp_path / "cache")})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "timeout(s)" in proc.stdout

    def test_max_retries_zero_quarantines_first_crash(self, clean_files,
                                                      tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "rules": [{"site": "worker_crash", "count": 1, "attempts": 10}],
        }))
        proc = _run_cli(
            "check", *clean_files, "--jobs", "2", "--no-cache",
            "--fault-plan", str(plan), "--max-retries", "0",
            env_extra={"MC_CHECK_CACHE_DIR": str(tmp_path / "cache")})
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "quarantined" in proc.stdout
        assert "during worker" in proc.stdout

    def test_help_documents_exit_codes(self):
        proc = _run_cli("--help")
        assert "130" in proc.stdout
        check_help = _run_cli("check", "--help")
        assert "--resume" in check_help.stdout
        assert "--item-timeout" in check_help.stdout
        assert "--max-retries" in check_help.stdout
