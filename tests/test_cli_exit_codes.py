"""CLI exit-code discipline, exercised through real subprocesses.

The contract (``check``/``metal``/``simulate``): **0** the protocol is
clean, **1** the protocol has bugs, **2** the *tool* failed (internal
error or quarantined checker) — so CI can tell the two apart.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkers.metal_sources import FIGURE_2

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run_cli(*argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_python(code, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# Clean for the static checkers: a utility with no buffer traffic.
CLEAN_UTIL = """
void util(void) {
    SUBROUTINE_PROLOGUE();
    unsigned a;
    a = 1 + 2;
    return;
}
"""

# Clean for the *simulator*: a handler doing the full correct dance.
CLEAN_HANDLER = """
void Handler(void) {
    unsigned addr;
    unsigned v;
    addr = HANDLER_GLOBALS(header.nh.addr);
    WAIT_FOR_DB_FULL(addr);
    v = MISCBUS_READ_DB(addr, 0);
    HANDLER_GLOBALS(dirEntry) = DIR_LOAD(addr);
    DIR_WRITEBACK(addr, HANDLER_GLOBALS(dirEntry));
    DB_FREE();
    return;
}
"""

RACY_HANDLER = """
void Racy(void) {
    SUBROUTINE_PROLOGUE();
    unsigned v;
    v = MISCBUS_READ_DB(0, 0);
    DB_FREE();
    return;
}
"""


@pytest.fixture
def clean_c(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN_UTIL)
    return str(path)


@pytest.fixture
def sim_clean_c(tmp_path):
    path = tmp_path / "sim_clean.c"
    path.write_text(CLEAN_HANDLER)
    return str(path)


@pytest.fixture
def racy_c(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY_HANDLER)
    return str(path)


class TestCheckExitCodes:
    def test_clean_file_exits_zero(self, clean_c):
        proc = run_cli("check", clean_c)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no errors found" in proc.stdout

    def test_buggy_file_exits_one(self, racy_c):
        proc = run_cli("check", racy_c)
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_unreadable_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text('void broken( { "unterminated\n')
        proc = run_cli("check", str(bad))
        assert proc.returncode == 2
        assert "internal error" in proc.stderr

    def test_quarantined_checker_exits_two(self, racy_c):
        # A checker that crashes at run time: without --keep-going the
        # interpreter dies (uncaught traceback); with it, the crash is
        # a quarantine diagnostic and the tool reports exit 2.
        code = f"""
import sys
from repro.checkers.base import Checker, register
from repro.cli import main

@register
class Boom(Checker):
    name = "boom"
    metal_loc = 0
    def check(self, program):
        raise RuntimeError("deliberately broken")

sys.exit(main(["check", {racy_c!r}, "--keep-going"]))
"""
        proc = run_python(code)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "quarantined [boom]" in proc.stdout
        assert "DEGRADED" in proc.stdout
        # the other checkers still reported the seeded race
        assert "unsynchronized" in proc.stdout or "race" in proc.stdout

    def test_crash_without_keep_going_is_a_traceback(self, racy_c):
        code = f"""
import sys
from repro.checkers.base import Checker, register
from repro.cli import main

@register
class Boom(Checker):
    name = "boom"
    metal_loc = 0
    def check(self, program):
        raise RuntimeError("deliberately broken")

sys.exit(main(["check", {racy_c!r}]))
"""
        proc = run_python(code)
        # an uncaught crash is a traceback, not a tidy diagnostic
        assert "Traceback" in proc.stderr
        assert "RuntimeError" in proc.stderr
        assert "quarantined" not in proc.stdout


class TestMetalExitCodes:
    @pytest.fixture
    def figure2_metal(self, tmp_path):
        path = tmp_path / "wait.metal"
        path.write_text(FIGURE_2)
        return str(path)

    def test_clean_exits_zero(self, figure2_metal, clean_c):
        proc = run_cli("metal", figure2_metal, clean_c)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_diagnostics_exit_one(self, figure2_metal, racy_c):
        proc = run_cli("metal", figure2_metal, racy_c)
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_budget_flag_marks_degraded(self, figure2_metal, racy_c):
        proc = run_cli("metal", figure2_metal, racy_c,
                       "--budget-steps", "1")
        assert "DEGRADED" in proc.stdout

    def test_missing_metal_file_exits_two(self, clean_c, tmp_path):
        proc = run_cli("metal", str(tmp_path / "nope.metal"), clean_c)
        assert proc.returncode != 0   # FileNotFoundError (traceback)


class TestSimulateExitCodes:
    def test_clean_run_exits_zero(self, sim_clean_c):
        proc = run_cli("simulate", sim_clean_c, "--dispatch", "1=Handler",
                       "--messages", "50")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_buggy_run_exits_one(self, racy_c):
        proc = run_cli("simulate", racy_c, "--dispatch", "1=Racy",
                       "--messages", "20")
        assert proc.returncode == 1
        assert "NOT CLEAN" in proc.stdout

    def test_fault_plan_flips_clean_to_buggy(self, tmp_path):
        src = tmp_path / "alloc.c"
        src.write_text("""
void AllocNoCheck(void) {
    unsigned buf;
    unsigned v;
    DB_FREE();
    buf = DB_ALLOC();
    v = MISCBUS_READ_DB(0, 0);
    DB_FREE();
    return;
}
""")
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"seed": 42, "rules": [{"site": "alloc_fail", "every": 5}]}')
        base = ("simulate", str(src), "--dispatch", "1=AllocNoCheck",
                "--messages", "50")
        without = run_cli(*base)
        assert without.returncode == 0, without.stdout + without.stderr
        with_plan = run_cli(*base, "--fault-plan", str(plan))
        assert with_plan.returncode == 1
        assert "alloc_fail" in with_plan.stdout
        assert "NOT CLEAN" in with_plan.stdout

    def test_bad_dispatch_exits_two(self, clean_c):
        proc = run_cli("simulate", clean_c, "--dispatch", "1=NoSuch")
        assert proc.returncode == 2
        assert "internal error" in proc.stderr

    def test_malformed_fault_plan_exits_two(self, sim_clean_c, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"rules": [{"site": "cosmic_ray"}]}')
        proc = run_cli("simulate", sim_clean_c, "--dispatch", "1=Handler",
                       "--fault-plan", str(plan))
        assert proc.returncode == 2
        assert "internal error" in proc.stderr


# Dynamically manifest bugs for the simulator hardening tests: a double
# free that --strict escalates into a typed error mid-run.
DOUBLE_FREE_HANDLER = """
void Doubler(void) {
    unsigned buf;
    buf = DB_ALLOC();
    DB_FREE();
    DB_FREE();
    return;
}
"""


class TestSimulateHardening:
    """Typed failures become structured ``failure:`` records — a raw
    traceback from ``simulate`` is always a bug (satellite contract)."""

    @pytest.fixture
    def doubler_c(self, tmp_path):
        path = tmp_path / "doubler.c"
        path.write_text(DOUBLE_FREE_HANDLER)
        return str(path)

    def test_strict_violation_is_a_structured_failure(self, doubler_c):
        proc = run_cli("simulate", doubler_c, "--dispatch", "1=Doubler",
                       "--messages", "10", "--strict")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "failure: type=DoubleFreeError" in proc.stdout
        assert "property=buffer-refcount" in proc.stdout
        assert "NOT CLEAN" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_strict_failure_still_reports_partial_counters(self, doubler_c):
        proc = run_cli("simulate", doubler_c, "--dispatch", "1=Doubler",
                       "--messages", "10", "--strict")
        assert "handlers run:" in proc.stdout

    def test_interp_error_is_internal_not_a_traceback(self, tmp_path):
        src = tmp_path / "undefined.c"
        src.write_text("void Bad(void) {\n    NO_SUCH_BUILTIN();\n}\n")
        proc = run_cli("simulate", str(src), "--dispatch", "1=Bad",
                       "--messages", "5")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "failure: type=InterpError" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_non_integer_opcode_exits_two(self, sim_clean_c):
        proc = run_cli("simulate", sim_clean_c, "--dispatch", "x=Handler")
        assert proc.returncode == 2
        assert "internal error" in proc.stderr


class TestCampaignExitCodes:
    """``campaign`` keeps the same 0/1/2/130 contract as check/metal."""

    def test_clean_campaign_exits_zero(self, sim_clean_c):
        # No generated faults, a correct handler: nothing can crash.
        proc = run_cli("campaign", sim_clean_c, "--dispatch", "1=Handler",
                       "--runs", "3", "--shard-size", "2", "--messages", "6",
                       "--max-fault-rules", "0", "--no-cache")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "cross-tab:" in proc.stdout

    def test_crashing_campaign_exits_one_and_confirms(self, racy_c):
        proc = run_cli("campaign", racy_c, "--dispatch", "1=Racy",
                       "--runs", "4", "--shard-size", "2", "--messages", "8",
                       "--no-cache")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "confirmed" in proc.stdout
        assert "minimal repro" in proc.stdout

    def test_missing_dispatch_exits_two(self, racy_c):
        proc = run_cli("campaign", racy_c, "--runs", "2", "--no-cache")
        assert proc.returncode == 2
        assert "internal error" in proc.stderr

    def test_metrics_do_not_change_the_crosstab(self, racy_c, tmp_path):
        base = ("campaign", racy_c, "--dispatch", "1=Racy", "--runs", "3",
                "--shard-size", "2", "--messages", "6", "--no-cache")
        plain = tmp_path / "plain.json"
        observed = tmp_path / "observed.json"
        metrics = tmp_path / "metrics.json"
        a = run_cli(*base, "--out", str(plain))
        b = run_cli(*base, "--out", str(observed),
                    "--metrics-out", str(metrics))
        assert a.returncode == b.returncode
        assert plain.read_bytes() == observed.read_bytes()
        snapshot = __import__("json").loads(metrics.read_text())
        assert snapshot["counters"]["campaign.runs"] == 3


# -- the hard exit of ``python -m repro.cli`` --------------------------------
#
# ``repro.cli.entry`` flushes stdout/stderr and leaves with ``os._exit``,
# skipping interpreter teardown.  These pin what that must not lose.

def _float_heavy_c(tmp_path, lines=3000):
    """A float use on every line: a multi-megabyte JSON report."""
    body = "\n".join(["    f = 1.5;"] * lines)
    path = tmp_path / "floats.c"
    path.write_text(f"void floats(void) {{\n    float f;\n{body}\n}}\n")
    return str(path)


@pytest.fixture
def broken_c(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text('void broken( { "unterminated\n')
    return str(path)


class TestHardExit:
    @pytest.fixture(autouse=True)
    def buffered_stdout(self, monkeypatch):
        # Output that sits in a buffer at exit is what a hard exit loses.
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)

    @pytest.mark.parametrize("fixture,code", [
        ("clean_c", 0), ("racy_c", 1), ("broken_c", 2)])
    def test_exit_code_survives(self, request, fixture, code):
        path = request.getfixturevalue(fixture)
        proc = run_cli("check", path, "--no-cache", "--format", "json")
        assert proc.returncode == code, proc.stderr
        if code < 2:  # a short report, all of it in the stdout buffer
            assert bool(json.loads(proc.stdout)["reports"]) == bool(code)

    def test_multi_megabyte_json_arrives_complete(self, tmp_path):
        proc = run_cli("check", _float_heavy_c(tmp_path), "--format", "json",
                       "--no-cache")
        assert proc.returncode == 1, proc.stderr
        assert len(proc.stdout) > 2_000_000
        assert proc.stdout.endswith("\n")
        doc = json.loads(proc.stdout)
        assert doc["summary"]["error"] == len(doc["reports"]) >= 3000

    def test_metrics_and_ledger_are_complete(self, racy_c, tmp_path):
        metrics = tmp_path / "metrics.json"
        cache = tmp_path / "cache"
        proc = run_cli("check", racy_c, "--cache-dir", str(cache),
                       "--metrics-out", str(metrics))
        assert proc.returncode == 1, proc.stderr
        assert json.loads(metrics.read_text())["counters"]["fleet.items"] >= 1
        ledger = (cache / "ledger.jsonl").read_text()
        assert ledger.endswith("\n")
        entry = json.loads(ledger.splitlines()[-1])
        assert f"run: id={entry['run']}" in proc.stderr
        assert entry["exit"] == 1

    def test_reader_leaving_early_is_not_an_error(self, tmp_path):
        # ``| head -c 100``: the report is far larger than a pipe buffer,
        # so the CLI's writes hit EPIPE.  Exit 0, no traceback, and no
        # "Exception ignored" from a failed flush at exit.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        cli = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "check",
             _float_heavy_c(tmp_path), "--format", "json", "--no-cache"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = subprocess.Popen(["head", "-c", "100"], stdin=cli.stdout,
                                stdout=subprocess.PIPE)
        cli.stdout.close()
        shown, _ = head.communicate(timeout=120)
        stderr = cli.stderr.read().decode()
        cli.stderr.close()
        assert cli.wait(timeout=120) == 0
        assert len(shown) == 100
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr

    def test_no_worker_outlives_a_jobs_2_run(self, racy_c, clean_c,
                                             tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        metrics = tmp_path / "metrics.json"
        # A session of its own: forked workers join its process group.
        cli = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "check", racy_c, clean_c,
             "--jobs", "2", "--no-cache", "--metrics-out", str(metrics)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            start_new_session=True)
        _, stderr = cli.communicate(timeout=120)
        assert cli.returncode == 1, stderr
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["fleet.items_fresh"] >= 2  # workers did run
        with pytest.raises(ProcessLookupError):
            os.killpg(cli.pid, 0)


class TestBatchGc:
    """``main`` tunes the collector for one command and restores it."""

    def _state(self):
        return gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()

    def test_main_restores_gc_state(self, racy_c):
        from repro.cli import main
        before = self._state()
        assert main(["check", racy_c, "--no-cache"]) == 1
        assert self._state() == before

    def test_usage_error_restores_gc_state(self):
        from repro.cli import main
        before = self._state()
        with pytest.raises(SystemExit):
            main(["check", "--no-such-flag"])
        assert self._state() == before

    def test_already_frozen_heap_is_left_frozen(self, racy_c):
        from repro.cli import main
        gc.freeze()
        try:
            threshold, frozen, enabled = self._state()
            main(["check", racy_c, "--no-cache"])
            # main froze nothing more (a frozen object may have died).
            assert self._state()[0::2] == (threshold, enabled)
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()
