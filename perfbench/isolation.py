"""Runs the checker as an isolated subprocess and measures it.

Every child gets an environment with the ``MC_CHECK_*`` variables
removed, its default cache and ``XDG_CACHE_HOME`` inside the run's
private directory, and a working directory with no ``mc-check.toml``.
A user's warm cache, checker packs or ``MC_CHECK_JOBS`` therefore never
reach a measurement, and nothing is written to their run ledger.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: A single invocation that runs longer than this is killed and failed.
INVOCATION_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """One finished child process."""

    returncode: int
    wall_s: float
    ended_at: float       # perf_counter() when the child was reaped
    peak_rss_mb: float
    stdout: str
    stderr: str


class Sandbox:
    """The private directory, environment and working directory of a run."""

    def __init__(self, src: Path, private: Path, cwd: Path):
        self.private = private
        self.cwd = cwd
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MC_CHECK_")}
        env["PYTHONPATH"] = str(src)
        env["MC_CHECK_CACHE_DIR"] = str(private / "default-cache")
        env["XDG_CACHE_HOME"] = str(private / "xdg-cache")
        self.env = env
        self._count = 0

    def run(self, argv: list) -> Outcome:
        """Run ``python argv...`` in the sandbox; wall, peak RSS, output.

        The child leads its own process group, so a timeout kills its
        workers too.  It is reaped with ``wait4``, whose peak RSS covers
        the child and the workers it waited for.
        """
        self._count += 1
        out_path = self.private / f"out-{self._count}.txt"
        err_path = self.private / f"err-{self._count}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                start_new_session=True)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group,
                                    (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended_at = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Outcome(proc.returncode, ended_at - start, ended_at,
                       usage.ru_maxrss / 1024.0,
                       stdout, stderr)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
