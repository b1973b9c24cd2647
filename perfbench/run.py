"""The benchmark of ``mc-check check``: one command, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_serial --seed 1 --seconds 10 --trace 0

A closed loop with one client: the benchmark runs one
``python -m repro.cli check DIR/*.c --spec DIR/X.spec --format json`` at
a time as a subprocess and waits for its verdict.  It works in whole
rounds over the workload's directories until ``--seconds`` have passed,
so every run measures the same mix.  Every verdict is joined against
the generator's ground-truth manifest.

``--trace 0`` prints the end-to-end metrics of untraced invocations.
``--trace 1`` pairs each untraced invocation with a traced one (layer
spans recorded by ``traced_cli.py``) and prints the per-layer metrics.
The last line of stdout is the result object; the lines before it name
every metric with its unit and record the host.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import corpus
import layers
from isolation import Sandbox
from verdicts import judge, reports_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

class Workload(NamedTuple):
    directories: tuple     # the directories it checks
    jobs: int              # ``--jobs`` of every measured invocation
    edits: bool            # the edit loop on a warm result cache
    #: Passes over the directories (or the edit targets) in one round.
    #: Every round takes longer than 10 s, so each run measures exactly
    #: one.  An edit pass is short, so ``edit_recheck`` makes three, for
    #: a median over 18 samples.  Traced runs make one.
    passes: int


#: A cold check at ``--jobs 2`` (a ``cold_fleet`` workload) swung by a
#: quarter or more from run to run on a 2-CPU host, past any bound the
#: benchmark may set; the fleet is measured on ``edit_recheck`` instead.
WORKLOADS = {
    "cold_serial": Workload(corpus.PROTOCOLS, 1, False, 1),
    "edit_recheck": Workload(corpus.EDIT_PROTOCOLS, 2, True, 3),
}

#: Corpus generations per run; ``setup_s`` is their median (plus, on
#: ``edit_recheck``, the one cache fill).
SETUP_REPEATS = 5

#: ``python -c "import repro.cli"`` runs per traced run (median taken).
IMPORT_PROBES = 3

END_TO_END = [
    ("setup_s", "s"), ("kloc_per_s", "kloc/s"), ("check_s_p50", "s"),
    ("check_s_tail", "s"), ("peak_rss_mb", "MB"),
]


@dataclass
class Sample:
    """One measured invocation."""

    label: str
    wall_s: float
    peak_rss_mb: float
    kloc: float
    phantom: int
    missed: int
    problems: list


def tail(values: list) -> tuple:
    """``(value, percentile, samples beyond)``: the highest percentile
    with at least ten samples beyond it.  Below 22 samples that
    percentile would not lie above the median, so the maximum is
    reported instead (0 beyond)."""
    ordered = sorted(values)
    rank = len(ordered) - 11 if len(ordered) >= 22 else len(ordered) - 1
    return (ordered[rank], 100.0 * (rank + 1) / len(ordered),
            len(ordered) - 1 - rank)


def tree_digest(src: Path) -> str:
    """SHA-256 of the checker's source tree (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def host_block(seed: int, tree: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_tree": tree[:16],
        "workload_seed": seed,
        "generator_seed": corpus.generator_seed(seed),
    }


class ReferenceReports:
    """Digests of each directory's ``reports`` array, shared by every
    workload run in this checkout: the cold ``--jobs 1`` checks and the
    edited ``--jobs 2`` re-checks of one corpus must print byte-identical
    reports."""

    def __init__(self, directory: Path, tree: str, generator_seed: int,
                 workload: str):
        self.directory = directory
        self.prefix = f"{tree[:16]}-{generator_seed}"
        self.workload = workload
        directory.mkdir(parents=True, exist_ok=True)

    def problems(self, protocol: str, reports: list) -> list:
        digest = hashlib.sha256(reports_bytes(reports)).hexdigest()
        path = self.directory / f"{self.prefix}-{protocol}.txt"
        if not path.exists():
            path.write_text(f"{digest} {self.workload}\n")
            return []
        known, first = path.read_text().split()
        if known == digest:
            return []
        return [f"reports differ from those {first} printed for "
                f"{protocol} on the same corpus"]


class Bench:
    """One run of one workload."""

    def __init__(self, args, private: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.private = private
        self.spec = WORKLOADS[args.workload]
        self.tree = tree_digest(SRC)
        self.host = host_block(args.seed, self.tree)
        self.refs = ReferenceReports(WORK / "refs", self.tree,
                                     corpus.generator_seed(args.seed),
                                     args.workload)
        #: Failures outside the measured invocations: the cache fill
        #: and the traced run's own checks.
        self.run_problems: list = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        times = []
        for attempt in range(SETUP_REPEATS):
            root = self.private / f"corpus-{attempt}"
            gc.collect()  # each attempt starts from the same heap state
            start = time.perf_counter()
            protocols = corpus.generate(self.seed)
            corpus.write_corpus(protocols, root)
            times.append(time.perf_counter() - start)
        for attempt in range(SETUP_REPEATS - 1):
            shutil.rmtree(self.private / f"corpus-{attempt}")
        self.protocols = protocols
        self.root = root
        self.sandbox = Sandbox(SRC, self.private, root)
        self.setup_s = statistics.median(times)
        self.edits = corpus.EditPlan(self.seed, protocols)
        self.step = 0
        self.caches = []
        if self.spec.edits:
            cache = self.private / "cache"
            start = time.perf_counter()
            for name in self.spec.directories:
                outcome = self.sandbox.run(
                    ["-m", "repro.cli", *corpus.check_args(protocols, name),
                     "--jobs", "2", "--cache-dir", str(cache)])
                self.run_problems += [
                    f"cache fill of {name}: {problem}"
                    for problem in self._judge(name, outcome).problems]
            self.setup_s += time.perf_counter() - start
            self.caches = [cache]
            if self.traced:
                shutil.copytree(cache, self.private / "cache-traced")
                self.caches.append(self.private / "cache-traced")

    # -- measurement ---------------------------------------------------------

    def _judge(self, name: str, outcome):
        verdict = judge(outcome.returncode, outcome.stdout, outcome.stderr,
                        self.protocols[name].manifest)
        if not verdict.failed:
            verdict.problems += self.refs.problems(name, verdict.reports)
        return verdict

    def _argv(self, name: str, cache_index: int) -> list:
        argv = [*corpus.check_args(self.protocols, name),
                "--jobs", str(self.spec.jobs)]
        if self.spec.edits:
            argv += ["--cache-dir", str(self.caches[cache_index])]
        else:
            argv.append("--no-cache")
        return argv

    def _sample(self, name: str, label: str, outcome, kloc: float):
        verdict = self._judge(name, outcome)
        for problem in verdict.problems:
            print(f"FAIL {self.workload} {label}: {problem}", file=sys.stderr)
        return Sample(label, outcome.wall_s, outcome.peak_rss_mb, kloc,
                      verdict.phantom, verdict.missed,
                      verdict.problems), verdict

    def _round(self) -> list:
        """``(directory, edit or None)`` for each step of the next round:
        each pass checks every directory once, or on ``edit_recheck``
        makes one edit per non-empty file."""
        passes = 1 if self.traced else self.spec.passes
        if not self.spec.edits:
            return [(name, None) for _ in range(passes)
                    for name in self.spec.directories]
        edits = [self.edits.edit(self.step + k)
                 for k in range(passes * self.edits.round_length)]
        self.step += len(edits)
        return [(edit.protocol, edit) for edit in edits]

    def measure(self):
        """Whole rounds until ``--seconds`` have passed.  Returns the
        untraced samples and, when traced, ``(sample, layers)`` pairs."""
        untraced, traced = [], []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < self.seconds:
            for name, edit in self._round():
                label = name
                if edit is not None:
                    corpus.apply_edit(self.root, edit)
                    label = f"{name}/{edit.file}"
                kloc = corpus.kloc(self.root, self.protocols, name)
                outcome = self.sandbox.run(
                    ["-m", "repro.cli", *self._argv(name, 0)])
                sample, plain = self._sample(name, label, outcome, kloc)
                untraced.append(sample)
                if not self.traced:
                    continue
                spans_dir = self.private / f"spans-{len(traced)}"
                spans_dir.mkdir()
                outcome = self.sandbox.run(
                    [str(HERE / "traced_cli.py"), str(spans_dir),
                     str(len(traced)), "--", *self._argv(name, 1)])
                sample, verdict = self._sample(name, label, outcome, kloc)
                if not plain.failed and not verdict.failed \
                        and verdict.reports != plain.reports:
                    sample.problems.append(
                        "traced reports differ from untraced reports")
                    print(f"FAIL {self.workload} {label}: traced reports "
                          "differ from untraced reports", file=sys.stderr)
                files, exit_stamp = layers.load_spans(spans_dir)
                traced.append((sample, layers.InvocationLayers(
                    files, outcome.wall_s, outcome.ended_at - exit_stamp)))
                shutil.rmtree(spans_dir)
        return untraced, traced

    # -- results -------------------------------------------------------------

    def end_to_end(self, samples: list) -> tuple:
        walls = [s.wall_s for s in samples]
        value, percentile, beyond = tail(walls)
        metrics = {
            "setup_s": self.setup_s,
            "kloc_per_s": sum(s.kloc for s in samples) / sum(walls),
            "check_s_p50": statistics.median(walls),
            "check_s_tail": value,
            "peak_rss_mb": max(s.peak_rss_mb for s in samples),
        }
        notes = {
            "invocations": len(samples),
            "check_s_tail_percentile": round(percentile, 1),
            "check_s_tail_beyond": beyond,
            "walls_s": {label: [round(s.wall_s, 4) for s in samples
                                if s.label == label]
                        for label in dict.fromkeys(s.label for s in samples)},
        }
        return metrics, notes

    def per_layer(self, samples: list, traced: list) -> dict:
        inv = [layer for _, layer in traced]
        metrics = layers.aggregate(inv)
        metrics["cli.import_s"] = self.import_probe()
        cache_dir = self.caches[-1] if self.caches else \
            self.private / "default-cache"
        metrics["cache.dir_bytes"] = sum(
            p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
        plain_wall = sum(s.wall_s for s in samples)
        traced_wall = sum(s.wall_s for s, _ in traced)
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) \
            / plain_wall
        problems = layers.coverage_problems(self.workload, inv)
        if metrics["trace.unattributed_frac"] > layers.UNATTRIBUTED_MARGIN:
            problems.append(
                f"trace: {metrics['trace.unattributed_frac']:.3f} of the "
                f"traced wall is unattributed (margin "
                f"{layers.UNATTRIBUTED_MARGIN})")
        self.run_problems += problems
        return metrics

    def import_probe(self) -> float:
        walls = [self.sandbox.run(["-c", "import repro.cli"]).wall_s
                 for _ in range(IMPORT_PROBES)]
        return statistics.median(walls)

    def run(self) -> dict:
        self.setup()
        samples, traced = self.measure()
        everything = samples + [s for s, _ in traced]
        failed = sum(1 for s in everything if s.problems)
        counts = {
            "failed_frac": ("ratio", failed / len(everything)),
            "phantom_reports": ("count", sum(s.phantom for s in everything)),
            "missed_reports": ("count", sum(s.missed for s in everything)),
        }
        if self.traced:
            values = self.per_layer(samples, traced)
            values.update({k: v for k, (_, v) in counts.items()})
            units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
            notes = {"traced_invocations": len(traced)}
        else:
            values, notes = self.end_to_end(samples)
            units = dict(END_TO_END)
            for name, (unit, value) in counts.items():
                print(f"{name:<34} {value:>14.6g} {unit}")
        for name, value in values.items():
            print(f"{name:<34} {value:>14.6g} {units[name]}")
        for problem in self.run_problems:
            print(f"FAIL {self.workload}: {problem}", file=sys.stderr)
        print("host: " + json.dumps(self.host, sort_keys=True))
        print("notes: " + json.dumps(notes, sort_keys=True))
        return {
            "correct": failed == 0 and not self.run_problems,
            "attempted": len(everything),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no checker sources under {SRC}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    private = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = Bench(args, private).run()
    finally:
        shutil.rmtree(private, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
