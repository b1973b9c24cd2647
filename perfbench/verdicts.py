"""Checks every ``mc-check check`` verdict against the generator's manifest.

A report joins the manifest on ``(checker, file, line)``.  Reports with
no site expecting a report are *phantom*; sites labelled ``error``,
``minor`` or ``violation`` with no report are *missed*.  Sites labelled
``fp`` may go unreported, because feasibility pruning is on by default.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

#: Manifest labels whose sites must produce a report.
MUST_REPORT = ("error", "minor", "violation")


def report_key(report: dict) -> tuple:
    from repro.campaign.properties import canonical_checker
    return (canonical_checker(report["checker"]),
            os.path.basename(report["file"]), report["line"])


def join(reports: list, manifest: list) -> tuple:
    """``(phantom reports, missed sites)`` of one invocation."""
    expected = {(s.checker, s.file, s.line) for s in manifest
                if s.expects_report}
    got = {report_key(r) for r in reports}
    phantom = [r for r in reports if report_key(r) not in expected]
    missed = [s for s in manifest if s.label in MUST_REPORT
              and (s.checker, s.file, s.line) not in got]
    return phantom, missed


def reports_bytes(reports: list) -> bytes:
    """Canonical bytes of a ``reports`` array, for identity checks."""
    return json.dumps(reports, sort_keys=True,
                      separators=(",", ":")).encode()


@dataclass
class Verdict:
    """What one invocation produced and everything wrong with it."""

    reports: list = field(default_factory=list)
    phantom: int = 0
    missed: int = 0
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def judge(returncode: int, stdout: str, stderr: str, manifest: list) -> Verdict:
    """Judge one invocation: exit status, JSON document, manifest join."""
    verdict = Verdict()
    if returncode not in (0, 1):
        verdict.problems.append(f"exit status {returncode}")
    if "Traceback" in stderr:
        verdict.problems.append("traceback on stderr")
    try:
        doc = json.loads(stdout)
    except ValueError:
        verdict.problems.append("stdout is not one JSON document")
        return verdict
    if doc.get("quarantines"):
        verdict.problems.append(f"{len(doc['quarantines'])} quarantine(s)")
    if doc.get("degraded") or doc.get("degradation_notes"):
        verdict.problems.append("degraded run")
    if doc.get("interrupted"):
        verdict.problems.append("interrupted run")
    verdict.reports = doc.get("reports", [])
    phantom, missed = join(verdict.reports, manifest)
    verdict.phantom, verdict.missed = len(phantom), len(missed)
    for report in phantom:
        verdict.problems.append(
            f"phantom report {report['checker']} {report['file']}:"
            f"{report['line']}")
    for site in missed:
        verdict.problems.append(
            f"missed {site.label} site {site.checker} {site.file}:{site.line}")
    return verdict
