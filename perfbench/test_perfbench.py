"""Tests of the benchmark itself: seeding, edits, the manifest join and
the span arithmetic.

Run: ``PYTHONPATH=src python -m pytest perfbench -q``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import verdicts  # noqa: E402


@pytest.fixture(scope="module")
def generated():
    return corpus.generate(3)


def _steps(plan, n=9):
    return [plan.edit(step) for step in range(n)]


def _tree(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_same_seed_gives_identical_corpus_and_edits(tmp_path, generated):
    again = corpus.generate(3)
    corpus.write_corpus(generated, tmp_path / "a")
    corpus.write_corpus(again, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != {}
    assert _steps(corpus.EditPlan(3, generated)) == \
        _steps(corpus.EditPlan(3, again))


def test_different_seeds_give_different_edits(generated):
    assert corpus.generator_seed(0) == corpus.CANONICAL_GENERATOR_SEED
    assert corpus.generator_seed(3) != corpus.generator_seed(4)
    assert _steps(corpus.EditPlan(3, generated)) != \
        _steps(corpus.EditPlan(4, generated))


def test_edits_keep_line_count_and_parse(tmp_path, generated):
    from repro.project import Program
    corpus.write_corpus(generated, tmp_path)
    plan = corpus.EditPlan(3, generated)
    for edit in _steps(plan, plan.round_length):
        path = tmp_path / edit.protocol / edit.file
        before = path.read_text().split("\n")
        corpus.apply_edit(tmp_path, edit)
        after = path.read_text().split("\n")
        assert len(after) == len(before)
        assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] \
            == [edit.line]
        assert after[edit.line] == before[edit.line] + edit.comment
        Program({edit.file: "\n".join(after)})  # strict parse: raises


def test_every_round_edits_each_non_empty_file_once(generated):
    plan = corpus.EditPlan(3, generated)
    files = {(name, filename) for name, filename, _ in plan.targets}
    assert ("common", "common_util.c") in files
    assert all(name in corpus.EDIT_PROTOCOLS for name, _ in files)
    for first in (0, plan.round_length):
        edits = _steps(plan, first + plan.round_length)[first:]
        assert sorted((e.protocol, e.file) for e in edits) == sorted(files)


def test_statement_lines_skip_comments():
    text = "a = 1;\n/* x;\n y = 2;\n*/ z = 3;\n/* c */ w = 4;\n#define Q 1;"
    assert corpus.statement_lines(text) == [0]


def _site_report(site, checker=None):
    return {"checker": checker or site.checker, "file": f"d/{site.file}",
            "line": site.line}


def test_join_flags_planted_phantom_and_missed(generated):
    manifest = generated["bitvector"].manifest
    must = [s for s in manifest if s.label in verdicts.MUST_REPORT]
    reports = [_site_report(s) for s in must]
    assert verdicts.join(reports, manifest) == ([], [])
    race = next(s for s in must if s.checker == "buffer-race")
    aliased = [_site_report(s, "wait_for_db") if s is race
               else _site_report(s) for s in must]
    assert verdicts.join(aliased, manifest) == ([], [])

    planted = {"checker": "buffer-race", "file": f"d/{race.file}",
               "line": 99999}
    phantom, missed = verdicts.join(reports + [planted], manifest)
    assert phantom == [planted] and missed == []

    phantom, missed = verdicts.join(reports[1:], manifest)
    assert phantom == [] and missed == [must[0]]


def test_judge_fails_degraded_and_crashed_runs(generated):
    manifest = generated["common"].manifest
    doc = {"reports": [], "quarantines": [], "degraded": True,
           "degradation_notes": ["x"], "interrupted": False}
    verdict = verdicts.judge(1, json.dumps(doc), "", manifest)
    assert "degraded run" in verdict.problems
    assert verdicts.judge(2, "", "Traceback", manifest).problems[:2] == \
        ["exit status 2", "traceback on stderr"]


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(v) for v in range(21)]) == (20.0, 100.0, 0)
    values = [float(v) for v in range(30)]
    assert run.tail(values) == (19.0, pytest.approx(66.67, 0.01), 10)


def _spans(records, role="parent", pid=1):
    return {"pid": pid, "role": role, "records": [
        [name, start, end, f"{pid}:{n}", parent, extra]
        for n, (name, start, end, parent, extra) in enumerate(records)]}


def test_self_times_and_fleet_arithmetic():
    parent = _spans([
        ("cli.import", 0.0, 1.0, None, {}),
        ("main", 1.0, 11.0, None, {}),
        ("check_files", 2.0, 10.0, "1:1", {"jobs": 2, "hits": 3}),
        ("_run_items", 2.5, 9.5, "1:2", {"items": 2}),
        ("run_to_json", 10.0, 10.5, "1:1", {}),
        ("score_run", 10.1, 10.2, "1:4", {}),
    ])
    worker = _spans([
        ("_worker_main", 3.0, 9.0, "1:3", {}),
        ("_execute_item", 3.0, 8.0, "2:0", {"payload_bytes": 7}),
        ("parse", 3.0, 6.0, "2:1", {}),
        ("Lexer.tokenize", 3.0, 4.0, "2:2", {"tokens": 50}),
        ("_execute_item", 8.0, 8.5, "2:0", {"payload_bytes": 5}),
    ], role="worker", pid=2)
    inv = layers.InvocationLayers([parent, worker], wall_s=12.5,
                                  exited_s=0.25)
    v = inv.values
    assert v["cli.outside_check_s"] == 2.0
    assert v["cli.render_s"] == 0.5
    assert v["lang.lex_s"] == 1.0 and v["lang.parse_s"] == 2.0
    assert v["lang.tokens"] == 50
    assert v["fleet.items"] == 2 and v["fleet.items_executed"] == 2
    assert v["fleet.dispatch_s"] == pytest.approx(8.0 - 5.5)
    assert v["fleet.tail_s"] == 0.5
    assert v["fleet.payload_bytes"] == 12
    assert v["cache.hits"] == 3
    assert inv.unattributed_s == pytest.approx(12.5 - 11.0 - 0.25)
    total = layers.aggregate([inv])
    assert total["fleet.busy_frac"] == pytest.approx(5.5 / (2 * 8.0))
    assert total["lang.tokens_per_s"] == 50.0


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in layers.LAYER_METRICS]
    assert set(layers.REQUIRED_SPANS) == set(run.WORKLOADS)
