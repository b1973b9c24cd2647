"""Flow-graph emission, serialization, and call-graph linking."""

import os
import subprocess
import sys
from pathlib import Path

from repro.cfg import (
    CallGraph,
    FlowGraph,
    build_cfg,
    emit_flowgraph,
    load_flowgraph,
    write_flowgraph,
)
from repro.cfg.callgraph import FlowNode
from repro.lang import ast
from repro.lang.parser import parse

SRC = """
void leaf(void) { work(); }
void mid(void) { leaf(); leaf(); }
void top(void) { if (x) { mid(); } else { leaf(); } }
void self_rec(void) { if (x) { self_rec(); } }
void mutual_a(void) { mutual_b(); }
void mutual_b(void) { mutual_a(); }
"""


def make_callgraph():
    unit = parse(SRC)
    return CallGraph.from_cfgs(build_cfg(f) for f in unit.functions())


class TestEmission:
    def test_calls_recorded(self):
        unit = parse(SRC)
        graph = emit_flowgraph(build_cfg(unit.function("mid")))
        assert graph.callees() == {"leaf"}

    def test_lines_recorded(self):
        unit = parse("void f(void) {\n    g();\n}")
        graph = emit_flowgraph(build_cfg(unit.function("f")))
        lines = [ln for node in graph.nodes.values() for ln in node.lines]
        assert 2 in lines

    def test_annotation_hook(self):
        unit = parse(SRC)

        def annotate(event):
            calls = [n for n in event.walk()
                     if isinstance(n, ast.Call)]
            return {"ncalls": len(calls)} if calls else None

        graph = emit_flowgraph(build_cfg(unit.function("mid")),
                               annotate=annotate)
        annotations = [a for node in graph.nodes.values()
                       for a in node.annotations if a]
        assert all(a["ncalls"] == 1 for a in annotations)
        assert len(annotations) == 2

    def test_json_round_trip(self, tmp_path: Path):
        unit = parse(SRC)
        graph = emit_flowgraph(build_cfg(unit.function("top")))
        path = tmp_path / "top.flow"
        write_flowgraph(graph, path)
        loaded = load_flowgraph(path)
        assert loaded.function == "top"
        assert loaded.entry == graph.entry
        assert loaded.callees() == graph.callees()
        assert set(loaded.nodes) == set(graph.nodes)

    def test_callgraph_from_files(self, tmp_path: Path):
        unit = parse(SRC)
        paths = []
        for func in unit.functions():
            graph = emit_flowgraph(build_cfg(func))
            p = tmp_path / f"{func.name}.flow"
            write_flowgraph(graph, p)
            paths.append(p)
        cg = CallGraph.from_files(paths)
        assert cg.callees("top") == {"mid", "leaf"}


class TestCallGraphQueries:
    def test_callees(self):
        cg = make_callgraph()
        assert cg.callees("top") == {"mid", "leaf"}
        assert cg.callees("leaf") == set()

    def test_callers(self):
        cg = make_callgraph()
        assert cg.callers("leaf") == {"mid", "top"}

    def test_contains(self):
        cg = make_callgraph()
        assert "top" in cg
        assert "nonexistent" not in cg

    def test_self_recursion_detected(self):
        cg = make_callgraph()
        assert "self_rec" in cg.recursive_functions()

    def test_mutual_recursion_detected(self):
        cg = make_callgraph()
        rec = cg.recursive_functions()
        assert {"mutual_a", "mutual_b"} <= rec

    def test_non_recursive_not_flagged(self):
        cg = make_callgraph()
        rec = cg.recursive_functions()
        assert "top" not in rec and "leaf" not in rec

    def test_reachable_from(self):
        cg = make_callgraph()
        assert cg.reachable_from("top") == {"top", "mid", "leaf"}
        assert cg.reachable_from("missing") == set()

    def test_unknown_callee_ignored(self):
        # `work()` is not defined in the program; the call graph only
        # links defined functions.
        cg = make_callgraph()
        assert cg.callees("leaf") == set()

    def test_sccs_callees_first_and_sorted(self):
        cg = make_callgraph()
        sccs = cg.sccs()
        assert sorted(name for members in sccs for name in members) == \
            sorted(cg.graphs)
        assert ["mutual_a", "mutual_b"] in sccs
        position = {name: i for i, members in enumerate(sccs)
                    for name in members}
        for caller, callees in cg.edges.items():
            for callee in callees:
                assert position[callee] <= position[caller]

    def test_sccs_survive_call_chains_deeper_than_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 100
        cg = CallGraph(
            FlowGraph(function=f"f{i}", filename="chain.c", entry=0, exit=0,
                      nodes={0: FlowNode(index=0, calls=[f"f{i + 1}"])})
            for i in range(depth))
        sccs = cg.sccs()
        assert sccs[0] == [f"f{depth - 1}"] and sccs[-1] == ["f0"]
        assert cg.recursive_functions() == set()


def test_cli_import_leaves_networkx_unloaded():
    # The package has no third-party runtime dependencies.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"
