"""Per-layer metrics from the spans of traced invocations.

Each metric names the layer it measures and the end-to-end metric and
workload it should move (``moves``), written down before any change
claims a gain.  ``BENCHMARK.json``'s ``per_layer`` list is this table
without the last two columns.
"""

from __future__ import annotations

import json
from pathlib import Path

BUILTIN_CHECKERS = ("buffer-race", "msg-length", "buffer-mgmt", "lanes",
                    "exec-restrict", "no-float", "alloc-fail", "directory",
                    "send-wait", "table-audit")

#: (name, unit, better, layer, moves)
LAYER_METRICS = [
    ("cli.import_s", "s", "lower", "cli", "check_s_p50@edit_recheck"),
    ("cli.outside_check_s", "s", "lower", "cli", "check_s_p50@edit_recheck"),
    ("cli.render_s", "s", "lower", "cli", "check_s_p50@edit_recheck"),
    ("cli.exit_s", "s", "lower", "cli", "check_s_p50@edit_recheck"),
    ("lang.lex_s", "s", "lower", "lang", "kloc_per_s@cold_serial"),
    ("lang.parse_s", "s", "lower", "lang", "kloc_per_s@cold_serial"),
    ("lang.sema_s", "s", "lower", "lang", "kloc_per_s@cold_serial"),
    ("lang.tokens", "count", "lower", "lang", "kloc_per_s@cold_serial"),
    ("lang.tokens_per_s", "1/s", "higher", "lang", "kloc_per_s@cold_serial"),
    ("lang.units_parsed", "count", "lower", "lang",
     "check_s_p50@edit_recheck"),
    ("lang.memo_hits", "count", "higher", "lang", "check_s_p50@edit_recheck"),
    ("cfg.build_s", "s", "lower", "cfg", "kloc_per_s@cold_serial"),
    ("cfg.cfgs_built", "count", "lower", "cfg", "kloc_per_s@cold_serial"),
    ("cfg.flowgraph_s", "s", "lower", "cfg", "kloc_per_s@cold_serial"),
    ("cfg.flowgraphs", "count", "lower", "cfg", "kloc_per_s@cold_serial"),
    ("summary.index_s", "s", "lower", "mc.summary", "kloc_per_s@cold_serial"),
    ("summary.slice_s", "s", "lower", "mc.summary", "kloc_per_s@cold_serial"),
    ("summary.slices", "count", "lower", "mc.summary",
     "kloc_per_s@cold_serial"),
    ("engine.walk_s", "s", "lower", "mc.engine", "kloc_per_s@cold_serial"),
    ("engine.machine_runs", "count", "lower", "mc.engine",
     "kloc_per_s@cold_serial"),
    ("engine.summary_lookups", "count", "lower", "mc.engine",
     "kloc_per_s@cold_serial"),
    ("engine.summary_hits", "count", "higher", "mc.engine",
     "kloc_per_s@cold_serial"),
    ("feasibility.setup_s", "s", "lower", "mc.engine",
     "kloc_per_s@cold_serial"),
    *[(f"checkers.{name}.self_s", "s", "lower", "checkers",
       "kloc_per_s@cold_serial,check_s_p50@edit_recheck"
       if name in ("lanes", "exec-restrict") else "kloc_per_s@cold_serial")
      for name in BUILTIN_CHECKERS],
    ("fleet.items", "count", "lower", "mc.parallel", "check_s_p50@edit_recheck"),
    ("fleet.items_executed", "count", "lower", "mc.parallel",
     "check_s_p50@edit_recheck"),
    ("fleet.dispatch_s", "s", "lower", "mc.parallel",
     "check_s_p50@edit_recheck,check_s_tail@edit_recheck"),
    ("fleet.busy_frac", "ratio", "higher", "mc.parallel",
     "check_s_p50@edit_recheck"),
    ("fleet.tail_s", "s", "lower", "mc.parallel", "check_s_tail@edit_recheck"),
    ("fleet.payload_bytes", "bytes", "lower", "mc.supervisor",
     "check_s_p50@edit_recheck"),
    ("fleet.retries", "count", "lower", "mc.supervisor",
     "check_s_tail@edit_recheck"),
    ("fleet.crashes", "count", "lower", "mc.supervisor",
     "check_s_tail@edit_recheck"),
    ("cache.hits", "count", "higher", "mc.cache", "check_s_p50@edit_recheck"),
    ("cache.misses", "count", "lower", "mc.cache", "check_s_p50@edit_recheck"),
    ("cache.stores", "count", "lower", "mc.cache", "check_s_p50@edit_recheck"),
    ("cache.get_s", "s", "lower", "mc.cache", "check_s_p50@edit_recheck"),
    ("cache.put_s", "s", "lower", "mc.cache", "check_s_p50@edit_recheck"),
    ("cache.dir_bytes", "bytes", "lower", "mc.cache",
     "check_s_p50@edit_recheck"),
    ("journal.append_s", "s", "lower", "mc.cache", "check_s_p50@edit_recheck"),
    ("ledger.append_s", "s", "lower", "mc.cache", "check_s_p50@edit_recheck"),
    ("trace.unattributed_frac", "ratio", "lower", "trace", "none"),
    ("trace.overhead_frac", "ratio", "lower", "trace", "none"),
    ("failed_frac", "ratio", "lower", "verdicts", "none"),
    ("phantom_reports", "count", "lower", "verdicts", "none"),
    ("missed_reports", "count", "lower", "verdicts", "none"),
]

#: A traced invocation may leave at most this share of its wall outside
#: every layer (interpreter start-up, installing and writing the spans)
#: before the run fails.
UNATTRIBUTED_MARGIN = 0.05

_COMMON = ("cli.import", "main", "check_files", "run_to_json", "score_run",
           "_run_items", "_execute_item", "Lexer.tokenize", "parse",
           "annotate", "parse_annotated", "build_cfg", "emit_flowgraph",
           "event_index", "slice_for", "run_machine",
           "FunctionSummaryStore.get", "FunctionFeasibility.__init__",
           *[f"check:{name}" for name in BUILTIN_CHECKERS])

#: Wrapped functions that must run at least once on each workload; a
#: rename in the program would otherwise read as a layer of zero cost.
REQUIRED_SPANS = {
    "cold_serial": _COMMON,
    "edit_recheck": (*_COMMON, "supervise_items", "_worker_main",
                     "ResultCache.get", "ResultCache.put",
                     "RunJournal._append", "RunLedger.append"),
}

_RENDER = ("run_to_json", "score_run")


def load_spans(spans_dir: Path) -> tuple:
    """``(span files, exit stamp)`` of one traced invocation."""
    files = [json.loads(path.read_text())
             for path in sorted(spans_dir.glob("*.json"))]
    return files, float((spans_dir / "exit.txt").read_text())


def _union_length(intervals: list) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class InvocationLayers:
    """Per-layer sums of one traced invocation.

    ``wall_s`` is the invocation's subprocess wall and ``exited_s`` the
    time from its exit stamp until the benchmark reaped it: interpreter
    teardown, booked to ``cli.exit_s``.
    """

    def __init__(self, files: list, wall_s: float, exited_s: float):
        self.wall_s = wall_s
        self.exited_s = exited_s
        self.values: dict = {}
        self.names: set = set()
        spans = []
        for doc in files:
            for name, start, end, span_id, parent, extra in doc["records"]:
                spans.append((name, start, end, span_id, parent, extra,
                              doc["role"]))
        by_id = {s[3]: s for s in spans}
        child_time: dict = {}
        for name, start, end, span_id, parent, extra, role in spans:
            # Children in another process ran in parallel: not subtracted.
            if parent in by_id and parent.split(":")[0] == span_id.split(":")[0]:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        self._spans = spans
        self._by_id = by_id
        self._self = {s[3]: s[2] - s[1] - child_time.get(s[3], 0.0)
                      for s in spans}
        self._compute()

    def _total(self, name: str, own: bool = False) -> float:
        return sum(self._self[s[3]] if own else s[2] - s[1]
                   for s in self._spans if s[0] == name)

    def _count(self, name: str) -> int:
        return sum(1 for s in self._spans if s[0] == name)

    def _extra(self, name: str, key: str) -> int:
        return sum(s[5].get(key, 0) for s in self._spans if s[0] == name)

    def _compute(self) -> None:
        spans = self._spans
        self.names = {s[0] for s in spans}
        v = self.values
        one = {s[0]: s for s in spans if s[6] == "parent"}
        main, check = one.get("main"), one.get("check_files")
        main_s = main[2] - main[1] if main else 0.0
        check_s = check[2] - check[1] if check else 0.0
        v["cli.outside_check_s"] = main_s - check_s
        v["cli.exit_s"] = self.exited_s
        v["cli.render_s"] = sum(
            s[2] - s[1] for s in spans if s[0] in _RENDER
            and (self._by_id.get(s[4]) or ("",))[0] not in _RENDER)
        v["lang.lex_s"] = self._total("Lexer.tokenize")
        v["lang.parse_s"] = self._total("parse", own=True)
        v["lang.sema_s"] = self._total("annotate", own=True)
        v["lang.tokens"] = self._extra("Lexer.tokenize", "tokens")
        parsed = {s[4] for s in spans if s[0] == "parse"}
        memo = [s for s in spans if s[0] == "parse_annotated"]
        v["lang.units_parsed"] = sum(1 for s in memo if s[3] in parsed)
        v["lang.memo_hits"] = sum(1 for s in memo if s[3] not in parsed)
        v["cfg.build_s"] = self._total("build_cfg", own=True)
        v["cfg.cfgs_built"] = self._count("build_cfg")
        v["cfg.flowgraph_s"] = self._total("emit_flowgraph", own=True)
        v["cfg.flowgraphs"] = self._count("emit_flowgraph")
        v["summary.index_s"] = self._total("event_index", own=True)
        v["summary.slice_s"] = self._total("slice_for", own=True)
        v["summary.slices"] = self._count("slice_for")
        v["engine.walk_s"] = self._total("run_machine", own=True)
        v["engine.machine_runs"] = self._count("run_machine")
        v["engine.summary_lookups"] = self._count("FunctionSummaryStore.get")
        v["engine.summary_hits"] = self._extra("FunctionSummaryStore.get",
                                               "hit")
        v["feasibility.setup_s"] = self._total("FunctionFeasibility.__init__",
                                               own=True)
        for name in BUILTIN_CHECKERS:
            v[f"checkers.{name}.self_s"] = self._total(f"check:{name}",
                                                       own=True)
        items = [s for s in spans if s[0] == "_execute_item"]
        v["fleet.items"] = self._extra("_run_items", "items")
        v["fleet.items_executed"] = len(items)
        covered = _union_length([(max(s[1], check[1]), min(s[2], check[2]))
                                 for s in items if check
                                 and s[2] > check[1] and s[1] < check[2]])
        v["fleet.dispatch_s"] = check_s - covered
        self.busy_s = sum(s[2] - s[1] for s in items)
        self.capacity_s = (check[5].get("jobs", 1) if check else 1) * check_s
        ends = sorted(s[2] for s in items)
        v["fleet.tail_s"] = ends[-1] - ends[-2] if len(ends) > 1 else 0.0
        v["fleet.payload_bytes"] = self._extra("_execute_item",
                                               "payload_bytes")
        run = check[5] if check else {}
        v["fleet.retries"] = run.get("retries", 0)
        v["fleet.crashes"] = run.get("crashes", 0)
        v["cache.hits"] = run.get("hits", 0)
        v["cache.misses"] = run.get("misses", 0)
        v["cache.stores"] = run.get("stores", 0)
        v["cache.get_s"] = self._total("ResultCache.get")
        v["cache.put_s"] = self._total("ResultCache.put")
        v["journal.append_s"] = self._total("RunJournal._append")
        v["ledger.append_s"] = self._total("RunLedger.append")
        attributed = sum(self._self[s[3]] for s in spans if s[6] == "parent")
        self.unattributed_s = self.wall_s - attributed - self.exited_s


def aggregate(invocations: list) -> dict:
    """Per-invocation means of the layer sums, plus the run-wide ratios."""
    n = max(1, len(invocations))
    keys = invocations[0].values if invocations else {}
    values = {key: sum(inv.values[key] for inv in invocations) / n
              for key in keys}
    lex = values.get("lang.lex_s", 0.0)
    values["lang.tokens_per_s"] = values.get("lang.tokens", 0) / lex \
        if lex else 0.0
    capacity = sum(inv.capacity_s for inv in invocations)
    values["fleet.busy_frac"] = (sum(inv.busy_s for inv in invocations)
                                 / capacity if capacity else 0.0)
    wall = sum(inv.wall_s for inv in invocations)
    values["trace.unattributed_frac"] = (
        sum(inv.unattributed_s for inv in invocations) / wall
        if wall else 0.0)
    return values


def coverage_problems(workload: str, invocations: list) -> list:
    """Wrapped functions that never ran where their layer works."""
    seen = set().union(*(inv.names for inv in invocations)) \
        if invocations else set()
    return [f"coverage: {name} was never called on {workload}"
            for name in REQUIRED_SPANS[workload] if name not in seen]
