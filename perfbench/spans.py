"""Layer spans recorded from outside the program under test.

:func:`install` wraps the public functions of each layer at every
``repro.*`` module attribute (and class attribute) that binds them, so
no code under ``src/`` changes.  Spans stay in memory and are written
out once per process: the invocation's own process when ``main``
returns, each forked fleet worker when its serve loop ends.

A span record is ``[name, start, end, id, parent, extra]``; ``start``
and ``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC, so
comparable across the parent and its forked workers), ids are
``"<pid>:<n>"`` and ``extra`` holds per-call counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

class SpanStore:
    """This process's spans, in memory until :meth:`dump`."""

    def __init__(self, out_dir: str, invocation: int):
        self.out_dir = Path(out_dir)
        self.invocation = invocation
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.records: list = []
        self.stack: list = []
        self.fork_parent = None
        self._next = 0

    def open(self) -> str:
        self._next += 1
        span_id = f"{self.pid}:{self._next}"
        self.stack.append(span_id)
        return span_id

    def close(self, name: str, start: float, span_id: str,
              extra: dict) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else self.fork_parent
        self.records.append([name, start, time.perf_counter(), span_id,
                             parent, extra])

    def forked(self) -> None:
        """Start afresh in a forked worker, linked to the span that
        was open in the parent when it forked."""
        self.pid = os.getpid()
        self.fork_parent = self.stack[-1] if self.stack else None
        self.records, self.stack = [], []

    def dump(self) -> None:
        """Write this process's spans.  The invocation's own process
        then stamps the moment it starts to exit, so the benchmark can
        time interpreter teardown against its own clock."""
        role = "parent" if self.pid == self.root_pid else "worker"
        path = self.out_dir / f"{role}-{self.pid}.json"
        path.write_text(json.dumps({
            "pid": self.pid, "role": role, "invocation": self.invocation,
            "records": self.records}))
        if role == "parent":
            (self.out_dir / "exit.txt").write_text(repr(time.perf_counter()))


def timed(store: SpanStore, name: str, fn, note=None):
    """``fn`` wrapped to record one span per call; ``note(result, args)``
    returns the span's counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = store.open()
        start = time.perf_counter()
        extra = {}
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                extra = note(result, args)
            return result
        finally:
            store.close(name, start, span_id, extra)
    return wrapper


def rebind(original, wrapper) -> int:
    """Bind ``wrapper`` wherever a ``repro.*`` module binds ``original``."""
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                bound += 1
    return bound


def _payload_bytes(store: SpanStore):
    from multiprocessing.reduction import ForkingPickler

    def note(payload, args):
        if os.getpid() == store.root_pid:
            return {}  # inline: no pipe traffic
        item = args[0]
        message = (item.index, "ok", payload)
        return {"payload_bytes": len(ForkingPickler.dumps(message))}
    return note


def _check_run(run, args):
    extra = {"jobs": run.jobs}
    if run.stats is not None:
        extra.update(hits=run.stats.hits, misses=run.stats.misses,
                     stores=run.stats.stores)
    if run.supervision is not None:
        extra.update(retries=run.supervision.retried,
                     crashes=run.supervision.crashes)
    return extra


def install(store: SpanStore) -> None:
    """Wrap every layer function; raise if one cannot be found.

    A module first imported later binds the wrapper, because its
    ``from ... import`` reads the already patched defining module.
    """
    from repro.cfg.builder import build_cfg
    from repro.cfg.callgraph import emit_flowgraph
    from repro.checkers.base import _REGISTRY
    from repro.cli import main
    from repro.lang.lexer import Lexer
    from repro.lang.memo import parse_annotated
    from repro.lang.parser import parse
    from repro.lang.sema import annotate
    from repro.mc import parallel, supervisor
    from repro.mc.cache import FunctionSummaryStore, ResultCache
    from repro.mc.engine import run_machine
    from repro.mc.feasibility import FunctionFeasibility
    from repro.mc.ranking import score_run
    from repro.mc.report import run_to_json
    from repro.mc.summary import event_index, slice_for
    from repro.obs.ledger import RunLedger

    functions = [
        ("main", main, lambda code, args: {"exit": code}),
        ("check_files", parallel.check_files, _check_run),
        ("run_to_json", run_to_json, None),
        ("score_run", score_run, None),
        ("parse", parse, None),
        ("annotate", annotate, None),
        ("parse_annotated", parse_annotated, None),
        ("build_cfg", build_cfg, None),
        ("emit_flowgraph", emit_flowgraph, None),
        ("event_index", event_index, None),
        ("slice_for", slice_for, None),
        ("run_machine", run_machine, None),
        ("_run_items", parallel._run_items,
         lambda result, args: {"items": len(args[0])}),
        ("_execute_item", parallel._execute_item, _payload_bytes(store)),
        ("supervise_items", supervisor.supervise_items, None),
    ]
    for name, fn, note in functions:
        if not rebind(fn, timed(store, name, fn, note)):
            raise RuntimeError(f"{name} is bound by no repro module")

    worker_main = supervisor._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        store.forked()
        try:
            return timed(store, "_worker_main", worker_main)(*args, **kwargs)
        finally:
            store.dump()
    rebind(worker_main, traced_worker_main)

    methods = [
        ("Lexer.tokenize", Lexer, "tokenize",
         lambda tokens, args: {"tokens": len(tokens)}),
        ("FunctionSummaryStore.get", FunctionSummaryStore, "get",
         lambda summary, args: {"hit": int(summary is not None)}),
        ("FunctionFeasibility.__init__", FunctionFeasibility, "__init__",
         None),
        ("ResultCache.get", ResultCache, "get", None),
        ("ResultCache.put", ResultCache, "put", None),
        ("RunJournal._append", supervisor.RunJournal, "_append", None),
        ("RunLedger.append", RunLedger, "append", None),
    ]
    for checker_name, cls in _REGISTRY.items():
        methods.append((f"check:{checker_name}", cls, "check", None))
    # Look every method up before patching any: a checker that inherits
    # ``check`` must get the original, not a sibling's wrapper.
    originals = [getattr(cls, attr) for _, cls, attr, _ in methods]
    for (name, cls, attr, note), original in zip(methods, originals):
        setattr(cls, attr, timed(store, name, original, note))
