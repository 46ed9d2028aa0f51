"""In-memory span tracer that times eqcheck's layers from outside the program.

Entry points are wrapped where they live as module attributes: every
`eqcheck.*` module that holds a reference to the same function object gets the
wrapper, so calls made through `from .x import f` aliases are traced too.
Spans nest strictly (the checker is single-threaded), so a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Several entry points may share one span
# name; a name is one layer metric.
SPANNED = (
    ("eqcheck.cli", "run", "cli.run"),
    ("eqcheck.cli", "render_human", "cli.render"),
    ("eqcheck.checker", "check_module", "checker.module"),
    ("eqcheck.checker", "build_decl_obligations", "checker.vcgen"),
    ("eqcheck.checker", "discharge", "checker.discharge"),
    ("eqcheck.checker", "_unused_hint_warnings", "checker.unused_hint"),
    ("eqcheck.parser", "parse_module", "parser.parse"),
    ("eqcheck.syntax", "desugar", "syntax.desugar"),
    ("eqcheck.types", "check_types", "types.sorts"),
    ("eqcheck.types", "check_refinement_wf", "types.refinement_wf"),
    ("eqcheck.wf", "check_totality", "wf.totality"),
    ("eqcheck.wf", "check_termination", "wf.termination"),
    ("eqcheck.logic", "entails", "logic.entails"),
    ("eqcheck.logic", "instantiate_axioms", "logic.saturate"),
    ("eqcheck.logic", "ple_saturate", "logic.saturate"),
)
# _Lia.entails calls _Lia.feasible; only the outermost call gets a span.
LIA_METHODS = ("feasible", "entails")
LIA_SPAN = "logic.lia"
ROOT_SPAN = "bench.input"

# Solver work counters read from the SolverState after each logic.entails.
STATE_COUNTERS = ("reflect", "measure", "merges", "dropped_or")


class Tracer:
    """Collects spans and counters while installed; `uninstall` restores
    every patched attribute."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span: [name id, start ns, end ns, parent index, input id, pass]
        self.spans: list[list[int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.input_id = -1
        self.pass_no = 0

    # -- span recording ------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, clock(), 0, stack[-1] if stack else -1,
                    self.input_id, self.pass_no]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _wrap_outermost(self, fn, name: str):
        nid = self._name_id(name)
        spanned = self._wrap(fn, name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == nid:
                return fn(*args, **kwargs)
            return spanned(*args, **kwargs)
        return traced

    def _count(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def root(self, fn, input_id: int):
        """Run fn() as the root span of one input."""
        self.input_id = input_id
        return self._wrap(fn, ROOT_SPAN)()

    # -- counters read at layer boundaries -------------------------------------
    def _after_entails(self, args, result) -> None:
        st = args[0]
        counts = self.counts
        counts["logic.entails_calls"] += 1
        for key in STATE_COUNTERS:
            counts["logic." + key] += st.stats[key]
        counts["logic.nodes"] += len(st.nodes)
        counts["logic.fuel_exhausted"] += int(st.fuel_exhausted)

    def _after_vcgen(self, args, result) -> None:
        self.counts["checker.obligations"] += len(result[0])

    def _after_discharge(self, args, result) -> None:
        self.counts["checker.discharges"] += 1

    # -- installation ------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eqcheck" or mod_name.startswith("eqcheck.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        after = {
            "logic.entails": self._after_entails,
            "checker.vcgen": self._after_vcgen,
            "checker.discharge": self._after_discharge,
        }
        for mod_name, attr, name in SPANNED:
            original = getattr(importlib.import_module(mod_name), attr)
            self._replace_everywhere(original, self._wrap(original, name, after.get(name)))
        wf = importlib.import_module("eqcheck.wf")
        self._replace_everywhere(
            wf.clause_leaves, self._count(wf.clause_leaves, "wf.clause_leaves_calls"))
        lia = importlib.import_module("eqcheck.logic")._Lia
        for method in LIA_METHODS:
            self._set(lia, method, self._wrap_outermost(getattr(lia, method), LIA_SPAN))
        self.counts.clear()

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------------
    def self_times(self, inputs=None) -> dict[str, float]:
        """Seconds of self time per span name, over spans whose input id is in
        `inputs` (all spans when None)."""
        spans = self.spans
        child = [0] * len(spans)
        for nid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (nid, start, end, _, input_id, _) in enumerate(spans):
            if inputs is None or input_id in inputs:
                out[self.names[nid]] += (end - start - child[i]) / 1e9
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Seconds per span name counting only outermost spans of that name
        (time including children)."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        for nid, start, end, parent, _, _ in spans:
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                out[self.names[nid]] += (end - start) / 1e9
        return dict(out)

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span:
        [name, start_ns, end_ns, parent_index, input_id, pass]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "span_fields": [
                "name", "start_ns", "end_ns", "parent", "input", "pass"]}) + "\n")
            names = self.names
            for nid, start, end, parent, input_id, pass_no in self.spans:
                fh.write(f'["{names[nid]}",{start},{end},{parent},{input_id},{pass_no}]\n')
