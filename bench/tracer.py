"""Spans around every call into the public functions of the mrk layers.

The tracer patches module attributes at run time, so ``src/mrk`` carries no
tracing code.  Every public function defined in one of the layer modules is
replaced, in every ``mrk`` module that holds a reference to it, by a wrapper
that records a span (name, start, end, parent, operation id).  Generator
functions are left alone: their work happens while the caller iterates, so
it counts toward the caller's span.

A few calls also carry counters (candidates tested, rules, scored keys,
negatives); those are read from arguments and results at the boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

LAYERS = ("graph", "miner", "rules", "predictor", "baselines", "evaluation", "cli")

# Span name, or failing that its layer, -> the per-layer time metric that
# receives the span's self time.  Spans matching neither (graph.collapse,
# predictor.read_scores_csv, ...) count only toward their layer's share.
TIME_METRICS = {
    "graph.load_graph": "graph.load_s",
    "miner": "miner.mine_s",
    "rules": "rules.build_s",
    "predictor.score_links": "predictor.score_links_s",
    "predictor.score_old_new": "predictor.score_old_new_s",
    "evaluation.split_random": "evaluation.split_s",
    "evaluation.split_from_graphs": "evaluation.split_s",
    "evaluation.load_temporal": "evaluation.split_s",
    "evaluation.candidates": "evaluation.candidates_s",
    "evaluation.roc_auc": "evaluation.auc_s",
    "evaluation.evaluate_old_new": "evaluation.auc_s",
    "evaluation.mann_whitney_auc": "evaluation.auc_s",
    "evaluation.pooled_auc": "evaluation.auc_s",
    "evaluation.summary_dict": "evaluation.auc_s",
    "baselines.ensemble": "baselines.ensemble_s",
    "baselines.classical_scores": "baselines.classical_s",
    "baselines.classical_on_multiplex": "baselines.classical_s",
    "baselines.sharma_scores": "baselines.sharma_s",
    "baselines.layer_cooccurrence": "baselines.sharma_s",
    "cli": "cli.self_s",
}

COUNT_METRICS = (
    "miner.candidates_tested", "miner.frequent",
    "rules.close", "rules.new_node",
    "predictor.scored_keys", "predictor.antecedents", "predictor.old_new_keys",
    "evaluation.negatives",
    "baselines.ensemble_keys",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int      # operation id shared by the spans of one timed operation


def _probe_mine(counts: Counter, call: Callable, *args, **kwargs):
    from mrk.miner import MiningStats

    sink = kwargs.get("stats")
    if sink is None:
        sink = kwargs["stats"] = MiningStats()
    out = call(*args, **kwargs)
    counts["miner.candidates_tested"] += sink.candidates_tested
    counts["miner.frequent"] += sum(sink.frequent_per_level)
    return out


def _probe_build_rules(counts: Counter, call: Callable, *args, **kwargs):
    out = call(*args, **kwargs)
    new = sum(1 for r in out if r.new_node)
    counts["rules.new_node"] += new
    counts["rules.close"] += len(out) - new
    return out


def _probe_score_links(counts: Counter, call: Callable, g, rules, *args, **kwargs):
    out = call(g, rules, *args, **kwargs)
    counts["predictor.antecedents"] += len(
        {r.antecedent.code for r in rules if not r.new_node}
    )
    counts["predictor.scored_keys"] += len(out.scores)
    return out


def _probe_score_old_new(counts: Counter, call: Callable, *args, **kwargs):
    out = call(*args, **kwargs)
    counts["predictor.old_new_keys"] += len(out.scores)
    return out


def _probe_candidates(counts: Counter, call: Callable, *args, **kwargs):
    out = call(*args, **kwargs)
    counts["evaluation.negatives"] += len(out)
    return out


def _probe_ensemble(counts: Counter, call: Callable, tables, keys, *args, **kwargs):
    keys = list(keys)
    counts["baselines.ensemble_keys"] += len(keys)
    return call(tables, keys, *args, **kwargs)


PROBES = {
    "miner.mine": _probe_mine,
    "rules.build_rules": _probe_build_rules,
    "predictor.score_links": _probe_score_links,
    "predictor.score_old_new": _probe_score_old_new,
    "evaluation.candidates": _probe_candidates,
    "baselines.ensemble": _probe_ensemble,
}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[tuple] = []  # (module, attribute, original)

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span under the current one around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(tracer.counts, fn, *args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public non-generator function of the layer modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layer_names = {f"mrk.{layer}" for layer in LAYERS}
        for name in layer_names:
            importlib.import_module(name)
        wrappers: Dict[int, Callable] = {}
        holders = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mrk" or name.startswith("mrk."))
        ]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if (
                    not inspect.isfunction(val)
                    or attr.startswith("_")
                    or val.__module__ not in layer_names
                    or val.__name__.startswith("_")
                    or inspect.isgeneratorfunction(val)
                ):
                    continue
                key = id(val)
                if key not in wrappers:
                    layer = val.__module__.rsplit(".", 1)[1]
                    wrappers[key] = self._wrap(f"{layer}.{val.__name__}", val)
                self._patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[key])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def nesting_errors(self) -> List[str]:
        """Spans that leave their parent's interval or have negative self time."""
        errs = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                errs.append(f"span {i} {s.name} ends before it starts")
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    errs.append(f"span {i} {s.name} leaves parent {p.name}")
        for i, st in enumerate(self.self_times()):
            if st < 0:
                errs.append(f"span {i} {self.spans[i].name} self time {st}")
        return errs

    def layer_self(self, op: Optional[int] = None) -> Dict[str, float]:
        """Self time per layer prefix (plus 'bench' for the benchmark's own)."""
        out: Dict[str, float] = {}
        for s, st in zip(self.spans, self.self_times()):
            if op is not None and s.op != op:
                continue
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st
        return out

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics: self times by TIME_METRICS, counts, ratios."""
        out: Dict[str, float] = {m: 0.0 for m in sorted(set(TIME_METRICS.values()))}
        for s, st in zip(self.spans, self.self_times()):
            m = TIME_METRICS.get(s.name) or TIME_METRICS.get(s.name.split(".")[0])
            if m is not None:
                out[m] += st
        for m in COUNT_METRICS:
            out[m] = int(self.counts.get(m, 0))
        tested = out["miner.candidates_tested"]
        out["miner.frequent_frac"] = out["miner.frequent"] / tested if tested else 0.0
        return out
