"""The benchmark's three workloads: seeded inputs, timed operations, checks.

Every workload is a batch job in a closed loop with one client: one
process, ``workers=1``, and each operation starts when the previous one
ends.  A workload's inputs come only from its seed.

* ``links-w1``: the missing-link task on a wide, shallow lattice (the
  criterion-4 graph).  Each antecedent has many embeddings, so the miner
  and the predictor each take about half of a fold.
* ``deep-w2``: a deep, narrow lattice (the criterion-5 graph).  4-slot
  patterns over 8 levels put most of a fold in the miner and rules;
  scoring and evaluation are nearly idle, so it is the control for changes
  to them.  New-node rules also go through ``score_old_new``.
* ``ensemble-wide``: ``mrk evaluate --predictor ensemble-base`` through the
  CLI on a directed graph twice the size of ``links-w1``, where the
  ensemble's per-key matrix, the classical indices and the n^2 * layers
  negative population dominate time and memory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Callable, Dict, List, Tuple

import numpy as np

from mrk import cli, evaluation, graph, miner, predictor, rules, synth
from mrk.miner import MinerConfig, MiningStats

import outputs

FOLDS = 10
_BACKBONE = ((1, 2), (3, 6), (5, 10), (4, 8, 12, 16))
_P_IN = (0.012, 0.020, 0.040, 0.15)


@dataclass
class OpResult:
    """What one timed operation produced, and what was wrong with it."""

    key: str                    # reference key, e.g. "fold03"
    summary: dict
    aucs: List[float]
    errors: List[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    setup: Callable[[int, str], object]            # (seed, workdir) -> state
    op: Callable[[object, int], Callable[[], object]]  # (state, i) -> timed call
    check: Callable[[object, int, object], OpResult]   # (state, i, output)
    n_ops: int                                      # distinct operations
    purpose: Callable[[Dict[str, float]], List[str]]  # layer shares -> failures


# -- independent checks -----------------------------------------------------


def _rank_auc(pos: np.ndarray, neg: np.ndarray, n_neg: int) -> float:
    """AUC of positive scores against negatives, unlisted negatives at 0.

    ``neg`` holds the scores of the negatives a table lists; the remaining
    ``n_neg - len(neg)`` negatives score 0.
    """
    neg = np.sort(np.concatenate([neg, np.zeros(n_neg - len(neg))]))
    lo = np.searchsorted(neg, pos, "left")
    hi = np.searchsorted(neg, pos, "right")
    return float((lo.sum() + 0.5 * (hi - lo).sum()) / (len(pos) * n_neg))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=outputs.REL_TOL, abs_tol=0.0)


def _check_patterns_rules(train, sigma, stats, patterns, rs) -> List[str]:
    errs = []
    low = [p.support for p in patterns if p.support < sigma]
    if low:
        errs.append(f"{len(low)} patterns below support {sigma}")
    if len(patterns) != sum(stats.frequent_per_level):
        errs.append("pattern count differs from the miner's frequent count")
    n = train.n_nodes
    for r in rs:
        conf = r.consequent.support / r.antecedent.support
        m = train.layer_edge_counts[train.layer_id(r.delta_edge[2])]
        lift = conf / (m / (n * (n - 1)))
        if not (_close(r.confidence, conf) and _close(r.lift, lift)):
            errs.append(f"rule confidence/lift off: {r!r}")
            break
    return errs


def _check_link_table(split, table, report, negatives) -> List[str]:
    train = split.train
    errs = []
    for (u, v, lay) in table.scores:
        if u >= v or train.has_edge(train.node_id(u), train.node_id(v),
                                    train.layer_id(lay)):
            errs.append(f"scored key {(u, v, lay)} is not a missing link")
            break
    n = train.n_nodes
    old_old = split.positives_of(evaluation.CAT_OLD_OLD)
    population = (n * (n - 1) // 2 * len(split.layer_universe)
                  - len(train.unit_triples()) - len(old_old))
    if len(negatives) != population:
        errs.append(f"{len(negatives)} negatives, expected {population}")
    pos_set = set(old_old)
    pos = np.array([table.scores.get(k, 0.0) for k in old_old])
    neg = np.array([s for k, s in table.scores.items() if k not in pos_set])
    auc = _rank_auc(pos, neg, len(negatives))
    if not _close(report.auc, auc):
        errs.append(f"AUC {report.auc!r} differs from rank AUC {auc!r}")
    return errs


# -- links-w1 and deep-w2: folds driven from the benchmark ------------------


@dataclass
class FoldState:
    splits: list
    sigma: int
    max_nodes: int
    old_new: bool


def _setup_folds(cfg: synth.SynthConfig, seed: int, workdir: str,
                 sigma: int, max_nodes: int, old_new: bool) -> FoldState:
    g = synth.generate(cfg)
    path = os.path.join(workdir, "input.edges")
    graph.write_edge_file(g, path)
    loaded = graph.load_graph(path, directed=False)
    if loaded != g:
        raise RuntimeError("edge file does not round-trip the generated graph")
    splits = evaluation.split_random(loaded, FOLDS, seed)
    return FoldState(splits, sigma, max_nodes, old_new)


def _fold_op(state: FoldState, i: int) -> Callable[[], object]:
    split = state.splits[i % FOLDS]

    def run():
        train = split.train
        stats = MiningStats()
        patterns = miner.mine(
            train, MinerConfig(state.sigma, state.max_nodes), stats=stats
        )
        rs = rules.build_rules(patterns, train)
        close = [r for r in rs if not r.new_node]
        table = predictor.score_links(train, close, "conf")
        negatives = evaluation.candidates(split, "full")
        report = evaluation.roc_auc(table, split, negatives)
        old_new = None
        if state.old_new:
            old_new = predictor.score_old_new(
                train, [r for r in rs if r.new_node], "conf"
            )
        return stats, patterns, rs, table, negatives, report, old_new

    return run


def _check_fold(state: FoldState, i: int, out) -> OpResult:
    stats, patterns, rs, table, negatives, report, old_new = out
    split = state.splits[i % FOLDS]
    errs = _check_patterns_rules(split.train, state.sigma, stats, patterns, rs)
    errs += _check_link_table(split, table, report, negatives)
    summary = {
        "patterns": outputs.patterns_summary(patterns),
        "rules": outputs.rules_summary(rs),
        "scores": outputs.table_summary(table.scores),
        "negatives": len(negatives),
        "positives": report.n_pos,
        "auc": report.auc,
    }
    if old_new is not None:
        summary["old_new_scores"] = outputs.table_summary(old_new.scores)
        known = set(split.train.node_names)
        if any(node not in known or d != "out" for node, _, d in old_new.scores):
            errs.append("old-new key names an unknown node or a direction")
    return OpResult(f"fold{i % FOLDS:02d}", summary, [report.auc], errs)


def _links_w1_config(seed: int) -> synth.SynthConfig:
    return synth.SynthConfig(
        layer_sizes=(200, 150, 100, 50), communities=2, p_in=_P_IN,
        p_out=0.001, backbone=_BACKBONE, seed=seed,
    )


def _deep_w2_config(seed: int) -> synth.SynthConfig:
    return synth.SynthConfig(
        layer_sizes=(120, 80), communities=2, p_in=0.006, p_out=0.001,
        backbone=((1,), (3,)), seed=seed,
    )


# -- ensemble-wide: the CLI end to end --------------------------------------


@dataclass
class CliState:
    edge_path: str
    workdir: str
    seed: int


ENSEMBLE_FOLDS = 3


def _setup_ensemble(seed: int, workdir: str) -> CliState:
    cfg = synth.SynthConfig(
        layer_sizes=(400, 300, 200, 100), communities=4, p_in=_P_IN,
        p_out=0.0005, backbone=_BACKBONE, seed=seed,
    )
    units = synth.generate(cfg).unit_triples()
    flip = np.random.default_rng((seed, 1)).random(len(units)) < 0.5
    path = os.path.join(workdir, "input.edges")
    with open(path, "w", encoding="utf-8") as fh:
        for (u, v, lay), f in zip(units, flip):
            fh.write(f"{v} {u} {lay}\n" if f else f"{u} {v} {lay}\n")
    return CliState(path, workdir, seed)


def _out_dir(state: CliState, i: int) -> str:
    return os.path.join(state.workdir, f"eval{i}")


def _ensemble_op(state: CliState, i: int) -> Callable[[], object]:
    argv = [
        "evaluate", "--input", state.edge_path, "--directed",
        "--predictor", "ensemble-base", "--max-size", "2",
        "--folds", str(ENSEMBLE_FOLDS), "--seed", str(state.seed),
        "--out-dir", _out_dir(state, i),
    ]

    def run():
        buf = StringIO()
        with redirect_stdout(buf):
            rc = cli.run(argv)
        return rc

    return run


def _roc_sketch(path: str) -> Tuple[dict, float, List[str]]:
    """ROC file summary, its trapezoid area, and shape errors."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [tuple(float(x) for x in row) for row in list(csv.reader(fh))[1:]]
    errs = []
    fpr = [r[0] for r in rows]
    tpr = [r[1] for r in rows]
    if fpr != sorted(fpr) or tpr != sorted(tpr) or rows[-1][:2] != (1.0, 1.0):
        errs.append(f"{os.path.basename(path)}: ROC is not a monotone curve to (1, 1)")
    area = math.fsum((fpr[k + 1] - fpr[k]) * (tpr[k + 1] + tpr[k]) / 2.0
                     for k in range(len(rows) - 1))
    thr = [r[2] for r in rows if math.isfinite(r[2])]
    sketch = {
        "points": len(rows),
        "fpr_sum": math.fsum(fpr),
        "tpr_sum": math.fsum(tpr),
        "threshold_sum": math.fsum(thr),
    }
    return sketch, area, errs


def _check_ensemble(state: CliState, i: int, rc) -> OpResult:
    out = _out_dir(state, i)
    key = "evaluate"
    if rc != 0:
        return OpResult(key, {}, [], [f"mrk evaluate exited with {rc}"])
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    errs = []
    for path, digest in manifest["outputs"].items():
        with open(path, "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if actual != digest:
            errs.append(f"manifest digest of {os.path.basename(path)} is stale")
    folds = []
    for rec in summary["per_fold"]:
        sketch, area, roc_errs = _roc_sketch(
            os.path.join(out, f"roc_fold{rec['fold']:02d}.csv")
        )
        errs += roc_errs
        if not _close(rec["auc"], area):
            errs.append(f"fold {rec['fold']}: AUC {rec['auc']!r} != ROC area {area!r}")
        folds.append({"auc": rec["auc"], "n_pos": rec["n_pos"],
                      "n_neg": rec["n_neg"], "roc": sketch})
    aucs = [f["auc"] for f in folds]
    if len(folds) != ENSEMBLE_FOLDS:
        errs.append(f"{len(folds)} folds reported, expected {ENSEMBLE_FOLDS}")
    elif not _close(summary["auc_mean"], math.fsum(aucs) / len(aucs)):
        errs.append("auc_mean is not the mean of the fold AUCs")
    shutil.rmtree(out)
    return OpResult(key, {"folds": folds, "auc_pooled": summary["auc_pooled"]},
                    aucs, errs)


# -- registry ---------------------------------------------------------------


def _at_least(share: Dict[str, float], layers, bound) -> List[str]:
    s = sum(share.get(l, 0.0) for l in layers)
    return [] if s >= bound else [f"{'+'.join(layers)} {s:.1%} < {bound:.0%}"]


def _at_most(share: Dict[str, float], layers, bound) -> List[str]:
    s = sum(share.get(l, 0.0) for l in layers)
    return [] if s <= bound else [f"{'+'.join(layers)} {s:.1%} > {bound:.0%}"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "links-w1",
            lambda seed, d: _setup_folds(_links_w1_config(seed), seed, d, 38, 3, False),
            _fold_op, _check_fold, FOLDS,
            lambda sh: _at_least(sh, ("miner", "predictor"), 0.80),
        ),
        Workload(
            "deep-w2",
            lambda seed, d: _setup_folds(_deep_w2_config(seed), seed, d, 60, 4, True),
            _fold_op, _check_fold, FOLDS,
            lambda sh: (_at_least(sh, ("miner", "rules"), 0.60)
                        + _at_most(sh, ("predictor",), 0.25)),
        ),
        Workload(
            "ensemble-wide",
            _setup_ensemble, _ensemble_op, _check_ensemble, 1,
            lambda sh: (_at_least(sh, ("baselines", "evaluation"), 0.70)
                        + _at_most(sh, ("miner",), 0.05)),
        ),
    )
}
