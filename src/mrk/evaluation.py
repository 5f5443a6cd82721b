"""Link-prediction evaluation: splits, negative candidates, ROC and AUC.

Splits keep their edges as name triples (src, dst, layer); undirected
graphs use the canonical orientation with src < dst.  Candidates and
scores are int64 keys of the split's link space (``EvalSplit.space``):
``candidates`` returns the negatives as a sorted key array, and
``roc_auc`` reads a table for positive and negative keys with
``ScoreTable.scores_for``, or takes scores already aligned with them,
as ``baselines.ensemble`` returns them for a fold's positives followed
by its negatives.  Scores for candidates a predictor never mentions are
imputed as 0.  A fold's scores are reduced once to :class:`ScoreGroups`,
from which its ROC, its rank AUC and the pooled AUC of several folds are
read.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set,
    Tuple, Union,
)

import numpy as np

from .errors import EvaluationError
from .graph import DIRECTIONS, KeySpace, MultiplexGraph, load_graph
from .predictor import OldNewScoreTable, ScoreTable

log = logging.getLogger(__name__)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0

Triple = Tuple[str, str, str]

CAT_OLD_OLD = "old-old"
CAT_OLD_NEW = "old-new"
CAT_NEW_NEW = "new-new"


@dataclass
class EvalSplit:
    """One train/test division of a multiplex graph.

    ``train`` is a full graph over the training edges; ``positives`` are
    the held-out edge units, categorized by whether their endpoints exist
    in the training graph.
    """

    train: MultiplexGraph
    positives: FrozenSet[Triple]
    categories: Dict[Triple, str]
    layer_universe: Tuple[str, ...]
    directed: bool
    fold: int = 0
    seed: Optional[int] = None

    @property
    def old_nodes(self) -> Tuple[str, ...]:
        return self.train.node_names

    @property
    def space(self) -> KeySpace:
        """Link space over the old nodes and the layer universe."""
        return KeySpace.links(self.old_nodes, self.layer_universe)

    def positives_of(self, category: str) -> List[Triple]:
        return sorted(
            t for t, c in self.categories.items() if c == category
        )

    def positive_keys(self) -> np.ndarray:
        """The old-old positives as sorted keys of :attr:`space`."""
        return self.space.encode(self.positives_of(CAT_OLD_OLD))


def _build_split(
    g: MultiplexGraph,
    train_units: Sequence[Triple],
    test_units: Iterable[Triple],
    fold: int,
    seed: Optional[int],
) -> EvalSplit:
    """A split training on ``train_units`` and holding out ``test_units``.

    Both are edge units as :meth:`MultiplexGraph.unit_triples` lists them,
    so an undirected unit already has ``src < dst`` and the positives are
    the test units as given.
    """
    attrs = g.attr_map()
    train = MultiplexGraph(train_units, attrs=attrs, directed=g.directed)
    positives = frozenset(test_units)
    cats: Dict[Triple, str] = {}
    for u, v, l in positives:
        known = train.has_node(u) + train.has_node(v)
        cats[(u, v, l)] = (CAT_NEW_NEW, CAT_OLD_NEW, CAT_OLD_OLD)[known]
    return EvalSplit(
        train=train,
        positives=positives,
        categories=cats,
        layer_universe=g.layer_names,
        directed=g.directed,
        fold=fold,
        seed=seed,
    )


def split_random(
    g: MultiplexGraph, folds: int = 10, seed: int = 0
) -> List[EvalSplit]:
    """Partition the edge units into ``folds`` disjoint test sets.

    Undirected graphs split on canonical pairs so both orientations of an
    edge leave the training graph together.  Folds differ in size by at
    most one unit.
    """
    if folds < 2:
        raise EvaluationError(f"need at least 2 folds, got {folds}")
    units = g.unit_triples()
    if len(units) < folds:
        raise EvaluationError(
            f"cannot make {folds} folds from {len(units)} edge units"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(units))
    splits = []
    for fold, idx in enumerate(np.array_split(perm, folds)):
        test_set = {units[i] for i in idx}
        train_units = [u for u in units if u not in test_set]
        splits.append(_build_split(g, train_units, test_set, fold, seed))
    return splits


def split_from_graphs(
    train_g: MultiplexGraph, test_g: MultiplexGraph
) -> EvalSplit:
    """Temporal split: positives are test edges absent from training.

    The layer universe is the union of both snapshots' layers.
    """
    if train_g.directed != test_g.directed:
        raise EvaluationError("train and test graphs disagree on directedness")
    train_units = train_g.unit_triples()
    known = set(train_units)
    test_units = [t for t in test_g.unit_triples() if t not in known]
    split = _build_split(train_g, train_units, test_units, 0, None)
    split.layer_universe = tuple(
        sorted(set(train_g.layer_names) | set(test_g.layer_names))
    )
    return split


def load_temporal(
    train_path: str,
    test_path: str,
    directed: bool = True,
    comune: bool = False,
    attr_path: Optional[str] = None,
) -> EvalSplit:
    train_g = load_graph(train_path, attr_path, directed=directed, comune=comune)
    test_g = load_graph(test_path, attr_path, directed=directed, comune=comune)
    return split_from_graphs(train_g, test_g)


# -- negative candidates ----------------------------------------------------


def candidates(
    split: EvalSplit,
    mode: str = "full",
    k: Optional[int] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Negative candidates: old-node pairs on any layer, known absent.

    ``full`` enumerates every (pair, layer) combination over the training
    node set that is neither a training edge nor a held-out positive.
    ``sampled`` draws ``k`` distinct such combinations uniformly; ``k``
    larger than the population falls back to full enumeration with a
    warning.  Either way the result is a sorted array of keys of
    ``split.space``.
    """
    if mode not in ("full", "sampled"):
        raise EvaluationError(f"unknown candidate mode {mode!r}")
    if mode == "sampled" and (k is None or k < 1):
        raise EvaluationError("sampled mode needs a positive sample size k")
    space, train = split.space, split.train
    n, _, nl = space.shape
    u, v, l = space.ids_from(train.arrays.keys, train.space)
    if not split.directed:
        unit = u < v  # one key per edge unit
        u, v, l = u[unit], v[unit], l[unit]
    excluded = np.concatenate([space.key(u, v, l), split.positive_keys()])
    pairs = n * (n - 1) if split.directed else n * (n - 1) // 2
    population = pairs * nl - len(excluded)
    if mode == "sampled" and k >= population:
        log.warning(
            "sample size %d covers the whole population of %d negatives; "
            "falling back to full enumeration", k, population,
        )
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        taken = set(excluded.tolist())
        out: List[int] = []
        while len(out) < k:
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            c = int(rng.integers(nl))
            if i == j:
                continue
            if not split.directed and i > j:
                i, j = j, i
            key = space.key(i, j, c)
            if key not in taken:
                taken.add(key)
                out.append(key)
        return np.sort(np.array(out, dtype=np.int64))
    allowed = np.ones(space.shape, dtype=bool)
    if split.directed:
        allowed[np.arange(n), np.arange(n)] = False
    else:
        allowed[np.tril_indices(n)] = False
    allowed = allowed.reshape(-1)
    allowed[excluded] = False
    return np.flatnonzero(allowed)


# -- ROC and AUC ------------------------------------------------------------


class ScoreGroups(NamedTuple):
    """Scored candidates reduced to their distinct scores.

    ``score`` holds the distinct scores in ascending order, all NaNs as
    one group after every number; ``pos`` and ``neg`` hold the positives
    and negatives at each score as int64 counts.  0.0 and -0.0 are one
    group, whose score is the zero that came last in the input, the
    threshold a stable descending sort puts at the group's end.
    """

    score: np.ndarray
    pos: np.ndarray
    neg: np.ndarray


def _group_starts(s: np.ndarray) -> np.ndarray:
    """First index of each tie group of ascending ``s`` (NaNs last, one
    group)."""
    new = np.empty(s.size, dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    new[1:] &= ~np.isnan(s[:-1])
    return np.flatnonzero(new)


def _groups(scores: np.ndarray, positives: np.ndarray) -> ScoreGroups:
    """Group ``scores`` by value, counting ``positives``, the scores of
    the positives among them, in their groups; the rest are negatives."""
    s = np.sort(scores)
    starts = _group_starts(s)
    score = s[starts]
    total = np.diff(np.append(starts, s.size))
    pos = np.bincount(score.searchsorted(positives), minlength=score.size)
    zero = score.searchsorted(0.0)
    if zero < score.size and score[zero] == 0.0:
        is_zero = scores == 0.0
        score[zero] = scores[scores.size - 1 - np.argmax(is_zero[::-1])]
    return ScoreGroups(score, pos, total - pos)


def _merge(groups: Sequence[ScoreGroups]) -> ScoreGroups:
    """One set of groups for several, with the counts of equal scores
    added."""
    score = np.concatenate([g.score for g in groups])
    order = np.argsort(score)
    s = score[order]
    starts = _group_starts(s)
    pos = np.concatenate([g.pos for g in groups])[order]
    neg = np.concatenate([g.neg for g in groups])[order]
    return ScoreGroups(s[starts], np.add.reduceat(pos, starts),
                       np.add.reduceat(neg, starts))


def _rank_auc(g: ScoreGroups) -> float:
    """U/(n_pos·n_neg) with U the exact integer Mann-Whitney count: each
    positive beats the negatives of lower groups and ties half of its
    own group's, NaNs ranking highest."""
    n_pos, n_neg = int(g.pos.sum()), int(g.neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs at least one positive and one negative")
    below = np.cumsum(g.neg) - g.neg
    two_u = int(np.dot(g.pos, 2 * below + g.neg))
    # Halving is exact, so this is the float the half-integer rank sum
    # gave; both are the correctly rounded quotient of the same rational.
    return two_u / (2 * n_pos * n_neg)


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC as the tie-corrected rank statistic.

    Equals the probability that a random positive outscores a random
    negative, ties counting half; all NaNs tie and rank above every
    number.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    return _rank_auc(_groups(scores, scores[labels]))


@dataclass
class EvalReport:
    """ROC area and the counts behind it.

    ``groups`` holds the fold's (score, positives, negatives) counts, from
    which :attr:`roc` reads the ROC points when asked, so several folds
    pool into one rank AUC by merging groups.  They are all a report
    keeps of its scores, and they stay out of the serialized form.
    """

    predictor: str
    auc: float
    n_pos: int
    n_neg: int
    groups: ScoreGroups = field(repr=False)
    fold: int = 0
    old_new: bool = False

    @property
    def roc(self) -> List[Tuple[float, float, float]]:
        """The ROC as (fpr, tpr, threshold) points (see :func:`_roc_points`)."""
        fpr, tpr, thr = _roc_points(self.groups)
        return list(zip(fpr.tolist(), tpr.tolist(), thr.tolist()))

    def to_dict(self) -> dict:
        return {
            "predictor": self.predictor,
            "auc": self.auc,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "fold": self.fold,
            "old_new": self.old_new,
        }

    def roc_csv(self) -> str:
        return roc_csv_text(self.roc)


def roc_csv_text(points: Sequence[Tuple[float, float, float]]) -> str:
    """A ROC CSV: a header, then one ``fpr,tpr,threshold`` row per point."""
    lines = ["fpr,tpr,threshold"]
    for fpr, tpr, thr in points:
        lines.append(f"{fpr!r},{tpr!r},{thr!r}")
    return "\n".join(lines) + "\n"


def _roc_points(g: ScoreGroups) -> Tuple[np.ndarray, ...]:
    """The fpr, tpr and threshold arrays of the ROC curve: (0, 0, inf),
    then one point per score group, descending, NaNs first.

    Tied scores collapse into a single point, giving the diagonal segment
    a random tie-break would average over.  Each point's rates are the
    cumulative integer counts divided once.
    """
    tp = np.cumsum(g.pos[::-1])
    fp = np.cumsum(g.neg[::-1])
    return (np.append(0.0, fp / fp[-1]), np.append(0.0, tp / tp[-1]),
            np.append(np.inf, g.score[::-1]))


def _report(
    scores: np.ndarray,
    n_pos: int,
    fold: int,
    predictor: str,
    old_new: bool = False,
) -> EvalReport:
    """The score groups of scores whose first ``n_pos`` are positives,
    and the trapezoid area of their ROC, the rank-statistic AUC up to
    rounding."""
    groups = _groups(scores, scores[:n_pos])
    fpr, tpr, _ = _roc_points(groups)
    return EvalReport(
        predictor=predictor,
        auc=float(_trapezoid(tpr, fpr)),
        n_pos=n_pos,
        n_neg=len(scores) - n_pos,
        groups=groups,
        fold=fold,
        old_new=old_new,
    )


def roc_auc(
    table: Union[ScoreTable, np.ndarray],
    split: EvalSplit,
    negatives: Optional[np.ndarray] = None,
    predictor: Optional[str] = None,
) -> EvalReport:
    """Evaluate link scores on one split.

    Positives are the split's held-out old-old edges (both endpoints known
    to the predictor); negatives are keys of ``split.space`` and default
    to the full candidate set.  ``table`` is a score table, read for the
    positives followed by the negatives, or the scores of exactly those
    keys in that order, which need a ``predictor`` name.
    """
    pos = split.positive_keys()
    if negatives is None:
        negatives = candidates(split, "full")
    neg = np.asarray(negatives, dtype=np.int64)
    if not len(pos) or not len(neg):
        raise EvaluationError(
            f"fold {split.fold}: need positives and negatives "
            f"(got {len(pos)} / {len(neg)})"
        )
    if isinstance(table, ScoreTable):
        predictor = predictor or table.scheme
        table = table.scores_for(np.concatenate([pos, neg]), split.space)
    scores = np.asarray(table, dtype=float)
    if scores.shape != (len(pos) + len(neg),):
        raise EvaluationError(
            f"fold {split.fold}: {scores.shape} scores for {len(pos)} "
            f"positives and {len(neg)} negatives"
        )
    if predictor is None:
        raise EvaluationError("scores without a table need a predictor name")
    return _report(scores, len(pos), split.fold, predictor)


def evaluate_old_new(
    table: OldNewScoreTable,
    split: EvalSplit,
    predictor: Optional[str] = None,
) -> EvalReport:
    """Evaluate new-neighbor prediction on one split.

    Each old-new positive reduces to its known endpoint: the slot
    (node, layer, direction) gains an edge to a node unseen in training.
    Negatives are all other slots over old nodes, layers, and directions.
    Slots are keys of the slot space over the old nodes and the layer
    universe.
    """
    space = KeySpace.slots(split.old_nodes, split.layer_universe)
    slots: Set[Tuple[str, str, str]] = set()
    for u, v, lay in split.positives_of(CAT_OLD_NEW):
        if split.train.has_node(u):
            old, direction = u, "out"
        else:
            old, direction = v, "in"
        if not split.directed:
            direction = "out"
        slots.add((old, lay, direction))
    if not slots:
        raise EvaluationError(
            f"fold {split.fold}: no old-new positives to evaluate"
        )
    pos = space.encode(sorted(slots))
    allowed = np.zeros(space.shape, dtype=bool)
    allowed[:, :, DIRECTIONS.index("out")] = True
    if split.directed:
        allowed[:, :, DIRECTIONS.index("in")] = True
    allowed = allowed.reshape(-1)
    allowed[pos] = False
    keys = np.concatenate([pos, np.flatnonzero(allowed)])
    return _report(table.scores_for(keys, space), len(pos), split.fold,
                   predictor or table.scheme, old_new=True)


def pooled_auc(reports: Sequence[EvalReport]) -> Optional[float]:
    """AUC of all folds' scored candidates thrown on one pile, from the
    folds' merged score groups."""
    if not reports:
        return None
    return _rank_auc(_merge([r.groups for r in reports]))


def summary_dict(reports: Sequence[EvalReport]) -> dict:
    """Cross-fold summary: per-fold AUCs, their mean (the headline
    number), spread, and the pooled-curve AUC."""
    aucs = [r.auc for r in reports]
    return {
        "predictor": reports[0].predictor if reports else "",
        "folds": len(reports),
        "auc_mean": float(np.mean(aucs)) if aucs else None,
        "auc_std": float(np.std(aucs)) if aucs else None,
        "auc_pooled": pooled_auc(reports),
        "per_fold": [r.to_dict() for r in reports],
    }
