"""Reference link predictors: layer co-occurrence, classical indices, ensembles.

All baselines operate on unordered node pairs.  The co-occurrence predictor
works on the multiplex structure directly; the classical indices work on the
layer-collapsed simple graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import MrkError
from .evaluation import mann_whitney_auc
from .graph import MultiplexGraph, SimpleGraph, collapse
from .predictor import ScoreTable

CLASSICAL_METHODS = ("cn", "aa", "ra", "pa", "ja")


@dataclass
class LayerCooccurrence:
    """Conditional pair-overlap between layers.

    ``prob[i, j]`` estimates the probability that a pair linked on layer i
    is also linked on layer j, as the overlap ratio of the layers' pair
    sets.  Rows of empty layers are zero.
    """

    layer_names: Tuple[str, ...]
    prob: np.ndarray
    pair_sets: List[Set[Tuple[int, int]]]


def _layer_pairs(g: MultiplexGraph) -> List[Set[Tuple[int, int]]]:
    """Pair set per layer: ordered pairs when directed, canonical else."""
    sets: List[Set[Tuple[int, int]]] = [set() for _ in range(g.n_layers)]
    for u, v, l in g.edges:
        if g.directed:
            sets[l].add((u, v))
        else:
            sets[l].add((u, v) if u < v else (v, u))
    return sets


def layer_cooccurrence(g: MultiplexGraph) -> LayerCooccurrence:
    pairs = _layer_pairs(g)
    nl = g.n_layers
    prob = np.zeros((nl, nl))
    for i in range(nl):
        if not pairs[i]:
            continue
        for j in range(nl):
            prob[i, j] = len(pairs[i] & pairs[j]) / len(pairs[i])
    return LayerCooccurrence(g.layer_names, prob, pairs)


def sharma_scores(g: MultiplexGraph) -> ScoreTable:
    """Score each absent (pair, layer) by summed co-occurrence evidence.

    A pair linked on some layers scores, for every layer it lacks, the sum
    over its linked layers of the probability that links there co-occur
    with links on the target layer.  Pairs linked nowhere score nothing.
    """
    co = layer_cooccurrence(g)
    linked: Dict[Tuple[int, int], List[int]] = {}
    for l, pset in enumerate(co.pair_sets):
        for pair in pset:
            linked.setdefault(pair, []).append(l)
    nn, ln = g.node_names, g.layer_names
    scores: Dict[Tuple, float] = {}
    for (u, v), present in linked.items():
        absent = [l for l in range(g.n_layers) if l not in present]
        for tgt in absent:
            s = sum(co.prob[src, tgt] for src in present)
            scores[(nn[u], nn[v], ln[tgt])] = float(s)
    return ScoreTable("sharma", scores)


def classical_scores(sg: SimpleGraph, method: str) -> ScoreTable:
    """Neighborhood index over all non-adjacent pairs of the simple graph.

    cn: common neighbors.  aa: sum of 1/ln(degree) over common neighbors,
    skipping degree-1 neighbors.  ra: sum of 1/degree.  pa: degree product.
    ja: Jaccard overlap of neighborhoods (empty union scores 0).
    """
    if method not in CLASSICAL_METHODS:
        raise MrkError(
            f"unknown classical method {method!r}; "
            f"expected one of {', '.join(CLASSICAL_METHODS)}"
        )
    n = sg.n_nodes
    nn = sg.node_names
    adj = sg.adj
    scores: Dict[Tuple, float] = {}
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if v in au:
                continue
            av = adj[v]
            if method == "cn":
                s = float(len(au & av))
            elif method == "aa":
                s = sum(1.0 / math.log(len(adj[z])) for z in au & av
                        if len(adj[z]) > 1)
            elif method == "ra":
                s = sum(1.0 / len(adj[z]) for z in au & av)
            elif method == "pa":
                s = float(len(au) * len(av))
            else:  # ja
                union = len(au | av)
                s = len(au & av) / union if union else 0.0
            scores[(nn[u], nn[v])] = float(s)
    return ScoreTable(method, scores)


def classical_on_multiplex(g: MultiplexGraph, method: str) -> ScoreTable:
    """Convenience wrapper: collapse, then score."""
    return classical_scores(collapse(g), method)


# -- ensemble ---------------------------------------------------------------

_T0 = 1.0
_T_MIN = 1e-3
_COOLING = 0.95
_STEP = 0.1


def _zscore_columns(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    out = np.zeros_like(x)
    nz = sd > 0
    out[:, nz] = (x[:, nz] - mu[nz]) / sd[nz]
    return out


def ensemble(
    tables: Sequence[ScoreTable],
    candidate_keys: Sequence[Tuple],
    truth: Iterable[Tuple],
    mode: str = "base",
    seed: int = 0,
) -> ScoreTable:
    """Combine predictors by weighted sums of z-normalized scores.

    Missing candidate scores are imputed as 0 before normalization, so
    every table covers the same key list.  ``base`` sums with equal
    weights.  ``over`` anneals the weight vector against AUC on the given
    truth labels: geometric cooling, single-weight Gaussian proposals,
    Metropolis acceptance, best weights kept; each single-predictor basis
    vector and the equal-weight vector are also evaluated, so the result
    never falls below them on the training labels.
    """
    if mode not in ("base", "over"):
        raise MrkError(f"unknown ensemble mode {mode!r}")
    if len(tables) < 2:
        raise MrkError("ensemble needs at least two score tables")
    keys = list(candidate_keys)
    x = np.stack([t.scores_for(keys) for t in tables], axis=1)
    z = _zscore_columns(x)
    nm = len(tables)

    if mode == "base":
        weights = np.ones(nm)
    else:
        truth_set = set(truth)
        labels = np.array([k in truth_set for k in keys], dtype=bool)
        if not labels.any() or labels.all():
            raise MrkError(
                "ensemble optimization needs both positive and negative keys"
            )

        def auc_of(w: np.ndarray) -> float:
            return mann_whitney_auc(z @ w, labels)

        rng = np.random.default_rng(seed)
        cur = np.ones(nm)
        cur_auc = auc_of(cur)
        best, best_auc = cur.copy(), cur_auc
        t = _T0
        while t > _T_MIN:
            cand = cur.copy()
            i = int(rng.integers(nm))
            cand[i] += rng.normal(0.0, _STEP)
            cand_auc = auc_of(cand)
            delta = cand_auc - cur_auc
            if delta >= 0 or rng.random() < math.exp(delta / t):
                cur, cur_auc = cand, cand_auc
                if cur_auc > best_auc:
                    best, best_auc = cur.copy(), cur_auc
            t *= _COOLING
        for i in range(nm):
            basis = np.zeros(nm)
            basis[i] = 1.0
            a = auc_of(basis)
            if a > best_auc:
                best, best_auc = basis, a
        weights = best

    combined = z @ weights
    scores = {k: float(s) for k, s in zip(keys, combined)}
    return ScoreTable(f"ensemble-{mode}", scores)
