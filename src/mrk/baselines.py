"""Reference link predictors: layer co-occurrence, classical indices, ensembles.

All baselines operate on unordered node pairs.  The co-occurrence predictor
works on the multiplex structure directly; the classical indices work on the
layer-collapsed simple graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple, Union

import numpy as np

from .errors import MrkError
from .evaluation import mann_whitney_auc
from .graph import KeySpace, MultiplexGraph, SimpleGraph, collapse
from . import predictor
from .predictor import ScoreTable

CLASSICAL_METHODS = ("cn", "aa", "ra", "pa", "ja")


@dataclass
class LayerCooccurrence:
    """Conditional pair-overlap between layers.

    ``pairs`` holds the node pairs linked on some layer as ascending
    ``space.pair`` keys (ordered pairs when directed, u < v else), and
    ``present[i, l]`` says whether pair i is linked on layer l.
    ``prob[i, j]`` estimates the probability that a pair linked on layer i
    is also linked on layer j, as the overlap ratio of the layers' pair
    sets.  Rows of empty layers are zero.
    """

    layer_names: Tuple[str, ...]
    prob: np.ndarray
    pairs: np.ndarray
    present: np.ndarray


def layer_cooccurrence(g: MultiplexGraph) -> LayerCooccurrence:
    u, v, l = g.space.ids(g.arrays.keys)
    if not g.directed:
        unit = u < v  # one key per edge unit
        u, v, l = u[unit], v[unit], l[unit]
    pairs, row = np.unique(g.space.pair(u, v), return_inverse=True)
    present = np.zeros((len(pairs), g.n_layers), dtype=bool)
    present[row, l] = True
    counts = present.astype(np.int64)
    overlap = counts.T @ counts  # exact integers, so each ratio is too
    size = overlap.diagonal()[:, None]
    prob = np.divide(overlap, size, out=np.zeros(overlap.shape),
                     where=size > 0)
    return LayerCooccurrence(g.layer_names, prob, pairs, present)


def sharma_scores(g: MultiplexGraph) -> ScoreTable:
    """Score each absent (pair, layer) by summed co-occurrence evidence.

    A pair linked on some layers scores, for every layer it lacks, the sum
    over its linked layers of the probability that links there co-occur
    with links on the target layer.  Pairs linked nowhere score nothing.
    The sums add the source layers in ascending order.
    """
    co = layer_cooccurrence(g)
    s = np.zeros(co.present.shape)
    for src in range(g.n_layers):
        s += co.present[:, src, None] * co.prob[src]
    absent = ~co.present
    row, tgt = np.nonzero(absent)
    u, v = np.divmod(co.pairs[row], g.n_nodes)
    return ScoreTable("sharma", g.space, g.space.key(u, v, tgt), s[absent])


def _two_hop_pairs(edges: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b), a < b, of two neighbours of one node, once per
    common neighbour.

    Each node's sorted neighbour list is expanded into its pairs, as the
    miner's join expands a CSR row.
    """
    u = np.concatenate([edges[:, 0], edges[:, 1]])
    v = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((v, u))
    nbr = v[order]
    row_end = np.cumsum(np.bincount(u, minlength=n))[u[order]]
    cnt = row_end - np.arange(len(nbr)) - 1  # later neighbours in the row
    first = np.repeat(np.arange(len(nbr)), cnt)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return nbr[first], nbr[second]


def classical_scores(
    sg: SimpleGraph, method: Union[str, Sequence[str]]
) -> Union[ScoreTable, List[ScoreTable]]:
    """Neighborhood index over all non-adjacent pairs of the simple graph.

    cn: common neighbors.  aa: sum of 1/ln(degree) over common neighbors,
    skipping degree-1 neighbors.  ra: sum of 1/degree.  pa: degree product.
    ja: Jaccard overlap of neighborhoods (empty union scores 0).  The
    table holds one pair key (u < v) per non-adjacent pair.

    ``method`` names one index, which is returned as a table, or is a
    sequence of names, returned as a list of tables in that order.  The
    indices of one call share the pair set, the common-neighbour counts
    and the neighbourhood intersections, and each table equals the one
    its own call returns.

    cn, pa and ja are integer counts and one division, so they are
    computed over arrays.  aa and ra add floats in the iteration order of
    the adjacency-set intersection, which fixes their rounding, so they
    keep that Python sum, over the pairs with a common neighbour only.
    """
    methods = [method] if isinstance(method, str) else list(method)
    for m in methods:
        if m not in CLASSICAL_METHODS:
            raise MrkError(
                f"unknown classical method {m!r}; "
                f"expected one of {', '.join(CLASSICAL_METHODS)}"
            )
    n, space = sg.n_nodes, KeySpace.links(sg.node_names, ())
    edges = np.array(sorted(sg.edges), dtype=np.int64).reshape(-1, 2)
    deg = np.bincount(edges.ravel(), minlength=n)
    u, v = np.triu_indices(n, 1)
    pairs = space.pair(u, v)
    apart = ~np.isin(pairs, space.pair(edges[:, 0], edges[:, 1]))
    pairs, u, v = pairs[apart], u[apart], v[apart]
    hop, counts = np.unique(space.pair(*_two_hop_pairs(edges, n)),
                            return_counts=True)
    at = pairs.searchsorted(hop)
    near = pairs.take(at, mode="clip") == hop  # drops adjacent pairs
    at = at[near]
    cn = np.zeros(len(pairs))
    cn[at] = counts[near]
    common: List[Set[int]] = []
    if "aa" in methods or "ra" in methods:
        adj = sg.adj
        common = [adj[a] & adj[b]
                  for a, b in zip(u[at].tolist(), v[at].tolist())]

    def index(m: str) -> np.ndarray:
        if m == "cn":
            return cn
        if m == "pa":
            return (deg[u] * deg[v]).astype(float)
        if m == "ja":
            union = deg[u] + deg[v] - cn
            return np.divide(cn, union, out=np.zeros(len(pairs)),
                             where=union > 0)
        if m == "aa":
            w = [1.0 / math.log(d) if d > 1 else 0.0 for d in deg.tolist()]
        else:  # ra
            w = [1.0 / d if d else 0.0 for d in deg.tolist()]
        s = np.zeros(len(pairs))
        s[at] = [sum(w[z] for z in c) for c in common]
        return s

    tables = [ScoreTable(m, space, pair_keys=pairs, pair_values=index(m))
              for m in methods]
    return tables[0] if isinstance(method, str) else tables


def classical_on_multiplex(
    g: MultiplexGraph, method: Union[str, Sequence[str]]
) -> Union[ScoreTable, List[ScoreTable]]:
    """Convenience wrapper: collapse once, then score one index or each of
    a sequence of them (see :func:`classical_scores`)."""
    return classical_scores(collapse(g), method)


# -- ensemble ---------------------------------------------------------------

_T0 = 1.0
_T_MIN = 1e-3
_COOLING = 0.95
_STEP = 0.1


def _column_stats(fill, n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The column means and standard deviations of an (n, m) float
    matrix, n >= 1 and m >= 2, that is read in blocks: ``fill(out, lo)``
    writes its rows ``lo:lo + len(out)`` into ``out``.

    The result is bitwise numpy's ``x.mean(axis=0)`` and ``x.std(axis=0)``
    for the matrix ``x`` as one C-ordered array: numpy reduces axis 0 of
    such an array row by row (it sums a single column pairwise, which
    rounds differently), so two passes add the blocks in row order,
    :data:`~mrk.predictor.CHUNK_ROWS` rows at a time, through one buffer
    whose row 0 carries the running sum.  The first pass sums the rows
    (numpy alone sums the first block, so the sum starts as numpy's does)
    and divides by n; the second sums the squared deviations from that
    mean and divides by n under a square root, as numpy's ``_var`` does.
    """
    chunk = predictor.CHUNK_ROWS
    buf = np.zeros((min(n, chunk) + 1, m))
    for lo in range(0, n, chunk):
        rows = buf[:min(chunk, n - lo) + 1]
        fill(rows[1:], lo)
        buf[0] = np.add.reduce(rows if lo else rows[1:], axis=0)
    mean = buf[0] / n
    buf[0] = 0.0
    for lo in range(0, n, chunk):
        rows = buf[:min(chunk, n - lo) + 1]
        dev = rows[1:]
        fill(dev, lo)
        dev -= mean
        np.multiply(dev, dev, out=dev)
        buf[0] = np.add.reduce(rows, axis=0)
    return mean, np.sqrt(buf[0] / n)


def _normalise(x: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> None:
    """Z-normalise the rows ``x`` in place by column statistics; columns
    without spread become 0."""
    flat = ~(sd > 0)
    x -= mean
    x /= np.where(flat, 1.0, sd)
    x[:, flat] = 0.0


def ensemble(
    tables: Sequence[ScoreTable],
    candidate_keys: Sequence[int],
    truth: Iterable[int],
    space: KeySpace,
    mode: str = "base",
    seed: int = 0,
) -> np.ndarray:
    """Combine predictors by weighted sums of z-normalized scores.

    ``candidate_keys`` and ``truth`` are keys of ``space``.  Returns the
    combined scores as a float array aligned with ``candidate_keys``, which
    :func:`evaluation.roc_auc` takes as it is when the keys are a fold's
    positives followed by its negatives.  Missing candidate scores are
    imputed as 0 before normalization, so every table covers the same key
    list.  Both modes look the tables up once (:meth:`ScoreTable.lookup`),
    which keeps an int32 position per key and group of tables; its fill
    then writes any row block of the C-ordered (keys, tables) score
    matrix.  Both take the column statistics from one
    :func:`_column_stats` call over that fill, two streamed passes over
    blocks of :data:`~mrk.predictor.CHUNK_ROWS` rows: the column sums,
    then the squared deviations.  Every result is bitwise that of the
    whole matrix z-normalised by numpy's ``mean`` and ``std`` and
    multiplied by the weights, with at least two tables, as
    :func:`_column_stats` needs.

    ``base`` sums with equal weights in a third streamed pass: each block
    filled again, normalised (:func:`_normalise`) and multiplied into its
    rows of the result.  So no (keys, tables) array exists: the call holds
    a few int32 and float64 columns over the keys.

    ``over`` anneals the weight vector against AUC on the given truth
    labels: geometric cooling, single-weight Gaussian proposals,
    Metropolis acceptance, best weights kept; each single-predictor basis
    vector and the equal-weight vector are also evaluated, so the result
    never falls below them on the training labels, which it checks hold
    both classes before any lookup.  It reads the normalised matrix at
    every step, so it holds that matrix: one fill of all rows, normalised
    in place by :func:`_normalise`, after which the lookup is dropped.

    Both modes get the combined scores from BLAS products (``np.dot``, ``@``).
    With 8 or more tables their rounding can depend on how OpenBLAS splits
    the rows between threads, so the result may differ in the last bits
    across thread counts; ``mrk evaluate`` always combines 7 tables.
    """
    if mode not in ("base", "over"):
        raise MrkError(f"unknown ensemble mode {mode!r}")
    if len(tables) < 2:
        raise MrkError("ensemble needs at least two score tables")
    keys = np.asarray(candidate_keys, dtype=np.int64)
    n, nm = len(keys), len(tables)
    if mode == "over":
        labels = np.isin(keys, np.fromiter(truth, dtype=np.int64))
        if not labels.any() or labels.all():
            raise MrkError(
                "ensemble optimization needs both positive and negative keys"
            )
    if not n:
        return np.empty(0)
    look = ScoreTable.lookup(tables, keys, space)
    mean, sd = _column_stats(look.fill, n, nm)
    if mode == "base":
        scores = np.empty(n)
        # numpy hands a one-row product to a dot kernel that rounds unlike
        # BLAS's gemv, so a lone last row joins the block before it: each
        # row's sum then has the bits it has in one product over all rows.
        chunk = predictor.CHUNK_ROWS
        cuts = list(range(0, n, chunk)) + [n]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
            del cuts[-2]
        ones = np.ones(nm)
        buf = np.empty((min(n, chunk + 1), nm))
        for lo, hi in zip(cuts, cuts[1:]):
            block = look.fill(buf[:hi - lo], lo)
            _normalise(block, mean, sd)
            np.dot(block, ones, out=scores[lo:hi])
        return scores
    z = look.fill(np.empty((n, nm)))
    del look  # the anneal reads z alone
    _normalise(z, mean, sd)

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
    return z @ best
