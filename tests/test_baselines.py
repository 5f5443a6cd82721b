"""Co-occurrence, classical indices, and ensemble combination."""

import math
from collections import defaultdict

import numpy as np
import pytest

from mrk.baselines import (
    CLASSICAL_METHODS,
    classical_on_multiplex,
    classical_scores,
    ensemble,
    layer_cooccurrence,
    sharma_scores,
)
from mrk.errors import MrkError
from mrk.evaluation import mann_whitney_auc
from mrk.graph import MultiplexGraph, collapse
from mrk.predictor import ScoreTable
from tests.conftest import rand_host


# -- layer co-occurrence ----------------------------------------------------


def test_cooccurrence_identical_layers():
    g = MultiplexGraph(
        [("1", "2", "a"), ("3", "4", "a"), ("1", "2", "b"), ("3", "4", "b")],
        directed=False,
    )
    co = layer_cooccurrence(g)
    assert np.allclose(co.prob, 1.0)


def test_cooccurrence_disjoint_layers():
    g = MultiplexGraph(
        [("1", "2", "a"), ("3", "4", "b")], directed=False
    )
    co = layer_cooccurrence(g)
    assert np.allclose(co.prob, np.eye(2))


def test_cooccurrence_partial_overlap():
    g = MultiplexGraph(
        [
            ("1", "2", "a"), ("3", "4", "a"),
            ("1", "2", "b"),
        ],
        directed=False,
    )
    co = layer_cooccurrence(g)
    a, b = co.layer_names.index("a"), co.layer_names.index("b")
    assert co.prob[a, b] == pytest.approx(0.5)
    assert co.prob[b, a] == pytest.approx(1.0)


def test_cooccurrence_directed_uses_ordered_pairs():
    g = MultiplexGraph(
        [("1", "2", "a"), ("2", "1", "b")], directed=True
    )
    co = layer_cooccurrence(g)
    assert np.allclose(co.prob, np.eye(2))


def name_pair_sets(g):
    pairs = defaultdict(set)
    for u, v, l in g.name_triples():
        if g.directed:
            pairs[l].add((u, v))
        else:
            pairs[l].add((min(u, v), max(u, v)))
    return pairs


def test_cooccurrence_matches_set_arithmetic(rng):
    for directed in (True, False):
        g = rand_host(rng, 16, 3, 50, directed=directed)
        co = layer_cooccurrence(g)
        pairs = name_pair_sets(g)
        for i, li in enumerate(co.layer_names):
            for j, lj in enumerate(co.layer_names):
                want = len(pairs[li] & pairs[lj]) / len(pairs[li])
                assert co.prob[i, j] == pytest.approx(want)


# -- cross-layer pair scoring -----------------------------------------------


def test_sharma_worked_example():
    g = MultiplexGraph(
        [
            ("1", "2", "a"), ("3", "4", "a"),
            ("1", "2", "b"),
            ("3", "4", "c"),
        ],
        directed=False,
    )
    t = sharma_scores(g)
    assert t.scores == {
        ("1", "2", "c"): pytest.approx(0.5),
        ("3", "4", "b"): pytest.approx(0.5),
    }


def test_sharma_keeps_zero_scores():
    # A pair linked elsewhere is a candidate on every layer it lacks, even
    # when the co-occurrence evidence sums to zero.
    g = MultiplexGraph(
        [("1", "2", "a"), ("3", "4", "b")], directed=False
    )
    t = sharma_scores(g)
    assert t.scores == {("1", "2", "b"): 0.0, ("3", "4", "a"): 0.0}


def test_sharma_single_layer_empty():
    g = MultiplexGraph([("1", "2", "a")], directed=False)
    assert sharma_scores(g).scores == {}


def test_sharma_key_set_is_exact(rng):
    for directed in (True, False):
        g = rand_host(rng, 14, 3, 44, directed=directed)
        t = sharma_scores(g)
        pairs = name_pair_sets(g)
        expected = set()
        for lay, pset in pairs.items():
            for u, v in pset:
                for other in g.layer_names:
                    if (u, v) not in pairs[other]:
                        expected.add((u, v, other))
        assert set(t.scores) == expected


def test_sharma_matches_direct_sum(rng):
    g = rand_host(rng, 14, 3, 44, directed=True)
    t = sharma_scores(g)
    pairs = name_pair_sets(g)
    names = list(g.layer_names)
    for (u, v, tgt), got in t.scores.items():
        present = [l for l in names if (u, v) in pairs[l]]
        want = sum(
            len(pairs[src] & pairs[tgt]) / len(pairs[src]) for src in present
        )
        assert got == pytest.approx(want)
        assert tgt not in present and present


# -- classical indices ------------------------------------------------------


def path_graph():
    return MultiplexGraph(
        [("1", "2", "x"), ("2", "3", "x")], directed=False
    )


def test_classical_path_scores():
    g = path_graph()
    key = ("1", "3")
    assert classical_on_multiplex(g, "cn").scores[key] == 1.0
    assert classical_on_multiplex(g, "aa").scores[key] == pytest.approx(
        1.0 / math.log(2)
    )
    assert classical_on_multiplex(g, "ra").scores[key] == pytest.approx(0.5)
    assert classical_on_multiplex(g, "pa").scores[key] == 1.0
    assert classical_on_multiplex(g, "ja").scores[key] == 1.0


def test_classical_star_scores():
    star = MultiplexGraph(
        [("0", str(i), "x") for i in range(1, 5)], directed=False
    )
    for m, want in [
        ("cn", 1.0),
        ("aa", 1.0 / math.log(4)),
        ("ra", 0.25),
        ("pa", 1.0),
        ("ja", 1.0),
    ]:
        t = classical_on_multiplex(star, m)
        assert len(t.scores) == 6
        assert all(s == pytest.approx(want) for s in t.scores.values())


def test_ja_isolated_pair_scores_zero():
    g = MultiplexGraph(
        [("1", "2", "x")], directed=False, extra_nodes=["8", "9"]
    )
    t = classical_on_multiplex(g, "ja")
    assert t.scores[("8", "9")] == 0.0


def test_classical_unknown_method():
    with pytest.raises(MrkError):
        classical_scores(collapse(path_graph()), "katz")


def test_classical_matches_set_arithmetic(rng):
    g = rand_host(rng, 30, 3, 120, directed=True)
    nbrs = defaultdict(set)
    for u, v, _ in g.name_triples():
        nbrs[u].add(v)
        nbrs[v].add(u)
    names = g.node_names

    def expect(method):
        out = {}
        for i, u in enumerate(names):
            for v in names[i + 1:]:
                if v in nbrs[u]:
                    continue
                common = nbrs[u] & nbrs[v]
                if method == "cn":
                    s = float(len(common))
                elif method == "aa":
                    s = sum(1.0 / math.log(len(nbrs[z])) for z in common
                            if len(nbrs[z]) > 1)
                elif method == "ra":
                    s = sum(1.0 / len(nbrs[z]) for z in common)
                elif method == "pa":
                    s = float(len(nbrs[u]) * len(nbrs[v]))
                else:
                    union = len(nbrs[u] | nbrs[v])
                    s = len(common) / union if union else 0.0
                out[(u, v)] = s
        return out

    for method in CLASSICAL_METHODS:
        got = classical_on_multiplex(g, method).scores
        want = expect(method)
        assert set(got) == set(want)
        for k in got:
            assert got[k] == pytest.approx(want[k])


def test_classical_covers_every_nonadjacent_pair(rng):
    g = rand_host(rng, 12, 2, 26, directed=False)
    sg = collapse(g)
    t = classical_scores(sg, "cn")
    n = sg.n_nodes
    assert len(t.scores) == n * (n - 1) // 2 - sg.n_edges
    for u, v in t.scores:
        assert u < v


# -- ensemble ---------------------------------------------------------------


def synthetic_tables(seed=7, n=80, n_pos=25):
    rng = np.random.default_rng(seed)
    keys = [(f"u{i:02d}", f"v{i:02d}") for i in range(n)]
    order = rng.permutation(n)
    truth = {keys[i] for i in order[:n_pos]}
    labels = np.array([k in truth for k in keys])
    good = ScoreTable(
        "good",
        {
            k: float(lab) * 2.0 + rng.normal(0, 0.8)
            for k, lab in zip(keys, labels)
        },
    )
    noise = ScoreTable(
        "noise", {k: float(rng.normal()) for k in keys}
    )
    return keys, truth, labels, good, noise


def test_ensemble_base_preserves_single_table_ranking():
    keys, truth, labels, good, _ = synthetic_tables()
    comb = ensemble([good, good], keys, truth, mode="base")
    raw = good.scores_for(keys).tolist()
    got = [comb.scores[k] for k in keys]
    assert np.argsort(raw).tolist() == np.argsort(got).tolist()
    assert comb.scheme == "ensemble-base"


def test_ensemble_zero_variance_table_contributes_nothing():
    keys, truth, labels, good, _ = synthetic_tables()
    flat = ScoreTable("flat", {k: 3.25 for k in keys})
    with_flat = ensemble([good, flat], keys, truth, mode="base")
    alone = ensemble([good, good], keys, truth, mode="base")
    a = np.array([with_flat.scores[k] for k in keys])
    b = np.array([alone.scores[k] for k in keys]) / 2.0
    assert np.allclose(a, b)


def test_ensemble_over_beats_parts():
    keys, truth, labels, good, noise = synthetic_tables()
    base = ensemble([good, noise], keys, truth, mode="base")
    over = ensemble([good, noise], keys, truth, mode="over", seed=3)

    def auc(table):
        return mann_whitney_auc(
            np.array([table.scores[k] for k in keys]), labels
        )

    individuals = []
    for t in (good, noise):
        individuals.append(
            mann_whitney_auc(t.scores_for(keys), labels)
        )
    assert auc(over) >= max(individuals) - 1e-12
    assert auc(over) >= auc(base) - 1e-12


def test_ensemble_over_deterministic():
    keys, truth, labels, good, noise = synthetic_tables()
    a = ensemble([good, noise], keys, truth, mode="over", seed=11)
    b = ensemble([good, noise], keys, truth, mode="over", seed=11)
    assert a.scores == b.scores


def test_ensemble_validation():
    keys, truth, labels, good, noise = synthetic_tables()
    with pytest.raises(MrkError):
        ensemble([good, noise], keys, truth, mode="magic")
    with pytest.raises(MrkError):
        ensemble([good], keys, truth, mode="base")
    with pytest.raises(MrkError):
        ensemble([good, noise], keys, set(), mode="over")
    with pytest.raises(MrkError):
        ensemble([good, noise], keys, set(keys), mode="over")


def _lookup(table, key):
    """Per-key score: the exact key, else its canonical pair, else 0."""
    if key in table.scores:
        return table.scores[key]
    return table.scores.get(tuple(sorted(key[:2])), 0.0)


def test_ensemble_matches_per_key_oracle():
    rng = np.random.default_rng(5)
    nodes = [f"n{i}" for i in range(9)]
    keys = [(u, v, lay) for lay in ("a", "b") for u in nodes for v in nodes
            if u != v]
    pairs = sorted({tuple(sorted(k[:2])) for k in keys})

    def some(items, frac):
        picked = rng.random(len(items)) < frac
        return {k: float(rng.integers(0, 4)) for k, p in zip(items, picked)
                if p}

    extra = {("n0", "zz", "a"): 9.0}  # a key outside the list
    tables = [
        ScoreTable("pairs", some(pairs, 0.6)),
        ScoreTable("triples", {**some(keys, 0.3), **extra}),
        ScoreTable("mixed", {**some(pairs, 0.4), **some(keys, 0.2)}),
        ScoreTable("empty", {}),
    ]
    truth = {k for k in keys if rng.random() < 0.2}
    x = np.array([[_lookup(t, k) for t in tables] for k in keys], dtype=float)
    mu, sd = x.mean(axis=0), x.std(axis=0)
    z = np.zeros_like(x)
    nz = sd > 0
    z[:, nz] = (x[:, nz] - mu[nz]) / sd[nz]
    base = ensemble(tables, keys, truth, mode="base")
    assert [base.scores[k] for k in keys] == (z @ np.ones(len(tables))).tolist()
    # The oracle matrix as exact-key tables must give the same annealing.
    dense = [ScoreTable(t.scheme, dict(zip(keys, x[:, j].tolist())))
             for j, t in enumerate(tables)]
    over = ensemble(tables, keys, truth, mode="over", seed=2)
    want = ensemble(dense, keys, truth, mode="over", seed=2)
    assert over.scores == want.scores


def test_ensemble_imputes_missing_scores():
    keys = [("a", "b"), ("c", "d"), ("e", "f")]
    partial = ScoreTable("p", {("a", "b"): 5.0})
    other = ScoreTable("q", {k: 1.0 * i for i, k in enumerate(keys)})
    comb = ensemble([partial, other], keys, {keys[0]}, mode="base")
    assert set(comb.scores) == set(keys)
