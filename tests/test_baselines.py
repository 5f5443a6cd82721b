"""Co-occurrence, classical indices, and ensemble combination."""

import math
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np
import pytest

from mrk import baselines, predictor
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
from mrk.graph import KeySpace, MultiplexGraph, collapse
from mrk.predictor import ScoreTable
from mrk.synth import SynthConfig, generate
from tests.conftest import (
    adversarial_host,
    oracle_classical,
    oracle_lookup,
    oracle_sharma,
    rand_host,
)


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


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n_attrs", [1, 2, 3])
def test_sharma_arrays_match_pair_set_oracle(rng, directed, n_attrs):
    # The key-array co-occurrence and scores equal the pair-set sums bit
    # for bit: keys, values and prob.  Six layers let sums of three or
    # more terms show their order.
    hosts = [adversarial_host(rng, directed, n_attrs) for _ in range(4)]
    hosts.append(rand_host(rng, 20, 6, 400, directed))
    for g in hosts:
        prob, want = oracle_sharma(g)
        assert layer_cooccurrence(g).prob.tobytes() == prob.tobytes()
        t = sharma_scores(g)
        keys = sorted(want)
        assert t.keys.tolist() == keys
        assert t.values.tobytes() == np.array(
            [want[k] for k in keys], dtype=np.float64).tobytes()


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


def test_classical_matches_set_oracle_bit_for_bit(rng):
    # aa and ra add floats in the adjacency sets' iteration order; a
    # 400-node host has enough multi-neighbour pairs for any other order
    # to round some sum differently.
    wide = generate(SynthConfig(
        layer_sizes=(400, 300, 200, 100), communities=4,
        p_in=(0.012, 0.020, 0.040, 0.15), p_out=0.0005,
        backbone=((1, 2), (3, 6), (5, 10), (4, 8, 12, 16)), seed=0,
    ))
    odd = MultiplexGraph(
        [("a%b", "c|d", "x::y"), ("c|d", "e,f", "x::y"), ("e,f", "g>h", "q"),
         ("g>h", "a%b", "q"), ("i:j", "k;l", "q"), ("m=n", "o::p", "x::y"),
         ("o::p", "a%b", "q"), ("k;l", "c|d", "x::y")],
        directed=True, extra_nodes=["iso::1", "iso2"],
    )
    for g in (wide, odd, rand_host(rng, 30, 3, 120, directed=False)):
        sg = collapse(g)
        for method in CLASSICAL_METHODS:
            assert classical_scores(sg, method).scores == oracle_classical(
                sg, method), method


def test_classical_tables_of_one_call_equal_separate_calls(rng):
    # One call for several indices shares the pair set, the two-hop
    # counts and the intersections; every table must be bitwise the one
    # its own call builds, in the order asked for.
    wide = generate(SynthConfig(
        layer_sizes=(200, 150, 100), communities=4,
        p_in=(0.03, 0.05, 0.1), p_out=0.002, backbone=(1, 2), seed=3,
    ))
    hosts = [wide, rand_host(rng, 30, 3, 120, directed=True),
             rand_host(rng, 9, 2, 4, directed=False),
             MultiplexGraph([], extra_nodes=["a", "b", "c"])]
    orders = [CLASSICAL_METHODS, CLASSICAL_METHODS[::-1], ("ra", "cn"),
              ("ja",), ()]
    for g in hosts:
        for methods in orders:
            got = classical_on_multiplex(g, methods)
            assert isinstance(got, list) and len(got) == len(methods)
            for m, t in zip(methods, got):
                want = classical_on_multiplex(g, m)
                assert t.scheme == m
                assert t.space == want.space
                for part in ("keys", "values", "pair_keys", "pair_values"):
                    a, b = getattr(t, part), getattr(want, part)
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes(), (m, part)
    with pytest.raises(MrkError, match="katz"):
        classical_on_multiplex(wide, ("cn", "katz"))


# -- ensemble ---------------------------------------------------------------


def synthetic_tables(seed=7, n=80, n_pos=25):
    rng = np.random.default_rng(seed)
    links = [(f"u{i:02d}", f"v{i:02d}", "x") for i in range(n)]
    order = rng.permutation(n)
    truth = {links[i] for i in order[:n_pos]}
    labels = np.array([k in truth for k in links])
    good = ScoreTable.from_scores(
        "good",
        {
            k: float(lab) * 2.0 + rng.normal(0, 0.8)
            for k, lab in zip(links, labels)
        },
    )
    noise = ScoreTable.from_scores(
        "noise", {k: float(rng.normal()) for k in links}
    )
    space = good.space
    keys = space.encode(links)
    return keys, space.encode(sorted(truth)), labels, good, noise, space


def test_ensemble_base_preserves_single_table_ranking():
    keys, truth, labels, good, _, space = synthetic_tables()
    comb = ensemble([good, good], keys, truth, space, mode="base")
    raw = good.scores_for(keys, space).tolist()
    assert comb.dtype == float and comb.shape == keys.shape
    assert np.argsort(raw).tolist() == np.argsort(comb).tolist()


def test_ensemble_zero_variance_table_contributes_nothing():
    keys, truth, labels, good, _, space = synthetic_tables()
    flat = ScoreTable.from_scores(
        "flat", {k: 3.25 for k in space.decode(keys)})
    with_flat = ensemble([good, flat], keys, truth, space, mode="base")
    alone = ensemble([good, good], keys, truth, space, mode="base")
    assert np.allclose(with_flat, alone / 2.0)


def test_ensemble_over_beats_parts():
    keys, truth, labels, good, noise, space = synthetic_tables()
    base = ensemble([good, noise], keys, truth, space, mode="base")
    over = ensemble([good, noise], keys, truth, space, mode="over", seed=3)

    def auc(scores):
        return mann_whitney_auc(scores, labels)

    individuals = []
    for t in (good, noise):
        individuals.append(
            mann_whitney_auc(t.scores_for(keys, space), labels)
        )
    assert auc(over) >= max(individuals) - 1e-12
    assert auc(over) >= auc(base) - 1e-12


def test_ensemble_over_deterministic():
    keys, truth, labels, good, noise, space = synthetic_tables()
    a = ensemble([good, noise], keys, truth, space, mode="over", seed=11)
    b = ensemble([good, noise], keys, truth, space, mode="over", seed=11)
    assert a.tolist() == b.tolist()


def test_ensemble_validation():
    keys, truth, labels, good, noise, space = synthetic_tables()
    with pytest.raises(MrkError):
        ensemble([good, noise], keys, truth, space, mode="magic")
    with pytest.raises(MrkError):
        ensemble([good], keys, truth, space, mode="base")
    with pytest.raises(MrkError):
        ensemble([good, noise], keys, set(), space, mode="over")
    with pytest.raises(MrkError):
        ensemble([good, noise], keys, keys, space, mode="over")


def _zscore_reference(x: np.ndarray) -> None:
    """Z-normalisation over numpy's own ``mean`` and ``std``, as the
    ensemble was first written."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    flat = ~(sd > 0)
    x -= mu
    x /= np.where(flat, 1.0, sd)
    x[:, flat] = 0.0


def _zscore_streamed(x: np.ndarray) -> None:
    """The ensemble's normalisation of ``x`` in place: statistics from
    :func:`baselines._column_stats` over blocks read from ``x``, then
    :func:`baselines._normalise`."""
    n, m = x.shape
    stats = baselines._column_stats(
        lambda out, lo: np.copyto(out, x[lo:lo + len(out)]), n, m)
    baselines._normalise(x, *stats)


@pytest.mark.parametrize("rows", [5, None])
def test_column_stats_and_normalise_are_bitwise_numpy_zscore(monkeypatch,
                                                             rows):
    if rows is not None:
        monkeypatch.setattr(predictor, "CHUNK_ROWS", rows)
    chunk = predictor.CHUNK_ROWS
    rng = np.random.default_rng(11)
    for m in range(2, 9):
        for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            # Per column, a spread and an offset from 1e-8 to 1e8.
            x = (rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 9, m)
                 + rng.normal(size=m) * 10.0 ** rng.integers(-8, 9, m))
            x[:, 0] = 0.1  # constant
            if m > 2:
                x[:, m - 1] = 0.0
            want = x.copy()
            _zscore_reference(want)
            _zscore_streamed(x)
            assert x.tobytes() == want.tobytes(), (m, n)
    # No keys: nothing to normalise, and no warning either; the annealed
    # ensemble still needs both classes.
    space = KeySpace.links(("a", "b"), ("x",))
    tables = [ScoreTable.from_scores(s, {("a", "b"): 1.0}) for s in "pq"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ensemble(tables, [], (), space).shape == (0,)
        with pytest.raises(MrkError, match="both positive and negative"):
            ensemble(tables, [], (), space, mode="over")


@pytest.mark.parametrize("rows", [5, None])
def test_column_stats_are_bitwise_numpy_mean_and_std(monkeypatch, rows):
    # The streamed statistics themselves, not only the normalised matrix,
    # with a column of -0.0, whose mean's sign depends on where a sum
    # starts.
    if rows is not None:
        monkeypatch.setattr(predictor, "CHUNK_ROWS", rows)
    chunk = predictor.CHUNK_ROWS
    rng = np.random.default_rng(13)
    for n in (1, chunk + 1, 3 * chunk + 2):
        x = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 9, 4)
        x[:, 1] = -0.0
        mean, sd = baselines._column_stats(
            lambda out, lo: np.copyto(out, x[lo:lo + len(out)]), n, 4)
        assert mean.tobytes() == x.mean(axis=0).tobytes(), n
        assert sd.tobytes() == x.std(axis=0).tobytes(), n


def _wide_input():
    """320k keys, and 8 tables over them: links, links and pairs, and six
    tables holding one pair key array."""
    rng = np.random.default_rng(3)
    space = KeySpace.links(tuple(f"n{i:03d}" for i in range(200)),
                           tuple("abcdefgh"))
    pair_space = KeySpace.links(space.axes[0], ())
    n, _, nl = space.shape
    keys = rng.permutation(n * n * nl)

    def some(size, frac):
        k = np.flatnonzero(rng.random(size) < frac)
        return k, rng.random(len(k))

    shared = some(n * n, 0.4)[0]  # the classical indices' one pair set
    tables = [ScoreTable("links", space, *some(n * n * nl, 0.3)),
              ScoreTable("mixed", space, *some(n * n * nl, 0.1),
                         *some(n * n, 0.2))]
    tables += [ScoreTable(f"pairs{i}", pair_space, pair_keys=shared,
                          pair_values=rng.random(len(shared)))
               for i in range(6)]
    return keys, tables, space


def test_ensemble_holds_one_full_size_array():
    # 8 tables over 320k keys.  The (keys, tables) matrix is the one
    # full-size array: a copy of it, or int64 lookup arrays over all keys,
    # would each add as much again.
    keys, tables, space = _wide_input()
    full = len(keys) * len(tables) * 8
    tracemalloc.start()
    try:
        ensemble(tables, keys, (), space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full + 8 * 2**20


def test_ensemble_base_holds_no_full_size_matrix():
    # The input of test_ensemble_holds_one_full_size_array: base mode
    # streams its passes through key chunks, so it stays below half of
    # the (keys, tables) matrix.
    keys, tables, space = _wide_input()
    full = len(keys) * len(tables) * 8
    tracemalloc.start()
    try:
        ensemble(tables, keys, (), space, mode="base")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full / 2


@pytest.mark.parametrize("rows", [5, 64, None])
def test_ensemble_base_streams_the_materialised_matrix(monkeypatch, rows):
    # Base mode's streamed passes give the bytes of the matrix z-normalised
    # as one array and summed by one matrix-vector product, for key counts
    # on both sides of a chunk edge.  This also pins that BLAS sums each
    # row of a chunked product as it does in the full one.
    if rows is not None:
        monkeypatch.setattr(predictor, "CHUNK_ROWS", rows)
    chunk = predictor.CHUNK_ROWS
    rng = np.random.default_rng(17)
    space = KeySpace.links(tuple(f"n{i:03d}" for i in range(80)),
                           tuple("abcdefgh"))
    size = math.prod(space.shape)
    pair_space = KeySpace.links(space.axes[0], ())

    def values(k):  # a spread and an offset from 1e-8 to 1e8
        return (rng.normal(size=k) * 10.0 ** rng.integers(-8, 9)
                + rng.normal() * 10.0 ** rng.integers(-8, 9))

    def some(k, frac):
        held = np.flatnonzero(rng.random(k) < frac)
        return held, values(len(held))

    pairs = some(80 * 80, 0.5)[0]
    pool = [
        ScoreTable("links", space, *some(size, 0.3)),
        ScoreTable("mixed", space, *some(size, 0.2), *some(80 * 80, 0.3)),
        ScoreTable("empty", space),
        ScoreTable("pairs0", pair_space, pair_keys=pairs,
                   pair_values=values(len(pairs))),
        ScoreTable("links-all", space, np.arange(size), values(size)),
        ScoreTable("pairs1", pair_space, pair_keys=pairs,
                   pair_values=values(len(pairs))),
        ScoreTable("sparse", space, *some(size, 0.001)),
        ScoreTable("pairs2", pair_space, pair_keys=pairs,
                   pair_values=values(len(pairs))),
    ]
    for m in range(2, 9):
        tables = pool[:m]
        for n in (chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            keys = rng.permutation(size)[:n]
            got = ensemble(tables, keys, (), space, mode="base")
            x = ScoreTable.matrix_for(tables, keys, space)
            _zscore_reference(x)
            want = x @ np.ones(m)
            assert got.tobytes() == want.tobytes(), (m, n)


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
        ScoreTable.from_scores("pairs", some(pairs, 0.6)),
        ScoreTable.from_scores("triples", {**some(keys, 0.3), **extra}),
        ScoreTable.from_scores("mixed", {**some(pairs, 0.4), **some(keys, 0.2)}),
        ScoreTable.from_scores("empty", {}),
    ]
    truth = {k for k in keys if rng.random() < 0.2}
    x = np.array([[oracle_lookup(t, k) for t in tables] for k in keys],
                 dtype=float)
    mu, sd = x.mean(axis=0), x.std(axis=0)
    z = np.zeros_like(x)
    nz = sd > 0
    z[:, nz] = (x[:, nz] - mu[nz]) / sd[nz]
    space = KeySpace.links(tuple(nodes), ("a", "b"))
    qkeys, qtruth = space.encode(keys), space.encode(sorted(truth))
    base = ensemble(tables, qkeys, qtruth, space, mode="base")
    assert base.tolist() == (z @ np.ones(len(tables))).tolist()
    # The ensemble's z matrix is bitwise the old formula's.
    got = ScoreTable.matrix_for(tables, qkeys, space)
    assert got.tobytes() == x.tobytes()
    old = x.copy()
    _zscore_streamed(got)
    _zscore_reference(old)
    assert got.tobytes() == old.tobytes()
    # The oracle matrix as exact-key tables must give the same annealing.
    dense = [ScoreTable.from_scores(t.scheme, dict(zip(keys, x[:, j].tolist())))
             for j, t in enumerate(tables)]
    over = ensemble(tables, qkeys, qtruth, space, mode="over", seed=2)
    want = ensemble(dense, qkeys, qtruth, space, mode="over", seed=2)
    assert over.tolist() == want.tolist()


def test_ensemble_imputes_missing_scores():
    pairs = [("a", "b"), ("c", "d"), ("e", "f")]
    partial = ScoreTable.from_scores("p", {("a", "b"): 5.0})
    other = ScoreTable.from_scores("q", {k: 1.0 * i for i, k in enumerate(pairs)})
    space = KeySpace.links(("a", "b", "c", "d", "e", "f"), ("x",))
    links = [(u, v, "x") for u, v in pairs]
    keys = space.encode(links)
    comb = ensemble([partial, other], keys, keys[:1], space, mode="base")
    x = np.array([[5.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    want = ((x - x.mean(axis=0)) / x.std(axis=0)).sum(axis=1)
    assert comb.tolist() == want.tolist()
