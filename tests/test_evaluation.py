"""Splits, negative candidates, and ROC/AUC evaluation."""

import logging
from dataclasses import fields

import numpy as np
import pytest

from mrk.errors import EvaluationError
from mrk.evaluation import (
    CAT_NEW_NEW,
    CAT_OLD_NEW,
    CAT_OLD_OLD,
    EvalSplit,
    _groups,
    _report,
    _trapezoid,
    candidates,
    evaluate_old_new,
    load_temporal,
    mann_whitney_auc,
    pooled_auc,
    roc_auc,
    roc_csv_text,
    split_from_graphs,
    split_random,
    summary_dict,
)
from mrk.graph import MultiplexGraph, write_edge_file
from mrk.miner import MinerConfig, mine
from mrk.predictor import OldNewScoreTable, ScoreTable, score_links
from mrk.baselines import (
    CLASSICAL_METHODS,
    classical_on_multiplex,
    ensemble,
    sharma_scores,
)
from mrk.rules import build_rules
from tests.conftest import (
    oracle_auc,
    oracle_candidates,
    oracle_lookup,
    oracle_mann_whitney,
    oracle_pooled_auc,
    oracle_roc_points,
    rand_host,
)


# -- splitting --------------------------------------------------------------


def test_folds_partition_units(rng):
    for directed in (True, False):
        g = rand_host(rng, 12, 2, 30, directed=directed)
        splits = split_random(g, folds=5, seed=1)
        units = set(g.unit_triples())
        seen = set()
        for s in splits:
            assert not (s.positives & seen)
            seen |= s.positives
            assert set(s.train.unit_triples()) == units - s.positives
        assert seen == units
        sizes = [len(s.positives) for s in splits]
        assert max(sizes) - min(sizes) <= 1


def test_split_deterministic(rng):
    g = rand_host(rng, 10, 2, 24, directed=True)
    a = split_random(g, folds=4, seed=9)
    b = split_random(g, folds=4, seed=9)
    assert [s.positives for s in a] == [s.positives for s in b]


def test_split_stable_under_input_order(tmp_path, rng):
    g = rand_host(rng, 10, 2, 24, directed=True)
    lines = [f"{u} {v} {l}" for u, v, l in g.name_triples()]
    shuffled = list(lines)
    rng.shuffle(shuffled)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    p1.write_text("\n".join(lines) + "\n", encoding="utf-8")
    p2.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
    from mrk.graph import load_graph

    s1 = split_random(load_graph(str(p1)), folds=4, seed=2)
    s2 = split_random(load_graph(str(p2)), folds=4, seed=2)
    assert [s.positives for s in s1] == [s.positives for s in s2]


def test_split_validation(rng):
    g = rand_host(rng, 10, 2, 24, directed=True)
    with pytest.raises(EvaluationError):
        split_random(g, folds=1)
    tiny = MultiplexGraph([("1", "2", "a")], directed=True)
    with pytest.raises(EvaluationError):
        split_random(tiny, folds=10)


@pytest.fixture
def temporal_split():
    train = MultiplexGraph(
        [("1", "2", "b"), ("2", "3", "a"), ("1", "2", "a")], directed=True
    )
    test = MultiplexGraph(
        [
            ("1", "2", "b"), ("2", "3", "a"), ("1", "2", "a"),
            ("3", "1", "a"),
            ("1", "99", "a"),
            ("98", "99", "b"),
        ],
        directed=True,
    )
    return split_from_graphs(train, test)


def test_positive_categories(temporal_split):
    s = temporal_split
    assert s.categories[("3", "1", "a")] == CAT_OLD_OLD
    assert s.categories[("1", "99", "a")] == CAT_OLD_NEW
    assert s.categories[("98", "99", "b")] == CAT_NEW_NEW
    assert s.positives_of(CAT_OLD_NEW) == [("1", "99", "a")]
    assert set(s.layer_universe) == {"a", "b"}
    assert s.old_nodes == ("1", "2", "3")


def test_split_from_graphs_directedness_mismatch():
    a = MultiplexGraph([("1", "2", "a")], directed=True)
    b = MultiplexGraph([("1", "2", "a")], directed=False)
    with pytest.raises(EvaluationError):
        split_from_graphs(a, b)


def test_load_temporal_identical_files(tmp_path, rng):
    g = rand_host(rng, 8, 2, 16, directed=True)
    p = str(tmp_path / "g.txt")
    write_edge_file(g, p)
    s = load_temporal(p, p)
    assert s.positives == frozenset()
    assert s.categories == {}


# -- candidates -------------------------------------------------------------


@pytest.fixture
def small_split():
    train = MultiplexGraph(
        [("1", "2", "a"), ("2", "3", "a")], directed=True
    )
    test = MultiplexGraph(
        [("1", "2", "a"), ("2", "3", "a"), ("1", "99", "a")], directed=True
    )
    return split_from_graphs(train, test)


def names(split, keys):
    """The name triples behind keys of the split's link space."""
    return frozenset(split.space.decode(keys))


def test_candidates_small_count(small_split):
    full = candidates(small_split, "full")
    assert names(small_split, full) == frozenset(
        {("1", "3", "a"), ("2", "1", "a"), ("3", "1", "a"), ("3", "2", "a")}
    )
    assert len(full) == 3 * 2 - 2


def test_candidates_sampled_deterministic(small_split):
    a = candidates(small_split, "sampled", k=2, seed=5)
    b = candidates(small_split, "sampled", k=2, seed=5)
    assert a.tolist() == b.tolist()
    assert len(a) == 2
    assert names(small_split, a) <= names(
        small_split, candidates(small_split, "full"))


def test_candidates_oversample_falls_back(small_split, caplog):
    with caplog.at_level(logging.WARNING):
        got = candidates(small_split, "sampled", k=50, seed=0)
    assert got.tolist() == candidates(small_split, "full").tolist()
    assert any("falling back" in r.message for r in caplog.records)


def test_candidates_validation(small_split):
    with pytest.raises(EvaluationError):
        candidates(small_split, "weird")
    with pytest.raises(EvaluationError):
        candidates(small_split, "sampled")


def test_candidates_undirected_population(rng):
    g = rand_host(rng, 9, 2, 20, directed=False)
    split = split_random(g, folds=4, seed=0)[0]
    full = candidates(split, "full")
    n = len(split.old_nodes)
    oo = len(split.positives_of(CAT_OLD_OLD))
    expected = n * (n - 1) // 2 * len(split.layer_universe)
    expected -= len(split.train.unit_triples()) + oo
    assert len(full) == expected
    for u, v, _ in names(split, full):
        assert u < v


def test_candidates_exclude_train_and_positives(rng):
    g = rand_host(rng, 10, 2, 26, directed=True)
    split = split_random(g, folds=5, seed=3)[1]
    full = names(split, candidates(split, "full"))
    assert not (full & split.positives)
    assert not (full & set(split.train.unit_triples()))


# -- candidates against the name-triple oracle -------------------------------

ODD_NAMES = ["a%b", "c|d", "e,f", "g>h", "i:j", "k;l", "m=n", "o::p", "q::",
             "::r", "s::t::u"]
ODD_LAYERS = ["x::y", "q;r", "%", "x"]


def _odd_host(rng, directed):
    edges = set()
    while len(edges) < 40:
        u, v = rng.choice(len(ODD_NAMES), 2, replace=False)
        edges.add((ODD_NAMES[u], ODD_NAMES[v],
                   ODD_LAYERS[int(rng.integers(len(ODD_LAYERS)))]))
    return MultiplexGraph(sorted(edges), directed=directed,
                          extra_nodes=["iso::1", "iso%2"])


def _split_with_isolated(directed):
    """A temporal split whose training graph keeps isolated nodes and whose
    layer universe has a layer ("z::w") without training edges."""
    train_units = [("1", "2", "a"), ("2", "3", "a"), ("3", "4", "a"),
                   ("4", "1", "a"), ("2", "4", "a")]
    test_units = [("1", "3", "a"), ("1", "2", "z::w"), ("3", "4", "z::w"),
                  ("4", "iso", "z::w"), ("1", "new", "a")]
    train = MultiplexGraph(train_units, directed=directed,
                           extra_nodes=["iso", "iso::2"])
    cats = {}
    for u, v, lay in test_units:
        if not directed and u > v:
            u, v = v, u
        known = train.has_node(u) + train.has_node(v)
        cats[(u, v, lay)] = (CAT_NEW_NEW, CAT_OLD_NEW, CAT_OLD_OLD)[known]
    return EvalSplit(train=train, positives=frozenset(cats), categories=cats,
                     layer_universe=("a", "z::w"), directed=directed)


def _differential_splits(rng):
    splits = []
    for directed in (True, False):
        splits += split_random(rand_host(rng, 12, 3, 40, directed), 3, 1)[:2]
        splits += split_random(_odd_host(rng, directed), 3, 2)[:2]
        early = _odd_host(rng, directed)
        late = MultiplexGraph(
            early.name_triples() + [("a%b", "c|d", "later::only"),
                                    ("e,f", "fresh::node", "x")],
            directed=directed)
        splits.append(split_from_graphs(early, late))
        splits.append(_split_with_isolated(directed))
    return splits


def _aligned(table, split, neg):
    """The scores ``roc_auc`` reads from ``table``: the split's positives,
    then the negatives ``neg``."""
    keys = np.concatenate([split.positive_keys(), neg])
    return table.scores_for(keys, split.space)


def _labels(n, n_pos):
    """The labels of ``n`` scores whose first ``n_pos`` are positives."""
    return np.arange(n) < n_pos


def _same_groups(a, b):
    """Score groups equal array for array, dtype and bytes."""
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


def test_candidates_match_name_oracle(rng):
    for split in _differential_splits(rng):
        full = candidates(split, "full")
        assert (np.diff(full) > 0).all()
        assert names(split, full) == oracle_candidates(split, "full")
        assert len(full) == len(oracle_candidates(split, "full"))
        for k, seed in ((1, 0), (5, 3), (len(full) // 2, 7), (len(full), 1)):
            got = candidates(split, "sampled", k=k, seed=seed)
            assert names(split, got) == oracle_candidates(
                split, "sampled", k=k, seed=seed)


def test_roc_auc_reads_tables_by_name(rng):
    # Tables built on the training graph answer keys of the split's space,
    # whose layer universe and node set may differ from the table's.
    for split in _differential_splits(rng):
        if not split.positives_of(CAT_OLD_OLD):
            continue
        neg = candidates(split, "full")
        keys = split.positives_of(CAT_OLD_OLD) + split.space.decode(neg)
        for table in (sharma_scores(split.train),
                      classical_on_multiplex(split.train, "cn")):
            rep = roc_auc(table, split, neg)
            scores = _aligned(table, split, neg)
            assert scores.tolist() == [oracle_lookup(table, k) for k in keys]
            n_pos = len(split.positives_of(CAT_OLD_OLD))
            assert _same_groups(rep.groups, _groups(scores, scores[:n_pos]))


# -- rank-statistic AUC -----------------------------------------------------


def test_mann_whitney_extremes():
    s = np.array([3.0, 2.0, 1.0, 0.5])
    y = np.array([True, True, False, False])
    assert mann_whitney_auc(s, y) == 1.0
    assert mann_whitney_auc(s, ~y) == 0.0
    assert mann_whitney_auc(np.zeros(4), y) == 0.5


def test_mann_whitney_matches_pairwise_oracle(rng):
    for _ in range(6):
        n = int(rng.integers(20, 120))
        scores = rng.integers(0, 8, n).astype(float)  # heavy ties
        labels = rng.random(n) < 0.4
        if not labels.any() or labels.all():
            continue
        got = mann_whitney_auc(scores, labels)
        want = oracle_auc(scores[labels], scores[~labels])
        assert abs(got - want) <= 1e-12


def test_mann_whitney_tie_groups_match_unique_oracle(rng):
    n = 400
    heavy = rng.integers(0, 4, n).astype(float)
    signed = rng.choice([0.0, -0.0, 1.0, -1.0], n)  # 0.0 and -0.0 tie
    nan = np.where(rng.random(n) < 0.3, np.nan, rng.integers(0, 3, n))
    edges = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], n)
    cases = [heavy, signed, nan, edges, np.full(n, 2.5), np.full(n, np.nan),
             rng.permutation(n).astype(float), rng.normal(size=n)]
    for scores in cases:
        for _ in range(3):
            labels = rng.random(n) < rng.uniform(0.05, 0.95)
            labels[:2] = True, False
            got = mann_whitney_auc(scores, labels)
            want = oracle_mann_whitney(scores, labels)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # All NaNs rank as one tie group, as np.unique groups them.
    y = np.array([True, False, True, False])
    assert mann_whitney_auc(np.array([np.nan, np.nan, 1.0, 0.0]), y) == 0.625
    assert mann_whitney_auc(np.array([np.nan] * 4), y) == 0.5


def test_mann_whitney_needs_both_classes():
    with pytest.raises(EvaluationError):
        mann_whitney_auc(np.ones(3), np.array([True, True, True]))
    with pytest.raises(EvaluationError):
        mann_whitney_auc(np.ones(3), np.zeros(3, dtype=bool))


# -- ROC evaluation ---------------------------------------------------------


def _roc_bytes(pts):
    """The ROC CSV and the trapezoid area of a point list, as bytes."""
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    auc = np.float64(_trapezoid(ys, xs)).tobytes()
    return roc_csv_text(pts).encode(), auc


def test_grouped_roc_matches_per_candidate_oracle(rng):
    # The ROC read from score groups writes the same CSV and area as the
    # per-candidate sort it replaced, and the pooled AUC of merged groups
    # equals the rank AUC of the folds' scores concatenated.
    def draws(n):
        yield rng.integers(0, 4, n).astype(float)  # heavy ties
        yield rng.choice([0.0, -0.0, 1.0, -1.0], n)  # 0.0 and -0.0 tie
        yield rng.choice([0.0, -0.0, 0.5, 2.0], n)
        yield rng.normal(size=n)
        yield np.full(n, 1.5)
        infs = rng.integers(0, 3, n).astype(float)  # each infinity once
        infs[rng.choice(n, 2, replace=False)] = np.inf, -np.inf
        yield infs

    for _ in range(40):
        reports, raws = [], []
        for fold in range(int(rng.integers(1, 5))):
            n = int(rng.integers(2, 80))
            for scores in draws(n):
                n_pos = int(rng.integers(1, n))
                rep = _report(scores, n_pos, fold, "x")
                labels = _labels(n, n_pos)
                got = rep.roc_csv().encode(), np.float64(rep.auc).tobytes()
                assert got == _roc_bytes(oracle_roc_points(scores, labels))
                reports.append(rep)
                raws.append((scores, labels))
        want = oracle_pooled_auc(raws)
        assert (np.float64(pooled_auc(reports)).tobytes()
                == np.float64(want).tobytes())
    assert pooled_auc([]) is None


def test_zero_group_threshold_is_its_last_zero():
    # A group's threshold is its last member in input order, which for
    # the tie of 0.0 and -0.0 decides the sign written.
    for scores, last in (([0.0, 1.0, -0.0, 0.0, -0.0], "-0.0"),
                         ([-0.0, 1.0, 0.0, -0.0, 0.0], "0.0")):
        scores = np.array(scores)
        rep = _report(scores, 2, 0, "x")
        assert rep.roc_csv().splitlines()[-1] == f"1.0,1.0,{last}"
        assert rep.roc == oracle_roc_points(scores, _labels(5, 2))


def test_roc_ranks_nans_as_one_top_group(rng):
    # NaNs are one ROC point, above every number, as the rank AUC ranks
    # them; the per-candidate ROC made each NaN a point at the bottom and
    # gave this input the area 0.0.
    scores = np.array([np.nan, np.nan, 1.0, 0.0, 0.5])
    rep = _report(scores, 2, 0, "x")
    assert rep.roc[1][:2] == (0.0, 1.0) and np.isnan(rep.roc[1][2])
    assert rep.auc == 1.0
    assert mann_whitney_auc(scores, _labels(5, 2)) == 1.0
    assert pooled_auc([rep]) == 1.0
    old = oracle_roc_points(scores, _labels(5, 2))
    assert _roc_bytes(old)[1] == np.float64(0.0).tobytes()
    for _ in range(60):
        # With both class sizes powers of two the trapezoid's arithmetic
        # is exact, so the ROC area is the rank AUC bit for bit.
        n_pos, n_neg = (int(2 ** rng.integers(0, 6)) for _ in range(2))
        n = n_pos + n_neg
        scores = np.where(rng.random(n) < rng.uniform(0.1, 0.9), np.nan,
                          rng.integers(0, 3, n).astype(float))
        rep = _report(scores, n_pos, 0, "x")
        labels = _labels(n, n_pos)
        nan_points = sum(np.isnan(t) for _, _, t in rep.roc)
        assert nan_points == np.isnan(scores).any()
        want = np.float64(mann_whitney_auc(scores, labels)).tobytes()
        assert np.float64(rep.auc).tobytes() == want
        assert np.float64(oracle_mann_whitney(scores, labels)).tobytes() == want
        # Other sizes agree within the trapezoid's rounding.
        s = np.append(scores, np.nan)
        n_pos = int(rng.integers(1, n + 1))
        rep = _report(s, n_pos, 0, "x")
        y = _labels(n + 1, n_pos)
        assert abs(rep.auc - mann_whitney_auc(s, y)) <= 1e-12
        assert abs(rep.auc - oracle_mann_whitney(s, y)) <= 1e-12


def test_roc_groups_repeated_infinities(rng):
    # Equal infinities are one ROC point; the per-candidate ROC split
    # them because inf - inf is NaN.
    for _ in range(30):
        n = int(rng.integers(4, 60))
        scores = rng.choice([np.inf, -np.inf, 0.0, 1.0], n)
        scores[:2] = np.inf, np.inf
        n_pos = int(rng.integers(1, n))
        rep = _report(scores, n_pos, 0, "x")
        thresholds = [t for _, _, t in rep.roc[1:]]
        assert len(thresholds) == len(set(thresholds))
        s, y = scores, _labels(n, n_pos)
        assert abs(rep.auc - mann_whitney_auc(s, y)) <= 1e-12
        assert abs(rep.auc - oracle_auc(s[y], s[~y])) <= 1e-12


@pytest.fixture
def scored_split(rng):
    g = rand_host(rng, 14, 2, 40, directed=True)
    split = split_random(g, folds=4, seed=7)[0]
    return split, candidates(split, "full")


def test_roc_auc_equals_rank_statistic(scored_split, rng):
    split, neg = scored_split
    keys = sorted(split.positives_of(CAT_OLD_OLD)) + split.space.decode(neg)
    table = ScoreTable.from_scores(
        "rand", {k: float(rng.integers(0, 5)) for k in keys}
    )
    rep = roc_auc(table, split, neg)
    scores = _aligned(table, split, neg)
    assert scores.tolist() == [oracle_lookup(table, k) for k in keys]
    labels = _labels(len(scores), rep.n_pos)
    assert _same_groups(rep.groups, _groups(scores, scores[:rep.n_pos]))
    assert abs(rep.auc - mann_whitney_auc(scores, labels)) <= 1e-12
    assert abs(rep.auc - oracle_auc(scores[labels], scores[~labels])) <= 1e-12


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("mode", ["base", "over"])
def test_ensemble_scores_report_as_their_table(rng, directed, mode):
    # The fold report of the ensemble's aligned scores equals the report of
    # the same scores read back through a table.
    g = rand_host(rng, 12, 2, 40, directed=directed)
    split = split_random(g, folds=4, seed=1)[0]
    train = split.train
    rules = [r for r in build_rules(mine(train, MinerConfig(2, 3)), train)
             if not r.new_node]
    tables = [score_links(train, rules), sharma_scores(train)]
    tables += [classical_on_multiplex(train, m) for m in CLASSICAL_METHODS]
    pos, neg = split.positive_keys(), candidates(split, "full")
    assert len(pos) and len(neg)
    keys = np.concatenate([pos, neg])
    scores = ensemble(tables, keys, pos, split.space, mode=mode, seed=3)
    got = roc_auc(scores, split, neg, predictor="ens")
    want_table = ScoreTable("ens", split.space, keys, scores)
    want = roc_auc(want_table, split, neg)
    assert got.to_dict() == want.to_dict()
    assert got.roc == want.roc
    assert _same_groups(got.groups, want.groups)
    assert _aligned(want_table, split, neg).tolist() == scores.tolist()


def _array_bytes(report):
    """Bytes of the numpy arrays reachable from ``report``'s fields, the
    arrays that views among them look into included."""
    total, stack = 0, [getattr(report, f.name) for f in fields(report)]
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            total += x.nbytes
            stack.append(x.base)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
    return total


def test_reports_retain_no_candidates(rng):
    # A report keeps its score groups, not its candidates: three distinct
    # scores over about 10k candidates leave well under 1 KiB of arrays.
    scores = rng.integers(0, 3, 10_000).astype(float)
    assert _array_bytes(_report(scores, 100, 0, "x")) < 1024
    split = split_random(rand_host(rng, 72, 2, 300, True), folds=4, seed=0)[0]
    neg = candidates(split, "full")
    keys = np.concatenate([split.positive_keys(), neg])
    assert len(keys) > 9_000
    values = rng.integers(0, 3, len(keys)).astype(float)
    for table in (ScoreTable("t", split.space, keys, values), values):
        rep = roc_auc(table, split, neg, predictor="t")
        assert rep.n_pos + rep.n_neg == len(keys)
        assert _array_bytes(rep) < 1024


def test_roc_auc_checks_aligned_scores(scored_split):
    split, neg = scored_split
    n = len(split.positive_keys()) + len(neg)
    with pytest.raises(EvaluationError, match="positives"):
        roc_auc(np.zeros(n - 1), split, neg, predictor="p")
    with pytest.raises(EvaluationError, match="predictor name"):
        roc_auc(np.zeros(n), split, neg)
    assert roc_auc(np.zeros(n), split, neg, predictor="p").auc == 0.5


def test_roc_curve_shape(scored_split, rng):
    split, neg = scored_split
    table = ScoreTable.from_scores(
        "rand", {k: float(rng.random()) for k in split.space.decode(neg)})
    rep = roc_auc(table, split, neg)
    pts = rep.roc
    assert pts[0] == (0.0, 0.0, float("inf"))
    assert pts[-1][:2] == (1.0, 1.0)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert xs == sorted(xs) and ys == sorted(ys)
    thr = [p[2] for p in pts]
    assert thr == sorted(thr, reverse=True)


def test_empty_table_scores_half(scored_split):
    split, neg = scored_split
    rep = roc_auc(ScoreTable.from_scores("none", {}), split, neg)
    assert rep.auc == pytest.approx(0.5)


def test_perfect_table_scores_one(scored_split):
    split, neg = scored_split
    table = ScoreTable.from_scores(
        "oracle", {k: 1.0 for k in split.positives_of(CAT_OLD_OLD)}
    )
    rep = roc_auc(table, split, neg)
    assert rep.auc == pytest.approx(1.0)
    assert rep.n_pos == len(split.positives_of(CAT_OLD_OLD))
    assert rep.n_neg == len(neg)


def test_roc_auc_explicit_negatives(scored_split):
    split, neg = scored_split
    rep = roc_auc(ScoreTable.from_scores("none", {}), split, negatives=neg[:10])
    assert rep.n_neg == 10
    # Without negatives, roc_auc enumerates the full candidate set.
    assert roc_auc(ScoreTable.from_scores("none", {}), split).n_neg == len(neg)


def test_roc_auc_needs_old_old(temporal_split):
    # That split's only positives are old-new and new-new.
    s = temporal_split
    s.categories.pop(("3", "1", "a"))
    with pytest.raises(EvaluationError):
        roc_auc(ScoreTable.from_scores("none", {}), s)


def test_roc_csv_format(scored_split):
    split, neg = scored_split
    rep = roc_auc(ScoreTable.from_scores("none", {}), split, neg)
    lines = rep.roc_csv().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert len(lines) == len(rep.roc) + 1


# -- old-new evaluation -----------------------------------------------------


@pytest.fixture
def old_new_split():
    train = MultiplexGraph([("1", "2", "a")], directed=True)
    test = MultiplexGraph(
        [("1", "2", "a"), ("1", "99", "a"), ("98", "2", "a")], directed=True
    )
    return split_from_graphs(train, test)


def test_old_new_positive_reduction(old_new_split):
    table = OldNewScoreTable.from_scores(
        "conf", {("1", "a", "out"): 1.0, ("2", "a", "in"): 0.9}
    )
    rep = evaluate_old_new(table, old_new_split)
    assert rep.old_new
    assert rep.auc == pytest.approx(1.0)
    assert rep.n_pos == 2
    # 2 old nodes x 1 layer x 2 directions, minus the two positive slots.
    assert rep.n_neg == 2


def test_old_new_empty_table_half(old_new_split):
    rep = evaluate_old_new(OldNewScoreTable.from_scores("conf", {}), old_new_split)
    assert rep.auc == pytest.approx(0.5)


def test_old_new_needs_positives():
    train = MultiplexGraph([("1", "2", "a"), ("2", "3", "a")], directed=True)
    test = MultiplexGraph(
        [("1", "2", "a"), ("2", "3", "a"), ("3", "1", "a")], directed=True
    )
    split = split_from_graphs(train, test)
    with pytest.raises(EvaluationError):
        evaluate_old_new(OldNewScoreTable.from_scores("conf", {}), split)


def test_old_new_undirected_single_direction(rng):
    train = MultiplexGraph([("1", "2", "a")], directed=False)
    test = MultiplexGraph(
        [("1", "2", "a"), ("2", "99", "a")], directed=False
    )
    split = split_from_graphs(train, test)
    rep = evaluate_old_new(OldNewScoreTable.from_scores("conf", {}), split)
    assert rep.n_pos + rep.n_neg == 2  # 2 nodes x 1 layer x 1 direction


# -- aggregation ------------------------------------------------------------


def test_summary_and_pooling(rng):
    g = rand_host(rng, 14, 2, 40, directed=True)
    splits = split_random(g, folds=3, seed=4)
    reports, raws = [], []
    for s in splits:
        neg = candidates(s, "sampled", k=40, seed=s.fold)
        table = ScoreTable.from_scores(
            "toy", {k: 1.0 for k in s.positives_of(CAT_OLD_OLD)}
        )
        reports.append(roc_auc(table, s, neg))
        assert reports[-1].n_neg == 40
        scores = _aligned(table, s, neg)
        raws.append((scores, _labels(len(scores), reports[-1].n_pos)))
    out = summary_dict(reports)
    assert out["folds"] == 3
    assert out["auc_mean"] == pytest.approx(
        np.mean([r.auc for r in reports])
    )
    assert out["auc_std"] == pytest.approx(np.std([r.auc for r in reports]))
    assert 0.0 <= out["auc_pooled"] <= 1.0
    assert [d["fold"] for d in out["per_fold"]] == [0, 1, 2]

    scores = np.concatenate([s for s, _ in raws])
    labels = np.concatenate([y for _, y in raws])
    assert pooled_auc(reports) == pytest.approx(
        mann_whitney_auc(scores, labels)
    )
