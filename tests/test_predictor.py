"""Link and new-neighbor scoring from rule collections."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from mrk import predictor
from mrk.errors import MiningBudgetError, MrkError
from mrk.graph import ATTR_DEFAULT, LINK_MASK_CAP, KeySpace, MultiplexGraph
from mrk.evaluation import split_random
from mrk.miner import MinerConfig, Pattern, embedding_table, mine
from mrk.predictor import (
    OldNewScoreTable,
    ScoreTable,
    WEIGHTING_SCHEMES,
    read_scores_csv,
    score_links,
    score_old_new,
    write_old_new_csv,
    write_scores_csv,
)
from mrk.rules import Rule, build_rules, rule_from_dict, rule_to_dict
from tests.conftest import (
    adversarial_host,
    oracle_lookup,
    oracle_rule_scores,
    pad_names,
    rand_host,
)

D = ATTR_DEFAULT


def mk_rule(ant_edges, cons_edges, delta, amap, new_node,
            conf=0.5, lift=2.0, ant_attrs=None, cons_attrs=None):
    k1 = 1 + max(max(a, b) for a, b, _ in ant_edges)
    k2 = 1 + max(max(a, b) for a, b, _ in cons_edges)
    return Rule(
        antecedent=Pattern(
            tuple(ant_attrs) if ant_attrs else (D,) * k1,
            frozenset(ant_edges), 10,
        ),
        consequent=Pattern(
            tuple(cons_attrs) if cons_attrs else (D,) * k2,
            frozenset(cons_edges), 5,
        ),
        delta_edge=delta,
        antecedent_map=amap,
        new_node=new_node,
        confidence=conf,
        lift=lift,
    )


# -- link scoring: worked examples ------------------------------------------


def test_empty_rules_empty_table():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    t = score_links(g, [], scheme="count")
    assert t.scores == {} and t.provenance == {}


def test_single_reciprocal_proposal():
    g = MultiplexGraph([("1", "2", "a"), ("5", "6", "b")], directed=True)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 0, "b")],
        (1, 0, "b"), (0, 1), new_node=False, conf=0.5,
    )
    assert score_links(g, [r], scheme="conf").scores == {("2", "1", "b"): 0.5}
    t = score_links(g, [r], scheme="count")
    assert t.scores == {("2", "1", "b"): 1.0}
    assert t.provenance == {("2", "1", "b"): (r.rid,)}


def test_existing_edge_not_proposed():
    g = MultiplexGraph([("1", "2", "a"), ("2", "1", "b")], directed=True)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 0, "b")],
        (1, 0, "b"), (0, 1), new_node=False,
    )
    assert score_links(g, [r], scheme="count").scores == {}


def test_delta_layer_absent_from_host():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 0, "zz")],
        (1, 0, "zz"), (0, 1), new_node=False,
    )
    assert score_links(g, [r], scheme="count").scores == {}


def test_new_node_rules_ignored_by_link_scoring():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 2, "a")],
        (1, 2, "a"), (0, 1), new_node=True,
    )
    assert score_links(g, [r], scheme="count").scores == {}


def test_per_embedding_multiplicity():
    g = MultiplexGraph(
        [
            ("1", "2", "a"), ("2", "3", "a"),
            ("1", "4", "a"), ("4", "3", "a"),
            ("7", "8", "b"),
        ],
        directed=True,
    )
    r = mk_rule(
        [(0, 1, "a"), (1, 2, "a")],
        [(0, 1, "a"), (1, 2, "a"), (0, 2, "b")],
        (0, 2, "b"), (0, 1, 2), new_node=False, conf=0.5,
    )
    per_rule = score_links(g, [r], scheme="count")
    per_emb = score_links(g, [r], scheme="count", per_embedding=True)
    assert per_rule.scores[("1", "3", "b")] == 1.0
    assert per_emb.scores[("1", "3", "b")] == 2.0
    assert score_links(g, [r], scheme="conf", per_embedding=True).scores[
        ("1", "3", "b")
    ] == pytest.approx(1.0)


def test_undirected_keys_canonicalized():
    g = MultiplexGraph(
        [("1", "2", "a"), ("2", "3", "a")], directed=False
    )
    r = mk_rule(
        [(0, 1, "a"), (1, 2, "a")],
        [(0, 1, "a"), (1, 2, "a"), (0, 2, "a")],
        (0, 2, "a"), (0, 1, 2), new_node=False,
    )
    t = score_links(g, [r], scheme="count")
    assert set(t.scores) == {("1", "3", "a")}
    assert t.scores[("1", "3", "a")] == 1.0


def test_undirected_reciprocal_rule_proposes_nothing():
    # Symmetric storage means the reciprocal of any present edge is present,
    # so a close rule predicting it never finds a missing target.
    g = MultiplexGraph([("1", "2", "a")], directed=False)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 0, "a")],
        (1, 0, "a"), (0, 1), new_node=False,
    )
    assert score_links(g, [r], scheme="count").scores == {}


# -- scheme arithmetic ------------------------------------------------------


@pytest.fixture
def three_rule_setup():
    g = MultiplexGraph(
        [("1", "2", "a"), ("1", "2", "c"), ("5", "6", "b")], directed=True
    )
    r1 = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 0, "b")],
        (1, 0, "b"), (0, 1), new_node=False, conf=0.5, lift=2.0,
    )
    r2 = mk_rule(
        [(0, 1, "c")], [(0, 1, "c"), (1, 0, "b")],
        (1, 0, "b"), (0, 1), new_node=False, conf=0.25, lift=math.nan,
    )
    r3 = mk_rule(
        [(0, 1, "c")], [(0, 1, "c"), (0, 1, "b")],
        (0, 1, "b"), (0, 1), new_node=False, conf=0.125, lift=math.nan,
    )
    return g, [r1, r2, r3]


def test_scheme_arithmetic(three_rule_setup):
    g, rules = three_rule_setup
    shared, nan_only = ("2", "1", "b"), ("1", "2", "b")
    got = {
        s: score_links(g, rules, scheme=s).scores for s in WEIGHTING_SCHEMES
    }
    assert got["count"] == {shared: 2.0, nan_only: 1.0}
    assert got["conf"][shared] == pytest.approx(0.75)
    assert got["conf"][nan_only] == pytest.approx(0.125)
    assert got["conf-mean"][shared] == pytest.approx(0.375)
    # Rules with undefined lift are excluded; a key with no finite-lift
    # contributor disappears from lift-weighted tables entirely.
    assert got["lift"] == {shared: 2.0}
    assert got["lift-mean"] == {shared: 2.0}


def test_provenance_tracks_surviving_keys(three_rule_setup):
    g, rules = three_rule_setup
    for scheme in WEIGHTING_SCHEMES:
        t = score_links(g, rules, scheme=scheme)
        assert set(t.provenance) == set(t.scores)


def test_provenance_names_only_the_rules_that_scored(three_rule_setup):
    # r2 proposes the shared key too, but its lift is NaN, so lift schemes
    # skip it: it adds nothing to the score and is no contributor.
    g, (r1, r2, _) = three_rule_setup
    shared = ("2", "1", "b")
    for scheme in ("lift", "lift-mean"):
        t = score_links(g, [r1, r2], scheme=scheme)
        assert t.scores[shared] == 2.0
        assert t.provenance[shared] == (r1.rid,)
    for scheme in ("count", "conf"):
        t = score_links(g, [r1, r2], scheme=scheme)
        assert t.provenance[shared] == (r1.rid, r2.rid)


def test_unknown_scheme_rejected():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    with pytest.raises(MrkError):
        score_links(g, [], scheme="bogus")
    with pytest.raises(MrkError):
        score_old_new(g, [], scheme="jaccard")


# -- carried tables against fresh joins -------------------------------------


@pytest.fixture(scope="module")
def mined_fold():
    """Rules mined on the training graph of one fold of a random host."""
    rng = np.random.default_rng(20240817)
    g = rand_host(rng, 18, 2, 44, directed=True, attr_values="mn")
    train = split_random(g, 5, 0)[0].train
    rules = build_rules(mine(train, MinerConfig(min_support=2, max_nodes=3)),
                        train)
    return g, train, rules


def assert_same_table(a, b):
    assert a.space == b.space
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.values, b.values)
    assert a.provenance == b.provenance


@pytest.mark.parametrize("per_embedding", [False, True])
def test_carried_tables_score_like_fresh_joins(mined_fold, per_embedding):
    g, train, rules = mined_fold
    assert any(r.new_node for r in rules) and any(not r.new_node for r in rules)
    assert all(r.antecedent.mined_on[0] is train for r in rules)
    # Round-tripped rules carry no tables, so every antecedent is joined
    # afresh, on the training graph and on the full graph alike.
    fresh = [rule_from_dict(rule_to_dict(r)) for r in rules]
    assert all(r.antecedent.mined_on is None for r in fresh)
    for host in (train, g):
        for scheme in WEIGHTING_SCHEMES:
            links = score_links(host, rules, scheme, per_embedding)
            assert links.provenance
            assert_same_table(links, score_links(host, fresh, scheme,
                                                 per_embedding))
            old_new = score_old_new(host, rules, scheme, per_embedding)
            assert old_new.new_attrs
            again = score_old_new(host, fresh, scheme, per_embedding)
            assert_same_table(old_new, again)
            assert old_new.new_attrs == again.new_attrs


def test_carried_tables_never_cross_graphs(mined_fold):
    # The full graph has edges the training graph lacks, so reading the
    # training tables there would change the scores.
    g, train, rules = mined_fold
    on_g = score_links(g, rules, "count", per_embedding=True)
    assert on_g.scores != score_links(train, rules, "count",
                                      per_embedding=True).scores
    for r in rules:
        assert np.array_equal(r.antecedent.table_in(g),
                              embedding_table(r.antecedent, g))
        assert r.antecedent.table_in(train) is r.antecedent.mined_on[1]


# -- the antecedent walk both scorers share ---------------------------------


@pytest.fixture
def reads(monkeypatch):
    """The antecedents whose tables ``Pattern.table_in`` was asked for."""
    seen = []
    table_in = Pattern.table_in

    def counted(self, g, budget=predictor.DEFAULT_BUDGET):
        seen.append(self)
        return table_in(self, g, budget)

    monkeypatch.setattr(Pattern, "table_in", counted)
    return seen


def _walk_rules(new_node):
    """Rules on antecedents A, B, A, each proposing on the host of
    :func:`_walk_host`, new-node rules when ``new_node``.  B equals A but
    is another object, and runs go by object."""
    if new_node:
        cons, delta = [(0, 1, "a"), (1, 2, "b")], (1, 2, "b")
    else:
        cons, delta = [(0, 1, "a"), (1, 0, "b")], (1, 0, "b")
    a = mk_rule([(0, 1, "a")], cons, delta, (0, 1), new_node)
    b = mk_rule([(0, 1, "a")], cons, delta, (0, 1), new_node, conf=0.25)
    return [a, b, dataclasses.replace(a, confidence=0.125)]


def _walk_host():
    return MultiplexGraph([("1", "2", "a"), ("2", "3", "a"), ("5", "6", "b")],
                          directed=True)


@pytest.mark.parametrize("new_node", [False, True])
def test_walk_reads_each_antecedent_run_once(reads, new_node):
    g = _walk_host()
    a, b, a2 = _walk_rules(new_node)
    score = score_old_new if new_node else score_links
    assert len(score(g, [a, b, a2])) and len(reads) == 3
    # Rules that read nothing (the other kind) do not end a run.
    other = _walk_rules(not new_node)[1]
    reads.clear()
    assert len(score(g, [a, other, a2, b])) and len(reads) == 2
    assert reads[0] is a.antecedent and reads[1] is b.antecedent


def test_walk_reads_no_table_for_rules_that_propose_nothing(reads):
    # Read back from JSON, every antecedent is joined afresh, and a join's
    # first slot takes one row per host node, past a budget of 1.
    g = _walk_host()
    close, lost_layer, growth = (
        rule_from_dict(rule_to_dict(r)) for r in (
            _walk_rules(False)[0],
            mk_rule([(0, 1, "a")], [(0, 1, "a"), (1, 0, "zz")], (1, 0, "zz"),
                    (0, 1), new_node=False),
            _walk_rules(True)[0],
        ))
    assert close.antecedent.mined_on is None
    assert len(score_links(g, [lost_layer, growth], budget=1)) == 0
    assert len(score_old_new(g, [close, lost_layer], budget=1)) == 0
    assert reads == []
    with pytest.raises(MiningBudgetError):
        score_links(g, [close], budget=1)
    with pytest.raises(MiningBudgetError):
        score_old_new(g, [growth], budget=1)


def test_fresh_and_provenance_skip_rules_without_proposals():
    # The first rule's antecedent asks for an attribute the host lacks, so
    # its table is empty: it neither scores nor names a fresh attribute.
    g = MultiplexGraph([("1", "2", "a")], attrs={"1": "h"}, directed=True)
    lost = mk_rule([(0, 1, "a")], [(0, 1, "a"), (1, 2, "a")], (1, 2, "a"),
                   (0, 1), new_node=True, ant_attrs=("zz", D),
                   cons_attrs=("zz", D, "y"))
    kept = mk_rule([(0, 1, "a")], [(0, 1, "a"), (1, 2, "a")], (1, 2, "a"),
                   (0, 1), new_node=True, ant_attrs=("h", D),
                   cons_attrs=("h", D, "x"))
    t = score_old_new(g, [lost, kept], scheme="count")
    assert t.fresh == ("x",)
    assert t.provenance == {("2", "a", "out"): (kept.rid,)}
    assert t.new_attrs == {("2", "a", "out"): ("x",)}
    lost = mk_rule([(0, 1, "a")], [(0, 1, "a"), (1, 0, "a")], (1, 0, "a"),
                   (0, 1), new_node=False, ant_attrs=("zz", D))
    kept = mk_rule([(0, 1, "a")], [(0, 1, "a"), (1, 0, "a")], (1, 0, "a"),
                   (0, 1), new_node=False, ant_attrs=("h", D))
    t = score_links(g, [lost, kept], scheme="count")
    assert t.contributors.rids == (kept.rid,)
    assert t.provenance == {("2", "1", "a"): (kept.rid,)}


# -- both scoring functions against the dict oracle -------------------------


def assert_is_oracle(t, want):
    """``t`` holds the oracle's keys, value bytes and contributors."""
    assert np.array_equal(t.keys, want["keys"])
    assert t.values.tobytes() == want["values"].tobytes()
    c = t.contributors
    assert np.array_equal(c.ptr, want["ptr"])
    assert np.array_equal(c.index, want["index"])
    assert c.rids == want["rids"]
    if "new_attrs" in want:
        assert t.new_attrs == want["new_attrs"]


def check_oracle(host, rules):
    """Both scoring functions equal the oracle under every scheme, with and
    without ``per_embedding``; returns how many tables held a key."""
    filled = 0
    for scheme in WEIGHTING_SCHEMES:
        for per_embedding in (False, True):
            for old_new, score in ((False, score_links), (True, score_old_new)):
                t = score(host, rules, scheme, per_embedding)
                assert_is_oracle(t, oracle_rule_scores(
                    host, rules, scheme, per_embedding, old_new))
                filled += len(t) > 0
    return filled


def mined_rules(host, support=2, max_nodes=3):
    return build_rules(mine(host, MinerConfig(min_support=support,
                                              max_nodes=max_nodes)), host)


def test_mined_fold_scores_are_the_oracle(mined_fold):
    g, train, rules = mined_fold
    fresh = [rule_from_dict(rule_to_dict(r)) for r in rules]
    for host in (train, g):
        for rs in (rules, fresh):
            assert check_oracle(host, rs) == 20


def test_undirected_scores_are_the_oracle():
    g = rand_host(np.random.default_rng(5), 18, 2, 36, directed=False,
                  attr_values="mn")
    rules = mined_rules(g)
    assert any(r.new_node for r in rules) and any(not r.new_node for r in rules)
    assert check_oracle(g, rules) == 20


@pytest.mark.parametrize("directed, support", [(True, 1), (False, 2)])
def test_adversarial_host_scores_are_the_oracle(directed, support):
    g = adversarial_host(np.random.default_rng(11), directed, 2)
    rules = mined_rules(g, support)
    assert any(not r.new_node for r in rules)
    assert check_oracle(g, rules) > 0


def test_shuffled_rules_score_as_the_oracle(mined_fold):
    # Runs of one antecedent are broken up, so an antecedent recurs in
    # separate runs and its table is read again for each.
    g, train, rules = mined_fold
    order = np.random.default_rng(3).permutation(len(rules))
    shuffled = [rules[i] for i in order]
    starts = [r.antecedent for i, r in enumerate(shuffled)
              if i == 0 or r.antecedent is not shuffled[i - 1].antecedent]
    assert len(starts) > len({id(a) for a in starts})
    for host in (train, g):
        assert check_oracle(host, shuffled) == 20


def test_rules_on_a_layer_the_host_lacks_score_as_the_oracle(mined_fold):
    # A close rule on the absent layer proposes nothing; a new-node rule
    # on it scores slots of that layer.  Both have NaN lift, as a layer
    # without edges gives, and sit inside their antecedent's run.
    g, train, rules = mined_fold

    def elsewhere(rule):
        ds, dd, lay = rule.delta_edge
        cons = rule.consequent
        edges = (cons.edges - {rule.delta_edge}) | {(ds, dd, "zz")}
        return dataclasses.replace(
            rule, delta_edge=(ds, dd, "zz"), lift=math.nan,
            consequent=Pattern(cons.attrs, frozenset(edges), cons.support))

    moved = list(rules)
    for kind in (False, True):
        at = next(i for i, r in enumerate(moved) if r.new_node == kind)
        moved.insert(at + 1, elsewhere(moved[at]))
    t = score_old_new(train, moved, "count")
    assert any(lay == "zz" for _, lay, _ in t.scores)
    assert check_oracle(train, moved) == 20


def test_scores_past_the_mask_cap_are_the_oracle():
    # About 2,100 nodes on 4 layers: 17.6M link keys, past the 2^24 cap,
    # so the host has no edge mask and scoring ranks keys by np.unique.
    core = rand_host(np.random.default_rng(2), 12, 4, 40, directed=True,
                     attr_values="mn")
    g = MultiplexGraph(list(core.name_triples()), attrs=dict(core.attr_map()),
                       directed=True,
                       extra_nodes=pad_names(2100, "x") + list(core.node_names))
    assert math.prod(g.space.shape) > LINK_MASK_CAP
    assert g.arrays.mask is None
    rules = mined_rules(g)
    assert any(not r.new_node for r in rules)
    assert check_oracle(g, rules) == 20


# -- insert-and-match oracle on a mined host --------------------------------


@pytest.fixture(scope="module")
def mined_directed():
    rng = np.random.default_rng(20240817)
    g = rand_host(rng, 15, 2, 34, directed=True, attr_values="mn")
    pats = mine(g, MinerConfig(min_support=2, max_nodes=3))
    rules = build_rules(pats, g)
    return g, rules


def inserted_graph(g, key):
    u, v, lay = key
    return MultiplexGraph(
        list(g.name_triples()) + [(u, v, lay)],
        attrs=dict(g.attr_map()),
        directed=g.directed,
        extra_nodes=g.node_names,
    )


def oracle_contributes(rule, key, g):
    """Does the consequent embed in host+edge with the delta on that edge?

    Direct transcription of the prediction semantics for directed hosts
    (symmetric insertion would also admit reciprocal matches).
    """
    u, v, lay = key
    ds, dd, dl = rule.delta_edge
    if dl != lay:
        return False
    g2 = inserted_graph(g, key)
    cons = rule.consequent
    uid, vid = g2.node_id(u), g2.node_id(v)
    if cons.attrs[ds] != g2.attrs[uid] or cons.attrs[dd] != g2.attrs[vid]:
        return False
    try:
        lids = {l: g2.layer_id(l) for _, _, l in cons.edges}
    except KeyError:
        return False
    rest = [i for i in range(cons.n_slots) if i not in (ds, dd)]
    others = [x for x in range(g2.n_nodes) if x not in (uid, vid)]
    for assign in itertools.permutations(others, len(rest)):
        img = {ds: uid, dd: vid, **dict(zip(rest, assign))}
        if any(cons.attrs[i] != g2.attrs[img[i]] for i in rest):
            continue
        if all(
            g2.has_edge(img[a], img[b], lids[l]) for a, b, l in cons.edges
        ):
            return True
    return False


def test_count_scores_match_insertion_oracle(mined_directed, rng):
    g, rules = mined_directed
    close = [r for r in rules if not r.new_node]
    assert close
    table = score_links(g, rules, scheme="count")
    assert table.scores
    keys = sorted(table.scores)
    picked = [keys[i] for i in rng.choice(len(keys), min(25, len(keys)),
                                          replace=False)]
    for key in picked:
        expected = sum(1 for r in close if oracle_contributes(r, key, g))
        assert table.scores[key] == float(expected) > 0


def test_unscored_absent_triples_have_no_contributor(mined_directed, rng):
    g, rules = mined_directed
    close = [r for r in rules if not r.new_node]
    table = score_links(g, rules, scheme="count")
    existing = set(g.name_triples())
    tried = 0
    names, layers = g.node_names, g.layer_names
    while tried < 20:
        u = names[rng.integers(len(names))]
        v = names[rng.integers(len(names))]
        lay = layers[rng.integers(len(layers))]
        key = (u, v, lay)
        if u == v or key in existing or key in table.scores:
            continue
        tried += 1
        assert not any(oracle_contributes(r, key, g) for r in close)


def test_table_smaller_than_candidate_space(mined_directed):
    g, rules = mined_directed
    table = score_links(g, rules, scheme="count")
    n, L = g.n_nodes, g.n_layers
    negatives = n * (n - 1) * L - g.n_edges
    assert 0 < len(table.scores) < negatives


def test_adding_rules_grows_scores(mined_directed):
    g, rules = mined_directed
    close = [r for r in rules if not r.new_node]
    half = score_links(g, close[: len(close) // 2], scheme="count")
    full = score_links(g, close, scheme="count")
    assert set(half.scores) <= set(full.scores)
    for k, s in half.scores.items():
        assert full.scores[k] >= s


def test_scoring_deterministic(mined_directed):
    g, rules = mined_directed
    a = score_links(g, rules, scheme="conf")
    b = score_links(g, rules, scheme="conf")
    assert a.scores == b.scores and a.provenance == b.provenance


def test_count_and_conf_orderings_agree_broadly(mined_directed):
    scipy_stats = pytest.importorskip("scipy.stats")
    g, rules = mined_directed
    count = score_links(g, rules, scheme="count").scores
    conf = score_links(g, rules, scheme="conf").scores
    keys = sorted(count)
    tau = scipy_stats.kendalltau(
        [count[k] for k in keys], [conf[k] for k in keys]
    ).statistic
    assert tau > 0.2


# -- old-new scoring --------------------------------------------------------


def test_old_new_empty():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    t = score_old_new(g, [], scheme="count")
    assert t.scores == {} and t.new_attrs == {}


def test_old_new_out_direction():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 2, "a")],
        (1, 2, "a"), (0, 1), new_node=True, conf=0.4,
    )
    t = score_old_new(g, [r], scheme="conf")
    assert t.scores == {("2", "a", "out"): pytest.approx(0.4)}
    assert t.new_attrs == {}


def test_old_new_in_direction():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (2, 0, "a")],
        (2, 0, "a"), (0, 1), new_node=True,
    )
    t = score_old_new(g, [r], scheme="count")
    assert t.scores == {("1", "a", "in"): 1.0}


def test_old_new_undirected_collapses_direction():
    g = MultiplexGraph([("1", "2", "a")], directed=False)
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (2, 0, "a")],
        (2, 0, "a"), (0, 1), new_node=True,
    )
    t = score_old_new(g, [r], scheme="count")
    assert set(t.scores) == {("1", "a", "out"), ("2", "a", "out")}


def test_old_new_records_wanted_attr():
    g = MultiplexGraph(
        [("1", "2", "a")], attrs={"1": "h"}, directed=True
    )
    r = mk_rule(
        [(0, 1, "a")],
        [(0, 1, "a"), (1, 2, "a")],
        (1, 2, "a"), (0, 1), new_node=True,
        ant_attrs=("h", D), cons_attrs=("h", D, "x"),
    )
    t = score_old_new(g, [r], scheme="count")
    assert t.scores == {("2", "a", "out"): 1.0}
    assert t.new_attrs == {("2", "a", "out"): ("x",)}


def test_old_new_per_embedding():
    g = MultiplexGraph(
        [("1", "3", "a"), ("2", "3", "a")], directed=True
    )
    r = mk_rule(
        [(0, 1, "a")], [(0, 1, "a"), (1, 2, "a")],
        (1, 2, "a"), (0, 1), new_node=True,
    )
    per_rule = score_old_new(g, [r], scheme="count")
    per_emb = score_old_new(g, [r], scheme="count", per_embedding=True)
    assert per_rule.scores[("3", "a", "out")] == 1.0
    assert per_emb.scores[("3", "a", "out")] == 2.0


def test_old_new_on_mined_rules(mined_directed):
    g, rules = mined_directed
    growth = [r for r in rules if r.new_node]
    assert growth
    t = score_old_new(g, rules, scheme="conf")
    assert t.scores
    dirs = {d for _, _, d in t.scores}
    assert dirs <= {"out", "in"}
    for key, score in t.scores.items():
        assert score > 0.0
        assert key[0] in g.node_names
        assert key[1] in g.layer_names


# -- score table access and CSV ---------------------------------------------


def test_scores_for_pair_fallback():
    t = ScoreTable.from_scores("count", {("1", "2"): 3.0})
    space = KeySpace.links(("1", "2", "9"), ("q", "x"))
    keys = space.encode([("2", "1", "x"), ("1", "2", "q"), ("9", "9", "q")])
    got = t.scores_for(keys, space)
    assert got.dtype == np.float64
    assert got.tolist() == [3.0, 3.0, 0.0]
    assert t.scores_for([], space).shape == (0,)
    # Mixed keys: an exact triple wins over its pair, even at 0.  The
    # query space has names the table lacks, so ids differ on both axes.
    mixed = ScoreTable.from_scores(
        "count", {("1", "2"): 1.5, ("a", "b", "x"): 2.0, ("2", "1", "y"): 0.0}
    )
    space = KeySpace.links(("0", "1", "2", "a", "b"), ("w", "x", "y"))
    keys = space.encode([("a", "b", "x"), ("b", "a", "x"), ("2", "1", "x"),
                         ("2", "1", "y"), ("0", "1", "x"), ("a", "b", "w")])
    assert mixed.scores_for(keys, space).tolist() == [
        2.0, 0.0, 1.5, 0.0, 0.0, 0.0]
    # Old-new tables are score tables; their keys never fall back.
    on = OldNewScoreTable.from_scores("count", {("7", "a", "out"): 2.0})
    assert isinstance(on, ScoreTable)
    space = KeySpace.slots(("7", "8"), ("a", "b"))
    keys = space.encode([("7", "a", "out"), ("7", "a", "in"), ("8", "a", "out"),
                         ("7", "b", "out")])
    assert on.scores_for(keys, space).tolist() == [2.0, 0.0, 0.0, 0.0]


def _random_table(rng, scheme, space, links=0.0, pairs=0.0):
    """A table over ``space`` holding each link and each pair key with the
    given odds, with scores that include exact zeros."""
    n, _, nl = space.shape
    lk = np.flatnonzero(rng.random(n * n * nl) < links)
    pk = np.flatnonzero(rng.random(n * n) < pairs)
    return ScoreTable(scheme, space, lk, rng.integers(0, 4, len(lk)) / 2.0,
                      pk, rng.integers(0, 4, len(pk)) / 2.0)


# Query lengths for _check_matrix_for.  A search reads a dense index when
# its key space has at most twice as many keys as the query, else it runs
# searchsorted.  The spaces there hold 300 and 243 link keys and 100 and
# 81 pair keys, so 600 keys read every search densely, 100 keys read the
# link searches by searchsorted and the pair searches densely, and 30 keys
# read every search by searchsorted.
_QUERY_LENGTHS = (600, 100, 30)


def test_matrix_for_matches_per_key_oracle(rng):
    for n_keys in _QUERY_LENGTHS:
        _check_matrix_for(rng, n_keys)


@pytest.mark.parametrize("rows", [1, 7])
def test_matrix_for_across_lookup_chunks(rng, monkeypatch, rows):
    # Shared searches, the pair fallback and names off a table's axes all
    # cross chunk edges, on both position paths.
    monkeypatch.setattr(predictor, "CHUNK_ROWS", rows)
    for n_keys in _QUERY_LENGTHS:
        _check_matrix_for(rng, n_keys)


def _check_matrix_for(rng, n_keys):
    # Names hold code separators; the query space has nodes and layers some
    # tables lack, and the tables have names the query never asks about.
    nodes = ("%", "|", ",", ">", ":", ";", "=", "::", "a::b", "x")
    layers = (":", "::", "=;")
    space = KeySpace.links(tuple(sorted(nodes)), tuple(sorted(layers)))
    part = KeySpace.links(tuple(sorted(nodes[2:] + ("zz",))),
                          tuple(sorted(layers[1:] + ("new",))))
    # Equal to ``part`` but a distinct object, as each classical index
    # builds its own space.
    twin = KeySpace.links(tuple(part.axes[0]), tuple(part.axes[2]))
    links = _random_table(rng, "links", part, links=0.3)
    pairs = _random_table(rng, "pairs", part, pairs=0.5)
    mixed = _random_table(rng, "mixed", space, links=0.2, pairs=0.4)
    moved = pairs.pair_keys.copy()
    moved[len(moved) // 2] = next(k for k in range(part.shape[0] ** 2)
                                  if k not in set(moved.tolist()))
    tables = [
        links,
        pairs,
        mixed,
        ScoreTable("empty", space),
        # Equal key arrays with other values, in an equal space.
        ScoreTable("same-links", twin, links.keys, links.values[::-1]),
        ScoreTable("same-pairs", twin, pair_keys=pairs.pair_keys,
                   pair_values=pairs.pair_values + 1.0),
        # Unequal key arrays in the same space: as long as ``pairs``'s,
        # one key moved; and a prefix of it.
        ScoreTable("moved", part, pair_keys=np.sort(moved),
                   pair_values=pairs.pair_values * 3.0),
        ScoreTable("prefix", part, pair_keys=pairs.pair_keys[:-3],
                   pair_values=pairs.pair_values[:-3] - 1.0),
        ScoreTable("mixed-prefix", space, mixed.keys[:-2], mixed.values[:-2],
                   mixed.pair_keys[1:], mixed.pair_values[1:]),
        _random_table(rng, "links-too", space, links=0.3),
        OldNewScoreTable.from_scores("slots", {(":", "::", "out"): 2.0}),
    ]
    n, _, nl = space.shape
    assert (n * n * nl, n * n) == (300, 100)
    assert (math.prod(part.shape), part.shape[0] ** 2) == (243, 81)
    q = rng.integers(0, n * n * nl, n_keys)  # any order, repeats
    names = space.decode(q)
    got = ScoreTable.lookup(tables, q, space).fill(
        np.empty((len(q), len(tables))))
    assert got.shape == (len(q), len(tables)) and got.flags.c_contiguous
    for j, t in enumerate(tables):
        want = [oracle_lookup(t, k) for k in names]
        assert got[:, j].tolist() == want, t.scheme
        assert t.scores_for(q, space).tolist() == want, t.scheme
    empty = ScoreTable.lookup(tables, [], space).fill(
        np.empty((0, len(tables))))
    assert empty.shape == (0, len(tables))
    assert ScoreTable.lookup([], q, space).fill(
        np.empty((len(q), 0))).shape == (len(q), 0)


def test_scores_csv_round_trip(tmp_path, mined_directed):
    g, rules = mined_directed
    t = score_links(g, rules, scheme="conf")
    p = str(tmp_path / "scores.csv")
    write_scores_csv(t, p)
    back = read_scores_csv(p)
    assert back.scores == t.scores


def test_scores_csv_pair_keys(tmp_path):
    t = ScoreTable.from_scores("count", {("1", "2"): 1.5, ("a", "b", "x"): 2.0})
    p = str(tmp_path / "s.csv")
    write_scores_csv(t, p)
    back = read_scores_csv(p)
    assert back.scores == t.scores


def test_read_scores_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(MrkError):
        read_scores_csv(str(empty))
    bad = tmp_path / "bad.csv"
    bad.write_text("src,dst,layer,score\n1,2\n", encoding="utf-8")
    with pytest.raises(MrkError):
        read_scores_csv(str(bad))
    # An old-new file and a foreign two-column file are not link scores.
    old_new = tmp_path / "old_new.csv"
    write_old_new_csv(
        OldNewScoreTable.from_scores("count", {("n01", "l1", "out"): 2.0}),
        str(old_new))
    other = tmp_path / "other.csv"
    other.write_text("a,b\n", encoding="utf-8")
    for path, header in ((old_new, "['node', 'layer', 'direction', 'score']"),
                         (other, "['a', 'b']")):
        with pytest.raises(MrkError) as err:
            read_scores_csv(str(path))
        assert str(path) in str(err.value)
        assert header in str(err.value)


def test_old_new_csv_format(tmp_path):
    t = OldNewScoreTable.from_scores("count", {("7", "a", "out"): 2.0})
    p = tmp_path / "on.csv"
    write_old_new_csv(t, str(p))
    assert p.read_text(encoding="utf-8").splitlines() == [
        "node,layer,direction,score",
        "7,a,out,2.0",
    ]
