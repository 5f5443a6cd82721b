"""Rule derivation: orbits, bridges, confidence, lift, serialization."""

import itertools
import math

import pytest

from mrk.graph import ATTR_DEFAULT, MultiplexGraph
from mrk.miner import MinerConfig, Pattern, mine
from mrk.rules import (
    Rule,
    build_rules,
    rule_from_dict,
    rule_lift,
    rule_to_dict,
)
from tests.conftest import rand_host

D = ATTR_DEFAULT


def sp(attrs, edges, support):
    return Pattern(tuple(attrs), frozenset(edges), support)


def rule_key(r):
    return (r.antecedent.code, r.consequent.code, r.delta_edge)


# -- independent recount of rules per pattern pair --------------------------


def brute_automorphisms(p):
    k = p.n_slots
    out = []
    for perm in itertools.permutations(range(k)):
        if any(p.attrs[i] != p.attrs[perm[i]] for i in range(k)):
            continue
        if {(perm[a], perm[b], l) for a, b, l in p.edges} == set(p.edges):
            out.append(perm)
    return out


def brute_connected_without(p, edge):
    adj = {i: set() for i in range(p.n_slots)}
    for a, b, _ in p.edges - {edge}:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == p.n_slots


def oracle_rule_count(p1, p2):
    """Distinct delta-edge orbits over all one-edge-short containments."""
    if p2.n_edges != p1.n_edges + 1:
        return 0
    extra = p2.n_slots - p1.n_slots
    if extra not in (0, 1):
        return 0
    auts = brute_automorphisms(p2)
    orbits = set()
    for m in itertools.permutations(range(p2.n_slots), p1.n_slots):
        if any(p1.attrs[i] != p2.attrs[m[i]] for i in range(p1.n_slots)):
            continue
        covered = {(m[a], m[b], l) for a, b, l in p1.edges}
        if not covered <= p2.edges or len(covered) != p1.n_edges:
            continue
        left = p2.edges - covered
        if len(left) != 1:
            continue
        delta = next(iter(left))
        if extra == 0 and not brute_connected_without(p2, delta):
            continue
        a, b, l = delta
        orbits.add(min((q[a], q[b], l) for q in auts))
    return len(orbits)


# -- worked example ---------------------------------------------------------


@pytest.fixture
def lift_host():
    # Five nodes, two stored edges in layer "a": density 2/20 = 0.1.
    return MultiplexGraph(
        [("1", "2", "a"), ("3", "4", "a")],
        directed=True,
        extra_nodes=["5"],
    )


def test_path_extension_example(lift_host):
    single = sp((D, D), {(0, 1, "a")}, 10)
    path2 = sp((D, D, D), {(0, 1, "a"), (1, 2, "a")}, 4)
    rules = build_rules([single, path2], lift_host)
    assert len(rules) == 2
    assert all(r.confidence == 0.4 for r in rules)
    assert all(r.new_node for r in rules)
    assert all(r.lift == pytest.approx(4.0) for r in rules)
    # One rule predicts the outgoing continuation, the other the incoming
    # prefix: the fresh slot sits at opposite ends of the delta edge.
    ends = set()
    for r in rules:
        fresh = set(range(3)) - set(r.antecedent_map)
        a, b, _ = r.delta_edge
        ends.add((a in fresh, b in fresh))
    assert ends == {(True, False), (False, True)}


def test_single_pattern_yields_nothing(lift_host):
    assert build_rules([sp((D, D), {(0, 1, "a")}, 3)], lift_host) == []


def test_missing_support_rejected(lift_host):
    bare = Pattern((D, D), frozenset({(0, 1, "a")}))
    with pytest.raises(ValueError):
        build_rules([bare], lift_host)


def test_close_rule_on_two_cycle(lift_host):
    # Same-slot rule: single edge => reciprocated edge.  The delta is not a
    # bridge (the covered edge keeps both slots connected).
    single = sp((D, D), {(0, 1, "a")}, 8)
    cyc = sp((D, D), {(0, 1, "a"), (1, 0, "a")}, 2)
    rules = build_rules([single, cyc], lift_host)
    assert len(rules) == 1
    r = rules[0]
    assert not r.new_node
    assert r.confidence == 0.25
    assert r.consequent.code == cyc.code


def test_bridge_delta_suppressed(lift_host):
    # 2-path => 2-path-plus-tail would need the bridge edge as delta when
    # the slots match; only the new-node variant of such growth is legal.
    path2 = sp((D, D, D), {(0, 1, "a"), (1, 2, "a")}, 6)
    tri = sp(
        (D, D, D), {(0, 1, "a"), (1, 2, "a"), (2, 0, "a")}, 2
    )
    rules = build_rules([path2, tri], lift_host)
    # Triangle is edge-transitive here: exactly one orbit, delta not a
    # bridge, so exactly one close rule survives.
    assert len(rules) == 1
    assert not rules[0].new_node
    assert rules[0].confidence == pytest.approx(2 / 6)


def test_connectivity_tested_once_per_pattern(lift_host, monkeypatch):
    # Deleting the middle edge of path3 leaves a remainder with the code
    # of the disconnected pattern `apart`, which is no antecedent; the
    # duplicate path2 yields its rules twice.
    single = sp((D, D), {(0, 1, "a")}, 10)
    path2 = sp((D, D, D), {(0, 1, "a"), (1, 2, "a")}, 4)
    path3 = sp((D,) * 4, {(0, 1, "a"), (1, 2, "a"), (2, 3, "a")}, 2)
    apart = sp((D,) * 4, {(0, 1, "a"), (2, 3, "a")}, 3)
    base = build_rules([single, path2, path3], lift_host)
    again = [r for r in base if r.consequent == path2]
    want = sorted(rule_key(r) for r in base + again)
    assert len(base) == 4 and len(again) == 2

    calls = []
    is_connected = Pattern.is_connected
    monkeypatch.setattr(Pattern, "is_connected",
                        lambda p: calls.append(p) or is_connected(p))
    patterns = [single, path2, apart, path3, path2]
    got = build_rules(patterns, lift_host)
    assert len(calls) <= len(patterns)
    assert all(r.antecedent != apart for r in got)
    assert [rule_key(r) for r in got] == want


# -- mined-host battery -----------------------------------------------------


@pytest.fixture(scope="module")
def mined():
    """(host, patterns, rules) for a directed 3-slot and an undirected
    4-slot host; the second has many consequents with symmetries."""
    import numpy as np

    out = []
    for seed, n, layers, units, directed, attrs, sigma, k in (
        (20240817, 25, 2, 46, True, "mn", 2, 3),
        (3, 12, 2, 18, False, "", 3, 4),
    ):
        rng = np.random.default_rng(seed)
        g = rand_host(rng, n, layers, units, directed=directed,
                      attr_values=attrs)
        pats = mine(g, MinerConfig(min_support=sigma, max_nodes=k))
        out.append((g, pats, build_rules(pats, g)))
    return out


def test_rule_fields_consistent(mined):
    for g, pats, rules in mined:
        assert rules
        sup = {p.code: p.support for p in pats}
        for r in rules:
            assert r.delta_edge in r.consequent.edges
            m = r.antecedent_map
            covered = {
                (m[a], m[b], l) for a, b, l in r.antecedent.edges
            }
            assert r.consequent.edges - covered == {r.delta_edge}
            assert r.confidence == (
                sup[r.consequent.code] / sup[r.antecedent.code]
            )
            assert 0.0 < r.confidence <= 1.0
            assert r.new_node == (
                r.consequent.n_slots == r.antecedent.n_slots + 1
            )
            if r.new_node:
                fresh = set(range(r.consequent.n_slots)) - set(m)
                a, b, _ = r.delta_edge
                assert a in fresh or b in fresh
            else:
                assert brute_connected_without(r.consequent, r.delta_edge)
            auts = brute_automorphisms(r.consequent)
            a, b, l = r.delta_edge
            assert r.delta_edge == min((q[a], q[b], l) for q in auts)


def test_antecedent_map_is_smallest(mined):
    # Among all maps of the antecedent into the consequent that leave
    # exactly the delta edge uncovered, the rule carries the smallest.
    for _, _, rules in mined:
        for r in rules:
            p1, p2 = r.antecedent, r.consequent
            want = p2.edges - {r.delta_edge}
            maps = [
                m
                for m in itertools.permutations(range(p2.n_slots), p1.n_slots)
                if all(p1.attrs[i] == p2.attrs[m[i]] for i in range(p1.n_slots))
                and {(m[a], m[b], l) for a, b, l in p1.edges} == want
            ]
            assert r.antecedent_map == min(maps)


def test_canonical_scan_yields_automorphism_group(mined):
    # Composing the inverse of one minimising permutation with each of the
    # others gives exactly the pattern's automorphism group.
    symmetric_four = 0
    for _, pats, _ in mined:
        for p in pats:
            perms = p.canonical_perms
            back = {s: i for i, s in enumerate(perms[0])}
            auts = sorted(tuple(back[s] for s in perm) for perm in perms)
            assert auts == brute_automorphisms(p)
            symmetric_four += p.n_slots == 4 and len(auts) > 1
    assert symmetric_four > 0


def test_rule_identities_unique(mined):
    for _, _, rules in mined:
        keys = [rule_key(r) for r in rules]
        assert len(set(keys)) == len(keys)
        rids = {r.rid for r in rules}
        assert len(rids) == len(rules)


def test_rule_count_matches_oracle(mined):
    for _, pats, rules in mined:
        expected = sum(
            oracle_rule_count(p1, p2)
            for p1 in pats
            for p2 in pats
        )
        assert len(rules) == expected


def test_rules_sorted_and_deterministic(mined):
    for g, pats, rules in mined:
        again = build_rules(pats, g)
        assert [rule_key(r) for r in again] == [rule_key(r) for r in rules]
        assert [rule_key(r) for r in rules] == sorted(
            rule_key(r) for r in rules
        )


def test_threshold_filtering_identity(mined):
    for g, pats, rules in mined:
        sup = {p.code: p.support for p in pats}
        sigma = min(sup.values()) + 1
        higher = build_rules([p for p in pats if p.support >= sigma], g)
        expected = [
            rule_key(r) for r in rules if sup[r.consequent.code] >= sigma
        ]
        assert [rule_key(r) for r in higher] == expected


def test_min_conf_filter(mined):
    for g, pats, rules in mined:
        half = build_rules(pats, g, min_conf=0.5)
        assert [rule_key(r) for r in half] == [
            rule_key(r) for r in rules if r.confidence >= 0.5
        ]


def test_min_lift_filter(mined):
    for g, pats, rules in mined:
        cut = 1.0
        kept = build_rules(pats, g, min_lift=cut)
        assert [rule_key(r) for r in kept] == [
            rule_key(r)
            for r in rules
            if not math.isnan(r.lift) and r.lift >= cut
        ]


# -- lift -------------------------------------------------------------------


def test_lift_examples(lift_host):
    assert rule_lift(0.4, "a", lift_host) == pytest.approx(4.0)
    assert rule_lift(0.1, "a", lift_host) == pytest.approx(1.0)
    assert math.isnan(rule_lift(0.4, "nope", lift_host))


def test_lift_tiny_graph():
    g = MultiplexGraph([], directed=True, extra_nodes=["1"])
    assert math.isnan(rule_lift(0.5, "a", g))


def test_lift_undirected_density_consistent():
    # Symmetric storage doubles both the stored count and the ordered-pair
    # denominator's saturation point, so the density equals the undirected
    # edge fraction.
    g = MultiplexGraph(
        [("1", "2", "a"), ("1", "3", "a"), ("2", "3", "a")], directed=False
    )
    assert rule_lift(1.0, "a", g) == pytest.approx(1.0)


# -- serialization ----------------------------------------------------------


def test_rule_dict_round_trip(mined):
    for r in [r for _, _, rules in mined for r in rules[:40]]:
        d = rule_to_dict(r)
        q = rule_from_dict(d)
        assert rule_key(q) == rule_key(r)
        assert q.rid == r.rid == d["id"]
        assert q.confidence == r.confidence
        assert q.antecedent_map == r.antecedent_map
        assert q.new_node == r.new_node
        assert (
            math.isnan(q.lift) and math.isnan(r.lift)
        ) or q.lift == r.lift


def test_rule_dict_nan_lift_is_null():
    r = Rule(
        antecedent=sp((D, D), {(0, 1, "a")}, 4),
        consequent=sp((D, D, D), {(0, 1, "a"), (1, 2, "a")}, 2),
        delta_edge=(1, 2, "a"),
        antecedent_map=(0, 1),
        new_node=True,
        confidence=0.5,
        lift=math.nan,
    )
    d = rule_to_dict(r)
    assert d["lift"] is None
    assert math.isnan(rule_from_dict(d).lift)
