"""Pattern matching, canonical codes, and level-wise mining."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrk import miner
from mrk.errors import (
    MiningBudgetError, MiningInvariantError, PatternSizeError,
)
from mrk.graph import ATTR_DEFAULT, MultiplexGraph
from mrk.miner import (
    MinerConfig,
    MiningStats,
    Pattern,
    embedding_table,
    min_image_support,
    mine,
    pattern_from_dict,
    pattern_to_dict,
    patterns_to_lg,
    single_edge_pattern,
)
from tests.conftest import (
    adversarial_host,
    nx_embeddings,
    oracle_budget_error,
    oracle_canonical_form,
    oracle_embeddings,
    oracle_frequent,
    oracle_isomorphic,
    oracle_mining_stats,
    oracle_mis,
    rand_host,
)

D = ATTR_DEFAULT


def path_pattern(layers, attrs=None):
    k = len(layers) + 1
    return Pattern(
        tuple(attrs) if attrs else (D,) * k,
        frozenset((i, i + 1, l) for i, l in enumerate(layers)),
    )


# -- embeddings -------------------------------------------------------------


def test_single_edge_one_embedding():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    p = single_edge_pattern(D, D, "a")
    assert embedding_table(p, g).tolist() == [[g.node_id("1"),
                                               g.node_id("2")]]


def test_two_cycle_two_embeddings():
    g = MultiplexGraph([("1", "2", "a"), ("2", "1", "a")], directed=True)
    p = Pattern((D, D), frozenset({(0, 1, "a"), (1, 0, "a")}))
    assert len(embedding_table(p, g)) == 2
    assert min_image_support(p, g) == 2


def test_pattern_layer_absent_from_host():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    p = single_edge_pattern(D, D, "zz")
    assert embedding_table(p, g).shape == (0, 2)
    assert min_image_support(p, g) == 0


def test_three_path_instance():
    # Ten directed edges cycling through three layers; the x-y-z path has
    # exactly four embeddings and every slot sees three distinct images.
    g = MultiplexGraph(
        [
            ("8", "5", "x"), ("5", "2", "y"), ("2", "1", "z"),
            ("1", "3", "x"), ("3", "6", "y"), ("6", "8", "z"),
            ("6", "9", "z"), ("9", "7", "x"), ("7", "4", "y"),
            ("4", "1", "z"),
        ],
        directed=True,
    )
    p = path_pattern(["x", "y", "z"])
    nn = g.node_names
    got = sorted(tuple(nn[i] for i in row)
                 for row in embedding_table(p, g).tolist())
    assert got == [
        ("1", "3", "6", "8"),
        ("1", "3", "6", "9"),
        ("8", "5", "2", "1"),
        ("9", "7", "4", "1"),
    ]
    assert min_image_support(p, g) == 3


def test_attrs_restrict_matching():
    g = MultiplexGraph(
        [("1", "2", "a"), ("2", "3", "a"), ("3", "1", "a")],
        attrs={"1": "p", "2": "q", "3": "r"},
        directed=True,
    )
    tri = Pattern(
        ("p", "q", "r"),
        frozenset({(0, 1, "a"), (1, 2, "a"), (2, 0, "a")}),
    )
    assert min_image_support(tri, g) == 1
    wrong = Pattern(
        ("q", "p", "r"),
        frozenset({(0, 1, "a"), (1, 2, "a"), (2, 0, "a")}),
    )
    assert embedding_table(wrong, g).shape == (0, 3)


def test_embeddings_match_oracle(rng):
    g = rand_host(rng, 20, 3, 70, directed=True, attr_values="st")
    layers = g.layer_names
    pats = [
        single_edge_pattern(D, D, layers[0]),
        single_edge_pattern("s", "t", layers[1]),
        path_pattern([layers[0], layers[1]]),
        Pattern((D, D), frozenset({(0, 1, layers[0]), (1, 0, layers[0])})),
        Pattern(
            (D, D, D),
            frozenset({(0, 1, layers[0]), (0, 2, layers[1])}),
        ),
        Pattern(
            ("s", D, D),
            frozenset(
                {(0, 1, layers[0]), (1, 2, layers[2]), (0, 2, layers[1])}
            ),
        ),
        # Disconnected patterns, which a pattern file may hold: a slot
        # with no edge joins every node of its attribute to every row.
        Pattern(("s",), frozenset()),
        Pattern(("s", "t"), frozenset()),
        Pattern(("s", "s", "t"), frozenset({(0, 1, layers[0])})),
        Pattern(("s", "t", "t", "s"),
                frozenset({(0, 1, layers[1]), (2, 3, layers[2])})),
    ]
    for p in pats:
        got = embedding_table(p, g).tolist()
        assert got == [list(e) for e in oracle_embeddings(p, g)]
        assert min_image_support(p, g) == oracle_mis(p, g)


def test_undirected_host_matches_both_directions(rng):
    g = rand_host(rng, 14, 2, 26, directed=False)
    p = single_edge_pattern(D, D, g.layer_names[0])
    got = set(map(tuple, embedding_table(p, g).tolist()))
    assert got == {t[::-1] for t in got}
    assert got == set(oracle_embeddings(p, g))


def sample_pattern(g, rng, k):
    """A connected k-slot pattern read off the host, so it embeds.

    Grows a connected set of k host nodes along random edges, keeps those
    tree edges and each other edge among the nodes with probability 1/2.
    Returns None when the start node's component has fewer than k nodes.
    """
    edges = sorted(g.edges)
    start = edges[rng.integers(len(edges))][0]
    nodes, tree = [start], []
    while len(nodes) < k:
        out = [e for e in edges if (e[0] in nodes) != (e[1] in nodes)]
        if not out:
            return None
        e = out[rng.integers(len(out))]
        nodes.append(e[1] if e[0] in nodes else e[0])
        tree.append(e)
    slot = {u: i for i, u in enumerate(nodes)}
    kept = [
        e for e in edges
        if e[0] in slot and e[1] in slot and (e in tree or rng.random() < 0.5)
    ]
    return Pattern(
        tuple(g.attrs[u] for u in nodes),
        frozenset((slot[u], slot[v], g.layer_names[l]) for u, v, l in kept),
    )


def parallel_host(rng, n, directed, attr_values=""):
    """Random host where a quarter of the edge units repeat on a second layer."""
    base = rand_host(rng, n, 3, int(2.5 * n), directed, attr_values)
    units = base.unit_triples()
    layers = base.layer_names
    extra = [
        (u, v, layers[(layers.index(lay) + 1) % len(layers)])
        for u, v, lay in units if rng.random() < 0.25
    ]
    return MultiplexGraph(
        units + extra, attrs=base.attr_map(), directed=directed,
        extra_nodes=base.node_names,
    )


def test_networkx_oracle_agrees_with_permutation_scan(rng):
    pytest.importorskip("networkx")
    for directed in (True, False):
        g = parallel_host(rng, 9, directed, "ab")
        for k in (2, 3, 4):
            p = sample_pattern(g, rng, k)
            if p is not None:
                assert nx_embeddings(p, g) == oracle_embeddings(p, g)


@pytest.mark.parametrize("n,directed,attr_values", [
    (60, True, "ab"), (100, False, ""), (150, True, ""), (150, False, "abc"),
])
def test_embeddings_match_networkx_on_large_hosts(rng, n, directed,
                                                  attr_values):
    pytest.importorskip("networkx")
    g = parallel_host(rng, n, directed, attr_values)
    pats = [sample_pattern(g, rng, k) for k in (3, 4) for _ in range(6)]
    pats = [p for p in pats if p is not None]
    assert len(pats) >= 10
    assert any(
        (a, b, l1) in p.edges and l1 != l2
        for p in pats for a, b, l2 in p.edges for l1 in g.layer_names
    ), "no sampled pattern has parallel edges on two layers"
    lay, attr = g.layer_names[0], g.attrs[0]
    pats += [
        Pattern((attr, attr, attr), frozenset({(0, 1, lay), (1, 2, "absent")})),
        Pattern((attr, "absent", attr), frozenset({(0, 1, lay), (1, 2, lay)})),
    ]
    for p in pats:
        want = nx_embeddings(p, g)
        assert embedding_table(p, g).tolist() == [list(e) for e in want]
        mis = min(len(set(col)) for col in zip(*want)) if want else 0
        assert min_image_support(p, g) == mis


def test_single_edge_support_is_min_of_source_target_counts(rng):
    g = rand_host(rng, 30, 3, 110, directed=True, attr_values="uv")
    ln = g.layer_names
    srcs, dsts = {}, {}
    for u, v, l in g.edges:
        key = (g.attrs[u], g.attrs[v], ln[l])
        srcs.setdefault(key, set()).add(u)
        dsts.setdefault(key, set()).add(v)
    for key in srcs:
        p = single_edge_pattern(*key)
        assert min_image_support(p, g) == min(len(srcs[key]), len(dsts[key]))


# -- canonical codes --------------------------------------------------------


def test_code_invariant_under_slot_relabeling():
    p = path_pattern(["a", "b"], attrs=("p", D, "q"))
    q = Pattern(
        ("q", "p", D),
        frozenset({(1, 2, "a"), (2, 0, "b")}),
    )
    assert p.code == q.code
    assert oracle_isomorphic(p, q)


def test_code_equal_for_flipped_edge_same_attrs():
    # With indistinguishable endpoints the two orientations are isomorphic,
    # so they must share one code.
    a = Pattern((D, D), frozenset({(0, 1, "a")}))
    b = Pattern((D, D), frozenset({(1, 0, "a")}))
    assert a.code == b.code
    assert a == b


def test_code_differs_for_flipped_edge_distinct_attrs():
    a = Pattern(("p", "q"), frozenset({(0, 1, "a")}))
    b = Pattern(("p", "q"), frozenset({(1, 0, "a")}))
    assert a.code != b.code
    assert not oracle_isomorphic(a, b)


def test_code_differs_across_layers_and_attrs():
    assert single_edge_pattern(D, D, "a").code != single_edge_pattern(
        D, D, "b"
    ).code
    assert single_edge_pattern("p", D, "a").code != single_edge_pattern(
        D, "p", "a"
    ).code


def test_code_iff_isomorphic_on_random_relabelings(rng):
    base = [
        path_pattern(["a", "a"]),
        path_pattern(["a", "b"]),
        Pattern((D, D, D), frozenset({(0, 1, "a"), (2, 1, "a")})),
        Pattern((D, D, D), frozenset({(1, 0, "a"), (1, 2, "a")})),
        Pattern(("p", "q", D), frozenset({(0, 1, "a"), (1, 2, "a")})),
    ]
    pool = list(base)
    for p in base:
        k = p.n_slots
        for perm in itertools.permutations(range(k)):
            inv = {perm[i]: i for i in range(k)}
            pool.append(
                Pattern(
                    tuple(p.attrs[inv[i]] for i in range(k)),
                    frozenset((perm[a], perm[b], l) for a, b, l in p.edges),
                )
            )
    for p1, p2 in itertools.combinations(pool, 2):
        assert (p1.code == p2.code) == oracle_isomorphic(p1, p2)


def test_code_separates_names_containing_separators():
    assert Pattern(("a|b", "c"), frozenset({(0, 1, "L")})) != Pattern(
        ("a", "b|c"), frozenset({(0, 1, "L")})
    )
    assert Pattern((D, D), frozenset({(0, 1, "L,1>0:M")})) != Pattern(
        (D, D), frozenset({(0, 1, "L"), (1, 0, "M")})
    )
    assert Pattern(("%7C",), frozenset()) != Pattern(("|",), frozenset())
    assert Pattern((), frozenset()) != Pattern(("",), frozenset())
    # Names free of separators keep their plain codes.
    assert single_edge_pattern("p", "q", "a").code == "v=p|q;e=0>1:a"


# Names made of the code's separators and its escape character: a small
# fixed pool (so that colliding pairs come up often) plus free text.
SEP_NAMES = st.one_of(
    st.sampled_from(["a", "a|a", "L", "M", "L,1>0:M", "%7C", "|", ""]),
    st.text(alphabet="a|,>:;=%", max_size=4),
)


def sep_attrs(k):
    return st.lists(SEP_NAMES, min_size=k, max_size=k).map(tuple)


def sep_edges(k):
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    if not pairs:
        return st.just(frozenset())
    return st.frozensets(
        st.tuples(st.sampled_from(pairs), SEP_NAMES).map(
            lambda e: (e[0][0], e[0][1], e[1])
        ),
        max_size=3,
    )


@st.composite
def pattern_pairs(draw):
    """A pattern and a second one: independent, relabeled, or sharing the
    first one's edges or attributes."""
    k = draw(st.integers(1, 3))
    p = Pattern(draw(sep_attrs(k)), draw(sep_edges(k)))
    how = draw(st.sampled_from(["other", "relabel", "attrs", "edges"]))
    if how == "other":
        j = draw(st.integers(1, 3))
        return p, Pattern(draw(sep_attrs(j)), draw(sep_edges(j)))
    if how == "attrs":
        return p, Pattern(draw(sep_attrs(k)), p.edges)
    if how == "edges":
        return p, Pattern(p.attrs, draw(sep_edges(k)))
    perm = draw(st.permutations(range(k)))
    attrs = [""] * k
    for i, s in enumerate(perm):
        attrs[s] = p.attrs[i]
    edges = frozenset((perm[a], perm[b], l) for a, b, l in p.edges)
    return p, Pattern(tuple(attrs), edges)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(pattern_pairs())
def test_code_equal_iff_isomorphic_with_separator_names(pair):
    p, q = pair
    assert (p.code == q.code) == oracle_isomorphic(p, q)


# The oracle's adversarial names: every code separator and the escape
# character, "::", the empty name, prefix pairs that order differently
# once a name is followed by "|" or "," ("x"/"x!", "a"/"a ", ":"/"::",
# ""/"%" escaped), a pair that does not ("a"/"a~"), and non-ASCII.
ORACLE_NAMES = ["%", "|", ",", ">", ":", ";", "=", "::", "", "x", "x!",
                "a", "a ", "a~", "é", "é!", "日本", "%7C"]

# Exhaustive sweeps: two slot names and two layer names each, chosen so
# that raw order and in-code order disagree.
SWEEP_ALPHABETS = [
    (("x", "x!"), ("x", "x!")),
    (("a", "a "), ("a ", "a")),
    (("", "%"), (":", "::")),
]


def every_pattern(max_slots, names, layers):
    """Every pattern of at most ``max_slots`` slots over the alphabets,
    connected or not, edgeless and empty ones included."""
    for k in range(max_slots + 1):
        pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
        # Per ordered pair of slots: any subset of the layers.
        subsets = [frozenset(c) for r in range(len(layers) + 1)
                   for c in itertools.combinations(layers, r)]
        for attrs in itertools.product(names, repeat=k):
            for chosen in itertools.product(subsets, repeat=len(pairs)):
                yield Pattern(attrs, frozenset(
                    (a, b, l) for (a, b), ls in zip(pairs, chosen) for l in ls))


def assert_forms_match_oracle(patterns):
    fresh = [Pattern(p.attrs, p.edges) for p in patterns]
    want = [oracle_canonical_form(p) for p in fresh]
    assert miner.canonical_forms(fresh) == want
    assert [(p.code, p.canonical_perms) for p in fresh] == want


@st.composite
def oracle_batches(draw):
    """One to three patterns of 4-7 slots over few names, so that ties
    between permutations and automorphisms are common."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(4, 7))
        names = draw(st.lists(st.sampled_from(ORACLE_NAMES), min_size=1,
                              max_size=2, unique=True))
        layers = draw(st.lists(st.sampled_from(ORACLE_NAMES), min_size=1,
                               max_size=3, unique=True))
        attrs = draw(st.lists(st.sampled_from(names), min_size=k, max_size=k))
        pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
        edges = draw(st.lists(
            st.tuples(st.sampled_from(pairs), st.sampled_from(layers)),
            max_size=9))
        out.append(Pattern(tuple(attrs),
                           frozenset((a, b, l) for (a, b), l in edges)))
    return out


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(oracle_batches())
def test_canonical_forms_match_scan_oracle_on_larger_patterns(batch):
    assert_forms_match_oracle(batch)


@pytest.mark.parametrize("names,layers", SWEEP_ALPHABETS)
def test_canonical_forms_match_scan_oracle(names, layers):
    # Every pattern of up to three slots in one batch (the kernel groups
    # and chunks it), and the empty and single-slot patterns one by one.
    every = list(every_pattern(3, names, layers))
    assert len(every) == 1 + 2 + 4 * 4 ** 2 + 8 * 4 ** 6
    assert_forms_match_oracle(every)
    for p in every[:3]:
        assert_forms_match_oracle([p])


@pytest.mark.parametrize("directed,max_nodes", [(True, 4), (False, 3)])
def test_canonical_forms_match_scan_oracle_on_mined_patterns(rng, directed,
                                                             max_nodes):
    # Every mined pattern and every one-edge-deletion remainder of one.
    g = adversarial_host(rng, directed, 2)
    out = mine(g, MinerConfig(min_support=1, max_nodes=max_nodes))
    assert sum(p.n_slots == max_nodes for p in out) > 10
    rests = []
    for p in out:
        for e in p.edges:
            rest = p.edges - {e}
            keep = sorted({s for a, b, _ in rest for s in (a, b)})
            new = {s: i for i, s in enumerate(keep)}
            rests.append(Pattern(tuple(p.attrs[s] for s in keep),
                                 frozenset((new[a], new[b], l)
                                           for a, b, l in rest)))
    assert [(p.code, p.canonical_perms) for p in out] == [
        oracle_canonical_form(p) for p in out]
    assert_forms_match_oracle(out + rests)


def test_canonical_forms_blocks_one_pattern_past_the_chunk():
    # An 8-slot cycle has 8! permutations, more than one chunk holds, so
    # its permutations are ranked in blocks whose minima are merged.
    k = 8
    cycle = Pattern(("a",) * k, frozenset((i, (i + 1) % k, "x")
                                         for i in range(k)))
    assert len(miner._permutations(k)) * (2 * k) > miner._CHUNK
    assert_forms_match_oracle([cycle])
    assert len(cycle.canonical_perms) == k


def test_canonical_forms_reject_more_than_ten_slots():
    assert miner.MAX_SLOTS == 10
    big = Pattern(("a",) * 11, frozenset((i, i + 1, "x") for i in range(10)))
    with pytest.raises(PatternSizeError, match="limit of 10 slots") as err:
        big.code
    assert err.value.n_slots == 11
    with pytest.raises(PatternSizeError):
        miner.canonical_forms([single_edge_pattern(D, D, "x"), big])


def test_canonical_forms_memory_is_bounded():
    # 5,000 random 4-slot patterns: ranking all their permutations at once
    # would take 5,000 * 24 rows of 4 + 6 columns, about 9 MiB per array.
    rng = np.random.default_rng(5)
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    batch = []
    for _ in range(5000):
        chosen = rng.choice(len(pairs), 6, replace=False)
        batch.append(Pattern(
            tuple(str(x) for x in rng.integers(2, size=4)),
            frozenset((*pairs[i], "xy"[int(rng.integers(2))]) for i in chosen),
        ))
    tracemalloc.start()
    try:
        forms = miner.canonical_forms(batch)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forms) == 5000
    # What the kernel holds beyond its results: a few chunks' arrays.
    assert peak - kept < 3 * 2 ** 20
    assert peak - kept < 5000 * 24 * 10 * 8 // 3


# -- mining -----------------------------------------------------------------


def test_mine_single_edge_host():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    out = mine(g, MinerConfig(min_support=1, max_nodes=3))
    assert len(out) == 1
    assert out[0].code == single_edge_pattern(D, D, "a").code
    assert out[0].support == 1


def test_mine_threshold_above_host_size_is_empty(rng):
    g = rand_host(rng, 8, 2, 16, directed=True)
    assert mine(g, MinerConfig(min_support=g.n_nodes + 1)) == []


def test_mine_matches_brute_force(rng):
    g = rand_host(rng, 25, 2, 46, directed=True, attr_values="mn")
    cfg = MinerConfig(min_support=2, max_nodes=3)
    got = {p.code: p.support for p in mine(g, cfg)}
    assert got == oracle_frequent(g, 2, 3)


def test_mine_matches_brute_force_undirected(rng):
    g = rand_host(rng, 14, 2, 24, directed=False)
    cfg = MinerConfig(min_support=2, max_nodes=3)
    got = {p.code: p.support for p in mine(g, cfg)}
    assert got == oracle_frequent(g, 2, 3)


def test_mined_support_bounded_by_layer_sizes(rng):
    g = rand_host(rng, 18, 3, 50, directed=True)
    for p in mine(g, MinerConfig(min_support=2, max_nodes=3)):
        for layer in {l for _, _, l in p.edges}:
            active = len(g.layer_nodes[g.layer_id(layer)])
            assert p.support <= active


def test_mine_deterministic(rng):
    g = rand_host(rng, 20, 3, 55, directed=True)
    cfg = MinerConfig(min_support=2, max_nodes=3)
    a = [(p.code, p.support) for p in mine(g, cfg)]
    b = [(p.code, p.support) for p in mine(g, cfg)]
    assert a == b


def test_mine_recount_is_sound(rng):
    g = rand_host(rng, 22, 2, 60, directed=True)
    out = mine(g, MinerConfig(min_support=2, max_nodes=3))
    assert out
    for p in out:
        assert min_image_support(p, g) == p.support >= 2


def test_mine_codes_pairwise_distinct_and_nonisomorphic(rng):
    g = rand_host(rng, 16, 2, 36, directed=True)
    out = mine(g, MinerConfig(min_support=1, max_nodes=3))
    codes = [p.code for p in out]
    assert len(set(codes)) == len(codes)
    for p1, p2 in itertools.combinations(out, 2):
        assert not oracle_isomorphic(p1, p2)


def test_mine_stats(rng):
    g = rand_host(rng, 20, 2, 50, directed=True)
    stats = MiningStats()
    out = mine(g, MinerConfig(min_support=3, max_nodes=3), stats=stats)
    assert stats.frequent_per_level[0] == len(
        [p for p in out if p.n_edges == 1]
    )
    assert stats.candidates_tested >= len(out)
    assert stats.antimonotone_checks > 0
    assert stats.antimonotone_violations == 0
    assert all(child <= parent for parent, child in stats.support_pairs)
    # Level 1 tests every single-edge type in the host, the infrequent one
    # on layer y too; level 2 tests the one 2-slot child, the x 2-cycle.
    tri = MultiplexGraph(
        [("a", "b", "x"), ("b", "c", "x"), ("c", "a", "x"), ("a", "c", "y")],
        directed=True,
    )
    stats = MiningStats()
    out = mine(tri, MinerConfig(min_support=2, max_nodes=2), stats=stats)
    assert [p.code for p in out] == [path_pattern(["x"]).code]
    assert stats.frequent_per_level == [1, 0]
    assert stats.candidates_tested == 2 + 1


def test_budget_error_carries_pattern_code(rng):
    g = rand_host(rng, 12, 1, 60, directed=True)
    p = path_pattern([g.layer_names[0]] * 2)
    with pytest.raises(MiningBudgetError) as err:
        embedding_table(p, g, budget=3)
    assert err.value.pattern_code == p.code
    assert err.value.budget == 3


def test_mine_budget_error_names_the_pattern():
    # A hub with ten spokes: the two-spoke star has 90 embeddings, so its
    # join needs more than 50 rows, while every other candidate stays far
    # below that.
    triples = [("hub", f"s{i}", "a") for i in range(10)] + [("y", "z", "b")]
    attrs = {"hub": "h", "y": "y", "z": "z"}
    attrs.update({f"s{i}": "x" for i in range(10)})
    g = MultiplexGraph(triples, attrs=attrs, directed=True)
    star = Pattern(("h", "x", "x"), frozenset({(0, 1, "a"), (0, 2, "a")}))
    assert len(embedding_table(star, g)) == 90
    with pytest.raises(MiningBudgetError) as err:
        mine(g, MinerConfig(min_support=1, max_nodes=3, budget=50))
    assert err.value.pattern_code == star.code
    assert err.value.budget == 50
    assert "50 embedding rows" in str(err.value)
    assert star in mine(g, MinerConfig(min_support=1, max_nodes=3))


def test_mine_budget_error_names_the_smallest_code():
    # The hub h (a) has three m spokes (b), ten l out-spokes (x<) and ten
    # l in-spokes (x).  The single edges join in at most 20 rows, and the
    # first parent of level 2, a->b with 3 rows, grows two new-slot
    # children of 30 rows each: h->x< and x->h.  Names rank by their code
    # token "x<|" < "x|", and h->x< grows first, yet the x child's code is
    # the smaller ("x;" < "x<"), so the error names it.
    triples = [("h", f"b{i}", "m") for i in range(3)]
    triples += [("h", f"p{i}", "l") for i in range(10)]
    triples += [(f"q{i}", "h", "l") for i in range(10)]
    attrs = {"h": "a", **{f"b{i}": "b" for i in range(3)},
             **{f"p{i}": "x<" for i in range(10)},
             **{f"q{i}": "x" for i in range(10)}}
    g = MultiplexGraph(triples, attrs=attrs, directed=True)
    to_x = Pattern(("a", "b", "x"), frozenset({(0, 1, "m"), (2, 0, "l")}))
    to_xlt = Pattern(("a", "b", "x<"), frozenset({(0, 1, "m"), (0, 2, "l")}))
    assert "x<|" < "x|" and to_x.code < to_xlt.code
    with pytest.raises(MiningBudgetError) as err:
        mine(g, MinerConfig(min_support=1, max_nodes=3, budget=25))
    assert err.value.pattern_code == to_x.code
    assert err.value.budget == 25
    # Every single edge fits the budget, and both children exceed it.
    stats = MiningStats()
    out = mine(g, MinerConfig(min_support=1, max_nodes=2, budget=25),
               stats=stats)
    assert stats.max_rows == 20
    assert len(embedding_table(to_x, g)) == len(embedding_table(to_xlt, g)) == 30
    assert {to_x, to_xlt} <= set(mine(g, MinerConfig(min_support=1,
                                                     max_nodes=3)))
    assert len(out) == 3


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mine_budget_error_matches_the_walk_oracle(data):
    # Small random hosts (undirected ones sparser, since each of their
    # edges grows both ways) and budgets near the rows: up to one past the
    # most rows any pattern uses, and half the time at least the most rows
    # of a single edge (a two-slot run's), so that later levels are over
    # it too.  mine names the oracle's code and the budget, or finishes
    # with every pattern when the oracle names none.
    directed = data.draw(st.booleans(), "directed")
    n_attrs = data.draw(st.integers(1, 3), "attributes")
    n_layers = data.draw(st.integers(1, 2), "layers")
    sigma = data.draw(st.integers(1, 3), "sigma")
    max_nodes = data.draw(st.integers(2, 4), "max_nodes")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), "seed")
    g = rand_host(np.random.default_rng(seed), 5, n_layers,
                  9 if directed else 6, directed, attr_values="stu"[:n_attrs])
    cfg = MinerConfig(min_support=sigma, max_nodes=max_nodes)
    stats, single = MiningStats(), MiningStats()
    full = [p.code for p in mine(g, cfg, stats=stats)]
    assume(len(full) <= 250)  # the oracle's walk is plain Python
    mine(g, MinerConfig(min_support=sigma, max_nodes=2), stats=single)
    budget = data.draw(st.one_of(
        st.integers(1, stats.max_rows + 1),
        st.integers(single.max_rows, stats.max_rows + 1)), "budget")
    want = oracle_budget_error(g, sigma, max_nodes, budget)
    cfg.budget = budget
    if want is None:
        assert [p.code for p in mine(g, cfg)] == full
        return
    with pytest.raises(MiningBudgetError) as err:
        mine(g, cfg)
    assert err.value.pattern_code == want
    assert err.value.budget == budget


def _hub_host(spokes: int) -> MultiplexGraph:
    """A hub with ``spokes`` out-spokes on layer a, the spokes in a b-ring."""
    s = [f"s{i:03d}" for i in range(spokes)]
    triples = [("hub", x, "a") for x in s]
    triples += [(x, s[(i + 1) % spokes], "b") for i, x in enumerate(s)]
    attrs = {"hub": "h", **{x: "x" for x in s}}
    return MultiplexGraph(triples, attrs=attrs, directed=True)


@pytest.mark.parametrize("move", ["closing", "new slot"])
def test_mine_step_over_budget_raises_before_allocating(move):
    # 300 spokes: the two-spoke star has 300 * 299 rows.  Growing it from
    # the hub's single edge generates 300 * 300 candidate rows; closing a
    # b edge between its spokes checks every one of its rows.
    g = _hub_host(300)
    pats = {p.code: p for p in mine(g, MinerConfig(min_support=1, max_nodes=3))}
    edge = Pattern(("h", "x"), frozenset({(0, 1, "a")}))
    star = Pattern(("h", "x", "x"), frozenset({(0, 1, "a"), (0, 2, "a")}))
    if move == "closing":
        parent, e, rows = pats[star.code], (1, 2, "b"), 300 * 299
    else:
        parent, e, rows = pats[edge.code], (0, 2, "a"), 300 * 300
    assert parent.mined_on[0] is g
    child = Pattern(parent.attrs + ("x",) * (move == "new slot"),
                    parent.edges | {e})
    assert len(embedding_table(child, g)) > 0
    edge = (*e[:2], g.layer_id(e[2]))
    want = g.arrays.attr_ids["x"] if move == "new slot" else -1

    def test(budget):
        return miner._test([parent], g, [0], [edge], [want], budget, 0)

    tracemalloc.start()
    try:
        verdict = test(rows - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The verdict names the one child, child 0, which mine raises as its
    # budget error, and nothing is tested.
    assert verdict.over.tolist() == [0]
    assert len(verdict.sup) == len(verdict.rows) == len(verdict.tables) == 0
    assert peak < rows * 8  # not even one int64 column of the rows
    tested = test(rows)
    assert tested.over.tolist() == []
    table, used = tested.tables[0], tested.rows[0]
    assert used == rows
    assert np.array_equal(table, embedding_table(child, g))


def test_mine_stats_count_rows_per_step():
    # Directed triangle a->b->c->a on x plus a->c on y, support 1, two
    # slots.  The single edges join afresh: x places 3 nodes and expands
    # them to 3 rows (6), y places 3 and expands to 1 row (4).  Level 2
    # closes one edge on a parent's rows: three children of x check its 3
    # rows each and the y 2-cycle checks y's 1 row (10); only the x/y
    # 2-cycle survives, with 1 row.  Level 3 closes its two missing edges
    # on that row (2).
    tri = MultiplexGraph(
        [("a", "b", "x"), ("b", "c", "x"), ("c", "a", "x"), ("a", "c", "y")],
        directed=True,
    )
    stats = MiningStats()
    out = mine(tri, MinerConfig(min_support=1, max_nodes=2), stats=stats)
    assert stats.frequent_per_level == [2, 1, 0]
    assert stats.candidates_tested == 2 + 4 + 2
    assert stats.rows_generated == (6 + 4) + (3 * 3 + 1) + 2
    assert stats.max_rows == 6
    assert max(len(p.mined_on[1]) for p in out) == 3
    # Kept: the x and y tables (3 + 1) and the x/y 2-cycle's 1 row.
    assert stats.rows_kept == (3 + 1) + 1


def test_fresh_join_budget_counts_each_new_slot():
    # The triangle 0->1->2->0 with an isolated slot 3 is joined slot by
    # slot: 0 unanchored, 1 anchored on 0->1, 2 anchored on 1->2 and
    # filtered by 2->0, then 3 unanchored.  The host holds the triangle
    # n1->n2->n3->n1 and the path n1->n4->n5, all on a; n5 alone has
    # attribute z.
    g = MultiplexGraph(
        [("n1", "n2", "a"), ("n2", "n3", "a"), ("n3", "n1", "a"),
         ("n1", "n4", "a"), ("n4", "n5", "a")],
        attrs={"n5": "z"}, directed=True)
    p = Pattern((D,) * 4, frozenset({(0, 1, "a"), (1, 2, "a"), (2, 0, "a")}))
    used = (
        1 * 4            # slot 0: one empty row times the 4 D nodes
        + 2 + 1 + 1 + 1  # slot 1: out-degrees of n1..n4, n4->n5 included
        + 1 + 1 + 1 + 2  # slot 2: out-degrees of the rows' slot-1 nodes
                         # n2, n4, n3, n1
        + 0              # the 2->0 filter, which keeps the 3 triangle rows
        + 3 * 4          # slot 3: 3 rows times the 4 D nodes
    )
    with pytest.raises(MiningBudgetError) as err:
        embedding_table(p, g, budget=used - 1)
    assert err.value.pattern_code == p.code
    table = embedding_table(p, g, budget=used)
    assert len(table) == 3
    assert table.tolist() == [list(e) for e in oracle_embeddings(p, g)]


def test_mine_single_edge_over_budget_names_its_code():
    # The a->x type on b generates 1 a node plus its 1 out-edge on b, 2
    # rows; the h->x type on a, whose code comes after it, 1 + 6 rows.
    triples = [("h", f"x{i}", "a") for i in range(6)] + [("a0", "x0", "b")]
    attrs = {"h": "h", "a0": "a", **{f"x{i}": "x" for i in range(6)}}
    g = MultiplexGraph(triples, attrs=attrs, directed=True)
    small = single_edge_pattern("a", "x", "b")
    big = single_edge_pattern("h", "x", "a")
    assert small.code < big.code
    # mine's row count and a fresh join's agree.
    assert [miner._join(p, g, 10 ** 9)[1] for p in (small, big)] == [2, 7]
    stats = MiningStats()
    with pytest.raises(MiningBudgetError) as err:
        mine(g, MinerConfig(min_support=1, max_nodes=2, budget=6),
             stats=stats)
    assert err.value.pattern_code == big.code
    assert err.value.budget == 6
    assert (stats.rows_generated, stats.max_rows, stats.rows_kept) == (2, 2, 1)
    stats = MiningStats()
    out = mine(g, MinerConfig(min_support=1, max_nodes=2, budget=7),
               stats=stats)
    assert out == [small, big]
    assert (stats.rows_generated, stats.max_rows, stats.rows_kept) == (9, 7, 7)


def test_single_edge_tables_hold_no_infrequent_edges():
    # The hub type h->x (support 1) holds most edges; the frequent a->x
    # tables must not keep them alive.
    triples = [("h", f"x{i}", "a") for i in range(6)] + [
        ("a0", "x0", "b"), ("a1", "x1", "b"), ("a0", "x1", "c"),
        ("a1", "x0", "c")]
    attrs = {"h": "h", "a0": "a", "a1": "a", **{f"x{i}": "x" for i in range(6)}}
    g = MultiplexGraph(triples, attrs=attrs, directed=True)
    out = mine(g, MinerConfig(min_support=2, max_nodes=2))
    assert [p.code for p in out] == sorted(
        single_edge_pattern("a", "x", l).code for l in "bc")
    for p in out:
        table = p.mined_on[1]
        assert table.tolist() == embedding_table(p, g).tolist()
        # The array behind the table holds at most the 4 frequent edges.
        held = table if table.base is None else table.base
        assert held.size <= 4 * 2


def test_mine_raises_on_a_planted_support_violation(rng, monkeypatch):
    # The first new-slot child mining tests reports one more than its
    # parent's support; the parent's check must count it and raise.
    g = rand_host(rng, 12, 2, 30, directed=True)
    grown = []
    real_test = miner._test

    def test(parents, g_, of, edges, attrs, *args):
        out = real_test(parents, g_, of, edges, attrs, *args)
        growing = [i for i in range(len(out.sup)) if attrs[i] >= 0]
        if growing and not grown:
            i = growing[0]
            parent = parents[of[i]]
            a, b, l = map(int, edges[i])
            name = {v: x for x, v in g_.arrays.attr_ids.items()}[attrs[i]]
            grown.append((parent, Pattern(
                parent.attrs + (name,),
                parent.edges | {(a, b, g_.layer_names[l])})))
            out.sup[i] = parent.support + 1
        return out

    monkeypatch.setattr(miner, "_test", test)
    stats = MiningStats()
    with pytest.raises(MiningInvariantError) as err:
        mine(g, MinerConfig(min_support=1, max_nodes=3), stats=stats)
    parent, child = grown[0]
    assert repr(child.code) in str(err.value)
    assert f"({parent.support + 1})" in str(err.value)
    assert f"parent support ({parent.support})" in str(err.value)
    assert stats.antimonotone_violations == 1
    assert stats.support_pairs[-1] == (parent.support, parent.support + 1)


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n_attrs", [1, 2, 3])
def test_mine_stats_sink_changes_nothing(rng, directed, n_attrs):
    g = adversarial_host(rng, directed, n_attrs)
    cfg = MinerConfig(min_support=1, max_nodes=3)
    stats = MiningStats()
    runs = [mine(g, cfg), mine(g, cfg, stats=stats)]
    assert stats.candidates_tested > 0
    bare, sunk = [[(p.code, p.support, p.mined_on[1].shape,
                    p.mined_on[1].tobytes()) for p in out] for out in runs]
    assert bare == sunk


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n_attrs", [1, 2, 3])
def test_mine_stats_match_the_growth_oracle(rng, directed, n_attrs):
    g = adversarial_host(rng, directed, n_attrs)
    stats = MiningStats()
    mine(g, MinerConfig(min_support=2, max_nodes=3), stats=stats)
    want = oracle_mining_stats(g, 2, 3)
    assert len(want["frequent_per_level"]) > 2
    assert any(0 < child < 2 for _, child in want["support_pairs"])
    for name, value in want.items():
        assert getattr(stats, name) == value, name


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n_attrs", [1, 2, 3])
def test_mined_tables_equal_fresh_joins(rng, directed, n_attrs):
    g = adversarial_host(rng, directed, n_attrs)
    assert "only>loops" not in g.layer_names
    out = mine(g, MinerConfig(min_support=1, max_nodes=3))
    assert sum(p.n_slots == 3 for p in out) > 10
    for p in out:
        graph, table = p.mined_on
        assert graph is g and not table.flags.writeable
        assert table.dtype == np.int64 and table.shape[1] == p.n_slots
        fresh = embedding_table(p, g)
        assert np.array_equal(table, fresh), p.code
        assert table.tolist() == [list(e) for e in nx_embeddings(p, g)], p.code
        assert p.table_in(g) is table


def _assert_closing_pass_matches_fresh_joins(g, monkeypatch, sigma,
                                            max_nodes):
    """Every child ``mine`` tests, at every level and frequent or not,
    gets the support of a fresh join from the batch pass, and each table
    the pass keeps equals the fresh join's.  Both run on one engine, so
    each support and kept table is also checked against networkx's
    embeddings.  Returns the closing children of each parent in a pass as
    (edges, children, supports)."""
    batches = []
    real = miner._test

    def spy(parents, g_, of, edges, attrs, budget, sigma_):
        out = real(parents, g_, of, edges, attrs, budget, sigma_)
        names = {v: x for x, v in g_.arrays.attr_ids.items()}
        closing = {}
        for i, (sup, kept) in enumerate(zip(out.sup, out.tables)):
            parent = parents[of[i]]
            a, b, l = map(int, edges[i])
            child = Pattern(
                parent.attrs + ((names[attrs[i]],) if attrs[i] >= 0 else ()),
                parent.edges | {(a, b, g.layer_names[l])})
            want = nx_embeddings(child, g)
            assert sup == min_image_support(child, g), child.code
            assert sup == min((len(set(c)) for c in zip(*want)),
                              default=0), child.code
            if sup < sigma:
                assert kept is None, child.code
            else:
                assert np.array_equal(kept, embedding_table(child, g)), \
                    child.code
                assert kept.tolist() == [list(e) for e in want], child.code
            if attrs[i] < 0:
                batch = closing.setdefault(of[i], ([], [], []))
                for part, x in zip(batch, ((a, b, l), child, sup)):
                    part.append(x)
        batches.extend(closing.values())
        return out

    monkeypatch.setattr(miner, "_test", spy)
    mine(g, MinerConfig(min_support=sigma, max_nodes=max_nodes))
    return batches


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n_attrs", [1, 2, 3])
def test_closing_pass_matches_fresh_joins(rng, monkeypatch, directed,
                                          n_attrs):
    g = adversarial_host(rng, directed, n_attrs)
    batches = _assert_closing_pass_matches_fresh_joins(g, monkeypatch, 2, 3)
    # Several levels, infrequent children that still have embeddings, and
    # batches closing edges between different slot pairs.
    assert len({c.n_edges for _, cs, _ in batches for c in cs}) >= 2
    assert any(0 < sup < 2 for _, _, sups in batches for sup in sups)
    assert any(len({e[:2] for e in edges}) > 1 for edges, _, _ in batches)


def test_closing_pass_matches_fresh_joins_on_a_hub(monkeypatch):
    # Every pattern with the hub has support 1, and at support 2 every
    # closing child is infrequent; at support 1 the stars close b edges
    # between their spokes.
    for sigma in (1, 2):
        batches = _assert_closing_pass_matches_fresh_joins(
            _hub_host(12), monkeypatch, sigma, 4)
        assert any(len(edges) > 1 for edges, _, _ in batches)
        monkeypatch.undo()


def test_mined_patterns_carry_their_canonical_forms(rng, monkeypatch):
    g = rand_host(rng, 8, 2, 16, directed=True)
    out = mine(g, MinerConfig(min_support=1, max_nodes=3))
    assert any(p.n_slots == 3 for p in out)
    calls = []
    real = miner._minimal_rows
    monkeypatch.setattr(miner, "_minimal_rows",
                        lambda *a: calls.append(a) or real(*a))
    for p in out:
        assert (p.code, p.canonical_perms) == oracle_canonical_form(p)
    assert sorted(out, key=lambda p: p.code) == out
    assert calls == []
    assert Pattern(out[-1].attrs, out[-1].edges).code == out[-1].code
    assert len(calls) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(min_support=0)
    with pytest.raises(ValueError):
        MinerConfig(min_support=1, max_nodes=1)
    # Codes number slots with one digit.
    assert MinerConfig(min_support=1, max_nodes=10).max_nodes == 10
    with pytest.raises(ValueError, match="<= 10"):
        MinerConfig(min_support=1, max_nodes=11)
    assert MinerConfig(min_support=1, budget=1).budget == 1
    with pytest.raises(ValueError, match="budget"):
        MinerConfig(min_support=1, budget=0)


def test_pattern_requires_valid_edges():
    with pytest.raises(ValueError):
        Pattern((D,), frozenset({(0, 1, "a")}))
    with pytest.raises(ValueError):
        Pattern((D, D), frozenset({(0, 0, "a")}))


# -- serialization ----------------------------------------------------------


def test_pattern_dict_round_trip(rng):
    g = rand_host(rng, 16, 2, 36, directed=True, attr_values="k")
    for p in mine(g, MinerConfig(min_support=2, max_nodes=3)):
        q = pattern_from_dict(pattern_to_dict(p))
        assert q == p
        assert q.support == p.support


def test_pattern_dict_without_support():
    p = path_pattern(["a"])
    d = pattern_to_dict(p)
    assert "support" not in d
    assert pattern_from_dict(d) == p


def test_lg_rendering():
    p = Pattern(("p", D), frozenset({(0, 1, "a")}), 7)
    text = patterns_to_lg([p])
    assert text == "t # 0 s 7\nv 0 p\nv 1 ·\ne 0 1 a\n"
