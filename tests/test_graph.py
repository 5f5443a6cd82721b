"""Graph model, file I/O, collapse, and the coupled-encoding round trip."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrk import graph
from mrk.errors import CoupledGraphError, GraphFormatError
from mrk.graph import (
    ATTR_DEFAULT,
    MultiplexGraph,
    collapse,
    from_coupled,
    load_graph,
    to_coupled,
    write_attr_file,
    write_edge_file,
)
from tests.conftest import adversarial_host, oracle_graph, pad_names, rand_host


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- loading ----------------------------------------------------------------


def test_load_two_directed_edges(tmp_path):
    p = write(tmp_path / "g.txt", "1 2 a\n2 1 a\n")
    g = load_graph(p, directed=True)
    assert g.n_nodes == 2
    assert g.n_edges == 2
    assert g.n_layers == 1
    assert g.name_triples() == [("1", "2", "a"), ("2", "1", "a")]


def test_load_self_loop_dropped(tmp_path):
    p = write(tmp_path / "g.txt", "3 3 b\n")
    g = load_graph(p)
    assert g.n_nodes == 1
    assert g.n_edges == 0
    assert g.load_report.self_loops == 1


def test_load_duplicates_and_comments(tmp_path):
    p = write(
        tmp_path / "g.txt",
        "# header comment\n1 2 a\n1 2 a  # repeated on purpose\n\n2 3 a\n",
    )
    g = load_graph(p)
    assert g.n_edges == 2
    assert g.load_report.duplicates == 1


def test_load_malformed_line_reports_position(tmp_path):
    p = write(tmp_path / "g.txt", "1 2 a\n1 2\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph(p)
    assert ":2:" in str(err.value)


def test_load_comune_ordering(tmp_path):
    p = write(tmp_path / "g.txt", "a 1 2 0.7\nb 2 3 1\nb 3 4\n")
    g = load_graph(p, comune=True)
    assert g.name_triples() == [
        ("1", "2", "a"), ("2", "3", "b"), ("3", "4", "b")
    ]


def test_load_attrs_with_unknown_node(tmp_path):
    # Node 3 appears only in a self loop: the graph drops the loop but
    # keeps the node, so its attribute line names a known node.
    ep = write(tmp_path / "g.txt", "1 2 a\n3 3 a\n")
    ap = write(tmp_path / "g.attrs", "1 x\n9 y\n3 z\n")
    g = load_graph(ep, ap)
    assert g.attrs[g.node_id("1")] == "x"
    assert g.attrs[g.node_id("2")] == ATTR_DEFAULT
    assert g.attrs[g.node_id("3")] == "z"
    assert g.load_report.self_loops == 1
    assert g.load_report.unknown_attr_nodes == 1


def test_load_attr_file_malformed(tmp_path):
    ep = write(tmp_path / "g.txt", "1 2 a\n")
    ap = write(tmp_path / "g.attrs", "1 x extra\n")
    with pytest.raises(GraphFormatError):
        load_graph(ep, ap)


def test_load_order_insensitive(tmp_path, rng):
    g0 = rand_host(rng, 9, 3, 18, directed=True, attr_values="xy")
    lines = [f"{u} {v} {l}" for u, v, l in g0.name_triples()]
    perm = list(lines)
    rng.shuffle(perm)
    p1 = write(tmp_path / "a.txt", "\n".join(lines) + "\n")
    p2 = write(tmp_path / "b.txt", "\n".join(perm) + "\n")
    ap = write(
        tmp_path / "g.attrs",
        "\n".join(f"{n} {a}" for n, a in g0.attr_map().items()) + "\n",
    )
    assert load_graph(p1, ap) == load_graph(p2, ap)


def test_undirected_storage_is_symmetric():
    g = MultiplexGraph([("1", "2", "a")], directed=False)
    u, v, l = g.node_id("1"), g.node_id("2"), g.layer_id("a")
    assert g.has_edge(u, v, l) and g.has_edge(v, u, l)
    assert g.n_edges == 2
    assert g.unit_triples() == [("1", "2", "a")]


def test_undirected_reversed_input_collapses():
    a = MultiplexGraph([("2", "1", "a")], directed=False)
    b = MultiplexGraph([("1", "2", "a")], directed=False)
    assert a == b


def test_edge_file_round_trip(tmp_path, rng):
    for directed in (True, False):
        g = rand_host(rng, 8, 2, 14, directed=directed, attr_values="pq")
        ep, ap = str(tmp_path / "e.txt"), str(tmp_path / "a.txt")
        write_edge_file(g, ep)
        write_attr_file(g, ap)
        assert load_graph(ep, ap, directed=directed) == g


def test_smallest_layer_size():
    g = MultiplexGraph(
        [("1", "2", "a"), ("2", "3", "a"), ("1", "2", "b")], directed=True
    )
    assert g.smallest_layer_size() == 2


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("over_cap", [False, True])
def test_is_edge_equals_the_edge_set(rng, monkeypatch, directed, over_cap):
    # The dense mask when the link space fits under the cap, the sorted
    # search past it.  The host has isolated nodes and a layer named only
    # by self loops, which it drops.
    g = adversarial_host(rng, directed, 2)
    assert "only>loops" not in g.layer_names
    size = g.n_nodes ** 2 * g.n_layers
    monkeypatch.setattr(graph, "LINK_MASK_CAP", size - over_cap)
    ix = g.arrays
    assert (ix.mask is None) == over_cap
    if not over_cap:
        assert ix.mask.shape == (size,) and not ix.mask.flags.writeable
    edges = {(g.node_names[u], g.node_names[v], g.layer_names[l])
             for u, v, l in g.edges}
    keys = np.arange(size)
    want = [t in edges for t in g.space.decode(keys)]
    assert ix.is_edge(keys).tolist() == want
    assert ix.is_edge(keys[::-1]).tolist() == want[::-1]
    assert ix.is_edge(np.array([0, size - 1])).tolist() == [False, False]
    assert sum(want) == g.n_edges


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("over_cap", [False, True])
def test_has_edge_equals_the_edge_set(rng, monkeypatch, directed, over_cap):
    # Every id triple, read from the mask and, past the cap, by a search
    # of the key store; neither builds the edges view.
    g = adversarial_host(rng, directed, 2)
    monkeypatch.setattr(graph, "LINK_MASK_CAP",
                        g.n_nodes ** 2 * g.n_layers - over_cap)
    assert (g.arrays.mask is None) == over_cap
    triples = itertools.product(range(g.n_nodes), range(g.n_nodes),
                                range(g.n_layers))
    found = {t for t in triples if g.has_edge(*t)}
    assert "edges" not in vars(g)
    assert found == g.edges


@pytest.mark.parametrize("directed", [True, False])
def test_unit_keys_hold_one_key_per_edge_unit(rng, directed):
    # Names hold code separators and "::".  A directed graph's units are
    # its stored keys; an undirected one keeps the u < v key of each
    # symmetric pair.
    g = adversarial_host(rng, directed, 2)
    keys = g.unit_keys
    assert not keys.flags.writeable and (np.diff(keys) > 0).all()
    if directed:
        assert keys is g.arrays.keys
    else:
        u, v, l = g.space.ids(keys)
        assert (u < v).all() and 2 * len(keys) == g.n_edges
        both = np.concatenate([keys, g.space.key(v, u, l)])
        assert np.sort(both).tolist() == g.arrays.keys.tolist()
    assert g.space.decode(keys) == g.unit_triples()


# Names that hold code separators and the replica separator "::".
_NAMES = st.one_of(st.text("ab%|,>:;=", min_size=1, max_size=3),
                   st.sampled_from(["a::b", "::", "%::|"]))


@st.composite
def construction_inputs(draw):
    """Triples with duplicates, both orientations of some pairs, self
    loops and a layer named only by self loops, in any order; extra
    nodes; and attributes that also name nodes the graph lacks."""
    nodes = draw(st.lists(_NAMES, min_size=1, max_size=7, unique=True))
    layers = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    node, layer = st.sampled_from(nodes), st.sampled_from(layers)
    triples = draw(st.lists(st.tuples(node, node, layer), max_size=25))
    if triples:
        again = st.tuples(st.sampled_from(triples), st.booleans())
        for (s, d, l), flip in draw(st.lists(again, max_size=10)):
            triples.append((d, s, l) if flip else (s, d, l))
    loops_only = draw(_NAMES.filter(lambda x: x not in layers))
    triples.append((nodes[0], nodes[0], loops_only))
    triples = draw(st.permutations(triples))
    extra = draw(st.lists(_NAMES, max_size=3))
    attrs = draw(st.dictionaries(st.one_of(node, _NAMES), _NAMES, max_size=5))
    return triples, attrs, draw(st.booleans()), extra


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(construction_inputs())
def test_construction_matches_set_oracle(case):
    triples, attrs, directed, extra = case
    g = MultiplexGraph(triples, attrs=attrs, directed=directed,
                       extra_nodes=extra)
    assert not {"edges", "arrays"} & vars(g).keys()  # lazy
    want = oracle_graph(triples, attrs, directed, extra)
    want["smallest_layer_size"] = min(map(len, want.pop("layer_nodes")),
                                      default=0)
    rep = g.load_report
    got = {
        "node_names": g.node_names,
        "layer_names": g.layer_names,
        "attrs": g.attrs,
        "edges": g.edges,
        "layer_edge_counts": g.layer_edge_counts,
        "smallest_layer_size": g.smallest_layer_size(),
        "report": (rep.self_loops, rep.duplicates, rep.unknown_attr_nodes),
        "name_triples": g.name_triples(),
        "unit_triples": g.unit_triples(),
        "n_edges": g.n_edges,
        "keys": g.arrays.keys.tolist(),
    }
    assert got == want


# -- collapse ---------------------------------------------------------------


def test_collapse_merges_parallel_layers():
    g = MultiplexGraph([("1", "2", "a"), ("1", "2", "b")], directed=True)
    sg = collapse(g)
    assert sg.n_edges == 1
    assert sg.edges == frozenset({(g.node_id("1"), g.node_id("2"))})


def test_collapse_empty():
    g = MultiplexGraph([], directed=True)
    assert collapse(g).n_edges == 0


def test_collapse_matches_pair_scan(rng):
    g = rand_host(rng, 12, 3, 30, directed=True)
    expected = set()
    for u, v, l in g.name_triples():
        expected.add((min(u, v), max(u, v)))
    sg = collapse(g)
    nn = sg.node_names
    got = {(nn[u], nn[v]) for u, v in sg.edges}
    assert got == expected


def test_collapse_idempotent_on_single_layer(rng):
    g = rand_host(rng, 10, 3, 24, directed=False)
    once = collapse(g)
    twice = collapse(once.as_multiplex())
    assert twice.node_names == once.node_names
    assert twice.edges == once.edges


# -- coupled encoding -------------------------------------------------------


def test_to_coupled_single_edge():
    g = MultiplexGraph([("1", "2", "a")], directed=True)
    cg = to_coupled(g)
    inner = cg.graph
    assert inner.n_nodes == 2
    assert sorted(inner.node_names) == ["1::a", "2::a"]
    trips = inner.name_triples()
    assert trips == [("1::a", "2::a", "2")]


def test_to_coupled_two_layers_couples_replicas():
    g = MultiplexGraph([("1", "2", "a"), ("1", "3", "b")], directed=True)
    inner = to_coupled(g).graph
    coupling = [t for t in inner.name_triples() if t[2] == "1"]
    intra = [t for t in inner.name_triples() if t[2] == "2"]
    assert sorted(coupling) == [("1::a", "1::b", "1"), ("1::b", "1::a", "1")]
    assert len(intra) == 2
    assert inner.attrs[inner.node_id("1::a")] == "a"
    assert inner.attrs[inner.node_id("1::b")] == "b"


def test_round_trip_examples():
    for triples, directed in [
        ([("1", "2", "a")], True),
        ([("1", "2", "a"), ("1", "3", "b")], True),
        ([("1", "2", "a"), ("1", "3", "b")], False),
    ]:
        g = MultiplexGraph(triples, directed=directed)
        assert from_coupled(to_coupled(g)) == g


def test_round_trip_with_isolated_node():
    g = MultiplexGraph([("1", "2", "a")], directed=True, extra_nodes=["7"])
    assert from_coupled(to_coupled(g)) == g


def test_round_trip_random(rng):
    for directed in (True, False):
        g = rand_host(rng, 50, 3, 120, directed=directed)
        assert from_coupled(to_coupled(g)) == g


def test_round_trip_layer_names_with_separator():
    g = MultiplexGraph([("a", "b", "x::y"), ("b", "c", "x::y::z")],
                       directed=True)
    assert from_coupled(to_coupled(g)) == g


def test_round_trip_node_names_with_separator():
    g = MultiplexGraph(
        [("a::b", "c", "l::m"), ("c", "d::", "l::m"), ("a::b", "d::", "n")],
        directed=False, extra_nodes=["iso::x"],
    )
    assert from_coupled(to_coupled(g)) == g


def test_round_trip_layer_name_prefixing_another():
    # Node e lives only on layer x::q, whose name starts with layer x.
    g = MultiplexGraph([("c", "d", "x"), ("e", "f", "x::q")], directed=True)
    assert from_coupled(to_coupled(g)) == g


def test_from_coupled_rejects_replica_without_layer_suffix():
    from mrk.graph import CoupledMultigraph

    g = MultiplexGraph([("a::x", "b", "2")], attrs={"a::x": "x", "b": "x"},
                       directed=True)
    with pytest.raises(CoupledGraphError):
        from_coupled(CoupledMultigraph(g, source_directed=True))


def test_from_coupled_rejects_mixed_intra_edge():
    cg = to_coupled(MultiplexGraph([("1", "2", "a"), ("2", "3", "b")]))
    inner = cg.graph
    bad = list(inner.name_triples()) + [("1::a", "2::b", "2")]
    cg.graph = MultiplexGraph(bad, attrs=dict(inner.attr_map()), directed=True)
    with pytest.raises(CoupledGraphError):
        from_coupled(cg)


def test_from_coupled_rejects_same_layer_coupling():
    g = MultiplexGraph(
        [("a::x", "b::x", "1")],
        attrs={"a::x": "x", "b::x": "x"},
        directed=True,
    )
    from mrk.graph import CoupledMultigraph

    with pytest.raises(CoupledGraphError):
        from_coupled(CoupledMultigraph(g, source_directed=True))


def test_from_coupled_rejects_alien_layer():
    g = MultiplexGraph([("a", "b", "weird")], directed=True)
    from mrk.graph import CoupledMultigraph

    with pytest.raises(CoupledGraphError):
        from_coupled(CoupledMultigraph(g, source_directed=True))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3))
def test_round_trip_adversarial_host(seed, directed, n_attrs):
    # Names with code separators and "::", isolated nodes and a layer named
    # only by self loops; the encoding drops node attributes.
    g = adversarial_host(np.random.default_rng(seed), directed, n_attrs)
    bare = MultiplexGraph(g.name_triples(), directed=directed,
                          extra_nodes=g.node_names)
    assert from_coupled(to_coupled(g)) == bare


def _with_bad_edges(rng, directed, layer, bad):
    """The coupled encoding of an adversarial host plus 2-4 of the replica
    pairs that ``bad(attr_a, attr_b)`` accepts, on ``layer`` and in random
    order, and the smallest added pair."""
    from mrk.graph import CoupledMultigraph

    inner = to_coupled(adversarial_host(rng, directed, 2)).graph
    at = dict(zip(inner.node_names, inner.attrs))
    pairs = [(a, b) for a, b in itertools.permutations(inner.node_names, 2)
             if bad(at[a], at[b])]
    picked = [pairs[i] for i in rng.choice(len(pairs), rng.integers(2, 5),
                                           replace=False)]
    triples = inner.name_triples() + [(a, b, layer) for a, b in picked]
    cg = MultiplexGraph(triples, attrs=at, directed=True)
    return CoupledMultigraph(cg, source_directed=directed), min(picked), at


@pytest.mark.parametrize("directed", [True, False])
def test_from_coupled_names_smallest_bad_coupling_edge(rng, directed):
    for _ in range(10):
        cg, (a, b), at = _with_bad_edges(rng, directed, "1",
                                         lambda x, y: x == y)
        with pytest.raises(CoupledGraphError) as err:
            from_coupled(cg)
        assert str(err.value) == (
            f"coupling edge joins two replicas of layer {at[a]!r}: {a} -> {b}"
        )


@pytest.mark.parametrize("directed", [True, False])
def test_from_coupled_names_smallest_bad_intra_edge(rng, directed):
    for _ in range(10):
        cg, (a, b), at = _with_bad_edges(
            rng, directed, "2", lambda x, y: x != y or x == ATTR_DEFAULT)
        with pytest.raises(CoupledGraphError) as err:
            from_coupled(cg)
        assert str(err.value) == (
            f"intra edge endpoints disagree on layer: "
            f"{a}({at[a]}) -> {b}({at[b]})"
        )
