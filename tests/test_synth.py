"""Planted-partition generator with nested layers and circulant backbones."""

import itertools

import numpy as np
import pytest

from mrk.graph import ATTR_DEFAULT
from mrk.miner import Pattern, min_image_support, single_edge_pattern
from mrk.synth import SynthConfig, expected_layer_edges, generate

D = ATTR_DEFAULT


def blocks_of(n, k):
    comm = (np.arange(n) * k) // n
    return [np.nonzero(comm == c)[0] for c in range(k)]


def test_pin_one_gives_complete_blocks():
    cfg = SynthConfig(
        layer_sizes=(12,), communities=3, p_in=1.0, p_out=0.0, seed=1
    )
    g = generate(cfg)
    names = g.node_names
    comm = (np.arange(12) * 3) // 12
    for i, j in itertools.combinations(range(12), 2):
        linked = g.has_edge(
            g.node_id(names[i]), g.node_id(names[j]), g.layer_id("l1")
        )
        assert linked == (comm[i] == comm[j])


def test_pout_zero_keeps_communities_apart():
    cfg = SynthConfig(
        layer_sizes=(30, 20), communities=2, p_in=0.5, p_out=0.0, seed=3
    )
    g = generate(cfg)
    for u, v, _ in g.name_triples():
        iu = int(u[1:]) - 1
        iv = int(v[1:]) - 1
        n = 30 if _ == "l1" else 20
        assert (iu * 2) // n == (iv * 2) // n


def test_layers_are_nested_prefixes():
    cfg = SynthConfig(
        layer_sizes=(10, 6, 3), communities=1, p_in=0.9, p_out=0.1, seed=2
    )
    g = generate(cfg)
    assert g.n_nodes == 10
    assert g.node_names[0] == "n01"
    names = g.node_names
    for li, size in enumerate(cfg.layer_sizes):
        active = {
            x for s, d, l in g.name_triples() if l == f"l{li + 1}"
            for x in (s, d)
        }
        assert active <= set(names[:size])


def test_generation_deterministic():
    cfg = SynthConfig(layer_sizes=(40, 25), communities=3, seed=11)
    assert generate(cfg) == generate(cfg)
    other = SynthConfig(layer_sizes=(40, 25), communities=3, seed=12)
    assert generate(other) != generate(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=())
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10, 20))
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10,), communities=0)
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10, 4), communities=5)
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10,), p_in=1.5)
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10,), p_in=0.1, p_out=0.1)
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10, 8), p_in=[0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10,), backbone=(0,))
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10,), backbone=(1.5,))


def test_edge_counts_near_expectation():
    cfg = SynthConfig(
        layer_sizes=(80, 60), communities=4, p_in=0.3, p_out=0.02, seed=0
    )
    g = generate(cfg)
    for li, (mean, std) in enumerate(expected_layer_edges(cfg)):
        units = g.layer_edge_counts[g.layer_id(f"l{li + 1}")] // 2
        assert abs(units - mean) <= 3 * std


def test_per_layer_probability_lists():
    cfg = SynthConfig(
        layer_sizes=(40, 40), communities=2,
        p_in=[1.0, 0.2], p_out=[0.0, 0.1], seed=4,
    )
    g = generate(cfg)
    dense = g.layer_edge_counts[g.layer_id("l1")] // 2
    sparse = g.layer_edge_counts[g.layer_id("l2")] // 2
    # Layer one holds both complete 20-node blocks; layer two is far lighter.
    assert dense == 2 * (20 * 19 // 2)
    assert sparse < dense / 2


def test_backbone_edges_planted():
    cfg = SynthConfig(
        layer_sizes=(12, 8), communities=2, p_in=0.02, p_out=0.01,
        seed=6, backbone=(1, 2),
    )
    g = generate(cfg)
    names = g.node_names
    for li, n in enumerate(cfg.layer_sizes):
        lid = g.layer_id(f"l{li + 1}")
        for block in blocks_of(n, 2):
            m = len(block)
            for k in (1, 2):
                for pos in range(m):
                    a = g.node_id(names[block[pos]])
                    b = g.node_id(names[block[(pos + k) % m]])
                    assert g.has_edge(a, b, lid)


def test_backbone_step_multiple_of_block_skipped():
    cfg = SynthConfig(
        layer_sizes=(6,), communities=2, p_in=0.5, p_out=0.0,
        seed=0, backbone=(3,),
    )
    g = generate(cfg)  # blocks of 3; step 3 would self-loop, so no-op
    assert all(u != v for u, v, _ in g.name_triples())


def test_triangle_backbone_saturates_support():
    cfg = SynthConfig(
        layer_sizes=(12, 8), communities=2, p_in=0.05, p_out=0.01,
        seed=7, backbone=(1, 2),
    )
    g = generate(cfg)
    tri = Pattern(
        (D, D, D),
        frozenset({(0, 1, "l2"), (1, 2, "l2"), (0, 2, "l2")}),
    )
    for li, n in enumerate(cfg.layer_sizes):
        lay = f"l{li + 1}"
        assert min_image_support(single_edge_pattern(D, D, lay), g) == n
    assert min_image_support(tri, g) == 8


def test_square_backbone_is_triangle_free():
    # Probabilities this small draw no random edges, leaving the bare
    # backbone: steps (1, 3) never close a triangle, but carry every node
    # of a block around a four-cycle.
    cfg = SynthConfig(
        layer_sizes=(16, 8), communities=2, p_in=1e-9, p_out=0.0,
        seed=8, backbone=(1, 3),
    )
    g = generate(cfg)
    for lay, n in (("l1", 16), ("l2", 8)):
        tri = Pattern(
            (D, D, D),
            frozenset({(0, 1, lay), (1, 2, lay), (0, 2, lay)}),
        )
        assert min_image_support(tri, g) == 0
        square = Pattern(
            (D, D, D, D),
            frozenset(
                {(0, 1, lay), (1, 2, lay), (2, 3, lay), (0, 3, lay)}
            ),
        )
        assert min_image_support(square, g) == n


def test_expected_edges_shape():
    cfg = SynthConfig(layer_sizes=(30, 20, 10), communities=2)
    exp = expected_layer_edges(cfg)
    assert len(exp) == 3
    for mean, std in exp:
        assert mean > 0 and std > 0


def test_per_layer_backbone_plants_distinct_circulants():
    # Near-zero probabilities leave the bare backbones; each layer must
    # carry exactly its own step set, not the other layer's.
    cfg = SynthConfig(
        layer_sizes=(16, 16), communities=1, p_in=1e-9, p_out=0.0,
        seed=9, backbone=((1,), (3,)),
    )
    g = generate(cfg)
    dists = {"l1": set(), "l2": set()}
    for u, v, lay in g.name_triples():
        d = abs(int(u[1:]) - int(v[1:]))
        dists[lay].add(min(d, 16 - d))
    assert dists == {"l1": {1}, "l2": {3}}


def test_per_layer_backbone_flat_equivalence():
    shared = SynthConfig(
        layer_sizes=(10, 6), communities=2, p_in=0.3, p_out=0.02,
        seed=5, backbone=(1, 2),
    )
    nested = SynthConfig(
        layer_sizes=(10, 6), communities=2, p_in=0.3, p_out=0.02,
        seed=5, backbone=((1, 2), (1, 2)),
    )
    assert generate(shared) == generate(nested)


def test_per_layer_backbone_validation():
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10, 8), backbone=((1,),))  # one group short
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10, 8), backbone=((1,), 2))  # mixed forms
    with pytest.raises(ValueError):
        SynthConfig(layer_sizes=(10, 8), backbone=((1,), (0,)))
