"""Synthetic multiplex benchmarks with planted community structure.

Each layer is a planted-partition graph over a prefix of a shared node
universe: layer sizes are non-increasing, so smaller layers cover nested
subsets of the larger ones, and community blocks are contiguous index
ranges, so they align across layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .graph import MultiplexGraph

Prob = Union[float, Sequence[float]]


@dataclass
class SynthConfig:
    """Planted-partition parameters.

    ``p_in`` and ``p_out`` accept a single probability or one per layer.
    ``backbone`` lists circulant steps planted deterministically inside
    every community block: step k joins block positions i and i+k (mod
    block size).  With backbone (1,) each block carries a cycle, so every
    node of a layer has degree at least two there; (1, 2) additionally
    puts every node on a triangle; (1, 3) yields a triangle-free block in
    which every node lies on a four-cycle.  A tuple of step tuples, one
    per layer, plants a different circulant on each layer; disjoint step
    sets keep the layers' planted edges from coinciding on shared nodes.
    """

    layer_sizes: Tuple[int, ...] = (200, 150, 100, 50)
    communities: int = 4
    p_in: Prob = 0.3
    p_out: Prob = 0.02
    seed: int = 0
    backbone: Tuple = ()

    def __post_init__(self):
        sizes = tuple(self.layer_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive: {sizes}")
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"layer sizes must be non-increasing: {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "backbone", self._norm_backbone())
        if self.communities < 1 or self.communities > min(sizes):
            raise ValueError(
                f"communities must be in 1..{min(sizes)}, got {self.communities}"
            )
        for name in ("p_in", "p_out"):
            ps = self._per_layer(name)
            if any(not (0.0 <= p <= 1.0) for p in ps):
                raise ValueError(f"{name} out of [0, 1]: {ps}")
        if any(o >= i for i, o in zip(self._per_layer("p_in"),
                                      self._per_layer("p_out"))):
            raise ValueError("intra-community probability must exceed inter")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def _norm_backbone(self) -> Tuple:
        steps = tuple(self.backbone)
        nested = [isinstance(s, (tuple, list)) for s in steps]
        if any(nested):
            if not all(nested):
                raise ValueError(
                    "backbone must be either steps or one step tuple per layer"
                )
            if len(steps) != len(self.layer_sizes):
                raise ValueError(
                    f"backbone needs one step tuple per layer "
                    f"({len(self.layer_sizes)}), got {len(steps)}"
                )
            return tuple(self._norm_steps(group) for group in steps)
        return self._norm_steps(steps)

    @staticmethod
    def _norm_steps(steps) -> Tuple[int, ...]:
        steps = tuple(steps)
        if any(int(s) != s or s < 1 for s in steps):
            raise ValueError(f"backbone steps must be positive integers: {steps}")
        return tuple(int(s) for s in steps)

    def _backbone_steps(self, li: int) -> Tuple[int, ...]:
        bb = self.backbone
        if bb and isinstance(bb[0], tuple):
            return bb[li]
        return bb

    def _per_layer(self, name: str) -> List[float]:
        v = getattr(self, name)
        if isinstance(v, (int, float)):
            return [float(v)] * len(self.layer_sizes)
        vs = [float(p) for p in v]
        if len(vs) != len(self.layer_sizes):
            raise ValueError(
                f"{name} needs one value or one per layer "
                f"({len(self.layer_sizes)}), got {len(vs)}"
            )
        return vs


def _node_names(n: int) -> List[str]:
    width = len(str(n))
    return [f"n{str(i + 1).zfill(width)}" for i in range(n)]


def _communities(n: int, k: int) -> np.ndarray:
    """Contiguous, near-equal blocks: node i belongs to block i*k // n."""
    return (np.arange(n) * k) // n


def expected_layer_edges(cfg: SynthConfig) -> List[Tuple[float, float]]:
    """Per layer: expected random edge count and its standard deviation.

    Covers only the probabilistic part; backbone edges are added
    deterministically on top.
    """
    out = []
    pins, pouts = cfg._per_layer("p_in"), cfg._per_layer("p_out")
    for n, p_in, p_out in zip(cfg.layer_sizes, pins, pouts):
        comm = _communities(n, cfg.communities)
        iu, iv = np.triu_indices(n, 1)
        same = comm[iu] == comm[iv]
        n_in = int(same.sum())
        n_out = int((~same).sum())
        mean = n_in * p_in + n_out * p_out
        var = n_in * p_in * (1 - p_in) + n_out * p_out * (1 - p_out)
        out.append((mean, float(np.sqrt(var))))
    return out


def generate(cfg: SynthConfig) -> MultiplexGraph:
    """Draw one undirected multiplex graph from the configuration.

    Reproducible: the same configuration (seed included) always returns
    the same graph.
    """
    rng = np.random.default_rng(cfg.seed)
    names = _node_names(cfg.layer_sizes[0])
    pins, pouts = cfg._per_layer("p_in"), cfg._per_layer("p_out")
    triples: List[Tuple[str, str, str]] = []
    for li, (n, p_in, p_out) in enumerate(
        zip(cfg.layer_sizes, pins, pouts)
    ):
        lay = f"l{li + 1}"
        comm = _communities(n, cfg.communities)
        iu, iv = np.triu_indices(n, 1)
        p = np.where(comm[iu] == comm[iv], p_in, p_out)
        mask = rng.random(p.shape) < p
        for u, v in zip(iu[mask], iv[mask]):
            triples.append((names[u], names[v], lay))
        for c in range(cfg.communities):
            block = np.nonzero(comm == c)[0]
            for k in cfg._backbone_steps(li):
                if k % len(block) == 0:
                    continue
                for pos, a in enumerate(block):
                    b = block[(pos + k) % len(block)]
                    triples.append((names[a], names[b], lay))
    return MultiplexGraph(
        triples, directed=False, extra_nodes=names[: cfg.layer_sizes[0]]
    )
