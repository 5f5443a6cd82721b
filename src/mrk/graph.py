"""Multiplex graph model and file I/O.

A multiplex graph is a node-attributed directed graph whose edges live on
named layers: an edge is a (src, dst, layer) triple and the same node pair
may be linked on several layers.  Undirected graphs are stored as symmetric
directed pairs behind the same interface.

Node names, layer names and attribute values are strings in every public
interface.  Internally they are interned to dense integers; interning sorts
the names first, so loading the same edges in any order yields an identical
graph and integer comparisons agree with name-string comparisons.

A graph stores its edges once, as the sorted int64 keys of its link
:class:`KeySpace`.  Everything else about the edges is read from those
keys: the id-triple set ``edges`` is built on first read, and so is the
CSR index ``arrays``, whose ``keys`` is the store itself; ``unit_keys``
holds one key per edge unit; layer participation and the coupled
encoding are computed from the keys on each call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import CoupledGraphError, GraphFormatError

log = logging.getLogger(__name__)

# Attribute assigned to nodes that none of the attribute sources mention.
ATTR_DEFAULT = "·"

# Layer names of the coupled (node-colored) encoding: "1" couples the
# replicas of one entity across layers, "2" carries the original edges.
COUPLING_LAYER = "1"
INTRA_LAYER = "2"
_REPLICA_SEP = "::"

# Most keys a link space may have for :class:`GraphArrays` to hold its
# boolean edge mask: 2^24 keys, 16 MiB.  Evaluation already allocates one
# boolean per key of a split's link space for its negatives.
LINK_MASK_CAP = 1 << 24


@dataclass
class LoadReport:
    """Counts of the irregularities tolerated while building a graph."""

    self_loops: int = 0
    duplicates: int = 0
    unknown_attr_nodes: int = 0


# Direction ids of slot keys, in name order.
DIRECTIONS = ("in", "out")


def _positions(names: Tuple[str, ...], query: Tuple[str, ...]) -> np.ndarray:
    """Index of each ``query`` name in the sorted ``names``, -1 where absent."""
    if not names:
        return np.full(len(query), -1, dtype=np.int64)
    ref = np.array(names, dtype=object)
    q = np.array(query, dtype=object)
    pos = ref.searchsorted(q)
    return np.where(ref.take(pos, mode="clip") == q, pos, -1)


@dataclass(frozen=True)
class KeySpace:
    """One int64 key per name triple over three sorted name axes.

    The key of ids ``(a, b, c)`` is ``(a * len(axes[1]) + b) * len(axes[2])
    + c``, and ids index sorted names, so ascending keys list the triples
    in sorted name order.  A link space has axes (nodes, nodes, layers):
    link (u, v, l) has key ``(u * n + v) * L + l`` and a layer-less pair
    has key ``u * n + v``.  A slot space has axes (nodes, layers,
    ``DIRECTIONS``) for (node, layer, direction) keys.
    """

    axes: Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]

    @classmethod
    def links(cls, nodes: Tuple[str, ...], layers: Tuple[str, ...]) -> "KeySpace":
        return cls((nodes, nodes, layers))

    @classmethod
    def slots(cls, nodes: Tuple[str, ...], layers: Tuple[str, ...]) -> "KeySpace":
        return cls((nodes, layers, DIRECTIONS))

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Axis lengths; a key is the row-major flat index into this shape."""
        return len(self.axes[0]), len(self.axes[1]), len(self.axes[2])

    def key(self, a, b, c):
        """Keys of the id triples ``(a, b, c)``, elementwise."""
        return (a * len(self.axes[1]) + b) * len(self.axes[2]) + c

    def pair(self, a, b):
        """Keys of the layer-less pairs ``(a, b)``, elementwise."""
        return a * len(self.axes[1]) + b

    def ids(self, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The id triples of the keys ``q``."""
        ab, c = np.divmod(q, len(self.axes[2]))
        a, b = np.divmod(ab, len(self.axes[1]))
        return a, b, c

    def ids_from(
        self, q: np.ndarray, other: "KeySpace"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids here of the names behind ``other``'s keys ``q``, -1 where a
        name is not on this space's axis."""
        return tuple(i if m is None else m[i]
                     for m, i in zip(self.id_maps(other), other.ids(q)))

    def id_maps(self, other: "KeySpace") -> Tuple[Optional[np.ndarray], ...]:
        """Per axis, the id here of each of ``other``'s names, -1 where a
        name is not on this space's axis, or None where the axes are
        equal, so that ids map through ``ids if m is None else m[ids]``."""
        return tuple(None if mine == theirs else _positions(mine, theirs)
                     for mine, theirs in zip(self.axes, other.axes))

    def encode(self, triples: Sequence[Tuple[str, str, str]]) -> np.ndarray:
        """Keys of name triples; a name off its axis raises KeyError."""
        cols = list(zip(*triples)) or [(), (), ()]
        ids = []
        for ax, col in zip(self.axes, cols):
            at = {x: i for i, x in enumerate(ax)}
            ids.append(np.fromiter((at[x] for x in col), np.int64, len(col)))
        return self.key(*ids)

    def decode(self, q: np.ndarray) -> List[Tuple[str, str, str]]:
        """Name triples of the keys ``q``."""
        cols = [np.array(ax, dtype=object)[i].tolist()
                for ax, i in zip(self.axes, self.ids(q))]
        return list(zip(*cols))


@dataclass(frozen=True)
class GraphArrays:
    """Integer-array index of a graph for vectorised joins.

    Rows of the flat per-layer CSR arrays are ``l * n + u``: the out-
    neighbours of node ``u`` on layer ``l`` are
    ``out_nbr[out_ptr[l * n + u]:out_ptr[l * n + u + 1]]``, sorted, and
    ``in_ptr``/``in_nbr`` hold the in-neighbours the same way.  ``keys``
    holds every stored edge as its key in the graph's link space,
    sorted.  ``attr`` holds each node's attribute id; ``attr_ids`` maps
    names to ids.

    ``mask`` is a read-only boolean array over the whole link space, true
    at the key of each stored edge, so :meth:`is_edge` is one gather.  It
    is built when the space has at most :data:`LINK_MASK_CAP` keys (one
    byte each) and is None above that, where :meth:`is_edge` falls back
    to a binary search among ``keys``.
    """

    n: int
    attr: np.ndarray
    attr_ids: Dict[str, int]
    out_ptr: np.ndarray
    out_nbr: np.ndarray
    in_ptr: np.ndarray
    in_nbr: np.ndarray
    keys: np.ndarray
    mask: Optional[np.ndarray]

    def is_edge(self, q: np.ndarray) -> np.ndarray:
        """Elementwise: is key ``q[i]`` of the link space a stored edge?"""
        if self.mask is not None:
            return self.mask[q]
        if not self.keys.size:
            return np.zeros(q.shape, dtype=bool)
        return self.keys.take(self.keys.searchsorted(q), mode="clip") == q


def _attr_index(attrs: Tuple[str, ...]) -> Tuple[Dict[str, int], np.ndarray]:
    """Ids of the sorted attribute names, and each node's attribute id."""
    ids = {a: i for i, a in enumerate(sorted(set(attrs)))}
    return ids, np.fromiter(map(ids.__getitem__, attrs), np.int64, len(attrs))


def _csr(rows: np.ndarray, cols: np.ndarray, n_rows: int):
    """Row pointers and row-sorted columns of the (row, col) pairs."""
    order = np.lexsort((cols, rows))
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
    return ptr, cols[order]


class MultiplexGraph:
    """Immutable multiplex graph whose edges are sorted link keys."""

    def __init__(
        self,
        triples: Iterable[Tuple[str, str, str]],
        attrs: Optional[Dict[str, str]] = None,
        directed: bool = True,
        extra_nodes: Iterable[str] = (),
    ):
        """Build a graph from (src, dst, layer) name triples.

        Self loops are dropped and duplicate triples collapsed, counted in
        the report.  When ``directed`` is false each kept edge is stored in
        both orientations.  ``extra_nodes`` adds nodes that no edge touches.
        """
        self.directed = directed
        self.load_report = LoadReport()

        srcs, dsts, lays = tuple(zip(*triples)) or ((), (), ())
        names = set(srcs).union(dsts, extra_nodes)
        self.node_names: Tuple[str, ...] = tuple(sorted(names))
        self._node_id = {n: i for i, n in enumerate(self.node_names)}
        u, v = (np.fromiter(map(self._node_id.__getitem__, c), np.int64, len(c))
                for c in (srcs, dsts))
        kept = u != v
        self.load_report.self_loops += len(u) - int(kept.sum())
        lays = list(compress(lays, kept.tolist()))
        self.layer_names: Tuple[str, ...] = tuple(sorted(set(lays)))
        self._layer_id = {l: i for i, l in enumerate(self.layer_names)}
        attrs = attrs or {}
        self.attrs: Tuple[str, ...] = tuple(
            attrs.get(n, ATTR_DEFAULT) for n in self.node_names
        )

        u, v = u[kept], v[kept]
        l = np.fromiter(map(self._layer_id.__getitem__, lays), np.int64, len(lays))
        if not directed:  # every pair in both orientations
            u, v, l = np.concatenate([u, v]), np.concatenate([v, u]), np.tile(l, 2)
        self._keys = np.unique(self.space.key(u, v, l))
        self._keys.flags.writeable = False
        # Each copy of an undirected unit adds two keys, one per orientation.
        self.load_report.duplicates += (len(l) - self.n_edges) // (2 - directed)
        self.layer_edge_counts: List[int] = np.bincount(
            self.space.ids(self._keys)[2], minlength=self.n_layers).tolist()

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_layers(self) -> int:
        return len(self.layer_names)

    @property
    def n_edges(self) -> int:
        """Stored directed edge count (symmetric pairs count twice)."""
        return len(self._keys)

    def node_id(self, name: str) -> int:
        return self._node_id[name]

    def layer_id(self, name: str) -> int:
        return self._layer_id[name]

    def has_node(self, name: str) -> bool:
        return name in self._node_id

    def has_edge(self, u: int, v: int, l: int) -> bool:
        """Is id triple (u, v, l) a stored edge?  One lookup in the store."""
        return bool(self.arrays.is_edge(np.int64(self.space.key(u, v, l))))

    @cached_property
    def space(self) -> KeySpace:
        """The link key space over this graph's node and layer names."""
        return KeySpace.links(self.node_names, self.layer_names)

    @cached_property
    def edges(self) -> FrozenSet[Tuple[int, int, int]]:
        """Stored edges as (src, dst, layer) id triples, built on first read."""
        return frozenset(zip(*(x.tolist() for x in self.space.ids(self._keys))))

    @property
    def unit_keys(self) -> np.ndarray:
        """One sorted, read-only key per edge unit: the store itself when
        directed, else the key of each symmetric pair with u < v."""
        if self.directed:
            return self._keys
        u, v, _ = self.space.ids(self._keys)
        keys = self._keys[u < v]
        keys.flags.writeable = False
        return keys

    def _participation(self) -> Tuple[np.ndarray, np.ndarray]:
        """Node and layer ids of each (node, layer) pair where the node has
        an edge on the layer, sorted by node, then layer."""
        nl = self.n_layers
        u, v, l = self.space.ids(self._keys)
        return np.divmod(np.unique(np.concatenate([u * nl + l, v * nl + l])), nl)

    @cached_property
    def arrays(self) -> GraphArrays:
        """The integer-array index, built on first use."""
        n, nl = self.n_nodes, self.n_layers
        u, v, l = self.space.ids(self._keys)
        attr_ids, attr = _attr_index(self.attrs)
        out_ptr, out_nbr = _csr(l * n + u, v, nl * n)
        in_ptr, in_nbr = _csr(l * n + v, u, nl * n)
        mask = None
        if n * n * nl <= LINK_MASK_CAP:
            mask = np.zeros(n * n * nl, dtype=bool)
            mask[self._keys] = True
            mask.flags.writeable = False
        return GraphArrays(
            n=n,
            attr=attr, attr_ids=attr_ids,
            out_ptr=out_ptr, out_nbr=out_nbr, in_ptr=in_ptr, in_nbr=in_nbr,
            keys=self._keys, mask=mask,
        )

    def smallest_layer_size(self) -> int:
        """Node count of the layer with fewest participating nodes."""
        if not self.layer_names:
            return 0
        return int(np.bincount(self._participation()[1]).min())

    # -- name-space views --------------------------------------------------

    def name_triples(self) -> List[Tuple[str, str, str]]:
        """All stored edges as sorted (src, dst, layer) name triples."""
        return self.space.decode(self._keys)

    def unit_triples(self) -> List[Tuple[str, str, str]]:
        """Edge units for splitting and serialization: the names of
        :attr:`unit_keys`, so every stored triple when directed, else one
        (min, max, layer) triple per symmetric pair, sorted."""
        return self.space.decode(self.unit_keys)

    def attr_map(self) -> Dict[str, str]:
        """Node name to attribute, only for non-default attributes."""
        return {
            n: a for n, a in zip(self.node_names, self.attrs) if a != ATTR_DEFAULT
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiplexGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.node_names == other.node_names
            and self.attrs == other.attrs
            and self.layer_names == other.layer_names
            and np.array_equal(self._keys, other._keys)
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"MultiplexGraph({kind}, {self.n_nodes} nodes, "
            f"{self.n_layers} layers, {self.n_edges} stored edges)"
        )


# -- file I/O ---------------------------------------------------------------


def _parse_edge_file(
    path: str, comune: bool
) -> List[Tuple[str, str, str]]:
    triples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if comune:
                # CoMuNe archive layout: layer src dst [weight]
                if len(tok) not in (3, 4):
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected 'layer src dst [weight]', "
                        f"got {len(tok)} fields"
                    )
                lay, src, dst = tok[0], tok[1], tok[2]
            else:
                if len(tok) != 3:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected 'src dst layer', "
                        f"got {len(tok)} fields"
                    )
                src, dst, lay = tok
            triples.append((src, dst, lay))
    return triples


def _parse_attr_file(path: str) -> Dict[str, str]:
    attrs: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if len(tok) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'node attribute', "
                    f"got {len(tok)} fields"
                )
            attrs[tok[0]] = tok[1]
    return attrs


def load_graph(
    edge_path: str,
    attr_path: Optional[str] = None,
    directed: bool = True,
    comune: bool = False,
) -> MultiplexGraph:
    """Load a multiplex graph from whitespace-separated text files.

    The edge file holds one ``src dst layer`` triple per line (``#`` starts
    a comment); with ``comune`` the field order is ``layer src dst`` with an
    ignored trailing weight.  The optional attribute file holds ``node
    attribute`` lines; entries for nodes absent from the edge file are
    ignored with a warning count.
    """
    triples = _parse_edge_file(edge_path, comune)
    attrs = _parse_attr_file(attr_path) if attr_path is not None else {}
    g = MultiplexGraph(triples, attrs=attrs, directed=directed)
    rep = g.load_report
    rep.unknown_attr_nodes = sum(not g.has_node(x) for x in attrs)
    if rep.self_loops or rep.duplicates or rep.unknown_attr_nodes:
        log.warning(
            "%s: dropped %d self loops, %d duplicate edges; "
            "%d attribute lines referenced unknown nodes",
            edge_path, rep.self_loops, rep.duplicates, rep.unknown_attr_nodes,
        )
    return g


def write_edge_file(g: MultiplexGraph, path: str) -> None:
    """Write the graph's edge units, one canonical triple per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for src, dst, lay in g.unit_triples():
            fh.write(f"{src} {dst} {lay}\n")


def write_attr_file(g: MultiplexGraph, path: str) -> None:
    """Write every node's attribute, including defaults.

    Listing all nodes keeps isolated nodes recoverable from the file pair.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for name, a in zip(g.node_names, g.attrs):
            fh.write(f"{name} {a}\n")


# -- collapsed single-layer view -------------------------------------------


@dataclass
class SimpleGraph:
    """Undirected single-layer graph: the layer-collapsed view.

    ``edges`` holds one (u, v) id pair per link with u < v; ``adj`` is the
    symmetric adjacency index.  Node names and ids coincide with the source
    multiplex graph.
    """

    node_names: Tuple[str, ...]
    edges: FrozenSet[Tuple[int, int]]
    adj: List[Set[int]] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def as_multiplex(self, layer: str = "flat") -> MultiplexGraph:
        """View this graph as an undirected one-layer multiplex graph."""
        nn = self.node_names
        triples = [(nn[u], nn[v], layer) for u, v in self.edges]
        return MultiplexGraph(
            triples, directed=False, extra_nodes=nn,
        )


def collapse(g: MultiplexGraph) -> SimpleGraph:
    """Merge all layers into one undirected simple graph.

    A pair is linked iff some layer links it in either direction; layer
    multiplicity and edge direction are discarded.  The node set (including
    isolated nodes) is preserved.
    """
    pairs: Set[Tuple[int, int]] = set()
    for u, v, _ in g.edges:
        pairs.add((u, v) if u < v else (v, u))
    adj: List[Set[int]] = [set() for _ in range(g.n_nodes)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return SimpleGraph(g.node_names, frozenset(pairs), adj)


# -- coupled (node-colored) encoding ---------------------------------------


@dataclass
class CoupledMultigraph:
    """Single-attribute encoding of a multiplex graph.

    Every (node, layer) participation becomes a replica node whose
    attribute is the layer name; layer "1" couples the replicas of one
    entity (always symmetric), layer "2" carries the original edges between
    replicas of the same layer.  Entities with no edges keep one replica
    with the default attribute.
    """

    graph: MultiplexGraph
    source_directed: bool


def _replica(name: str, layer: str) -> str:
    return f"{name}{_REPLICA_SEP}{layer}"


def to_coupled(g: MultiplexGraph) -> CoupledMultigraph:
    """Encode a multiplex graph as a coupled node-colored multigraph."""
    node, lay = g._participation()
    names = np.array(g.node_names, dtype=object)
    layers = np.array(g.layer_names, dtype=object)[lay]
    reps = np.array(list(map(_replica, names[node], layers)), dtype=object)
    isolated = [_replica(x, ATTR_DEFAULT) for x in np.delete(names, node)]
    # Coupling clique of each entity, both orientations: replica p, in a
    # run of k[p] replicas of its node from index first[p], pairs with each
    # other replica of the run; its k[p] rows of i start at cumsum(k) - k.
    _, start, runs = np.unique(node, return_index=True, return_counts=True)
    first, k = np.repeat(start, runs), np.repeat(runs, runs)
    i = np.repeat(np.arange(len(node)), k)
    j = np.repeat(first - np.cumsum(k) + k, k) + np.arange(len(i))
    pair = i != j
    triples = [(a, b, COUPLING_LAYER) for a, b in zip(reps[i[pair]], reps[j[pair]])]
    triples += [(_replica(s, l), _replica(d, l), INTRA_LAYER)
                for s, d, l in g.name_triples()]
    cg = MultiplexGraph(
        triples, attrs=dict(zip(reps, layers)), directed=True,
        extra_nodes=isolated,
    )
    return CoupledMultigraph(cg, source_directed=g.directed)


def from_coupled(cg: CoupledMultigraph) -> MultiplexGraph:
    """Invert :func:`to_coupled`.

    Replicas joined by coupling edges merge back into one entity, named
    after the smallest of their name stems; each intra edge's layer is
    read off its endpoints' shared attribute.  A coupled graph is
    structurally invalid, and raises :class:`CoupledGraphError`, if it has
    a layer other than the coupling and intra layers, a coupling edge
    joining two replicas of one layer, a replica whose name does not end
    with ``::`` and its attribute, or an intra edge whose endpoints carry
    different attributes or the default one; the checks run in that
    order.  An edge error names the offending edge with the smallest key,
    which is the first in (src, dst) name order.
    """
    g = cg.graph
    for name in g.layer_names:
        if name not in (COUPLING_LAYER, INTRA_LAYER):
            raise CoupledGraphError(
                f"unexpected layer {name!r} in coupled graph"
            )
    nn, at = g.node_names, g.attrs
    u, v, l = g.space.ids(g._keys)
    attr_ids, attr = _attr_index(at)
    au, av = attr[u], attr[v]
    coupling = l == g._layer_id.get(COUPLING_LAYER, -1)
    intra = l == g._layer_id.get(INTRA_LAYER, -1)

    bad = np.flatnonzero(coupling & (au == av))
    if bad.size:
        x, y = u[bad[0]], v[bad[0]]
        raise CoupledGraphError(
            f"coupling edge joins two replicas of layer "
            f"{at[x]!r}: {nn[x]} -> {nn[y]}"
        )

    # Union replicas along coupling edges.
    parent = list(range(g.n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(u[coupling].tolist(), v[coupling].tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    roots = [find(x) for x in range(g.n_nodes)]
    names: Dict[int, str] = {}
    for r, name, a in zip(roots, nn, at):
        # A replica is named after its entity plus its attribute, the layer
        # (or the default for an isolated entity); names may contain "::".
        suffix = _REPLICA_SEP + a
        if not name.endswith(suffix):
            raise CoupledGraphError(
                f"replica {name!r} does not end with its attribute {suffix!r}"
            )
        stem = name[: -len(suffix)]
        names[r] = min(names.get(r, stem), stem)

    bad = np.flatnonzero(
        intra & ((au != av) | (au == attr_ids.get(ATTR_DEFAULT, -1)))
    )
    if bad.size:
        x, y = u[bad[0]], v[bad[0]]
        raise CoupledGraphError(
            f"intra edge endpoints disagree on layer: "
            f"{nn[x]}({at[x]}) -> {nn[y]}({at[y]})"
        )
    entity = np.array([names[r] for r in roots], dtype=object)
    x, y = u[intra], v[intra]
    triples = zip(entity[x], entity[y], np.array(at, dtype=object)[x])
    return MultiplexGraph(
        triples, directed=cg.source_directed, extra_nodes=names.values()
    )
