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
keys: the id-triple set ``edges`` and the per-layer node sets
``layer_nodes`` are built on first read, and so is the CSR index
``arrays``, whose ``keys`` is the store itself.
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
        report: Optional[LoadReport] = None,
    ):
        """Build a graph from (src, dst, layer) name triples.

        Self loops are dropped and duplicate triples collapsed, counted in
        the report.  When ``directed`` is false each kept edge is stored in
        both orientations.  ``extra_nodes`` adds nodes that no edge touches.
        """
        self.directed = directed
        self.load_report = report if report is not None else LoadReport()

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
        return (u, v, l) in self.edges

    @cached_property
    def space(self) -> KeySpace:
        """The link key space over this graph's node and layer names."""
        return KeySpace.links(self.node_names, self.layer_names)

    @cached_property
    def edges(self) -> FrozenSet[Tuple[int, int, int]]:
        """Stored edges as (src, dst, layer) id triples, built on first read."""
        return frozenset(zip(*(x.tolist() for x in self.space.ids(self._keys))))

    @cached_property
    def layer_nodes(self) -> List[Set[int]]:
        """Per layer, the ids of the nodes with an edge on it, built on
        first read."""
        n = self.n_nodes
        u, v, l = self.space.ids(self._keys)
        lay, node = np.divmod(np.unique(np.concatenate([l * n + u, l * n + v])), n)
        return [set(node[lay == i].tolist()) for i in range(self.n_layers)]

    @cached_property
    def arrays(self) -> GraphArrays:
        """The integer-array index, built on first use."""
        n, nl = self.n_nodes, self.n_layers
        u, v, l = self.space.ids(self._keys)
        attr_ids = {a: i for i, a in enumerate(sorted(set(self.attrs)))}
        out_ptr, out_nbr = _csr(l * n + u, v, nl * n)
        in_ptr, in_nbr = _csr(l * n + v, u, nl * n)
        mask = None
        if n * n * nl <= LINK_MASK_CAP:
            mask = np.zeros(n * n * nl, dtype=bool)
            mask[self._keys] = True
            mask.flags.writeable = False
        return GraphArrays(
            n=n,
            attr=np.array([attr_ids[a] for a in self.attrs], dtype=np.int64),
            attr_ids=attr_ids,
            out_ptr=out_ptr, out_nbr=out_nbr, in_ptr=in_ptr, in_nbr=in_nbr,
            keys=self._keys, mask=mask,
        )

    def node_layers(self, u: int) -> Tuple[int, ...]:
        """Layers on which node ``u`` has at least one incident edge."""
        return tuple(l for l, nodes in enumerate(self.layer_nodes) if u in nodes)

    def smallest_layer_size(self) -> int:
        """Node count of the layer with fewest participating nodes."""
        if not self.layer_names:
            return 0
        return min(len(s) for s in self.layer_nodes)

    # -- name-space views --------------------------------------------------

    def name_triples(self) -> List[Tuple[str, str, str]]:
        """All stored edges as sorted (src, dst, layer) name triples."""
        return self.space.decode(self._keys)

    def unit_triples(self) -> List[Tuple[str, str, str]]:
        """Edge units for splitting and serialization, sorted.

        Directed graphs: every stored triple.  Undirected graphs: one
        canonical (min, max, layer) triple per symmetric pair.
        """
        if self.directed:
            return self.name_triples()
        u, v, _ = self.space.ids(self._keys)
        return self.space.decode(self._keys[u < v])

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
    report = LoadReport()
    attrs: Dict[str, str] = {}
    if attr_path is not None:
        raw_attrs = _parse_attr_file(attr_path)
        known = {s for s, _, _ in triples} | {d for _, d, _ in triples}
        for node, a in raw_attrs.items():
            if node in known:
                attrs[node] = a
            else:
                report.unknown_attr_nodes += 1
    g = MultiplexGraph(triples, attrs=attrs, directed=directed, report=report)
    rep = g.load_report
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
    triples: List[Tuple[str, str, str]] = []
    attrs: Dict[str, str] = {}
    isolated: List[str] = []
    ln = g.layer_names
    for u in range(g.n_nodes):
        lays = g.node_layers(u)
        if not lays:
            isolated.append(_replica(g.node_names[u], ATTR_DEFAULT))
            continue
        reps = [_replica(g.node_names[u], ln[l]) for l in lays]
        for r, l in zip(reps, lays):
            attrs[r] = ln[l]
        # Coupling clique over this entity's replicas, both orientations.
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                triples.append((reps[i], reps[j], COUPLING_LAYER))
                triples.append((reps[j], reps[i], COUPLING_LAYER))
    for src, dst, lay in g.name_triples():
        triples.append((_replica(src, lay), _replica(dst, lay), INTRA_LAYER))
    cg = MultiplexGraph(
        triples, attrs=attrs, directed=True, extra_nodes=isolated
    )
    return CoupledMultigraph(cg, source_directed=g.directed)


def from_coupled(cg: CoupledMultigraph) -> MultiplexGraph:
    """Invert :func:`to_coupled`.

    Replicas joined by coupling edges merge back into one entity; each
    intra edge's layer is read off its endpoints' shared attribute.  A
    coupled graph whose intra edge endpoints carry different attributes is
    structurally invalid.
    """
    g = cg.graph
    try:
        coupling = g.layer_id(COUPLING_LAYER)
    except KeyError:
        coupling = None
    try:
        intra = g.layer_id(INTRA_LAYER)
    except KeyError:
        intra = None
    for l in range(g.n_layers):
        if l not in (coupling, intra):
            raise CoupledGraphError(
                f"unexpected layer {g.layer_names[l]!r} in coupled graph"
            )

    # Union replicas along coupling edges.
    parent = list(range(g.n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if coupling is not None:
        for u, v, l in g.edges:
            if l != coupling:
                continue
            if g.attrs[u] == g.attrs[v]:
                raise CoupledGraphError(
                    f"coupling edge joins two replicas of layer "
                    f"{g.attrs[u]!r}: {g.node_names[u]} -> {g.node_names[v]}"
                )
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)

    names: Dict[int, str] = {}
    for i in range(g.n_nodes):
        # A replica is named after its entity plus its attribute, the layer
        # (or the default for an isolated entity); names may contain "::".
        name, suffix = g.node_names[i], _REPLICA_SEP + g.attrs[i]
        if not name.endswith(suffix):
            raise CoupledGraphError(
                f"replica {name!r} does not end with its attribute {suffix!r}"
            )
        stem = name[: -len(suffix)]
        r = find(i)
        if r not in names or stem < names[r]:
            names[r] = stem

    triples = []
    if intra is not None:
        for u, v, l in g.edges:
            if l != intra:
                continue
            au, av = g.attrs[u], g.attrs[v]
            if au != av or au == ATTR_DEFAULT:
                raise CoupledGraphError(
                    f"intra edge endpoints disagree on layer: "
                    f"{g.node_names[u]}({au}) -> {g.node_names[v]}({av})"
                )
            triples.append((names[find(u)], names[find(v)], au))
    extra = sorted(set(names.values()))
    return MultiplexGraph(
        triples, directed=cg.source_directed, extra_nodes=extra
    )
