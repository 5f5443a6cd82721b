"""Frequent pattern mining on multiplex graphs.

Patterns are small connected directed graphs whose nodes ("slots") carry an
attribute and whose edges carry a layer name.  Pattern frequency is measured
by minimum image support: over all embeddings of the pattern, count the
distinct host nodes each slot maps to and take the minimum over slots.  This
support never grows when a pattern is extended, which lets the miner prune
level by level.

Embeddings come from one engine, :func:`embedding_table`, a numpy join over
the host's per-layer CSR adjacency in the manner of FSG's embedding lists
(Kuramochi & Karypis 2001).  The table of a pattern grows one slot per step:
the host nodes of an already placed neighbour slot are expanded through the
CSR, and the candidate rows are filtered by attribute, by the pattern's
other edges back to placed slots (a binary search among sorted edge keys)
and by injectivity.  Support counting and rule scoring both read these
tables.  The budget caps the candidate rows one pattern's join generates,
which bounds its memory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import MiningBudgetError, MiningInvariantError
from .graph import MultiplexGraph

DEFAULT_BUDGET = 10 ** 6

PatternEdge = Tuple[int, int, str]  # (src slot, dst slot, layer name)
SlotMap = Tuple[int, ...]  # slot i of one pattern maps to slot map[i] of another


@dataclass(frozen=True)
class Pattern:
    """A connected attributed pattern with layer-labeled directed edges.

    ``support`` is the mined minimum image support, or None; equality and
    hashing go by canonical code only.
    """

    attrs: Tuple[str, ...]
    edges: FrozenSet[PatternEdge]
    support: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        k = len(self.attrs)
        for a, b, _ in self.edges:
            if a == b:
                raise ValueError(f"pattern edge {a}->{b} is a self-loop")
            if not (0 <= a < k and 0 <= b < k):
                raise ValueError(
                    f"pattern edge {a}->{b} references a slot outside 0..{k - 1}"
                )

    @property
    def n_slots(self) -> int:
        return len(self.attrs)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _canonical(self) -> Tuple[str, Tuple[SlotMap, ...]]:
        return _canonical_form(self)

    @property
    def code(self) -> str:
        """Canonical code, cached after first computation."""
        return self._canonical[0]

    @property
    def canonical_perms(self) -> Tuple[SlotMap, ...]:
        """Every slot permutation that serializes to :attr:`code`."""
        return self._canonical[1]

    def is_connected(self) -> bool:
        if self.n_slots == 0:
            return False
        adj: List[Set[int]] = [set() for _ in range(self.n_slots)]
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n_slots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return f"Pattern({self.code})"


# Separators of the serialized code; names escape them (and the escape
# character itself) so that distinct names can never run together.  An empty
# name is a bare "%", which no escaped name can be, so that one empty-named
# slot does not serialize like no slot at all.
_ESCAPE = str.maketrans({c: f"%{ord(c):02X}" for c in "%|,>:;="})


def _serialize(attrs: Sequence[str], edges: Sequence[PatternEdge]) -> str:
    vpart = "|".join(attrs)
    epart = ",".join(f"{a}>{b}:{l}" for a, b, l in sorted(edges))
    return f"v={vpart};e={epart}"


def _canonical_form(p: Pattern) -> Tuple[str, Tuple[SlotMap, ...]]:
    """Minimum serialization over all slot permutations, with every
    permutation attaining it.

    Two patterns get the same code iff they are isomorphic respecting
    attributes, edge directions and layers.  Patterns are tiny (at most a
    handful of slots), so scanning every permutation is cheap and avoids
    the usual canonical-ordering subtleties.

    A permutation maps slot i to canonical slot ``perm[i]``.  Composing the
    inverse of one minimising permutation with each of them yields every
    automorphism of the pattern exactly once.
    """
    k = len(p.attrs)
    names = [a.translate(_ESCAPE) or "%" for a in p.attrs]
    edges = [(a, b, l.translate(_ESCAPE) or "%") for a, b, l in p.edges]
    best = None
    perms: List[SlotMap] = []
    attrs = [""] * k
    for perm in itertools.permutations(range(k)):
        for i, s in enumerate(perm):
            attrs[s] = names[i]
        cand = _serialize(attrs, [(perm[a], perm[b], l) for a, b, l in edges])
        if best is None or cand < best:
            best, perms = cand, [perm]
        elif cand == best:
            perms.append(perm)
    assert best is not None
    return best, tuple(perms)


def canonical_code(p: Pattern) -> str:
    return _canonical_form(p)[0]


def single_edge_pattern(src_attr: str, dst_attr: str, layer: str) -> Pattern:
    return Pattern((src_attr, dst_attr), frozenset({(0, 1, layer)}))


@dataclass(frozen=True)
class Embedding:
    """One injective occurrence of a pattern: slot i maps to nodes[i]."""

    pattern_code: str
    nodes: Tuple[int, ...]


def _join_plan(
    k: int, edges: Sequence[Tuple[int, int, int]]
) -> Tuple[List[int], List[List[Tuple[int, int, bool]]]]:
    """Slot order and, per position, the edges back to earlier positions.

    Well-connected slots come first and the placed prefix stays connected
    where the pattern allows.  An anchor ``(pos, layer, out)`` says the
    slot is joined to the slot at ``pos`` by an edge on ``layer`` that
    leaves the new slot when ``out`` is true.
    """
    nbr: List[List[Tuple[int, int, bool]]] = [[] for _ in range(k)]
    for a, b, l in edges:
        nbr[a].append((b, l, True))   # slot is the source
        nbr[b].append((a, l, False))  # slot is the target
    # By edge count, ties to the smaller slot; a slot joined to a placed
    # one goes before any slot that is not.
    rest = sorted(range(k), key=lambda x: (-len(nbr[x]), x))
    order: List[int] = []
    pos_of: Dict[int, int] = {}
    anchors: List[List[Tuple[int, int, bool]]] = []
    while rest:
        nxt = next(
            (x for x in rest if any(o in pos_of for o, _, _ in nbr[x])), rest[0]
        )
        rest.remove(nxt)
        anchors.append(
            [(pos_of[o], l, out) for o, l, out in nbr[nxt] if o in pos_of]
        )
        pos_of[nxt] = len(order)
        order.append(nxt)
    return order, anchors


def embedding_table(
    p: Pattern, g: MultiplexGraph, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Every embedding of ``p`` in ``g``: row r maps slot i to ``[r, i]``.

    Matching is homomorphic on edges (extra host edges are allowed) and
    injective on nodes; attributes, directions and layers must agree.  The
    table grows one slot per join step: the host column of the slot's first
    anchor is expanded through the layer's CSR, and the candidate rows are
    filtered by attribute, by the remaining anchors (a lookup among the
    sorted edge keys) and by injectivity.  A slot without anchors joins
    every node of its attribute.  Every candidate row generated counts
    against ``budget``, before any filter, so the budget bounds memory.

    Rows are sorted.  A pattern attribute or layer the host lacks gives an
    empty table.
    """
    k = p.n_slots
    ix = g.arrays
    n = ix.n
    try:
        want = [ix.attr_ids[a] for a in p.attrs]
        edges = sorted((a, b, g.layer_id(l)) for a, b, l in p.edges)
    except KeyError:
        return np.empty((0, k), dtype=np.int64)
    order, anchors = _join_plan(k, edges)
    table = np.empty((1, 0), dtype=np.int64)
    rows = 0
    for pos, slot in enumerate(order):
        m = len(table)
        if not m:
            return np.empty((0, k), dtype=np.int64)
        if anchors[pos]:
            (opos, l, out), rest = anchors[pos][0], anchors[pos][1:]
            ptr, nbr = (ix.in_ptr, ix.in_nbr) if out else (ix.out_ptr, ix.out_nbr)
            row = l * n + table[:, opos]
            lo, hi = ptr[row], ptr[row + 1]
            # Hosts have no self loops: a neighbour is never the anchor's node.
            others = [j for j in range(pos) if j != opos]
        else:
            # Every node with the slot's attribute extends every row.
            rest, others = [], range(pos)
            nbr = np.flatnonzero(ix.attr == want[slot])
            lo, hi = np.zeros(m, dtype=np.int64), np.full(m, len(nbr))
        cnt = hi - lo
        total = int(cnt.sum())
        rows += total
        if rows > budget:
            raise MiningBudgetError(p.code, budget)
        src = np.arange(m).repeat(cnt)
        new = nbr[np.arange(total) + (lo - cnt.cumsum() + cnt).repeat(cnt)]
        prev = table[src]
        masks = []
        if len(ix.attr_ids) > 1:  # else every node has the wanted attribute
            masks.append(ix.attr[new] == want[slot])
        for opos, l, out in rest:
            host = prev[:, opos]
            masks.append(ix.is_edge(
                g.space.key(new, host, l) if out else g.space.key(host, new, l)
            ))
        masks += [prev[:, j] != new for j in others]
        if masks:
            keep = np.logical_and.reduce(masks)
            prev, new = prev[keep], new[keep]
        table = np.concatenate((prev, new[:, None]), axis=1)
    table = table[:, [order.index(s) for s in range(k)]]
    if k and len(table) > 1:
        table = table[np.lexsort(table.T[::-1])]
    return table


def embeddings(
    p: Pattern, g: MultiplexGraph, budget: int = DEFAULT_BUDGET
) -> List[Embedding]:
    """All embeddings of ``p`` in ``g``, sorted by mapped node tuple."""
    code = p.code
    return [
        Embedding(code, tuple(nodes))
        for nodes in embedding_table(p, g, budget).tolist()
    ]


def min_image_support(
    p: Pattern, g: MultiplexGraph, budget: int = DEFAULT_BUDGET
) -> int:
    """Minimum over slots of the number of distinct host images."""
    table = embedding_table(p, g, budget)
    if not table.size:
        return 0
    return min(int(np.count_nonzero(np.bincount(col))) for col in table.T)


# -- level-wise mining ------------------------------------------------------


@dataclass
class MinerConfig:
    """Mining parameters: support threshold, size cap, and the budget of
    candidate embedding rows each pattern's join may generate."""

    min_support: int
    max_nodes: int = 4
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.min_support < 1:
            raise ValueError(
                f"support threshold must be >= 1, got {self.min_support}"
            )
        if self.max_nodes < 2:
            raise ValueError(
                f"max pattern size must be >= 2, got {self.max_nodes}"
            )


@dataclass
class MiningStats:
    """Counters filled by :func:`mine` when a sink is passed in."""

    frequent_per_level: List[int] = field(default_factory=list)
    candidates_tested: int = 0
    antimonotone_checks: int = 0
    antimonotone_violations: int = 0
    support_pairs: List[Tuple[int, int]] = field(default_factory=list)


def _single_edge_supports(g: MultiplexGraph) -> Dict[Tuple[str, str, str], int]:
    """Support of every single-edge pattern present in the host, in one scan.

    For a one-edge pattern the slot images are exactly the distinct sources
    and targets of the matching host edges, so the support is the smaller of
    the two counts.
    """
    srcs: Dict[Tuple[str, str, str], Set[int]] = {}
    dsts: Dict[Tuple[str, str, str], Set[int]] = {}
    ln = g.layer_names
    for u, v, l in g.edges:
        key = (g.attrs[u], g.attrs[v], ln[l])
        srcs.setdefault(key, set()).add(u)
        dsts.setdefault(key, set()).add(v)
    return {key: min(len(srcs[key]), len(dsts[key])) for key in srcs}


def _grow(
    p: Pattern,
    max_slots: int,
    by_pair: Dict[Tuple[str, str], List[str]],
    by_src: Dict[str, List[Tuple[str, str]]],
    by_dst: Dict[str, List[Tuple[str, str]]],
) -> List[Pattern]:
    """One-edge extensions of ``p`` whose new edge is a frequent edge type.

    Either closes an edge between two existing slots or attaches a brand-new
    slot, mirroring the two growth moves of the search.
    """
    out: List[Pattern] = []
    k = p.n_slots
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for lay in by_pair.get((p.attrs[i], p.attrs[j]), ()):
                e = (i, j, lay)
                if e not in p.edges:
                    out.append(Pattern(p.attrs, p.edges | {e}))
    if k < max_slots:
        for i in range(k):
            for dst_attr, lay in by_src.get(p.attrs[i], ()):
                out.append(
                    Pattern(p.attrs + (dst_attr,), p.edges | {(i, k, lay)})
                )
            for src_attr, lay in by_dst.get(p.attrs[i], ()):
                out.append(
                    Pattern(p.attrs + (src_attr,), p.edges | {(k, i, lay)})
                )
    return out


def mine(
    g: MultiplexGraph,
    cfg: MinerConfig,
    stats: Optional[MiningStats] = None,
) -> List[Pattern]:
    """Enumerate all frequent patterns up to ``cfg.max_nodes`` slots.

    Level k holds the frequent patterns with k edges.  Children are grown
    one edge at a time from every frequent parent, deduplicated by canonical
    code, counted, and kept when their support reaches the threshold.  The
    support of each child is checked against every parent that produced it;
    a child exceeding a parent's support would contradict the anti-monotone
    support measure and raises immediately.

    Returns the frequent patterns with supports attached, sorted by code.
    """
    sigma = cfg.min_support
    seen = _single_edge_supports(g)
    singles = {key: sup for key, sup in seen.items() if sup >= sigma}

    by_pair: Dict[Tuple[str, str], List[str]] = {}
    by_src: Dict[str, List[Tuple[str, str]]] = {}
    by_dst: Dict[str, List[Tuple[str, str]]] = {}
    for (sa, da, lay) in sorted(singles):
        by_pair.setdefault((sa, da), []).append(lay)
        by_src.setdefault(sa, []).append((da, lay))
        by_dst.setdefault(da, []).append((sa, lay))

    firsts: Dict[str, Pattern] = {}
    for (sa, da, lay), sup in sorted(singles.items()):
        p = Pattern((sa, da), frozenset({(0, 1, lay)}), sup)
        firsts.setdefault(p.code, p)
    frontier = [firsts[c] for c in sorted(firsts)]
    result: List[Pattern] = list(frontier)
    if stats is not None:
        stats.frequent_per_level.append(len(frontier))
        stats.candidates_tested += len(seen)

    while frontier:
        children: Dict[str, Pattern] = {}
        parents_of: Dict[str, List[int]] = {}
        for p in frontier:
            for child in _grow(p, cfg.max_nodes, by_pair, by_src, by_dst):
                code = child.code
                if code not in children:
                    children[code] = child
                    parents_of[code] = []
                parents_of[code].append(p.support)
        nxt: List[Pattern] = []
        for code in sorted(children):
            child = children[code]
            sup = min_image_support(child, g, cfg.budget)
            if stats is not None:
                stats.candidates_tested += 1
                for psup in parents_of[code]:
                    stats.antimonotone_checks += 1
                    stats.support_pairs.append((psup, sup))
                    if sup > psup:
                        stats.antimonotone_violations += 1
            bad = [ps for ps in parents_of[code] if sup > ps]
            if bad:
                raise MiningInvariantError(
                    f"support of {code!r} ({sup}) exceeds parent support "
                    f"({min(bad)}): anti-monotonicity violated"
                )
            if sup >= sigma:
                nxt.append(Pattern(child.attrs, child.edges, sup))
        if stats is not None:
            stats.frequent_per_level.append(len(nxt))
        result.extend(nxt)
        frontier = nxt

    result.sort(key=lambda p: p.code)
    return result


# -- serialization ----------------------------------------------------------


def pattern_to_dict(p: Pattern) -> dict:
    d = {
        "nodes": list(p.attrs),
        "edges": sorted([a, b, l] for a, b, l in p.edges),
        "code": p.code,
    }
    if p.support is not None:
        d["support"] = p.support
    return d


def pattern_from_dict(d: dict) -> Pattern:
    edges = frozenset((a, b, l) for a, b, l in d["edges"])
    return Pattern(tuple(d["nodes"]), edges, d.get("support"))


def patterns_to_lg(patterns: Sequence[Pattern]) -> str:
    """Render patterns in the plain-text transaction format.

    Each block: ``t # <idx> s <support>``, ``v <slot> <attr>`` lines,
    then ``e <src> <dst> <layer>`` lines.
    """
    lines: List[str] = []
    for idx, p in enumerate(patterns):
        lines.append(f"t # {idx} s {p.support or 0}")
        for i, a in enumerate(p.attrs):
            lines.append(f"v {i} {a}")
        for a, b, l in sorted(p.edges):
            lines.append(f"e {a} {b} {l}")
    return "\n".join(lines) + "\n"
