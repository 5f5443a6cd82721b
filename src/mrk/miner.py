"""Frequent pattern mining on multiplex graphs.

Patterns are small connected directed graphs whose nodes ("slots") carry an
attribute and whose edges carry a layer name.  Pattern frequency is measured
by minimum image support: over all embeddings of the pattern, count the
distinct host nodes each slot maps to and take the minimum over slots.  This
support never grows when a pattern is extended, which lets the miner prune
level by level.

Embeddings come from one engine, a numpy join over the host's per-layer
CSR adjacency in the manner of FSG's embedding lists (Kuramochi & Karypis
2001).  A table grows by one :func:`_step` at a time: a new slot expands
the host nodes of an already placed neighbour slot through the CSR and
filters the candidate rows by attribute, by the pattern's other edges back
to placed slots and by injectivity.  A closing edge filters the rows by
that edge alone, in :func:`_close`, which tests every closing child of one
parent table together.  An edge test is one
:meth:`~mrk.graph.GraphArrays.is_edge` lookup.

:func:`mine` grows the tables along the lattice: each child's table is one
step from the table of the parent that first grew it, and the returned
patterns carry their tables, which rule scoring reads.
:func:`embedding_table` joins a pattern from scratch, one step per slot,
for patterns that carry no table for the host at hand.  The budget caps
the candidate rows one pattern generates, which bounds its memory.

Candidates are deduplicated by canonical code, FSG's dedup step done in
bulk: :func:`canonical_forms` ranks every slot permutation of a whole
batch of patterns in one numpy kernel, and :func:`mine` calls it once per
level, over every child the level grew.  Codes number slots with one
digit, so patterns have at most :data:`MAX_SLOTS` slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from .errors import MiningBudgetError, MiningInvariantError, PatternSizeError
from .graph import MultiplexGraph

DEFAULT_BUDGET = 10 ** 6

PatternEdge = Tuple[int, int, str]  # (src slot, dst slot, layer name)
SlotMap = Tuple[int, ...]  # slot i of one pattern maps to slot map[i] of another


@dataclass(frozen=True)
class Pattern:
    """A connected attributed pattern with layer-labeled directed edges.

    ``support`` is the mined minimum image support, or None; equality and
    hashing go by canonical code only.  ``mined_on`` is the graph a
    pattern returned by :func:`mine` was mined on, with the embedding table
    mining built for it there, in this pattern's own slot numbering; read
    it through :meth:`table_in`.
    """

    attrs: Tuple[str, ...]
    edges: FrozenSet[PatternEdge]
    support: Optional[int] = field(default=None, compare=False)
    mined_on: Optional[Tuple[MultiplexGraph, np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

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
        return canonical_forms([self])[0]

    @property
    def code(self) -> str:
        """Canonical code, cached after first computation."""
        return self._canonical[0]

    @property
    def canonical_perms(self) -> Tuple[SlotMap, ...]:
        """Every slot permutation that serializes to :attr:`code`."""
        return self._canonical[1]

    def table_in(
        self, g: MultiplexGraph, budget: int = DEFAULT_BUDGET
    ) -> np.ndarray:
        """Embedding table in ``g``: the one mining carried when this
        pattern was mined on ``g`` itself, else a fresh join."""
        if self.mined_on is not None and self.mined_on[0] is g:
            return self.mined_on[1]
        return embedding_table(self, g, budget)

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

# Slot numbers are written as one digit, so a code numbers at most ten
# slots; past that "10" would sort before "2" and the integer ranks of
# :func:`canonical_forms` would stop agreeing with the strings.
MAX_SLOTS = 10

# Entries (patterns x permutations x code columns) of one kernel chunk,
# which bounds the kernel's memory whatever the batch size.
_CHUNK = 1 << 15
_INT64_MAX = np.iinfo(np.int64).max


def _escaped(name: str) -> str:
    return name.translate(_ESCAPE) or "%"


@lru_cache(maxsize=None)
def _permutations(k: int) -> np.ndarray:
    """Every permutation of ``range(k)`` as a read-only ``(k!, k)`` int8
    array, in the ascending order of ``itertools.permutations``.

    One table per slot count is kept for the process's life; the ten-slot
    table is 36 MB, the four-slot one 96 bytes.
    """
    perms = np.zeros((1, 0), dtype=np.int8)
    for n in range(1, k + 1):
        # Lead with each first value in turn; the rest keep their order.
        perms = np.concatenate([
            np.hstack((np.full((len(perms), 1), i, dtype=np.int8),
                       perms + (perms >= i)))
            for i in range(n)
        ])
    perms.flags.writeable = False
    return perms


def canonical_forms(
    patterns: Iterable[Pattern],
) -> List[Tuple[str, Tuple[SlotMap, ...]]]:
    """Canonical code and minimising permutations of every pattern, each
    cached on its pattern (see :attr:`Pattern.code`).

    The code is the minimum serialization over all slot permutations: the
    escaped names by canonical slot joined by ``|``, then the edges
    ``src>dst:layer`` sorted and joined by ``,``.  The permutations are
    every one attaining it, ascending.  Two patterns get the same code iff
    they are isomorphic respecting attributes, edge directions and
    layers.  A permutation maps slot i to canonical slot ``perm[i]``;
    composing the inverse of one minimising permutation with each of them
    yields every automorphism of the pattern exactly once.

    One numpy kernel ranks every permutation of a whole batch: patterns
    are grouped by slot and edge count, and each permutation becomes one
    integer row whose lexicographic order is the order of its code string
    (see :func:`_permutation_rows`).  The rows tied at the row-wise
    minimum are the minimising permutations, and the code is written once,
    from the minimal row.  Groups are cut into chunks of :data:`_CHUNK`
    entries, so memory does not grow with the batch.  Patterns that
    already carry their form are skipped.

    Raises :class:`PatternSizeError` for a pattern of more than
    :data:`MAX_SLOTS` slots.
    """
    patterns = list(patterns)
    groups: Dict[Tuple[int, int], List[Pattern]] = {}
    for p in patterns:
        if "_canonical" in p.__dict__:
            continue
        if len(p.attrs) > MAX_SLOTS:
            raise PatternSizeError(p.attrs, MAX_SLOTS)
        groups.setdefault((len(p.attrs), len(p.edges)), []).append(p)
    todo = [p for grp in groups.values() for p in grp]
    names = set(chain.from_iterable(p.attrs for p in todo))
    layers = set(map(itemgetter(2), chain.from_iterable(p.edges for p in todo)))
    esc = {x: _escaped(x) for x in names | layers}
    # Names are ranked as they compare inside the code: a slot's name is
    # followed by "|" and an edge's layer by ",".  Within one permutation
    # the edges are sorted by (src, dst, escaped layer), which can order
    # two layers the other way: "x" < "x!" but "x!," < "x,".
    names = sorted(names, key=lambda a: esc[a] + "|")
    layers = sorted(layers, key=lambda l: esc[l] + ",")
    rank = {a: i for i, a in enumerate(names)}
    lid = {l: i for i, l in enumerate(layers)}
    by_sort = sorted(range(len(layers)), key=lambda i: esc[layers[i]])
    lsort = np.empty(len(layers), dtype=np.int64)
    lsort[by_sort] = np.arange(len(layers))
    vtok = [esc[a] for a in names]
    for (k, n_edges), grp in groups.items():
        n = len(grp)
        slots = np.fromiter(map(rank.__getitem__, chain.from_iterable(
            p.attrs for p in grp)), dtype=np.int64, count=n * k)
        flat = list(chain.from_iterable(p.edges for p in grp))

        def column(f) -> np.ndarray:
            return np.fromiter(map(f, flat), dtype=np.int64,
                               count=len(flat)).reshape(n, n_edges)

        lay = column(lambda e: lid[e[2]])
        # Edge value (src·k + dst)·len(layers) + layer rank names its token.
        etok = [f"{a}>{b}:{esc[l]}" for a in range(k) for b in range(k)
                for l in layers]
        rows = _minimal_rows(slots.reshape(n, k), column(itemgetter(0)),
                             column(itemgetter(1)), lsort[lay], lay,
                             len(layers))
        for p, (row, won) in zip(grp, rows):
            vpart = "|".join(map(vtok.__getitem__, row[:k]))
            epart = ",".join(map(etok.__getitem__, row[k:]))
            p.__dict__["_canonical"] = (f"v={vpart};e={epart}", won)
    return [p.__dict__["_canonical"] for p in patterns]


def _permutation_rows(
    slots: np.ndarray, src: np.ndarray, dst: np.ndarray, lsort: np.ndarray,
    lcmp: np.ndarray, n_layers: int, perms: np.ndarray,
) -> np.ndarray:
    """The code of every pattern under every permutation, as integers.

    ``slots`` is ``(patterns, k)`` name ranks; ``src``, ``dst`` and the
    layer ranks ``lsort`` (sorting order) and ``lcmp`` (comparing order)
    are ``(patterns, e)``.  Row ``[p, j]`` of the ``(patterns, perms,
    k + e)`` result holds the name rank at each canonical slot, then each
    edge as ``(src·k + dst)·n_layers + compare rank``, in the order the
    code sorts its edges.  Rows of one pattern compare lexicographically
    as their codes do.  Their vertex parts hold the same names, so two
    differ first at a name followed by "|", never at the last one.  Their
    edge parts hold the same layers, so two that agree up to the last
    token agree on it too, and a layer decides only inside a token
    followed by ",".  Slot numbers are one digit, so they compare as
    integers.
    """
    k = slots.shape[1]
    perms = perms.astype(np.int64)
    vpart = slots[:, np.argsort(perms, axis=1)]
    r = n_layers
    key = perms.T[src] * k + perms.T[dst]  # (patterns, e, perms)
    key = (key * r + lsort[:, :, None]) * r + lcmp[:, :, None]
    key.sort(axis=1)
    epart = key // (r * r) * r + key % r
    return np.concatenate((vpart, epart.transpose(0, 2, 1)), axis=2)


def _minimal_rows(
    slots: np.ndarray, src: np.ndarray, dst: np.ndarray, lsort: np.ndarray,
    lcmp: np.ndarray, n_layers: int,
) -> Iterator[Tuple[List[int], Tuple[SlotMap, ...]]]:
    """Per pattern, in order, its minimal row of :func:`_permutation_rows`
    and every permutation attaining it, ascending.

    Patterns share a chunk when all their permutations fit in
    :data:`_CHUNK` entries; otherwise a chunk holds one pattern and a
    block of its permutations, and the block minima are merged.
    """
    n, k = slots.shape
    perms = _permutations(k)
    width = max(k + src.shape[1], 1)
    step = max(1, _CHUNK // (len(perms) * width))
    block = min(len(perms), max(1, _CHUNK // width))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        best: List[Optional[List[int]]] = [None] * (hi - lo)
        ties: List[List[List[int]]] = [[] for _ in range(hi - lo)]
        for b0 in range(0, len(perms), block):
            some = perms[b0:b0 + block]
            rows = _permutation_rows(slots[lo:hi], src[lo:hi], dst[lo:hi],
                                     lsort[lo:hi], lcmp[lo:hi], n_layers, some)
            win = np.ones(rows.shape[:2], dtype=bool)
            for col in rows.transpose(2, 0, 1):
                low = np.where(win, col, _INT64_MAX).min(axis=1, keepdims=True)
                win &= col == low
            at, j = np.nonzero(win)
            tied = some[j].tolist()
            mins = rows[np.arange(hi - lo), win.argmax(axis=1)].tolist()
            o = 0
            for i, (row, c) in enumerate(zip(
                    mins, np.bincount(at, minlength=hi - lo).tolist())):
                if best[i] is None or row < best[i]:
                    best[i], ties[i] = row, []
                if row == best[i]:
                    ties[i] += tied[o:o + c]
                o += c
        for row, t in zip(best, ties):
            yield row, tuple(map(tuple, t))


def canonical_code(p: Pattern) -> str:
    return p.code


def single_edge_pattern(src_attr: str, dst_attr: str, layer: str) -> Pattern:
    return Pattern((src_attr, dst_attr), frozenset({(0, 1, layer)}))


@dataclass(frozen=True)
class Embedding:
    """One injective occurrence of a pattern: slot i maps to nodes[i]."""

    pattern_code: str
    nodes: Tuple[int, ...]


def _join_plan(
    k: int, edges: Sequence[Tuple[int, int, int]]
) -> Tuple[List[int], List[List[Tuple[int, int, int]]]]:
    """Slot order and, per position, the edges back to earlier positions.

    Well-connected slots come first and the placed prefix stays connected
    where the pattern allows.  Back edges are ``(src, dst, layer)`` between
    positions, in the order of ``edges``; the first one anchors the slot.
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
    back: List[List[Tuple[int, int, int]]] = []
    while rest:
        nxt = next(
            (x for x in rest if any(o in pos_of for o, _, _ in nbr[x])), rest[0]
        )
        rest.remove(nxt)
        pos = pos_of[nxt] = len(order)
        back.append([
            (pos, pos_of[o], l) if out else (pos_of[o], pos, l)
            for o, l, out in nbr[nxt] if o in pos_of
        ])
        order.append(nxt)
    return order, back


def _step(
    table: np.ndarray,
    g: MultiplexGraph,
    edges: Sequence[Tuple[int, int, int]],
    want: int,
    budget: int,
    p: Pattern,
    used: int = 0,
) -> Tuple[np.ndarray, int]:
    """One join step of ``p``'s table: a new last column with attribute id
    ``want``.  Returns the new table and rows used.

    ``edges`` are pattern edges ``(a, b, layer id)`` between the new column
    and the table's columns.  The first edge expands the host node of its
    other column through the layer's CSR (with no edge, every node of the
    attribute extends every row), and the candidate rows are filtered by
    attribute, by the other edges (:meth:`GraphArrays.is_edge`) and by
    injectivity.

    The candidate rows are added to ``used`` before the step allocates
    them; past ``budget`` it raises :class:`MiningBudgetError` naming
    ``p``.  Rows keep the table's order and, within one of its rows,
    ascending new-node order, so a sorted table gives a sorted result.
    """
    ix = g.arrays
    m, c = table.shape
    if edges:
        (a, b, l), edges = edges[0], edges[1:]
        if a == c:  # the new column is the edge's source
            col, ptr, nbr = b, ix.in_ptr, ix.in_nbr
        else:
            col, ptr, nbr = a, ix.out_ptr, ix.out_nbr
        row = l * ix.n + table[:, col]
        lo, hi = ptr[row], ptr[row + 1]
        # Hosts have no self loops: a neighbour is never the anchor's node.
        others = [j for j in range(c) if j != col]
    else:
        nbr = np.flatnonzero(ix.attr == want)
        lo, hi = np.zeros(m, dtype=np.int64), np.full(m, len(nbr))
        others = range(c)
    cnt = hi - lo
    total = int(cnt.sum())
    used += total
    if used > budget:
        raise MiningBudgetError(p.code, budget)
    new = nbr[np.arange(total) + (lo - cnt.cumsum() + cnt).repeat(cnt)]
    rows = table[np.arange(m).repeat(cnt)]
    masks = []
    if len(ix.attr_ids) > 1:  # else every node matches
        masks.append(ix.attr[new] == want)
    for a, b, l in edges:
        src = new if a == c else rows[:, a]
        dst = new if b == c else rows[:, b]
        masks.append(ix.is_edge(g.space.key(src, dst, l)))
    masks += [rows[:, j] != new for j in others]
    if masks:
        keep = np.logical_and.reduce(masks)
        rows, new = rows[keep], new[keep]
    return np.concatenate((rows, new[:, None]), axis=1), used


def _close(
    table: np.ndarray,
    g: MultiplexGraph,
    edges: Sequence[Tuple[int, int, int]],
    children: Sequence[Pattern],
    budget: int,
    sigma: int,
) -> List[Tuple[int, Optional[np.ndarray]]]:
    """The closing steps of several children of one parent ``table``:
    child i adds the edge ``edges[i] = (a, b, layer id)`` between two of
    the table's columns.

    Returns, per child, its support and, when that reaches ``sigma``, its
    table: the rows whose host nodes have its edge, in the parent's order.
    Each child checks all of the table's rows, which count against its
    budget before anything is allocated; past ``budget`` it raises
    :class:`MiningBudgetError` naming the first child.  One key column
    serves every edge between the same two columns, each child's rows are
    one :meth:`GraphArrays.is_edge` mask, and the supports of all children
    are read off their masks together, so a child below ``sigma`` never
    materialises its table.
    """
    m = len(table)
    if m > budget:
        raise MiningBudgetError(children[0].code, budget)
    ix = g.arrays
    keep = np.empty((len(edges), m), dtype=bool)
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for i, (a, b, _) in enumerate(edges):
        by_pair.setdefault((a, b), []).append(i)
    for (a, b), at in by_pair.items():
        base = g.space.key(table[:, a], table[:, b], 0)
        for i in at:
            keep[i] = ix.is_edge(base + edges[i][2])
    return [(sup, table[hit] if sup >= sigma else None)
            for sup, hit in zip(_supports(table, keep, ix.n), keep)]


def _join(
    p: Pattern, g: MultiplexGraph, budget: int
) -> Tuple[np.ndarray, int]:
    """Fresh join of ``p``'s table, one :func:`_step` per slot; returns the
    sorted table and the rows its steps used."""
    k = p.n_slots
    ix = g.arrays
    try:
        want = [ix.attr_ids[a] for a in p.attrs]
        edges = sorted((a, b, g.layer_id(l)) for a, b, l in p.edges)
    except KeyError:
        return np.empty((0, k), dtype=np.int64), 0
    order, back = _join_plan(k, edges)
    table = np.empty((1, 0), dtype=np.int64)
    used = 0
    for pos, slot in enumerate(order):
        if not len(table):
            return np.empty((0, k), dtype=np.int64), used
        table, used = _step(table, g, back[pos], want[slot], budget, p, used)
    table = table[:, [order.index(s) for s in range(k)]]
    if k and len(table) > 1:
        table = table[np.lexsort(table.T[::-1])]
    return table, used


def embedding_table(
    p: Pattern, g: MultiplexGraph, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Every embedding of ``p`` in ``g``: row r maps slot i to ``[r, i]``.

    Matching is homomorphic on edges (extra host edges are allowed) and
    injective on nodes; attributes, directions and layers must agree.  The
    table is joined from scratch, one :func:`_step` per slot in the order
    of :func:`_join_plan`.  Every candidate row that any step generates
    counts against ``budget``, before any filter, so the budget bounds
    memory.

    Rows are sorted.  A pattern attribute or layer the host lacks gives an
    empty table.
    """
    return _join(p, g, budget)[0]


def embeddings(
    p: Pattern, g: MultiplexGraph, budget: int = DEFAULT_BUDGET
) -> List[Embedding]:
    """All embeddings of ``p`` in ``g``, sorted by mapped node tuple."""
    code = p.code
    return [
        Embedding(code, tuple(nodes))
        for nodes in embedding_table(p, g, budget).tolist()
    ]


def _support(table: np.ndarray, n: int) -> int:
    return _supports(table, np.ones((1, len(table)), dtype=bool), n)[0]


def _supports(table: np.ndarray, keep: np.ndarray, n: int) -> List[int]:
    """The support of ``table[keep[i]]`` for every row mask ``keep[i]``:
    per column, the distinct node ids among its rows (all below ``n``),
    and the least count over columns."""
    at, rows = np.nonzero(keep)
    sup = np.zeros(len(keep), dtype=np.int64)
    for j, col in enumerate(table.T):
        seen = np.zeros((len(keep), n), dtype=bool)
        seen[at, col[rows]] = True
        count = np.count_nonzero(seen, axis=1)
        sup = count if j == 0 else np.minimum(sup, count)
    return sup.tolist()


def min_image_support(
    p: Pattern, g: MultiplexGraph, budget: int = DEFAULT_BUDGET
) -> int:
    """Minimum over slots of the number of distinct host images."""
    return _support(embedding_table(p, g, budget), g.n_nodes)


# -- level-wise mining ------------------------------------------------------


@dataclass
class MinerConfig:
    """Mining parameters: support threshold, size cap, and the budget of
    candidate embedding rows one pattern may generate.

    Inside :func:`mine` a pattern's rows are those its own join step
    generates from its parent's table: the parent's rows for a closing
    edge, the CSR expansion for a new slot.  A single-edge pattern, which
    has no parent, counts every step of its fresh join.
    """

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
        if self.max_nodes > MAX_SLOTS:
            raise ValueError(
                f"max pattern size must be <= {MAX_SLOTS} (canonical codes "
                f"number slots with one digit), got {self.max_nodes}"
            )
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


@dataclass
class MiningStats:
    """Counters of one :func:`mine` run, kept whether or not the caller
    passes a sink.

    Every growth of a child from a parent is one anti-monotone check, and
    ``support_pairs`` lists each as (parent support, child support):
    parent by parent in the order of :func:`mine`'s walk, each parent's in
    the order it grew its children.  ``rows_generated`` sums the candidate
    rows of every join step mining ran; ``max_rows`` is the most rows any
    one pattern used, the figure the budget caps.  ``rows_kept`` sums the
    rows of the candidate tables mining materialised: every single-edge
    and new-slot candidate's, and a closing candidate's only when it is
    frequent.
    """

    frequent_per_level: List[int] = field(default_factory=list)
    candidates_tested: int = 0
    antimonotone_checks: int = 0
    antimonotone_violations: int = 0
    support_pairs: List[Tuple[int, int]] = field(default_factory=list)
    rows_generated: int = 0
    max_rows: int = 0
    rows_kept: int = 0

    def count_rows(self, rows: int, table: Optional[np.ndarray]) -> None:
        """Count a candidate's ``rows`` and its table, if materialised."""
        self.rows_generated += rows
        self.max_rows = max(self.max_rows, rows)
        if table is not None:
            self.rows_kept += len(table)


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
) -> List[Tuple[Pattern, PatternEdge]]:
    """One-edge extensions of ``p`` whose new edge is a frequent edge type,
    each with that edge.

    Either closes an edge between two existing slots or attaches a brand-new
    slot, mirroring the two growth moves of the search.  A child keeps
    ``p``'s slot numbers; a new slot is number ``p.n_slots``.
    """
    out: List[Tuple[Pattern, PatternEdge]] = []
    k = p.n_slots
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for lay in by_pair.get((p.attrs[i], p.attrs[j]), ()):
                e = (i, j, lay)
                if e not in p.edges:
                    out.append((Pattern(p.attrs, p.edges | {e}), e))
    if k < max_slots:
        for i in range(k):
            for dst_attr, lay in by_src.get(p.attrs[i], ()):
                e = (i, k, lay)
                out.append((Pattern(p.attrs + (dst_attr,), p.edges | {e}), e))
            for src_attr, lay in by_dst.get(p.attrs[i], ()):
                e = (k, i, lay)
                out.append((Pattern(p.attrs + (src_attr,), p.edges | {e}), e))
    return out


def _child_table(
    parent: Pattern, child: Pattern, e: PatternEdge, g: MultiplexGraph,
    budget: int,
) -> Tuple[np.ndarray, int]:
    """The child's table, one step from the table its parent carries, and
    the rows that step used; ``e`` is the edge :func:`_grow` added.

    The child keeps the parent's slot numbers, so the parent's columns are
    its first columns and a new slot is the last one, placed by
    :func:`_step`; a closing edge is a :func:`_close` of this one child.
    Rows stay sorted.
    """
    a, b, lay = e
    edge, table = (a, b, g.layer_id(lay)), parent.mined_on[1]
    if child.n_slots > parent.n_slots:
        return _step(table, g, [edge], g.arrays.attr_ids[child.attrs[-1]],
                     budget, child)
    [(_, closed)] = _close(table, g, [edge], [child], budget, 0)
    return closed, len(table)


def _carrying(p: Pattern, support: int, g: MultiplexGraph,
              table: np.ndarray) -> Pattern:
    """``p`` with its support, its read-only table on ``g`` and its
    canonical form."""
    table.flags.writeable = False
    q = Pattern(p.attrs, p.edges, support, (g, table))
    q.__dict__["_canonical"] = p._canonical
    return q


def mine(
    g: MultiplexGraph,
    cfg: MinerConfig,
    stats: Optional[MiningStats] = None,
) -> List[Pattern]:
    """Enumerate all frequent patterns up to ``cfg.max_nodes`` slots.

    Level k holds the frequent patterns with k edges.  A level grows every
    child of the frontier one edge at a time, codes them in one
    :func:`canonical_forms` batch, and walks the frontier in code order.
    Each parent tests the children no earlier parent grew, from its own
    table and in its slot numbering: its closing children in one
    :func:`_close`, then its new-slot children through
    :func:`_child_table`, each in code order.  Frequent children join the
    next frontier, which is sorted by code.  Then every growth of the
    parent is checked against its support: a child above it would
    contradict the anti-monotone support measure and raises
    :class:`MiningInvariantError`.  A budget error names the first child
    over the budget in this walk.  The counters always go to a
    :class:`MiningStats`: ``stats``, or a private one when it is None.

    Returns the frequent patterns sorted by code, each carrying its
    support, its canonical form and its table on ``g`` (see
    :meth:`Pattern.table_in`).  Mining holds the tables of one level's
    frontier while it grows the next; the returned patterns keep theirs
    for rule scoring.
    """
    sigma = cfg.min_support
    stats = MiningStats() if stats is None else stats
    seen = _single_edge_supports(g)
    singles = {key: sup for key, sup in seen.items() if sup >= sigma}

    by_pair: Dict[Tuple[str, str], List[str]] = {}
    by_src: Dict[str, List[Tuple[str, str]]] = {}
    by_dst: Dict[str, List[Tuple[str, str]]] = {}
    for (sa, da, lay) in sorted(singles):
        by_pair.setdefault((sa, da), []).append(lay)
        by_src.setdefault(sa, []).append((da, lay))
        by_dst.setdefault(da, []).append((sa, lay))

    edges = [Pattern((sa, da), frozenset({(0, 1, lay)}), sup)
             for (sa, da, lay), sup in sorted(singles.items())]
    canonical_forms(edges)
    # Distinct (attr, attr, layer) triples are never isomorphic, so the
    # codes are distinct; their order decides which parent first grows
    # each child of the next level.
    frontier: List[Pattern] = []
    for p in sorted(edges, key=lambda p: p.code):
        table, rows = _join(p, g, cfg.budget)
        stats.count_rows(rows, table)
        frontier.append(_carrying(p, p.support, g, table))
    result: List[Pattern] = list(frontier)
    stats.frequent_per_level.append(len(frontier))
    stats.candidates_tested += len(seen)

    while frontier:
        # Children grown alike share one object, so each is coded once.
        first: Dict[Tuple[tuple, FrozenSet[PatternEdge]], Pattern] = {}
        grown = [[(first.setdefault((c.attrs, c.edges), c), e)
                  for c, e in _grow(p, cfg.max_nodes, by_pair, by_src, by_dst)]
                 for p in frontier]
        canonical_forms(first.values())
        sup_of: Dict[str, int] = {}
        nxt: List[Pattern] = []
        for p, kids in zip(frontier, grown):
            # Untested children, each code with the first growth of it.
            new = {c.code: (c, e) for c, e in reversed(kids)
                   if c.code not in sup_of}
            # Closing children first, then new-slot ones, each by code.
            todo = sorted(new.values(),
                          key=lambda ce: (ce[0].n_slots, ce[0].code))
            closing = [(c, e) for c, e in todo if c.n_slots == p.n_slots]
            table = p.mined_on[1]
            tested = []
            if closing:
                children = [c for c, _ in closing]
                lids = [(a, b, g.layer_id(lay)) for _, (a, b, lay) in closing]
                tested = [(c, sup, t, len(table)) for c, (sup, t) in zip(
                    children, _close(table, g, lids, children, cfg.budget,
                                     sigma))]
            for c, e in todo[len(closing):]:
                t, rows = _child_table(p, c, e, g, cfg.budget)
                tested.append((c, _support(t, g.n_nodes), t, rows))
            for c, sup, t, rows in tested:
                stats.count_rows(rows, t)
                stats.candidates_tested += 1
                sup_of[c.code] = sup
                if sup >= sigma:
                    nxt.append(_carrying(c, sup, g, t))
            for c, _ in kids:
                sup = sup_of[c.code]
                stats.antimonotone_checks += 1
                stats.support_pairs.append((p.support, sup))
                if sup > p.support:
                    stats.antimonotone_violations += 1
                    raise MiningInvariantError(
                        f"support of {c.code!r} ({sup}) exceeds parent "
                        f"support ({p.support}): anti-monotonicity violated"
                    )
        nxt.sort(key=lambda p: p.code)
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
