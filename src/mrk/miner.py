"""Frequent pattern mining on multiplex graphs.

Patterns are small connected directed graphs whose nodes ("slots") carry an
attribute and whose edges carry a layer name.  Pattern frequency is measured
by minimum image support: over all embeddings of the pattern, count the
distinct host nodes each slot maps to and take the minimum over slots.  This
support never grows when a pattern is extended, which lets the miner prune
level by level.

An embedding is a row of its pattern's table, an int64 array whose row r
maps slot i to host node ``[r, i]``.  Tables come from one engine, a
numpy join over the host's per-layer CSR adjacency in the manner of
FSG's embedding lists (Kuramochi & Karypis 2001).  :func:`_extend` adds
a slot: it expands the host nodes of an already placed neighbour slot
through the CSR and filters the candidate rows by attribute and
injectivity.  :func:`_close` filters rows by one more edge between placed
slots, one :meth:`~mrk.graph.GraphArrays.is_edge` lookup per row.
:func:`_least_images` counts supports.

:func:`mine` reads the single-edge tables and supports straight off the
host's edge arrays, then grows the tables along the lattice: each child's
table is one step from the table of the parent that first grew it, and
the returned patterns carry their tables, which rule scoring reads.  A
lattice level is integer arrays from growth to support: :func:`_grow`
grows the whole frontier as rows of attribute ids and edge codes,
:class:`_Children` sorts them into isomorphism classes, and :func:`_test`
tests the level's candidates in a few vectorised passes and names the
over-budget children of the first parent that has any, which :func:`mine`
raises after the level's anti-monotone checks.  Only frequent children
become :class:`Pattern` objects.  :func:`embedding_table` joins a pattern
from scratch on the same two steps, one slot at a time, for patterns that
carry no table for the host at hand.  The budget caps the candidate rows
one pattern generates, which bounds its memory.

Candidates are deduplicated by canonical form, FSG's dedup step done in
bulk: :func:`_canonical_rows` ranks every slot permutation of a whole
batch of integer patterns in one numpy kernel, and the minimal row
identifies a pattern up to isomorphism.  :func:`canonical_forms` writes
code strings from it for :class:`Pattern` objects.  Codes number slots
with one digit, so patterns have at most :data:`MAX_SLOTS` slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Set, Tuple,
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


class _Alphabet:
    """Slot names and layers ranked as canonical codes compare them.

    Ids are positions in ``names`` and ``layers``.  A name ranks by its
    escaped form followed by "|", as it is followed inside a code.  A
    layer has two ranks: ``lcmp`` by its escaped form followed by ",",
    which orders the code's edge tokens, and ``lsort`` by the bare escaped
    form, which sorts the edges within one permutation.  The two can
    disagree: "x" < "x!" but "x!," < "x,".  :meth:`code` writes a minimal
    row of :func:`_minimal_rows` as its code string.
    """

    def __init__(self, names: Sequence[str], layers: Sequence[str]):
        nesc = [_escaped(a) + "|" for a in names]
        lesc = [_escaped(l) for l in layers]
        self.n_layers = len(layers)
        self.name_rank = _ranks(nesc)
        self.lsort = _ranks(lesc)
        self.lcmp = _ranks([x + "," for x in lesc])
        self.vtok = [x[:-1] for x in sorted(nesc)]
        self.ltok = sorted(lesc, key=lambda x: x + ",")
        self._etok: Dict[int, List[str]] = {}

    def code(self, k: int, row: Sequence[int]) -> str:
        """The code of a ``k``-slot pattern's minimal row."""
        etok = self._etok.get(k)
        if etok is None:
            # Edge value (src·k + dst)·n_layers + compare rank names its token.
            etok = self._etok[k] = [f"{a}>{b}:{l}" for a in range(k)
                                    for b in range(k) for l in self.ltok]
        vpart = "|".join(map(self.vtok.__getitem__, row[:k]))
        epart = ",".join(map(etok.__getitem__, row[k:]))
        return f"v={vpart};e={epart}"


def _ranks(keys: Sequence[str]) -> np.ndarray:
    """The rank of each key in ascending order."""
    out = np.empty(len(keys), dtype=np.int64)
    out[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return out


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

    The patterns become integer rows over the batch's names and layers,
    grouped by slot and edge count, and :func:`_canonical_rows` ranks
    every permutation of a group in one numpy kernel; the code is written
    from the minimal row.  Patterns that already carry their form are
    skipped.

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
    names = sorted(set(chain.from_iterable(p.attrs for p in todo)))
    layers = sorted(set(map(itemgetter(2),
                            chain.from_iterable(p.edges for p in todo))))
    alpha = _Alphabet(names, layers)
    nid = {a: i for i, a in enumerate(names)}
    lid = {l: i for i, l in enumerate(layers)}
    for (k, n_edges), grp in groups.items():
        n = len(grp)
        attrs = np.fromiter(map(nid.__getitem__, chain.from_iterable(
            p.attrs for p in grp)), dtype=np.int64, count=n * k)
        edges = np.fromiter(
            ((a * k + b) * len(layers) + lid[l] for p in grp
             for a, b, l in p.edges), dtype=np.int64, count=n * n_edges)
        rows, at, j = _canonical_rows(alpha, attrs.reshape(n, k),
                                      edges.reshape(n, n_edges))
        for p, row, won in zip(grp, rows.tolist(),
                               _slot_maps(k, at, j, np.arange(n))):
            p.__dict__["_canonical"] = (alpha.code(k, row), won)
    return [p.__dict__["_canonical"] for p in patterns]


def _canonical_rows(
    alpha: _Alphabet, attrs: np.ndarray, edges: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimal rows and minimising permutations (see
    :func:`_minimal_rows`) of ``k``-slot patterns given as integer rows:
    ``attrs`` is ``(n, k)`` name ids of ``alpha`` and ``edges`` is
    ``(n, e)`` edge values ``(src·k + dst)·alpha.n_layers + layer id``,
    in any order."""
    k = attrs.shape[1]
    ab, lay = np.divmod(edges, max(alpha.n_layers, 1))
    src, dst = np.divmod(ab, max(k, 1))
    return _minimal_rows(alpha.name_rank[attrs], src, dst, alpha.lsort[lay],
                         alpha.lcmp[lay], alpha.n_layers)


def _slot_maps(
    k: int, at: np.ndarray, j: np.ndarray, which: np.ndarray,
) -> List[Tuple[SlotMap, ...]]:
    """The minimising permutations :func:`_minimal_rows` lists as
    ``(at, j)`` for each pattern index in ``which``, as tuples."""
    lo = at.searchsorted(which)
    cnt = at.searchsorted(which, "right") - lo
    tied = _permutations(k)[j[_ranges(lo, cnt)]].tolist()
    return [tuple(map(tuple, tied[e - c:e]))
            for e, c in zip(cnt.cumsum().tolist(), cnt.tolist())]


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pattern its minimal row of :func:`_permutation_rows`, and every
    permutation attaining it.

    Returns ``(rows, at, j)``: the ``(patterns, k + e)`` minimal rows, and
    one pair ``(at[t], j[t])`` per minimising permutation, pattern
    ``at[t]`` and row ``j[t]`` of :func:`_permutations`, ascending by
    pattern and then permutation.  Patterns share a chunk when all their
    permutations fit in :data:`_CHUNK` entries; otherwise a chunk holds
    one pattern and a block of its permutations, and the block minima are
    merged.
    """
    n, k = slots.shape
    perms = _permutations(k)
    width = max(k + src.shape[1], 1)
    step = max(1, _CHUNK // (len(perms) * width))
    block = min(len(perms), max(1, _CHUNK // width))
    out = np.empty((n, k + src.shape[1]), dtype=np.int64)
    ats: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    js: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        best: Optional[List[int]] = None
        for b0 in range(0, len(perms), block):
            rows = _permutation_rows(slots[lo:hi], src[lo:hi], dst[lo:hi],
                                     lsort[lo:hi], lcmp[lo:hi], n_layers,
                                     perms[b0:b0 + block])
            win = np.ones(rows.shape[:2], dtype=bool)
            for col in rows.transpose(2, 0, 1):
                low = np.where(win, col, _INT64_MAX).min(axis=1, keepdims=True)
                win &= col == low
            at, j = np.nonzero(win)
            mins = rows[np.arange(hi - lo), win.argmax(axis=1)]
            if block == len(perms):
                out[lo:hi] = mins
                ats.append(at + lo)
                js.append(j)
                continue
            # One pattern, its permutations in blocks.
            row = mins[0].tolist()
            if best is None or row < best:
                best, tied = row, []
            if row == best:
                tied.append(j + b0)
        if best is not None:
            out[lo] = best
            js.append(np.concatenate(tied))
            ats.append(np.full(len(js[-1]), lo))
    return out, np.concatenate(ats), np.concatenate(js)


def single_edge_pattern(src_attr: str, dst_attr: str, layer: str) -> Pattern:
    return Pattern((src_attr, dst_attr), frozenset({(0, 1, layer)}))


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


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[i] .. start[i] + count[i] - 1``, concatenated."""
    end = count.cumsum()
    return (np.arange(end[-1] if len(end) else 0)
            + (start - end + count).repeat(count))


def _passes(size: np.ndarray, cap: int) -> Iterator[Tuple[int, int]]:
    """Consecutive runs ``[lo, hi)`` of items whose sizes add up to at most
    ``cap``; an item larger than ``cap`` is a run of its own."""
    ends = size.cumsum()
    lo = 0
    while lo < len(size):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(base + cap, "right")))
        yield lo, hi
        lo = hi


# Candidate rows one pass of :func:`_test` handles, and cells of one
# support count in :func:`_least_images`: both bound memory whatever the
# size of a lattice level.
_PASS_ROWS = 1 << 15
_SEEN_CELLS = 1 << 20


class _Tested(NamedTuple):
    """Per tested child: its support, the candidate rows its join step
    generated, the rows of its table, and the table itself when the
    child is frequent (else None).  ``over`` holds, ascending, the
    children over the budget of the first parent that has any, among
    which a budget error names one; it is empty when every child fits
    the budget (see :func:`_test`)."""

    sup: np.ndarray
    rows: np.ndarray
    kept: np.ndarray
    tables: List[Optional[np.ndarray]]
    over: np.ndarray


def _close(
    frame: np.ndarray, g: MultiplexGraph, k: int, of: np.ndarray,
    edges: np.ndarray, start: np.ndarray, count: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of closing children that have their edge.

    Child i closes the edge ``edges[i] = (a, b, layer id)`` over the rows
    ``start[i] ..`` (``count[i]`` of them) of ``frame``, the ``k``-column
    tables of the parents ``of`` end to end (``of`` ascending).  Returns,
    for every row a child keeps, the child and the frame row, by child and
    then row.  Per parent, one key column serves each run of children
    closing the same slot pair, and one :meth:`GraphArrays.is_edge` mask
    covers all its children.
    """
    a, b, l = edges.T
    new_pair = np.diff((of * k + a) * k + b, prepend=-1) != 0
    pid = new_pair.cumsum() - 1
    ua, ub = a[new_pair], b[new_pair]
    kids = np.flatnonzero(np.diff(of, prepend=-1))
    cb = kids.tolist() + [len(of)]
    pb = pid[kids].tolist() + [len(ua)]
    rb, mb = start[kids].tolist(), count[kids].tolist()
    who, r = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for c0, c1, p0, p1, r0, m in zip(cb, cb[1:], pb, pb[1:], rb, mb):
        t = frame[r0:r0 + m]
        base = g.space.key(t[:, ua[p0:p1]].T, t[:, ub[p0:p1]].T, 0)
        i, j = np.nonzero(g.arrays.is_edge(base[pid[c0:c1] - p0]
                                           + l[c0:c1, None]))
        who.append(i + c0)
        r.append(j + r0)
    return np.concatenate(who), np.concatenate(r)


def _fan_out(
    g: MultiplexGraph, nodes: np.ndarray, l, inn,
) -> Tuple[np.ndarray, np.ndarray]:
    """Where in the CSR the neighbours of host ``nodes`` on layers ``l``
    start, and how many there are: the in-neighbours where ``inn`` (the
    new slot is the edge's source), else the out-neighbours.  ``l`` and
    ``inn`` are per node, or one for all."""
    ix = g.arrays
    at = l * ix.n + nodes
    head = np.where(inn, ix.in_ptr[at], ix.out_ptr[at])
    return head, np.where(inn, ix.in_ptr[at + 1], ix.out_ptr[at + 1]) - head


def _extend(
    frame: np.ndarray, g: MultiplexGraph, k: int, edges: np.ndarray,
    want: np.ndarray, start: np.ndarray, count: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of new-slot children, as in :func:`_close`.

    Child i adds a last slot with attribute id ``want[i]``, joined to its
    parent's rows ``start[i] ..`` (``count[i]`` of them) of ``frame`` by
    the edge ``edges[i] = (a, b, layer id)``, one of whose ends is slot
    ``k``.  Each row fans out to the neighbours of its anchor node through
    the edge's CSR (:func:`_fan_out`), and the candidates are filtered by
    attribute and injectivity.  Returns, for every candidate kept, the
    child, the frame row and the new node, by child, row and node.
    """
    ix = g.arrays
    r = _ranges(start, count)
    who = np.arange(len(start)).repeat(count)
    a, b, l = edges.T
    inn = (a == k)[who]
    head, cnt = _fan_out(g, frame.ravel()[r * k + np.where(a == k, b, a)[who]],
                         l[who], inn)
    pos = _ranges(head, cnt)
    inn, who, r = inn.repeat(cnt), who.repeat(cnt), r.repeat(cnt)
    new = np.where(inn, ix.in_nbr[pos], ix.out_nbr[pos])
    # Hosts have no self loops, so the anchor column never equals the new
    # node and every column can be tested.
    hit = np.logical_and.reduce([frame[:, j][r] != new for j in range(k)])
    if len(ix.attr_ids) > 1:  # else every node matches
        hit &= ix.attr[new] == want[who]
    return who[hit], r[hit], new[hit]


def _test(
    parents: Sequence[Pattern],
    g: MultiplexGraph,
    of: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
    attrs: Sequence[int],
    budget: int,
    sigma: int,
) -> _Tested:
    """Support and table of many children of mined parents in a few
    vectorised passes, a lattice level at a time.

    Child i grows from ``parents[of[i]]`` by the edge ``edges[i] = (a, b,
    layer id)``.  With ``attrs[i] = -1`` the edge closes two of the
    parent's slots, and the child checks every row of the table the parent
    carries.  Otherwise it attaches a new last slot with attribute id
    ``attrs[i]`` (:func:`_extend`).  Each table lists the parent's rows in
    order, new nodes ascending within each, so a sorted parent table gives
    a sorted child table.

    ``of`` is ascending.  The rows every child generates are known before
    anything is allocated.  The children of the parents before the first
    parent with a child over ``budget`` are tested and returned, and
    ``over`` lists that parent's children over the budget, among which
    the budget error names one.  Children are tested in passes
    of at most :data:`_PASS_ROWS` candidate rows (or one child), each
    over a copy of its parents' tables end to end, and a child below
    ``sigma`` never keeps its table.
    """
    ix = g.arrays
    of = np.asarray(of, dtype=np.int64)
    e = np.array(edges, dtype=np.int64).reshape(-1, 3)
    want = np.asarray(attrs, dtype=np.int64)
    tables = [p.mined_on[1] for p in parents]
    m = np.array([len(t) for t in tables], dtype=np.int64)
    k_of = np.array([p.n_slots for p in parents], dtype=np.int64)[of]
    grows = want >= 0
    # The rows each child generates: its parent's, or its edge's fan-out.
    rows = m[of]
    for i in np.flatnonzero(grows).tolist():
        a, b, l = e[i].tolist()
        inn = a == k_of[i]
        rows[i] = int(_fan_out(g, tables[of[i]][:, b if inn else a], l,
                               inn)[1].sum())
    over = np.flatnonzero(rows > budget)
    cut = len(of)
    if len(over):
        cut = int(of.searchsorted(of[over[0]]))
        over = over[of[over] == of[over[0]]]
    of, k_of, grows = of[:cut], k_of[:cut], grows[:cut]

    sup = np.zeros(cut, dtype=np.int64)
    kept = np.zeros(cut, dtype=np.int64)
    out: List[Optional[np.ndarray]] = [None] * cut
    for k in np.unique(k_of).tolist():
        for growing in (False, True):
            sel = np.flatnonzero((k_of == k) & (grows == growing))
            for lo, hi in _passes(rows[sel], _PASS_ROWS):
                s = sel[lo:hi]
                # The pass's parent tables end to end, and each child's
                # first row and row count in that frame.
                ps, at = np.unique(of[s], return_inverse=True)
                frame = np.concatenate([tables[p] for p in ps.tolist()])
                start = (m[ps].cumsum() - m[ps])[at.reshape(-1)]
                count = m[of[s]]
                if growing:
                    who, r, new = _extend(frame, g, k, e[s], want[s], start,
                                          count)
                else:
                    who, r = _close(frame, g, k, of[s], e[s], start, count)
                cols = [frame[:, j][r] for j in range(k)]
                if growing:
                    cols.append(new)
                sup[s] = _least_images(who, cols, len(s), ix.n)
                kept[s] = np.bincount(who, minlength=len(s))
                frequent = sup[s] >= sigma
                held = frequent[who]
                parts = np.split(np.stack([c[held] for c in cols], axis=1),
                                 kept[s][frequent].cumsum()[:-1])
                for i, t in zip(s[frequent].tolist(), parts):
                    out[i] = t
    return _Tested(sup, rows[:cut], kept, out, over)


def _join(
    p: Pattern, g: MultiplexGraph, budget: int
) -> Tuple[np.ndarray, int]:
    """Fresh join of ``p``'s table, one slot at a time in the order of
    :func:`_join_plan`; returns the sorted table and the rows it used.

    A slot grows through a one-child :func:`_extend` anchored on its
    first back edge to placed slots, and each further back edge filters
    the rows through a one-child :func:`_close`.  A slot without one (the
    first, or an isolated one) extends every row by every node of its
    attribute, injectively.  A new slot's candidate rows count against
    ``budget`` before they are allocated; past it
    :class:`MiningBudgetError` names ``p.code``.
    """
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
    zero = np.zeros(1, dtype=np.int64)
    for c, slot in enumerate(order):
        m = len(table)
        if not m:
            return np.empty((0, k), dtype=np.int64), used
        if back[c]:
            a, b, l = back[c][0]
            used += int(_fan_out(g, table[:, b if a == c else a], l,
                                 a == c)[1].sum())
        else:
            nodes = np.flatnonzero(ix.attr == want[slot])
            used += m * len(nodes)
        if used > budget:
            raise MiningBudgetError(p.code, budget)
        if back[c]:
            _, r, new = _extend(table, g, c, np.array(back[c][:1]),
                                np.array([want[slot]]), zero, np.array([m]))
        else:
            r, new = np.arange(m).repeat(len(nodes)), np.tile(nodes, m)
            keep = (table[r] != new[:, None]).all(axis=1)
            r, new = r[keep], new[keep]
        table = np.concatenate((table[r], new[:, None]), axis=1)
        for e in back[c][1:]:
            _, r = _close(table, g, c + 1, zero, np.array([e]), zero,
                          np.array([len(table)]))
            table = table[r]
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
    table is joined from scratch by :func:`_join`, on the engine mining
    grows its tables with.  Every new slot's candidate rows count against
    ``budget`` before they are allocated, so the budget bounds memory.

    Rows are sorted.  A pattern attribute or layer the host lacks gives an
    empty table.
    """
    return _join(p, g, budget)[0]


def _support(table: np.ndarray, n: int) -> int:
    return int(_least_images(np.zeros(len(table), dtype=np.int64),
                             list(table.T), 1, n)[0])


def _least_images(ids: np.ndarray, cols: Sequence[np.ndarray], count: int,
                  n: int) -> np.ndarray:
    """Per table ``i < count``, made of the rows with ``ids == i`` of the
    node columns ``cols`` (ids ascending, node ids below ``n``): the least
    number of distinct nodes in a column, its support (0 for a table
    without rows or columns).  Tables are counted in chunks of at most
    :data:`_SEEN_CELLS` (table, column, node) cells."""
    w = len(cols)
    out = np.zeros(count, dtype=np.int64)
    step = max(1, _SEEN_CELLS // max(w * n, 1))
    for lo in range(0, count if w else 0, step):
        hi = min(lo + step, count)
        a, b = ids.searchsorted([lo, hi]).tolist()
        seen = np.zeros((hi - lo, w, n), dtype=bool)
        cell = (ids[a:b] - lo) * (w * n)
        for col in cols:
            seen.reshape(-1)[cell + col[a:b]] = True
            cell += n
        out[lo:hi] = np.count_nonzero(seen, axis=2).min(axis=1)
    return out


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
    has no parent, counts the rows of both steps of a fresh join.
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
    the order :func:`_grow` grew its children.  ``candidates_tested``
    counts the distinct children (one per isomorphism class and level)
    and the single-edge types.  ``rows_generated`` sums the candidate
    rows of every join step mining ran or, for a frequent single-edge
    pattern, its fresh join would run; ``max_rows`` is the most rows any
    one pattern used, the figure the budget caps.  ``rows_kept`` sums the
    rows that survive the join step of every frequent single-edge and
    every new-slot candidate, and of a closing candidate when frequent.
    """

    frequent_per_level: List[int] = field(default_factory=list)
    candidates_tested: int = 0
    antimonotone_checks: int = 0
    antimonotone_violations: int = 0
    support_pairs: List[Tuple[int, int]] = field(default_factory=list)
    rows_generated: int = 0
    max_rows: int = 0
    rows_kept: int = 0


@dataclass
class _Rows:
    """Patterns as integer rows over a host's attribute and layer ids.

    ``attrs`` is ``(n, K)``: pattern i's attribute ids in its first
    ``k[i]`` columns, then the pad id, one past the host's last attribute
    id.  ``src``, ``dst`` and ``lay`` are ``(n, e)``: the edges
    ``(a, b, layer id)`` of each pattern.
    """

    attrs: np.ndarray
    k: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    lay: np.ndarray


def _grow(
    front: _Rows, ok: np.ndarray, max_slots: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every one-edge extension of every frontier pattern whose new edge is
    a frequent edge type, in one pass over the frontier.

    ``ok[x, y, l]`` is true when the edge type from attribute id x to y on
    layer l is frequent; the pad id has none.  A child either closes an
    edge between two of its parent's slots or attaches a brand-new slot,
    numbered ``k``, its parent's slot count; it keeps the parent's slot
    numbers.  Returns per growth the parent's index, the new edge
    ``(a, b, layer id)`` and the new slot's attribute id (-1 for a closing
    edge).  Growths come parent by parent: a parent's closing edges by
    ``(a, b, layer)``, then per slot i the new slots attached by its
    attribute's outgoing edge types (edge ``i -> k``) and then by its
    incoming ones (``k -> i``), each by (attribute, layer).
    """
    n, K = front.attrs.shape
    at = front.attrs
    close = ok[at[:, :, None], at[:, None, :]]  # (parents, K, K, layers)
    close[:, np.arange(K), np.arange(K)] = False
    close[np.arange(n)[:, None], front.src, front.dst, front.lay] = False
    cp, ca, cb, cl = np.nonzero(close)
    # (parents, K, direction, attribute, layers): out-types, then in-types.
    new = np.stack((ok[at], ok[:, at].transpose(1, 2, 0, 3)), axis=2)
    new[front.k >= max_slots] = False
    npar, ni, nd, nattr, nl = np.nonzero(new)
    nk = front.k[npar]
    order = np.argsort(np.concatenate((2 * cp, 2 * npar + 1)), kind="stable")
    return tuple(np.concatenate(pair)[order] for pair in (
        (cp, npar), (ca, np.where(nd == 0, ni, nk)),
        (cb, np.where(nd == 0, nk, ni)), (cl, nl),
        (np.full(len(cp), -1), nattr)))


def _distinct_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array in lexicographic order, and the
    index of each row among them."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    inv = np.empty(len(rows), dtype=np.int64)
    inv[order] = new.cumsum() - 1
    return srt[new], inv


class _Children:
    """The children one lattice level grows, as integer rows, and their
    isomorphism classes.

    Growth t (see :func:`_grow`) has parent ``par[t]``, new edge
    ``edge[t]`` and new slot attribute ``attr[t]`` (-1 if none); the
    child has ``k[t]`` slots with attribute ids ``attrs[t]`` (padded as in
    :class:`_Rows`) and edges ``codes[t]``, the sorted values
    ``(a·k + b)·layers + layer id``.  The growths of each slot count are
    deduplicated as labelled rows, each distinct one is ranked by
    :func:`_canonical_rows` over the host's alphabet, and children with
    equal minimal rows, which are exactly the isomorphic ones, share a
    class ``cls[t]``.  No code string is written until :meth:`code` asks.
    """

    def __init__(self, front: _Rows, ok: np.ndarray, max_slots: int,
                 alpha: _Alphabet):
        self.alpha = alpha
        par, a, b, lay, attr = _grow(front, ok, max_slots)
        self.par, self.attr = par, attr
        self.edge = np.stack((a, b, lay), axis=1)
        k = self.k = front.k[par] + (attr >= 0)
        cols = [np.concatenate((x[par], y[:, None]), axis=1)
                for x, y in ((front.src, a), (front.dst, b), (front.lay, lay))]
        self.codes = np.sort((cols[0] * k[:, None] + cols[1])
                             * alpha.n_layers + cols[2], axis=1)
        self.attrs = np.concatenate(
            (front.attrs[par], np.full((len(par), 1), ok.shape[0] - 1)), axis=1)
        grown = np.flatnonzero(attr >= 0)
        self.attrs[grown, front.k[par[grown]]] = attr[grown]
        self.cls = np.empty(len(par), dtype=np.int64)
        self.row = np.empty(len(par), dtype=np.int64)
        # Slot count -> the minimal rows of its distinct labelled rows and
        # their minimising permutations (see _minimal_rows).
        self.groups: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        n_classes = 0
        for kk in np.unique(k).tolist():
            sel = np.flatnonzero(k == kk)
            labelled, inv = _distinct_rows(
                np.concatenate((self.attrs[sel, :kk], self.codes[sel]), axis=1))
            rows, at, j = _canonical_rows(alpha, labelled[:, :kk],
                                          labelled[:, kk:])
            distinct, cls = _distinct_rows(rows)
            self.row[sel] = inv
            self.cls[sel] = cls[inv] + n_classes
            n_classes += len(distinct)
            self.groups[kk] = (rows, at, j)
        self.n_classes = n_classes

    def code(self, t: int) -> str:
        """The canonical code of child ``t``."""
        k = int(self.k[t])
        return self.alpha.code(k, self.groups[k][0][self.row[t]].tolist())

    def testers(self) -> np.ndarray:
        """The growth that first grows each class, ascending."""
        return np.sort(np.unique(self.cls, return_index=True)[1])

    def rows(self, ts: np.ndarray) -> _Rows:
        """Children ``ts`` as a frontier of integer rows."""
        k = self.k[ts]
        ab, lay = np.divmod(self.codes[ts], self.alpha.n_layers)
        src, dst = np.divmod(ab, k[:, None])
        return _Rows(self.attrs[ts, :k.max(initial=0)], k, src, dst, lay)

    def patterns(self, ts: np.ndarray, codes: Sequence[str],
                 sups: Sequence[int], tables: Sequence[np.ndarray],
                 g: MultiplexGraph, names: Sequence[str]) -> List[Pattern]:
        """Children ``ts`` as patterns with their codes, the minimising
        permutations of their own labelling, and their supports and
        read-only tables on ``g``."""
        front = self.rows(ts)
        perms: List[Tuple[SlotMap, ...]] = [()] * len(ts)
        for kk, (_, at, j) in self.groups.items():
            sel = np.flatnonzero(front.k == kk)
            for i, won in zip(sel.tolist(),
                              _slot_maps(kk, at, j, self.row[ts[sel]])):
                perms[i] = won
        ln = g.layer_names
        out = []
        for i, (code, sup, table) in enumerate(zip(codes, sups, tables)):
            table.flags.writeable = False
            q = Pattern(
                tuple(map(names.__getitem__,
                          front.attrs[i, :front.k[i]].tolist())),
                frozenset(zip(front.src[i].tolist(), front.dst[i].tolist(),
                              map(ln.__getitem__, front.lay[i].tolist()))),
                sup, (g, table))
            q.__dict__["_canonical"] = (code, perms[i])
            out.append(q)
        return out


def mine(
    g: MultiplexGraph,
    cfg: MinerConfig,
    stats: Optional[MiningStats] = None,
) -> List[Pattern]:
    """Enumerate all frequent patterns up to ``cfg.max_nodes`` slots.

    Level k holds the frequent patterns with k edges.  Level 1 is read
    off the host's edge arrays with no join.  A later level grows every
    child of the frontier in one :func:`_grow` pass, as integer rows, and
    sorts them into isomorphism classes by their minimal rows of the
    canonical kernel (:class:`_Children`), with no code string written.
    The frontier is walked in code order, and each class is tested at its
    first growth: by the first parent that grows it, from that parent's
    table and in its slot numbering.  :func:`_test` tests all of them in
    a few passes, up to the first parent with a child over the budget.
    Then every growth of every parent is checked against the parent's
    support: a child above it would contradict the anti-monotone support
    measure and raises :class:`MiningInvariantError`, naming the first
    such growth in the walk.  A budget error names, at the first parent
    with a child over the budget, the smallest code among its children
    over it (``_test``'s verdict); it is raised after the checks of the
    parents before it.  Only a new-slot child can be over: a closing
    child's rows are its parent's table rows, and the parent's own step
    generated at least that many.  Only frequent children become
    :class:`Pattern` objects, with codes; sorted by code, they are the
    next frontier.  The counters always go to a :class:`MiningStats`:
    ``stats``, or a private one when it is None.

    Returns the frequent patterns sorted by code, each carrying its
    support, its canonical form and its table on ``g`` (see
    :meth:`Pattern.table_in`).  Mining holds the tables of one level's
    frontier while it grows the next; the returned patterns keep theirs
    for rule scoring.
    """
    sigma = cfg.min_support
    stats = MiningStats() if stats is None else stats
    ix = g.arrays
    names = sorted(ix.attr_ids, key=ix.attr_ids.get)
    na, nl = len(names), g.n_layers
    # Level 1: the stored edges in out-CSR order, by (layer, src, dst),
    # stably sorted by type (src attribute, dst attribute, layer): each
    # type's run is the sorted table of its single-edge pattern.
    lay, src = np.divmod(np.arange(nl * ix.n).repeat(np.diff(ix.out_ptr)),
                         ix.n)
    kind = (ix.attr[src] * na + ix.attr[ix.out_nbr]) * nl + lay
    by = np.argsort(kind, kind="stable")
    types, size = np.unique(kind[by], return_counts=True)
    sup = _least_images(np.arange(len(types)).repeat(size),
                        [src[by], ix.out_nbr[by]], len(types), ix.n)
    ab, tl = np.divmod(types, nl)
    ts, td = np.divmod(ab, na)
    # The rows _join generates: an unanchored slot (the source attribute's
    # nodes), then a slot anchored on it (their out-edges on the layer).
    rows = (np.bincount(ix.attr, minlength=na)[ts]
            + np.bincount(ix.attr[src] * nl + lay,
                          minlength=na * nl)[ts * nl + tl])
    freq = np.flatnonzero(sup >= sigma)
    # Only the frequent types' edges stay alive, in their tables.
    by = by[(sup >= sigma).repeat(size)]
    uv = np.stack((src[by], ix.out_nbr[by]), axis=1)
    uv.flags.writeable = False
    del lay, src, kind, by
    end = size[freq].cumsum().tolist()
    frontier = [Pattern((names[ts[t]], names[td[t]]),
                        frozenset({(0, 1, g.layer_names[tl[t]])}),
                        int(sup[t]), (g, uv[e - int(size[t]):e]))
                for t, e in zip(freq.tolist(), end)]
    canonical_forms(frontier)
    # Distinct (attr, attr, layer) triples are never isomorphic, so the
    # codes are distinct; their order decides which parent first grows
    # each child of the next level.
    order = sorted(range(len(freq)), key=lambda i: frontier[i].code)
    frontier = [frontier[i] for i in order]
    freq = freq[order]
    for p, t in zip(frontier, freq.tolist()):
        if rows[t] > cfg.budget:
            raise MiningBudgetError(p.code, cfg.budget)
        stats.rows_generated += int(rows[t])
        stats.max_rows = max(stats.max_rows, int(rows[t]))
        stats.rows_kept += int(size[t])
    result: List[Pattern] = list(frontier)
    stats.frequent_per_level.append(len(frontier))
    stats.candidates_tested += len(types)

    alpha = _Alphabet(names, g.layer_names)
    ok = np.zeros((na + 1, na + 1, nl), dtype=bool)
    ok[ts[freq], td[freq], tl[freq]] = True
    n = len(freq)
    front = _Rows(np.stack((ts[freq], td[freq]), axis=1), np.full(n, 2),
                  np.zeros((n, 1), dtype=np.int64),
                  np.ones((n, 1), dtype=np.int64), tl[freq, None])

    while frontier:
        kids = _Children(front, ok, cfg.max_nodes, alpha)
        ts = kids.testers()
        of = kids.par[ts]
        tested = _test(frontier, g, of, kids.edge[ts], kids.attr[ts],
                       cfg.budget, sigma)
        done = len(tested.sup)
        sup_of = np.zeros(kids.n_classes, dtype=np.int64)
        sup_of[kids.cls[ts[:done]]] = tested.sup
        # Every growth of a parent before the first untested child's has
        # a tested class; check those against their parents' supports.
        psup = np.array([p.support for p in frontier], dtype=np.int64)
        checks = int(kids.par.searchsorted(of[done] if done < len(ts)
                                           else len(frontier)))
        got = sup_of[kids.cls[:checks]]
        bad = np.flatnonzero(got > psup[kids.par[:checks]])
        if len(bad):
            checks = int(bad[0]) + 1
            done = int(of.searchsorted(kids.par[bad[0]], "right"))
        closing = kids.attr[ts[:done]] < 0
        stats.rows_generated += int(tested.rows[:done].sum())
        stats.max_rows = max(stats.max_rows,
                             int(tested.rows[:done].max(initial=0)))
        stats.rows_kept += int(tested.kept[:done][
            ~closing | (tested.sup[:done] >= sigma)].sum())
        stats.candidates_tested += done
        stats.antimonotone_checks += checks
        stats.support_pairs += zip(psup[kids.par[:checks]].tolist(),
                                   got[:checks].tolist())
        if len(bad):
            stats.antimonotone_violations += 1
            raise MiningInvariantError(
                f"support of {kids.code(bad[0])!r} ({got[bad[0]]}) exceeds "
                f"parent support ({psup[kids.par[bad[0]]]}): "
                f"anti-monotonicity violated"
            )
        if len(tested.over):  # the next parent is over the budget
            raise MiningBudgetError(
                min(map(kids.code, ts[tested.over].tolist())), cfg.budget)
        freq = np.flatnonzero(tested.sup >= sigma)
        codes = [kids.code(t) for t in ts[freq].tolist()]
        order = sorted(range(len(freq)), key=codes.__getitem__)
        freq = freq[order]
        frontier = kids.patterns(ts[freq], [codes[o] for o in order],
                                 tested.sup[freq].tolist(),
                                 [tested.tables[i] for i in freq.tolist()],
                                 g, names)
        front = kids.rows(ts[freq])
        stats.frequent_per_level.append(len(frontier))
        result.extend(frontier)

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
