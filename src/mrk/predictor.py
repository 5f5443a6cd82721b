"""Link scoring by rule application.

Every embedding of a rule's antecedent proposes the rule's delta edge at
concrete host nodes: a close rule a missing link, a new-node rule a slot
where a newcomer attaches.  Both scorers share one walk by antecedent
(:func:`_proposals`), which reads the tables mining carried when the rules
were mined on the scored graph itself and joins afresh otherwise.  Links
that already exist are skipped, by one edge test per call; the rest are
aggregated into a score table under one of several weighting schemes, by
default each rule once per target however many embeddings propose it.

Score tables are read for a key list on one route:
:meth:`ScoreTable.lookup` finds the keys in several tables and
:meth:`Lookup.fill` writes any row range of their score matrix;
:meth:`ScoreTable.scores_for` is its one-table case.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from .errors import MrkError
from .graph import (ATTR_DEFAULT, DIRECTIONS, LINK_MASK_CAP, KeySpace,
                    MultiplexGraph)
from .miner import DEFAULT_BUDGET
from .rules import Rule

WEIGHTING_SCHEMES = ("count", "conf", "lift", "conf-mean", "lift-mean")

# Keys per chunk of a ScoreTable.lookup, a Lookup.fill and the streamed
# column passes of baselines.ensemble.
CHUNK_ROWS = 1 << 13


def _by_key(keys, values) -> Tuple[np.ndarray, np.ndarray]:
    """Keys as int64 and values as float64, both in ascending key order."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
    return keys, values


@dataclass(frozen=True)
class Contributors:
    """Contributing rules per scored key, in CSR form.

    The rules of key ``i`` are ``rids[j]`` for ``j`` in
    ``index[ptr[i]:ptr[i + 1]]``, in rule order.
    """

    rids: Tuple[str, ...]
    ptr: np.ndarray
    index: np.ndarray

    def groups(self) -> List[List[int]]:
        """Rule indices per key."""
        flat, ptr = self.index.tolist(), self.ptr.tolist()
        return [flat[a:b] for a, b in zip(ptr, ptr[1:])]


@dataclass(eq=False)
class ScoreTable:
    """Scores of candidate links as sorted int64 keys of ``space``.

    ``keys`` holds (src, dst, layer) links as their keys in ``space`` and
    ``values`` their scores; ``pair_keys`` holds layer-less node pairs as
    ``space.pair`` keys with ``pair_values``.  Either part may be empty.  Keys
    and values may be given as any sequences; construction makes them
    int64 and float64 arrays in ascending key order.  A table scored from
    rules keeps its ``entries`` (see :func:`_aggregate`).  ``contributors``,
    ``scores`` and ``provenance`` are built on first read.
    """

    scheme: str
    space: KeySpace
    keys: np.ndarray = ()
    values: np.ndarray = ()
    pair_keys: np.ndarray = ()
    pair_values: np.ndarray = ()
    entries: Optional[tuple] = None

    def __post_init__(self):
        self.keys, self.values = _by_key(self.keys, self.values)
        self.pair_keys, self.pair_values = _by_key(self.pair_keys,
                                                   self.pair_values)

    @classmethod
    def from_scores(cls, scheme: str, scores: Mapping[Tuple, float]):
        """A table of name-keyed scores: name triples of the table's space,
        and for link tables (src, dst) pairs."""
        triples = [k for k in scores if len(k) == 3]
        pairs = [k for k in scores if len(k) == 2]
        space = cls._space_of(triples, pairs)
        at = {x: i for i, x in enumerate(space.axes[0])}
        return cls(
            scheme, space,
            space.encode(triples), [scores[k] for k in triples],
            [space.pair(at[u], at[v]) for u, v in pairs],
            [scores[k] for k in pairs],
        )

    @staticmethod
    def _space_of(triples, pairs) -> KeySpace:
        nodes = {x for k in triples for x in k[:2]}
        nodes.update(x for k in pairs for x in k)
        return KeySpace.links(tuple(sorted(nodes)),
                              tuple(sorted({k[2] for k in triples})))

    def __len__(self) -> int:
        return len(self.keys) + len(self.pair_keys)

    @cached_property
    def scores(self) -> Dict[Tuple, float]:
        """Scores by name: (src, dst, layer) triples and (src, dst) pairs."""
        out = dict(zip(self.space.decode(self.keys), self.values.tolist()))
        if self.pair_keys.size:
            nodes = np.array(self.space.axes[0], dtype=object)
            u, v = np.divmod(self.pair_keys, len(nodes))
            pairs = zip(nodes[u].tolist(), nodes[v].tolist())
            out.update(zip(pairs, self.pair_values.tolist()))
        return out

    @cached_property
    def contributors(self) -> Optional[Contributors]:
        """Each scored key's rules, or None if not scored from rules."""
        if self.entries is None:
            return None
        rules, at, lengths = self.entries
        n = len(rules)
        # A rule proposes a key at most once, so sorting ``at * n + rule``
        # groups the entries by key, in rule order within a key.
        order = np.sort(at * np.int64(n) + np.repeat(np.arange(n), lengths))
        order %= n
        ptr = np.zeros(len(self.keys) + 1, dtype=np.int64)
        np.cumsum(np.bincount(at, minlength=len(self.keys)), out=ptr[1:])
        return Contributors(tuple(r.rid for r in rules), ptr, order)

    @cached_property
    def provenance(self) -> Dict[Tuple, Tuple[str, ...]]:
        """Ids of each scored key's contributing rules, in rule order."""
        if self.contributors is None:
            return {}
        rids = self.contributors.rids
        return {
            k: tuple(rids[i] for i in g)
            for k, g in zip(self.space.decode(self.keys),
                            self.contributors.groups())
        }

    def scores_for(self, keys, space: KeySpace) -> np.ndarray:
        """Scores of ``space``'s ``keys`` as a float array aligned with them.

        Each key is looked up by its names.  A link the table lacks falls
        back to its layer-less pair in canonical (min, max) order, so
        single-layer tables answer multiplex queries.  Keys found neither
        way score 0.  This is :meth:`lookup` and :meth:`Lookup.fill` with
        one table.
        """
        out = np.empty((len(keys), 1))
        return ScoreTable.lookup([self], keys, space).fill(out)[:, 0]

    @staticmethod
    def lookup(tables: Sequence["ScoreTable"], keys,
               space: KeySpace) -> "Lookup":
        """Where each of ``space``'s ``keys`` sits in each table, as a
        :class:`Lookup` that fills any row range of their (keys, tables)
        score matrix, whose column ``j`` holds ``tables[j].scores_for(keys,
        space)``.

        Tables holding equal keys in equal spaces (the classical indices'
        pair keys) share one search, decided once per call.  The keys are
        read in chunks of :data:`CHUNK_ROWS`: each chunk is split into ids
        once, mapped into each distinct table space once and searched once
        per distinct search.  A search whose key space has at most twice
        as many keys as ``keys`` reads the positions from a dense int32
        index over that space, which is then never larger than one float64
        column of the score matrix; a larger space is searched with
        ``searchsorted``.  Tables with the same link and pair searches
        form one group, which stores one int32 position per key into its
        stacked values (see :class:`Lookup`), so a table holding both
        link and pair keys settles its link-first, pair-fallback rule
        here, once per key.
        """
        q = np.asarray(keys, dtype=np.int64)
        searches: List[tuple] = []  # distinct (space, pairs, held)

        def search(sp: KeySpace, pairs: bool, held: np.ndarray) -> int:
            for i, (s_sp, s_pairs, s_held) in enumerate(searches):
                if (s_sp == sp and s_pairs == pairs
                        and np.array_equal(s_held, held)):
                    return i
            searches.append((sp, pairs, held))
            return len(searches) - 1

        plan = [(search(t.space, False, t.keys) if t.keys.size else None,
                 search(t.space, True, t.pair_keys) if t.pair_keys.size
                 else None) for t in tables]
        maps = {sp: sp.id_maps(space)
                for sp in dict.fromkeys(sp for sp, _, _ in searches)}
        dense = []  # per search: its dense index, or None
        for sp, pairs, held in searches:
            size = sp.shape[0] * sp.shape[1] * (1 if pairs else sp.shape[2])
            index = None
            if size <= 2 * len(q):
                index = np.full(size, -1, dtype=np.int32)
                index[held] = np.arange(len(held), dtype=np.int32)
            dense.append(index)
        groups: Dict[tuple, List[int]] = {}  # columns by (links, pairs)
        for j, p in enumerate(plan):
            groups.setdefault(p, []).append(j)
        at = {p: np.empty(len(q), dtype=np.int32) for p in groups
              if p != (None, None)}
        for lo in range(0, len(q), CHUNK_ROWS):
            ids = space.ids(q[lo:lo + CHUNK_ROWS])
            mapped = {sp: tuple(i if m is None else m[i]
                                for m, i in zip(mp, ids))
                      for sp, mp in maps.items()}
            found = []  # per search: the chunk's positions, -1 if absent
            for (sp, pairs, held), index in zip(searches, dense):
                a, b, c = mapped[sp]
                ask = (a >= 0) & (b >= 0)
                if pairs:
                    qk = sp.pair(np.minimum(a, b), np.maximum(a, b))
                else:
                    qk, ask = sp.key(a, b, c), ask & (c >= 0)
                if index is not None:
                    pos = index.take(qk, mode="clip")
                    pos[~ask] = -1
                else:
                    pos = held.searchsorted(qk)
                    ask &= held.take(pos, mode="clip") == qk
                    pos = np.where(ask, pos, -1)
                found.append(pos)
            for (links, pair), pos in at.items():
                if pair is None:
                    row = found[links]
                else:  # pair rows follow the link rows and a 0.0 row
                    row = found[pair] + (1 if links is None
                                         else len(searches[links][2]) + 1)
                    if links is not None:
                        row = np.where(found[links] >= 0, found[links], row)
                pos[lo:lo + CHUNK_ROWS] = row
        del dense  # freed before the values are stacked
        fills = []
        for p, cols in groups.items():
            part = [tables[j] for j in cols]
            values = [np.column_stack([t.values for t in part]),
                      np.zeros((1, len(cols))),
                      np.column_stack([t.pair_values for t in part])]
            if cols == list(range(cols[0], cols[-1] + 1)):
                cols = slice(cols[0], cols[-1] + 1)  # a faster write
            fills.append((cols, at.get(p), np.concatenate(values)))
        return Lookup(tuple(fills))


@dataclass(frozen=True)
class Lookup:
    """The positions of a key list in several score tables, from which
    any row range of their (keys, tables) score matrix is filled.

    Each entry of ``fills`` serves the tables whose link and pair searches
    are the same: their columns, one int32 position per key, and their
    stacked values, which are the tables' link values, a row of 0.0, then
    their pair values.  A key found among the links holds its link row,
    else a key found among the pairs its pair row, and any other key the
    0.0 row (as -1 when the group holds no pairs, which reads the last
    row), so one row gather fills all of the group's columns.  Tables
    that hold no keys have no positions: their columns are 0.0.
    """

    fills: Tuple[tuple, ...]

    def fill(self, out: np.ndarray, lo: int = 0) -> np.ndarray:
        """Write rows ``lo:lo + len(out)`` of the score matrix into
        ``out``, :data:`CHUNK_ROWS` rows at a time, and return it."""
        for a in range(0, len(out), CHUNK_ROWS):
            block = out[a:a + CHUNK_ROWS]
            rows = slice(lo + a, lo + a + len(block))
            for cols, at, values in self.fills:
                block[:, cols] = 0.0 if at is None else values.take(
                    at[rows], axis=0, mode="wrap")  # -1: the last row
        return out


@dataclass(eq=False)
class OldNewScoreTable(ScoreTable):
    """Scores keyed by (node, layer, direction) for new-neighbor prediction.

    ``space`` is a slot space.  ``fresh`` holds, per contributing rule,
    the attribute its consequent gives the incoming node; ``new_attrs``
    keeps, per key, the non-default ones of its rules.  Scoring ignores
    them.
    """

    fresh: Tuple[str, ...] = ()

    @staticmethod
    def _space_of(triples, pairs) -> KeySpace:
        return KeySpace.slots(tuple(sorted({k[0] for k in triples})),
                              tuple(sorted({k[1] for k in triples})))

    @cached_property
    def new_attrs(self) -> Dict[Tuple[str, str, str], Tuple[str, ...]]:
        if self.contributors is None:
            return {}
        out = {}
        for k, g in zip(self.space.decode(self.keys), self.contributors.groups()):
            wanted = {self.fresh[i] for i in g} - {ATTR_DEFAULT}
            if wanted:
                out[k] = tuple(sorted(wanted))
        return out


def _check_scheme(scheme: str) -> None:
    if scheme not in WEIGHTING_SCHEMES:
        raise MrkError(
            f"unknown weighting scheme {scheme!r}; "
            f"expected one of {', '.join(WEIGHTING_SCHEMES)}"
        )


def _rank(flat: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys among ``flat`` (sorted) and each entry's index
    among them.

    A space of at most :data:`LINK_MASK_CAP` keys is ranked through
    a presence mask over the whole space, so nothing is sorted; a larger
    space falls back to ``np.unique``.
    """
    if size > LINK_MASK_CAP:
        return np.unique(flat, return_inverse=True)
    seen = np.zeros(size, dtype=bool)
    seen[flat] = True
    ukeys = np.flatnonzero(seen)
    del seen
    rank = np.empty(size, dtype=np.int32)
    rank[ukeys] = np.arange(len(ukeys), dtype=np.int32)
    return ukeys, rank[flat]


def _proposals(g: MultiplexGraph, rules: Sequence[Rule], reads: Sequence,
               per_embedding: bool, budget: int) -> Iterator[tuple]:
    """The antecedent walk of both scorers.

    ``reads[i]`` is None if ``rules[i]`` proposes nothing, else starts
    with the slots of its antecedent it reads.  Consecutive reading rules
    that share one antecedent object form a run, whose table is read once
    by ``table_in``.  Each distinct slot tuple of a run is reduced once to
    its distinct host nodes (one slot) or ``g.space.pair`` keys (two slots,
    as (min, max) when ``g`` is undirected) by an in-place sort and one
    ``not_equal`` mark of each key's first occurrence, whose gaps count its
    embeddings.  Yields ``(i, keys, times)`` per rule that proposes a key,
    in rule order: its keys and, with ``per_embedding``, their embedding
    counts (else None).
    """
    last = None  # the antecedent whose table ``emb`` holds
    for i, read in enumerate(reads):
        if read is None:
            continue
        cols = read[0]
        if rules[i].antecedent is not last:
            last = rules[i].antecedent
            emb, reduced = last.table_in(g, budget), {}
        if cols not in reduced:
            if len(cols) == 2:
                u, v = emb[:, cols[0]], emb[:, cols[1]]
                if not g.directed:
                    u, v = np.minimum(u, v), np.maximum(u, v)
                flat = g.space.pair(u, v)
            else:  # a view into the table, which the sort must not reorder
                flat = emb[:, cols[0]].copy()
            flat.sort()
            first = np.ones(len(flat), dtype=bool)
            np.not_equal(flat[1:], flat[:-1], out=first[1:])
            reduced[cols] = flat[first], (np.diff(
                np.flatnonzero(first), append=len(flat)) if per_embedding
                else None)
        if reduced[cols][0].size:
            yield (i, *reduced[cols])


def _aggregate(scheme: str, rules: Sequence[Rule], reads: Sequence,
               walk: Iterator[tuple], scale: int, size: int,
               existing: Optional[Callable] = None) -> tuple:
    """Combine the proposals of a :func:`_proposals` walk under one
    weighting scheme, in passes over the whole call.

    The walk's keys are concatenated in rule order, times ``scale`` plus
    each rule's offset, the second item of its read; ``existing`` (one
    call) flags the keys to drop, and a rule left without a key proposes
    nothing.  A rule adds its weight once per key, or once per proposing
    embedding when the walk counts them.  Entries stay in rule order, and
    ``np.bincount`` adds in array order, so every sum is the one taken rule
    by rule.  Lift schemes skip rules whose lift is NaN: they neither score
    nor contribute.  The keys are ranked on their space of ``size``
    through a presence mask where the edge mask covers it (no sort).

    Returns the indices of the rules that proposed a key, the scored keys
    (sorted), their scores, and the table's ``entries``: those rules, each
    entry's key rank and each rule's entry count, from which
    :attr:`ScoreTable.contributors` is built.
    """
    used, parts, hits = [], [np.empty(0, dtype=np.int64)], []
    for i, keys, times in walk:
        used.append(i)
        parts.append(keys)
        hits.append(times)
    lengths = np.array([len(k) for k in parts[1:]], dtype=np.int64)
    keys = np.concatenate(parts)
    times = (None if hits and hits[0] is None
             else np.concatenate(parts[:1] + hits))
    del parts, hits
    keys *= scale
    keys += np.repeat(np.array([reads[i][1] for i in used], dtype=np.int32),
                      lengths)
    if existing is not None:
        keep = ~existing(keys)
        keys, times = keys[keep], None if times is None else times[keep]
        lengths = np.add.reduceat(keep, np.cumsum(lengths) - lengths,
                                  dtype=np.int64)
        del keep
        used = [i for i, n in zip(used, lengths.tolist()) if n]
        lengths = lengths[lengths > 0]
    weight = np.array([rules[i].lift if scheme.startswith("lift")
                       else rules[i].confidence for i in used])
    skip = np.isnan(weight)
    if skip.any():
        use = np.repeat(~skip, lengths)
        keys, times = keys[use], None if times is None else times[use]
        lengths = np.where(skip, 0, lengths)
    ukeys, at = _rank(keys, size)
    del keys
    m = len(ukeys)
    if scheme == "count":
        score = np.bincount(at, times, minlength=m).astype(np.float64)
    else:
        w = np.repeat(weight, lengths)
        score = np.bincount(at, w if times is None else w * times, minlength=m)
        if scheme.endswith("-mean"):
            score = score / np.bincount(at, times, minlength=m)
    return used, ukeys, score, (tuple(rules[i] for i in used), at, lengths)


def score_links(
    g: MultiplexGraph,
    rules: Sequence[Rule],
    scheme: str = "conf",
    per_embedding: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> ScoreTable:
    """Score missing links proposed by rules whose consequent adds no slot.

    For each embedding of a rule's antecedent, the delta edge names two
    mapped slots; the proposal is that concrete (src, dst, layer) triple.
    Existing edges are skipped.  In undirected graphs proposals are
    canonicalized to one orientation.  With ``per_embedding`` every
    proposing embedding contributes instead of each rule once.

    A close rule whose delta layer ``g`` has reads those two slots through
    the walk :func:`_proposals`, as node pairs.  :func:`_aggregate` adds
    the rules' layers, drops the existing links of all rules with one
    ``is_edge`` call, and ranks and sums the rest.
    """
    _check_scheme(scheme)
    reads: List[Optional[tuple]] = []
    for rule in rules:
        (ds, dd, dl), amap = rule.delta_edge, rule.antecedent_map
        if rule.new_node or dl not in g.layer_names:
            reads.append(None)
            continue
        cols = (amap.index(ds), amap.index(dd))
        # Symmetric storage: (u, v) is an edge iff (v, u) is, so in an
        # undirected graph both orientations share one reduction.
        reads.append((cols if g.directed else tuple(sorted(cols)),
                      g.layer_id(dl)))
    _, ukeys, scores, entries = _aggregate(
        scheme, rules, reads, _proposals(g, rules, reads, per_embedding,
                                         budget),
        g.n_layers, math.prod(g.space.shape), g.arrays.is_edge)
    return ScoreTable(scheme, g.space, ukeys, scores, entries=entries)


def score_old_new(
    g: MultiplexGraph,
    rules: Sequence[Rule],
    scheme: str = "conf",
    per_embedding: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> OldNewScoreTable:
    """Score (node, layer, direction) slots for edges toward unseen nodes.

    Only rules whose consequent adds a fresh slot apply: the delta edge
    joins a mapped anchor slot to the fresh one, so each antecedent
    embedding proposes that the anchor's host node will gain an edge on the
    delta layer toward some new node.  Direction is the delta edge's
    orientation at the anchor ("out" when the anchor is the source);
    undirected graphs collapse both orientations to "out".  Slots are keys
    of a slot space over the graph's nodes and the layers of the graph and
    of the rules.  Such a rule reads its anchor through the walk of
    :func:`score_links`, as (node, 0, 0) keys plus its (layer, direction)
    offset; the same :func:`_aggregate` sums the keys.
    """
    _check_scheme(scheme)
    layers = sorted(set(g.layer_names)
                    | {r.delta_edge[2] for r in rules if r.new_node})
    layer_of = {x: i for i, x in enumerate(layers)}
    space = KeySpace.slots(g.node_names, tuple(layers))
    reads: List[Optional[tuple]] = []  # plus the new slot's attribute
    for rule in rules:
        (ds, dd, dl), amap = rule.delta_edge, rule.antecedent_map
        if not rule.new_node or not (ds in amap or dd in amap):
            reads.append(None)
            continue
        anchor, direction, new = ((ds, "out", dd) if ds in amap
                                  else (dd, "in", ds))
        d = DIRECTIONS.index(direction if g.directed else "out")
        reads.append(((amap.index(anchor),), space.key(0, layer_of[dl], d),
                      rule.consequent.attrs[new]))
    used, ukeys, scores, entries = _aggregate(
        scheme, rules, reads, _proposals(g, rules, reads, per_embedding,
                                         budget),
        space.key(1, 0, 0), math.prod(space.shape))
    return OldNewScoreTable(scheme, space, ukeys, scores, entries=entries,
                            fresh=tuple(reads[i][2] for i in used))


# -- serialization ----------------------------------------------------------


_SCORES_HEADER = ["src", "dst", "layer", "score"]


def write_scores_csv(table: ScoreTable, path: str) -> None:
    """Write link scores as ``src,dst,layer,score`` rows, sorted by key."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SCORES_HEADER)
        for key in sorted(table.scores):
            if len(key) == 3:
                src, dst, lay = key
            else:
                src, dst = key
                lay = ""
            w.writerow([src, dst, lay, repr(table.scores[key])])


def write_old_new_csv(table: OldNewScoreTable, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "layer", "direction", "score"])
        for key in sorted(table.scores):
            node, lay, direction = key
            w.writerow([node, lay, direction, repr(table.scores[key])])


def read_scores_csv(path: str) -> ScoreTable:
    """Read a link score file as :func:`write_scores_csv` writes it; any
    other header raises :class:`MrkError`."""
    scores: Dict[Tuple, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise MrkError(f"{path}: empty score file")
        if header != _SCORES_HEADER:
            raise MrkError(f"{path}: not a link score file: header {header!r}, "
                           f"expected {_SCORES_HEADER!r}")
        for row in r:
            if len(row) != 4:
                raise MrkError(f"{path}: bad score row {row!r}")
            src, dst, lay, score = row
            key = (src, dst, lay) if lay else (src, dst)
            scores[key] = float(score)
    return ScoreTable.from_scores("file", scores)
