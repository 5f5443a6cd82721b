"""Shared fixtures and independent brute-force oracles.

The oracles intentionally avoid the library's search machinery: embeddings
come from scanning every injective node tuple, supports from materialized
image sets, AUC from explicit pairwise comparisons.  Library results are
checked against these, never the other way round.
"""

import itertools
import math
import sys
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from mrk.graph import ATTR_DEFAULT, MultiplexGraph
from mrk.miner import Pattern, canonical_forms, embedding_table


# -- random hosts -----------------------------------------------------------


def pad_names(n: int, prefix: str = "") -> List[str]:
    width = len(str(n))
    return [f"{prefix}{str(i + 1).zfill(width)}" for i in range(n)]


def rand_host(
    rng: np.random.Generator,
    n: int,
    n_layers: int,
    n_units: int,
    directed: bool,
    attr_values: Sequence[str] = (),
) -> MultiplexGraph:
    """Random multiplex graph with ``n_units`` distinct edge units."""
    names = pad_names(n)
    layers = [f"L{i}" for i in range(n_layers)]
    units: Set[Tuple[str, str, str]] = set()
    cap = n * (n - 1) * n_layers
    if not directed:
        cap //= 2
    n_units = min(n_units, cap)
    while len(units) < n_units:
        u, v = rng.integers(n), rng.integers(n)
        if u == v:
            continue
        if not directed and u > v:
            u, v = v, u
        units.add((names[u], names[v], layers[int(rng.integers(n_layers))]))
    attrs = {}
    if attr_values:
        for name in names:
            attrs[name] = str(rng.choice(list(attr_values)))
    return MultiplexGraph(
        sorted(units), attrs=attrs, directed=directed, extra_nodes=names
    )


def adversarial_host(rng, directed: bool, n_attrs: int) -> MultiplexGraph:
    """A random host whose node, layer and attribute names hold code
    separators and ``::``, with isolated nodes and a layer named only by
    self loops (which the host drops, so it has no edge on it)."""
    names = [f"{c}{i}::{c}" for i, c in enumerate("%|,>:;=%|,>:;=%|")]
    layers = ["L|0", "L::1", "L%2;"]
    values = ["v:a", "v=b", "v%c|"][:n_attrs]
    triples = set()
    while len(triples) < 34:
        u, v = rng.choice(len(names), 2, replace=False)
        triples.add((names[u], names[v], layers[int(rng.integers(3))]))
    triples = sorted(triples) + [(names[0], names[0], "only>loops")]
    attrs = {x: values[int(rng.integers(n_attrs))] for x in names}
    return MultiplexGraph(triples, attrs=attrs, directed=directed,
                          extra_nodes=["iso,1", "iso::2"])


# -- graph construction oracle ---------------------------------------------


def oracle_graph(
    triples: Iterable[Tuple[str, str, str]],
    attrs: Dict[str, str],
    directed: bool,
    extra_nodes: Iterable[str] = (),
) -> dict:
    """What a graph built from ``triples`` shows, by a per-edge scan over
    Python sets: self loops dropped (their layer kept only if a real edge
    names it), undirected pairs ordered by name, duplicates counted, and
    each undirected unit stored both ways."""
    seen: Set[Tuple[str, str, str]] = set()
    names: Set[str] = set(extra_nodes)
    layers: Set[str] = set()
    loops = dups = 0
    for src, dst, lay in triples:
        names.update((src, dst))
        if src == dst:
            loops += 1
            continue
        if not directed and src > dst:
            src, dst = dst, src
        if (src, dst, lay) in seen:
            dups += 1
            continue
        seen.add((src, dst, lay))
        layers.add(lay)
    nodes, lays = tuple(sorted(names)), tuple(sorted(layers))
    nid = {x: i for i, x in enumerate(nodes)}
    lid = {x: i for i, x in enumerate(lays)}
    stored = seen | (set() if directed else {(d, s, l) for s, d, l in seen})
    edges = frozenset((nid[s], nid[d], lid[l]) for s, d, l in stored)
    counts = [0] * len(lays)
    layer_nodes: List[Set[int]] = [set() for _ in lays]
    for u, v, l in edges:
        counts[l] += 1
        layer_nodes[l].update((u, v))
    n, nl = len(nodes), len(lays)
    return {
        "node_names": nodes,
        "layer_names": lays,
        "attrs": tuple(attrs.get(x, ATTR_DEFAULT) for x in nodes),
        "edges": edges,
        "layer_edge_counts": counts,
        "layer_nodes": layer_nodes,
        "report": (loops, dups, 0),
        "name_triples": sorted(stored),
        "unit_triples": sorted(seen),
        "n_edges": len(edges),
        "keys": sorted((u * n + v) * nl + l for u, v, l in edges),
    }


# -- embedding / support oracles -------------------------------------------


def oracle_embeddings(p: Pattern, g: MultiplexGraph) -> List[Tuple[int, ...]]:
    """Every injective, structure-preserving slot assignment, by full scan."""
    k = p.n_slots
    try:
        edge_ids = {(a, b, g.layer_id(l)) for a, b, l in p.edges}
    except KeyError:
        return []
    out = []
    for nodes in itertools.permutations(range(g.n_nodes), k):
        if any(g.attrs[nodes[i]] != p.attrs[i] for i in range(k)):
            continue
        if all((nodes[a], nodes[b], l) in g.edges for a, b, l in edge_ids):
            out.append(nodes)
    return sorted(out)


def nx_embeddings(p: Pattern, g: MultiplexGraph) -> List[Tuple[int, ...]]:
    """Every embedding by networkx's VF2 monomorphism search.

    Host and pattern become DiGraphs whose edges carry the set of layers
    joining their endpoints; a pattern edge maps onto a host edge whose
    layer set contains its own, and a slot onto a node with its attribute.
    Runs on hosts far too large for the permutation scan.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def digraph(attrs, triples):
        d = nx.DiGraph()
        d.add_nodes_from((i, {"attr": a}) for i, a in enumerate(attrs))
        for u, v, lay in triples:
            if not d.has_edge(u, v):
                d.add_edge(u, v, layers=set())
            d[u][v]["layers"].add(lay)
        return d

    ln = g.layer_names
    host = digraph(g.attrs, ((u, v, ln[l]) for u, v, l in g.edges))
    pat = digraph(p.attrs, p.edges)
    matcher = DiGraphMatcher(
        host, pat,
        node_match=lambda h, q: h["attr"] == q["attr"],
        edge_match=lambda h, q: q["layers"] <= h["layers"],
    )
    out = []
    for mapping in matcher.subgraph_monomorphisms_iter():
        slot_to_node = {q: h for h, q in mapping.items()}
        out.append(tuple(slot_to_node[i] for i in range(p.n_slots)))
    return sorted(out)


def oracle_mis(p: Pattern, g: MultiplexGraph) -> int:
    embs = oracle_embeddings(p, g)
    if not embs:
        return 0
    images = [set(col) for col in zip(*embs)]
    return min(len(s) for s in images)


def oracle_isomorphic(p1: Pattern, p2: Pattern) -> bool:
    """Attribute/direction/layer-preserving bijection, by brute force."""
    if p1.n_slots != p2.n_slots or len(p1.edges) != len(p2.edges):
        return False
    k = p1.n_slots
    for perm in itertools.permutations(range(k)):
        if any(p1.attrs[i] != p2.attrs[perm[i]] for i in range(k)):
            continue
        mapped = {(perm[a], perm[b], l) for a, b, l in p1.edges}
        if mapped == p2.edges:
            return True
    return False


def oracle_frequent(
    g: MultiplexGraph, sigma: int, max_nodes: int, induced_cap: int = 20
) -> Dict[str, int]:
    """Exhaustive generate-and-filter mining on a small host.

    Every connected sub-multigraph on at most ``max_nodes`` host nodes is
    materialized from host edge subsets, deduplicated by canonical code,
    and kept when its brute-force minimum image support reaches ``sigma``.
    Any frequent pattern has at least one embedding, whose image is such a
    subset, so this enumeration is complete.
    """
    ln = g.layer_names
    connected: List[Pattern] = []
    nodes = range(g.n_nodes)
    for size in range(2, max_nodes + 1):
        for subset in itertools.combinations(nodes, size):
            inside = set(subset)
            triples = [
                (u, v, l) for u, v, l in g.edges if u in inside and v in inside
            ]
            if len(triples) > induced_cap:
                raise AssertionError(
                    f"host too dense for the oracle: {len(triples)} induced"
                )
            pos = {u: i for i, u in enumerate(subset)}
            attrs = tuple(g.attrs[u] for u in subset)
            for r in range(1, len(triples) + 1):
                for chosen in itertools.combinations(triples, r):
                    touched = {pos[u] for u, _, _ in chosen}
                    touched |= {pos[v] for _, v, _ in chosen}
                    if len(touched) != size:
                        continue  # smaller node subsets cover this one
                    p = Pattern(
                        attrs,
                        frozenset((pos[u], pos[v], ln[l]) for u, v, l in chosen),
                    )
                    if p.is_connected():
                        connected.append(p)
    canonical_forms(connected)
    by_code: Dict[str, int] = {}
    for p in connected:
        if p.code not in by_code:
            by_code[p.code] = oracle_mis(p, g)
    return {c: s for c, s in by_code.items() if s >= sigma}


def _oracle_walk(g: MultiplexGraph, sigma: int, max_nodes: int,
                 budget: Optional[int]) -> Tuple[dict, Optional[str]]:
    """The lattice walk of ``mine`` over plain patterns: its counters, as
    ``MiningStats`` names them, and the code its budget error names, or
    None when no pattern is over ``budget`` (or ``budget`` is None).  The
    counters are those of a walk that finishes.

    Level 1 tests every single-edge type in the host, and the frequent
    ones, sorted by code, are the first frontier.  Each level walks its
    frontier in code order and grows each parent, in its own slot
    numbering, in the documented order: closing edges by (i, j, layer),
    then per slot the frequent edge types leaving its attribute and then
    those entering it, each by (other attribute, layer).  Every growth
    records (parent support, support of the child).  A child is tested at
    its first growth, by code, and the frequent children keep the slot
    numbering of that growth; sorted by code, they are the next frontier.

    Rows count a join step's candidate rows.  A frequent single-edge
    type's fresh join generates the source attribute's nodes plus their
    out-edges on the layer.  A tested child's step generates, from its
    parent's embeddings, one row per embedding when its edge closes two
    slots, else one per neighbour of the anchor's image on the new edge's
    layer and direction.  Kept rows are a frequent type's edges, a new
    slot child's embeddings, and a frequent closing child's.  The budget
    error names the first frequent type in code order over the budget;
    then, at the first parent in code order with a tested child over it,
    the smallest code among its closing children when they are over it,
    else among its new-slot children over it.
    """
    ln = g.layer_names
    attrs = g.attrs
    deg = {True: {}, False: {}}  # in-degree, out-degree by (node, layer)
    for u, v, l in g.edges:
        deg[False][u, l] = deg[False].get((u, l), 0) + 1
        deg[True][v, l] = deg[True].get((v, l), 0) + 1
    named: Optional[str] = None
    rows_of: List[int] = []
    kept = 0

    def support(t: np.ndarray) -> int:
        return min((len(set(col)) for col in t.T.tolist()), default=0)

    def code(p: Pattern) -> str:
        return oracle_canonical_form(p)[0]

    types = sorted({(attrs[u], attrs[v], ln[l]) for u, v, l in g.edges})
    freq, frontier = [], []
    for sa, da, lay in types:
        p = Pattern((sa, da), frozenset({(0, 1, lay)}))
        sup = support(embedding_table(p, g))
        if sup >= sigma:
            freq.append((sa, da, lay))
            frontier.append(Pattern(p.attrs, p.edges, sup))
    frontier.sort(key=code)
    for p in frontier:
        (_, _, lay), = p.edges
        rows = attrs.count(p.attrs[0]) + sum(
            attrs[u] == p.attrs[0] and ln[l] == lay for u, _, l in g.edges)
        if budget is not None and rows > budget:
            named = code(p)
            break
        rows_of.append(rows)
        kept += len(embedding_table(p, g))

    def grow(p: Pattern) -> List[Pattern]:
        k, at, out = len(p.attrs), p.attrs, []
        for i in range(k):
            for j in range(k):
                out += [Pattern(at, p.edges | {(i, j, lay)})
                        for sa, da, lay in freq
                        if i != j and (sa, da) == (at[i], at[j])
                        and (i, j, lay) not in p.edges]
        for i in range(k if k < max_nodes else 0):
            out += [Pattern(at + (da,), p.edges | {(i, k, lay)})
                    for sa, da, lay in freq if sa == at[i]]
            out += [Pattern(at + (sa,), p.edges | {(k, i, lay)})
                    for sa, da, lay in freq if da == at[i]]
        return out

    levels, tested, pairs = [len(frontier)], len(types), []
    while frontier and named is None:
        sup_of: Dict[str, int] = {}
        nxt: Dict[str, Pattern] = {}
        for p in frontier:
            k, parent = p.n_slots, embedding_table(p, g)
            kids = [(c, code(c)) for c in grow(p)]
            first: Dict[str, Tuple[bool, int]] = {}  # (closing, rows)
            for c, cc in kids:
                if cc in sup_of or cc in first:
                    continue
                if c.n_slots == k:
                    first[cc] = (True, len(parent))
                    continue
                (a, b, lay), = c.edges - p.edges
                inn, l = a == k, g.layer_id(lay)
                first[cc] = (False, sum(deg[inn].get((x, l), 0) for x in
                                        parent[:, b if inn else a].tolist()))
            over = [(closing, cc) for cc, (closing, rows) in first.items()
                    if budget is not None and rows > budget]
            if over:
                named = min(cc for closing, cc in over if closing == over[0][0])
                break
            for c, cc in kids:
                if cc not in sup_of:
                    t = embedding_table(c, g)
                    sup_of[cc] = support(t)
                    tested += 1
                    closing, rows = first[cc]
                    rows_of.append(rows)
                    if not closing or sup_of[cc] >= sigma:
                        kept += len(t)
                    if sup_of[cc] >= sigma:
                        nxt[cc] = Pattern(c.attrs, c.edges, sup_of[cc])
                pairs.append((p.support, sup_of[cc]))
        if named is None:
            frontier = [nxt[cc] for cc in sorted(nxt)]
            levels.append(len(frontier))
    return {"frequent_per_level": levels, "candidates_tested": tested,
            "antimonotone_checks": len(pairs), "support_pairs": pairs,
            "rows_generated": sum(rows_of), "max_rows": max(rows_of, default=0),
            "rows_kept": kept}, named


def oracle_mining_stats(g: MultiplexGraph, sigma: int, max_nodes: int) -> dict:
    """The lattice counters of ``mine`` by the walk of :func:`_oracle_walk`,
    as ``MiningStats`` names them."""
    return _oracle_walk(g, sigma, max_nodes, None)[0]


def oracle_budget_error(g: MultiplexGraph, sigma: int, max_nodes: int,
                        budget: int) -> Optional[str]:
    """The code of the pattern that ``mine`` names in its budget error at
    ``budget`` (see :func:`_oracle_walk`), or None when it finishes."""
    return _oracle_walk(g, sigma, max_nodes, budget)[1]


# -- rule-scoring oracle ----------------------------------------------------


def oracle_rule_scores(g: MultiplexGraph, rules, scheme: str,
                       per_embedding: bool = False, old_new: bool = False):
    """What ``score_links`` (with ``old_new``, ``score_old_new``) returns,
    by a dict walk: a dict of ``keys``, ``values``, ``ptr``, ``index`` and
    ``rids``, plus ``new_attrs`` with ``old_new``.

    Rules are walked in the given order, each over the rows of a fresh
    ``embedding_table`` of its antecedent.  A close rule maps a row to
    the link its delta edge names (undirected links as (min, max)) and
    skips stored edges by ``g.has_edge``; a new-node rule maps it to the
    slot (anchor node, delta layer, direction at the anchor, "out" in
    undirected hosts).  Each rule collects its distinct keys with their
    hit counts, and a rule with any key is used: ``rids`` lists the used
    rules.  Each key then adds its rules' weights (the lift for lift
    schemes, else the confidence, times the hits with ``per_embedding``)
    as Python floats in rule order.  Lift schemes skip NaN lifts, and a
    key left without a hit is dropped.  ``index`` lists the rules that
    scored each kept key, by position in ``rids``.
    """
    n = g.n_nodes
    growth = [r for r in rules if r.new_node]
    layers = sorted(set(g.layer_names) | {r.delta_edge[2] for r in growth})
    rids: List[str] = []
    fresh: List[str] = []
    weight: List[float] = []
    per_key: Dict[int, List[Tuple[int, int]]] = {}  # key -> (rule, hits)
    for rule in rules:
        if rule.new_node != old_new:
            continue
        inv = {c: a for a, c in enumerate(rule.antecedent_map)}
        ds, dd, lay = rule.delta_edge
        if old_new:
            if ds in inv:
                anchor, d, new = inv[ds], 1, dd
            elif dd in inv:
                anchor, d, new = inv[dd], 0, ds
            else:
                continue
            d = d if g.directed else 1
        elif lay not in g.layer_names:
            continue
        hits: Dict[int, int] = {}
        for row in embedding_table(rule.antecedent, g).tolist():
            if old_new:
                key = (row[anchor] * len(layers) + layers.index(lay)) * 2 + d
            else:
                u, v, l = row[inv[ds]], row[inv[dd]], g.layer_id(lay)
                if not g.directed:
                    u, v = min(u, v), max(u, v)
                if g.has_edge(u, v, l):
                    continue
                key = (u * n + v) * g.n_layers + l
            hits[key] = hits.get(key, 0) + 1
        if not hits:
            continue
        for key, times in hits.items():
            per_key.setdefault(key, []).append((len(rids), times))
        rids.append(rule.rid)
        if old_new:
            fresh.append(rule.consequent.attrs[new])
        weight.append(rule.lift if scheme.startswith("lift")
                      else rule.confidence)
    keys, values, ptr, index = [], [], [0], []
    new_attrs = {}
    for key in sorted(per_key):
        score, n_hits, scored = 0.0, 0.0, []
        for i, times in per_key[key]:
            if math.isnan(weight[i]):
                continue
            t = times if per_embedding else 1
            n_hits += t
            score += weight[i] * t
            scored.append(i)
        if not n_hits:
            continue
        if scheme == "count":
            score = n_hits
        elif scheme.endswith("-mean"):
            score = score / n_hits
        keys.append(key)
        values.append(score)
        index.extend(scored)
        ptr.append(len(index))
        wanted = {fresh[i] for i in scored} - {ATTR_DEFAULT} if old_new else ()
        if wanted:
            node, rest = divmod(key, 2 * len(layers))
            name = (g.node_names[node], layers[rest // 2],
                    ("in", "out")[rest % 2])
            new_attrs[name] = tuple(sorted(wanted))
    out = {
        "keys": np.array(keys, dtype=np.int64),
        "values": np.array(values, dtype=np.float64),
        "ptr": np.array(ptr, dtype=np.int64),
        "index": np.array(index, dtype=np.int64),
        "rids": tuple(rids),
    }
    if old_new:
        out["new_attrs"] = new_attrs
    return out


# -- canonical-code oracle --------------------------------------------------


# The code's separators and escape character, each written as "%" plus its
# two hex digits inside a name; an empty name is a bare "%".
_CODE_ESCAPE = str.maketrans({c: f"%{ord(c):02X}" for c in "%|,>:;="})


def oracle_canonical_form(p: Pattern) -> Tuple[str, Tuple[Tuple[int, ...], ...]]:
    """Minimum serialization over all slot permutations, with every
    permutation attaining it, by serializing each permutation to a string.

    A permutation maps slot i to canonical slot ``perm[i]``; the code is
    ``v=`` plus the escaped names by canonical slot joined by ``|``, then
    ``;e=`` plus the sorted edges ``src>dst:layer`` joined by ``,``.
    """
    k = len(p.attrs)
    names = [a.translate(_CODE_ESCAPE) or "%" for a in p.attrs]
    edges = [(a, b, l.translate(_CODE_ESCAPE) or "%") for a, b, l in p.edges]
    best = None
    perms: List[Tuple[int, ...]] = []
    attrs = [""] * k
    for perm in itertools.permutations(range(k)):
        for i, s in enumerate(perm):
            attrs[s] = names[i]
        epart = ",".join(f"{a}>{b}:{l}" for a, b, l in
                         sorted((perm[a], perm[b], l) for a, b, l in edges))
        cand = f"v={'|'.join(attrs)};e={epart}"
        if best is None or cand < best:
            best, perms = cand, [perm]
        elif cand == best:
            perms.append(perm)
    assert best is not None
    return best, tuple(perms)


# -- AUC oracle -------------------------------------------------------------


def oracle_auc(pos: Sequence[float], neg: Sequence[float]) -> float:
    """Pairwise win/tie counting, chunked to bound memory."""
    pos_a = np.asarray(pos, dtype=float)
    neg_a = np.asarray(neg, dtype=float)
    wins = 0.0
    for start in range(0, pos_a.size, 256):
        block = pos_a[start:start + 256, None]
        wins += (block > neg_a[None, :]).sum()
        wins += 0.5 * (block == neg_a[None, :]).sum()
    return wins / (pos_a.size * neg_a.size)


def oracle_mann_whitney(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Rank-statistic AUC whose tie groups come from ``np.unique`` on the
    sorted scores (all NaNs one group), added in the library's order, so
    it must match ``mann_whitney_auc`` bit for bit."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    order = np.argsort(scores, kind="mergesort")
    _, inv, counts = np.unique(scores[order], return_inverse=True,
                               return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    ranks = np.empty(scores.size, dtype=float)
    ranks[order] = ((starts + ends + 1) / 2.0)[inv]
    return (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def oracle_roc_points(
    scores: np.ndarray, labels: np.ndarray
) -> List[Tuple[float, float, float]]:
    """The per-candidate ROC that evaluation used before score groups: a
    stable descending sort, float cumulative counts, one point at the
    last index of each run of equal scores.  Every NaN, and every
    repeated infinity (whose difference is NaN), is a point of its own;
    NaNs come last."""
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order].astype(float)
    tp = np.cumsum(y)
    fp = np.cumsum(1.0 - y)
    # Last index of each tie group.
    distinct = np.nonzero(np.diff(s))[0]
    idx = np.r_[distinct, s.size - 1]
    n_pos, n_neg = tp[-1], fp[-1]
    pts = [(0.0, 0.0, float("inf"))]
    for i in idx:
        pts.append((float(fp[i] / n_neg), float(tp[i] / n_pos), float(s[i])))
    return pts


def oracle_pooled_auc(raws: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
    """The pooled AUC that evaluation used before score groups: every
    fold's (scores, labels) concatenated and ranked again."""
    scores = np.concatenate([s for s, _ in raws])
    labels = np.concatenate([l for _, l in raws])
    return oracle_mann_whitney(scores, labels)


# -- negative-candidate and classical-index oracles -------------------------


def oracle_candidates(split, mode: str = "full", k: Optional[int] = None,
                      seed: Optional[int] = None) -> FrozenSet[Tuple[str, str, str]]:
    """Negative candidates as name triples: a loop over every (pair, layer)
    of the old nodes, and for ``sampled`` rejection sampling with the
    library's RNG call sequence (i, j, layer per draw)."""
    nodes, layers = split.old_nodes, split.layer_universe
    n = len(nodes)
    train_units = set(split.train.unit_triples())
    pos = split.positives
    pairs = n * (n - 1) if split.directed else n * (n - 1) // 2
    population = (pairs * len(layers) - len(train_units)
                  - sum(1 for c in split.categories.values() if c == "old-old"))

    def every() -> FrozenSet[Tuple[str, str, str]]:
        out = set()
        for lay in layers:
            for i in range(n):
                for j in range(n):
                    if i == j or (not split.directed and i > j):
                        continue
                    t = (nodes[i], nodes[j], lay)
                    if t not in train_units and t not in pos:
                        out.add(t)
        return frozenset(out)

    if mode == "full" or k >= population:
        return every()
    rng = np.random.default_rng(seed)
    out: Set[Tuple[str, str, str]] = set()
    while len(out) < k:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        l = int(rng.integers(len(layers)))
        if i == j:
            continue
        if not split.directed and i > j:
            i, j = j, i
        t = (nodes[i], nodes[j], layers[l])
        if t in train_units or t in pos or t in out:
            continue
        out.add(t)
    return frozenset(out)


def oracle_lookup(table, key: Tuple) -> float:
    """Per-key score by name: the exact key, else its canonical pair, else 0."""
    if key in table.scores:
        return table.scores[key]
    return table.scores.get(tuple(sorted(key[:2])), 0.0)


def oracle_classical(sg, method: str) -> Dict[Tuple[str, str], float]:
    """Classical index of every non-adjacent pair by set arithmetic on the
    collapsed graph's own adjacency sets, so float sums add in the sets'
    iteration order."""
    n, nn, adj = sg.n_nodes, sg.node_names, sg.adj
    scores: Dict[Tuple[str, str], float] = {}
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if v in au:
                continue
            av = adj[v]
            if method == "cn":
                s = float(len(au & av))
            elif method == "aa":
                s = sum(1.0 / math.log(len(adj[z])) for z in au & av
                        if len(adj[z]) > 1)
            elif method == "ra":
                s = sum(1.0 / len(adj[z]) for z in au & av)
            elif method == "pa":
                s = float(len(au) * len(av))
            else:  # ja
                union = len(au | av)
                s = len(au & av) / union if union else 0.0
            scores[(nn[u], nn[v])] = float(s)
    return scores


def oracle_sharma(g: MultiplexGraph) -> Tuple[np.ndarray, Dict[int, float]]:
    """Layer co-occurrence ``prob`` and Sharma scores by key, from Python
    pair sets per layer (the implementation the key arrays replaced):
    each score is a Python sum over the pair's layers in ascending
    order."""
    nl = g.n_layers
    pairs: List[Set[Tuple[int, int]]] = [set() for _ in range(nl)]
    for u, v, l in g.edges:
        pairs[l].add((u, v) if g.directed or u < v else (v, u))
    prob = np.zeros((nl, nl))
    for i in range(nl):
        if not pairs[i]:
            continue
        for j in range(nl):
            prob[i, j] = len(pairs[i] & pairs[j]) / len(pairs[i])
    linked: Dict[Tuple[int, int], List[int]] = {}
    for l, pset in enumerate(pairs):
        for pair in pset:
            linked.setdefault(pair, []).append(l)
    scores: Dict[int, float] = {}
    for (u, v), present in linked.items():
        for tgt in range(nl):
            if tgt not in present:
                s = sum(prob[src, tgt] for src in present)
                scores[int(g.space.key(u, v, tgt))] = float(s)
    return prob, scores


# -- acceptance reporting ---------------------------------------------------


_ACCEPT_LINES: List[str] = []


def accept_line(criterion: int, status: str, detail: str = "") -> None:
    """One line per acceptance criterion.

    Echoed immediately when running uncaptured and repeated in a terminal
    summary section, so the report survives pytest's fd-level capture.
    """
    tail = f" - {detail}" if detail else ""
    line = f"[criterion {criterion:02d}] {status}{tail}"
    _ACCEPT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def pytest_terminal_summary(terminalreporter) -> None:
    if _ACCEPT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPT_LINES):
            terminalreporter.line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
