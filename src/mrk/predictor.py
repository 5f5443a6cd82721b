"""Link scoring by rule application.

Every embedding of a rule's antecedent proposes the rule's delta edge at
concrete host nodes.  Proposals that already exist in the graph are skipped;
the rest are aggregated into a score table under one of several weighting
schemes.  By default a rule contributes at most once per target, however
many embeddings propose it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import MrkError
from .graph import ATTR_DEFAULT, MultiplexGraph
from .miner import DEFAULT_BUDGET, embedding_table
from .rules import Rule

WEIGHTING_SCHEMES = ("count", "conf", "lift", "conf-mean", "lift-mean")

LinkKey = Tuple[str, str, str]      # (src, dst, layer) names
OldNewKey = Tuple[str, str, str]    # (node, layer, direction)


@dataclass
class ScoreTable:
    """Candidate links with scores and contributing rule ids."""

    scheme: str
    scores: Dict[Tuple, float]
    provenance: Dict[Tuple, Tuple[str, ...]] = field(default_factory=dict)

    def scores_for(self, keys: Sequence[Tuple]) -> np.ndarray:
        """Scores of ``keys`` as a float array aligned with them.

        A (src, dst, layer) key the table lacks falls back to its layer-less
        pair in canonical (min, max) order, so single-layer tables answer
        multiplex queries.  Keys found neither way score 0.
        """
        get = self.scores.get
        if not any(len(k) == 2 for k in self.scores):
            # No pair keys: the fallback can never hit.
            return np.fromiter(map(get, keys, repeat(0.0)), float, len(keys))

        def one(key: Tuple) -> float:
            s = get(key)
            if s is None and len(key) == 3:
                u, v = key[0], key[1]
                s = get((u, v) if u < v else (v, u))
            return 0.0 if s is None else s

        return np.fromiter(map(one, keys), float, len(keys))


@dataclass
class OldNewScoreTable(ScoreTable):
    """Scores keyed by (node, layer, direction) for new-neighbor prediction.

    ``new_attrs`` keeps, per key, the non-default attributes that the
    contributing rules expect of the incoming node; scoring ignores them.
    """

    new_attrs: Dict[OldNewKey, Tuple[str, ...]] = field(default_factory=dict)


def _check_scheme(scheme: str) -> None:
    if scheme not in WEIGHTING_SCHEMES:
        raise MrkError(
            f"unknown weighting scheme {scheme!r}; "
            f"expected one of {', '.join(WEIGHTING_SCHEMES)}"
        )


def _antecedent_table(
    tables: Dict[str, np.ndarray], rule: Rule, g: MultiplexGraph, budget: int
) -> np.ndarray:
    """Embedding table of the rule's antecedent, built once per code."""
    code = rule.antecedent.code
    if code not in tables:
        tables[code] = embedding_table(rule.antecedent, g, budget)
    return tables[code]


def _inverse_map(rule: Rule) -> Dict[int, int]:
    """Consequent slot -> antecedent slot, for slots in the map's image."""
    return {c: a for a, c in enumerate(rule.antecedent_map)}


def _aggregate(
    scheme: str,
    rules: Sequence[Rule],
    keys: Sequence[np.ndarray],
    hits: Sequence[np.ndarray],
    per_embedding: bool,
) -> Tuple[np.ndarray, List[float], List[Tuple[str, ...]]]:
    """Combine the rules' proposals under one weighting scheme.

    ``keys[i]`` holds the distinct integer keys that ``rules[i]`` proposes
    and ``hits[i]`` how many embeddings propose each.  A rule adds its
    weight once per key, or once per proposing embedding with
    ``per_embedding``.  ``np.bincount`` adds in array order, which is rule
    order, so every sum is the one taken rule by rule.

    Returns the scored keys (sorted), their scores, and for each the ids
    of its contributing rules in rule order.  Lift schemes skip rules
    whose lift is NaN, and drop keys that only such rules propose.
    """
    if not keys:
        return np.empty(0, dtype=np.int64), [], []
    key = np.concatenate(keys)
    rule_of = np.repeat(np.arange(len(rules)), [len(k) for k in keys])
    times = np.concatenate(hits) if per_embedding else np.ones(len(key), np.int64)
    ukeys, at = np.unique(key, return_inverse=True)
    m = len(ukeys)
    if scheme.startswith("lift"):
        weight = np.array([r.lift for r in rules])[rule_of]
        use = ~np.isnan(weight)
    else:
        weight = np.array([r.confidence for r in rules])[rule_of]
        use = slice(None)
    n_hits = np.bincount(at[use], weights=times[use], minlength=m)
    if scheme == "count":
        score = n_hits
    else:
        score = np.bincount(at[use], weights=(weight * times)[use], minlength=m)
    kept = n_hits > 0
    score, n_hits = score[kept], n_hits[kept]
    if scheme.endswith("-mean"):
        score = score / n_hits
    rids = [r.rid for r in rules]
    flat = [rids[i] for i in rule_of[np.argsort(at, kind="stable")].tolist()]
    ends = np.cumsum(np.bincount(at, minlength=m)).tolist()
    prov = [
        tuple(flat[a:b])
        for a, b, k in zip([0] + ends, ends, kept.tolist()) if k
    ]
    return ukeys[kept], score.tolist(), prov


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

    Each rule's proposals are one column pair of its antecedent's
    embedding table, reduced to distinct ``(layer, src, dst)`` keys.
    """
    _check_scheme(scheme)
    ix = g.arrays
    tables: Dict[str, np.ndarray] = {}
    used: List[Rule] = []
    keys: List[np.ndarray] = []
    hits: List[np.ndarray] = []
    for rule in rules:
        if rule.new_node:
            continue
        inv = _inverse_map(rule)
        ds, dd, dl = rule.delta_edge
        try:
            lid = g.layer_id(dl)
        except KeyError:
            continue
        emb = _antecedent_table(tables, rule, g, budget)
        u, v = emb[:, inv[ds]], emb[:, inv[dd]]
        if not g.directed:
            # Symmetric storage: (u, v) is an edge iff (v, u) is.
            u, v = np.minimum(u, v), np.maximum(u, v)
        key, times = np.unique(ix.edge_key(lid, u, v), return_counts=True)
        missing = ~ix.is_edge(key)
        if missing.any():
            used.append(rule)
            keys.append(key[missing])
            hits.append(times[missing])
    ukeys, scores, prov = _aggregate(scheme, used, keys, hits, per_embedding)
    lay, src, dst = (a.tolist() for a in ix.edge_of(ukeys))
    nn, ln = g.node_names, g.layer_names
    names = [(nn[u], nn[v], ln[l]) for l, u, v in zip(lay, src, dst)]
    return ScoreTable(scheme, dict(zip(names, scores)), dict(zip(names, prov)))


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
    undirected graphs collapse both orientations to "out".
    """
    _check_scheme(scheme)
    n = g.n_nodes
    tables: Dict[str, np.ndarray] = {}
    targets: Dict[Tuple[str, str], int] = {}  # (layer, direction) -> id
    used: List[Rule] = []
    keys: List[np.ndarray] = []
    hits: List[np.ndarray] = []
    fresh_attr: Dict[str, str] = {}  # rule id -> attribute of the fresh slot
    for rule in rules:
        if not rule.new_node:
            continue
        inv = _inverse_map(rule)
        ds, dd, dl = rule.delta_edge
        if ds in inv:
            anchor, direction = inv[ds], "out"
            fresh = dd
        elif dd in inv:
            anchor, direction = inv[dd], "in"
            fresh = ds
        else:
            continue
        if not g.directed:
            direction = "out"
        emb = _antecedent_table(tables, rule, g, budget)
        node, times = np.unique(emb[:, anchor], return_counts=True)
        if node.size:
            tid = targets.setdefault((dl, direction), len(targets))
            used.append(rule)
            keys.append(tid * n + node)
            hits.append(times)
            fresh_attr[rule.rid] = rule.consequent.attrs[fresh]
    ukeys, scores, prov = _aggregate(scheme, used, keys, hits, per_embedding)
    tid, node = np.divmod(ukeys, n)
    nn, tnames = g.node_names, list(targets)
    names = [(nn[u], *tnames[t]) for u, t in zip(node.tolist(), tid.tolist())]
    new_attrs: Dict[OldNewKey, Tuple[str, ...]] = {}
    for k, rids in zip(names, prov):
        wanted = {fresh_attr[r] for r in rids} - {ATTR_DEFAULT}
        if wanted:
            new_attrs[k] = tuple(sorted(wanted))
    return OldNewScoreTable(
        scheme, dict(zip(names, scores)), dict(zip(names, prov)), new_attrs
    )


# -- serialization ----------------------------------------------------------


def write_scores_csv(table: ScoreTable, path: str) -> None:
    """Write link scores as ``src,dst,layer,score`` rows, sorted by key."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "layer", "score"])
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
    scores: Dict[Tuple, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise MrkError(f"{path}: empty score file")
        for row in r:
            if len(row) != 4:
                raise MrkError(f"{path}: bad score row {row!r}")
            src, dst, lay, score = row
            key = (src, dst, lay) if lay else (src, dst)
            scores[key] = float(score)
    return ScoreTable("file", scores)
