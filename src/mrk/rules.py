"""Association rules between patterns differing by one edge.

A rule pairs an antecedent pattern with a consequent that contains it plus
exactly one extra edge (and possibly one extra slot).  Wherever the
antecedent occurs, the rule predicts the consequent's extra edge; its
confidence is the support ratio of the two patterns.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .graph import MultiplexGraph
from .miner import (
    Pattern,
    PatternEdge,
    SlotMap,
    canonical_forms,
    pattern_from_dict,
    pattern_to_dict,
)


@dataclass(frozen=True)
class Rule:
    """antecedent => consequent, predicting the one uncovered edge.

    ``delta_edge`` is in consequent slot coordinates; ``antecedent_map``
    is the smallest of the maps realizing the containment whose uncovered
    edge is ``delta_edge``.  ``new_node`` marks rules
    whose consequent has a slot the antecedent lacks (the delta edge then
    touches that fresh slot).
    """

    antecedent: Pattern
    consequent: Pattern
    delta_edge: PatternEdge
    antecedent_map: SlotMap
    new_node: bool
    confidence: float
    lift: float

    @cached_property
    def rid(self) -> str:
        """Stable short identifier derived from the rule's identity."""
        ident = f"{self.antecedent.code}=>{self.consequent.code}@{self.delta_edge}"
        return hashlib.sha1(ident.encode("utf-8")).hexdigest()[:12]

    def __repr__(self) -> str:
        return (
            f"Rule({self.antecedent.code} => {self.consequent.code}, "
            f"delta={self.delta_edge}, conf={self.confidence:.3f})"
        )


def rule_lift(confidence: float, layer: str, g: MultiplexGraph) -> float:
    """Confidence over the layer's edge density.

    Density is stored edges over n(n-1) ordered pairs; with symmetric
    storage this equals the usual undirected density, so one formula covers
    both modes.  A layer with no stored edges gives NaN.
    """
    n = g.n_nodes
    if n < 2:
        return math.nan
    try:
        l = g.layer_id(layer)
    except KeyError:
        return math.nan
    m = g.layer_edge_counts[l]
    if m == 0:
        return math.nan
    density = m / (n * (n - 1))
    return confidence / density


def build_rules(
    patterns: Sequence[Pattern],
    g: MultiplexGraph,
    min_conf: float = 0.0,
    min_lift: Optional[float] = None,
) -> List[Rule]:
    """Derive every rule from a frequent pattern collection.

    Each rule is read off its consequent p2 by deleting one edge, the
    delta, together with any endpoint that it leaves bare (a new-node rule;
    otherwise a close rule).  The remainder must be connected, so a close
    rule's delta is never a bridge; looked up by canonical code among the
    connected ``patterns``, it is the antecedent p1 (a remainder is
    connected exactly when the pattern of its code is, so connectivity is
    tested once per pattern).  Confidence is support(p2) / support(p1).
    Only the smallest delta of each orbit under p2's automorphism group is
    deleted, and the antecedent map is the smallest isomorphism of p1 onto
    the remainder, in p2's slots; both come from the minimising
    permutations of the canonical forms, which one
    :func:`~mrk.miner.canonical_forms` batch computes for the patterns and
    one for all remainders.

    Filters: rules below ``min_conf`` are dropped; when ``min_lift`` is
    given, rules with NaN or smaller lift are dropped too.
    """
    for p in patterns:
        if p.support is None:
            raise ValueError(f"pattern {p.code!r} carries no support")
    canonical_forms(patterns)
    connected = [p for p in patterns if p.is_connected()]
    by_code = {p.code: p for p in connected}

    # Every one-edge-deletion remainder q with an edge, canonicalised at once.
    cuts: List[Tuple[Pattern, PatternEdge, List[int], Pattern]] = []
    for p2 in connected:
        perms = p2.canonical_perms
        auts = [tuple(perms[0].index(s) for s in perm) for perm in perms]
        deltas = {min((m[a], m[b], l) for m in auts) for a, b, l in p2.edges}
        for delta in sorted(deltas):
            rest = p2.edges - {delta}
            if not rest:
                continue
            keep = sorted({s for a, b, _ in rest for s in (a, b)})
            new = {s: i for i, s in enumerate(keep)}
            q = Pattern(
                tuple(p2.attrs[s] for s in keep),
                frozenset((new[a], new[b], l) for a, b, l in rest),
            )
            cuts.append((p2, delta, keep, q))
    canonical_forms(q for _, _, _, q in cuts)

    rules: List[Rule] = []
    for p2, delta, keep, q in cuts:
        p1 = by_code.get(q.code)
        if p1 is None:
            continue
        m = min(
            tuple(keep[perm.index(s)] for s in p1.canonical_perms[0])
            for perm in q.canonical_perms
        )
        conf = p2.support / p1.support
        lift = rule_lift(conf, delta[2], g)
        if conf < min_conf:
            continue
        if min_lift is not None and not (lift >= min_lift):
            continue
        rules.append(
            Rule(
                antecedent=p1,
                consequent=p2,
                delta_edge=delta,
                antecedent_map=m,
                new_node=q.n_slots < p2.n_slots,
                confidence=conf,
                lift=lift,
            )
        )
    rules.sort(
        key=lambda r: (r.antecedent.code, r.consequent.code, r.delta_edge)
    )
    return rules


# -- serialization ----------------------------------------------------------


def rule_to_dict(r: Rule) -> dict:
    return {
        "id": r.rid,
        "antecedent": pattern_to_dict(r.antecedent),
        "consequent": pattern_to_dict(r.consequent),
        "delta_edge": list(r.delta_edge),
        "antecedent_map": list(r.antecedent_map),
        "new_node": r.new_node,
        "confidence": r.confidence,
        "lift": None if math.isnan(r.lift) else r.lift,
    }


def rule_from_dict(d: dict) -> Rule:
    lift = d["lift"]
    return Rule(
        antecedent=pattern_from_dict(d["antecedent"]),
        consequent=pattern_from_dict(d["consequent"]),
        delta_edge=tuple(d["delta_edge"]),
        antecedent_map=tuple(d["antecedent_map"]),
        new_node=d["new_node"],
        confidence=d["confidence"],
        lift=math.nan if lift is None else lift,
    )
