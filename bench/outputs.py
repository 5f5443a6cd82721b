"""Representation-independent summaries of program outputs, and their comparison.

A summary keeps what must not change when the program's internals do:
pattern counts and the multiset of (slots, edges, support); rule counts
with sums of their confidence and lift; score tables as their key set
(node names) plus order-free sums of the scores; and AUCs.  Canonical
codes and rule ids are never stored, because their format may change
without changing any result.

Float sums use ``math.fsum`` over values sorted by key, so they do not
depend on the order in which the program produced the values.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, Iterable, List, Mapping, Tuple

# Floats in a summary must agree to this relative tolerance.
REL_TOL = 1e-9


def _key_weight(key: Tuple) -> float:
    """A fixed pseudo-random weight in [0, 1) derived from a key's names."""
    h = hashlib.sha256("\t".join(map(str, key)).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") / 2.0 ** 64


def keys_digest(keys: Iterable[Tuple]) -> str:
    text = "\n".join(sorted("\t".join(map(str, k)) for k in keys))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_summary(scores: Mapping[Tuple, float]) -> dict:
    """Key set and three order-free sums of a score table."""
    items = sorted(scores.items())
    vals = [s for _, s in items]
    return {
        "keys": len(items),
        "keys_sha256": keys_digest(scores),
        "sum": math.fsum(vals),
        "sum_sq": math.fsum(v * v for v in vals),
        "sum_weighted": math.fsum(_key_weight(k) * v for k, v in items),
    }


def patterns_summary(patterns) -> dict:
    """Pattern count, the (slots, edges, support) multiset as a digest, and
    per (slots, edges) shape the pattern count and support total."""
    triples = sorted((p.n_slots, p.n_edges, p.support) for p in patterns)
    shapes: Dict[str, List[int]] = {}
    for slots, edges, sup in triples:
        entry = shapes.setdefault(f"{slots}x{edges}", [0, 0])
        entry[0] += 1
        entry[1] += sup
    return {
        "count": len(triples),
        "multiset_sha256": hashlib.sha256(repr(triples).encode()).hexdigest(),
        "by_shape": shapes,
    }


def rules_summary(rules) -> dict:
    out = {}
    for kind, new in (("close", False), ("new_node", True)):
        rs = [r for r in rules if r.new_node == new]
        conf = sorted(r.confidence for r in rs)
        lift = sorted(r.lift for r in rs if not math.isnan(r.lift))
        out[kind] = {
            "count": len(rs),
            "conf_sum": math.fsum(conf),
            "conf_sum_sq": math.fsum(c * c for c in conf),
            "lift_sum": math.fsum(lift),
            "lift_sum_sq": math.fsum(v * v for v in lift),
            "lift_nan": len(rs) - len(lift),
        }
    return out


def compare(expected, actual, path: str = "") -> List[str]:
    """Differences between two summaries: exact except floats (REL_TOL)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = []
        for k in sorted(set(expected) | set(actual)):
            p = f"{path}.{k}" if path else str(k)
            if k not in actual:
                diffs.append(f"{p}: only in reference")
            elif k not in expected:
                diffs.append(f"{p}: only in output")
            else:
                diffs.extend(compare(expected[k], actual[k], p))
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        diffs = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(compare(e, a, f"{path}[{i}]"))
        return diffs
    if isinstance(expected, float) or isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


# -- reference files --------------------------------------------------------


def load_reference(path: str) -> Dict[str, dict]:
    """Reference summaries by seed (as a string), then by operation key."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path: str, refs: Dict[str, dict]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # One line per seed and operation keeps the file small and diffable.
        fh.write("{\n")
        rows = [
            f"{json.dumps(seed)}: {{\n" + ",\n".join(
                f" {json.dumps(key)}: {json.dumps(ops[key], sort_keys=True)}"
                for key in sorted(ops)
            ) + "\n}"
            for seed, ops in sorted(refs.items(), key=lambda kv: int(kv[0]))
        ]
        fh.write(",\n".join(rows) + "\n}\n")
    os.replace(tmp, path)
