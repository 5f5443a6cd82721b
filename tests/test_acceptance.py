"""Acceptance suite: one check per shipped guarantee.

Each test prints a single ``[criterion NN] PASS/FAIL/SKIP`` line through
the shared reporter so the whole contract is auditable from one run.
Checks that need a real dataset look for its edge file under ``data/``
(see ``data/README.md``) and skip with an explanatory note when the file
is absent; synthetic stand-ins for those checks still run and assert.
"""

import contextlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau

from mrk.baselines import (
    CLASSICAL_METHODS,
    classical_on_multiplex,
    ensemble,
    sharma_scores,
)
from mrk.evaluation import (
    CAT_OLD_OLD,
    candidates,
    evaluate_old_new,
    mann_whitney_auc,
    roc_auc,
    split_from_graphs,
    split_random,
)
from mrk.graph import (
    ATTR_DEFAULT,
    MultiplexGraph,
    from_coupled,
    load_graph,
    to_coupled,
)
from mrk.miner import (
    MinerConfig,
    MiningStats,
    Pattern,
    embedding_table,
    min_image_support,
    mine,
)
from mrk.predictor import score_links, score_old_new
from mrk.rules import build_rules
from mrk.synth import SynthConfig, generate
from tests.conftest import (
    accept_line,
    oracle_auc,
    oracle_frequent,
    rand_host,
)

D = ATTR_DEFAULT
DATA = Path(__file__).resolve().parent.parent / "data"

# Real datasets are looked up as data/<name>.edges ("src dst layer" lines);
# Pardus additionally splits into train/test snapshots.
REAL_DIRECTED = {"aarhus": False, "physicians": True, "celegans": True}
SMALL_DATASETS = ("aarhus", "physicians", "celegans")


def real_path(name: str) -> Path:
    return DATA / f"{name}.edges"


def load_real(name: str) -> MultiplexGraph:
    return load_graph(
        str(real_path(name)), None, directed=REAL_DIRECTED[name]
    )


class _Report:
    """Mutable slot for the line printed when a criterion block exits."""

    detail = ""
    skip = ""


@contextlib.contextmanager
def criterion(num: int):
    rep = _Report()
    try:
        yield rep
    except AssertionError as exc:
        first = str(exc).splitlines()[0] if str(exc) else ""
        accept_line(num, "FAIL", first[:160])
        raise
    if rep.skip:
        # Assertions above the skip mark still ran; the criterion is
        # only partially checkable in this environment.
        accept_line(num, "SKIP", rep.skip)
        pytest.skip(rep.skip)
    accept_line(num, "PASS", rep.detail)


def bail(num: int, reason: str):
    accept_line(num, "SKIP", reason)
    pytest.skip(reason)


# -- criteria 1 and 3: miner vs brute force over one shared sweep -----------


@pytest.fixture(scope="module")
def miner_sweep():
    """Fifty small random hosts mined once; both checks read the results."""
    rng = np.random.default_rng(417)
    runs = []
    mine_time = 0.0
    for i in range(50):
        n = 5 + i % 8
        n_layers = 1 + i % 3
        directed = i % 2 == 1
        attr_values = ("p", "q") if i % 3 == 0 else ()
        g = rand_host(rng, n, n_layers, int(1.6 * n), directed, attr_values)
        sigma = 1 + i % 3
        max_nodes = 4 if n <= 8 else 3
        stats = MiningStats()
        t0 = time.time()
        pats = mine(
            g, MinerConfig(min_support=sigma, max_nodes=max_nodes),
            stats=stats,
        )
        mine_time += time.time() - t0
        runs.append((g, sigma, max_nodes, pats, stats))
    return runs, mine_time


def test_01_miner_matches_exhaustive_enumeration(miner_sweep):
    runs, mine_time = miner_sweep
    with criterion(1) as rep:
        total = 0
        for g, sigma, max_nodes, pats, _ in runs:
            got = {p.code: p.support for p in pats}
            want = oracle_frequent(g, sigma, max_nodes)
            assert got == want, (
                f"host n={g.n_nodes} sigma={sigma} s={max_nodes}: "
                f"{len(got)} mined vs {len(want)} enumerated"
            )
            total += len(got)
        assert mine_time < 60.0, f"mining took {mine_time:.1f}s"
        rep.detail = (
            f"50 hosts, {total} frequent patterns, codes and supports "
            f"identical, {mine_time:.1f}s mining"
        )


def test_02_min_image_support_reuses_nodes():
    # Ten directed edges cycling through three layers; the x-y-z path has
    # four embeddings but only three distinct images per slot, so its
    # support is three, not four.
    g = MultiplexGraph(
        [
            ("8", "5", "x"), ("5", "2", "y"), ("2", "1", "z"),
            ("1", "3", "x"), ("3", "6", "y"), ("6", "8", "z"),
            ("6", "9", "z"), ("9", "7", "x"), ("7", "4", "y"),
            ("4", "1", "z"),
        ],
        directed=True,
    )
    p = Pattern(
        (D, D, D, D),
        frozenset({(0, 1, "x"), (1, 2, "y"), (2, 3, "z")}),
    )
    with criterion(2) as rep:
        embs = embedding_table(p, g).tolist()
        assert len(embs) == 4, f"expected 4 embeddings, got {len(embs)}"
        images = [set(col) for col in zip(*embs)]
        assert [len(s) for s in images] == [3, 3, 3, 3], (
            f"slot image sizes {[len(s) for s in images]}"
        )
        assert min_image_support(p, g) == 3
        rep.detail = "4 embeddings, 3 distinct images per slot, support 3"


def test_03_support_antimonotone_across_sweep(miner_sweep):
    runs, _ = miner_sweep
    with criterion(3) as rep:
        checks = 0
        for _, _, _, _, stats in runs:
            assert stats.antimonotone_violations == 0
            for parent, child in stats.support_pairs:
                assert child <= parent, f"child {child} > parent {parent}"
            checks += len(stats.support_pairs)
        assert checks > 0
        rep.detail = f"{checks} parent/child pairs, zero violations"


# -- criterion 4: support-threshold dips at layer sizes ---------------------

# Nested layers of 200/150/100/50 nodes; each layer carries its own
# circulant backbone with arithmetically disjoint step sets, so rules stay
# layer-local and every rule's consequent support is capped by its layer's
# node count.  Filtering rules at a threshold just above a layer's size
# therefore silences that layer's predictions entirely.
DIP_GRID = (38, 51, 88, 101, 138, 151, 188, 201)
DIP_PAIRS = ((38, 51, 50), (88, 101, 100), (138, 151, 150), (188, 201, 200))


def _dip_config(seed: int) -> SynthConfig:
    return SynthConfig(
        layer_sizes=(200, 150, 100, 50),
        communities=2,
        p_in=(0.012, 0.020, 0.040, 0.15),
        p_out=0.001,
        seed=seed,
        backbone=((1, 2), (3, 6), (5, 10), (4, 8, 12, 16)),
    )


def test_04_auc_dips_when_threshold_crosses_layer_size():
    with criterion(4) as rep:
        per_seed = []
        for seed in range(5):
            g = generate(_dip_config(seed))
            split = split_random(g, 10, seed=seed)[0]
            tg = split.train
            pats = mine(tg, MinerConfig(min_support=38, max_nodes=3))
            rules = build_rules(pats, tg, min_conf=0.0)
            aucs = {}
            for threshold in DIP_GRID:
                kept = [
                    r for r in rules
                    if r.consequent.support >= threshold
                ]
                table = score_links(tg, kept, scheme="conf")
                aucs[threshold] = roc_auc(table, split).auc
            per_seed.append(aucs)
        drops = []
        for lo, hi, size in DIP_PAIRS:
            mean_lo = float(np.mean([a[lo] for a in per_seed]))
            mean_hi = float(np.mean([a[hi] for a in per_seed]))
            drop = mean_lo - mean_hi
            drops.append((size, drop))
            assert drop >= 0.05, (
                f"crossing layer size {size}: mean AUC {mean_lo:.4f} -> "
                f"{mean_hi:.4f}, drop {drop:.4f} < 0.05"
            )
        rep.detail = "drops " + ", ".join(
            f"{size}: {drop:.3f}" for size, drop in drops
        )


# -- criterion 5: four-node patterns unlock the planted structure -----------


def test_05_pattern_size_four_beats_three():
    # Two layers holding one circulant distance each: the only closed
    # structures are mixed four-node parallelograms, so three-node rules
    # have nothing to predict with while four-node rules recover the
    # planted edges.
    cfg = SynthConfig(
        layer_sizes=(120, 80), communities=2, p_in=0.006, p_out=0.001,
        seed=0, backbone=((1,), (3,)),
    )
    with criterion(5) as rep:
        g = generate(cfg)
        split = split_random(g, 10, seed=0)[0]
        tg = split.train
        results = {}
        for max_nodes in (3, 4):
            pats = mine(tg, MinerConfig(min_support=60, max_nodes=max_nodes))
            rules = build_rules(pats, tg, min_conf=0.0)
            close = [r for r in rules if not r.new_node]
            table = score_links(tg, close, scheme="conf")
            results[max_nodes] = (len(rules), roc_auc(table, split).auc)
        n3, auc3 = results[3]
        n4, auc4 = results[4]
        gap = auc4 - auc3
        assert gap >= 0.2, (
            f"AUC {auc3:.4f} (s=3) vs {auc4:.4f} (s=4), gap {gap:.4f} < 0.2"
        )
        assert n4 >= 5 * n3, f"rule counts {n3} (s=3) vs {n4} (s=4)"
        rep.detail = (
            f"AUC {auc3:.3f} -> {auc4:.3f} (gap {gap:.3f}), "
            f"rules {n3} -> {n4}"
        )


# -- criteria 6-9: real-data checks ----------------------------------------


def _rules_fold_auc(split, max_nodes=4):
    tg = split.train
    sigma = max(tg.smallest_layer_size(), 1)
    pats = mine(tg, MinerConfig(min_support=sigma, max_nodes=max_nodes))
    rules = build_rules(pats, tg, min_conf=0.0)
    close = [r for r in rules if not r.new_node]
    table = score_links(tg, close, scheme="conf")
    return roc_auc(table, split).auc


def test_06_rule_predictor_auc_on_aarhus():
    if not real_path("aarhus").exists():
        bail(6, "data/aarhus.edges not present; see data/README.md")
    with criterion(6) as rep:
        g = load_real("aarhus")
        t0 = time.time()
        aucs = [
            _rules_fold_auc(split, max_nodes=4)
            for split in split_random(g, 10, seed=0)
        ]
        elapsed = time.time() - t0
        mean = float(np.mean(aucs))
        assert mean >= 0.85, f"10-fold mean AUC {mean:.4f} < 0.85"
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        rep.detail = f"10-fold mean AUC {mean:.4f} in {elapsed:.0f}s"


def _mean_table_auc(g, table_fn):
    aucs = []
    for split in split_random(g, 10, seed=0):
        aucs.append(roc_auc(table_fn(split.train), split).auc)
    return float(np.mean(aucs))


def test_07_baseline_aucs_on_aarhus():
    if not real_path("aarhus").exists():
        bail(7, "data/aarhus.edges not present; see data/README.md")
    expected = {
        "sharma": 0.800, "ra": 0.772, "aa": 0.770,
        "cn": 0.759, "pa": 0.567, "ja": 0.771,
    }
    with criterion(7) as rep:
        g = load_real("aarhus")
        got = {"sharma": _mean_table_auc(g, sharma_scores)}
        for method in CLASSICAL_METHODS:
            got[method] = _mean_table_auc(
                g, lambda tg, m=method: classical_on_multiplex(tg, m)
            )
        for name, want in expected.items():
            assert abs(got[name] - want) <= 0.05, (
                f"{name}: AUC {got[name]:.4f} outside {want}+-0.05"
            )
        rep.detail = ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(got.items())
        )


def _ensemble_ordering(g, sigma=None, max_nodes=3):
    split = split_random(g, 10, seed=0)[0]
    tg = split.train
    if sigma is None:
        sigma = max(tg.smallest_layer_size(), 1)
    pats = mine(tg, MinerConfig(min_support=sigma, max_nodes=max_nodes))
    close = [
        r for r in build_rules(pats, tg, min_conf=0.0) if not r.new_node
    ]
    tables = [score_links(tg, close, scheme="conf"), sharma_scores(tg)]
    tables += [classical_on_multiplex(tg, m) for m in CLASSICAL_METHODS]
    pos = split.positive_keys()
    keys = np.concatenate([pos, candidates(split, "full")])
    labels = np.array([True] * len(pos) + [False] * (len(keys) - len(pos)))

    def auc_of(scores):
        return mann_whitney_auc(scores, labels)

    individual = max(auc_of(t.scores_for(keys, split.space)) for t in tables)
    base = auc_of(ensemble(tables, keys, pos, split.space, mode="base"))
    over = auc_of(ensemble(tables, keys, pos, split.space, mode="over", seed=0))
    return individual, base, over


def test_08_overfit_ensemble_dominates():
    present = [n for n in SMALL_DATASETS if real_path(n).exists()]
    with criterion(8) as rep:
        details = []
        synth = generate(SynthConfig(
            layer_sizes=(40, 30), communities=2, p_in=0.12, p_out=0.01,
            seed=0, backbone=((1, 2), (3,)),
        ))
        indiv, base, over = _ensemble_ordering(synth, sigma=10)
        assert over >= base - 1e-9, f"over {over:.4f} < base {base:.4f}"
        assert over >= indiv - 1e-9, f"over {over:.4f} < best {indiv:.4f}"
        details.append(f"synthetic over {over:.3f} >= "
                       f"base {base:.3f}, best {indiv:.3f}")
        for name in present:
            indiv, base, over = _ensemble_ordering(load_real(name))
            assert over >= base - 1e-9, f"{name}: over < base"
            assert over >= indiv - 1e-9, f"{name}: over < best individual"
            details.append(f"{name} over {over:.3f}")
        rep.detail = "; ".join(details)
        if len(present) < len(SMALL_DATASETS):
            missing = sorted(set(SMALL_DATASETS) - set(present))
            rep.skip = ("; ".join(details) + "; real datasets missing: "
                        + ", ".join(missing))


def _weighting_concordance(g, sigma, max_nodes=3):
    split = split_random(g, 10, seed=0)[0]
    tg = split.train
    pats = mine(tg, MinerConfig(min_support=sigma, max_nodes=max_nodes))
    close = [
        r for r in build_rules(pats, tg, min_conf=0.0) if not r.new_node
    ]
    t_conf = score_links(tg, close, scheme="conf")
    t_count = score_links(tg, close, scheme="count")
    keys = tg.space.encode(sorted(set(t_conf.scores) | set(t_count.scores)))
    x = t_conf.scores_for(keys, tg.space)
    y = t_count.scores_for(keys, tg.space)
    return float(kendalltau(x, y).statistic), len(keys)


def test_09_count_and_conf_weightings_agree():
    if not real_path("aarhus").exists():
        synth = generate(SynthConfig(
            layer_sizes=(40, 30), communities=2, p_in=0.12, p_out=0.01,
            seed=0, backbone=((1, 2), (3,)),
        ))
        tau, n = _weighting_concordance(synth, sigma=10)
        bail(9, f"data/aarhus.edges not present; synthetic stand-in "
                f"tau {tau:.3f} over {n} scored pairs")
    with criterion(9) as rep:
        g = load_real("aarhus")
        sigma = max(g.smallest_layer_size(), 1)
        tau, n = _weighting_concordance(g, sigma)
        assert tau >= 0.9, f"kendall tau {tau:.4f} < 0.9"
        rep.detail = f"kendall tau {tau:.4f} over {n} scored pairs"


# -- criterion 10: predicting where new nodes attach ------------------------


def _growth_host():
    hubs = [f"h{i:02d}" for i in range(16)]
    triples = []
    for c in range(4):
        clique = hubs[4 * c:4 * c + 4]
        for i in range(4):
            for j in range(i + 1, 4):
                triples.append((clique[i], clique[j], "f"))
    for i in range(48):
        triples.append((hubs[i // 3], f"p{i:02d}", "f"))
    return hubs, triples, {h: "h" for h in hubs}


def test_10_new_node_attachment():
    train_p = DATA / "pardus_train.edges"
    test_p = DATA / "pardus_test.edges"
    if train_p.exists() and test_p.exists():
        with criterion(10) as rep:
            train_g = load_graph(str(train_p), None, directed=True)
            test_g = load_graph(str(test_p), None, directed=True)
            split = split_from_graphs(train_g, test_g)
            sigma = max(train_g.smallest_layer_size(), 1)
            pats = mine(train_g, MinerConfig(min_support=sigma, max_nodes=3))
            rules = build_rules(pats, train_g, min_conf=0.0)
            nn = [r for r in rules if r.new_node]
            rep_eval = evaluate_old_new(
                score_old_new(train_g, nn, scheme="conf"), split
            )
            assert rep_eval.auc > 0.55, f"old-new AUC {rep_eval.auc:.4f}"
            rep.detail = f"temporal old-new AUC {rep_eval.auc:.4f}"
        return
    # Growth stand-in: hub-and-pendant host where only hub slots ever gain
    # neighbors, so attachment rules must rank hubs above pendants.
    with criterion(10) as rep:
        hubs, triples, attrs = _growth_host()
        train = MultiplexGraph(triples, attrs=attrs, directed=False)
        pats = mine(train, MinerConfig(min_support=8, max_nodes=3))
        nn = [
            r for r in build_rules(pats, train, min_conf=0.0) if r.new_node
        ]
        table = score_old_new(train, nn, scheme="conf")
        aucs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            extra = [
                (f"x{k}", h, "f")
                for k in range(8)
                for h in rng.choice(hubs, size=2, replace=False)
            ]
            test = MultiplexGraph(
                triples + extra, attrs=attrs, directed=False
            )
            split = split_from_graphs(train, test)
            aucs.append(evaluate_old_new(table, split).auc)
        mean = float(np.mean(aucs))
        assert mean > 0.7, f"mean old-new AUC {mean:.4f} over 5 seeds"
        rep.detail = (
            f"planted growth, mean old-new AUC {mean:.4f} "
            f"(min {min(aucs):.4f}) over 5 seeds"
        )


# -- criterion 11: AUC equals explicit pairwise counting --------------------


def test_11_auc_matches_pairwise_counting():
    sizes = [
        (3, 4), (10, 10), (1, 50), (50, 1), (128, 256),
        (500, 500), (1000, 200), (200, 1000), (2000, 2000),
        (5000, 5000), (9000, 1000), (1000, 9000),
    ]
    sizes += [(40, 60)] * (20 - len(sizes))
    rng = np.random.default_rng(1106)
    with criterion(11) as rep:
        worst = 0.0
        for i, (n_pos, n_neg) in enumerate(sizes):
            if i % 3 == 0:
                pos = rng.integers(0, 4, size=n_pos).astype(float)
                neg = rng.integers(0, 4, size=n_neg).astype(float)
            elif i % 3 == 1:
                pos = rng.normal(0.3, 1.0, size=n_pos)
                neg = rng.normal(0.0, 1.0, size=n_neg)
            else:
                pos = np.round(rng.random(n_pos), 1)
                neg = np.round(rng.random(n_neg), 1)
            scores = np.concatenate([pos, neg])
            labels = np.concatenate([
                np.ones(n_pos, dtype=bool), np.zeros(n_neg, dtype=bool)
            ])
            got = mann_whitney_auc(scores, labels)
            want = oracle_auc(pos, neg)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-12, (
                f"set {i} ({n_pos}/{n_neg}): |{got!r} - {want!r}| > 1e-12"
            )
        rep.detail = f"20 sets, max |difference| {worst:.2e}"


# -- criterion 12: coupled encoding round trip ------------------------------


def test_12_coupled_round_trip():
    rng = np.random.default_rng(9307)
    with criterion(12) as rep:
        for i in range(100):
            n = int(rng.integers(3, 51))
            n_layers = int(rng.integers(1, 5))
            directed = bool(rng.integers(2))
            units = int(rng.integers(1, 3 * n))
            g = rand_host(rng, n, n_layers, units, directed)
            back = from_coupled(to_coupled(g))
            assert back == g, f"random graph {i} changed in the round trip"
        names = [n for n in REAL_DIRECTED if real_path(n).exists()]
        for name in names:
            g = load_real(name)
            assert from_coupled(to_coupled(g)) == g, name
        pardus = DATA / "pardus_train.edges"
        if pardus.exists():
            g = load_graph(str(pardus), None, directed=True)
            assert from_coupled(to_coupled(g)) == g, "pardus"
            names.append("pardus")
        rep.detail = (
            "100 random graphs identical"
            + (f"; real: {', '.join(names)}" if names else "")
        )
        if len(names) < 4:
            missing = sorted(
                set(list(REAL_DIRECTED) + ["pardus"]) - set(names)
            )
            rep.skip = ("100 random graphs identical; real datasets "
                        "missing: " + ", ".join(missing))


# -- criterion 13: scored candidates stay sparse ----------------------------


def _sparsity(g, sigma):
    split = split_random(g, 10, seed=0)[0]
    tg = split.train
    pats = mine(tg, MinerConfig(min_support=sigma, max_nodes=3))
    close = [
        r for r in build_rules(pats, tg, min_conf=0.0) if not r.new_node
    ]
    table = score_links(tg, close, scheme="conf")
    pos = split.positives_of(CAT_OLD_OLD)
    full = len(pos) + len(candidates(split, "full"))
    return len(table.scores), full


def test_13_score_table_smaller_than_full_enumeration():
    present = [n for n in SMALL_DATASETS if real_path(n).exists()]
    with criterion(13) as rep:
        synth = generate(SynthConfig(
            layer_sizes=(40, 30), communities=2, p_in=0.12, p_out=0.01,
            seed=0, backbone=((1, 2), (3,)),
        ))
        scored, full = _sparsity(synth, sigma=10)
        assert scored < full, f"synthetic: {scored} scored vs {full} full"
        details = [f"synthetic {scored} < {full}"]
        for name in present:
            g = load_real(name)
            scored, full = _sparsity(g, max(g.smallest_layer_size(), 1))
            assert scored < full, f"{name}: {scored} scored vs {full} full"
            details.append(f"{name} {scored} < {full}")
        rep.detail = "; ".join(details)
        if len(present) < len(SMALL_DATASETS):
            missing = sorted(set(SMALL_DATASETS) - set(present))
            rep.skip = ("; ".join(details) + "; real datasets missing: "
                        + ", ".join(missing))
