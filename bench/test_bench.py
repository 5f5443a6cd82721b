"""Self-tests of the benchmark: seeded inputs, span nesting, output checks,
and a short smoke run of every workload.

    python3 -m pytest bench/test_bench.py

The smoke runs execute one operation of each workload (about a minute in
all on a 2-CPU machine).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mrk  # noqa: E402
from mrk import cli, evaluation, miner, predictor, rules, synth  # noqa: E402

import outputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_identical_for_a_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    data = {}
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        d = tmp_path / sub
        d.mkdir()
        wl.setup(seed, str(d))
        data[sub] = (d / "input.edges").read_bytes()
    assert data["a"] == data["b"]
    assert data["a"] != data["c"]


def test_workloads_match_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    t = tracer.Tracer()
    assert sorted(t.metrics()) == sorted(m["name"] for m in SPEC["per_layer"])


def test_spans_nest_and_cover_every_layer(tmp_path):
    g = synth.generate(synth.SynthConfig(
        layer_sizes=(30, 20), communities=2, p_in=0.2, p_out=0.02, seed=1))
    path = str(tmp_path / "g.edges")
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, lay in g.unit_triples():
            fh.write(f"{u} {v} {lay}\n")
    original = miner.mine
    t = tracer.Tracer()
    t.install()
    try:
        assert miner.mine is not original and mrk.mine is not original
        with t.span("bench.op"):
            split = evaluation.split_random(g, 3, 0)[0]
            pats = miner.mine(split.train, miner.MinerConfig(8, 3))
            rs = rules.build_rules(pats, split.train)
            table = predictor.score_links(split.train, rs)
            evaluation.roc_auc(table, split, evaluation.candidates(split))
            assert cli.run([
                "evaluate", "--input", path, "--predictor", "ensemble-base",
                "--folds", "2", "--support", "8", "--max-size", "2",
                "--out-dir", str(tmp_path / "eval"),
            ]) == 0
    finally:
        t.uninstall()
    assert miner.mine is original and mrk.mine is original
    assert t.nesting_errors() == []
    assert all(st >= 0 for st in t.self_times())
    assert set(t.layer_self()) == set(tracer.LAYERS) | {"bench"}
    names = [s.name for s in t.spans]
    run = names.index("cli.run")
    inside = [s.name for s in t.spans[run + 1:] if s.start < t.spans[run].end]
    assert "baselines.ensemble" in inside and "graph.load_graph" in inside
    m = t.metrics()
    assert m["miner.candidates_tested"] > m["miner.frequent"] > 0
    assert m["rules.close"] > 0 and m["baselines.ensemble_keys"] > 0
    assert m["cli.self_s"] > 0 and m["baselines.ensemble_s"] > 0


def test_compare_uses_the_stated_tolerance():
    ref = {"auc": 0.75, "n": 3, "xs": [1.0, 2.0]}
    assert outputs.compare(ref, {"auc": 0.75 * (1 + 1e-12), "n": 3, "xs": [1.0, 2.0]}) == []
    assert outputs.compare(ref, {"auc": 0.75 * (1 + 1e-6), "n": 3, "xs": [1.0, 2.0]})
    assert outputs.compare(ref, {"auc": 0.75, "n": 4, "xs": [1.0, 2.0]})
    assert outputs.compare(ref, {"auc": 0.75, "n": 3, "xs": [1.0]})


def test_table_summary_ignores_insertion_order():
    a = {("a", "b", "l1"): 0.1, ("a", "c", "l1"): 0.2, ("b", "c", "l2"): 0.3}
    b = dict(reversed(list(a.items())))
    assert outputs.table_summary(a) == outputs.table_summary(b)
    b[("b", "c", "l2")] = 0.3000001
    assert outputs.compare(outputs.table_summary(a), outputs.table_summary(b))


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "deep-w2", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    res = _result(_run("--workload", name, "--seed", "0", "--seconds", "1",
                       "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_traced_run():
    proc = _run("--workload", "deep-w2", "--seed", "0", "--seconds", "1",
                "--trace", "1")
    res = _result(proc)
    assert res["correct"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    assert record["nesting_errors"] == [] and record["purpose_failures"] == []
