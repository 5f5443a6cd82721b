"""End-to-end checks for the command-line layer.

Every writing command must leave an output file plus a manifest recording
parameters and content digests, exit 0 on success, and exit 2 with a
diagnostic on stderr (leaving no partial output) on bad input.
"""

import hashlib
import json
import resource
import sys

import pytest

from mrk import __version__
from mrk.baselines import classical_on_multiplex, sharma_scores
from mrk.cli import PREDICTORS, run
from mrk.graph import ATTR_DEFAULT, load_graph
from mrk.miner import DEFAULT_BUDGET, MinerConfig, mine, pattern_from_dict, \
    pattern_to_dict
from mrk.predictor import read_scores_csv, score_links, score_old_new
from mrk.rules import build_rules, rule_to_dict
from mrk.synth import SynthConfig, generate

# Two layers sharing a triangle; layer a has one extra spoke.  Small enough
# to mine in milliseconds, rich enough to produce cross-layer rules.
HOST_LINES = "1 2 a\n2 3 a\n3 1 a\n3 4 a\n1 2 b\n2 3 b\n"

# Seven nodes, both layers incomplete: random folds keep at least one
# positive and one negative on both sides for seed 7.
BAND_A = [(u, u + 1) for u in range(1, 7)] + [(u, u + 2) for u in range(1, 6)]
BAND_B = [(1, 4), (4, 7), (2, 5), (1, 5), (3, 6), (2, 6), (3, 7)]

# Temporal pair: the later snapshot adds two edges between known nodes and
# one edge reaching a brand-new node.
TRAIN_PAIRS = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 5)]
TEST_PAIRS = TRAIN_PAIRS + [(2, 4), (3, 5), (5, 6)]


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def manifest_of(out_path):
    with open(out_path + ".manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def host_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli-host") / "host.txt"
    p.write_text(HOST_LINES)
    return str(p)


@pytest.fixture(scope="module")
def band_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli-band") / "band.txt"
    lines = [f"{u} {v} a" for u, v in BAND_A]
    lines += [f"{u} {v} b" for u, v in BAND_B]
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture(scope="module")
def temporal_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-temporal")
    tr, te = d / "train.txt", d / "test.txt"
    tr.write_text("".join(f"{u} {v} a\n" for u, v in TRAIN_PAIRS))
    te.write_text("".join(f"{u} {v} a\n" for u, v in TEST_PAIRS))
    return str(tr), str(te)


@pytest.fixture(scope="module")
def patterns_file(host_file, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli-mined") / "patterns.json")
    assert run(["mine", "--input", host_file, "--support", "2",
                "--max-size", "3", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def rules_file(host_file, patterns_file, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli-rules") / "rules.json")
    assert run(["rules", "--input", host_file, "--patterns", patterns_file,
                "--out", out]) == 0
    return out


# -- top level ---------------------------------------------------------------


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_subcommand_short_help(capsys):
    assert run(["mine", "-h"]) == 0
    out = capsys.readouterr().out
    assert "--support" in out and "--directed" in out


# -- mine --------------------------------------------------------------------


def test_mine_output_and_manifest(tmp_path, capsys, host_file):
    out = str(tmp_path / "p.json")
    assert run(["mine", "--input", host_file, "--support", "2",
                "--max-size", "3", "--out", out]) == 0
    echoed = capsys.readouterr().out
    doc = json.load(open(out))
    assert isinstance(doc, list) and len(doc) > 0
    assert f"{len(doc)} frequent patterns (support >= 2)" in echoed

    m = manifest_of(out)
    assert m["command"] == "mine"
    assert m["seed"] is None
    assert m["version"] == __version__
    assert m["params"] == {
        "input": host_file, "attrs": None, "directed": False,
        "comune": False, "support": 2, "max_size": 3,
        "budget": DEFAULT_BUDGET, "format": "json",
        "out": out,
    }
    assert m["inputs"] == {host_file: sha256_of(host_file)}
    assert m["outputs"] == {out: sha256_of(out)}
    assert set(m["timings"]) >= {"load", "mine", "write"}


def test_mine_matches_library(host_file, patterns_file):
    g = load_graph(host_file, None, directed=False)
    lib = mine(g, MinerConfig(min_support=2, max_nodes=3))
    assert json.load(open(patterns_file)) == [pattern_to_dict(p) for p in lib]


def test_mine_default_support_recorded(tmp_path, host_file):
    out = str(tmp_path / "p.json")
    assert run(["mine", "--input", host_file, "--out", out]) == 0
    # layer b spans three nodes, the smaller of the two layers
    assert manifest_of(out)["params"]["support"] == 3


def test_mine_support_from_environment(tmp_path, host_file, monkeypatch):
    monkeypatch.setenv("MRK_SIGMA", "2")
    out = str(tmp_path / "p.json")
    assert run(["mine", "--input", host_file, "--out", out]) == 0
    assert manifest_of(out)["params"]["support"] == 2


def test_mine_lg_format(tmp_path, host_file):
    out = str(tmp_path / "p.lg")
    assert run(["mine", "--input", host_file, "--support", "2",
                "--max-size", "3", "--format", "lg", "--out", out]) == 0
    assert open(out).read().startswith("t # 0 s ")


def test_mine_replay_is_byte_identical(tmp_path, host_file):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert run(["mine", "--input", host_file, "--support", "2",
                    "--max-size", "3", "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_mine_directed_flag(tmp_path):
    # one undirected edge is stored in both directions, so both the single
    # edge and the reciprocal pair reach support 2; read as directed the
    # file is a single unit and nothing is frequent
    edge = tmp_path / "one.txt"
    edge.write_text("1 2 a\n")
    out_u = str(tmp_path / "u.json")
    out_d = str(tmp_path / "d.json")
    assert run(["mine", "--input", str(edge), "--support", "2",
                "--out", out_u]) == 0
    assert run(["mine", "--input", str(edge), "--directed", "--support", "2",
                "--out", out_d]) == 0
    assert len(json.load(open(out_u))) == 2
    assert json.load(open(out_d)) == []


def test_mine_comune_format_equivalent(tmp_path, host_file, patterns_file):
    alt = tmp_path / "host_comune.txt"
    alt.write_text("".join(
        f"{l} {u} {v} 1\n"
        for u, v, l in (line.split() for line in HOST_LINES.splitlines())
    ))
    out = str(tmp_path / "p.json")
    assert run(["mine", "--input", str(alt), "--comune", "--support", "2",
                "--max-size", "3", "--out", out]) == 0
    assert open(out).read() == open(patterns_file).read()


def test_mine_attrs_flag(tmp_path, host_file):
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("1 p\n2 q\n3 p\n4 q\n")
    plain, tagged = str(tmp_path / "plain.json"), str(tmp_path / "tag.json")
    assert run(["mine", "--input", host_file, "--support", "2",
                "--max-size", "3", "--out", plain]) == 0
    assert run(["mine", "--input", host_file, "--attrs", str(attrs),
                "--support", "2", "--max-size", "3", "--out", tagged]) == 0
    seen = {a for d in json.load(open(plain)) for a in d["nodes"]}
    assert seen == {ATTR_DEFAULT}
    seen = {a for d in json.load(open(tagged)) for a in d["nodes"]}
    assert "p" in seen and "q" in seen


def test_mine_bad_support_exits_2(tmp_path, capsys, host_file):
    out = str(tmp_path / "p.json")
    assert run(["mine", "--input", host_file, "--support", "0",
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "support threshold" in err
    assert not (tmp_path / "p.json").exists()
    assert not (tmp_path / "p.json.manifest.json").exists()


def test_mine_past_the_slot_limit_exits_2(tmp_path, capsys, host_file):
    out = str(tmp_path / "p.json")
    assert run(["mine", "--input", host_file, "--max-size", "11",
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "<= 10" in err
    assert not (tmp_path / "p.json").exists()


def test_malformed_edge_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    out = str(tmp_path / "p.json")
    assert run(["mine", "--input", str(bad), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad.txt:1" in err and "expected 'src dst layer'" in err
    assert not (tmp_path / "p.json").exists()


def test_missing_required_option_exits_2(capsys, host_file):
    assert run(["mine", "--input", host_file]) == 2
    assert "--out" in capsys.readouterr().err


def test_bad_choice_exits_2(tmp_path, capsys, host_file):
    assert run(["baseline", "--graph", host_file, "--method", "bogus",
                "--out", str(tmp_path / "s.csv")]) == 2
    assert "bogus" in capsys.readouterr().err


# Every writing command: its long options, which key the manifest's params,
# and the stages its manifest times.
GRAPH_KEYS = {"attrs", "directed", "comune"}
WRITING_COMMANDS = {
    "mine": (GRAPH_KEYS | {"input", "support", "max_size", "budget",
                           "format", "out"}, {"load", "mine", "write"}),
    "rules": (GRAPH_KEYS | {"input", "patterns", "min_conf", "min_lift",
                            "layer", "out"}, {"load", "rules", "write"}),
    "predict": (GRAPH_KEYS | {"graph", "rules", "weighting", "per_embedding",
                              "old_new", "budget", "out"},
                {"load", "score", "write"}),
    "baseline": (GRAPH_KEYS | {"graph", "method", "out"},
                 {"load", "score", "write"}),
    "evaluate": (GRAPH_KEYS | {"input", "test_input", "predictor", "folds",
                               "seed", "negatives", "support", "max_size",
                               "weighting", "old_new", "budget", "out_dir"},
                 {"load", "evaluate", "write"}),
    "gen-synth": ({"sizes", "communities", "pin", "pout", "seed", "backbone",
                   "out"}, {"generate", "write"}),
    "transform": (GRAPH_KEYS | {"input", "to", "out"}, {"transform", "write"}),
}


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
def test_manifest_records_the_command(tmp_path, command, host_file,
                                      patterns_file, rules_file, band_file):
    out = str(tmp_path / "out")
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("1 p\n2 q\n3 p\n4 q\n")
    attrs = str(attrs)
    manifest, seed, inputs, outputs = out + ".manifest.json", None, [], [out]
    if command == "mine":
        argv = ["--input", host_file, "--attrs", attrs, "--support", "2"]
        inputs = [host_file, attrs]
    elif command == "rules":
        argv = ["--input", host_file, "--patterns", patterns_file]
        inputs = [host_file, patterns_file]
    elif command == "predict":
        argv = ["--graph", host_file, "--rules", rules_file]
        inputs = [host_file, rules_file]
    elif command == "baseline":
        argv = ["--graph", host_file, "--method", "aa"]
        inputs = [host_file]
    elif command == "evaluate":
        argv = ["--input", band_file, "--folds", "2", "--seed", "7",
                "--support", "2", "--max-size", "3"]
        manifest, seed, inputs = str(tmp_path / "manifest.json"), 7, [band_file]
        outputs = [str(tmp_path / f) for f in
                   ("roc_fold00.csv", "roc_fold01.csv", "summary.json")]
    elif command == "gen-synth":
        argv, seed = ["--sizes", "12,8", "--seed", "3"], 3
    else:
        argv = ["--input", host_file, "--attrs", attrs, "--to", "coupled"]
        inputs, outputs = [host_file, attrs], [out, out + ".attrs"]
    out_flag = (["--out-dir", str(tmp_path)] if command == "evaluate"
                else ["--out", out])
    assert run([command] + argv + out_flag) == 0

    m = json.load(open(manifest))
    keys, stages = WRITING_COMMANDS[command]
    assert m["command"] == command
    assert set(m["params"]) == keys
    assert m["seed"] == seed
    assert m["inputs"] == {p: sha256_of(p) for p in inputs}
    assert m["outputs"] == {p: sha256_of(p) for p in outputs}
    assert set(m["timings"]) == stages
    assert m["version"] == __version__
    # Peak RSS so far when each stage ended; the command ran in this
    # process, so none is above this process's peak now.
    now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        2**20 if sys.platform == "darwin" else 2**10)
    assert set(m["peak_rss_mib"]) == stages
    assert all(0 < v <= now + 1e-3 for v in m["peak_rss_mib"].values())


# -- rules -------------------------------------------------------------------


def test_rules_match_library(host_file, patterns_file, rules_file):
    g = load_graph(host_file, None, directed=False)
    pats = [pattern_from_dict(d) for d in json.load(open(patterns_file))]
    lib = build_rules(pats, g)
    assert json.load(open(rules_file)) == [rule_to_dict(r) for r in lib]
    m = manifest_of(rules_file)
    assert set(m["inputs"]) == {host_file, patterns_file}


def test_rules_layer_filter(tmp_path, host_file, patterns_file):
    out = str(tmp_path / "r.json")
    assert run(["rules", "--input", host_file, "--patterns", patterns_file,
                "--layer", "b", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc and all(d["delta_edge"][2] == "b" for d in doc)


def test_rules_min_conf_filter(tmp_path, host_file, patterns_file):
    out = str(tmp_path / "r.json")
    assert run(["rules", "--input", host_file, "--patterns", patterns_file,
                "--min-conf", "0.8", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc and all(d["confidence"] >= 0.8 for d in doc)
    g = load_graph(host_file, None, directed=False)
    pats = [pattern_from_dict(d) for d in json.load(open(patterns_file))]
    assert len(doc) == len(build_rules(pats, g, min_conf=0.8))


def test_rules_non_json_patterns_exit_2(tmp_path, capsys, host_file):
    lg = str(tmp_path / "p.lg")
    assert run(["mine", "--input", host_file, "--support", "2",
                "--max-size", "3", "--format", "lg", "--out", lg]) == 0
    out = str(tmp_path / "r.json")
    assert run(["rules", "--input", host_file, "--patterns", lg,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a JSON pattern file" in err
    assert not (tmp_path / "r.json").exists()


def test_rules_pattern_without_support_exits_2(tmp_path, capsys, host_file,
                                               patterns_file):
    doc = json.load(open(patterns_file))
    del doc[0]["support"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    out = str(tmp_path / "r.json")
    assert run(["rules", "--input", host_file, "--patterns", str(bare),
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "carries no support" in err
    assert not (tmp_path / "r.json").exists()


# -- predict -----------------------------------------------------------------


def test_predict_links_matches_library(tmp_path, capsys, host_file,
                                       rules_file):
    out = str(tmp_path / "scores.csv")
    assert run(["predict", "--graph", host_file, "--rules", rules_file,
                "--out", out]) == 0
    g = load_graph(host_file, None, directed=False)
    from mrk.cli import _read_rules
    want = score_links(g, _read_rules(rules_file), "conf")
    got = read_scores_csv(out)
    assert got.scores == want.scores
    assert f"{len(want.scores)} scored candidates" in capsys.readouterr().out


def test_predict_old_new_csv(tmp_path, host_file, rules_file):
    out = str(tmp_path / "on.csv")
    assert run(["predict", "--graph", host_file, "--rules", rules_file,
                "--old-new", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "node,layer,direction,score"
    g = load_graph(host_file, None, directed=False)
    from mrk.cli import _read_rules
    want = score_old_new(g, _read_rules(rules_file), "conf")
    got = {}
    for line in lines[1:]:
        node, layer, direction, score = line.split(",")
        got[(node, layer, direction)] = float(score)
    assert got == pytest.approx(want.scores)


def test_predict_per_embedding_flag(tmp_path, host_file, rules_file):
    out = str(tmp_path / "scores.csv")
    assert run(["predict", "--graph", host_file, "--rules", rules_file,
                "--weighting", "count", "--per-embedding", "--out", out]) == 0
    g = load_graph(host_file, None, directed=False)
    from mrk.cli import _read_rules
    want = score_links(g, _read_rules(rules_file), "count",
                       per_embedding=True)
    assert read_scores_csv(out).scores == want.scores
    assert manifest_of(out)["params"]["per_embedding"] is True


def test_read_rules_shares_antecedents_written_alike(rules_file):
    # Scoring joins each antecedent object once, so rules whose
    # antecedents are written alike must share one.
    from mrk.cli import _read_rules
    rs = _read_rules(rules_file)
    shared = {}
    for r in rs:
        a = r.antecedent
        assert shared.setdefault((a.attrs, a.edges, a.support), a) is a
    assert len(shared) < len(rs)


def test_predict_rules_past_the_slot_limit_exits_2(tmp_path, capsys,
                                                  host_file, rules_file):
    # An 11-slot path as a consequent: its code cannot be written.
    doc = json.load(open(rules_file))
    path = [[i, i + 1, "a"] for i in range(10)]
    doc[0]["consequent"] = {"nodes": [ATTR_DEFAULT] * 11, "edges": path,
                            "support": 1}
    bad = tmp_path / "rules.json"
    bad.write_text(json.dumps(doc))
    out = str(tmp_path / "scores.csv")
    assert run(["predict", "--graph", host_file, "--rules", str(bad),
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limit of 10 slots" in err
    assert not (tmp_path / "scores.csv").exists()


def test_predict_bad_rules_file_exits_2(tmp_path, capsys, host_file,
                                       patterns_file):
    # A pattern file is JSON, but its entries are not rules.
    out = str(tmp_path / "scores.csv")
    assert run(["predict", "--graph", host_file, "--rules", patterns_file,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a JSON rules file" in err
    assert not (tmp_path / "scores.csv").exists()


# -- baseline ----------------------------------------------------------------


def test_baseline_sharma(tmp_path, host_file):
    out = str(tmp_path / "s.csv")
    assert run(["baseline", "--graph", host_file, "--method", "sharma",
                "--out", out]) == 0
    g = load_graph(host_file, None, directed=False)
    assert read_scores_csv(out).scores == sharma_scores(g).scores


def test_baseline_classical(tmp_path, host_file):
    out = str(tmp_path / "s.csv")
    assert run(["baseline", "--graph", host_file, "--method", "cn",
                "--out", out]) == 0
    g = load_graph(host_file, None, directed=False)
    assert read_scores_csv(out).scores == classical_on_multiplex(g, "cn").scores


# -- evaluate ----------------------------------------------------------------


def test_evaluate_random_folds(tmp_path, capsys, band_file):
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", band_file, "--folds", "2",
                "--seed", "7", "--support", "2", "--max-size", "3",
                "--out-dir", str(out_dir)]) == 0
    assert "mean AUC" in capsys.readouterr().out

    summary = json.load(open(out_dir / "summary.json"))
    assert summary["predictor"] == "rules"
    assert summary["folds"] == 2
    assert len(summary["per_fold"]) == 2
    assert 0.0 <= summary["auc_mean"] <= 1.0
    assert summary["auc_pooled"] is not None
    for fold in (0, 1):
        roc = (out_dir / f"roc_fold{fold:02d}.csv").read_text().splitlines()
        assert roc[0] == "fpr,tpr,threshold"
        assert len(roc) > 1

    m = json.load(open(out_dir / "manifest.json"))
    assert m["command"] == "evaluate"
    assert set(m["outputs"]) == {
        str(out_dir / "roc_fold00.csv"),
        str(out_dir / "roc_fold01.csv"),
        str(out_dir / "summary.json"),
    }


@pytest.mark.parametrize("predictor", ["cn", "sharma", "ensemble-base",
                                       "ensemble-over"])
def test_evaluate_other_predictors(tmp_path, band_file, predictor):
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", band_file, "--folds", "2",
                "--seed", "7", "--support", "2", "--max-size", "3",
                "--predictor", predictor, "--out-dir", str(out_dir)]) == 0
    summary = json.load(open(out_dir / "summary.json"))
    assert summary["predictor"] == predictor
    assert 0.0 <= summary["auc_mean"] <= 1.0


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_evaluate_replay_is_byte_identical(tmp_path, band_file, predictor):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["evaluate", "--input", band_file, "--folds", "2",
                    "--seed", "7", "--support", "2", "--max-size", "3",
                    "--predictor", predictor, "--out-dir", str(out)]) == 0
    names = ["roc_fold00.csv", "roc_fold01.csv", "summary.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_evaluate_sampled_negatives(tmp_path, band_file):
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", band_file, "--folds", "2",
                "--seed", "7", "--support", "2", "--max-size", "3",
                "--negatives", "sampled:5", "--out-dir", str(out_dir)]) == 0
    summary = json.load(open(out_dir / "summary.json"))
    assert summary["folds"] == 2


@pytest.mark.parametrize("spec,fragment", [
    ("bogus", "--negatives must be"),
    ("sampled:x", "bad sample size"),
])
def test_evaluate_bad_negatives(tmp_path, capsys, band_file, spec, fragment):
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", band_file, "--negatives", spec,
                "--out-dir", str(out_dir)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out_dir.exists()


def test_evaluate_past_the_slot_limit_exits_2(tmp_path, capsys, band_file):
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", band_file, "--folds", "2",
                "--max-size", "11", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "<= 10" in err
    assert not (out_dir / "summary.json").exists()


@pytest.mark.parametrize("cmd,flags,fragment", [
    ("evaluate", ["--max-size", "11"], "<= 10"),
    ("evaluate", ["--budget", "0"], "budget must be"),
    ("evaluate", ["--support", "0"], "support threshold"),
    ("evaluate", ["--test-input", "TEST", "--max-size", "1"], ">= 2"),
    ("mine", ["--max-size", "11"], "<= 10"),
    ("mine", ["--budget", "-1"], "budget must be"),
    ("evaluate", ["--seed", "-1"], "--seed must be non-negative"),
    ("evaluate", ["--test-input", "TEST", "--seed", "-1"], "non-negative"),
    ("evaluate", ["--folds", "1"], "--folds must be at least 2"),
    ("evaluate", ["--negatives", "sampled:0"], "positive sample size"),
])
def test_bad_miner_config_fails_before_loading(
        tmp_path, capsys, band_file, monkeypatch, cmd, flags, fragment):
    import mrk.cli
    import mrk.evaluation

    def no_load(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(mrk.cli, "load_graph", no_load)
    monkeypatch.setattr(mrk.evaluation, "load_graph", no_load)
    out = ["--out-dir", str(tmp_path / "ev")] if cmd == "evaluate" else [
        "--out", str(tmp_path / "p.json")]
    flags = [band_file if f == "TEST" else f for f in flags]
    assert run([cmd, "--input", band_file, *flags, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert list(tmp_path.iterdir()) == []


def test_evaluate_old_new_requires_rules(tmp_path, capsys, band_file):
    assert run(["evaluate", "--input", band_file, "--old-new",
                "--predictor", "cn", "--out-dir", str(tmp_path / "ev")]) == 2
    assert "old-new" in capsys.readouterr().err


def test_evaluate_old_new_other_predictor_fails_before_loading(
        tmp_path, capsys, band_file, monkeypatch):
    import mrk.cli
    import mrk.evaluation

    loaded = []

    def counting_load(path, *args, **kwargs):
        loaded.append(path)
        return load_graph(path, *args, **kwargs)

    monkeypatch.setattr(mrk.cli, "load_graph", counting_load)
    monkeypatch.setattr(mrk.evaluation, "load_graph", counting_load)
    assert run(["evaluate", "--input", band_file, "--old-new",
                "--predictor", "sharma", "--out-dir", str(tmp_path / "ev")]) == 2
    assert loaded == []
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "only applies to --predictor rules" in err


def test_evaluate_old_new_sampled_negatives_fails_before_loading(
        tmp_path, capsys, band_file, monkeypatch):
    # Old-new evaluation scores every slot and samples no negatives, so a
    # sampled spec would only be recorded in the manifest.
    import mrk.cli
    import mrk.evaluation

    loaded = []

    def counting_load(path, *args, **kwargs):
        loaded.append(path)
        return load_graph(path, *args, **kwargs)

    monkeypatch.setattr(mrk.cli, "load_graph", counting_load)
    monkeypatch.setattr(mrk.evaluation, "load_graph", counting_load)
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", band_file, "--old-new",
                "--negatives", "sampled:5", "--out-dir", str(out_dir)]) == 2
    assert loaded == []
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--negatives full" in err and "'sampled:5'" in err


def test_evaluate_temporal_split(tmp_path, temporal_files):
    train, test = temporal_files
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", train, "--test-input", test,
                "--support", "2", "--max-size", "3",
                "--out-dir", str(out_dir)]) == 0
    summary = json.load(open(out_dir / "summary.json"))
    assert summary["folds"] == 1
    assert (out_dir / "roc_fold00.csv").exists()
    assert not (out_dir / "roc_fold01.csv").exists()
    # two pairs of known nodes appear only in the later snapshot; the
    # remaining absent known-node pairs are the negatives
    assert summary["per_fold"][0]["n_pos"] == 2
    assert summary["per_fold"][0]["n_neg"] == 2


def test_evaluate_temporal_loads_each_file_once(tmp_path, temporal_files,
                                               monkeypatch):
    import mrk.cli
    import mrk.evaluation

    loaded = []

    def counting_load(path, *args, **kwargs):
        loaded.append(path)
        return load_graph(path, *args, **kwargs)

    monkeypatch.setattr(mrk.cli, "load_graph", counting_load)
    monkeypatch.setattr(mrk.evaluation, "load_graph", counting_load)
    train, test = temporal_files
    assert run(["evaluate", "--input", train, "--test-input", test,
                "--support", "2", "--max-size", "3",
                "--out-dir", str(tmp_path / "ev")]) == 0
    assert sorted(loaded) == sorted([train, test])


def test_evaluate_old_new_temporal(tmp_path, temporal_files):
    train, test = temporal_files
    out_dir = tmp_path / "ev"
    assert run(["evaluate", "--input", train, "--test-input", test,
                "--support", "2", "--max-size", "3", "--old-new",
                "--out-dir", str(out_dir)]) == 0
    summary = json.load(open(out_dir / "summary.json"))
    # one attachment point for the new node; the other four known nodes'
    # slots are the negatives
    assert summary["per_fold"][0]["n_pos"] == 1
    assert summary["per_fold"][0]["n_neg"] == 4


# -- gen-synth ---------------------------------------------------------------


def test_gen_synth_output(tmp_path, capsys):
    out = str(tmp_path / "synth.txt")
    args = ["gen-synth", "--sizes", "12,8", "--communities", "2",
            "--pin", "0.9", "--pout", "0.01", "--seed", "3",
            "--backbone", "1,2", "--out", out]
    assert run(args) == 0
    assert "12 nodes" in capsys.readouterr().out

    g = load_graph(out, None, directed=False)
    assert g.n_nodes == 12
    assert g.layer_names == ("l1", "l2")
    small = {x for s, d, l in g.name_triples() if l == "l2" for x in (s, d)}
    assert small <= set(g.node_names[:8])

    m = manifest_of(out)
    assert m["params"]["backbone"] == "1,2"
    assert m["seed"] == 3

    again = str(tmp_path / "synth2.txt")
    assert run(args[:-1] + [again]) == 0
    assert open(out).read() == open(again).read()


def test_gen_synth_per_layer_backbone(tmp_path):
    out = str(tmp_path / "synth.txt")
    assert run(["gen-synth", "--sizes", "16,16", "--communities", "1",
                "--pin", "1e-9", "--pout", "0", "--seed", "9",
                "--backbone", "1;3", "--out", out]) == 0
    lib = generate(SynthConfig(
        layer_sizes=(16, 16), communities=1, p_in=1e-9, p_out=0.0,
        seed=9, backbone=((1,), (3,)),
    ))
    assert load_graph(out, None, directed=False) == lib
    assert manifest_of(out)["params"]["backbone"] == "1;3"


def test_gen_synth_bad_sizes_exits_2(tmp_path, capsys):
    out = tmp_path / "synth.txt"
    assert run(["gen-synth", "--sizes", "8,12", "--communities", "2",
                "--pin", "0.9", "--pout", "0.01", "--out", str(out)]) == 2
    assert "non-increasing" in capsys.readouterr().err
    assert not out.exists()


def test_gen_synth_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "synth.txt"
    assert run(["gen-synth", "--sizes", "12,8", "--communities", "2",
                "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be non-negative" in err
    assert not out.exists()


# -- transform ---------------------------------------------------------------


def test_transform_round_trip(tmp_path, host_file):
    coup = str(tmp_path / "coupled.txt")
    back = str(tmp_path / "back.txt")
    assert run(["transform", "--input", host_file, "--to", "coupled",
                "--out", coup]) == 0
    assert run(["transform", "--input", coup, "--attrs", coup + ".attrs",
                "--to", "multiplex", "--out", back]) == 0
    g0 = load_graph(host_file, None, directed=False)
    g1 = load_graph(back, back + ".attrs", directed=False)
    assert sorted(g0.unit_triples()) == sorted(g1.unit_triples())
    assert g0.node_names == g1.node_names
    assert g0.attrs == g1.attrs


def test_transform_warns_when_attrs_dropped(tmp_path, capsys, host_file):
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("1 p\n2 q\n3 p\n4 q\n")
    out = str(tmp_path / "coupled.txt")
    assert run(["transform", "--input", host_file, "--to", "coupled",
                "--out", out]) == 0
    assert "do not survive" not in capsys.readouterr().err
    assert run(["transform", "--input", host_file, "--attrs", str(attrs),
                "--to", "coupled", "--out", str(tmp_path / "c2.txt")]) == 0
    assert "do not survive" in capsys.readouterr().err


# -- inspect -----------------------------------------------------------------


def test_inspect_sorted_and_limited(capsys, rules_file):
    assert run(["inspect", "--rules", rules_file]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    n_rules = len(json.load(open(rules_file)))
    assert len(lines) == n_rules
    assert f"{n_rules} rule(s)" in captured.err
    lifts = [float(line.split()[0].split("=")[1]) for line in lines]
    assert lifts == sorted(lifts, reverse=True)

    assert run(["inspect", "--rules", rules_file, "--limit", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_inspect_negative_limit_exits_2(capsys, rules_file):
    assert run(["inspect", "--rules", rules_file, "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--limit" in captured.err
    assert captured.out == ""


def test_inspect_filters(capsys, rules_file):
    assert run(["inspect", "--rules", rules_file, "--min-conf", "2.0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 rule(s)" in captured.err

    assert run(["inspect", "--rules", rules_file, "--layer", "b"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.rstrip().endswith(":b)") for line in lines)

    assert run(["inspect", "--rules", rules_file, "--new-node"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all("[new-node]" in line for line in lines)


def test_inspect_nan_lift_sorts_last(tmp_path, capsys, rules_file):
    doc = json.load(open(rules_file))
    doc[0] = dict(doc[0], lift=None)
    crafted = tmp_path / "rules.json"
    crafted.write_text(json.dumps(doc))
    assert run(["inspect", "--rules", str(crafted)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("lift=nan ")
    assert all(not line.startswith("lift=nan") for line in lines[:-1])


def test_inspect_non_json_rules_exits_2(tmp_path, capsys, host_file):
    lg = str(tmp_path / "p.lg")
    assert run(["mine", "--input", host_file, "--support", "2",
                "--max-size", "3", "--format", "lg", "--out", lg]) == 0
    capsys.readouterr()
    assert run(["inspect", "--rules", lg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "not a JSON rules file" in captured.err
    assert captured.out == ""
