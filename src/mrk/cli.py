"""Command-line front end.

Every writing subcommand produces its output atomically and drops a JSON
manifest next to it recording the command, resolved parameters, input file
digests, seed, tool version, stage timings, and the peak RSS when each
stage ended.  Every option can also be set through an environment
variable named ``MRK_`` plus its parameter name in upper case, the name
in the subcommand's signature: ``MRK_SIGMA`` sets ``--support`` and
``MRK_OUT_PATH`` sets ``--out``.  The names carry no subcommand, so one
variable applies to every subcommand with that parameter.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import click
import numpy as np

from . import __version__
from .baselines import (
    CLASSICAL_METHODS,
    classical_on_multiplex,
    ensemble,
    sharma_scores,
)
from .errors import MrkError
from .evaluation import (
    EvalReport,
    candidates,
    evaluate_old_new,
    load_temporal,
    roc_auc,
    split_random,
    summary_dict,
)
from .graph import (
    ATTR_DEFAULT,
    CoupledMultigraph,
    MultiplexGraph,
    from_coupled,
    load_graph,
    to_coupled,
    write_attr_file,
    write_edge_file,
)
from .miner import (
    DEFAULT_BUDGET,
    MinerConfig,
    Pattern,
    canonical_forms,
    mine,
    pattern_from_dict,
    pattern_to_dict,
    patterns_to_lg,
)
from .predictor import (
    WEIGHTING_SCHEMES,
    score_links,
    score_old_new,
    write_old_new_csv,
    write_scores_csv,
)
from .rules import Rule, build_rules, rule_from_dict, rule_to_dict
from .synth import SynthConfig, generate

PREDICTORS = (
    "rules", "sharma", "cn", "aa", "ra", "pa", "ja",
    "ensemble-base", "ensemble-over",
)

CTX = {"auto_envvar_prefix": "MRK", "help_option_names": ["-h", "--help"]}

_budget_option = click.option(
    "--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
    help="Cap on the candidate embedding rows one pattern generates: in "
         "mining, its one join step from its parent's table; in a fresh "
         "join, every step.")


# -- manifest and atomic output ---------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path: str, fill: Callable[[str], None]) -> None:
    """Let ``fill`` write a sibling temp path, then move it over ``path``,
    so failures never leave partial output."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    os.close(fd)
    try:
        fill(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))


def _write_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass
class RunManifest:
    """Reproducibility record written alongside every output artifact."""

    command: str
    params: Dict[str, object]
    seed: Optional[int] = None
    inputs: Dict[str, str] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    peak_rss_mib: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of_command(cls) -> "RunManifest":
        """The running command's manifest: its parameters keyed by long
        option name, and digests of the files its options must name."""
        ctx = click.get_current_context()
        params, inputs = {}, {}
        for p in ctx.command.params:
            value = ctx.params[p.name]
            params[p.opts[0].lstrip("-").replace("-", "_")] = value
            if isinstance(p.type, click.Path) and p.type.exists and value:
                inputs[value] = _sha256(value)
        return cls(ctx.info_name, params, ctx.params.get("seed"), inputs)

    @contextmanager
    def stage(self, name: str):
        """Record the wall-clock time of the enclosed block as ``name``,
        and the process's peak RSS in MiB when the block ends."""
        import resource  # read only here, so importing mrk.cli skips it

        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is in KiB, but in bytes on macOS.
        self.peak_rss_mib[name] = rss / (2**20 if sys.platform == "darwin"
                                         else 2**10)

    def write(self, path: str, *outputs: str) -> None:
        """Write the manifest to ``path`` with digests of the finished
        ``outputs``."""
        _write_json(path, {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": {o: _sha256(o) for o in outputs},
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "peak_rss_mib": {k: round(v, 3)
                             for k, v in self.peak_rss_mib.items()},
            "version": __version__,
        })


def _read_rules(path: str) -> List[Rule]:
    """Rules of a JSON file.  Rules whose antecedents are written alike
    share one antecedent object, so scoring joins each one once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rules = [rule_from_dict(d) for d in json.load(fh)]
    except (ValueError, KeyError, TypeError) as exc:
        raise MrkError(f"{path}: not a JSON rules file: {exc}")
    shared: Dict[tuple, Pattern] = {}
    rules = [
        replace(r, antecedent=shared.setdefault(
            (r.antecedent.attrs, r.antecedent.edges, r.antecedent.support),
            r.antecedent))
        for r in rules
    ]
    canonical_forms([*shared.values(), *(r.consequent for r in rules)])
    return rules


def _miner_config(sigma: Optional[int], max_nodes: int,
                  budget: int) -> MinerConfig:
    """The mining parameters, checked before any input is read.  An unset
    support stands at 1 until :func:`_resolve_support` sets it."""
    try:
        return MinerConfig(min_support=1 if sigma is None else sigma,
                           max_nodes=max_nodes, budget=budget)
    except ValueError as exc:
        raise MrkError(str(exc))


def _resolve_support(manifest: RunManifest, config: MinerConfig,
                     g: MultiplexGraph) -> MinerConfig:
    """``config`` with the default support, the smallest layer's node
    count, when the command was given none; the manifest records it."""
    if manifest.params["support"] is not None:
        return config
    sigma = manifest.params["support"] = max(g.smallest_layer_size(), 1)
    return replace(config, min_support=sigma)


# -- shared options ---------------------------------------------------------


def _graph_options(flag: str):
    """The graph file option ``flag`` plus how to read it."""

    def decorate(fn):
        fn = click.option(
            "--attrs", "attr_path", type=click.Path(exists=True, dir_okay=False),
            default=None, help="Optional node attribute file.",
        )(fn)
        fn = click.option(
            "--directed/--undirected", "directed", default=False,
            help="Edge semantics of the input (default undirected).",
        )(fn)
        fn = click.option(
            "--comune", is_flag=True, default=False,
            help="Input lines are 'layer src dst [weight]'.",
        )(fn)
        return click.option(
            flag, "edge_path", required=True,
            type=click.Path(exists=True, dir_okay=False),
        )(fn)

    return decorate


@click.group(context_settings=CTX)
@click.version_option(__version__, prog_name="mrk")
def main():
    """Multiplex pattern mining, association rules, and link prediction."""


# -- mine -------------------------------------------------------------------


@main.command("mine", context_settings=CTX)
@_graph_options("--input")
@click.option("--support", "sigma", type=int, default=None,
              help="Support threshold; default: smallest layer's node count.")
@click.option("--max-size", "max_nodes", type=int, default=4, show_default=True,
              help="Pattern size cap in nodes, 2 to 10.")
@_budget_option
@click.option("--format", "fmt", type=click.Choice(["json", "lg"]),
              default="json", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def mine_cmd(edge_path, attr_path, directed, comune, sigma, max_nodes,
             budget, fmt, out_path):
    """Mine frequent multiplex patterns from an edge file."""
    config = _miner_config(sigma, max_nodes, budget)
    manifest = RunManifest.of_command()
    with manifest.stage("load"):
        g = load_graph(edge_path, attr_path, directed=directed, comune=comune)
    config = _resolve_support(manifest, config, g)
    with manifest.stage("mine"):
        patterns = mine(g, config)
    with manifest.stage("write"):
        if fmt == "lg":
            _write_text(out_path, patterns_to_lg(patterns))
        else:
            _write_json(out_path, [pattern_to_dict(p) for p in patterns])
    manifest.write(out_path + ".manifest.json", out_path)
    click.echo(f"{len(patterns)} frequent patterns "
               f"(support >= {config.min_support})")


# -- rules ------------------------------------------------------------------


@main.command("rules", context_settings=CTX)
@_graph_options("--input")
@click.option("--patterns", "patterns_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--min-conf", type=float, default=0.0, show_default=True)
@click.option("--min-lift", type=float, default=None)
@click.option("--layer", "layer_filter", default=None,
              help="Keep only rules predicting an edge on this layer.")
@click.option("--out", "out_path", required=True, type=click.Path())
def rules_cmd(edge_path, attr_path, directed, comune, patterns_path,
              min_conf, min_lift, layer_filter, out_path):
    """Build association rules from a mined pattern file."""
    manifest = RunManifest.of_command()
    with manifest.stage("load"):
        g = load_graph(edge_path, attr_path, directed=directed, comune=comune)
        try:
            with open(patterns_path, "r", encoding="utf-8") as fh:
                patterns = [pattern_from_dict(d) for d in json.load(fh)]
        except (ValueError, KeyError, TypeError) as exc:
            raise MrkError(f"{patterns_path}: not a JSON pattern file: {exc}")
    with manifest.stage("rules"):
        try:
            rs = build_rules(patterns, g, min_conf=min_conf, min_lift=min_lift)
        except ValueError as exc:  # a pattern without its support
            raise MrkError(f"{patterns_path}: {exc}")
        if layer_filter is not None:
            rs = [r for r in rs if r.delta_edge[2] == layer_filter]
    with manifest.stage("write"):
        _write_json(out_path, [rule_to_dict(r) for r in rs])
    manifest.write(out_path + ".manifest.json", out_path)
    click.echo(f"{len(rs)} rules")


# -- predict ----------------------------------------------------------------


@main.command("predict", context_settings=CTX)
@_graph_options("--graph")
@click.option("--rules", "rules_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--weighting", type=click.Choice(WEIGHTING_SCHEMES),
              default="conf", show_default=True)
@click.option("--per-embedding", is_flag=True, default=False,
              help="Count every embedding instead of each rule once.")
@click.option("--old-new", "old_new", is_flag=True, default=False,
              help="Score (node, layer, direction) slots for links to "
                   "unseen nodes instead of node pairs.")
@_budget_option
@click.option("--out", "out_path", required=True, type=click.Path())
def predict_cmd(edge_path, attr_path, directed, comune, rules_path, weighting,
                per_embedding, old_new, budget, out_path):
    """Apply rules to a graph and write a score table."""
    manifest = RunManifest.of_command()
    with manifest.stage("load"):
        g = load_graph(edge_path, attr_path, directed=directed, comune=comune)
        rs = _read_rules(rules_path)
    score, writer = ((score_old_new, write_old_new_csv) if old_new
                     else (score_links, write_scores_csv))
    with manifest.stage("score"):
        table = score(g, rs, weighting, per_embedding=per_embedding,
                      budget=budget)
    with manifest.stage("write"):
        _atomic_write(out_path, lambda tmp: writer(table, tmp))
    manifest.write(out_path + ".manifest.json", out_path)
    click.echo(f"{len(table)} scored candidates")


# -- baseline ---------------------------------------------------------------


@main.command("baseline", context_settings=CTX)
@_graph_options("--graph")
@click.option("--method", required=True,
              type=click.Choice(("sharma",) + CLASSICAL_METHODS))
@click.option("--out", "out_path", required=True, type=click.Path())
def baseline_cmd(edge_path, attr_path, directed, comune, method, out_path):
    """Run a baseline predictor (classical methods collapse the layers)."""
    manifest = RunManifest.of_command()
    with manifest.stage("load"):
        g = load_graph(edge_path, attr_path, directed=directed, comune=comune)
    with manifest.stage("score"):
        if method == "sharma":
            table = sharma_scores(g)
        else:
            table = classical_on_multiplex(g, method)
    with manifest.stage("write"):
        _atomic_write(out_path, lambda tmp: write_scores_csv(table, tmp))
    manifest.write(out_path + ".manifest.json", out_path)
    click.echo(f"{len(table)} scored candidates")


# -- evaluate ---------------------------------------------------------------


def _parse_negatives(spec: str) -> Tuple[str, Optional[int]]:
    if spec == "full":
        return "full", None
    if spec.startswith("sampled:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise MrkError(f"bad sample size in --negatives {spec!r}")
        if k < 1:
            raise MrkError(f"--negatives needs a positive sample size: {spec!r}")
        return "sampled", k
    raise MrkError(f"--negatives must be 'full' or 'sampled:K', got {spec!r}")


@main.command("evaluate", context_settings=CTX)
@_graph_options("--input")
@click.option("--test-input", "test_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Later snapshot: temporal split instead of random folds.")
@click.option("--predictor", type=click.Choice(PREDICTORS), default="rules",
              show_default=True)
@click.option("--folds", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--negatives", default="full", show_default=True,
              help="'full' or 'sampled:K' (links only).")
@click.option("--support", "sigma", type=int, default=None,
              help="Mining support; default: smallest layer's node count.")
@click.option("--max-size", "max_nodes", type=int, default=4, show_default=True)
@click.option("--weighting", type=click.Choice(WEIGHTING_SCHEMES),
              default="conf", show_default=True)
@click.option("--old-new", "old_new", is_flag=True, default=False,
              help="Evaluate old-new slot prediction instead of links.")
@_budget_option
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
def evaluate_cmd(edge_path, attr_path, directed, comune, test_path, predictor,
                 folds, seed, negatives, sigma, max_nodes, weighting, old_new,
                 budget, out_dir):
    """Cross-validate a predictor; write per-fold ROC CSVs and a summary."""
    if old_new and predictor != "rules":
        raise MrkError("old-new evaluation only applies to --predictor rules")
    if old_new and negatives != "full":
        raise MrkError("old-new evaluation scores every slot, so it takes "
                       f"only --negatives full, got {negatives!r}")
    if seed < 0:
        raise MrkError(f"--seed must be non-negative, got {seed}")
    if folds < 2 and not test_path:
        raise MrkError(f"--folds must be at least 2, got {folds}")
    neg_mode, neg_k = _parse_negatives(negatives)
    config = _miner_config(sigma, max_nodes, budget)
    manifest = RunManifest.of_command()
    with manifest.stage("load"):
        if test_path:
            splits = [load_temporal(edge_path, test_path,
                                    directed=directed, comune=comune,
                                    attr_path=attr_path)]
            g = splits[0].train
        else:
            g = load_graph(edge_path, attr_path, directed=directed,
                           comune=comune)
            splits = split_random(g, folds=folds, seed=seed)
    config = _resolve_support(manifest, config, g)

    def fold_table(train: MultiplexGraph, name: str):
        """A baseline's score table on ``train``, or mine -> build rules ->
        score (slots for old-new, else links)."""
        if name == "sharma":
            return sharma_scores(train)
        if name in CLASSICAL_METHODS:
            return classical_on_multiplex(train, name)
        patterns = mine(train, config)
        score = score_old_new if old_new else score_links
        return score(train, build_rules(patterns, train), weighting,
                     budget=budget)

    reports: List[EvalReport] = []
    with manifest.stage("evaluate"):
        while splits:
            split = splits.pop(0)  # frees each finished fold's graph
            if old_new:
                table = fold_table(split.train, predictor)
                reports.append(evaluate_old_new(table, split, predictor=predictor))
                continue
            neg = candidates(split, neg_mode, k=neg_k, seed=seed)
            if predictor.startswith("ensemble-"):
                # Scores aligned with the positives and then the negatives,
                # the order roc_auc reads a table in.  The classical
                # indices come from one collapse and one pair set.
                tables = [fold_table(split.train, p) for p in ("rules", "sharma")]
                tables += classical_on_multiplex(split.train, CLASSICAL_METHODS)
                pos = split.positive_keys()
                keys = np.concatenate([pos, neg])
                del neg  # one key array while the ensemble runs
                scores = ensemble(tables, keys, pos, split.space,
                                  mode=predictor.split("-", 1)[1], seed=seed)
                neg = keys[len(pos):]  # the view keeps keys to the fold's end
                del tables, keys
            else:
                scores = fold_table(split.train, predictor)
            reports.append(roc_auc(scores, split, neg, predictor=predictor))
            del neg, scores  # reports keep only groups: free before next fold
    with manifest.stage("write"):
        outputs = []
        for r in reports:
            outputs.append(os.path.join(out_dir, f"roc_fold{r.fold:02d}.csv"))
            _write_text(outputs[-1], r.roc_csv())
        summary = summary_dict(reports)
        outputs.append(os.path.join(out_dir, "summary.json"))
        _write_json(outputs[-1], summary)
    manifest.write(os.path.join(out_dir, "manifest.json"), *outputs)
    mean = summary["auc_mean"]
    click.echo(f"{predictor}: mean AUC {mean:.4f} over {len(reports)} fold(s)")


# -- gen-synth --------------------------------------------------------------


def _float_list(text: str) -> Sequence[float]:
    parts = [p for p in text.split(",") if p]
    vals = [float(p) for p in parts]
    return vals[0] if len(vals) == 1 else vals


def _parse_backbone(text: str) -> tuple:
    if ";" in text:
        return tuple(
            tuple(int(s) for s in part.split(",") if s)
            for part in text.split(";") if part
        )
    return tuple(int(s) for s in text.split(",") if s)


@main.command("gen-synth", context_settings=CTX)
@click.option("--sizes", default="200,150,100,50", show_default=True,
              help="Comma-separated layer node counts, non-increasing.")
@click.option("--communities", type=int, default=4, show_default=True)
@click.option("--pin", default="0.3", show_default=True,
              help="Intra-community probability (one value or one per layer).")
@click.option("--pout", default="0.02", show_default=True,
              help="Inter-community probability (one value or one per layer).")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--backbone", default="", show_default=True,
              help="Comma-separated circulant steps planted inside every "
                   "community block (e.g. 1,2); semicolons separate "
                   "per-layer step groups (e.g. 1,2;3,6); empty for none.")
@click.option("--out", "out_path", required=True, type=click.Path())
def gen_synth_cmd(sizes, communities, pin, pout, seed, backbone, out_path):
    """Generate a planted-partition multiplex benchmark."""
    manifest = RunManifest.of_command()
    with manifest.stage("generate"):
        try:
            cfg = SynthConfig(
                layer_sizes=tuple(int(s) for s in sizes.split(",") if s),
                communities=communities,
                p_in=_float_list(pin),
                p_out=_float_list(pout),
                seed=seed,
                backbone=_parse_backbone(backbone),
            )
        except ValueError as exc:
            raise MrkError(str(exc))
        g = generate(cfg)
    with manifest.stage("write"):
        _atomic_write(out_path, lambda tmp: write_edge_file(g, tmp))
    manifest.write(out_path + ".manifest.json", out_path)
    click.echo(
        f"{g.n_nodes} nodes, {len(g.unit_triples())} edges, "
        f"{g.n_layers} layers"
    )


# -- transform --------------------------------------------------------------


@main.command("transform", context_settings=CTX)
@_graph_options("--input")
@click.option("--to", "target", required=True,
              type=click.Choice(["coupled", "multiplex"]),
              help="coupled: encode; multiplex: decode a coupled pair.")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Edge file target; attributes land at <out>.attrs.")
def transform_cmd(edge_path, attr_path, directed, comune, target, out_path):
    """Convert between a multiplex graph and its coupled encoding."""
    manifest = RunManifest.of_command()
    attrs_out = out_path + ".attrs"
    with manifest.stage("transform"):
        if target == "coupled":
            g = load_graph(edge_path, attr_path, directed=directed,
                           comune=comune)
            if any(a != ATTR_DEFAULT for a in g.attrs):
                click.echo(
                    "note: node attributes do not survive the coupled "
                    "encoding; the replica attribute carries the layer",
                    err=True,
                )
            cg = to_coupled(g)
            out_g = cg.graph
        else:
            inner = load_graph(edge_path, attr_path, directed=True,
                               comune=comune)
            out_g = from_coupled(
                CoupledMultigraph(inner, source_directed=directed)
            )
    with manifest.stage("write"):
        _atomic_write(out_path, lambda tmp: write_edge_file(out_g, tmp))
        _atomic_write(attrs_out, lambda tmp: write_attr_file(out_g, tmp))
    manifest.write(out_path + ".manifest.json", out_path, attrs_out)
    click.echo(
        f"{out_g.n_nodes} nodes, {len(out_g.unit_triples())} edges, "
        f"{out_g.n_layers} layers"
    )


# -- inspect ----------------------------------------------------------------


@main.command("inspect", context_settings=CTX)
@click.option("--rules", "rules_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--min-lift", type=float, default=None)
@click.option("--min-conf", type=float, default=None)
@click.option("--layer", "layer_filter", default=None)
@click.option("--new-node/--no-new-node", "new_node", default=None,
              help="Keep only rules with (or without) a fresh node slot.")
@click.option("--limit", type=click.IntRange(min=0), default=None,
              help="Print at most this many rules.")
def inspect_cmd(rules_path, min_lift, min_conf, layer_filter, new_node, limit):
    """List rules sorted by lift, highest first."""
    rs = _read_rules(rules_path)
    if min_lift is not None:
        rs = [r for r in rs if r.lift >= min_lift]
    if min_conf is not None:
        rs = [r for r in rs if r.confidence >= min_conf]
    if layer_filter is not None:
        rs = [r for r in rs if r.delta_edge[2] == layer_filter]
    if new_node is not None:
        rs = [r for r in rs if r.new_node == new_node]
    rs.sort(key=lambda r: (-(r.lift if r.lift == r.lift else -1),
                           r.antecedent.code, r.consequent.code))
    if limit is not None:
        rs = rs[:limit]
    for r in rs:
        lift = "nan" if r.lift != r.lift else f"{r.lift:.3f}"
        kind = "new-node" if r.new_node else "close"
        click.echo(
            f"lift={lift} conf={r.confidence:.3f} [{kind}] "
            f"{r.antecedent.code}  =>  {r.consequent.code}  "
            f"+({r.delta_edge[0]}>{r.delta_edge[1]}:{r.delta_edge[2]})"
        )
    click.echo(f"{len(rs)} rule(s)", err=True)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Programmatic entry point returning the exit status."""
    try:
        main.main(args=list(argv) if argv is not None else None,
                  standalone_mode=False)
        return 0
    except MrkError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 130


def entry() -> None:
    """Console-script shim."""
    sys.exit(run())


if __name__ == "__main__":
    entry()
