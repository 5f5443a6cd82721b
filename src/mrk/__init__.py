"""Multiplex network pattern mining, association rules, and link prediction."""

__version__ = "0.1.0"

from .errors import (
    CoupledGraphError,
    EvaluationError,
    GraphFormatError,
    MiningBudgetError,
    MrkError,
    PatternSizeError,
)
from .graph import (
    CoupledMultigraph,
    KeySpace,
    MultiplexGraph,
    SimpleGraph,
    collapse,
    from_coupled,
    load_graph,
    to_coupled,
)
from .miner import (
    MinerConfig,
    Pattern,
    embedding_table,
    min_image_support,
    mine,
)
from .rules import Rule, build_rules, rule_lift
from .predictor import (
    OldNewScoreTable,
    ScoreTable,
    score_links,
    score_old_new,
)
from .baselines import (
    LayerCooccurrence,
    classical_scores,
    ensemble,
    layer_cooccurrence,
    sharma_scores,
)
from .evaluation import (
    EvalReport,
    EvalSplit,
    candidates,
    evaluate_old_new,
    load_temporal,
    roc_auc,
    split_random,
)
from .synth import SynthConfig, generate

__all__ = [
    "__version__",
    "MrkError", "GraphFormatError", "CoupledGraphError",
    "MiningBudgetError", "PatternSizeError", "EvaluationError",
    "MultiplexGraph", "SimpleGraph", "CoupledMultigraph", "KeySpace",
    "load_graph", "collapse", "to_coupled", "from_coupled",
    "MinerConfig", "Pattern", "embedding_table", "min_image_support", "mine",
    "Rule", "build_rules", "rule_lift",
    "ScoreTable", "OldNewScoreTable", "score_links", "score_old_new",
    "LayerCooccurrence", "layer_cooccurrence", "sharma_scores",
    "classical_scores", "ensemble",
    "EvalSplit", "EvalReport", "split_random", "load_temporal",
    "candidates", "roc_auc", "evaluate_old_new",
    "SynthConfig", "generate",
]
