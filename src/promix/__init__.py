"""promix: confusion-aware prompt tuning and confidence-weighted prompt
mixtures over precomputed embeddings, with verification harnesses."""

from promix.embedspace import (
    DomainPartition,
    EmbeddingSet,
    SyntheticConfig,
    generate_synthetic,
    partition_classes,
    read_embedding_file,
    write_embedding_file,
)
from promix.head import PromptHead
from promix.losses import LossConfig
from promix.mixture import MixtureModel, MixtureWeights, bound_gap
from promix.outclass import OutclassStrategy, generate_outclass
from promix.stats import t_test_paired_one_sided
from promix.train import HyperParams, OptimizerConfig, optimize_in_weight, optimize_out_weight, tune_prompt
from promix.evaluation import (
    EvalReport,
    HarnessConfig,
    accuracy,
    assumption_check,
    base_to_new_eval,
    classify_samples,
    confusing_gain,
    fscil_run,
    harmonic_mean,
)

__version__ = "0.1.0"

__all__ = [
    "DomainPartition",
    "EmbeddingSet",
    "EvalReport",
    "HarnessConfig",
    "HyperParams",
    "LossConfig",
    "MixtureModel",
    "MixtureWeights",
    "OptimizerConfig",
    "OutclassStrategy",
    "PromptHead",
    "SyntheticConfig",
    "accuracy",
    "assumption_check",
    "base_to_new_eval",
    "bound_gap",
    "classify_samples",
    "confusing_gain",
    "fscil_run",
    "generate_outclass",
    "generate_synthetic",
    "harmonic_mean",
    "optimize_in_weight",
    "optimize_out_weight",
    "partition_classes",
    "read_embedding_file",
    "t_test_paired_one_sided",
    "tune_prompt",
    "write_embedding_file",
]
