"""Stochastic structured prediction under bandit feedback on chain models.

The library pairs a linear-chain log-linear model (exact partition function,
feature expectations, sampling and MAP decoding) with three stochastic
training objectives driven purely by scalar feedback on sampled outputs, an
enumeration oracle that certifies every estimator on small output spaces,
and convergence diagnostics for finished runs.
"""

from .chain import (
    ChainInstance,
    ChainLattice,
    ChainModel,
    ChainPosterior,
    LabelAlphabet,
    build_lattice,
    extract_features,
    feature_id,
    lattice_score,
    map_decode_paths,
    posterior,
    sample,
)
from .checks import CheckReport, CheckResult, run_property_checks
from .dataio import (
    DataError,
    RunConfig,
    compare_report_files,
    load_config,
    read_checkpoint,
    read_dataset,
    read_report,
    run_train,
    write_checkpoint,
    write_dataset,
    write_report,
)
from .diagnostics import (
    ComparisonSummary,
    ConvergenceReport,
    compare_runs,
    convergence_report,
    grad_norm_sq,
    lipschitz_estimate,
    variance_estimate,
)
from .feedback import (
    FeedbackOracle,
    LossKind,
    bio_spans,
    chunk_f1_loss,
    hamming_loss,
    loss_fn,
)
from .objectives import ObjectiveKind, pair_feedback, stochastic_gradient
from .oracle import (
    BudgetExceededError,
    EnumeratedDistribution,
    brute_gradient,
    brute_objective,
    distribution,
    enumerate_outputs,
    finite_diff_gradient,
    pair_distribution,
)
from .sparse import SortedVector, SparseVector
from .synthetic import chunk_alphabet, generate_chunk_instances
from .trainer import (
    Trajectory,
    TrainerConfig,
    evaluate,
    select_best,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ChainInstance",
    "ChainLattice",
    "ChainModel",
    "ChainPosterior",
    "CheckReport",
    "CheckResult",
    "ComparisonSummary",
    "ConvergenceReport",
    "DataError",
    "EnumeratedDistribution",
    "FeedbackOracle",
    "LabelAlphabet",
    "LossKind",
    "ObjectiveKind",
    "RunConfig",
    "SortedVector",
    "SparseVector",
    "TrainerConfig",
    "Trajectory",
    "bio_spans",
    "brute_gradient",
    "brute_objective",
    "build_lattice",
    "chunk_alphabet",
    "chunk_f1_loss",
    "compare_report_files",
    "compare_runs",
    "convergence_report",
    "distribution",
    "enumerate_outputs",
    "evaluate",
    "extract_features",
    "feature_id",
    "finite_diff_gradient",
    "generate_chunk_instances",
    "grad_norm_sq",
    "hamming_loss",
    "lattice_score",
    "lipschitz_estimate",
    "load_config",
    "loss_fn",
    "map_decode_paths",
    "pair_distribution",
    "pair_feedback",
    "posterior",
    "read_checkpoint",
    "read_dataset",
    "read_report",
    "run_property_checks",
    "run_train",
    "sample",
    "select_best",
    "stochastic_gradient",
    "train",
    "variance_estimate",
    "write_checkpoint",
    "write_dataset",
    "write_report",
]
