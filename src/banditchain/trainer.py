"""The online bandit training loop.

Each iteration draws an input uniformly from the training set, samples a
structure (or an ordered pair) from the current model, obtains scalar
feedback for it, builds the objective's stochastic gradient s_t and steps
``w <- w - gamma * (s_t + (lambda / T) * w)`` (lambda is only nonzero for
the cross-entropy objective).  The loop keeps the bookkeeping needed for
online-to-batch selection and for the convergence estimators: per-step
scaled gradient norms, full gradient vectors at epoch boundaries, a bounded
reservoir of (weights, scaled gradient) snapshots, and periodic checkpoints
with development-set scores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain import ChainInstance, ChainModel, map_decode, posterior
from .chain import sample  # noqa: F401  (perfbench's tracer self-test checks this binding)
from .feedback import FeedbackOracle
from .objectives import ObjectiveKind, ce_gradient, el_gradient, pr_gradient, pr_sample_pair
from .sparse import SparseVector

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainerConfig:
    objective: ObjectiveKind
    gamma: float
    iterations: int
    seed: int = 0
    clip_k: float = 0.0
    l2_lambda: float = 0.0
    epoch_size: Optional[int] = None  # default: one pass over the training set
    eval_every: Optional[int] = None  # default: epoch_size
    snapshots: int = 64

    def __post_init__(self):
        object.__setattr__(self, "objective", ObjectiveKind.parse(self.objective))

    def validate(self) -> None:
        # gamma = 0 is allowed: it freezes the weights, which is useful in tests.
        if self.gamma < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {self.gamma}")
        if self.iterations <= 0:
            raise ValueError(f"iteration budget must be positive, got {self.iterations}")
        if not 0.0 <= self.clip_k < 1.0:
            raise ValueError(f"clipping constant must be in [0, 1), got {self.clip_k}")
        if self.l2_lambda < 0.0:
            raise ValueError(f"l2 constant must be >= 0, got {self.l2_lambda}")
        if self.epoch_size is not None and self.epoch_size <= 0:
            raise ValueError(f"epoch size must be positive, got {self.epoch_size}")
        if self.eval_every is not None and self.eval_every <= 0:
            raise ValueError(f"eval cadence must be positive, got {self.eval_every}")
        if self.snapshots < 2:
            raise ValueError(f"snapshot reservoir needs >= 2 slots, got {self.snapshots}")


@dataclass
class Trajectory:
    """Everything a finished run leaves behind.

    checkpoints[i] pairs with dev_losses[i]; scaled_norm_sq[t] holds
    ||gamma * s_t||^2 for t = 1..T (index 0 is NaN), epoch_grads holds the
    full scaled gradient vector at each epoch boundary, and snapshots holds
    at most config.snapshots (w, gamma * s) pairs where s was computed at w.
    """

    config: TrainerConfig
    epoch_size: int
    checkpoints: list[tuple[int, SparseVector]] = field(default_factory=list)
    dev_losses: list[float] = field(default_factory=list)
    scaled_norm_sq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sampled_losses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    epoch_grads: list[tuple[int, SparseVector]] = field(default_factory=list)
    snapshots: list[tuple[SparseVector, SparseVector]] = field(default_factory=list)
    final_weights: SparseVector = field(default_factory=SparseVector)
    feature_norm_bound: float = 0.0

    @property
    def iterations(self) -> int:
        return self.config.iterations

    def dev_curve(self) -> list[tuple[int, float]]:
        return [(t, loss) for (t, _), loss in zip(self.checkpoints, self.dev_losses)]


def evaluate(
    model: ChainModel,
    w: SparseVector,
    data: Sequence[ChainInstance],
    loss,
) -> float:
    """Mean task loss of MAP predictions against gold over a dataset."""
    if not data:
        raise ValueError("empty evaluation set")
    total = 0.0
    for x in data:
        if x.gold is None:
            raise ValueError("evaluation instance has no gold labeling")
        total += loss(x.gold, map_decode(model, w, x))
    return total / len(data)


def _stochastic_gradient(
    config: TrainerConfig,
    model: ChainModel,
    w: SparseVector,
    x: ChainInstance,
    rng: np.random.Generator,
    oracle: FeedbackOracle,
) -> tuple[SparseVector, float]:
    # one posterior serves the step's sampling, prob and expectations; the
    # feedback goes by keyword, which perfbench's tracer reads
    post = posterior(model, w, x)
    kind = config.objective
    if kind.is_pairwise:
        pair = pr_sample_pair(post, rng)
        delta_pair = oracle.feedback_pair(x, pair, kind.pair_mode)
        return pr_gradient(post, pair, delta_pair=delta_pair), delta_pair
    y = post.sample(rng)
    delta = oracle.feedback(x, y)
    if kind is ObjectiveKind.EL:
        return el_gradient(post, y, delta=delta), delta
    return ce_gradient(post, y, gain=1.0 - delta, clip_k=config.clip_k), delta


def train(
    config: TrainerConfig,
    model: ChainModel,
    train_data: Sequence[ChainInstance],
    dev_data: Sequence[ChainInstance],
    feedback_oracle: FeedbackOracle,
    w0: Optional[SparseVector] = None,
) -> Trajectory:
    """Run the bandit loop for config.iterations steps and return the trajectory.

    Weights start at zero unless a warm-start vector w0 is given.  Inputs are
    drawn i.i.d. uniformly with replacement; the gold labelings of training
    inputs are only ever touched by the feedback oracle.  A step whose
    ||gamma * s_t||^2 is not finite raises ``FloatingPointError`` naming t.
    """
    config.validate()
    if not train_data:
        raise ValueError("empty training set")
    if not dev_data:
        raise ValueError("empty development set")

    T = config.iterations
    epoch_size = config.epoch_size or len(train_data)
    eval_every = config.eval_every or epoch_size
    gamma = config.gamma
    lam = config.l2_lambda if config.objective is ObjectiveKind.CE else 0.0
    snapshot_stride = max(1, T // config.snapshots)
    rng = np.random.default_rng(config.seed)

    w = w0.copy() if w0 is not None else SparseVector()
    r_bound = max(model.feature_norm_bound(x) for x in train_data)
    logger.info(
        "training %s: T=%d gamma=%g epoch=%d eval_every=%d |phi| bound=%.1f",
        config.objective.value, T, gamma, epoch_size, eval_every, r_bound,
    )

    traj = Trajectory(
        config=config,
        epoch_size=epoch_size,
        scaled_norm_sq=np.full(T + 1, np.nan),
        sampled_losses=np.full(T + 1, np.nan),
        feature_norm_bound=r_bound,
    )
    traj.checkpoints.append((0, w.copy()))
    traj.dev_losses.append(evaluate(model, w, dev_data, feedback_oracle.loss))

    for t in range(1, T + 1):
        x = train_data[int(rng.integers(len(train_data)))]
        s, sampled_loss = _stochastic_gradient(config, model, w, x, rng, feedback_oracle)

        traj.scaled_norm_sq[t] = gamma * gamma * s.norm_sq()
        if not np.isfinite(traj.scaled_norm_sq[t]):
            raise FloatingPointError(f"training diverged at step {t}: ||gamma*s_t||^2 = "
                                     f"{traj.scaled_norm_sq[t]} with gamma={gamma}")
        traj.sampled_losses[t] = sampled_loss
        if t % epoch_size == 0:
            traj.epoch_grads.append((t, s.scaled(gamma)))
        if t % snapshot_stride == 0 and len(traj.snapshots) < config.snapshots:
            traj.snapshots.append((w.copy(), s.scaled(gamma)))

        if lam > 0.0:
            w.scale(1.0 - gamma * lam / T)
        w.add_scaled(s, -gamma)

        if t % eval_every == 0:
            traj.checkpoints.append((t, w.copy()))
            traj.dev_losses.append(evaluate(model, w, dev_data, feedback_oracle.loss))

    traj.final_weights = w
    return traj


def select_best(trajectory: Trajectory) -> tuple[int, SparseVector]:
    """The checkpoint with the lowest dev loss; ties go to the earliest one."""
    if not trajectory.checkpoints:
        raise ValueError("trajectory has no checkpoints")
    best = min(range(len(trajectory.dev_losses)), key=lambda i: (trajectory.dev_losses[i], i))
    t, w = trajectory.checkpoints[best]
    return t, w
