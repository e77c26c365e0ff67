"""The online bandit training loop.

Each iteration draws an input uniformly from the training set, samples a
structure (or an ordered pair) from the current model, obtains scalar
feedback for it, builds the objective's stochastic gradient s_t and steps
``w <- w - gamma * (s_t + (lambda / T) * w)`` (lambda is only nonzero for
the cross-entropy objective).  The loop keeps the bookkeeping needed for
online-to-batch selection and for the convergence estimators: per-step
scaled gradient norms, full gradient vectors at epoch boundaries, a bounded
reservoir of (weights, scaled gradient) snapshots, and periodic checkpoints
with development-set scores.  All of them are column arrays of the model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain import ChainInstance, ChainModel, map_decode, posterior
from .chain import sample  # noqa: F401  (perfbench's tracer self-test checks this binding)
from .feedback import FeedbackOracle
from .objectives import ObjectiveKind, ce_columns, el_columns, pr_columns, pr_sample_pair
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

    Weights and gradients are column arrays of ``model`` (see
    ``ChainModel``); ``final_weights`` and ``select_best`` convert them to
    SparseVectors.  checkpoints[i] = (t, w_t) pairs with dev_losses[i];
    scaled_norm_sq[t] holds ||gamma * s_t||^2 for t = 1..T (index 0 is NaN).
    Row k of epoch_grads is the full scaled gradient gamma * s_t at the epoch
    boundary t = epoch_steps[k].  Row i of snapshot_weights is a w_t and row i
    of snapshot_grads the gamma * s_t computed at it; there are at most
    config.snapshots rows.  These rows hold the model columns ``row_columns``:
    every column at which some row is nonzero.
    """

    config: TrainerConfig
    epoch_size: int
    model: Optional[ChainModel] = None
    checkpoints: list[tuple[int, np.ndarray]] = field(default_factory=list)
    dev_losses: list[float] = field(default_factory=list)
    scaled_norm_sq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sampled_losses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    epoch_steps: list[int] = field(default_factory=list)
    row_columns: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    epoch_grads: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    snapshot_weights: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    snapshot_grads: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    feature_norm_bound: float = 0.0

    @property
    def iterations(self) -> int:
        return self.config.iterations

    @property
    def final_weights(self) -> SparseVector:
        return self.model.to_sparse(self.weights)

    def dev_curve(self) -> list[tuple[int, float]]:
        return [(t, loss) for (t, _), loss in zip(self.checkpoints, self.dev_losses)]


def evaluate(
    model: ChainModel,
    w: "SparseVector | np.ndarray",
    data: Sequence[ChainInstance],
    loss,
) -> float:
    """Mean task loss of MAP predictions against gold over a dataset.

    w is a SparseVector or a column array of the model; it is converted once,
    after every instance is compiled.
    """
    if not data:
        raise ValueError("empty evaluation set")
    for x in data:
        model.compile(x)
    w = model.to_columns(w)
    total = 0.0
    for x in data:
        if x.gold is None:
            raise ValueError("evaluation instance has no gold labeling")
        total += loss(x.gold, map_decode(model, w, x))
    return total / len(data)


_NO_COLUMNS = np.zeros(0, dtype=np.intp)
_NO_VALUES = np.zeros(0)


def _stochastic_gradient(
    config: TrainerConfig,
    model: ChainModel,
    w: np.ndarray,
    x: ChainInstance,
    rng: np.random.Generator,
    oracle: FeedbackOracle,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(columns, values, sampled loss): s_t's entries, in the order of the
    SparseVector arithmetic they replay."""
    # one posterior serves the step's sampling, prob and expectations
    post = posterior(model, w, x)
    kind = config.objective
    if kind.is_pairwise:
        pair = pr_sample_pair(post, rng)
        loss = oracle.feedback_pair(x, pair, kind.pair_mode)
        grad = pr_columns(post, pair, delta_pair=loss)
    else:
        y = post.sample(rng)
        loss = oracle.feedback(x, y)
        if kind is ObjectiveKind.EL:
            grad = el_columns(post, y, delta=loss)
        else:
            grad = ce_columns(post, y, gain=1.0 - loss, clip_k=config.clip_k)
    if grad is None:
        return _NO_COLUMNS, _NO_VALUES, loss
    idx, values = grad.entries()
    return post.local.columns[idx], values, loss


def _rows(rows: list, columns: np.ndarray) -> np.ndarray:
    """The rows as one (len(rows), len(columns)) array over the sorted model
    columns given.  A row is a column array (a prefix of w) or a (columns,
    values) pair; each list entry is released once copied."""
    out = np.zeros((len(rows), len(columns)))
    for r, row in enumerate(rows):
        if isinstance(row, tuple):
            out[r, np.searchsorted(columns, row[0])] = row[1]
        else:
            within = np.searchsorted(columns, len(row))
            out[r, :within] = row[columns[:within]]
        rows[r] = None
    return out


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
    inputs are only ever touched by the feedback oracle.

    w is a float64 column array of the model that grows with zeros as new
    instances bring new columns.  A step gathers its lattice from w, gets
    s_t as (columns, values) and applies ``w[columns] += -gamma * values``,
    the arithmetic of ``SparseVector.add_scaled`` per entry; the cross-entropy
    shrink is ``w *= c``.  The loop runs with numpy's overflow and invalid
    warnings off: a step whose feature expectations, ||gamma * s_t||^2 or
    updated weights are not finite raises ``FloatingPointError`` naming t.
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
    shrink = 1.0 - gamma * lam / T if lam > 0.0 else 1.0
    snapshot_stride = max(1, T // config.snapshots)
    rng = np.random.default_rng(config.seed)

    w = model.to_columns(w0) if w0 is not None else np.zeros(model.num_columns)
    r_bound = max(model.feature_norm_bound(x) for x in train_data)
    logger.info(
        "training %s: T=%d gamma=%g epoch=%d eval_every=%d |phi| bound=%.1f",
        config.objective.value, T, gamma, epoch_size, eval_every, r_bound,
    )

    traj = Trajectory(
        config=config,
        epoch_size=epoch_size,
        model=model,
        scaled_norm_sq=np.full(T + 1, np.nan),
        sampled_losses=np.full(T + 1, np.nan),
        feature_norm_bound=r_bound,
    )
    epoch_rows: list = []
    snapshot_weights: list = []
    snapshot_grads: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        traj.checkpoints.append((0, w.copy()))
        traj.dev_losses.append(evaluate(model, w, dev_data, feedback_oracle.loss))
        for t in range(1, T + 1):
            x = train_data[int(rng.integers(len(train_data)))]
            model.compile(x)
            w = model.to_columns(w)  # zero-padded when x brought new columns
            try:
                cols, s, sampled_loss = _stochastic_gradient(
                    config, model, w, x, rng, feedback_oracle)
            except FloatingPointError as exc:
                raise FloatingPointError(f"training diverged at step {t}: {exc} "
                                         f"with gamma={gamma}") from None

            # the sum over entries in SparseVector order, as SparseVector.norm_sq
            traj.scaled_norm_sq[t] = gamma * gamma * sum((s * s).tolist())
            if not np.isfinite(traj.scaled_norm_sq[t]):
                raise FloatingPointError(f"training diverged at step {t}: ||gamma*s_t||^2 = "
                                         f"{traj.scaled_norm_sq[t]} with gamma={gamma}")
            traj.sampled_losses[t] = sampled_loss
            if t % epoch_size == 0:
                traj.epoch_steps.append(t)
                epoch_rows.append((cols, gamma * s))
            if t % snapshot_stride == 0 and len(snapshot_weights) < config.snapshots:
                snapshot_weights.append(w.copy())
                snapshot_grads.append((cols, gamma * s))

            if shrink != 1.0:
                w *= shrink
            if len(cols):
                w[cols] += -gamma * s
                if not np.isfinite(w[cols]).all():
                    raise FloatingPointError(f"training diverged at step {t}: non-finite "
                                             f"weight with gamma={gamma}")

            if t % eval_every == 0:
                traj.checkpoints.append((t, w.copy()))
                traj.dev_losses.append(evaluate(model, w, dev_data, feedback_oracle.loss))

    # a column that is zero in every row changes no norm or difference; in a
    # wide model many are (dev-only tokens, instances no update touched), so
    # the rows keep only the others
    active = np.zeros(len(w), dtype=bool)
    for row in snapshot_weights:
        active[: len(row)] |= row != 0.0
    for cols, _ in snapshot_grads + epoch_rows:
        active[cols] = True
    traj.row_columns = np.flatnonzero(active)
    traj.epoch_grads = _rows(epoch_rows, traj.row_columns)
    traj.snapshot_weights = _rows(snapshot_weights, traj.row_columns)
    traj.snapshot_grads = _rows(snapshot_grads, traj.row_columns)
    traj.weights = w
    return traj


def select_best(trajectory: Trajectory) -> tuple[int, SparseVector]:
    """The checkpoint with the lowest dev loss; ties go to the earliest one."""
    if not trajectory.checkpoints:
        raise ValueError("trajectory has no checkpoints")
    best = min(range(len(trajectory.dev_losses)), key=lambda i: (trajectory.dev_losses[i], i))
    t, w = trajectory.checkpoints[best]
    return t, trajectory.model.to_sparse(w)
