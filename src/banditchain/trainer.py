"""The online bandit training loop.

Each iteration draws an input uniformly from the training set, samples a
structure (or an ordered pair) from the current model, obtains scalar
feedback for it, builds the objective's stochastic gradient s_t and steps
``w <- w - gamma * (s_t + (lambda / T) * w)`` (lambda is only nonzero for
the cross-entropy objective).  The loop keeps the bookkeeping needed for
online-to-batch selection and for the convergence estimators: per-step
scaled gradient norms, full gradient vectors at epoch boundaries, a bounded
reservoir of (weights, scaled gradient) snapshots, and dev-set scores at
periodic checkpoints with the best one's weights, all over the model's columns.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain import (
    ChainInstance, ChainModel, Weights, _room, draw_batch, map_decode_paths, posterior,
)
from .chain import sample  # noqa: F401  (perfbench's tracer self-test checks this binding)
from .feedback import FeedbackOracle, check_dataset, dataset_gold, dataset_losses
from .objectives import ObjectiveKind, check_clip_k, stochastic_gradient
from .sparse import SortedVector, SparseVector, left_sum

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
        for name in ("gamma", "clip_k", "l2_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # gamma = 0 is allowed: it freezes the weights, which is useful in tests.
        if self.gamma < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {self.gamma}")
        if self.iterations <= 0:
            raise ValueError(f"iteration budget must be positive, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_clip_k(self.clip_k)
        if self.l2_lambda < 0.0:
            raise ValueError(f"l2 constant must be >= 0, got {self.l2_lambda}")
        if self.epoch_size is not None and self.epoch_size <= 0:
            raise ValueError(f"epoch size must be positive, got {self.epoch_size}")
        if self.eval_every is not None and self.eval_every <= 0:
            raise ValueError(f"eval cadence must be positive, got {self.eval_every}")
        if self.snapshots < 2:
            raise ValueError(f"snapshot reservoir needs >= 2 slots, got {self.snapshots}")
        if self.eval_every is not None and self.eval_every > self.iterations:
            raise ValueError(f"eval cadence {self.eval_every} exceeds the {self.iterations} "
                             "iterations: dev would be scored only at t = 0")


@dataclass
class Trajectory:
    """Everything a finished run leaves behind.

    Weights and gradients are column arrays of ``model`` (see
    ``ChainModel``); ``final_weights`` and ``select_best`` give weights as
    SortedVectors (``model.to_sorted``), the form a checkpoint stores.
    dev_losses[i] scores w_t at t = i * eval_every; best = (t, loss, w_t) is
    the checkpoint ``min(dev_losses)`` picks (the first lowest).
    scaled_norm_sq[t] holds ||gamma * s_t||^2 for t = 1..T (index 0 is NaN).
    Row k of epoch_grads is the full scaled gradient gamma * s_t at the epoch
    boundary t = (k + 1) * epoch_size.  Row i of snapshot_weights holds the
    nonzero entries of a w_t as (bitmap, values): the mask of its nonzero
    columns packed by ``np.packbits`` up to the byte of the last one (so a
    row does not depend on how many columns the model had compiled), and
    their values in column order.  Row i of snapshot_grads holds the
    gamma * s_t computed at it, and an epoch row its gradient, as a
    (columns, values) pair.  There are at most config.snapshots snapshot rows.
    """

    config: TrainerConfig
    epoch_size: int
    model: Optional[ChainModel] = None
    dev_losses: list[float] = field(default_factory=list)
    best: Optional[tuple[int, float, np.ndarray]] = None
    scaled_norm_sq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sampled_losses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    epoch_grads: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    snapshot_weights: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    snapshot_grads: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    feature_norm_bound: float = 0.0

    @property
    def iterations(self) -> int:
        return self.config.iterations

    @property
    def final_weights(self) -> SortedVector:
        return self.model.to_sorted(self.weights)

    def dev_curve(self) -> list[tuple[int, float]]:
        step = self.config.eval_every or self.epoch_size
        return [(i * step, loss) for i, loss in enumerate(self.dev_losses)]


def evaluate(model: ChainModel, w: Weights, data: Sequence[ChainInstance], loss) -> float:
    """Mean task loss of MAP predictions against gold over a dataset.

    w is a SortedVector, a SparseVector or a column array of the model.
    ``check_dataset`` rejects any loss but ``hamming_loss`` and
    ``chunk_f1_loss``, and data without gold, before anything is compiled;
    ``dataset_gold`` a gold label outside the model's labels before anything
    is decoded.  The dataset is decoded in one batched Viterbi pass
    (``map_decode_paths``), scored by ``dataset_losses`` and summed in dataset
    order by ``left_sum``.
    """
    if not data:
        raise ValueError("empty evaluation set")
    check_dataset(data, loss)
    labels, memo = model.alphabet.labels, model.compile_batch(data)[2]
    dataset_gold(data, labels, memo)
    paths, lengths = map_decode_paths(model, w, data)
    return left_sum(dataset_losses(data, paths, lengths, labels, memo, loss)) / len(data)


_NO_COLUMNS = np.zeros(0, dtype=np.intp)
_NO_VALUES = np.zeros(0)

# A step whose feedback is zero leaves w as it was, so after _BATCH_AFTER such
# steps in a row the trainer draws the next steps ahead and samples them as one
# batch under the current w.  A batch is as long as the run of zero-feedback
# steps before it, up to _MAX_BATCH, so it doubles while no step in it moves w;
# a batch shorter than the run before it would cost about as much and save less.
_BATCH_AFTER = 16
_MAX_BATCH = 64


def _nonzero_row(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bitmap, values): w's nonzero mask packed by ``np.packbits`` and cut
    after its last nonzero byte, in a new array, and the nonzero values."""
    nonzero = w != 0.0
    bits = np.packbits(nonzero)
    held = bits != 0
    stop = len(bits) - int(held[::-1].argmax()) if held.any() else 0
    return bits[:stop].copy(), w[nonzero]


def train(
    config: TrainerConfig,
    model: ChainModel,
    train_data: Sequence[ChainInstance],
    dev_data: Sequence[ChainInstance],
    feedback_oracle: FeedbackOracle,
    w0: "SortedVector | SparseVector | None" = None,
) -> Trajectory:
    """Run the bandit loop for config.iterations steps and return the trajectory.

    Weights start at zero unless a warm-start vector w0 is given
    (``read_checkpoint`` gives a SortedVector); ``model.to_columns`` interns
    its ids new to the model in the vector's order.  Inputs are drawn i.i.d.
    uniformly with replacement; the gold labelings of training inputs are
    only ever touched by the feedback oracle, which ``check``s them.

    w is a float64 column array of the model that grows with zeros as new
    instances bring new columns: a view of one zeroed buffer that grows by
    doubling, so a step that compiles new columns does not copy w.  A step
    draws its input, then the uniforms its sampler walks
    (``ChainPosterior.draw``); it draws label indices, gets their feedback
    from ``FeedbackOracle.feedback_paths``, and gets s_t as (columns, values)
    from its posterior, applying
    ``w[columns] += -gamma * values``, the arithmetic of
    ``SparseVector.add_scaled`` per entry; the cross-entropy shrink is
    ``w *= c``.

    No rng draw depends on w, so after a run of steps that left w unchanged
    (zero feedback, no shrink) the loop draws the next steps ahead, in the
    same order, and samples them in one pass (``draw_batch``); the first that
    moves w is taken with its own posterior, and the steps drawn after it are
    sampled again under the new w from the uniforms they hold.  A batch ends
    at the next checkpoint, so the model has compiled no later step by then.
    The run is the one a step at a time gives, bit for bit.

    The loop runs with numpy's overflow and invalid warnings off: a step
    whose feature expectations, ||gamma * s_t||^2 or updated weights are not
    finite, or whose cross-entropy importance weight overflows, raises
    ``FloatingPointError`` naming t.
    """
    config.validate()
    if not train_data:
        raise ValueError("empty training set")
    if not dev_data:
        raise ValueError("empty development set")
    labels = model.alphabet.labels
    feedback_oracle.check(train_data, labels)

    T = config.iterations
    epoch_size = config.epoch_size or len(train_data)
    eval_every = config.eval_every or epoch_size
    gamma = config.gamma
    kind = config.objective
    lam = config.l2_lambda if kind is ObjectiveKind.CE else 0.0
    shrink = 1.0 - gamma * lam / T if lam > 0.0 else 1.0
    snapshot_stride = max(1, T // config.snapshots)
    rng = np.random.default_rng(config.seed)
    pair = kind.is_pairwise
    chains, mode = (2, kind.pair_mode) if pair else (1, None)

    try:
        scaled_norm_sq, sampled_losses = np.full(T + 1, np.nan), np.full(T + 1, np.nan)
    except MemoryError:
        raise ValueError(f"iteration budget {T} is too large: its per-step records "
                         f"({16 * (T + 1)} bytes) cannot be allocated") from None
    w = model.to_columns(w0) if w0 is not None else np.zeros(model.num_columns)
    buf = w  # w is a view of buf's first columns, and the rest of buf is zeros
    r_bound = max(model.feature_norm_bound(x) for x in train_data)
    logger.info(
        "training %s: T=%d gamma=%g epoch=%d eval_every=%d |phi| bound=%.1f",
        kind.value, T, gamma, epoch_size, eval_every, r_bound,
    )

    traj = Trajectory(
        config=config,
        epoch_size=epoch_size,
        model=model,
        scaled_norm_sq=scaled_norm_sq,
        sampled_losses=sampled_losses,
        feature_norm_bound=r_bound,
    )
    pending: deque[tuple[ChainInstance, np.ndarray]] = deque()  # (x, uniforms) drawn ahead
    t = idle = 0  # steps taken; of them, the last ones in a row that left w unchanged
    size = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:  # each round takes at least one step
            if t % eval_every == 0:  # w is copied only when it beats every checkpoint before
                loss = evaluate(model, w, dev_data, feedback_oracle.loss)
                traj.dev_losses.append(loss)
                if traj.best is None or loss < traj.best[1]:
                    traj.best = (t, loss, w.copy())
            if t == T:
                break
            # a batch never draws past the next checkpoint or past T
            ahead = min(size, T - t, eval_every - t % eval_every)
            while len(pending) < ahead:
                x = train_data[int(rng.integers(len(train_data)))]
                model.compile(x)
                pending.append((x, rng.random((chains, len(x)))))
            if len(w) < model.num_columns:  # x brought new columns: they start at zero
                buf = _room(buf, len(w), model.num_columns)
                w = buf[:model.num_columns]
            post = None
            if ahead > 1:
                xs, uniforms = zip(*itertools.islice(pending, ahead))
                try:
                    paths = draw_batch(model, w, xs, uniforms, pair=pair)
                    losses = feedback_oracle.feedback_paths(xs, paths, labels, mode)
                except (FloatingPointError, ValueError):
                    # a batch that cannot be sampled or scored exactly is taken one
                    # step at a time, so that an error is raised by its own step
                    ahead, idle = 1, 0
            if ahead == 1:
                x, u = pending[0]
                post = posterior(model, w, x, pair=pair)
                paths = post.draw(u)
                losses = feedback_oracle.feedback_paths([x], paths, labels, mode)

            for k, loss in enumerate(losses):
                x, _ = pending.popleft()
                t += 1
                # a zero scale makes s_t zero, and only the CE shrink moves w then
                scaled = kind.scale(loss) != 0.0
                moves = shrink != 1.0 or scaled
                cols, s = _NO_COLUMNS, _NO_VALUES
                if scaled:
                    if post is None:  # a batch's step that moves w: its own posterior
                        post = posterior(model, w, x, pair=pair)
                    try:
                        grad = stochastic_gradient(kind, post,
                                                   paths[chains * k:chains * (k + 1), :len(x)],
                                                   loss, config.clip_k)
                    except FloatingPointError as exc:
                        raise FloatingPointError(f"training diverged at step {t}: {exc} "
                                                 f"with gamma={gamma}") from None
                    idx, s = grad.entries()
                    cols = post.local.columns[idx]

                # the sum over entries in SparseVector order, as SparseVector.norm_sq
                norm = gamma * gamma * left_sum(s * s)
                traj.scaled_norm_sq[t] = norm
                if not math.isfinite(norm):
                    raise FloatingPointError(f"training diverged at step {t}: ||gamma*s_t||^2 = "
                                             f"{norm} with gamma={gamma}")
                traj.sampled_losses[t] = loss
                if t % epoch_size == 0:
                    traj.epoch_grads.append((cols, gamma * s))
                if t % snapshot_stride == 0 and len(traj.snapshot_weights) < config.snapshots:
                    traj.snapshot_weights.append(_nonzero_row(w))
                    traj.snapshot_grads.append((cols, gamma * s))

                if shrink != 1.0:
                    w *= shrink
                if len(cols):
                    w[cols] += -gamma * s
                    if not np.isfinite(w[cols]).all():
                        raise FloatingPointError(f"training diverged at step {t}: non-finite "
                                                 f"weight with gamma={gamma}")

                if moves:
                    break
            idle = 0 if moves else idle + len(losses)
            size = min(idle, _MAX_BATCH) if idle >= _BATCH_AFTER else 1

    traj.weights = w
    return traj


def select_best(trajectory: Trajectory) -> tuple[int, SortedVector]:
    """The checkpoint with the lowest dev loss, as (t, weights); ties go to the earliest one."""
    if trajectory.best is None:
        raise ValueError("trajectory has no checkpoints")
    t, _, w = trajectory.best
    return t, trajectory.model.to_sorted(w)
