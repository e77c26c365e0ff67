"""Numerical convergence estimators over finished training runs.

Three quantities, all computed on learning-rate-scaled stochastic gradients
so runs with the same horizon and rate are directly comparable:

* the squared gradient norm at the time horizon, ||gamma * s_T||^2;
* a Lipschitz-constant estimate, the max of ||s_i - s_j|| / ||w_i - w_j||
  over randomly drawn snapshot pairs from the run;
* the empirical variance of the epoch-boundary gradients,
  (1/K) sum_k ||s_{kD} - mean||^2.

They depend only on norms and differences, never on feature identities,
and take (columns, values) rows, or (bitmap, values) rows whose uint8 bitmap
is the mask of the row's columns packed by ``np.packbits`` (the trainer's
snapshot weights); an (S, d) array is S rows over columns 0..d-1.
Every norm is a row-wide numpy pass with numpy's pairwise sums (not BLAS).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .trainer import Trajectory

_MIN_WEIGHT_GAP = 1e-12
_REDRAW_LIMIT = 16


@dataclass(frozen=True)
class ConvergenceReport:
    grad_norm_sq_at_T: float
    lipschitz_est: Optional[float]  # None: the snapshot weights never differed
    variance_est: float
    T: int
    D: int
    K: int
    seed: int
    objective: str
    gamma: float
    clip_k: float = 0.0
    l2_lambda: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ConvergenceReport":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


def grad_norm_sq(trajectory: Trajectory) -> float:
    """||gamma * s_T||^2 at the final horizon T; the run's other steps are
    ``trajectory.scaled_norm_sq[t]``."""
    return float(trajectory.scaled_norm_sq[trajectory.iterations])


class _NoWeightGap(ValueError):
    """Every snapshot pair drawn had (nearly) identical weights."""


def _rows(rows, columns: Optional[np.ndarray] = None) -> tuple[list, np.ndarray]:
    """The rows as (columns, values) or (bitmap, values) pairs, a 2-D (S, d)
    array's over columns 0..d-1, and ``columns``, by default every column some
    row holds, sorted: the bitmaps ORed together, then the other rows' columns."""
    if isinstance(rows, np.ndarray):
        rows = [(np.arange(rows.shape[1]), row) for row in rows]
    if columns is None:
        # the union's bytes: a bitmap's own, or up to the byte of a row's last column
        size = max((len(at) if at.dtype == np.uint8 else at.max() // 8 + 1
                    for at, _ in rows if len(at)), default=0)
        union = np.zeros(size, dtype=np.uint8)
        for at, _ in rows:
            if at.dtype == np.uint8:
                union[:len(at)] |= at
        held = np.unpackbits(union).view(bool)
        for at, _ in rows:
            if at.dtype != np.uint8:
                held[at] = True
        columns = np.flatnonzero(held)
    return rows, columns


def _entries(rows: list, columns: np.ndarray) -> tuple[list, np.ndarray]:
    """The rows as (where, values) pairs into a zeroed buffer over ``columns``,
    and the buffer: a bitmap becomes its mask over the buffer, ascending
    columns a mask too, and either one that fills the buffer a slice."""
    width = columns[-1] + 1 if len(columns) else 0
    at = np.zeros(width, dtype=np.intp)
    at[columns] = np.arange(len(columns))
    out = []
    for held, values in rows:
        if held.dtype == np.uint8:
            bits = np.unpackbits(held)[:width].view(bool)
            where = np.zeros(width, dtype=bool)
            where[:len(bits)] = bits
            if len(values) == len(columns):
                where = slice(None)
            elif width != len(columns):  # the buffer skips columns no row holds
                where = where[columns]
        else:
            where = at[held]
            if len(where) > 1 and (where[1:] > where[:-1]).all():
                full = len(where) == len(columns)
                where = slice(None) if full else np.bincount(where, minlength=len(columns)) > 0
        out.append((where, values))
    return out, np.zeros(len(columns))


def _distances(pairs: Sequence[tuple[int, int]], rows: list, buf: np.ndarray) -> Iterator[float]:
    """||rows[i] - rows[j]|| for each (i, j), summed buffer-wide (numpy's pairwise sum, not BLAS)."""
    for (at_i, values_i), (at_j, values_j) in [(rows[i], rows[j]) for i, j in pairs]:
        if isinstance(at_i, slice) and isinstance(at_j, slice):  # both fill the buffer
            np.subtract(values_i, values_j, out=buf)
        else:
            buf.fill(0.0)
            buf[at_i] = values_i
            buf[at_j] -= values_j
        yield math.sqrt(np.add.reduce(np.square(buf, out=buf)))


def lipschitz_estimate(
    weights,
    grads,
    n_pairs: int = 500,
    rng: Optional[np.random.Generator] = None,
    columns: Optional[np.ndarray] = None,
) -> float:
    """Max gradient-difference to weight-difference ratio over snapshot pairs.

    Row i of ``weights`` is a snapshot w_i and row i of ``grads`` the gradient
    computed at it, placed over ``columns`` (default: the rows' own columns).
    Draws n_pairs distinct-index pairs uniformly (seeded via rng); when the
    pair budget covers every distinct pair the estimator just evaluates all
    of them, which also makes it independent of snapshot order.  Pairs of
    nearly identical weight vectors are redrawn a bounded number of times,
    then skipped, so near-zero denominators never produce spurious ratios.
    """
    n = len(weights)
    if n < 2:
        raise ValueError("need at least 2 snapshots")
    if n_pairs <= 0:
        raise ValueError("pair budget must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    weights, buf = _entries(*_rows(weights, columns))

    if n_pairs >= n * (n - 1) // 2:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        gaps = _distances(pairs, weights, buf)
    else:
        pairs, gaps = [], []
        for _ in range(n_pairs):
            for _ in range(_REDRAW_LIMIT):
                i, j = rng.choice(n, size=2, replace=False)
                (gap,) = _distances([(i, j)], weights, buf)
                if gap >= _MIN_WEIGHT_GAP:
                    pairs.append((i, j))
                    gaps.append(gap)
                    break
    kept = [(pair, gap) for pair, gap in zip(pairs, gaps) if gap >= _MIN_WEIGHT_GAP]
    if not kept:
        raise _NoWeightGap("all snapshots have identical weights; estimate undefined")
    grad_gaps = _distances([pair for pair, _ in kept], *_entries(*_rows(grads, columns)))
    return max(g / gap for g, (_, gap) in zip(grad_gaps, kept))


def variance_estimate(epoch_grads, columns: Optional[np.ndarray] = None) -> float:
    """Mean squared deviation of the epoch-boundary gradients from their mean.

    The gradients are rows placed over ``columns`` (default: their own columns).
    """
    k = len(epoch_grads)
    if k < 2:
        raise ValueError(f"need at least 2 epoch gradients, got {k}")
    rows, columns = _rows(epoch_grads, columns)
    grads = np.zeros((k, len(columns)))
    for row, (at, values) in zip(grads, _entries(rows, columns)[0]):
        row[at] = values
    center = np.add.reduce(grads, axis=0) * (1.0 / k)
    deviation = np.subtract(grads, center, out=grads)
    return float(np.add.reduce(np.square(deviation, out=deviation), axis=None)) / k


def convergence_report(
    trajectory: Trajectory,
    n_pairs: int = 500,
    seed: int = 0,
) -> ConvergenceReport:
    """Assemble all three estimates for a run, over every column its rows hold;
    ``lipschitz_est`` is None when every snapshot pair has the same weights."""
    cfg = trajectory.config
    _, columns = _rows(trajectory.snapshot_weights + trajectory.snapshot_grads
                       + trajectory.epoch_grads)
    try:
        lipschitz = lipschitz_estimate(
            trajectory.snapshot_weights, trajectory.snapshot_grads,
            n_pairs=n_pairs, rng=np.random.default_rng(seed), columns=columns,
        )
    except _NoWeightGap:  # the weights never moved: gamma = 0, or no feedback at any snapshot
        lipschitz = None
    return ConvergenceReport(
        grad_norm_sq_at_T=grad_norm_sq(trajectory),
        lipschitz_est=lipschitz,
        variance_est=variance_estimate(trajectory.epoch_grads, columns),
        T=cfg.iterations,
        D=trajectory.epoch_size,
        K=len(trajectory.epoch_grads),
        seed=cfg.seed,
        objective=cfg.objective.value,
        gamma=cfg.gamma,
        clip_k=cfg.clip_k,
        l2_lambda=cfg.l2_lambda,
    )


_METRICS = ("grad_norm_sq_at_T", "lipschitz_est", "variance_est")


@dataclass
class ComparisonSummary:
    """Per-metric orderings across runs sharing a horizon and learning rate."""

    T: int
    gamma: float
    D: int
    rankings: dict = field(default_factory=dict)  # metric -> [(objective, seed, value)]
    variance_ordering: dict = field(default_factory=dict)  # "a<b" -> bool

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "gamma": self.gamma,
            "D": self.D,
            "rankings": {
                m: [
                    {"objective": o, "seed": s, "value": v}
                    for o, s, v in self.rankings[m]
                ]
                for m in self.rankings
            },
            "variance_ordering": dict(self.variance_ordering),
        }


def _family(objective: str) -> str:
    return "pr" if objective.startswith("pr") else objective


def compare_runs(reports: Sequence[ConvergenceReport]) -> ComparisonSummary:
    """Rank runs per metric and flag the variance ordering across objectives.

    All reports must share T, gamma and D; a None value (an undefined
    Lipschitz estimate) is left out of its metric's ranking.  The
    variance_ordering entry "a<b" is True when, for every seed present in
    both objective families, the family-a run's variance estimate is
    strictly below family-b's (pairwise-preference modes form one family).
    """
    if not reports:
        raise ValueError("no reports to compare")
    T, gamma, D = reports[0].T, reports[0].gamma, reports[0].D
    for r in reports[1:]:
        if (r.T, r.gamma, r.D) != (T, gamma, D):
            raise ValueError(
                f"reports disagree on horizon/rate/epoch: ({r.T}, {r.gamma}, {r.D}) "
                f"vs ({T}, {gamma}, {D})"
            )
    summary = ComparisonSummary(T=T, gamma=gamma, D=D)
    for metric in _METRICS:
        ranked = sorted(
            ((r.objective, r.seed, getattr(r, metric)) for r in reports
             if getattr(r, metric) is not None),
            key=lambda item: item[2],
        )
        summary.rankings[metric] = ranked

    by_family: dict[str, dict[int, float]] = {}
    for r in reports:
        by_family.setdefault(_family(r.objective), {})[r.seed] = r.variance_est
    for a, b in (("pr", "el"), ("el", "ce"), ("pr", "ce")):
        if a in by_family and b in by_family:
            shared = set(by_family[a]) & set(by_family[b])
            if shared:
                summary.variance_ordering[f"{a}<{b}"] = all(
                    by_family[a][s] < by_family[b][s] for s in shared
                )
    return summary
