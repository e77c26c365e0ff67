"""Numerical convergence estimators over finished training runs.

Three quantities, all computed on learning-rate-scaled stochastic gradients
so runs with the same horizon and rate are directly comparable:

* the squared gradient norm at the time horizon, ||gamma * s_T||^2;
* a Lipschitz-constant estimate, the max of ||s_i - s_j|| / ||w_i - w_j||
  over randomly drawn snapshot pairs from the run;
* the empirical variance of the epoch-boundary gradients,
  (1/K) sum_k ||s_{kD} - mean||^2.

They depend only on norms and differences, never on feature identities,
and take the trainer's rows as they are: snapshots and epoch gradients are
rows of (S, d) column arrays.  Every norm is a row-wide numpy pass with
numpy's pairwise sums (not BLAS).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .trainer import Trajectory

_MIN_WEIGHT_GAP = 1e-12
_REDRAW_LIMIT = 16


@dataclass(frozen=True)
class ConvergenceReport:
    grad_norm_sq_at_T: float
    lipschitz_est: float
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


def grad_norm_sq(trajectory: Trajectory, t: Optional[int] = None) -> float:
    """||gamma * s_t||^2 at the given step (default: the final horizon T)."""
    if t is None:
        t = trajectory.iterations
    if not 1 <= t < len(trajectory.scaled_norm_sq):
        raise ValueError(f"no step record at t={t} (run length {trajectory.iterations})")
    return float(trajectory.scaled_norm_sq[t])


def _distances(rows: np.ndarray, pairs: Sequence[tuple[int, int]]) -> list[float]:
    """||rows[i] - rows[j]|| for each (i, j): a row-wide subtract and square
    into one reused buffer, then numpy's pairwise sum (not BLAS)."""
    diff = np.empty(rows.shape[1])
    out = []
    for i, j in pairs:
        np.subtract(rows[i], rows[j], out=diff)
        out.append(math.sqrt(np.add.reduce(np.square(diff, out=diff))))
    return out


def lipschitz_estimate(
    weights: np.ndarray,
    grads: np.ndarray,
    n_pairs: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max gradient-difference to weight-difference ratio over snapshot pairs.

    Row i of ``weights`` (S, d) is a snapshot w_i and row i of ``grads`` the
    gradient computed at it.  Draws n_pairs distinct-index pairs uniformly
    (seeded via rng); when the pair budget covers every distinct pair the
    estimator just evaluates all of them, which also makes it independent of
    snapshot order.  Pairs of nearly identical weight vectors are redrawn a
    bounded number of times, then skipped, so near-zero denominators never
    produce spurious ratios.
    """
    n = len(weights)
    if n < 2:
        raise ValueError("need at least 2 snapshots")
    if n_pairs <= 0:
        raise ValueError("pair budget must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    if n_pairs >= n * (n - 1) // 2:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        gaps = _distances(weights, pairs)
    else:
        pairs, gaps = [], []
        for _ in range(n_pairs):
            for _ in range(_REDRAW_LIMIT):
                i, j = rng.choice(n, size=2, replace=False)
                (gap,) = _distances(weights, [(i, j)])
                if gap >= _MIN_WEIGHT_GAP:
                    pairs.append((i, j))
                    gaps.append(gap)
                    break
    kept = [(pair, gap) for pair, gap in zip(pairs, gaps) if gap >= _MIN_WEIGHT_GAP]
    if not kept:
        raise ValueError("all snapshots have identical weights; estimate undefined")
    grad_gaps = _distances(grads, [pair for pair, _ in kept])
    return max(g / gap for g, (_, gap) in zip(grad_gaps, kept))


def variance_estimate(epoch_grads: np.ndarray) -> float:
    """Mean squared deviation of the epoch-boundary gradients from their mean.

    Rows of ``epoch_grads`` (K, d) are the gradients; one vectorized pass.
    """
    k = len(epoch_grads)
    if k < 2:
        raise ValueError(f"need at least 2 epoch gradients, got {k}")
    center = np.add.reduce(epoch_grads, axis=0) * (1.0 / k)
    deviation = epoch_grads - center
    return float(np.add.reduce(deviation * deviation, axis=None)) / k


def convergence_report(
    trajectory: Trajectory,
    n_pairs: int = 500,
    seed: int = 0,
) -> ConvergenceReport:
    """Assemble all three estimates for one finished run."""
    cfg = trajectory.config
    return ConvergenceReport(
        grad_norm_sq_at_T=grad_norm_sq(trajectory),
        lipschitz_est=lipschitz_estimate(
            trajectory.snapshot_weights, trajectory.snapshot_grads,
            n_pairs=n_pairs, rng=np.random.default_rng(seed),
        ),
        variance_est=variance_estimate(trajectory.epoch_grads),
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

    All reports must share T, gamma and D.  The variance_ordering entry
    "a<b" is True when, for every seed present in both objective families,
    the family-a run's variance estimate is strictly below family-b's
    (pairwise-preference modes form one family).
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
            ((r.objective, r.seed, getattr(r, metric)) for r in reports),
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
