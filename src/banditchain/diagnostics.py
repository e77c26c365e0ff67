"""Numerical convergence estimators over finished training runs.

Three quantities, all computed on learning-rate-scaled stochastic gradients
so runs with the same horizon and rate are directly comparable:

* the squared gradient norm at the time horizon, ||gamma * s_T||^2;
* a Lipschitz-constant estimate, the max of ||s_i - s_j|| / ||w_i - w_j||
  over randomly drawn snapshot pairs from the run;
* the empirical variance of the epoch-boundary gradients,
  (1/K) sum_k ||s_{kD} - mean||^2.

They depend only on norms and differences, never on feature identities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .sparse import SparseVector, mean_vector
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


def lipschitz_estimate(
    snapshots: Sequence[tuple[SparseVector, SparseVector]],
    n_pairs: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max gradient-difference to weight-difference ratio over snapshot pairs.

    Draws n_pairs distinct-index pairs uniformly (seeded via rng); when the
    pair budget covers every distinct pair the estimator just evaluates all
    of them, which also makes it independent of snapshot order.  Pairs of
    nearly identical weight vectors are redrawn a bounded number of times,
    then skipped, so near-zero denominators never produce spurious ratios.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least 2 snapshots")
    if n_pairs <= 0:
        raise ValueError("pair budget must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    def ratio(i: int, j: int) -> Optional[float]:
        w_i, s_i = snapshots[i]
        w_j, s_j = snapshots[j]
        gap = (w_i - w_j).norm()
        if gap < _MIN_WEIGHT_GAP:
            return None
        return (s_i - s_j).norm() / gap

    n = len(snapshots)
    best: Optional[float] = None
    if n_pairs >= n * (n - 1) // 2:
        for i in range(n):
            for j in range(i + 1, n):
                r = ratio(i, j)
                if r is not None and (best is None or r > best):
                    best = r
    else:
        for _ in range(n_pairs):
            r = None
            for _ in range(_REDRAW_LIMIT):
                i, j = rng.choice(n, size=2, replace=False)
                r = ratio(int(i), int(j))
                if r is not None:
                    break
            if r is not None and (best is None or r > best):
                best = r
    if best is None:
        raise ValueError("all snapshots have identical weights; estimate undefined")
    return best


def variance_estimate(epoch_grads: Sequence[SparseVector]) -> float:
    """Mean squared deviation of the epoch-boundary gradients from their mean."""
    k = len(epoch_grads)
    if k < 2:
        raise ValueError(f"need at least 2 epoch gradients, got {k}")
    center = mean_vector(epoch_grads)
    return sum((g - center).norm_sq() for g in epoch_grads) / k


def convergence_report(
    trajectory: Trajectory,
    n_pairs: int = 500,
    seed: int = 0,
) -> ConvergenceReport:
    """Assemble all three estimates for one finished run."""
    cfg = trajectory.config
    epoch_vectors = [g for _, g in trajectory.epoch_grads]
    return ConvergenceReport(
        grad_norm_sq_at_T=grad_norm_sq(trajectory),
        lipschitz_est=lipschitz_estimate(
            trajectory.snapshots, n_pairs=n_pairs, rng=np.random.default_rng(seed)
        ),
        variance_est=variance_estimate(epoch_vectors),
        T=cfg.iterations,
        D=trajectory.epoch_size,
        K=len(epoch_vectors),
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
