"""Brute-force ground truth over small output spaces.

Everything here materializes all L^n labelings of an instance and sums over
them directly: scores are dot products with explicit features, the partition
function a flat log-sum-exp over all scores, with no lattice dynamic program.
That makes this module an independent reference for the fast paths and every
stochastic gradient estimate; it shares only phi with them (``extract_features``
through ``ChainModel.compile`` and ``InstanceColumns.features``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ChainInstance, ChainModel, extract_features
from .objectives import ObjectiveKind
from .sparse import SparseVector

LossFn = Callable[[Sequence[str], Sequence[str]], float]

MAX_OUTPUTS = 4096  # the most labelings one instance may enumerate


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of a finite real array, as
    log1p(s / m) + log(m) + top: the m entries equal to the maximum top are
    split out of the sum, and s sums exp(a - top) over the rest."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    m = float(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum() / m
    return float(np.log1p(s) + np.log(m) + top)


class BudgetExceededError(ValueError):
    """The output space is larger than the enumeration budget allows."""


def check_budget(model: ChainModel, x: ChainInstance) -> None:
    """Refuse an instance with more than MAX_OUTPUTS labelings."""
    count = len(model.alphabet) ** len(x)
    if count > MAX_OUTPUTS:
        raise BudgetExceededError(
            f"|Y(x)| = {len(model.alphabet)}^{len(x)} = {count} exceeds the "
            f"enumeration budget of {MAX_OUTPUTS}"
        )


def enumerate_outputs(model: ChainModel, x: ChainInstance) -> list[tuple[str, ...]]:
    """All labelings of x in lexicographic label-index order."""
    check_budget(model, x)
    return [tuple(y) for y in itertools.product(model.alphabet.labels, repeat=len(x))]


@dataclass
class EnumeratedDistribution:
    """The full output distribution of one instance, computed by enumeration."""

    labelings: list[tuple[str, ...]]
    phis: list[SparseVector]
    scores: np.ndarray
    log_z: float
    probs: np.ndarray

    @property
    def neg_probs(self) -> np.ndarray:
        """p_{-w}(y|x) for every labeling, the ordered-pair model's second factor."""
        neg = -self.scores
        return np.exp(neg - logsumexp(neg))

    def expected_features(self) -> SparseVector:
        acc = SparseVector()
        for p, phi in zip(self.probs, self.phis):
            acc.add_scaled(phi, float(p))
        return acc


def distribution(model: ChainModel, w: SparseVector, x: ChainInstance) -> EnumeratedDistribution:
    """Scores, log Z and probabilities for every labeling, by direct summation."""
    labelings = enumerate_outputs(model, x)
    phis = [extract_features(model, x, y) for y in labelings]
    scores = np.array([w.dot(phi) for phi in phis])
    log_z = logsumexp(scores)
    probs = np.exp(scores - log_z)
    return EnumeratedDistribution(
        labelings=labelings, phis=phis, scores=scores, log_z=log_z, probs=probs
    )


def pair_distribution(model: ChainModel, w: SparseVector, x: ChainInstance):
    """Probabilities of every ordered labeling pair, normalized directly.

    Returns (labelings, P) with P[i, j] proportional to
    exp(w . (phi_i - phi_j)), normalized over all ordered pairs including
    i = j.  Computed without the product shortcut so it can certify the
    factorization into p_w(y_i|x) * p_{-w}(y_j|x).
    """
    dist = distribution(model, w, x)
    gaps = dist.scores[:, None] - dist.scores[None, :]
    log_pair_z = logsumexp(gaps)
    return dist.labelings, np.exp(gaps - log_pair_z)


def _instance_losses(x: ChainInstance, labelings, loss: LossFn) -> np.ndarray:
    if x.gold is None:
        raise ValueError("instance has no gold labeling to evaluate feedback against")
    values = np.array([loss(x.gold, y) for y in labelings])
    if np.any((values < 0.0) | (values > 1.0)):
        raise ValueError("loss values must lie in [0, 1]")
    return values


def _pair_loss_matrix(deltas: np.ndarray, mode: str) -> np.ndarray:
    gaps = deltas[:, None] - deltas[None, :]
    if mode == "bin":
        return (gaps > 0.0).astype(float)
    return np.where(gaps > 0.0, gaps, 0.0)


def brute_objective(
    kind: ObjectiveKind,
    model: ChainModel,
    w: SparseVector,
    data: Sequence[ChainInstance],
    loss: LossFn,
) -> float:
    """Exact objective value, uniform over the dataset.

    Expected loss sums delta * p_w(y|x) over outputs; the pairwise risk sums
    the pair feedback against the pair model over all ordered pairs; the
    cross-entropy objective uses the unnormalized gain g = 1 - delta, i.e.
    -sum_y g(y) log p_w(y|x).
    """
    kind = ObjectiveKind.parse(kind)
    if not data:
        raise ValueError("empty dataset")
    total = 0.0
    for x in data:
        dist = distribution(model, w, x)
        deltas = _instance_losses(x, dist.labelings, loss)
        if kind is ObjectiveKind.EL:
            total += float(np.dot(deltas, dist.probs))
        elif kind.is_pairwise:
            q = dist.neg_probs
            pair_losses = _pair_loss_matrix(deltas, kind.pair_mode)
            total += float(dist.probs @ pair_losses @ q)
        else:
            gains = 1.0 - deltas
            log_probs = dist.scores - dist.log_z
            total += float(-np.dot(gains, log_probs))
    return total / len(data)


def brute_gradient(
    kind: ObjectiveKind,
    model: ChainModel,
    w: SparseVector,
    data: Sequence[ChainInstance],
    loss: LossFn,
) -> SparseVector:
    """Exact gradient of brute_objective by enumeration."""
    kind = ObjectiveKind.parse(kind)
    if not data:
        raise ValueError("empty dataset")
    grad = SparseVector()
    scale = 1.0 / len(data)
    for x in data:
        dist = distribution(model, w, x)
        deltas = _instance_losses(x, dist.labelings, loss)
        exp_phi = dist.expected_features()
        if kind is ObjectiveKind.EL:
            # sum_y delta(y) p(y) (phi_y - E[phi])
            weights = deltas * dist.probs
            for wt, phi in zip(weights, dist.phis):
                grad.add_scaled(phi, scale * float(wt))
            grad.add_scaled(exp_phi, -scale * float(weights.sum()))
        elif kind.is_pairwise:
            q = dist.neg_probs
            pair_losses = _pair_loss_matrix(deltas, kind.pair_mode)
            # sum_{ij} D_ij p_i q_j ((phi_i - phi_j) - E_pair[phi])
            first_w = dist.probs * (pair_losses @ q)
            second_w = q * (dist.probs @ pair_losses)
            mass = float(first_w.sum())
            for wt, phi in zip(first_w, dist.phis):
                grad.add_scaled(phi, scale * float(wt))
            for wt, phi in zip(second_w, dist.phis):
                grad.add_scaled(phi, -scale * float(wt))
            exp_q = SparseVector()
            for pj, phi in zip(q, dist.phis):
                exp_q.add_scaled(phi, float(pj))
            pair_exp = exp_phi - exp_q
            grad.add_scaled(pair_exp, -scale * mass)
        else:
            gains = 1.0 - deltas
            # -sum_y g(y) phi_y + alpha(x) E[phi]
            for g, phi in zip(gains, dist.phis):
                grad.add_scaled(phi, -scale * float(g))
            grad.add_scaled(exp_phi, scale * float(gains.sum()))
    return grad


def finite_diff_gradient(
    f: Callable[[SparseVector], float],
    w: SparseVector,
    h: float = 1e-5,
    coords: Sequence[int] | None = None,
) -> SparseVector:
    """Central finite differences of f over the given coordinate set.

    Defaults to the support of w; pass the instance feature-id set when the
    gradient can be nonzero on coordinates where w is zero.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if coords is None:
        coords = sorted(w.support())
    grad = SparseVector()
    probe = w.copy()
    for fid in coords:
        base = probe[fid]
        probe[fid] = base + h
        f_plus = f(probe)
        probe[fid] = base - h
        f_minus = f(probe)
        probe[fid] = base
        grad[fid] = (f_plus - f_minus) / (2.0 * h)
    return grad
