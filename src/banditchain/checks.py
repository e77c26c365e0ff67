"""Executable certification suite for the exact and stochastic machinery.

Runs the core identities on small seeded fixtures where everything is
enumerable: probability normalization, agreement of the lattice dynamic
programs with enumeration, gradient against finite differences, exact
unbiasedness of each stochastic gradient, the ordered-pair factorization,
and convexity of the cross-entropy objective.  Each check reports its worst
measured error against its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .chain import ChainInstance, ChainModel, LabelAlphabet, posterior
from .feedback import hamming_loss
from .objectives import (
    ObjectiveKind,
    PairSample,
    ce_gradient,
    el_gradient,
    pair_feedback,
    pr_gradient,
)
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    brute_gradient,
    brute_objective,
    distribution,
    finite_diff_gradient,
    pair_distribution,
)
from .sparse import SparseVector

_LABEL_POOL = ("A", "B", "C", "D")
_TOKEN_POOL = ("ash", "birch", "cedar", "dune", "elm", "fern")


@dataclass(frozen=True)
class Fixture:
    model: ChainModel
    instance: ChainInstance
    weights: SparseVector


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    measured: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[self.status]
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{mark}  {self.name}: measured={self.measured:.3e} tolerance={self.tolerance:.1e}{extra}"


@dataclass
class CheckReport:
    results: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def make_fixture(
    seed: int,
    n: Optional[int] = None,
    num_labels: Optional[int] = None,
    weight_scale: float = 0.8,
) -> Fixture:
    """A seeded random instance, model and weight vector, oracle sized."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 4))
    if num_labels is None:
        num_labels = int(rng.integers(2, 4))
    alphabet = LabelAlphabet(_LABEL_POOL[:num_labels])
    model = ChainModel(alphabet)
    tokens = tuple(_TOKEN_POOL[int(i)] for i in rng.integers(len(_TOKEN_POOL), size=n))
    gold = tuple(alphabet.label(int(i)) for i in rng.integers(num_labels, size=n))
    instance = ChainInstance(tokens=tokens, gold=gold)
    weights = random_weights(model, instance, rng, scale=weight_scale)
    return Fixture(model=model, instance=instance, weights=weights)


def random_weights(
    model: ChainModel,
    x: ChainInstance,
    rng: np.random.Generator,
    scale: float = 0.8,
) -> SparseVector:
    """Gaussian weights on every feature that can fire for the instance."""
    fids = model.instance_feature_ids(x)
    return SparseVector({fid: scale * rng.standard_normal() for fid in fids})


def default_fixtures(seed: int = 0, count: int = 8) -> list[Fixture]:
    return [make_fixture(seed * 1000 + i) for i in range(count)]


def _expected_stochastic_gradient(
    kind: ObjectiveKind, fx: Fixture, clip_k: float = 0.0
) -> SparseVector:
    """E[s_t] with the sampling randomness summed out by enumeration."""
    model, x, w = fx.model, fx.instance, fx.weights
    dist = distribution(model, w, x)
    post = posterior(model, w, x)
    deltas = np.array([hamming_loss(x.gold, y) for y in dist.labelings])
    expect = SparseVector()
    # feedback goes by keyword: perfbench's tracer reads it from the call
    if kind is ObjectiveKind.EL:
        for p, y, d in zip(dist.probs, dist.labelings, deltas):
            expect.add_scaled(el_gradient(post, y, delta=float(d)), float(p))
    elif kind.is_pairwise:
        neg = -dist.scores
        q = np.exp(neg - logsumexp(neg))
        for pi, yi, di in zip(dist.probs, dist.labelings, deltas):
            for qj, yj, dj in zip(q, dist.labelings, deltas):
                fb = pair_feedback(float(di), float(dj), kind.pair_mode)
                if fb == 0.0:
                    continue
                grad = pr_gradient(post, PairSample(yi, yj), delta_pair=fb)
                expect.add_scaled(grad, float(pi * qj))
    else:
        for p, y, d in zip(dist.probs, dist.labelings, deltas):
            grad = ce_gradient(post, y, gain=1.0 - float(d), clip=clip_k)
            expect.add_scaled(grad, float(p))
    return expect


def _max_coord_diff(a: SparseVector, b: SparseVector) -> float:
    fids = a.support() | b.support()
    if not fids:
        return 0.0
    return max(abs(a[f] - b[f]) for f in fids)


def check_probability_normalization(fixtures: Sequence[Fixture]) -> CheckResult:
    worst = 0.0
    for fx in fixtures:
        dist = distribution(fx.model, fx.weights, fx.instance)
        worst = max(worst, abs(float(dist.probs.sum()) - 1.0))
    tol = 1e-10
    status = "pass" if worst <= tol else "fail"
    return CheckResult("probability-normalization", status, worst, tol)


def check_exact_inference(fixtures: Sequence[Fixture]) -> CheckResult:
    """Lattice log Z, feature expectations and probabilities vs enumeration."""
    worst = 0.0
    for fx in fixtures:
        model, x, w = fx.model, fx.instance, fx.weights
        dist = distribution(model, w, x)
        post = posterior(model, w, x)
        worst = max(worst, abs(post.log_z - dist.log_z))
        worst = max(worst, _max_coord_diff(post.expected_features(), dist.expected_features()))
        for y, p_enum in zip(dist.labelings, dist.probs):
            worst = max(worst, abs(post.prob(y) - float(p_enum)))
    tol = 1e-10
    return CheckResult("exact-inference", "pass" if worst <= tol else "fail", worst, tol)


def check_gradient_finite_difference(
    fixtures: Sequence[Fixture], h: float = 1e-5, rtol: float = 1e-6, atol: float = 1e-9
) -> list[CheckResult]:
    """brute_gradient vs central differences of brute_objective, per objective."""
    results = []
    for kind in ObjectiveKind:
        worst = 0.0
        for fx in fixtures[:3]:
            model, x, w = fx.model, fx.instance, fx.weights
            data = [x]
            grad = brute_gradient(kind, model, w, data, hamming_loss)
            fd = finite_diff_gradient(
                lambda v: brute_objective(kind, model, v, data, hamming_loss),
                w,
                h=h,
                coords=model.instance_feature_ids(x),
            )
            for fid in set(grad.support()) | set(fd.support()):
                a, b = grad[fid], fd[fid]
                ratio = abs(a - b) / (atol + rtol * max(abs(a), abs(b)))
                worst = max(worst, ratio)
        results.append(
            CheckResult(
                f"gradient-vs-finite-diff-{kind.value}",
                "pass" if worst <= 1.0 else "fail",
                worst,
                1.0,
                detail=f"scaled by atol={atol:g}, rtol={rtol:g}",
            )
        )
    return results


def check_unbiasedness(
    fixtures: Sequence[Fixture],
    n_weights: int = 20,
    clip_k: float = 0.0,
    gradient_perturbation: float = 0.0,
) -> list[CheckResult]:
    """Exact E[s_t] equals the enumerated full gradient, per objective.

    With clip_k > 0 the cross-entropy estimate is biased by construction and
    its check is reported as skipped.  gradient_perturbation is a test hook
    that shifts the estimator side to prove the check can fail.
    """
    tol = 1e-10
    results = []
    # enumerating all ordered pairs is quadratic in |Y(x)|; use the smallest fixture
    base = min(fixtures, key=lambda fx: len(fx.model.alphabet) ** len(fx.instance))
    for kind in ObjectiveKind:
        if kind is ObjectiveKind.CE and clip_k > 0.0:
            results.append(
                CheckResult(
                    f"unbiasedness-{kind.value}",
                    "skip",
                    float("nan"),
                    tol,
                    detail=f"clipping k={clip_k:g} biases the estimate by design",
                )
            )
            continue
        worst = 0.0
        rng = np.random.default_rng(12345)
        for _ in range(n_weights):
            w = random_weights(base.model, base.instance, rng)
            fx = Fixture(base.model, base.instance, w)
            expect = _expected_stochastic_gradient(kind, fx, clip_k=clip_k)
            if gradient_perturbation:
                fids = base.model.instance_feature_ids(base.instance)
                expect = expect + SparseVector({fids[0]: gradient_perturbation})
            target = brute_gradient(kind, base.model, w, [base.instance], hamming_loss)
            worst = max(worst, _max_coord_diff(expect, target))
        results.append(
            CheckResult(
                f"unbiasedness-{kind.value}",
                "pass" if worst <= tol else "fail",
                worst,
                tol,
            )
        )
    return results


def check_pair_factorization(fixtures: Sequence[Fixture]) -> CheckResult:
    """Directly normalized pair probabilities equal p_w(y_i) * p_{-w}(y_j)."""
    worst = 0.0
    for fx in fixtures:
        model, x, w = fx.model, fx.instance, fx.weights
        _, pair_probs = pair_distribution(model, w, x)
        p = distribution(model, w, x).probs
        q = distribution(model, w.scaled(-1.0), x).probs
        worst = max(worst, float(np.max(np.abs(pair_probs - np.outer(p, q)))))
    tol = 1e-12
    return CheckResult("pair-factorization", "pass" if worst <= tol else "fail", worst, tol)


def check_ce_convexity(fixtures: Sequence[Fixture], n_pairs: int = 100) -> CheckResult:
    """Midpoint convexity of the cross-entropy objective on random weight pairs."""
    rng = np.random.default_rng(777)
    fx = fixtures[0]
    model, x = fx.model, fx.instance
    data = [x]
    worst = -float("inf")
    for _ in range(n_pairs):
        w1 = random_weights(model, x, rng)
        w2 = random_weights(model, x, rng)
        mid = (w1 + w2).scale(0.5)
        j_mid = brute_objective(ObjectiveKind.CE, model, mid, data, hamming_loss)
        j_avg = 0.5 * (
            brute_objective(ObjectiveKind.CE, model, w1, data, hamming_loss)
            + brute_objective(ObjectiveKind.CE, model, w2, data, hamming_loss)
        )
        worst = max(worst, j_mid - j_avg)
    tol = 1e-12
    return CheckResult("ce-midpoint-convexity", "pass" if worst <= tol else "fail", worst, tol)


def check_jensen_step(fixtures: Sequence[Fixture]) -> CheckResult:
    """Normalized-gain cross entropy dominates the negative log expected gain."""
    worst = -float("inf")
    for fx in fixtures:
        dist = distribution(fx.model, fx.weights, fx.instance)
        deltas = np.array([hamming_loss(fx.instance.gold, y) for y in dist.labelings])
        gains = 1.0 - deltas
        alpha = gains.sum()
        if alpha <= 0.0:
            continue
        g_bar = gains / alpha
        log_probs = dist.scores - dist.log_z
        lhs = float(-np.dot(g_bar, log_probs))
        rhs = float(-np.log(np.dot(g_bar, dist.probs)))
        worst = max(worst, rhs - lhs)
    tol = 1e-12
    return CheckResult("jensen-step", "pass" if worst <= tol else "fail", worst, tol)


def run_property_checks(
    seed: int = 0,
    n_fixtures: int = 8,
    n_weights: int = 20,
    clip_k: float = 0.0,
    budget: OracleBudget = OracleBudget(),
    gradient_perturbation: float = 0.0,
) -> CheckReport:
    """Run the whole suite on seeded fixtures and collect per-property results."""
    fixtures = default_fixtures(seed=seed, count=n_fixtures)
    for fx in fixtures:  # honor the enumeration budget before any work
        if len(fx.model.alphabet) ** len(fx.instance) > budget.max_outputs:
            raise BudgetExceededError("fixture exceeds the enumeration budget")
    results = [
        check_probability_normalization(fixtures),
        check_exact_inference(fixtures),
        *check_gradient_finite_difference(fixtures),
        *check_unbiasedness(
            fixtures,
            n_weights=n_weights,
            clip_k=clip_k,
            gradient_perturbation=gradient_perturbation,
        ),
        check_pair_factorization(fixtures),
        check_ce_convexity(fixtures),
        check_jensen_step(fixtures),
    ]
    return CheckReport(results=results)
