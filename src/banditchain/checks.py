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

from .chain import ChainInstance, ChainModel, LabelAlphabet, posterior
from .feedback import hamming_loss
from .objectives import (
    ObjectiveKind,
    ce_columns,
    check_clip_k,
    el_columns,
    pair_feedback,
    pr_columns,
)
from .oracle import (
    brute_gradient,
    brute_objective,
    check_budget,
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


def make_fixture(seed: int, n: Optional[int] = None, num_labels: Optional[int] = None) -> Fixture:
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
    weights = random_weights(model, instance, rng)
    return Fixture(model=model, instance=instance, weights=weights)


def random_weights(model: ChainModel, x: ChainInstance, rng: np.random.Generator) -> SparseVector:
    """Gaussian weights, standard deviation 0.8, on every feature that can
    fire for the instance."""
    fids = model.instance_feature_ids(x)
    return SparseVector({fid: 0.8 * rng.standard_normal() for fid in fids})


def default_fixtures(seed: int = 0, count: int = 8) -> list[Fixture]:
    return [make_fixture(seed * 1000 + i) for i in range(count)]


def _expected_stochastic_gradient(
    kind: ObjectiveKind, fx: Fixture, clip_k: float = 0.0
) -> SparseVector:
    """E[s_t] with the sampling randomness summed out by enumeration."""
    model, x, w = fx.model, fx.instance, fx.weights
    dist = distribution(model, w, x)
    post = posterior(model, w, x, pair=kind.is_pairwise)
    deltas = np.array([hamming_loss(x.gold, y) for y in dist.labelings])
    paths = [model.alphabet.indices(y) for y in dist.labelings]
    expect = SparseVector()
    if kind is ObjectiveKind.EL:
        for p, y, d in zip(dist.probs, paths, deltas):
            grad = post.to_sparse(el_columns(post, y, delta=float(d)))
            expect.add_scaled(grad, float(p))
    elif kind.is_pairwise:
        q = dist.neg_probs
        for pi, yi, di in zip(dist.probs, paths, deltas):
            for qj, yj, dj in zip(q, paths, deltas):
                fb = pair_feedback(float(di), float(dj), kind.pair_mode)
                if fb == 0.0:
                    continue
                grad = post.to_sparse(pr_columns(post, np.stack((yi, yj)), delta_pair=fb))
                expect.add_scaled(grad, float(pi * qj))
    else:
        for p, y, d in zip(dist.probs, paths, deltas):
            grad = post.to_sparse(ce_columns(post, y, gain=1.0 - float(d), clip_k=clip_k))
            expect.add_scaled(grad, float(p))
    return expect


def _verdict(name: str, worst: float, tol: float, cases: int, detail: str = "") -> CheckResult:
    """PASS when the worst error is within tol over at least one case; a
    check that ran no case fails."""
    if not cases:
        return CheckResult(name, "fail", worst, tol, detail="no cases ran")
    return CheckResult(name, "pass" if worst <= tol else "fail", worst, tol, detail)


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
    return _verdict("probability-normalization", worst, 1e-10, len(fixtures))


def check_exact_inference(fixtures: Sequence[Fixture]) -> CheckResult:
    """Lattice log Z, feature expectations and probabilities vs enumeration."""
    worst = 0.0
    for fx in fixtures:
        model, x, w = fx.model, fx.instance, fx.weights
        dist = distribution(model, w, x)
        post = posterior(model, w, x)
        worst = max(worst, abs(post.log_z - dist.log_z))
        exact = post.to_sparse(post.expected()[0])
        worst = max(worst, _max_coord_diff(exact, dist.expected_features()))
        for y, p_enum in zip(dist.labelings, dist.probs):
            worst = max(worst, abs(post.prob(model.alphabet.indices(y)) - float(p_enum)))
    return _verdict("exact-inference", worst, 1e-10, len(fixtures))


def check_gradient_finite_difference(fixtures: Sequence[Fixture]) -> list[CheckResult]:
    """brute_gradient vs central differences of brute_objective (step 1e-5),
    per objective."""
    rtol, atol = 1e-6, 1e-9
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
                h=1e-5,
                coords=model.instance_feature_ids(x),
            )
            for fid in set(grad.support()) | set(fd.support()):
                a, b = grad[fid], fd[fid]
                ratio = abs(a - b) / (atol + rtol * max(abs(a), abs(b)))
                worst = max(worst, ratio)
        results.append(_verdict(f"gradient-vs-finite-diff-{kind.value}", worst, 1.0,
                                len(fixtures[:3]), f"scaled by atol={atol:g}, rtol={rtol:g}"))
    return results


def check_unbiasedness(
    fixtures: Sequence[Fixture],
    n_weights: int = 20,
    clip_k: float = 0.0,
) -> list[CheckResult]:
    """Exact E[s_t] equals the enumerated full gradient, per objective.

    With clip_k > 0 the cross-entropy estimate is biased by construction and
    its check is reported as skipped.
    """
    tol = 1e-10
    results = []
    # enumerating all ordered pairs is quadratic in |Y(x)|; use the smallest fixture
    base = min(fixtures, key=lambda fx: len(fx.model.alphabet) ** len(fx.instance), default=None)
    cases = max(n_weights, 0) if base is not None else 0
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
        for _ in range(cases):
            w = random_weights(base.model, base.instance, rng)
            fx = Fixture(base.model, base.instance, w)
            expect = _expected_stochastic_gradient(kind, fx, clip_k=clip_k)
            target = brute_gradient(kind, base.model, w, [base.instance], hamming_loss)
            worst = max(worst, _max_coord_diff(expect, target))
        results.append(_verdict(f"unbiasedness-{kind.value}", worst, tol, cases))
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
    return _verdict("pair-factorization", worst, 1e-12, len(fixtures))


def check_ce_convexity(fixtures: Sequence[Fixture]) -> CheckResult:
    """Midpoint convexity of the cross-entropy objective on 100 random weight pairs."""
    n_pairs = 100
    rng = np.random.default_rng(777)
    worst = -float("inf")
    for fx in fixtures[:1]:
        model, x = fx.model, fx.instance
        data = [x]
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
    return _verdict("ce-midpoint-convexity", worst, 1e-12, n_pairs if fixtures else 0)


def check_jensen_step(fixtures: Sequence[Fixture]) -> CheckResult:
    """Normalized-gain cross entropy dominates the negative log expected gain."""
    worst = -float("inf")
    cases = 0
    for fx in fixtures:
        dist = distribution(fx.model, fx.weights, fx.instance)
        gains = 1.0 - np.array([hamming_loss(fx.instance.gold, y) for y in dist.labelings])
        alpha = gains.sum()
        if alpha <= 0.0:
            continue
        cases += 1
        g_bar = gains / alpha
        log_probs = dist.scores - dist.log_z
        lhs = float(-np.dot(g_bar, log_probs))
        rhs = float(-np.log(np.dot(g_bar, dist.probs)))
        worst = max(worst, rhs - lhs)
    return _verdict("jensen-step", worst, 1e-12, cases)


def run_property_checks(
    seed: int = 0, n_fixtures: int = 8, n_weights: int = 20, clip_k: float = 0.0
) -> CheckReport:
    """Run the whole suite on seeded fixtures and collect per-property
    results; n_fixtures or n_weights below 1, a negative seed or a clip_k
    outside [0, 1) is a ``ValueError``."""
    if n_fixtures < 1 or n_weights < 1:
        raise ValueError(f"the checks need at least 1 fixture and 1 weight vector, "
                         f"got {n_fixtures} and {n_weights}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    check_clip_k(clip_k)
    fixtures = default_fixtures(seed=seed, count=n_fixtures)
    for fx in fixtures:  # honor the enumeration budget before any work
        check_budget(fx.model, fx.instance)
    results = [
        check_probability_normalization(fixtures),
        check_exact_inference(fixtures),
        *check_gradient_finite_difference(fixtures),
        *check_unbiasedness(fixtures, n_weights=n_weights, clip_k=clip_k),
        check_pair_factorization(fixtures),
        check_ce_convexity(fixtures),
        check_jensen_step(fixtures),
    ]
    return CheckReport(results=results)
