"""Stochastic gradient constructors for learning from bandit feedback.

Each constructor turns one sampled output (or output pair) plus its scalar
feedback into an unbiased single-sample estimate of the gradient of the
corresponding full-information objective:

* expected loss:        s = delta * (phi(x, y~) - E_p[phi])
* pairwise preference:  s = delta * (phi_pair - E[phi_pair]) over ordered pairs
* cross-entropy:        s = (gain / p^(y~|x)) * (-phi(x, y~) + E_p[phi])

The pair model factorizes as p_w(y_i|x) * p_{-w}(y_j|x), so pairs are drawn
by sampling each side from its own chain, and the pair feature expectation
is the exact difference of the two chain expectations.  The cross-entropy
divisor may be clipped from below by a constant k, which bounds the
importance weight at the cost of bias.

``el_columns``, ``pr_columns`` and ``ce_columns`` build each estimate as an
IndexedVector over the posterior's local columns, the trainer's form;
``el_gradient``, ``pr_gradient`` and ``ce_gradient`` return the same
entries, in the same order, as a SparseVector keyed by feature id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .chain import ChainPosterior
from .sparse import IndexedVector, SparseVector


class ObjectiveKind(Enum):
    """The four trainable objectives; PR variants differ only in feedback."""

    EL = "el"
    PR_BIN = "pr-bin"
    PR_CONT = "pr-cont"
    CE = "ce"

    @classmethod
    def parse(cls, name: "str | ObjectiveKind") -> "ObjectiveKind":
        if isinstance(name, ObjectiveKind):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown objective {name!r} (expected one of {options})") from None

    @property
    def is_pairwise(self) -> bool:
        return self in (ObjectiveKind.PR_BIN, ObjectiveKind.PR_CONT)

    @property
    def pair_mode(self) -> str:
        if not self.is_pairwise:
            raise ValueError(f"{self.value} has no pair feedback mode")
        return "bin" if self is ObjectiveKind.PR_BIN else "cont"


@dataclass(frozen=True)
class PairSample:
    """An ordered pair of labelings for one input."""

    first: tuple[str, ...]
    second: tuple[str, ...]


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def el_columns(post: ChainPosterior, y_sampled, delta: float) -> Optional[IndexedVector]:
    """Expected-loss stochastic gradient: delta * (phi(x, y~) - E_p[phi]).

    Over the posterior's local columns; None when delta = 0.  The update
    pushes the sampled structure's features toward the mean the harder the
    worse its feedback was; delta = 0 contributes nothing.
    """
    delta = _check_unit_interval("delta", delta)
    if delta == 0.0:
        return None
    grad = post.features(y_sampled)
    grad.add_scaled(post.expected(), -1.0)
    return grad.scale(delta)


def el_gradient(post: ChainPosterior, y_sampled, delta: float) -> SparseVector:
    """``el_columns`` as a SparseVector keyed by feature id."""
    return post.to_sparse(el_columns(post, y_sampled, delta))


def pr_sample_pair(post: ChainPosterior, rng: np.random.Generator) -> PairSample:
    """Draw an ordered pair: first from p_w(.|x), second from p_{-w}(.|x)."""
    first = post.sample(rng)
    second = post.negated().sample(rng)
    return PairSample(first=first, second=second)


def pair_feedback(delta_first: float, delta_second: float, mode: str) -> float:
    """Pairwise feedback from two pointwise losses.

    Continuous mode returns the loss gap when the first member is strictly
    worse, binary mode returns 1 in that case; both return 0 otherwise.
    """
    delta_first = _check_unit_interval("delta_first", delta_first)
    delta_second = _check_unit_interval("delta_second", delta_second)
    if mode not in ("bin", "cont"):
        raise ValueError(f"mode must be 'bin' or 'cont', got {mode!r}")
    if delta_first > delta_second:
        return 1.0 if mode == "bin" else delta_first - delta_second
    return 0.0


def _pair_expected(post: ChainPosterior) -> IndexedVector:
    exp_pair = post.expected()
    return exp_pair.add_scaled(post.negated().expected(), -1.0)


def pair_expected_features(post: ChainPosterior) -> SparseVector:
    """Exact pair-feature expectation E[phi(x, y_i) - phi(x, y_j)].

    By the factorization of the pair model this is the difference between
    the chain expectation under w and the one under -w; no sampling needed.
    """
    return post.to_sparse(_pair_expected(post))


def pr_columns(
    post: ChainPosterior, pair: PairSample, delta_pair: float
) -> Optional[IndexedVector]:
    """Pairwise-preference stochastic gradient over ordered output pairs,
    over the posterior's local columns; None when delta_pair = 0."""
    delta_pair = _check_unit_interval("delta_pair", delta_pair)
    if delta_pair == 0.0:
        return None
    grad = post.features(pair.first)
    grad.add_scaled(post.features(pair.second), -1.0)
    grad.add_scaled(_pair_expected(post), -1.0)
    return grad.scale(delta_pair)


def pr_gradient(post: ChainPosterior, pair: PairSample, delta_pair: float) -> SparseVector:
    """``pr_columns`` as a SparseVector keyed by feature id."""
    return post.to_sparse(pr_columns(post, pair, delta_pair))


def ce_columns(
    post: ChainPosterior,
    y_sampled,
    gain: float,
    clip_k: float = 0.0,
) -> Optional[IndexedVector]:
    """Cross-entropy stochastic gradient with clipped importance weight.

    s = (gain / max(p_w(y~|x), k)) * (-phi(x, y~) + E_p[phi]), over the
    posterior's local columns; None when gain = 0.  With k = 0 the estimate
    is unbiased; k > 0 trades bias for bounded variance.
    """
    gain = _check_unit_interval("gain", gain)
    # k < 1 keeps the divisor max(p, k) below certainty
    if not 0.0 <= clip_k < 1.0:
        raise ValueError(f"clipping constant must be in [0, 1), got {clip_k}")
    if gain == 0.0:
        return None
    p_hat = max(post.prob(y_sampled), clip_k)
    grad = post.expected()
    grad.add_scaled(post.features(y_sampled), -1.0)
    if p_hat > 0.0:
        # a finite but huge weight gain / p_hat can still overflow the entries;
        # testing the largest one first keeps numpy from warning about it
        weight = gain / p_hat
        if math.isfinite(weight * float(np.abs(grad.values).max(initial=0.0))):
            return grad.scale(weight)
    raise ValueError(
        f"cross-entropy importance weight overflows: p_w(y~|x) = {p_hat:g} underflowed; "
        "set clip_k > 0 to bound the weight"
    )


def ce_gradient(
    post: ChainPosterior,
    y_sampled,
    gain: float,
    clip_k: float = 0.0,
) -> SparseVector:
    """``ce_columns`` as a SparseVector keyed by feature id."""
    return post.to_sparse(ce_columns(post, y_sampled, gain, clip_k))
