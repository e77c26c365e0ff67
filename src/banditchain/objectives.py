"""Stochastic gradient constructors for learning from bandit feedback.

Each constructor turns one sampled output (or output pair) plus its scalar
feedback into an unbiased single-sample estimate of the gradient of the
corresponding full-information objective:

* expected loss:        s = delta * (phi(x, y~) - E_p[phi])
* pairwise preference:  s = delta * (phi_pair - E[phi_pair]) over ordered pairs
* cross-entropy:        s = (gain / p^(y~|x)) * (-phi(x, y~) + E_p[phi])

The pair model factorizes as p_w(y_i|x) * p_{-w}(y_j|x), so the PR
estimator takes a pair posterior (``posterior(..., pair=True)``) whose two
chains share one pass: one draw gives both sides, and the pair feature
expectation is the exact difference of the two chain expectations.
The cross-entropy divisor may be clipped from below by a constant k, which
bounds the importance weight at the cost of bias.

``el_columns``, ``pr_columns`` and ``ce_columns`` take sampled outputs as
paths of label indices and build each estimate as an IndexedVector over the
posterior's local columns; ``post.to_sparse`` keys one by feature id.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from .chain import ChainPosterior
from .sparse import IndexedVector


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


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_clip_k(clip_k: float) -> float:
    """The clipping constant k, or a ``ValueError`` unless 0 <= k < 1: k < 1
    keeps the divisor max(p, k) below certainty."""
    if not 0.0 <= clip_k < 1.0:
        raise ValueError(f"clipping constant must be in [0, 1), got {clip_k}")
    return clip_k


def _require_pair(post: ChainPosterior) -> None:
    if post.stack.trans.shape[0] != 2:
        raise ValueError("the PR estimators need a pair posterior: posterior(..., pair=True)")


def el_columns(
    post: ChainPosterior, y_sampled: np.ndarray, delta: float
) -> Optional[IndexedVector]:
    """Expected-loss stochastic gradient: delta * (phi(x, y~) - E_p[phi]).

    y_sampled is a path of label indices.  Over the posterior's local
    columns; None when delta = 0.  The update pushes the sampled structure's
    features toward the mean the harder the worse its feedback was; delta = 0
    contributes nothing.
    """
    delta = _check_unit_interval("delta", delta)
    if delta == 0.0:
        return None
    grad = post.local.features(y_sampled)
    grad.add_scaled(post.expected()[0], -1.0)
    return grad.scale(delta)


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


def pr_columns(
    post: ChainPosterior, pair: np.ndarray, delta_pair: float
) -> Optional[IndexedVector]:
    """Pairwise-preference stochastic gradient over ordered output pairs,
    delta_pair * (phi(x, y_i) - phi(x, y_j) - E[phi(x, y_i) - phi(x, y_j)]),
    over the pair posterior's local columns; None when delta_pair = 0.
    pair holds the label indices of y_i (drawn under w) and y_j (under -w)
    as its two rows, as the pair posterior's ``draw`` returns them.

    By the factorization of the pair model the expectation is the chain
    expectation under w less the one under -w; no sampling needed.
    """
    _require_pair(post)
    delta_pair = _check_unit_interval("delta_pair", delta_pair)
    if delta_pair == 0.0:
        return None
    grad = post.local.features(pair[0])
    grad.add_scaled(post.local.features(pair[1]), -1.0)
    under_w, under_neg = post.expected()
    grad.add_scaled(under_w.add_scaled(under_neg, -1.0), -1.0)
    return grad.scale(delta_pair)


def ce_columns(
    post: ChainPosterior,
    y_sampled: np.ndarray,
    gain: float,
    clip_k: float = 0.0,
) -> Optional[IndexedVector]:
    """Cross-entropy stochastic gradient with clipped importance weight.

    s = (gain / max(p_w(y~|x), k)) * (-phi(x, y~) + E_p[phi]) for a path y~
    of label indices, over the posterior's local columns; None when
    gain = 0.  With k = 0 the estimate is unbiased; k > 0 trades bias for
    bounded variance.
    """
    gain = _check_unit_interval("gain", gain)
    check_clip_k(clip_k)
    if gain == 0.0:
        return None
    p_hat = max(post.prob(y_sampled), clip_k)
    grad = post.expected()[0]
    grad.add_scaled(post.local.features(y_sampled), -1.0)
    if p_hat > 0.0:
        # a finite but huge weight gain / p_hat can still overflow the entries;
        # testing the largest one first keeps numpy from warning about it
        weight = gain / p_hat
        if math.isfinite(weight * float(np.abs(grad.values).max(initial=0.0))):
            return grad.scale(weight)
    raise FloatingPointError(
        f"cross-entropy importance weight overflows: p_w(y~|x) = {p_hat:g} underflowed; "
        "set clip_k > 0 to bound the weight"
    )
