"""The stochastic gradient step of learning from bandit feedback.

``stochastic_gradient`` turns one sampled output (or output pair) plus its
scalar feedback into an unbiased single-sample estimate of the gradient of
the objective's full-information counterpart:

* expected loss:        s = delta * (phi(x, y~) - E_p[phi])
* pairwise preference:  s = delta * (phi_pair - E[phi_pair]) over ordered pairs
* cross-entropy:        s = (gain / p^(y~|x)) * (-phi(x, y~) + E_p[phi])

The pair model factorizes as p_w(y_i|x) * p_{-w}(y_j|x), so the PR
estimator takes a pair posterior (``posterior(..., pair=True)``) whose two
chains share one pass: one draw gives both sides, and the pair feature
expectation is the exact difference of the two chain expectations.
The cross-entropy divisor may be clipped from below by a constant k, which
bounds the importance weight at the cost of bias.

The sampled outputs are paths of label indices, and each estimate is an
IndexedVector over the posterior's local columns; ``post.to_sparse`` keys
one by feature id.
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

    def scale(self, feedback: float) -> float:
        """The factor s_t scales by for a step's feedback: CE's gain
        1 - loss, and the feedback itself for the others."""
        return 1.0 - feedback if self is ObjectiveKind.CE else feedback


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


def stochastic_gradient(
    kind: ObjectiveKind,
    post: ChainPosterior,
    paths: np.ndarray,
    feedback: float,
    clip_k: float = 0.0,
) -> Optional[IndexedVector]:
    """The single-sample gradient s_t of kind over the posterior's local
    columns; None when ``kind.scale(feedback)`` is 0, which makes s_t zero.

    paths holds the step's draws as label indices, a row per chain of post
    as its ``draw`` returns them: y~ for EL and CE, the ordered pair (y_i
    under w, y_j under -w) for PR, which needs a pair posterior.  feedback
    is the loss of y~, or PR's pair feedback.  By the factorization of the
    pair model, PR's expectation is the chain expectation under w less the
    one under -w.  CE divides by max(p_w(y~|x), clip_k): unbiased at k = 0,
    bounded variance at the cost of bias for k > 0.
    """
    if kind.is_pairwise and post.stack.trans.shape[0] != 2:
        raise ValueError("the PR estimators need a pair posterior: posterior(..., pair=True)")
    scale = kind.scale(_check_unit_interval("feedback", feedback))
    check_clip_k(clip_k)
    if scale == 0.0:
        return None
    features = post.local.features
    if kind.is_pairwise:
        grad = features(paths[0])
        grad.add_scaled(features(paths[1]), -1.0)
        under_w, under_neg = post.expected()
        grad.add_scaled(under_w.add_scaled(under_neg, -1.0), -1.0)
        return grad.scale(scale)
    if kind is ObjectiveKind.EL:
        grad = features(paths[0])
        grad.add_scaled(post.expected()[0], -1.0)
        return grad.scale(scale)
    p_hat = max(post.prob(paths[0]), clip_k)
    grad = post.expected()[0]
    grad.add_scaled(features(paths[0]), -1.0)
    if p_hat > 0.0:
        # a finite but huge weight scale / p_hat can still overflow the entries;
        # testing the largest one first keeps numpy from warning about it
        weight = scale / p_hat
        if math.isfinite(weight * float(np.abs(grad.values).max(initial=0.0))):
            return grad.scale(weight)
    raise FloatingPointError(
        f"cross-entropy importance weight overflows: p_w(y~|x) = {p_hat:g} underflowed; "
        "set clip_k > 0 to bound the weight"
    )
