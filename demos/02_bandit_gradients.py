#!/usr/bin/env python3
"""Walkthrough: the three bandit stochastic gradients and their unbiasedness.

A learner that only sees scalar feedback on its own sampled outputs can still
follow the gradient of a full-information objective in expectation.  This
script enumerates the sampling randomness on a small instance and shows that
the expectation of each single-sample gradient equals the exact gradient:

* expected loss (EL):       s = delta * (phi(y~) - E[phi])
* pairwise preference (PR): s = delta_pair * (phi_pair - E[phi_pair])
* cross-entropy (CE):       s = gain / p(y~) * (-phi(y~) + E[phi])

It also shows what clipping does to the cross-entropy estimate: variance
drops, unbiasedness goes.
"""

import numpy as np

import banditchain as bc
from banditchain import ObjectiveKind, SparseVector


def max_gap(a, b):
    return max((abs(a[f] - b[f]) for f in a.support() | b.support()), default=0.0)


def enumerate_expectation(kind, model, x, w, clip_k=0.0):
    """Sum s_t over the full sampling distribution."""
    dist = bc.distribution(model, w, x)
    post = bc.posterior(model, w, x, pair=kind.is_pairwise)
    deltas = [bc.hamming_loss(x.gold, y) for y in dist.labelings]
    # the estimator takes each labeling as a path of label indices
    paths = [model.alphabet.indices(y) for y in dist.labelings]
    expect = SparseVector()
    if kind.is_pairwise:
        q = dist.neg_probs
        for pi, yi, di in zip(dist.probs, paths, deltas):
            for qj, yj, dj in zip(q, paths, deltas):
                fb = bc.pair_feedback(di, dj, kind.pair_mode)
                if fb:
                    grad = bc.stochastic_gradient(kind, post, np.stack((yi, yj)), fb)
                    expect.add_scaled(post.to_sparse(grad), float(pi * qj))
    else:
        # one draw: its path as the one row of the posterior's one chain
        for p, y, d in zip(dist.probs, paths, deltas):
            grad = bc.stochastic_gradient(kind, post, y[None], d, clip_k)
            expect.add_scaled(post.to_sparse(grad), float(p))
    return expect


def enumerated_ce_variance(model, x, w, clip_k):
    dist = bc.distribution(model, w, x)
    post = bc.posterior(model, w, x)
    weighted = [
        (float(p), post.to_sparse(bc.stochastic_gradient(
            ObjectiveKind.CE, post, model.alphabet.indices(y)[None],
            bc.hamming_loss(x.gold, y), clip_k)))
        for p, y in zip(dist.probs, dist.labelings)
    ]
    mean = SparseVector()
    for p, g in weighted:
        mean.add_scaled(g, p)
    return sum(p * (g - mean).norm_sq() for p, g in weighted)


def main():
    model = bc.ChainModel(bc.LabelAlphabet(("A", "B")))
    x = bc.ChainInstance(tokens=("moss", "fern", "moss"), gold=("A", "B", "A"))
    rng = np.random.default_rng(3)
    fids = model.instance_feature_ids(x)
    w = bc.SparseVector({f: 0.7 * float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})

    print("unbiasedness: E[s_t] vs the exact enumerated gradient\n")
    for kind in ObjectiveKind:
        expect = enumerate_expectation(kind, model, x, w)
        target = bc.brute_gradient(kind, model, w, [x], bc.hamming_loss)
        print(f"  {kind.value:8s} max coordinate gap: {max_gap(expect, target):.2e}")

    print("\nclipping the cross-entropy importance weight (k = divisor floor):")
    target = bc.brute_gradient(ObjectiveKind.CE, model, w, [x], bc.hamming_loss)
    for k in (0.0, 0.02, 0.1, 0.3):
        bias = max_gap(enumerate_expectation(ObjectiveKind.CE, model, x, w, k), target)
        var = enumerated_ce_variance(model, x, w, k)
        print(f"  k={k:4}  bias={bias:.3e}  Var[s]={var:9.3f}")
    print("\nk > 0 trades bias for variance; k = 0 keeps the estimate exact.")


if __name__ == "__main__":
    main()
