import math

import numpy as np
import pytest

from banditchain import (
    ChainInstance,
    ObjectiveKind,
    SparseVector,
    brute_gradient,
    ce_columns,
    distribution,
    el_columns,
    extract_features,
    feature_id,
    hamming_loss,
    pair_feedback,
    pr_columns,
    posterior,
)

from conftest import random_instance_weights


def neg_probs(dist):
    from scipy.special import logsumexp

    neg = -dist.scores
    return np.exp(neg - logsumexp(neg))


def max_coord_diff(a, b):
    fids = a.support() | b.support()
    return max((abs(a[f] - b[f]) for f in fids), default=0.0)


# the estimators take label-index paths; these helpers take label tuples


def el_sparse(post, y, delta):
    return post.to_sparse(el_columns(post, post.model.alphabet.indices(y), delta))


def pr_sparse(post, pair, delta_pair):
    """pair: the label tuples of y_i (drawn under w) and y_j (under -w)."""
    paths = np.stack([post.model.alphabet.indices(y) for y in pair])
    return post.to_sparse(pr_columns(post, paths, delta_pair))


def ce_sparse(post, y, gain, clip_k=0.0):
    return post.to_sparse(ce_columns(post, post.model.alphabet.indices(y), gain, clip_k))


def pair_expected(post):
    """E[phi(x, y_i) - phi(x, y_j)] of a pair posterior, keyed by id."""
    under_w, under_neg = post.expected()
    return post.to_sparse(under_w.add_scaled(under_neg, -1.0))


def tv_distance(empirical, exact):
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


# -- objective kinds ---------------------------------------------------------------


def test_objective_kind_parsing():
    assert ObjectiveKind.parse("pr-bin") is ObjectiveKind.PR_BIN
    assert ObjectiveKind.parse(ObjectiveKind.CE) is ObjectiveKind.CE
    assert ObjectiveKind.PR_CONT.pair_mode == "cont"
    assert not ObjectiveKind.EL.is_pairwise
    with pytest.raises(ValueError, match="unknown objective"):
        ObjectiveKind.parse("sgd")
    with pytest.raises(ValueError):
        _ = ObjectiveKind.CE.pair_mode


def test_clipping_config_validation(ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance)
    for clip_k in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"clipping constant must be in \[0, 1\)"):
            ce_sparse(post, ("A", "A", "A"), 0.5, clip_k=clip_k)


# -- expected loss ------------------------------------------------------------------


def test_el_gradient_zero_feedback(ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance)
    grad = el_sparse(post, ("A", "B", "A"), 0.0)
    assert len(grad) == 0


def test_el_gradient_uniform_single_position(ab_model):
    x = ChainInstance(tokens=("moss",))
    grad = el_sparse(posterior(ab_model, SparseVector(), x), ("A",), 1.0)
    assert grad[feature_id("em0\x1fmoss\x1fA")] == pytest.approx(0.5, abs=1e-12)
    assert grad[feature_id("em0\x1fmoss\x1fB")] == pytest.approx(-0.5, abs=1e-12)


def test_el_gradient_rejects_out_of_range_delta(ab_model, fixed_instance, fixed_weights):
    with pytest.raises(ValueError, match="delta"):
        el_sparse(posterior(ab_model, fixed_weights, fixed_instance), ("A", "B", "A"), 1.5)


def test_el_scale_property(ab_model, fixed_instance, fixed_weights):
    y = ("B", "A", "A")
    post = posterior(ab_model, fixed_weights, fixed_instance)
    base = el_sparse(post, y, 0.8)
    half = el_sparse(post, y, 0.4)
    # 0.4 = 0.5 * 0.8 exactly in binary floating point
    assert half == base.scaled(0.5)


def test_el_unbiasedness(ab_model, fixed_instance):
    for seed in (1, 2, 3):
        w = random_instance_weights(ab_model, fixed_instance, seed)
        dist = distribution(ab_model, w, fixed_instance)
        post = posterior(ab_model, w, fixed_instance)
        expect = SparseVector()
        for p, y in zip(dist.probs, dist.labelings):
            d = hamming_loss(fixed_instance.gold, y)
            expect.add_scaled(el_sparse(post, y, d), float(p))
        target = brute_gradient(ObjectiveKind.EL, ab_model, w, [fixed_instance], hamming_loss)
        assert max_coord_diff(expect, target) <= 1e-10


# -- pair sampling ------------------------------------------------------------------


def sample_pairs(post, size, rng):
    """Batched draws of a pair posterior, as its draw makes one: under w, then under -w."""
    first, second = post.sample_many(size, rng)
    return first, second


def test_pair_sampler_uniform(ab_model, fixed_instance):
    first, second = sample_pairs(
        posterior(ab_model, SparseVector(), fixed_instance, pair=True), 200_000,
        np.random.default_rng(2)
    )
    counts = {}
    for f, s in zip(map(tuple, first.tolist()), map(tuple, second.tolist())):
        counts[(f, s)] = counts.get((f, s), 0) + 1
    empirical = {k: v / 200_000 for k, v in counts.items()}
    keys = [tuple(t) for t in np.ndindex(2, 2, 2)]
    exact = {(a, b): 1 / 64 for a in keys for b in keys}
    assert tv_distance(empirical, exact) <= 0.03


def test_pair_sampler_matches_factorized_oracle(ab_model, fixed_instance, fixed_weights):
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    q = neg_probs(dist)
    to_idx = lambda y: tuple(ab_model.alphabet.indices(y).tolist())
    exact = {
        (to_idx(yi), to_idx(yj)): float(pi * qj)
        for yi, pi in zip(dist.labelings, dist.probs)
        for yj, qj in zip(dist.labelings, q)
    }
    first, second = sample_pairs(
        posterior(ab_model, fixed_weights, fixed_instance, pair=True), 200_000,
        np.random.default_rng(4)
    )
    counts = {}
    for f, s in zip(map(tuple, first.tolist()), map(tuple, second.tolist())):
        counts[(f, s)] = counts.get((f, s), 0) + 1
    empirical = {k: v / 200_000 for k, v in counts.items()}
    assert tv_distance(empirical, exact) <= 0.03


def test_pair_sampler_determinism(ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance, pair=True)
    pairs = [[post.sample(np.random.default_rng(9)) for _ in range(5)] for _ in range(2)]
    assert pairs[0] == pairs[1]


# -- pair feedback ------------------------------------------------------------------


def test_pair_feedback_values():
    assert pair_feedback(0.7, 0.4, "cont") == pytest.approx(0.3)
    assert pair_feedback(0.7, 0.4, "bin") == 1.0
    assert pair_feedback(0.4, 0.7, "cont") == 0.0
    assert pair_feedback(0.4, 0.7, "bin") == 0.0
    assert pair_feedback(0.5, 0.5, "cont") == 0.0
    assert pair_feedback(0.5, 0.5, "bin") == 0.0


def test_pair_feedback_validation():
    with pytest.raises(ValueError):
        pair_feedback(1.2, 0.5, "bin")
    with pytest.raises(ValueError):
        pair_feedback(0.5, -0.1, "cont")
    with pytest.raises(ValueError, match="mode"):
        pair_feedback(0.5, 0.1, "continuous")


# -- pairwise gradient ----------------------------------------------------------------


def test_pr_gradient_zero_feedback(ab_model, fixed_instance, fixed_weights):
    pair = (("A", "A", "A"), ("B", "B", "B"))
    post = posterior(ab_model, fixed_weights, fixed_instance, pair=True)
    assert len(pr_sparse(post, pair, 0.0)) == 0


@pytest.mark.parametrize("delta_pair", [0.0, 0.5])
def test_pr_on_a_one_chain_posterior_names_the_pair_posterior(
        delta_pair, ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance)
    pair = (("A", "A", "A"), ("B", "B", "B"))
    with pytest.raises(ValueError, match=r"posterior\(\.\.\., pair=True\)"):
        pr_sparse(post, pair, delta_pair)


def test_pr_gradient_zero_weights_reduces_to_feature_gap(ab_model, fixed_instance):
    post = posterior(ab_model, SparseVector(), fixed_instance, pair=True)
    assert len(pair_expected(post)) == 0
    pair = (("A", "A", "A"), ("B", "B", "B"))
    grad = pr_sparse(post, pair, 0.5)
    gap = extract_features(ab_model, fixed_instance, pair[0]) - extract_features(
        ab_model, fixed_instance, pair[1]
    )
    assert grad == gap.scaled(0.5)


@pytest.mark.parametrize("kind", [ObjectiveKind.PR_BIN, ObjectiveKind.PR_CONT])
def test_pr_unbiasedness(kind, ab_model, fixed_instance):
    for seed in (1, 2):
        w = random_instance_weights(ab_model, fixed_instance, seed)
        dist = distribution(ab_model, w, fixed_instance)
        q = neg_probs(dist)
        post = posterior(ab_model, w, fixed_instance, pair=True)
        deltas = [hamming_loss(fixed_instance.gold, y) for y in dist.labelings]
        expect = SparseVector()
        for pi, yi, di in zip(dist.probs, dist.labelings, deltas):
            for qj, yj, dj in zip(q, dist.labelings, deltas):
                fb = pair_feedback(di, dj, kind.pair_mode)
                if fb == 0.0:
                    continue
                grad = pr_sparse(post, (yi, yj), fb)
                expect.add_scaled(grad, float(pi * qj))
        target = brute_gradient(kind, ab_model, w, [fixed_instance], hamming_loss)
        assert max_coord_diff(expect, target) <= 1e-10


def test_pr_gradient_norm_bounded_by_pair_diameter(ab_model, fixed_instance, fixed_weights):
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    post = posterior(ab_model, fixed_weights, fixed_instance, pair=True)
    exp_pair = pair_expected(post)
    deltas = [hamming_loss(fixed_instance.gold, y) for y in dist.labelings]
    diameter = max(
        (
            extract_features(ab_model, fixed_instance, yi)
            - extract_features(ab_model, fixed_instance, yj)
            - exp_pair
        ).norm()
        for yi in dist.labelings
        for yj in dist.labelings
    )
    for yi, di in zip(dist.labelings, deltas):
        for yj, dj in zip(dist.labelings, deltas):
            pair = (yi, yj)
            s_bin = pr_sparse(post, pair, pair_feedback(di, dj, "bin"))
            s_cont = pr_sparse(post, pair, pair_feedback(di, dj, "cont"))
            assert s_bin.norm() <= diameter + 1e-12
            assert s_cont.norm() <= s_bin.norm() + 1e-12


# -- cross entropy ----------------------------------------------------------------------


def test_ce_gradient_zero_gain(ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance)
    assert len(ce_sparse(post, ("A", "A", "A"), 0.0)) == 0


def test_ce_gradient_clips_small_probabilities(ab_model):
    # p(A) = 1 / (1 + 9999) = 1e-4, below the clipping floor of 5e-3
    x = ChainInstance(tokens=("moss",))
    w = SparseVector({feature_id("em0\x1fmoss\x1fB"): math.log(9999.0)})
    post = posterior(ab_model, w, x)
    grad = ce_sparse(post, ("A",), 0.5, clip_k=5e-3)
    expected = post.to_sparse(post.expected()[0])
    expected.add_scaled(extract_features(ab_model, x, ("A",)), -1.0)
    expected.scale(0.5 / 5e-3)
    assert max_coord_diff(grad, expected) <= 1e-12


@pytest.mark.parametrize("weight", [300.0, 237.0, 236.3])
def test_ce_gradient_names_underflowed_importance_weight(ab_model, weight):
    # p(B, B, B) is about exp(-3 * weight): 0 at 300, subnormal (1/p = inf) at 237,
    # and at 236.3 1/p is finite but the scaled gradient entries overflow to inf
    x = ChainInstance(tokens=("t", "t", "t"))
    post = posterior(ab_model, SparseVector({feature_id("em0\x1ft\x1fA"): weight}), x)
    assert post.prob(np.array([1, 1, 1])) < 2.3e-308
    with pytest.raises(FloatingPointError, match="underflowed; set clip_k > 0"):
        ce_sparse(post, ("B", "B", "B"), 1.0)
    assert len(ce_sparse(post, ("B", "B", "B"), 1.0, clip_k=1e-3)) > 0


def test_ce_unbiasedness_without_clipping(ab_model, fixed_instance):
    for seed in (1, 2, 3):
        w = random_instance_weights(ab_model, fixed_instance, seed)
        dist = distribution(ab_model, w, fixed_instance)
        post = posterior(ab_model, w, fixed_instance)
        expect = SparseVector()
        for p, y in zip(dist.probs, dist.labelings):
            gain = 1.0 - hamming_loss(fixed_instance.gold, y)
            expect.add_scaled(ce_sparse(post, y, gain), float(p))
        target = brute_gradient(ObjectiveKind.CE, ab_model, w, [fixed_instance], hamming_loss)
        assert max_coord_diff(expect, target) <= 1e-10


def _enumerated_variance(kind, model, x, w, clip_k=0.0):
    dist = distribution(model, w, x)
    post = posterior(model, w, x, pair=kind.is_pairwise)
    deltas = [hamming_loss(x.gold, y) for y in dist.labelings]
    if kind.is_pairwise:
        q = neg_probs(dist)
        weighted = [
            (float(pi * qj), pr_sparse(post, (yi, yj),
                                         pair_feedback(di, dj, kind.pair_mode)))
            for pi, yi, di in zip(dist.probs, dist.labelings, deltas)
            for qj, yj, dj in zip(q, dist.labelings, deltas)
        ]
    elif kind is ObjectiveKind.EL:
        weighted = [
            (float(p), el_sparse(post, y, d))
            for p, y, d in zip(dist.probs, dist.labelings, deltas)
        ]
    else:
        weighted = [
            (float(p), ce_sparse(post, y, 1.0 - d, clip_k))
            for p, y, d in zip(dist.probs, dist.labelings, deltas)
        ]
    mean = SparseVector()
    for p, g in weighted:
        mean.add_scaled(g, p)
    return sum(p * (g - mean).norm_sq() for p, g in weighted)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_enumerated_variance_is_finite(kind, ab_model, fixed_instance, fixed_weights):
    var = _enumerated_variance(kind, ab_model, fixed_instance, fixed_weights)
    assert math.isfinite(var) and var >= 0.0


def test_ce_variance_non_increasing_in_clipping(ab_model, fixed_instance, fixed_weights):
    ks = [0.0, 0.02, 0.05, 0.1, 0.3]
    variances = [
        _enumerated_variance(ObjectiveKind.CE, ab_model, fixed_instance, fixed_weights, k)
        for k in ks
    ]
    for lo, hi in zip(variances[1:], variances[:-1]):
        assert lo <= hi + 1e-12
