import itertools
import math

import numpy as np
import pytest

from banditchain import (
    BudgetExceededError,
    ChainInstance,
    LabelAlphabet,
    ChainModel,
    ObjectiveKind,
    SparseVector,
    brute_gradient,
    brute_objective,
    distribution,
    enumerate_outputs,
    extract_features,
    finite_diff_gradient,
    hamming_loss,
    pair_distribution,
    pair_feedback,
)
from banditchain.oracle import logsumexp



@pytest.fixture
def second_instance():
    return ChainInstance(tokens=("fern", "moss"), gold=("B", "A"))


def reference_el_objective(model, w, data, loss):
    """Test-local summation, written independently of the oracle module."""
    total = 0.0
    for x in data:
        labelings = list(itertools.product(model.alphabet.labels, repeat=len(x)))
        scores = [w.dot(extract_features(model, x, y)) for y in labelings]
        z = sum(math.exp(s) for s in scores)
        total += sum(
            loss(x.gold, y) * math.exp(s) / z for y, s in zip(labelings, scores)
        )
    return total / len(data)


# -- enumeration -----------------------------------------------------------------


def test_enumerate_counts(ab_model):
    x = ChainInstance(tokens=("a", "b", "c"))
    assert len(enumerate_outputs(ab_model, x)) == 8


def test_enumerate_order_single_position():
    model = ChainModel(LabelAlphabet(("A", "B", "C", "D")))
    outs = enumerate_outputs(model, ChainInstance(tokens=("t",)))
    assert outs == [("A",), ("B",), ("C",), ("D",)]


def test_enumerate_budget_refusal(ab_model):
    x = ChainInstance(tokens=tuple(f"t{i}" for i in range(13)))
    with pytest.raises(BudgetExceededError, match="8192"):
        enumerate_outputs(ab_model, x)


def test_enumerate_lexicographic_by_label_index(ab_model):
    outs = enumerate_outputs(ab_model, ChainInstance(tokens=("a", "b")))
    assert outs == [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")]


# -- objectives --------------------------------------------------------------------


def test_el_objective_constant_losses(ab_model, fixed_instance, fixed_weights):
    zero = brute_objective(
        ObjectiveKind.EL, ab_model, fixed_weights, [fixed_instance], lambda g, p: 0.0
    )
    one = brute_objective(
        ObjectiveKind.EL, ab_model, fixed_weights, [fixed_instance], lambda g, p: 1.0
    )
    assert zero == 0.0
    assert one == pytest.approx(1.0, abs=1e-12)


def test_el_objective_against_reference(ab_model, fixed_instance, fixed_weights, second_instance):
    data = [fixed_instance, second_instance]
    ours = brute_objective(ObjectiveKind.EL, ab_model, fixed_weights, data, hamming_loss)
    ref = reference_el_objective(ab_model, fixed_weights, data, hamming_loss)
    assert ours == pytest.approx(ref, abs=1e-12)


def test_objective_requires_data(ab_model, fixed_weights):
    with pytest.raises(ValueError, match="empty"):
        brute_objective(ObjectiveKind.EL, ab_model, fixed_weights, [], hamming_loss)


def test_objective_budget_propagates(ab_model, fixed_weights):
    big = ChainInstance(tokens=tuple(f"t{i}" for i in range(13)), gold=tuple("A" * 13))
    with pytest.raises(BudgetExceededError):
        brute_objective(ObjectiveKind.EL, ab_model, fixed_weights, [big], hamming_loss)


# -- gradients ---------------------------------------------------------------------


def test_el_gradient_zero_for_constant_loss(ab_model, fixed_instance, fixed_weights):
    grad = brute_gradient(
        ObjectiveKind.EL, ab_model, fixed_weights, [fixed_instance], lambda g, p: 0.7
    )
    assert max((abs(v) for _, v in grad.items()), default=0.0) <= 1e-12


def test_ce_gradient_zero_for_zero_gain(ab_model, fixed_instance, fixed_weights):
    grad = brute_gradient(
        ObjectiveKind.CE, ab_model, fixed_weights, [fixed_instance], lambda g, p: 1.0
    )
    assert max((abs(v) for _, v in grad.items()), default=0.0) <= 1e-12


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_gradient_matches_finite_differences(
    kind, ab_model, fixed_instance, fixed_weights, second_instance
):
    data = [fixed_instance, second_instance]
    coords = sorted(
        set(ab_model.instance_feature_ids(fixed_instance))
        | set(ab_model.instance_feature_ids(second_instance))
    )
    grad = brute_gradient(kind, ab_model, fixed_weights, data, hamming_loss)
    fd = finite_diff_gradient(
        lambda v: brute_objective(kind, ab_model, v, data, hamming_loss),
        fixed_weights,
        h=1e-5,
        coords=coords,
    )
    np.testing.assert_allclose(
        [grad[f] for f in coords], [fd[f] for f in coords], rtol=1e-6, atol=1e-9
    )


# -- finite differences ----------------------------------------------------------


def test_finite_diff_exact_on_linear():
    c = SparseVector({1: 2.0, 2: -3.0})
    fd = finite_diff_gradient(lambda w: c.dot(w), SparseVector({1: 0.5, 2: 0.5}))
    assert fd[1] == pytest.approx(2.0, abs=1e-9)
    assert fd[2] == pytest.approx(-3.0, abs=1e-9)


def test_finite_diff_quadratic():
    fd = finite_diff_gradient(lambda w: w[1] ** 2, SparseVector({1: 1.0}), h=1e-5)
    assert fd[1] == pytest.approx(2.0, abs=1e-9)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda w: 0.0, SparseVector(), h=0.0)


# -- distribution invariants --------------------------------------------------------


def test_probabilities_sum_to_one(ab_model, fixed_instance, fixed_weights):
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    assert abs(float(dist.probs.sum()) - 1.0) <= 1e-10


def test_pair_factorization_all_ordered_pairs(ab_model, fixed_instance, fixed_weights):
    labelings, pair_probs = pair_distribution(ab_model, fixed_weights, fixed_instance)
    p = distribution(ab_model, fixed_weights, fixed_instance).probs
    q = distribution(ab_model, fixed_weights.scaled(-1.0), fixed_instance).probs
    assert pair_probs.shape == (len(labelings), len(labelings))
    # includes the diagonal i = j; the product form must hold everywhere
    assert float(np.max(np.abs(pair_probs - np.outer(p, q)))) <= 1e-12
    assert abs(float(pair_probs.sum()) - 1.0) <= 1e-12


def test_ce_midpoint_convexity(ab_model, fixed_instance):
    rng = np.random.default_rng(123)
    data = [fixed_instance]
    fids = ab_model.instance_feature_ids(fixed_instance)
    for _ in range(25):
        w1 = SparseVector({f: float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})
        w2 = SparseVector({f: float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})
        mid = (w1 + w2).scale(0.5)
        j_mid = brute_objective(ObjectiveKind.CE, ab_model, mid, data, hamming_loss)
        j_avg = 0.5 * (
            brute_objective(ObjectiveKind.CE, ab_model, w1, data, hamming_loss)
            + brute_objective(ObjectiveKind.CE, ab_model, w2, data, hamming_loss)
        )
        assert j_mid <= j_avg + 1e-12


def test_jensen_step(ab_model, fixed_instance, fixed_weights):
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    gains = np.array([1.0 - hamming_loss(fixed_instance.gold, y) for y in dist.labelings])
    alpha = gains.sum()
    assert alpha > 0.0
    g_bar = gains / alpha
    log_probs = dist.scores - dist.log_z
    lhs = float(-np.dot(g_bar, log_probs))
    rhs = float(-np.log(np.dot(g_bar, dist.probs)))
    assert lhs >= rhs - 1e-12


def test_pairwise_objective_uses_ordered_pairs(ab_model, fixed_instance, fixed_weights):
    """The pairwise risk equals a test-local sum over all ordered pairs."""
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    q = distribution(ab_model, fixed_weights.scaled(-1.0), fixed_instance).probs
    deltas = [hamming_loss(fixed_instance.gold, y) for y in dist.labelings]
    expected = sum(
        pair_feedback(deltas[i], deltas[j], "cont") * dist.probs[i] * q[j]
        for i in range(len(deltas))
        for j in range(len(deltas))
    )
    ours = brute_objective(
        ObjectiveKind.PR_CONT, ab_model, fixed_weights, [fixed_instance], hamming_loss
    )
    assert ours == pytest.approx(float(expected), abs=1e-12)


def _lse_cases(count):
    """1-D and 2-D arrays at scales 1e-2 to 1e3, one in five kinds each:
    continuous, rounded so entries tie, constant, a tied maximum, and a
    maximum far above the rest."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        shape = (int(rng.integers(1, 40)),) if i % 2 else tuple(rng.integers(1, 12, size=2))
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2.0, 3.0)
        kind = (i // 2) % 5
        if kind == 1:
            a = np.round(a)
        elif kind == 2:
            a = np.full(shape, a.flat[0])
        elif kind == 3:
            a.flat[int(rng.integers(a.size))] = a.max()
        elif kind == 4:
            a.flat[int(rng.integers(a.size))] = a.max() + 50.0
        yield a


def test_logsumexp_has_the_reference_bits():
    from scipy.special import logsumexp as reference

    mismatches = [a for a in _lse_cases(12000)
                  if logsumexp(a).hex() != float(reference(a)).hex()]
    assert not mismatches, f"{len(mismatches)} arrays differ, first {mismatches[0]!r}"


@pytest.mark.parametrize("seed", range(6))
def test_neg_probs_are_the_negated_scores_distribution_bitwise(ab_model, seed):
    from scipy.special import logsumexp as reference

    rng = np.random.default_rng(seed)
    x = ChainInstance(tokens=tuple(rng.choice(["moss", "fern", "ash"], size=2 + seed % 3)))
    fids = ab_model.instance_feature_ids(x)
    w = SparseVector({f: float(v) for f, v in zip(fids, rng.normal(0, 2.0, len(fids)))})
    dist = distribution(ab_model, w, x)
    neg = -dist.scores
    expected = np.exp(neg - reference(neg))
    assert dist.neg_probs.tobytes() == expected.tobytes()
    q = distribution(ab_model, w.scaled(-1.0), x).probs
    np.testing.assert_allclose(dist.neg_probs, q, rtol=0, atol=1e-12)
