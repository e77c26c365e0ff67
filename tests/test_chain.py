import math

import numpy as np
import pytest

import banditchain.chain as chain_mod
from banditchain import (
    ChainInstance,
    ChainModel,
    LabelAlphabet,
    SparseVector,
    build_lattice,
    distribution,
    expected_features,
    extract_features,
    feature_id,
    finite_diff_gradient,
    lattice_score,
    log_partition,
    map_decode,
    posterior,
    prob,
    sample,
    sample_many,
)

from conftest import random_instance_weights

# frozen oracle values for the canonical fixture (moss/fern/moss, labels A/B,
# seeded weights); computed by the enumeration oracle
FIXED_LOG_Z = 1.220977460552802
FIXED_GOLD_PROB = 0.040158327091566  # p(('A','B','A'))
FIXED_MAP = ("A", "A", "A")


def independent_phi(tokens, labeling):
    """Test-local feature extraction: same template naming, separate logic."""
    counts = {}
    for tok, lab in zip(tokens, labeling):
        key = f"em0\x1f{tok}\x1f{lab}"
        counts[key] = counts.get(key, 0.0) + 1.0
    for a, b in zip(labeling, labeling[1:]):
        key = f"tr\x1f{a}\x1f{b}"
        counts[key] = counts.get(key, 0.0) + 1.0
    return {feature_id(t): v for t, v in counts.items()}


def all_labelings(labels, n):
    import itertools

    return [tuple(y) for y in itertools.product(labels, repeat=n)]


def tv_distance(empirical, exact):
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


# -- alphabet and instances ----------------------------------------------------


def test_alphabet_bijection():
    alpha = LabelAlphabet(("O", "B", "I"))
    assert len(alpha) == 3
    assert alpha.index("B") == 1
    assert alpha.label(1) == "B"
    assert list(alpha.indices(("I", "O"))) == [2, 0]


def test_alphabet_rejects_duplicates_and_singletons():
    with pytest.raises(ValueError):
        LabelAlphabet(("A", "A"))
    with pytest.raises(ValueError):
        LabelAlphabet(("A",))


def test_alphabet_unknown_label():
    alpha = LabelAlphabet(("A", "B"))
    with pytest.raises(ValueError, match="unknown label"):
        alpha.index("Z")


def test_instance_validation():
    with pytest.raises(ValueError):
        ChainInstance(tokens=())
    with pytest.raises(ValueError):
        ChainInstance(tokens=("a", "b"), gold=("A",))
    x = ChainInstance(tokens=["a", "b"], gold=["A", "B"])
    assert x.tokens == ("a", "b") and x.gold == ("A", "B")
    assert len(x) == 2


# -- feature extraction --------------------------------------------------------


def test_single_token_single_emission_firing(ab_model):
    x = ChainInstance(tokens=("moss",))
    phi = extract_features(ab_model, x, ("A",))
    assert len(phi) == 1
    assert list(phi.items())[0][1] == 1.0


def test_feature_counts_three_tokens(ab_model, fixed_instance):
    phi = extract_features(ab_model, fixed_instance, ("A", "B", "A"))
    # 3 emission firings + 2 transition firings; moss|A fires twice (one id)
    assert sum(v for _, v in phi.items()) == 5.0
    assert phi[feature_id("em0\x1fmoss\x1fA")] == 2.0
    assert phi[feature_id("tr\x1fA\x1fB")] == 1.0
    assert phi[feature_id("tr\x1fB\x1fA")] == 1.0


def test_extraction_matches_independent_table(ab_model, fixed_instance):
    for y in all_labelings(("A", "B"), 3):
        phi = extract_features(ab_model, fixed_instance, y)
        expected = independent_phi(fixed_instance.tokens, y)
        assert dict(phi.items()) == expected


def test_extraction_errors(ab_model, fixed_instance):
    with pytest.raises(ValueError, match="length"):
        extract_features(ab_model, fixed_instance, ("A", "B"))
    with pytest.raises(ValueError, match="unknown label"):
        extract_features(ab_model, fixed_instance, ("A", "B", "Z"))


def test_emission_windows_pad_outside_sequence():
    model = ChainModel(LabelAlphabet(("A", "B")), emission_offsets=(-1, 0, 1))
    x = ChainInstance(tokens=("hi",))
    phi = extract_features(model, x, ("A",))
    assert phi[feature_id("em-1\x1f<S>\x1fA")] == 1.0
    assert phi[feature_id("em1\x1f</S>\x1fA")] == 1.0


def test_collision_detection(monkeypatch):
    monkeypatch.setattr(chain_mod, "feature_id", lambda s: 42)
    model = ChainModel(LabelAlphabet(("A", "B")))
    with pytest.raises(RuntimeError, match="collision"):
        model.compile(ChainInstance(tokens=("a", "b")))


# -- lattice -------------------------------------------------------------------


def test_zero_weights_zero_potentials(ab_model, fixed_instance):
    lat = build_lattice(ab_model, SparseVector(), fixed_instance)
    assert np.all(lat.node == 0.0)
    assert np.all(lat.edge == 0.0)


def test_single_feature_scales_one_cell(ab_model, fixed_instance):
    w = SparseVector({feature_id("em0\x1ffern\x1fB"): 2.5})
    lat = build_lattice(ab_model, w, fixed_instance)
    assert lat.node[1, 1] == 2.5
    assert np.count_nonzero(lat.node) == 1
    assert np.all(lat.edge == 0.0)


def test_lattice_score_matches_direct_dot(ab_model, fixed_instance, fixed_weights):
    lat = build_lattice(ab_model, fixed_weights, fixed_instance)
    for y in all_labelings(("A", "B"), 3):
        direct = fixed_weights.dot(extract_features(ab_model, fixed_instance, y))
        from_lattice = lattice_score(lat, ab_model.alphabet.indices(y))
        assert abs(direct - from_lattice) <= 1e-12


# -- partition function ----------------------------------------------------------


def test_log_partition_uniform(ab_model):
    x = ChainInstance(tokens=("a", "b", "c", "d"))
    assert log_partition(build_lattice(ab_model, SparseVector(), x)) == pytest.approx(
        4 * math.log(2), abs=1e-12
    )


def test_log_partition_single_position_closed_form(ab_model):
    x = ChainInstance(tokens=("moss",))
    a, b = 0.3, -1.2
    w = SparseVector(
        {feature_id("em0\x1fmoss\x1fA"): a, feature_id("em0\x1fmoss\x1fB"): b}
    )
    expected = math.log(math.exp(a) + math.exp(b))
    assert log_partition(build_lattice(ab_model, w, x)) == pytest.approx(expected, abs=1e-12)


def test_log_partition_matches_frozen_oracle_value(ab_model, fixed_instance, fixed_weights):
    lat = build_lattice(ab_model, fixed_weights, fixed_instance)
    assert abs(log_partition(lat) - FIXED_LOG_Z) <= 1e-10


@pytest.mark.parametrize("n,labels", [(1, 2), (5, 3), (8, 2), (3, 4)])
def test_log_partition_matches_enumeration(n, labels):
    alpha = LabelAlphabet(("A", "B", "C", "D")[:labels])
    model = ChainModel(alpha)
    x = ChainInstance(tokens=tuple(f"t{i % 3}" for i in range(n)))
    w = random_instance_weights(model, x, seed=n * 10 + labels)
    dist = distribution(model, w, x)
    assert abs(log_partition(build_lattice(model, w, x)) - dist.log_z) <= 1e-10


# -- expectations ----------------------------------------------------------------


def test_expected_features_uniform_single_position(ab_model):
    x = ChainInstance(tokens=("moss",))
    ef = expected_features(ab_model, SparseVector(), x)
    assert ef[feature_id("em0\x1fmoss\x1fA")] == pytest.approx(0.5, abs=1e-12)
    assert ef[feature_id("em0\x1fmoss\x1fB")] == pytest.approx(0.5, abs=1e-12)


def test_expected_features_within_firing_bounds(ab_model, fixed_instance, fixed_weights):
    ef = expected_features(ab_model, fixed_weights, fixed_instance)
    # moss appears twice, so its emission features can fire at most twice
    for fid, value in ef.items():
        assert -1e-12 <= value <= 2.0 + 1e-12


def test_expected_features_matches_enumeration(ab_model, fixed_instance, fixed_weights):
    ef = expected_features(ab_model, fixed_weights, fixed_instance)
    brute = distribution(ab_model, fixed_weights, fixed_instance).expected_features()
    for fid in ef.support() | brute.support():
        assert abs(ef[fid] - brute[fid]) <= 1e-10


def test_log_partition_gradient_is_expected_features(ab_model, fixed_instance, fixed_weights):
    def f(w):
        return log_partition(build_lattice(ab_model, w, fixed_instance))

    fd = finite_diff_gradient(
        f, fixed_weights, h=1e-5, coords=ab_model.instance_feature_ids(fixed_instance)
    )
    ef = expected_features(ab_model, fixed_weights, fixed_instance)
    fids = sorted(fd.support() | ef.support())
    np.testing.assert_allclose(
        [fd[f] for f in fids], [ef[f] for f in fids], rtol=1e-6, atol=1e-9
    )


# -- sampling --------------------------------------------------------------------


def test_sampler_uniform_under_zero_weights(ab_model, fixed_instance):
    draws = sample_many(ab_model, SparseVector(), fixed_instance, 100_000, np.random.default_rng(3))
    counts = {}
    for row in map(tuple, draws.tolist()):
        counts[row] = counts.get(row, 0) + 1
    empirical = {k: v / 100_000 for k, v in counts.items()}
    exact = {k: 1 / 8 for k in {tuple(t) for t in np.ndindex(2, 2, 2)}}
    assert tv_distance(empirical, exact) <= 0.02


def test_sampler_matches_skewed_oracle(ab_model, fixed_instance, fixed_weights):
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    idx_probs = {
        tuple(ab_model.alphabet.indices(y).tolist()): float(p)
        for y, p in zip(dist.labelings, dist.probs)
    }
    draws = sample_many(ab_model, fixed_weights, fixed_instance, 100_000, np.random.default_rng(11))
    counts = {}
    for row in map(tuple, draws.tolist()):
        counts[row] = counts.get(row, 0) + 1
    empirical = {k: v / 100_000 for k, v in counts.items()}
    assert tv_distance(empirical, idx_probs) <= 0.02


def test_sampler_determinism(ab_model, fixed_instance, fixed_weights):
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(5)
        runs.append([sample(ab_model, fixed_weights, fixed_instance, rng) for _ in range(20)])
    assert runs[0] == runs[1]


# -- one posterior per step ----------------------------------------------------------


def test_negated_posterior_matches_negated_weights(ab_model, fixed_instance, fixed_weights):
    neg = posterior(ab_model, fixed_weights, fixed_instance).negated()
    direct = posterior(ab_model, fixed_weights.scaled(-1.0), fixed_instance)
    assert np.array_equal(neg.lattice.node, direct.lattice.node)
    assert np.array_equal(neg.lattice.edge, direct.lattice.edge)
    assert np.array_equal(neg.beta, direct.beta)
    assert np.array_equal(neg.sample_many(50, np.random.default_rng(4)),
                          direct.sample_many(50, np.random.default_rng(4)))
    assert neg.expected_features() == direct.expected_features()
    assert neg.negated().lattice is neg.negated().lattice  # built once


@pytest.mark.parametrize("objective", ["el", "pr-cont", "ce"])
def test_training_step_builds_one_lattice(objective, monkeypatch, synthetic_task):
    import banditchain.trainer as trainer_mod
    from banditchain import FeedbackOracle, TrainerConfig, train

    model, train_data, dev_data, _ = synthetic_task
    builds = {"step": 0, "decode": 0}
    phase = ["step"]
    build, decode = chain_mod.build_lattice, trainer_mod.map_decode

    def counting_build(*args):
        builds[phase[0]] += 1
        return build(*args)

    def decoding(*args):
        phase[0] = "decode"
        try:
            return decode(*args)
        finally:
            phase[0] = "step"

    monkeypatch.setattr(chain_mod, "build_lattice", counting_build)
    monkeypatch.setattr(trainer_mod, "map_decode", decoding)
    cfg = TrainerConfig(objective=objective, gamma=0.1, iterations=30, seed=2, eval_every=30)
    train(cfg, model, train_data, dev_data[:5], FeedbackOracle("hamming"))
    assert builds == {"step": 30, "decode": 2 * 5}


def test_zero_feedback_step_never_runs_the_forward_pass(monkeypatch, synthetic_task):
    from banditchain import FeedbackOracle, TrainerConfig, train

    class Perfect(FeedbackOracle):
        def feedback(self, instance, labeling):
            return 0.0

    model, train_data, dev_data, _ = synthetic_task
    forward_calls = []
    forward = chain_mod._forward
    monkeypatch.setattr(chain_mod, "_forward",
                        lambda lattice: forward_calls.append(1) or forward(lattice))
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=20, seed=0)
    train(cfg, model, train_data, dev_data[:5], Perfect("hamming"))
    assert forward_calls == []
    posterior(model, SparseVector(), train_data[0]).log_z
    assert forward_calls == [1]


# -- decoding --------------------------------------------------------------------


def test_map_decode_total_tie_goes_to_lowest_index(ab_model, fixed_instance):
    assert map_decode(ab_model, SparseVector(), fixed_instance) == ("A", "A", "A")


def test_map_decode_matches_enumeration(ab_model, fixed_instance, fixed_weights):
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    best = dist.labelings[int(np.argmax(dist.probs))]
    assert map_decode(ab_model, fixed_weights, fixed_instance) == best == FIXED_MAP


def test_map_decode_invariant_to_constant_node_shift(ab_model, fixed_instance, fixed_weights):
    before = map_decode(ab_model, fixed_weights, fixed_instance)
    shifted = fixed_weights.copy()
    # fern occurs only at position 1; shifting all its labels shifts one column
    for lab in ("A", "B"):
        fid = feature_id(f"em0\x1ffern\x1f{lab}")
        shifted[fid] = shifted[fid] + 3.5
    assert map_decode(ab_model, shifted, fixed_instance) == before


# -- probabilities -----------------------------------------------------------------


def test_prob_uniform_closed_form(ab_model, fixed_instance):
    assert prob(ab_model, SparseVector(), fixed_instance, ("A", "B", "A")) == pytest.approx(
        1 / 8, abs=1e-15
    )


def test_prob_sums_to_one_and_matches_frozen_value(ab_model, fixed_instance, fixed_weights):
    total = sum(
        prob(ab_model, fixed_weights, fixed_instance, y) for y in all_labelings(("A", "B"), 3)
    )
    assert abs(total - 1.0) <= 1e-10
    assert abs(
        prob(ab_model, fixed_weights, fixed_instance, ("A", "B", "A")) - FIXED_GOLD_PROB
    ) <= 1e-10


def test_prob_invariant_to_shared_shift(ab_model, fixed_instance, fixed_weights):
    y = ("B", "A", "A")
    before = prob(ab_model, fixed_weights, fixed_instance, y)
    shifted = fixed_weights.copy()
    # every labeling fires exactly one fern emission, so this shifts all scores equally
    for lab in ("A", "B"):
        fid = feature_id(f"em0\x1ffern\x1f{lab}")
        shifted[fid] = shifted[fid] + 2.0
    assert prob(ab_model, shifted, fixed_instance, y) == pytest.approx(before, abs=1e-12)


def test_prob_length_mismatch(ab_model, fixed_instance, fixed_weights):
    with pytest.raises(ValueError, match="length"):
        prob(ab_model, fixed_weights, fixed_instance, ("A", "B"))


# -- misc ---------------------------------------------------------------------------


def test_feature_norm_bound(ab_model, fixed_instance):
    bound = ab_model.feature_norm_bound(fixed_instance)
    assert bound == 5.0  # 3 emissions + 2 transitions
    for y in all_labelings(("A", "B"), 3):
        phi = extract_features(ab_model, fixed_instance, y)
        assert phi.norm() <= bound + 1e-12
