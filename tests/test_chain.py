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
    extract_features,
    feature_id,
    finite_diff_gradient,
    lattice_score,
    map_decode,
    posterior,
    sample,
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
    with pytest.raises(RuntimeError, match="collision"):
        ChainModel(LabelAlphabet(("A", "B")))


def test_transition_ids_hashed_once_per_model(monkeypatch):
    hashed = []
    real = chain_mod.feature_id
    monkeypatch.setattr(chain_mod, "feature_id", lambda s: hashed.append(s) or real(s))
    model = ChainModel(LabelAlphabet(("A", "B", "C")))
    w = SparseVector({feature_id("tr\x1fB\x1fC"): 1.5})
    lattices = [build_lattice(model, w, ChainInstance(tokens=toks))
                for toks in (("a", "b", "c"), ("d", "e"))]
    assert sum(t.startswith("tr") for t in hashed) == 9
    for lat in lattices:
        assert lat.trans[1, 2] == 1.5 and np.count_nonzero(lat.trans) == 1
    # the (L, L) table holds columns; B -> C is the column of that template's id
    assert model.to_columns(w)[model.transition[1, 2]] == 1.5


def test_compile_hashes_each_template_once_per_model(monkeypatch):
    hashed = []
    real = chain_mod.feature_id
    monkeypatch.setattr(chain_mod, "feature_id", lambda s: hashed.append(s) or real(s))
    model = ChainModel(LabelAlphabet(("A", "B", "C")), emission_offsets=(-1, 0, 1))
    first = ChainInstance(tokens=("a", "b", "a", "c"))
    second = ChainInstance(tokens=("c", "a", "d"))  # shares a and c with the first
    for x in (first, second, first):
        model.compile(x)
    emitted = [t for t in hashed if t.startswith("em")]
    assert len(emitted) == len(set(emitted))

    def windows(toks):
        return {(off, "<S>" if i + off < 0 else "</S>" if i + off >= len(toks) else toks[i + off])
                for off in (-1, 0, 1) for i in range(len(toks))}

    # one hash per distinct (offset, token) and label: 13 windows, not 21 positions
    distinct = windows(first.tokens) | windows(second.tokens)
    assert len(emitted) == 3 * len(distinct) == 39


# -- lattice -------------------------------------------------------------------


def test_zero_weights_zero_potentials(ab_model, fixed_instance):
    lat = build_lattice(ab_model, SparseVector(), fixed_instance)
    assert np.all(lat.node == 0.0)
    assert np.all(lat.trans == 0.0)


def test_single_feature_scales_one_cell(ab_model, fixed_instance):
    w = SparseVector({feature_id("em0\x1ffern\x1fB"): 2.5})
    lat = build_lattice(ab_model, w, fixed_instance)
    assert lat.node[1, 1] == 2.5
    assert np.count_nonzero(lat.node) == 1
    assert np.all(lat.trans == 0.0)
    assert lat.trans.shape == (2, 2)


def test_lattice_score_matches_direct_dot(ab_model, fixed_instance, fixed_weights):
    lat = build_lattice(ab_model, fixed_weights, fixed_instance)
    for y in all_labelings(("A", "B"), 3):
        direct = fixed_weights.dot(extract_features(ab_model, fixed_instance, y))
        from_lattice = lattice_score(lat, ab_model.alphabet.indices(y))
        assert abs(direct - from_lattice) <= 1e-12


# -- partition function ----------------------------------------------------------


def test_log_partition_uniform(ab_model):
    x = ChainInstance(tokens=("a", "b", "c", "d"))
    assert posterior(ab_model, SparseVector(), x).log_z == pytest.approx(
        4 * math.log(2), abs=1e-12
    )


def test_log_partition_single_position_closed_form(ab_model):
    x = ChainInstance(tokens=("moss",))
    a, b = 0.3, -1.2
    w = SparseVector(
        {feature_id("em0\x1fmoss\x1fA"): a, feature_id("em0\x1fmoss\x1fB"): b}
    )
    expected = math.log(math.exp(a) + math.exp(b))
    post = posterior(ab_model, w, x)
    assert post.log_z == pytest.approx(expected, abs=1e-12)
    assert post.lattice.trans.shape == (2, 2)  # one table, even with no adjacent pair


def test_log_partition_matches_frozen_oracle_value(ab_model, fixed_instance, fixed_weights):
    assert abs(posterior(ab_model, fixed_weights, fixed_instance).log_z - FIXED_LOG_Z) <= 1e-10


@pytest.mark.parametrize("n,labels", [(1, 2), (5, 3), (8, 2), (3, 4)])
def test_log_partition_matches_enumeration(n, labels):
    alpha = LabelAlphabet(("A", "B", "C", "D")[:labels])
    model = ChainModel(alpha)
    x = ChainInstance(tokens=tuple(f"t{i % 3}" for i in range(n)))
    w = random_instance_weights(model, x, seed=n * 10 + labels)
    dist = distribution(model, w, x)
    assert abs(posterior(model, w, x).log_z - dist.log_z) <= 1e-10


# -- expectations ----------------------------------------------------------------


def test_expected_features_uniform_single_position(ab_model):
    x = ChainInstance(tokens=("moss",))
    ef = posterior(ab_model, SparseVector(), x).expected_features()
    assert ef[feature_id("em0\x1fmoss\x1fA")] == pytest.approx(0.5, abs=1e-12)
    assert ef[feature_id("em0\x1fmoss\x1fB")] == pytest.approx(0.5, abs=1e-12)


def test_expected_features_within_firing_bounds(ab_model, fixed_instance, fixed_weights):
    ef = posterior(ab_model, fixed_weights, fixed_instance).expected_features()
    # moss appears twice, so its emission features can fire at most twice
    for fid, value in ef.items():
        assert -1e-12 <= value <= 2.0 + 1e-12


def test_expected_features_matches_enumeration(ab_model, fixed_instance, fixed_weights):
    ef = posterior(ab_model, fixed_weights, fixed_instance).expected_features()
    brute = distribution(ab_model, fixed_weights, fixed_instance).expected_features()
    for fid in ef.support() | brute.support():
        assert abs(ef[fid] - brute[fid]) <= 1e-10


def test_log_partition_gradient_is_expected_features(ab_model, fixed_instance, fixed_weights):
    def f(w):
        return posterior(ab_model, w, fixed_instance).log_z

    fd = finite_diff_gradient(
        f, fixed_weights, h=1e-5, coords=ab_model.instance_feature_ids(fixed_instance)
    )
    ef = posterior(ab_model, fixed_weights, fixed_instance).expected_features()
    fids = sorted(fd.support() | ef.support())
    np.testing.assert_allclose(
        [fd[f] for f in fids], [ef[f] for f in fids], rtol=1e-6, atol=1e-9
    )


# -- sampling --------------------------------------------------------------------


def test_sampler_uniform_under_zero_weights(ab_model, fixed_instance):
    draws = posterior(ab_model, SparseVector(), fixed_instance).sample_many(
        100_000, np.random.default_rng(3)
    )
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
    draws = posterior(ab_model, fixed_weights, fixed_instance).sample_many(
        100_000, np.random.default_rng(11)
    )
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


def reference_sample_many(post, size, rng):
    """Backward filtering / forward sampling that normalizes every conditional
    row by its own log-sum-exp instead of by the posterior's beta."""

    def _categorical_rows(prob_rows, rng):
        cum = np.cumsum(prob_rows, axis=1)
        idx = (rng.random(prob_rows.shape[0])[:, None] >= cum).sum(axis=1)
        return np.minimum(idx, prob_rows.shape[1] - 1)

    lattice, beta = post.lattice, post.beta
    n, L = lattice.node.shape
    out = np.empty((size, n), dtype=np.int64)
    logp0 = lattice.node[0] + beta[0]
    p0 = np.exp(logp0 - chain_mod._logsumexp(logp0))
    p0 /= p0.sum()
    out[:, 0] = _categorical_rows(p0[None, :].repeat(size, axis=0), rng)
    for i in range(1, n):
        logc = lattice.trans + (lattice.node[i] + beta[i])[None, :]
        cond = np.exp(logc - chain_mod._logsumexp(logc, axis=1)[:, None])
        cond /= cond.sum(axis=1, keepdims=True)
        out[:, i] = _categorical_rows(cond[out[:, i - 1]], rng)
    return out


def random_chain(num_labels, n, seed, scale):
    model = ChainModel(LabelAlphabet(tuple(f"L{k}" for k in range(num_labels))))
    rng = np.random.default_rng(seed)
    x = ChainInstance(tokens=tuple(f"t{k}" for k in rng.integers(0, 5, n)))
    return model, x, random_instance_weights(model, x, seed, scale=scale)


@pytest.mark.parametrize("num_labels", [2, 3, 9])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("scale", [0.8, 50.0])
def test_sampler_matches_reference_bitwise(num_labels, n, scale):
    model, x, w = random_chain(num_labels, n, seed=n * 10 + num_labels, scale=scale)
    post = posterior(model, w, x)
    for p in (post, post.negated()):
        for size in (1, 1000):
            expected = reference_sample_many(p, size, np.random.default_rng(size))
            assert np.array_equal(p.sample_many(size, np.random.default_rng(size)), expected)


def test_sampler_runs_one_logsumexp_per_draw_batch(monkeypatch):
    model, x, w = random_chain(3, 7, seed=1, scale=2.0)
    post = posterior(model, w, x)
    calls = []
    lse = chain_mod._logsumexp
    monkeypatch.setattr(chain_mod, "_logsumexp",
                        lambda *args, **kw: calls.append(1) or lse(*args, **kw))
    post.sample_many(100, np.random.default_rng(0))
    assert calls == [1]  # p0 only; rows at positions 1..n-1 reuse beta


def test_repeated_draws_build_the_sampler_table_once(monkeypatch):
    model, x, w = random_chain(3, 7, seed=1, scale=2.0)
    post = posterior(model, w, x)
    calls = []
    lse = chain_mod._logsumexp
    monkeypatch.setattr(chain_mod, "_logsumexp",
                        lambda *args, **kw: calls.append(1) or lse(*args, **kw))
    rng = np.random.default_rng(0)
    for _ in range(5):
        post.sample(rng)
    post.sample_many(50, rng)
    assert calls == [1]  # the table's p0, once for all six calls


@pytest.mark.parametrize("size", [1, 1000])
def test_single_token_draws_have_one_column(size):
    model, x, w = random_chain(3, 1, seed=4, scale=2.0)
    draws = posterior(model, w, x).sample_many(size, np.random.default_rng(0))
    assert draws.shape == (size, 1) and draws.dtype == np.int64


# -- one posterior per step ----------------------------------------------------------


def dict_lattice(model, w, x):
    """The lattice as id-keyed dict lookups: per-position id tables built from
    the template strings, and a Python sum over each group of ids."""
    labels, n = model.alphabet.labels, len(x)
    node = np.zeros((n, len(labels)))
    for i in range(n):
        ctx = [(off, "<S>" if i + off < 0 else "</S>" if i + off >= n else x.tokens[i + off])
               for off in model.emission_offsets]
        for li, lab in enumerate(labels):
            node[i, li] = sum(w.get(feature_id(f"em{off}\x1f{tok}\x1f{lab}"), 0.0)
                              for off, tok in ctx)
    trans = np.array([[w.get(feature_id(f"tr\x1f{a}\x1f{b}"), 0.0) for b in labels]
                      for a in labels])
    return chain_mod.ChainLattice(node=node, trans=trans)


def viterbi(lattice):
    """Test-local max-product decode with lowest-index tie breaking."""
    n, L = lattice.node.shape
    back = np.zeros((n, L), dtype=np.int64)
    trellis = lattice.node[0].copy()
    for i in range(1, n):
        scores = trellis[:, None] + lattice.trans
        back[i] = np.argmax(scores, axis=0)
        trellis = lattice.node[i] + scores[back[i], np.arange(L)]
    path = [int(np.argmax(trellis))]
    for i in range(n - 1, 0, -1):
        path.append(int(back[i, path[-1]]))
    return path[::-1]


@pytest.mark.parametrize("num_labels", [3, 9])
@pytest.mark.parametrize("offsets", [(0,), (-1, 0, 1)])
@pytest.mark.parametrize("scale", [0.0, 0.8, 50.0])
def test_gathered_lattice_matches_dict_reference_bitwise(num_labels, offsets, scale):
    model = ChainModel(LabelAlphabet(tuple(f"L{k}" for k in range(num_labels))),
                       emission_offsets=offsets)
    rng = np.random.default_rng(num_labels * 10 + len(offsets))
    # repeated tokens make one column fire at several positions
    data = [ChainInstance(tokens=tuple(f"t{k}" for k in rng.integers(0, 4, n)))
            for n in (1, 2, 7, 30)]
    w = SparseVector({fid: scale * float(rng.normal()) for x in data
                      for fid in model.instance_feature_ids(x)})
    columns = model.to_columns(w)
    for x in data:
        reference = dict_lattice(model, w, x)
        ref_post = chain_mod.ChainPosterior(model, x, reference)
        for weights in (w, columns):
            lattice = build_lattice(model, weights, x)
            assert lattice.node.tobytes() == reference.node.tobytes()
            assert lattice.trans.tobytes() == reference.trans.tobytes()
            post = posterior(model, weights, x)
            assert post.beta.tobytes() == ref_post.beta.tobytes()
            for seed, size in ((3, 1), (4, 50)):
                assert np.array_equal(post.sample_many(size, np.random.default_rng(seed)),
                                      ref_post.sample_many(size, np.random.default_rng(seed)))
            labels = model.alphabet.labels
            assert map_decode(model, weights, x) == tuple(labels[i] for i in viterbi(reference))


def test_negated_posterior_matches_negated_weights(ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance)
    neg = post.negated()
    direct = posterior(ab_model, fixed_weights.scaled(-1.0), fixed_instance)
    assert np.array_equal(neg.lattice.trans, -post.lattice.trans)
    assert np.array_equal(neg.lattice.node, direct.lattice.node)
    assert np.array_equal(neg.lattice.trans, direct.lattice.trans)
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
    post = posterior(ab_model, SparseVector(), fixed_instance)
    assert post.prob(("A", "B", "A")) == pytest.approx(1 / 8, abs=1e-15)


def test_prob_sums_to_one_and_matches_frozen_value(ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance)
    total = sum(post.prob(y) for y in all_labelings(("A", "B"), 3))
    assert abs(total - 1.0) <= 1e-10
    assert abs(post.prob(("A", "B", "A")) - FIXED_GOLD_PROB) <= 1e-10


def test_prob_invariant_to_shared_shift(ab_model, fixed_instance, fixed_weights):
    y = ("B", "A", "A")
    before = posterior(ab_model, fixed_weights, fixed_instance).prob(y)
    shifted = fixed_weights.copy()
    # every labeling fires exactly one fern emission, so this shifts all scores equally
    for lab in ("A", "B"):
        fid = feature_id(f"em0\x1ffern\x1f{lab}")
        shifted[fid] = shifted[fid] + 2.0
    assert posterior(ab_model, shifted, fixed_instance).prob(y) == pytest.approx(before, abs=1e-12)


def test_prob_length_mismatch(ab_model, fixed_instance, fixed_weights):
    with pytest.raises(ValueError, match="length"):
        posterior(ab_model, fixed_weights, fixed_instance).prob(("A", "B"))


# -- misc ---------------------------------------------------------------------------


def test_feature_norm_bound(ab_model, fixed_instance):
    bound = ab_model.feature_norm_bound(fixed_instance)
    assert bound == 5.0  # 3 emissions + 2 transitions
    for y in all_labelings(("A", "B"), 3):
        phi = extract_features(ab_model, fixed_instance, y)
        assert phi.norm() <= bound + 1e-12
