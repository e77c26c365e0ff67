import hashlib
import math

import numpy as np
import pytest

import banditchain.chain as chain_mod
from banditchain import (
    ChainInstance,
    ChainModel,
    LabelAlphabet,
    SortedVector,
    SparseVector,
    build_lattice,
    distribution,
    extract_features,
    feature_id,
    finite_diff_gradient,
    lattice_score,
    map_decode_paths,
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
    # a label holding the template separator would share template strings with
    # other (token, label) pairs: (A, A\x1fB) and (A\x1fA, B) would be one transition
    with pytest.raises(ValueError, match="separator"):
        LabelAlphabet(("A", "A\x1fB", "A\x1fA", "B"))


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


def test_instance_hash_is_computed_once_and_equals_the_field_tuples():
    import dataclasses
    import pickle

    x = ChainInstance(tokens=["a", "b"], gold=["A", "B"])
    same = ChainInstance(tokens=("a", "b"), gold=("A", "B"))
    other = ChainInstance(tokens=("a", "b"))
    assert x == same and hash(x) == hash(same) == hash((("a", "b"), ("A", "B")))
    assert x != other and hash(other) == hash((("a", "b"), None))
    assert repr(x) == "ChainInstance(tokens=('a', 'b'), gold=('A', 'B'))"
    assert [f.name for f in dataclasses.fields(x)] == ["tokens", "gold"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.tokens = ("c",)
    # a copy from another process, whose string hashes differ, hashes anew
    object.__setattr__(x, "_hash", 0)
    assert hash(pickle.loads(pickle.dumps(x))) == hash(same)


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
    monkeypatch.setattr(chain_mod, "_feature_ids", lambda templates: [42] * len(templates))
    with pytest.raises(RuntimeError, match="collision"):
        ChainModel(LabelAlphabet(("A", "B")))


def test_transition_ids_hashed_once_per_model(monkeypatch):
    w = SparseVector({feature_id("tr\x1fB\x1fC"): 1.5})  # hashed before the count starts
    hashed = []
    real = chain_mod._feature_ids
    monkeypatch.setattr(chain_mod, "_feature_ids", lambda ts: hashed.extend(ts) or real(ts))
    model = ChainModel(LabelAlphabet(("A", "B", "C")))
    lattices = [build_lattice(model, w, ChainInstance(tokens=toks))
                for toks in (("a", "b", "c"), ("d", "e"))]
    assert sum(t.startswith("tr") for t in hashed) == 9
    for lat in lattices:
        assert lat.trans[1, 2] == 1.5 and np.count_nonzero(lat.trans) == 1
    # the (L, L) table holds columns; B -> C is the column of that template's id
    assert model.to_columns(w)[model.transition[1, 2]] == 1.5


def test_compile_hashes_each_template_once_per_model(monkeypatch):
    hashed = []
    real = chain_mod._feature_ids
    monkeypatch.setattr(chain_mod, "_feature_ids", lambda ts: hashed.extend(ts) or real(ts))
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


def expected_sparse(post):
    """E_p[phi] of the posterior's chain 0 as a SparseVector keyed by id."""
    return post.to_sparse(post.expected()[0])


def test_expected_features_uniform_single_position(ab_model):
    x = ChainInstance(tokens=("moss",))
    ef = expected_sparse(posterior(ab_model, SparseVector(), x))
    assert ef[feature_id("em0\x1fmoss\x1fA")] == pytest.approx(0.5, abs=1e-12)
    assert ef[feature_id("em0\x1fmoss\x1fB")] == pytest.approx(0.5, abs=1e-12)


def test_expected_features_within_firing_bounds(ab_model, fixed_instance, fixed_weights):
    ef = expected_sparse(posterior(ab_model, fixed_weights, fixed_instance))
    # moss appears twice, so its emission features can fire at most twice
    for fid, value in ef.items():
        assert -1e-12 <= value <= 2.0 + 1e-12


def test_expected_features_matches_enumeration(ab_model, fixed_instance, fixed_weights):
    ef = expected_sparse(posterior(ab_model, fixed_weights, fixed_instance))
    brute = distribution(ab_model, fixed_weights, fixed_instance).expected_features()
    for fid in ef.support() | brute.support():
        assert abs(ef[fid] - brute[fid]) <= 1e-10


def test_log_partition_gradient_is_expected_features(ab_model, fixed_instance, fixed_weights):
    def f(w):
        return posterior(ab_model, w, fixed_instance).log_z

    fd = finite_diff_gradient(
        f, fixed_weights, h=1e-5, coords=ab_model.instance_feature_ids(fixed_instance)
    )
    ef = expected_sparse(posterior(ab_model, fixed_weights, fixed_instance))
    fids = sorted(fd.support() | ef.support())
    np.testing.assert_allclose(
        [fd[f] for f in fids], [ef[f] for f in fids], rtol=1e-6, atol=1e-9
    )


# -- sampling --------------------------------------------------------------------


def test_sampler_uniform_under_zero_weights(ab_model, fixed_instance):
    (draws,) = posterior(ab_model, SparseVector(), fixed_instance).sample_many(
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
    (draws,) = posterior(ab_model, fixed_weights, fixed_instance).sample_many(
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


def reference_logsumexp(a, axis=None):
    """Single-chain log-sum-exp over one axis or all of them, dropping it."""
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    out = m.squeeze(axis) if axis is not None else m.reshape(())
    return out + np.log(np.add.reduce(np.exp(a - m), axis=axis))


def reference_backward(node, trans):
    """The single-chain backward pass over node (n, L) and trans (L, L)."""
    beta = np.zeros_like(node)
    for i in range(len(node) - 2, -1, -1):
        beta[i] = reference_logsumexp(trans + (node[i + 1] + beta[i + 1])[None, :], axis=1)
    return beta


def reference_forward(node, trans):
    """The single-chain forward pass over node (n, L) and trans (L, L)."""
    alpha = np.empty_like(node)
    alpha[0] = node[0]
    for i in range(1, len(node)):
        alpha[i] = node[i] + reference_logsumexp(alpha[i - 1][:, None] + trans, axis=0)
    return alpha


def reference_sampler_table(node, trans, beta):
    """One chain's (cum0, cum): cumulative p(y_0) and conditional rows."""
    logp0 = node[0] + beta[0]
    p0 = np.exp(logp0 - reference_logsumexp(logp0))
    p0 /= p0.sum()
    cond = np.exp(trans + (node[1:] + beta[1:])[:, None, :] - beta[:-1, :, None])
    cond /= cond.sum(axis=2, keepdims=True)
    return np.cumsum(p0), np.cumsum(cond, axis=2)


def reference_expected(local, node, trans):
    """(E[phi] over the local columns, log Z) of one chain, scattered in
    (position, label, template) order and then the transitions."""
    alpha, beta = reference_forward(node, trans), reference_backward(node, trans)
    log_z = reference_logsumexp(alpha[-1])
    mass = np.repeat(np.exp(alpha + beta - log_z).ravel(), local.emission.shape[2])
    index = np.concatenate((local.emission.ravel(), local.transition.ravel()))
    if len(node) > 1:
        pair_mass = np.exp(
            alpha[:-1, :, None] + trans + (node[1:] + beta[1:])[:, None, :] - log_z
        ).sum(axis=0)
        mass = np.concatenate((mass, pair_mass.ravel()))
    else:
        index = index[: mass.size]
    return np.bincount(index, weights=mass, minlength=len(local)), log_z


def negated(lattice):
    return chain_mod.ChainLattice(node=-lattice.node, trans=-lattice.trans)


def reference_sample_many(lattice, size, rng):
    """Backward filtering / forward sampling of one chain that normalizes
    every conditional row by its own log-sum-exp instead of by beta."""

    def _categorical_rows(prob_rows, rng):
        cum = np.cumsum(prob_rows, axis=1)
        idx = (rng.random(prob_rows.shape[0])[:, None] >= cum).sum(axis=1)
        return np.minimum(idx, prob_rows.shape[1] - 1)

    beta = reference_backward(lattice.node, lattice.trans)
    n, L = lattice.node.shape
    out = np.empty((size, n), dtype=np.int64)
    logp0 = lattice.node[0] + beta[0]
    p0 = np.exp(logp0 - reference_logsumexp(logp0))
    p0 /= p0.sum()
    out[:, 0] = _categorical_rows(p0[None, :].repeat(size, axis=0), rng)
    for i in range(1, n):
        logc = lattice.trans + (lattice.node[i] + beta[i])[None, :]
        cond = np.exp(logc - reference_logsumexp(logc, axis=1)[:, None])
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
    pair = posterior(model, w, x, pair=True)
    for size in (1, 1000):
        # chain-major uniforms: the second chain draws after the first
        rng = np.random.default_rng(size)
        first = reference_sample_many(post.lattice, size, rng)
        second = reference_sample_many(negated(post.lattice), size, rng)
        assert np.array_equal(post.sample_many(size, np.random.default_rng(size)), first[None])
        assert np.array_equal(pair.sample_many(size, np.random.default_rng(size)),
                              np.stack((first, second)))
    # a single draw walks the table row by row, and takes the same labels
    labels = np.array(model.alphabet.labels)
    rng = np.random.default_rng(1)
    first, second = (reference_sample_many(lattice, 1, rng)[0]
                     for lattice in (post.lattice, negated(post.lattice)))
    assert post.sample(np.random.default_rng(1)) == (tuple(labels[first]),)
    assert pair.sample(np.random.default_rng(1)) == (tuple(labels[first]), tuple(labels[second]))


@pytest.mark.parametrize("num_labels", [2, 3, 9])
@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
def test_stacked_kernels_match_single_chain_reference_bitwise(num_labels, n, scale):
    model, x, w = random_chain(num_labels, n, seed=n * 7 + num_labels, scale=scale)
    for pair in (False, True):
        post = posterior(model, w, x, pair=pair)
        chains = [post.lattice, negated(post.lattice)][: 1 + pair]
        assert post.stack.node.shape == (n, len(chains), num_labels)
        cum0, cum = post._sampler_table
        expected = post.expected()
        assert len(expected) == len(chains)
        for b, lattice in enumerate(chains):
            node, trans = lattice.node, lattice.trans
            beta = reference_backward(node, trans)
            assert post.beta[:, b].tobytes() == beta.tobytes()
            assert post.alpha[:, b].tobytes() == reference_forward(node, trans).tobytes()
            ref_cum0, ref_cum = reference_sampler_table(node, trans, beta)
            assert cum0[b].tobytes() == ref_cum0.tobytes()
            assert cum[:, b].tobytes() == ref_cum.tobytes()
            values, log_z = reference_expected(post.local, node, trans)
            assert post._log_z[b, 0].tobytes() == log_z.tobytes()
            assert expected[b].values.tobytes() == values.tobytes()
        assert post.log_z == float(post._log_z[0, 0])


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


@pytest.mark.parametrize("pair, shape", [(False, (1, 2)), (False, (2, 3)), (True, (1, 3)),
                                         (True, (2, 4)), (False, (3,))])
def test_draw_rejects_uniforms_of_another_shape(pair, shape):
    model, x, w = random_chain(3, 3, seed=4, scale=2.0)
    post = posterior(model, w, x, pair=pair)
    with pytest.raises(ValueError, match="uniforms of shape"):
        post.draw(np.random.default_rng(0).random(shape))
    assert post.draw(np.random.default_rng(0).random((2 if pair else 1, 3))).shape == (
        2 if pair else 1, 3)


@pytest.mark.parametrize("size", [1, 1000])
def test_single_token_draws_have_one_column(size):
    model, x, w = random_chain(3, 1, seed=4, scale=2.0)
    draws = posterior(model, w, x).sample_many(size, np.random.default_rng(0))
    assert draws.shape == (1, size, 1) and draws.dtype == np.int64
    pair_draws = posterior(model, w, x, pair=True).sample_many(size, np.random.default_rng(0))
    assert pair_draws.shape == (2, size, 1) and pair_draws.dtype == np.int64


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
            assert decode_one(model, weights, x) == tuple(labels[i] for i in viterbi(reference))


def mixed_length_task(num_labels, offsets, scale, seed):
    """A model, instances of lengths 1..12 (several of length 1) and
    weights rounded to one decimal, so that scores often tie."""
    model = ChainModel(LabelAlphabet(tuple(f"L{k}" for k in range(num_labels))),
                       emission_offsets=offsets)
    rng = np.random.default_rng(seed)
    lengths = [1, 5, 1, 12, 2, 1, 7, 3, 12, 1]
    data = [ChainInstance(tokens=tuple(f"t{k}" for k in rng.integers(0, 4, n)))
            for n in lengths]
    fids = sorted({fid for x in data for fid in model.instance_feature_ids(x)})
    values = scale * np.round(rng.normal(size=len(fids)), 1)
    return model, data, SparseVector(dict(zip(fids, values.tolist())))


def decode_batch(model, w, data):
    """The batched Viterbi paths of data as label tuples."""
    paths, lengths = map_decode_paths(model, w, data)
    labels = model.alphabet.labels
    return [tuple(labels[i] for i in row[:n]) for row, n in zip(paths.tolist(), lengths.tolist())]


def decode_one(model, w, x):
    """The Viterbi labeling of x, decoded as a batch of one."""
    return decode_batch(model, w, [x])[0]


@pytest.mark.parametrize("num_labels", [3, 9])
@pytest.mark.parametrize("offsets", [(0,), (-1, 0, 1)])
@pytest.mark.parametrize("scale", [0.0, 0.5, 3.0, 50.0])
def test_batched_decode_matches_per_instance_and_reference(num_labels, offsets, scale):
    model, data, w = mixed_length_task(num_labels, offsets, scale, seed=num_labels + 7)
    labels = model.alphabet.labels
    reference = [tuple(labels[i] for i in viterbi(dict_lattice(model, w, x))) for x in data]
    columns = model.to_columns(w)
    for weights in (w, columns):
        assert decode_batch(model, weights, data) == reference
        assert [decode_one(model, weights, x) for x in data] == reference
    # the padded gather holds every instance's lattice, bit for bit
    cols, lengths, _ = model.compile_batch(data)
    node = columns[cols].sum(axis=-1)
    assert lengths.tolist() == [len(x) for x in data]
    for b, x in enumerate(data):
        assert node[b, : len(x)].tobytes() == build_lattice(model, w, x).node.tobytes()


def test_batched_decode_ties_go_to_the_lowest_index():
    model, data, w = mixed_length_task(3, (0,), 0.0, seed=1)
    assert decode_batch(model, w, data) == [("L0",) * len(x) for x in data]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_decode_ranks_nan_as_argmax_does(seed):
    # infinite weights of both signs make NaN potentials and NaN trellis scores
    model, data, w = mixed_length_task(3, (-1, 0, 1), 1.0, seed=seed)
    columns = model.to_columns(w)
    rng = np.random.default_rng(seed)
    hit = rng.random(len(columns)) < 0.3
    columns[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
    weights = dict(model.to_sparse(columns).items())
    labels = model.alphabet.labels
    with np.errstate(invalid="ignore"):
        reference = [tuple(labels[i] for i in viterbi(dict_lattice(model, weights, x)))
                     for x in data]
        assert decode_batch(model, columns, data) == reference
        assert [decode_one(model, columns, x) for x in data] == reference


def scan_viterbi(node, trans, lengths):
    """Test-local reference: the batched max-product that scans the previous
    labels in order, taking a score only when it ranks strictly higher (a NaN
    beats any number, a NaN best stays); an instance past its end keeps its
    trellis and points back to the same label."""
    B, n_max, L = node.shape
    node = np.ascontiguousarray(node.transpose(1, 2, 0))
    into = trans.T[:, :, None]
    back = np.empty((n_max, L, B), dtype=np.intp)
    stay = np.arange(L)[:, None]
    trellis = node[0]
    for i in range(1, n_max):
        scores = trellis + into
        best, arg = scores[:, 0], np.zeros((L, B), dtype=np.intp)
        for a in range(1, L):
            score = scores[:, a]
            better = ~(score <= best) & (best == best)
            best = np.where(better, score, best)
            np.putmask(arg, better, a)
        live = lengths > i
        back[i] = np.where(live, arg, stay)
        trellis = np.where(live, node[i] + best, trellis)
    path = np.empty((B, n_max), dtype=np.intp)
    label = trellis.argmax(axis=0)
    rows = np.arange(B)
    for i in range(n_max - 1, 0, -1):
        path[:, i] = label
        label = back[i, label, rows]
    path[:, 0] = label
    return path


@pytest.mark.parametrize("L", [2, 3, 9])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "equal", "ones", "one"])
def test_viterbi_equals_the_label_scan_bitwise(L, order):
    rng = np.random.default_rng(L * 10 + len(order))
    for trial in range(40):
        B = 1 if order == "one" else int(rng.integers(2, 30))
        lengths = rng.integers(1, 13, B)
        if order == "ascending":
            lengths.sort()
        elif order == "descending":
            lengths[::-1].sort()
        elif order == "equal":
            lengths[:] = lengths[0]
        elif order == "ones":
            lengths[:] = 1
        # values rounded to few digits tie often; every padded cell holds a value too
        node = np.round(rng.normal(size=(B, lengths.max(), L)), trial % 2)
        trans = np.round(rng.normal(size=(L, L)), trial % 2)
        if trial % 3:
            for table in (node, trans):
                hit = rng.random(table.shape) < 0.15
                table[hit] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], hit.sum())
        with np.errstate(invalid="ignore"):
            paths = chain_mod._viterbi(node, trans, lengths)
            assert paths.dtype == np.intp
            assert paths.tobytes() == scan_viterbi(node, trans, lengths).tobytes()


def test_batched_decode_of_an_outlier_equals_one_instance_decodes():
    model = ChainModel(LabelAlphabet(("O", "B", "I")), emission_offsets=(-1, 0, 1))
    rng = np.random.default_rng(11)
    data = [ChainInstance(tokens=tuple(f"t{k}" for k in rng.integers(0, 30, n)))
            for n in rng.integers(1, 6, 200)]
    data.insert(137, ChainInstance(tokens=tuple(f"t{k}" for k in rng.integers(0, 30, 500))))
    fids = sorted({fid for x in data for fid in model.instance_feature_ids(x)})
    w = SparseVector(dict(zip(fids, np.round(rng.normal(size=len(fids)), 1).tolist())))
    paths, lengths = map_decode_paths(model, w, data)
    assert paths.shape == (201, 500)
    for row, n, x in zip(paths, lengths, data):
        (one,), _ = map_decode_paths(model, w, [x])
        assert row[:n].tolist() == one.tolist()
        assert (row[n:] == row[n - 1]).all()  # past its end a row repeats its last label


def test_an_empty_batch_is_rejected_before_anything_is_compiled(monkeypatch):
    model, data, w = mixed_length_task(3, (0,), 1.0, seed=5)
    columns = model.to_columns(w)
    compiled = []
    compile_ = ChainModel.compile
    monkeypatch.setattr(ChainModel, "compile", lambda self, x: compiled.append(x) or compile_(self, x))
    for empty in ([], ()):
        with pytest.raises(ValueError, match="empty batch"):
            map_decode_paths(model, w, empty)
        for pair in (False, True):
            with pytest.raises(ValueError, match="empty batch"):
                chain_mod.draw_batch(model, columns, empty, [], pair=pair)
    assert compiled == []


class CountingArray(np.ndarray):
    """A column array that records the index shape of every gather from it."""

    gathers: list = []

    def __getitem__(self, index):
        if isinstance(index, np.ndarray):
            CountingArray.gathers.append(index.shape)
        return super().__getitem__(index)


def test_evaluate_gathers_once_and_builds_no_lattice(monkeypatch):
    from banditchain import FeedbackOracle, evaluate

    model, data, w = mixed_length_task(3, (-1, 0, 1), 0.5, seed=3)
    data = [ChainInstance(tokens=x.tokens, gold=("L0",) * len(x)) for x in data]
    builds = []
    build = chain_mod.build_lattice
    monkeypatch.setattr(chain_mod, "build_lattice", lambda *a: builds.append(1) or build(*a))
    model.compile_batch(data)
    weights = model.to_columns(w).view(CountingArray)
    monkeypatch.setattr(CountingArray, "gathers", [])
    loss = FeedbackOracle("hamming").loss
    value = evaluate(model, weights, data, loss)
    # one emission gather over the padded (B, n_max, L, k) block, one of the transitions
    assert CountingArray.gathers == [(len(data), 12, 3, 3), (3, 3)]
    assert builds == []
    assert value == sum(loss(x.gold, decode_one(model, w, x)) for x in data) / len(data)


def test_compile_batch_caches_the_last_dataset(monkeypatch):
    model, data, _ = mixed_length_task(3, (0,), 1.0, seed=5)
    compiled = []
    compile_ = ChainModel.compile
    monkeypatch.setattr(ChainModel, "compile", lambda self, x: compiled.append(x) or compile_(self, x))
    first = model.compile_batch(data)
    assert len(compiled) == len(data)
    again = model.compile_batch(list(data))  # an equal dataset is a cache hit
    assert all(a is b for a, b in zip(again, first)) and len(compiled) == len(data)
    assert first[2] == {}  # the memo is the caller's to fill
    other = model.compile_batch(data[:3])
    assert other[0].shape[:2] == (3, 5) and len(compiled) == len(data) + 3
    assert other[2] is not first[2]  # the memo goes with its dataset
    model.clear_cache()
    assert model.compile_batch(data[:3])[0] is not other[0]


@pytest.mark.parametrize("num_labels, offsets", [(3, (0,)), (9, (-1, 0, 1))])
@pytest.mark.parametrize("scale", [0.5, 30.0])
@pytest.mark.parametrize("pair", [False, True])
def test_draw_batch_equals_each_posteriors_draw(num_labels, offsets, scale, pair):
    # lengths 1..12, one-token instances included, so chains end at every position
    model, data, w = mixed_length_task(num_labels, offsets, scale, seed=num_labels + 3)
    columns = model.to_columns(w)
    C = 1 + pair
    rng = np.random.default_rng(int(scale) + C)
    uniforms = [rng.random((C, len(x))) for x in data]
    dev = data[:4]
    cols, _, memo = model.compile_batch(dev)
    paths = chain_mod.draw_batch(model, columns, data, uniforms, pair=pair)
    assert paths.shape == (C * len(data), max(map(len, data)))
    posts = [posterior(model, columns, x, pair=pair) for x in data]
    for b, (x, u, post) in enumerate(zip(data, uniforms, posts)):
        assert np.array_equal(paths[C * b:C * (b + 1), :len(x)], post.draw(u))
    # the draws leave the cached dataset, and the memo kept with it, in place
    again = model.compile_batch(dev)
    assert again[0] is cols and again[2] is memo

    # a padded stack's backward pass, with any potentials past each chain's end,
    # gives each chain its own messages at its live positions, bit for bit
    n_max = max(map(len, data))
    node = rng.normal(size=(n_max, C * len(data), num_labels))
    for b, post in enumerate(posts):
        node[:len(data[b]), C * b:C * (b + 1)] = post.stack.node
    stack = chain_mod.ChainLattice(node=node,
                                   trans=np.concatenate([post.stack.trans for post in posts]))
    beta = chain_mod._backward(stack, np.repeat([len(x) for x in data], C))
    for b, post in enumerate(posts):
        assert beta[:len(data[b]), C * b:C * (b + 1)].tobytes() == post.beta.tobytes()


@pytest.mark.parametrize("pair", [False, True])
def test_draw_batch_rejects_uniforms_of_another_shape(pair):
    model, _, w = mixed_length_task(3, (0,), 1.0, seed=5)
    data = [ChainInstance(tokens=("t0", "t1", "t2")), ChainInstance(tokens=("t0",) * 5)]
    columns = model.to_columns(w)
    C = 1 + pair
    # the totals match, so a flat assignment would hand instance 1 a uniform of instance 0
    for shapes, bad in ((((C, 4), (C, 4)), 0), (((C, 3), (C, 4)), 1),
                        (((2 * C, 3), (C, 5)), 0), (((C, 3), (3 - C, 5)), 1)):
        uniforms = [np.full(shape, 0.5) for shape in shapes]
        with pytest.raises(ValueError, match=f"instance {bad}"):
            chain_mod.draw_batch(model, columns, data, uniforms, pair=pair)
    uniforms = [np.full((C, len(x)), 0.5) for x in data]
    assert chain_mod.draw_batch(model, columns, data, uniforms, pair=pair).shape == (2 * C, 5)


def test_negated_posterior_matches_negated_weights(ab_model, fixed_instance, fixed_weights):
    # a pair posterior's chain 0 is the posterior under w, its chain 1 the one under -w
    post = posterior(ab_model, fixed_weights, fixed_instance)
    pair = posterior(ab_model, fixed_weights, fixed_instance, pair=True)
    direct = posterior(ab_model, fixed_weights.scaled(-1.0), fixed_instance)
    assert np.array_equal(pair.stack.trans[1], -post.lattice.trans)
    for b, single in enumerate((post, direct)):
        assert np.array_equal(pair.stack.node[:, b], single.lattice.node)
        assert np.array_equal(pair.stack.trans[b], single.lattice.trans)
        assert np.array_equal(pair.beta[:, b], single.beta[:, 0])
        assert pair._log_z[b, 0] == single.log_z
        assert pair.to_sparse(pair.expected()[b]) == expected_sparse(single)
    assert pair.log_z == post.log_z
    rng = np.random.default_rng(4)
    draws = [single.sample_many(50, rng)[0] for single in (post, direct)]
    assert np.array_equal(pair.sample_many(50, np.random.default_rng(4)), np.stack(draws))
    rng = np.random.default_rng(5)
    assert pair.sample(np.random.default_rng(5)) == (post.sample(rng)[0], direct.sample(rng)[0])


@pytest.mark.parametrize("objective", ["el", "pr-cont", "ce"])
def test_training_step_builds_one_lattice(objective, monkeypatch, synthetic_task):
    import banditchain.trainer as trainer_mod
    from banditchain import FeedbackOracle, TrainerConfig, train

    model, train_data, dev_data, _ = synthetic_task
    builds = {"step": 0, "decode": 0}
    decodes = []
    phase = ["step"]
    build, decode = chain_mod.build_lattice, trainer_mod.map_decode_paths

    def counting_build(*args):
        builds[phase[0]] += 1
        return build(*args)

    def decoding(model, w, data):
        phase[0] = "decode"
        decodes.append(len(data))
        try:
            return decode(model, w, data)
        finally:
            phase[0] = "step"

    monkeypatch.setattr(chain_mod, "build_lattice", counting_build)
    monkeypatch.setattr(trainer_mod, "map_decode_paths", decoding)
    cfg = TrainerConfig(objective=objective, gamma=0.1, iterations=30, seed=2, eval_every=30)
    train(cfg, model, train_data, dev_data[:5], FeedbackOracle("hamming"))
    # the dev set at t = 0 and t = 30: one batched decode each, no lattice built
    assert builds == {"step": 30, "decode": 0}
    assert decodes == [5, 5]


@pytest.mark.parametrize("objective, chains", [("el", 1), ("pr-cont", 2), ("ce", 1)])
def test_training_step_runs_one_backward_pass(objective, chains, monkeypatch, synthetic_task):
    from banditchain import FeedbackOracle, TrainerConfig, train

    model, train_data, dev_data, _ = synthetic_task
    stacks = []
    backward = chain_mod._backward
    monkeypatch.setattr(chain_mod, "_backward",
                        lambda lattice, *args: stacks.append(lattice.node.shape[1])
                        or backward(lattice, *args))
    cfg = TrainerConfig(objective=objective, gamma=0.1, iterations=30, seed=2, eval_every=30)
    train(cfg, model, train_data, dev_data[:5], FeedbackOracle("hamming"))
    # one posterior per step: a PR step stacks the chains of w and -w in one pass
    assert stacks == [chains] * 30


def test_zero_feedback_step_never_runs_the_forward_pass(monkeypatch, synthetic_task):
    from banditchain import FeedbackOracle, TrainerConfig, train

    class Perfect(FeedbackOracle):
        def feedback_paths(self, instances, paths, labels, mode=None):
            return [0.0] * len(instances)

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
    assert decode_one(ab_model, SparseVector(), fixed_instance) == ("A", "A", "A")


def test_map_decode_matches_enumeration(ab_model, fixed_instance, fixed_weights):
    dist = distribution(ab_model, fixed_weights, fixed_instance)
    best = dist.labelings[int(np.argmax(dist.probs))]
    assert decode_one(ab_model, fixed_weights, fixed_instance) == best == FIXED_MAP


def test_map_decode_invariant_to_constant_node_shift(ab_model, fixed_instance, fixed_weights):
    before = decode_one(ab_model, fixed_weights, fixed_instance)
    shifted = fixed_weights.copy()
    # fern occurs only at position 1; shifting all its labels shifts one column
    for lab in ("A", "B"):
        fid = feature_id(f"em0\x1ffern\x1f{lab}")
        shifted[fid] = shifted[fid] + 3.5
    assert decode_one(ab_model, shifted, fixed_instance) == before


# -- probabilities -----------------------------------------------------------------


def test_prob_uniform_closed_form(ab_model, fixed_instance):
    post = posterior(ab_model, SparseVector(), fixed_instance)
    assert post.prob(np.array([0, 1, 0])) == pytest.approx(1 / 8, abs=1e-15)


def test_prob_sums_to_one_and_matches_frozen_value(ab_model, fixed_instance, fixed_weights):
    post = posterior(ab_model, fixed_weights, fixed_instance)
    total = sum(post.prob(ab_model.alphabet.indices(y)) for y in all_labelings(("A", "B"), 3))
    assert abs(total - 1.0) <= 1e-10
    assert abs(post.prob(np.array([0, 1, 0])) - FIXED_GOLD_PROB) <= 1e-10


def test_prob_invariant_to_shared_shift(ab_model, fixed_instance, fixed_weights):
    y = np.array([1, 0, 0])
    before = posterior(ab_model, fixed_weights, fixed_instance).prob(y)
    shifted = fixed_weights.copy()
    # every labeling fires exactly one fern emission, so this shifts all scores equally
    for lab in ("A", "B"):
        fid = feature_id(f"em0\x1ffern\x1f{lab}")
        shifted[fid] = shifted[fid] + 2.0
    assert posterior(ab_model, shifted, fixed_instance).prob(y) == pytest.approx(before, abs=1e-12)


def test_prob_length_mismatch(ab_model, fixed_instance, fixed_weights):
    with pytest.raises(ValueError, match="length"):
        posterior(ab_model, fixed_weights, fixed_instance).prob(np.array([0, 1]))


# -- ids -> columns ------------------------------------------------------------------


def dict_loop_to_columns(model, w):
    """Test-local reference: to_columns(SparseVector) as one dict probe per
    entry, interning unknown ids in the vector's order."""
    columns = model._columns
    for fid in w:
        if fid not in columns:
            model._append([fid])
            model._unclaimed.add(fid)
    out = np.zeros(len(columns))
    out[[columns[fid] for fid in w]] = [value for _, value in w.items()]
    return out


def wide_model(seed):
    model = ChainModel(LabelAlphabet(("O", "B-X", "I-X", "B-Y", "I-Y")),
                       emission_offsets=(-1, 0, 1))
    rng = np.random.default_rng(seed)
    for n in (3, 9, 20):
        model.compile(ChainInstance(tokens=tuple(f"t{k}" for k in rng.integers(0, 40, n))))
    return model, rng


def random_vector(model, rng, known, unknown, negative=False):
    fids = [int(model._ids[c]) for c in rng.choice(model.num_columns, known, replace=False)]
    low, high = (-(1 << 63), 0) if negative else (0, 1 << 63)
    fids += [int(f) for f in rng.integers(low, high, unknown, dtype=np.int64)]
    rng.shuffle(fids)
    return SparseVector(dict(zip(fids, rng.normal(size=len(fids)).tolist())))


@pytest.mark.parametrize("case, known, unknown, negative", [
    ("all known", 120, 0, False),
    ("all unknown", 0, 150, False),
    ("mixed", 90, 90, False),
    ("empty", 0, 0, False),
    ("negative ids", 40, 60, True),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_to_columns_matches_dict_loop_bitwise(case, known, unknown, negative, seed):
    model, rng = wide_model(seed)
    reference, _ = wide_model(seed)
    w = random_vector(model, rng, known, unknown, negative)
    for _ in range(2):  # the second call finds every id known
        out = model.to_columns(w)
        assert out.tobytes() == dict_loop_to_columns(reference, w).tobytes()
        assert model._ids.tolist() == reference._ids.tolist()
        assert model._columns == reference._columns
    assert len(out) == model.num_columns


@pytest.mark.parametrize("case, known, unknown, negative", [
    ("all known", 120, 0, False),
    ("mixed", 90, 90, False),
    ("empty", 0, 0, False),
    ("negative ids", 40, 60, True),
])
def test_to_columns_of_a_sorted_vector_equals_the_sparse_vector_in_id_order(case, known, unknown,
                                                                            negative):
    model, rng = wide_model(6)
    reference, _ = wide_model(6)
    w = random_vector(model, rng, known, unknown, negative)
    in_id_order = SparseVector(sorted(w.items()))
    vector = SortedVector.from_sparse(w)
    assert vector == in_id_order
    for _ in range(2):  # the second call finds every id known
        out = model.to_columns(vector)
        assert out.tobytes() == reference.to_columns(in_id_order).tobytes()
        # ids new to the model interned by ascending id
        assert model._ids.tolist() == reference._ids.tolist()
        assert model._columns == reference._columns


def test_to_columns_after_the_model_grew_past_its_index():
    model, rng = wide_model(3)
    reference, _ = wide_model(3)
    w = random_vector(model, rng, 50, 50)
    dict_loop_to_columns(reference, w)
    model.to_columns(w)
    built = model._id_index
    # the model grows after the index was built: new rows, then a vector over them
    for m in (model, reference):
        m.compile(ChainInstance(tokens=("fresh", "tokens", "t1")))
    grown = [fid for fid in model._ids.tolist() if fid not in w]
    w2 = random_vector(model, rng, 30, 40)
    w2 = SparseVector({**dict(w2.items()), **{fid: 0.5 for fid in grown[-15:]}})
    assert model.to_columns(w2).tobytes() == dict_loop_to_columns(reference, w2).tobytes()
    assert model._ids.tolist() == reference._ids.tolist()
    assert model._id_index is not built


def test_to_columns_builds_its_index_once_while_the_model_does_not_grow(monkeypatch):
    model, rng = wide_model(4)
    w = random_vector(model, rng, 80, 0)
    builds = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: builds.append(len(a))
                        or argsort(a, *args, **kw))
    first = model.to_columns(w)
    second = model.to_columns(w)
    assert builds == [model.num_columns]
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("fid", [1 << 63, 1 << 64, -(1 << 63) - 1])
def test_to_columns_rejects_an_id_outside_int64(fid):
    model, _ = wide_model(5)
    before = model._ids.tolist()
    w = SparseVector({feature_id("em0\x1fa\x1fO"): 1.0, fid: 2.0})
    with pytest.raises(ValueError, match=f"feature id {fid} does not fit in int64"):
        model.to_columns(w)
    assert model._ids.tolist() == before


def test_compile_interns_new_rows_in_first_occurrence_order():
    """compile interns as a per-(offset, token) loop would: the same columns
    and the same column order."""
    model = ChainModel(LabelAlphabet(("A", "B", "C")), emission_offsets=(-1, 0, 1))
    ids = model._ids.tolist()
    data = [ChainInstance(tokens=toks) for toks in
            (("a", "b", "a"), ("b", "c"), ("d",), ("a", "d", "e", "a", "e"))]
    for x in data:
        n = len(x)
        expected = []
        for off in model.emission_offsets:
            for i in range(n):
                j = i + off
                tok = "<S>" if j < 0 else "</S>" if j >= n else x.tokens[j]
                for lab in model.alphabet.labels:
                    fid = feature_id(f"em{off}\x1f{tok}\x1f{lab}")
                    if fid not in ids:
                        ids.append(fid)
                    expected.append(ids.index(fid))
        cols = model.compile(x)
        assert model._ids.tolist() == ids
        assert cols.transpose(2, 0, 1).ravel().tolist() == expected


def test_batched_hash_equals_feature_id():
    templates = ["em0\x1fçé日本\x1fB-LOC", "em-1\x1fa\x1fb\x1fO", "tr\x1fA\x1fB",
                 "em1\x1f</S>\x1fA", "", "\x1f"]
    for size in (127, 128, 129):  # one byte short of, at and past blake2b's block
        templates += ["a" * size, "é" * (size // 2) + "a" * (size % 2)]
        assert len(templates[-1].encode("utf-8")) == size
    fids = chain_mod._feature_ids(templates)
    assert fids == [feature_id(t) for t in templates]
    # the rule itself, hashed one template at a time
    digests = [hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest() for t in templates]
    assert fids == [int.from_bytes(d, "big") >> 1 for d in digests]
    assert all(type(fid) is int and 0 <= fid < 1 << 63 for fid in fids)
    assert chain_mod._feature_ids([]) == []


class ReferenceModel:
    """Test-local per-template interning: one ``feature_id`` call and one dict
    probe per template, per-position compile loops."""

    def __init__(self, labels, offsets, hash_one=feature_id):
        self.labels, self.offsets, self.hash_one = labels, offsets, hash_one
        self.columns, self.ids, self.templates = {}, [], []
        self.transition = np.array([self.intern(f"tr\x1f{a}\x1f{b}") for a in labels
                                    for b in labels]).reshape(len(labels), len(labels))

    def intern(self, template, fid=None):
        fid = self.hash_one(template) if fid is None else fid
        col = self.columns.setdefault(fid, len(self.ids))
        if col == len(self.ids):
            self.ids.append(fid)
            self.templates.append(template)
        elif self.templates[col] != template:
            if self.templates[col] is not None:
                raise RuntimeError(
                    f"feature id collision: {template!r} vs {self.templates[col]!r} -> {fid}")
            self.templates[col] = template
        return col

    def unclaimed(self):
        """The ids read from weights that no template has hashed to yet."""
        return {fid for fid, template in zip(self.ids, self.templates) if template is None}

    def read(self, w):
        """to_columns' interning: unknown ids take a column and no template."""
        for fid in w:
            if fid not in self.columns:
                self.intern(None, fid)

    def compile(self, x):
        n = len(x)
        block = [[[self.intern(f"em{off}\x1f{tok}\x1f{lab}") for lab in self.labels]
                  for tok in ("<S>" if j < 0 else "</S>" if j >= n else x.tokens[j]
                              for j in range(off, off + n))]
                 for off in self.offsets]
        return np.array(block, dtype=np.intp).reshape(len(self.offsets), n, -1).transpose(1, 2, 0)


@pytest.mark.parametrize("offsets", [(0,), (-2, 0, 1), (0, 1, 0)])
def test_compile_matches_a_per_template_reference(offsets):
    labels = ("O", "B-LOC", "I-LOC")
    model = ChainModel(LabelAlphabet(labels), emission_offsets=offsets)
    ref = ReferenceModel(labels, offsets)
    rng = np.random.default_rng(3)
    vocab = ["a", "b", "çé", "日本", "x\x1fy", "<S>", "</S>"] + [f"t{k}" for k in range(30)]
    data = [ChainInstance(tokens=tuple(vocab[k] for k in rng.integers(0, len(vocab), n)))
            for n in (1, 2, 5, 9, 1, 17, 3, 30)]
    # ids read from a weight vector before their templates are hashed, and an id no template has
    w = SparseVector({feature_id("em0\x1fb\x1fB-LOC"): 1.0, feature_id("tr\x1fO\x1fO"): 2.0,
                      12345: 3.0})
    for step, x in enumerate(data):
        if step == 3:
            model.to_columns(w)
            ref.read(w)
        cols = model.compile(x)
        expected = ref.compile(x)
        assert cols.dtype == expected.dtype and cols.strides == expected.strides
        assert np.array_equal(cols, expected)
        assert model._ids.tolist() == ref.ids and model._unclaimed == ref.unclaimed()
    assert np.array_equal(model.transition, ref.transition)
    for x in data:  # the cached arrays are unchanged by later growth
        assert np.array_equal(model.compile(x), ref.compile(x))


def test_compile_costs_no_more_for_a_far_offset():
    import tracemalloc

    labels, offsets = ("O", "B-LOC", "I-LOC"), (0, 10**6, -10**6 - 3)
    model = ChainModel(LabelAlphabet(labels), emission_offsets=offsets)
    ref = ReferenceModel(labels, offsets)
    data = [ChainInstance(tokens=("a", "b")), ChainInstance(tokens=("b", "c", "a"))]
    tracemalloc.start()
    try:
        compiled = [model.compile(x) for x in data]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # padding by the offset itself would allocate a tuple of 2 * 10**6 tokens (16 MB)
    assert peak < 1 << 20
    for x, cols in zip(data, compiled):
        assert np.array_equal(cols, ref.compile(x))
    assert model._ids.tolist() == ref.ids and model._unclaimed == ref.unclaimed()


def test_id_read_from_weights_takes_its_template_on_the_fallback():
    labels = ("A", "B")
    model, ref = ChainModel(LabelAlphabet(labels)), ReferenceModel(labels, (0,))
    w = SparseVector({12345: 1.0, feature_id("em0\x1fb\x1fB"): 2.0})
    model.to_columns(w)
    ref.read(w)
    fid = feature_id("em0\x1fb\x1fB")
    col = model._columns[fid]
    assert model._unclaimed == ref.unclaimed() == {12345, fid}
    x = ChainInstance(tokens=("a", "b", "c"))
    assert np.array_equal(model.compile(x), ref.compile(x))
    # the template claims the id: it keeps its column and leaves the set
    assert model._columns[fid] == col and model._unclaimed == ref.unclaimed() == {12345}
    assert model._ids.tolist() == ref.ids


def test_batched_collisions_raise_as_the_per_template_loop(monkeypatch):
    real = chain_mod._feature_ids
    existing = feature_id("tr\x1fA\x1fA")
    fake = {"em0\x1fa\x1fA": 42, "em0\x1fa\x1fB": 42, "em0\x1fb\x1fA": existing}

    def hash_one(template):
        return fake.get(template) or real([template])[0]

    monkeypatch.setattr(chain_mod, "_feature_ids", lambda ts: [hash_one(t) for t in ts])
    for token, message in (
            ("a", "feature id collision: 'em0\\x1fa\\x1fB' vs 'em0\\x1fa\\x1fA' -> 42"),
            ("b", f"feature id collision: 'em0\\x1fb\\x1fA' vs 'tr\\x1fA\\x1fA' -> {existing}")):
        x = ChainInstance(tokens=("c", token))
        ref = ReferenceModel(("A", "B"), (0,), hash_one)
        with pytest.raises(RuntimeError) as expected:
            ref.compile(x)
        with pytest.raises(RuntimeError) as raised:
            ChainModel(LabelAlphabet(("A", "B"))).compile(x)
        assert str(raised.value) == str(expected.value) == message


@pytest.mark.parametrize("batches", [(("a",), ("b",)), (("a", "b"),)])
def test_an_id_a_template_claimed_from_weights_collides_with_the_next(monkeypatch, batches):
    real = chain_mod._feature_ids
    taken = feature_id("em0\x1fa\x1fA")
    monkeypatch.setattr(chain_mod, "_feature_ids", lambda ts: [
        taken if t == "em0\x1fb\x1fB" else real([t])[0] for t in ts])
    model = ChainModel(LabelAlphabet(("A", "B")))
    model.to_columns(SparseVector({taken: 1.0}))
    assert model._unclaimed == {taken}
    if len(batches) == 2:  # "em0 a A" claims the id first, in a batch of its own
        model.compile(ChainInstance(tokens=batches[0]))
        assert model._unclaimed == set()
    size, unclaimed = model.num_columns, set(model._unclaimed)
    with pytest.raises(RuntimeError) as raised:
        model.compile(ChainInstance(tokens=batches[-1]))
    assert str(raised.value) == (
        f"feature id collision: 'em0\\x1fb\\x1fB' vs 'em0\\x1fa\\x1fA' -> {taken}")
    # the failed batch interned nothing
    assert model.num_columns == size and model._unclaimed == unclaimed


def test_compile_keeps_none_of_the_template_text():
    import tracemalloc

    model = ChainModel(LabelAlphabet(("O", "B-X", "I-X")), emission_offsets=(-1, 0, 1))
    x = ChainInstance(tokens=tuple(f"{k}:" + "t" * 10_000 for k in range(50)))
    text = 3 * 3 * sum(map(len, x.tokens))  # 3 offsets x 3 labels per token
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.compile(x)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the model keeps ids, columns and its (offset, token) rows, not the 4.5 MB of templates
    assert kept < text / 10


# -- misc ---------------------------------------------------------------------------


def test_feature_norm_bound(ab_model, fixed_instance):
    bound = ab_model.feature_norm_bound(fixed_instance)
    assert bound == 5.0  # 3 emissions + 2 transitions
    for y in all_labelings(("A", "B"), 3):
        phi = extract_features(ab_model, fixed_instance, y)
        assert phi.norm() <= bound + 1e-12
