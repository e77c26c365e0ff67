"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  The desk-scale learning and variance-ordering criteria train
real models and dominate the runtime (a couple of minutes total).
"""

import json
import time

import numpy as np
import pytest

import banditchain as bc
from banditchain import (
    ChainInstance,
    ChainModel,
    FeedbackOracle,
    LabelAlphabet,
    ObjectiveKind,
    SparseVector,
    TrainerConfig,
)
from conftest import record_evaluations

LABELS = ("A", "B", "C", "D")
TOKENS = ("ash", "birch", "cedar", "dune")

EL_GAMMA = 0.1
PR_GAMMA = 0.1
CE_GAMMA = 5e-4
CE_CLIP = 0.05
CE_LAMBDA = 1e-6
LEARNING_ITERATIONS = 10_000  # well inside the 100k budget
SEEDS = (0, 1, 2)

SHARED_GAMMA = 1e-4  # variance-ordering runs share gamma, T and D
SHARED_T = 3_000
SHARED_D = 200


def make_fixture(seed, n, num_labels, scale=0.8):
    rng = np.random.default_rng(seed)
    model = ChainModel(LabelAlphabet(LABELS[:num_labels]))
    x = ChainInstance(
        tokens=tuple(TOKENS[i] for i in rng.integers(len(TOKENS), size=n)),
        gold=tuple(LABELS[i] for i in rng.integers(num_labels, size=n)),
    )
    fids = model.instance_feature_ids(x)
    w = SparseVector({f: scale * float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})
    return model, x, w


# sizes span n <= 8, L <= 4 and stay inside the default enumeration budget
ORACLE_SIZES = [
    (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
    (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (7, 3),
    (2, 4), (3, 4), (4, 4), (5, 4), (6, 4),
    (1, 2), (1, 4),
]

# pair-space criteria enumerate |Y|^2 ordered pairs, so cap |Y| at 64
PAIR_SIZES = [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (2, 4), (3, 4)]


def pair_fixtures():
    return [make_fixture(300 + i, n, L) for i, (n, L) in enumerate(PAIR_SIZES)]


def max_coord_diff(a, b):
    fids = a.support() | b.support()
    return max((abs(a[f] - b[f]) for f in fids), default=0.0)


def neg_probs(dist):
    from scipy.special import logsumexp

    neg = -dist.scores
    return np.exp(neg - logsumexp(neg))


def done(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


# -- 1: oracle equivalence of exact inference ---------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for i, (n, L) in enumerate(ORACLE_SIZES):
        model, x, w = make_fixture(100 + i, n, L)
        dist = bc.distribution(model, w, x)
        post = bc.posterior(model, w, x)
        worst = max(worst, abs(post.log_z - dist.log_z))
        exact = post.to_sparse(post.expected()[0])
        enum = dist.expected_features()
        worst = max(worst, max_coord_diff(exact, enum))
        for y, p in zip(dist.labelings, dist.probs):
            worst = max(worst, abs(post.prob(model.alphabet.indices(y)) - float(p)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    done(1, f"(20 fixtures, worst err {worst:.2e}, {elapsed:.2f}s)")


# -- 2: gradients vs finite differences -----------------------------------------------


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_criterion_2_gradient_correctness(kind):
    model, x1, w = make_fixture(201, 3, 2)
    _, x2, _ = make_fixture(202, 2, 2)
    data = [x1, x2]
    coords = sorted(
        set(model.instance_feature_ids(x1)) | set(model.instance_feature_ids(x2))
    )
    grad = bc.brute_gradient(kind, model, w, data, bc.hamming_loss)
    fd = bc.finite_diff_gradient(
        lambda v: bc.brute_objective(kind, model, v, data, bc.hamming_loss),
        w,
        h=1e-5,
        coords=coords,
    )
    np.testing.assert_allclose(
        [grad[f] for f in coords], [fd[f] for f in coords], rtol=1e-6, atol=1e-9
    )
    done(2, f"({kind.value}: {len(coords)} coordinates)")


# -- 3: unbiasedness of the stochastic gradients -----------------------------------------


def expected_stochastic_gradient(kind, model, x, w):
    dist = bc.distribution(model, w, x)
    post = bc.posterior(model, w, x, pair=kind.is_pairwise)
    deltas = [bc.hamming_loss(x.gold, y) for y in dist.labelings]
    paths = [model.alphabet.indices(y) for y in dist.labelings]
    expect = SparseVector()
    if kind is ObjectiveKind.EL:
        for p, y, d in zip(dist.probs, paths, deltas):
            expect.add_scaled(post.to_sparse(bc.el_columns(post, y, d)), float(p))
    elif kind.is_pairwise:
        q = neg_probs(dist)
        for pi, yi, di in zip(dist.probs, paths, deltas):
            for qj, yj, dj in zip(q, paths, deltas):
                fb = bc.pair_feedback(di, dj, kind.pair_mode)
                if fb == 0.0:
                    continue
                grad = bc.pr_columns(post, np.stack((yi, yj)), fb)
                expect.add_scaled(post.to_sparse(grad), float(pi * qj))
    else:
        for p, y, d in zip(dist.probs, paths, deltas):
            expect.add_scaled(post.to_sparse(bc.ce_columns(post, y, 1.0 - d, 0.0)), float(p))
    return expect


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_criterion_3_unbiasedness(kind):
    model, x, _ = make_fixture(301, 3, 2)
    rng = np.random.default_rng(31)
    fids = model.instance_feature_ids(x)
    worst = 0.0
    for _ in range(20):
        w = SparseVector({f: 0.8 * float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})
        expect = expected_stochastic_gradient(kind, model, x, w)
        target = bc.brute_gradient(kind, model, w, [x], bc.hamming_loss)
        worst = max(worst, max_coord_diff(expect, target))
    assert worst <= 1e-10
    done(3, f"({kind.value}: worst deviation {worst:.2e} over 20 weight vectors)")


# -- 4: ordered-pair factorization ----------------------------------------------------------


def test_criterion_4_pair_factorization():
    worst = 0.0
    total_pairs = 0
    for model, x, w in pair_fixtures():
        labelings, pair_probs = bc.pair_distribution(model, w, x)
        p = bc.distribution(model, w, x).probs
        q = bc.distribution(model, w.scaled(-1.0), x).probs
        total_pairs += pair_probs.size
        worst = max(worst, float(np.max(np.abs(pair_probs - np.outer(p, q)))))
    assert worst <= 1e-12
    done(4, f"({total_pairs} ordered pairs incl. diagonal, worst err {worst:.2e})")


# -- 5: cross-entropy convexity and the Jensen step -------------------------------------------


def test_criterion_5_ce_convexity_and_jensen():
    model, x, _ = make_fixture(501, 3, 2)
    data = [x]
    fids = model.instance_feature_ids(x)
    rng = np.random.default_rng(55)
    worst_violation = -np.inf
    for _ in range(100):
        w1 = SparseVector({f: float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})
        w2 = SparseVector({f: float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})
        mid = (w1 + w2).scale(0.5)
        j_mid = bc.brute_objective(ObjectiveKind.CE, model, mid, data, bc.hamming_loss)
        j_avg = 0.5 * (
            bc.brute_objective(ObjectiveKind.CE, model, w1, data, bc.hamming_loss)
            + bc.brute_objective(ObjectiveKind.CE, model, w2, data, bc.hamming_loss)
        )
        worst_violation = max(worst_violation, j_mid - j_avg)
    assert worst_violation <= 1e-12

    jensen_worst = -np.inf
    for model, x, w in pair_fixtures():
        dist = bc.distribution(model, w, x)
        gains = np.array([1.0 - bc.hamming_loss(x.gold, y) for y in dist.labelings])
        alpha = gains.sum()
        assert alpha > 0.0
        g_bar = gains / alpha
        lhs = float(-np.dot(g_bar, dist.scores - dist.log_z))
        rhs = float(-np.log(np.dot(g_bar, dist.probs)))
        jensen_worst = max(jensen_worst, rhs - lhs)
    assert jensen_worst <= 1e-12
    done(5, f"(midpoint violation {worst_violation:.2e}, jensen violation {jensen_worst:.2e})")


# -- 6: sampler exactness ----------------------------------------------------------------------


def tv_from_counts(counts, exact, total):
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(k, 0) / total - exact.get(k, 0.0)) for k in keys)


def test_criterion_6_sampler_exactness():
    start = time.monotonic()
    single_worst = 0.0
    for seed, (n, L) in [(601, (3, 2)), (602, (2, 3)), (603, (6, 2))]:
        model, x, w = make_fixture(seed, n, L)
        dist = bc.distribution(model, w, x)
        exact = {
            tuple(model.alphabet.indices(y).tolist()): float(p)
            for y, p in zip(dist.labelings, dist.probs)
        }
        (draws,) = bc.posterior(model, w, x).sample_many(100_000, np.random.default_rng(seed))
        counts = {}
        for row in map(tuple, draws.tolist()):
            counts[row] = counts.get(row, 0) + 1
        single_worst = max(single_worst, tv_from_counts(counts, exact, 100_000))
    assert single_worst <= 0.02

    model, x, w = make_fixture(604, 3, 2)
    dist = bc.distribution(model, w, x)
    q = neg_probs(dist)
    to_idx = lambda y: tuple(model.alphabet.indices(y).tolist())
    exact_pairs = {
        (to_idx(yi), to_idx(yj)): float(pi * qj)
        for yi, pi in zip(dist.labelings, dist.probs)
        for yj, qj in zip(dist.labelings, q)
    }
    post = bc.posterior(model, w, x, pair=True)
    first, second = post.sample_many(200_000, np.random.default_rng(64))
    counts = {}
    for f, s in zip(map(tuple, first.tolist()), map(tuple, second.tolist())):
        counts[(f, s)] = counts.get((f, s), 0) + 1
    pair_tv = tv_from_counts(counts, exact_pairs, 200_000)
    elapsed = time.monotonic() - start
    assert pair_tv <= 0.03
    assert elapsed < 60.0
    done(6, f"(single TV {single_worst:.4f}, pair TV {pair_tv:.4f}, {elapsed:.1f}s)")


# -- 7: diagnostics definitional fidelity ---------------------------------------------------------


def test_criterion_7_diagnostics_fidelity():
    rng = np.random.default_rng(71)
    grads = [
        SparseVector({int(f): float(rng.normal()) for f in rng.integers(0, 12, size=7)})
        for _ in range(6)
    ]
    fids = sorted(set().union(*(g.support() for g in grads)))
    dense = np.array([[g[f] for f in fids] for g in grads])
    two_pass = float(np.mean(np.sum((dense - dense.mean(axis=0)) ** 2, axis=1)))
    assert abs(bc.variance_estimate(dense) - two_pass) <= 1e-12

    # snapshot rows (w_i, gamma * s_i): w = (0), (4) and s = (1), (3)
    weights, grads = np.array([[0.0], [4.0]]), np.array([[1.0], [3.0]])
    assert bc.lipschitz_estimate(weights, grads) == 0.5  # ||(3-1)|| / ||(4-0)|| exactly
    weights, grads = np.array([[0.0], [1.0]]), np.array([[2.0], [0.0]])
    assert bc.lipschitz_estimate(weights, grads) == 2.0

    alpha = LabelAlphabet(("A", "B"))
    model = ChainModel(alpha)
    train_data = [ChainInstance(tokens=("u", "v"), gold=("A", "B"))]
    oracle = FeedbackOracle("hamming")

    def first_step_norm_sq(gamma):
        cfg = TrainerConfig(objective="el", gamma=gamma, iterations=1, seed=3, eval_every=1)
        traj = bc.train(cfg, model, train_data, train_data, oracle)
        return bc.grad_norm_sq(traj)

    full, half = first_step_norm_sq(0.2), first_step_norm_sq(0.1)
    assert half * 4.0 == full  # identical s_1, so the estimate scales exactly as gamma^2
    done(7, "(variance vs two-pass, hand-computed ratios, gamma^2 scaling)")


# -- 8 and 9: desk-scale learning and the variance ordering ----------------------------------------


@pytest.fixture(scope="module")
def synthetic_datasets():
    rng = np.random.default_rng(42)
    train = bc.generate_chunk_instances(200, rng)
    dev = bc.generate_chunk_instances(50, rng)
    model = ChainModel(bc.chunk_alphabet())
    return model, train, dev


def test_criterion_8_desk_scale_learning(synthetic_datasets):
    model, train_data, dev_data = synthetic_datasets
    oracle = FeedbackOracle("hamming")
    baseline = bc.evaluate(model, SparseVector(), dev_data, oracle.loss)
    assert baseline > 0.0
    settings = [
        ("el", dict(gamma=EL_GAMMA)),
        ("pr-cont", dict(gamma=PR_GAMMA)),
        ("ce", dict(gamma=CE_GAMMA, clip_k=CE_CLIP, l2_lambda=CE_LAMBDA)),
    ]
    results = []
    for objective, params in settings:
        for seed in SEEDS:
            start = time.monotonic()
            cfg = TrainerConfig(
                objective=objective,
                iterations=LEARNING_ITERATIONS,
                seed=seed,
                eval_every=1000,
                **params,
            )
            traj = bc.train(cfg, model, train_data, dev_data, oracle)
            elapsed = time.monotonic() - start
            best = min(traj.dev_losses)
            assert elapsed < 600.0, f"{objective} seed {seed} took {elapsed:.0f}s"
            assert best <= 0.7 * baseline, (
                f"{objective} seed {seed}: best dev {best:.4f} vs baseline {baseline:.4f}"
            )
            results.append(f"{objective}/s{seed}:{best:.3f}")
    done(8, f"(baseline {baseline:.3f}; best dev losses {', '.join(results)})")


def test_criterion_9_variance_ordering(synthetic_datasets):
    model, train_data, dev_data = synthetic_datasets
    oracle = FeedbackOracle("hamming")
    reports = []
    for objective, params in [
        ("pr-cont", {}),
        ("el", {}),
        ("ce", dict(clip_k=0.01, l2_lambda=1e-6)),
    ]:
        for seed in SEEDS:
            cfg = TrainerConfig(
                objective=objective,
                gamma=SHARED_GAMMA,
                iterations=SHARED_T,
                seed=seed,
                epoch_size=SHARED_D,
                eval_every=SHARED_T,
                **params,
            )
            traj = bc.train(cfg, model, train_data, dev_data, oracle)
            reports.append(bc.convergence_report(traj, seed=seed))
    summary = bc.compare_runs(reports)
    by = {}
    for r in reports:
        by.setdefault(r.objective, {})[r.seed] = r.variance_est
    for seed in SEEDS:
        assert by["pr-cont"][seed] < by["ce"][seed], (
            f"seed {seed}: sigma^2(pr)={by['pr-cont'][seed]:.3e} "
            f"not below sigma^2(ce)={by['ce'][seed]:.3e}"
        )
    assert summary.variance_ordering["pr<ce"] is True
    assert json.dumps(summary.to_dict())  # the comparison report is serializable
    done(
        9,
        "(sigma^2 pr-cont "
        + ", ".join(f"s{s}:{by['pr-cont'][s]:.2e}" for s in SEEDS)
        + " < ce "
        + ", ".join(f"s{s}:{by['ce'][s]:.2e}" for s in SEEDS)
        + ")",
    )


# -- 10: determinism ---------------------------------------------------------------------------------


def test_criterion_10_determinism(synthetic_datasets, monkeypatch):
    model, train_data, dev_data = synthetic_datasets
    oracle = FeedbackOracle("hamming")
    cfg = TrainerConfig(objective="ce", gamma=1e-3, iterations=500, seed=11,
                        clip_k=0.05, l2_lambda=1e-6, eval_every=100)
    a_checkpoints = record_evaluations(monkeypatch)
    a = bc.train(cfg, model, train_data, dev_data, oracle)
    b_checkpoints = record_evaluations(monkeypatch)
    b = bc.train(cfg, model, train_data, dev_data, oracle)
    assert a.dev_curve() == b.dev_curve()
    assert a.final_weights == b.final_weights
    assert len(a_checkpoints) == len(a.dev_losses) == 6
    assert ([model.to_sorted(w) for w in a_checkpoints]
            == [model.to_sorted(w) for w in b_checkpoints])
    assert a.best[:2] == b.best[:2] and np.array_equal(a.best[2], b.best[2])
    done(10, f"(identical dev curves over {len(a.dev_losses)} evaluations and final weights)")
