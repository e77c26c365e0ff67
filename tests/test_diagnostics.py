import numpy as np
import pytest

from banditchain import (
    ChainInstance,
    ChainModel,
    ConvergenceReport,
    FeedbackOracle,
    LabelAlphabet,
    SparseVector,
    TrainerConfig,
    compare_runs,
    convergence_report,
    grad_norm_sq,
    lipschitz_estimate,
    train,
    variance_estimate,
)


@pytest.fixture
def tiny_run():
    alpha = LabelAlphabet(("A", "B"))
    model = ChainModel(alpha)
    train_data = [
        ChainInstance(tokens=("u", "v"), gold=("A", "B")),
        ChainInstance(tokens=("v", "u"), gold=("B", "A")),
    ]
    dev_data = [ChainInstance(tokens=("u", "v"), gold=("A", "B"))]

    def run(gamma=0.2, iterations=20, seed=5, **kw):
        cfg = TrainerConfig(
            objective="el", gamma=gamma, iterations=iterations, seed=seed,
            epoch_size=4, eval_every=iterations, **kw
        )
        return train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))

    return run


# -- squared gradient norm ---------------------------------------------------------


def test_grad_norm_sq_reads_final_step(tiny_run):
    traj = tiny_run()
    assert grad_norm_sq(traj) == traj.scaled_norm_sq[traj.iterations]
    assert grad_norm_sq(traj, 3) == traj.scaled_norm_sq[3]


def test_grad_norm_sq_scales_with_gamma_squared(tiny_run):
    # same seed and T=1: the sampled structure at w_0 = 0 is identical, so
    # s_1 is identical and halving gamma must quarter the estimate exactly
    full = tiny_run(gamma=0.2, iterations=1)
    half = tiny_run(gamma=0.1, iterations=1)
    assert grad_norm_sq(half) * 4.0 == grad_norm_sq(full)


def test_grad_norm_sq_missing_record(tiny_run):
    traj = tiny_run(iterations=5)
    with pytest.raises(ValueError, match="no step record"):
        grad_norm_sq(traj, 6)
    with pytest.raises(ValueError, match="no step record"):
        grad_norm_sq(traj, 0)


def test_grad_norm_shrinks_on_converged_separable_run():
    from banditchain import chunk_alphabet, generate_chunk_instances

    rng = np.random.default_rng(1)
    data = generate_chunk_instances(50, rng)
    model = ChainModel(chunk_alphabet())
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=3000, seed=0, eval_every=3000)
    traj = train(cfg, model, data, data[:10], FeedbackOracle("hamming"))
    assert traj.dev_losses[-1] < traj.dev_losses[0]  # the run actually converged
    assert grad_norm_sq(traj) < grad_norm_sq(traj, 1)


# -- Lipschitz estimate ---------------------------------------------------------------


def snap(w_items, s_items):
    return (SparseVector(w_items), SparseVector(s_items))


def rows(vectors):
    """SparseVectors as the rows of one array, over the sorted union of their ids."""
    fids = sorted(set().union(*(v.support() for v in vectors)))
    return np.array([[v[f] for f in fids] for v in vectors]).reshape(len(vectors), len(fids))


def snapshot_rows(snapshots):
    """(weights, grads): the estimator's two (S, d) arrays of a snapshot list."""
    return rows([w for w, _ in snapshots]), rows([s for _, s in snapshots])


def test_lipschitz_zero_for_identical_gradients():
    snapshots = [snap({1: float(i)}, {2: 3.0}) for i in range(4)]
    assert lipschitz_estimate(*snapshot_rows(snapshots)) == 0.0


def test_lipschitz_two_snapshot_ratio():
    snapshots = [snap({1: 0.0}, {2: 0.0}), snap({1: 4.0}, {2: 2.0})]
    assert lipschitz_estimate(*snapshot_rows(snapshots)) == pytest.approx(0.5)


def test_lipschitz_invariant_to_snapshot_order():
    rng = np.random.default_rng(0)
    snapshots = [
        snap({1: float(rng.normal()), 2: float(rng.normal())},
             {1: float(rng.normal())})
        for _ in range(12)
    ]
    base = lipschitz_estimate(*snapshot_rows(snapshots), n_pairs=500)
    for seed in (1, 2, 3):
        perm = list(np.random.default_rng(seed).permutation(len(snapshots)))
        shuffled = [snapshots[i] for i in perm]
        assert lipschitz_estimate(*snapshot_rows(shuffled), n_pairs=500) == base


def test_lipschitz_skips_coincident_weight_pairs():
    # two snapshots share weights; their pair is undefined and must be skipped
    snapshots = [
        snap({1: 1.0}, {2: 5.0}),
        snap({1: 1.0}, {2: 1.0}),
        snap({1: 3.0}, {2: 1.0}),
    ]
    est = lipschitz_estimate(*snapshot_rows(snapshots))
    assert est == pytest.approx(2.0)  # max over the two valid pairs: 4/2 and 0/2


def test_lipschitz_all_identical_weights_error():
    snapshots = [snap({1: 1.0}, {2: float(i)}) for i in range(3)]
    with pytest.raises(ValueError, match="identical"):
        lipschitz_estimate(*snapshot_rows(snapshots))


def test_lipschitz_needs_two_snapshots():
    with pytest.raises(ValueError):
        lipschitz_estimate(*snapshot_rows([snap({1: 1.0}, {})]))


def test_lipschitz_scales_linearly_in_gradient_scale():
    rng = np.random.default_rng(3)
    snapshots = [
        snap({1: float(rng.normal())}, {1: float(rng.normal()), 2: float(rng.normal())})
        for _ in range(6)
    ]
    scaled = [(w, s.scaled(0.5)) for w, s in snapshots]
    assert lipschitz_estimate(*snapshot_rows(scaled)) == pytest.approx(
        0.5 * lipschitz_estimate(*snapshot_rows(snapshots)))


def test_lipschitz_sampled_mode_is_seeded():
    rng = np.random.default_rng(9)
    snapshots = [
        snap({1: float(rng.normal()), 2: float(rng.normal())}, {1: float(rng.normal())})
        for _ in range(40)
    ]
    a = lipschitz_estimate(*snapshot_rows(snapshots), n_pairs=50, rng=np.random.default_rng(1))
    b = lipschitz_estimate(*snapshot_rows(snapshots), n_pairs=50, rng=np.random.default_rng(1))
    assert a == b


# -- variance estimate -------------------------------------------------------------------


def test_variance_zero_for_equal_gradients():
    grads = [SparseVector({1: 2.0, 3: -1.0})] * 5
    assert variance_estimate(rows(grads)) == 0.0


def test_variance_opposite_vectors():
    v = SparseVector({1: 3.0, 2: 4.0})
    assert variance_estimate(rows([v, v.scaled(-1.0)])) == pytest.approx(v.norm_sq())


def test_variance_matches_dense_two_pass():
    rng = np.random.default_rng(11)
    grads = [
        SparseVector({int(f): float(rng.normal()) for f in rng.integers(0, 10, size=6)})
        for _ in range(5)
    ]
    fids = sorted(set().union(*(g.support() for g in grads)))
    dense = np.array([[g[f] for f in fids] for g in grads])
    mean = dense.mean(axis=0)
    reference = float(np.mean(np.sum((dense - mean) ** 2, axis=1)))
    assert abs(variance_estimate(rows(grads)) - reference) <= 1e-12


def test_variance_needs_two():
    with pytest.raises(ValueError):
        variance_estimate(rows([SparseVector({1: 1.0})]))


def test_variance_nonnegative_and_zero_only_when_equal():
    rng = np.random.default_rng(2)
    grads = [SparseVector({1: float(rng.normal())}) for _ in range(4)]
    assert variance_estimate(rows(grads)) > 0.0


# -- vectorized estimators against the SparseVector loops ------------------------------


def sparse_lipschitz(snapshots, n_pairs=500, rng=None):
    """The estimator as a loop over pairs of SparseVector snapshots."""
    rng = np.random.default_rng(0) if rng is None else rng

    def ratio(i, j):
        gap = (snapshots[i][0] - snapshots[j][0]).norm()
        return None if gap < 1e-12 else (snapshots[i][1] - snapshots[j][1]).norm() / gap

    n, ratios = len(snapshots), []
    if n_pairs >= n * (n - 1) // 2:
        ratios = [ratio(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        for _ in range(n_pairs):
            for _ in range(16):
                i, j = rng.choice(n, size=2, replace=False)
                r = ratio(int(i), int(j))
                if r is not None:
                    break
            ratios.append(r)
    return max(r for r in ratios if r is not None)


def sparse_variance(grads):
    """The estimator as sums over SparseVector gradients."""
    center = SparseVector()
    for g in grads:
        center.add_scaled(g, 1.0)
    center.scale(1.0 / len(grads))
    return sum((g - center).norm_sq() for g in grads) / len(grads)


@pytest.mark.parametrize("n_pairs", [500, 40])  # every pair, and drawn pairs
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_vectorized_estimators_match_sparse_reference(n_pairs, scale):
    rng = np.random.default_rng(int(scale * 1000) + n_pairs)

    def vector():
        fids = rng.integers(0, 400, size=60)
        return SparseVector({int(f): scale * float(rng.normal()) for f in fids})

    weights = [vector() for _ in range(24)]
    # repeated weights make pairs that must be redrawn or skipped
    weights[5], weights[9] = weights[4], weights[4]
    snapshots = [(w, vector()) for w in weights]
    lip = lipschitz_estimate(*snapshot_rows(snapshots), n_pairs=n_pairs,
                             rng=np.random.default_rng(7))
    ref = sparse_lipschitz(snapshots, n_pairs=n_pairs, rng=np.random.default_rng(7))
    assert abs(lip - ref) <= 1e-12 * ref
    grads = [s for _, s in snapshots]
    ref = sparse_variance(grads)
    assert abs(variance_estimate(rows(grads)) - ref) <= 1e-12 * ref


# -- invariance under feature relabeling ------------------------------------------------


def test_estimators_invariant_to_feature_relabeling():
    rng = np.random.default_rng(4)
    grads = [SparseVector({f: float(rng.normal()) for f in (1, 2, 3)}) for _ in range(4)]
    snapshots = [
        (SparseVector({f: float(rng.normal()) for f in (1, 2, 3)}), g) for g in grads
    ]
    relabel = {1: 101, 2: 202, 3: 303}

    def remap(v):
        return SparseVector({relabel[f]: val for f, val in v.items()})

    assert variance_estimate(rows([remap(g) for g in grads])) == variance_estimate(rows(grads))
    assert lipschitz_estimate(
        *snapshot_rows([(remap(w), remap(s)) for w, s in snapshots])
    ) == lipschitz_estimate(*snapshot_rows(snapshots))


# -- report assembly and comparison --------------------------------------------------------


def test_convergence_report_assembly(tiny_run):
    traj = tiny_run(iterations=20)
    report = convergence_report(traj, seed=0)
    assert report.T == 20
    assert report.D == 4
    assert report.K == 5
    assert report.objective == "el"
    assert report.grad_norm_sq_at_T == grad_norm_sq(traj)
    round_trip = ConvergenceReport.from_dict(report.to_dict())
    assert round_trip == report


def make_report(objective, seed, variance, T=100, gamma=0.1, D=10):
    return ConvergenceReport(
        grad_norm_sq_at_T=variance / 2,
        lipschitz_est=1.0,
        variance_est=variance,
        T=T, D=D, K=T // D,
        seed=seed, objective=objective, gamma=gamma,
    )


def test_compare_runs_single_report():
    summary = compare_runs([make_report("el", 0, 1e-3)])
    assert summary.rankings["variance_est"] == [("el", 0, 1e-3)]
    assert summary.variance_ordering == {}


def test_compare_runs_ranking_and_flags():
    reports = [
        make_report("pr-cont", 0, 1e-5),
        make_report("el", 0, 1e-3),
        make_report("ce", 0, 10.0),
    ]
    summary = compare_runs(reports)
    assert [o for o, _, _ in summary.rankings["variance_est"]] == ["pr-cont", "el", "ce"]
    assert summary.variance_ordering == {"pr<el": True, "el<ce": True, "pr<ce": True}


def test_compare_runs_flags_are_per_seed():
    reports = [
        make_report("pr-bin", 0, 1e-5),
        make_report("pr-bin", 1, 2e-3),  # worse than ce seed 1 below
        make_report("ce", 0, 1.0),
        make_report("ce", 1, 1e-3),
    ]
    summary = compare_runs(reports)
    assert summary.variance_ordering == {"pr<ce": False}


def test_compare_runs_rejects_mismatched_horizons():
    with pytest.raises(ValueError, match="disagree"):
        compare_runs([make_report("el", 0, 1.0, T=100), make_report("ce", 0, 1.0, T=200)])


def test_compare_runs_summary_serializes():
    summary = compare_runs([make_report("el", 0, 1e-3), make_report("ce", 0, 1.0)])
    d = summary.to_dict()
    assert d["T"] == 100
    assert {r["objective"] for r in d["rankings"]["variance_est"]} == {"el", "ce"}
    assert d["variance_ordering"] == {"el<ce": True}
