import numpy as np
import pytest

from banditchain import (
    ChainInstance,
    ChainModel,
    FeedbackOracle,
    LabelAlphabet,
    SparseVector,
    TrainerConfig,
    Trajectory,
    evaluate,
    feature_id,
    grad_norm_sq,
    select_best,
    train,
)


class ConstantOracle(FeedbackOracle):
    """Returns a fixed loss regardless of the prediction (test stub)."""

    def __init__(self, value: float):
        super().__init__("hamming")
        self._value = value

    def feedback(self, instance, labeling) -> float:
        return self._value


@pytest.fixture
def tiny_task():
    alpha = LabelAlphabet(("A", "B"))
    model = ChainModel(alpha)
    train_data = [
        ChainInstance(tokens=("u", "v"), gold=("A", "B")),
        ChainInstance(tokens=("v", "u"), gold=("B", "A")),
    ]
    dev_data = [ChainInstance(tokens=("u", "v"), gold=("A", "B"))]
    return model, train_data, dev_data


def test_zero_feedback_leaves_weights_untouched(tiny_task):
    model, train_data, dev_data = tiny_task
    cfg = TrainerConfig(objective="el", gamma=0.5, iterations=50, seed=1, eval_every=50)
    traj = train(cfg, model, train_data, dev_data, ConstantOracle(0.0))
    assert traj.final_weights == SparseVector()
    assert all(v == 0.0 for v in traj.scaled_norm_sq[1:])


def test_zero_learning_rate_freezes_weights(tiny_task):
    model, train_data, dev_data = tiny_task
    w0 = SparseVector({feature_id("em0\x1fu\x1fA"): 1.5})
    cfg = TrainerConfig(objective="el", gamma=0.0, iterations=30, seed=1, eval_every=10)
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"), w0=w0)
    assert traj.final_weights == w0
    assert len(set(traj.dev_losses)) == 1


def test_update_rule_without_regularization(tiny_task):
    model, train_data, dev_data = tiny_task
    gamma = 0.25
    cfg = TrainerConfig(
        objective="el", gamma=gamma, iterations=1, seed=3, epoch_size=1, eval_every=1
    )
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    (t,), (scaled_s,) = traj.epoch_steps, traj.epoch_grads
    assert t == 1
    # w_1 = w_0 - gamma * s_1 with w_0 = 0, and scaled_s is exactly gamma * s_1
    assert traj.final_weights == model.to_sparse(scaled_s, traj.row_columns).scaled(-1.0)


def test_ce_regularization_shrinks_weights(tiny_task):
    model, train_data, dev_data = tiny_task
    gamma, lam, T = 0.5, 2.0, 1
    w0 = SparseVector({feature_id("em0\x1fu\x1fA"): 4.0, feature_id("em0\x1fv\x1fB"): -2.0})
    # constant loss 1 makes the gain 0, so s_t = 0 and only the shrink acts
    cfg = TrainerConfig(
        objective="ce", gamma=gamma, iterations=T, seed=0, l2_lambda=lam, eval_every=1
    )
    traj = train(cfg, model, train_data, dev_data, ConstantOracle(1.0), w0=w0)
    factor = 1.0 - gamma * lam / T
    expected = SparseVector({fid: value * factor for fid, value in w0.items()})
    assert traj.final_weights == expected


def test_l2_only_applies_to_ce(tiny_task):
    model, train_data, dev_data = tiny_task
    w0 = SparseVector({feature_id("em0\x1fu\x1fA"): 4.0})
    cfg = TrainerConfig(
        objective="el", gamma=0.5, iterations=1, seed=0, l2_lambda=2.0, eval_every=1
    )
    traj = train(cfg, model, train_data, dev_data, ConstantOracle(0.0), w0=w0)
    assert traj.final_weights == w0  # no shrink, no gradient


def test_reproducibility_bitwise(tiny_task):
    model, train_data, dev_data = tiny_task
    cfg = TrainerConfig(objective="pr-cont", gamma=0.2, iterations=40, seed=7, eval_every=10)
    a = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    b = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    assert a.final_weights == b.final_weights
    assert a.dev_losses == b.dev_losses
    assert np.array_equal(a.scaled_norm_sq[1:], b.scaled_norm_sq[1:])
    assert ([model.to_sparse(w) for _, w in a.checkpoints]
            == [model.to_sparse(w) for _, w in b.checkpoints])


def test_checkpoint_count_and_epoch_grads(tiny_task):
    model, train_data, dev_data = tiny_task
    cfg = TrainerConfig(
        objective="el", gamma=0.1, iterations=10, seed=0, epoch_size=3, eval_every=4
    )
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    assert len(traj.checkpoints) == 10 // 4 + 1
    assert [t for t, _ in traj.checkpoints] == [0, 4, 8]
    assert traj.epoch_steps == [3, 6, 9] and len(traj.epoch_grads) == 3
    assert len(traj.dev_losses) == len(traj.checkpoints)
    # the feature-norm bound of the training set is recorded with the run
    assert traj.feature_norm_bound == 3.0  # 2 emissions + 1 transition


def test_snapshot_reservoir_size(tiny_task):
    model, train_data, dev_data = tiny_task
    # at 64 slots the stride T // 64 is 1, so 100 steps offer 100 snapshots
    for snapshots in (10, 64):
        cfg = TrainerConfig(objective="el", gamma=0.1, iterations=100, seed=0,
                            eval_every=100, snapshots=snapshots)
        traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
        assert len(traj.snapshot_weights) == len(traj.snapshot_grads) == snapshots


def test_trainer_reads_gold_only_through_the_oracle(tiny_task):
    model, _, dev_data = tiny_task
    blind_train = [ChainInstance(tokens=("u", "v")), ChainInstance(tokens=("v", "u"))]
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=20, seed=0, eval_every=20)
    traj = train(cfg, model, blind_train, dev_data, ConstantOracle(0.5))
    assert traj.iterations == 20


def test_step_record_access(tiny_task):
    model, train_data, dev_data = tiny_task
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=5, seed=0, eval_every=5)
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    assert grad_norm_sq(traj, 3) == traj.scaled_norm_sq[3] >= 0.0
    for t in (0, 6):
        with pytest.raises(ValueError, match=f"no step record at t={t}"):
            grad_norm_sq(traj, t)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(objective="el", gamma=-0.1, iterations=10).validate()
    with pytest.raises(ValueError):
        TrainerConfig(objective="el", gamma=0.1, iterations=0).validate()
    with pytest.raises(ValueError):
        TrainerConfig(objective="ce", gamma=0.1, iterations=10, clip_k=1.0).validate()
    with pytest.raises(ValueError):
        TrainerConfig(objective="ce", gamma=0.1, iterations=10, l2_lambda=-1.0).validate()
    TrainerConfig(objective="el", gamma=0.0, iterations=10).validate()


@pytest.mark.parametrize("key,value", [("lr_schedule", "constant"), ("use_transitions", True),
                                       ("checkpoint_format", "text")],
                         ids=["lr_schedule", "use_transitions", "checkpoint_format"])
def test_deleted_knob_is_an_unknown_config_key(tmp_path, key, value):
    import json

    from banditchain import DataError, load_config

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"labels": ["A", "B"], "train_path": "t.tsv",
                                "dev_path": "d.tsv", key: value}))
    with pytest.raises(DataError, match=f"unknown config keys.*{key}"):
        load_config(path)


@pytest.mark.parametrize("objective", ["el", "pr-cont", "ce"])
def test_divergence_is_named_with_its_step(objective, synthetic_task):
    model, train_data, dev_data, _ = synthetic_task
    cfg = TrainerConfig(objective=objective, gamma=1e300, iterations=10, seed=0)
    with pytest.raises(FloatingPointError, match=r"diverged at step 1: .* gamma=1e\+300"):
        train(cfg, model, train_data, dev_data[:5], FeedbackOracle("hamming"))


def test_empty_data_rejected(tiny_task):
    model, train_data, dev_data = tiny_task
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=5)
    with pytest.raises(ValueError, match="training"):
        train(cfg, model, [], dev_data, FeedbackOracle("hamming"))
    with pytest.raises(ValueError, match="development"):
        train(cfg, model, train_data, [], FeedbackOracle("hamming"))


# -- selection and evaluation -----------------------------------------------------


def make_trajectory(dev_losses):
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=len(dev_losses))
    model = ChainModel(LabelAlphabet(("A", "B")))
    traj = Trajectory(config=cfg, epoch_size=1, model=model)
    for i, loss in enumerate(dev_losses):
        traj.checkpoints.append((i, model.to_columns(SparseVector({1: float(i)}))))
        traj.dev_losses.append(loss)
    return traj


def test_select_best_single():
    t, w = select_best(make_trajectory([0.3]))
    assert t == 0


def test_select_best_argmin():
    t, w = select_best(make_trajectory([0.4, 0.2, 0.3]))
    assert t == 1 and w == SparseVector({1: 1.0})


def test_select_best_tie_goes_earliest():
    t, _ = select_best(make_trajectory([0.2, 0.2]))
    assert t == 0


def test_select_best_empty():
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=1)
    with pytest.raises(ValueError):
        select_best(Trajectory(config=cfg, epoch_size=1))


def test_evaluate_perfect_weights(tiny_task):
    model, train_data, _ = tiny_task
    w = SparseVector(
        {
            feature_id("em0\x1fu\x1fA"): 10.0,
            feature_id("em0\x1fv\x1fB"): 10.0,
        }
    )
    oracle = FeedbackOracle("hamming")
    assert evaluate(model, w, train_data, oracle.loss) == 0.0


def test_evaluate_manual_mean(ab_model):
    # under zero weights the tie rule predicts all-A everywhere
    data = [
        ChainInstance(tokens=("x", "y"), gold=("A", "A")),  # loss 0
        ChainInstance(tokens=("x", "y"), gold=("A", "B")),  # loss 1/2
        ChainInstance(tokens=("x", "y"), gold=("B", "B")),  # loss 1
    ]
    value = evaluate(ab_model, SparseVector(), data, FeedbackOracle("hamming").loss)
    assert value == pytest.approx((0.0 + 0.5 + 1.0) / 3)


def test_evaluate_requires_gold(ab_model):
    with pytest.raises(ValueError, match="gold"):
        evaluate(ab_model, SparseVector(), [ChainInstance(tokens=("x",))],
                 FeedbackOracle("hamming").loss)


def test_warm_start_checkpoint_zero_is_w0(tiny_task):
    model, train_data, dev_data = tiny_task
    w0 = SparseVector({feature_id("em0\x1fu\x1fA"): 0.7})
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=4, seed=0, eval_every=4)
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"), w0=w0)
    t0, ck0 = traj.checkpoints[0]
    assert t0 == 0 and model.to_sparse(ck0) == w0


# -- golden runs ------------------------------------------------------------------

# sha256 of (final weights, dev losses, ||gamma * s_t||^2) of a 300-step seed-0 run
# per objective on the conftest synthetic task; any change to the sampler's rng
# draws or to the order of floating-point sums in a gradient changes them
GOLDEN_DIGESTS = {
    "el": "0e701b75ae1054765a9d580efc7cf3c0b9b1c749bf5df46f8f5947e7f496e9f3",
    "pr-bin": "fc003712b7e97eca9e8c349c5cfb230911ac2f3185787a65aeb68c7762e60a11",
    "pr-cont": "1814363b22627bed4a529e1e097f6c86c72f941a303ec330f603af7cc74da2c9",
    "ce": "6cc771717c6193fbfe691426e586f961ab55d5a47e841f310ab194386704961f",
}


def trajectory_digest(traj) -> str:
    import hashlib
    import struct

    h = hashlib.sha256()
    for fid, value in sorted(traj.final_weights.items()):
        h.update(struct.pack("<qd", fid, value))
    h.update(struct.pack(f"<{len(traj.dev_losses)}d", *traj.dev_losses))
    h.update(struct.pack(f"<{traj.iterations}d", *traj.scaled_norm_sq[1:]))
    return h.hexdigest()


@pytest.mark.parametrize("objective", sorted(GOLDEN_DIGESTS))
def test_seed_zero_run_matches_golden_digest(objective, synthetic_task):
    model, train_data, dev_data, _ = synthetic_task
    cfg = TrainerConfig(
        objective=objective, gamma=0.1, iterations=300, seed=0, eval_every=100,
        l2_lambda=0.5 if objective == "ce" else 0.0,
    )
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    assert trajectory_digest(traj) == GOLDEN_DIGESTS[objective]
