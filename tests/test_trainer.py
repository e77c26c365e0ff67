import functools
import math
import re

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
    select_best,
    train,
)
from conftest import record_evaluations


class ConstantOracle(FeedbackOracle):
    """Returns a fixed loss regardless of the prediction (test stub)."""

    def __init__(self, value: float):
        super().__init__("hamming")
        self._value = value

    def check(self, instances, labels) -> None:  # it scores without gold
        pass

    def feedback_paths(self, instances, paths, labels, mode=None) -> list[float]:
        return [self._value] * len(instances)


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


def test_a_warm_start_from_a_checkpoint_equals_one_from_the_sparse_vector_of_its_entries(
        tmp_path):
    from banditchain import read_checkpoint, write_checkpoint

    cfg = TrainerConfig(objective="el", gamma=0.5, iterations=150, seed=2, eval_every=50)
    model, train_data, dev_data = typed_task()
    first = train(cfg, model, train_data[:40], dev_data, FeedbackOracle("chunk-f1"))
    write_checkpoint(tmp_path / "w.ckpt", first.final_weights)
    from_file = read_checkpoint(tmp_path / "w.ckpt")
    entries = SparseVector(from_file.items())
    assert from_file == first.final_weights == entries and len(entries) > 100
    runs = []
    for w0 in (from_file, entries):
        model, train_data, dev_data = typed_task()
        runs.append((model, train(cfg, model, train_data, dev_data, FeedbackOracle("chunk-f1"),
                                  w0=w0)))
    (a_model, a), (b_model, b) = runs
    assert a_model._ids.tolist() == b_model._ids.tolist()
    assert a.weights.tobytes() == b.weights.tobytes() and a.final_weights == b.final_weights
    assert a.dev_losses == b.dev_losses
    assert a.scaled_norm_sq.tobytes() == b.scaled_norm_sq.tobytes()


def test_update_rule_without_regularization(tiny_task):
    model, train_data, dev_data = tiny_task
    gamma = 0.25
    cfg = TrainerConfig(
        objective="el", gamma=gamma, iterations=1, seed=3, epoch_size=1, eval_every=1
    )
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    # the one epoch row is at t = 1 * epoch_size, the run's only step
    ((columns, scaled_s),) = traj.epoch_grads
    assert sum((scaled_s * scaled_s).tolist()) == pytest.approx(traj.scaled_norm_sq[1])
    # w_1 = w_0 - gamma * s_1 with w_0 = 0, and scaled_s is exactly gamma * s_1
    assert traj.final_weights == model.to_sparse(scaled_s, columns).scaled(-1.0)


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


def test_reproducibility_bitwise(tiny_task, monkeypatch):
    model, train_data, dev_data = tiny_task
    cfg = TrainerConfig(objective="pr-cont", gamma=0.2, iterations=40, seed=7, eval_every=10)
    a_checkpoints = record_evaluations(monkeypatch)
    a = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    b_checkpoints = record_evaluations(monkeypatch)
    b = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    assert a.final_weights == b.final_weights
    assert a.dev_losses == b.dev_losses
    assert np.array_equal(a.scaled_norm_sq[1:], b.scaled_norm_sq[1:])
    assert len(a_checkpoints) == 5
    assert ([model.to_sorted(w) for w in a_checkpoints]
            == [model.to_sorted(w) for w in b_checkpoints])
    assert select_best(a) == select_best(b)


def test_checkpoint_count_and_epoch_grads(tiny_task, monkeypatch):
    model, train_data, dev_data = tiny_task
    cfg = TrainerConfig(
        objective="el", gamma=0.1, iterations=10, seed=0, epoch_size=3, eval_every=4
    )
    checkpoints = record_evaluations(monkeypatch)
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    assert len(checkpoints) == 10 // 4 + 1
    assert [t for t, _ in traj.dev_curve()] == [0, 4, 8]
    assert len(traj.dev_losses) == len(checkpoints)
    # the epoch rows are the scaled gradients of steps 3, 6 and 9
    assert [sum((g * g).tolist()) for _, g in traj.epoch_grads] == pytest.approx(
        traj.scaled_norm_sq[[3, 6, 9]].tolist())
    assert not hasattr(traj, "checkpoints") and not hasattr(traj, "epoch_steps")
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
    assert traj.scaled_norm_sq[3] >= 0.0
    # one record per step t = 1..T; t = 0 has none
    assert len(traj.scaled_norm_sq) == 6 and math.isnan(traj.scaled_norm_sq[0])


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


def test_eval_cadence_beyond_the_run_is_rejected():
    """A run that would score dev only at t = 0 is refused; an unset cadence and
    one equal to the run length are not."""
    with pytest.raises(ValueError, match="eval cadence 500 exceeds the 200 iterations"):
        TrainerConfig(objective="el", gamma=0.1, iterations=200, eval_every=500).validate()
    TrainerConfig(objective="el", gamma=0.1, iterations=200, eval_every=200).validate()
    TrainerConfig(objective="el", gamma=0.1, iterations=1).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["gamma", "clip_k", "l2_lambda"])
def test_non_finite_setting_is_rejected_before_any_data_is_read(field, value, tmp_path):
    import json

    from banditchain import DataError, load_config

    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainerConfig(**{"objective": "ce", "gamma": 0.1, "iterations": 10, field: value}).validate()
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"labels": ["A", "B"], "train_path": "missing.tsv",
                                "dev_path": "missing.tsv", "objective": "ce", field: value}))
    with pytest.raises(DataError, match=f"{field} must be finite"):
        load_config(path)


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


def scripted_run(monkeypatch, task, dev_losses, eval_every=1):
    """A run on task whose dev scores are dev_losses in turn, one checkpoint
    every eval_every steps; every step moves w.  Returns the trajectory and a
    copy of w at each checkpoint."""
    import banditchain.trainer as trainer_mod

    model, train_data, dev_data = task
    script = iter(dev_losses)
    checkpoints = []
    monkeypatch.setattr(trainer_mod, "evaluate",
                        lambda model, w, data, loss: checkpoints.append(w.copy()) or next(script))
    cfg = TrainerConfig(objective="el", gamma=0.1, seed=0, eval_every=eval_every,
                        iterations=eval_every * (len(dev_losses) - 1) or 1)
    traj = train(cfg, model, train_data, dev_data, ConstantOracle(0.5))
    assert traj.dev_losses == list(dev_losses) and next(script, None) is None
    return traj, checkpoints


def test_select_best_single(tiny_task):
    model = tiny_task[0]
    weights = np.zeros(model.num_columns)
    weights[-1] = 0.5
    traj = Trajectory(TrainerConfig(objective="el", gamma=0.1, iterations=4), epoch_size=2,
                      model=model, dev_losses=[0.3], best=(0, 0.3, weights))
    t, w = select_best(traj)
    assert t == 0 and w == model.to_sorted(weights) and len(w) == 1


def test_select_best_argmin(tiny_task, monkeypatch):
    traj, checkpoints = scripted_run(monkeypatch, tiny_task, [0.4, 0.2, 0.3])
    t, w = select_best(traj)
    model = tiny_task[0]
    assert t == 1 and w == model.to_sorted(checkpoints[1]) and len(w) > 0
    assert w != model.to_sorted(checkpoints[2])  # the run moved on after it


def test_select_best_tie_goes_earliest(tiny_task, monkeypatch):
    traj, checkpoints = scripted_run(monkeypatch, tiny_task, [0.4, 0.2, 0.2, 0.3])
    t, w = select_best(traj)
    assert t == 1 and w == tiny_task[0].to_sorted(checkpoints[1])
    assert w != tiny_task[0].to_sorted(checkpoints[2])


@pytest.mark.parametrize("dev_losses", [
    [0.2, 0.2], [0.5, 0.3, 0.3, 0.1, 0.1], [math.nan, 0.2], [0.4, math.nan, 0.2],
    [0.3, 0.1, math.nan, 0.1], [math.nan, math.nan], [0.0, -0.0, 0.0],
])
def test_the_selected_checkpoint_is_the_first_lowest_loss(tiny_task, monkeypatch, dev_losses):
    # the running best is replaced only by a strictly lower loss: the pick of
    # min over (loss, index), NaN included
    traj, checkpoints = scripted_run(monkeypatch, tiny_task, dev_losses, eval_every=3)
    expected = min(range(len(dev_losses)), key=lambda i: (dev_losses[i], i))
    t, loss, w = traj.best
    assert t == 3 * expected and traj.dev_curve()[expected][0] == t
    assert loss.hex() == dev_losses[expected].hex()
    assert w.tobytes() == checkpoints[expected].tobytes()


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


def test_evaluate_checks_every_gold_before_decoding(ab_alphabet):
    model = ChainModel(ab_alphabet)
    data = [ChainInstance(tokens=("x", "y"), gold=("A", "B")) for _ in range(3)]
    data.append(ChainInstance(tokens=("z",)))
    with pytest.raises(ValueError, match="gold"):
        evaluate(model, SparseVector({feature_id("em0\x1fq\x1fA"): 1.0}), data,
                 FeedbackOracle("hamming").loss)
    # nothing was compiled or converted: the model holds its transitions alone
    assert model.num_columns == 4


def per_instance_mean(model, w, data, loss):
    """evaluate's value from one decode per instance, summed as a left fold."""
    from banditchain import map_decode_paths

    total = 0.0
    for x in data:
        (path,), _ = map_decode_paths(model, w, [x])
        total += loss(x.gold, tuple(model.alphabet.label(i) for i in path))
    return total / len(data)


def random_weights(model, data, seed, scale):
    for x in data:
        model.compile(x)
    return scale * np.random.default_rng(seed).standard_normal(model.num_columns)


@pytest.mark.parametrize("kind", ["hamming", "chunk-f1"])
def test_evaluate_scores_built_in_losses_without_label_tuples(kind, synthetic_task):
    from banditchain import loss_fn

    model, _, dev_data, test_data = synthetic_task
    data = dev_data + test_data
    for seed, scale in ((0, 0.3), (1, 3.0)):
        w = random_weights(model, data, seed, scale)
        expected = per_instance_mean(model, w, data, loss_fn(kind))
        for loss in (loss_fn(kind), FeedbackOracle(kind).loss):
            assert evaluate(model, w, data, loss).hex() == expected.hex()


def test_evaluate_rejects_any_other_loss_before_compiling(ab_alphabet):
    from banditchain import hamming_loss

    model = ChainModel(ab_alphabet)
    data = [ChainInstance(tokens=("x", "y"), gold=("A", "B"))]
    w = SparseVector({feature_id("em0\x1fq\x1fA"): 1.0})
    # a wrapper scores as Hamming does, but it is not hamming_loss itself
    for loss in (lambda gold, pred: 0.0, functools.partial(hamming_loss)):
        with pytest.raises(ValueError, match="hamming_loss or chunk_f1_loss"):
            evaluate(model, w, data, loss)
    assert model.num_columns == 4  # nothing was compiled or converted


def test_evaluate_rejects_a_gold_label_outside_the_labels_before_decoding(monkeypatch):
    import banditchain.trainer as trainer_mod
    from banditchain import chunk_f1_loss, hamming_loss

    model = ChainModel(LabelAlphabet(("O", "B-PER", "I-PER")))
    data = [ChainInstance(tokens=("x",), gold=("O",)),
            ChainInstance(tokens=("x", "y"), gold=("B-LOC", "O"))]
    monkeypatch.setattr(trainer_mod, "map_decode_paths", lambda *a: pytest.fail("decoded"))
    for loss in (hamming_loss, chunk_f1_loss, hamming_loss):  # again once the data is compiled
        with pytest.raises(ValueError, match="gold label 'B-LOC'"):
            evaluate(model, SparseVector(), data, loss)


@pytest.mark.parametrize("kind", ["hamming", "chunk-f1"])
def test_a_gold_label_outside_the_labels_is_rejected_alike_by_every_route(kind):
    from banditchain.chain import map_decode_paths

    labels = ("O", "B-PER", "I-PER")
    model = ChainModel(LabelAlphabet(labels))
    rng = np.random.default_rng(9)
    data = [ChainInstance(tokens=tuple(f"t{i}" for i in rng.integers(4, size=n)),
                          gold=tuple(rng.choice(labels + ("B-LOC", "I-LOC"), size=n).tolist()))
            for n in rng.integers(1, 7, size=12).tolist()]
    oracle = FeedbackOracle(kind)
    w = random_weights(model, data, 1, 2.0)
    paths, _ = map_decode_paths(model, w, data)
    messages = set()
    for score in (lambda: evaluate(model, w, data, oracle.loss),
                  lambda: oracle.check(data, labels),
                  lambda: oracle.feedback_paths(data, paths, labels)):
        with pytest.raises(ValueError, match="gold label") as caught:
            score()
        messages.add(str(caught.value))
    assert len(messages) == 1  # the first label outside, named alike by every route


def test_evaluate_switches_losses_on_one_compiled_dataset(synthetic_task, monkeypatch):
    from banditchain import chunk_alphabet, chunk_f1_loss, hamming_loss

    _, _, dev_data, _ = synthetic_task
    model = ChainModel(chunk_alphabet())  # its own model: no batch is cached yet
    w = random_weights(model, dev_data, 4, 1.0)
    expected = {loss: per_instance_mean(model, w, dev_data, loss)
                for loss in (hamming_loss, chunk_f1_loss)}
    compiled = []
    compile_one = model.compile
    monkeypatch.setattr(model, "compile", lambda x: compiled.append(x) or compile_one(x))
    for loss in (hamming_loss, chunk_f1_loss, hamming_loss):
        assert evaluate(model, w, dev_data, loss).hex() == expected[loss].hex()
    assert compiled == dev_data  # the padded batch was built once


@pytest.mark.parametrize("iterations", [5, 400])
def test_train_rejects_an_instance_without_gold_before_the_first_step(iterations, monkeypatch):
    import banditchain.trainer as trainer_mod
    from banditchain import chunk_alphabet, generate_chunk_instances

    data = generate_chunk_instances(20, np.random.default_rng(3))
    data[13] = ChainInstance(tokens=data[13].tokens)
    monkeypatch.setattr(trainer_mod, "evaluate", lambda *a: pytest.fail("dev set evaluated"))
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=iterations, seed=0)
    with pytest.raises(ValueError, match="no gold"):
        train(cfg, ChainModel(chunk_alphabet()), data, data[:3], FeedbackOracle("hamming"))


@pytest.mark.parametrize("kind", ["hamming", "chunk-f1"])
def test_train_rejects_a_gold_label_outside_the_labels_before_the_first_step(kind, monkeypatch):
    import banditchain.trainer as trainer_mod
    from banditchain import chunk_alphabet, generate_chunk_instances

    data = generate_chunk_instances(20, np.random.default_rng(3))
    data[13] = ChainInstance(tokens=data[13].tokens, gold=("B-LOC",) + data[13].gold[1:])
    monkeypatch.setattr(trainer_mod, "evaluate", lambda *a: pytest.fail("dev set evaluated"))
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=400, seed=0)
    with pytest.raises(ValueError, match="gold label 'B-LOC'"):
        train(cfg, ChainModel(chunk_alphabet()), data, data[:3], FeedbackOracle(kind))


def test_evaluate_sums_the_losses_as_a_left_fold(ab_model):
    from banditchain import hamming_loss

    # under zero weights every prediction is all-A, so instance i loses k_i / n_i
    rng = np.random.default_rng(7)
    data, losses = [], []
    for n in rng.integers(1, 14, size=30).tolist():
        k = int(rng.integers(0, n + 1))
        data.append(ChainInstance(tokens=tuple(f"t{i}" for i in range(n)),
                                  gold=("B",) * k + ("A",) * (n - k)))
        losses.append(k / n)
    left = 0.0
    for value in losses:
        left += value
    # the precondition: numpy's pairwise sum rounds these losses differently
    assert left / len(data) != float(np.sum(losses)) / len(data)
    assert evaluate(ab_model, SparseVector(), data, hamming_loss) == left / len(data)


def test_warm_start_checkpoint_zero_is_w0(tiny_task, monkeypatch):
    model, train_data, dev_data = tiny_task
    w0 = SparseVector({feature_id("em0\x1fu\x1fA"): 0.7})
    cfg = TrainerConfig(objective="el", gamma=0.1, iterations=4, seed=0, eval_every=4)
    checkpoints = record_evaluations(monkeypatch)
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"), w0=w0)
    assert traj.dev_curve()[0][0] == 0 and model.to_sorted(checkpoints[0]) == w0


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


# the same digest of a 300-step seed-0 run on typed_bio_task data (L = 9, emission
# offsets -1, 0 and 1) under the chunk-F1 loss: it pins the chunk-F1 feedback path
CHUNK_F1_GOLDEN_DIGESTS = {
    "el": "3581afae8fd001490a61714bb856cc8a3e97d78d4e45494206aec7420d23da1e",
    "pr-cont": "ccf4766e0602525792a8e53e0e1b533bdbafdc272c3b90519fd82fbdc95023b3",
}


@pytest.mark.parametrize("objective", sorted(CHUNK_F1_GOLDEN_DIGESTS))
def test_typed_chunk_f1_run_matches_golden_digest(objective):
    labels, data = typed_bio_task(260, np.random.default_rng(5))
    model = ChainModel(LabelAlphabet(labels), emission_offsets=(-1, 0, 1))
    cfg = TrainerConfig(objective=objective, gamma=0.1, iterations=300, seed=0, eval_every=100)
    traj = train(cfg, model, data[:200], data[200:], FeedbackOracle("chunk-f1"))
    assert trajectory_digest(traj) == CHUNK_F1_GOLDEN_DIGESTS[objective]


def neumaier_sum(values, start=0):
    """The builtin ``sum`` of floats as CPython 3.12 and later compute it:
    Neumaier's compensated sum, the compensation added at the end if finite."""
    total, comp = start, 0.0
    for value in values:
        step = total + value
        comp += (total - step) + value if abs(total) >= abs(value) else (value - step) + total
        total = step
    return total + comp if comp and math.isfinite(comp) else total


def compensated_builtin_sum(monkeypatch):
    """Give the modules whose sums a run pins CPython 3.12's ``sum``."""
    import banditchain.sparse as sparse_mod
    import banditchain.trainer as trainer_mod

    for module in (trainer_mod, sparse_mod):
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)


@pytest.mark.parametrize("objective", ["el", "pr-cont"])
def test_golden_runs_do_not_depend_on_the_builtin_sum(objective, synthetic_task, monkeypatch):
    compensated_builtin_sum(monkeypatch)
    # ||gamma * s_t||^2 and the dev losses are summed as left folds, whatever sum() does
    model, train_data, dev_data, _ = synthetic_task
    cfg = TrainerConfig(objective=objective, gamma=0.1, iterations=300, seed=0, eval_every=100)
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle("hamming"))
    assert trajectory_digest(traj) == GOLDEN_DIGESTS[objective]


def test_sparse_norm_and_dot_do_not_depend_on_the_builtin_sum(monkeypatch):
    compensated_builtin_sum(monkeypatch)
    rng = np.random.default_rng(11)
    a = SparseVector(dict(enumerate(rng.normal(size=400))))
    b = SparseVector(dict(enumerate(rng.normal(size=400), start=200)))
    squares, products = [v * v for _, v in a.items()], [v * b[f] for f, v in a.items() if f in b]
    fold = functools.partial(functools.reduce, float.__add__)
    # the precondition: a compensated sum rounds these differently
    assert neumaier_sum(squares) != fold(squares, 0.0)
    assert neumaier_sum(products) != fold(products, 0.0)
    assert a.norm_sq() == fold(squares, 0.0)
    assert a.dot(b) == b.dot(a) == fold(products, 0.0)


def typed_bio_task(count, rng, vocab=400):
    """Typed BIO sentences (L = 9) over a long-tailed vocabulary."""
    types = ("PER", "LOC", "ORG", "MISC")
    labels = ("O",) + tuple(f"{tag}-{t}" for t in types for tag in ("B", "I"))
    data = []
    for _ in range(count):
        tags, kind = [], None
        for _ in range(int(rng.integers(8, 16))):
            u = rng.random()
            if kind is not None and u < 0.45:
                tags.append(f"I-{kind}")
            elif u < 0.75:
                tags.append("O")
                kind = None
            else:
                kind = types[int(rng.integers(len(types)))]
                tags.append(f"B-{kind}")
        tokens = tuple(f"t{int(vocab * rng.random() ** 2)}" for _ in tags)
        data.append(ChainInstance(tokens=tokens, gold=tuple(tags)))
    return labels, data


def check_snapshot_rows(traj):
    """A weight row costs 8 B per nonzero plus its bitmap, one bit per column
    up to its last nonzero; a gradient row 16 B per nonzero."""
    def footprint(a):  # the bytes an array keeps alive
        while a.base is not None:
            a = a.base
        return a.nbytes

    for bits, values in traj.snapshot_weights:
        assert bits.ndim == values.ndim == 1
        assert bits.dtype == np.uint8 and values.dtype == np.float64
        cols = np.flatnonzero(np.unpackbits(bits))
        assert len(cols) == len(values) and np.all(values != 0.0)
        end = cols[-1] + 1 if len(cols) else 0
        assert footprint(bits) + footprint(values) == 8 * len(values) + -(-end // 8)
    for cols, values in traj.snapshot_grads + traj.epoch_grads:
        assert cols.ndim == values.ndim == 1 and len(cols) == len(values)
        assert cols.dtype == np.intp and values.dtype == np.float64
        assert footprint(cols) + footprint(values) == 16 * len(cols)
    # no field holds a dense (S, a) array
    assert not any(isinstance(v, np.ndarray) and v.ndim == 2 for v in vars(traj).values())


def test_snapshot_rows_cost_their_nonzeros():
    rng = np.random.default_rng(13)
    labels, data = typed_bio_task(300, rng)
    model = ChainModel(LabelAlphabet(labels), emission_offsets=(-1, 0, 1))
    cfg = TrainerConfig(objective="pr-cont", gamma=0.1, iterations=256, seed=1, epoch_size=32,
                        eval_every=256)
    traj = train(cfg, model, data[:250], data[250:], FeedbackOracle("chunk-f1"))
    assert len(traj.snapshot_weights) == len(traj.snapshot_grads) == 64
    assert len(traj.epoch_grads) == 8
    check_snapshot_rows(traj)
    # the rows hold far fewer entries than their union of columns
    rows = traj.snapshot_weights + traj.snapshot_grads + traj.epoch_grads
    held = np.zeros(model.num_columns, dtype=bool)
    for bits, _ in traj.snapshot_weights:
        held[np.flatnonzero(np.unpackbits(bits))] = True
    for cols, _ in traj.snapshot_grads + traj.epoch_grads:
        held[cols] = True
    assert sum(len(values) for _, values in rows) < 0.7 * len(rows) * held.sum()

    # a warm start holds every entry of w0 from step 0, at the same cost per entry
    w0 = traj.final_weights
    model = ChainModel(LabelAlphabet(labels), emission_offsets=(-1, 0, 1))
    warm = train(cfg, model, data[:250], data[250:], FeedbackOracle("chunk-f1"), w0=w0)
    assert all(len(values) >= len(w0) // 2 for _, values in warm.snapshot_weights)
    check_snapshot_rows(warm)


def test_a_snapshot_bitmap_ends_at_the_last_nonzero():
    import banditchain.trainer as trainer_mod

    rng = np.random.default_rng(4)
    rows = [np.zeros(0), np.zeros(20), np.eye(1, 9, 8)[0], np.eye(1, 9, 7)[0]]
    for size in (1, 7, 8, 9, 64, 1000):
        rows.append(np.zeros(size))
        rows[-1][rng.integers(0, size, 1 + size // 3)] = rng.normal(size=1 + size // 3)
    for w in rows:
        size = len(w)
        bits, values = trainer_mod._nonzero_row(w)
        # the same entries in a longer w (a run that compiled ahead) give the same row
        for pad in (1, 8, 100):
            longer = trainer_mod._nonzero_row(np.concatenate((w, np.zeros(pad))))
            assert longer[0].tobytes() == bits.tobytes()
            assert longer[1].tobytes() == values.tobytes()
        assert np.array_equal(np.flatnonzero(np.unpackbits(bits, count=size)), np.flatnonzero(w))
        assert values.tobytes() == w[w != 0.0].tobytes()
        assert len(bits) == 0 or bits[-1] != 0


# -- batched zero-feedback steps ------------------------------------------------------


def trajectory_bytes(traj, checkpoints):
    """Every array a run leaves, as bytes: the per-step records, the weights,
    the selected checkpoint, the snapshot and epoch rows, and the weights
    scored at each checkpoint."""
    rows = traj.snapshot_weights + traj.snapshot_grads + traj.epoch_grads
    t, loss, w = traj.best
    return {
        "dev_losses": np.array(traj.dev_losses).tobytes(),
        "scaled_norm_sq": traj.scaled_norm_sq.tobytes(),
        "sampled_losses": traj.sampled_losses.tobytes(),
        "weights": traj.weights.tobytes(),
        "best": (t, loss, w.tobytes()),
        "checkpoints": [w.tobytes() for w in checkpoints],
        "rows": [(cols.tobytes(), values.tobytes()) for cols, values in rows],
    }


def batched_run(monkeypatch, cap, objective, loss, task, warm_starts, after=2):
    """A 240-step run with at most cap steps per batch, batching after `after`
    zero-feedback steps in a row; returns the trajectory, the sizes of the
    batches drawn and the weights scored at each checkpoint.  EL starts from
    its warm start."""
    import banditchain.trainer as trainer_mod

    monkeypatch.setattr(trainer_mod, "_MAX_BATCH", cap)
    monkeypatch.setattr(trainer_mod, "_BATCH_AFTER", after)
    sizes = []
    draw = trainer_mod.draw_batch
    monkeypatch.setattr(trainer_mod, "draw_batch",
                        lambda model, w, data, *a, **kw: sizes.append(len(data)) or draw(
                            model, w, data, *a, **kw))
    model, train_data, dev_data = TASKS[task]()
    w0 = warm_starts[task, loss] if objective == "el" else None
    cfg = TrainerConfig(objective=objective, gamma=0.1, iterations=240, seed=3,
                        epoch_size=25, eval_every=30, snapshots=40)
    checkpoints = record_evaluations(monkeypatch)
    traj = train(cfg, model, train_data, dev_data, FeedbackOracle(loss), w0=w0)
    return traj, sizes, checkpoints


def chunk_task():
    from banditchain import chunk_alphabet, generate_chunk_instances

    rng = np.random.default_rng(11)
    return ChainModel(chunk_alphabet()), generate_chunk_instances(60, rng), \
        generate_chunk_instances(10, rng)


def typed_task():
    labels, data = typed_bio_task(90, np.random.default_rng(12))
    return ChainModel(LabelAlphabet(labels), emission_offsets=(-1, 0, 1)), data[:75], data[75:]


TASKS = {"chunk": chunk_task, "typed": typed_task}


@pytest.fixture(scope="session")
def warm_starts():
    """The final weights of a 500-step EL run per (task, loss) of the EL runs
    below, so that they draw zero-loss labelings often.  A session fixture is
    set up before a test patches the trainer, so no patch or spy sees these runs."""
    weights = {}
    for task, loss in (("chunk", "hamming"), ("chunk", "chunk-f1")):
        model, train_data, dev_data = TASKS[task]()
        cfg = TrainerConfig(objective="el", gamma=0.5, iterations=500, seed=1, eval_every=500)
        weights[task, loss] = train(cfg, model, train_data, dev_data,
                                    FeedbackOracle(loss)).final_weights
    return weights


@pytest.mark.parametrize("objective, loss, task", [
    ("pr-cont", "hamming", "chunk"), ("pr-bin", "hamming", "chunk"), ("el", "hamming", "chunk"),
    ("pr-cont", "chunk-f1", "typed"), ("pr-bin", "chunk-f1", "typed"),
    ("el", "chunk-f1", "chunk"),  # an EL run on the typed task never draws a zero loss
    ("ce", "chunk-f1", "typed"),  # without the shrink, a CE step with loss 1 leaves w as it was
])
def test_batched_run_equals_the_sequential_run_bytewise(monkeypatch, warm_starts, objective, loss,
                                                        task):
    sequential, sizes, sequential_checkpoints = batched_run(monkeypatch, 1, objective, loss, task,
                                                            warm_starts)
    assert sizes == [] and len(sequential_checkpoints) == 9
    expected = trajectory_bytes(sequential, sequential_checkpoints)
    for cap in (2, 7, 64):
        traj, sizes, checkpoints = batched_run(monkeypatch, cap, objective, loss, task,
                                               warm_starts)
        assert sizes and max(sizes) <= cap
        assert trajectory_bytes(traj, checkpoints) == expected
    if task == "typed":
        # a checkpoint holds the columns of the steps up to it, whatever was drawn ahead
        lengths = [len(w) for w in checkpoints]
        assert lengths == [len(w) for w in sequential_checkpoints]
        assert len(set(lengths)) > 2  # the model grows between checkpoints


@pytest.mark.parametrize("objective, loss, task", [
    ("el", "hamming", "chunk"), ("pr-cont", "hamming", "chunk"), ("ce", "chunk-f1", "typed"),
])
@pytest.mark.parametrize("cap", [1, 64])
def test_only_a_step_that_moves_w_builds_a_gradient(monkeypatch, warm_starts, objective, loss, task,
                                                    cap):
    import banditchain.trainer as trainer_mod

    values = []
    gradient = trainer_mod.stochastic_gradient
    monkeypatch.setattr(trainer_mod, "stochastic_gradient",
                        lambda *args: values.append(args[3]) or gradient(*args))
    traj, _, _ = batched_run(monkeypatch, cap, objective, loss, task, warm_starts)
    # each step's feedback is its loss; s_t scales with it, or with the gain 1 - loss for CE
    feedback = traj.sampled_losses[1:]
    scale = 1.0 - feedback if objective == "ce" else feedback
    assert 0 < len(values) == np.count_nonzero(scale) < traj.iterations
    assert values == feedback[scale != 0.0].tolist()


def test_batches_never_draw_past_a_checkpoint(monkeypatch):
    import banditchain.trainer as trainer_mod

    monkeypatch.setattr(trainer_mod, "_BATCH_AFTER", 1)
    drawn = []
    draw = trainer_mod.draw_batch
    monkeypatch.setattr(trainer_mod, "draw_batch",
                        lambda model, w, data, *a, **kw: drawn.append(len(data)) or draw(
                            model, w, data, *a, **kw))
    model, train_data, dev_data = chunk_task()
    cfg = TrainerConfig(objective="pr-cont", gamma=0.1, iterations=240, seed=3, eval_every=30)
    oracle, scored = HotOracle(hot=None), []
    monkeypatch.setattr(trainer_mod, "evaluate",
                        lambda *args: scored.append(oracle.scored) or evaluate(*args))
    traj = train(cfg, model, train_data, dev_data, oracle)
    # no step moves w, so the batches grow (1, 1, 2, 4, 8, then 14 to t = 30)
    # and then take one stretch between checkpoints each
    assert drawn == [2, 4, 8, 14] + [30] * 7
    # and each checkpoint comes after the steps up to it are scored, no more
    assert scored == [t for t, _ in traj.dev_curve()] == list(range(0, 241, 30))


class HotOracle(FeedbackOracle):
    """Loss 1 for one instance and 0 for every other; no gold, no feedback."""

    def __init__(self, hot):
        super().__init__("hamming")
        self.hot = hot
        self.scored = 0  # instances scored so far

    def check(self, instances, labels) -> None:  # it finds a missing gold when it scores
        pass

    def feedback_paths(self, instances, paths, labels, mode=None):
        if any(x.gold is None for x in instances):
            raise ValueError("instance has no gold labeling")
        self.scored += len(instances)
        return [1.0 if x is self.hot else 0.0 for x in instances]


@pytest.mark.parametrize("objective", ["el", "pr-bin"])
@pytest.mark.parametrize("blind", [False, True])
def test_an_error_in_a_batch_is_raised_by_its_own_step(monkeypatch, objective, blind):
    import banditchain.trainer as trainer_mod
    from banditchain import chunk_alphabet, generate_chunk_instances

    rng = np.random.default_rng(5)
    data = generate_chunk_instances(40, rng)
    hot = max(data, key=len)  # gamma^2 * ||s||^2 overflows at its first draw
    if blind:  # and an instance without gold that some step draws before it
        data[7] = ChainInstance(tokens=data[7].tokens)
    outcomes = []
    for cap in (1, 64):
        monkeypatch.setattr(trainer_mod, "_MAX_BATCH", cap)
        monkeypatch.setattr(trainer_mod, "_BATCH_AFTER", 1)
        cfg = TrainerConfig(objective=objective, gamma=1e154, iterations=400, seed=0,
                            eval_every=400)
        with pytest.raises((FloatingPointError, ValueError)) as raised:
            train(cfg, ChainModel(chunk_alphabet()), data, data[:3], HotOracle(hot))
        outcomes.append((raised.type, str(raised.value)))
    assert outcomes[0] == outcomes[1]
    if not blind:
        assert re.match(r"training diverged at step (\d+): \|\|gamma\*s_t\|\|\^2 = inf",
                        outcomes[0][1])
        assert int(re.search(r"step (\d+)", outcomes[0][1])[1]) > 10
