import json

import numpy as np
import pytest

from banditchain import (
    ChainInstance,
    DataError,
    LabelAlphabet,
    SparseVector,
    chunk_alphabet,
    compare_report_files,
    generate_chunk_instances,
    load_config,
    read_checkpoint,
    read_dataset,
    read_report,
    run_train,
    write_checkpoint,
    write_dataset,
    write_report,
)
from banditchain.dataio import RunConfig


@pytest.fixture
def bio_alphabet():
    return chunk_alphabet()


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# -- datasets -----------------------------------------------------------------


def test_read_two_blocks(tmp_path, bio_alphabet):
    p = write_text(tmp_path / "d.tsv", "a\tO\nb\tB\n\nc\tI\n")
    data = read_dataset(p, bio_alphabet)
    assert len(data) == 2
    assert data[0].tokens == ("a", "b") and data[0].gold == ("O", "B")
    assert data[1].tokens == ("c",)


def test_trailing_blank_lines_ignored(tmp_path, bio_alphabet):
    p = write_text(tmp_path / "d.tsv", "a\tO\n\n\n\n")
    data = read_dataset(p, bio_alphabet)
    assert len(data) == 1


def test_malformed_line_reports_line_number(tmp_path, bio_alphabet):
    p = write_text(tmp_path / "d.tsv", "a\tO\nbroken line\n")
    with pytest.raises(DataError, match=r"d\.tsv:2"):
        read_dataset(p, bio_alphabet)


def test_unknown_label_rejected(tmp_path, bio_alphabet):
    p = write_text(tmp_path / "d.tsv", "a\tQ\n")
    with pytest.raises(DataError, match="label 'Q'"):
        read_dataset(p, bio_alphabet)


def test_empty_file_rejected(tmp_path, bio_alphabet):
    p = write_text(tmp_path / "d.tsv", "\n\n")
    with pytest.raises(DataError, match="no instances"):
        read_dataset(p, bio_alphabet)


def test_missing_file(tmp_path, bio_alphabet):
    with pytest.raises(DataError, match="not found"):
        read_dataset(tmp_path / "nope.tsv", bio_alphabet)


def test_dataset_round_trip(tmp_path, bio_alphabet):
    rng = np.random.default_rng(0)
    original = generate_chunk_instances(20, rng)
    p = tmp_path / "round.tsv"
    write_dataset(p, original)
    assert read_dataset(p, bio_alphabet) == original


def test_typed_bio_labels_round_trip(tmp_path):
    alphabet = LabelAlphabet(("O", "B-NP", "I-NP", "B-VP", "I-VP"))
    data = [
        ChainInstance(
            tokens=("He", "reckons", "the", "deficit"),
            gold=("B-NP", "B-VP", "B-NP", "I-NP"),
        )
    ]
    p = tmp_path / "chunks.tsv"
    write_dataset(p, data)
    assert read_dataset(p, alphabet) == data


# -- checkpoints ---------------------------------------------------------------


@pytest.fixture
def weights():
    rng = np.random.default_rng(5)
    return SparseVector({int(f): float(v) for f, v in
                         zip(rng.integers(0, 2**62, size=50), rng.normal(0, 3, 50))})


def test_binary_checkpoint_round_trip_byte_identical(tmp_path, weights):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    write_checkpoint(p1, weights)
    restored = read_checkpoint(p1)
    assert restored == weights
    write_checkpoint(p2, restored)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = write_text(tmp_path / "x.ckpt", "not a checkpoint\n")
    with pytest.raises(DataError, match="not a recognized"):
        read_checkpoint(p)


def test_checkpoint_rejects_truncation(tmp_path, weights):
    p = tmp_path / "trunc.ckpt"
    write_checkpoint(p, weights)
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(DataError, match="truncated"):
        read_checkpoint(p)


def test_checkpoint_bytes_equal_a_per_entry_struct_writer(tmp_path):
    import struct

    # typed-wide size: about 60k entries over 63-bit ids
    rng = np.random.default_rng(8)
    w = SparseVector({int(f): float(v) for f, v in
                      zip(rng.integers(0, 2**63, size=60_000), rng.normal(0, 3, 60_000))})
    reference = bytearray(b"BCWT" + struct.pack("<HQ", 1, len(w)))
    for fid, value in sorted(w.items()):
        reference += struct.pack("<qd", fid, value)
    path = tmp_path / "w.ckpt"
    write_checkpoint(path, w)
    assert path.read_bytes() == bytes(reference)
    assert read_checkpoint(path) == w


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_checkpoint_rejects_non_finite_values(tmp_path, value):
    import struct

    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"BCWT" + struct.pack("<HQ", 1, 2) + struct.pack("<qd", 3, 1.0)
                     + struct.pack("<qd", 7, value))
    with pytest.raises(DataError, match="non-finite value .* for feature 7"):
        read_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path, weights):
    path = tmp_path / "v2.ckpt"
    write_checkpoint(path, weights)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (2).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="unsupported checkpoint version 2"):
        read_checkpoint(path)


# -- config ---------------------------------------------------------------------


def minimal_config(tmp_path, **extra):
    rng = np.random.default_rng(1)
    write_dataset(tmp_path / "train.tsv", generate_chunk_instances(8, rng))
    write_dataset(tmp_path / "dev.tsv", generate_chunk_instances(4, rng))
    cfg = {
        "labels": ["O", "B", "I"],
        "train_path": "train.tsv",
        "dev_path": "dev.tsv",
        "iterations": 12,
        "eval_every": 6,
        "epoch_size": 4,
        "gamma": 0.2,
        "report_path": "report.json",
        "checkpoint_path": "model.ckpt",
        "lipschitz_pairs": 50,
        "snapshots": 4,
    }
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_config_unknown_key_rejected(tmp_path):
    path = minimal_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["learning_rate"] = 0.5
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="unknown config keys.*learning_rate"):
        load_config(path)


def test_config_paths_resolve_against_config_dir(tmp_path):
    cfg = load_config(minimal_config(tmp_path))
    assert cfg.train_path == str((tmp_path / "train.tsv").resolve())


def test_config_precedence_flag_beats_file_beats_default(tmp_path):
    path = minimal_config(tmp_path, gamma=0.2)  # file layer
    assert RunConfig().gamma == 0.1  # default layer
    cfg = load_config(path)
    assert cfg.gamma == 0.2
    cfg = load_config(path, overrides={"gamma": 0.7})  # flag layer
    assert cfg.gamma == 0.7
    # untouched keys keep defaults
    assert cfg.objective == "el" and cfg.clip_k == 0.0


def test_config_override_none_is_ignored(tmp_path):
    cfg = load_config(minimal_config(tmp_path), overrides={"gamma": None})
    assert cfg.gamma == 0.2


def test_config_validation_errors(tmp_path):
    with pytest.raises(DataError, match="labels"):
        load_config(minimal_config(tmp_path, labels=["O"]))
    with pytest.raises(DataError):
        load_config(minimal_config(tmp_path, objective="newton"))
    with pytest.raises(DataError, match="invalid JSON"):
        load_config(write_text(tmp_path / "bad.json", "{"))


def test_chunk_f1_needs_bio_labels_at_load(tmp_path):
    path = minimal_config(tmp_path, labels=["X", "Y"], loss="chunk-f1")
    with pytest.raises(DataError, match="label 'X' is not a BIO tag"):
        load_config(path)
    # the same alphabet is fine under Hamming loss
    assert load_config(minimal_config(tmp_path, labels=["X", "Y"])).labels == ("X", "Y")


# -- reports ------------------------------------------------------------------------


def test_report_round_trip(tmp_path):
    report = {"schema_version": 1, "summary": {"best_dev_loss": 0.25}}
    p = tmp_path / "r.json"
    write_report(p, report)
    assert read_report(p) == report


def test_report_schema_version_enforced(tmp_path):
    p = tmp_path / "r.json"
    write_report(p, {"schema_version": 99})
    with pytest.raises(DataError, match="schema version"):
        read_report(p)


# -- end to end run ----------------------------------------------------------------


def run_config(tmp_path, **extra):
    rng = np.random.default_rng(2)
    write_dataset(tmp_path / "train.tsv", generate_chunk_instances(20, rng))
    write_dataset(tmp_path / "dev.tsv", generate_chunk_instances(8, rng))
    write_dataset(tmp_path / "test.tsv", generate_chunk_instances(8, rng))
    raw = {
        "labels": ["O", "B", "I"],
        "train_path": "train.tsv",
        "dev_path": "dev.tsv",
        "test_path": "test.tsv",
        "objective": "el",
        "gamma": 0.2,
        "iterations": 200,
        "eval_every": 50,
        "epoch_size": 20,
        "seed": 3,
        "snapshots": 5,
        "lipschitz_pairs": 20,
        "report_path": "report.json",
        "checkpoint_path": "model.ckpt",
    }
    raw.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def strip_timestamp(report):
    return {k: v for k, v in report.items() if k != "created_at"}


def test_run_train_writes_artifacts_and_is_consistent(tmp_path):
    cfg = load_config(run_config(tmp_path))
    report = run_train(cfg)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "model.ckpt").exists()
    on_disk = read_report(tmp_path / "report.json")
    assert strip_timestamp(on_disk) == strip_timestamp(report)
    # the reported best iteration is the argmin of the reported curve
    curve = report["dev_curve"]
    best_t, best_loss = min(curve, key=lambda tl: (tl[1], tl[0]))
    assert report["summary"]["iterations_to_best"] == best_t
    assert report["summary"]["best_dev_loss"] == best_loss
    assert report["summary"]["test_loss"] is not None
    # the persisted checkpoint reproduces the reported dev loss
    from banditchain import FeedbackOracle, evaluate

    w = read_checkpoint(tmp_path / "model.ckpt")
    model = cfg.model()
    dev = read_dataset(cfg.dev_path, model.alphabet)
    assert evaluate(model, w, dev, FeedbackOracle(cfg.loss).loss) == pytest.approx(best_loss)


def test_run_train_deterministic_modulo_timestamp(tmp_path):
    cfg = load_config(run_config(tmp_path))
    a = run_train(cfg)
    b = run_train(cfg)
    assert strip_timestamp(a) == strip_timestamp(b)
    assert json.dumps(strip_timestamp(a), sort_keys=True) == json.dumps(
        strip_timestamp(b), sort_keys=True
    )


def test_failed_report_write_leaves_no_artifact(tmp_path, monkeypatch):
    import banditchain.dataio as dataio

    cfg = load_config(run_config(tmp_path))
    checkpoints = []

    def fail_after_checkpoint(path, report):
        (ckpt_path,) = checkpoints
        checkpoints.append(ckpt_path.read_bytes())  # written, not yet in place
        raise OSError("disk full")

    monkeypatch.setattr(dataio, "write_checkpoint",
                        lambda path, w: checkpoints.append(path) or write_checkpoint(path, w))
    monkeypatch.setattr(dataio, "write_report", fail_after_checkpoint)
    with pytest.raises(OSError, match="disk full"):
        run_train(cfg)
    left = {p.name for p in tmp_path.iterdir()}
    assert {"report.json", "model.ckpt"}.isdisjoint(left)
    assert not [name for name in left if name.endswith(".tmp")]
    # rerun with working writers: the checkpoint is the same bytes, moved into place
    monkeypatch.undo()
    run_train(cfg)
    assert (tmp_path / "model.ckpt").read_bytes() == checkpoints[1]
    assert {p.name for p in tmp_path.iterdir()} == left | {"report.json", "model.ckpt"}


def test_compare_report_files_three_seed_pr_vs_ce(tmp_path):
    paths = []
    for objective in ("pr-cont", "ce"):
        for seed in (0, 1, 2):
            name = f"{objective}-{seed}"
            cfg = load_config(
                run_config(
                    tmp_path,
                    objective=objective,
                    seed=seed,
                    iterations=100,
                    eval_every=100,
                    report_path=f"{name}.json",
                    checkpoint_path=f"{name}.ckpt",
                )
            )
            run_train(cfg)
            paths.append(tmp_path / f"{name}.json")
    summary = compare_report_files(paths)
    assert set(summary["rankings"]) == {"grad_norm_sq_at_T", "lipschitz_est", "variance_est"}
    assert len(summary["rankings"]["variance_est"]) == 6
    assert "pr<ce" in summary["variance_ordering"]
