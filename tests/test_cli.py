import json

import numpy as np
import pytest

import banditchain.cli as cli
from banditchain import generate_chunk_instances, read_report, write_dataset
from banditchain.checks import CheckReport, CheckResult


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(8)
    write_dataset(tmp_path / "train.tsv", generate_chunk_instances(16, rng))
    write_dataset(tmp_path / "dev.tsv", generate_chunk_instances(6, rng))
    write_dataset(tmp_path / "test.tsv", generate_chunk_instances(6, rng))
    config = {
        "labels": ["O", "B", "I"],
        "train_path": "train.tsv",
        "dev_path": "dev.tsv",
        "test_path": "test.tsv",
        "gamma": 0.2,
        "iterations": 40,
        "eval_every": 20,
        "epoch_size": 10,
        "snapshots": 4,
        "lipschitz_pairs": 10,
        "report_path": str(tmp_path / "report.json"),
        "checkpoint_path": str(tmp_path / "model.ckpt"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, cfg_path


def test_train_command(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "report written to" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "model.ckpt").exists()


def test_train_flag_overrides_config(workdir):
    tmp_path, cfg_path = workdir
    assert (
        cli.main(
            ["train", "--config", str(cfg_path), "--gamma", "0.05", "--seed", "9",
             "--objective", "pr-cont"]
        )
        == 0
    )
    report = read_report(tmp_path / "report.json")
    assert report["config"]["gamma"] == 0.05
    assert report["config"]["seed"] == 9
    assert report["summary"]["objective"] == "pr-cont"


def test_eval_command(workdir, capsys):
    tmp_path, cfg_path = workdir
    cli.main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    code = cli.main(
        [
            "eval",
            "--config", str(cfg_path),
            "--checkpoint", str(tmp_path / "model.ckpt"),
            "--data", str(tmp_path / "test.tsv"),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances"] == 6
    assert 0.0 <= payload["mean_loss"] <= 1.0


def test_sample_command(workdir, capsys):
    tmp_path, cfg_path = workdir
    cli.main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    code = cli.main(
        [
            "sample",
            "--config", str(cfg_path),
            "--checkpoint", str(tmp_path / "model.ckpt"),
            "--data", str(tmp_path / "dev.tsv"),
            "--draws", "2",
            "--seed", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 12  # 6 instances x 2 draws
    token, label = blocks[0].splitlines()[0].split("\t")
    assert label in ("O", "B", "I")


def test_diagnose_command(workdir, capsys, tmp_path):
    _, cfg_path = workdir
    for name, objective in (("a", "el"), ("b", "ce")):
        cli.main(
            [
                "train", "--config", str(cfg_path),
                "--objective", objective,
                "--report", str(tmp_path / f"{name}.json"),
                "--checkpoint", str(tmp_path / f"{name}.ckpt"),
            ]
        )
    capsys.readouterr()
    out_file = tmp_path / "summary.json"
    code = cli.main(
        ["diagnose", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--out", str(out_file)]
    )
    assert code == 0
    summary = json.loads(out_file.read_text())
    assert "variance_est" in summary["rankings"]


def test_oracle_check_command(capsys):
    code = cli.main(["oracle-check", "--fixtures", "3", "--weights", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all properties hold" in out
    assert out.count("PASS") >= 10


def test_oracle_check_reports_ce_skip_under_clipping(capsys):
    code = cli.main(
        ["oracle-check", "--fixtures", "2", "--weights", "2", "--clip-k", "0.01"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "SKIP  unbiasedness-ce" in out
    assert "biases the estimate by design" in out


def test_oracle_check_failure_exit_code(monkeypatch, capsys):
    failing = CheckReport(
        results=[CheckResult("rigged", "fail", 1.0, 0.0)]
    )
    monkeypatch.setattr(cli, "run_property_checks", lambda **kw: failing)
    assert cli.main(["oracle-check"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    assert cli.main(["train"]) == 1  # missing required --config
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_data_error_exit_code(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "not found" in err


def test_eval_bad_dataset_exit_code(workdir, tmp_path, capsys):
    _, cfg_path = workdir
    cli.main(["train", "--config", str(cfg_path)])
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-token-no-tab\n", encoding="utf-8")
    code = cli.main(
        [
            "eval",
            "--config", str(cfg_path),
            "--checkpoint", str(tmp_path / "model.ckpt"),
            "--data", str(bad),
        ]
    )
    assert code == 2


def test_underflowed_ce_weight_is_a_data_error(workdir, capsys):
    # at this rate the weights reach ~1e150 and p_w(y~|x) underflows to 0
    tmp_path, cfg_path = workdir
    code = cli.main(["train", "--config", str(cfg_path), "--objective", "ce",
                     "--gamma", "1e150", "--clip-k", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "underflowed" in err and "clip_k > 0" in err


@pytest.mark.parametrize("edit, epoch", [
    ({"iterations": 15}, 10),  # epoch_size in the config: rejected at load
    ({"iterations": 25, "epoch_size": None}, 16),  # default: the 16 training instances
])
def test_too_few_epochs_fail_before_training(workdir, capsys, edit, epoch):
    tmp_path, cfg_path = workdir
    config = json.loads(cfg_path.read_text())
    config.update(edit)
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert f"2 x epoch_size ({epoch})" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()
