import json
import re

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


def test_sample_command_draws_from_one_lattice_per_instance(workdir, capsys, monkeypatch):
    import banditchain.chain as chain_mod
    from banditchain import load_config, read_checkpoint, read_dataset, sample

    tmp_path, cfg_path = workdir
    cli.main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    model = load_config(cfg_path).model()
    w = read_checkpoint(tmp_path / "model.ckpt")
    data = read_dataset(tmp_path / "dev.tsv", model.alphabet)
    rng = np.random.default_rng(1)
    blocks = [
        "".join(f"{tok}\t{lab}\n" for tok, lab in zip(x.tokens, sample(model, w, x, rng)))
        for x in data
        for _ in range(3)
    ]
    builds = []
    build = chain_mod.build_lattice
    monkeypatch.setattr(chain_mod, "build_lattice", lambda *a: builds.append(1) or build(*a))
    code = cli.main(
        [
            "sample",
            "--config", str(cfg_path),
            "--checkpoint", str(tmp_path / "model.ckpt"),
            "--data", str(tmp_path / "dev.tsv"),
            "--draws", "3",
            "--seed", "1",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "\n".join(blocks)
    assert len(builds) == len(data)


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


@pytest.mark.parametrize("flag", ["--report", "--checkpoint"])
def test_missing_output_directory_fails_before_training(workdir, capsys, flag):
    tmp_path, cfg_path = workdir
    missing = tmp_path / "missing"
    assert cli.main(["train", "--config", str(cfg_path), flag, str(missing / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory not found") and str(missing) in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("flag", ["--report", "--checkpoint"])
def test_output_path_that_is_a_directory_fails_before_training(workdir, capsys, flag):
    tmp_path, cfg_path = workdir
    out_dir = tmp_path / "outdir"
    out_dir.mkdir()
    assert cli.main(["train", "--config", str(cfg_path), flag, str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output path is a directory") and str(out_dir) in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()
    assert list(out_dir.iterdir()) == []


def test_diverged_training_is_a_numeric_failure(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert cli.main(["train", "--config", str(cfg_path), "--gamma", "1e300"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step 1:")
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error: line comes alone
@pytest.mark.parametrize("objective", ["el", "pr-cont"])
def test_overflowed_marginals_are_a_numeric_failure_at_a_named_step(workdir, capsys, objective):
    # at this rate |w| reaches ~1e20 within a few steps, and alpha + beta - log Z
    # overflows in exp before ||gamma*s_t||^2 is ever formed
    tmp_path, cfg_path = workdir
    code = cli.main(["train", "--config", str(cfg_path), "--objective", objective,
                     "--gamma", "1e20"])
    assert code == 3
    err = capsys.readouterr().err
    assert re.match(r"error: training diverged at step \d+: non-finite marginal .* "
                    r"with gamma=1e\+20$", err.strip())
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()


def test_diagnose_non_object_convergence_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "convergence": []}), encoding="utf-8")
    assert cli.main(["diagnose", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'convergence' must be a JSON object" in err


def test_diagnose_non_object_report_is_a_data_error(tmp_path, capsys):
    listing = tmp_path / "list.json"
    listing.write_text("[]", encoding="utf-8")
    assert cli.main(["diagnose", str(listing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "report must be a JSON object" in err


def test_diagnose_to_missing_directory_is_a_data_error(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    code = cli.main(["diagnose", str(tmp_path / "report.json"),
                     "--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
