import json
import re

import numpy as np
import pytest

import banditchain.cli as cli
import banditchain.dataio as dataio
from banditchain import generate_chunk_instances, read_report, write_dataset, write_report
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


def test_default_outputs_land_beside_the_config(workdir, monkeypatch, capsys):
    tmp_path, cfg_path = workdir
    config = json.loads(cfg_path.read_text())
    del config["report_path"], config["checkpoint_path"]
    cfg_path.write_text(json.dumps(config))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "report.json").exists() and (tmp_path / "model.ckpt").exists()
    assert list(elsewhere.iterdir()) == []
    report = read_report(tmp_path / "report.json")
    assert report["config"]["report_path"] == str((tmp_path / "report.json").resolve())
    # a flag still resolves against the current directory
    assert cli.main(["train", "--config", str(cfg_path), "--report", "flag.json"]) == 0
    assert sorted(p.name for p in elsewhere.iterdir()) == ["flag.json"]
    capsys.readouterr()
    # a default that names the config itself is rejected, as a file value is
    for output, name in (("report_path", "report.json"), ("checkpoint_path", "model.ckpt")):
        named = tmp_path / "own" / name
        named.parent.mkdir(exist_ok=True)
        named.write_text(json.dumps({**config, "train_path": "../train.tsv",
                                     "dev_path": "../dev.tsv", "test_path": "../test.tsv"}))
        before = named.read_bytes()
        assert cli.main(["train", "--config", str(named)]) == cli.DATA_ERROR
        assert capsys.readouterr().err.startswith(
            f"error: {output} would overwrite the run's config: ")
        assert named.read_bytes() == before


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


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--fixtures", "--weights"])
def test_oracle_check_without_cases_is_a_usage_error(flag, value, capsys):
    assert cli.main(["oracle-check", flag, value]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"argument {flag}: must be at least 1" in captured.err


@pytest.mark.parametrize("value", ["1.5", "inf", "-0.5", "nan"])
def test_oracle_check_clip_k_outside_the_unit_interval_is_a_usage_error(value, capsys):
    code = cli.main(["oracle-check", "--fixtures", "1", "--weights", "1", "--clip-k", value])
    assert code == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert (f"argument --clip-k: clipping constant must be in [0, 1), got {float(value)}"
            in captured.err)


@pytest.mark.parametrize("command", ["sample", "oracle-check"])
def test_negative_seed_flag_is_a_usage_error(workdir, capsys, command):
    tmp_path, cfg_path = workdir
    extra = {"sample": ["--config", str(cfg_path), "--checkpoint", str(tmp_path / "model.ckpt"),
                        "--data", str(tmp_path / "dev.tsv")],
             "oracle-check": []}[command]
    assert cli.main([command, *extra, "--seed", "-1"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be at least 0, got -1" in captured.err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_is_a_data_error_before_any_dataset_is_read(workdir, capsys, monkeypatch,
                                                                  where):
    tmp_path, cfg_path = workdir
    if where == "config":
        config = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**config, "seed": -1}))
    from banditchain import dataio

    reads = []
    monkeypatch.setattr(dataio, "read_dataset", lambda *a: reads.append(a))
    flags = ["--seed", "-1"] if where == "flag" else []
    assert cli.main(["train", "--config", str(cfg_path), *flags]) == cli.DATA_ERROR
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert reads == []
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()


def test_too_large_an_iteration_budget_is_a_data_error(workdir, capsys):
    tmp_path, cfg_path = workdir
    config = json.loads(cfg_path.read_text())
    # far past any memory: the per-step records fail to allocate, nothing is touched
    cfg_path.write_text(json.dumps({**config, "iterations": 10**15}))
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.DATA_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: iteration budget {10**15} is too large")
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("offsets", [[], [0, 0], [-1, 0, 1, -1]])
def test_empty_or_repeated_emission_offsets_are_a_data_error(workdir, capsys, monkeypatch,
                                                             offsets):
    tmp_path, cfg_path = workdir
    config = json.loads(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**config, "emission_offsets": offsets}))
    from banditchain import dataio

    reads = []
    monkeypatch.setattr(dataio, "read_dataset", lambda *a: reads.append(a))
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.DATA_ERROR
    assert capsys.readouterr().err == (
        f"error: emission_offsets must be a nonempty list of distinct integers, got {offsets}\n")
    assert reads == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("draws", ["0", "-2"])
def test_sample_draws_below_one_is_a_usage_error(workdir, capsys, draws):
    tmp_path, cfg_path = workdir
    code = cli.main(["sample", "--config", str(cfg_path), "--checkpoint",
                     str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "dev.tsv"),
                     "--draws", draws])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --draws: must be at least 1" in captured.err


@pytest.mark.parametrize("flag", ["--gamma", "--clip-k", "--lambda"])
def test_non_finite_flag_is_a_data_error_before_training(workdir, capsys, flag):
    tmp_path, cfg_path = workdir
    code = cli.main(["train", "--config", str(cfg_path), "--objective", "ce", flag, "nan"])
    assert code == 2
    assert "must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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


def test_underflowed_ce_weight_is_a_numeric_failure(workdir, capsys):
    # at this rate the weights reach ~1e150 and p_w(y~|x) underflows to 0
    tmp_path, cfg_path = workdir
    code = cli.main(["train", "--config", str(cfg_path), "--objective", "ce",
                     "--gamma", "1e150", "--clip-k", "0"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step ")
    assert "underflowed" in err and "clip_k > 0" in err and "gamma=1e+150" in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()


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


def test_eval_cadence_beyond_the_run_fails_before_training(workdir, capsys):
    tmp_path, cfg_path = workdir
    code = cli.main(["train", "--config", str(cfg_path), "--iterations", "30",
                     "--eval-every", "31"])
    assert code == cli.DATA_ERROR
    assert capsys.readouterr().err.startswith("error: eval cadence 31 exceeds the 30 iterations")
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


def test_shared_report_and_checkpoint_path_fails_before_any_dataset_is_read(workdir, capsys):
    tmp_path, cfg_path = workdir
    config = json.loads(cfg_path.read_text())
    # a missing training set: had any dataset been read, its error would come first
    cfg_path.write_text(json.dumps({**config, "train_path": "missing.tsv"}))
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(cfg_path), "--report", str(out),
                     "--checkpoint", str(tmp_path / "." / "out")])
    assert code == cli.DATA_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "report_path" in err and "checkpoint_path" in err
    assert list(tmp_path.glob("*out*")) == []


@pytest.mark.parametrize("dataset", ["train.tsv", "dev.tsv", "test.tsv"])
@pytest.mark.parametrize("flag, field", [("--report", "report_path"),
                                         ("--checkpoint", "checkpoint_path")])
def test_output_path_onto_a_dataset_fails_and_leaves_it_as_it_was(workdir, capsys, flag, field,
                                                                   dataset):
    tmp_path, cfg_path = workdir
    before = (tmp_path / dataset).read_bytes()
    # spelled differently from the config's path: the check compares resolved paths
    code = cli.main(["train", "--config", str(cfg_path), flag, str(tmp_path / "." / dataset)])
    assert code == cli.DATA_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} would overwrite the run's {dataset[:-4]}_path")
    assert (tmp_path / dataset).read_bytes() == before
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "model.ckpt").exists()


def test_checkpoint_path_may_be_the_init_checkpoint(workdir):
    tmp_path, cfg_path = workdir
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    config = json.loads(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**config, "init_checkpoint": str(tmp_path / "model.ckpt")}))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0


def test_report_path_onto_the_init_checkpoint_fails_before_any_dataset_is_read(workdir, capsys,
                                                                              monkeypatch):
    tmp_path, cfg_path = workdir
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    init = tmp_path / "model.ckpt"
    before = init.read_bytes()
    config = json.loads(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**config, "init_checkpoint": str(init)}))
    monkeypatch.setattr(dataio, "read_dataset", lambda *a: pytest.fail("a dataset was read"))
    capsys.readouterr()
    # spelled differently from the config's path: the check compares resolved paths
    code = cli.main(["train", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "new.ckpt"),
                     "--report", str(tmp_path / "." / "model.ckpt")])
    assert code == cli.DATA_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: report_path would overwrite the run's init_checkpoint: {init}\n"
    assert init.read_bytes() == before
    assert not (tmp_path / "new.ckpt").exists()
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


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


@pytest.mark.parametrize("which", [0, 1])
def test_diagnose_out_onto_a_report_it_reads_fails_and_leaves_it_as_it_was(workdir, capsys,
                                                                           which):
    import hashlib

    tmp_path, cfg_path = workdir
    reports = [tmp_path / "a.json", tmp_path / "b.json"]
    for report, objective in zip(reports, ("el", "ce")):
        assert cli.main(["train", "--config", str(cfg_path), "--objective", objective, "--report",
                         str(report), "--checkpoint", str(report.with_suffix(".ckpt"))]) == 0
    digests = [hashlib.sha256(report.read_bytes()).hexdigest() for report in reports]
    capsys.readouterr()
    # spelled differently from the report's path: the check compares resolved paths
    out = tmp_path / "." / reports[which].name
    code = cli.main(["diagnose", *map(str, reports), "--out", str(out)])
    assert code == cli.DATA_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out would overwrite a report it reads: {reports[which]}\n"
    assert [hashlib.sha256(report.read_bytes()).hexdigest() for report in reports] == digests
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def test_diagnose_non_object_convergence_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "convergence": []}), encoding="utf-8")
    assert cli.main(["diagnose", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'convergence' must be a JSON object" in err


@pytest.mark.parametrize("key, value", [
    ("grad_norm_sq_at_T", "oops"),  # a number field: no string
    ("lipschitz_est", "0.5"),  # a number-or-null field
    ("objective", 3),  # a string field
    ("T", 100.0),  # an integer field: no float
    ("seed", True),  # and no bool
])
def test_diagnose_field_of_the_wrong_json_type_is_a_data_error(tmp_path, capsys, key, value):
    from banditchain import ConvergenceReport
    from banditchain.dataio import REPORT_SCHEMA_VERSION

    good = ConvergenceReport(grad_norm_sq_at_T=0.5, lipschitz_est=1.0, variance_est=0.25,
                             T=100, D=10, K=10, seed=0, objective="el", gamma=0.1)
    paths = [tmp_path / "good.json", tmp_path / "bad.json"]
    for path, convergence in zip(paths, (good.to_dict(), {**good.to_dict(), key: value})):
        write_report(path, {"schema_version": REPORT_SCHEMA_VERSION, "convergence": convergence})
    assert cli.main(["diagnose", *map(str, paths)]) == cli.DATA_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[1]}: convergence key {key!r} must be ")
    assert err.endswith(f", got {value!r}\n")


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


def test_diagnose_write_failing_midway_leaves_the_out_file_as_it_was(workdir, capsys,
                                                                     monkeypatch):
    tmp_path, cfg_path = workdir
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    out = tmp_path / "summary.json"
    out.write_bytes(b'{"earlier": "summary"}\n')

    def half_then_fail(path, report):
        path.write_text(json.dumps(report)[:20], encoding="utf-8")
        raise OSError("No space left on device")

    monkeypatch.setattr(dataio, "write_report", half_then_fail)
    capsys.readouterr()
    code = cli.main(["diagnose", str(tmp_path / "report.json"), "--out", str(out)])
    assert code == cli.DATA_ERROR
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert out.read_bytes() == b'{"earlier": "summary"}\n'
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def test_train_config_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(b"\xff{}")
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.DATA_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg_path}:1: not UTF-8 (invalid start byte at byte 0)\n"


@pytest.fixture
def ab_workdir(tmp_path):
    """A hamming config over the non-BIO labels A, B, with a dataset and a checkpoint."""
    (tmp_path / "data.tsv").write_text("x\tA\ny\tB\n\nz\tB\n", encoding="utf-8")
    config = {"labels": ["A", "B"], "train_path": "data.tsv", "dev_path": "data.tsv"}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    from banditchain import SparseVector, write_checkpoint

    write_checkpoint(tmp_path / "model.ckpt", SparseVector())
    return tmp_path, cfg_path


def test_eval_chunk_f1_over_non_bio_labels_fails_before_reading_data(ab_workdir, capsys,
                                                                     monkeypatch):
    tmp_path, cfg_path = ab_workdir
    reads = []
    for name in ("read_checkpoint", "read_dataset"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: reads.append(name))
    code = cli.main(["eval", "--config", str(cfg_path), "--loss", "chunk-f1",
                     "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(tmp_path / "data.tsv")])
    assert code == cli.DATA_ERROR
    assert capsys.readouterr().err == (
        "error: loss chunk-f1 needs BIO labels: label 'A' is not a BIO tag\n")
    assert reads == []


@pytest.mark.parametrize("fids", [(3, 7, 7), (3, 9, 5)])
def test_eval_of_a_checkpoint_with_ids_out_of_order_is_a_data_error(ab_workdir, capsys, fids):
    import struct

    tmp_path, cfg_path = ab_workdir
    (tmp_path / "model.ckpt").write_bytes(b"BCWT" + struct.pack("<HQ", 1, len(fids)) + b"".join(
        struct.pack("<qd", fid, 1.0) for fid in fids))
    code = cli.main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data.tsv")])
    assert code == cli.DATA_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {tmp_path / 'model.ckpt'}: feature ids are not strictly "
                            f"ascending: {fids[2]} after {fids[1]}\n")


@pytest.mark.parametrize("size", range(4, 14))
def test_eval_of_a_checkpoint_cut_inside_its_header_is_a_data_error(ab_workdir, capsys, size):
    from banditchain import SparseVector, write_checkpoint

    tmp_path, cfg_path = ab_workdir
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(ckpt, SparseVector({3: 1.0}))
    ckpt.write_bytes(ckpt.read_bytes()[:size])  # the magic, and part of the 10-byte header
    code = cli.main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--data", str(tmp_path / "data.tsv")])
    assert code == cli.DATA_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: truncated checkpoint ({size} bytes)\n"


def test_eval_data_that_is_not_utf8_is_a_data_error_naming_its_line(ab_workdir, capsys):
    tmp_path, cfg_path = ab_workdir
    data = tmp_path / "latin1.tsv"
    data.write_bytes("x\tA\n\nca\u00f1a\tB\n".encode("latin-1"))
    code = cli.main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(tmp_path / "model.ckpt"), "--data", str(data)])
    assert code == cli.DATA_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {data}:3: not UTF-8 (invalid continuation byte at byte 7)\n"


@pytest.mark.parametrize("loss", ["bogus", "Hamming"])
def test_eval_loss_outside_its_choices_is_a_usage_error(ab_workdir, capsys, loss):
    tmp_path, cfg_path = ab_workdir
    code = cli.main(["eval", "--config", str(cfg_path), "--loss", loss,
                     "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(tmp_path / "data.tsv")])
    assert code == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --loss: invalid choice" in captured.err


def test_eval_and_config_reject_non_bio_labels_with_one_message(ab_workdir, capsys):
    tmp_path, cfg_path = ab_workdir
    paths = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data.tsv")]
    # under its own loss, hamming, the config scores the data
    assert cli.main(["eval", "--config", str(cfg_path), *paths]) == 0
    # the empty checkpoint decodes all-A: losses 1/2 and 1
    assert json.loads(capsys.readouterr().out) == {"instances": 2, "mean_loss": 0.75}
    assert cli.main(["eval", "--config", str(cfg_path), "--loss", "chunk-f1", *paths]) == 2
    from_flag = capsys.readouterr().err
    config = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps({**config, "loss": "chunk-f1"}), encoding="utf-8")
    assert cli.main(["eval", "--config", str(cfg_path), *paths]) == 2
    assert capsys.readouterr().err == from_flag


def test_train_with_frozen_weights_writes_both_files(workdir, capsys):
    # gamma = 0 never moves w, so every snapshot pair has the same weights
    tmp_path, cfg_path = workdir
    assert cli.main(["train", "--config", str(cfg_path), "--gamma", "0"]) == 0
    assert (tmp_path / "model.ckpt").exists()
    report = read_report(tmp_path / "report.json")
    assert report["convergence"]["lipschitz_est"] is None
    assert report["convergence"]["variance_est"] >= 0.0
    # diagnose ranks the defined estimates and leaves the null one out
    other = dict(report, convergence=dict(report["convergence"], objective="ce",
                                          lipschitz_est=0.5))
    write_report(tmp_path / "other.json", other)
    capsys.readouterr()
    code = cli.main(["diagnose", str(tmp_path / "report.json"), str(tmp_path / "other.json")])
    assert code == 0
    rankings = json.loads(capsys.readouterr().out)["rankings"]
    assert rankings["lipschitz_est"] == [{"objective": "ce", "seed": 0, "value": 0.5}]
    assert {r["objective"] for r in rankings["variance_est"]} == {"el", "ce"}


@pytest.mark.parametrize("key, value", [
    ("gamma", "0.1"),  # a number field: no string
    ("gamma", True),  # and no bool
    ("iterations", 4000.5),  # an integer field: no float
    ("iterations", 40.0),
    ("seed", False),  # no bool
    ("snapshots", "4"),  # no string
    ("epoch_size", 10.0),  # an integer-or-null field
    ("labels", "OBI"),  # a list of strings
    ("labels", ["O", "B", 3]),
    ("emission_offsets", [0, 1.0]),  # a list of integers
    ("emission_offsets", 0),
    ("train_path", 7),  # a path: a string
    ("test_path", ["test.tsv"]),  # a string or null
    ("report_path", None),  # a path the run writes: a string
    ("loss", 1),
    # a number field: no integer past the float range
    pytest.param("gamma", 10**400, id="gamma-int-past-float-range"),
])
def test_config_value_of_the_wrong_json_type_is_a_data_error(workdir, capsys, monkeypatch,
                                                            key, value):
    tmp_path, cfg_path = workdir
    config = json.loads(cfg_path.read_text())
    config[key] = value
    cfg_path.write_text(json.dumps(config))
    from banditchain import dataio

    reads = []
    monkeypatch.setattr(dataio, "read_dataset", lambda *a: reads.append(a))
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.DATA_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: config key {key!r} must be ")
    assert err.endswith(f", got {value!r}\n")
    assert reads == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key, value", [
    ("gamma", 1),  # a number field takes an integer
    ("clip_k", 0),
    ("test_path", None),  # an optional path takes null
    ("epoch_size", None),
    ("emission_offsets", [-1, 0, 1]),
])
def test_config_values_of_an_accepted_json_type_train(workdir, key, value):
    tmp_path, cfg_path = workdir
    config = json.loads(cfg_path.read_text())
    config[key] = value
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert read_report(tmp_path / "report.json")["config"][key] == value
