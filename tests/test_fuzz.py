"""Seeded mutations of every file the CLI reads, and every output aimed at every input.

The mutator, the inputs and the contract each case is checked against live in
``tools/fuzz.py``, loaded here by path: the exit code is 0, 2 or 3 (1 is kept
for argv errors); a nonzero exit prints exactly one ``error:`` line to stderr
and nothing to stdout; no input file changes (sha256 before and after); and
no ``.tmp`` file is left behind.  Tier-1 runs a fixed number of cases per
command from a stdlib ``random.Random`` with a fixed seed, weighted toward the
cheap commands (``fuzz.CASES``), and a smoke run of the tool itself; a longer
sweep is ``tools/fuzz.py --cases N --seed S``.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

import banditchain.cli as cli


def load_fuzz():
    path = Path(__file__).resolve().parents[1] / "tools" / "fuzz.py"
    spec = importlib.util.spec_from_file_location("fuzz_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fuzz = load_fuzz()
CONFIG, COMMANDS, run_case = fuzz.CONFIG, fuzz.COMMANDS, fuzz.run_case


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """Every file the commands read, name -> bytes (``fuzz.write_inputs``)."""
    return fuzz.write_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_inputs_keep_the_cli_contract(inputs, tmp_path, command):
    rng = random.Random(f"fuzz {command}")
    for case in range(fuzz.CASES[command]):
        fuzz.run_mutated(tmp_path, inputs, rng, command, case)


def test_the_sweep_tool_runs_and_reports_each_command(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert fuzz.main(["--cases", "12", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "12 cases at seed 3: 0 broke the contract"
    assert [line.split()[0] for line in lines[1:]] == sorted(COMMANDS)
    counts = [int(word) for line in lines[1:] for word in line.split()[3::3]]
    assert sum(counts) == 12
    assert list(tmp_path.iterdir()) == []


def test_the_sweep_names_each_case_that_breaks_the_contract(inputs, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 1)  # the argv-error code: never a file's fault
    codes, broken = fuzz.sweep(tmp_path, inputs, 4, 1)
    assert sum(codes.values()) == len(broken) == 4
    assert all(command in COMMANDS and code == "broken" for command, code in codes)
    for case, line in enumerate(broken):
        assert line.startswith(f"case {case}: ") and "AssertionError(\"exit 1, stderr ''\")" in line


# every input a train output could replace; diagnose --out against each report it
# reads is test_cli's test_diagnose_out_onto_a_report_it_reads_fails_and_leaves_it_as_it_was
TRAIN_INPUTS = {"train_path": "train.tsv", "dev_path": "dev.tsv", "test_path": "test.tsv",
                "init_checkpoint": "a.ckpt", "config": "run.json"}


@pytest.mark.parametrize("via", ["flag", "config key"])
@pytest.mark.parametrize("source", sorted(TRAIN_INPUTS))
@pytest.mark.parametrize("output, flag", [("report_path", "--report"),
                                          ("checkpoint_path", "--checkpoint")])
def test_train_output_onto_each_input_fails_before_anything_is_written(
        inputs, tmp_path, output, flag, source, via):
    target = TRAIN_INPUTS[source]
    config = {**CONFIG, "init_checkpoint": "a.ckpt"}
    argv = ["train", "--config", "run.json"]
    if via == "flag":
        argv += [flag, f"./{target}"]  # spelled differently: the check compares resolved paths
    else:
        config[output] = target
    files = {**inputs, "run.json": json.dumps(config).encode()}
    with fuzz.case_directory(tmp_path, files) as directory:
        if (output, source) == ("checkpoint_path", "init_checkpoint"):
            # the new checkpoint may replace the one the run started from, read first
            assert run_case(directory, argv, sorted(set(files) - {target}))[0] == 0
            return
        code, _, err = run_case(directory, argv, sorted(files))
        assert code == cli.DATA_ERROR
        assert err.startswith(f"error: {output} would overwrite the run's {source}: ")
        assert sorted(p.name for p in directory.iterdir()) == sorted(files)


@pytest.mark.parametrize("output", ["report_path", "checkpoint_path"])
@pytest.mark.parametrize("command", ["eval", "sample"])
def test_a_config_naming_itself_as_an_output_is_a_data_error(inputs, tmp_path, command, output):
    files = {**inputs, "run.json": json.dumps({**CONFIG, output: "run.json"}).encode()}
    with fuzz.case_directory(tmp_path, files) as directory:
        code, _, err = run_case(directory, COMMANDS[command][0], sorted(files))
    assert code == cli.DATA_ERROR
    assert err.startswith(f"error: {output} would overwrite the run's config: ")
