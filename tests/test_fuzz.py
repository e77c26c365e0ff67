"""Seeded mutations of every file the CLI reads, and every output aimed at every input.

Each case runs one command in-process through ``cli.main``, in a directory of
its own holding the command's inputs, and checks the CLI's contract: the exit
code is 0, 2 or 3 (1 is kept for argv errors); a nonzero exit prints exactly
one ``error:`` line to stderr and nothing to stdout; no input file changes
(sha256 before and after); and no ``.tmp`` file is left behind.  The mutator
is a stdlib ``random.Random`` with a fixed seed and a fixed number of cases
per command, weighted toward the cheap commands: a ``train`` case costs about
a hundred ``eval`` or ``diagnose`` cases.
"""

import contextlib
import hashlib
import io
import json
import random
import shutil

import numpy as np
import pytest

import banditchain.cli as cli
from banditchain import generate_chunk_instances, write_dataset

CONFIG = {
    "labels": ["O", "B", "I"],
    "train_path": "train.tsv",
    "dev_path": "dev.tsv",
    "test_path": "test.tsv",
    "gamma": 0.2,
    "iterations": 8,
    "eval_every": 4,
    "epoch_size": 4,
    "snapshots": 4,
    "lipschitz_pairs": 10,
    "report_path": "report.json",
    "checkpoint_path": "out.ckpt",
}

# command -> (argv, the files it reads that the mutator may change)
COMMANDS = {
    "train": (["train", "--config", "run.json"], ("run.json", "train.tsv", "dev.tsv")),
    "eval": (["eval", "--config", "run.json", "--checkpoint", "a.ckpt", "--data", "dev.tsv"],
             ("run.json", "a.ckpt", "dev.tsv")),
    "sample": (["sample", "--config", "run.json", "--checkpoint", "a.ckpt", "--data", "dev.tsv",
                "--draws", "2"], ("run.json", "a.ckpt", "dev.tsv")),
    "diagnose": (["diagnose", "a.json", "b.json", "--out", "summary.json"], ("a.json", "b.json")),
}
CASES = {"train": 50, "eval": 300, "sample": 250, "diagnose": 300}

INSERTS = (b"\t", b"\n", b"\x1f", b"\xff", b"nan", b"1e400")
# one value of each JSON type; an int and a float are both numbers
JSON_VALUES = (None, True, 3, "x", ["x"], {"x": 1})


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def mutate_bytes(rng: random.Random, data: bytes) -> tuple[str, bytes]:
    """One mutation of a file's bytes and its description: flip a byte, cut
    the file, insert a troublesome token, or repeat a span; half of them in
    the first 32 bytes, where a checkpoint's header is."""
    i = rng.randrange(min(len(data), 32) + 1 if rng.random() < 0.5 else len(data) + 1)
    kind = rng.choice(("flip", "cut", "insert", "repeat"))
    if kind == "flip" and i < len(data):
        flipped = data[i] ^ rng.randrange(1, 256)
        return f"flip byte {i} to {flipped:#x}", data[:i] + bytes([flipped]) + data[i + 1:]
    if kind == "insert":
        token = rng.choice(INSERTS)
        return f"insert {token!r} at {i}", data[:i] + token + data[i:]
    if kind == "repeat":
        j = rng.randrange(i, min(len(data), i + 64) + 1)
        return f"repeat bytes {i}:{j}", data[:j] + data[i:j] + data[j:]
    return f"cut at {i}", data[:i]


def mutate_config(rng: random.Random, data: bytes) -> tuple[str, bytes]:
    """A byte mutation, or a key deleted, or a key given a value of another JSON type."""
    kind = rng.choice(("bytes", "delete", "retype"))
    if kind == "bytes":
        return mutate_bytes(rng, data)
    config = json.loads(data)
    key = rng.choice(sorted(config))
    if kind == "delete":
        del config[key]
        return f"delete {key}", json.dumps(config).encode()
    config[key] = rng.choice([v for v in JSON_VALUES if _json_type(v) != _json_type(config[key])])
    return f"set {key} to {config[key]!r}", json.dumps(config).encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """Every file the commands read, name -> bytes: the run's config and
    datasets, a checkpoint and two reports (``a.ckpt`` is the first run's)."""
    base = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(5)
    for name, count in (("train.tsv", 8), ("dev.tsv", 4), ("test.tsv", 4)):
        write_dataset(base / name, generate_chunk_instances(count, rng))
    (base / "run.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    for run, objective in (("a", "el"), ("b", "ce")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--config", str(base / "run.json"), "--objective",
                             objective, "--report", str(base / f"{run}.json"),
                             "--checkpoint", str(base / f"{run}.ckpt")]) == 0
    return {path.name: path.read_bytes() for path in base.iterdir()}


@contextlib.contextmanager
def case_directory(parent, files: dict, monkeypatch):
    """A new directory holding files (name -> bytes), current while the case
    runs (the commands name their files relative to it), and deleted after it: files deleted this soon cost next to nothing, while
    thousands left for pytest's clean-up can cost a minute on a busy disk."""
    directory = parent / "case"
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    monkeypatch.chdir(directory)
    try:
        yield directory
    finally:
        monkeypatch.chdir(parent)
        shutil.rmtree(directory)


def _digests(directory, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def run_case(directory, argv, unchanged) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in directory,
    checked against the contract; unchanged names the files that must keep their bytes."""
    before = _digests(directory, unchanged)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), err
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert _digests(directory, unchanged) == before
    assert list(directory.rglob("*.tmp")) == []
    return code, out, err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_inputs_keep_the_cli_contract(inputs, tmp_path, monkeypatch, command):
    argv, targets = COMMANDS[command]
    rng = random.Random(f"fuzz {command}")
    for case in range(CASES[command]):
        target = rng.choice(targets)
        mutate = mutate_config if target == "run.json" else mutate_bytes
        what, data = mutate(rng, inputs[target])
        with case_directory(tmp_path, {**inputs, target: data}, monkeypatch) as directory:
            try:
                run_case(directory, argv, sorted(inputs))
            except Exception as exc:  # a broken contract, or a traceback: name the case
                raise AssertionError(f"case {case}: {command} with {target}: {what}: "
                                     f"{exc!r}") from exc


# every input a train output could replace; diagnose --out against each report it
# reads is test_cli's test_diagnose_out_onto_a_report_it_reads_fails_and_leaves_it_as_it_was
TRAIN_INPUTS = {"train_path": "train.tsv", "dev_path": "dev.tsv", "test_path": "test.tsv",
                "init_checkpoint": "a.ckpt", "config": "run.json"}


@pytest.mark.parametrize("via", ["flag", "config key"])
@pytest.mark.parametrize("source", sorted(TRAIN_INPUTS))
@pytest.mark.parametrize("output, flag", [("report_path", "--report"),
                                          ("checkpoint_path", "--checkpoint")])
def test_train_output_onto_each_input_fails_before_anything_is_written(
        inputs, tmp_path, monkeypatch, output, flag, source, via):
    target = TRAIN_INPUTS[source]
    config = {**CONFIG, "init_checkpoint": "a.ckpt"}
    argv = ["train", "--config", "run.json"]
    if via == "flag":
        argv += [flag, f"./{target}"]  # spelled differently: the check compares resolved paths
    else:
        config[output] = target
    files = {**inputs, "run.json": json.dumps(config).encode()}
    with case_directory(tmp_path, files, monkeypatch) as directory:
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
def test_a_config_naming_itself_as_an_output_is_a_data_error(inputs, tmp_path, monkeypatch,
                                                             command, output):
    files = {**inputs, "run.json": json.dumps({**CONFIG, output: "run.json"}).encode()}
    with case_directory(tmp_path, files, monkeypatch) as directory:
        code, _, err = run_case(directory, COMMANDS[command][0], sorted(files))
    assert code == cli.DATA_ERROR
    assert err.startswith(f"error: {output} would overwrite the run's config: ")
