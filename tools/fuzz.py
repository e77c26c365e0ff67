"""Seeded mutations of every file the CLI reads, checked against the CLI's contract.

    PYTHONPATH=src python3 tools/fuzz.py [--cases N] [--seed S]

Writes a small chunking run's inputs into a temporary directory: a config,
train, dev and test sets, and the checkpoint and report of two short runs
(``a`` by EL, ``b`` by CE).  Then runs N cases.  Each case picks a command
(``train``, ``eval``, ``sample`` or ``diagnose``, weighted by ``CASES``: a
``train`` case costs about a hundred of the others), one of the files it
reads, and one mutation of that file, all from ``random.Random(S)``.  It runs
the command in-process through ``cli.main``, in a directory of its own
holding the inputs, deleted right after, and checks the contract: the exit
code is 0, 2 or 3 (1 is kept for argv errors); a nonzero exit prints exactly
one ``error:`` line to stderr and nothing to stdout; no input file changes
(sha256 before and after); and no ``.tmp`` file is left behind.

Prints one line per case that broke the contract, naming the case, then the
exit codes seen per command; exits 1 if any case broke it.  The same mutator
runs a fixed budget in ``tests/test_fuzz.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

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
# cases per command in a tier-1 run; a sweep draws its commands in these proportions
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


def write_inputs(base: Path) -> dict:
    """Every file the commands read, written under base, name -> bytes: the
    run's config and datasets, a checkpoint and two reports (``a.ckpt`` is
    the first run's)."""
    rng = np.random.default_rng(5)
    for name, count in (("train.tsv", 8), ("dev.tsv", 4), ("test.tsv", 4)):
        write_dataset(base / name, generate_chunk_instances(count, rng))
    (base / "run.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    for run, objective in (("a", "el"), ("b", "ce")):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", str(base / "run.json"), "--objective",
                             objective, "--report", str(base / f"{run}.json"),
                             "--checkpoint", str(base / f"{run}.ckpt")])
        if code:
            raise RuntimeError(f"the {objective} run that writes the inputs exited {code}")
    return {path.name: path.read_bytes() for path in base.iterdir()}


@contextlib.contextmanager
def case_directory(parent: Path, files: dict) -> Iterator[Path]:
    """A new directory holding files (name -> bytes), current while the case
    runs (the commands name their files relative to it), and deleted after it:
    files deleted this soon cost next to nothing, while thousands left for a
    later clean-up can cost a minute on a busy disk."""
    directory = parent / "case"
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    home = os.getcwd()
    os.chdir(directory)
    try:
        yield directory
    finally:
        os.chdir(home)
        shutil.rmtree(directory)


def _digests(directory: Path, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def run_case(directory: Path, argv: list[str], unchanged) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in directory,
    checked against the contract; unchanged names the files that must keep
    their bytes.  A broken contract raises ``AssertionError`` saying how (not
    an ``assert``, which ``python -O`` would strip)."""
    before = _digests(directory, unchanged)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code not in (0, 2, 3):
        raise AssertionError(f"exit {code}, stderr {err!r}")
    if code and not (out == "" and err.startswith("error: ") and err.count("\n") == 1):
        raise AssertionError(f"exit {code} printed stdout {out!r} and stderr {err!r}")
    changed = [name for name, digest in _digests(directory, unchanged).items()
               if digest != before[name]]
    if changed:
        raise AssertionError(f"inputs changed: {changed}")
    if list(directory.rglob("*.tmp")):
        raise AssertionError(f".tmp files left: {sorted(directory.rglob('*.tmp'))}")
    return code, out, err


def run_mutated(parent: Path, inputs: dict, rng: random.Random, command: str,
                case: int) -> int:
    """The exit code of one case: command run in a directory under parent on
    inputs (name -> bytes) with one file it reads mutated.  A case that breaks
    the contract, or raises, is an ``AssertionError`` naming the case."""
    target = rng.choice(COMMANDS[command][1])
    mutate = mutate_config if target == "run.json" else mutate_bytes
    what, data = mutate(rng, inputs[target])
    with case_directory(parent, {**inputs, target: data}) as directory:
        try:
            return run_case(directory, COMMANDS[command][0], sorted(inputs))[0]
        except Exception as exc:  # a broken contract, or a traceback
            raise AssertionError(f"case {case}: {command} with {target}: {what}: "
                                 f"{exc!r}") from exc


def sweep(parent: Path, inputs: dict, cases: int, seed: int) -> tuple[Counter, list[str]]:
    """Run cases mutated cases in directories under parent: (a count of each
    (command, exit code), a description of each case that broke the contract
    or raised)."""
    rng, codes, broken = random.Random(seed), Counter(), []
    commands, weights = zip(*CASES.items())
    for case in range(cases):
        command = rng.choices(commands, weights)[0]
        try:
            codes[command, run_mutated(parent, inputs, rng, command, case)] += 1
        except AssertionError as exc:
            codes[command, "broken"] += 1
            broken.append(str(exc))
    return codes, broken


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.cases < 0:
        parser.error("--cases must be at least 0")
    with tempfile.TemporaryDirectory() as parent:
        inputs = write_inputs(Path(parent))
        codes, broken = sweep(Path(parent), inputs, args.cases, args.seed)
    for line in broken:
        print(line)
    print(f"{args.cases} cases at seed {args.seed}: {len(broken)} broke the contract")
    for command in sorted(COMMANDS):
        seen = sorted((str(code), k) for (name, code), k in codes.items() if name == command)
        print(f"{command:<9} " + " ".join(f"exit {code}: {k}" for code, k in seen))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
