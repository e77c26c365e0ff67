"""Digests of a fixed set of training runs, to show that a change keeps their bits.

    PYTHONPATH=src python3 tools/identity.py OUT --seeds 1 2 3 [--expect FILE]

For each seed, writes the inputs of perfbench's workloads (chunk-train,
chunk-evaldense, typed-wide) under OUT with ``perfbench/workloads.py``'s
``write_inputs``, trains every objective's config (el, pr-cont, ce) on them
with the test set scored (``run_train``), then the el config once more,
warm-started from the el run's checkpoint (``init_checkpoint``), so that the
checkpoint read path is covered too.  Prints one JSON object: per run,
``"workload/seed/objective"`` (``"workload/seed/el-warm"`` for the warm
start), the sha256 of its checkpoint and of its report without
``created_at`` and paths.  With ``--expect FILE``, a JSON object saved from
an earlier run of this tool, it prints instead the keys whose digests differ
from FILE's (or that only one side has), one a line, and exits 1 if there are
any, or prints how many digests are equal and exits 0; so run it on one
tree, save the output, and check another tree with ``--expect``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Iterable, Optional

from banditchain import load_config, run_train


def _workloads_module():
    """``perfbench/workloads.py``, imported by path (perfbench is not a
    package) and registered, as its dataclasses need, on first use."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def report_digest(path: Path, run_dir: Path) -> str:
    """sha256 of a report without ``created_at``, its paths written relative to run_dir."""
    report = json.loads(path.read_text(encoding="utf-8"))
    del report["created_at"]
    text = json.dumps(report, sort_keys=True).replace(str(run_dir.resolve()), "<run>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digests(config, run_dir: Path) -> dict:
    """Train config (``run_train``); the sha256 of its checkpoint and of its report."""
    run_train(config)
    return {"checkpoint": hashlib.sha256(Path(config.checkpoint_path).read_bytes()).hexdigest(),
            "report": report_digest(Path(config.report_path), run_dir)}


def digests(out: Path, seeds: Iterable[int], workloads: Optional[Iterable] = None) -> dict:
    """{"workload/seed/run": {"checkpoint": sha256, "report": sha256}} of every
    run, each in its own directory OUT/workload/seed; workloads defaults to
    perfbench's ``WORKLOADS``."""
    module = _workloads_module()
    out = Path(out)
    result = {}
    for workload in workloads or module.WORKLOADS.values():
        for seed in seeds:
            run_dir = out / workload.name / str(seed)
            configs = {key: load_config(path, {"test_path": str(run_dir / "test.tsv")})
                       for key, path in module.write_inputs(workload, seed, run_dir).items()}
            for config in configs.values():
                result[f"{workload.name}/{seed}/{config.objective}"] = run_digests(config, run_dir)
            warm = dataclasses.replace(
                configs["el"], init_checkpoint=configs["el"].checkpoint_path,
                checkpoint_path=str(run_dir / "el-warm.ckpt"),
                report_path=str(run_dir / "el-warm.report.json"))
            result[f"{workload.name}/{seed}/el-warm"] = run_digests(warm, run_dir)
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the inputs and artifacts")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--expect", type=Path, help="digest JSON to compare against")
    args = parser.parse_args(argv)
    got = digests(args.out, args.seeds)
    if args.expect is None:
        print(json.dumps(got, indent=2, sort_keys=True))
        return 0
    expected = json.loads(args.expect.read_text(encoding="utf-8"))
    changed = sorted(key for key in got.keys() | expected.keys()
                     if got.get(key) != expected.get(key))
    for key in changed:
        print(key)
    if not changed:
        print(f"{len(got)} digests equal")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
