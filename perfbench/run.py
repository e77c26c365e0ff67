"""banditchain benchmark: end-to-end training/eval throughput and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload chunk-train --seed 1 --seconds 30 --trace 0

The script generates the workload's inputs from ``--seed`` under
``perfbench/work/``, times set-up in several fresh interpreters, and runs the
workload in one more fresh, single-threaded interpreter (``child.py``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced round instead, and the spans go to ``perfbench/out/``.  The same
directory receives a record of each run: environment stamp, every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DEADLINE_S = 170.0  # the whole invocation, children included
SETUP_BEFORE, SETUP_AFTER = 2, 1
# One thread per process: the measured loop is single-threaded Python, and a
# BLAS pool would only add contention on a small machine.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def loadavg() -> "str | None":
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> "str | None":
    if not (ROOT / ".git").exists():  # a source export; git would search parent dirs
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh interpreter; return its last-line JSON."""
    # fixed string hashing, so set and dict orders repeat from run to run
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_s(work: Path, deadline: float) -> dict:
    return run_child(["setup", str(work)], deadline)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "banditchain" / "__init__.py").is_file():
        print(f"error: no banditchain sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ.update(THREAD_ENV)
    import numpy
    import scipy
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (expected one of "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # the metric names and units the result must carry, as BENCHMARK.json lists them
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = HERE / "work" / f"{tag}-p{os.getpid()}"
    out_dir = HERE / "out"
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": loadavg(),
    }
    try:
        write_inputs(workload, args.seed, work)
        child_args = ["measure", str(work), "--workload", workload.name,
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            child_args += ["--spans", str(out_dir / f"{tag}.spans.tsv.gz")]
        # set-ups before and after the measured process, so they see more than
        # one stretch of the host's load
        setups = [] if args.trace else [setup_s(work, deadline) for _ in range(SETUP_BEFORE)]
        result = run_child(child_args, deadline)
        if not (args.trace or result["failed"]):
            setups += [setup_s(work, deadline) for _ in range(SETUP_AFTER)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_end"] = loadavg()

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"env": stamp, "setups": setups, **result}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# env " + json.dumps(stamp))
    print(f"# {result['rounds']} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, {len(result['relearned'])} trained again")
    # a failed operation fails the invocation: the result line counts the
    # failures (stderr names them), and a failed run reports no metric
    missing = set(units) - set(metrics)
    if missing and not result["failed"]:
        print(f"error: no value for {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {} if result["failed"] else {
            name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
