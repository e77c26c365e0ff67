"""Peak memory of a benchmark round's training runs, run by run.

    PYTHONPATH=src python3 tools/memory.py WORKLOAD [--seed S]

Writes the inputs of perfbench workload WORKLOAD (chunk-train,
chunk-evaldense or typed-wide) for seed S into a temporary directory, with
``perfbench/workloads.py``'s ``write_inputs`` as ``tools/identity.py`` does,
then trains its el, pr-cont and ce configs one after another through
``run_train`` in one fresh process, as a benchmark round does, and prints
after each run the process's peak resident set so far (``ru_maxrss``).  The
same runs go again in a second fresh process under ``tracemalloc``, whose
tracing costs memory of its own, and each run's peak of traced Python
allocations is printed beside it.  Sizes are in MiB.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter: argv is ("plain" | "trace", config paths...);
# prints one JSON line per run: [objective, ru_maxrss in KiB, traced peak in bytes]
_ROUND = """
import json, resource, sys, tracemalloc
from banditchain import load_config, run_train
if sys.argv[1] == "trace":
    tracemalloc.start()
for path in sys.argv[2:]:
    config = load_config(path)
    tracemalloc.reset_peak()
    run_train(config)
    print(json.dumps([config.objective, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      tracemalloc.get_traced_memory()[1]]), flush=True)
"""


def _workloads_module():
    """``perfbench/workloads.py``, imported by path and registered, as ``tools/identity.py`` does."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _round(mode: str, configs: list[Path]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _ROUND, mode, *map(str, configs)],
                          env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def peaks(workload, seed: int, out: Path) -> list[dict]:
    """Per run of the round, in order: {"run": objective, "ru_maxrss_mib": the
    plain process's peak after it, "tracemalloc_peak_mib": its traced peak}."""
    configs = list(_workloads_module().write_inputs(workload, seed, out).values())
    plain, traced = _round("plain", configs), _round("trace", configs)
    return [{"run": run, "ru_maxrss_mib": rss / 1024.0, "tracemalloc_peak_mib": peak / 2**20}
            for (run, rss, _), (_, _, peak) in zip(plain, traced)]


def main(argv: Optional[list[str]] = None) -> int:
    module = _workloads_module()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(module.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        rows = peaks(module.WORKLOADS[args.workload], args.seed, Path(out))
    print(f"{args.workload} seed {args.seed}: MiB after each run_train")
    print(f"{'run':<8} {'ru_maxrss':>10} {'tracemalloc peak':>17}")
    for row in rows:
        print(f"{row['run']:<8} {row['ru_maxrss_mib']:>10.1f} {row['tracemalloc_peak_mib']:>17.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
