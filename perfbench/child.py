"""The measured process: one fresh, single-threaded interpreter per use.

``setup DIR`` times a cold start: importing banditchain, loading every run
config, reading the three datasets, building the model and compiling every
instance.  ``measure DIR --workload W --seconds S --trace 0|1`` runs the
correctness gate and, if it passes, whole rounds of the workload, printing one
JSON object as its last line.  A round trains each objective once through
``dataio.run_train`` (the command line's ``train``) and evaluates the selected
EL checkpoint on the test set (the command line's ``eval``).  Timing stops at
the first failed operation.

The run configs name no test set, so ``run_train`` does not decode one: the
test set is ``DIR/test.tsv``, read only by set-up and by the ``eval`` passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
LEARNING_MARGIN = 0.7  # best dev loss must reach 0.7 x the zero-weight loss
TEST_FILE = "test.tsv"
ROUND_SEED_STRIDE = 1000  # round r trains with the config's seed + r * stride
# A run that misses the margin is trained once more, untimed, with its seed plus
# this offset (never a round's seed); the margin fails only if that run misses
# too.  EL can settle on a wrong labeling whose gradient vanishes, and stays
# there for good: 1 of ~670 sampling seeds tried at the chunk-* shapes.  A change
# that breaks learning misses on every seed.
RELEARN_SEED_OFFSET = 500
MIN_ROUNDS = 2  # a run's medians always span two sampling seeds or more


def setup(work: Path) -> dict:
    from hostspeed import HostClock, Timed

    # nothing of the library is imported before the clock starts: banditchain,
    # numpy and scipy load inside the timed block
    with HostClock() as clock, Timed(clock) as timed:
        from banditchain import dataio

        configs = [dataio.load_config(p) for p in sorted(work.glob("*.config.json"))]
        first = configs[0]
        model = first.model()
        for path in (first.train_path, first.dev_path, work / TEST_FILE):
            for x in dataio.read_dataset(path, model.alphabet):
                model.compile(x)
    return {"setup_s": timed.seconds, "raw_setup_s": timed.raw_s}


class Runner:
    """Runs operations, counting every attempt and every failure."""

    def __init__(self, workload, work: Path, clock, tracer=None):
        from banditchain import SparseVector, dataio, evaluate, loss_fn

        self.workload = workload
        self.work = work
        self.configs = {key: work / f"{key}.config.json" for key in ("el", "pr", "ce")}
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.relearned: list[str] = []  # runs that missed the margin and were trained again
        self.raw: dict[str, list[float]] = {}  # unscaled throughputs
        cfg = dataio.load_config(self.configs["el"])
        model = cfg.model()
        dev = dataio.read_dataset(cfg.dev_path, model.alphabet)
        self.baseline = evaluate(model, SparseVector(), dev, loss_fn(cfg.loss))

    def _run(self, kind: str, repeat: int) -> None:
        if self.tracer is not None:
            self.tracer.begin_run(self.workload.name, kind, repeat)

    def record(self, samples: dict, name: str, work: int, timed) -> None:
        """Append a throughput at reference host speed; keep the raw one too."""
        samples[name].append(work / timed.seconds)
        self.raw.setdefault(name, []).append(work / timed.raw_s)

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def gate(self) -> None:
        """The oracle property suite, once per invocation, before any timing."""
        from banditchain import run_property_checks

        self._run("gate", 0)
        self.attempted += 1
        report = run_property_checks()
        if not report.all_passed:
            self._fail("property checks: " + "; ".join(
                line for line in report.lines() if line.startswith("FAIL")))

    def verify(self, key: str, cfg, report: dict, repeat: int) -> None:
        """Re-read the written checkpoint; its dev loss must equal the report's.

        On a workload that learns, the run must also reach the learning margin,
        or else a second, untimed run with another sampling seed must.
        """
        from banditchain import dataio, evaluate, loss_fn

        self._run("verify", repeat)
        self.attempted += 1
        model = cfg.model()
        w = dataio.read_checkpoint(cfg.checkpoint_path)
        dev = dataio.read_dataset(cfg.dev_path, model.alphabet)
        loss = evaluate(model, w, dev, loss_fn(cfg.loss))
        selected = report["selected"]["dev_loss"]
        if loss != selected:
            self._fail(f"{key}: checkpoint dev loss {loss!r} != report {selected!r}")
        if not self.workload.learns:
            return
        self.attempted += 1
        margin = LEARNING_MARGIN * self.baseline
        if selected <= margin:
            return
        seed = cfg.seed + RELEARN_SEED_OFFSET
        print(f"{key}: best dev loss {selected:.4f} above {LEARNING_MARGIN} x zero-weight "
              f"{self.baseline:.4f} at seed {cfg.seed}; training again at seed {seed}",
              file=sys.stderr)
        self.relearned.append(f"{key} seed {cfg.seed}")
        self.attempted += 1
        again = dataio.run_train(dataclasses.replace(
            cfg, seed=seed, report_path=str(self.work / f"{key}.relearn.report.json"),
            checkpoint_path=str(self.work / f"{key}.relearn.ckpt")))
        if again["selected"]["dev_loss"] > margin:
            self._fail(f"{key}: best dev loss {selected:.4f} at seed {cfg.seed} and "
                       f"{again['selected']['dev_loss']:.4f} at seed {seed}, above "
                       f"{LEARNING_MARGIN} x zero-weight {self.baseline:.4f}")

    def round(self, repeat: int, samples: dict[str, list[float]]) -> None:
        """Train each objective once; after each, time passes of test evaluation.

        Each round trains with its own sampling seed, so the median over rounds
        spans several training trajectories: a step costs less once the model
        samples zero-loss labelings, and how soon that happens depends on the
        seed.  The passes evaluate this round's EL checkpoint.  Spreading them
        over the round makes them sample the same stretch of time as the
        training runs.
        """
        from banditchain import dataio
        from hostspeed import Timed

        evaluator = None
        for key, path in self.configs.items():
            if self.failed:
                return
            cfg = dataio.load_config(path)
            cfg = dataclasses.replace(cfg, seed=cfg.seed + ROUND_SEED_STRIDE * repeat)
            self._run(key, repeat)
            self.attempted += 1
            gc.collect()
            try:
                with Timed(self.clock) as timed:
                    report = dataio.run_train(cfg)
            except Exception as exc:  # reported as a failed operation; timing stops
                self._fail(f"{key}: run_train raised {exc!r}")
                return
            self.record(samples, f"train_steps_per_s.{key}", cfg.iterations, timed)
            try:
                self.verify(key, cfg, report, repeat)
            except Exception as exc:
                self._fail(f"{key}: verification raised {exc!r}")
            if self.failed:
                return

            self._run("eval", repeat)
            try:
                evaluator = evaluator or self.test_evaluator()
                self.time_evaluation(evaluator, samples)
            except Exception as exc:
                self._fail(f"test evaluation raised {exc!r}")

    def test_evaluator(self) -> tuple:
        """Load the EL checkpoint and the test set as the ``eval`` command does."""
        from banditchain import dataio, evaluate, loss_fn

        cfg = dataio.load_config(self.configs["el"])
        model = cfg.model()
        w = dataio.read_checkpoint(cfg.checkpoint_path)
        test = dataio.read_dataset(self.work / TEST_FILE, model.alphabet)
        loss = loss_fn(cfg.loss)
        expected = evaluate(model, w, test, loss)  # compiles the test set
        return model, w, test, loss, expected

    def time_evaluation(self, evaluator: tuple, samples: dict[str, list[float]]) -> None:
        from banditchain import evaluate
        from hostspeed import Timed

        model, w, test, loss, expected = evaluator
        passes = self.workload.eval_passes
        tokens = sum(len(x) for x in test)
        gc.collect()
        # one timed block of several passes: a single pass is too short for
        # the host-speed scale to follow
        with Timed(self.clock) as timed:
            values = [evaluate(model, w, test, loss) for _ in range(passes)]
        self.record(samples, "eval_tokens_per_s", tokens * passes, timed)
        for value in values:
            self.attempted += 1
            if value != expected:
                self._fail(f"eval pass gave {value!r}, first pass {expected!r}")


def measure(args) -> dict:
    from hostspeed import HostClock
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    samples: dict[str, list[float]] = {
        "train_steps_per_s.el": [], "train_steps_per_s.pr": [], "train_steps_per_s.ce": [],
        "eval_tokens_per_s": [],
    }
    with HostClock() as clock:
        if args.trace:
            return measure_traced(workload, Path(args.dir), clock, samples, args)
        runner = Runner(workload, Path(args.dir), clock)
        runner.gate()
        start = time.perf_counter()
        repeat, last = 0, 0.0
        # whole rounds only, at least MIN_ROUNDS; start another while it would
        # end by the budget plus half a round, so a run overshoots its budget
        # by about half a round at most
        while not runner.failed and (
                repeat < MIN_ROUNDS or time.perf_counter() - start + last / 2 <= args.seconds):
            begun = time.perf_counter()
            runner.round(repeat, samples)
            last = time.perf_counter() - begun
            repeat += 1
            if repeat == 1:
                # one round is what a user's process does (train each objective,
                # evaluate); later rounds only add heap fragmentation, and their
                # number depends on the host's speed
                peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    if repeat:
        metrics["peak_rss_mb"] = peak_rss_kib / 1024.0
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "relearned": runner.relearned,
        "rounds": repeat,
        "metrics": metrics,
        "samples": samples,
        "raw_samples": runner.raw,
    }


def measure_traced(workload, work, clock, samples, args) -> dict:
    """Untraced round, then the identical round traced; report per-layer metrics."""
    from hostspeed import Timed
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    runner = Runner(workload, work, clock, tracer)
    with tracer:
        runner.gate()
    rounds = 0
    if not runner.failed:
        with Timed(clock) as plain:
            runner.round(0, samples)
        with tracer, Timed(clock) as traced:
            runner.round(0, samples)
        rounds = 2
    if args.spans:
        tracer.write(Path(args.spans))
    metrics = layer_metrics(tracer, exclude=("gate", "verify"))
    if rounds:
        metrics["trace.overhead_ratio"] = traced.seconds / plain.seconds
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "relearned": runner.relearned,
        "rounds": rounds,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("dir")
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("dir")
    p_measure.add_argument("--workload", required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_measure.add_argument("--spans", help="write the traced spans here (gzip'd TSV)")
    p_measure.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for this process and the calibration helper it starts (which
    # inherits the affinity): each virtual CPU's speed drifts on its own, so
    # the kernel must run where the measured code runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = setup(Path(args.dir)) if args.mode == "setup" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
