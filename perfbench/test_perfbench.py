"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import banditchain  # noqa: E402
from tracer import Tracer, layer_metrics, self_times, span_names  # noqa: E402
from workloads import TYPED_LABELS, WORKLOADS, typed_bio_instances, write_inputs  # noqa: E402


def test_self_time_of_nested_spans():
    # outer [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 55]
    spans = [
        ["outer", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 40, 70, 0, 0],
        ["c", 45, 55, 2, 0],
    ]
    assert self_times(spans) == {
        "outer": (1, 50), "a": (1, 20), "b": (1, 20), "c": (1, 10)}
    assert self_times(spans, keep=lambda span: span[0] != "outer") == {
        "a": (1, 20), "b": (1, 20), "c": (1, 10)}


def test_wrapped_calls_record_parents_and_self_time():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(1000)), None)
    outer = tracer._wrap("outer", lambda: inner() + inner(), None)
    tracer.begin_run("synthetic", "nested", 0)
    outer()
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    times = self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert times["inner"][0] == 2
    assert sum(ns for _, ns in times.values()) == total


def _bindings() -> dict:
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "banditchain" or key.startswith("banditchain."):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for name, member in vars(value).items():
                        out[(key, attr, name)] = member
    return out


def test_patch_then_unpatch_restores_every_binding():
    import banditchain.cli  # noqa: F401  (imports sample under another name)

    before = _bindings()
    tracer = Tracer()
    with tracer:
        from banditchain import chain, cli, trainer

        assert trainer.sample is chain.sample
        assert cli.sample_labeling is chain.sample
        assert chain.sample.__wrapped__ is before[("banditchain.chain", "sample")]
        assert banditchain.SparseVector.copy is not before[
            ("banditchain.sparse", "SparseVector", "copy")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_calls_reach_every_call_site():
    rng = np.random.default_rng(0)
    model = banditchain.ChainModel(banditchain.chunk_alphabet())
    data = banditchain.generate_chunk_instances(5, rng)
    oracle = banditchain.FeedbackOracle("hamming")
    config = banditchain.TrainerConfig(objective="pr-cont", gamma=0.1, iterations=10,
                                       epoch_size=5, eval_every=5)
    tracer = Tracer()
    tracer.begin_run("synthetic", "pr", 0)
    with tracer:
        banditchain.train(config, model, data, data, oracle)
    metrics = layer_metrics(tracer, exclude=())
    assert metrics["trainer.train.calls"] == 1
    assert metrics["chain.map_decode.calls"] == 3 * len(data)  # t = 0, 5, 10
    assert metrics["objectives.pr_sample_pair.calls"] == 10
    assert metrics["feedback.feedback_pair.calls"] == 10
    assert metrics["feedback.feedback.calls"] == 20
    assert 0.0 < metrics["chain.compile.miss_ratio"] < 1.0
    assert set(metrics) >= {f"{name}.{kind}" for name in span_names()
                            for kind in ("calls", "self_ms")}


def test_compile_misses_follow_the_models_cache():
    model = banditchain.ChainModel(banditchain.chunk_alphabet())
    x = banditchain.generate_chunk_instances(1, np.random.default_rng(0))[0]
    tracer = Tracer()
    tracer.begin_run("synthetic", "compile", 0)
    with tracer:
        model.compile(x)
        model.compile(x)  # hit
        model.clear_cache()
        model.compile(x)  # miss again: the cache was emptied
    metrics = layer_metrics(tracer, exclude=())
    assert metrics["chain.compile.calls"] == 3
    assert metrics["chain.compile.miss_ratio"] == pytest.approx(2 / 3)


def test_failed_gate_stops_the_run_before_timing(tmp_path, monkeypatch):
    import argparse

    import child

    class FailingReport:
        all_passed = False

        def lines(self):
            return ["PASS a", "FAIL b: broken"]

    monkeypatch.setattr(banditchain, "run_property_checks", lambda: FailingReport())
    write_inputs(WORKLOADS["chunk-train"].tiny(), 5, tmp_path)
    args = argparse.Namespace(dir=str(tmp_path), workload="chunk-train", seconds=0.0,
                              trace=0, spans=None, tiny=True)
    result = child.measure(args)
    assert (result["attempted"], result["failed"], result["rounds"]) == (1, 1, 0)
    assert result["errors"] == ["property checks: FAIL b: broken"]
    assert not any(result["samples"].values())


@pytest.mark.parametrize("margin, failed", [(0.7, 0), (-1.0, 1)])
def test_missed_learning_margin_trains_again_at_another_seed(margin, failed, tmp_path,
                                                             monkeypatch):
    import child
    from banditchain import SparseVector, dataio

    monkeypatch.setattr(child, "LEARNING_MARGIN", margin)
    write_inputs(WORKLOADS["chunk-train"].tiny(), 5, tmp_path)
    runner = child.Runner(WORKLOADS["chunk-train"].tiny(), tmp_path, clock=None)
    cfg = dataio.load_config(runner.configs["pr"])
    # a run that learned nothing: its checkpoint scores the zero-weight loss
    dataio.write_checkpoint(cfg.checkpoint_path, SparseVector())
    runner.verify("pr", cfg, {"selected": {"dev_loss": runner.baseline}}, 0)
    assert runner.relearned == [f"pr seed {cfg.seed}"]
    assert (runner.attempted, runner.failed) == (3, failed)
    assert dataio.read_checkpoint(cfg.checkpoint_path) == SparseVector()  # left as written


def test_typed_generator_is_seeded_and_well_formed_bio():
    first = typed_bio_instances(40, np.random.default_rng(3))
    again = typed_bio_instances(40, np.random.default_rng(3))
    other = typed_bio_instances(40, np.random.default_rng(4))
    assert first == again
    assert first != other
    for x in first:
        assert 20 <= len(x) <= 40
        previous = "O"
        for label in x.gold:
            assert label in TYPED_LABELS
            if label.startswith("I-"):
                assert previous in (f"B-{label[2:]}", label), (previous, label)
            previous = label


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_passes_the_correctness_gate(name, trace, tmp_path):
    workload = WORKLOADS[name].tiny()
    write_inputs(workload, 11, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "measure", str(tmp_path), "--workload", name,
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] > 0
    if trace:
        assert result["metrics"]["checks.run_property_checks.calls"] == 1
        assert result["metrics"]["dataio.run_train.calls"] == 3
        assert result["metrics"]["trace.overhead_ratio"] > 0.0
    else:
        assert set(result["metrics"]) == {
            "train_steps_per_s.el", "train_steps_per_s.pr", "train_steps_per_s.ce",
            "eval_tokens_per_s", "peak_rss_mb"}


def test_split_reads_back_written_spans(tmp_path):
    from split import read_spans, split

    tracer = Tracer()
    inner = tracer._wrap("trainer.evaluate", lambda: sum(range(20_000)), None)
    outer = tracer._wrap("dataio.run_train", lambda: inner() + sum(range(20_000)), None)
    tracer.begin_run("synthetic", "el", 0)
    outer()
    tracer.begin_run("synthetic", "eval", 0)
    inner()
    tracer.write(tmp_path / "spans.tsv.gz")
    result = split(read_spans(str(tmp_path / "spans.tsv.gz")))
    assert set(result["self_share"]["train"]) == {"dataio", "trainer"}
    assert sum(result["self_share"]["train"].values()) == pytest.approx(1.0, abs=0.002)
    assert result["self_share"]["eval"] == {"trainer": 1.0}
    assert 0.0 < result["in_run_train"]["el"]["trainer.evaluate"] < 1.0
    assert 0.0 < result["evaluate_share"] < 1.0


def test_host_clock_samples_through_a_block_and_stops():
    import time

    from hostspeed import PERIOD_S, HostClock, Timed

    with HostClock() as clock:
        with Timed(clock) as timed:
            time.sleep(2.5 * PERIOD_S)
        proc = clock.proc
    assert proc.poll() is not None
    assert timed.kernel_runs >= 3  # the edges and the periodic runs between them
    assert timed.raw_s >= 2.5 * PERIOD_S
    assert timed.seconds > 0.0
