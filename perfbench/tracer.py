"""In-process span tracer for the public functions of the banditchain modules.

The library's modules import each other's functions by name (for example
``from .chain import sample`` in ``trainer``), so wrapping ``chain.sample``
alone would miss every call made through ``trainer.sample``.  The tracer
therefore rebinds every module attribute that holds the original function
object, and sets class attributes for methods.  ``unpatch`` puts each of
those bindings back exactly as it found it.

A span is ``[name, start_ns, end_ns, parent_index, run_index]``; spans stay
in memory until the benchmark writes them out once at the end.  A span's
self time is its duration minus the durations of its direct children (calls
are strictly nested: the library is single-threaded).
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

PACKAGE = "banditchain"
# Traced names per layer (the module of that name): functions, and methods of
# one class.  Missing names are skipped, so the tracer keeps working after a
# function is merged away; its metrics then read 0 calls.
FUNCTIONS = {
    "chain": ("build_lattice", "sample_many", "sample", "expected_features", "prob",
              "log_partition", "extract_features", "map_decode"),
    "objectives": ("el_gradient", "pr_gradient", "ce_gradient", "pr_sample_pair",
                   "pair_expected_features"),
    "trainer": ("train", "evaluate", "select_best"),
    "diagnostics": ("convergence_report", "lipschitz_estimate", "variance_estimate"),
    "dataio": ("load_config", "read_dataset", "read_checkpoint", "write_checkpoint",
               "write_report", "run_train"),
    "checks": ("run_property_checks",),
}
METHODS = {
    "chain": ("ChainModel", ("compile",)),
    "feedback": ("FeedbackOracle", ("feedback", "feedback_pair")),
    "sparse": ("SparseVector", ("add_scaled", "scale", "scaled", "copy", "norm_sq")),
}


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{layer}.{m}" for layer, (_, ms) in METHODS.items() for m in ms]
    return names


def self_times(spans, keep: Callable[[list], bool] = lambda span: True) -> dict[str, tuple[int, int]]:
    """name -> (calls, self time in ns) over the finished spans that ``keep`` accepts.

    Children are subtracted from their parent whether or not they are kept.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for i, span in enumerate(spans):
        if keep(span):
            acc = out[span[0]]
            acc[0] += 1
            acc[1] += span[2] - span[1] - child_ns[i]
    return {name: (calls, ns) for name, (calls, ns) in out.items()}


class Tracer:
    """Wraps the library's public functions with span-recording shims."""

    def __init__(self):
        self.spans: list[list] = []
        self.runs: list[tuple] = []  # run ids; spans refer to them by index
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._run = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- run ids ---------------------------------------------------------------

    def begin_run(self, *run_id) -> None:
        """Tag the spans and counts that follow with run_id, e.g. (workload, objective, repeat)."""
        self.runs.append(tuple(run_id))
        self._run = len(self.runs) - 1

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self._run, name)] += value

    # -- patching ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        """Wrap fn in a span.  ``hook(args, kwargs)`` runs before the call and
        may return a function of the result, run after it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self._run]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                after = hook(args, kwargs) if hook is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                stack.pop()
                record[2] = clock()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self) -> None:
        """Install the wrappers on every binding of every traced function."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        prefix = PACKAGE + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(prefix))]
        hooks = self._hooks()
        for layer, fns in FUNCTIONS.items():
            home = sys.modules.get(prefix + layer)
            for fn_name in fns:
                original = getattr(home, fn_name, None) if home else None
                if original is None:
                    continue
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules.get(prefix + layer), cls_name, None)
            for method in methods if cls is not None else ():
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                name = f"{layer}.{method}"
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, hooks.get(name)))

    def unpatch(self) -> None:
        """Put back every binding that patch() replaced, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.patch()
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()

    # -- counters at the span boundaries --------------------------------------------

    def _hooks(self) -> dict[str, Callable]:
        count = self.count

        def arg(args, kwargs, pos, key):
            return args[pos] if len(args) > pos else kwargs[key]

        def compile_(args, kwargs):
            # a miss is a call whose instance is not in the model's own cache
            # (a model without one misses every time)
            model, x = args[0], arg(args, kwargs, 1, "x")
            if x not in getattr(model, "_compiled", ()):
                count("chain.compile.misses")

        def lattice(args, kwargs):
            return lambda result: count("chain.lattice_cells",
                                        result.node.size * result.node.shape[1])

        def gradient(kind, key):
            def hook(args, kwargs):
                if arg(args, kwargs, 4, key) == 0.0:
                    count(f"objectives.zero_feedback.{kind}")
                return lambda result: count("objectives.grad_nnz", len(result))
            return hook

        def touched_self(args, kwargs):
            count("sparse.entries_touched", len(args[0]))

        def touched_other(args, kwargs):
            count("sparse.entries_touched", len(arg(args, kwargs, 1, "other")))

        def train(args, kwargs):
            key = (self._run, "sparse.weights_nnz")

            def after(result):
                self.counters[key] = max(self.counters[key], len(result.final_weights))
            return after

        def checkpoint(args, kwargs):
            path = arg(args, kwargs, 0, "path")
            return lambda result: count("dataio.checkpoint_bytes", os.path.getsize(path))

        return {
            "chain.compile": compile_,
            "chain.build_lattice": lattice,
            "objectives.el_gradient": gradient("el", "delta"),
            "objectives.pr_gradient": gradient("pr", "delta_pair"),
            "objectives.ce_gradient": gradient("ce", "gain"),
            "sparse.add_scaled": touched_other,
            "sparse.scale": touched_self,
            "sparse.scaled": touched_self,
            "sparse.copy": touched_self,
            "sparse.norm_sq": touched_self,
            "trainer.train": train,
            "dataio.write_checkpoint": checkpoint,
        }

    # -- output ---------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as gzip'd TSV: name, start, end, parent, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        runs = ["/".join(str(part) for part in run) for run in self.runs]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trun\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{runs[run] if run >= 0 else ''}\n")


def layer_metrics(tracer: Tracer, exclude: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of everything traced, plus the property-check gate.

    Run ids are (workload, kind, repeat); spans and counts of the runs whose
    kind is in ``exclude`` are left out, except the gate's own check span.
    """
    work = {i for i, (_, kind, _) in enumerate(tracer.runs) if kind not in exclude}
    gate = {i for i, (_, kind, _) in enumerate(tracer.runs) if kind == "gate"}
    times = self_times(tracer.spans, lambda span: span[4] in work or (
        span[4] in gate and span[0] == "checks.run_property_checks"))
    calls = {name: times.get(name, (0, 0))[0] for name in span_names()}

    def total(counter: str) -> float:
        return sum(v for (run, name), v in tracer.counters.items() if name == counter and run in work)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: dict[str, float] = {}
    for name in span_names():
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_ms"] = times.get(name, (0, 0))[1] / 1e6
    metrics["chain.compile.miss_ratio"] = share(total("chain.compile.misses"), calls["chain.compile"])
    metrics["chain.lattice_cells"] = total("chain.lattice_cells")
    for kind in ("el", "pr", "ce"):
        metrics[f"objectives.zero_feedback_share.{kind}"] = share(
            total(f"objectives.zero_feedback.{kind}"), calls[f"objectives.{kind}_gradient"])
    metrics["objectives.grad_nnz_mean"] = share(
        total("objectives.grad_nnz"),
        sum(calls[f"objectives.{k}_gradient"] for k in ("el", "pr", "ce")))
    metrics["sparse.entries_touched"] = total("sparse.entries_touched")
    metrics["sparse.weights_nnz"] = max(
        (v for (run, name), v in tracer.counters.items()
         if name == "sparse.weights_nnz" and run in work), default=0)
    metrics["dataio.checkpoint_bytes"] = total("dataio.checkpoint_bytes")
    return metrics
