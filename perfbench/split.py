"""Where a traced run's time went, from the spans file it wrote.

    python3 perfbench/split.py perfbench/out/chunk-train-s7-t1.spans.tsv.gz [...]

For each file it prints one JSON object:

- ``self_share``: each layer's share of the summed self time, separately for
  the training runs (run kinds el, pr, ce) and the timed eval passes;
- ``in_run_train``: per objective, the inclusive time of the main parts of
  ``dataio.run_train`` (the training loop, dev evaluation, diagnostics and
  artifact I/O) as a share of ``run_train``'s own inclusive time;
- ``evaluate_share``: the inclusive time of ``trainer.evaluate``, in the
  training runs and the eval passes together, as a share of their whole time.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict

GROUPS = {"train": ("el", "pr", "ce"), "eval": ("eval",)}
PARTS = ("trainer.train", "trainer.evaluate", "diagnostics.convergence_report",
         "dataio.read_dataset", "dataio.write_checkpoint", "dataio.write_report")


def read_spans(path: str) -> list[tuple[str, int, int, int, str]]:
    """(name, start_ns, end_ns, parent index, run kind) of every span."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        next(fh)  # header
        rows = []
        for line in fh:
            _, name, start, end, parent, run = line.rstrip("\n").split("\t")
            kind = run.split("/")[1] if run else ""
            rows.append((name, int(start), int(end), int(parent), kind))
    return rows


def split(rows) -> dict:
    child_ns = [0] * len(rows)
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = {group: defaultdict(int) for group in GROUPS}
    inclusive = {kind: defaultdict(int) for kind in GROUPS["train"]}
    evaluate_ns = round_ns = 0
    for i, (name, start, end, parent, kind) in enumerate(rows):
        for group, kinds in GROUPS.items():
            if kind in kinds:
                self_ns[group][name.split(".")[0]] += end - start - child_ns[i]
                round_ns += end - start if parent < 0 else 0
                evaluate_ns += end - start if name == "trainer.evaluate" else 0
        if kind in inclusive and (name == "dataio.run_train" or name in PARTS):
            inclusive[kind][name] += end - start

    def shares(ns: dict, total: int) -> dict:
        return {k: round(v / total, 3) for k, v in sorted(ns.items(), key=lambda kv: -kv[1])}

    return {
        "self_share": {group: shares(ns, sum(ns.values())) for group, ns in self_ns.items()
                       if ns},
        "in_run_train": {kind: {"run_train_ms": round(ns["dataio.run_train"] / 1e6),
                                **shares({p: ns[p] for p in PARTS}, ns["dataio.run_train"])}
                         for kind, ns in inclusive.items() if ns["dataio.run_train"]},
        "evaluate_share": round(evaluate_ns / round_ns, 3) if round_ns else 0.0,
    }


def main(argv: list[str]) -> int:
    for path in argv:
        print(json.dumps({"spans": path, **split(read_spans(path))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
