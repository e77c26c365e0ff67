"""Benchmark workloads: seeded inputs, written as TSV data plus run configs.

Each workload writes ``train.tsv``, ``dev.tsv``, ``test.tsv`` and one run
config per objective into a directory, so the measured process drives the
library exactly as the command line does (``load_config`` -> ``run_train``).
The configs name no test set: ``run_train`` would decode it on every training
run, so it is scored only by the timed ``eval`` passes.
The learning rates are those of the acceptance suite's learning criterion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from banditchain import ChainInstance, chunk_alphabet, generate_chunk_instances, write_dataset

OBJECTIVES = {
    "el": {"objective": "el", "gamma": 0.1},
    "pr": {"objective": "pr-cont", "gamma": 0.1},
    "ce": {"objective": "ce", "gamma": 5e-4, "clip_k": 0.05, "l2_lambda": 1e-6},
}

TYPES = ("PER", "LOC", "ORG", "MISC")
TYPED_LABELS = ("O",) + tuple(f"{tag}-{t}" for t in TYPES for tag in ("B", "I"))


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; ``tiny`` shrinks it for the self-tests."""

    name: str
    labels: tuple[str, ...]
    make_data: Callable[[np.random.Generator, int, int, int], tuple[list, list, list]]
    sizes: tuple[int, int, int]  # train, dev, test instances
    iterations: dict[str, int]  # per objective key
    epoch_size: int
    eval_every: "int | None"  # None: dev evaluation only at t=0 and t=T
    loss: str = "hamming"
    emission_offsets: tuple[int, ...] = (0,)
    extra: dict = field(default_factory=dict)  # further RunConfig keys
    eval_passes: int = 3  # test-set evaluation passes timed together after each training run
    learns: bool = True  # gate: best dev loss <= 0.7 x the zero-weight loss

    def tiny(self) -> "Workload":
        """The same workload at smoke-test size, with dense dev checkpoints."""
        return replace(self, sizes=(30, 30, 20),
                       iterations={key: min(t, 600) for key, t in self.iterations.items()},
                       epoch_size=min(self.epoch_size, 100), eval_every=20, eval_passes=1)


def _chunk_data(rng, n_train, n_dev, n_test):
    return tuple(generate_chunk_instances(k, rng) for k in (n_train, n_dev, n_test))


def typed_bio_instances(
    count: int,
    rng: np.random.Generator,
    vocab_per_class: int = 1000,
    min_len: int = 20,
    max_len: int = 40,
) -> list[ChainInstance]:
    """Sentences over typed BIO labels with a long-tailed vocabulary.

    Each entity type and the outside class draw from their own vocabulary of
    ``vocab_per_class`` token types with probability proportional to
    rank^-0.5, so a corpus of a thousand sentences holds a few thousand
    distinct tokens and most sentences bring new ones.  An I tag only ever
    follows a B or I tag of the same type, so every labeling is well-formed BIO.
    """
    weights = np.arange(1, vocab_per_class + 1, dtype=float) ** -0.5
    zipf = weights / weights.sum()
    out = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        ranks = rng.choice(vocab_per_class, size=n, p=zipf)
        labels, tokens = [], []
        kind = None  # entity type of the open chunk, if any
        for rank in ranks:
            u = rng.random()
            if kind is not None and u < 0.45:
                lab = f"I-{kind}"
            elif u < 0.75:
                lab, kind = "O", None
            else:
                kind = TYPES[int(rng.integers(len(TYPES)))]
                lab = f"B-{kind}"
            vocab = kind.lower() if kind else "o"
            labels.append(lab)
            tokens.append(f"{vocab}{rank}")
        out.append(ChainInstance(tokens=tuple(tokens), gold=tuple(labels)))
    return out


def _typed_data(rng, n_train, n_dev, n_test):
    return tuple(typed_bio_instances(k, rng) for k in (n_train, n_dev, n_test))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chunk-train",
            labels=tuple(chunk_alphabet().labels),
            make_data=_chunk_data,
            sizes=(200, 50, 2000),
            # every chunk-* run must reach the learning margin by t=T.  EL and
            # CE can keep the zero-weight decode for a while: over ~670 EL and
            # ~200 CE sampling seeds at this shape, up to 2500 and 1700 steps,
            # and 2000 steps or more on 1 EL seed in 200.  With dev scored only
            # at t=0 and t=T, 4000 steps leave room, and a run that misses is
            # trained again (child.py).  The step rates vary with the trajectory
            # (a zero-loss sample costs less); 4000 steps average that out
            iterations={"el": 4000, "pr": 4000, "ce": 4000},
            epoch_size=200,
            eval_every=None,
        ),
        Workload(
            name="chunk-evaldense",
            labels=tuple(chunk_alphabet().labels),
            make_data=_chunk_data,
            sizes=(200, 500, 2000),
            # shorter than chunk-train, so that two rounds fit in a run: a run
            # that misses the learning margin is trained again (child.py), and
            # PR reached the margin within 1000 steps on each of ~260 seeds
            iterations={"el": 3000, "pr": 2000, "ce": 3000},
            epoch_size=200,
            eval_every=100,
        ),
        Workload(
            name="typed-wide",
            labels=TYPED_LABELS,
            make_data=_typed_data,
            sizes=(1000, 60, 150),
            # a PR step skips the update when the pair has no preference, which
            # happens at a seed-dependent rate; more steps average it out
            iterations={"el": 160, "pr": 320, "ce": 160},
            epoch_size=20,
            # with dev scored only at t=T, an EL run that finds no chunk there
            # selects t=0, and the eval passes would decode with an empty w
            eval_every=40,
            loss="chunk-f1",
            emission_offsets=(-1, 0, 1),
            extra={"lipschitz_pairs": 100},
            eval_passes=6,  # three passes of this test set take only ~0.6 s
            learns=False,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Generate the workload's data from seed; return objective -> config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for split, data in zip(("train", "dev", "test"), workload.make_data(rng, *workload.sizes)):
        write_dataset(out_dir / f"{split}.tsv", data)
    configs = {}
    for key, params in OBJECTIVES.items():
        config = {
            "labels": list(workload.labels),
            "train_path": "train.tsv",
            "dev_path": "dev.tsv",
            "loss": workload.loss,
            "emission_offsets": list(workload.emission_offsets),
            "iterations": workload.iterations[key],
            "epoch_size": workload.epoch_size,
            "eval_every": workload.eval_every or workload.iterations[key],
            "seed": seed,
            "report_path": f"{key}.report.json",
            "checkpoint_path": f"{key}.ckpt",
            **workload.extra,
            **params,
        }
        configs[key] = out_dir / f"{key}.config.json"
        configs[key].write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return configs
