"""Simulated bandit feedback: task losses scored against held-back gold.

The learner only ever sees scalar loss values in [0, 1].  This is the one
module that reads gold labelings.  It scores paths of label indices, by one
route per caller: the oracle's ``feedback_paths`` scores the trainer's
draws, and ``dataset_losses`` evaluation's decoded paths; neither returns a
labeling.  Both reject a gold label that is not among the model's labels.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from functools import lru_cache
from operator import ne
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .chain import ChainInstance
from .objectives import pair_feedback

Labeling = Sequence[str]
LossFn = Callable[[Labeling, Labeling], float]

_BIO_LABEL = re.compile(r"^(O|[BI](-.+)?)$")


class LossKind(Enum):
    HAMMING = "hamming"
    CHUNK_F1 = "chunk-f1"

    @classmethod
    def parse(cls, name: "str | LossKind") -> "LossKind":
        if isinstance(name, LossKind):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown loss {name!r} (expected one of {options})") from None


def hamming_loss(gold: Labeling, pred: Labeling) -> float:
    """Fraction of positions whose labels disagree."""
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: gold {len(gold)} vs pred {len(pred)}")
    mismatches = sum(1 for g, p in zip(gold, pred) if g != p)
    return mismatches / len(gold)


def hamming_losses(gold: np.ndarray, pred: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``hamming_loss`` of each row of two padded (B, n_max) label-index
    arrays, over the first lengths[b] positions of row b; bit-equal to it."""
    live = np.arange(gold.shape[1]) < lengths[:, None]
    return np.count_nonzero((gold != pred) & live, axis=1) / lengths


@lru_cache(maxsize=1024)
def _bio_tag(label: str) -> tuple[str, str]:
    """(tag, chunk type) of a BIO label, parsed once per distinct label."""
    if not _BIO_LABEL.match(label):
        raise ValueError(f"label {label!r} is not a BIO tag")
    tag, _, chunk_type = label.partition("-")
    return tag, chunk_type


def bio_spans(labels: Labeling) -> set[tuple[int, int, str]]:
    """Chunks (start, end inclusive, type) under the BIO convention.

    A B tag always opens a span.  An I tag continues the open span of the
    same type; after O, at the start, or after a different type it opens a
    new span of its own type.  Each distinct label is parsed once and
    remembered; a label that is not a BIO tag raises ``ValueError``.
    """
    spans: set[tuple[int, int, str]] = set()
    start = None
    kind = None
    for i, (tag, chunk_type) in enumerate(map(_bio_tag, labels)):
        if tag == "O":
            if start is not None:
                spans.add((start, i - 1, kind))
                start = None
            continue
        if tag == "B" or start is None or chunk_type != kind:
            if start is not None:
                spans.add((start, i - 1, kind))
            start = i
            kind = chunk_type
    if start is not None:
        spans.add((start, len(labels) - 1, kind))
    return spans


@lru_cache(maxsize=1 << 14)
def _gold_spans(gold: tuple[str, ...]) -> frozenset[tuple[int, int, str]]:
    return frozenset(bio_spans(gold))


def _check_labels(labels: tuple[str, ...], gold: tuple[str, ...]) -> tuple[str, ...]:
    """gold, or a ValueError that names a gold label not among labels."""
    for g in gold:
        if g not in labels:
            raise ValueError(f"gold label {g!r} is not among the labels {labels}")
    return gold


@lru_cache(maxsize=1 << 14)
def _gold_indices(labels: tuple[str, ...], gold: tuple[str, ...]) -> tuple[int, ...]:
    """gold as indices into labels, after ``_check_labels``."""
    return tuple(map(labels.index, _check_labels(labels, gold)))


def require_gold(instances: Sequence[ChainInstance]) -> None:
    """A ValueError unless every instance has a gold labeling to score against."""
    if any(x.gold is None for x in instances):
        raise ValueError("instance has no gold labeling; cannot simulate feedback")


def chunk_f1_loss(gold: Labeling, pred: Labeling) -> float:
    """1 - F1 over exact BIO span matches.

    Both span sets empty counts as a perfect prediction (loss 0); exactly
    one empty as a total miss (loss 1).  The spans of a gold labeling are
    remembered (keyed by ``tuple(gold)``, most recent 16384), so scoring the
    same dataset again parses only the predictions.
    """
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: gold {len(gold)} vs pred {len(pred)}")
    gold_spans = _gold_spans(tuple(gold))
    pred_spans = bio_spans(pred)
    if not gold_spans and not pred_spans:
        return 0.0
    if not gold_spans or not pred_spans:
        return 1.0
    tp = len(gold_spans & pred_spans)
    if tp == 0:
        return 1.0
    precision = tp / len(pred_spans)
    recall = tp / len(gold_spans)
    return 1.0 - 2.0 * precision * recall / (precision + recall)


class SpanKeys(NamedTuple):
    """The BIO spans of a batch of labelings, each as one int key."""

    keys: np.ndarray  # ((row * n_max + start) * n_max + end) * L + type, ascending
    rows: np.ndarray  # the row of each key
    counts: np.ndarray  # spans per row, (B,)


@lru_cache(maxsize=64)
def _bio_tables(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(is O, is B, type number) of each label index; ``ValueError`` as
    ``bio_spans`` raises it when a label is not a BIO tag."""
    tags = [_bio_tag(label) for label in labels]
    types = {kind: t for t, kind in enumerate(dict.fromkeys(kind for _, kind in tags))}
    return (np.array([tag == "O" for tag, _ in tags]),
            np.array([tag == "B" for tag, _ in tags]),
            np.array([types[kind] for _, kind in tags], dtype=np.int64))


def bio_span_keys(paths: np.ndarray, lengths: np.ndarray, labels: Sequence[str]) -> SpanKeys:
    """The spans ``bio_spans`` finds in each row of a padded (B, n_max)
    label-index array, over the first lengths[b] positions of row b.

    A span starts at a non-O label that is a B, comes first or follows an O
    or another type; it ends where the next label is not its continuation.
    """
    is_o, is_b, type_of = _bio_tables(tuple(labels))
    B, n_max = paths.shape
    inside = ~is_o[paths] & (np.arange(n_max) < lengths[:, None])
    kind = type_of[paths]
    starts = inside & is_b[paths]
    starts[:, 0] |= inside[:, 0]
    starts[:, 1:] |= inside[:, 1:] & (~inside[:, :-1] | (kind[:, 1:] != kind[:, :-1]))
    ends = inside.copy()
    ends[:, :-1] &= ~(inside[:, 1:] & ~starts[:, 1:])
    # spans do not overlap, so the k-th start and the k-th end in row-major
    # order belong to the same span
    first = np.flatnonzero(starts)
    last = np.flatnonzero(ends) % n_max
    rows = first // n_max
    keys = (first * n_max + last) * len(labels) + kind.ravel()[first]
    return SpanKeys(keys, rows, np.bincount(rows, minlength=B))


def chunk_f1_losses(gold: SpanKeys, pred: SpanKeys) -> np.ndarray:
    """``chunk_f1_loss`` of each row from the span keys of both sides;
    bit-equal to it: the same IEEE operations in the same order."""
    # a key is a hit when the ascending gold keys hold it
    hit = np.searchsorted(gold.keys, pred.keys, "left") != np.searchsorted(gold.keys, pred.keys,
                                                                           "right")
    tp = np.bincount(pred.rows[hit], minlength=len(pred.counts))
    out = np.where((gold.counts == 0) & (pred.counts == 0), 0.0, 1.0)
    ok = tp > 0
    tp = tp[ok]
    precision = tp / pred.counts[ok]
    recall = tp / gold.counts[ok]
    out[ok] = 1.0 - 2.0 * precision * recall / (precision + recall)
    return out


def check_dataset(data: Sequence[ChainInstance], loss: LossFn) -> None:
    """A ValueError unless loss is ``hamming_loss`` or ``chunk_f1_loss`` (the
    very function objects: ``dataset_losses``' two routes) and data has gold."""
    if loss is not hamming_loss and loss is not chunk_f1_loss:
        raise ValueError(f"a dataset is scored by hamming_loss or chunk_f1_loss, not {loss!r}")
    require_gold(data)


def dataset_gold(data: Sequence[ChainInstance], labels: Sequence[str], memo: dict) -> np.ndarray:
    """The gold label indices of data, zero-padded to (B, n_max) and kept in
    memo (``ChainModel.batch_memo(data)``); a ``ValueError`` names a gold
    label outside labels."""
    if "gold" not in memo:
        labels = tuple(labels)
        flat = list(itertools.chain.from_iterable(_gold_indices(labels, x.gold) for x in data))
        lengths = np.array([len(x) for x in data], dtype=np.intp)
        gold = memo["gold"] = np.zeros((len(data), lengths.max()), dtype=np.intp)
        gold[np.arange(gold.shape[1]) < lengths[:, None]] = flat
    return memo["gold"]


def dataset_losses(
    data: Sequence[ChainInstance], paths: np.ndarray, lengths: np.ndarray,
    labels: Sequence[str], memo: dict, loss: LossFn,
) -> list[float]:
    """The loss of each instance of data against its row of paths, a padded
    (B, n_max) label-index array cut to lengths[b] in row b; data and loss
    as ``check_dataset`` passes them.

    memo, kept with the dataset, holds the padded gold label indices
    (``dataset_gold``) and the gold span keys.  ``hamming_losses``, or
    ``chunk_f1_losses`` over ``bio_span_keys``, scores the label indices,
    bit-equal to the loss of each labeling.
    """
    gold = dataset_gold(data, labels, memo)
    if loss is hamming_loss:
        return hamming_losses(gold, paths, lengths).tolist()
    if "gold spans" not in memo:
        memo["gold spans"] = bio_span_keys(gold, lengths, labels)
    return chunk_f1_losses(memo["gold spans"], bio_span_keys(paths, lengths, labels)).tolist()


_LOSS_FNS: dict[LossKind, LossFn] = {
    LossKind.HAMMING: hamming_loss,
    LossKind.CHUNK_F1: chunk_f1_loss,
}


def loss_fn(kind: "str | LossKind") -> LossFn:
    return _LOSS_FNS[LossKind.parse(kind)]


class FeedbackOracle:
    """Scores predictions against gold, exposing only scalars.

    No public operation returns a labeling; the learner can request the loss
    of each of a batch of label-index paths (or the pairwise feedback for
    ordered pairs of them) and nothing else.
    """

    def __init__(self, kind: "str | LossKind" = LossKind.HAMMING):
        self.kind = LossKind.parse(kind)
        self._loss = _LOSS_FNS[self.kind]

    def __repr__(self) -> str:
        return f"FeedbackOracle({self.kind.value!r})"

    @property
    def loss(self) -> LossFn:
        """The pointwise loss function (gold, pred) -> [0, 1]."""
        return self._loss

    def check(self, instances: Sequence[ChainInstance], labels: Sequence[str]) -> None:
        """A ValueError unless every instance has gold, all of it among
        labels; ``train``'s first check."""
        require_gold(instances)
        for x in instances:
            _check_labels(tuple(labels), x.gold)

    def feedback_paths(
        self, instances: Sequence[ChainInstance], paths: np.ndarray,
        labels: Sequence[str], mode: Optional[str] = None,
    ) -> list[float]:
        """Bandit feedback for label-index paths: one value per instance.

        paths is a (C * len(instances), n_max) int array of indices into
        labels; row C * b + c is a labeling of instances[b] over its first
        len(instances[b]) positions.  Without a pair mode C is 1 and each
        value is the loss of that labeling; with one, C is 2 and each value
        is ``pair_feedback`` of the losses of the ordered pair (row 2b,
        row 2b + 1).  Under Hamming each row is compared with its instance's
        gold label indices (``_gold_indices``); under chunk F1 each row is
        scored as a label tuple by the loss itself.  An instance without
        gold, a gold label outside labels, paths that are not 2-D with C
        rows per instance, or shorter than an instance, or a live entry that
        is not a label index, raise ``ValueError``.
        """
        require_gold(instances)
        if paths.ndim != 2:
            raise ValueError(f"paths must be a 2-D array, got shape {paths.shape}")
        if len(paths) != (1 if mode is None else 2) * len(instances):
            raise ValueError(f"{len(paths)} paths for {len(instances)} instances "
                             f"in pair mode {mode!r}")
        hamming, labels = self.kind is LossKind.HAMMING, tuple(labels)
        golds = [_gold_indices(labels, x.gold) if hamming else _check_labels(labels, x.gold)
                 for x in instances]
        if paths.shape[1] < max(map(len, golds), default=0):
            raise ValueError(f"paths of length {paths.shape[1]} are shorter than an instance")
        if mode is not None:  # each instance scores two rows
            golds = [gold for gold in golds for _ in range(2)]
        rows = paths.tolist()
        lookup = dict(enumerate(range(len(labels)) if hamming else labels)).__getitem__
        try:  # a lookup per live entry: all but a label index is a KeyError
            if hamming:
                losses = [sum(map(ne, gold, map(lookup, row))) / len(gold)
                          for gold, row in zip(golds, rows)]
            else:
                losses = [self._loss(gold, list(map(lookup, row[:len(gold)])))
                          for gold, row in zip(golds, rows)]
        except KeyError as exc:
            raise ValueError(f"path entry {exc.args[0]!r} is not a label index") from None
        if mode is None:
            return losses
        return [pair_feedback(first, second, mode)
                for first, second in zip(losses[::2], losses[1::2])]
