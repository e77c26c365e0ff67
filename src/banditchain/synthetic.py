"""Synthetic BIO chunking data, separable by construction.

Every token belongs to exactly one label class (B, I or O vocabulary), so a
model with per-token emission features can label the data perfectly; that
makes learning progress on it a meaningful check rather than a coin flip.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainInstance, LabelAlphabet

CHUNK_LABELS = ("O", "B", "I")

_VOCAB = {
    "B": ("bay", "bell", "bird"),
    "I": ("ice", "iris", "island"),
    "O": ("oak", "ocean", "opal"),
}

# Valid next labels and their probabilities, keeping chunks BIO-well-formed.
_NEXT = {
    "O": (("O", 0.55), ("B", 0.45)),
    "B": (("I", 0.5), ("O", 0.3), ("B", 0.2)),
    "I": (("I", 0.4), ("O", 0.4), ("B", 0.2)),
}


def chunk_alphabet() -> LabelAlphabet:
    return LabelAlphabet(CHUNK_LABELS)


def _draw(rng: np.random.Generator, options) -> str:
    labels, probs = zip(*options)
    return labels[rng.choice(len(labels), p=np.array(probs))]


def generate_chunk_instances(count: int, rng: np.random.Generator) -> list[ChainInstance]:
    """Generate BIO-labeled instances, 3 to 10 tokens long, whose tokens
    determine their labels."""
    if count <= 0:
        raise ValueError("count must be positive")
    instances = []
    for _ in range(count):
        n = int(rng.integers(3, 11))
        labels = ["O" if rng.random() < 0.5 else "B"]
        for _ in range(n - 1):
            labels.append(_draw(rng, _NEXT[labels[-1]]))
        tokens = [_VOCAB[lab][int(rng.integers(3))] for lab in labels]
        instances.append(ChainInstance(tokens=tuple(tokens), gold=tuple(labels)))
    return instances
