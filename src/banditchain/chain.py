"""Linear-chain log-linear models with exact inference.

A model assigns each labeling ``y`` of a token sequence ``x`` the score
``w . phi(x, y)``, where ``phi`` decomposes into per-position emission
features (token window x label) and adjacent-pair transition features.  The
conditional distribution is ``p_w(y|x) = exp(w . phi(x, y)) / Z_w(x)``.
Because the features decompose over positions and adjacent label pairs, the
partition function, feature expectations, exact samples and the MAP labeling
are all computable by dynamic programming over a small lattice.

All dynamic programs run in log-space with log-sum-exp stabilization.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .sparse import SparseVector

Labeling = Sequence[str]

_SEP = "\x1f"
_BOS = "<S>"
_EOS = "</S>"


def _logsumexp(a: np.ndarray, axis: Optional[int] = None) -> "np.ndarray | float":
    """Stable log-sum-exp for finite inputs; lean enough for tiny DP arrays."""
    # the ufuncs' own reductions: np.max and np.sum reduce the same way but
    # cost more in call overhead than the arithmetic on arrays this small
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    out = m.squeeze(axis) if axis is not None else m.reshape(())
    return out + np.log(np.add.reduce(np.exp(a - m), axis=axis))


def feature_id(template: str) -> int:
    """Stable 63-bit feature id for a template string.

    Ids depend only on the template text, so they are identical across runs
    and processes; checkpoints keyed by id stay portable.
    """
    digest = hashlib.blake2b(template.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class LabelAlphabet:
    """Ordered set of at least two distinct label symbols."""

    def __init__(self, labels: Sequence[str]):
        labels = tuple(str(lab) for lab in labels)
        if len(labels) < 2:
            raise ValueError("alphabet needs at least 2 labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelAlphabet):
            return NotImplemented
        return self.labels == other.labels

    def __repr__(self) -> str:
        return f"LabelAlphabet({list(self.labels)!r})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r} (alphabet {self.labels})") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def indices(self, labeling: Labeling) -> np.ndarray:
        return np.array([self.index(lab) for lab in labeling], dtype=np.int64)


@dataclass(frozen=True)
class ChainInstance:
    """A token sequence with an optional gold labeling.

    The gold labeling is never consulted by the learner directly; it exists
    only so a feedback oracle can score predictions against it.
    """

    tokens: tuple[str, ...]
    gold: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) == 0:
            raise ValueError("instance needs at least one token")
        if self.gold is not None:
            object.__setattr__(self, "gold", tuple(self.gold))
            if len(self.gold) != len(self.tokens):
                raise ValueError(
                    f"gold length {len(self.gold)} != token length {len(self.tokens)}"
                )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class ChainLattice:
    """Log-space potentials of one (w, x): node (n, L) and trans (L, L).

    ``node[i, l]`` scores label l at position i; ``trans[a, b]`` scores the
    label pair (a, b), the same at every adjacent pair of positions.
    """

    node: np.ndarray
    trans: np.ndarray

    @property
    def n(self) -> int:
        return self.node.shape[0]

    @property
    def num_labels(self) -> int:
        return self.node.shape[1]


class ChainModel:
    """Feature templates binding a label alphabet to a first-order chain.

    Emission templates pair the token at a configurable offset from the
    current position with the position's label; the transition template
    fires once per adjacent label pair, so its L x L id table ``transition``
    ([from label][to label] -> feature id) is built once per model.
    Extraction is deterministic.  Ids are stable hashes of the template
    strings; an always-on registry detects hash collisions.
    """

    def __init__(self, alphabet: LabelAlphabet, emission_offsets: Sequence[int] = (0,)):
        self.alphabet = alphabet
        self.emission_offsets = tuple(int(o) for o in emission_offsets)
        self._registry: dict[int, str] = {}
        self._compiled: dict[ChainInstance, tuple] = {}
        labels = alphabet.labels
        self.transition = tuple(
            tuple(self._fid(f"tr{_SEP}{a}{_SEP}{b}") for b in labels) for a in labels
        )

    def _fid(self, template: str) -> int:
        fid = feature_id(template)
        known = self._registry.setdefault(fid, template)
        if known != template:
            raise RuntimeError(f"feature id collision: {template!r} vs {known!r} -> {fid}")
        return fid

    def compile(self, x: ChainInstance) -> tuple:
        """The emission id table of x, [position][label index] -> tuple of ids; cached."""
        cached = self._compiled.get(x)
        if cached is not None:
            return cached
        n = len(x)
        labels = self.alphabet.labels
        emission = []
        for i in range(n):
            per_label = []
            ctx = []
            for off in self.emission_offsets:
                j = i + off
                tok = _BOS if j < 0 else _EOS if j >= n else x.tokens[j]
                ctx.append((off, tok))
            for lab in labels:
                per_label.append(
                    tuple(
                        self._fid(f"em{off}{_SEP}{tok}{_SEP}{lab}") for off, tok in ctx
                    )
                )
            emission.append(tuple(per_label))
        compiled = tuple(emission)
        self._compiled[x] = compiled
        return compiled

    def clear_cache(self) -> None:
        self._compiled.clear()

    def instance_feature_ids(self, x: ChainInstance) -> list[int]:
        """All feature ids that can fire for ``x`` under any labeling, sorted."""
        fids: set[int] = set()
        for per_label in self.compile(x):
            for group in per_label:
                fids.update(group)
        if len(x) > 1:
            for row in self.transition:
                fids.update(row)
        return sorted(fids)

    def feature_norm_bound(self, x: ChainInstance) -> float:
        """Upper bound on ||phi(x, y)||_2 over every labeling y.

        Features are indicator counts, so the 2-norm is at most the total
        number of firings: n templates per position plus n-1 transitions.
        """
        n = len(x)
        return float(n * len(self.emission_offsets) + n - 1)


def extract_features(model: ChainModel, x: ChainInstance, y: Labeling) -> SparseVector:
    """The joint feature vector phi(x, y): emission and transition counts."""
    if len(y) != len(x):
        raise ValueError(f"labeling length {len(y)} != instance length {len(x)}")
    idx = model.alphabet.indices(y)
    emission = model.compile(x)
    acc: dict[int, float] = {}
    for i, li in enumerate(idx):
        for fid in emission[i][li]:
            acc[fid] = acc.get(fid, 0.0) + 1.0
    for i in range(len(idx) - 1):
        fid = model.transition[idx[i]][idx[i + 1]]
        acc[fid] = acc.get(fid, 0.0) + 1.0
    return SparseVector(acc)


def build_lattice(model: ChainModel, w: SparseVector, x: ChainInstance) -> ChainLattice:
    """Materialize node and transition potentials w . phi restricted to each factor."""
    emission = model.compile(x)
    n = len(x)
    L = len(model.alphabet)
    node = np.zeros((n, L))
    wget = w.get
    for i in range(n):
        per_label = emission[i]
        for li in range(L):
            node[i, li] = sum(wget(fid, 0.0) for fid in per_label[li])
    trans = np.array([[wget(fid, 0.0) for fid in row] for row in model.transition])
    return ChainLattice(node=node, trans=trans)


def lattice_score(lattice: ChainLattice, label_indices: Sequence[int]) -> float:
    """Path score w . phi(x, y) recomputed from lattice potentials."""
    idx = np.asarray(label_indices, dtype=np.int64)
    if idx.shape[0] != lattice.n:
        raise ValueError("label path length does not match lattice")
    score = float(lattice.node[np.arange(lattice.n), idx].sum())
    if lattice.n > 1:
        score += float(lattice.trans[idx[:-1], idx[1:]].sum())
    return score


def _forward(lattice: ChainLattice) -> np.ndarray:
    """Forward messages: alpha[i, l] = logsumexp over prefixes ending in l."""
    node, trans = lattice.node, lattice.trans
    alpha = np.empty_like(node)
    alpha[0] = node[0]
    for i in range(1, lattice.n):
        alpha[i] = node[i] + _logsumexp(alpha[i - 1][:, None] + trans, axis=0)
    return alpha


def _backward(lattice: ChainLattice) -> np.ndarray:
    """Backward messages: beta[i, l] = logsumexp over suffixes starting after l."""
    node, trans = lattice.node, lattice.trans
    beta = np.zeros_like(node)
    for i in range(lattice.n - 2, -1, -1):
        beta[i] = _logsumexp(trans + (node[i + 1] + beta[i + 1])[None, :], axis=1)
    return beta


class ChainPosterior:
    """The exact distribution p_w(y|x) for one (w, x), over one lattice.

    Sampling, probabilities and feature expectations all read the same
    lattice and messages.  The backward messages are computed once, on
    construction: every training step samples, and the sampler normalizes
    by them.  The sampler's table of cumulative conditionals, the forward
    messages and log Z wait for first use, so repeated draws build the table
    once and a step with zero feedback never runs the forward pass.
    ``negated()`` is the posterior under -w, over this lattice negated, so w
    is never copied.
    """

    def __init__(self, model: ChainModel, x: ChainInstance, lattice: ChainLattice):
        self.model = model
        self.x = x
        self.lattice = lattice
        self.beta = _backward(lattice)
        self._negated: Optional[ChainPosterior] = None

    @cached_property
    def alpha(self) -> np.ndarray:
        return _forward(self.lattice)

    @cached_property
    def log_z(self) -> float:
        return float(_logsumexp(self.alpha[-1]))

    def negated(self) -> "ChainPosterior":
        """The posterior p_{-w}(y|x), built once and shared."""
        if self._negated is None:
            lattice = ChainLattice(node=-self.lattice.node, trans=-self.lattice.trans)
            self._negated = ChainPosterior(self.model, self.x, lattice)
            self._negated._negated = self
        return self._negated

    @cached_property
    def _sampler_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(cum0, cum): the cumulative p(y_0), shape (L,), and the cumulative
        conditional rows cum[i - 1, a] of p(y_i | y_{i-1} = a), shape (n-1, L, L)."""
        lattice, beta = self.lattice, self.beta
        logp0 = lattice.node[0] + beta[0]
        p0 = np.exp(logp0 - _logsumexp(logp0))
        p0 /= p0.sum()
        cond = np.exp(lattice.trans + (lattice.node[1:] + beta[1:])[:, None, :]
                      - beta[:-1, :, None])
        cond /= cond.sum(axis=2, keepdims=True)
        return np.cumsum(p0), np.cumsum(cond, axis=2)

    def sample_many(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact i.i.d. samples, as a (size, n) array of label indices.

        Backward filtering / forward sampling: row a at position i is
        p(y_i | y_{i-1} = a) = exp(trans[a] + node[i] + beta[i] - beta[i-1, a]),
        so the backward messages normalize every conditional and one
        left-to-right pass draws from the joint.  The rows' cumulative sums
        form one table per posterior, built on the first draw and reused by
        every later one.  Position i of every draw reads the uniforms of
        ``rng.random((n, size))[i]`` and takes the first label whose
        cumulative mass exceeds its uniform.  A single draw walks only the
        rows it takes, each as a Python list; a batch gathers its rows by the
        previous labels.  Deterministic given the rng.
        """
        cum0, cum = self._sampler_table
        n, L = self.lattice.node.shape
        last = L - 1
        u = rng.random((n, size))
        if size == 1:
            # bisect_right on a nondecreasing row counts the entries <= u
            u_walk = u[:, 0].tolist()
            label = min(bisect_right(cum0.tolist(), u_walk[0]), last)
            path = [label]
            for i in range(1, n):
                label = min(bisect_right(cum[i - 1, label].tolist(), u_walk[i]), last)
                path.append(label)
            return np.array([path], dtype=np.int64)
        out = np.empty((size, n), dtype=np.int64)
        out[:, 0] = np.minimum((u[0][:, None] >= cum0).sum(axis=1), last)
        for i in range(1, n):
            rows = cum[i - 1][out[:, i - 1]]
            out[:, i] = np.minimum((u[i][:, None] >= rows).sum(axis=1), last)
        return out

    def sample(self, rng: np.random.Generator) -> tuple[str, ...]:
        """One exact sample as a label tuple."""
        labels = self.model.alphabet.labels
        return tuple(labels[i] for i in self.sample_many(1, rng)[0].tolist())

    def prob(self, y: Labeling) -> float:
        """p(y|x) = exp(score(y) - log Z), in (0, 1]."""
        if len(y) != self.lattice.n:
            raise ValueError(f"labeling length {len(y)} != instance length {self.lattice.n}")
        idx = self.model.alphabet.indices(y)
        return float(np.exp(lattice_score(self.lattice, idx) - self.log_z))

    def expected_features(self) -> SparseVector:
        """Exact E_p[phi(x, y)] from forward-backward marginals; a new vector.

        Raises ``FloatingPointError`` when a marginal is not finite.
        """
        lattice, alpha, beta, log_z = self.lattice, self.alpha, self.beta, self.log_z
        node_marg = np.exp(alpha + beta - log_z)
        emission = self.model.compile(self.x)
        L = lattice.num_labels
        acc: dict[int, float] = {}
        for i in range(lattice.n):
            per_label = emission[i]
            for li in range(L):
                m = node_marg[i, li]
                for fid in per_label[li]:
                    acc[fid] = acc.get(fid, 0.0) + m
        if lattice.n > 1:
            pair_mass = np.exp(
                alpha[:-1, :, None]
                + lattice.trans
                + (lattice.node[1:] + beta[1:])[:, None, :]
                - log_z
            ).sum(axis=0)
            for a in range(L):
                row = self.model.transition[a]
                for b in range(L):
                    acc[row[b]] = acc.get(row[b], 0.0) + pair_mass[a, b]
        try:
            return SparseVector(acc)
        except ValueError as exc:
            # every marginal feeds a feature, so this is an overflowed marginal:
            # at huge |w|, alpha + beta - log Z loses its precision in log space
            raise FloatingPointError(f"non-finite marginal ({exc})") from None


def posterior(model: ChainModel, w: SparseVector, x: ChainInstance) -> ChainPosterior:
    """The posterior p_w(.|x): the one entry point for sampling, prob, log Z and expectations."""
    return ChainPosterior(model, x, build_lattice(model, w, x))


def sample(
    model: ChainModel, w: SparseVector, x: ChainInstance, rng: np.random.Generator
) -> tuple[str, ...]:
    """One exact sample from p_w(y|x) as a label tuple."""
    return posterior(model, w, x).sample(rng)


def map_decode(model: ChainModel, w: SparseVector, x: ChainInstance) -> tuple[str, ...]:
    """Viterbi argmax of p_w(y|x); ties break toward the lowest label index."""
    lattice = build_lattice(model, w, x)
    n, L = lattice.node.shape
    back = np.zeros((n, L), dtype=np.int64)
    trellis = lattice.node[0].copy()
    for i in range(1, n):
        scores = trellis[:, None] + lattice.trans
        back[i] = np.argmax(scores, axis=0)
        trellis = lattice.node[i] + scores[back[i], np.arange(L)]
    path = np.empty(n, dtype=np.int64)
    path[-1] = int(np.argmax(trellis))
    for i in range(n - 1, 0, -1):
        path[i - 1] = back[i, path[i]]
    labels = model.alphabet.labels
    return tuple(labels[i] for i in path)
