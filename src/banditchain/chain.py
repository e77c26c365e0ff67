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


@dataclass(frozen=True)
class _CompiledChain:
    """Per-instance feature-id tables used by every lattice operation."""

    emission: tuple  # [position][label index] -> tuple of feature ids
    transition: Optional[tuple]  # [from label][to label] -> feature id


@dataclass
class ChainLattice:
    """Materialized potentials: node (n, L) and edge (n-1, L, L), log-space."""

    node: np.ndarray
    edge: np.ndarray

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
    fires once per adjacent label pair.  Extraction is deterministic.  Ids
    are stable hashes of the template strings; an always-on registry detects
    hash collisions (disable with ``collision_check=False`` for bulk runs).
    """

    def __init__(
        self,
        alphabet: LabelAlphabet,
        emission_offsets: Sequence[int] = (0,),
        use_transitions: bool = True,
        collision_check: bool = True,
    ):
        if len(tuple(emission_offsets)) == 0 and not use_transitions:
            raise ValueError("model needs at least one template")
        self.alphabet = alphabet
        self.emission_offsets = tuple(int(o) for o in emission_offsets)
        self.use_transitions = bool(use_transitions)
        self._registry: Optional[dict[int, str]] = {} if collision_check else None
        self._compiled: dict[ChainInstance, _CompiledChain] = {}

    def _fid(self, template: str) -> int:
        fid = feature_id(template)
        if self._registry is not None:
            known = self._registry.setdefault(fid, template)
            if known != template:
                raise RuntimeError(
                    f"feature id collision: {template!r} vs {known!r} -> {fid}"
                )
        return fid

    def compile(self, x: ChainInstance) -> _CompiledChain:
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
        transition = None
        if self.use_transitions:
            transition = tuple(
                tuple(self._fid(f"tr{_SEP}{a}{_SEP}{b}") for b in labels)
                for a in labels
            )
        compiled = _CompiledChain(emission=tuple(emission), transition=transition)
        self._compiled[x] = compiled
        return compiled

    def clear_cache(self) -> None:
        self._compiled.clear()

    def instance_feature_ids(self, x: ChainInstance) -> list[int]:
        """All feature ids that can fire for ``x`` under any labeling, sorted."""
        compiled = self.compile(x)
        fids: set[int] = set()
        for per_label in compiled.emission:
            for group in per_label:
                fids.update(group)
        if compiled.transition is not None and len(x) > 1:
            for row in compiled.transition:
                fids.update(row)
        return sorted(fids)

    def feature_norm_bound(self, x: ChainInstance) -> float:
        """Upper bound on ||phi(x, y)||_2 over every labeling y.

        Features are indicator counts, so the 2-norm is at most the total
        number of firings: n templates per position plus n-1 transitions.
        """
        n = len(x)
        total = n * len(self.emission_offsets)
        if self.use_transitions:
            total += n - 1
        return float(total)


def extract_features(model: ChainModel, x: ChainInstance, y: Labeling) -> SparseVector:
    """The joint feature vector phi(x, y): emission and transition counts."""
    if len(y) != len(x):
        raise ValueError(f"labeling length {len(y)} != instance length {len(x)}")
    idx = model.alphabet.indices(y)
    compiled = model.compile(x)
    acc: dict[int, float] = {}
    for i, li in enumerate(idx):
        for fid in compiled.emission[i][li]:
            acc[fid] = acc.get(fid, 0.0) + 1.0
    if compiled.transition is not None:
        for i in range(len(idx) - 1):
            fid = compiled.transition[idx[i]][idx[i + 1]]
            acc[fid] = acc.get(fid, 0.0) + 1.0
    return SparseVector(acc)


def build_lattice(model: ChainModel, w: SparseVector, x: ChainInstance) -> ChainLattice:
    """Materialize node and edge potentials w . phi restricted to each factor."""
    compiled = model.compile(x)
    n = len(x)
    L = len(model.alphabet)
    node = np.zeros((n, L))
    wget = w.get
    for i in range(n):
        per_label = compiled.emission[i]
        for li in range(L):
            node[i, li] = sum(wget(fid, 0.0) for fid in per_label[li])
    if compiled.transition is not None and n > 1:
        trans = np.array(
            [[wget(fid, 0.0) for fid in row] for row in compiled.transition]
        )
        edge = np.broadcast_to(trans, (n - 1, L, L))
    else:
        edge = np.zeros((max(n - 1, 0), L, L))
    return ChainLattice(node=node, edge=edge)


def lattice_score(lattice: ChainLattice, label_indices: Sequence[int]) -> float:
    """Path score w . phi(x, y) recomputed from lattice potentials."""
    idx = np.asarray(label_indices, dtype=np.int64)
    if idx.shape[0] != lattice.n:
        raise ValueError("label path length does not match lattice")
    score = float(lattice.node[np.arange(lattice.n), idx].sum())
    if lattice.n > 1:
        score += float(lattice.edge[np.arange(lattice.n - 1), idx[:-1], idx[1:]].sum())
    return score


def _forward(lattice: ChainLattice) -> np.ndarray:
    """Forward messages: alpha[i, l] = logsumexp over prefixes ending in l."""
    node, edge = lattice.node, lattice.edge
    alpha = np.empty_like(node)
    alpha[0] = node[0]
    for i in range(1, lattice.n):
        alpha[i] = node[i] + _logsumexp(alpha[i - 1][:, None] + edge[i - 1], axis=0)
    return alpha


def _backward(lattice: ChainLattice) -> np.ndarray:
    """Backward messages: beta[i, l] = logsumexp over suffixes starting after l."""
    node, edge = lattice.node, lattice.edge
    beta = np.zeros_like(node)
    for i in range(lattice.n - 2, -1, -1):
        beta[i] = _logsumexp(edge[i] + (node[i + 1] + beta[i + 1])[None, :], axis=1)
    return beta


def log_partition(lattice: ChainLattice) -> float:
    """log Z_w(x) by the forward recursion."""
    return float(_logsumexp(_forward(lattice)[-1]))


def _categorical_rows(prob_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row of a (k, L) matrix of row-normalized probabilities."""
    cum = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0])
    idx = (u[:, None] >= cum).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


class ChainPosterior:
    """The exact distribution p_w(y|x) for one (w, x), over one lattice.

    Sampling, probabilities and feature expectations all read the same
    lattice and messages.  The backward messages are computed on
    construction, because every training step samples; the forward messages
    and log Z are computed on first use, so a step whose feedback is zero
    never runs the forward pass.  ``negated()`` is the posterior under -w:
    its lattice is this one negated, so w is never copied.
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
            lattice = ChainLattice(node=-self.lattice.node, edge=-self.lattice.edge)
            self._negated = ChainPosterior(self.model, self.x, lattice)
            self._negated._negated = self
        return self._negated

    def sample_many(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact i.i.d. samples, as a (size, n) array of label indices.

        Uses backward filtering / forward sampling: the backward messages give
        the exact conditional of each label given its predecessor, so a single
        left-to-right pass draws from the joint. Deterministic given the rng
        state.
        """
        lattice, beta = self.lattice, self.beta
        n, L = lattice.node.shape
        out = np.empty((size, n), dtype=np.int64)
        logp0 = lattice.node[0] + beta[0]
        p0 = np.exp(logp0 - _logsumexp(logp0))
        p0 /= p0.sum()
        out[:, 0] = _categorical_rows(p0[None, :].repeat(size, axis=0), rng)
        for i in range(1, n):
            logc = lattice.edge[i - 1] + (lattice.node[i] + beta[i])[None, :]
            cond = np.exp(logc - _logsumexp(logc, axis=1)[:, None])
            cond /= cond.sum(axis=1, keepdims=True)
            out[:, i] = _categorical_rows(cond[out[:, i - 1]], rng)
        return out

    def sample(self, rng: np.random.Generator) -> tuple[str, ...]:
        """One exact sample as a label tuple."""
        labels = self.model.alphabet.labels
        return tuple(labels[i] for i in self.sample_many(1, rng)[0])

    def prob(self, y: Labeling) -> float:
        """p(y|x) = exp(score(y) - log Z), in (0, 1]."""
        if len(y) != self.lattice.n:
            raise ValueError(f"labeling length {len(y)} != instance length {self.lattice.n}")
        idx = self.model.alphabet.indices(y)
        return float(np.exp(lattice_score(self.lattice, idx) - self.log_z))

    def expected_features(self) -> SparseVector:
        """Exact E_p[phi(x, y)] from forward-backward marginals; a new vector."""
        lattice, alpha, beta, log_z = self.lattice, self.alpha, self.beta, self.log_z
        node_marg = np.exp(alpha + beta - log_z)
        compiled = self.model.compile(self.x)
        L = lattice.num_labels
        acc: dict[int, float] = {}
        for i in range(lattice.n):
            per_label = compiled.emission[i]
            for li in range(L):
                m = node_marg[i, li]
                for fid in per_label[li]:
                    acc[fid] = acc.get(fid, 0.0) + m
        if compiled.transition is not None and lattice.n > 1:
            pair_mass = np.exp(
                alpha[:-1, :, None]
                + lattice.edge
                + (lattice.node[1:] + beta[1:])[:, None, :]
                - log_z
            ).sum(axis=0)
            for a in range(L):
                row = compiled.transition[a]
                for b in range(L):
                    acc[row[b]] = acc.get(row[b], 0.0) + pair_mass[a, b]
        return SparseVector(acc)


def posterior(model: ChainModel, w: SparseVector, x: ChainInstance) -> ChainPosterior:
    """The posterior p_w(.|x); one serves every sampling, prob and expectation query."""
    return ChainPosterior(model, x, build_lattice(model, w, x))


def expected_features(model: ChainModel, w: SparseVector, x: ChainInstance) -> SparseVector:
    """Exact E_{p_w(y|x)}[phi(x, y)] from forward-backward marginals."""
    return posterior(model, w, x).expected_features()


def sample_many(
    model: ChainModel, w: SparseVector, x: ChainInstance, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact i.i.d. samples from p_w(y|x), as a (size, n) array of label indices."""
    return posterior(model, w, x).sample_many(size, rng)


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
        scores = trellis[:, None] + lattice.edge[i - 1]
        back[i] = np.argmax(scores, axis=0)
        trellis = lattice.node[i] + scores[back[i], np.arange(L)]
    path = np.empty(n, dtype=np.int64)
    path[-1] = int(np.argmax(trellis))
    for i in range(n - 1, 0, -1):
        path[i - 1] = back[i, path[i]]
    labels = model.alphabet.labels
    return tuple(labels[i] for i in path)


def prob(model: ChainModel, w: SparseVector, x: ChainInstance, y: Labeling) -> float:
    """p_w(y|x) = exp(w . phi(x, y) - log Z_w(x)), in (0, 1]."""
    return posterior(model, w, x).prob(y)
