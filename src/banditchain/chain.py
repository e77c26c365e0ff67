"""Linear-chain log-linear models with exact inference.

A model assigns each labeling ``y`` of a token sequence ``x`` the score
``w . phi(x, y)``, where ``phi`` decomposes into per-position emission
features (token window x label) and adjacent-pair transition features.  The
conditional distribution is ``p_w(y|x) = exp(w . phi(x, y)) / Z_w(x)``.
Because the features decompose over positions and adjacent label pairs, the
partition function, feature expectations, exact samples and the MAP labeling
are all computable by dynamic programming over a small lattice.

All dynamic programs run in log-space with log-sum-exp stabilization.
Weights reach a lattice as a dense array over the model's columns: one
gather per factor table, whatever the number of features.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .sparse import IndexedVector, SparseVector

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
    """Feature templates binding a label alphabet to a first-order chain, and
    the one map between feature ids and weight columns.

    Emission templates pair the token at a configurable offset from the
    current position with the position's label; the transition template
    fires once per adjacent label pair.  Ids are stable hashes of the
    template strings, and an always-on check detects hash collisions.

    The model interns every id on first sight as the next column of a dense
    weight array: ids hashed from templates, and ids read from a weight
    vector by ``to_columns``.  Columns are never renumbered, so a column
    array stays valid as the model grows; it is only shorter than the model.
    The column row of each (offset, token) is memoized, so a token seen
    before is not hashed again.  ``transition`` is the (L, L) column table
    [from label, to label].  ``to_columns`` and ``to_sparse`` convert
    between id-keyed SparseVectors and column arrays.
    """

    def __init__(self, alphabet: LabelAlphabet, emission_offsets: Sequence[int] = (0,)):
        self.alphabet = alphabet
        self.emission_offsets = tuple(int(o) for o in emission_offsets)
        self._columns: dict[int, int] = {}  # feature id -> column
        self._ids: list[int] = []  # column -> feature id
        self._templates: list[Optional[str]] = []  # column -> template; None if not yet hashed
        self._rows: dict[tuple[int, str], tuple[int, ...]] = {}  # (offset, token) -> L columns
        self._compiled: dict[ChainInstance, np.ndarray] = {}
        self._local: dict[ChainInstance, InstanceColumns] = {}
        labels = alphabet.labels
        self.transition = np.array(
            [[self._column(f"tr{_SEP}{a}{_SEP}{b}") for b in labels] for a in labels],
            dtype=np.intp,
        )

    @property
    def num_columns(self) -> int:
        return len(self._ids)

    def _intern(self, fid: int, template: Optional[str] = None) -> int:
        """The column of fid, interned on first sight; a template checks for collisions."""
        ids = self._ids
        col = self._columns.setdefault(fid, len(ids))
        if col == len(ids):
            ids.append(fid)
            self._templates.append(template)
        elif template is not None:
            known = self._templates[col]
            if known is None:
                self._templates[col] = template
            elif known != template:
                raise RuntimeError(f"feature id collision: {template!r} vs {known!r} -> {fid}")
        return col

    def _column(self, template: str) -> int:
        return self._intern(feature_id(template), template)

    def _row(self, off: int, tok: str) -> tuple[int, ...]:
        row = self._rows.get((off, tok))
        if row is None:
            prefix = f"em{off}{_SEP}{tok}{_SEP}"
            row = self._rows[(off, tok)] = tuple(
                [self._column(prefix + lab) for lab in self.alphabet.labels])
        return row

    def compile(self, x: ChainInstance) -> np.ndarray:
        """The emission columns of x, an (n, L, k) int array; cached.

        ``cols[i, l]`` holds the columns of the k emission templates that
        fire when position i takes label l, one per emission offset.  The
        array is a view of a template-major (k, n, L) block, so the lattice's
        sum over templates runs over its outer axis.
        """
        cached = self._compiled.get(x)
        if cached is not None:
            return cached
        n = len(x)
        rows = []
        for off in self.emission_offsets:
            for i in range(n):
                j = i + off
                rows.append(self._row(off, _BOS if j < 0 else _EOS if j >= n else x.tokens[j]))
        L = len(self.alphabet)
        block = np.array(rows, dtype=np.intp).reshape(len(self.emission_offsets), n, L)
        compiled = self._compiled[x] = block.transpose(1, 2, 0)
        return compiled

    def clear_cache(self) -> None:
        self._compiled.clear()
        self._local.clear()

    def local_columns(self, x: ChainInstance) -> "InstanceColumns":
        """The distinct columns x can fire, numbered locally; cached."""
        local = self._local.get(x)
        if local is None:
            local = self._local[x] = InstanceColumns(self.compile(x), self.transition)
        return local

    def instance_feature_ids(self, x: ChainInstance) -> list[int]:
        """All feature ids that can fire for ``x`` under any labeling, sorted."""
        cols = self.compile(x).ravel()
        if len(x) > 1:
            cols = np.concatenate((cols, self.transition.ravel()))
        return sorted({self._ids[c] for c in cols.tolist()})

    def to_columns(self, w: "SparseVector | np.ndarray") -> np.ndarray:
        """w as a float64 array over every column the model holds.

        A SparseVector's ids are interned first, so none of its entries is
        lost; the result is a new array.  A column array shorter than the
        model comes back zero-padded in a new array, and any other array
        comes back as it is.
        """
        if isinstance(w, SparseVector):
            columns = self._columns
            for fid in [fid for fid in w if fid not in columns]:
                self._intern(fid)
            out = np.zeros(len(self._ids))
            out[list(map(columns.__getitem__, w))] = np.fromiter(
                (v for _, v in w.items()), float, len(w))
            return out
        if len(w) < len(self._ids):
            out = np.zeros(len(self._ids))
            out[: len(w)] = w
            return out
        return w

    def to_sparse(self, values: np.ndarray, columns: Optional[np.ndarray] = None) -> SparseVector:
        """The SparseVector of values at columns (default: the nonzero entries
        of a column array), keyed by feature id in the order given."""
        if columns is None:
            columns = np.flatnonzero(values)
            values = values[columns]
        ids = self._ids
        return SparseVector._from_clean(
            dict(zip([ids[c] for c in columns.tolist()], values.tolist()))
        )

    def feature_norm_bound(self, x: ChainInstance) -> float:
        """Upper bound on ||phi(x, y)||_2 over every labeling y.

        Features are indicator counts, so the 2-norm is at most the total
        number of firings: n templates per position plus n-1 transitions.
        """
        n = len(x)
        return float(n * len(self.emission_offsets) + n - 1)


class InstanceColumns:
    """The distinct columns one instance can fire, numbered 0..m-1.

    Local index order is first occurrence over the emission table in
    (position, label, template) order, then the transition table: the order
    in which a dict accumulating the feature expectations meets them.
    ``emission`` (n, L, k) and ``transition`` (L, L) hold local indices.
    """

    def __init__(self, emission: np.ndarray, transition: np.ndarray):
        flat = np.concatenate((emission.ravel(), transition.ravel()))
        uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        order = np.argsort(first)
        local = np.empty(len(order), dtype=np.intp)
        local[order] = np.arange(len(order))
        index = local[inverse]
        self.columns = uniq[order]
        self.emission = index[: emission.size].reshape(emission.shape)
        self.transition = index[emission.size:].reshape(transition.shape)
        # every local index of the expectation's scatter, emissions then transitions
        self.index = index

    def __len__(self) -> int:
        return len(self.columns)

    def features(self, idx: np.ndarray) -> IndexedVector:
        """phi(x, y) for the label indices idx, over local indices."""
        if len(idx) != len(self.emission):
            raise ValueError(
                f"labeling length {len(idx)} != instance length {len(self.emission)}")
        fired = self.emission[np.arange(len(idx)), idx].ravel()
        if len(idx) > 1:
            fired = np.concatenate((fired, self.transition[idx[:-1], idx[1:]]))
        return IndexedVector.from_counts(fired, len(self.columns))


def extract_features(model: ChainModel, x: ChainInstance, y: Labeling) -> SparseVector:
    """The joint feature vector phi(x, y): emission and transition counts."""
    local = model.local_columns(x)
    idx, values = local.features(model.alphabet.indices(y)).entries()
    return model.to_sparse(values, local.columns[idx])


def build_lattice(
    model: ChainModel, w: "SparseVector | np.ndarray", x: ChainInstance
) -> ChainLattice:
    """Node and transition potentials w . phi restricted to each factor.

    w is a SparseVector or a column array of the model; a SparseVector is
    converted once per call, after x is compiled.
    """
    cols = model.compile(x)
    w = model.to_columns(w)
    return ChainLattice(node=w[cols].sum(axis=-1), trans=w[model.transition])


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
    is never copied.  ``local`` numbers the columns x can fire;
    ``features`` and ``expected`` are IndexedVectors over those local
    indices, which the objectives combine and ``to_sparse`` keys by id.
    """

    def __init__(self, model: ChainModel, x: ChainInstance, lattice: ChainLattice):
        self.model = model
        self.x = x
        self.lattice = lattice
        self.local = model.local_columns(x)
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

    def features(self, y: Labeling) -> IndexedVector:
        """phi(x, y) over the instance's local column indices (``local``)."""
        return self.local.features(self.model.alphabet.indices(y))

    def expected(self) -> IndexedVector:
        """Exact E_p[phi(x, y)] over the local column indices; a new vector.

        The node marginals scatter into the emission columns in (position,
        label, template) order and the pair masses into the transition
        columns, as sequential sums.  Raises ``FloatingPointError`` when a
        marginal is not finite.
        """
        alpha, beta, log_z = self.alpha, self.beta, self.log_z
        node, trans = self.lattice.node, self.lattice.trans
        local = self.local
        k = local.emission.shape[2]
        mass = np.repeat(np.exp(alpha + beta - log_z).ravel(), k)
        index = local.index
        if len(node) > 1:
            pair_mass = np.exp(
                alpha[:-1, :, None] + trans + (node[1:] + beta[1:])[:, None, :] - log_z
            ).sum(axis=0)
            mass = np.concatenate((mass, pair_mass.ravel()))
        else:
            index = index[: mass.size]
        values = np.bincount(index, weights=mass, minlength=len(local))
        if not np.isfinite(values).all():
            # at huge |w|, alpha + beta - log Z loses its precision in log space
            bad = np.flatnonzero(~np.isfinite(values))[0]
            raise FloatingPointError(
                f"non-finite marginal (non-finite value {float(values[bad])!r} "
                f"for feature {self.model._ids[local.columns[bad]]})")
        return IndexedVector.from_array(values)

    def to_sparse(self, vector: Optional[IndexedVector]) -> SparseVector:
        """A local vector as a SparseVector keyed by feature id; None is empty."""
        if vector is None:
            return SparseVector()
        idx, values = vector.entries()
        return self.model.to_sparse(values, self.local.columns[idx])

    def expected_features(self) -> SparseVector:
        """Exact E_p[phi(x, y)] as a new SparseVector; see ``expected``."""
        return self.to_sparse(self.expected())


def posterior(
    model: ChainModel, w: "SparseVector | np.ndarray", x: ChainInstance
) -> ChainPosterior:
    """The posterior p_w(.|x): the one entry point for sampling, prob, log Z and expectations.

    w is a SparseVector or a column array of the model, as for ``build_lattice``.
    """
    return ChainPosterior(model, x, build_lattice(model, w, x))


def sample(
    model: ChainModel, w: "SparseVector | np.ndarray", x: ChainInstance,
    rng: np.random.Generator,
) -> tuple[str, ...]:
    """One exact sample from p_w(y|x) as a label tuple."""
    return posterior(model, w, x).sample(rng)


def map_decode(
    model: ChainModel, w: "SparseVector | np.ndarray", x: ChainInstance
) -> tuple[str, ...]:
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
