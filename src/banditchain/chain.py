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
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .sparse import IndexedVector, SortedVector, SparseVector

Labeling = Sequence[str]
# weights as the public functions take them: id-keyed, or a column array of the model
Weights = Union[SortedVector, SparseVector, np.ndarray]

_SEP = "\x1f"
_BOS = "<S>"
_EOS = "</S>"
_EMPTY_HASH = hashlib.blake2b(digest_size=8)  # the state every id's hash starts from


def _logsumexp(a: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stable log-sum-exp over one axis for finite inputs, keeping that axis
    (written to out when given); lean enough for tiny DP arrays."""
    # the ufuncs' own reductions: np.max and np.sum reduce the same way but
    # cost more in call overhead than the arithmetic on arrays this small
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    return np.add(m, np.log(np.add.reduce(np.exp(a - m), axis=axis, keepdims=True)), out=out)


def feature_id(template: str) -> int:
    """Stable 63-bit feature id for a template string: the 8-byte blake2b
    digest of its UTF-8 bytes, read big-endian and shifted right by one.

    Ids depend only on the template text, so they are identical across runs
    and processes; checkpoints keyed by id stay portable.
    """
    return int(_feature_ids([template], [""])[0])


def _feature_ids(prefixes: Sequence[str], suffixes: Sequence[str]) -> np.ndarray:
    """The feature id of ``p + s`` for every prefix p and suffix s, prefix-major,
    as an int64 array.  Each prefix's UTF-8 bytes go once into a copy of the
    empty state, and each suffix's into a copy of that prefix state: blake2b
    fed in pieces digests the joined bytes (RFC 7693), so the ids are
    ``feature_id``'s."""
    tails = [s.encode() for s in suffixes]
    digests: list[bytes] = []
    append = digests.append
    for p in prefixes:
        head = _EMPTY_HASH.copy()
        head.update(p.encode())
        for tail in tails:
            h = head.copy()
            h.update(tail)
            append(h.digest())
    return (np.frombuffer(b"".join(digests), ">u8") >> 1).astype(np.int64)


def _templates(prefixes: Sequence[str], suffixes: Sequence[str]) -> list[str]:
    """The templates ``_feature_ids`` hashes, ``p + s``; built only to name a collision."""
    return [p + s for p in prefixes for s in suffixes]


def _room(table: np.ndarray, kept: int, size: int) -> np.ndarray:
    """table when it has at least size rows, else a new one of at least twice
    its rows holding its first kept rows and zeros after them: a table that
    grows by doubling."""
    if size <= len(table):
        return table
    grown = np.zeros((max(2 * len(table), size), *table.shape[1:]), table.dtype)
    grown[:kept] = table[:kept]
    return grown


class LabelAlphabet:
    """Ordered set of at least two distinct label symbols, none holding the
    template separator: a template ends in its label, and one holding it could merge two."""

    def __init__(self, labels: Sequence[str]):
        labels = tuple(str(lab) for lab in labels)
        if len(labels) < 2:
            raise ValueError("alphabet needs at least 2 labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        for lab in labels:
            if _SEP in lab:
                raise ValueError(f"label {lab!r} holds the template separator {_SEP!r}")
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

    The gold labeling is never consulted by the learner directly: only the
    feedback module reads it, to score predictions against it.  The hash, the
    key of every per-instance cache, is computed once, on construction.
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
        object.__setattr__(self, "_hash", hash((self.tokens, self.gold)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so a copy hashes anew
        return ChainInstance, (self.tokens, self.gold)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class ChainLattice:
    """Log-space potentials of one (w, x): node (n, L) and trans (L, L).

    ``node[i, l]`` scores label l at position i; ``trans[a, b]`` scores the
    label pair (a, b), the same at every adjacent pair of positions.  A
    posterior's stack of B chains over one x is a lattice too, position-major:
    node (n, B, L) and trans (B, L, L).
    """

    node: np.ndarray
    trans: np.ndarray

    @property
    def n(self) -> int:
        return self.node.shape[0]


class ChainModel:
    """Feature templates binding a label alphabet to a first-order chain, and
    the one map between feature ids and weight columns.

    Emission templates pair the token at a configurable offset from the
    current position with the position's label; the transition template
    fires once per adjacent label pair.  Ids are stable hashes of the
    template strings, and an always-on check detects hash collisions.

    The model interns every id on first sight as the next column of a dense
    weight array: ids hashed from templates, and ids read from a weight
    vector by ``to_columns``, ``_unclaimed`` until a template hashes to
    them; no template is kept.  The held ids are a set, and each id's
    column is kept once, in the column -> id table; only ``_unclaimed`` maps
    ids to columns.  Columns are never renumbered, so a column
    array stays valid as the model grows; it is only shorter than the model.
    Each (offset, token) the model has seen owns a row of an (R, L) column
    table, through one token -> row dict per offset, so a token seen before
    is not hashed again and an instance's columns are one gather from that
    table.  A row's templates are its prefix ``em{off}␟{tok}`` followed by
    each label suffix ``␟{label}``, hashed from one copied prefix state
    (``_feature_ids``).  ``transition`` is the (L, L) column table [from
    label, to label], the rows ``tr␟{a}`` of the same suffixes.
    ``to_columns`` turns a SortedVector into a column array through one
    sorted-id index, rebuilt only after the model has grown (a SparseVector
    is sorted into one first); ``to_sorted`` turns a column array into a
    SortedVector, and ``to_sparse`` the values at given columns into a
    SparseVector.
    """

    def __init__(self, alphabet: LabelAlphabet, emission_offsets: Sequence[int] = (0,)):
        self.alphabet = alphabet
        self.emission_offsets = tuple(int(o) for o in emission_offsets)
        self._held: set[int] = set()  # every feature id the model holds
        # column -> feature id; grows by doubling, so only its first
        # num_columns entries are live (``_ids``)
        self._id_table = np.empty(0, dtype=np.int64)
        # id -> column of the ids read from weights that no template hashed to yet
        self._unclaimed: dict[int, int] = {}
        # the L label suffixes that end every template, in label order
        self._suffixes = [f"{_SEP}{lab}" for lab in alphabet.labels]
        # offset -> {token -> row of _table}; a repeated offset shares its dict
        self._rows: dict[int, dict[str, int]] = {off: {} for off in self.emission_offsets}
        self._num_rows = 0
        # row -> the L columns of an (offset, token); grows by doubling, so
        # only its first _num_rows rows are live
        self._table = np.empty((0, len(alphabet)), dtype=np.intp)
        # (ids in ascending order, their columns): to_columns' lookup
        self._id_index: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._compiled: dict[ChainInstance, np.ndarray] = {}
        self._local: dict[ChainInstance, InstanceColumns] = {}
        # the last padded dataset: (instances, cols, lengths, memo)
        self._batch: Optional[tuple[tuple[ChainInstance, ...], np.ndarray, np.ndarray, dict]] = None
        self.transition = self._intern_rows([f"tr{_SEP}{a}" for a in alphabet.labels])

    @property
    def num_columns(self) -> int:
        return len(self._held)

    @property
    def _ids(self) -> np.ndarray:
        """The feature id of each column: an int64 view, blind to columns added later."""
        return self._id_table[:len(self._held)]

    def _append(self, fids: list[int]) -> np.ndarray:
        """Intern distinct ids new to the model as its next columns; returns those columns."""
        start = len(self._held)
        self._held.update(fids)
        return self._fill(start, fids)

    def _fill(self, start: int, fids: "np.ndarray | list[int]") -> np.ndarray:
        """Write the ids just added to the held set to the column -> id table
        from column start on; returns their columns."""
        stop = start + len(fids)
        self._id_table = _room(self._id_table, start, stop)
        self._id_table[start:stop] = fids
        return np.arange(start, stop, dtype=np.intp)

    def _intern_rows(self, prefixes: list[str]) -> np.ndarray:
        """The (R, L) columns of R rows new to the model, row r's templates
        being prefixes[r] + each label suffix (``compile`` passes only rows it
        has not seen, ``__init__`` the transition rows ``tr␟a`` of an empty
        model), hashed in one ``_feature_ids`` call: a held id must be
        ``_unclaimed``, and keeps its column; the others take the next columns
        in order.  An id held under another template, or shared by two
        templates of the batch, is a hash collision (``RuntimeError``) naming
        both, the only case that builds template strings; nothing is interned.

        The ids go into the held set in one update: when it grows by the
        batch's length, every id is new and distinct.  Only a shortfall looks
        for the ``_unclaimed`` ids that explain it; what they do not explain
        is a collision, and the update is undone."""
        ids = _feature_ids(prefixes, self._suffixes)
        fids, held, unclaimed = ids.tolist(), self._held, self._unclaimed
        start = len(held)
        held.update(fids)
        if len(held) - start == len(fids):
            return self._fill(start, ids).reshape(len(prefixes), -1)
        kept = [fid for fid in fids if fid in unclaimed]
        # a collision unless each unclaimed id comes once and every other id is new and distinct
        if len(held) - start + len(kept) != len(fids) or len(set(kept)) != len(kept):
            self._held = set(self._id_table[:start].tolist())
            first: dict[int, str] = {}
            for fid, template in zip(fids, _templates(prefixes, self._suffixes)):
                claimed = fid in self._held and fid not in unclaimed
                other = self._template(fid) if claimed else first.setdefault(fid, template)
                if other != template:
                    raise RuntimeError(f"feature id collision: {template!r} vs {other!r} -> {fid}")
        kept_cols = {fid: unclaimed.pop(fid) for fid in kept}
        out = np.fromiter((kept_cols.get(fid, -1) for fid in fids), np.intp, len(fids))
        new = out < 0
        out[new] = self._fill(start, ids[new])
        return out.reshape(len(prefixes), -1)

    def _template(self, fid: int) -> str:
        """The template of a claimed id, rebuilt from the transition and row
        tables; its column is found by a scan of ``_ids``, its row's token
        by a scan of the row dicts."""
        col = np.flatnonzero(self._ids == fid)[0]
        held = np.concatenate((self.transition, self._table[:self._num_rows]))
        row, label = np.argwhere(held == col)[0]
        L = len(self.alphabet)
        prefix = f"tr{_SEP}{self.alphabet.labels[row]}" if row < L else next(
            f"em{off}{_SEP}{tok}" for off, toks in self._rows.items()
            for tok, r in toks.items() if r == row - L)
        return _templates([prefix], [self._suffixes[label]])[0]

    def compile(self, x: ChainInstance) -> np.ndarray:
        """The emission columns of x, an (n, L, k) int array; cached.

        ``cols[i, l]`` holds the columns of the k emission templates that
        fire when position i takes label l, one per emission offset.  The
        array is a view of a template-major (k, n, L) block, gathered in one
        step from the model's row table, so the lattice's sum over templates
        runs over its outer axis.  Each offset keeps a token -> row dict.
        The (offset, token) rows the model has not seen are interned
        together, offset-major and in first occurrence order, L templates
        each, and appended to the table.
        """
        cached = self._compiled.get(x)
        if cached is not None:
            return cached
        n, offsets, rows = len(x), self.emission_offsets, self._rows
        padded = (_BOS,) * n + x.tokens + (_EOS,) * n  # an offset past ±n reads as ±n does
        windows = []  # (offset, the n tokens it reads)
        for off in offsets:
            at = n + min(max(off, -n), n)
            windows.append((off, padded[at:at + n]))
        fresh: dict[int, dict[str, None]] = {}  # offset -> its new tokens, in order
        for off, window in windows:
            fresh.setdefault(off, {}).update(
                dict.fromkeys(itertools.filterfalse(rows[off].__contains__, window)))
        prefixes = [f"em{off}{_SEP}{tok}" for off, toks in fresh.items() for tok in toks]
        if prefixes:
            columns = self._intern_rows(prefixes)
            r0 = r = self._num_rows
            for off, toks in fresh.items():
                rows[off].update(zip(toks, range(r, r + len(toks))))
                r += len(toks)
            self._table = _room(self._table, r0, r)
            self._table[r0:r] = columns
            self._num_rows = r
        at = np.fromiter(itertools.chain.from_iterable(map(rows[off].__getitem__, window)
                                                       for off, window in windows),
                         np.intp, n * len(offsets))
        compiled = self._compiled[x] = self._table[at].reshape(
            len(offsets), n, len(self.alphabet)).transpose(1, 2, 0)
        return compiled

    def _pad(self, data: Sequence[ChainInstance]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cols, lengths, live) of instances, uncached: a (B, n_max, L, k) int
        array whose row b holds ``compile(data[b])`` left-aligned and column 0
        past its end, the (B,) lengths, and the (B, n_max) mask of the positions
        below them.  Like ``compile``'s arrays, cols is a view of a
        template-major (k, B, n_max, L) block, so a gather sums its templates
        in the same order.  The one builder of a padded batch; an empty batch
        is a ``ValueError``, raised before anything is compiled."""
        if len(data) == 0:
            raise ValueError("empty batch: no instances to pad")
        lengths = np.array([len(x) for x in data], dtype=np.intp)
        live = np.arange(lengths.max()) < lengths[:, None]
        block = np.zeros((len(self.emission_offsets), *live.shape, len(self.alphabet)),
                         dtype=np.intp)
        block[:, live] = np.concatenate(
            [self.compile(x).transpose(2, 0, 1) for x in data], axis=1)
        return block.transpose(1, 2, 3, 0), lengths, live

    def compile_batch(self, data: Sequence[ChainInstance]) -> tuple[np.ndarray, np.ndarray, dict]:
        """(cols, lengths, memo), cached for the last dataset: cols and lengths of
        ``_pad(data)``, so evaluating one dev set again and again compiles it once,
        and a dict in which a caller keeps what it derives once per dataset (the
        model never reads it; ``feedback.dataset_losses`` keeps its padded gold)."""
        key = tuple(data)
        if self._batch is None or self._batch[0] != key:
            self._batch = (key, *self._pad(key)[:2], {})
        return self._batch[1:]

    def clear_cache(self) -> None:
        self._compiled.clear()
        self._local.clear()
        self._batch = None

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
        return sorted(set(self._ids[cols].tolist()))

    def _sorted_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, columns): every id the model holds in ascending order, and
        their columns; rebuilt only when the model has grown since the last call."""
        # columns are never renumbered, so an index is only ever short
        if self._id_index is None or len(self._id_index[0]) != self.num_columns:
            ids = self._ids
            order = np.argsort(ids)
            self._id_index = (ids[order], order)
        return self._id_index

    def to_columns(self, w: Weights) -> np.ndarray:
        """w as a float64 array over every column the model holds.

        A SparseVector is sorted first (``SortedVector.from_sparse``; an id
        outside int64 is a ``ValueError``: a checkpoint cannot store it
        either).  The ids of the SortedVector are looked up in one
        ``searchsorted`` over the model's sorted ids; the ids it does not know
        are interned first, in ascending order, so none of its entries is
        lost.  The result is a new array.  A column array shorter than the
        model comes back zero-padded in a new array, and any other array
        comes back as it is.
        """
        if isinstance(w, SparseVector):
            w = SortedVector.from_sparse(w)
        if isinstance(w, SortedVector):
            fids, values = w.ids, w.values
        elif len(w) < self.num_columns:
            out = np.zeros(self.num_columns)
            out[: len(w)] = w
            return out
        else:
            return w
        ids, columns = self._sorted_ids()
        at = np.minimum(np.searchsorted(ids, fids), len(ids) - 1)
        cols = columns[at]
        miss = np.flatnonzero(ids[at] != fids)
        if len(miss):
            # the index covers the whole model, so every miss is a new id
            new = fids[miss].tolist()
            cols[miss] = self._append(new)
            self._unclaimed.update(zip(new, cols[miss].tolist()))
        out = np.zeros(self.num_columns)
        out[cols] = values
        return out

    def to_sorted(self, w: np.ndarray) -> SortedVector:
        """The nonzero entries of a column array as a SortedVector: their ids
        gathered in column order, then sorted."""
        columns = np.flatnonzero(w)
        ids = self._ids[columns]
        order = np.argsort(ids)
        return SortedVector(ids[order], w[columns[order]])

    def to_sparse(self, values: np.ndarray, columns: np.ndarray) -> SparseVector:
        """The SparseVector of values at columns, keyed by feature id in the order given."""
        return SparseVector._from_clean(dict(zip(self._ids[columns].tolist(), values.tolist())))

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
        # stack size -> the expectation's scatter index; one chain's is
        # every local index, emissions then transitions
        self._scatter = {1: index}

    def __len__(self) -> int:
        return len(self.columns)

    def scatter_index(self, chains: int) -> np.ndarray:
        """The expectation's scatter index of a stack of chains, cached: the
        emissions position-major, then the transitions chain-major, with
        chain b's local indices plus m * b."""
        if chains not in self._scatter:
            offset = len(self.columns) * np.arange(chains)[:, None]
            self._scatter[chains] = np.concatenate((
                (self.emission.reshape(len(self.emission), 1, -1) + offset).ravel(),
                (self.transition.reshape(1, -1) + offset).ravel()))
        return self._scatter[chains]

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


def build_lattice(model: ChainModel, w: Weights, x: ChainInstance) -> ChainLattice:
    """Node and transition potentials w . phi restricted to each factor.

    w is a SortedVector, a SparseVector or a column array of the model
    (``Weights``); a vector is converted once per call, after x is compiled.
    """
    cols = model.compile(x)
    w = model.to_columns(w)
    return ChainLattice(node=_node_potentials(w, cols), trans=w[model.transition])


def _node_potentials(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The node potentials of cols, an (..., k) view of a template-major
    (k, ...) block (``compile``, ``_pad``): one gather from w per template,
    ``cols[..., t]`` being row t of that block, contiguous, added in template
    order to 0.0: the left fold ``w[cols].sum(axis=-1)`` makes, bit for bit."""
    node = w[cols[..., 0]]
    node += 0.0  # the fold starts from 0.0, so a -0.0 weight alone sums to 0.0
    for t in range(1, cols.shape[-1]):
        node += w[cols[..., t]]
    return node


def lattice_score(lattice: ChainLattice, label_indices: Sequence[int]) -> float:
    """Path score w . phi(x, y) recomputed from lattice potentials."""
    idx = np.asarray(label_indices, dtype=np.int64)
    if idx.shape[0] != lattice.n:
        raise ValueError(f"labeling length {idx.shape[0]} != instance length {lattice.n}")
    score = float(lattice.node[np.arange(lattice.n), idx].sum())
    if lattice.n > 1:
        score += float(lattice.trans[idx[:-1], idx[1:]].sum())
    return score


def _forward(lattice: ChainLattice) -> np.ndarray:
    """Forward messages of a stack: alpha[i, b, l] = logsumexp over chain b's
    prefixes ending in l."""
    node, trans = lattice.node, lattice.trans
    alpha = np.empty_like(node)
    alpha[0] = node[0]
    # row views that broadcast against the (B, L, L) transition tables
    rows, prev, out = node[:, :, None, :], alpha[:, :, :, None], alpha[:, :, None, :]
    for i in range(1, lattice.n):
        np.add(rows[i], _logsumexp(prev[i - 1] + trans, axis=1), out=out[i])
    return alpha


def _backward(lattice: ChainLattice, lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Backward messages of a stack: beta[i, b, l] = logsumexp over chain b's
    suffixes starting after l.  With lengths, chain b's messages are 0 from its
    last position, lengths[b] - 1, on, whatever the positions past it hold."""
    node, trans = lattice.node, lattice.trans
    beta = np.zeros(node.shape)
    # row views that broadcast against the (B, L, L) transition tables
    rows, after, out = node[:, :, None, :], beta[:, :, None, :], beta[:, :, :, None]
    for i in range(lattice.n - 2, -1, -1):
        _logsumexp(trans + (rows[i + 1] + after[i + 1]), axis=2, out=out[i])
        if lengths is not None:
            beta[i, lengths <= i + 1] = 0.0
    return beta


def _sampler_table(stack: ChainLattice, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cum0, cum) of a stack: the cumulative p(y_0) of each chain, shape
    (B, L), and the cumulative conditional rows cum[i - 1, b, a] of chain b's
    p(y_i | y_{i-1} = a), shape (n-1, B, L, L)."""
    node, trans = stack.node, stack.trans
    logp0 = node[0] + beta[0]
    p0 = np.exp(logp0 - _logsumexp(logp0, axis=1))
    p0 /= p0.sum(axis=1, keepdims=True)
    cond = np.exp(trans + (node[1:] + beta[1:])[:, :, None, :] - beta[:-1, :, :, None])
    cond /= cond.sum(axis=3, keepdims=True)
    return p0.cumsum(axis=1), cond.cumsum(axis=3)


def _walk(cum0: np.ndarray, cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The draws of every chain from its sampler table (``_sampler_table``)
    and the uniforms u, shape (B, n, size), as a (B, size, n) array of label
    indices: position i of chain b's draws reads u[b, i] and takes the first
    label whose cumulative mass exceeds it, in the row its previous label
    picks."""
    B, n, size = u.shape
    last = cum0.shape[1] - 1
    out = np.empty((B, size, n), dtype=np.int64)
    out[:, :, 0] = np.minimum((u[:, 0, :, None] >= cum0[:, None, :]).sum(axis=2), last)
    chains = np.arange(B)[:, None]
    for i in range(1, n):
        rows = cum[i - 1][chains, out[:, :, i - 1]]
        out[:, :, i] = np.minimum((u[:, i, :, None] >= rows).sum(axis=2), last)
    return out


class ChainPosterior:
    """The exact distribution p_w(y|x) for one (w, x), and with ``pair`` the
    ordered-pair distribution p_w(y_i|x) * p_{-w}(y_j|x), over one lattice.

    The posterior runs its dynamic programs over a position-major stack of B
    chains (``stack``: node (n, B, L), trans (B, L, L)): chain 0 is
    ``lattice``, and a pair posterior adds chain 1, the lattice negated, so
    w is never copied and both chains share every pass.  Sampling and
    expectations answer for every chain; ``prob`` and ``log_z`` are chain 0's.
    The backward messages are computed once, on construction: every training
    step samples, and the sampler normalizes by them.  The sampler's table of
    cumulative conditionals, the forward messages and log Z wait for first
    use, so repeated draws build the table once and a step with zero feedback
    never runs the forward pass.  ``local`` numbers the columns x can fire,
    and its ``features`` gives phi(x, y), which does not depend on w;
    ``expected`` gives IndexedVectors over those local indices, which the
    objectives combine and ``to_sparse`` keys by id.
    """

    def __init__(self, model: ChainModel, x: ChainInstance, lattice: ChainLattice,
                 pair: bool = False):
        self.model = model
        self.lattice = lattice
        self.local = model.local_columns(x)
        node, trans = lattice.node[:, None], lattice.trans[None]
        if pair:
            node, trans = np.concatenate((node, -node), axis=1), np.concatenate((trans, -trans))
        self.stack = ChainLattice(node=node, trans=trans)
        self.beta = _backward(self.stack)

    @cached_property
    def alpha(self) -> np.ndarray:
        return _forward(self.stack)

    @cached_property
    def _log_z(self) -> np.ndarray:
        """log Z of each chain, shape (B, 1)."""
        return _logsumexp(self.alpha[-1], axis=1)

    @property
    def log_z(self) -> float:
        return float(self._log_z[0, 0])

    @cached_property
    def _sampler_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampler's table (``_sampler_table``), built on first use."""
        return _sampler_table(self.stack, self.beta)

    def sample_many(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact i.i.d. samples of every chain, as a (B, size, n) array of label indices.

        Backward filtering / forward sampling: row a at position i is
        p(y_i | y_{i-1} = a) = exp(trans[a] + node[i] + beta[i] - beta[i-1, a]),
        so the backward messages normalize every conditional and one
        left-to-right pass draws from the joint.  The rows' cumulative sums
        form one table per posterior, built on the first draw and reused by
        every later one.  Position i of chain b's draws reads the uniforms of
        ``rng.random((B, n, size))[b, i]``, chain-major, so chain b draws what
        a posterior of its own would draw after chains 0..b-1 (``_walk``).
        Deterministic given the rng.
        """
        n, B, _ = self.stack.node.shape
        return _walk(*self._sampler_table, rng.random((B, n, size)))

    def draw(self, u: np.ndarray) -> np.ndarray:
        """One exact draw of each chain from the uniforms u, shape (B, n), as a
        (B, n) array of label indices: the draw ``_walk`` makes from u, walking
        only the table rows it takes, each as a Python list.  u of another
        shape raises ``ValueError``."""
        n, B, _ = self.stack.node.shape
        if u.shape != (B, n):
            raise ValueError(f"uniforms of shape {u.shape} for {B} chains of length {n}")
        cum0, cum = self._sampler_table
        last = cum0.shape[1] - 1
        paths = []
        for b, u_walk in enumerate(u.tolist()):
            # bisect_right on a nondecreasing row counts the entries <= u
            label = min(bisect_right(cum0[b].tolist(), u_walk[0]), last)
            path = [label]
            for i in range(1, len(u_walk)):
                label = min(bisect_right(cum[i - 1, b, label].tolist(), u_walk[i]), last)
                path.append(label)
            paths.append(path)
        return np.array(paths)

    def sample(self, rng: np.random.Generator) -> tuple[tuple[str, ...], ...]:
        """One exact sample of each chain as a label tuple: the ``draw`` from
        ``rng.random((B, n))``, which ``sample_many(1, rng)`` draws as well."""
        n, B, _ = self.stack.node.shape
        labels = np.array(self.model.alphabet.labels, dtype=object)
        return tuple(map(tuple, labels[self.draw(rng.random((B, n)))].tolist()))

    def prob(self, y: np.ndarray) -> float:
        """p(y|x) = exp(score(y) - log Z), in (0, 1], for the label indices y."""
        return float(np.exp(lattice_score(self.lattice, y) - self.log_z))

    def expected(self) -> list[IndexedVector]:
        """Exact E[phi(x, y)] of each chain over the local column indices; new vectors.

        Chain b's node marginals scatter into the emission columns in
        (position, label, template) order and its pair masses into the
        transition columns, as sequential sums; one ``bincount`` over local
        index + m * b scatters every chain.  Raises ``FloatingPointError``
        when a marginal is not finite.
        """
        alpha, beta, log_z = self.alpha, self.beta, self._log_z
        node, trans = self.stack.node, self.stack.trans
        n, B, _ = node.shape
        local = self.local
        m = len(local)
        mass = np.repeat(np.exp(alpha + beta - log_z).ravel(), local.emission.shape[2])
        if n > 1:
            pair_mass = np.exp(
                alpha[:-1, :, :, None] + trans + (node[1:] + beta[1:])[:, :, None, :]
                - log_z[:, :, None]
            ).sum(axis=0)
            mass = np.concatenate((mass, pair_mass.ravel()))
        values = np.bincount(local.scatter_index(B)[: mass.size], weights=mass, minlength=B * m)
        if not np.isfinite(values).all():
            # at huge |w|, alpha + beta - log Z loses its precision in log space
            bad = np.flatnonzero(~np.isfinite(values))[0]
            raise FloatingPointError(
                f"non-finite marginal (non-finite value {float(values[bad])!r} "
                f"for feature {self.model._ids[local.columns[bad % m]]})")
        return [IndexedVector.from_array(values[b * m:(b + 1) * m]) for b in range(B)]

    def to_sparse(self, vector: Optional[IndexedVector]) -> SparseVector:
        """A local vector as a SparseVector keyed by feature id; None is empty."""
        if vector is None:
            return SparseVector()
        idx, values = vector.entries()
        return self.model.to_sparse(values, self.local.columns[idx])


def posterior(
    model: ChainModel, w: Weights, x: ChainInstance, pair: bool = False
) -> ChainPosterior:
    """The posterior p_w(.|x), and with ``pair`` the pair posterior that adds
    p_{-w}(.|x): the one entry point for sampling, prob, log Z and expectations.

    w is a vector or a column array of the model, as for ``build_lattice``.
    """
    return ChainPosterior(model, x, build_lattice(model, w, x), pair)


def sample(
    model: ChainModel, w: Weights, x: ChainInstance, rng: np.random.Generator,
) -> tuple[str, ...]:
    """One exact sample from p_w(y|x) as a label tuple."""
    return posterior(model, w, x).sample(rng)[0]


def draw_batch(
    model: ChainModel, w: np.ndarray, data: Sequence[ChainInstance],
    uniforms: Sequence[np.ndarray], pair: bool = False,
) -> np.ndarray:
    """For each x in data, the draw ``posterior(model, w, x, pair).draw(u)``
    makes from its uniforms u (``uniforms[b]``, shape (C, len(x)); C is 2 with
    pair, else 1), all in one pass under one w.

    Row C * b + c of the (C * len(data), n_max) int array returned holds chain
    c's label indices for data[b] in its first len(data[b]) positions; the rest
    of the row is arbitrary.  The lattices are gathered from
    ``model._pad(data)``, not ``compile_batch``, whose cached dataset stays,
    into one position-major stack with zero potentials past each chain's end;
    the backward pass ends each chain at its own length.  w is a column array
    covering data's columns.  Uniforms of another shape raise ``ValueError``;
    a table entry that is not finite raises ``FloatingPointError``: there,
    the batched walk and ``draw``'s bisection may take different labels.
    """
    C = 2 if pair else 1
    for b, (x, u) in enumerate(zip(data, uniforms)):
        if u.shape != (C, len(x)):
            raise ValueError(f"uniforms of shape {u.shape} for instance {b} ({C} x {len(x)})")
    cols, lengths, live = model._pad(data)
    n_max = live.shape[1]
    node = _node_potentials(w, cols)
    node[~live] = 0.0
    node, trans = node.transpose(1, 0, 2)[:, :, None], w[model.transition][None]
    if pair:
        node, trans = np.concatenate((node, -node), axis=2), np.concatenate((trans, -trans))
    stack = ChainLattice(node=node.reshape(n_max, -1, node.shape[-1]),
                         trans=np.tile(trans, (len(data), 1, 1)))
    cum0, cum = _sampler_table(stack, _backward(stack, np.repeat(lengths, C)))
    if not (np.isfinite(cum0[:, -1]).all() and np.isfinite(cum[..., -1]).all()):
        raise FloatingPointError("sampler table is not finite")
    u = np.zeros((C * len(data), n_max))
    u[np.repeat(live, C, axis=0)] = np.concatenate([v.ravel() for v in uniforms])
    return _walk(cum0, cum, u[:, :, None])[:, 0]


def _viterbi(node: np.ndarray, trans: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Max-product over a batch of padded lattices: the (B, n_max) argmax paths.

    node is (B, n_max, L), trans the (L, L) table every lattice shares, and
    instance b ends at position ``lengths[b] - 1``.  Every choice among
    labels, each previous label and each instance's last label, goes as
    ``np.argmax`` decides: the lowest index of the maximum, or of the first
    NaN.  Past its end a row repeats its last label.

    The forward pass runs longest-first: the instances are ordered by length,
    longest first (a stable sort), and the potentials copied once into an
    (n_max, L, B) block in that order, so the instances still live at
    position i are a prefix of k of them.  Each position scores the
    (L, L, k) table ``trellis[a] + trans[a, b]``, takes its maximum over a
    (``np.maximum.reduce``; a NaN score makes a NaN maximum) and adds it to
    the node, in place: the block becomes the max-product trellis, and no
    back-pointer is stored.  An instance's last label is the argmax of its
    trellis at its last position.  Backtracking recomputes each instance's
    previous label for the one label it takes, from the same sums
    ``trellis[a] + trans[a, label]``: the lowest a whose score equals their
    maximum or is NaN, the back-pointer the forward pass would have stored.
    No reduction runs across instances, so each keeps the bits of a batch
    of one.
    """
    B, n_max, L = node.shape
    order = np.argsort(-lengths, kind="stable")
    live = B - np.cumsum(np.bincount(lengths, minlength=n_max)[:n_max])  # live[i]: lengths > i
    # node may be a subclass of ndarray: the reorder below is not one of its gathers
    trellis = np.asarray(node).transpose(1, 2, 0)[:, :, order]  # (n_max, L, B), a copy
    for i in range(1, n_max):
        k = live[i]
        scores = trellis[i - 1, :, None, :k] + trans[:, :, None]  # [a, b, instance]
        trellis[i, :, :k] += np.maximum.reduce(scores, axis=0)
    cols = np.arange(B)
    label = trellis[lengths[order] - 1, :, cols].argmax(axis=1)
    # backtrack; an instance that has ended keeps its last label in its row
    path = np.empty((n_max, B), dtype=np.intp)
    for i in range(n_max - 1, 0, -1):
        path[i] = label
        k = live[i]
        # argmax: the lowest a whose score is the maximum, or the first NaN
        label[:k] = (trellis[i - 1, :, :k] + trans.take(label[:k], axis=1)).argmax(axis=0)
    path[0] = label
    rank = np.empty(B, dtype=np.intp)
    rank[order] = cols
    return path.T[rank]


def map_decode_paths(
    model: ChainModel, w: Weights, data: Sequence[ChainInstance]
) -> tuple[np.ndarray, np.ndarray]:
    """(paths, lengths): the Viterbi argmax of p_w(y|x) for every x in data as
    label indices, a (B, n_max) int array, and the (B,) instance lengths.

    One gather per template from the padded columns of
    ``model.compile_batch(data)`` (``_node_potentials``) gives every
    lattice, and one longest-first max-product pass (``_viterbi``, which
    states the tie and NaN rule) decodes them all: each position works only
    on the instances that reach it, the forward pass keeps only the trellis,
    and backtracking recomputes each back-pointer along the path.  w is
    converted once, after data is compiled.  Past its length a row repeats
    its last label.  An empty data is a ``ValueError``.
    """
    cols, lengths, _ = model.compile_batch(data)
    w = model.to_columns(w)
    return _viterbi(_node_potentials(w, cols), w[model.transition], lengths), lengths

