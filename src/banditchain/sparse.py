"""Sparse real-valued vectors: by feature id, as a dict or as two sorted arrays,
and by position in a short index range."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Tuple

import numpy as np


def left_sum(values) -> float:
    """values, a 1-d float array or sequence, summed as a left fold from 0.0 in order:
    the one summation of every sum whose bits a run pins (the builtin ``sum``
    compensates float rounding from CPython 3.12 on).  An overflow is inf, unwarned."""
    if not len(values):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        # accumulate is sequential from v[0]; 0.0 + turns a -0.0 into 0.0, as the fold does
        return 0.0 + float(np.add.accumulate(values, dtype=np.float64)[-1])


class SparseVector:
    """A mapping from feature id to a finite, nonzero float.

    Entries that are exactly zero are dropped, both on construction and after
    in-place updates, so iterating a vector only ever visits active
    coordinates.  All values are checked to be finite on construction; the
    arithmetic ops preserve finiteness for finite inputs.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[int, float] | Iterable[Tuple[int, float]] | None = None):
        clean: dict[int, float] = {}
        if data is not None:
            items = data.items() if hasattr(data, "items") else data
            for fid, value in items:
                value = float(value)
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value {value!r} for feature {fid}")
                if value != 0.0:
                    clean[int(fid)] = value
        self._data = clean

    @classmethod
    def _from_clean(cls, data: dict[int, float]) -> "SparseVector":
        out = cls.__new__(cls)
        out._data = data
        return out

    def copy(self) -> "SparseVector":
        return SparseVector._from_clean(dict(self._data))

    def get(self, fid: int, default: float = 0.0) -> float:
        return self._data.get(fid, default)

    def items(self) -> Iterable[Tuple[int, float]]:
        return self._data.items()

    def support(self) -> set[int]:
        return set(self._data)

    def __getitem__(self, fid: int) -> float:
        return self._data.get(fid, 0.0)

    def __setitem__(self, fid: int, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} for feature {fid}")
        if value == 0.0:
            self._data.pop(fid, None)
        else:
            self._data[int(fid)] = value

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __contains__(self, fid: int) -> bool:
        return fid in self._data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        shown = dict(sorted(self._data.items())[:6])
        more = "" if len(self._data) <= 6 else f", ... ({len(self._data)} entries)"
        return f"SparseVector({shown!r}{more})"

    # -- arithmetic ---------------------------------------------------------

    def add_scaled(self, other: "SparseVector", scale: float = 1.0) -> "SparseVector":
        """In-place ``self += scale * other``; returns self."""
        if scale == 0.0:
            return self
        data = self._data
        for fid, value in other._data.items():
            new = data.get(fid, 0.0) + scale * value
            if new == 0.0:
                data.pop(fid, None)
            else:
                data[fid] = new
        return self

    def scale(self, c: float) -> "SparseVector":
        """In-place multiplication by a scalar; returns self."""
        if c == 0.0:
            self._data.clear()
        elif c != 1.0:
            for fid in self._data:
                self._data[fid] *= c
        return self

    def scaled(self, c: float) -> "SparseVector":
        if c == 0.0:
            return SparseVector()
        return SparseVector._from_clean({f: c * v for f, v in self._data.items()})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        return self.copy().add_scaled(other, 1.0)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self.copy().add_scaled(other, -1.0)

    def dot(self, other: "SparseVector") -> float:
        a, b = self._data, other._data
        if len(b) < len(a):
            a, b = b, a
        return left_sum([v * b[f] for f, v in a.items() if f in b])

    def norm_sq(self) -> float:
        return left_sum([v * v for v in self._data.values()])

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


class SortedVector:
    """An immutable id-keyed vector held in two read-only arrays: int64 ``ids``
    in strictly ascending order and their float64 ``values``.

    The form a checkpoint stores and ``ChainModel.to_columns`` looks up in one
    ``searchsorted``: the weights at the edges of a run.  Construction copies
    the arrays and drops the entries that are exactly zero; a non-finite
    value, or ids that are not strictly ascending, is a ``ValueError`` naming
    the first bad id.  ``items()`` gives Python (int, float) pairs by
    ascending id, and a vector equals a SparseVector of the same entries.
    """

    __slots__ = ("ids", "values")

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        ids, values = np.array(ids, dtype=np.int64), np.array(values, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != values.shape:
            raise ValueError(f"ids of shape {ids.shape} and values of shape {values.shape}")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"non-finite value {float(values[bad[0]])!r} "
                             f"for feature {int(ids[bad[0]])}")
        bad = np.flatnonzero(ids[1:] <= ids[:-1])
        if bad.size:
            raise ValueError(f"feature ids are not strictly ascending: {int(ids[bad[0] + 1])} "
                             f"after {int(ids[bad[0]])}")
        nonzero = values != 0.0
        if not nonzero.all():
            ids, values = ids[nonzero], values[nonzero]
        ids.flags.writeable = values.flags.writeable = False
        self.ids, self.values = ids, values

    @classmethod
    def from_sparse(cls, w: SparseVector) -> "SortedVector":
        """The entries of w sorted by id; an id outside int64 is a ``ValueError``:
        the one route by which a SparseVector enters the model or a checkpoint."""
        data = w._data
        try:
            fids = np.fromiter(data, np.int64, len(data))
        except OverflowError:
            bad = next(fid for fid in data if not -(1 << 63) <= fid < 1 << 63)
            raise ValueError(f"feature id {bad} does not fit in int64") from None
        order = np.argsort(fids)
        return cls(fids[order], np.fromiter(data.values(), np.float64, len(data))[order])

    def items(self) -> Iterable[Tuple[int, float]]:
        return zip(self.ids.tolist(), self.values.tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SortedVector):
            return bool(np.array_equal(self.ids, other.ids)
                        and np.array_equal(self.values, other.values))
        if isinstance(other, SparseVector):
            return len(self) == len(other) and dict(self.items()) == other._data
        return NotImplemented

    def __repr__(self) -> str:
        shown = dict(zip(self.ids[:6].tolist(), self.values[:6].tolist()))
        more = "" if len(self) <= 6 else f", ... ({len(self)} entries)"
        return f"SortedVector({shown!r}{more})"


class IndexedVector:
    """A SparseVector over the indices 0..m-1, held in two arrays.

    ``values[i]`` is entry i and ``rank[i]`` its insertion rank, or -1 when
    the entry is absent (its value is then zero).  The arithmetic replays
    SparseVector's dict semantics: an absent entry reads 0.0, an update that
    gives exactly zero drops the entry, and an entry added anew goes after
    every present one.  ``entries()`` therefore lists the entries in the
    order the dict-based arithmetic would, and a sequential sum over them
    keeps its bits.
    """

    __slots__ = ("values", "rank", "next_rank")

    def __init__(self, values: np.ndarray, rank: np.ndarray, next_rank: int):
        self.values = values
        self.rank = rank
        self.next_rank = next_rank

    @classmethod
    def from_array(cls, values: np.ndarray) -> "IndexedVector":
        """The nonzero entries of a dense array, in index order."""
        m = len(values)
        return cls(values, np.where(values != 0.0, np.arange(m), -1), m)

    @classmethod
    def from_counts(cls, indices: np.ndarray, m: int) -> "IndexedVector":
        """Counts of the indices, ordered by first occurrence."""
        first = list(dict.fromkeys(indices.tolist()))
        rank = np.full(m, -1)
        rank[first] = np.arange(len(first))
        return cls(np.bincount(indices, minlength=m).astype(float), rank, len(first))

    def add_scaled(self, other: "IndexedVector", scale: float = 1.0) -> "IndexedVector":
        """In-place ``self += scale * other``; returns self."""
        if scale == 0.0:
            return self
        # an absent entry of other holds zero, so adding it changes nothing
        touched = other.rank >= 0
        self.values += scale * other.values
        rank = np.where(touched & (self.rank < 0), other.rank + self.next_rank, self.rank)
        rank[touched & (self.values == 0.0)] = -1
        self.rank = rank
        self.next_rank += other.next_rank
        return self

    def scale(self, c: float) -> "IndexedVector":
        """In-place multiplication by a scalar; returns self."""
        if c == 0.0:
            self.values[:] = 0.0
            self.rank[:] = -1
        elif c != 1.0:
            self.values *= c
        return self

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) of the present entries, in insertion order."""
        present = np.flatnonzero(self.rank >= 0)
        present = present[np.argsort(self.rank[present])]
        return present, self.values[present]
