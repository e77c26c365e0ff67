import math

import numpy as np
import pytest

from banditchain import SparseVector
from banditchain.sparse import IndexedVector


def test_zero_entries_dropped_on_construction():
    v = SparseVector({1: 0.0, 2: 3.0})
    assert len(v) == 1
    assert v[1] == 0.0
    assert v[2] == 3.0


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        SparseVector({1: float("nan")})
    with pytest.raises(ValueError):
        SparseVector({1: float("inf")})
    v = SparseVector()
    with pytest.raises(ValueError):
        v[3] = float("-inf")


def test_setitem_drops_zero():
    v = SparseVector({1: 2.0})
    v[1] = 0.0
    assert 1 not in v
    assert len(v) == 0


def test_add_scaled_cancellation_removes_entry():
    v = SparseVector({1: 2.0, 2: 1.0})
    v.add_scaled(SparseVector({1: 1.0}), -2.0)
    assert 1 not in v
    assert v == SparseVector({2: 1.0})


def test_arithmetic():
    a = SparseVector({1: 1.0, 2: 2.0})
    b = SparseVector({2: 3.0, 3: -1.0})
    assert a + b == SparseVector({1: 1.0, 2: 5.0, 3: -1.0})
    assert a - b == SparseVector({1: 1.0, 2: -1.0, 3: 1.0})
    assert a.scaled(2.0) == SparseVector({1: 2.0, 2: 4.0})
    assert a.scaled(-1.0) == SparseVector({1: -1.0, 2: -2.0})
    assert a.dot(b) == 6.0
    assert a.norm_sq() == 5.0
    assert a.norm() == math.sqrt(5.0)


def test_scale_in_place():
    v = SparseVector({1: 2.0, 2: -4.0})
    v.scale(0.5)
    assert v == SparseVector({1: 1.0, 2: -2.0})
    v.scale(0.0)
    assert len(v) == 0


def test_dot_is_symmetric_and_ignores_disjoint_support():
    a = SparseVector({1: 1.5, 7: 2.0})
    b = SparseVector({7: -2.0, 9: 100.0})
    assert a.dot(b) == b.dot(a) == -4.0
    assert SparseVector().dot(a) == 0.0


def test_copy_is_independent():
    a = SparseVector({1: 1.0})
    b = a.copy()
    b[1] = 5.0
    assert a[1] == 1.0



def test_indexed_vector_replays_sparse_vector_order_and_values():
    # random add_scaled and scale sequences, with SparseVector as the reference
    rng = np.random.default_rng(0)
    m = 12

    def pair():
        # small counts and halves make exact cancellations common, so entries
        # are dropped and added again
        if rng.random() < 0.5:
            fired = rng.integers(0, m, size=int(rng.integers(1, 8)))
            ref = SparseVector()
            for i in fired.tolist():
                ref[i] = ref[i] + 1.0
            return IndexedVector.from_counts(fired, m), ref
        dense = np.where(rng.random(m) < 0.5, rng.integers(-2, 3, m) / 2.0, 0.0)
        return IndexedVector.from_array(dense), SparseVector(enumerate(dense))

    def listed(vec):
        idx, values = vec.entries()
        return list(zip(idx.tolist(), values.tolist()))

    for _ in range(300):
        vec, ref = pair()
        for _ in range(4):
            other, other_ref = pair()
            scale = float(rng.choice([-1.0, 0.5, 2.0, 0.0]))
            vec.add_scaled(other, scale)
            ref.add_scaled(other_ref, scale)
            assert listed(vec) == list(ref.items())
        vec.scale(0.25)
        ref.scale(0.25)
        assert listed(vec) == list(ref.items())
