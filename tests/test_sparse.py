import math

import numpy as np
import pytest

from banditchain import SortedVector, SparseVector
from banditchain.sparse import IndexedVector, left_sum


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_left_sum_is_a_left_fold_from_zero():
    rng = np.random.default_rng(4)
    for size in (1, 2, 7, 1161):
        values = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size)
        fold = 0.0
        for value in values.tolist():
            fold += value
        assert left_sum(values) == left_sum(values.tolist()) == fold
        assert type(left_sum(values)) is float
    assert left_sum([]) == 0.0 and left_sum(np.zeros(0)) == 0.0
    # 0.0 + -0.0 is 0.0: the fold starts from 0.0, not from the first value
    assert math.copysign(1.0, left_sum([-0.0])) == math.copysign(1.0, left_sum([-0.0, -0.0])) == 1.0
    assert left_sum([1e308, 1e308, -1e308]) == math.inf  # overflow stays inf, unwarned
    assert math.isnan(left_sum([math.inf, -math.inf]))


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


def test_sorted_vector_arrays_are_read_only_copies():
    ids, values = np.array([1, 5, 9]), np.array([2.0, 0.0, -3.0])
    v = SortedVector(ids, values)
    ids[0], values[0] = 7, 7.0  # the vector holds copies
    assert (v.ids.tolist(), v.values.tolist()) == ([1, 9], [2.0, -3.0])  # the zero is dropped
    assert v.ids.dtype == np.int64 and v.values.dtype == np.float64
    for array in (v.ids, v.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_sorted_vector_equals_the_sparse_vector_of_its_entries_both_ways():
    sparse = SparseVector({9: 1.0, -3: 2.5, 4: -1.0})
    v = SortedVector.from_sparse(sparse)
    assert v == sparse and sparse == v
    assert not (v != sparse or sparse != v)
    assert v == SortedVector([-3, 4, 9], [2.5, -1.0, 1.0])
    items = list(v.items())
    assert items == [(-3, 2.5), (4, -1.0), (9, 1.0)]  # ascending id
    assert all(type(fid) is int and type(value) is float for fid, value in items)
    assert len(v) == 3
    for other in (SparseVector({9: 1.0, -3: 2.5, 4: -2.0}), SparseVector({9: 1.0, -3: 2.5}),
                  SparseVector({9: 1.0, -3: 2.5, 5: -1.0})):
        assert v != other and other != v
        assert v != SortedVector.from_sparse(other)
    assert SortedVector([], []) == SparseVector() and SparseVector() == SortedVector([], [])
    assert v != {-3: 2.5, 4: -1.0, 9: 1.0}


@pytest.mark.parametrize("ids, values, message", [
    ([3, 7, 7], [1.0, 2.0, 3.0], "not strictly ascending: 7 after 7"),
    ([3, 9, 5], [1.0, 2.0, 3.0], "not strictly ascending: 5 after 9"),
    ([3, 7], [1.0, float("nan")], "non-finite value nan for feature 7"),
    ([3, 7], [1.0], "shape"),
])
def test_sorted_vector_rejects_ids_out_of_order_and_non_finite_values(ids, values, message):
    with pytest.raises(ValueError, match=message):
        SortedVector(np.array(ids), np.array(values))
