import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shapley_lg import DimensionCapError
from shapley_lg import subsets


def test_encode_examples():
    assert subsets.encode([], 3) == 0
    assert subsets.encode([1], 3) == 1
    assert subsets.encode([1, 3], 3) == 5


def test_encode_rejects_bad_elements():
    with pytest.raises(ValueError):
        subsets.encode([0], 3)
    with pytest.raises(ValueError):
        subsets.encode([4], 3)
    with pytest.raises(ValueError):
        subsets.encode([2, 2], 3)


def test_decode_examples():
    assert subsets.decode(0, 3) == ()
    assert subsets.decode(5, 3) == (1, 3)
    assert subsets.decode(7, 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        subsets.decode(8, 3)
    with pytest.raises(ValueError):
        subsets.decode(-1, 3)
    # numpy integers, as mask arrays hold them, and masks past 64 bits
    assert subsets.decode(np.int64(5), 3) == (1, 3)
    assert subsets.decode(1 << 69 | 1 << 63 | 2, 70) == (2, 64, 70)
    with pytest.raises(ValueError):
        subsets.decode(1 << 70, 70)
    # a fractional mask is no mask, and a whole float is not read as one
    for j in (5.5, 4.9, 5.0, np.float64(5)):
        with pytest.raises(TypeError):
            subsets.decode(j, 3)


def test_cardinality_examples():
    assert subsets.cardinality(0) == 0
    assert subsets.cardinality(5) == 2
    for p in (1, 4, 10):
        assert subsets.cardinality((1 << p) - 1) == p


@given(st.integers(1, 16), st.data())
def test_roundtrip(p, data):
    j = data.draw(st.integers(0, (1 << p) - 1))
    u = subsets.decode(j, p)
    assert subsets.encode(u, p) == j
    assert subsets.decode(subsets.encode(u, p), p) == u


def test_cardinality_table():
    table = subsets.cardinality_table(10)
    assert table.size == 1024
    expected = np.array([subsets.cardinality(j) for j in range(1024)])
    assert np.array_equal(table, expected)


def test_lattice_cap():
    subsets.check_lattice_cap(25)
    with pytest.raises(DimensionCapError):
        subsets.check_lattice_cap(26)
    with pytest.raises(DimensionCapError):
        subsets.cardinality_table(26)
