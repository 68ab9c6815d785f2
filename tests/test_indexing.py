import pytest
from hypothesis import given, strategies as st

from oracles import mode_of_sector
from pblab.indexing import (
    ModeIndex,
    SectorIndex,
    dim,
    flatten,
    safe_dim,
    sector,
    sector_range,
    unflatten,
)


@pytest.mark.parametrize(
    "n1, n2, n",
    [
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 2),
        (3, 0, 9),
        (2, 1, 8),
    ],
)
def test_flatten_known_values(n1, n2, n):
    assert flatten(n1, n2) == n


@pytest.mark.parametrize(
    "n, n1, n2",
    [
        (0, 0, 0),
        (4, 1, 1),  # sector L=2 starts at 3, so n1 = 4 - 3 = 1
        (9, 3, 0),
    ],
)
def test_unflatten_known_values(n, n1, n2):
    assert unflatten(n) == ModeIndex(n1, n2)


def test_sector_labels():
    assert sector(2, 1) == SectorIndex(3, 2)
    assert sector(0, 5) == SectorIndex(5, 0)
    assert mode_of_sector(1, 1) == ModeIndex(1, 0)
    assert mode_of_sector(3, 3) == ModeIndex(3, 0)


def test_roundtrip_exhaustive_to_degree_200():
    seen = {}
    for L in range(201):
        for n1 in range(L + 1):
            n = flatten(n1, L - n1)
            assert n not in seen, "flat indices must not collide"
            seen[n] = (n1, L - n1)
            assert unflatten(n) == (n1, L - n1)
    # flat indices of the full triangle are exactly 0..dim-1
    assert sorted(seen) == list(range(dim(200)))


def test_sector_blocks_contiguous_and_monotone():
    for L in range(40):
        rng = sector_range(L)
        assert rng.start == L * (L + 1) // 2
        assert rng.stop - rng.start == L + 1
        flats = [flatten(m, L - m) for m in range(L + 1)]
        assert flats == list(rng)  # monotone in n1 at fixed L


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_roundtrip_large_labels(n1, n2):
    assert unflatten(flatten(n1, n2)) == (n1, n2)


@given(st.integers(min_value=0, max_value=10**12))
def test_unflatten_is_right_inverse(n):
    n1, n2 = unflatten(n)
    assert n1 >= 0 and n2 >= 0
    assert flatten(n1, n2) == n


def test_dims():
    assert dim(0) == 1
    assert dim(3) == 10
    assert safe_dim(12) == 78
    assert dim(12) == 91


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        flatten(-1, 0)
    with pytest.raises(ValueError):
        unflatten(-3)
    with pytest.raises(ValueError):
        mode_of_sector(2, 3)
    with pytest.raises(ValueError):
        safe_dim(0)
