"""The agreement kernel against the plain scans it replaced: the symbol-by-
symbol exhaustive center scan and the O(M^2) pair loop."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes import kernels


def scan_center_search(word_arrays, radii, alphabet_size):
    """Decode every center's digits, compare it with every word symbol by
    symbol, keep the first maximizer; (best_count, centers, survivor
    indices, census total)."""
    n = word_arrays[0].shape[1]
    total = len(word_arrays) * n
    centers = np.array(list(itertools.product(range(alphabet_size), repeat=total)))
    ok = True
    for r, (words, radius) in enumerate(zip(word_arrays, radii)):
        d = (words[None, :, :] != centers[:, None, r * n : (r + 1) * n]).sum(axis=2)
        ok = ok & (d <= radius)
    counts = ok.sum(axis=1)
    best = int(np.argmax(counts))
    per_r = tuple(
        tuple(int(s) for s in centers[best, r * n : (r + 1) * n])
        for r in range(len(word_arrays))
    )
    return int(counts[best]), per_r, np.nonzero(ok[best])[0], int(counts.sum())


def pair_loop(arr):
    """(distance, (i, j)) of the first closest pair in row-major order."""
    best = None
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            d = int((arr[i] != arr[j]).sum())
            if best is None or d < best[0]:
                best = (d, (i, j))
    return best


def assert_search_matches_scan(word_arrays, radii, alphabet_size):
    got = kernels.center_search(word_arrays, radii, alphabet_size, census=True)
    count, centers, survivors, census = scan_center_search(word_arrays, radii, alphabet_size)
    assert got.best_count == count
    assert got.centers == centers
    assert np.array_equal(got.survivor_indices, survivors)
    assert got.census_total == census
    space = alphabet_size ** (len(word_arrays) * word_arrays[0].shape[1])
    assert got.n_candidates == space


def _arrays(rng, alphabet_size, m, n, rows, duplicates=False):
    arrays = [rng.integers(0, alphabet_size, (rows, n)).astype(np.uint8) for _ in range(m)]
    if duplicates:
        arrays = [np.concatenate([a, a[: rows // 2], a[:1]]) for a in arrays]
    return arrays


# words of length n per order, chosen so that alphabet^(m n) stays small for the scan
SHAPES = [(1, 4), (2, 2), (3, 1)]


@pytest.mark.parametrize("alphabet_size", [2, 3, 4, 5, 6, 7, 8, 9, 10])
@pytest.mark.parametrize("m,n", SHAPES)
def test_exhaustive_search_matches_scan(alphabet_size, m, n):
    rng = np.random.default_rng(1000 * alphabet_size + 10 * m + n)
    if alphabet_size ** (m * n) > 10 ** 4:
        n -= 1
    for duplicates in (False, True):
        arrays = _arrays(rng, alphabet_size, m, n, rows=12, duplicates=duplicates)
        for radii in ([0] * m, [n] * m, [int(rng.integers(0, n + 1)) for _ in range(m)]):
            assert_search_matches_scan(arrays, radii, alphabet_size)


@pytest.mark.parametrize("cells", [kernels._CHUNK_CELLS, 1, 7, 4096])
def test_exhaustive_search_ties_across_chunks(cells, monkeypatch):
    # identical words, and radii that let every center keep every word: the
    # maximum ties across many chunks and the least center must win
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    arrays = [np.zeros((5, 3), dtype=np.uint8), np.ones((5, 3), dtype=np.uint8)]
    for radii in ([0, 0], [1, 0], [3, 3]):
        assert_search_matches_scan(arrays, radii, 3)
    rng = np.random.default_rng(7)
    arrays = _arrays(rng, 4, 2, 3, rows=20, duplicates=True)
    for radii in ([1, 2], [3, 3], [0, 0]):
        assert_search_matches_scan(arrays, radii, 4)


@pytest.mark.parametrize("alphabet_size", [2, 5, 9, 10])
def test_agreements_count_equal_positions(alphabet_size):
    rng = np.random.default_rng(alphabet_size)
    a = rng.integers(0, alphabet_size, (40, 7)).astype(np.uint8)
    b = rng.integers(0, alphabet_size, (25, 7)).astype(np.uint8)
    expected = (a[:, None, :] == b[None, :, :]).sum(axis=2)
    assert np.array_equal(kernels.agreements(a, b, alphabet_size), expected)


@pytest.mark.parametrize("alphabet_size", [2, 3, 9, 10])
def test_pairwise_matches_pair_loop(alphabet_size, monkeypatch):
    rng = np.random.default_rng(alphabet_size)
    arr = rng.integers(0, alphabet_size, (60, 6)).astype(np.uint8)
    expected = pair_loop(arr)
    assert kernels.pairwise_min_distance(arr) == expected
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", 16)  # 4-row tiles
    assert kernels.pairwise_min_distance(arr) == expected
    dup = np.concatenate([arr, arr[[17, 3]]])
    found = kernels.pairwise_min_distance(dup)
    assert found == pair_loop(dup) and found[0] == 0


def test_pairwise_fewer_than_two_rows():
    assert kernels.pairwise_min_distance(np.zeros((1, 4), dtype=np.uint8)) is None


@st.composite
def search_inputs(draw):
    alphabet_size = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, max(1, 6 // m)))
    rows = draw(st.integers(1, 8))
    cells = st.integers(0, alphabet_size - 1)
    arrays = [
        np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                               min_size=rows, max_size=rows)), dtype=np.uint8)
        for _ in range(m)
    ]
    radii = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    return arrays, radii, alphabet_size


@settings(max_examples=60, deadline=None)
@given(search_inputs())
def test_property_search_and_distance_match_scans(inputs):
    arrays, radii, alphabet_size = inputs
    if alphabet_size ** (len(arrays) * arrays[0].shape[1]) <= 5 ** 4:
        assert_search_matches_scan(arrays, radii, alphabet_size)
    if len(arrays[0]) >= 2:
        assert kernels.pairwise_min_distance(arrays[0]) == pair_loop(arrays[0])
