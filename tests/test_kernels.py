"""The kernels against the plain scans and loops they replaced: the symbol-
by-symbol exhaustive center scan, the candidate-by-candidate random and
greedy searches, and the O(M^2) pair loop."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes import kernels
from agcodes.errors import PreconditionError
from agcodes.field import make_field


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


def _loop_count(word_arrays, radii, digits):
    """Survivors of one center, word by word."""
    n = word_arrays[0].shape[1]
    return sum(
        all(int((words[i] != np.array(digits[r * n : (r + 1) * n])).sum()) <= radii[r]
            for r, words in enumerate(word_arrays))
        for i in range(len(word_arrays[0]))
    )


def random_loop(word_arrays, radii, alphabet_size, seed, trials):
    """The all-zeros center and `trials` seeded centers scored one at a
    time; (count, center digits, candidates) of the first maximizer."""
    rng = random.Random(seed)
    total = len(word_arrays) * word_arrays[0].shape[1]
    candidates = [tuple([0] * total)] + [
        tuple(rng.randrange(alphabet_size) for _ in range(total)) for _ in range(trials)
    ]
    scores = [_loop_count(word_arrays, radii, c) for c in candidates]
    k = scores.index(max(scores))
    return scores[k], candidates[k], len(candidates)


def greedy_loop(word_arrays, radii, alphabet_size, seed):
    """Single-coordinate hill climbing that rescores every trial center in
    full; (count, center digits, candidates evaluated)."""
    rng = random.Random(seed)
    total = len(word_arrays) * word_arrays[0].shape[1]
    current = [rng.randrange(alphabet_size) for _ in range(total)]
    current_count = _loop_count(word_arrays, radii, current)
    evaluated = 1
    improved = True
    while improved:
        improved = False
        for pos in range(total):
            original = current[pos]
            for sym in range(alphabet_size):
                if sym == original:
                    continue
                current[pos] = sym
                c = _loop_count(word_arrays, radii, current)
                evaluated += 1
                if c > current_count:
                    current_count, original, improved = c, sym, True
                else:
                    current[pos] = original
    zeros = [0] * total
    zeros_count = _loop_count(word_arrays, radii, zeros)
    if zeros_count > current_count:
        return zeros_count, tuple(zeros), evaluated + 1
    return current_count, tuple(current), evaluated + 1


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
    """Both strategies that score every center, the ball-point histogram
    (exhaustive) and the center scan (census), against the plain scan."""
    count, centers, survivors, census = scan_center_search(word_arrays, radii, alphabet_size)
    space = alphabet_size ** (len(word_arrays) * word_arrays[0].shape[1])
    for strategy in ("exhaustive", "census"):
        got = kernels.center_search(word_arrays, radii, alphabet_size, strategy)
        assert got.best_count == count
        assert got.centers == centers
        assert np.array_equal(got.survivor_indices, survivors)
        assert got.census_total == (census if strategy == "census" else None)
        assert got.expected_census == census  # the averaging identity, finished in the search
        assert got.n_candidates == space


def assert_heuristics_match_loops(word_arrays, radii, alphabet_size, seed, trials):
    n = word_arrays[0].shape[1]
    for strategy, (count, digits, n_cand) in (
        ("random", random_loop(word_arrays, radii, alphabet_size, seed, trials)),
        ("greedy", greedy_loop(word_arrays, radii, alphabet_size, seed)),
    ):
        got = kernels.center_search(word_arrays, radii, alphabet_size, strategy, seed, trials)
        assert got.best_count == count
        assert got.centers == tuple(
            tuple(digits[r * n : (r + 1) * n]) for r in range(len(word_arrays))
        )
        assert np.array_equal(
            got.survivor_indices,
            np.nonzero(kernels._survivor_mask(word_arrays, radii, digits, n))[0],
        )
        assert got.n_candidates == n_cand
        assert got.census_total is None


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


@pytest.mark.parametrize("alphabet_size", [2, 3, 5, 9])
@pytest.mark.parametrize("m,n", SHAPES)
def test_random_and_greedy_match_loops(alphabet_size, m, n):
    rng = np.random.default_rng(100 * alphabet_size + 10 * m + n)
    for duplicates in (False, True):
        arrays = _arrays(rng, alphabet_size, m, n, rows=12, duplicates=duplicates)
        for radii in ([0] * m, [n] * m, [int(rng.integers(0, n + 1)) for _ in range(m)]):
            seed = int(rng.integers(0, 1 << 31))
            assert_heuristics_match_loops(arrays, radii, alphabet_size, seed, trials=20)


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
        assert_heuristics_match_loops(arrays, radii, 4, seed=5, trials=30)


def test_center_search_needs_a_word_array():
    # no word array gives no length to search over, even though the empty
    # radii match the empty list of arrays
    with pytest.raises(PreconditionError):
        kernels.center_search([], (), 3)


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
    repeats = draw(st.integers(0, rows))  # the first rows once more
    arrays = [np.concatenate([a, a[:repeats]]) for a in arrays]
    radii = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    return arrays, radii, alphabet_size


@settings(max_examples=60, deadline=None)
@given(search_inputs(), st.integers(0, 1 << 31), st.integers(0, 40))
def test_property_search_and_distance_match_scans(inputs, seed, trials):
    arrays, radii, alphabet_size = inputs
    if alphabet_size ** (len(arrays) * arrays[0].shape[1]) <= 5 ** 4:
        assert_search_matches_scan(arrays, radii, alphabet_size)
    assert_heuristics_match_loops(arrays, radii, alphabet_size, seed, trials)
    if len(arrays[0]) >= 2:
        assert kernels.pairwise_min_distance(arrays[0]) == pair_loop(arrays[0])


# ---------------------------------------------------------------------------
# span_search against the same scans and loops. Its coset route never forms
# the spans; a survivor index is a row index of the span.

_SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


def assert_coset_search_matches_scans(field, rows, radii, seed, trials):
    q, n = field.q, len(rows[0][0])
    spans = [kernels.linear_span_words(field, r) for r in rows]
    count, centers, survivors, census = scan_center_search(spans, radii, q)
    for strategy in ("exhaustive", "census"):
        got = kernels.span_search(field, rows, radii, strategy)
        assert (got.best_count, got.centers) == (count, centers)
        assert np.array_equal(got.survivor_indices, survivors)
        assert got.n_candidates == q ** (len(rows) * n)
        assert got.census_total == (census if strategy == "census" else None)
        assert got.expected_census == census
    for strategy, (count, digits, n_cand) in (
        ("random", random_loop(spans, radii, q, seed, trials)),
        ("greedy", greedy_loop(spans, radii, q, seed)),
    ):
        got = kernels.span_search(field, rows, radii, strategy, seed, trials)
        assert got.best_count == count and got.n_candidates == n_cand
        assert got.centers == tuple(tuple(digits[r * n : (r + 1) * n]) for r in range(len(rows)))
        assert np.array_equal(
            got.survivor_indices, np.nonzero(kernels._survivor_mask(spans, radii, digits, n))[0]
        )


@st.composite
def coset_inputs(draw):
    field = make_field(*draw(st.sampled_from(_SMALL_FIELDS)))
    q = field.q
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, max(1, 4 // m)))
    # up to two rows past m*N, so rank-deficient bases come up, within 729 span words
    k = draw(st.integers(1, min(m * n + 2, math.floor(math.log(729.5, q)))))
    cells = st.integers(0, q - 1)
    rows = [draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=k, max_size=k))
            for _ in range(m)]
    zeroed = draw(st.integers(0, k))  # the last rows zero at every order: ties everywhere
    rows = [r[: k - zeroed] + [[0] * n] * zeroed for r in rows]
    radii = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    return field, rows, radii


@settings(max_examples=60, deadline=None)
@given(coset_inputs(), st.integers(0, 1 << 31), st.integers(0, 40))
def test_property_coset_search_matches_scans(inputs, seed, trials):
    field, rows, radii = inputs
    assert_coset_search_matches_scans(field, rows, radii, seed, trials)


@pytest.mark.parametrize("p,alpha", _SMALL_FIELDS)
@pytest.mark.parametrize("m,n", [(1, 4), (2, 2), (3, 1)])
def test_coset_search_grid(p, alpha, m, n):
    # full-rank, rank-deficient (a repeated row) and, where the span stays
    # within 729 words, wider-than-long bases, each at radius 0, at radius N
    # and at mixed radii
    field = make_field(p, alpha)
    rng = np.random.default_rng(100 * field.q + 10 * m + n)
    for k in sorted({1, m * n, min(m * n + 1, math.floor(math.log(729.5, field.q)))}):
        rows = [rng.integers(0, field.q, (k, n)).tolist() for _ in range(m)]
        if k > 1:
            rows = [r[:-1] + [r[0]] for r in rows]
        for radii in ([0] * m, [n] * m, [int(rng.integers(0, n + 1)) for _ in range(m)]):
            seed = int(rng.integers(0, 1 << 31))
            assert_coset_search_matches_scans(field, rows, radii, seed, trials=20)


def test_coset_search_keys_past_64_bits():
    # GF(9), N = 27: 9^27 centers, more than 2^63, so a center read as one
    # integer would overflow. The oracle counts ball points as tuples.
    field, n = make_field(3, 2), 27
    assert 9 ** n > 1 << 63
    rows = [[1, 1] + [0] * 25, [0, 2, 3, 0, 0, 5] + [0] * 21, [0] * 26 + [7]]
    span = kernels.linear_span_words(field, rows)
    hits = {}
    for word in span.tolist():
        for j in range(-1, n):  # the word itself, then every one-symbol change
            for s in ([None] if j < 0 else range(9)):
                if s is not None and s == word[j]:
                    continue
                center = tuple(word if j < 0 else word[:j] + [s] + word[j + 1 :])
                hits[center] = hits.get(center, 0) + 1
    best = max(hits.values())
    least = min(c for c, h in hits.items() if h == best)
    got = kernels.span_search(field, [rows], [1])
    assert best > 1 and (got.best_count, got.centers) == (best, (least,))
    within = (span != np.array(least, dtype=np.uint8)).sum(axis=1) <= 1
    assert np.array_equal(got.survivor_indices, np.nonzero(within)[0])


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_coset_search_reduces_across_chunks(cells, monkeypatch):
    # the ball product reduced a few rows at a time gives the same outcome
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    field = make_field(2, 2)
    rng = np.random.default_rng(cells)
    for m, n in ((1, 4), (2, 2)):
        rows = [rng.integers(0, 4, (3, n)).tolist() for _ in range(m)]
        for radii in ([1] * m, [n] * m):
            assert_coset_search_matches_scans(field, rows, radii, seed=3, trials=20)


def test_coset_search_refuses_past_the_cell_cap(monkeypatch):
    # GF(9), N = 27, m = 2 at radii (1, 2): 217 * 22681 ball vectors of 54
    # symbols are past the coset route's cap, so the search takes the word
    # scan, whose 9^54 centers are refused before any ball or span is built
    def refuse(*args):
        raise AssertionError("a ball or a span was built")

    monkeypatch.setattr(kernels, "_ball_offsets", refuse)
    monkeypatch.setattr(kernels, "linear_span_words", refuse)
    cells = kernels.ball_product_cells(27, (1, 2), 9)
    assert cells == 217 * 22681 * 54 > kernels.SPAN_CELL_CAP
    with pytest.raises(PreconditionError, match=f"exhaustive center space {9 ** 54} exceeds"):
        kernels.span_search(make_field(3, 2), [[[1] * 27], [[2] * 27]], (1, 2))


def test_coset_search_needs_a_basis_per_radius():
    with pytest.raises(PreconditionError):
        kernels.span_search(make_field(3, 1), [], ())
    with pytest.raises(PreconditionError):
        kernels.span_search(make_field(3, 1), [[[1, 2]]], (0, 0))
