"""numpy kernels for the exhaustive-search hot paths: spanning a linear
space of words, the exact proof that a word set is a subspace, the one
Taylor kernel behind every expansion word, the ball-center searches, and
one exact agreement kernel behind the pairwise minimum distance and the
center scans.

`taylor` returns the Taylor coefficients of every column of a coefficient
array at every point in one call, in the binomial form on the field's
tables; `leading`, `series_quotient` and `series_product` read
multiplicities and divide and multiply truncated series. The basis rows of
Goppa and Xing codes (the curves' `expansions`) and the section words
(`sections.phi_words`) are built from these four.

`agreements` counts the equal positions of every pair of rows as a float32
product of one-hot encodings. A count never exceeds the word length, far
below 2^24, so every product is an exact integer. Work is split into blocks
of at most _CHUNK_CELLS elements, and every reduction keeps the first
extremum in ascending index order, so no result depends on the block size.

When the words are the span of basis rows (Xing's codes), `span_search`
chooses the route. The coset route never forms the span. A center keeps
the words within the radii of it, and the words form a linear code C, so a
center's survivor count depends only on its coset modulo C: it is the
number of ball-product vectors in that coset times the size of the kernel
of the basis. The basis is brought to reduced echelon form on the field's
tables; every ball-product vector reduces to the representative that is
zero at the pivot columns, which is also the lexicographically least vector
of its coset, and the representatives are counted under exact byte keys.
The survivors are then solved for at the one chosen center only. The ball
product is held whole, like a span, so the coset route takes ball products
of at most SPAN_CELL_CAP symbols; its reduction runs in blocks. The census,
and a search past that cap, form the span and scan its words with
`center_search`, once an exhaustive or census search has checked its center
count against EXHAUSTIVE_CENTER_CAP.

For word arrays (`center_search`) the exhaustive search counts ball points
rather than scanning centers: every (word, point of the ball product around
it) pair lands on exactly one center, so the survivor counts are one
histogram over words x ball points. Only the census strategy still scans
every center, so that the identity sum of counts = words x ball size is
checked by enumeration rather than holding by construction. The random and
greedy strategies score their candidates with `agreements` and with
per-word distances kept across single-coordinate moves; both routes share
the candidate draw and the greedy walk, so they pick the same centers.
Every search ends in `_finish`: it recounts the survivors at the chosen
center, records the exact average and the expected census sum, holds an
exhaustive or census maximum to the average's ceiling, and returns the
finished `SearchOutcome`.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, VerificationError

EXHAUSTIVE_CENTER_CAP = 1 << 24
SPAN_CELL_CAP = 1 << 26

_CHUNK_CELLS = 1 << 22


def field_tables(field):
    """The field's own read-only (ADD, MUL) uint8 lookup tables
    (FieldSpec.tables), for the field orders <= 256 these kernels support."""
    if field.q > 256:
        raise PreconditionError("vector kernels support field order <= 256")
    return field.tables


def neg_inv(add: np.ndarray, mul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-a, 1/a) for every encoding a, read from the tables (1/0 reads 0)."""
    return (add == 0).argmax(axis=1), (mul == 1).argmax(axis=1)


def row_keys(arr: np.ndarray) -> np.ndarray:
    """One opaque key per row whose byte order is the rows' lexicographic
    order (big-endian symbols), so sorted rows give sorted keys."""
    rows = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * arr.shape[1]))).ravel()


def ball_size(n: int, radius: int, alphabet_size: int) -> int:
    """Exact size of the closed Hamming ball: sum_{i<=radius} C(n,i)(a-1)^i."""
    if not 0 <= radius <= n:
        raise PreconditionError("radius must lie in [0, n]")
    if alphabet_size < 2:
        raise PreconditionError("alphabet must have at least 2 symbols")
    return sum(math.comb(n, i) * (alphabet_size - 1) ** i for i in range(radius + 1))


def ball_product_cells(n: int, radii, alphabet_size: int) -> int:
    """Symbols in the product of the radius-s_r balls of length n, one
    ball per order: the vectors `CosetSpace` holds and reduces."""
    return math.prod(ball_size(n, s, alphabet_size) for s in radii) * len(radii) * n


def linear_span_words(field, basis_rows) -> np.ndarray:
    """All q^k words sum_k c_k * row_k, one per coefficient tuple.

    Row index encodes the coefficients little-endian: index = sum c_k q^k,
    so row 0 is the zero word and basis_rows[0] varies fastest.
    """
    add, mul = field_tables(field)
    q = field.q
    rows = [np.asarray(r, dtype=np.uint8) for r in basis_rows]
    n = rows[0].shape[0] if rows else 0
    if q ** len(rows) * max(n, 1) > SPAN_CELL_CAP:
        raise PreconditionError("linear span too large to enumerate")
    words = np.zeros((1, n), dtype=np.uint8)
    for row in rows:
        scaled = mul[np.arange(q, dtype=np.uint8)[:, None], row[None, :]]
        # (q, M, n): for each coefficient value, shift the whole prefix
        words = add[scaled[:, None, :], words[None, :, :]].reshape(-1, n)
    return words


def words_array(words, alphabet_size: int, length: int) -> np.ndarray:
    """Words as a (count, length) array of the narrowest unsigned dtype that
    holds symbols 0..alphabet_size-1 (uint8 up to 256 symbols, uint16 up to
    65536).
    Shape and range are checked before the dtype is narrowed, so an
    out-of-range symbol raises instead of wrapping."""
    if isinstance(words, np.ndarray):
        arr = words
        if arr.dtype.kind not in "biu":
            raise PreconditionError(f"symbols must be integers, not {arr.dtype}")
    else:
        try:
            arr = np.array(list(words), dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise PreconditionError("words must be equal-length rows of integer symbols") from None
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, length)
    if arr.ndim != 2 or arr.shape[1] != length:
        raise PreconditionError("word length mismatch")
    if arr.size and (arr.min() < 0 or arr.max() >= alphabet_size):
        raise PreconditionError("symbol out of alphabet range")
    return arr.astype(np.min_scalar_type(max(alphabet_size - 1, 0)), copy=False)


def _one_hot(arr: np.ndarray, alphabet_size: int) -> np.ndarray:
    """(M, n * alphabet_size) float32: column j * alphabet_size + s is 1
    where position j holds symbol s."""
    hot = arr[:, :, None] == np.arange(alphabet_size, dtype=arr.dtype)
    return hot.reshape(arr.shape[0], -1).astype(np.float32)


def agreements(a: np.ndarray, b: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Exact number of equal positions between every row of `a` and every
    row of `b`, as a (len(a), len(b)) int32 array."""
    hot_b = _one_hot(b, alphabet_size).T
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.int32)
    step = max(1, _CHUNK_CELLS // max(1, hot_b.shape[0] + b.shape[0]))
    for lo in range(0, a.shape[0], step):
        out[lo : lo + step] = _one_hot(a[lo : lo + step], alphabet_size) @ hot_b
    return out


def pairwise_min_distance(arr: np.ndarray) -> tuple[int, tuple[int, int]] | None:
    """Exact minimum pairwise Hamming distance and the first pair (i, j),
    i < j in row-major order, at that distance; None for fewer than 2 rows."""
    m, n = arr.shape
    if m < 2:
        return None
    alphabet = int(arr.max()) + 1
    tile = max(2, math.isqrt(_CHUNK_CELLS))
    # (agreement, -i, -j): the maximum is the closest pair, first in row-major order
    best = (-1, 0, 0)
    for i0 in range(0, m - 1, tile):
        for j0 in range(i0, m, tile):
            agr = agreements(arr[i0 : i0 + tile], arr[j0 : j0 + tile], alphabet)
            if j0 == i0:
                agr[np.tri(*agr.shape, dtype=bool)] = -1  # keep only j > i
            r, c = divmod(int(agr.argmax()), agr.shape[1])
            best = max(best, (int(agr[r, c]), -(i0 + r), -(j0 + c)))
    return n - best[0], (-best[1], -best[2])


def is_subspace(arr: np.ndarray, field) -> bool:
    """Whether the distinct rows of `arr` are exactly a subspace of GF(q)^n,
    q <= 256, in any order with the zero row first.

    There must be q^k rows with row 0 zero. Pivot i is the first nonzero
    entry of the first nonzero row among the rows that vanish at pivot
    columns 0..i-1; the basis is kept in reduced echelon form, so the span
    word with coefficients c_0..c_{k-1} (`linear_span_words`, index
    sum c_i q^i) holds c_i at pivot column i. Every row is then compared
    with the span word indexed by its own pivot-column symbols. If all are
    equal, the rows lie in the span, which has q^k words; the rows are
    distinct and q^k many, so they fill it. Conversely, in a k-dimensional
    subspace the rows vanishing at i pivot columns form a subspace of
    dimension k - i, so every pivot is found, and each row is the one span
    word with its pivot-column symbols. The span is as large as `arr`; past
    SPAN_CELL_CAP cells `linear_span_words` raises PreconditionError.
    """
    q, m = field.q, arr.shape[0]
    k = round(math.log(max(m, 1), q))
    if q ** k != m or arr[0].any():
        return False
    if k == 0:
        return True
    add, mul = field_tables(field)
    neg, inv = neg_inv(add, mul)
    rows, basis, pivots = arr, [], []
    for _ in range(k):
        r, c = divmod(int((rows != 0).argmax()), rows.shape[1])
        if not rows[r, c]:
            return False  # only the zero row vanishes at the pivot columns so far
        pivot = mul[inv[rows[r, c]], rows[r]]  # scaled to 1 at column c
        # clear column c from the earlier basis rows: b - b[c] * pivot
        basis = [add[b, mul[neg[b[c]], pivot]] for b in basis] + [pivot]
        pivots.append(c)
        rows = rows[rows[:, c] == 0]
    index = arr[:, pivots].astype(np.int64) @ q ** np.arange(k, dtype=np.int64)
    return bool((linear_span_words(field, basis)[index] == arr).all())


# ---------------------------------------------------------------------------
# Taylor expansions on the field's tables. A series is an array whose axis 0
# is the order; the other axes are batch axes.

@functools.lru_cache(maxsize=64)
def _binomials(p: int, width: int) -> np.ndarray:
    """C(j, k) mod p at [k, j] for j, k < width, read-only."""
    binom = np.zeros((width, width), dtype=np.int64)
    binom[0] = 1
    for j in range(1, width):
        binom[1 : j + 1, j] = (binom[:j, j - 1] + binom[1 : j + 1, j - 1]) % p
    binom.flags.writeable = False
    return binom


def taylor(field, coeffs, points, r: int) -> np.ndarray:
    """The Taylor coefficients of every column of a coefficient array (row
    j holds the x^j coefficients) at every point: a field encoding a, in
    t = x - a, or None for infinity, in t = 1/x, where the column is read
    reversed. Returns a (width + r, points, columns) series whose last r
    orders are zero, so that `leading` can read r orders past any
    multiplicity.

    The binomial form: coefficient k at a is sum_j C(j, k) c_j a^(j-k),
    with C(j, k) reduced mod p to a prime-field element, one table pass per
    coefficient row j for every order, point and column at once."""
    add, mul = field_tables(field)
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    width, n = coeffs.shape
    a = np.array([0 if p is None else p for p in points], dtype=np.uint8)
    powers = np.ones((width, len(a)), dtype=np.uint8)  # powers[e] = a^e
    for e in range(1, width):
        powers[e] = mul[powers[e - 1], a]
    scaled = mul[_binomials(field.p, width)[:, :, None], coeffs]  # [k, j] = C(j, k) c_j
    out = np.zeros((width + r, len(a), n), dtype=np.uint8)
    for j in range(width):
        out[: j + 1] = add[out[: j + 1], mul[scaled[: j + 1, j, None], powers[j::-1, :, None]]]
    for i, p in enumerate(points):
        if p is None:
            out[:width, i] = coeffs[::-1]
    return out


def leading(series: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiplicity m of every batch entry of a series, its first
    nonzero order (0 for a zero entry), and its coefficients of orders
    m .. m + r, which the series must hold."""
    mult = np.argmax(series != 0, axis=0)
    orders = np.arange(r + 1).reshape((-1,) + (1,) * mult.ndim)
    return mult, np.take_along_axis(series, mult + orders, axis=0)


def series_quotient(field, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den to the order of num, for every batch entry whose den[0]
    is nonzero (zeros elsewhere)."""
    add, mul = field_tables(field)
    neg, inv = neg_inv(add, mul)
    inv0 = inv[den[0]]
    out = mul[num, inv0]
    ratio = neg[mul[den, inv0]]  # -den / den[0]
    for n in range(1, len(num)):
        for i in range(1, n + 1):
            out[n] = add[out[n], mul[ratio[i], out[n - i]]]
    return out


def series_product(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b truncated to the order of a, which b must reach."""
    add, mul = field_tables(field)
    out = mul[a, b[0]]
    for i in range(1, len(a)):  # the terms a[n - i] * b[i] of every order n >= i
        out[i:] = add[out[i:], mul[a[:-i], b[i]]]
    return out


@dataclass
class SearchOutcome:
    """The finished record of a ball-center search over center tuples: the
    center, its survivors, the candidates scored, and the averaging record.
    expected_census is the sum of all centers' survivor counts,
    M * prod_r ball(N, s_r) for M words, and exact_average is that sum over
    the Q^(mN) centers; census_total is the sum the census scan counted."""

    best_count: int
    centers: tuple[tuple[int, ...], ...]
    survivor_indices: np.ndarray
    strategy: str
    n_candidates: int
    exact_average: Fraction
    expected_census: int
    census_total: int | None = None


# the strategies that score every center, whose maximum is held to the
# average's ceiling
_EVERY_CENTER = ("exhaustive", "census")


def _center_space(alphabet_size: int, positions: int, strategy: str) -> int:
    """The alphabet_size^positions centers; PreconditionError past
    EXHAUSTIVE_CENTER_CAP for a strategy that scores every center."""
    space = alphabet_size ** positions
    if strategy in _EVERY_CENTER and space > EXHAUSTIVE_CENTER_CAP:
        raise PreconditionError(
            f"exhaustive center space {space} exceeds cap {EXHAUSTIVE_CENTER_CAP}"
        )
    return space


def center_text(centers) -> str:
    """Center digits as in build manifests: comma-separated, orders split by '|'."""
    return "|".join(",".join(str(s) for s in c) for c in centers)


def _survivor_mask(word_arrays, radii, center_digits, n):
    centers = np.asarray(center_digits, dtype=word_arrays[0].dtype).reshape(-1, n)
    within = [(w != c).sum(axis=1) <= s for w, c, s in zip(word_arrays, centers, radii)]
    return np.logical_and.reduce(within)


_BALL_CACHE: dict = {}


def _ball_offsets(n: int, radius: int, q: int) -> np.ndarray:
    """Every vector of Z_q^n of Hamming weight at most `radius`, as a
    read-only (ball size, n) array; built once per (n, radius, q)."""
    key = (n, radius, q)
    cached = _BALL_CACHE.get(key)
    if cached is not None:
        return cached
    if n == 0 or radius == 0:
        out = np.zeros((1, n), dtype=np.min_scalar_type(q - 1))
    else:
        # first coordinate 0 over the rest's ball, or 1..q-1 over the smaller ball
        zero = _ball_offsets(n - 1, radius, q)
        moved = np.tile(_ball_offsets(n - 1, radius - 1, q), (q - 1, 1))
        heads = np.repeat(np.arange(1, q), len(moved) // (q - 1))
        out = np.concatenate([np.insert(zero, 0, 0, axis=1), np.insert(moved, 0, heads, axis=1)])
    out.flags.writeable = False
    _BALL_CACHE[key] = out
    return out


def _histogram_search(word_arrays, radii, q: int):
    """(best count, least maximizing center index) from the ball points.

    A center keeps a word when the word's order-r part lies within s_r of the
    center's at every order r, that is when the center equals w + e for one
    weight-<=s_r offset e per order. So every (word, offset tuple) pair is a
    point that lands on exactly one center, and a center's survivor count is
    the number of points on it. A point's index reads (w + e) mod q as base-q
    digits, first digit most significant, orders concatenated, so the least
    index among the maxima is the lexicographically least maximizer. Points
    are counted into a dense histogram when there are at least as many
    points as centers, and sorted otherwise, so memory stays within the
    smaller of the two.
    """
    n = word_arrays[0].shape[1]
    space = q ** (len(word_arrays) * n)
    balls = [_ball_offsets(n, s, q) for s in radii]
    per_word = math.prod(len(b) for b in balls)
    n_words = word_arrays[0].shape[0]
    dense = n_words * per_word >= space
    counts = np.zeros(space, dtype=np.int64) if dense else None
    points = []
    step = max(1, _CHUNK_CELLS // per_word)
    for lo in range(0, n_words, step):
        index = np.zeros((min(step, n_words - lo), 1), dtype=np.int64)
        for words, ball in zip(word_arrays, balls):
            part = np.zeros((len(index), len(ball)), dtype=np.int64)
            for j in range(n):
                part *= q
                part += (words[lo : lo + step, j, None].astype(np.int64) + ball[:, j]) % q
            index = (index[:, :, None] * q ** n + part[:, None, :]).reshape(len(index), -1)
        if dense:
            counts += np.bincount(index.ravel(), minlength=space)
        else:
            points.append(index.ravel())
    if dense:
        best = int(counts.argmax())
        return int(counts[best]), best
    values, hits = np.unique(np.concatenate(points), return_counts=True)
    k = int(hits.argmax())
    return int(hits[k]), int(values[k])


def _exhaustive_search(word_arrays, radii, q: int):
    """(best count, least maximizing center index, census total) from a scan
    over every center.

    The m*N center digits split into a leading and a trailing part. Per
    order r, an agreement table per part counts the positions of each word
    that a part value matches; a word survives a center when its two counts
    reach N - s_r at every order. Centers are scored in ascending order, one
    block of leading values at a time.
    """
    n = word_arrays[0].shape[1]
    total = len(word_arrays) * n
    lead = (total + 1) // 2
    # every value of each part, ascending with the first digit most significant
    lead_values, trail_values = (
        np.indices((q,) * k).reshape(k, q ** k).T for k in (lead, total - lead)
    )
    have, need = [], []
    for r, (words, radius) in enumerate(zip(word_arrays, radii)):
        digits = np.arange(r * n, (r + 1) * n)
        in_lead = digits < lead
        head = agreements(lead_values[:, digits[in_lead]], words[:, in_lead], q)
        tail = agreements(trail_values[:, digits[~in_lead] - lead], words[:, ~in_lead], q)
        # (words, values) in C order, so the sum over words adds whole rows;
        # the lead count must reach N - s_r minus the trail count, clipped to
        # [0, N + 1] so it fits uint8
        have.append(np.ascontiguousarray(head.T, dtype=np.uint8))
        need.append(np.ascontiguousarray(np.clip(n - radius - tail.T, 0, n + 1), dtype=np.uint8))
    n_words, n_trail = need[0].shape
    step = max(1, _CHUNK_CELLS // max(1, n_words * n_trail))
    best_count, best_index, census_total = -1, 0, 0
    for lo in range(0, lead_values.shape[0], step):
        ok = have[0][:, lo : lo + step, None] >= need[0][:, None, :]
        for h, t in zip(have[1:], need[1:]):
            ok &= h[:, lo : lo + step, None] >= t[:, None, :]
        counts = ok.sum(axis=0, dtype=np.int32).ravel()
        census_total += int(counts.sum())
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count, best_index = int(counts[k]), lo * n_trail + k
    return best_count, best_index, census_total


def _candidate_counts(word_arrays, radii, candidates: np.ndarray, q: int) -> np.ndarray:
    """Survivor count of every candidate center row, a block of candidates
    at a time."""
    n = word_arrays[0].shape[1]
    counts = np.empty(len(candidates), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // max(1, len(word_arrays[0])))
    for lo in range(0, len(candidates), step):
        block = candidates[lo : lo + step]
        ok = True
        for r, (words, radius) in enumerate(zip(word_arrays, radii)):
            ok = ok & (agreements(block[:, r * n : (r + 1) * n], words, q) >= n - radius)
        counts[lo : lo + step] = ok.sum(axis=1)
    return counts


def _greedy_walk(current: list[int], count: int, q: int, symbol_counts, move):
    """(count, center digits, candidates evaluated) of the greedy walk from
    `current`, whose survivor count is `count`: at each coordinate in turn,
    try every other symbol in ascending order and keep a strictly better
    one; repeat until a full pass stalls. symbol_counts(pos, symbol) gives
    the counts of all q symbols at pos, the other coordinates fixed;
    move(pos, old, new) follows an accepted change."""
    evaluated = 1
    improved = True
    while improved:
        improved = False
        for pos in range(len(current)):
            original = current[pos]
            sym_counts = symbol_counts(pos, original)
            for sym in range(q):
                if sym == current[pos]:
                    continue
                evaluated += 1
                if sym_counts[sym] > count:
                    count = int(sym_counts[sym])
                    current[pos] = sym
                    improved = True
            if current[pos] != original:
                move(pos, original, current[pos])
    return count, current, evaluated


def _greedy_search(word_arrays, radii, q: int, start: list[int]):
    """The greedy walk over word arrays. Each word's distance to the current
    center is kept per order, so the counts for all q symbols at coordinate
    (r, j) come at once: a word that survives at every other order survives
    any symbol when its distance off j is below s_r, and only its own symbol
    w_j when that distance is s_r."""
    n = word_arrays[0].shape[1]
    dist = [
        (words != np.asarray(start[r * n : (r + 1) * n], dtype=words.dtype)).sum(axis=1)
        for r, words in enumerate(word_arrays)
    ]
    # number of orders at which each word lies outside its ball
    outside = sum((d > s).astype(np.int64) for d, s in zip(dist, radii))

    def symbol_counts(pos, symbol):
        r, j = divmod(pos, n)
        column, radius = word_arrays[r][:, j], radii[r]
        off_j = dist[r] - (column != symbol)
        elsewhere = (outside - (dist[r] > radius)) == 0
        return int((elsewhere & (off_j < radius)).sum()) + np.bincount(
            column[elsewhere & (off_j == radius)], minlength=q
        )

    def move(pos, old, new):
        r, j = divmod(pos, n)
        column, radius = word_arrays[r][:, j], radii[r]
        new_dist = dist[r] - (column != old) + (column != new)
        outside[:] += (new_dist > radius).astype(np.int64) - (dist[r] > radius)
        dist[r] = new_dist

    return _greedy_walk(list(start), int((outside == 0).sum()), q, symbol_counts, move)


def _random_candidates(rng: random.Random, q: int, total: int, trials: int) -> np.ndarray:
    """The all-zeros center, then `trials` seeded centers, one row each."""
    return np.array(
        [[0] * total] + [[rng.randrange(q) for _ in range(total)] for _ in range(trials)],
        dtype=np.min_scalar_type(q - 1),
    ).reshape(trials + 1, total)


def center_search(
    word_arrays,
    radii,
    alphabet_size: int,
    strategy: str = "exhaustive",
    seed: int = 0,
    trials: int = 64,
) -> SearchOutcome:
    """Find a center tuple maximizing the number of rows within the given
    Hamming radii of it, simultaneously for every word array, and return the
    finished outcome.

    exhaustive returns the lexicographically least maximizer over all
    alphabet_size^(m*N) tuples by counting the ball points around every
    word (`_histogram_search`). census returns the same maximizer from a
    scan over every center, and also the sum of all survivor counts, which
    checks the averaging identity by enumeration. random scores the
    all-zeros tuple plus `trials` seeded tuples and keeps the first
    maximizer. greedy starts from one seeded tuple and accepts strict
    single-coordinate improvements until a full pass stalls, then falls back
    to the all-zeros tuple if that is better. The all-zeros candidate
    guarantees at least one survivor whenever the zero word is present.
    Every strategy recounts the survivors at its center directly (`_finish`).
    """
    m = len(word_arrays)
    if m == 0 or len(radii) != m:
        raise PreconditionError("need one radius per word array")
    n = word_arrays[0].shape[1]
    total_positions = m * n
    space = _center_space(alphabet_size, total_positions, strategy)

    def outcome(best_count, digits, n_cand, census_total=None):
        survivors = np.nonzero(_survivor_mask(word_arrays, radii, digits, n))[0]
        return _finish(best_count, _per_order(digits, m, n), len(survivors), survivors, strategy,
                       n_cand, len(word_arrays[0]), radii, alphabet_size, census_total)

    if strategy in _EVERY_CENTER:
        census_total = None
        if strategy == "census":
            count, index, census_total = _exhaustive_search(word_arrays, radii, alphabet_size)
        else:
            count, index = _histogram_search(word_arrays, radii, alphabet_size)
        digits = np.unravel_index(index, (alphabet_size,) * total_positions)
        return outcome(count, digits, space, census_total)

    rng = random.Random(seed)
    if strategy == "random":
        candidates = _random_candidates(rng, alphabet_size, total_positions, trials)
        scores = _candidate_counts(word_arrays, radii, candidates, alphabet_size)
        k = int(scores.argmax())
        return outcome(scores[k], candidates[k], len(candidates))

    if strategy == "greedy":
        start = [rng.randrange(alphabet_size) for _ in range(total_positions)]
        count, current, evaluated = _greedy_search(word_arrays, radii, alphabet_size, start)
        zeros = [0] * total_positions
        zeros_count = int(_survivor_mask(word_arrays, radii, zeros, n).sum())
        if zeros_count > count:
            return outcome(zeros_count, zeros, evaluated + 1)
        return outcome(count, current, evaluated + 1)

    raise PreconditionError(f"unknown center strategy {strategy!r}")


def _per_order(digits, m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Center digits split into the m orders' n-symbol tuples."""
    return tuple(tuple(int(x) for x in digits[r * n : (r + 1) * n]) for r in range(m))


def _finish(best_count, per_r, recount, survivors, strategy, n_cand, n_words, radii, q,
            census_total=None) -> SearchOutcome:
    """The last step of every center search: the outcome at center `per_r`
    over n_words words and alphabet q. Raises VerificationError, naming the
    center, when its recount of `recount` words within the radii differs
    from the search's best count, and when an exhaustive or census maximum
    falls below the exact average's ceiling."""
    if recount != best_count:
        raise VerificationError(
            f"{recount} words lie within the radii of center "
            f"{center_text(per_r)}, but the {strategy} search counted {best_count}"
        )
    n = len(per_r[0])
    expected = n_words * math.prod(ball_size(n, s, q) for s in radii)
    average = Fraction(expected, q ** (len(radii) * n))
    floor = math.ceil(average)
    if strategy in _EVERY_CENTER and best_count < floor:
        raise VerificationError(
            f"exhaustive maximum fell below the exact average: center "
            f"{center_text(per_r)} keeps {best_count} words, "
            f"ceil(average) = {floor}"
        )
    return SearchOutcome(int(best_count), per_r, survivors, strategy, n_cand, average, expected,
                         census_total)


# ---------------------------------------------------------------------------
# Center search over the cosets of a linear code.

class CosetSpace:
    """The cosets of the code C spanned by k basis rows over GF(q), the rows
    of every order concatenated into one k x mN matrix, and how many
    vectors of the ball product fall in each coset.

    The basis is augmented with the k x k identity and brought to reduced
    echelon form, a few table operations per pivot. Its nonzero rows span C
    with a 1 at ascending pivot columns; their identity parts (`transform`)
    give each as a combination of the basis, and the identity parts of the
    zero rows (`kernel`) span the combinations that vanish. A vector
    reduces to the representative of its coset that is zero at every pivot
    column. Any other vector of the coset adds a nonzero word of C, whose
    first nonzero symbol lies at a pivot column, so the representative is
    the lexicographically least vector of its coset. Since the ball product
    is closed under negation, a center c keeps the words c - e for the ball
    vectors e of its coset, each from q^(k - rank) functions.
    """

    def __init__(self, field, basis_rows, radii):
        q = self.q = field.q
        self.add, self.mul = field_tables(field)
        self.neg, inv = neg_inv(self.add, self.mul)
        self.radii = tuple(radii)
        self.basis = np.concatenate([np.asarray(r, dtype=np.uint8) for r in basis_rows], axis=1)
        k, total = self.basis.shape
        self.n = total // len(basis_rows)
        aug = np.concatenate([self.basis, np.eye(k, dtype=np.uint8)], axis=1)
        pivots = []
        for i in range(k):
            # the first nonzero symbol of the remaining rows, column by column
            nonzero = aug[i:, :total].T != 0
            c, j = divmod(int(nonzero.argmax()), k - i)
            if not nonzero[c, j]:
                break
            if j:
                aug[[i, i + j]] = aug[[i + j, i]]
            aug[i] = self.mul[inv[aug[i, c]], aug[i]]  # scaled to 1 at column c
            factor = self.neg[aug[:, c]]
            factor[i] = 0
            aug = self.add[aug, self.mul[factor[:, None], aug[i]]]  # column c cleared elsewhere
            pivots.append(c)
        rank = len(pivots)
        self.pivots, self.echelon = pivots, aug[:rank, :total]
        self.transform, self.kernel = aug[:rank, total:], aug[rank:, total:]
        self.balls = _ball_offsets(self.n, self.radii[0], q)
        for s in self.radii[1:]:
            ball = _ball_offsets(self.n, s, q)
            self.balls = np.concatenate(
                [np.repeat(self.balls, len(ball), axis=0), np.tile(ball, (len(self.balls), 1))],
                axis=1,
            )
        self.ball_keys = row_keys(self.reduce(self.balls))
        self.keys, self.hits = self.count()

    def reduce(self, vectors: np.ndarray) -> np.ndarray:
        """The coset representative of every row: zero at the pivot columns.
        Rows are reduced in blocks of at most _CHUNK_CELLS symbols."""
        reps = np.empty_like(vectors)
        step = max(1, _CHUNK_CELLS // max(1, vectors.shape[1]))
        for i in range(0, len(vectors), step):
            block = vectors[i : i + step]
            for row, c in zip(self.echelon, self.pivots):
                block = self.add[block, self.mul[self.neg[block[:, c, None]], row]]
            reps[i : i + step] = block
        return reps

    def count(self) -> tuple[np.ndarray, np.ndarray]:
        """The counting step: the distinct keys of the ball vectors'
        representatives in ascending order, and how many ball vectors each
        has."""
        return np.unique(self.ball_keys, return_counts=True)

    def hits_of(self, reps: np.ndarray) -> np.ndarray:
        """How many ball vectors share each representative row's coset."""
        keys = row_keys(reps)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[at] == keys, self.hits[at], 0)

    def outcome(self, hits: int, center, strategy: str, n_cand: int) -> SearchOutcome:
        """The outcome at `center`, whose coset holds `hits` ball vectors.

        The survivors are solved from the ball vectors e of the center's
        coset: the word c - e of C is the combination of the echelon rows
        given by its pivot-column symbols, so its coefficients are that
        combination of `transform` rows plus any combination of `kernel`
        rows. Each survivor's words are then recomputed from its digits and
        counted within the radii of the center."""
        q, k, n, d = self.q, len(self.basis), self.n, len(self.kernel)
        center = np.asarray(center, dtype=np.uint8)
        best_count = int(hits) * q ** d
        if max(best_count, q ** d) * n > SPAN_CELL_CAP:
            raise PreconditionError(
                f"{best_count} survivors of length {n} exceed cap {SPAN_CELL_CAP}"
            )
        ball = self.balls[self.ball_keys == row_keys(self.reduce(center[None]))]
        words = self.add[center, self.neg[ball]]
        digits = _combine(self.add, self.mul, self.transform, words[:, self.pivots])
        free = np.indices((q,) * d, dtype=np.uint8).reshape(d, q ** d).T
        kernel = _combine(self.add, self.mul, self.kernel, free)
        digits = self.add[digits[:, None], kernel].reshape(-1, k)
        # little-endian function index; past 2^63 as Python integers
        weights = q ** np.arange(k, dtype=np.int64 if q ** k <= 1 << 63 else object)
        indices, first = np.unique(digits.astype(weights.dtype) @ weights, return_index=True)
        words = _combine(self.add, self.mul, self.basis, digits[first])
        m = len(self.radii)
        within = _survivor_mask(np.hsplit(words, m), self.radii, center, n)
        return _finish(best_count, _per_order(center, m, n), int(within.sum()), indices,
                       strategy, n_cand, q ** k, self.radii, q)


def span_search(
    field, basis_rows, radii, strategy: str = "exhaustive", seed: int = 0, trials: int = 64
) -> SearchOutcome:
    """`center_search` over the span of basis_rows[r] (k rows of length N
    per order r), whose survivor indices are the little-endian coefficient
    indices of the span words (`linear_span_words`).

    The census, and a search whose ball product is past SPAN_CELL_CAP
    symbols, form the span and scan its words, once an exhaustive or census
    search has checked its center count. Every other search runs over
    cosets without forming the span, and returns the center, count,
    survivors and candidate count that center_search returns on the spans:
    exhaustive takes the least representative among the most frequent
    ones; random scores each candidate by its representative; greedy moves
    a representative by a multiple of the unit vector's. The survivors must
    stay within SPAN_CELL_CAP symbols per order."""
    if len(basis_rows) == 0 or len(radii) != len(basis_rows):
        raise PreconditionError("need one radius per word array")
    q, n = field.q, len(basis_rows[0][0])
    if strategy == "census" or ball_product_cells(n, radii, q) > SPAN_CELL_CAP:
        _center_space(q, len(basis_rows) * n, strategy)
        spans = [linear_span_words(field, rows) for rows in basis_rows]
        return center_search(spans, radii, q, strategy, seed, trials)
    space = CosetSpace(field, basis_rows, radii)
    total = space.basis.shape[1]
    if strategy == "exhaustive":
        best = int(space.hits.argmax())
        center = np.frombuffer(space.keys[best].tobytes(), dtype=np.uint8)
        return space.outcome(space.hits[best], center, strategy, q ** total)

    rng = random.Random(seed)
    if strategy == "random":
        candidates = _random_candidates(rng, q, total, trials)
        scores = space.hits_of(space.reduce(candidates))
        k = int(scores.argmax())
        return space.outcome(scores[k], candidates[k], strategy, len(candidates))

    if strategy == "greedy":
        start = [rng.randrange(q) for _ in range(total)]
        units = space.reduce(np.eye(total, dtype=np.uint8))
        rep = space.reduce(np.array([start], dtype=np.uint8))[0]
        symbols = np.arange(q)

        def shifted(pos, old, new):  # the representative with symbol `new` at pos
            return space.add[rep, space.mul[space.add[new, space.neg[old]], units[pos]]]

        def move(pos, old, new):
            rep[:] = shifted(pos, old, new)

        hits, current, evaluated = _greedy_walk(
            start, int(space.hits_of(rep[None])[0]), q,
            lambda pos, old: space.hits_of(shifted(pos, old, symbols[:, None])), move,
        )
        zeros_hits = int(space.hits_of(np.zeros((1, total), dtype=np.uint8))[0])
        if zeros_hits > hits:
            return space.outcome(zeros_hits, [0] * total, strategy, evaluated + 1)
        return space.outcome(hits, current, strategy, evaluated + 1)

    raise PreconditionError(f"unknown center strategy {strategy!r}")


def _combine(add, mul, rows: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """sum_j digits[:, j] * rows[j] over the field of the tables, one word
    per digit row."""
    words = np.zeros((len(digits), rows.shape[1]), dtype=np.uint8)
    for j, row in enumerate(rows):
        words = add[words, mul[digits[:, j, None], row]]
    return words


def span_words_at(field, basis_rows, indices) -> np.ndarray:
    """The words of `linear_span_words(field, basis_rows)` at the given row
    indices, computed from their little-endian digits alone."""
    rows = np.asarray(basis_rows, dtype=np.uint8)
    indices = np.asarray(indices)
    digits = np.empty((len(indices), len(rows)), dtype=np.int64)
    for j in range(len(rows)):
        digits[:, j] = indices % field.q
        indices = indices // field.q
    return _combine(*field_tables(field), rows, digits)
