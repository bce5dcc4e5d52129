"""numpy kernels for the exhaustive-search hot paths: spanning a linear
space of words, the exact proof that a word set is a subspace, the
ball-center search, and one exact agreement kernel behind the pairwise
minimum distance and the center scans.

`agreements` counts the equal positions of every pair of rows as a float32
product of one-hot encodings. A count never exceeds the word length, far
below 2^24, so every product is an exact integer. Work is split into blocks
of at most _CHUNK_CELLS elements, and every reduction keeps the first
extremum in ascending index order, so no result depends on the block size.

The exhaustive center search counts ball points rather than scanning
centers: every (word, point of the ball product around it) pair lands on
exactly one center, so the survivor counts are one histogram over
words x ball points. Only the averaging census still scans every center,
so that the identity sum of counts = words x ball size is checked by
enumeration rather than holding by construction. The random and greedy
strategies score their candidates with `agreements` and with per-word
distances kept across single-coordinate moves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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
    neg, inv = (add == 0).argmax(axis=1), (mul == 1).argmax(axis=1)
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


@dataclass
class SearchOutcome:
    """Result of a ball-center search over center tuples."""

    best_count: int
    centers: tuple[tuple[int, ...], ...]
    survivor_indices: np.ndarray
    strategy: str
    n_candidates: int
    census_total: int | None = None

    def check_average(self, average) -> None:
        """Raise VerificationError, naming the center and its count, when an
        exhaustive maximum falls below the ceiling of the exact average
        survivor count over all centers."""
        floor = math.ceil(average)
        if self.strategy == "exhaustive" and self.best_count < floor:
            raise VerificationError(
                f"exhaustive maximum fell below the exact average: center "
                f"{_center_text(self.centers)} keeps {self.best_count} words, "
                f"ceil(average) = {floor}"
            )


def _center_text(centers) -> str:
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


def _greedy_search(word_arrays, radii, q: int, start: list[int]):
    """(count, center digits, candidates evaluated) of the greedy walk from
    `start`: at each coordinate in turn, try every other symbol in ascending
    order and keep a strictly better one; repeat until a full pass stalls.

    Each word's distance to the current center is kept per order, so the
    counts for all q symbols at coordinate (r, j) come at once: a word that
    survives at every other order survives any symbol when its distance off
    j is below s_r, and only its own symbol w_j when that distance is s_r.
    """
    n = word_arrays[0].shape[1]
    current = list(start)
    dist = [
        (words != np.asarray(current[r * n : (r + 1) * n], dtype=words.dtype)).sum(axis=1)
        for r, words in enumerate(word_arrays)
    ]
    # number of orders at which each word lies outside its ball
    outside = sum((d > s).astype(np.int64) for d, s in zip(dist, radii))
    current_count = int((outside == 0).sum())
    evaluated = 1
    improved = True
    while improved:
        improved = False
        for pos in range(len(current)):
            r, j = divmod(pos, n)
            column, radius = word_arrays[r][:, j], radii[r]
            original = current[pos]
            off_j = dist[r] - (column != original)
            elsewhere = (outside - (dist[r] > radius)) == 0
            sym_counts = int((elsewhere & (off_j < radius)).sum()) + np.bincount(
                column[elsewhere & (off_j == radius)], minlength=q
            )
            for sym in range(q):
                if sym == current[pos]:
                    continue
                evaluated += 1
                if sym_counts[sym] > current_count:
                    current_count = int(sym_counts[sym])
                    current[pos] = sym
                    improved = True
            if current[pos] != original:
                new_dist = off_j + (column != current[pos])
                outside += (new_dist > radius).astype(np.int64) - (dist[r] > radius)
                dist[r] = new_dist
    return current_count, current, evaluated


def center_search(
    word_arrays,
    radii,
    alphabet_size: int,
    strategy: str = "exhaustive",
    seed: int = 0,
    trials: int = 64,
    census: bool = False,
) -> SearchOutcome:
    """Find a center tuple maximizing the number of rows within the given
    Hamming radii of it, simultaneously for every word array.

    exhaustive returns the lexicographically least maximizer over all
    alphabet_size^(m*N) tuples. It counts the ball points around every word
    (`_histogram_search`); with `census` it instead scans every center and
    also returns the sum of all survivor counts, which checks the averaging
    identity by enumeration. random scores the all-zeros tuple plus `trials`
    seeded tuples and keeps the first maximizer. greedy starts from one
    seeded tuple and accepts strict single-coordinate improvements until a
    full pass stalls, then falls back to the all-zeros tuple if that is
    better. The all-zeros candidate guarantees at least one survivor
    whenever the zero word is present. Every strategy recounts the
    survivors at its center directly and raises VerificationError if they
    differ from its best count.
    """
    m = len(word_arrays)
    if m == 0 or len(radii) != m:
        raise PreconditionError("need one radius per word array")
    n = word_arrays[0].shape[1]
    total_positions = m * n

    def outcome(best_count, digits, n_cand, census_total=None):
        per_r = tuple(tuple(int(x) for x in digits[r * n : (r + 1) * n]) for r in range(m))
        survivors = np.nonzero(_survivor_mask(word_arrays, radii, digits, n))[0]
        if len(survivors) != best_count:
            raise VerificationError(
                f"{len(survivors)} words lie within the radii of center "
                f"{_center_text(per_r)}, but the {strategy} search counted {best_count}"
            )
        return SearchOutcome(int(best_count), per_r, survivors, strategy, n_cand, census_total)

    if strategy == "exhaustive":
        space = alphabet_size ** total_positions
        if space > EXHAUSTIVE_CENTER_CAP:
            raise PreconditionError(
                f"exhaustive center space {space} exceeds cap {EXHAUSTIVE_CENTER_CAP}"
            )
        census_total = None
        if census:
            count, index, census_total = _exhaustive_search(word_arrays, radii, alphabet_size)
        else:
            count, index = _histogram_search(word_arrays, radii, alphabet_size)
        digits = np.unravel_index(index, (alphabet_size,) * total_positions)
        return outcome(count, digits, space, census_total)

    rng = random.Random(seed)
    zeros = [0] * total_positions
    if strategy == "random":
        candidates = np.array(
            [zeros] + [
                [rng.randrange(alphabet_size) for _ in range(total_positions)]
                for _ in range(trials)
            ],
            dtype=word_arrays[0].dtype,
        )
        scores = _candidate_counts(word_arrays, radii, candidates, alphabet_size)
        k = int(scores.argmax())
        return outcome(scores[k], candidates[k], len(candidates))

    if strategy == "greedy":
        start = [rng.randrange(alphabet_size) for _ in range(total_positions)]
        count, current, evaluated = _greedy_search(word_arrays, radii, alphabet_size, start)
        zeros_count = int(_survivor_mask(word_arrays, radii, zeros, n).sum())
        if zeros_count > count:
            return outcome(zeros_count, zeros, evaluated + 1)
        return outcome(count, current, evaluated + 1)

    raise PreconditionError(f"unknown center strategy {strategy!r}")
