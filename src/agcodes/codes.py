"""Evaluation codes from Riemann-Roch spaces, exact distance measurement
(the least nonzero weight of a code proven to be a subspace of k^N, the
all-pairs scan otherwise, never a metadata flag), and the code-file format.

A Code is a finite set of equal-length words over either the base field k
(symbols are element encodings) or the projective line over k (symbols
0..q-1 are field encodings and q encodes the value at infinity). The words
are one read-only integer array, a row per word (uint8 up to 256 symbols,
uint16 up to 65536), with unique rows in ascending lexicographic order, so
serialization is byte-stable.

A code file is a header of `key: value` lines, then `words: M` and the word
block: exactly M lines, each the N symbols of one word joined by commas and
ended by a newline (the last newline may be missing; for N = 0 every line is
empty). A symbol is 1 to 9 ASCII decimal digits, leading zeros accepted; a
sign, a space or a carriage return is malformed. The lines must be M
distinct words, and nothing may follow the last. The writer emits the
sorted words with each symbol in shortest decimal, from one per-alphabet
byte table; the reader parses the block as bytes, about 32 KiB at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import kernels
from .curves import Divisor, eval_points
from .errors import PreconditionError, VerificationError
from .field import FieldSpec, make_field

DISTANCE_GUARD = 10 ** 5


@dataclass(frozen=True)
class Alphabet:
    """kind "field" (size q) or "p1" (size q + 1, with symbol q = infinity)."""

    kind: str
    q: int

    @property
    def size(self) -> int:
        return self.q if self.kind == "field" else self.q + 1


@dataclass(eq=False)
class Code:
    alphabet: Alphabet
    length: int
    words: np.ndarray
    field: FieldSpec | None = None
    metadata: dict = dc_field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.words)


def _distinct_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in ascending lexicographic order."""
    if arr.shape[1] == 0:
        return arr[:1]
    return arr[np.unique(kernels.row_keys(arr), return_index=True)[1]]


def make_code(alphabet: Alphabet, length: int, words, field=None, metadata=None) -> Code:
    """The code of the distinct words, given as an array or as any iterable
    of equal-length integer sequences."""
    arr = _distinct_rows(kernels.words_array(words, alphabet.size, length))
    arr.flags.writeable = False
    return Code(alphabet, length, arr, field, dict(metadata or {}))


def finish_code(alphabet: Alphabet, n: int, words, field, metadata: dict) -> Code:
    """The last step of every builder: make the code of the word array, one
    row per preimage, which must be distinct; then measure the exact
    distance and hold it to metadata["claimed_distance"]."""
    code = make_code(alphabet, n, words, field=field, metadata=metadata)
    if code.size != len(words):
        raise VerificationError(
            f"the word map is not injective: {len(words)} preimages, {code.size} words"
        )
    d = code.metadata["measured_distance"] = exact_min_distance(code)
    claimed = metadata["claimed_distance"]
    if d is not None and d < claimed:
        raise VerificationError(f"measured distance {d} below the floor {claimed}")
    return code


# ---------------------------------------------------------------------------
# Exact minimum distance.

def subspace_proof(code: Code) -> bool:
    """Whether the words are exactly a subspace of k^N (`kernels.is_subspace`);
    only a code over its field's own alphabet, of order <= 256, can pass."""
    F = code.field
    return (F is not None and F.q <= 256 and code.alphabet == Alphabet("field", F.q)
            and kernels.is_subspace(code.words, F))


def closest_pair(code: Code) -> tuple[int, tuple[int, int]] | None:
    """Exact minimum distance and the first closest word pair in row-major
    order; None below two words. A proven subspace has its least nonzero
    weight as distance, and its zero word, row 0, lies in a closest pair, so
    the first such pair is (0, j) for the least j of that weight. Every
    other code takes the pairwise scan, whatever its metadata claims; that
    scan alone is bounded by DISTANCE_GUARD words."""
    if code.size < 2:
        return None
    if subspace_proof(code):
        weights = np.count_nonzero(code.words, axis=1)
        j = 1 + int(weights[1:].argmin())
        return int(weights[j]), (0, j)
    if code.size > DISTANCE_GUARD:
        raise PreconditionError(
            f"{code.size} words exceed the distance guard {DISTANCE_GUARD}"
        )
    return kernels.pairwise_min_distance(code.words)


def exact_min_distance(code: Code) -> int | None:
    """The exact minimum distance of `closest_pair`; None for an empty or
    one-word code (distance undefined)."""
    scan = closest_pair(code)
    return None if scan is None else scan[0]


# ---------------------------------------------------------------------------
# Goppa codes: evaluate L(D) at rational points off supp(D).

def build_goppa(curve, D: Divisor, points=None) -> Code:
    """The evaluation code of L(D) at the given rational points.

    Words are all evaluation vectors of L(D); the claimed minimum distance
    is N - deg(D) and the word count is q^dim(L(D)).
    """
    if D.curve is not curve:
        raise PreconditionError("divisor lives on a different curve")
    points = eval_points(curve, D, points)
    n = len(points)
    if not 0 <= D.degree < n:
        raise PreconditionError("need 0 <= deg(D) < N")
    from .xing import phi_basis_rows  # xing imports this module

    rows = phi_basis_rows(curve, D, points, 0)[0]
    dim = len(rows)
    if dim < D.degree - curve.genus + 1:
        raise VerificationError("Riemann-Roch dimension below degree - genus + 1")
    F = curve.field
    metadata = {
        "construction": "goppa",
        "curve": curve.kind,
        "divisor": D.serialize(),
        "deg_divisor": D.degree,
        "dim": dim,
        "genus": curve.genus,
        "linear": True,
        "claimed_distance": n - D.degree,
        "points": ";".join(p.serialize() for p in points),
    }
    return finish_code(Alphabet("field", F.q), n, kernels.linear_span_words(F, rows), F, metadata)


def goppa_sum_check(codes) -> list[dict]:
    """Exact rate-plus-distance audit R + d/N > 1 - g/N per built code.

    R is dim/N (checked against the word count), d the measured exact
    distance. Everything is compared in exact rational arithmetic.
    """
    rows = []
    for code in codes:
        n = code.length
        dim = _int(code.metadata["dim"], "dim")  # a string in a code read back from text
        g = _int(code.metadata["genus"], "genus")
        if code.field.q ** dim != code.size:
            raise VerificationError("word count is not q^dim")
        d = code.metadata.get("measured_distance")
        if d is None:
            d = exact_min_distance(code)
        lhs = Fraction(dim, n) + Fraction(d, n)
        rhs = 1 - Fraction(g, n)
        rows.append(
            {
                "construction": code.metadata.get("construction"),
                "n": n,
                "dim": dim,
                "distance": d,
                "lhs": lhs,
                "rhs": rhs,
                "ok": lhs > rhs,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Shared code-file format.

_HEADER = "agcodes-code v1"

# file tags for the alphabet kinds; the projective alphabet is spelled out
_ALPHABET_TAGS = {"field": "field", "p1": "P1(k)"}
_TAG_KINDS = {v: k for k, v in _ALPHABET_TAGS.items()}

_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")

# text per block of word lines that _read_words parses at once
_READ_BLOCK_BYTES = 1 << 15


def code_to_text(code: Code) -> str:
    lines = [_HEADER]
    lines.append(f"alphabet: {_ALPHABET_TAGS[code.alphabet.kind]}")
    lines.append(f"q: {code.alphabet.q}")
    if code.field is not None:
        lines.append(f"p: {code.field.p}")
        lines.append(f"alpha: {code.field.degree}")
        lines.append("modulus: " + ",".join(str(c) for c in code.field.modulus))
    lines.append(f"length: {code.length}")
    meta = dict(code.metadata)
    claimed = meta.pop("claimed_distance", None)
    measured = meta.pop("measured_distance", "none")
    lines.append(f"claimed_distance: {claimed}")
    lines.append(f"measured_distance: {measured if measured is not None else 'none'}")
    for k in sorted(meta):
        v = meta[k]
        if isinstance(v, bool):
            v = int(v)
        lines.append(f"param {k}: {v}")
    lines.append(f"words: {code.size}")
    return "\n".join(lines) + "\n" + _word_block(code.words, code.alphabet.size)


def _word_block(words: np.ndarray, alphabet_size: int) -> str:
    """The word lines: one gather of every symbol from the alphabet's byte
    table, the last comma of each line turned into a newline, the padding
    dropped."""
    if not words.size:
        return "\n" * len(words)  # no words, or empty words
    cells = np.take(_symbol_table(alphabet_size), words)
    text = cells.view(np.uint8).reshape(len(words), -1)
    last = text[:, -cells.itemsize :]
    last[last == _COMMA] = _NEWLINE
    data = text.tobytes()
    if alphabet_size > 10:  # the cells of the one-digit symbols end in padding
        data = data.translate(None, b"\0")
    return data.decode("ascii")


@functools.lru_cache(maxsize=8)
def _symbol_table(alphabet_size: int) -> np.ndarray:
    """Symbol s's decimal digits and a comma, NUL-padded to 2, 4 or 8 bytes
    and viewed as one uint16, uint32 or uint64 per symbol (shared, so
    read-only)."""
    width = next(w for w in (2, 4, 8) if len(str(alphabet_size - 1)) < w)
    raw = "".join(f"{s},".ljust(width, "\0") for s in range(alphabet_size))
    table = np.frombuffer(raw.encode("ascii"), dtype=f"<u{width}").copy()
    table.flags.writeable = False
    return table


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what} is not an integer: {text!r}") from None


def code_from_text(text: str) -> Code:
    """Parse a code file; any malformed part raises PreconditionError."""
    at = text.find("\nwords: ")
    lines = (text[:at] if at >= 0 else text).splitlines()
    if not lines or lines[0] != _HEADER:
        raise PreconditionError("not a code file")
    fields: dict[str, str] = {}
    meta: dict[str, object] = {}
    for line in lines[1:]:
        is_param = line.startswith("param ")
        k, sep, v = line[len("param ") if is_param else 0 :].partition(": ")
        if not sep:
            raise PreconditionError(f"malformed header line {line!r}")
        (meta if is_param else fields)[k] = v
    if at < 0:
        raise PreconditionError("missing word count")
    at += len("\nwords: ")
    end = text.find("\n", at)
    end = len(text) if end < 0 else end
    count = _int(text[at:end], "word count")
    missing = [k for k in ("alphabet", "q", "length") if k not in fields]
    if missing:
        raise PreconditionError("missing header " + ", ".join(missing))
    kind = _TAG_KINDS.get(fields["alphabet"])
    if kind is None:
        raise PreconditionError(f"unknown alphabet tag {fields['alphabet']!r}")
    length = _int(fields["length"], "length")
    if length < 0:
        raise PreconditionError(f"negative length {length}")
    words = _read_words(text[end + 1 :], count, length)
    q = _int(fields["q"], "q")
    fld = None
    if "p" in fields:
        fld = make_field(_int(fields["p"], "p"), _int(fields.get("alpha"), "alpha"))
        mod = ",".join(str(c) for c in fld.modulus)
        if mod != fields.get("modulus"):
            raise PreconditionError("modulus in file differs from the canonical one")
        if fld.q != q:
            raise PreconditionError(f"q = {q} is not the order of the field, {fld.q}")
    for key in ("claimed_distance", "measured_distance"):
        value = fields.get(key)
        meta[key] = None if value in (None, "none", "None") else _int(value, key)
    code = make_code(Alphabet(kind, q), length, words, field=fld, metadata=meta)
    if code.size != count:
        raise PreconditionError(f"{count} word lines hold only {code.size} distinct words")
    return code


def _read_words(block: str, count: int, length: int) -> np.ndarray:
    """The (count, length) symbols of a word block: exactly `count` lines
    (the last newline may be missing), each `length` symbols of 1-9 decimal
    digits joined by commas. Parsed about _READ_BLOCK_BYTES of text at a
    time; a block that fails is parsed again line by line, so the error
    names the first malformed line whatever the block size."""
    if block and not block.endswith("\n"):
        block += "\n"
    data = np.frombuffer(block.encode("ascii", "replace"), dtype=np.uint8)
    ends = np.flatnonzero(data == _NEWLINE)
    if len(ends) != count:
        raise PreconditionError(f"word count {count} does not match the {len(ends)} word lines")
    if length == 0:
        if len(data) != count:
            raise PreconditionError("word length mismatch")
        return np.empty((count, 0), dtype=np.uint32)
    bounds = np.concatenate(([0], ends + 1))

    def parse(lo, hi):
        return _parse_lines(data[bounds[lo] : bounds[hi]], hi - lo, length)

    step = max(1, _READ_BLOCK_BYTES * count // max(len(data), 1))
    parts = [np.empty((0, length), dtype=np.uint32)]
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        try:
            parts.append(parse(lo, hi))
        except PreconditionError:
            for r in range(lo, hi):  # name the first malformed line
                try:
                    parts.append(parse(r, r + 1))
                except PreconditionError as err:
                    raise PreconditionError(f"word line {r + 1}: {err}") from None
    return np.concatenate(parts)


def _parse_lines(chunk: np.ndarray, rows: int, length: int) -> np.ndarray:
    """The symbols of `rows` whole word lines of ASCII bytes, the last ending
    in its newline. Each symbol is read from the digits before its
    separator, in one pass per digit place."""
    sep = (chunk == _COMMA) | (chunk == _NEWLINE)
    at = np.flatnonzero(sep)
    # the chunk holds `rows` newlines, so with rows * length separators, a
    # newline at every length-th one leaves length - 1 commas on each line
    if len(at) != rows * length or (chunk[at[length - 1 :: length]] != _NEWLINE).any():
        raise PreconditionError("word length mismatch")
    if np.count_nonzero(chunk - np.uint8(_ZERO) < 10) != len(chunk) - len(at):
        raise PreconditionError("word symbols must be decimal digits")
    digits = at.copy()
    digits[1:] -= at[:-1] + 1
    width = int(digits.max())
    if digits.min() < 1 or width > 9:
        raise PreconditionError("word symbols must have 1 to 9 digits")
    zero = np.uint32(_ZERO)
    values = chunk[at - 1] - zero
    for place in range(1, width):  # the digit of 10^place, 0 where a symbol is shorter
        digit = chunk[np.maximum(at - 1 - place, 0)] - zero
        values += digit * (digits > place) * np.uint32(10 ** place)
    return values.reshape(rows, length)
