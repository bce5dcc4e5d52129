"""Evaluation codes from Riemann-Roch spaces, exact distance measurement
(the least nonzero weight of a code proven to be a subspace of k^N, the
all-pairs scan otherwise, never a metadata flag), and the code-file format.

A Code is a finite set of equal-length words over either the base field k
(symbols are element encodings) or the projective line over k (symbols
0..q-1 are field encodings and q encodes the value at infinity). The words
are one read-only integer array, a row per word (uint8 up to 256 symbols,
uint16 up to 65536), with unique rows in ascending lexicographic order, so
serialization is byte-stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import kernels
from .curves import Divisor, default_eval_points, distinct_points
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


def _row_keys(arr: np.ndarray) -> np.ndarray:
    """One opaque key per row whose byte order is the rows' lexicographic
    order (big-endian symbols), so sorted rows give sorted keys."""
    rows = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * arr.shape[1]))).ravel()


def _distinct_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in ascending lexicographic order."""
    if arr.shape[1] == 0:
        return arr[:1]
    return arr[np.unique(_row_keys(arr), return_index=True)[1]]


def make_code(alphabet: Alphabet, length: int, words, field=None, metadata=None) -> Code:
    """The code of the distinct words, given as an array or as any iterable
    of equal-length integer sequences."""
    arr = _distinct_rows(kernels.words_array(words, alphabet.size, length))
    arr.flags.writeable = False
    return Code(alphabet, length, arr, field, dict(metadata or {}))


def finish_code(alphabet: Alphabet, n: int, words, field, metadata: dict,
                measure: bool) -> Code:
    """The last step of every builder: make the code of the word array, one
    row per preimage, which must be distinct; then, if asked, measure the
    exact distance and hold it to metadata["claimed_distance"]."""
    code = make_code(alphabet, n, words, field=field, metadata=metadata)
    if code.size != len(words):
        raise VerificationError(
            f"the word map is not injective: {len(words)} preimages, {code.size} words"
        )
    if measure:
        d = exact_min_distance(code)
        code.metadata["measured_distance"] = d
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
    other code takes the pairwise scan, whatever its metadata claims."""
    if code.size > DISTANCE_GUARD:
        raise PreconditionError(
            f"{code.size} words exceed the distance guard {DISTANCE_GUARD}"
        )
    if code.size < 2:
        return None
    if subspace_proof(code):
        weights = np.count_nonzero(code.words, axis=1)
        j = 1 + int(weights[1:].argmin())
        return int(weights[j]), (0, j)
    return kernels.pairwise_min_distance(code.words)


def exact_min_distance(code: Code) -> int | None:
    """The exact minimum distance of `closest_pair`; None for an empty or
    one-word code (distance undefined)."""
    scan = closest_pair(code)
    return None if scan is None else scan[0]


# ---------------------------------------------------------------------------
# Goppa codes: evaluate L(D) at rational points off supp(D).

def build_goppa(curve, D: Divisor, points=None, measure: bool = True) -> Code:
    """The evaluation code of L(D) at the given rational points.

    Words are all evaluation vectors of L(D); the claimed minimum distance
    is N - deg(D) and the word count is q^dim(L(D)).
    """
    if D.curve is not curve:
        raise PreconditionError("divisor lives on a different curve")
    if points is None:
        points = default_eval_points(curve, D)
    points = distinct_points(points)
    n = len(points)
    supp = set(D.support)
    for p in points:
        if curve.place_of_point(p) in supp:
            raise PreconditionError("supp(D) meets the evaluation points")
    if not 0 <= D.degree < n:
        raise PreconditionError("need 0 <= deg(D) < N")
    basis = curve.riemann_roch_basis(D)
    dim = len(basis)
    if dim < D.degree - curve.genus + 1:
        raise VerificationError("Riemann-Roch dimension below degree - genus + 1")
    rows = []
    for f in basis:
        row = []
        for p in points:
            v = curve.evaluate(f, p)
            if not isinstance(v, int):
                raise VerificationError("basis function has a pole at an evaluation point")
            row.append(v)
        rows.append(row)
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
    return finish_code(Alphabet("field", F.q), n, kernels.linear_span_words(F, rows), F,
                       metadata, measure)


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
    lines.extend(map(",".join, _symbol_strings(code.alphabet.size)[code.words].tolist()))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def _symbol_strings(alphabet_size: int) -> np.ndarray:
    """The decimal text of every symbol, indexed by the symbol (shared, so
    read-only)."""
    table = np.array([str(s) for s in range(alphabet_size)], dtype=object)
    table.flags.writeable = False
    return table


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what} is not an integer: {text!r}") from None


def code_from_text(text: str) -> Code:
    """Parse a code file; any malformed part raises PreconditionError."""
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise PreconditionError("not a code file")
    fields: dict[str, str] = {}
    meta: dict[str, object] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("words: "):
            count = _int(line.split(": ", 1)[1], "word count")
            break
        is_param = line.startswith("param ")
        k, sep, v = line[len("param ") if is_param else 0 :].partition(": ")
        if not sep:
            raise PreconditionError(f"malformed header line {line!r}")
        (meta if is_param else fields)[k] = v
    else:
        raise PreconditionError("missing word count")
    missing = [k for k in ("alphabet", "q", "length") if k not in fields]
    if missing:
        raise PreconditionError("missing header " + ", ".join(missing))
    kind = _TAG_KINDS.get(fields["alphabet"])
    if kind is None:
        raise PreconditionError(f"unknown alphabet tag {fields['alphabet']!r}")
    length = _int(fields["length"], "length")
    if length < 0:
        raise PreconditionError(f"negative length {length}")
    block = lines[i : i + count]
    if count < 0 or len(block) < count:
        raise PreconditionError(f"word count {count} does not match the {len(block)} word lines")
    if any(line.count(",") != length - 1 for line in block) if length else any(block):
        raise PreconditionError("word length mismatch")
    # fromstring raises on a token that is not an integer; an empty last
    # token shortens the result, and the reshape raises on that
    try:
        words = np.fromstring(",".join(block) if length else "", dtype=np.int64, sep=",")
        words = words.reshape(count, length)
    except ValueError:
        raise PreconditionError("word symbols must be integers") from None
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
    return make_code(
        Alphabet(kind, q),
        length,
        words,
        field=fld,
        metadata=meta,
    )
