"""Evaluation codes from Riemann-Roch spaces, exact brute-force distance
measurement, and the shared code-file format.

A Code is a finite set of equal-length words over either the base field k
(symbols are element encodings) or the projective line over k (symbols
0..q-1 are field encodings and q encodes the value at infinity). Words are
kept sorted and duplicate-free, so serialization is byte-stable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import kernels
from .curves import Divisor, default_eval_points, distinct_points
from .errors import PreconditionError, VerificationError
from .field import FieldSpec, make_field

DISTANCE_GUARD = 10 ** 5

Word = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """kind "field" (size q) or "p1" (size q + 1, with symbol q = infinity)."""

    kind: str
    q: int

    @property
    def size(self) -> int:
        return self.q if self.kind == "field" else self.q + 1


@dataclass
class Code:
    alphabet: Alphabet
    length: int
    words: tuple[Word, ...]
    field: FieldSpec | None = None
    metadata: dict = dc_field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.words)

    def rate(self) -> float:
        """log of the codebook size per symbol, base = alphabet size."""
        if self.size < 1 or self.length < 1:
            return 0.0
        return math.log(self.size, self.alphabet.size) / self.length

    def as_array(self) -> np.ndarray:
        return kernels.words_array(self.words, self.alphabet.size)


def make_code(alphabet: Alphabet, length: int, words, field=None, metadata=None) -> Code:
    ws = sorted(set(tuple(int(s) for s in w) for w in words))
    for w in ws:
        if len(w) != length:
            raise PreconditionError("word length mismatch")
        if any(not 0 <= s < alphabet.size for s in w):
            raise PreconditionError("symbol out of alphabet range")
    return Code(alphabet, length, tuple(ws), field, dict(metadata or {}))


# ---------------------------------------------------------------------------
# Exact minimum distance.

def _closure_audit(code: Code, samples: int = 200) -> bool:
    """Spot-check that the word set is an additive group over the field, so
    the weight shortcut is honest. Exact for the zero word, randomized for
    closure."""
    if code.field is None or code.alphabet.kind != "field":
        return False
    words = set(code.words)
    if tuple([0] * code.length) not in words:
        return False
    F = code.field
    rng = random.Random(0xC0DE)
    ws = code.words
    for _ in range(samples):
        a = ws[rng.randrange(len(ws))]
        b = ws[rng.randrange(len(ws))]
        s = tuple(F.add(x, y) for x, y in zip(a, b))
        if s not in words:
            return False
    return True


def exact_min_distance(code: Code) -> int | None:
    """Exact minimum pairwise Hamming distance by brute force.

    Returns None for an empty or one-word code (distance undefined). Codes
    flagged linear get the minimum-nonzero-weight shortcut, but only after
    the additive closure audit passes.
    """
    if code.size > DISTANCE_GUARD:
        raise PreconditionError(
            f"{code.size} words exceed the distance guard {DISTANCE_GUARD}"
        )
    if code.size < 2:
        return None
    arr = code.as_array()
    if code.metadata.get("linear") and _closure_audit(code):
        return kernels.min_nonzero_weight(arr)
    return kernels.pairwise_min_distance(arr)[0]


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
    words = kernels.linear_span_words(F, rows)
    uniq = np.unique(words, axis=0)
    if uniq.shape[0] != F.q ** dim:
        raise VerificationError("evaluation map is not injective on L(D)")
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
    code = make_code(Alphabet("field", F.q), n, [tuple(int(s) for s in w) for w in uniq],
                     field=F, metadata=metadata)
    if measure:
        d = exact_min_distance(code)
        code.metadata["measured_distance"] = d
        if d is not None and d < n - D.degree:
            raise VerificationError(f"measured distance {d} below the floor {n - D.degree}")
    return code


def goppa_sum_check(codes) -> list[dict]:
    """Exact rate-plus-distance audit R + d/N > 1 - g/N per built code.

    R is dim/N (checked against the word count), d the measured exact
    distance. Everything is compared in exact rational arithmetic.
    """
    rows = []
    for code in codes:
        n = code.length
        dim = code.metadata["dim"]
        g = code.metadata["genus"]
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
    for w in code.words:
        lines.append(",".join(str(s) for s in w))
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> Code:
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
            count = int(line.split(": ", 1)[1])
            break
        if line.startswith("param "):
            k, v = line[len("param ") :].split(": ", 1)
            meta[k] = v
        else:
            k, v = line.split(": ", 1)
            fields[k] = v
    else:
        raise PreconditionError("missing word count")
    words = [tuple(int(s) for s in lines[i + j].split(",")) if lines[i + j] else ()
             for j in range(count)]
    fld = None
    if "p" in fields:
        fld = make_field(int(fields["p"]), int(fields["alpha"]))
        mod = ",".join(str(c) for c in fld.modulus)
        if mod != fields["modulus"]:
            raise PreconditionError("modulus in file differs from the canonical one")
    claimed = fields.get("claimed_distance")
    meta["claimed_distance"] = None if claimed in (None, "None", "none") else int(claimed)
    measured = fields.get("measured_distance")
    meta["measured_distance"] = None if measured in (None, "none", "None") else int(measured)
    if meta.get("linear") is not None:
        meta["linear"] = meta["linear"] == "1"
    kind = _TAG_KINDS.get(fields["alphabet"])
    if kind is None:
        raise PreconditionError(f"unknown alphabet tag {fields['alphabet']!r}")
    return make_code(
        Alphabet(kind, int(fields["q"])),
        int(fields["length"]),
        words,
        field=fld,
        metadata=meta,
    )
