"""Rational sections of a degree-zero divisor on the projective line, the
multiplicity of agreement between two sections, and the evaluation code over
the (q+1)-letter projective alphabet.

A nonzero function f is a section of height at most h (relative to a
degree-zero divisor D) when (f) + D = E with the positive and negative
parts of E each of degree at most h; since deg E = 0 the two parts always
have equal degree, called the height of f. The zero function is included
by convention with height 0.

Values of sections at a point P are read through a twist: a rational
function phi_P whose valuation at P matches the coefficient of D, making
phi_P * f regular (or honestly infinite) there. The twist is the canonical
one, t^D(P) in the uniformizer t = x - a at a finite point and t = 1/x at
infinity, so it is 1 away from supp(D) and, having unit part 1, is read as
the number D(P) alone. The agreement multiplicity of two sections at P is
the valuation of the difference of the twisted functions when both are
finite at P, of the difference of their inverses when both are infinite,
and 0 otherwise; the total over all geometric points is exactly the sum of
the two heights.

The laboratory keeps sections on the projective line only: its Jacobian is
trivial, so every degree-zero divisor is principal and the section sets for
any D are the section sets for 0 twisted by one global function, which the
tests verify explicitly.

Enumeration and evaluation work on integer encodings. enumerate_sections
returns a SectionTable of padded (u, v) coefficient arrays and heights, read
from the field's factor sieve with no gcd and no object per candidate pair;
every caller reads the table's rows, and no section becomes an object (the
symbolic sections are test oracles, tests/conftest.py). One kernel, phi_words,
computes the words of every order for a whole table with the field's lookup
tables: one call of the Taylor kernel (kernels.taylor) gives each distinct
polynomial's multiplicity and leading Taylor coefficients at every point,
the valuation of the twisted section decides 0, infinity or the inverse
branch, and the series quotient of the units gives the coefficient.
The multiplicity audit, multiplicity_census, takes a block of table row
pairs at once: a table convolution gives every w = u*v2 - u2*v, the factor
sieve's least-factor chains factor u, v, u2, v2 and w, and every
multiplicity, at places of any degree, follows from those and D(P) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .codes import Alphabet, Code, finish_code
from .curves import Divisor, Place, ProjectiveLine
from .errors import PreconditionError
from .field import Polynomial, _factor_sieve, _monic_index

SECTION_ENUM_GUARD = 10 ** 6


# ---------------------------------------------------------------------------
# Heights and enumeration.

@dataclass(frozen=True, eq=False)
class SectionTable:
    """Sections u/v as padded coefficient arrays, one row per section with
    the constant term first (numer and denom, v monic and 1 for the zero
    section), with their heights. An index array or a slice gives the
    table of the rows it selects; an integer index is refused, so a table
    is never iterated row by row either."""

    divisor: Divisor
    numer: np.ndarray
    denom: np.ndarray
    heights: np.ndarray

    def __len__(self) -> int:
        return len(self.heights)

    def __getitem__(self, rows) -> SectionTable:
        if isinstance(rows, (int, np.integer)):
            raise TypeError("index a SectionTable with an index array or a slice")
        return SectionTable(self.divisor, self.numer[rows], self.denom[rows], self.heights[rows])


def enumerate_sections(curve: ProjectiveLine, D: Divisor, h: int, census=False) -> SectionTable:
    """The table of the zero function (row 0) and every section of height
    at most h, in canonical (denominator key, numerator key) order; with
    census, from a sieve up to the largest degree of w = u*v2 - u2*v, as
    deg u <= h + deg D_- and deg v <= h + deg D_+ off infinity.

    Enumerates reduced pairs u/v up to degree h + deg(D_+) and filters by
    exact height, so the result is complete and duplicate-free. Everything
    is read from the field's factor sieve, whose monic indices ascend in key
    order: u = lead * m and v are coprime iff they share no irreducible
    factor, and the height is max(deg u, deg v) corrected by the valuations
    at supp(D), the multiplicities along the cofactor chain."""
    if not isinstance(curve, ProjectiveLine):
        raise PreconditionError("sections are restricted to the projective line")
    if D.curve is not curve:
        raise PreconditionError("divisor lives on a different curve")
    if D.degree != 0:
        raise PreconditionError("reference divisor must have degree zero")
    if h < 0:
        raise PreconditionError("height bound must be nonnegative")
    F = curve.field
    q = F.q
    if q ** (2 * h + 1) > SECTION_ENUM_GUARD:
        raise PreconditionError("section enumeration guard exceeded")
    max_deg = h + D.pos_part().degree
    if q ** (2 * max_deg + 1) > 8 * SECTION_ENUM_GUARD:
        raise PreconditionError("twisted enumeration too large for this divisor")
    start = [(q ** d - 1) // (q - 1) for d in range(max_deg + 2)]
    finite = sum(abs(c) * pl.degree for pl, c in D.items() if pl.kind != "inf")
    sieve = _factor_sieve(F, 2 * h + finite if census else max_deg)
    least, cofactor, rows = (a[: start[-1]] for a in sieve)
    rows = rows[:, : max_deg + 1]
    deg = np.repeat(np.arange(max_deg + 1, dtype=np.int32), np.diff(start))

    def along_chain(first, step):
        # a value per monic from its cofactor's, one degree block at a time
        out = np.zeros((start[-1],) + np.shape(first), dtype=first.dtype)
        for d in range(1, max_deg + 1):
            block = slice(start[d], start[d + 1])
            out[block] = step(out[cofactor[block]], least[block])
        return out

    # incidence[i, k]: the k-th irreducible divides monic i; the product
    # counts common factors, at most max_deg, so float32 is exact
    index = np.arange(start[-1])
    incidence = along_chain(index < 0, lambda inc, pi: inc | (index == pi[:, None]))
    incidence = incidence[:, least == index].astype(np.float32)
    # height[i, j] for v = monic i, u = lead * monic j: the degree of the
    # zero divisor of u/v, shifted by each place of supp(D) where the
    # coefficient moves the positive part
    height = np.maximum.outer(deg, deg)
    for pl, c in D.items():
        if pl.kind == "inf":
            val = deg[:, None] - deg[None, :]
        else:
            mult = along_chain(np.int32(0), lambda m, pi, p=_monic_index(pl.poly): m + (pi == p))
            val = mult[None, :] - mult[:, None]
        height += (np.maximum(val + c, 0) - np.maximum(val, 0)) * pl.degree
    keep = (height <= h) & (incidence @ incidence.T == 0)
    # the numerators lead * monic in key order: degree, then coefficients
    # from the constant term (at degree 0 the one monic is 1, and a field
    # that large may have no lookup tables)
    leads = np.arange(1, q, dtype=rows.dtype)[:, None, None]
    scaled = (F.tables[1][leads, rows] if max_deg else leads).reshape(-1, max_deg + 1)
    order = np.lexsort(np.vstack((scaled.T[::-1], np.tile(deg, q - 1))))
    monic_of = order % start[-1]
    # rows follow v and columns u in key order, so the row-major scan is
    # sorted by (v.key(), u.key())
    i, k = np.nonzero(keep[:, monic_of])
    zero = np.zeros((1, max_deg + 1), dtype=rows.dtype)
    return SectionTable(D, np.vstack((zero, scaled[order[k]])), np.vstack((rows[:1], rows[i])),
                        np.append(0, height[i, monic_of[k]]).astype(np.int32))


# ---------------------------------------------------------------------------
# Agreement multiplicities.
#
# With f = u/v and f2 = u2/v2, f - f2 = w/(v*v2) for w = u*v2 - u2*v. Every
# twist has valuation D(P) at P, so phi*f has valuation D(P) + v(u) - v(v),
# phi*(f - f2) has D(P) + v(w) - v(v) - v(v2), and the difference of the
# inverses subtracts the valuations of both twisted functions. An
# irreducible polynomial over a finite field is separable, so the
# base-field valuation at a place is the multiplicity at every geometric
# point over it.

@dataclass(frozen=True, eq=False)
class Census:
    """A batch's census, one entry per (pair, place) by pair and then by
    Place.sort_key: the pair's position, the place's sieve index (one past
    the sieve for infinity) and degree, and m, mu, mu2 and v_diff."""

    curve: ProjectiveLine
    sieve_rows: np.ndarray
    pair: np.ndarray
    place: np.ndarray
    degree: np.ndarray
    m: np.ndarray
    mu: np.ndarray
    mu2: np.ndarray
    v_diff: np.ndarray

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per pair, the degree-weighted sums of m and of mu + mu2."""
        starts = np.flatnonzero(np.diff(self.pair, prepend=-1))
        return tuple(np.add.reduceat(x * self.degree, starts) for x in (self.m, self.mu + self.mu2))

    def rows(self, k: int) -> list[dict]:
        """The census of the batch's k-th pair as rows of a Place and ints."""
        return [{"place": Place("inf") if p == len(self.sieve_rows) else self.curve.place_of_poly(
                     Polynomial(self.curve.field, self.sieve_rows[p].tolist())),
                 **{name: int(getattr(self, name)[e]) for name in ("m", "mu", "mu2", "v_diff")}}
                for e, p in zip(np.flatnonzero(self.pair == k), self.place[self.pair == k])]


def multiplicity_census(sections: SectionTable, pairs) -> Census:
    """The census of every pair (i, j) of distinct table rows, for the
    identities sum deg * (m - mu - mu2) = 0 and sum deg * (mu + mu2) = h + h2,
    over infinity, supp(D) and the factors of v, v2 and w, the places where
    any of m, mu, mu2 and v(phi f - phi f2) can be nonzero. w = u*v2 - u2*v
    is a convolution on the field's tables, and all five polynomials are
    factored along the sieve's least-factor chains from their monic indices."""
    D, F = sections.divisor, sections.divisor.curve.field
    i, j = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    n, width = len(i), sections.numer.shape[1]
    cols = 2 * width - 1  # of w
    polys = np.zeros((5, n, cols), dtype=sections.numer.dtype)  # u, v, u2, v2, w
    polys[:4, :, :width] = sections.numer[i], sections.denom[i], sections.numer[j], sections.denom[j]
    polys[4] = polys[0] != polys[2]  # w = u - u2 for constants over v = 1, up to a unit
    if width > 1:
        add, mul = F.tables
        neg, inv = kernels.neg_inv(add, mul)
        prod = np.zeros((2, n, cols), dtype=add.dtype)  # u*v2 and u2*v
        for k in range(width):
            prod[..., k:] = add[prod[..., k:], mul[polys[[0, 2], :, k, None],
                                                   polys[[3, 1], :, : cols - k]]]
        polys[4] = add[prod[0], neg[prod[1]]]
    polys = polys.reshape(5 * n, cols)
    nonzero = polys.any(axis=1)
    if not nonzero[4 * n :].all():
        raise PreconditionError("sections must be distinct")
    deg = np.where(nonzero, cols - 1 - np.argmax(polys[:, ::-1] != 0, axis=1), 0)
    least, cofactor, sieve_rows = _factor_sieve(F, max(int(deg.max(initial=0)), D.pos_part().degree))
    inf = len(least)  # infinity's index, after every irreducible's
    monic = mul[inv[polys[np.arange(5 * n), deg]][:, None], polys] if width > 1 else polys
    start = (F.q ** np.arange(sieve_rows.shape[1] + 1) - 1) // (F.q - 1)
    power = deg[:, None] - 1 - np.arange(cols)
    chain = [start[deg] + (monic * np.where(power < 0, 0, F.q ** np.maximum(power, 0))).sum(axis=1)]
    for _ in range(cols - 1):  # a least factor a step, down to 1 at index 0
        chain.append(cofactor[chain[-1]])
    chain = np.array(chain)
    owner, factor = np.nonzero(chain)[1], least[chain[chain != 0]]
    coeff = {inf if pl.kind == "inf" else _monic_index(pl.poly): c for pl, c in D.items()}
    of_place = (owner >= n) & (owner // n != 2)  # the factors of v, v2 and w
    # a key per (pair, place), pair * (inf + 1) + place: sorted by pair, then by Place.sort_key
    keys = np.sort(np.concatenate(((np.arange(n)[:, None] * (inf + 1) + [inf, *coeff]).ravel(),
                                   owner[of_place] % n * (inf + 1) + factor[of_place])))
    keys = keys[np.diff(keys, prepend=-1) > 0]  # distinct; np.unique would import numpy.ma
    pair, place = np.divmod(keys, inf + 1)
    found, query = np.sort(owner * (inf + 1) + factor), np.arange(5)[:, None] * n * (inf + 1) + keys
    mult = np.searchsorted(found, query, "right") - np.searchsorted(found, query)
    vu, vv, vu2, vv2, vw = np.where(place == inf, -deg.reshape(5, n)[:, pair], mult)
    c = sum(np.where(place == p, cp, 0) for p, cp in coeff.items())
    g, g2, v_diff = c + vu - vv, c + vu2 - vv2, c + vw - vv - vv2
    inf1, inf2 = nonzero[:n][pair] & (g < 0), nonzero[2 * n : 3 * n][pair] & (g2 < 0)
    m = np.where(inf1 == inf2, np.maximum(np.where(inf1, v_diff - g - g2, v_diff), 0), 0)
    return Census(D.curve, sieve_rows, pair, place,
                  np.where(place == inf, 1, np.searchsorted(start, place, "right") - 1),
                  m, np.where(inf1, -g, 0), np.where(inf2, -g2, 0), v_diff)


def solution_multiplicity(curve: ProjectiveLine, pair: SectionTable, place: Place) -> int:
    """Multiplicity of the place as a solution of f = f2 for the two rows of
    a table (per geometric point; every point over the place carries the
    same value)."""
    rows = multiplicity_census(pair, [(0, 1)]).rows(0)
    return next((r["m"] for r in rows if r["place"] == place), 0)


# ---------------------------------------------------------------------------
# The code over the projective alphabet.

def phi_words(curve: ProjectiveLine, sections: SectionTable, points, r: int) -> np.ndarray:
    """Order-r words of the sections of a table, one row each. At r = 0 the
    twisted evaluation word: field encodings for finite values, symbol q
    for infinity. At r >= 1 the expansion word over the base field: the t^r
    coefficient of the twisted section, or of its inverse where the twisted
    value is infinite.

    At each point P the twisted section t^D(P) * u / v of a table row has
    valuation D(P) + mult(u) - mult(v) and unit series (u unit) / (v unit);
    the inverse swaps numerator and denominator. The Taylor kernel expands
    the distinct numerators and denominators at every point at once; at
    infinity it reads the reversed arrays, whose common offset cancels. The
    order-r coefficient of a function of valuation val >= 0 is its unit
    coefficient r - val, and 0 when val > r. Needs q <= 256, the limit of
    kernels.field_tables, which hands out the field's own lookup tables.
    """
    if r < 0:
        raise PreconditionError("order must be nonnegative")
    F = curve.field
    at = [None if p.is_infinity else p.coords[0] for p in points]

    def expand(A):  # multiplicities and units of the distinct rows, and each row's column
        _, first, which = np.unique(kernels.row_keys(A), return_index=True, return_inverse=True)
        mult, units = kernels.leading(kernels.taylor(F, A[first].T, at, r), r)
        return mult.astype(np.int16), units, which

    (mult_u, units_u, which_u), (mult_v, units_v, which_v) = map(
        expand, (sections.numer, sections.denom))
    twist = np.array([sections.divisor.coeff(curve.place_of_point(p)) for p in points],
                     dtype=np.int16)
    nonzero = sections.numer.any(axis=1)
    out = np.empty((len(sections), len(points)), dtype=np.uint8 if F.q + 1 <= 256 else np.uint16)
    step = max(1, kernels._CHUNK_CELLS // max(1, len(points) * (r + 1)))
    for lo in range(0, len(sections), step):  # blocks of rows bound the (order, point, row) arrays
        iu, iv, live = which_u[lo : lo + step], which_v[lo : lo + step], nonzero[lo : lo + step]
        val = twist[:, None] + mult_u[:, iu] - mult_v[:, iv]
        num, den = units_u[:, :, iu], units_v[:, :, iv]
        if r:
            pole = val < 0
            num, den = np.where(pole, den, num), np.where(pole, num, den)
        series, order = kernels.series_quotient(F, num, den), r - np.abs(val)
        words = np.zeros(val.shape, dtype=out.dtype)
        for k in range(r + 1):
            np.copyto(words, series[k], where=live & (order == k))
        if not r:
            words[live & (val < 0)] = F.q
        out[lo : lo + step] = words.T
    return out


def phi0_projective(curve: ProjectiveLine, row: SectionTable, points) -> tuple[int, ...]:
    """Twisted evaluation word of the section of a one-row table over P^1(k):
    field encodings for finite values, symbol q for infinity."""
    return tuple(phi_words(curve, row, points, 0)[0].tolist())


def threshold_check(q: int, h: int, n: int) -> bool:
    """Whether h/N clears q/(q^2 - 1), the regime where the asymptotic
    section-count average applies. Informational at desk scale."""
    return Fraction(h, n) > Fraction(q, q * q - 1)


def count_reference(q: int, n: int, h: int, count: int) -> dict:
    """The genus-0 reference count ((q+1)/q)^N q^(2h) of the height-h
    sections and the ratio of the actual count to it, as metadata entries."""
    reference = ((q + 1) / q) ** n * q ** (2 * h)
    return {"count_reference": f"{reference:.6g}", "count_ratio": f"{count / reference:.6g}"}


def build_section_code(curve: ProjectiveLine, D: Divisor, h: int) -> Code:
    """Evaluation code of the height-h sections over the projective
    alphabet at every point of the line; needs 2h < N, which makes
    evaluation injective and forces minimum distance at least N - 2h."""
    points = curve.points
    n = len(points)
    if 2 * h >= n:
        raise PreconditionError("need 2h < N for the plain section code")
    sections = enumerate_sections(curve, D, h)
    q = curve.field.q
    metadata = {
        "construction": "section",
        "curve": curve.kind,
        "divisor": D.serialize(),
        "h": h,
        "n_sections": len(sections),
        **count_reference(q, n, h, len(sections)),
        "claimed_distance": n - 2 * h,
        "points": ";".join(p.serialize() for p in points),
        "linear": False,
        "threshold_exceeded": int(threshold_check(q, h, n)),
    }
    words = phi_words(curve, sections, points, 0)
    return finish_code(Alphabet("p1", q), n, words, curve.field, metadata)
