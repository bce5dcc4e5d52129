"""Explicit curves over a finite field: the projective line and the
Hermitian curve y^q0 + y = x^(q0+1) over GF(q0^2).

Both curves expose the same small surface: an ordered list of rational
points (affine points ascending by coordinate encodings, the point at
infinity last), places and divisors, Riemann-Roch bases, and `expansions`,
the coefficients of a basis at a batch of rational points to a given order
(in t = x - a at an affine point, and in 1/x at infinity on the projective
line), computed on the field tables by the Taylor kernel of kernels.py;
order 0 is the value. `local_expansion` is its one-row view.
The point order fixes codeword coordinate order once and for all; code
files record it explicitly.

A basis of L(D) is an integer array, in a curve-specific form: on the
projective line a (k, 2, width) array of numerators z * x^i and the common
denominator v, constant term first; on the Hermitian curve a (k, 2) array
of the exponents (i, j) of the monomials x^i y^j. Functions as symbolic
objects, with their evaluation and expansion, are test oracles
(tests/conftest.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import PreconditionError, VerificationError
from .field import FieldSpec, Polynomial, is_irreducible, linear_poly


@dataclass(frozen=True)
class Point:
    """A rational point: affine coordinate tuple of encoded elements, or
    coords=None for the point at infinity."""

    coords: tuple | None

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    def serialize(self) -> str:
        if self.coords is None:
            return "inf"
        return ",".join(str(c) for c in self.coords)

    def __repr__(self):
        return "P(inf)" if self.coords is None else f"P{self.coords}"


@dataclass(frozen=True)
class Place:
    """A closed point. kind is one of:

    * "poly": a monic irreducible polynomial over the base field (projective
      line only; degree-1 polynomials x - a are the finite rational points),
    * "point": a rational point of the Hermitian curve,
    * "inf": the place at infinity of either curve.
    """

    kind: str
    poly: Polynomial | None = None
    point: Point | None = None

    @property
    def degree(self) -> int:
        if self.kind == "poly":
            return self.poly.degree
        return 1

    def sort_key(self):
        if self.kind == "inf":
            return (1, 0, ())
        if self.kind == "poly":
            return (0, *self.poly.key())
        return (0, 1, self.point.coords)

    def serialize(self) -> str:
        if self.kind == "inf":
            return "inf"
        if self.kind == "poly":
            return self.poly.serialize()
        return "pt(" + self.point.serialize() + ")"

    def __repr__(self):
        return f"Place({self.serialize()})"


class Divisor:
    """Integer-weighted formal sum of places with finite support."""

    __slots__ = ("curve", "_coeffs", "_hash")

    def __init__(self, curve, coeffs=None):
        items = {}
        if coeffs:
            for place, c in dict(coeffs).items():
                if c:
                    items[place] = c
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "_coeffs", items)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Divisor is immutable")

    def coeff(self, place: Place) -> int:
        return self._coeffs.get(place, 0)

    @property
    def support(self) -> tuple[Place, ...]:
        return tuple(sorted(self._coeffs, key=Place.sort_key))

    @property
    def degree(self) -> int:
        return sum(c * pl.degree for pl, c in self._coeffs.items())

    def items(self):
        return [(pl, self._coeffs[pl]) for pl in self.support]

    def __add__(self, other):
        if other.curve is not self.curve:
            raise PreconditionError("divisors on different curves")
        out = dict(self._coeffs)
        for pl, c in other._coeffs.items():
            out[pl] = out.get(pl, 0) + c
        return Divisor(self.curve, out)

    def __neg__(self):
        return Divisor(self.curve, {pl: -c for pl, c in self._coeffs.items()})

    def __rmul__(self, k: int):
        return Divisor(self.curve, {pl: k * c for pl, c in self._coeffs.items()})

    def pos_part(self):
        return Divisor(self.curve, {pl: c for pl, c in self._coeffs.items() if c > 0})

    def neg_part(self):
        """The effective divisor -min(D, 0), so D = pos_part - neg_part."""
        return Divisor(self.curve, {pl: -c for pl, c in self._coeffs.items() if c < 0})

    def serialize(self) -> str:
        if not self._coeffs:
            return "0"
        return ";".join(f"{pl.serialize()}:{self._coeffs[pl]}" for pl in self.support)

    def __eq__(self, other):
        return (
            isinstance(other, Divisor)
            and other.curve is self.curve
            and other._coeffs == self._coeffs
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self._coeffs.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Divisor({self.serialize()})"


# ---------------------------------------------------------------------------


class ProjectiveLine:
    """P^1 over GF(q): q + 1 rational points, genus 0, functions are
    rational functions in x."""

    kind = "p1"
    genus = 0

    def __init__(self, field: FieldSpec):
        self.field = field
        self.points = tuple(
            [Point((a,)) for a in range(field.q)] + [Point(None)]
        )

    @property
    def n_points(self) -> int:
        return len(self.points)

    def __repr__(self):
        return f"ProjectiveLine(GF({self.field.q}))"

    # -- places and divisors --------------------------------------------------

    def place_of_point(self, point: Point) -> Place:
        if point.is_infinity:
            return Place("inf")
        return Place("poly", poly=linear_poly(self.field, point.coords[0]))

    def place_inf(self) -> Place:
        return Place("inf")

    def place_of_poly(self, poly: Polynomial) -> Place:
        if not poly.is_monic or poly.degree < 1:
            raise PreconditionError("place polynomial must be monic of positive degree")
        return Place("poly", poly=poly)

    def divisor(self, pairs) -> Divisor:
        return Divisor(self, dict(pairs))

    def zero_divisor(self) -> Divisor:
        return Divisor(self, {})

    def parse_divisor(self, text: str) -> Divisor:
        """The divisor of `place:coeff` entries joined by ";", each place
        `inf` or a polynomial, constant term first, made monic. A place of
        degree d must be irreducible: trial division by the irreducibles of
        degree <= d // 2 (field.is_irreducible) builds no larger sieve."""
        text = text.strip()
        if text in ("", "0"):
            return self.zero_divisor()
        coeffs = {}
        for entry in text.split(";"):
            desc, c = entry.rsplit(":", 1)
            desc = desc.strip()
            if desc == "inf":
                pl = Place("inf")
            else:
                pi = Polynomial.parse(self.field, desc).monic()
                pl = self.place_of_poly(pi)
                if not is_irreducible(pi):
                    raise PreconditionError(
                        f"place polynomial {desc} is reducible over GF({self.field.q})"
                    )
            coeffs[pl] = coeffs.get(pl, 0) + int(c)
        return Divisor(self, coeffs)

    # -- function operations ----------------------------------------------------

    def expansions(self, basis, points, r_max: int) -> tuple[np.ndarray, np.ndarray]:
        """The expansion coefficients of every row of a (k, 2, width) basis
        array (numerator and denominator, constant term first, as
        `riemann_roch_basis` returns them) at every rational point to order
        r_max, as an (r_max + 1, points, k) array of encodings, and the
        (points, k) mask of the poles, where the coefficients read 0. The
        rows need not be reduced: a common factor drops out of the
        valuation and of the unit quotient. Numerators and denominators
        share one width, so the offset of their reversed arrays at infinity
        cancels."""
        F = self.field
        at = [None if p.is_infinity else p.coords[0] for p in points]
        uv = basis.reshape(-1, basis.shape[-1]).T  # numerator and denominator columns alternate
        mult, units = kernels.leading(kernels.taylor(F, uv, at, r_max), r_max)
        val = mult[:, 0::2] - mult[:, 1::2]
        series = kernels.series_quotient(F, units[:, :, 0::2], units[:, :, 1::2])
        order = np.arange(r_max + 1)[:, None, None] - val  # the unit order of each coefficient
        rows = np.take_along_axis(series, np.clip(order, 0, r_max), axis=0)
        return np.where((order >= 0) & (val >= 0), rows, 0).astype(np.uint8), val < 0

    def local_expansion(self, row, point: Point, r_max: int) -> tuple:
        """Expansion coefficients of one (2, width) basis row at a rational
        point, as encoded ints: the one-row view of `expansions`."""
        if r_max < 0:
            raise PreconditionError("r_max must be nonnegative")
        rows, pole = self.expansions(np.asarray(row)[None], [point], r_max)
        if pole[0, 0]:
            where = "infinity" if point.is_infinity else "the place"
            raise PreconditionError(f"pole at {where}; expand the inverse")
        return tuple(rows[:, 0, 0].tolist())

    # -- Riemann-Roch ----------------------------------------------------------

    def riemann_roch_basis(self, D: Divisor) -> np.ndarray:
        """Exact basis of L(D) = {f : (f) + D >= 0} for an arbitrary divisor,
        as a (k, 2, width) array with k = dim L(D): row i holds the numerator
        z * x^i and the denominator v, constant term first.

        v collects the allowed finite pole orders and z the required finite
        zero orders; the bound i <= deg D enforces the order condition at
        infinity. The rows are not reduced. Empty for deg D < 0.
        """
        if D.curve is not self:
            raise PreconditionError("divisor lives on a different curve")
        v = Polynomial.one(self.field)
        z = Polynomial.one(self.field)
        c_inf = 0
        for pl, c in D.items():
            if pl.kind == "inf":
                c_inf = c
            elif c > 0:
                v = v * pl.poly ** c
            else:
                z = z * pl.poly ** (-c)
        k = max(v.degree - z.degree + c_inf + 1, 0)
        basis = np.zeros((k, 2, max(z.degree + k, v.degree + 1)),
                         dtype=np.min_scalar_type(self.field.q - 1))
        for i in range(k):
            basis[i, 0, i : i + len(z.coeffs)] = z.coeffs
        basis[:, 1, : len(v.coeffs)] = v.coeffs
        return basis

    def info(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.field.q,
            "genus": self.genus,
            "n_points": self.n_points,
        }


# ---------------------------------------------------------------------------


class HermitianCurve:
    """The curve y^q0 + y = x^(q0+1) over GF(q0^2): q0^3 + 1 rational
    points, genus q0(q0-1)/2, with the single point P_inf at infinity."""

    kind = "hermitian"

    def __init__(self, field: FieldSpec):
        if field.degree % 2 != 0:
            raise PreconditionError("Hermitian curve needs a square field order")
        self.field = field
        self.q0 = field.p ** (field.degree // 2)
        q0 = self.q0
        self.genus = q0 * (q0 - 1) // 2
        pts = []
        for a in range(field.q):
            rhs = field.pow(a, q0 + 1)
            for b in range(field.q):
                if field.add(field.pow(b, q0), b) == rhs:
                    pts.append(Point((a, b)))
        pts.sort(key=lambda p: p.coords)
        pts.append(Point(None))
        self.points = tuple(pts)
        if len(self.points) != q0 ** 3 + 1:
            raise VerificationError("Hermitian point count off the closed form")

    @property
    def n_points(self) -> int:
        return len(self.points)

    def __repr__(self):
        return f"HermitianCurve(q0={self.q0}, GF({self.field.q}))"

    # -- places and divisors ---------------------------------------------------

    def place_of_point(self, point: Point) -> Place:
        if point.is_infinity:
            return Place("inf")
        return Place("point", point=point)

    def place_inf(self) -> Place:
        return Place("inf")

    def one_point_divisor(self, m: int) -> Divisor:
        return Divisor(self, {Place("inf"): m})

    def parse_divisor(self, text: str) -> Divisor:
        text = text.strip()
        if text in ("", "0"):
            return Divisor(self, {})
        coeffs = {}
        for entry in text.split(";"):
            desc, c = entry.rsplit(":", 1)
            if desc.strip() != "inf":
                raise PreconditionError("Hermitian divisors are restricted to P_inf")
            coeffs[Place("inf")] = coeffs.get(Place("inf"), 0) + int(c)
        return Divisor(self, coeffs)

    # -- functions ----------------------------------------------------------------

    def expansions(self, basis, points, r_max: int) -> tuple[np.ndarray, np.ndarray]:
        """The expansion coefficients of the monomials x^i y^j of a (k, 2)
        array of exponents (i, j), as `riemann_roch_basis` returns them, at
        every rational point to order r_max, as an (r_max + 1, points, k)
        array of encodings, and the (points, k) mask of the poles, where the
        coefficients read 0.

        At an affine point (a, b) the uniformizer is t = x - a: a monomial
        x^i y^j expands as the Taylor shift of x^i times the j-th power of
        y = b + u(t), one series per point from the curve's recurrence
        u^q0 + u = a^q0 t + a t^q0 + t^(q0+1). At P_inf only order 0 is
        supported: the constant 1 reads 1, any other monomial a pole."""
        if r_max and any(p.is_infinity for p in points):
            raise PreconditionError("expansion at P_inf is not supported")
        F, q0 = self.field, self.q0
        add, mul = kernels.field_tables(F)
        neg, _ = kernels.neg_inv(add, mul)
        i, j = np.asarray(basis, dtype=np.int64).T
        a = [0 if p.is_infinity else p.coords[0] for p in points]
        shifts = kernels.taylor(F, np.eye(i.max(initial=0) + 1, dtype=np.uint8), a, r_max)
        frobenius = np.array([F.pow(c, q0) for c in range(F.q)], dtype=np.uint8)
        powers = np.zeros((q0, r_max + 1, len(points)), dtype=np.uint8)  # y^0 .. y^(q0-1)
        powers[0, 0] = 1
        y = powers[1]
        y[0] = [0 if p.is_infinity else p.coords[1] for p in points]
        rhs = {1: frobenius[a], q0: a, q0 + 1: 1}
        for k in range(1, r_max + 1):
            y[k] = rhs.get(k, 0)
            if k % q0 == 0:
                y[k] = add[y[k], neg[frobenius[y[k // q0]]]]
        for e in range(2, q0):
            powers[e] = kernels.series_product(F, powers[e - 1], y)
        rows = kernels.series_product(F, shifts[: r_max + 1, :, i], powers[j].transpose(1, 2, 0))
        # P_inf stands in as (0, 0), where x^i y^j reads 1 for i = j = 0 and 0 at every pole
        infinite = np.array([p.is_infinity for p in points], dtype=bool)
        return rows, infinite[:, None] & ((i != 0) | (j != 0))

    def local_expansion(self, row, point: Point, r_max: int) -> tuple:
        """Expansion of the monomial of one exponent row (i, j) at an affine
        point in t = x - a, as encoded ints: the one-row view of
        `expansions`."""
        if point.is_infinity:
            raise PreconditionError("expansion at P_inf is not supported")
        return tuple(self.expansions([row], [point], r_max)[0][:, 0, 0].tolist())

    # -- Riemann-Roch -----------------------------------------------------------

    def riemann_roch_basis(self, D: Divisor) -> np.ndarray:
        """Monomial basis of L(m P_inf) as a (k, 2) array of the exponents
        (i, j) of x^i y^j, with k = dim L(D): j < q0 and
        i*q0 + j*(q0+1) <= m, ordered by pole order at P_inf."""
        if D.curve is not self:
            raise PreconditionError("divisor lives on a different curve")
        for pl, c in D.items():
            if pl.kind != "inf" or c < 0:
                raise PreconditionError(
                    "Hermitian Riemann-Roch supports only m * P_inf with m >= 0"
                )
        m = D.coeff(Place("inf"))
        q0 = self.q0
        monos = sorted(
            (i * q0 + j * (q0 + 1), i, j)
            for j in range(q0)
            for i in range(m // q0 + 1)
            if i * q0 + j * (q0 + 1) <= m
        )
        return np.array([(i, j) for _, i, j in monos], dtype=np.int64)

    def info(self) -> dict:
        out = {
            "kind": self.kind,
            "q": self.field.q,
            "genus": self.genus,
            "n_points": self.n_points,
            "q0": self.q0,
        }
        if self.genus:
            # reported against the reference constant q0 - 1, never asserted
            out["n_over_g"] = self.n_points / self.genus
            out["reference_ratio"] = self.q0 - 1
        return out


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_curve(kind: str, field: FieldSpec):
    """Factory for the supported curve kinds: "p1" and "hermitian".

    Cached so repeated requests return the same object; divisors and codes
    tie back to their curve by identity.
    """
    if kind == "p1":
        return ProjectiveLine(field)
    if kind == "hermitian":
        return HermitianCurve(field)
    raise PreconditionError(f"unknown curve kind {kind!r}")


def default_eval_points(curve, D: Divisor) -> tuple[Point, ...]:
    """All rational points whose place avoids supp(D), in canonical order."""
    supp = set(D.support)
    return tuple(p for p in curve.points if curve.place_of_point(p) not in supp)


def eval_points(curve, D: Divisor, points=None) -> tuple[Point, ...]:
    """The given evaluation points, by default those off supp(D), checked
    to be distinct and to avoid supp(D)."""
    points = distinct_points(default_eval_points(curve, D) if points is None else points)
    supp = set(D.support)
    if any(curve.place_of_point(p) in supp for p in points):
        raise PreconditionError("supp(D) meets the evaluation points")
    return points


def distinct_points(points) -> tuple[Point, ...]:
    """The evaluation points as a tuple. A repeated point would repeat a
    coordinate of every word and void each distance claim, so it is
    rejected, and so is an empty list."""
    points = tuple(points)
    if not points:
        raise PreconditionError("need at least one evaluation point")
    if len(set(points)) != len(points):
        raise PreconditionError("repeated evaluation point")
    return points
