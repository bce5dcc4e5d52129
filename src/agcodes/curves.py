"""Explicit curves over a finite field: the projective line and the
Hermitian curve y^q0 + y = x^(q0+1) over GF(q0^2).

Both curves expose the same small surface: an ordered list of rational
points (affine points ascending by coordinate encodings, the point at
infinity last), places and divisors, Riemann-Roch bases, and evaluation
plus local expansion of functions at rational points (in t = x - a at an
affine point, and in 1/x at infinity on the projective line).
The point order fixes codeword coordinate order once and for all; code
files record it explicitly.

Functions live in curve-specific representations: reduced rational
functions in x on the projective line, and reduced polynomial combinations
sum_j a_j(x) y^j with j < q0 on the Hermitian curve (equality is
representation equality).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError, VerificationError
from .field import (
    INF,
    FieldSpec,
    Polynomial,
    RationalFunction,
    factorize,
    linear_poly,
    local_expand,
)


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
    reduced rational functions in x."""

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
                if factorize(pi) != {pi: 1}:
                    raise PreconditionError(
                        f"place polynomial {desc} is reducible over GF({self.field.q})"
                    )
            coeffs[pl] = coeffs.get(pl, 0) + int(c)
        return Divisor(self, coeffs)

    # -- function operations ----------------------------------------------------

    def evaluate(self, f: RationalFunction, point: Point):
        """Value of f at a rational point: an encoded element or INF."""
        if point.is_infinity:
            return f.evaluate_at_infinity()
        return f.evaluate(point.coords[0])

    def local_expansion(self, f: RationalFunction, point: Point, r_max: int) -> tuple:
        """Expansion coefficients of f at a rational point, as encoded ints."""
        at = INF if point.is_infinity else linear_poly(self.field, point.coords[0])
        return local_expand(f, at, r_max)

    # -- Riemann-Roch ----------------------------------------------------------

    def riemann_roch_basis(self, D: Divisor) -> list[RationalFunction]:
        """Exact basis of L(D) = {f : (f) + D >= 0} for an arbitrary divisor.

        The basis is {z * x^i / v : 0 <= i <= deg D} where v collects the
        allowed finite pole orders and z the required finite zero orders;
        the bound on i enforces the order condition at infinity. Empty for
        deg D < 0.
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
        bound = v.degree - z.degree + c_inf
        if bound < 0:
            return []
        return [
            RationalFunction(z.shift(i), v)
            for i in range(bound + 1)
        ]

    def info(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.field.q,
            "genus": self.genus,
            "n_points": self.n_points,
        }


# ---------------------------------------------------------------------------


class HermitianFunction:
    """Function on the Hermitian curve in the reduced representation
    sum a_{ij} x^i y^j with 0 <= j < q0. terms maps (i, j) to a nonzero
    encoded coefficient."""

    __slots__ = ("curve", "terms", "_hash")

    def __init__(self, curve, terms):
        items = {}
        for (i, j), c in dict(terms).items():
            code = int(c)
            if code:
                if j >= curve.q0:
                    raise PreconditionError("unreduced power of y")
                items[(i, j)] = code
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "terms", tuple(sorted(items.items())))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("HermitianFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(ij == (0, 0) for ij, _ in self.terms)

    @property
    def constant_code(self) -> int:
        for ij, c in self.terms:
            if ij == (0, 0):
                return c
        return 0

    def __add__(self, other):
        if other.curve is not self.curve:
            raise PreconditionError("functions on different curves")
        F = self.curve.field
        out = dict(self.terms)
        for ij, c in other.terms:
            out[ij] = F.add(out.get(ij, 0), c)
        return HermitianFunction(self.curve, out)

    def __sub__(self, other):
        return self + other.scale(self.curve.field.neg(1))

    def scale(self, code: int):
        F = self.curve.field
        return HermitianFunction(
            self.curve, {ij: F.mul(c, code) for ij, c in self.terms}
        )

    def evaluate_affine(self, a: int, b: int) -> int:
        F = self.curve.field
        acc = 0
        for (i, j), c in self.terms:
            acc = F.add(acc, F.mul(c, F.mul(F.pow(a, i), F.pow(b, j))))
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, HermitianFunction)
            and other.curve is self.curve
            and other.terms == self.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if not self.terms:
            return "H(0)"
        bits = []
        for (i, j), c in self.terms:
            mono = "".join(
                s for s in (
                    f"{c}*" if c != 1 or (i == 0 and j == 0) else "",
                    f"x^{i}" if i > 1 else ("x" if i == 1 else ""),
                    f"y^{j}" if j > 1 else ("y" if j == 1 else ""),
                )
            )
            bits.append(mono.rstrip("*") or str(c))
        return "H(" + " + ".join(bits) + ")"


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
        self._series_cache: dict = {}

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

    def monomial(self, i: int, j: int, code: int = 1) -> HermitianFunction:
        return HermitianFunction(self, {(i, j): code})

    def evaluate(self, f: HermitianFunction, point: Point):
        """Value at a rational point; INF for a non-constant function at
        P_inf (every non-constant reduced function has a pole there)."""
        if point.is_infinity:
            if f.is_zero or f.is_constant:
                return f.constant_code
            return INF
        return f.evaluate_affine(*point.coords)

    def _y_series(self, point: Point, depth: int) -> tuple:
        """Coefficients of y along the branch at an affine point, in the
        uniformizer t = x - a, up to t^depth."""
        key = ("y", point, depth)
        cached = self._series_cache.get(key)
        if cached is not None:
            return cached
        F = self.field
        q0 = self.q0
        a, b = point.coords
        # y = b + u(t) with u^q0 + u = a^q0 t + a t^q0 + t^(q0+1)
        rhs = {1: F.pow(a, q0), q0: F.add(0, a), q0 + 1: 1}
        if q0 == 1:
            raise AssertionError("q0 >= 2 always")
        u = [0] * (depth + 1)
        for r in range(1, depth + 1):
            val = rhs.get(r, 0)
            if r % q0 == 0:
                val = F.sub(val, F.pow(u[r // q0], q0))
            u[r] = val
        out = tuple([b] + u[1:])
        self._series_cache[key] = out
        return out

    def _monomial_series(self, point: Point, i: int, j: int, depth: int) -> tuple:
        key = (point, i, j, depth)
        cached = self._series_cache.get(key)
        if cached is not None:
            return cached
        F = self.field
        a = point.coords[0]

        def series_mul(s1, s2):
            out = [0] * (depth + 1)
            for n1, c1 in enumerate(s1):
                if c1:
                    for n2, c2 in enumerate(s2):
                        if c2 and n1 + n2 <= depth:
                            out[n1 + n2] = F.add(out[n1 + n2], F.mul(c1, c2))
            return tuple(out)

        one = tuple([1] + [0] * depth)
        x_series = tuple([a, 1] + [0] * max(0, depth - 1))[: depth + 1]
        y_series = self._y_series(point, depth)
        out = one
        for _ in range(i):
            out = series_mul(out, x_series)
        for _ in range(j):
            out = series_mul(out, y_series)
        self._series_cache[key] = out
        return out

    def local_expansion(self, f: HermitianFunction, point: Point, r_max: int) -> tuple:
        """Expansion of f at an affine point in t = x - a, as encoded ints."""
        if point.is_infinity:
            raise PreconditionError("expansion at P_inf is not supported")
        F = self.field
        out = [0] * (r_max + 1)
        for (i, j), c in f.terms:
            s = self._monomial_series(point, i, j, r_max)
            for n in range(r_max + 1):
                if s[n]:
                    out[n] = F.add(out[n], F.mul(c, s[n]))
        return tuple(out)

    # -- Riemann-Roch -----------------------------------------------------------

    def riemann_roch_basis(self, D: Divisor) -> list[HermitianFunction]:
        """Monomial basis of L(m P_inf): x^i y^j with j < q0 and
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
        monos = [
            (i * q0 + j * (q0 + 1), i, j)
            for j in range(q0)
            for i in range(m // q0 + 1)
            if i * q0 + j * (q0 + 1) <= m
        ]
        monos.sort()
        return [self.monomial(i, j) for _, i, j in monos]

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
    rejected."""
    points = tuple(points)
    if len(set(points)) != len(points):
        raise PreconditionError("repeated evaluation point")
    return points
