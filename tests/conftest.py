"""Shared independent oracles for the test suite.

These deliberately avoid the library's own search kernels and candidate
bookkeeping: distances are measured by plain Python loops, optimizer
locations by golden-section search, irreducible counts by the divisor-sum
formula, irreducible lists and factorizations by trial division (the
library reads a least-factor sieve), valuations and principal divisors by
repeated division (on the Hermitian curve by pole orders and local
expansions), multiplicity totals by enumerating
every place up to a degree bound, multiplicities at places of degree > 1 by
root multiplicity over the residue field, sections by one gcd per candidate
pair, and evaluation words and census rows by symbolic twist-times-section
arithmetic, values and local expansions one function and point at a time
(series division of the shifted numerator and denominator on the projective
line, series products of x and the branch of y on the Hermitian curve; the
library runs one Taylor kernel on the field tables), and subspaces
by set closure or, past its reach, by k pivot eliminations over every row.
The frontier table is computed row by row at 60 digits, with one log per
series term of each gain, as the library did before it kept the table on
integers.
Code words and code files have tuple-and-set versions, the form the library
used before it kept words as one integer array.

Functions and sections are symbolic objects here only: reduced rational
functions (one gcd per construction), Hermitian functions as sums of
monomials, sections, the marker INF, and the basis of L(D) built from
them. The library keeps bases and sections as integer arrays; helpers read
its arrays into these objects and write functions back as rows. The
oracles use none of the library's expansion kernel or its basis
(tests/test_imports.py checks this).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import mp, mpf

from agcodes.curves import Divisor, Place
from agcodes.errors import PreconditionError
from agcodes.field import Polynomial, enumerate_irreducibles
from agcodes.sections import SectionTable, multiplicity_census


# ---------------------------------------------------------------------------
# Functions and sections as symbolic objects. The library keeps them as
# integer arrays; these are the oracles' representation.

class _Infinity:
    """The value, and the place, at infinity."""

    def __repr__(self):
        return "inf"


INF = _Infinity()


def poly_gcd(a, b):
    """Monic greatest common divisor of two polynomials, by Euclid."""
    while not b.is_zero:
        a, b = b, a % b
    return a if a.is_zero else a.monic()


class RationalFunction:
    """Reduced ratio of polynomials. Construction always cancels the gcd and
    normalizes the denominator to be monic, so equality is structural."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer, denom):
        if denom.is_zero:
            raise PreconditionError("zero denominator")
        if numer.is_zero:
            denom = Polynomial.one(numer.field)
        else:
            g = poly_gcd(numer, denom)
            numer, denom = numer // g, denom // g
            inv = numer.field.inv(denom.lead)
            numer, denom = numer.scale(inv), denom.scale(inv)
        self.numer = numer
        self.denom = denom

    @classmethod
    def zero(cls, field):
        return cls(Polynomial.zero(field), Polynomial.one(field))

    @classmethod
    def one(cls, field):
        return cls(Polynomial.one(field), Polynomial.one(field))

    @classmethod
    def constant(cls, field, code):
        return cls(Polynomial.constant(field, code), Polynomial.one(field))

    @classmethod
    def x(cls, field):
        return cls(Polynomial.x(field), Polynomial.one(field))

    @classmethod
    def from_poly(cls, poly):
        return cls(poly, Polynomial.one(poly.field))

    @property
    def field(self):
        return self.numer.field

    @property
    def is_zero(self):
        return self.numer.is_zero

    def __add__(self, other):
        return RationalFunction(self.numer * other.denom + other.numer * self.denom,
                                self.denom * other.denom)

    def __sub__(self, other):
        return RationalFunction(self.numer * other.denom - other.numer * self.denom,
                                self.denom * other.denom)

    def __mul__(self, other):
        return RationalFunction(self.numer * other.numer, self.denom * other.denom)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero function")
        return RationalFunction(self.denom, self.numer)

    def scale(self, code: int):
        return RationalFunction(self.numer.scale(code), self.denom)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return RationalFunction(self.numer ** e, self.denom ** e)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction) and other.numer == self.numer
                and other.denom == self.denom)

    def __hash__(self):
        return hash((self.numer, self.denom))

    def serialize(self) -> str:
        return f"{self.numer.serialize()}/{self.denom.serialize()}"


class HermitianFunction:
    """Function on the Hermitian curve in the reduced representation
    sum a_{ij} x^i y^j with 0 <= j < q0. terms holds the pairs ((i, j), c)
    of the nonzero encoded coefficients c, sorted."""

    __slots__ = ("curve", "terms")

    def __init__(self, curve, terms):
        items = {}
        for (i, j), c in dict(terms).items():
            if c:
                if j >= curve.q0:
                    raise PreconditionError("unreduced power of y")
                items[(i, j)] = int(c)
        self.curve = curve
        self.terms = tuple(sorted(items.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(ij == (0, 0) for ij, _ in self.terms)

    @property
    def constant_code(self) -> int:
        return dict(self.terms).get((0, 0), 0)

    def __add__(self, other):
        F = self.curve.field
        out = dict(self.terms)
        for ij, c in other.terms:
            out[ij] = F.add(out.get(ij, 0), c)
        return HermitianFunction(self.curve, out)

    def __sub__(self, other):
        return self + other.scale(self.curve.field.neg(1))

    def scale(self, code: int):
        F = self.curve.field
        return HermitianFunction(self.curve, {ij: F.mul(c, code) for ij, c in self.terms})

    def __eq__(self, other):
        return (isinstance(other, HermitianFunction) and other.curve is self.curve
                and other.terms == self.terms)


def monomial(curve, i: int, j: int, code: int = 1):
    """The Hermitian function code * x^i y^j."""
    return HermitianFunction(curve, {(i, j): code})


@dataclass(frozen=True)
class RationalSection:
    """A section: the underlying function, its reference divisor, and its
    height (0 for the zero function)."""

    f: RationalFunction
    divisor: Divisor
    height: int


def section_table(divisor, sections) -> SectionTable:
    """The library's table of given sections, padded to their widest
    polynomial."""
    polys = [p.coeffs for s in sections for p in (s.f.numer, s.f.denom)]
    uv = np.zeros((len(polys), max(map(len, polys), default=1)),
                  dtype=np.min_scalar_type(divisor.curve.field.q - 1))
    for row, coeffs in zip(uv, polys):
        row[: len(coeffs)] = coeffs
    return SectionTable(divisor, uv[0::2], uv[1::2],
                        np.array([s.height for s in sections], dtype=np.int32))


def table_section(table, i) -> RationalSection:
    """Row i of a library table as a section, reduced by the oracle's own
    gcd."""
    F = table.divisor.curve.field
    f = RationalFunction(Polynomial(F, table.numer[i].tolist()),
                         Polynomial(F, table.denom[i].tolist()))
    return RationalSection(f, table.divisor, int(table.heights[i]))


def table_sections(table) -> list[RationalSection]:
    """Every row of a library table as a section."""
    return [table_section(table, i) for i in range(len(table))]


def oracle_riemann_roch_basis(curve, D):
    """The basis of L(D) as functions, in the library's order: on the
    projective line z x^i / v for 0 <= i <= deg D, with v the allowed finite
    poles and z the required finite zeros, each reduced by one gcd; on the
    Hermitian curve, for D = m P_inf, the monomials x^i y^j with j < q0 and
    pole order i q0 + j (q0 + 1) <= m, by pole order."""
    if curve.kind == "hermitian":
        q0, m = curve.q0, D.coeff(Place("inf"))
        orders = sorted((i * q0 + j * (q0 + 1), i, j) for j in range(q0) for i in range(m + 1))
        return [monomial(curve, i, j) for order, i, j in orders if order <= m]
    F = curve.field
    v = z = Polynomial.one(F)
    for pl, c in D.items():
        if pl.kind != "inf":
            if c > 0:
                v = v * pl.poly ** c
            else:
                z = z * pl.poly ** -c
    return [RationalFunction(z * Polynomial.x(F) ** i, v) for i in range(D.degree + 1)]


def basis_functions(curve, basis):
    """The rows of a library basis array as functions: (numerator,
    denominator) rows on the projective line, exponent rows (i, j) of
    monomials on the Hermitian curve."""
    if curve.kind == "hermitian":
        return [monomial(curve, i, j) for i, j in np.asarray(basis).tolist()]
    F = curve.field
    return [RationalFunction(Polynomial(F, u), Polynomial(F, v))
            for u, v in np.asarray(basis).tolist()]


def function_row(f) -> np.ndarray:
    """A rational function as one (2, width) basis row of the projective
    line: numerator and denominator, constant term first."""
    row = np.zeros((2, max(len(f.numer.coeffs), len(f.denom.coeffs))), dtype=np.uint8)
    row[0, : len(f.numer.coeffs)] = f.numer.coeffs
    row[1, : len(f.denom.coeffs)] = f.denom.coeffs
    return row


# ---------------------------------------------------------------------------


def naive_min_distance(words):
    """Pairwise Hamming minimum by direct iteration; None below two words."""
    ws = list(words)
    if len(ws) < 2:
        return None
    best = None
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            d = sum(1 for a, b in zip(ws[i], ws[j]) if a != b)
            if best is None or d < best:
                best = d
    return best


def brute_ball_count(n, radius, alphabet_size):
    """Count words within the radius of the zero word by full enumeration."""
    count = 0
    for w in itertools.product(range(alphabet_size), repeat=n):
        if sum(1 for s in w if s != 0) <= radius:
            count += 1
    return count


def mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def irreducible_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree exactly n over GF(q)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return sum(mobius(d) * q ** (n // d) for d in divisors) // n


def golden_section_max(fn, lo, hi, tol="1e-13", dps=60):
    """Location of the maximum of a unimodal function on [lo, hi]."""
    with mp.workdps(dps):
        lo, hi = mpf(lo), mpf(hi)
        invphi = (mpf(5) ** 0.5 - 1) / 2
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = fn(c), fn(d)
        while b - a > mpf(tol):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fn(d)
        return (a + b) / 2


FRONTIER_COLUMNS = ("delta", "R_GV", "R_Goppa", "R_Xing_m", "R_Xing_inf", "R_new")


@functools.lru_cache(maxsize=None)
def _oracle_frontier_gains(q, m):
    """The finite-order, limit and projective-section gains at 60 digits,
    one log per series term; the limit stops when the geometric tail bound
    drops below 1e-45."""
    with mp.workdps(60):
        lq = mpmath.log(q)

        def term(i):
            return mpmath.log(1 + mpf(q - 1) / mpf(q) ** (2 * i)) / lq

        g_m = sum(term(i) for i in range(2, m + 2))
        g_inf, i = mpf(0), 2
        while True:
            g_inf += term(i)
            i += 1
            if (mpf(q - 1) / mpf(q) ** (2 * i)) / (1 - mpf(q) ** -2) / lq < mpf("1e-45"):
                break
        return g_m, g_inf, mpmath.log(1 + mpf(q) ** -3) / lq


def oracle_frontier_rows(q, grid, m=1):
    """The frontier rows as 60-digit mpfs, clipped at zero: per row the
    entropy from four logs, R_Goppa = 1 - 1/(sqrt(q) - 1) - delta and the
    gains added to it."""
    q0 = math.isqrt(q)
    gains = _oracle_frontier_gains(q, m)
    with mp.workdps(60):
        lq, lq1 = mpmath.log(q), mpmath.log(q - 1)
        base = mpf(q0 - 2) / (q0 - 1)
        rows = []
        for k in range(1, grid + 1):
            d = mpf(k) / (grid + 1)
            gv = mpf(0)
            if k * q < (q - 1) * (grid + 1):
                gv = 1 - (d * lq1 - d * mpmath.log(d) - (1 - d) * mpmath.log(1 - d)) / lq
            rates = [gv, base - d] + [base + g - d for g in gains]
            rows.append(dict(zip(FRONTIER_COLUMNS, [d] + [max(r, mpf(0)) for r in rates])))
        return rows


def oracle_frontier_csv(q, grid, m=1):
    """oracle_frontier_rows as CSV text, each mpf rounded to a double and
    printed to 12 significant digits."""
    lines = [",".join(FRONTIER_COLUMNS)]
    for row in oracle_frontier_rows(q, grid, m):
        lines.append(",".join(format(float(row[c]), ".12g") for c in FRONTIER_COLUMNS))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def oracle_enumerate_irreducibles(field, max_degree):
    """All monic irreducibles of degree <= max_degree by trial division:
    every monic candidate with a nonzero constant term, no root and no
    irreducible factor of degree 2 .. d/2, in key order."""
    q = field.q
    found = []
    by_degree = {}
    for d in range(1, max_degree + 1):
        level = []
        for tail in itertools.product(range(q), repeat=d):
            cand = Polynomial(field, tail + (1,))
            if d == 1:
                level.append(cand)
                continue
            if cand.coeffs[0] == 0:
                continue  # divisible by x
            if any(cand(a) == 0 for a in range(q)):
                continue  # has a linear factor
            composite = False
            for e in range(2, d // 2 + 1):
                for pi in by_degree.get(e, ()):
                    if (cand % pi).is_zero:
                        composite = True
                        break
                if composite:
                    break
            if not composite:
                level.append(cand)
        by_degree[d] = level
        found.extend(level)
    return tuple(found)


def oracle_factorize(poly):
    """Monic irreducible factors with multiplicities of a nonzero
    polynomial, by trial division with every irreducible up to its degree
    in key order (the leading unit is dropped)."""
    out = {}
    work = poly.monic()
    if work.degree == 0:
        return out
    for pi in oracle_enumerate_irreducibles(poly.field, work.degree):
        if work.degree == 0 or pi.degree > work.degree:
            break
        m = 0
        while True:
            qt, r = divmod(work, pi)
            if not r.is_zero:
                break
            work = qt
            m += 1
        if m:
            out[pi] = m
    if work.degree != 0:
        raise AssertionError("incomplete factorization")
    return out


def oracle_factor_multiplicity(poly, pi):
    """Multiplicity of the factor pi (deg pi >= 1) in the nonzero polynomial
    poly, by repeated division."""
    if poly.is_zero:
        raise PreconditionError("zero polynomial has no finite factor multiplicity")
    if pi.is_zero or pi.degree == 0:
        raise PreconditionError("factor must have positive degree")
    mult = 0
    while True:
        quot, rem = divmod(poly, pi)
        if not rem.is_zero:
            return mult
        mult += 1
        poly = quot


def oracle_rational_valuation(f, at):
    """Valuation of a nonzero rational function at a place of the projective
    line, a monic irreducible or INF: the factor multiplicities of numerator
    and denominator, or the degree difference at infinity. No
    extension-field arithmetic is needed at places of higher degree."""
    if f.is_zero:
        raise PreconditionError("the zero function has no valuation")
    if at is INF:
        return f.denom.degree - f.numer.degree
    return oracle_factor_multiplicity(f.numer, at) - oracle_factor_multiplicity(f.denom, at)


def oracle_evaluate(curve, f, point):
    """Value of a function at a rational point, an encoding or INF: on the
    projective line u(a) / v(a), or at infinity from the degrees and the
    leading coefficients; on the Hermitian curve the sum of its terms
    c a^i b^j, and at P_inf the constant, or INF for a non-constant
    function (every one has a pole there)."""
    F = curve.field
    if curve.kind == "hermitian":
        if point.is_infinity:
            return f.constant_code if f.is_constant else INF
        a, b = point.coords
        acc = 0
        for (i, j), c in f.terms:
            acc = F.add(acc, F.mul(c, F.mul(F.pow(a, i), F.pow(b, j))))
        return acc
    if point.is_infinity:
        if f.is_zero:
            return 0
        du, dv = f.numer.degree, f.denom.degree
        if du != dv:
            return INF if du > dv else 0
        return F.div(f.numer.lead, f.denom.lead)
    a = point.coords[0]
    vd = f.denom(a)
    return INF if vd == 0 else F.div(f.numer(a), vd)


def _oracle_shifted(poly, a):
    """Coefficients of poly(a + t) as a polynomial in t, by repeated
    synthetic division by x - a: remainder k is coefficient k."""
    F = poly.field
    cur = list(poly.coeffs)
    out = []
    while cur:
        acc, quot = 0, []
        for c in reversed(cur):
            acc = F.add(F.mul(acc, a), c)
            quot.append(acc)
        out.append(quot.pop())
        cur = quot[::-1]
    return out


def _oracle_series_div(F, num, den, k):
    """First k coefficients of the power series num/den; den[0] invertible."""
    inv0 = F.inv(den[0])
    out = []
    for n in range(k):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc = F.sub(acc, F.mul(den[i], out[n - i]))
        out.append(F.mul(acc, inv0))
    return out


def _oracle_series_mul(F, s1, s2, depth):
    out = [0] * (depth + 1)
    for n1, c1 in enumerate(s1):
        for n2, c2 in enumerate(s2):
            if c1 and c2 and n1 + n2 <= depth:
                out[n1 + n2] = F.add(out[n1 + n2], F.mul(c1, c2))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _oracle_monomial_series(curve, point, i, j, depth):
    """x^i y^j at an affine point of the Hermitian curve in t = x - a, to
    order depth, as a product of series: x = a + t, and y = b + u(t) with
    u^q0 + u = a^q0 t + a t^q0 + t^(q0+1) solved order by order."""
    F, q0 = curve.field, curve.q0
    a, b = point.coords
    rhs = {1: F.pow(a, q0), q0: a, q0 + 1: 1}
    u = [0] * (depth + 1)
    for r in range(1, depth + 1):
        u[r] = rhs.get(r, 0)
        if r % q0 == 0:
            u[r] = F.sub(u[r], F.pow(u[r // q0], q0))
    y = tuple([b] + u[1:])
    x = (a, 1)
    out = (1,) + (0,) * depth
    for factor, power in ((x, i), (y, j)):
        for _ in range(power):
            out = _oracle_series_mul(F, out, factor, depth)
    return out


def oracle_local_expansion(curve, f, point, r_max):
    """Expansion coefficients of a function regular at a rational point, to
    order r_max, one function and point at a time: on the projective line
    the series quotient of the shifted (at infinity the reversed) numerator
    and denominator, in t = x - a or t = 1/x; on the Hermitian curve, at an
    affine point in t = x - a, the sum of the terms' series products."""
    if r_max < 0:
        raise PreconditionError("r_max must be nonnegative")
    F = curve.field
    if curve.kind == "hermitian":
        if point.is_infinity:
            raise PreconditionError("expansion at P_inf is not supported")
        out = [0] * (r_max + 1)
        for (i, j), c in f.terms:
            s = _oracle_monomial_series(curve, point, i, j, r_max)
            out = [F.add(o, F.mul(c, sn)) for o, sn in zip(out, s)]
        return tuple(out)
    if f.is_zero:
        return (0,) * (r_max + 1)
    if point.is_infinity:
        du, dv = f.numer.degree, f.denom.degree
        if du > dv:
            raise PreconditionError("pole at infinity; expand the inverse")
        body = _oracle_series_div(F, f.numer.coeffs[::-1], f.denom.coeffs[::-1],
                                  r_max + 1 - (dv - du))
        return tuple([0] * (dv - du) + body)[: r_max + 1]
    a = point.coords[0]
    if f.denom(a) == 0:
        raise PreconditionError("pole at the place; expand the inverse")
    return tuple(_oracle_series_div(F, _oracle_shifted(f.numer, a), _oracle_shifted(f.denom, a),
                                    r_max + 1))


def function_from_index(field, basis, index):
    """The function at a span row index (little-endian digits) as a
    combination of the basis functions."""
    f = basis[0].scale(0)
    for b in basis:
        index, c = divmod(index, field.q)
        if c:
            f = f + b.scale(c)
    return f


def survivor_functions(curve, D, search):
    """The survivor functions of a search over L(D) themselves, for
    multiplicity audits, from the oracle basis."""
    basis = oracle_riemann_roch_basis(curve, D)
    return [function_from_index(curve.field, basis, int(i)) for i in search.survivor_indices]


def oracle_valuation(curve, f, place):
    """Valuation of a nonzero function at a place of either curve. On the
    projective line the rational valuation. On the Hermitian curve, at P_inf
    minus the pole order max(i*q0 + j*(q0+1)) over the terms x^i y^j, and at
    an affine point the index of the first nonzero coefficient of the
    expansion in t = x - a, which a nonzero function reaches within its pole
    order (it has as many zeros as poles)."""
    if curve.kind == "p1":
        return oracle_rational_valuation(f, INF if place.kind == "inf" else place.poly)
    if f.is_zero:
        raise PreconditionError("the zero function has no valuation")
    q0 = curve.q0
    pole_order = max(i * q0 + j * (q0 + 1) for (i, j), _ in f.terms)
    if place.kind == "inf":
        return -pole_order
    for n, c in enumerate(oracle_local_expansion(curve, f, place.point, pole_order)):
        if c:
            return n
    raise AssertionError("nonzero function with too many zeros at a point")


def oracle_divisor_of(curve, f):
    """The principal divisor (f) of a nonzero function on the projective
    line, from trial-division factorizations of numerator and denominator
    and the degree difference at infinity."""
    if f.is_zero:
        raise PreconditionError("the zero function has no divisor")
    coeffs = {}
    for poly, sign in ((f.numer, 1), (f.denom, -1)):
        for pi, m in oracle_factorize(poly).items():
            pl = curve.place_of_poly(pi)
            coeffs[pl] = coeffs.get(pl, 0) + sign * m
    coeffs[Place("inf")] = f.denom.degree - f.numer.degree
    return Divisor(curve, coeffs)


def census_rows(f, f2):
    """The library's census rows (place, m, mu, mu2, v_diff) of two sections,
    from the batched kernel on the one-pair table of f and f2. Not
    independent of the library: compare them with oracle_multiplicity_census."""
    return multiplicity_census(section_table(f.divisor, (f, f2)), [(0, 1)]).rows(0)


def census_total(curve, f, f2):
    """The degree-weighted total of the library's multiplicity census of two
    distinct sections, which the multiplicity law equates with the sum of
    their heights. Not independent of the library: compare it with
    oracle_total_multiplicity."""
    return sum(r["m"] * r["place"].degree for r in census_rows(f, f2))


def oracle_twist(curve, D, place, twists=None):
    """The twist at a place, a function of valuation D(place) there: the
    entry of a given place-to-function mapping (1 where it has none), or by
    default the canonical pi^c at a finite place with coefficient c, x^(-c)
    at infinity and 1 off supp(D)."""
    F = curve.field
    if twists is not None:
        phi = twists.get(place, RationalFunction.one(F))
    elif place.kind == "inf":
        phi = RationalFunction(Polynomial.one(F), Polynomial.x(F)) ** D.coeff(place)
    else:
        phi = RationalFunction.from_poly(place.poly) ** D.coeff(place)
    assert oracle_valuation(curve, phi, place) == D.coeff(place)
    return phi


def oracle_total_multiplicity(curve, sec_a, sec_b, max_degree):
    """Degree-weighted multiplicity total by scanning every place of degree
    at most max_degree plus infinity, with base-field valuations only."""
    total = 0
    places = [Place("inf")] + [
        curve.place_of_poly(pi)
        for pi in enumerate_irreducibles(curve.field, max_degree)
    ]
    for pl in places:
        desc = INF if pl.kind == "inf" else pl.poly
        phi = oracle_twist(curve, sec_a.divisor, pl)
        g, g2 = phi * sec_a.f, phi * sec_b.f
        v1 = oracle_rational_valuation(g, desc) if not g.is_zero else None
        v2 = oracle_rational_valuation(g2, desc) if not g2.is_zero else None
        inf1 = v1 is not None and v1 < 0
        inf2 = v2 is not None and v2 < 0
        if inf1 != inf2:
            continue
        diff = (g.inverse() - g2.inverse()) if inf1 else (g - g2)
        if diff.is_zero:
            raise AssertionError("oracle needs distinct sections")
        m = max(oracle_rational_valuation(diff, desc), 0)
        total += m * pl.degree
    return total


def _oracle_branch_multiplicity(g, g2, desc):
    """Agreement multiplicity of two twisted functions at the place desc:
    the valuation of their difference, or of the difference of their
    inverses when both are infinite there."""
    inf1 = not g.is_zero and oracle_rational_valuation(g, desc) < 0
    inf2 = not g2.is_zero and oracle_rational_valuation(g2, desc) < 0
    if inf1 != inf2:
        return 0
    diff = g.inverse() - g2.inverse() if inf1 else g - g2
    if diff.is_zero:
        raise PreconditionError("sections must be distinct")
    return max(oracle_rational_valuation(diff, desc), 0)


def oracle_multiplicity_census(curve, f, f2, twists=None):
    """Per-place rows (place, m, mu, mu2, v_diff) by symbolic arithmetic:
    at infinity, supp(D), the zeros of f - f2 and the poles of f and f2,
    each section is multiplied by the place's twist and the valuations are
    taken of the reduced products and their difference."""
    if f.f == f2.f:
        raise PreconditionError("sections must be distinct")
    places = {Place("inf"), *f.divisor.support}
    diff = f.f - f2.f
    for poly in (diff.numer, f.f.denom, f2.f.denom):
        if not poly.is_zero and poly.degree > 0:
            places.update(curve.place_of_poly(pi) for pi in oracle_factorize(poly))
    rows = []
    for pl in sorted(places, key=Place.sort_key):
        desc = INF if pl.kind == "inf" else pl.poly
        phi = oracle_twist(curve, f.divisor, pl, twists)
        g, g2 = phi * f.f, phi * f2.f
        mu = max(-oracle_rational_valuation(g, desc), 0) if not g.is_zero else 0
        mu2 = max(-oracle_rational_valuation(g2, desc), 0) if not g2.is_zero else 0
        rows.append({"place": pl, "m": _oracle_branch_multiplicity(g, g2, desc),
                     "mu": mu, "mu2": mu2, "v_diff": oracle_rational_valuation(g - g2, desc)})
    return rows


def oracle_root_multiplicity(u, pi):
    """Multiplicity of the class of x in the residue field k[x]/pi as a root
    of the nonzero polynomial u, by repeated synthetic division by X - xbar
    with residue-field elements kept as polynomials reduced mod pi."""
    F = u.field
    xbar = Polynomial.x(F) % pi
    coeffs = [Polynomial.constant(F, c) for c in u.coeffs]
    mult = 0
    while len(coeffs) > 1:
        acc, quot = Polynomial.zero(F), []
        for c in reversed(coeffs[1:]):
            acc = (c + xbar * acc) % pi
            quot.append(acc)
        quot.reverse()
        if not ((coeffs[0] + xbar * quot[0]) % pi).is_zero:
            return mult
        mult += 1
        coeffs = quot
    return mult


def oracle_residue_multiplicity(g, g2, pi):
    """Agreement multiplicity of two twisted functions at the place pi,
    computed at the geometric point xbar over k[x]/pi rather than from
    base-field valuations."""

    def val(f):
        return oracle_root_multiplicity(f.numer, pi) - oracle_root_multiplicity(f.denom, pi)

    inf1 = not g.is_zero and val(g) < 0
    inf2 = not g2.is_zero and val(g2) < 0
    if inf1 != inf2:
        return 0
    diff = (g.inverse() - g2.inverse()) if inf1 else (g - g2)
    return max(val(diff), 0)


def oracle_section_height(curve, D, f):
    """Exact height of a section: the degree of the positive part of
    (f) + D, from a full factorization of f (0 for the zero function)."""
    if f.is_zero:
        return 0
    E = oracle_divisor_of(curve, f) + D
    assert E.degree == 0
    return E.pos_part().degree


def oracle_global_twist(curve, D):
    """The principal realization of a degree-zero divisor: the product of
    pi^c over its finite places; the order at infinity then matches."""
    f = RationalFunction.one(curve.field)
    for pl, c in D.items():
        if pl.kind != "inf":
            f = f * RationalFunction.from_poly(pl.poly) ** c
    return f


def oracle_enumerate_sections(curve, D, h):
    """The zero function plus every section of height <= h: every pair u/v
    up to degree h + deg(D_+) with v monic, one gcd per pair, valuations at
    supp(D) by repeated division, sorted by (denominator, numerator) key."""
    F, q = curve.field, curve.field.q
    max_deg = h + D.pos_part().degree
    monics = [
        Polynomial(F, tail + (1,))
        for d in range(max_deg + 1)
        for tail in itertools.product(range(q), repeat=d)
    ]
    out = [RationalSection(RationalFunction.zero(F), D, 0)]
    for v in monics:
        for m in monics:
            if poly_gcd(m, v).degree != 0:
                continue
            height = max(m.degree, v.degree)
            for pl, c in D.items():
                if pl.kind == "inf":
                    val = v.degree - m.degree
                else:
                    val = (oracle_factor_multiplicity(m, pl.poly)
                           - oracle_factor_multiplicity(v, pl.poly))
                height += (max(val + c, 0) - max(val, 0)) * pl.degree
            if height <= h:
                for lead in range(1, q):
                    out.append(RationalSection(RationalFunction(m.scale(lead), v), D, height))
    out.sort(key=lambda s: (s.f.denom.key(), s.f.numer.key()))
    return tuple(out)


def oracle_phi0(curve, section, points):
    """Twisted evaluation word by symbolic arithmetic: the reduced product
    of twist and section, evaluated at each point (q for infinity)."""
    q = curve.field.q
    word = []
    for p in points:
        phi = oracle_twist(curve, section.divisor, curve.place_of_point(p))
        v = oracle_evaluate(curve, phi * section.f, p)
        word.append(q if v is INF else int(v))
    return tuple(word)


def oracle_phi_r(curve, section, points, r):
    """Order-r expansion word (r >= 1) by symbolic arithmetic: at each
    point the reduced product of twist and section, or its inverse where
    that is infinite, expanded one function and point at a time."""
    word = []
    for p in points:
        g = oracle_twist(curve, section.divisor, curve.place_of_point(p)) * section.f
        target = g.inverse() if oracle_evaluate(curve, g, p) is INF else g
        word.append(oracle_local_expansion(curve, target, p, r)[r])
    return tuple(word)


def oracle_phi_word(curve, f, points, r):
    """The order-r expansion word of a single function regular at every
    point: coordinate j is the t_j^r coefficient at point j."""
    return tuple(oracle_local_expansion(curve, f, p, r)[r] for p in points)


def oracle_code_words(alphabet_size, length, words):
    """Sorted distinct words as tuples, each checked for length and range."""
    ws = sorted(set(tuple(int(s) for s in w) for w in words))
    for w in ws:
        if len(w) != length:
            raise PreconditionError("word length mismatch")
        if any(not 0 <= s < alphabet_size for s in w):
            raise PreconditionError("symbol out of alphabet range")
    return ws


_ORACLE_TAGS = {"field": "field", "p1": "P1(k)"}


def oracle_code_to_text(code):
    """The code file, written one symbol at a time from tuple words."""
    lines = ["agcodes-code v1", f"alphabet: {_ORACLE_TAGS[code.alphabet.kind]}",
             f"q: {code.alphabet.q}"]
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
        lines.append(f"param {k}: {int(v) if isinstance(v, bool) else v}")
    words = [tuple(w) for w in code.words.tolist()]
    lines.append(f"words: {len(words)}")
    lines += [",".join(str(s) for s in w) for w in words]
    return "\n".join(lines) + "\n"


def oracle_code_from_text(text):
    """(alphabet kind, q, length, tuple words, (p, alpha) or None, metadata)
    of a well-formed code file, parsed line by line."""
    lines = text.splitlines()
    fields, meta = {}, {}
    i = 1
    while not lines[i].startswith("words: "):
        line = lines[i]
        if line.startswith("param "):
            k, v = line[len("param "):].split(": ", 1)
            meta[k] = v
        else:
            k, v = line.split(": ", 1)
            fields[k] = v
        i += 1
    count = int(lines[i].split(": ", 1)[1])
    words = [tuple(int(s) for s in lines[i + 1 + j].split(",")) if lines[i + 1 + j] else ()
             for j in range(count)]
    for key in ("claimed_distance", "measured_distance"):
        v = fields.get(key)
        meta[key] = None if v in (None, "none", "None") else int(v)
    kind = {v: k for k, v in _ORACLE_TAGS.items()}[fields["alphabet"]]
    q = int(fields["q"])
    length = int(fields["length"])
    fld = (int(fields["p"]), int(fields["alpha"])) if "p" in fields else None
    size = q if kind == "field" else q + 1
    return kind, q, length, oracle_code_words(size, length, words), fld, meta


def oracle_is_subspace(words, field):
    """Whether a word set is a subspace over the field, by set closure: it
    is nonempty and holds the sum of every pair of its words and every
    scalar multiple of every word."""
    members = set(tuple(w) for w in words)
    pairs = itertools.combinations_with_replacement(members, 2)
    return bool(members) and all(
        tuple(field.add(x, y) for x, y in zip(a, b)) in members for a, b in pairs
    ) and all(tuple(field.mul(c, x) for x in a) in members for a in members for c in range(field.q))


def oracle_eliminate_subspace(arr, field):
    """Whether the distinct rows of a uint8 array are exactly a subspace:
    there are q^k rows, row 0 is zero, and k pivot eliminations, each over
    every row, clear them all. Then every row lies in the span of the k
    pivot rows, which has at most q^k words, so the rows fill it."""
    q, m = field.q, arr.shape[0]
    k = round(math.log(max(m, 1), q))
    if q ** k != m or arr[0].any():
        return False
    add, mul = field.tables
    neg, inv = (add == 0).argmax(axis=1), (mul == 1).argmax(axis=1)
    rows = arr
    for _ in range(k):
        r, c = divmod(int((rows != 0).argmax()), rows.shape[1])
        # every multiple of the pivot row scaled to 1 at column c
        multiples = mul[:, mul[inv[rows[r, c]], rows[r]]]
        rows = add.ravel()[rows.astype(np.uint16) * q + multiples[neg[rows[:, c]]]]
    return not rows.any()
