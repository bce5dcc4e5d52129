"""Exact arithmetic in small finite fields GF(p^alpha) and univariate
polynomials, which name places, parse divisors and build Riemann-Roch bases.
Rational functions, their valuations, evaluation and local power-series
expansions live in the test oracles (tests/conftest.py); the library keeps
functions as coefficient arrays and expands them on the field tables
(kernels.taylor).

Canonical conventions used by every downstream module and serialized file:

* An element with polynomial-basis coefficients (c_0, ..., c_{alpha-1}) over
  GF(p) is encoded as the integer sum(c_i * p**i). Elements enumerate in
  ascending encoding order, so 0 is the zero element and 1 the one element.
* The field modulus is the least monic irreducible polynomial of degree
  alpha over GF(p), comparing coefficient tuples constant term first. This
  rule is deterministic and needs no external tables; serialized elements
  are portable between runs.
* Polynomials serialize as comma-separated encoded coefficients, constant
  term first. The zero polynomial serializes as the empty string and its
  degree is None (never -1), so accidental arithmetic on it fails loudly.

A field builds its lookup data on first use: scalar digit and log/exp tables,
read-only numpy (add, mul) tables when q^2 <= FIELD_SIZE_CAP (whose add table,
as tuples, also serves scalar add, sub and neg in odd-characteristic extension
fields), and a sieve of least factors over monic polynomials, which lists
the irreducibles that trial division tests places with and gives the census
its factorizations. A cache is only replaced whole and values are immutable,
so all of it is thread-safe.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import PreconditionError

FIELD_SIZE_CAP = 1 << 20
_LOG_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == (n,)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# Field of q = p^alpha elements, operating on canonical integer encodings.

class FieldSpec:
    """Finite field GF(p^alpha) with arithmetic on encoded elements.

    Every method (add, mul, ...) takes and returns integer encodings.
    """

    __slots__ = ("p", "degree", "modulus", "q", "_digits", "_xpow", "_exp", "_log", "_tables",
                 "_sums", "_sieve")

    def __init__(self, p: int, degree: int, modulus: tuple[int, ...]):
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self.q = p ** degree
        self._digits = None
        self._exp = None
        self._log = None
        self._tables = None
        self._sums = None
        self._sieve = None
        # reductions of x^k mod modulus for k = degree .. 2*degree-2
        red = []
        cur = [(-modulus[i]) % p for i in range(degree)]  # x^degree
        red.append(tuple(cur))
        for _ in range(degree - 2):
            nxt = [0] * degree
            top = cur[degree - 1]
            for i in range(degree - 1):
                nxt[i + 1] = cur[i]
            if top:
                for i in range(degree):
                    nxt[i] = (nxt[i] + top * red[0][i]) % p
            red.append(tuple(nxt))
            cur = nxt
        self._xpow = tuple(red)

    # -- encoding ----------------------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        if self._digits is None and self.q <= _LOG_TABLE_LIMIT:
            self._digits = tuple(self._decode_slow(c) for c in range(self.q))
        if self._digits is not None:
            return self._digits[code]
        return self._decode_slow(code)

    def _decode_slow(self, code: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.degree):
            code, r = divmod(code, p)
            out.append(r)
        return tuple(out)

    def encode(self, digits) -> int:
        p = self.p
        code = 0
        for c in reversed(tuple(digits)):
            code = code * p + (c % p)
        return code

    # -- arithmetic on encodings -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        sums = self._sums or self._sum_rows()
        if sums:
            return sums[0][a][b]
        da, db = self.decode(a), self.decode(b)
        p = self.p
        return self.encode([(x + y) % p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        sums = self._sums or self._sum_rows()
        if sums:
            return sums[0][a][sums[1][b]]
        da, db = self.decode(a), self.decode(b)
        p = self.p
        return self.encode([(x - y) % p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        sums = self._sums or self._sum_rows()
        if sums:
            return sums[1][a]
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def _mul_slow(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, d = self.p, self.degree
        da, db = self.decode(a), self.decode(b)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = list(conv[:d])
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = self._xpow[k - d]
                for i in range(d):
                    out[i] = (out[i] + c * row[i]) % p
        return self.encode(out)

    def _build_log(self):
        q = self.q
        facs = prime_factors(q - 1) if q > 2 else ()
        gen = next((c for c in range(2, q)  # the least primitive element; 1 when q == 2
                    if all(self._pow_slow(c, (q - 1) // r) != 1 for r in facs)), 1)
        exp = [1] * (q - 1)
        cur = 1
        for k in range(1, q - 1):
            cur = self._mul_slow(cur, gen)
            exp[k] = cur
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        self._exp = exp
        self._log = log

    def _pow_slow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_slow(result, base)
            base = self._mul_slow(base, base)
            e >>= 1
        return result

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.degree == 1:
            return (a * b) % self.p
        if self._exp is None:
            if self.q <= _LOG_TABLE_LIMIT:
                self._build_log()
            else:
                return self._mul_slow(a, b)
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.degree == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is None and self.q <= _LOG_TABLE_LIMIT:
            self._build_log()
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self._pow_slow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self.degree == 1:
            return pow(a, e, self.p)
        if self._exp is None and self.q <= _LOG_TABLE_LIMIT:
            self._build_log()
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        return self._pow_slow(a, e)

    @property
    def tables(self):
        """Read-only (ADD, MUL) numpy lookup tables on encodings, uint8 up to
        q = 256; built once, vectorised from the digits and the log/exp
        tables, for every q with q^2 <= FIELD_SIZE_CAP."""
        if self._tables is None:
            q, p = self.q, self.p
            if q * q > FIELD_SIZE_CAP:
                raise PreconditionError(f"GF({q}) is too large for lookup tables")
            if self._exp is None:
                self._build_log()
            digits = np.arange(q)[:, None] // p ** np.arange(self.degree) % p
            add = sum((digits[:, None, i] + digits[:, i]) % p * p ** i for i in range(self.degree))
            log = np.array(self._log)
            mul = np.array(self._exp)[(log[:, None] + log) % (q - 1)]
            mul[0] = mul[:, 0] = 0
            add, mul = (t.astype(np.min_scalar_type(q - 1)) for t in (add, mul))
            add.flags.writeable = mul.flags.writeable = False
            self._tables = add, mul
        return self._tables

    def _sum_rows(self):
        """(rows of the add table, the additive inverse of every encoding) as
        lists, read from the field's add table, for scalar add, sub and neg;
        () for a field too large for lookup tables."""
        if self._sums is None:
            if self.q * self.q > FIELD_SIZE_CAP:
                self._sums = ()
            else:
                add = self.tables[0]
                self._sums = (tuple(map(tuple, add.tolist())),
                              tuple((add == 0).argmax(axis=1).tolist()))
        return self._sums

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, alpha: int) -> FieldSpec:
    """The field GF(p^alpha) with the canonical modulus.

    Cached, so repeated calls return the same object and identity checks
    between the fields of polynomials are meaningful.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if not isinstance(alpha, int) or alpha <= 0:
        raise PreconditionError(f"alpha = {alpha} must be a positive integer")
    if p ** alpha > FIELD_SIZE_CAP:
        raise PreconditionError(f"p^alpha = {p ** alpha} exceeds the size cap {FIELD_SIZE_CAP}")
    return FieldSpec(p, alpha, _least_irreducible(p, alpha))


def make_field_q(q: int) -> FieldSpec:
    """The field of order q, for q a prime power."""
    facs = prime_factors(q)
    if len(facs) != 1:
        raise PreconditionError(f"{q} is not a prime power")
    p = facs[0]
    alpha = 0
    n = q
    while n > 1:
        n //= p
        alpha += 1
    return make_field(p, alpha)


# ---------------------------------------------------------------------------
# Polynomials over a FieldSpec. Coefficients are encoded ints, constant term
# first, with no trailing zeros.

class Polynomial:
    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: FieldSpec, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.q:
                raise PreconditionError("polynomial coefficient out of range")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, code):
        return cls(field, (code,))

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree as an int; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def key(self):
        """Canonical sort key: degree first, then coefficients constant
        term first."""
        return (len(self.coeffs), self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise PreconditionError("expected a Polynomial")
        if other.field is not self.field:
            raise PreconditionError("mixed fields in polynomial arithmetic")

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Polynomial(F, out)

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        F = self.field
        return Polynomial(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero or other.is_zero:
            return Polynomial.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        out[i + j] = F.add(out[i + j], F.mul(x, y))
        return Polynomial(F, out)

    def scale(self, code: int):
        F = self.field
        if code == 0:
            return Polynomial.zero(F)
        return Polynomial(F, [F.mul(c, code) for c in self.coeffs])

    def __pow__(self, e: int):
        if e < 0:
            raise PreconditionError("negative polynomial power")
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(F), self
        quot = [0] * (dq + 1)
        inv_lead = F.inv(other.lead)
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if top:
                factor = F.mul(top, inv_lead)
                quot[k] = factor
                for i, c in enumerate(other.coeffs):
                    if c:
                        rem[k + i] = F.sub(rem[k + i], F.mul(factor, c))
        return Polynomial(F, quot), Polynomial(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            raise PreconditionError("cannot normalize the zero polynomial")
        if self.lead == 1:
            return self
        return self.scale(self.field.inv(self.lead))

    def __call__(self, a: int) -> int:
        """Evaluate at the encoded element a (Horner)."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    # -- misc --------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.field), self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def serialize(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def parse(cls, field, text: str):
        text = text.strip()
        if not text:
            return cls.zero(field)
        return cls(field, [int(t) for t in text.split(",")])

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def linear_poly(field: FieldSpec, a: int) -> Polynomial:
    """The monic linear polynomial x - a."""
    return Polynomial(field, (field.neg(a), 1))


# ---------------------------------------------------------------------------
# One least-factor sieve per field: its irreducibles, and irreducibility by
# trial division with them.

def _monic_index(poly: Polynomial) -> int:
    """The sieve index of the monic associate of a nonzero polynomial."""
    q, d = poly.field.q, poly.degree
    return (q ** d - 1) // (q - 1) + sum(
        c * q ** (d - 1 - k) for k, c in enumerate(poly.monic().coeffs[:-1]))


def _factor_sieve(field: FieldSpec, degree: int):
    """(least, cofactor, rows) over every monic of degree <= degree: index
    arrays of its least irreducible factor in key order and of the quotient
    by it (an irreducible is its own least factor, with cofactor 1 at index
    0), and its coefficient rows, constant term first, padded to degree + 1.

    The monics of degree d take the indices from (q^d - 1) / (q - 1) on, in
    the order of their coefficients read as base-q digits with the constant
    term most significant, so indices ascend in Polynomial.key order. Each
    irreducible pi, in index order, marks pi * m for every monic m with
    deg pi <= deg m <= degree - deg pi; the first mark is the least factor.
    Cached on the field and rebuilt only for a larger degree."""
    sieve = field._sieve
    if sieve is None or sieve[0] < degree:
        q = field.q
        if q ** degree > FIELD_SIZE_CAP:
            raise PreconditionError("irreducible enumeration too large")
        start = [(q ** d - 1) // (q - 1) for d in range(degree + 2)]
        least = np.full(start[-1], -1, dtype=np.int32)
        cofactor = np.zeros(start[-1], dtype=np.int32)
        rows = np.zeros((start[-1], degree + 1), dtype=np.min_scalar_type(q - 1))
        monics = [rows[start[d] : start[d + 1], : d + 1] for d in range(degree + 1)]
        monics[0][:] = 1
        for d in range(1, degree + 1):  # the constant term is the most significant digit
            monics[d][:, 0] = np.arange(q).repeat(q ** (d - 1))
            monics[d][:, 1:] = np.tile(monics[d - 1], (q, 1))
        for e in range(1, degree // 2 + 1):
            add, mul = field.tables  # q^2 <= q^degree <= FIELD_SIZE_CAP
            for i in np.flatnonzero(least[start[e] : start[e + 1]] < 0):
                for d in range(e, degree - e + 1):
                    prod = np.zeros((q ** d, d + e + 1), dtype=add.dtype)
                    for k, c in enumerate(monics[e][i]):
                        prod[:, k : k + d + 1] = add[prod[:, k : k + d + 1], mul[c, monics[d]]]
                    index = start[d + e] + sum(prod[:, k].astype(np.int32) * q ** (d + e - 1 - k)
                                               for k in range(d + e))
                    new = least[index] < 0
                    least[index[new]] = start[e] + i
                    cofactor[index[new]] = start[d] + np.flatnonzero(new)
        unmarked = np.flatnonzero(least < 0)  # the irreducibles, and 1 at index 0
        least[unmarked] = unmarked
        least.flags.writeable = cofactor.flags.writeable = rows.flags.writeable = False
        sieve = field._sieve = (degree, least, cofactor, rows)
    return sieve[1:]


@lru_cache(maxsize=None)
def enumerate_irreducibles(field: FieldSpec, max_degree: int) -> tuple[Polynomial, ...]:
    """All monic irreducibles of degree <= max_degree, sorted by degree then
    by coefficient tuple, constant term first."""
    if max_degree < 1:
        raise PreconditionError("max_degree must be at least 1")
    least, _, rows = _factor_sieve(field, max_degree)
    index = np.arange(1, (field.q ** (max_degree + 1) - 1) // (field.q - 1))
    return tuple(Polynomial(field, row) for row in rows[index[least[index] == index]].tolist())


def is_irreducible(poly: Polynomial) -> bool:
    """Whether a polynomial of degree d >= 2 has no monic irreducible factor
    of degree <= d // 2, by trial division in key order (Knuth, TAOCP vol. 2,
    4.6.2); True below degree 2. Only the sieve up to degree d // 2 is built."""
    if poly.degree < 2:
        return True
    divisors = enumerate_irreducibles(poly.field, poly.degree // 2)
    return all(not (poly % pi).is_zero for pi in divisors)


def _least_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Least monic irreducible of the given degree over GF(p), coefficient
    tuples compared constant term first. Candidates with constant term 0 are
    divisible by x and never generated."""
    if degree == 1:
        return (0, 1)
    base = make_field(p, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (degree - 1)):
        cand = Polynomial(base, tail + (1,))
        if is_irreducible(cand):
            return cand.coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable
