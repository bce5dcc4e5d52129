import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes.curves import Point, build_curve
from agcodes.errors import PreconditionError
from agcodes.field import (
    Polynomial,
    enumerate_irreducibles,
    is_irreducible,
    linear_poly,
    make_field,
    make_field_q,
)
from conftest import (
    INF,
    RationalFunction,
    function_row,
    irreducible_count,
    oracle_enumerate_irreducibles,
    oracle_factor_multiplicity,
    oracle_factorize,
    oracle_rational_valuation,
    oracle_root_multiplicity,
    poly_gcd,
)

# every prime power q <= 49
SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49)


def test_gf4_construction():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1, the only monic irreducible quadratic
    assert F.mul(2, 2) == F.add(2, 1)  # w^2 = w + 1
    assert F.mul(2, 3) == 1  # w * (w + 1) = 1


def test_prime_field_construction():
    F = make_field(5, 1)
    assert F.modulus == (0, 1)
    assert F.add(3, 4) == 2


def test_gf16_frobenius():
    F = make_field(2, 4)
    assert all(F.pow(a, 16) == a for a in range(16))


def test_make_field_errors():
    with pytest.raises(PreconditionError):
        make_field(6, 1)
    with pytest.raises(PreconditionError):
        make_field(2, 0)
    with pytest.raises(PreconditionError):
        make_field(2, 21)
    with pytest.raises(PreconditionError):
        make_field_q(12)


@pytest.mark.parametrize("p,alpha", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (7, 2)])
def test_field_axioms_randomized(p, alpha):
    F = make_field(p, alpha)
    q = F.q
    rng = random.Random(1234 + q)
    for _ in range(1000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(q):
        assert F.pow(a, q) == a
    add, mul = F.tables
    assert add[a, b] == F.add(a, b) and mul[a, b] == F.mul(a, b)
    assert not add.flags.writeable and not mul.flags.writeable


@pytest.mark.parametrize("p,alpha", [(2, 2), (5, 1), (3, 2)])
def test_division_inverts_multiplication(p, alpha):
    F = make_field(p, alpha)
    for a in range(F.q):
        for b in range(1, F.q):
            assert F.mul(F.div(a, b), b) == a


def test_division_by_zero_and_mixed_fields():
    F = make_field(2, 2)
    G = make_field(2, 1)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    with pytest.raises(PreconditionError):
        Polynomial(F, (1,)) + Polynomial(G, (1,))


def test_gf4_inverse_example():
    F = make_field(2, 2)
    assert F.div(1, 2) == 3  # 1/w = w + 1


# The canonical moduli (least monic irreducible, constant term first) of
# every non-prime field of order at most 1024, and of GF(2^16), as computed
# by a Rabin irreducibility test over plain coefficient lists.
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (5, 2): (1, 1, 1),
    (3, 3): (1, 0, 2, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (7, 2): (1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (11, 2): (1, 0, 1),
    (5, 3): (1, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (13, 2): (1, 3, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (17, 2): (1, 1, 1),
    (7, 3): (1, 0, 1, 1),
    (19, 2): (1, 0, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (23, 2): (1, 0, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (29, 2): (1, 1, 1),
    (31, 2): (1, 0, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
}


@pytest.mark.parametrize("p,alpha", sorted(PINNED_MODULI))
def test_field_modulus_pinned(p, alpha):
    assert make_field(p, alpha).modulus == PINNED_MODULI[p, alpha]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_Q), st.data())
def test_field_axioms_on_encodings(q, data):
    F = make_field_q(q)
    a, b, c = (data.draw(st.integers(0, q - 1)) for _ in range(3))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0 and F.add(F.sub(a, b), b) == a
    if a:
        assert F.mul(a, F.inv(a)) == 1
    assert F.pow(a, q) == a
    add, mul = F.tables
    assert add[a, b] == F.add(a, b) and mul[a, b] == F.mul(a, b)
    assert not add.flags.writeable and not mul.flags.writeable


@pytest.mark.parametrize("p,alpha", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 7)])
def test_add_sub_neg_match_the_digitwise_definition(p, alpha):
    # GF(9), GF(25), GF(27) and GF(49) read their add table, on every pair;
    # GF(3^7) has no tables and adds digits, on a sample of pairs
    F = make_field(p, alpha)
    q = F.q
    elements = range(q) if q <= 49 else random.Random(q).sample(range(q), 40)

    def digits(a):
        return [a // p ** i % p for i in range(alpha)]

    def encode(ds):
        return sum(d % p * p ** i for i, d in enumerate(ds))

    for a in elements:
        assert type(F.neg(a)) is int and F.neg(a) == encode([-x for x in digits(a)])
        for b in elements:
            pairs = list(zip(digits(a), digits(b)))
            assert type(F.add(a, b)) is int and type(F.sub(a, b)) is int
            assert F.add(a, b) == encode([x + y for x, y in pairs])
            assert F.sub(a, b) == encode([x - y for x, y in pairs])


def _polys(q, max_len):
    return st.lists(st.integers(0, q - 1), max_size=max_len)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 4, 5, 9, 16)), st.data())
def test_polynomial_divmod_identity(q, data):
    F = make_field_q(q)
    a = Polynomial(F, data.draw(_polys(q, 8)))
    b = Polynomial(F, data.draw(_polys(q, 5).filter(lambda cs: any(cs))))
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert a // b == quot and a % b == rem
    assert rem.is_zero or rem.degree < b.degree


# ---------------------------------------------------------------------------
# reduce


def test_reduce_cancels_common_factor():
    F = make_field(2, 1)
    f = RationalFunction(Polynomial(F, (0, 1, 1)), Polynomial(F, (0, 1)))
    assert f.numer.coeffs == (1, 1) and f.denom.coeffs == (1,)


def test_reduce_keeps_reduced_input():
    F = make_field(2, 1)
    f = RationalFunction(Polynomial.one(F), Polynomial.x(F))
    assert f.numer.coeffs == (1,) and f.denom.coeffs == (0, 1)


def test_reduce_gf3_normalizes_monic_denominator():
    # x^3 / (2 x^2) = x * inv(2) = 2x over GF(3); checked by evaluation
    F = make_field(3, 1)
    u = Polynomial(F, (0, 0, 0, 1))
    v = Polynomial(F, (0, 0, 2))
    f = RationalFunction(u, v)
    assert f.denom.is_monic
    assert poly_gcd(f.numer, f.denom).degree == 0
    for a in range(1, 3):
        assert F.div(f.numer(a), f.denom(a)) == F.div(u(a), v(a))
    assert f.numer.coeffs == (0, 2) and f.denom.coeffs == (1,)


def test_reduce_idempotent_and_consistent_randomized():
    F = make_field(3, 1)
    rng = random.Random(7)
    for _ in range(200):
        u = Polynomial(F, [rng.randrange(3) for _ in range(rng.randrange(1, 6))])
        v = Polynomial(F, [rng.randrange(3) for _ in range(rng.randrange(1, 6))])
        if v.is_zero:
            continue
        f = RationalFunction(u, v)
        again = RationalFunction(f.numer, f.denom)
        assert again.numer == f.numer and again.denom == f.denom
        assert f.denom.is_monic
        assert f.is_zero or poly_gcd(f.numer, f.denom).degree == 0
        # cross-multiplication: u * f.denom == v * f.numer
        assert u * f.denom == v * f.numer


def test_reduce_zero_denominator_rejected():
    F = make_field(2, 1)
    with pytest.raises(PreconditionError):
        RationalFunction(Polynomial.one(F), Polynomial.zero(F))


# ---------------------------------------------------------------------------
# local expansions: the projective line's view of the Taylor kernel


def _expand(f, a, r_max):
    """The expansion of f to order r_max at the point a of the projective
    line, None for infinity."""
    point = Point(None if a is None else (a,))
    return build_curve("p1", f.field).local_expansion(function_row(f), point, r_max)


def test_expand_series_division_example():
    F = make_field(2, 1)
    f = RationalFunction(Polynomial.x(F), Polynomial(F, (1, 1)))
    assert _expand(f, 0, 2) == (0, 1, 1)


def test_expand_at_infinity_example():
    F = make_field(2, 1)
    f = RationalFunction(Polynomial.one(F), Polynomial.x(F))
    assert _expand(f, None, 1) == (0, 1)


def test_expand_constant():
    F = make_field(5, 1)
    f = RationalFunction.constant(F, 3)
    assert _expand(f, 2, 4) == (3, 0, 0, 0, 0)
    assert _expand(f, None, 3) == (3, 0, 0, 0)


def test_expand_pole_rejected():
    F = make_field(2, 1)
    f = RationalFunction(Polynomial.one(F), Polynomial.x(F))
    with pytest.raises(PreconditionError):
        _expand(f, 0, 2)
    g = RationalFunction.x(F)
    with pytest.raises(PreconditionError):
        _expand(g, None, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_expand_round_trip_valuation(q):
    # f - sum of the first r_max+1 expansion terms has valuation > r_max
    F = make_field_q(q)
    rng = random.Random(40 + q)
    x = RationalFunction.x(F)
    for _ in range(60):
        u = Polynomial(F, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
        v = Polynomial(F, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
        if u.is_zero or v.is_zero:
            continue
        f = RationalFunction(u, v)
        a = rng.randrange(q)
        if f.denom(a) == 0:
            continue
        r_max = rng.randrange(7)
        coeffs = _expand(f, a, r_max)
        t = RationalFunction.from_poly(linear_poly(F, a))
        approx = RationalFunction.zero(F)
        for r, c in enumerate(coeffs):
            approx = approx + (t ** r).scale(c)
        tail = f - approx
        if not tail.is_zero:
            assert oracle_rational_valuation(tail, linear_poly(F, a)) > r_max


def test_valuations_by_factor_multiplicity():
    F = make_field(3, 1)
    x = Polynomial.x(F)
    f = RationalFunction(x ** 2 * Polynomial(F, (1, 1)), Polynomial(F, (2, 1)) ** 3)
    assert oracle_rational_valuation(f, linear_poly(F, 0)) == 2
    assert oracle_rational_valuation(f, linear_poly(F, 1)) == -3  # x + 2 = x - 1
    assert oracle_rational_valuation(f, linear_poly(F, 2)) == 1  # 1 + x vanishes at x = 2
    assert oracle_rational_valuation(f, INF) == 3 - 3 - 1 + 1  # deg v - deg u


# ---------------------------------------------------------------------------
# polynomial degree conventions


def test_zero_polynomial_degree_marker():
    F = make_field(2, 1)
    z = Polynomial.zero(F)
    assert z.degree is None
    with pytest.raises(PreconditionError):
        _ = z.lead


def _rational_degree(f):
    return max(f.numer.degree, f.denom.degree)


def test_rational_degree_properties_randomized():
    F = make_field(2, 2)
    rng = random.Random(99)
    for _ in range(200):
        u = Polynomial(F, [rng.randrange(4) for _ in range(rng.randrange(1, 5))])
        v = Polynomial(F, [rng.randrange(4) for _ in range(rng.randrange(1, 5))])
        u2 = Polynomial(F, [rng.randrange(4) for _ in range(rng.randrange(1, 5))])
        v2 = Polynomial(F, [rng.randrange(4) for _ in range(rng.randrange(1, 5))])
        if v.is_zero or v2.is_zero or u.is_zero or u2.is_zero:
            continue
        f, g = RationalFunction(u, v), RationalFunction(u2, v2)
        prod = f * g
        if not prod.is_zero:
            assert _rational_degree(prod) <= _rational_degree(f) + _rational_degree(g)
        pf, pg = RationalFunction.from_poly(u), RationalFunction.from_poly(u2)
        assert _rational_degree(pf * pg) == _rational_degree(pf) + _rational_degree(pg)


# ---------------------------------------------------------------------------
# irreducibles


def test_irreducibles_gf2_classical_list():
    F = make_field(2, 1)
    got = [p.coeffs for p in enumerate_irreducibles(F, 2)]
    assert got == [(0, 1), (1, 1), (1, 1, 1)]


def test_irreducibles_gf3_degree_one():
    F = make_field(3, 1)
    got = [p.coeffs for p in enumerate_irreducibles(F, 1)]
    assert got == [(0, 1), (1, 1), (2, 1)]


# The trial-division oracle takes about 200 s on the whole grid (2 vCPUs), so
# it is compared up to q^n <= ORACLE_GRID; the divisor-sum count covers all.
ORACLE_GRID = 10 ** 4
IRREDUCIBLE_GRID = [(q, n) for q in SMALL_Q for n in range(1, 17) if q ** n <= 10 ** 5]


@pytest.mark.parametrize("q,n", IRREDUCIBLE_GRID)
def test_irreducible_counts_match_divisor_sum(q, n):
    F = make_field_q(q)
    got = enumerate_irreducibles(F, n)
    assert sum(1 for p in got if p.degree == n) == irreducible_count(q, n)
    if q ** n <= ORACLE_GRID:
        top = max(d for d in range(n, 17) if q ** d <= ORACLE_GRID)
        assert got == tuple(p for p in oracle_enumerate_irreducibles(F, top) if p.degree <= n)


def test_irreducibles_are_sorted_and_irreducible():
    F = make_field(2, 1)
    polys = enumerate_irreducibles(F, 5)
    keys = [p.key() for p in polys]
    assert keys == sorted(keys)
    for p in polys:
        for d in polys:
            if d.degree < p.degree:
                assert not (p % d).is_zero


FACTOR_Q = (2, 3, 4, 5, 7, 8, 9, 25)


def _factor_degree(q):
    """Largest degree the irreducibility property draws over GF(q)."""
    return max(d for d in range(1, 12) if q ** d <= 2000)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FACTOR_Q), st.data())
def test_is_irreducible_matches_trial_division(q, data):
    # irreducible exactly when the oracle finds one factor, of multiplicity
    # 1; drawn as a random polynomial or as a unit times 1-3 irreducibles
    F = make_field_q(q)
    top = _factor_degree(q)
    if data.draw(st.booleans()):
        poly = Polynomial(F, data.draw(_polys(q, top + 1).filter(lambda cs: any(cs[1:]))))
    else:
        poly = Polynomial.constant(F, data.draw(st.integers(1, q - 1)))
        irreducibles = oracle_enumerate_irreducibles(F, top)
        for pi in data.draw(st.lists(st.sampled_from(irreducibles), min_size=1, max_size=3)):
            if poly.degree + pi.degree <= top:
                poly = poly * pi
    assert is_irreducible(poly) == (list(oracle_factorize(poly).values()) == [1])


# ---------------------------------------------------------------------------
# root multiplicity over the residue field


@pytest.mark.parametrize("q,pideg", [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3)])
def test_residue_field_root_multiplicity_matches_factor_multiplicity(q, pideg):
    # pi is separable, so the multiplicity of the root x mod pi over k[x]/pi
    # is the factor multiplicity of pi: the fact behind every agreement
    # multiplicity at a place of degree > 1
    F = make_field_q(q)
    pis = [p for p in enumerate_irreducibles(F, pideg) if p.degree == pideg]
    pi = pis[0]
    rng = random.Random(17 * q + pideg)
    for _ in range(40):
        u = Polynomial(F, [rng.randrange(q) for _ in range(rng.randrange(1, 8))])
        if u.is_zero:
            continue
        u = u * pi ** rng.randrange(3)
        assert oracle_root_multiplicity(u, pi) == oracle_factor_multiplicity(u, pi)


# ---------------------------------------------------------------------------
# serialization


def test_polynomial_serialization_roundtrip():
    F = make_field(2, 2)
    p = Polynomial(F, (3, 0, 2, 1))
    assert Polynomial.parse(F, p.serialize()) == p
    assert Polynomial.parse(F, "") == Polynomial.zero(F)


def test_rational_serialization_roundtrip():
    F = make_field(3, 1)
    f = RationalFunction(Polynomial(F, (1, 2)), Polynomial(F, (0, 1, 1)))
    u, v = f.serialize().split("/")
    assert RationalFunction(Polynomial.parse(F, u), Polynomial.parse(F, v)) == f
