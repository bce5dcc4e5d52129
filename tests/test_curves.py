import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agcodes.field
from agcodes import kernels
from agcodes.cli import main
from agcodes.curves import Point, build_curve, default_eval_points
from agcodes.errors import PreconditionError
from agcodes.field import Polynomial, enumerate_irreducibles, make_field, make_field_q
from agcodes.xing import phi_basis_rows
from conftest import (
    INF,
    RationalFunction,
    basis_functions,
    function_from_index,
    function_row,
    monomial,
    oracle_divisor_of,
    oracle_evaluate,
    oracle_factorize,
    oracle_local_expansion,
    oracle_rational_valuation,
    oracle_riemann_roch_basis,
    oracle_valuation,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_projective_line_point_count(q):
    curve = build_curve("p1", make_field_q(q))
    assert curve.n_points == q + 1
    assert curve.points[-1].is_infinity
    assert [p.coords[0] for p in curve.points[:-1]] == list(range(q))


def test_projective_line_gf4_points_example():
    curve = build_curve("p1", make_field(2, 2))
    assert [p.serialize() for p in curve.points] == ["0", "1", "2", "3", "inf"]


@pytest.mark.parametrize("q0,expected_n,expected_g", [(2, 9, 1), (3, 28, 3)])
def test_hermitian_point_counts(q0, expected_n, expected_g):
    field = make_field_q(q0 * q0)
    curve = build_curve("hermitian", field)
    assert curve.n_points == expected_n
    assert curve.genus == expected_g
    # every affine point satisfies the defining equation
    for pt in curve.points[:-1]:
        a, b = pt.coords
        assert field.add(field.pow(b, q0), b) == field.pow(a, q0 + 1)
    assert len(set(curve.points)) == curve.n_points


def test_hermitian_needs_square_field():
    with pytest.raises(PreconditionError):
        build_curve("hermitian", make_field(2, 3))


def test_unknown_curve_kind():
    with pytest.raises(PreconditionError):
        build_curve("elliptic", make_field(2, 2))


# ---------------------------------------------------------------------------
# Riemann-Roch on the projective line


def test_rr_p1_polynomials():
    F = make_field(5, 1)
    curve = build_curve("p1", F)
    D = curve.divisor({curve.place_inf(): 2})
    basis = curve.riemann_roch_basis(D)
    assert basis.tolist() == [[[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 0, 0]], [[0, 0, 1], [1, 0, 0]]]
    assert [f.serialize() for f in basis_functions(curve, basis)] == ["1/1", "0,1/1", "0,0,1/1"]


def test_rr_p1_higher_degree_place():
    F = make_field(2, 1)
    curve = build_curve("p1", F)
    pi = Polynomial(F, (1, 1, 1))
    D = curve.divisor({curve.place_of_poly(pi): 1})
    basis = curve.riemann_roch_basis(D)
    assert len(basis) == 3
    for f in basis_functions(curve, basis):
        assert oracle_rational_valuation(f, pi) >= -1


def test_rr_p1_negative_degree_empty():
    F = make_field(2, 1)
    curve = build_curve("p1", F)
    D = curve.divisor({curve.place_inf(): -1})
    assert len(curve.riemann_roch_basis(D)) == 0


def _random_divisor(curve, rng, deg_lo, deg_hi):
    F = curve.field
    places = [curve.place_inf()] + [
        curve.place_of_poly(pi) for pi in enumerate_irreducibles(F, 3)
    ]
    while True:
        support = rng.sample(places, rng.randrange(1, 4))
        coeffs = {pl: rng.randrange(-3, 4) for pl in support}
        D = curve.divisor(coeffs)
        if deg_lo <= D.degree <= deg_hi:
            return D


def test_rr_p1_dimension_formula_randomized():
    curve = build_curve("p1", make_field(2, 1))
    rng = random.Random(11)
    for _ in range(50):
        D = _random_divisor(curve, rng, -3, 10)
        basis = curve.riemann_roch_basis(D)
        assert len(basis) == max(0, D.degree + 1)


def test_rr_p1_basis_divisor_bound():
    # every basis element f satisfies (f) + D >= 0: poles can only sit inside
    # supp(D), and there the order is bounded by the divisor coefficient
    curve = build_curve("p1", make_field(3, 1))
    F = curve.field
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        places = [curve.place_inf()] + [
            curve.place_of_poly(pi) for pi in enumerate_irreducibles(F, 2)
        ]
        support = rng.sample(places, rng.randrange(1, 4))
        D = curve.divisor({pl: rng.randrange(-2, 3) for pl in support})
        if not 0 <= D.degree <= 6:
            continue
        checked += 1
        supp = set(D.support)
        for f in basis_functions(curve, curve.riemann_roch_basis(D)):
            for pi in oracle_factorize(f.denom):
                assert curve.place_of_poly(pi) in supp
            for pl in supp | {curve.place_inf()}:
                assert oracle_valuation(curve, f, pl) + D.coeff(pl) >= 0


# ---------------------------------------------------------------------------
# Riemann-Roch on the Hermitian curve


@pytest.mark.parametrize("q0", [2, 3])
def test_rr_hermitian_dimensions_exhaustive(q0):
    curve = build_curve("hermitian", make_field_q(q0 * q0))
    g = curve.genus
    for m in range(0, 21):
        basis = curve.riemann_roch_basis(curve.one_point_divisor(m))
        expected = len(
            [
                (i, j)
                for j in range(q0)
                for i in range(m + 1)
                if i * q0 + j * (q0 + 1) <= m
            ]
        )
        assert len(basis) == expected
        assert len(basis) >= m - g + 1
        if m > 2 * g - 2:
            assert len(basis) == m - g + 1


def test_rr_hermitian_q0_2_m3_example():
    curve = build_curve("hermitian", make_field(2, 2))
    basis = curve.riemann_roch_basis(curve.one_point_divisor(3))
    assert basis.tolist() == [[0, 0], [1, 0], [0, 1]]


def test_rr_hermitian_basis_pole_orders():
    curve = build_curve("hermitian", make_field(2, 2))
    q0 = curve.q0
    for f in basis_functions(curve, curve.riemann_roch_basis(curve.one_point_divisor(11))):
        (i, j), _ = f.terms[0]
        assert oracle_valuation(curve, f, curve.place_inf()) == -(i * q0 + j * (q0 + 1))
        for pt in curve.points[:-1]:
            assert oracle_valuation(curve, f, curve.place_of_point(pt)) >= 0


def test_rr_hermitian_rejects_general_divisors():
    curve = build_curve("hermitian", make_field(2, 2))
    bad = curve.one_point_divisor(-1)
    with pytest.raises(PreconditionError):
        curve.riemann_roch_basis(bad)
    affine = curve.place_of_point(curve.points[0])
    from agcodes.curves import Divisor

    with pytest.raises(PreconditionError):
        curve.riemann_roch_basis(Divisor(curve, {affine: 2}))


# ---------------------------------------------------------------------------
# evaluation and expansion


def test_evaluate_examples():
    # the oracle's values, and the order-0 coefficients of the expansion
    # kernel where the function is regular
    F2 = make_field(2, 1)
    p1 = build_curve("p1", F2)
    inv_x = RationalFunction(Polynomial.one(F2), Polynomial.x(F2))
    assert oracle_evaluate(p1, inv_x, p1.points[0]) is INF
    assert p1.local_expansion(function_row(inv_x), p1.points[1], 0) == (1,)

    F5 = make_field(5, 1)
    p15 = build_curve("p1", F5)
    xsq = RationalFunction(Polynomial(F5, (0, 0, 1)), Polynomial.one(F5))
    assert oracle_evaluate(p15, xsq, p15.points[3]) == 4
    assert p15.local_expansion(function_row(xsq), p15.points[3], 0) == (4,)

    herm = build_curve("hermitian", make_field(2, 2))
    assert oracle_evaluate(herm, monomial(herm, 0, 1), herm.points[-1]) is INF
    assert oracle_evaluate(herm, monomial(herm, 0, 1), Point((0, 0))) == 0
    assert herm.local_expansion((0, 1), Point((0, 0)), 0) == (0,)
    # at P_inf, order 0 only: the constant reads its value, x and y are poles
    basis = herm.riemann_roch_basis(herm.one_point_divisor(3))
    rows, pole = herm.expansions(basis, [herm.points[-1]], 0)
    values = [oracle_evaluate(herm, f, herm.points[-1]) for f in basis_functions(herm, basis)]
    assert pole[0].tolist() == [v is INF for v in values] == [False, True, True]
    assert rows[0, 0].tolist() == [0 if v is INF else v for v in values]


@pytest.mark.parametrize("q0", [2, 3])
def test_hermitian_branch_series_satisfies_curve_equation(q0):
    # y(t)^q0 + y(t) == (a + t)^(q0+1) through the truncation order, for the
    # kernel's series of y and for the oracle's
    field = make_field_q(q0 * q0)
    curve = build_curve("hermitian", field)
    depth = 9
    for pt in curve.points[:-1]:
        a, _ = pt.coords
        ys = curve.local_expansion((0, 1), pt, depth)
        assert ys == oracle_local_expansion(curve, monomial(curve, 0, 1), pt, depth)
        # left side: Frobenius acts coefficientwise with index dilation
        lhs = [0] * (depth + 1)
        for r, c in enumerate(ys):
            if r * q0 <= depth and c:
                lhs[r * q0] = field.add(lhs[r * q0], field.pow(c, q0))
            if r <= depth:
                lhs[r] = field.add(lhs[r], c)
        rhs = [0] * (depth + 1)
        # (a + t)^(q0+1) = (a^q0 + t^q0)(a + t)
        rhs[0] = field.pow(a, q0 + 1)
        rhs[1] = field.pow(a, q0)
        if q0 <= depth:
            rhs[q0] = field.add(rhs[q0], a)
        if q0 + 1 <= depth:
            rhs[q0 + 1] = field.add(rhs[q0 + 1], 1)
        assert lhs == rhs


def test_hermitian_expansion_order_zero_matches_evaluation():
    # sums of basis monomials, read from the basis rows as builds read them
    curve = build_curve("hermitian", make_field(2, 2))
    rng = random.Random(3)
    D = curve.one_point_divisor(7)
    points = curve.points[:-1]
    rows = phi_basis_rows(curve, D, points, 2)
    basis = oracle_riemann_roch_basis(curve, D)
    for _ in range(25):
        index = sum(rng.randrange(4) * 4 ** k for k in range(len(basis)))
        f = function_from_index(curve.field, basis, index)
        values = kernels.span_words_at(curve.field, rows[0], [index])[0]
        for pt, value in zip(points, values.tolist()):
            assert value == oracle_evaluate(curve, f, pt)


def test_default_eval_points_avoid_support():
    F = make_field(2, 2)
    curve = build_curve("p1", F)
    D = curve.divisor({curve.place_inf(): 7})
    pts = default_eval_points(curve, D)
    assert len(pts) == 4
    assert all(not p.is_infinity for p in pts)


# ---------------------------------------------------------------------------
# divisors


def test_divisor_algebra_and_serialization():
    F = make_field(2, 1)
    curve = build_curve("p1", F)
    pi = Polynomial(F, (1, 1, 1))
    D = curve.divisor({curve.place_of_poly(pi): 1, curve.place_inf(): -2})
    assert D.degree == 0
    assert D.pos_part().degree == 2
    assert D.neg_part().degree == 2
    E = D + D
    assert E.degree == 0 and E.coeff(curve.place_inf()) == -4
    assert (-D).coeff(curve.place_inf()) == 2
    assert (3 * D).degree == 0
    round_trip = curve.parse_divisor(D.serialize())
    assert round_trip == D
    assert curve.parse_divisor("0") == curve.zero_divisor()


@st.composite
def _p1_divisors(draw):
    """A divisor on P1 over a small field: up to four places of degree 1 to 3
    (and infinity) with nonzero coefficients of either sign."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    curve = build_curve("p1", make_field_q(q))
    places = [curve.place_inf()] + [
        curve.place_of_poly(p) for p in enumerate_irreducibles(curve.field, 3)
    ]
    chosen = draw(st.lists(st.sampled_from(places), max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(-5, 5).filter(bool),
                           min_size=len(chosen), max_size=len(chosen)))
    return curve, curve.divisor(zip(chosen, coeffs))


@settings(max_examples=80, deadline=None)
@given(_p1_divisors())
def test_property_p1_divisor_round_trip(case):
    curve, D = case
    assert curve.parse_divisor(D.serialize()) == D


@pytest.mark.parametrize("q", [4, 9])
@settings(max_examples=30, deadline=None)
@given(k=st.integers(-30, 30))
def test_property_hermitian_divisor_round_trip(q, k):
    curve = build_curve("hermitian", make_field_q(q))
    D = curve.one_point_divisor(k)
    assert curve.parse_divisor(D.serialize()) == D


def test_parse_divisor_builds_no_sieve_for_rational_places(monkeypatch):
    # x - a is irreducible, so the proposition over GF(4) with a twist at
    # x = 0 builds only its census sieve, not one at degree 1 first
    field = make_field_q(4)
    real = agcodes.field._factor_sieve
    builds = []

    def counted(F, degree):
        if F is field and (F._sieve is None or F._sieve[0] < degree):
            builds.append(degree)
        return real(F, degree)

    monkeypatch.setattr(field, "_sieve", None)
    for module in ("agcodes.field", "agcodes.sections"):
        monkeypatch.setattr(f"{module}._factor_sieve", counted)
    argv = ["sections", "proposition", "--q", "4", "--h-max", "8", "--divisor", "0,1:1;inf:-1"]
    assert main(argv) == 0
    assert builds == [9]


def test_parse_divisor_checks_a_place_on_the_sieve_of_half_its_degree(monkeypatch):
    # x^20 + x^3 + 1 over GF(2) is tested by the irreducibles of degree <= 10,
    # not by a degree-20 sieve of 2^21 monics
    field = make_field_q(2)
    real = agcodes.field._factor_sieve
    degrees = []

    def counted(F, degree):
        degrees.append(degree)
        return real(F, degree)

    monkeypatch.setattr(agcodes.field, "_factor_sieve", counted)
    agcodes.field.enumerate_irreducibles.cache_clear()
    curve = build_curve("p1", field)
    assert curve.parse_divisor("1,0,0,1" + ",0" * 16 + ",1:1").degree == 20
    assert degrees == [10]


@pytest.mark.parametrize("q,text,reducible", [
    (5, "1,0,1:1;inf:-2", True),      # x^2 + 1 = (x - 2)(x - 3)
    (3, "1,1,1:1;inf:-2", True),      # x^2 + x + 1 = (x - 1)^2
    (4, "0,0,1:1", True),             # x^2
    (3, "2,0,2:1;inf:-2", False),     # made monic: x^2 + 1, irreducible over GF(3)
    (2, "1,1,1:1", False),
])
def test_parse_divisor_rejects_reducible_place_polynomials(q, text, reducible):
    curve = build_curve("p1", make_field_q(q))
    if not reducible:
        assert curve.parse_divisor(text).pos_part().degree == 2
        return
    with pytest.raises(PreconditionError, match=f"place polynomial {text.split(':')[0]} is reducible"):
        curve.parse_divisor(text)


def test_divisor_of_function():
    F = make_field(3, 1)
    curve = build_curve("p1", F)
    x = Polynomial.x(F)
    f = RationalFunction(x ** 2, Polynomial(F, (1, 1)))
    div = oracle_divisor_of(curve, f)
    assert div.degree == 0
    assert div.coeff(curve.place_of_poly(x.monic())) == 2
    assert div.coeff(curve.place_inf()) == -1
