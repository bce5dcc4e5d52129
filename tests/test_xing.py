import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from agcodes import kernels
from agcodes.codes import build_goppa
from agcodes.curves import build_curve, default_eval_points
from agcodes.errors import PreconditionError, VerificationError
from agcodes.field import (
    Polynomial,
    enumerate_irreducibles,
    make_field,
    make_field_q,
    prime_factors,
)
from agcodes.kernels import ball_size
from agcodes.xing import (
    XingParams,
    build_xing,
    distance_floor,
    optimal_sigma,
    phi_basis_rows,
    search_centers,
)
from conftest import (
    INF,
    RationalFunction,
    basis_functions,
    brute_ball_count,
    function_from_index,
    function_row,
    naive_min_distance,
    oracle_evaluate,
    oracle_local_expansion,
    oracle_phi_word,
    oracle_riemann_roch_basis,
    survivor_functions,
)


def _deg1_divisor_gf2(curve):
    """(irreducible cubic) - (irreducible quadratic): degree 1, support
    disjoint from every rational point."""
    F = curve.field
    cubic = Polynomial(F, (1, 1, 0, 1))
    quad = Polynomial(F, (1, 1, 1))
    return curve.divisor({curve.place_of_poly(cubic): 1, curve.place_of_poly(quad): -1})


# ---------------------------------------------------------------------------
# expansion words


def test_phi0_is_plain_evaluation():
    curve = build_curve("p1", make_field(2, 2))
    D = curve.divisor({curve.place_inf(): 3})
    points = default_eval_points(curve, D)
    basis = oracle_riemann_roch_basis(curve, D)
    for f, row in zip(basis, phi_basis_rows(curve, D, points, 0)[0]):
        assert tuple(row.tolist()) == oracle_phi_word(curve, f, points, 0) == tuple(
            oracle_evaluate(curve, f, p) for p in points
        )


@st.composite
def _basis_instances(draw):
    """(curve, D, points, r_max): a P1 divisor with finite places of degree
    1 and 2 and any coefficient at infinity, on points off supp(D), so with
    infinity among them when it is off supp(D); or a Hermitian one-point
    divisor over GF(4) or GF(9) on affine points."""
    r_max = draw(st.integers(0, 3))
    if draw(st.booleans()):
        curve = build_curve("hermitian", make_field_q(draw(st.sampled_from([4, 9]))))
        D = curve.one_point_divisor(draw(st.integers(0, 14)))
        points = curve.points[:-1]
    else:
        curve = build_curve("p1", make_field_q(draw(st.sampled_from([2, 3, 4, 5, 7]))))
        places = [curve.place_of_poly(pi) for pi in enumerate_irreducibles(curve.field, 2)]
        chosen = draw(st.lists(st.sampled_from(places), max_size=3, unique=True))
        coeffs = {pl: draw(st.integers(-2, 3).filter(bool)) for pl in chosen}
        coeffs[curve.place_inf()] = draw(st.one_of(st.just(0), st.integers(-2, 4)))
        D = curve.divisor({pl: c for pl, c in coeffs.items() if c})
        assume(D.degree >= 0)
        points = default_eval_points(curve, D)
        assume(points)
    points = draw(st.permutations(points))[: draw(st.integers(1, len(points)))]
    return curve, D, points, r_max


def _instance(kind, q, divisor, r_max, points=None):
    curve = build_curve(kind, make_field_q(q))
    D = curve.parse_divisor(divisor)
    return curve, D, default_eval_points(curve, D) if points is None else points, r_max


def _oracle_rows(curve, f, point, r_max):
    """The oracle's expansion of a basis function; at the Hermitian P_inf,
    where only order 0 is defined, its value."""
    if curve.kind == "hermitian" and point.is_infinity:
        return (oracle_evaluate(curve, f, point),)
    return oracle_local_expansion(curve, f, point, r_max)


@settings(max_examples=80, deadline=None)
@given(_basis_instances())
@example(_instance("p1", 5, "2,0,1:1;1,1:-1", 3))  # infinity among the points
@example(_instance("p1", 3, "1,0,1:2;inf:-1", 3))
@example(_instance("p1", 3, "0,1:2;inf:1", 3))  # x | v: z x^i / v is not reduced
@example(_instance("p1", 4, "0,1:-1;inf:4", 3))  # a zero part z = x
@example(_instance("hermitian", 4, "0", 0))  # P_inf among the points: the constant reads 1
@example(_instance("hermitian", 4, "inf:3", 0,  # and x, y have poles there
                   build_curve("hermitian", make_field_q(4)).points))
def test_phi_basis_rows_match_the_symbolic_oracles(instance):
    curve, D, points, r_max = instance
    basis = oracle_riemann_roch_basis(curve, D)
    if any(oracle_evaluate(curve, f, p) is INF for f in basis for p in points):
        with pytest.raises(VerificationError, match="pole"):  # P_inf: a pole of x and y
            phi_basis_rows(curve, D, points, r_max)
        return
    expected = [[_oracle_rows(curve, f, p, r_max) for p in points] for f in basis]
    assert phi_basis_rows(curve, D, points, r_max).tolist() == [
        [[c[r] for c in row] for row in expected] for r in range(r_max + 1)]


@settings(max_examples=40, deadline=None)
@given(_basis_instances())
@example(_instance("p1", 3, "0,1:2;inf:1", 0))
@example(_instance("p1", 4, "0,1:-1;inf:4", 0))
@example(_instance("p1", 2, "1,1,1:1;inf:-3", 0))  # deg D < 0: no function
def test_riemann_roch_basis_is_the_oracle_basis(instance):
    # the library's integer basis, read as functions, is the reduced
    # symbolic basis, function for function and in the same order
    curve, D, _, _ = instance
    assert basis_functions(curve, curve.riemann_roch_basis(D)) == oracle_riemann_roch_basis(curve, D)


def test_phi_r_monomial_coefficients():
    F = make_field(2, 1)
    curve = build_curve("p1", F)
    xsq = RationalFunction(Polynomial(F, (0, 0, 1)), Polynomial.one(F))
    origin = curve.points[0]
    assert curve.local_expansion(function_row(xsq), origin, 2)[2] == 1
    assert curve.local_expansion(function_row(xsq), origin, 1)[1] == 0


def test_phi_1_series_division():
    F = make_field(2, 2)
    curve = build_curve("p1", F)
    f = RationalFunction(Polynomial.x(F), Polynomial(F, (1, 1)))
    assert curve.local_expansion(function_row(f), curve.points[0], 1)[1] == 1


# ---------------------------------------------------------------------------
# ball sizes


def test_ball_size_examples():
    assert ball_size(3, 1, 2) == 4
    assert ball_size(5, 0, 4) == 1
    assert ball_size(5, 2, 3) == 51


def test_ball_size_matches_brute_force():
    assert ball_size(5, 2, 3) == brute_ball_count(5, 2, 3)
    assert ball_size(4, 3, 4) == brute_ball_count(4, 3, 4)


def test_ball_size_bounds():
    with pytest.raises(PreconditionError):
        ball_size(3, 4, 2)
    with pytest.raises(PreconditionError):
        ball_size(3, -1, 2)


# ---------------------------------------------------------------------------
# center search


def test_search_centers_exhaustive_beats_average():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    params = XingParams(m=1, radii=(1,), strategy="census")
    res = search_centers(curve, D, params)
    assert res.exact_average == Fraction(2)  # 4 functions * ball(3,1,2)=4 over 2^3
    assert res.best_count >= math.ceil(res.exact_average)
    assert res.best_count == 3  # frozen exhaustive maximum
    assert res.census_total == res.expected_census == 16


def test_search_centers_averaging_identity_m2():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    params = XingParams(m=2, radii=(1, 1), strategy="census")
    res = search_centers(curve, D, params)
    assert res.expected_census == 4 * 4 * 4
    assert res.census_total == res.expected_census


def test_search_radius_zero_survivors_are_fibers():
    # radius 0 balls are points: survivors share every constrained word
    curve = build_curve("p1", make_field(2, 2))
    D = curve.divisor({curve.place_inf(): 7})
    params = XingParams(m=1, radii=(0,), strategy="exhaustive")
    res = search_centers(curve, D, params)
    points = default_eval_points(curve, D)
    basis = oracle_riemann_roch_basis(curve, D)
    for idx in res.survivor_indices:
        f = function_from_index(curve.field, basis, int(idx))
        assert oracle_phi_word(curve, f, points, 0) == res.centers[0]


def test_random_strategy_is_reproducible():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    params = XingParams(m=1, radii=(1,), strategy="random", seed=42, trials=16)
    r1 = search_centers(curve, D, params)
    r2 = search_centers(curve, D, params)
    assert r1.centers == r2.centers
    assert r1.best_count == r2.best_count
    assert r1.best_count >= 1


def test_greedy_strategy_deterministic_and_nonempty():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    params = XingParams(m=1, radii=(1,), strategy="greedy", seed=9)
    r1 = search_centers(curve, D, params)
    r2 = search_centers(curve, D, params)
    assert r1.centers == r2.centers and r1.best_count == r2.best_count
    assert r1.best_count >= 1


def test_exhaustive_outperforms_random_and_greedy():
    curve = build_curve("p1", make_field(3, 1))
    F = curve.field
    quad = next(p for p in enumerate_irreducibles(F, 2) if p.degree == 2)
    D = curve.divisor({curve.place_of_poly(quad): 1})
    best = search_centers(curve, D, XingParams(m=1, radii=(1,), strategy="exhaustive"))
    for strategy in ("random", "greedy"):
        other = search_centers(curve, D, XingParams(m=1, radii=(1,), strategy=strategy, seed=3))
        assert other.best_count <= best.best_count


def test_monotonicity_in_radius():
    # enlarging a radius never shrinks the survivor set at fixed centers
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    points = default_eval_points(curve, D)
    basis = oracle_riemann_roch_basis(curve, D)
    words = [oracle_phi_word(curve, function_from_index(curve.field, basis, i), points, 0)
             for i in range(curve.field.q ** len(basis))]
    center = (0, 1, 0)
    for s in range(0, 3):
        small = {i for i, w in enumerate(words)
                 if sum(1 for a, b in zip(w, center) if a != b) <= s}
        big = {i for i, w in enumerate(words)
              if sum(1 for a, b in zip(w, center) if a != b) <= s + 1}
        assert small <= big


def _gf5_quadratic_place():
    """P1 over GF(5) with D = one degree-2 place: all six rational points
    stay in play, so the center space of m orders is 5^(6m)."""
    curve = build_curve("p1", make_field(5, 1))
    quad = next(p for p in enumerate_irreducibles(curve.field, 2) if p.degree == 2)
    return curve, curve.divisor({curve.place_of_poly(quad): 1})


def test_coset_search_past_the_center_space_cap():
    # 5^12 centers, more than the exhaustive center cap, but only 25^2 = 625
    # ball-product vectors: the coset search runs and agrees with the ball
    # histogram over the spans' words
    curve, D = _gf5_quadratic_place()
    params = XingParams(m=2, radii=(1, 1), strategy="exhaustive")
    assert 5 ** 12 > kernels.EXHAUSTIVE_CENTER_CAP
    res = search_centers(curve, D, params)
    points = default_eval_points(curve, D)
    spans = [kernels.linear_span_words(curve.field, rows)
             for rows in phi_basis_rows(curve, D, points, 1)]
    count, index = kernels._histogram_search(spans, params.radii, 5)
    assert res.best_count == count
    digits = np.unravel_index(index, (5,) * 12)
    assert res.centers == (tuple(int(d) for d in digits[:6]), tuple(int(d) for d in digits[6:]))
    assert np.array_equal(
        res.survivor_indices,
        np.nonzero(kernels._survivor_mask(spans, params.radii, digits, 6))[0],
    )


def test_exhaustive_search_past_the_coset_cap(monkeypatch):
    # three orders of radius 3: 1545^3 ball-product vectors of 18 symbols
    # exceed the coset search's cap, so the search takes the word scan, and
    # its 5^18 centers exceed the exhaustive center cap. Radius 4 on the 16
    # points of GF(16) is past the coset cap too, and 16^16 centers are
    # refused before the span of L(4 P_inf) or L(5 P_inf) is formed.
    def refuse(*args):
        raise AssertionError("a span was formed")

    monkeypatch.setattr(kernels, "linear_span_words", refuse)
    curve, D = _gf5_quadratic_place()
    assert kernels.ball_product_cells(6, (3, 3, 3), 5) > kernels.SPAN_CELL_CAP
    with pytest.raises(PreconditionError, match="exhaustive center space"):
        search_centers(curve, D, XingParams(m=3, radii=(3, 3, 3), strategy="exhaustive"))
    gf16 = build_curve("p1", make_field(2, 4))
    assert kernels.ball_product_cells(16, (4,), 16) > kernels.SPAN_CELL_CAP
    for degree in (4, 5):
        D = gf16.divisor({gf16.place_inf(): degree})
        with pytest.raises(PreconditionError, match=f"exhaustive center space {16 ** 16} "):
            build_xing(gf16, D, XingParams(m=1, radii=(4,), strategy="exhaustive"))


def test_coset_cap_admits_every_exhaustive_center_space():
    # every P1 or Hermitian instance with at most EXHAUSTIVE_CENTER_CAP
    # centers and radii s_r < N(q-1)/q has a ball product within the coset
    # search's cap, so the coset route refuses no exhaustive search that the
    # center scan accepts
    worst = 0
    for q in (q for q in range(2, 257) if len(prime_factors(q)) == 1):
        root = math.isqrt(q)
        for n in range(1, max(q, root ** 3 if root * root == q else 0) + 2):
            s = (n * (q - 1) - 1) // q  # the largest radius XingParams accepts
            m = 1
            while s >= 0 and q ** (m * n) <= kernels.EXHAUSTIVE_CENTER_CAP:
                worst = max(worst, kernels.ball_product_cells(n, (s,) * m, q))
                m += 1
    assert 0 < worst <= kernels.SPAN_CELL_CAP


def test_xing_builds_never_span(monkeypatch):
    # every strategy of every build below searches cosets and forms the
    # order-m words at the survivors only
    def refuse(*args):
        raise AssertionError("a xing build enumerated a span")

    curve = build_curve("hermitian", make_field(2, 2))
    D = curve.one_point_divisor(7)
    built = {}
    for strategy, radii in (("exhaustive", (1,)), ("random", (1,)), ("greedy", (2,))):
        params = XingParams(m=1, radii=radii, strategy=strategy, seed=11, trials=16)
        built[strategy] = build_xing(curve, D, params)
        monkeypatch.setattr(kernels, "linear_span_words", refuse)
        spanless = build_xing(curve, D, params)
        monkeypatch.undo()
        assert np.array_equal(spanless.code.words, built[strategy].code.words)
        assert spanless.search.centers == built[strategy].search.centers
    p1 = build_curve("p1", make_field(2, 1))
    params = XingParams(m=2, radii=(1, 0), strategy="exhaustive")
    quad = p1.divisor({p1.place_of_poly(Polynomial(p1.field, (1, 1, 1))): 1})
    monkeypatch.setattr(kernels, "linear_span_words", refuse)
    assert build_xing(p1, quad, params).code.size >= 1


def test_random_and_greedy_routes_agree():
    # a ball product of 1 + 8*3 + 28*9 = 277 vectors against a span of 4^2
    # words: the coset search picks the center, survivors and candidate
    # count that the word scan picks on the span
    curve = build_curve("hermitian", make_field(2, 2))
    D = curve.one_point_divisor(2)
    points = default_eval_points(curve, D)
    span = kernels.linear_span_words(
        curve.field, phi_basis_rows(curve, D, points, 0)[0])
    for strategy in ("random", "greedy"):
        params = XingParams(m=1, radii=(2,), strategy=strategy, seed=5, trials=32)
        res = search_centers(curve, D, params)
        other = kernels.center_search([span], (2,), 4, strategy=strategy, seed=5, trials=32)
        assert (res.best_count, res.centers, res.n_candidates) == (
            other.best_count, other.centers, other.n_candidates)
        assert np.array_equal(res.survivor_indices, other.survivor_indices)


def test_survivor_indices_past_64_bits():
    # Hermitian GF(9), D = 30 P_inf: 9^28 functions, so a function index
    # passes 2^63 and is kept as a Python integer. At radius 0 the survivors
    # are the 81 functions of the kernel of the order-0 map, (x^9 - x) L(3 P_inf),
    # and their order-1 words meet the floor of 24 exactly.
    curve = build_curve("hermitian", make_field(3, 2))
    D = curve.one_point_divisor(30)
    build = build_xing(curve, D, XingParams(m=1, radii=(0,)))
    indices = build.search.survivor_indices
    assert len(indices) == 81 and max(indices) >= 1 << 63
    assert list(indices) == sorted(set(indices))
    meta = build.code.metadata
    assert meta["claimed_distance"] == meta["measured_distance"] == 24
    points = build.points
    functions = survivor_functions(curve, D, build.search)
    for f in functions[:: 20]:
        assert oracle_phi_word(curve, f, points, 0) == (0,) * 27
    assert {tuple(int(s) for s in oracle_phi_word(curve, f, points, 1)) for f in functions} == {
        tuple(w) for w in build.code.words.tolist()}


# ---------------------------------------------------------------------------
# builds


def test_build_xing_gf2_instance():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    params = XingParams(m=1, radii=(1,), strategy="exhaustive")
    assert distance_floor(3, 1, (1,), 1) == 1
    build = build_xing(curve, D, params)
    assert build.code.metadata["claimed_distance"] == 1
    assert build.code.size == build.search.best_count
    assert build.code.metadata["measured_distance"] >= 1
    assert naive_min_distance(build.code.words) == build.code.metadata["measured_distance"]


def test_build_xing_m2_instance():
    curve = build_curve("p1", make_field(2, 1))
    F = curve.field
    quad = Polynomial(F, (1, 1, 1))
    D = curve.divisor({curve.place_of_poly(quad): 1})
    params = XingParams(m=2, radii=(1, 0), strategy="exhaustive")
    assert distance_floor(3, 2, (1, 0), 2) == 9 - 6 - 2
    build = build_xing(curve, D, params)
    assert build.code.metadata["claimed_distance"] == 1
    assert build.code.size == build.search.best_count
    measured = build.code.metadata["measured_distance"]
    if measured is None:
        assert build.code.size == 1  # tight radii leave a single survivor
    else:
        assert measured >= 1


def test_build_xing_all_zero_radii():
    curve = build_curve("p1", make_field(2, 2))
    D = curve.divisor({curve.place_inf(): 7})
    params = XingParams(m=1, radii=(0,), strategy="exhaustive")
    build = build_xing(curve, D, params)
    assert build.code.metadata["claimed_distance"] == 2 * 4 - 7
    assert build.code.metadata["measured_distance"] >= 2 * 4 - 7


def test_build_xing_rejects_nonpositive_floor():
    curve = build_curve("p1", make_field(2, 1))
    F = curve.field
    quintic = next(p for p in enumerate_irreducibles(F, 5) if p.degree == 5)
    D = curve.divisor({curve.place_of_poly(quintic): 1})
    params = XingParams(m=1, radii=(1,), strategy="exhaustive")
    with pytest.raises(PreconditionError):
        build_xing(curve, D, params)


def test_radius_bound_validation():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    with pytest.raises(PreconditionError):
        build_xing(curve, D, XingParams(m=1, radii=(2,)))  # 2*2 >= 3*1
    with pytest.raises(PreconditionError, match="trials must be nonnegative"):
        build_xing(curve, D, XingParams(m=1, radii=(1,), strategy="random", trials=-1))


def test_build_xing_rejects_repeated_points():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    p = default_eval_points(curve, D)
    params = XingParams(m=1, radii=(1,))
    with pytest.raises(PreconditionError, match="repeated"):
        build_xing(curve, D, params, points=(p[0], p[0], p[1]))
    with pytest.raises(PreconditionError, match="repeated"):
        search_centers(curve, D, params, points=(p[0], p[1], p[1]))


# ---------------------------------------------------------------------------
# degeneration to the evaluation code


def test_zero_radius_zero_center_reduces_to_goppa():
    curve = build_curve("p1", make_field(2, 2))
    F = curve.field
    D = curve.divisor({curve.place_inf(): 7})
    points = default_eval_points(curve, D)
    n = len(points)
    params = XingParams(m=1, radii=(0,), strategy="exhaustive")
    build = build_xing(curve, D, params)
    # ties are broken to the lexicographically least center: the zero word
    assert build.search.centers == ((0,) * n,)
    survivors = survivor_functions(curve, D, build.search)
    # survivors are exactly the functions vanishing at every point
    assert len(survivors) == F.q ** 4
    for f in survivors:
        assert all(oracle_evaluate(curve, f, p) == 0 for p in points)
    # and the final-order words are the scaled words of the small Goppa code
    goppa = build_goppa(curve, curve.divisor({curve.place_inf(): 3}), points=points)
    scale = []
    for j, pj in enumerate(points):
        w = 1
        for i, pi in enumerate(points):
            if i != j:
                w = F.mul(w, F.sub(pj.coords[0], pi.coords[0]))
        scale.append(w)
    mapped = {tuple(F.mul(word[j], scale[j]) for j in range(n)) for word in goppa.words.tolist()}
    assert mapped == set(map(tuple, build.code.words.tolist()))
    assert goppa.size == build.code.size
    d_goppa = goppa.metadata["measured_distance"]
    d_xing = build.code.metadata["measured_distance"]
    assert d_goppa == d_xing


# ---------------------------------------------------------------------------
# multiplicity accounting


def _agreement_multiplicity(curve, f, f2, point, depth):
    diff = f - f2
    series = curve.local_expansion(function_row(diff), point, depth)
    for r, c in enumerate(series):
        if c:
            return r
    return depth + 1


def test_multiplicity_chain_bounds():
    curve = build_curve("p1", make_field(2, 1))
    D = _deg1_divisor_gf2(curve)
    points = default_eval_points(curve, D)
    params = XingParams(m=1, radii=(1,), strategy="exhaustive")
    build = build_xing(curve, D, params)
    survivors = survivor_functions(curve, D, build.search)
    n = len(points)
    d0 = build.code.metadata["claimed_distance"]
    deg_d = D.degree
    for i in range(len(survivors)):
        for j in range(i + 1, len(survivors)):
            f, f2 = survivors[i], survivors[j]
            total = sum(
                _agreement_multiplicity(curve, f, f2, p, deg_d) for p in points
            )
            assert total <= deg_d
            w_m = oracle_phi_word(curve, f, points, params.m)
            w2_m = oracle_phi_word(curve, f2, points, params.m)
            agree_m = sum(1 for a, b in zip(w_m, w2_m) if a == b)
            assert agree_m <= n - d0


def test_multiplicity_chain_on_hermitian_survivors():
    # richer survivor set: agreement multiplicities at the points stay within
    # deg(D), and the final-order agreement set within N - d0
    curve = build_curve("hermitian", make_field(2, 2))
    D = curve.one_point_divisor(7)
    params = XingParams(m=1, radii=(1,), strategy="random", seed=7, trials=48)
    build = build_xing(curve, D, params)
    survivors = survivor_functions(curve, D, build.search)
    points = build.points
    n = len(points)
    d0 = build.code.metadata["claimed_distance"]
    deg_d = D.degree
    assert len(survivors) >= 2
    # the survivors' expansions to order deg D, read from the basis rows as
    # builds read them: series[r, s, k] at order r, survivor s, point k
    rows = phi_basis_rows(curve, D, points, deg_d)
    series = np.stack([kernels.span_words_at(curve.field, rows[r], build.search.survivor_indices)
                       for r in range(deg_d + 1)])
    for i in range(len(survivors)):
        for j in range(i + 1, len(survivors)):
            f, f2 = survivors[i], survivors[j]
            diff = f - f2
            total = 0
            for k, p in enumerate(points):
                # expansion is linear: f - f2 vanishes to the first order
                # where the two series differ
                oracle = oracle_local_expansion(curve, diff, p, deg_d)
                differ = (series[:, i, k] != series[:, j, k]).tolist()
                assert differ == [c != 0 for c in oracle]
                mult = next((r for r, d in enumerate(differ) if d), deg_d + 1)
                assert mult <= deg_d
                total += mult
            assert total <= deg_d
            w_m = oracle_phi_word(curve, f, points, params.m)
            w2_m = oracle_phi_word(curve, f2, points, params.m)
            assert sum(1 for a, b in zip(w_m, w2_m) if a == b) <= n - d0


def test_phi_m_injective_on_survivors():
    curve = build_curve("p1", make_field(3, 1))
    quad = next(p for p in enumerate_irreducibles(curve.field, 2) if p.degree == 2)
    D = curve.divisor({curve.place_of_poly(quad): 1})
    params = XingParams(m=1, radii=(1,), strategy="exhaustive")
    build = build_xing(curve, D, params)
    survivors = survivor_functions(curve, D, build.search)
    points = build.points
    words = [oracle_phi_word(curve, f, points, 1) for f in survivors]
    assert len(set(words)) == len(words)


# ---------------------------------------------------------------------------
# the closed-form radius optimizer


def test_optimal_sigma_values():
    assert optimal_sigma(4, 2) == Fraction(3, 259)
    assert optimal_sigma(2, 1) == Fraction(1, 5)
    assert optimal_sigma(9, 3) == Fraction(8, 9 ** 6 + 8)


def test_optimal_sigma_value_identity():
    # the objective at the optimum equals log_q(1 + (q-1) q^(-2i))
    from mpmath import mp, mpf, log

    from agcodes.bounds import entropy

    with mp.workdps(60):
        sigma = optimal_sigma(2, 1)
        lhs = entropy(2, sigma) - 2 * mpf(sigma.numerator) / sigma.denominator
        rhs = log(1 + mpf(1) / 4) / log(2)
        assert abs(lhs - rhs) < mpf("1e-12")


def test_optimal_sigma_against_golden_section():
    from mpmath import mp, mpf

    from agcodes.bounds import entropy
    from conftest import golden_section_max

    q, i = 9, 3
    with mp.workdps(60):
        loc = golden_section_max(
            lambda s: entropy(q, s) - 2 * i * s, mpf("1e-30"), mpf(q - 1) / q - mpf("1e-6")
        )
        target = optimal_sigma(q, i)
        assert abs(loc - mpf(target.numerator) / target.denominator) < mpf("1e-9")
