import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agcodes.cli import main
from agcodes.curves import build_curve
from agcodes.errors import PreconditionError
from agcodes.field import Polynomial, enumerate_irreducibles, linear_poly, make_field_q
from agcodes.sections import (
    build_section_code,
    enumerate_sections,
    multiplicity_census,
    phi0_projective,
    phi_words,
    solution_multiplicity,
)
from conftest import (
    RationalFunction,
    RationalSection,
    basis_functions,
    census_rows,
    census_total,
    function_from_index,
    naive_min_distance,
    oracle_divisor_of,
    oracle_enumerate_sections,
    oracle_global_twist,
    oracle_multiplicity_census,
    oracle_phi0,
    oracle_phi_r,
    oracle_residue_multiplicity,
    oracle_section_height,
    oracle_total_multiplicity,
    oracle_twist,
    section_table,
    table_section,
    table_sections,
)


def _p1(q):
    return build_curve("p1", make_field_q(q))


def _nontrivial_divisor_gf2(curve):
    """(x^2+x+1) - 2*(inf): a degree-zero divisor with nonempty support."""
    pi = Polynomial(curve.field, (1, 1, 1))
    return curve.divisor({curve.place_of_poly(pi): 1, curve.place_inf(): -2})


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("q", [2, 3, 5, 2048])  # GF(2048) has no lookup tables
def test_height_zero_sections_are_constants(q):
    curve = _p1(q)
    secs = enumerate_sections(curve, curve.zero_divisor(), 0)
    assert len(secs) == q
    values = sorted(s.f.numer.coeffs[0] if not s.f.is_zero else 0 for s in table_sections(secs))
    assert values == list(range(q))


def test_height_one_sections_gf2():
    curve = _p1(2)
    secs = enumerate_sections(curve, curve.zero_divisor(), 1)
    assert len(secs) == 8  # 2 constants + the 6 fractional linear maps


def test_section_table_refuses_an_integer_index():
    curve = _p1(3)
    secs = enumerate_sections(curve, curve.zero_divisor(), 1)
    for index in (0, -1, np.int64(2)):
        with pytest.raises(TypeError, match="index array or a slice"):
            secs[index]
    with pytest.raises(TypeError):
        for _ in secs:
            pass
    # an index array or a slice still selects rows
    assert len(secs[np.array([0, 2])]) == 2 and len(secs[1:4]) == 3


def test_section_heights_audited_by_full_factorization():
    curve = _p1(3)
    D = curve.zero_divisor()
    for s in table_sections(enumerate_sections(curve, D, 2)):
        assert s.height == oracle_section_height(curve, D, s.f)
        assert s.height <= 2


def test_sections_nontrivial_divisor_shape():
    # every section's divisor plus D splits into parts of equal degree <= h
    curve = _p1(2)
    D = _nontrivial_divisor_gf2(curve)
    secs = table_sections(enumerate_sections(curve, D, 1))
    for s in secs:
        if s.f.is_zero:
            continue
        E = oracle_divisor_of(curve, s.f) + D
        assert E.degree == 0
        assert E.pos_part().degree == E.neg_part().degree == s.height <= 1
    assert any(not s.f.is_zero for s in secs)


def test_sections_match_union_of_function_spaces():
    # dual route: the height-h sections are the union of L(D + B) over the
    # effective divisors B of degree exactly h on small places
    curve = _p1(2)
    D = curve.zero_divisor()
    h = 1
    direct = {s.f for s in table_sections(enumerate_sections(curve, D, h))}
    places = [curve.place_inf()] + [
        curve.place_of_poly(pi)
        for pi in enumerate_irreducibles(curve.field, max(h, 1))
        if pi.degree <= h
    ]
    spanned = set()
    q = curve.field.q
    for pl in places:
        B = curve.divisor({pl: h})
        basis = basis_functions(curve, curve.riemann_roch_basis(D + B))
        for idx in range(q ** len(basis)):
            spanned.add(function_from_index(curve.field, basis, idx))
    assert spanned == direct


def test_sections_guard():
    curve = _p1(5)
    with pytest.raises(PreconditionError):
        enumerate_sections(curve, curve.zero_divisor(), 5)
    # the twisted guard at its boundary over GF(2), h = 1: D_+ of degree 9
    # bounds the pairs by 2^(2*10+1) <= 8 * 10^6, of degree 10 by 2^23
    curve = _p1(2)
    assert len(enumerate_sections(curve, curve.parse_divisor("0,1:9;inf:-9"), 1)) == 8
    with pytest.raises(PreconditionError, match="twisted enumeration too large"):
        enumerate_sections(curve, curve.parse_divisor("0,1:10;inf:-10"), 1)


def test_sections_require_degree_zero():
    curve = _p1(2)
    with pytest.raises(PreconditionError):
        enumerate_sections(curve, curve.divisor({curve.place_inf(): 1}), 1)


def test_sections_equal_twist_of_reference_sections():
    # with g realizing D, the height-h sections for D are exactly the
    # height-h reference sections divided by g
    curve = _p1(2)
    D = _nontrivial_divisor_gf2(curve)
    g = oracle_global_twist(curve, D)
    assert oracle_divisor_of(curve, g) == D
    with_d = {s.f for s in table_sections(enumerate_sections(curve, D, 1))}
    base = {s.f for s in table_sections(enumerate_sections(curve, curve.zero_divisor(), 1))}
    mapped = set()
    for f in base:
        if f.is_zero:
            mapped.add(f)
        else:
            mapped.add(f / g)
    assert mapped == with_d


# ---------------------------------------------------------------------------
# enumeration and twisted evaluation against the symbolic oracles


def _assert_pipeline_matches_oracles(curve, D, h, points=None):
    points = curve.points if points is None else points
    secs = enumerate_sections(curve, D, h)
    expected = oracle_enumerate_sections(curve, D, h)
    assert [(s.f, s.height) for s in table_sections(secs)] == [(s.f, s.height) for s in expected]
    assert secs.divisor == D
    words = phi_words(curve, secs, points, 0)
    assert words.shape == (len(secs), len(points))
    assert words.dtype == np.uint8
    assert [tuple(w) for w in words.tolist()] == [oracle_phi0(curve, s, points) for s in expected]
    sample = secs[:: max(1, len(secs) // 40)]
    for r in (1, 2):
        words = phi_words(curve, sample, points, r)
        assert [tuple(w) for w in words.tolist()] == [
            oracle_phi_r(curve, s, points, r) for s in table_sections(sample)]
    return secs


_UNTWISTED_GRID = [(2, 3), (3, 2), (4, 2), (5, 1), (7, 1), (8, 1), (9, 1)]
_TWISTED_GRID = [
    (2, "0,1:1;1,1:-1", 2),           # degree-1 places, both signs
    (2, "1,1,1:1;inf:-2", 2),         # positive at the degree-2 place
    (2, "1,1,1:-1;inf:2", 1),         # negative at the degree-2 place
    (2, "inf:1;0,1:-1", 2),
    (2, "0,1:2;1,1:-1;inf:-1", 1),
    (3, "1,1:1;inf:-1", 2),
    (3, "1,0,1:1;inf:-2", 1),         # x^2 + 1 is irreducible over GF(3)
    (3, "0,1:-2;inf:2", 1),
    (4, "1,1:-2;inf:2", 1),
    (5, "2,1:2;inf:-2", 1),
    (7, "3,1:1;inf:-1", 1),
]


@pytest.mark.parametrize("q,h", _UNTWISTED_GRID)
def test_pipeline_matches_oracles_untwisted(q, h):
    curve = _p1(q)
    _assert_pipeline_matches_oracles(curve, curve.zero_divisor(), h)


@pytest.mark.parametrize("q,divisor,h", _TWISTED_GRID)
def test_pipeline_matches_oracles_twisted(q, divisor, h):
    curve = _p1(q)
    _assert_pipeline_matches_oracles(curve, curve.parse_divisor(divisor), h)


def test_pipeline_on_a_permuted_point_subset():
    curve = _p1(5)
    D = curve.parse_divisor("1,1:1;inf:-1")
    points = tuple(curve.points[i] for i in (5, 4, 0, 2))
    secs = _assert_pipeline_matches_oracles(curve, D, 1, points)
    words = phi_words(curve, secs, points, 0)
    assert all(phi0_projective(curve, secs[k : k + 1], points) == tuple(w)
               for k, w in zip(range(0, len(secs), 7), words[::7].tolist()))
    for empty in (secs[:0], section_table(D, ())):  # no rows, no words
        for r in (0, 1):
            assert phi_words(curve, empty, points, r).shape == (0, len(points))


@st.composite
def _small_divisors(draw):
    """A degree-zero divisor over GF(2) or GF(3) on up to two of the
    degree-1 places and one degree-2 place, balanced at infinity, with
    deg D_+ <= 2; and a height bound."""
    q = draw(st.sampled_from([2, 3]))
    curve = _p1(q)
    places = [curve.place_of_point(p) for p in curve.points[:-1]]
    places.append(curve.place_of_poly(
        next(pi for pi in enumerate_irreducibles(curve.field, 2) if pi.degree == 2)))
    picked = draw(st.lists(st.sampled_from(places), min_size=1, max_size=2, unique=True))
    coeffs = {pl: draw(st.integers(-2, 2)) for pl in picked}
    total = sum(c * pl.degree for pl, c in coeffs.items())
    coeffs[curve.place_inf()] = -total
    D = curve.divisor({pl: c for pl, c in coeffs.items() if c})
    w_pos = D.pos_part().degree
    assume(w_pos <= 2)
    h = draw(st.integers(0, (3 if q == 2 else 2) - w_pos))
    return curve, D, h


@settings(max_examples=30, deadline=None)
@given(_small_divisors())
def test_pipeline_matches_oracles_on_random_divisors(case):
    curve, D, h = case
    _assert_pipeline_matches_oracles(curve, D, h)


@st.composite
def _expansion_cases(draw):
    """A projective line over GF(q); a degree-zero divisor on up to two
    degree-1 places and one degree-2 place, balanced at infinity; and the
    zero section followed by functions u/v whose numerator and denominator
    are products of repeated linear and quadratic factors, so that zeros
    and poles of every order up to 3 meet the points."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    curve = _p1(q)
    F = curve.field
    quad = next(pi for pi in enumerate_irreducibles(F, 2) if pi.degree == 2)
    places = [curve.place_of_point(p) for p in curve.points[:-1]] + [curve.place_of_poly(quad)]
    picked = draw(st.lists(st.sampled_from(places), max_size=2, unique=True))
    coeffs = {pl: draw(st.integers(-2, 2)) for pl in picked}
    coeffs[curve.place_inf()] = -sum(c * pl.degree for pl, c in coeffs.items())
    D = curve.divisor({pl: c for pl, c in coeffs.items() if c})
    factors = [linear_poly(F, a) for a in range(q)] + [quad]

    def poly():
        out = Polynomial.constant(F, draw(st.integers(1, q - 1)))
        for pi in draw(st.lists(st.sampled_from(factors), max_size=3)):
            out = out * pi
        return out

    secs = [RationalSection(RationalFunction.zero(F), D, 0)]
    for _ in range(draw(st.integers(1, 8))):
        f = RationalFunction(poly(), poly())
        secs.append(RationalSection(f, D, oracle_section_height(curve, D, f)))
    return curve, secs


@settings(max_examples=60, deadline=None)
@given(_expansion_cases())
def test_phi_words_match_the_symbolic_oracles(case):
    curve, secs = case
    points = curve.points
    for r in range(4):
        words = phi_words(curve, section_table(secs[0].divisor, secs), points, r)
        if r == 0:
            expected = [oracle_phi0(curve, s, points) for s in secs]
        else:
            expected = [oracle_phi_r(curve, s, points, r) for s in secs]
        assert [tuple(w) for w in words.tolist()] == expected


# ---------------------------------------------------------------------------
# multiplicities


def _section_by_serial(curve, D, h, serial):
    for s in table_sections(enumerate_sections(curve, D, h)):
        if s.f.serialize() == serial:
            return s
    raise AssertionError(f"section {serial} not found")


def _multiplicity(curve, a, b, place):
    """solution_multiplicity on the two-row table of sections a and b."""
    return solution_multiplicity(curve, section_table(a.divisor, (a, b)), place)


def test_multiplicity_example_gf3():
    curve = _p1(3)
    D = curve.zero_divisor()
    fx = _section_by_serial(curve, D, 2, "0,1/1")
    fxx = _section_by_serial(curve, D, 2, "0,1,1/1")
    assert fx.height == 1 and fxx.height == 2
    assert _multiplicity(curve, fx, fxx, curve.place_of_point(curve.points[0])) == 2
    assert _multiplicity(curve, fx, fxx, curve.place_inf()) == 1
    assert census_total(curve, fx, fxx) == 3


def test_multiplicity_example_unit_difference():
    curve = _p1(3)
    D = curve.zero_divisor()
    fx = _section_by_serial(curve, D, 1, "0,1/1")
    fx1 = _section_by_serial(curve, D, 1, "1,1/1")
    for pt in curve.points[:-1]:
        assert _multiplicity(curve, fx, fx1, curve.place_of_point(pt)) == 0
    assert _multiplicity(curve, fx, fx1, curve.place_inf()) == 2
    assert census_total(curve, fx, fx1) == 2


def test_multiplicity_at_higher_degree_place():
    # x^2 and x^2 + x^2+x+1 agree exactly at the quadratic place
    curve = _p1(2)
    D = curve.zero_divisor()
    f = RationalSection(
        RationalFunction(Polynomial(curve.field, (0, 0, 1)), Polynomial.one(curve.field)),
        D, 2,
    )
    f2 = RationalSection(
        RationalFunction(Polynomial(curve.field, (1, 1)), Polynomial.one(curve.field)),
        D, 1,
    )
    pi = Polynomial(curve.field, (1, 1, 1))
    place = curve.place_of_poly(pi)
    assert _multiplicity(curve, f, f2, place) == 1
    assert census_total(curve, f, f2) == 3


def test_multiplicity_distinct_constants():
    curve = _p1(4)
    D = curve.zero_divisor()
    c1 = RationalSection(RationalFunction.constant(curve.field, 1), D, 0)
    c2 = RationalSection(RationalFunction.constant(curve.field, 2), D, 0)
    assert census_total(curve, c1, c2) == 0


def test_multiplicity_rejects_equal_sections():
    curve = _p1(2)
    D = curve.zero_divisor()
    s = _section_by_serial(curve, D, 1, "0,1/1")
    with pytest.raises(PreconditionError):
        census_rows(s, s)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_proposition_total_equals_height_sum(q):
    curve = _p1(q)
    D = curve.zero_divisor()
    h_cap = 3 if q < 4 else 2
    secs = enumerate_sections(curve, D, h_cap)
    rng = random.Random(100 + q)
    checked = 0
    while checked < 40:
        a = table_section(secs, rng.randrange(len(secs)))
        b = table_section(secs, rng.randrange(len(secs)))
        if a.f == b.f:
            continue
        total = census_total(curve, a, b)
        assert total == a.height + b.height
        # the independent full-place-enumeration oracle agrees
        assert total == oracle_total_multiplicity(curve, a, b, a.height + b.height)
        checked += 1


def test_proposition_with_nontrivial_divisor():
    curve = _p1(2)
    D = _nontrivial_divisor_gf2(curve)
    secs = enumerate_sections(curve, D, 2)
    rng = random.Random(55)
    checked = 0
    while checked < 25:
        a = table_section(secs, rng.randrange(len(secs)))
        b = table_section(secs, rng.randrange(len(secs)))
        if a.f == b.f:
            continue
        total = census_total(curve, a, b)
        assert total == a.height + b.height
        assert total == oracle_total_multiplicity(curve, a, b, a.height + b.height + D.pos_part().degree)
        checked += 1


def test_proof_identity_rows():
    curve = _p1(3)
    D = curve.zero_divisor()
    secs = enumerate_sections(curve, D, 2)
    rng = random.Random(77)
    checked = 0
    while checked < 20:
        a = table_section(secs, rng.randrange(len(secs)))
        b = table_section(secs, rng.randrange(len(secs)))
        if a.f == b.f:
            continue
        rows = census_rows(a, b)
        assert sum((r["m"] - r["mu"] - r["mu2"]) * r["place"].degree for r in rows) == 0
        assert sum((r["mu"] + r["mu2"]) * r["place"].degree for r in rows) == a.height + b.height
        checked += 1


@st.composite
def _pairs_at_higher_degree_place(draw):
    """Two distinct sections over GF(2) or GF(3) of a degree-zero divisor
    that carries a place of degree 2 or 3 (and sometimes the place x = 0),
    balanced at infinity. The second section is often the first plus a
    multiple of the place polynomial, so that place carries agreement."""
    q = draw(st.sampled_from([2, 3]))
    curve = _p1(q)
    F = curve.field
    pi = draw(st.sampled_from([p for p in enumerate_irreducibles(F, 3) if p.degree > 1]))
    coeffs = {curve.place_of_poly(pi): draw(st.sampled_from([-1, 1]))}
    if draw(st.booleans()):
        coeffs[curve.place_of_point(curve.points[0])] = draw(st.sampled_from([-1, 1]))
    coeffs[curve.place_inf()] = -sum(c * pl.degree for pl, c in coeffs.items())
    D = curve.divisor({pl: c for pl, c in coeffs.items() if c})

    def rational(lead_min):
        u = draw(st.lists(st.integers(0, q - 1), max_size=1)) + [draw(st.integers(lead_min, q - 1))]
        v = draw(st.lists(st.integers(0, q - 1), max_size=1)) + [1]
        return RationalFunction(Polynomial(F, u), Polynomial(F, v))

    f = rational(0)
    if draw(st.booleans()):
        f2 = f + RationalFunction.from_poly(pi) * rational(1)
    else:
        f2 = rational(0)
    assume(f != f2)
    a, b = (RationalSection(g, D, oracle_section_height(curve, D, g)) for g in (f, f2))
    assume(a.height + b.height <= (8 if q == 2 else 5))
    return curve, D, a, b


@settings(max_examples=60, deadline=None)
@given(_pairs_at_higher_degree_place())
def test_multiplicity_law_on_random_pairs(case):
    curve, D, a, b = case
    law = a.height + b.height
    assert oracle_total_multiplicity(curve, a, b, max(law, 1)) == law
    rows = _assert_census_matches_oracles(curve, a, b)
    assert sum(r["m"] * r["place"].degree for r in rows) == law
    assert sum((r["mu"] + r["mu2"]) * r["place"].degree for r in rows) == law
    for r in rows:
        pl = r["place"]
        if pl.kind == "poly" and pl.degree > 1:
            phi = oracle_twist(curve, D, pl)
            assert r["m"] == oracle_residue_multiplicity(phi * a.f, phi * b.f, pl.poly)


def test_twist_independence():
    # the symbolic census under the canonical per-place twists and under the
    # single global realization equals the integer table, which takes no
    # twist, at every place of degree <= 3
    curve = _p1(2)
    D = _nontrivial_divisor_gf2(curve)
    secs = enumerate_sections(curve, D, 1)
    places = [curve.place_inf()] + [
        curve.place_of_poly(pi) for pi in enumerate_irreducibles(curve.field, 3)
    ]
    rng = random.Random(31)
    for _ in range(15):
        a = table_section(secs, rng.randrange(len(secs)))
        b = table_section(secs, rng.randrange(len(secs)))
        if a.f == b.f:
            continue
        _assert_census_matches_oracles(curve, a, b, places)


# ---------------------------------------------------------------------------
# the integer census against the symbolic one


def _assert_census_matches_oracles(curve, a, b, places=()):
    """Census rows equal the symbolic census under the canonical and the
    global twist family, and solution_multiplicity gives each row's m and 0
    at the other given places."""
    rows = census_rows(a, b)
    g = oracle_global_twist(curve, a.divisor)
    for tw in (None, {pl: g for pl in a.divisor.support}):
        assert oracle_multiplicity_census(curve, a, b, tw) == rows
    m_at = {r["place"]: r["m"] for r in rows}
    for pl in (*m_at, *places):
        assert _multiplicity(curve, a, b, pl) == m_at.get(pl, 0)
    return rows


@pytest.mark.parametrize("q,divisor,h", [(q, "0", h) for q, h in _UNTWISTED_GRID] + _TWISTED_GRID)
def test_census_matches_oracle_on_the_grid(q, divisor, h):
    curve = _p1(q)
    secs = enumerate_sections(curve, curve.parse_divisor(divisor), h)
    rng = random.Random(f"{q}/{divisor}/{h}")
    pairs = [(0, j) for j in rng.sample(range(1, len(secs)), 5)]  # the zero section
    pairs += [tuple(rng.sample(range(len(secs)), 2)) for _ in range(25)]
    for i, j in pairs:
        _assert_census_matches_oracles(curve, table_section(secs, i), table_section(secs, j))


@settings(max_examples=30, deadline=None)
@given(_small_divisors(), st.data())
def test_census_matches_oracle_on_random_divisors(case, data):
    curve, D, h = case
    secs = enumerate_sections(curve, D, h)
    i, j = data.draw(st.lists(st.integers(0, len(secs) - 1), min_size=2, max_size=2, unique=True))
    a, b, zero = (table_section(secs, k) for k in (i, j, 0))
    _assert_census_matches_oracles(curve, zero, b if j > i else a)  # the zero section
    _assert_census_matches_oracles(curve, a, b)


@st.composite
def _census_batches(draw, q):
    """A table of random sections over GF(q) and a batch of row pairs: a
    degree-zero divisor with coefficients +-1 at up to two places of degree
    1, 2 or 3, balanced at infinity; the zero section at row 0; each drawn f
    often followed by f + r * pi^2 for a linear pi, a pair whose
    w = -r * pi^2 * v^2 has repeated factors. The batch pairs neighbouring
    rows both ways, every row with the zero section, and a few drawn rows."""
    curve = _p1(q)
    F = curve.field
    irreducibles = enumerate_irreducibles(F, 3)
    coeffs = {}
    for d in draw(st.sampled_from([(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (3, 3)])):
        pi = draw(st.sampled_from([p for p in irreducibles if p.degree == d]))
        coeffs[curve.place_of_poly(pi)] = draw(st.sampled_from([-1, 1]))
    coeffs[curve.place_inf()] = -sum(c * pl.degree for pl, c in coeffs.items())
    D = curve.divisor({pl: c for pl, c in coeffs.items() if c})
    top = 2 if q <= 5 else 1  # keeps 2 * deg w within the factor sieve's size cap

    def poly(lead_min):
        tail = draw(st.lists(st.integers(0, q - 1), max_size=top))
        return Polynomial(F, tail + [draw(st.integers(lead_min, q - 1))])

    funcs = [RationalFunction.zero(F)]
    for _ in range(draw(st.integers(1, 4))):
        f = RationalFunction(poly(0), poly(1))
        funcs.append(f)
        if draw(st.booleans()):
            pi = linear_poly(F, draw(st.integers(0, q - 1)))
            r = Polynomial.constant(F, draw(st.integers(1, q - 1)))
            funcs.append(f + RationalFunction.from_poly(r * pi * pi))
    funcs = list(dict.fromkeys(funcs))
    assume(len(funcs) > 1)
    table = section_table(D, [RationalSection(f, D, oracle_section_height(curve, D, f))
                              for f in funcs])
    rows = st.integers(0, len(funcs) - 1)
    pairs = [p for k in range(1, len(funcs)) for p in ((k - 1, k), (k, k - 1), (k, 0))]
    pairs += draw(st.lists(st.tuples(rows, rows).filter(lambda p: p[0] != p[1]), max_size=4))
    return curve, table, pairs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), block=st.integers(1, 6))
def test_batched_census_matches_oracle(q, data, block):
    # every pair's rows equal the symbolic census, its totals the height sum,
    # and the batch equals its pairs one at a time and its blocks of any size
    curve, table, pairs = data.draw(_census_batches(q))
    census = multiplicity_census(table, pairs)
    totals = np.transpose(census.totals())
    for k, (i, j) in enumerate(pairs):
        a, b = table_section(table, i), table_section(table, j)
        rows = census.rows(k)
        assert rows == oracle_multiplicity_census(curve, a, b)
        assert multiplicity_census(table, [(i, j)]).rows(0) == rows
        assert totals[k].tolist() == [a.height + b.height] * 2
    blocks = [(s, multiplicity_census(table, pairs[s : s + block]))
              for s in range(0, len(pairs), block)]
    for name in ("place", "degree", "m", "mu", "mu2", "v_diff"):
        joined = np.concatenate([getattr(part, name) for _, part in blocks])
        assert np.array_equal(joined, getattr(census, name))
    assert np.array_equal(np.concatenate([s + part.pair for s, part in blocks]), census.pair)


def test_census_of_an_empty_batch():
    curve = _p1(3)
    census = multiplicity_census(enumerate_sections(curve, curve.zero_divisor(), 1), [])
    assert census.pair.size == 0 and all(t.size == 0 for t in census.totals())


@pytest.mark.parametrize("q,divisor,h_max,degree", [
    (9, "0", 4, 4),
    # deg u <= 3 and deg v <= 4, so w reaches 7, short of 2 (h + deg D_+) = 8
    (3, "0,1:1;inf:-1", 6, 7),
])
def test_proposition_builds_one_sieve(monkeypatch, q, divisor, h_max, degree):
    # from a fresh sieve, the enumeration and the census of a proposition
    # share one sieve, built at the largest degree of w = u*v2 - u2*v
    import agcodes.sections as sections_mod

    F = make_field_q(q)
    monkeypatch.setattr(F, "_sieve", None)
    real, builds = sections_mod._factor_sieve, []

    def counting(field, degree):
        before = field._sieve
        out = real(field, degree)
        if field._sieve is not before:
            builds.append((field.q, field._sieve[0]))
        return out

    monkeypatch.setattr(sections_mod, "_factor_sieve", counting)
    argv = ["--q", str(q), "--divisor", divisor, "--h-max", str(h_max), "--pairs", "50"]
    assert main(["sections", "proposition", *argv]) == 0
    assert builds == [(q, degree)]


# ---------------------------------------------------------------------------
# the code over the projective alphabet


def test_section_code_height_zero_is_repetition():
    curve = _p1(4)
    code = build_section_code(curve, curve.zero_divisor(), 0)
    assert code.length == 5 and code.size == 4
    assert all(len(set(w)) == 1 for w in code.words)
    assert all(4 not in w for w in code.words)  # no infinity symbol
    assert code.metadata["measured_distance"] == 5


def test_section_code_gf2_h1():
    curve = _p1(2)
    code = build_section_code(curve, curve.zero_divisor(), 1)
    assert code.length == 3
    assert code.size == 8
    assert code.alphabet.size == 3
    assert code.metadata["claimed_distance"] == 1
    assert code.metadata["measured_distance"] >= 1
    assert naive_min_distance(code.words) == code.metadata["measured_distance"]


def test_section_code_gf5_h2():
    curve = _p1(5)
    code = build_section_code(curve, curve.zero_divisor(), 2)
    assert code.length == 6
    assert code.metadata["claimed_distance"] == 2
    assert code.metadata["measured_distance"] >= 2


def test_section_code_rejects_large_height():
    curve = _p1(2)
    with pytest.raises(PreconditionError):
        build_section_code(curve, curve.zero_divisor(), 2)  # 2h = 4 >= N = 3


def test_section_code_needs_lookup_tables():
    # order-0 words are table-driven, so fields above 256 elements refuse
    with pytest.raises(PreconditionError):
        build_section_code(_p1(257), _p1(257).zero_divisor(), 0)


def test_section_count_reference_reported():
    curve = _p1(2)
    code = build_section_code(curve, curve.zero_divisor(), 1)
    assert "count_reference" in code.metadata
    assert "count_ratio" in code.metadata
