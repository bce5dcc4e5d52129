import hashlib
import math
import random
from fractions import Fraction

import pytest

from agcodes.cli import EXIT_OK, main
from agcodes.combined import (
    CombinedParams,
    averaging_census,
    build_combined,
    distance_budget_ok,
    optimal_sigma0,
    phi_r_projective,
    threshold_check,
)
from agcodes.curves import build_curve
from agcodes.errors import PreconditionError
from agcodes.field import Polynomial, make_field_q
from agcodes.sections import enumerate_sections, phi0_projective, solution_multiplicity
from agcodes.kernels import ball_size
from conftest import (
    RationalFunction,
    RationalSection,
    census_total,
    naive_min_distance,
    section_table,
    table_section,
)


def _p1(q):
    return build_curve("p1", make_field_q(q))


# ---------------------------------------------------------------------------
# first-order words


def test_phi1_inverse_branch_example():
    # 1/x is infinite at 0; the inverse expands as t, so the coordinate is 1
    curve = _p1(2)
    D = curve.zero_divisor()
    F = curve.field
    inv_x = RationalSection(
        RationalFunction(Polynomial.one(F), Polynomial.x(F)), D, 1
    )
    word = phi_r_projective(curve, section_table(D, (inv_x,)), (curve.points[0],), 1)
    assert word == (1,)


def test_phi1_constants_are_zero_words():
    curve = _p1(4)
    D = curve.zero_divisor()
    c = RationalSection(RationalFunction.constant(curve.field, 3), D, 0)
    assert phi_r_projective(curve, section_table(D, (c,)), curve.points, 1) == (0,) * 5


def test_phi1_series_example():
    curve = _p1(2)
    D = curve.zero_divisor()
    F = curve.field
    f = RationalSection(
        RationalFunction(Polynomial.x(F), Polynomial(F, (1, 1))), D, 1
    )
    word = phi_r_projective(curve, section_table(D, (f,)), (curve.points[0],), 1)
    assert word == (1,)


def test_multiplicity_bridge():
    # multiplicity m at a point means order-r words agree for r < m and
    # split at r = m, for m up to 2
    curve = _p1(3)
    D = curve.zero_divisor()
    secs = enumerate_sections(curve, D, 2)
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        i, j = rng.randrange(len(secs)), rng.randrange(len(secs))
        if i == j:  # rows are distinct sections
            continue
        checked += 1
        a, b = secs[i : i + 1], secs[j : j + 1]
        w0a = phi0_projective(curve, a, curve.points)
        w0b = phi0_projective(curve, b, curve.points)
        w1a = phi_r_projective(curve, a, curve.points, 1)
        w1b = phi_r_projective(curve, b, curve.points, 1)
        w2a = phi_r_projective(curve, a, curve.points, 2)
        w2b = phi_r_projective(curve, b, curve.points, 2)
        for k, pt in enumerate(curve.points):
            m = solution_multiplicity(curve, secs[[i, j]], curve.place_of_point(pt))
            agrees = (w0a[k] == w0b[k], w1a[k] == w1b[k], w2a[k] == w2b[k])
            if m == 0:
                assert not agrees[0]
            elif m == 1:
                assert agrees[0] and not agrees[1]
            elif m == 2:
                assert agrees[0] and agrees[1] and not agrees[2]
            else:
                assert agrees == (True, True, True)


# ---------------------------------------------------------------------------
# builds


def test_build_combined_gf4_reference_instance():
    curve = _p1(4)
    params = CombinedParams(h=2, s0=1, d0=2, strategy="exhaustive")
    res = build_combined(curve, curve.zero_divisor(), params)
    assert res.code.metadata["n_sections"] == 1024
    assert res.search.exact_average == Fraction(1024 * ball_size(5, 1, 5), 5 ** 5)
    assert len(res.survivors) >= math.ceil(res.search.exact_average)
    assert res.code.size == len(res.survivors)
    assert res.code.metadata["measured_distance"] >= 2
    census_total, expected = averaging_census(curve, curve.zero_divisor(), params.h, params.s0)
    assert census_total == expected == 1024 * ball_size(5, 1, 5)
    assert naive_min_distance(res.code.words) == res.code.metadata["measured_distance"]


def test_build_combined_gf3_instance():
    curve = _p1(3)
    params = CombinedParams(h=1, s0=1, d0=2, strategy="exhaustive")
    res = build_combined(curve, curve.zero_divisor(), params)
    assert res.code.metadata["measured_distance"] >= 2
    assert res.code.size == len(res.survivors) >= math.ceil(res.search.exact_average)


def test_build_combined_gf7_height2_pinned(tmp_path):
    # 16807 sections over 8^8 projective centers; the artifact digest is the
    # one the exhaustive center scan produced for this instance
    out = tmp_path / "c"
    argv = ["combined", "build", "--q", "7", "--h", "2", "--s0", "1", "--d0", "2",
            "--strategy", "exhaustive", "--out", str(out)]
    assert main(argv) == EXIT_OK
    artifact = (out / "combined_code.txt").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == (
        "65a7682b9dde52d1585c98cca072f9018ab2c7ea06226922619ad796bfaaacdb"
    )
    text = artifact.decode()
    assert "param center: 0,0,0,0,0,0,0,0\n" in text
    assert "param n_survivors: 1\n" in text
    assert "param average: 957999/16777216\n" in text
    assert Fraction(957999, 16777216) == Fraction(16807 * ball_size(8, 1, 8), 8 ** 8)


@pytest.mark.parametrize("argv,name,digest", [
    (["combined", "build", "--q", "4", "--h", "4", "--s0", "0", "--d0", "2"], "combined_code.txt",
     "fff030e58372cf03c85cc31d80fa144e6cc7ae90b4e05e0f40f0b16d53d67b76"),  # 262144 sections
    (["sections", "enumerate", "--q", "3", "--divisor", "1,0,1:1;inf:-2", "--h", "2"], "sections.txt",
     "ca890c461c9cd3677dc6c364f98f1e713499f21e3db5419fc7a21bcac8bf9e86"),  # x^2 + 1 in supp(D)
    # rational points in supp(D), where the twist changes the words: 9 words
    # at measured distance 3, and 6 words at measured distance 4
    (["combined", "build", "--q", "4", "--divisor", "0,1:2;1,1:-1;inf:-1", "--h", "2", "--s0", "1",
      "--d0", "2"], "combined_code.txt",
     "312839753239b40a9a6fcf56fb743082d547c694bfe9fac4bcadd414a214b939"),
    (["combined", "build", "--q", "5", "--divisor", "2,1:1;inf:-1", "--h", "2", "--s0", "1",
      "--d0", "2"], "combined_code.txt",
     "2798f9d053dea9558b418c27f5f25b3c18a49e15d772269956785bff5648b08a"),
])
def test_section_artifacts_pinned(tmp_path, argv, name, digest):
    # digests from earlier, independent implementations: the object-per-section
    # enumeration (first two) and the symbolic twist series (all four)
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_build_combined_rejects_repeated_points():
    curve = _p1(3)
    p = curve.points
    params = CombinedParams(h=1, s0=1, d0=2, strategy="exhaustive")
    with pytest.raises(PreconditionError, match="repeated"):
        build_combined(curve, curve.zero_divisor(), params, points=(p[0], p[0], p[1], p[2]))


def test_build_combined_nontrivial_divisor():
    curve = _p1(3)
    from agcodes.field import enumerate_irreducibles

    quad = next(p for p in enumerate_irreducibles(curve.field, 2) if p.degree == 2)
    D = curve.divisor({curve.place_of_poly(quad): 1, curve.place_inf(): -2})
    assert D.degree == 0
    params = CombinedParams(h=1, s0=1, d0=2, strategy="exhaustive")
    res = build_combined(curve, D, params)
    assert len(res.survivors) >= 2
    assert res.code.metadata["measured_distance"] >= 2
    assert res.code.size == len(res.survivors)


def test_averaging_identity_gf2():
    curve = _p1(2)
    for h in (0, 1):
        for s0 in (0, 1, 2):
            total, expected = averaging_census(curve, curve.zero_divisor(), h, s0)
            assert total == expected


def test_zero_radius_reduces_to_shared_evaluation():
    # with radius 0 every survivor evaluates to the center word exactly
    curve = _p1(4)
    D = curve.zero_divisor()
    params = CombinedParams(h=3, s0=0, d0=4, strategy="exhaustive")
    res = build_combined(curve, D, params)
    assert res.code.metadata["claimed_distance"] == 2 * 5 - 2 * 3
    for k in range(len(res.survivors)):
        assert phi0_projective(curve, res.survivors[k : k + 1], res.points) == res.search.centers[0]
    assert res.code.metadata["measured_distance"] >= 4
    # pairwise: the total agreement multiplicity bound forces >= 2N - 2h
    assert len(res.survivors) >= 2


def test_zero_radius_small_height_single_survivor():
    # 2h < N with radius 0 leaves at most one survivor per center
    curve = _p1(2)
    params = CombinedParams(h=1, s0=0, d0=4, strategy="exhaustive")
    res = build_combined(curve, curve.zero_divisor(), params)
    assert len(res.survivors) <= 1


def test_exhaustive_at_least_random():
    curve = _p1(3)
    k = dict(h=1, s0=1, d0=2)
    best = build_combined(curve, curve.zero_divisor(), CombinedParams(**k, strategy="exhaustive"))
    rand = build_combined(curve, curve.zero_divisor(), CombinedParams(**k, strategy="random", seed=5))
    assert len(rand.survivors) <= len(best.survivors)


def test_agreement_accounting_chain():
    # for survivor pairs: a = #{phi0 agrees} >= N - 2 s0, the double
    # agreements b satisfy b >= a - d(phi1), and total multiplicity covers
    # a + b while staying within 2h
    curve = _p1(4)
    D = curve.zero_divisor()
    params = CombinedParams(h=2, s0=1, d0=2, strategy="exhaustive")
    res = build_combined(curve, D, params)
    n = len(res.points)
    for i in range(len(res.survivors)):
        for j in range(i + 1, len(res.survivors)):
            f, f2 = res.survivors[i : i + 1], res.survivors[j : j + 1]
            w0a = phi0_projective(curve, f, res.points)
            w0b = phi0_projective(curve, f2, res.points)
            w1a = phi_r_projective(curve, f, res.points, 1)
            w1b = phi_r_projective(curve, f2, res.points, 1)
            a = sum(1 for x, y in zip(w0a, w0b) if x == y)
            b = sum(1 for (x, y, u, v) in zip(w0a, w0b, w1a, w1b) if x == y and u == v)
            d1 = sum(1 for x, y in zip(w1a, w1b) if x != y)
            assert a >= n - 2 * params.s0
            assert b >= a - d1
            total = census_total(curve, *(table_section(res.survivors, k) for k in (i, j)))
            assert a + b <= total <= 2 * params.h
            assert 2 * n - 4 * params.s0 - d1 <= 2 * params.h


def test_param_validation():
    curve = _p1(4)
    with pytest.raises(PreconditionError):
        build_combined(curve, curve.zero_divisor(), CombinedParams(h=3, s0=1, d0=2))
    with pytest.raises(PreconditionError):
        build_combined(curve, curve.zero_divisor(), CombinedParams(h=0, s0=4, d0=1))
    with pytest.raises(PreconditionError):
        build_combined(curve, curve.zero_divisor(), CombinedParams(h=1, s0=0, d0=0))
    with pytest.raises(PreconditionError, match="trials must be nonnegative"):
        build_combined(curve, curve.zero_divisor(),
                       CombinedParams(h=1, s0=0, d0=2, strategy="random", trials=-1))
    assert distance_budget_ok(5, 2, 1, 2)
    assert not distance_budget_ok(5, 3, 1, 2)


# ---------------------------------------------------------------------------
# the closed-form radius optimizer and the count threshold


def test_optimal_sigma0_values():
    assert optimal_sigma0(4) == Fraction(1, 65)
    assert optimal_sigma0(2) == Fraction(1, 9)
    assert optimal_sigma0(9) == Fraction(1, 730)


def test_optimal_sigma0_value_identity():
    from mpmath import mp, mpf, log

    from agcodes.bounds import entropy

    with mp.workdps(60):
        s = optimal_sigma0(2)
        sd = mpf(s.numerator) / s.denominator
        lhs = log(3) / log(2) * entropy(3, s) - 4 * sd
        rhs = log(1 + mpf(1) / 8) / log(2)
        assert abs(lhs - rhs) < mpf("1e-12")


def test_optimal_sigma0_against_golden_section():
    from mpmath import mp, mpf, log

    from agcodes.bounds import entropy
    from conftest import golden_section_max

    q = 9
    with mp.workdps(60):
        loc = golden_section_max(
            lambda s: log(q + 1) / log(q) * entropy(q + 1, s) - 4 * s,
            mpf("1e-30"),
            mpf(q) / (q + 1) - mpf("1e-6"),
        )
        target = optimal_sigma0(q)
        assert abs(loc - mpf(target.numerator) / target.denominator) < mpf("1e-9")


def test_threshold_examples():
    assert threshold_check(16, 2, 5) is True
    assert threshold_check(2, 0, 3) is False
    assert threshold_check(4, 4, 15) is False  # boundary is strict
