"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured facts once its exact checks hold.

Every distance below is measured by exhaustive search, every identity is
exact integer arithmetic, and every closed form is certified against an
independent numeric search at the stated tolerance.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

from agcodes import bounds, kernels
from agcodes.cli import EXIT_OK, main as cli_main
from agcodes.codes import build_goppa, closest_pair, subspace_proof
from agcodes.combined import (
    CombinedParams,
    averaging_census,
    build_combined,
    optimal_sigma0,
)
from agcodes.curves import build_curve, default_eval_points
from agcodes.field import Polynomial, enumerate_irreducibles, make_field, make_field_q
from agcodes.sections import enumerate_sections
from agcodes.xing import XingParams, build_xing, optimal_sigma, search_centers
from conftest import (
    census_rows,
    golden_section_max,
    naive_min_distance,
    oracle_evaluate,
    survivor_functions,
    table_section,
)


def _p1(q):
    return build_curve("p1", make_field_q(q))


def _deg1_divisor_gf2(curve):
    cubic = Polynomial(curve.field, (1, 1, 0, 1))
    quad = Polynomial(curve.field, (1, 1, 1))
    return curve.divisor({curve.place_of_poly(cubic): 1, curve.place_of_poly(quad): -1})


# ---------------------------------------------------------------------------
# 1. exact averaging identities


def test_criterion_1_averaging_identities():
    start = time.perf_counter()
    curve = _p1(2)
    D = _deg1_divisor_gf2(curve)
    for m, radii in ((1, (1,)), (2, (1, 1)), (2, (1, 0))):
        res = search_centers(curve, D, XingParams(m=m, radii=radii, strategy="census"))
        assert res.census_total == res.expected_census
    for h in (0, 1):
        for s0 in (0, 1, 2, 3):
            total, expected = averaging_census(curve, curve.zero_divisor(), h, s0)
            assert total == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 PASS - averaging identities exact "
          f"(ball-filter census equals count formula; {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. multiplicity totals


def test_criterion_2_multiplicity_proposition():
    start = time.perf_counter()
    pairs_done = 0
    for q in (2, 3, 4):
        curve = _p1(q)
        D = curve.zero_divisor()
        secs = enumerate_sections(curve, D, 3)
        rng = random.Random(4096 + q)
        checked = 0
        while checked < 80:
            a = table_section(secs, rng.randrange(len(secs)))
            b = table_section(secs, rng.randrange(len(secs)))
            if a.f == b.f:
                continue
            rows = census_rows(a, b)
            total = sum(r["m"] * r["place"].degree for r in rows)
            assert total == a.height + b.height
            assert sum((r["m"] - r["mu"] - r["mu2"]) * r["place"].degree for r in rows) == 0
            checked += 1
        pairs_done += checked
    elapsed = time.perf_counter() - start
    assert pairs_done >= 200
    assert elapsed < 120
    print(f"\nACCEPTANCE 2 PASS - multiplicity total equals height sum and the "
          f"conservation identity vanishes on {pairs_done} pairs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. distance guarantees on the golden suite


def _golden_suite():
    builds = []

    p15 = _p1(5)
    builds.append(("goppa-gf5-[5,3]", build_goppa(p15, p15.divisor({p15.place_inf(): 2}))))
    p14 = _p1(4)
    builds.append(("goppa-gf4-repetition", build_goppa(p14, p14.zero_divisor())))
    h2 = build_curve("hermitian", make_field(2, 2))
    builds.append(("goppa-hermitian2-[8,3]", build_goppa(h2, h2.one_point_divisor(3))))
    h3 = build_curve("hermitian", make_field(3, 2))
    builds.append(("goppa-hermitian3-[27,3]", build_goppa(h3, h3.one_point_divisor(5))))
    p12 = _p1(2)
    pi = Polynomial(p12.field, (1, 1, 1))
    builds.append(("goppa-gf2-quadratic-place", build_goppa(p12, p12.divisor({p12.place_of_poly(pi): 1}))))

    D1 = _deg1_divisor_gf2(p12)
    builds.append(("xing-gf2-m1", build_xing(p12, D1, XingParams(m=1, radii=(1,))).code))
    D7 = p14.divisor({p14.place_inf(): 7})
    builds.append(("xing-gf4-degenerate", build_xing(p14, D7, XingParams(m=1, radii=(0,))).code))
    p13 = _p1(3)
    quad3 = next(p for p in enumerate_irreducibles(p13.field, 2) if p.degree == 2)
    Dq3 = p13.divisor({p13.place_of_poly(quad3): 1})
    builds.append(("xing-gf3-m1", build_xing(p13, Dq3, XingParams(m=1, radii=(1,))).code))
    builds.append((
        "xing-hermitian2-random",
        build_xing(h2, h2.one_point_divisor(7),
                   XingParams(m=1, radii=(1,), strategy="random", seed=7, trials=48)).code,
    ))

    builds.append((
        "combined-gf4-h2",
        build_combined(p14, p14.zero_divisor(), CombinedParams(h=2, s0=1, d0=2)).code,
    ))
    builds.append((
        "combined-gf3-h1",
        build_combined(p13, p13.zero_divisor(), CombinedParams(h=1, s0=1, d0=2)).code,
    ))
    builds.append((
        "combined-gf4-degenerate",
        build_combined(p14, p14.zero_divisor(), CombinedParams(h=3, s0=0, d0=4)).code,
    ))
    Dnt = p13.divisor({p13.place_of_poly(quad3): 1, p13.place_inf(): -2})
    builds.append((
        "combined-gf3-twisted",
        build_combined(p13, Dnt, CombinedParams(h=1, s0=1, d0=2)).code,
    ))
    return builds


def test_criterion_3_distance_guarantees():
    start = time.perf_counter()
    suite = _golden_suite()
    assert len(suite) >= 10
    lines = []
    proven = 0
    for name, code in suite:
        claimed = code.metadata["claimed_distance"]
        measured = code.metadata["measured_distance"]
        assert code.size >= 2, name
        assert measured is not None and measured >= claimed, name
        if code.size <= 300:
            assert naive_min_distance(code.words) == measured, name
        # the minimum-weight route names the pair the pairwise scan names
        assert closest_pair(code) == kernels.pairwise_min_distance(code.words), name
        proven += subspace_proof(code)
        # injectivity of the final map was asserted at build time; the word
        # count doubles as a direct witness
        if code.metadata["construction"] in ("xing", "combined"):
            assert code.size == code.metadata["n_survivors"], name
        lines.append(f"{name}: N={code.length} words={code.size} "
                     f"claimed={claimed} measured={measured}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print("\nACCEPTANCE 3 PASS - exhaustive distances meet every claim "
          f"({len(suite)} golden instances, {proven} by the subspace proof, {elapsed:.1f}s)")
    for line in lines:
        print("   ", line)


# ---------------------------------------------------------------------------
# 4. closed-form optimizers


def test_criterion_4_closed_form_optimizers():
    qs = (2, 3, 4, 9, 16, 49)
    with mp.workdps(60):
        for q in qs:
            lq = mpmath.log(q)
            for i in (1, 2, 3, 4):

                def objective(s, q=q, i=i):
                    return bounds.entropy(q, s) - 2 * i * s

                closed = optimal_sigma(q, i)
                closed_m = mpf(closed.numerator) / closed.denominator
                loc = golden_section_max(
                    objective, mpf(10) ** -30, mpf(q - 1) / q - mpf("1e-8")
                )
                assert abs(loc - closed_m) < mpf("1e-9"), (q, i)
                value = objective(closed)
                target = mpmath.log(1 + mpf(q - 1) / mpf(q) ** (2 * i)) / lq
                assert abs(value - target) < mpf("1e-12"), (q, i)
                # derivative changes sign across the closed-form point
                eps = closed_m / 8
                assert objective(closed_m) > objective(closed_m - eps), (q, i)
                assert objective(closed_m) > objective(closed_m + eps), (q, i)

            def objective0(s, q=q):
                return mpmath.log(q + 1) / mpmath.log(q) * bounds.entropy(q + 1, s) - 4 * s

            closed0 = optimal_sigma0(q)
            closed0_m = mpf(closed0.numerator) / closed0.denominator
            loc0 = golden_section_max(
                objective0, mpf(10) ** -30, mpf(q) / (q + 1) - mpf("1e-8")
            )
            assert abs(loc0 - closed0_m) < mpf("1e-9"), q
            value0 = objective0(closed0)
            target0 = mpmath.log(1 + mpf(q) ** -3) / mpmath.log(q)
            assert abs(value0 - target0) < mpf("1e-12"), q
    print("\nACCEPTANCE 4 PASS - numeric argmax matches the closed-form radii "
          "to 1e-9 and optimum values match the gain logs to 1e-12 "
          "(q in {2,3,4,9,16,49}, orders 1..4)")


# ---------------------------------------------------------------------------
# 5. bound landscape


def test_criterion_5_bound_landscape():
    assert bounds.gv_crossing(49) is True
    assert bounds.gv_crossing(25) is False
    for q in range(2, 65):
        assert bounds.new_gain(q) > bounds.xing_gain_limit(q)
    with mp.workdps(60):
        for q in (2, 3, 4, 9, 16, 49):
            for k in range(1, 1001):
                d = Fraction(k, 1001)
                assert abs(bounds.entropy(q, d) - bounds.entropy_alt(q, d)) < mpf("1e-30")
    golden = Path(__file__).parent / "golden" / "frontier_q49_grid99.csv"
    assert bounds.frontier_csv(49, 99) == golden.read_text()
    print("\nACCEPTANCE 5 PASS - crossing flags, gain ordering for q=2..64, "
          "entropy forms to 1e-30 on 1000-point grids, frontier CSV bit-exact")


# ---------------------------------------------------------------------------
# 6. degenerations


def test_criterion_6_degenerations():
    # ball-free order-1 build with the zero center against the plain
    # evaluation code of the shrunken divisor
    p14 = _p1(4)
    F = p14.field
    D = p14.divisor({p14.place_inf(): 7})
    points = default_eval_points(p14, D)
    n = len(points)
    build = build_xing(p14, D, XingParams(m=1, radii=(0,)))
    assert build.search.centers == ((0,) * n,)
    survivors = survivor_functions(p14, D, build.search)
    for f in survivors:
        assert all(oracle_evaluate(p14, f, p) == 0 for p in points)
    goppa = build_goppa(p14, p14.divisor({p14.place_inf(): 3}), points=points)
    assert goppa.size == build.code.size == F.q ** 4
    scale = []
    for j, pj in enumerate(points):
        w = 1
        for i, pi in enumerate(points):
            if i != j:
                w = F.mul(w, F.sub(pj.coords[0], pi.coords[0]))
        scale.append(w)
    mapped = {tuple(F.mul(word[j], scale[j]) for j in range(n)) for word in goppa.words.tolist()}
    assert mapped == set(map(tuple, build.code.words.tolist()))
    assert goppa.metadata["measured_distance"] == build.code.metadata["measured_distance"]

    # radius-0 combined build meets the distance floor 2(N - h)
    res = build_combined(p14, p14.zero_divisor(), CombinedParams(h=3, s0=0, d0=4))
    assert res.code.metadata["claimed_distance"] == 2 * (5 - 3)
    assert res.code.metadata["measured_distance"] >= 4
    # and under the plain-code regime it collapses to a single section
    tight = build_combined(_p1(2), _p1(2).zero_divisor(),
                           CombinedParams(h=1, s0=0, d0=4))
    assert len(tight.survivors) <= 1
    print("\nACCEPTANCE 6 PASS - zero-radius order-1 build reproduces the "
          "evaluation code (word sets equal after the coordinate scaling) and "
          "the zero-radius section build meets the 2(N-h) floor")


# ---------------------------------------------------------------------------
# 7. structural counts


def test_criterion_7_structural_counts():
    h2 = build_curve("hermitian", make_field(2, 2))
    h3 = build_curve("hermitian", make_field(3, 2))
    assert h2.n_points == 9
    assert h3.n_points == 28
    for curve in (h2, h3):
        g = curve.genus
        for m in range(2 * g - 1, 21):
            dim = len(curve.riemann_roch_basis(curve.one_point_divisor(m)))
            assert dim == m - g + 1
    secs = enumerate_sections(_p1(2), _p1(2).zero_divisor(), 1)
    assert len(secs) == 8
    print("\nACCEPTANCE 7 PASS - point counts 9 and 28, one-point dimensions "
          "match degree - genus + 1, and 8 height-1 sections over GF(2)")


# ---------------------------------------------------------------------------
# 8. reproducibility


def test_criterion_8_replay_byte_identical(tmp_path):
    commands = [
        (["goppa", "build", "--q", "5", "--divisor", "inf:2"], "goppa_code.txt"),
        (["xing", "build", "--q", "2", "--divisor", "1,1,0,1:1;1,1,1:-1",
          "--m", "1", "--radii", "1"], "xing_code.txt"),
        (["xing", "build", "--q", "4", "--curve", "hermitian", "--divisor", "inf:7",
          "--m", "1", "--radii", "1", "--strategy", "random", "--seed", "7",
          "--trials", "48"], "xing_code.txt"),
        (["combined", "build", "--q", "4", "--h", "2", "--s0", "1", "--d0", "2"],
         "combined_code.txt"),
        (["bounds", "table", "--q", "49", "--grid", "99"], "frontier_q49.csv"),
    ]
    for i, (argv, artifact) in enumerate(commands):
        out = tmp_path / f"build{i}"
        assert cli_main(argv + ["--out", str(out)]) == EXIT_OK
        replay = tmp_path / f"replay{i}"
        rc = cli_main(["replay", "manifest", str(out / "manifest.json"),
                       "--out", str(replay)])
        assert rc == EXIT_OK
        assert (out / artifact).read_bytes() == (replay / artifact).read_bytes()
    print(f"\nACCEPTANCE 8 PASS - {len(commands)} golden manifests replay to "
          "byte-identical artifacts")
