import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from agcodes import bounds
from agcodes.errors import PreconditionError
from conftest import golden_section_max, oracle_frontier_csv, oracle_frontier_rows


def test_entropy_endpoints():
    assert bounds.entropy(2, 0) == 0
    assert bounds.entropy(7, Fraction(0)) == 0
    with mp.workdps(60):
        assert abs(bounds.entropy(3, 1) - mpmath.log(2) / mpmath.log(3)) < mpf("1e-50")


@pytest.mark.parametrize("q", [2, 4, 49])
def test_entropy_maximum_is_one(q):
    with mp.workdps(60):
        assert abs(bounds.entropy(q, Fraction(q - 1, q)) - 1) < mpf("1e-30")


def test_entropy_h2_half():
    with mp.workdps(60):
        assert abs(bounds.entropy(2, Fraction(1, 2)) - 1) < mpf("1e-30")


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 49])
def test_entropy_forms_agree(q):
    with mp.workdps(60):
        for k in range(1, 100):
            d = Fraction(k, 100)
            assert abs(bounds.entropy(q, d) - bounds.entropy_alt(q, d)) < mpf("1e-30")


def test_entropy_domain():
    with pytest.raises(PreconditionError):
        bounds.entropy(2, Fraction(3, 2))
    with pytest.raises(PreconditionError):
        bounds.entropy(2, -0.25)


def test_gv_rate_examples():
    with mp.workdps(60):
        assert abs(bounds.gv_feasible_rate(2, Fraction(1, 2))) < mpf("1e-30")
        # the two entropy forms give the same feasibility rate
        v1 = bounds.gv_feasible_rate(49, Fraction(1, 2))
        v2 = 1 - bounds.entropy_alt(49, Fraction(1, 2))
        assert abs(v1 - v2) < mpf("1e-30")
        assert 0 < v1 < 1
        assert bounds.gv_feasible_rate(5, mpf("1e-12")) > 1 - mpf("1e-9")
    with pytest.raises(PreconditionError):
        bounds.gv_feasible_rate(2, Fraction(3, 4))


def test_goppa_line_values():
    assert bounds.goppa_line(49) == Fraction(5, 6)
    assert bounds.goppa_line(16) == Fraction(2, 3)
    assert bounds.goppa_line(4) == 0
    with pytest.raises(PreconditionError):
        bounds.goppa_line(8)


def test_xing_gain_single_term():
    with mp.workdps(60):
        expected = mpmath.log(1 + mpf(3) / 256) / mpmath.log(4)
        assert abs(bounds.xing_gain(4, 1) - expected) < mpf("1e-40")


def test_xing_gain_monotone_in_m():
    with mp.workdps(60):
        values = [bounds.xing_gain(4, m) for m in range(1, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < bounds.xing_gain_limit(4) for v in values)


def test_xing_gain_reaches_the_limit_past_the_summed_terms():
    # terms past the limit's tail bound are left out, so a large order costs
    # no more than the limit and never exceeds it
    for q in (4, 49, 256):
        limit = bounds.xing_gain_limit(q)
        assert bounds.xing_gain(q, 10 ** 6) == limit
        assert bounds.xing_gain(q, 5) < limit


def test_xing_gain_limit_against_series_oracle():
    # independent summation with an explicit stopping point
    with mp.workdps(60):
        q = 4
        oracle = mpf(0)
        for i in range(2, 80):
            oracle += mpmath.log(1 + mpf(q - 1) / mpf(q) ** (2 * i)) / mpmath.log(q)
        assert abs(bounds.xing_gain_limit(q) - oracle) < mpf("1e-40")


@pytest.mark.parametrize("q", [16, 64, 256])
def test_limit_gain_asymptote(q):
    with mp.workdps(60):
        residual = abs(
            bounds.xing_gain_limit(q) * mpmath.log(q) - (mpf(q) ** -3 - mpf(q) ** -4)
        )
        assert residual <= 10 * mpf(q) ** -5


@pytest.mark.parametrize("q", [16, 64, 256])
def test_new_gain_asymptote(q):
    with mp.workdps(60):
        residual = abs(bounds.new_gain(q) * mpmath.log(q) - mpf(q) ** -3)
        assert residual <= 10 * mpf(q) ** -6


def test_new_gain_value():
    with mp.workdps(60):
        assert abs(bounds.new_gain(2) - mpmath.log(mpf(9) / 8) / mpmath.log(2)) < mpf("1e-40")


def test_new_gain_beats_limit_gain():
    for q in range(2, 65):
        assert bounds.new_gain(q) > bounds.xing_gain_limit(q)


def test_gains_table_supports_non_square_q():
    # the gains need no square alphabet, unlike the frontier and the crossing
    for q in [2, 3, 5, 8]:
        assert bounds.new_gain(q) > bounds.xing_gain_limit(q) > bounds.xing_gain(q, 1) > 0


def test_gv_crossing_values():
    assert bounds.gv_crossing(49) is True
    assert bounds.gv_crossing(25) is False
    assert bounds.gv_crossing(64) is True
    with pytest.raises(PreconditionError):
        bounds.gv_crossing(8)


def _golden_peak(q):
    """(argmax, max) of H_q(delta) - delta by the conftest golden-section
    search, independent of the closed form."""
    with mp.workdps(60):
        loc = golden_section_max(
            lambda d: bounds.entropy(q, d) - d, mpf("1e-20"), mpf(q - 1) / q - mpf("1e-20")
        )
        return loc, bounds.entropy(q, loc) - loc


@pytest.mark.parametrize("q", [2, 3, 4, 9, 49, 64, 1024])
def test_crossing_peak_against_golden_section(q):
    argmax, peak = bounds.entropy_gap_max(q)
    loc, value = _golden_peak(q)
    with mp.workdps(60):
        assert abs(argmax - loc) < mpf("1e-9")
        assert abs(peak - value) < mpf("1e-12")


@pytest.mark.parametrize("q0", range(2, 13))
def test_gv_crossing_against_golden_section(q0):
    _, value = _golden_peak(q0 * q0)
    with mp.workdps(60):
        assert bounds.gv_crossing(q0 * q0) is bool(value > mpf(1) / (q0 - 1))


def test_gv_crossing_beyond_exact_range():
    # past the bound the answer comes from the q0 >= 7 argument; the integer
    # test still holds on both sides of it
    for q0 in (bounds._CROSSING_EXACT_Q0_MAX, bounds._CROSSING_EXACT_Q0_MAX + 1):
        q = q0 * q0
        assert (2 * q - 1) ** (q0 - 1) > q ** q0
        assert bounds.gv_crossing(q) is True
    assert bounds.gv_crossing(10 ** 40) is True


@pytest.mark.parametrize("q", [1, 0, -4])
def test_entropy_gap_max_requires_two_symbols(q):
    with pytest.raises(PreconditionError):
        bounds.entropy_gap_max(q)


# ---------------------------------------------------------------------------
# frontier table


def _frontier_rows(q, grid, m=1):
    """The table's rows as exact Fractions of the integers frontier_csv prints."""
    return [{c: Fraction(n, d) for c, (n, d) in zip(bounds.FRONTIER_COLUMNS, cells)}
            for cells in bounds._frontier_cells(q, grid, m)]


def test_frontier_rows_basics():
    rows = _frontier_rows(49, 99)
    assert len(rows) == 99
    assert float(rows[0]["delta"]) == 0.01
    assert float(rows[-1]["delta"]) == 0.99
    for row in rows:
        for key in bounds.FRONTIER_COLUMNS[1:]:
            assert float(row[key]) >= 0.0
            assert math.isfinite(float(row[key]))


def test_gv_profile_monotone_decreasing():
    # the feasibility rate falls strictly with delta inside its domain
    rows = _frontier_rows(49, 99)
    interior = [r["R_GV"] for r in rows if 0 < float(r["delta"]) < 48 / 49]
    for a, b in zip(interior, interior[1:]):
        if b > 0:
            assert b < a


def test_frontier_goppa_spot_value():
    # R_Goppa is rational, so the row holds it exactly
    rows = _frontier_rows(49, 99)
    row = next(r for r in rows if r["delta"] == Fraction(3, 10))
    assert row["R_Goppa"] == 1 - Fraction(1, 6) - Fraction(3, 10)


def test_frontier_family_ordering():
    # gains order the families; ties only at the zero clip
    for q in (16, 49):
        for row in _frontier_rows(q, 99):
            seq = [row["R_Goppa"], row["R_Xing_m"], row["R_Xing_inf"], row["R_new"]]
            for a, b in zip(seq, seq[1:]):
                assert b >= a
                if b > 0 and a > 0:
                    assert b > a


def test_frontier_csv_format():
    text = bounds.frontier_csv(49, 9)
    lines = text.splitlines()
    assert lines[0] == "delta,R_GV,R_Goppa,R_Xing_m,R_Xing_inf,R_new"
    assert len(lines) == 10
    assert text.endswith("\n")
    assert "\r" not in text
    for line in lines[1:]:
        assert len(line.split(",")) == 6


def test_frontier_csv_matches_golden_file():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "frontier_q49_grid99.csv"
    assert bounds.frontier_csv(49, 99) == golden.read_text()


@pytest.mark.parametrize("q", [4, 9, 16, 25, 49, 121, 256])
def test_frontier_csv_matches_oracle(q):
    # the integer table prints the bytes of the row-by-row 60-digit oracle
    for grid in list(range(1, 41)) + [62, 93, 99, 150]:
        for m in (1, 3):
            assert bounds.frontier_csv(q, grid, m) == oracle_frontier_csv(q, grid, m), (grid, m)


def test_fixed_point_rounding_ignores_the_working_precision():
    # round(2^200 x), half to even, whatever mp.dps the caller has set
    with mp.workdps(60):
        xs = [mpmath.log(7), -mpmath.log(3) / 11, mpf(0), mpf(3) / 2 ** 201, mpf(5) / 2 ** 201]
    with mp.workdps(120):  # ample for nint to round these exactly
        expected = [int(mpmath.nint(mpmath.ldexp(x, 200))) for x in xs]
    for dps in (15, 60, 100):
        with mp.workdps(dps):
            assert [bounds._fixed(x) for x in xs] == expected
    assert expected[3:] == [2, 2]


@pytest.mark.parametrize("q,grid,m", [(4, 93, 1), (49, 99, 2), (256, 37, 3)])
def test_frontier_rows_match_oracle(q, grid, m):
    # the exact rows lie within the oracle's 60-digit rounding, at the
    # working precision callers get (the rows are built outside workdps)
    rows = _frontier_rows(q, grid, m)
    with mp.workdps(60):
        for row, expected in zip(rows, oracle_frontier_rows(q, grid, m)):
            for c in bounds.FRONTIER_COLUMNS:
                x = row[c]
                assert abs(mpf(x.numerator) / x.denominator - expected[c]) < mpf("1e-50")


def test_frontier_requires_square_q():
    with pytest.raises(PreconditionError):
        bounds.frontier_csv(5, 9)


# ---------------------------------------------------------------------------
# finite-N ball exponent


def test_ball_entropy_limit_q2():
    rep = bounds.ball_entropy_limit_check(2, Fraction(1, 2), 1000)
    assert rep.ok and rep.gap < 0.03


def test_ball_entropy_limit_q4():
    rep = bounds.ball_entropy_limit_check(4, Fraction(1, 4), 400)
    assert rep.ok and rep.gap < 0.03


def test_ball_entropy_zero_delta():
    rep = bounds.ball_entropy_limit_check(3, Fraction(0), 100)
    assert rep.exponent == 0 and rep.entropy_value == 0


def test_ball_entropy_requires_integral_count():
    with pytest.raises(PreconditionError):
        bounds.ball_entropy_limit_check(2, Fraction(1, 3), 100)


# ---------------------------------------------------------------------------
# divergent initial slope of the refined objectives


@pytest.mark.parametrize("q,i", [(2, 1), (4, 2), (49, 4)])
def test_objective_slope_diverges_near_zero(q, i):
    # the derivative of H_q(s) - 2is grows without bound as s -> 0: probing
    # at s = q^-(1010 + 2i) puts the finite-difference slope above 1000
    with mp.workdps(60):
        s = mpf(q) ** -(1010 + 2 * i)
        eps = s / 2

        def g(x):
            return bounds.entropy(q, x) - 2 * i * x

        slope = (g(s + eps) - g(s - eps)) / (2 * eps)
        assert slope > 1000
        # and the slope is larger at smaller arguments (divergence, not a peak)
        slope_coarser = (g(mpf("2e-4")) - g(mpf("1e-4"))) / mpf("1e-4")
        assert slope > slope_coarser
