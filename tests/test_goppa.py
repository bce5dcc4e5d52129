import random

import numpy as np
import pytest

from agcodes import kernels
from agcodes.codes import (
    build_goppa,
    code_from_text,
    code_to_text,
    exact_min_distance,
    goppa_sum_check,
    make_code,
    Alphabet,
)
from agcodes.curves import build_curve, default_eval_points
from agcodes.errors import PreconditionError, VerificationError
from agcodes.field import make_field
from conftest import (
    function_from_index,
    naive_min_distance,
    oracle_evaluate,
    oracle_riemann_roch_basis,
)


def test_rs_like_code_over_gf5():
    curve = build_curve("p1", make_field(5, 1))
    D = curve.divisor({curve.place_inf(): 2})
    code = build_goppa(curve, D)
    assert code.length == 5 and code.metadata["dim"] == 3 and code.size == 125
    assert code.metadata["claimed_distance"] == 3
    assert code.metadata["measured_distance"] == 3
    assert naive_min_distance(code.words) == 3


def test_repetition_code_gf4():
    curve = build_curve("p1", make_field(2, 2))
    code = build_goppa(curve, curve.zero_divisor())
    assert code.length == 5 and code.size == 4
    assert code.words.tolist() == [[c] * 5 for c in range(4)]
    assert code.metadata["measured_distance"] == 5


def test_hermitian_8_3_code():
    curve = build_curve("hermitian", make_field(2, 2))
    code = build_goppa(curve, curve.one_point_divisor(3))
    assert code.length == 8 and code.metadata["dim"] == 3
    assert code.metadata["claimed_distance"] == 5
    assert code.metadata["measured_distance"] == naive_min_distance(code.words)
    assert code.metadata["measured_distance"] >= 5


def test_hermitian_q0_3_code():
    curve = build_curve("hermitian", make_field(3, 2))
    code = build_goppa(curve, curve.one_point_divisor(5))
    assert code.length == 27 and code.metadata["dim"] == 3
    assert code.metadata["claimed_distance"] == 22
    # dual route: linear weight shortcut against full pairwise scan
    weight_route = exact_min_distance(code)
    pairwise_route, _ = kernels.pairwise_min_distance(code.words)
    assert weight_route == pairwise_route >= 22


def test_p1_gf2_degree_two_divisor():
    curve = build_curve("p1", make_field(2, 1))
    from agcodes.field import Polynomial

    pi = Polynomial(curve.field, (1, 1, 1))
    D = curve.divisor({curve.place_of_poly(pi): 1})
    code = build_goppa(curve, D)
    assert code.length == 3 and code.size == 8
    assert code.metadata["claimed_distance"] == 1
    assert code.metadata["measured_distance"] == 1


def test_word_count_matches_riemann_roch():
    curve = build_curve("hermitian", make_field(2, 2))
    for m in range(1, 7):
        code = build_goppa(curve, curve.one_point_divisor(m))
        if m > 2 * curve.genus - 2:
            assert code.size == curve.field.q ** (m - curve.genus + 1)


def test_nonzero_sections_vanish_at_most_deg_d_points():
    curve = build_curve("p1", make_field(5, 1))
    D = curve.divisor({curve.place_inf(): 3})
    points = default_eval_points(curve, D)
    basis = oracle_riemann_roch_basis(curve, D)
    F = curve.field
    rng = random.Random(2024)
    for _ in range(1000):
        idx = rng.randrange(1, F.q ** len(basis))
        f = function_from_index(F, basis, idx)
        zeros = sum(1 for p in points if oracle_evaluate(curve, f, p) == 0)
        assert zeros <= D.degree


def test_goppa_sum_check_rows():
    p15 = build_curve("p1", make_field(5, 1))
    rs = build_goppa(p15, p15.divisor({p15.place_inf(): 2}))
    herm = build_curve("hermitian", make_field(2, 2))
    h83 = build_goppa(herm, herm.one_point_divisor(3))
    p14 = build_curve("p1", make_field(2, 2))
    rep = build_goppa(p14, p14.zero_divisor())
    rows = goppa_sum_check([rs, h83, rep])
    assert all(r["ok"] for r in rows)
    # a code read back from its file carries dim and genus as text
    assert goppa_sum_check([code_from_text(code_to_text(c)) for c in (rs, h83)]) == rows[:2]
    from fractions import Fraction

    assert rows[0]["lhs"] == Fraction(6, 5) and rows[0]["rhs"] == 1
    assert rows[2]["lhs"] == Fraction(1, 5) + 1


def test_build_goppa_preconditions():
    curve = build_curve("p1", make_field(5, 1))
    with pytest.raises(PreconditionError):
        build_goppa(curve, curve.divisor({curve.place_inf(): 7}))
    D = curve.divisor({curve.place_inf(): 2})
    with pytest.raises(PreconditionError):
        build_goppa(curve, D, points=curve.points)  # includes supp(D)


def test_exact_min_distance_edge_cases():
    alpha = Alphabet("field", 4)
    assert exact_min_distance(make_code(alpha, 5, [])) is None
    assert exact_min_distance(make_code(alpha, 5, [(0, 0, 0, 0, 0)])) is None
    two = make_code(alpha, 5, [(0, 0, 0, 0, 0), (0, 0, 0, 1, 1)])
    assert exact_min_distance(two) == 2


def test_exact_min_distance_guard():
    from agcodes import codes as codes_mod

    alpha = Alphabet("field", 2)
    oversized = codes_mod.Code(
        alpha, 1, tuple([(0,)] * (codes_mod.DISTANCE_GUARD + 1)), None, {}
    )
    with pytest.raises(PreconditionError):
        exact_min_distance(oversized)


def test_distance_guard_bounds_only_the_pairwise_scan(monkeypatch):
    from agcodes import codes as codes_mod

    monkeypatch.setattr(codes_mod, "DISTANCE_GUARD", 10)
    F = make_field(5, 1)
    curve = build_curve("p1", F)
    code = build_goppa(curve, curve.divisor({curve.place_inf(): 1}))
    assert code.size == 25 and exact_min_distance(code) == 4  # the least nonzero weight
    shifted = make_code(Alphabet("field", 5), 3, [(a, b, 1) for a in range(5) for b in range(5)],
                        field=F)
    with pytest.raises(PreconditionError, match="25 words exceed the distance guard 10"):
        exact_min_distance(shifted)


def test_goppa_past_the_distance_guard_is_measured_as_a_subspace():
    # 16^5 words, ten times the guard of the pairwise scan
    curve = build_curve("p1", make_field(2, 4))
    code = build_goppa(curve, curve.divisor({curve.place_inf(): 4}))
    assert code.size == 16 ** 5
    assert code.metadata["measured_distance"] == code.metadata["claimed_distance"] == 12


def test_linear_shortcut_agrees_with_pairwise():
    curve = build_curve("p1", make_field(5, 1))
    code = build_goppa(curve, curve.divisor({curve.place_inf(): 2}))
    assert code.metadata["linear"]
    assert exact_min_distance(code) == kernels.pairwise_min_distance(code.words)[0]


def test_distance_independent_of_chunk_size(monkeypatch):
    curve = build_curve("hermitian", make_field(3, 2))
    code = build_goppa(curve, curve.one_point_divisor(5))
    arr = code.words
    base = kernels.pairwise_min_distance(arr)
    for cells in (1, 4096, 1 << 16):
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
        assert kernels.pairwise_min_distance(arr) == base


def test_repeated_points_rejected():
    curve = build_curve("p1", make_field(5, 1))
    D = curve.divisor({curve.place_inf(): 2})
    p = curve.points
    with pytest.raises(PreconditionError, match="repeated"):
        build_goppa(curve, D, points=(p[0], p[0], p[1], p[2], p[3]))


def test_build_goppa_checks_measured_against_claimed(monkeypatch):
    # with the point check bypassed, a repeated point drops the distance to
    # 2 below the claimed N - deg(D) = 3, and the build must refuse it
    from agcodes import curves as curves_mod

    monkeypatch.setattr(curves_mod, "distinct_points", tuple)
    curve = build_curve("p1", make_field(5, 1))
    D = curve.divisor({curve.place_inf(): 2})
    p = curve.points
    with pytest.raises(VerificationError, match="measured distance 2 below the floor 3"):
        build_goppa(curve, D, points=(p[0], p[0], p[1], p[2], p[3]))


def test_code_file_roundtrip(tmp_path):
    curve = build_curve("p1", make_field(5, 1))
    code = build_goppa(curve, curve.divisor({curve.place_inf(): 2}))
    text = code_to_text(code)
    back = code_from_text(text)
    assert back.words.dtype == code.words.dtype
    assert np.array_equal(back.words, code.words)
    assert back.length == code.length
    assert back.alphabet == code.alphabet
    assert back.metadata["claimed_distance"] == 3
    assert back.metadata["measured_distance"] == 3
    assert code_to_text(back) == text
