"""The asymptotic bound landscape as high-precision functions: the q-ary
entropy in both printed forms, the random-coding feasibility line, the
evaluation-code line for square alphabets, the derivative-refinement gains
for finite order and in the limit, the projective-section gain, the
crossing of the evaluation-code line over the random-coding line, and the
CSV frontier table.

All real arithmetic runs at 60 significant digits through mpmath, so golden
values are anchored by the mathematics rather than by double rounding. The
two entropy forms agree to well below 1e-30 across the open interval. The
peak of H_q(delta) - delta is a closed form, and the crossing is decided
exactly on integers, with no real arithmetic at all.

A note on the ball-size normalization: the limit of N^{-1} log_q of the
Hamming-ball volume includes the (alphabet - 1)^(delta N) factor, and that
is the version implemented and checked here (it is the one the averaging
arguments consume); the plain binomial version differs by
delta * log_q(alphabet - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import PreconditionError

if TYPE_CHECKING:
    from mpmath import mpf

# mpmath is imported inside the functions that use it, so that importing
# the package, as every command does, does not load it
_DPS = 60


def _to_mpf(x):
    from mpmath import mpf

    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def entropy(q: int, delta) -> mpf:
    """H_q(delta) = delta log_q(q-1) - delta log_q delta
    - (1-delta) log_q (1-delta), with the continuous endpoint values."""
    import mpmath
    from mpmath import mp

    if q < 2:
        raise PreconditionError("alphabet must have at least 2 symbols")
    with mp.workdps(_DPS):
        d = _to_mpf(delta)
        if d < 0 or d > 1:
            raise PreconditionError("delta must lie in [0, 1]")
        return _entropy_at(d, mpmath.log(q), mpmath.log(q - 1))


def _entropy_at(d, lq, lq1):
    """H_q at the mpf d in [0, 1], given lq = log q and lq1 = log(q-1)."""
    import mpmath
    from mpmath import mpf

    if d == 0:
        return mpf(0)
    if d == 1:
        return lq1 / lq
    return (d * lq1 - d * mpmath.log(d) - (1 - d) * mpmath.log(1 - d)) / lq


def entropy_alt(q: int, delta) -> mpf:
    """The equivalent form delta log_q((q-1)(1-delta)/delta)
    - log_q(1-delta)."""
    import mpmath
    from mpmath import mp, mpf

    if q < 2:
        raise PreconditionError("alphabet must have at least 2 symbols")
    with mp.workdps(_DPS):
        d = _to_mpf(delta)
        if d < 0 or d > 1:
            raise PreconditionError("delta must lie in [0, 1]")
        lq = mpmath.log(q)
        if d == 0:
            return mpf(0)
        if d == 1:
            return mpmath.log(q - 1) / lq
        return (d * mpmath.log((q - 1) * (1 - d) / d) - mpmath.log(1 - d)) / lq


def gv_feasible_rate(q: int, delta) -> mpf:
    """The random-coding feasibility rate 1 - H_q(delta) on
    0 < delta <= (q-1)/q (zero exactly at the right endpoint)."""
    from mpmath import mp, mpf

    with mp.workdps(_DPS):
        d = _to_mpf(delta)
        dmax = mpf(q - 1) / q
        if not 0 < d <= dmax:
            raise PreconditionError("delta must lie in (0, (q-1)/q]")
        return 1 - entropy(q, delta)


def sqrt_if_square(q: int) -> int | None:
    if q < 0:
        return None
    r = math.isqrt(q)
    return r if r * r == q else None


def goppa_line(q: int) -> Fraction:
    """The asymptotic rate-plus-distance constant 1 - 1/(sqrt(q) - 1) for a
    square alphabet size; zero (vacuous) at q = 4."""
    q0 = sqrt_if_square(q)
    if q0 is None or q0 < 2:
        raise PreconditionError("need a square alphabet size with sqrt(q) >= 2")
    return 1 - Fraction(1, q0 - 1)


def xing_gain(q: int, m: int) -> mpf:
    """sum_{i=2}^{m+1} log_q(1 + (q-1) q^(-2i)): the derivative-refinement
    gain at finite order m."""
    import mpmath
    from mpmath import mp, mpf

    if q < 2 or m < 1:
        raise PreconditionError("need q >= 2 and m >= 1")
    with mp.workdps(_DPS):
        lq = mpmath.log(q)
        return sum(
            mpmath.log(1 + mpf(q - 1) / mpf(q) ** (2 * i)) / lq for i in range(2, m + 2)
        )


def xing_gain_limit(q: int) -> mpf:
    """The full series sum_{i>=2} log_q(1 + (q-1) q^(-2i)), summed until the
    geometric tail bound drops below 1e-40."""
    import mpmath
    from mpmath import mp, mpf

    if q < 2:
        raise PreconditionError("need q >= 2")
    with mp.workdps(_DPS):
        lq = mpmath.log(q)
        total = mpf(0)
        i = 2
        while True:
            total += mpmath.log(1 + mpf(q - 1) / mpf(q) ** (2 * i)) / lq
            i += 1
            # remaining sum < (q-1) q^(-2i) / (1 - q^(-2)) / log q
            tail = (mpf(q - 1) / mpf(q) ** (2 * i)) / (1 - mpf(q) ** -2) / lq
            if tail < mpf("1e-45"):
                return total


def new_gain(q: int) -> mpf:
    """log_q(1 + q^(-3)): the projective-section gain."""
    import mpmath
    from mpmath import mp, mpf

    if q < 2:
        raise PreconditionError("need q >= 2")
    with mp.workdps(_DPS):
        return mpmath.log(1 + mpf(q) ** -3) / mpmath.log(q)


def entropy_gap_max(q: int) -> tuple[mpf, mpf]:
    """(argmax, max) of H_q(delta) - delta over (0, (q-1)/q), in closed form:
    ((q-1)/(2q-1), log_q((2q-1)/q)).

    H_q''(delta) = -1/(delta (1-delta) ln q) < 0, so H_q is strictly concave
    and a stationary point is the unique maximiser. H_q'(delta) =
    log_q((q-1)(1-delta)/delta) equals 1 at delta* = (q-1)/(2q-1), which lies
    in (0, (q-1)/q) because 2q-1 > q. There (q-1)(1-delta*)/delta* = q, so
    the entropy_alt form gives H_q(delta*) - delta* = -log_q(1-delta*) =
    log_q((2q-1)/q)."""
    import mpmath
    from mpmath import mp, mpf

    if q < 2:
        raise PreconditionError("alphabet must have at least 2 symbols")
    with mp.workdps(_DPS):
        return mpf(q - 1) / (2 * q - 1), mpmath.log(mpf(2 * q - 1) / q) / mpmath.log(q)


# Every q0 >= 7 crosses: the test reads (2 - 1/q)^(q0-1) > q0^2, which holds
# at q0 = 7 (60.2 > 49), and from q0 to q0 + 1 the left side grows by a factor
# above 1.9 while the right grows by at most (8/7)^2. Beyond this bound
# gv_crossing answers from that argument instead of forming powers with
# millions of digits (q0 = 10^9 would need gigabytes).
_CROSSING_EXACT_Q0_MAX = 1 << 12


def gv_crossing(q: int) -> bool:
    """Whether the evaluation-code line 1 - delta - 1/(q0-1), q = q0^2,
    exceeds the random-coding bound anywhere, decided on integers.

    The line exceeds 1 - H_q(delta) somewhere exactly when the peak
    log_q((2q-1)/q) of H_q(delta) - delta (entropy_gap_max) beats
    1/(q0-1), that is when ((2q-1)/q)^(q0-1) > q, or
    (2q-1)^(q0-1) > q^q0. Equality is impossible: gcd(2q-1, q) = 1, so no
    power of 2q-1 equals a power of q > 1. Past _CROSSING_EXACT_Q0_MAX the
    answer is True without forming the powers."""
    q0 = sqrt_if_square(q)
    if q0 is None or q0 < 2:
        raise PreconditionError("need a square alphabet size")
    if q0 > _CROSSING_EXACT_Q0_MAX:
        return True
    return (2 * q - 1) ** (q0 - 1) > q ** q0


# ---------------------------------------------------------------------------
# Frontier table.

FRONTIER_COLUMNS = ("delta", "R_GV", "R_Goppa", "R_Xing_m", "R_Xing_inf", "R_new")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def frontier_rows(q: int, grid: int, m: int = 1) -> list[dict]:
    """One row per grid point delta = k/(grid+1), k = 1..grid, with every
    family's rate clipped at zero. The entropy of each row reuses log q and
    log(q-1), taken once per table."""
    import mpmath
    from mpmath import mp, mpf

    if grid < 1:
        raise PreconditionError("grid must be positive")
    base = goppa_line(q)  # also validates squareness
    with mp.workdps(_DPS):
        g_m = xing_gain(q, m)
        g_inf = xing_gain_limit(q)
        g_new = new_gain(q)
        base_m = _to_mpf(base)
        lq, lq1 = mpmath.log(q), mpmath.log(q - 1)
        qm1q = Fraction(q - 1, q)
        rows = []
        for k in range(1, grid + 1):
            delta = Fraction(k, grid + 1)
            d = _to_mpf(delta)
            r_gv = (1 - _entropy_at(d, lq, lq1)) if 0 < delta < qm1q else mpf(0)
            rows.append(
                {
                    "delta": d,
                    "R_GV": max(r_gv, mpf(0)),
                    "R_Goppa": max(base_m - d, mpf(0)),
                    "R_Xing_m": max(base_m + g_m - d, mpf(0)),
                    "R_Xing_inf": max(base_m + g_inf - d, mpf(0)),
                    "R_new": max(base_m + g_new - d, mpf(0)),
                }
            )
        return rows


def frontier_csv(q: int, grid: int, m: int = 1) -> str:
    """CSV text: header plus one row per delta, 12 significant digits,
    LF line endings."""
    out = [",".join(FRONTIER_COLUMNS)]
    for row in frontier_rows(q, grid, m):
        out.append(",".join(_fmt(row[c]) for c in FRONTIER_COLUMNS))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Finite-N ball-size exponent check.

@dataclass
class BallEntropyReport:
    q: int
    delta: Fraction
    n: int
    exponent: float
    entropy_value: float
    gap: float
    bound: float
    ok: bool


def ball_entropy_limit_check(q: int, delta: Fraction, n: int) -> BallEntropyReport:
    """Compare N^{-1} log_q [ C(N, dN) (q-1)^(dN) ] with H_q(delta); the gap
    must vanish like log_q(N)/N (three times that is the pinned bound)."""
    import mpmath
    from mpmath import mp, mpf

    delta = Fraction(delta)
    dn = delta * n
    if dn.denominator != 1:
        raise PreconditionError("delta * N must be an integer")
    dn = int(dn)
    with mp.workdps(_DPS):
        lq = mpmath.log(q)
        count = math.comb(n, dn) * (q - 1) ** dn
        exponent = mpmath.log(count) / lq / n if count > 1 else mpf(0)
        hval = entropy(q, delta)
        gap = abs(exponent - hval)
        bound = 3 * (mpmath.log(n) / lq) / n
        return BallEntropyReport(
            q=q,
            delta=delta,
            n=n,
            exponent=float(exponent),
            entropy_value=float(hval),
            gap=float(gap),
            bound=float(bound),
            ok=bool(gap <= bound),
        )
