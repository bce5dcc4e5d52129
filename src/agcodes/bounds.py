"""The asymptotic bound landscape as high-precision functions: the q-ary
entropy in both printed forms, the random-coding feasibility line, the
evaluation-code line for square alphabets, the derivative-refinement gains
for finite order and in the limit, the projective-section gain, the
crossing of the evaluation-code line over the random-coding line, and the
CSV frontier table.

The entropy forms and the gains run at 60 significant digits through
mpmath, so golden values are anchored by the mathematics rather than by
double rounding; the two entropy forms agree to well below 1e-30 across the
open interval. Each gain is one log of an exact product. The frontier table
takes only transcendental constants from mpmath: the logs of the primes up
to grid + 1, log q, log(q-1) and the three gains, each rounded once to a
200-bit fixed-point integer. Everything else in the table is exact integer
arithmetic, and each printed cell is one correctly rounded division to a
double. The peak of H_q(delta) - delta is a closed form, and the crossing is
decided exactly on integers, with no real arithmetic at all.

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


# the fixed-point logs and gains are round(2^_FIX_BITS * x)
_FIX_BITS = 200


def _fixed(x) -> int:
    """round(2^_FIX_BITS * x) for an mpf x = man 2^exp, rounded on integers
    so that the caller's working precision plays no part."""
    man, exp = x.man_exp  # man is unsigned
    if x < 0:
        man = -man
    shift = exp + _FIX_BITS
    return man << shift if shift >= 0 else round(Fraction(man, 1 << -shift))


def entropy(q: int, delta) -> mpf:
    """H_q(delta) = delta log_q(q-1) - delta log_q delta
    - (1-delta) log_q (1-delta), with the continuous endpoint values."""
    import mpmath
    from mpmath import mp, mpf

    if q < 2:
        raise PreconditionError("alphabet must have at least 2 symbols")
    with mp.workdps(_DPS):
        d = _to_mpf(delta)
        if d < 0 or d > 1:
            raise PreconditionError("delta must lie in [0, 1]")
        lq, lq1 = mpmath.log(q), mpmath.log(q - 1)
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


def _series_gain(q: int, last: int | None) -> mpf:
    """sum_{i=2}^{last} log_q(1 + (q-1) q^(-2i)) as one log: log1p of the
    exact product of the (q^(2i) + q - 1)/q^(2i), less 1. The sum stops
    early at the first i past which the geometric tail bound
    (q-1) q^(-2i-2) / (1 - q^(-2)) / ln q = 1 / (q^(2i) (q+1) ln q) is below
    1e-45, decided on integers against the fixed-point ln q."""
    import mpmath
    from mpmath import mp, mpf

    with mp.workdps(_DPS):
        lq = mpmath.log(q)
        tail_scale, stop = (q + 1) * _fixed(lq), 10 ** 45 << _FIX_BITS
        num = den = 1
        i = 2
        while True:
            qi = q ** (2 * i)
            num, den = num * (qi + q - 1), den * qi
            if i == last or qi * tail_scale > stop:
                return mpmath.log1p(mpf(num - den) / den) / lq
            i += 1


def xing_gain(q: int, m: int) -> mpf:
    """sum_{i=2}^{m+1} log_q(1 + (q-1) q^(-2i)): the derivative-refinement
    gain at finite order m. Terms past the last one xing_gain_limit sums
    are below its 1e-45 tail bound and are left out, so the gain of every
    larger m is the limit (and a large m costs no more)."""
    if q < 2 or m < 1:
        raise PreconditionError("need q >= 2 and m >= 1")
    return _series_gain(q, m + 1)


def xing_gain_limit(q: int) -> mpf:
    """The full series sum_{i>=2} log_q(1 + (q-1) q^(-2i)), summed until the
    geometric tail bound drops below 1e-45."""
    if q < 2:
        raise PreconditionError("need q >= 2")
    return _series_gain(q, None)


def new_gain(q: int) -> mpf:
    """log_q(1 + q^(-3)): the projective-section gain."""
    import mpmath
    from mpmath import mp, mpf

    if q < 2:
        raise PreconditionError("need q >= 2")
    with mp.workdps(_DPS):
        return mpmath.log1p(mpf(1) / q ** 3) / mpmath.log(q)


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


def _fixed_logs(n: int) -> list[int]:
    """The fixed-point ln j for j = 1..n (index 0 unused): one log per prime
    p up to n, added to every multiple of each power of p, so ln j is the sum
    of the logs of its prime factors."""
    import mpmath
    from mpmath import mp

    logs = [0] * (n + 1)
    with mp.workdps(_DPS):
        for p in range(2, n + 1):
            if logs[p] == 0:  # no smaller prime divides p
                lp, pk = _fixed(mpmath.log(p)), p
                while pk <= n:
                    for j in range(pk, n + 1, pk):
                        logs[j] += lp
                    pk *= p
    return logs


def _frontier_cells(q: int, grid: int, m: int):
    """Each row of the frontier table that frontier_csv prints, as exact
    (numerator, denominator) integer pairs, one per column, every rate
    clipped at zero.

    With G = grid + 1 and delta = k/G, R_Goppa = (b_n G - k b_d)/(b_d G)
    for the evaluation-code line b_n/b_d, and each gain column adds a
    fixed-point gain to it. The entropy is H_q(k/G) ln q G =
    k ln(q-1) - k ln k - (G-k) ln(G-k) + G ln G, so R_GV = 1 - H_q reads
    (G LQ - h)/(G LQ) on the fixed-point logs LQ = ln q and h; it is 0 from
    delta = (q-1)/q on, the end of its domain, where H_q reaches 1."""
    import mpmath
    from mpmath import mp

    if grid < 1:
        raise PreconditionError("grid must be positive")
    base = goppa_line(q)  # also validates squareness
    G = grid + 1
    logs = _fixed_logs(G)
    with mp.workdps(_DPS):
        lq, lq1 = _fixed(mpmath.log(q)), _fixed(mpmath.log(q - 1))
    gains = [_fixed(g) for g in (xing_gain(q, m), xing_gain_limit(q), new_gain(q))]
    bn, bd = base.numerator, base.denominator
    gv_den, line_den = G * lq, bd * G
    gain_den = line_den << _FIX_BITS
    for k in range(1, G):
        line = bn * G - k * bd
        if k * q < (q - 1) * G:
            h = k * lq1 - k * logs[k] - (G - k) * logs[G - k] + G * logs[G]
            gv = (gv_den - h, gv_den)
        else:
            gv = (0, 1)
        cells = [gv, (line, line_den)]
        cells += [((line << _FIX_BITS) + g * line_den, gain_den) for g in gains]
        yield [(k, G)] + [(max(n, 0), d) for n, d in cells]


def frontier_csv(q: int, grid: int, m: int = 1) -> str:
    """CSV text: header plus one row per delta, 12 significant digits,
    LF line endings. Each cell is one correctly rounded int/int division."""
    out = [",".join(FRONTIER_COLUMNS)]
    for cells in _frontier_cells(q, grid, m):
        out.append(",".join(format(n / d, ".12g") for n, d in cells))
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
