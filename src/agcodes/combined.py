"""Ball-centered section codes over the base field: sections of height at
most h are filtered by one Hamming ball around a projective-valued center,
and the survivors are mapped through their first-order expansion data.

The order-r coordinate at a point P uses the expansion of the twisted
section t^D(P) * f (the canonical twist of sections.py, fixed by the
divisor) when its value there is finite and of its inverse when the value
is infinite, so a point is a solution of f = f2 of multiplicity m exactly
when the coordinates agree through order m - 1 and split at order m. With
the integral radius s0 the distance guarantee is exact:

    2h <= 2N - 4*s0 - d0

forces the first-order map to be injective on the survivors and the image
code to have minimum distance at least d0. The sections stay one
SectionTable throughout: the order-0 words that pick the center and the
order-1 words of the survivors come from one call each of the table kernel
sections.phi_words, and the result keeps the survivors as the table's rows
they select. The result holds the code and the finished
`kernels.SearchOutcome` of `kernels.center_search`. The averaging census is
the same search with the census strategy, which scans every center; it
compares the sum its scan counts with the outcome's `expected_census`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .codes import Alphabet, Code, finish_code
from .curves import Divisor, ProjectiveLine, distinct_points
from .errors import PreconditionError, VerificationError
from .sections import (
    SectionTable,
    enumerate_sections,
    phi_words,
    threshold_check,
)


def optimal_sigma0(q: int) -> Fraction:
    """Closed-form optimal radius fraction over the projective alphabet:
    1 / (q^3 + 1)."""
    if q < 2:
        raise PreconditionError("need q >= 2")
    return Fraction(1, q ** 3 + 1)


def radius_ok(n: int, s0: int, q: int) -> bool:
    """s0 < N * q / (q + 1), the projective-alphabet radius cap."""
    return 0 <= s0 and s0 * (q + 1) < n * q


def distance_budget_ok(n: int, h: int, s0: int, d0: int) -> bool:
    return 2 * h <= 2 * n - 4 * s0 - d0


def phi_r_projective(curve: ProjectiveLine, row: SectionTable, points, r: int) -> tuple[int, ...]:
    """Order-r expansion word of the section of a one-row table over the
    base field (r >= 1): at each point, the t^r coefficient of the twisted
    section, or of its inverse when the twisted value is infinite."""
    if r < 1:
        raise PreconditionError("use the projective evaluation word for r = 0")
    return tuple(phi_words(curve, row, points, r)[0].tolist())


def averaging_census(curve: ProjectiveLine, D: Divisor, h: int, s0: int):
    """Complete-enumeration check of the averaging identity: the sum over
    every projective center of the survivor count equals the section count
    times the projective ball size. Returns (census_total, expected), the
    scan's sum and the outcome's `expected_census`.

    This is independent of the distance-budget preconditions; the identity
    is purely combinatorial.
    """
    q = curve.field.q
    if not 0 <= s0 <= curve.n_points:
        raise PreconditionError("radius must lie in [0, N]")
    sections = enumerate_sections(curve, D, h)
    arr0 = phi_words(curve, sections, curve.points, 0)
    outcome = kernels.center_search([arr0], [s0], q + 1, "census")
    return outcome.census_total, outcome.expected_census


@dataclass(frozen=True)
class CombinedParams:
    """Degree-zero divisor, height bound, integral projective radius,
    distance target, and the center-search strategy."""

    h: int
    s0: int
    d0: int
    strategy: str = "exhaustive"
    seed: int = 0
    trials: int = 64

    def validate(self, n: int, q: int):
        if self.d0 < 1:
            raise PreconditionError("distance target must be positive")
        if not radius_ok(n, self.s0, q):
            raise PreconditionError("radius must satisfy 0 <= s0 < N q/(q+1)")
        if not distance_budget_ok(n, self.h, self.s0, self.d0):
            raise PreconditionError("need 2h <= 2N - 4 s0 - d0")
        if self.trials < 0:
            raise PreconditionError("trials must be nonnegative")


@dataclass
class CombinedResult:
    code: Code
    search: kernels.SearchOutcome
    survivors: SectionTable
    points: tuple


def build_combined(
    curve: ProjectiveLine, D: Divisor, params: CombinedParams, points=None
) -> CombinedResult:
    """Enumerate the sections, pick the best projective ball center, and map
    the survivors through the first-order word."""
    points = distinct_points(curve.points if points is None else points)
    n = len(points)
    q = curve.field.q
    params.validate(n, q)
    sections = enumerate_sections(curve, D, params.h)
    arr0 = phi_words(curve, sections, points, 0)
    search = kernels.center_search(
        [arr0], [params.s0], q + 1, params.strategy, params.seed, params.trials
    )
    if search.best_count < 1:
        raise VerificationError("no survivors at the chosen centers")
    survivors = sections[search.survivor_indices]
    average = search.exact_average
    metadata = {
        "construction": "combined",
        "curve": curve.kind,
        "divisor": D.serialize(),
        "h": params.h,
        "s0": params.s0,
        "strategy": params.strategy,
        "seed": params.seed,
        "trials": params.trials,
        "center": kernels.center_text(search.centers),
        "n_sections": len(sections),
        "n_survivors": search.best_count,
        "average": f"{average.numerator}/{average.denominator}",
        "claimed_distance": params.d0,
        "points": ";".join(p.serialize() for p in points),
        "linear": False,
        "threshold_exceeded": int(threshold_check(q, params.h, n)),
    }
    words1 = phi_words(curve, survivors, points, 1)
    code = finish_code(Alphabet("field", q), n, words1, curve.field, metadata)
    return CombinedResult(code=code, search=search, survivors=survivors, points=points)
