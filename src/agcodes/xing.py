"""Nonlinear codes from derivatives of Riemann-Roch sections: words are the
order-m expansion coefficients of the functions that stay inside chosen
Hamming balls at every lower order.

The divisor degree may exceed the code length here; the distance guarantee
comes from counting agreement multiplicities rather than zeros of a single
function. Radii are integers s_r (floors of the real optimizer targets), so
every claim in this module is exact:

    d0 = (m+1)N - 2 * sum_r (m+1-r) s_r - deg(D) > 0

guarantees the final-order map is injective on the survivor set and the
image code has minimum distance at least d0.

The basis rows of L(D), every order at every point, come from one call of
the curve's `expansions` on the Taylor kernel, which reads the basis as the
integer array `riemann_roch_basis` returns; their order-0 rows are also the
words of the evaluation code (codes.build_goppa).
A search is one call of `kernels.span_search` on the basis rows of L(D),
which chooses between the coset search and the scan of the span's words and
returns its finished `kernels.SearchOutcome`: the center, the survivors,
the exact average and the census target. A build is that outcome and the
measured `Code`, whose metadata records the floor d0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .codes import Alphabet, Code, finish_code
from .curves import Divisor, eval_points
from .errors import PreconditionError, VerificationError


def optimal_sigma(q: int, i: int) -> Fraction:
    """Closed-form optimal ball-radius fraction for the order-i term:
    (q-1) / (q^(2i) + q - 1)."""
    if q < 2 or i < 1:
        raise PreconditionError("need q >= 2 and i >= 1")
    return Fraction(q - 1, q ** (2 * i) + q - 1)


def distance_floor(n: int, m: int, radii, deg_d: int) -> int:
    """The guaranteed minimum distance d0 for integral radii."""
    return (m + 1) * n - 2 * sum((m + 1 - r) * s for r, s in enumerate(radii)) - deg_d


@dataclass(frozen=True)
class XingParams:
    """Build parameters: number of constrained orders m, integral radii
    s_0..s_{m-1}, center-search strategy and its seed/trial budget."""

    m: int
    radii: tuple[int, ...]
    strategy: str = "exhaustive"
    seed: int = 0
    trials: int = 64

    def validate(self, n: int, q: int):
        if self.m < 1:
            raise PreconditionError("m must be positive")
        if len(self.radii) != self.m:
            raise PreconditionError("need one radius per constrained order")
        for s in self.radii:
            if s < 0 or s * q >= n * (q - 1):
                raise PreconditionError("radius must satisfy 0 <= s_r < N(q-1)/q")
        if self.trials < 0:
            raise PreconditionError("trials must be nonnegative")


def phi_basis_rows(curve, D: Divisor, points, r_max: int) -> np.ndarray:
    """The expansion coefficients of the basis of L(D) at the points, as an
    (r_max + 1, k, N) array: rows[r, i, j] is the t^r coefficient of basis
    function i at points[j], from one `expansions` call of the curve.
    Expansion is linear, so the order-r rows span the order-r word set of
    L(D). The points avoid supp(D), so a pole fails verification."""
    basis = curve.riemann_roch_basis(D)
    if not len(basis):
        raise PreconditionError(f"L({D.serialize()}) has no nonzero function")
    rows, pole = curve.expansions(basis, points, r_max)
    if pole.any():
        raise VerificationError("basis function has a pole at an evaluation point")
    return rows.transpose(0, 2, 1)


def search_centers(curve, D: Divisor, params: XingParams, points=None) -> kernels.SearchOutcome:
    """Maximize the survivor set over center tuples.

    The exact average of the survivor count over ALL center tuples is
    #L(D) * prod_r ball(N, s_r, q) / q^(mN), recorded as a rational; the
    exhaustive and census strategies must return at least its ceiling.
    """
    points = eval_points(curve, D, points)
    params.validate(len(points), curve.field.q)
    rows = phi_basis_rows(curve, D, points, params.m - 1)
    return kernels.span_search(curve.field, rows, params.radii, params.strategy, params.seed,
                               params.trials)


@dataclass
class XingBuild:
    code: Code
    search: kernels.SearchOutcome
    points: tuple


def build_xing(curve, D: Divisor, params: XingParams, points=None) -> XingBuild:
    """Build the order-m code: survivors of the ball constraints mapped
    through the order-m expansion word."""
    points = eval_points(curve, D, points)
    n = len(points)
    q = curve.field.q
    params.validate(n, q)
    d0 = distance_floor(n, params.m, params.radii, D.degree)
    if d0 <= 0:
        raise PreconditionError(
            f"divisor degree {D.degree} too large: distance floor {d0} <= 0"
        )
    rows = phi_basis_rows(curve, D, points, params.m)
    search = kernels.span_search(curve.field, rows[: params.m], params.radii, params.strategy,
                                 params.seed, params.trials)
    metadata = {
        "construction": "xing",
        "curve": curve.kind,
        "divisor": D.serialize(),
        "deg_divisor": D.degree,
        "m": params.m,
        "radii": ",".join(str(s) for s in params.radii),
        "strategy": params.strategy,
        "seed": params.seed,
        "trials": params.trials,
        "centers": kernels.center_text(search.centers),
        "n_functions": q ** rows.shape[1],
        "n_survivors": search.best_count,
        "average": f"{search.exact_average.numerator}/{search.exact_average.denominator}",
        "claimed_distance": d0,
        "points": ";".join(p.serialize() for p in points),
        "linear": False,
    }
    words = kernels.span_words_at(curve.field, rows[params.m], search.survivor_indices)
    code = finish_code(Alphabet("field", q), n, words, curve.field, metadata)
    return XingBuild(code=code, search=search, points=points)
