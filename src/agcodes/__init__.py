"""Desk-scale laboratory for algebraic-geometry codes.

Exact constructions of evaluation codes, derivative-refined nonlinear
codes, rational-section codes over the projective alphabet, and their
ball-centered combination, together with brute-force verification of every
distance and counting guarantee and high-precision tables of the
asymptotic bound landscape.
"""

from types import ModuleType as _Module

from .errors import PreconditionError, VerificationError
from .field import (
    FieldSpec,
    Polynomial,
    enumerate_irreducibles,
    make_field,
    make_field_q,
)
from .curves import (
    Divisor,
    HermitianCurve,
    Place,
    Point,
    ProjectiveLine,
    build_curve,
    default_eval_points,
)
from .codes import Alphabet, Code, build_goppa, exact_min_distance, goppa_sum_check
from .kernels import ball_size
from .xing import XingParams, build_xing, optimal_sigma, search_centers
from .sections import (
    SectionTable,
    build_section_code,
    enumerate_sections,
    solution_multiplicity,
)
from .combined import CombinedParams, build_combined, optimal_sigma0, threshold_check
from . import bounds

# the names imported above and `bounds`, but not the submodules that the
# imports bind as a side effect
__all__ = [name for name, value in globals().items() if not name.startswith("_")
           and (name == "bounds" or not isinstance(value, _Module))]
