"""Optimal polynomial approximants in weighted l^p analytic sequence spaces."""

from .errors import (AdmissibilityError, DegreeCapError, IllConditionedError,
                     InexactDivisionError, InternalConsistencyError, LpopaError,
                     SweepError, UnsupportedExponentError)
from .opa import (ExpPolyFit, OpaResult, SolverOpts,
                  closed_form_one_minus_zd, composite_construction,
                  solve_convex, solve_flat, solve_hilbert, solve_structural)
from .poly import (CircleZeroSpec, Poly, eval_derivative, exact_div, expand,
                   parse_angle, signed_powers)
from .rates import (RateFit, RatePrediction, SweepPoint, classify, delta,
                    fit_rates, geometric_grid, lower_bound, run_sweep)
from .space import (SpaceParams, evaluation_bound, multiplication_bound_batch,
                    multiplication_bound_check, norm, to_unweighted, wiener_norm)
from .weights import (Weight, doubling_constant_for, power_weight, table_weight,
                      verify_admissibility, weight_from_config)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "CircleZeroSpec", "DegreeCapError", "ExpPolyFit",
    "IllConditionedError", "InexactDivisionError", "InternalConsistencyError",
    "LpopaError", "OpaResult", "Poly", "RateFit", "RatePrediction", "SolverOpts",
    "SpaceParams", "SweepError", "SweepPoint", "UnsupportedExponentError",
    "Weight", "classify", "closed_form_one_minus_zd",
    "composite_construction", "delta", "doubling_constant_for",
    "eval_derivative", "evaluation_bound", "exact_div", "expand",
    "fit_rates", "geometric_grid", "lower_bound", "multiplication_bound_batch",
    "multiplication_bound_check",
    "norm", "parse_angle", "power_weight",
    "run_sweep", "signed_powers", "solve_convex", "solve_flat",
    "solve_hilbert", "solve_structural", "table_weight",
    "to_unweighted", "verify_admissibility", "weight_from_config",
    "wiener_norm",
]
