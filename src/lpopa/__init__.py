"""Optimal polynomial approximants in weighted l^p analytic sequence spaces."""

from .errors import (AdmissibilityError, DegreeCapError, IllConditionedError,
                     InexactDivisionError, InternalConsistencyError, LpopaError,
                     SweepError, UnsupportedExponentError)
from .opa import (ExpPolyFit, FlatDiagnostics, OpaResult, SolverOpts,
                  closed_form_one_minus_zd, composite_construction, fit_exp_poly,
                  solve_convex, solve_flat, solve_hilbert, solve_structural)
from .poly import (CircleZeroSpec, Poly, eval_derivative, exact_div, expand,
                   parse_angle, poly_divmod, poly_from_config, signed_power,
                   signed_powers)
from .rates import (RateFit, RatePrediction, SweepPoint, classify, delta,
                    fit_rates, geometric_grid, lower_bound, run_sweep,
                    sweep_and_fit)
from .space import (SpaceParams, bj_residual, evaluation_bound,
                    multiplication_bound_batch, multiplication_bound_check, norm,
                    to_unweighted, wiener_norm)
from .weights import (Weight, dilate, doubling_constant_for, power_weight,
                      table_weight, verify_admissibility, weight_at,
                      weight_from_config)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "CircleZeroSpec", "DegreeCapError", "ExpPolyFit",
    "FlatDiagnostics",
    "IllConditionedError", "InexactDivisionError", "InternalConsistencyError",
    "LpopaError", "OpaResult", "Poly", "RateFit", "RatePrediction", "SolverOpts",
    "SpaceParams", "SweepError", "SweepPoint", "UnsupportedExponentError",
    "Weight", "bj_residual", "classify", "closed_form_one_minus_zd",
    "composite_construction", "delta", "dilate", "doubling_constant_for",
    "eval_derivative", "evaluation_bound", "exact_div", "expand", "fit_exp_poly",
    "fit_rates", "geometric_grid", "lower_bound", "multiplication_bound_batch",
    "multiplication_bound_check",
    "norm", "parse_angle", "poly_divmod", "poly_from_config", "power_weight",
    "run_sweep", "signed_power", "signed_powers", "solve_convex", "solve_flat",
    "solve_hilbert", "solve_structural", "sweep_and_fit", "table_weight",
    "to_unweighted", "verify_admissibility", "weight_at", "weight_from_config",
    "wiener_norm",
]
