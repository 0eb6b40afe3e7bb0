"""Exact interpolation symmetric polynomials and their operator calculus.

The package works over exact scalars only: rationals and univariate
rational functions of one named parameter, whose numerators and
denominators are univariate polynomials over Q.  The central objects are the inhomogeneous
symmetric polynomials pinned down by vanishing conditions on shifted
partition nodes; around them sit explicit difference operators, raising
operators, closed forms, and the bridge to Jack
polynomials with its positivity scan.
"""

from .scalars import (ExactDivisionError, PoleError, RationalFunction,
                      TagMismatchError, UniPoly, binom_scalar,
                      clear_denominators, falling_factorial,
                      invert_parameter, is_scalar, scalar_key,
                      substitute)
from .partitions import (as_partition, boxes, conjugate, conjugate_part,
                         contains, dominance_leq, dominance_less,
                         enumerate_exact, enumerate_upto, hook_product_lower,
                         hook_product_upper, horizontal_strips, is_partition,
                         is_vertical_strip, kostka, lower_hook,
                         pieri_coefficient, rho_hook_product,
                         rho_hooklength, staircase, trim, upper_hook,
                         vertical_strips, x_set)
from .sympoly import (NotSymmetricError, SparsePoly, SymPoly,
                      collect_symmetric, complete, complete_eval,
                      e_basis_expand, elementary, factorial_monomial,
                      falling_power, m_expand)
from .interpolation import (NonDominantError, ShiftVector, column_forms,
                            factorial_monomial_sym, factorial_schur,
                            first_column_reduction, interpolate,
                            interpolate_recursive, interpolation_basis,
                            interpolation_polynomial, single_row,
                            solve_linear)
from .operators import (OperatorMatrix, apply_difference_family,
                        apply_raising, apply_sekiguchi_debiard,
                        eigenvalue_poly, inhomogeneous_lift)
from .jack import (ConjectureReport, ConjectureRow, alpha_gen,
                   conjecture_expand, jack_J, jack_P, jack_P_at,
                   jack_P_eigen, pieri_verify, shifted_jack_J)
from .checks import CHECKS, run_check

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
