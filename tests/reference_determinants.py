"""The determinants of the operator layer, expanded from their
definitions.

The package forms the cut-off determinant phi_I as a product of linear
factors and derives the subset coefficients d_I of the generating
determinant from it; these helpers build each as its own n x n
alternant, so tests can compare the two.
"""

from fractions import Fraction

from shifted_symfun.partitions import staircase
from shifted_symfun.sympoly import SparsePoly, alternant


def subset_determinant(rows, n, r):
    """d_I for the 0-based index set I = rows: row i inside I carries
    -x_i^(delta_j + 1); outside, (x_i + t)(x_i + r)^delta_j."""
    delta = staircase(n)
    t = SparsePoly.t_var(n)

    def entry(i, j):
        xi = SparsePoly.variable(n, i)
        if i in rows:
            return -_power(xi, delta[j] + 1)
        return (xi + t) * _power(xi + r, delta[j])
    return alternant(n, entry)


def cutoff_determinant(rows, n, r):
    """phi_I for the 0-based index set I = rows: row i inside I carries
    x_i^(delta_j + 1); outside, (x_i + r)^delta_j."""
    delta = staircase(n)

    def entry(i, j):
        xi = SparsePoly.variable(n, i)
        if i in rows:
            return _power(xi, delta[j] + 1)
        return _power(xi + r, delta[j])
    return alternant(n, entry)


def _power(p, e):
    out = SparsePoly.const(p.n, Fraction(1))
    for _ in range(e):
        out = out * p
    return out
