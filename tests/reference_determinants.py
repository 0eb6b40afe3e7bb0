"""The determinants and products of the operator layer, expanded from
their definitions.

The package forms the cut-off determinant phi_I as a product of linear
factors and derives the subset coefficients d_I of the generating
determinant from it; these helpers build each as its own n x n
alternant, so tests can compare the two.  The Schur rows, which the
package counts as Kostka numbers, are built here as bialternants, and
an operator application as the full product of each family
representative with the shifted input, antisymmetrized and read off.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import add

from shifted_symfun.partitions import as_partition, staircase
from shifted_symfun.sympoly import (SparsePoly, _make, alternant,
                                    collect_alternating, collect_symmetric,
                                    divide_by_vandermonde)


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


def bialternant_row(n, mu):
    """s_mu in n variables as {lam: Fraction}: the bialternant
    a_(mu + delta) / V, its n!-term alternant divided by the Vandermonde
    and collected into the m-basis."""
    kappa = tuple(map(add, as_partition(mu, n), staircase(n)))

    def entry(i, j):
        key = [0] * n
        key[i] = kappa[j]
        return SparsePoly(n, {tuple(key): 1})
    s = collect_symmetric(divide_by_vandermonde(alternant(n, entry)))
    return dict(s.terms)


def strict_product(a, b, k):
    """The strictly decreasing keys of the antisymmetrization of the full
    product a * b over every permutation of the x slots, divided by
    k!(n - k)!: each key moves to its sorted x-part, times the sign of
    the sort, and drops on a repeated entry.  The content and the
    parameter of a * b are kept."""
    full = a * b
    n = full.n
    out = {}
    for key, c in full.ints.items():
        x = key[:n]
        if len(set(x)) < n:
            continue
        sign = (-1) ** sum(u < v for u, v in combinations(x, 2))
        kk = tuple(sorted(x, reverse=True)) + key[n:]
        out[kk] = out.get(kk, 0) + sign * c
    block = factorial(k) * factorial(n - k)
    assert all(c % block == 0 for c in out.values())
    return _make(n, full.has_t, full.param, full.cont,
                 {kk: c // block for kk, c in out.items() if c})


def apply_family(f, members, has_t):
    """The sum over the members (size, c_(I0)) of a family of
    ``strict_product(c_(I0), f(x - eps_(I0)), size)``, read off by
    ``collect_alternating``: an operator applied to a general f."""
    src = f.to_sparse(has_t)
    total = SparsePoly.zero(f.n, has_t)
    for size, coeff in members:
        shifted = src.translate([int(i < size) for i in range(f.n)])
        total = total + strict_product(coeff, shifted, size)
    return collect_alternating(total)
