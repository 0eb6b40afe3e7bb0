"""Inhomogeneous symmetric interpolation at partition nodes.

The basic object is the family P_lam attached to a shift vector rho: the
unique symmetric polynomial of degree <= |lam| that vanishes at mu + rho
for every partition mu != lam with |mu| <= |lam| and takes the shifted
hook product as its value at lam + rho.  It is m_lam plus terms strictly
below lam in dominance, so Newton steps against the P_kappa below lam
build it, and the solver reads it at every other node on each run.

Everything is exact.  Symbolic shifts produce coefficients in Q(r);
``interpolate`` solves its linear system fraction-free and only leaves
the polynomial ring during back-substitution.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, takewhile
from math import prod

from .partitions import (as_partition, dominance_less, enumerate_exact,
                         enumerate_upto, horizontal_strips, rho_hook_product,
                         staircase)
from .scalars import (RationalFunction, UniPoly, _lift, binom_scalar,
                      clear_denominators, memoized, scalar_key)
from .sympoly import (SparsePoly, SymPoly, _from_cleared, _point_row, _Row,
                      _step, collect_symmetric, complete_eval, elementary,
                      factorial_monomial, falling_power)


class NonDominantError(ValueError):
    """The shift vector fails the dominance condition the caller needs."""


def _is_negative_integer(x, low=None):
    """Is the scalar a negative integer (optionally >= low)?"""
    if isinstance(x, RationalFunction):
        if not x.is_constant():
            return False
        x = x.constant_value()
    if x.denominator != 1 or x >= 0:
        return False
    return low is None or x >= low


class ShiftVector:
    """Shift rho added to partition nodes; immutable and hashable.

    Either a staircase multiple (entries r*(n-1), ..., r, 0) or a generic
    tuple of scalars.  All entries must live in one scalar world.
    """

    __slots__ = ("entries", "r", "_key")

    def __init__(self, entries, r=None):
        self.entries = tuple(_lift(e) for e in entries)
        self.r = r
        self._key = tuple(map(scalar_key, self.entries))

    @classmethod
    def staircase_multiple(cls, n, r=None):
        """The staircase shift r*(n-1, ..., 1, 0); r=None is symbolic.

        With r=None, r is the generator of Q(r), so every symbolic
        staircase has one ``key()`` and shares the basis cache.  A rational
        r may be a Fraction, an int or a string such as "1/2".
        """
        if r is None:
            r = RationalFunction.gen("r")
        elif not isinstance(r, RationalFunction):
            r = Fraction(r)
        return cls([r * d for d in staircase(n)], r=r)

    @classmethod
    def generic(cls, entries):
        return cls(entries)

    @property
    def n(self):
        return len(self.entries)

    def point(self, mu):
        """The interpolation node mu + rho."""
        mu = as_partition(mu, self.n)
        return tuple(m + e for m, e in zip(mu, self.entries))

    def is_dominant(self):
        """No difference rho_i - rho_j (i < j) is a negative integer."""
        es = self.entries
        return not any(_is_negative_integer(es[i] - es[j])
                       for i in range(len(es)) for j in range(i + 1, len(es)))

    def is_d_dominant(self, d):
        """The weaker gate used at degree d.

        Only differences in {-1, ..., -floor(d/i)} hurt, where i is the
        1-based position of the earlier entry.
        """
        es = self.entries
        return not any(
            _is_negative_integer(es[i] - es[j], low=-(d // (i + 1)))
            for i in range(len(es)) if d // (i + 1) > 0
            for j in range(i + 1, len(es)))

    def offending_ratio(self):
        """For a rational staircase multiple: the (p, q) with r = -p/q, q < n.

        Returns None when the vector is dominant or not of that shape.
        """
        if self.r is None or isinstance(self.r, RationalFunction):
            return None
        r = self.r
        if r >= 0:
            return None
        p, q = -r.numerator, r.denominator
        if 1 <= q <= self.n - 1:
            return (p, q)
        return None

    def key(self):
        return self._key

    def __eq__(self, other):
        if not isinstance(other, ShiftVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        # a scalar hashes like every scalar equal to it, so equal entries
        # give equal hashes; caches key on ``key()``, which keeps the
        # scalar worlds apart
        return hash(self.entries)

    def __repr__(self):
        return f"ShiftVector({list(self.entries)})"


# -- exact linear solving -----------------------------------------------------

def _degree_of(e):
    return e.degree() if isinstance(e, UniPoly) else 0


def _exact_div(a, b):
    if isinstance(a, UniPoly):
        return a.exact_div(b)
    return a // b  # fraction-free elimination over Z divides exactly


def _field_div(a, b):
    if isinstance(b, UniPoly):
        if isinstance(a, UniPoly):
            return RationalFunction(a, b)
        return a / b  # a is already a RationalFunction
    return _lift(a) / b


def solve_linear(A, B):
    """Solve A x = b for every column b of B, exactly.

    A is square over scalars; B is a list of rows (same height as A).
    Fraction-free forward elimination, pivots chosen of minimal degree,
    then back-substitution in the fraction field.  Returns the solution
    columns.  Raises NonDominantError on a singular matrix, since in this
    package that always means a failed dominance precondition.
    """
    k = len(A)
    m = len(B[0]) if k and B else 0
    # every row made integral: scaling a row keeps the solution set
    aug = [clear_denominators(list(A[i]) + list(B[i]))[1] for i in range(k)]
    prev = None
    for col in range(k):
        piv, best = None, None
        for rr in range(col, k):
            e = aug[rr][col]
            if e:
                d = _degree_of(e)
                if best is None or d < best:
                    piv, best = rr, d
        if piv is None:
            raise NonDominantError("singular interpolation system")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        for rr in range(col + 1, k):
            q = aug[rr][col]
            row = aug[rr]
            top = aug[col]
            if q:
                for cc in range(col + 1, k + m):
                    val = p * row[cc] - q * top[cc]
                    row[cc] = _exact_div(val, prev) if prev is not None else val
            else:
                for cc in range(col + 1, k + m):
                    val = p * row[cc]
                    row[cc] = _exact_div(val, prev) if prev is not None else val
            row[col] = 0
        prev = p
    cols = []
    for j in range(m):
        x = [None] * k
        for i in range(k - 1, -1, -1):
            s = aug[i][k + j]
            for jj in range(i + 1, k):
                if aug[i][jj] and x[jj]:
                    s = s - aug[i][jj] * x[jj]
            x[i] = _field_div(s, aug[i][i])
        cols.append(x)
    return cols


# -- interpolation proper -----------------------------------------------------

_BASIS_CACHE = {}


def _node_matrix(rho, nodes, forms):
    """Row mu, column j: the polynomial with the cleared form forms[j]
    (den, lams, nums) at the node mu + rho, read off one evaluation row
    per node, built for this matrix only."""
    return [[row.value(*form) for form in forms]
            for row in (_Row(rho.point(mu)) for mu in nodes)]


def _require_shift(n, d, rho):
    """The shift fits n variables and makes the degree-d solve unique."""
    if rho.n != n:
        raise ValueError("shift vector has wrong length")
    if not rho.is_d_dominant(d):
        raise NonDominantError(f"shift vector is not {d}-dominant")


def _node_values(n, d, values):
    """The nodes of degree <= d and the values keyed by them, lifted."""
    basis = enumerate_upto(n, d)
    vals = {as_partition(mu, n): _lift(c) for mu, c in values.items()}
    if set(vals) != set(basis):
        raise ValueError("values must be keyed by the partitions of degree <= d")
    return basis, vals


@memoized(_BASIS_CACHE, lambda lam, rho, rows=None: (rho.key(), lam))
def _newton(lam, rho, rows=None):
    """(P_lam, its hook product H_lam, the row of lam + rho), per (shift
    key, lam).  The outermost call checks the shift and forms rows, the
    node rows of degree <= |lam| in ``enumerate_upto`` order.  m_lam is
    reduced against each P_kappa, kappa < lam, in that order, so every
    P_kappa is built on its own down-set first and no call recurses
    deeper than one level.  P_lam is then read at the nodes of degree
    <= |lam| it was not reduced against: H_lam at lam + rho, else 0."""
    d = sum(lam)
    if rows is None:
        _require_shift(len(lam), d, rho)
        rows = {mu: got[2] if got else _point_row(rho.point(mu))
                for mu in enumerate_upto(rho.n, d)
                for got in [_BASIS_CACHE.get((rho.key(), mu))]}
    below = {kappa: _newton(kappa, rho, rows)
             for kappa in takewhile(lam.__ne__, rows)
             if dominance_less(kappa, lam)}
    hook = rho_hook_product(lam, rho.entries)
    P = _reduce(lam, [(row, h, P) for P, h, row in below.values()])
    for mu in takewhile(lambda mu: sum(mu) <= d, rows):
        if mu not in below and rows[mu].value(*P.form) != (
                hook if mu == lam else 0):
            raise ArithmeticError(
                f"P_{lam}, reduced against the P_kappa below it, takes "
                f"the wrong value at the node {mu}")
    return P, hook, rows[lam]


def interpolation_basis(n, d, rho):
    """A fresh {lam: P_lam} for |lam| = d.  Every node of degree <= d lies
    below (d), so P_(d) is built last and the whole degree with it."""
    _newton(as_partition((d,), n), rho)
    return {lam: _newton(lam, rho)[0] for lam in enumerate_exact(n, d)}


def _reduce(nu, lower):
    """m_nu reduced against the lower (row, hook, P_kappa) triples: each
    step reads Q's value at kappa + rho off the node's row and subtracts
    (value / hook) * P_kappa through ``sympoly._step``."""
    Q = SymPoly.basis(len(nu), nu)
    for row, hook, P in lower:
        v = row.value(*Q.form)
        if v:
            Q = _step(Q, -v / hook, P)
    return Q


def interpolation_polynomial(lam, rho):
    """P_lam for the given shift vector, built on its down-set alone."""
    return _newton(as_partition(lam, rho.n), rho)[0]


def interpolate(n, d, values, rho):
    """The symmetric polynomial of degree <= d with prescribed node values.

    values maps every partition of degree <= d (padded to n parts) to a
    scalar.  Needs a d-dominant rho; the solution is then unique.
    """
    basis, vals = _node_values(n, d, values)
    _require_shift(n, d, rho)
    A = _node_matrix(rho, basis, [(1, (nu,), (1,)) for nu in basis])
    B = [[vals[mu]] for mu in basis]
    col = solve_linear(A, B)[0]
    return SymPoly(n, {nu: c for nu, c in zip(basis, col)})


def interpolate_recursive(n, d, values, rho):
    """Same contract as interpolate, built by the two-branch recursion.

    Nodes with an empty last row reduce to n - 1 variables under the
    shift differences rho_i - rho_n; the rest divide out the product of
    (x_i - rho_n) and reduce to degree d - n after shifting x by 1.
    Entirely independent of the linear solver, so the two construction
    routes cross-check each other.
    """
    _, vals = _node_values(n, d, values)
    _require_shift(n, d, rho)
    return _interp_rec(n, d, vals, rho)


def _interp_rec(n, d, vals, rho):
    if n == 0:
        return SymPoly(0, {(): vals[()]})
    last = rho.entries[-1]
    # branch one: nodes whose last part is zero live in n - 1 variables
    sub_rho = ShiftVector.generic([e - last for e in rho.entries[:-1]])
    sub_vals = {mu[:-1]: vals[mu] for mu in vals if mu[-1] == 0}
    g = _interp_rec(n - 1, d, sub_vals, sub_rho)
    den, lams, nums = g.form
    g_ext = _from_cleared(n, den, {mu + (0,): v for mu, v in zip(lams, nums)})
    g_shift = g_ext.to_sparse().translate([last] * n)
    if d < n:
        return collect_symmetric(g_shift)
    # branch two: the rest divide by prod(x_i - rho_n) after the g part
    # is subtracted, and reduce to degree d - n
    h_vals = {}
    for mu in vals:
        if mu[-1] == 0:
            continue
        pt = rho.point(mu)
        denom = Fraction(1)
        for x in pt:
            denom = denom * (x - last)
        if not denom:
            raise NonDominantError(
                f"node {mu} makes the reduction factor vanish")
        # g_shift(pt) = g(pt - rho_n), off a row of its own: a one-off shift
        at = _Row([x - last for x in pt]).value(*g_ext.form)
        h_vals[tuple(p - 1 for p in mu)] = (vals[mu] - at) / denom
    h = _interp_rec(n, d - n, h_vals, rho)
    return collect_symmetric(g_shift + _full_column(h, last))


def _full_column(h, last):
    """prod_i (x_i - last) * h(x - 1): h put back under a full column."""
    n = h.n
    factor = SparsePoly.const(n, Fraction(1))
    for i in range(n):
        factor = factor * (SparsePoly.variable(n, i) - last)
    return factor * h.to_sparse().translate([Fraction(1)] * n)


def first_column_reduction(lam, rho):
    """P_lam rebuilt from P_(lam - (1,..,1)) when every part is positive.

    The full first column splits off as the product of (x_i - rho_n) and
    the smaller polynomial is evaluated at x - 1.
    """
    lam = as_partition(lam, rho.n)
    if lam[-1] < 1:
        raise ValueError(f"{lam} does not contain a full first column")
    inner = interpolation_polynomial(tuple(p - 1 for p in lam), rho)
    return collect_symmetric(_full_column(inner, rho.entries[-1]))


def column_forms(k, rho):
    """The two closed forms of the one-column P_(1^k), as a pair.

    First form: sum of (-1)^(k-j) h_{k-j}(rho_k..rho_n) e_j.  Second form:
    sum over index sets i_1 < .. < i_k of prod_j (x_{i_j} - rho_{i_j+k-j}).
    They agree identically in rho; callers can compare.
    """
    n = rho.n
    if not 0 <= k <= n:
        raise ValueError(f"column height {k} out of range for n={n}")
    tail = list(rho.entries[k - 1:]) if k >= 1 else []
    first = SymPoly.zero(n)
    for j in range(k + 1):
        c = complete_eval(k - j, tail) * (Fraction(-1) ** (k - j))
        first = first + elementary(j, n) * c
    second = SparsePoly.zero(n)
    for rows in combinations(range(1, n + 1), k):
        term = SparsePoly.const(n, Fraction(1))
        for pos, i in enumerate(rows, start=1):
            shift = rho.entries[i + k - pos - 1]
            term = term * (SparsePoly.variable(n, i - 1) - shift)
        second = second + term
    return first, collect_symmetric(second)


def factorial_schur(lam, n):
    """The factorial Schur function s_lam(x | a) with a_m = m - 1, the
    falling-power quotient det[(x_i | a)^(lam_j + n - j)] / V, as a sum
    over the semistandard tableaux T of shape lam with entries <= n
    (Macdonald I.3, Example 20):

        s_lam(x | a) = sum_T prod_(s in lam) (x_T(s) - a_(T(s) + c(s))),

    c(s) = j - i the content of the box s = (i, j).  The boxes holding
    the largest entry k form a horizontal strip lam/mu, so the sum runs
    one variable at a time, as ``partitions.kostka`` does:

        s_lam(x_1..x_k) = sum_mu s_mu(x_1..x_(k-1))
                          * prod_((i, j) in lam/mu) (x_k - (k + j - i - 1)),

    over the mu with at most k - 1 parts, s_() = 1.
    """
    lam = as_partition(lam, n)
    one = SparsePoly.const(n, Fraction(1))
    memo = {}

    def tableau_sum(mu, k):
        """s_mu(x_1..x_k | a), mu with at most k parts."""
        if not mu[0]:
            return one
        got = memo.get((mu, k))
        if got is None:
            xk = SparsePoly.variable(n, k - 1)
            got = SparsePoly.zero(n)
            for size in range(mu[0] + 1):
                for nu in horizontal_strips(mu, size):
                    if nu[k - 1]:
                        continue  # x_1..x_(k-1) hold at most k - 1 rows
                    strip = prod((xk - (k + j - i - 1)
                                  for i, (a, b) in enumerate(zip(mu, nu), 1)
                                  for j in range(b + 1, a + 1)), start=one)
                    got = got + tableau_sum(nu, k - 1) * strip
            memo[mu, k] = got
        return got
    return collect_symmetric(tableau_sum(lam, n))


def factorial_monomial_sym(lam, n):
    """The zero-shift case: orbit sums of falling powers, collected."""
    return collect_symmetric(factorial_monomial(n, lam))


def single_row(d, r, n):
    """One-row P_(d) from the explicit chain sum over d >= i_1 >= ... >= 0.

    Each chain contributes binomials in -r times falling powers of the
    shifted variables; the total is normalized by binom(-r, d).
    """
    r = _lift(r)
    lead = binom_scalar(-r, d)
    if not lead:
        raise ValueError(f"binom(-r, {d}) vanishes for r={r}")
    delta = staircase(n)
    total = SparsePoly.zero(n)
    for asc in combinations_with_replacement(range(d + 1), n - 1):
        chain = (d,) + tuple(reversed(asc)) + (0,)
        term = SparsePoly.const(n, Fraction(1))
        for j in range(1, n + 1):
            step = chain[j - 1] - chain[j]
            term = term * binom_scalar(-r, step)
            if not term:
                break
            term = term * falling_power(n, j - 1, step,
                                        offset=r * delta[j - 1] + chain[j])
        if term:
            total = total + term
    result = collect_symmetric(total)
    return result * (1 / lead)
