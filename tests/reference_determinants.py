"""The determinants and products of the package, expanded from their
definitions.

The package expands no determinant: ``alternant`` here is the n!-term
signed-permutation sum, and ``divide_by_vandermonde`` divides by the
Vandermonde one factor x_i - x_j at a time.  The package reads the
keys of the cut-off determinant phi_I and of the subset coefficients
d_I of the generating determinant that the image kernel pairs straight
off the Laplace expansion of phi_I; these helpers build each as its own
n x n alternant, ``block_vandermonde`` expands the block Vandermondes,
and ``block_strict_part`` reads those keys off a product formed in
full, so tests can compare the two.  ``block_members`` is a second,
independent route to the same keys: each phi_I as two block
Vandermondes times the factor B_k = prod_{i<k} x_i *
prod_{i<k<=j} (x_i - x_j - r), expanded from its linear factors
(``block_factor``), checked symmetric inside both blocks
(``block_symmetric``), and its keys moved by the block staircase and
sorted with their signs (``block_strict``).  The forms that the
cut-off check reads phi_(I0) off are built here through SparsePoly
terms and SymPoly coefficients (``scalar_cutoff_forms``), where the
package builds them from the members' ints.  The Schur rows, which the
package counts as Kostka numbers, and the factorial Schur functions,
which it sums over tableaux, are built here as bialternants, and an
operator application as the full product of each family representative
with the shifted input, antisymmetrized and read off its strictly
decreasing keys as a scalar polynomial (``collect_alternating``), where
the package reads off cleared ints.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod
from operator import add, sub

from shifted_symfun.partitions import as_partition, staircase
from shifted_symfun.scalars import (RationalFunction, _lift, memoized,
                                    scalar_key)
from shifted_symfun.sympoly import (SparsePoly, SymPoly, _make, _numerator,
                                    _r_pairs, _schur_to_m, _sign, _sort_sign,
                                    _strict, _zcoeffs, collect_symmetric,
                                    falling_power, schur_expand)


def _signed_permutations(n):
    """Every permutation of range(n) with its sign, as (perm, +-1) pairs."""
    return [(perm, _sign(perm)) for perm in permutations(range(n))]


def alternant(n, entry):
    """The n x n determinant det[entry(i, j)] as a SparsePoly.

    entry(i, j) returns the SparsePoly in row i, column j; it is called
    once per cell, and the signed-permutation sum reuses the table.  A
    determinant whose entries live over Q(r) comes back over Q when r
    cancels from every coefficient, as the package forms it.
    """
    table = [[entry(i, j) for j in range(n)] for i in range(n)]
    det = SparsePoly.zero(n)
    for perm, sign in _signed_permutations(n):
        term = SparsePoly.const(n, Fraction(sign))
        for i in range(n):
            term = term * table[i][perm[i]]
        det = det + term
    terms = det.terms
    if det.param is None or not all(c.is_constant() for c in terms.values()):
        return det
    return SparsePoly(n, {k: c.constant_value() for k, c in terms.items()},
                      det.has_t)


def vandermonde(n):
    """Product of (x_i - x_j) over i < j, as the alternant det[x_i^delta_j]."""
    delta = staircase(n)

    def entry(i, j):
        key = [0] * n
        key[i] = delta[j]
        return _make(n, False, None, Fraction(1), {tuple(key): 1})
    return alternant(n, entry)


def block_vandermonde(n, size):
    """V(x_0, ..., x_(size-1)) * V(x_size, ..., x_(n-1)) in n variables:
    the ``vandermonde`` of each block, its keys padded to n slots."""
    head, tail = vandermonde(size).terms, vandermonde(n - size).terms
    return SparsePoly(n, {a + b: c * d for a, c in head.items()
                          for b, d in tail.items()})


def block_strict_part(p, size):
    """The terms of p whose x-part strictly decreases inside [0, size)
    and inside [size, n), as {(x-part, t exponent): scalar}."""
    n = p.n
    return {(key[:n], key[n] if p.has_t else 0): c
            for key, c in p.terms.items()
            if _strict(key[:size]) and _strict(key[size:n])}


def member_terms(member):
    """A member (size, content, keys) that ``sympoly.family_image``
    reads, in the form of ``block_strict_part``: content times the sum of
    int * r^j over the keys (x-part, t, j, int) at each (x-part, t)."""
    _, cont, keys = member
    sums = {}
    for x, t, j, a in keys:
        v = a * RationalFunction.gen(cont.param) ** j if j else a
        sums[x, t] = sums.get((x, t), 0) + v
    return {k: cont * v for k, v in sums.items()}


def block_symmetric(b, size):
    """b, once every adjacent transposition s_i inside the blocks
    [0, size) and [size, n) leaves it unchanged."""
    for i in range(b.n - 1):
        if i != size - 1 and b.swap_vars(i, i + 1) != b:
            raise ArithmeticError(
                f"representative c_{tuple(range(size))} over V(x_I0) "
                f"V(x_rest) is not block-symmetric: s_{i} moves it")
    return b


_FACTOR_CACHE = {}


@memoized(_FACTOR_CACHE, lambda n, r, size: (n, scalar_key(_lift(r)), size))
def block_factor(n, r, size):
    """B_size, the factor of phi_(I0) past V(x_I0) V(x_rest), from its
    linear factors."""
    r = _lift(r)
    x = [SparsePoly.variable(n, i) for i in range(n)]
    inside = prod(x[:size], start=SparsePoly.const(n, Fraction(1)))
    cross = (x[i] - x[j] - r for i in range(size) for j in range(size, n))
    return block_symmetric(prod(cross, start=inside), size)


def block_strict(size, b):
    """The ``family_image`` member (size, content, keys) of
    c_(I0) = V(x_[0, size)) V(x_[size, n)) * b, b block-symmetric: keys
    are the (x-part, t, r, int) of c_(I0) strictly decreasing in both
    blocks.  c_(I0) is the block antisymmetrization of
    x^(delta_size, delta_(n - size)) * b (Macdonald I.3), so each key of
    b plus that staircase is sorted in each block with its sign, and
    each numerator of b is split into its powers of r."""
    shift = staircase(size) + staircase(b.n - size)
    acc = {}
    for key, a in b.ints.items():
        x = tuple(map(add, key, shift))  # the x-part: shift has n slots
        (head, s), (tail, u) = _sort_sign(x[:size]), _sort_sign(x[size:])
        if s and u:
            for j, v in _r_pairs(a):
                k = head + tail, key[-1] if b.has_t else 0, j
                acc[k] = acc.get(k, 0) + s * u * v
    return size, b.cont, tuple([k + (a,) for k, a in acc.items() if a])


def block_members(n, r, family):
    """The members of ``operators._members`` formed from the factors
    B_size: phi_(I0) for raising by k (family = k), or per size the
    d_(I0) of the t-family ("t"), each checked block-symmetric and read
    off by ``block_strict``."""
    if family != "t":
        return (block_strict(family, block_factor(n, r, family)),)
    t = SparsePoly.t_var(n)
    members = []
    for size in range(n + 1):
        # the sign as a polynomial, not a scalar: it lands in the int map,
        # so every d_(I0) keeps the content of its B
        sign = SparsePoly.const(n, (-1) ** size)
        outside = (SparsePoly.variable(n, i) + t for i in range(size, n))
        b = prod(outside, start=sign * block_factor(n, r, size))
        members.append(block_strict(size, block_symmetric(b, size)))
    return tuple(members)


def scalar_cutoff_forms(n, members):
    """The forms ``checks.check_cutoff`` reads phi_(I0) off, built
    through the scalars, for the raising members (size, content, keys)
    of sizes 1 to n: per size and head, s_(head - delta) as a SymPoly, and
    sum c * s_(tail - delta) as a SparsePoly over the member's content
    (one numerator per partition, summed by power of r) read back through
    its scalar ``terms`` into a SymPoly, each cleared by ``_int_form``."""
    def s_row(k, kappa):  # s_(kappa - delta) in k variables
        return schur_expand(k, tuple(map(sub, kappa, staircase(k))))
    forms = {}
    for size, cont, keys in members:
        m, param, tails = n - size, getattr(cont, "param", None), {}
        for x, _, j, v in keys:
            acc = tails.setdefault(x[:size], {})
            for lam, k in s_row(m, x[size:]):
                ints = acc.setdefault(lam, {})
                ints[j] = ints.get(j, 0) + k * v
        forms[size] = [
            (SymPoly(size, dict(s_row(size, head)))._int_form(),
             SymPoly(m, _make(m, False, param, cont,
                              {lam: _numerator(param, d)
                               for lam, d in acc.items()}).terms)._int_form())
            for head, acc in tails.items()]
    return forms


def divide_by_vandermonde(p):
    """Exact division by the Vandermonde determinant, factor by factor."""
    for i in range(p.n):
        for j in range(i + 1, p.n):
            p = p.divide_linear_diff(i, j)
    return p


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


def factorial_schur_bialternant(lam, n):
    """s_lam(x | a) with a_m = m - 1, as the quotient of the falling-power
    alternant det[(x_i | a)^(lam_j + n - j)] by the Vandermonde
    (Macdonald I.3, Example 20), collected into the m-basis."""
    lam = as_partition(lam, n)
    delta = staircase(n)
    det = alternant(n, lambda i, j: falling_power(n, i, lam[j] + delta[j]))
    return collect_symmetric(divide_by_vandermonde(det))


def collect_alternating(p):
    """The quotient of an alternating SparsePoly by the Vandermonde, in
    the m-basis; with t, {t_exponent: SymPoly} over the nonzero t powers.

    For p = V * sum_mu c_mu s_mu, c_mu is the coefficient of x^(mu+delta)
    in p (Macdonald, I.3), so only keys whose x-part strictly decreases
    are read.  Nothing here proves that p alternates: the other keys are
    ignored, and the caller vouches for them.
    """
    n = p.n
    delta = staircase(n)
    groups = {}  # x-part -> [(t slot, scalar), ...]
    for k, c in p.terms.items():
        groups.setdefault(k[:n], []).append((k[n:], c))
    out = _schur_to_m([(schur_expand(n, tuple(map(sub, x, delta))), rests)
                       for x, rests in groups.items() if _strict(x)])
    parts = {rest: SymPoly(n, acc) for rest, acc in sorted(out.items())}
    if not p.has_t:
        return parts.get((), SymPoly.zero(n))
    return {rest[0]: g for rest, g in parts.items() if g}


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
    assert all(v % block == 0 for c in out.values() for v in _zcoeffs(c))
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
