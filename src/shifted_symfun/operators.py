"""Determinantal difference operators acting on symmetric polynomials.

The generating family is a determinant in a formal variable t whose
expansion over variable subsets I pairs a coefficient polynomial d_I with
the shift f(x) -> f(x - eps_I).  Dividing by the Vandermonde determinant
and collecting per power of t yields one operator per t-degree; the
top coefficient is the identity.  The companion triangular family (the
raising operators) drops the t variable and uses the cut-off determinants
phi_I instead; it raises polynomial degree by the size of I.

A differential relative (the Sekiguchi-Debiard determinant) is used to
pin down the homogeneous eigenfunctions that the top components of the
interpolation family hit.  For symmetric f its sum over permutations is
the antisymmetrization of x^delta * prod_i (x_i d_i + r*delta_i + t) f,
so each monomial of m_mu gives one term.

With I0 = {0, ..., k-1}, the Laplace expansion by the first k rows gives
phi_(I0) = sum_C sgn * a_(C+1)(x_I0) * a_beta(x_rest + r), over the
k-subsets C of the staircase exponents, beta the rest, and multilinearity
in the rows gives d_I = (-1)^|I| * prod_{i not in I} (x_i + t) * phi_I.
Permuting rows gives c_(sigma I0)(x) = sgn(sigma) c_(I0)(x_sigma), so
for symmetric f the sum of c_I * f(x - eps_I) over |I| = k is the
antisymmetrization of g_k = c_(I0) * f(x - eps_(I0)) over k!(n - k)!
(Macdonald I.3): one representative and one product per size, which
pairs only the keys of c_(I0) strictly decreasing inside both blocks,
and the Laplace expansion gives exactly those.  No determinant is
expanded, and the quotient by the Vandermonde is read off through one
Schur read-off tail.

All three operators are linear, so each is fixed by its images on the
monomial basis, in the cleared int form the kernels return (a
denominator, then the partitions and numerators as tuples, per power of
t), and a general input goes by linearity, sum_mu f[mu] * image(m_mu),
on cleared numerators, with one scalar built per output coefficient.
An image of the difference or raising operators is formed once per
process by ``sympoly.family_image`` and cached; an image of the
Sekiguchi-Debiard operator is formed per call by
``sympoly.sekiguchi_image``, since its one caller, the Jack eigen
route, is memoized per degree.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb

from .partitions import staircase
from .scalars import _lift, _ratio, memoized, scalar_key
from .sympoly import (SymPoly, _cleared, _combine, _from_cleared, _r_pairs,
                      _sort_sign, _strict, e_basis_expand, family_image,
                      sekiguchi_image)

_MEMBER_CACHE = {}
_IMAGE_CACHE = {}


def _shifted_alternant(beta):
    """a_beta(x + r) = sum_gamma c_gamma r^(|beta| - |gamma|) a_gamma(x)
    as {gamma: c_gamma}, beta and each gamma strictly decreasing, one
    column at a time: (x + r)^b = sum_c C(b, c) r^(b - c) x^c, and each c
    joins the key with the sign of the sort, or drops on a repeat.  A key
    is a set of exponents up to beta_0: at most 2^(beta_0 + 1) are kept."""
    out = {(): 1}
    for b in beta:
        grown = {}
        for key, v in out.items():
            for c in range(b + 1):
                k, s = _sort_sign(key + (c,))
                if s:
                    grown[k] = grown.get(k, 0) + s * comb(b, c) * v
        out = {k: v for k, v in grown.items() if v}
    return out


def _member(n, r, size, with_t):
    """The ``family_image`` member (size, content, keys) of phi_(I0), or
    of d_(I0) = (-1)^size prod_{i >= size} (x_i + t) phi_(I0) if with_t:
    a key (x-part, t, j, int) is a head C + 1 and a tail of
    ``_shifted_alternant(beta)`` with the Laplace sign of C + beta, the
    tail grown for d_(I0) by the 0/1 vectors u of e_e(x_rest) a_gamma =
    sum_(|u| = e) a_(gamma + u), at t^(n - size - e) (Macdonald I.3).
    r = a/q folds into the ints as r^p = a^p q^(top - p) / q^top, top =
    size * (n - size), j the power of r over Q(r); at top = 0, over Q."""
    m, delta, top = n - size, staircase(n), size * (n - size)
    q, _, (a,) = _cleared([_lift(r)])
    strips = ([(u, m - sum(u)) for u in product((0, 1), repeat=m)]
              if with_t else [((0,) * m, 0)])
    acc = {}
    for cols in combinations(delta, size):
        beta = tuple(e for e in delta if e not in cols)
        head = tuple(c + 1 for c in cols)
        s = (-1) ** (size * with_t) * _sort_sign(cols + beta)[1]
        for gamma, c in _shifted_alternant(beta).items():
            for u, t in strips:
                tail = tuple(g + e for g, e in zip(gamma, u))
                if _strict(tail):
                    k = head + tail, t, sum(beta) - sum(gamma)
                    acc[k] = acc.get(k, 0) + s * c
    folds = [_r_pairs(a ** p * q ** (top - p)) for p in range(top + 1)]
    keys = tuple([(x, t, j, v * w) for (x, t, p), v in acc.items() if v
                  for j, w in folds[p]])
    return size, _ratio(1, q ** top) if top else Fraction(1), keys


_T_FAMILY = "t"  # the image key of the generating t-family


@memoized(_MEMBER_CACHE,
          lambda n, r, family: (n, scalar_key(_lift(r)), family))
def _members(n, r, family):
    """The ``family_image`` members: phi_(I0) for raising by k (family =
    k), or per size the d_(I0) of the t-family, whose row i is
    -x_i^(delta_j + 1) inside I and (x_i + t)(x_i + r)^delta_j outside."""
    if family != _T_FAMILY:
        return (_member(n, r, family, False),)
    return tuple(_member(n, r, size, True) for size in range(n + 1))


@memoized(_IMAGE_CACHE,
          lambda n, r, k, mu: (n, scalar_key(_lift(r)), k, mu))
def _image(n, r, k, mu):
    """The image of the basis element m_mu under the t-family
    (k = _T_FAMILY) or the k-th raising operator, formed by
    ``sympoly.family_image`` and kept in cleared form only: a tuple of
    (t power, den, lams, nums) over the nonzero t powers, ascending,
    where the t power's coefficient at lams[i] is nums[i] / den (the
    raising operators have the one power 0).  The partitions are the
    tuples held in the cached ``schur_expand`` rows."""
    return family_image(n, mu, _members(n, r, k))


def _by_linearity(f, image):
    """sum_mu f[mu] * image(mu) as {t power: SymPoly} over the nonzero
    t powers, ascending, for image(mu) the cleared image of m_mu:
    f's cleared numerators times the images', one ``sympoly._combine``
    per t power, each result kept as that cleared form."""
    n = f.n
    fden, lams, nums = f.form
    parts = {}
    for mu, a in zip(lams, nums):
        for p, den, ilams, inums in image(mu):
            parts.setdefault(p, []).append((a, den, ilams, inums))
    out = {}
    for p, terms in sorted(parts.items()):
        common, acc = _combine(terms)
        g = _from_cleared(n, fden * common, acc)
        if g:
            out[p] = g
    return out


def apply_difference_family(f, r):
    """Apply the full t-family to a SymPoly: {t_power: SymPoly}.

    The t^n piece is f itself (the family is monic in t); lower pieces
    are the nontrivial operators.  Degrees never go up.
    """
    return _by_linearity(f, partial(_image, f.n, r, _T_FAMILY))


def apply_raising(f, k, r):
    """The k-th raising operator: degree d input lands in degree <= d + k.

    On top components it acts as multiplication by e_k.
    """
    if not 0 <= k <= f.n:
        raise ValueError(f"raising index {k} out of range")
    return _by_linearity(f, partial(_image, f.n, r, k)).get(
        0, SymPoly.zero(f.n))


def eigenvalue_poly(lam, r, n):
    """prod_i (lam_i + r*delta_i + t) as its t-coefficients.

    A tuple of n + 1 scalars, lowest power of t first, so entry p pairs
    with the t^p piece of ``apply_difference_family``; entry p is
    e_(n-p) of the constants lam_i + r*delta_i.  The product is expanded
    one linear factor at a time.
    """
    r = _lift(r)
    delta = staircase(n)
    lam = tuple(lam) + (0,) * (n - len(lam))
    coeffs = [Fraction(1)]
    for i in range(n):  # times t + lam_i + r*delta_i
        c = lam[i] + r * delta[i]
        coeffs = [c * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def apply_sekiguchi_debiard(f, r, t_value=None):
    """Apply the differential determinant by linearity on the images
    ``sympoly.sekiguchi_image`` forms of each m_mu, per call: the sum
    over permutations is the antisymmetrization of
    x^delta * prod_i (x_i d_i + r*delta_i + t) f (Macdonald I.3).

    With t_value None the result is {t_power: SymPoly}; otherwise t is
    specialized first and a single SymPoly comes back.  Homogeneous
    degrees are preserved.
    """
    out = _by_linearity(
        f, partial(sekiguchi_image, f.n, r=r, t_value=t_value))
    return out if t_value is None else out.get(0, SymPoly.zero(f.n))


class OperatorMatrix:
    """Exact matrix of an operator between graded m-bases.

    Rows follow the target basis, columns the source basis; both use the
    canonical partition order, which refines dominance, so triangularity
    is visible as upper-triangular support.
    """

    __slots__ = ("source", "target", "rows")

    def __init__(self, source, target, rows):
        self.source = list(source)
        self.target = list(target)
        self.rows = rows

    @classmethod
    def build(cls, op, n, source, target):
        """Column j holds the m-coefficients of op(m_(source[j]))."""
        t_index = {mu: i for i, mu in enumerate(target)}
        rows = [[0] * len(source) for _ in target]
        for j, mu in enumerate(source):
            for lam, c in op(SymPoly.basis(n, mu)).terms.items():
                if lam not in t_index:
                    raise ArithmeticError(
                        f"image of {mu} leaves the target space at {lam}")
                rows[t_index[lam]][j] = c
        return cls(source, target, rows)

    def entry(self, lam, mu):
        return self.rows[self.target.index(lam)][self.source.index(mu)]

    def __matmul__(self, other):
        """The product: entry (i, j) is sum_k self[i][k] * other[k][j]."""
        if other.target != self.source:
            raise ValueError("bases do not chain")
        rows = []
        for row in self.rows:
            acc = [0] * len(other.source)
            for a, right in zip(row, other.rows):
                if a:
                    for j, b in enumerate(right):
                        if b:
                            acc[j] = acc[j] + a * b
            rows.append(acc)
        return OperatorMatrix(other.source, self.target, rows)

    def __sub__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("bases differ")
        rows = [[a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)]
        return OperatorMatrix(self.source, self.target, rows)

    def is_zero(self):
        return all(not e for row in self.rows for e in row)

    def is_triangular(self, order_leq):
        """Entries only where the row partition <= the column partition."""
        for i, lam in enumerate(self.target):
            for j, mu in enumerate(self.source):
                if self.rows[i][j] and not order_leq(lam, mu):
                    return False
        return True


def inhomogeneous_lift(f, r):
    """Send e_k -> k-th raising operator in the e-expansion of f, apply to 1.

    For homogeneous f the top component of the result is f again; on the
    degree-d eigenfunctions it produces the matching interpolation family.
    """
    n = f.n
    expansion = e_basis_expand(f)
    total = SymPoly.zero(n)
    for exps, c in sorted(expansion.items()):
        g = SymPoly.one(n)
        for k in range(n, 0, -1):
            for _ in range(exps[k - 1]):
                g = apply_raising(g, k, r)
        total = total + g * c
    return total
