"""Jack polynomials and their inhomogeneous relatives.

Two independent constructions of the monic Jack polynomial are kept side
by side on purpose:

  * jack_P        -- top component of the interpolation polynomial at the
                     staircase shift, with the parameter rewritten as 1/alpha
  * jack_P_eigen  -- dominance-triangular eigenfunction of the differential
                     determinant at t = 1, back-substituted on its images

They must agree; tests compare them instead of collapsing one into the
other.  On top of these sit the integral form (lower-hook rescaling), its
inhomogeneous shifted version, a positivity scanner for the shifted
expansion, and the vertical-strip Pieri identity.
"""

from fractions import Fraction
from math import prod

from .interpolation import ShiftVector, interpolation_polynomial
from .operators import apply_sekiguchi_debiard
from .partitions import (as_partition, dominance_leq, enumerate_exact,
                         hook_product_lower, pieri_coefficient, staircase,
                         vertical_strips)
from .scalars import (RationalFunction, UniPoly, invert_parameter,
                      memoized, scalar_key, substitute)
from .sympoly import SymPoly, _step, elementary

ALPHA = "alpha"


def alpha_gen():
    return RationalFunction.gen(ALPHA)


_EIGEN_CACHE = {}


def jack_P(lam, n):
    """Monic Jack polynomial over Q(alpha) from the interpolation route.

    The interpolation polynomial at the symbolic staircase shift is
    solved exactly; its top homogeneous component only keeps the leading
    terms, and r = 1/alpha turns the coefficients into the classical
    normalization.
    """
    lam = as_partition(lam, n)
    rho = ShiftVector.staircase_multiple(n)
    top = interpolation_polynomial(lam, rho).top_component()
    return top.map_coeffs(lambda c: invert_parameter(c, ALPHA))


@memoized(_EIGEN_CACHE, lambda n, d, alpha: (n, d, scalar_key(alpha)))
def _eigen_basis(n, d, alpha):
    """{lam: P_lam} for |lam| = d, back-substituted from c_lam = 1 on the
    cleared images D m_mu of the Sekiguchi-Debiard operator D at t = 1:
    c_mu = v / (eig - D_(mu,mu)), v the m_mu coefficient of
    sum_kappa c_kappa * D m_kappa grown by ``sympoly._step``, and eig =
    prod_i (lam_i + r*delta_i + 1).  A lam whose back-substitution meets
    a zero gap maps instead to the partition its eigenvalue collides with.
    """
    r = 1 / alpha
    basis = enumerate_exact(n, d)
    images = [apply_sekiguchi_debiard(SymPoly.basis(n, mu), r,
                                      t_value=Fraction(1)) for mu in basis]
    diag = [g.coefficient(mu) for mu, g in zip(basis, images)]
    out = {}
    for k, lam in enumerate(basis):
        eig = prod(r * e + (p + 1) for p, e in zip(lam, staircase(n)))
        g, coeffs = images[k], [0] * k + [Fraction(1)]
        for i in range(k - 1, -1, -1):
            gap = eig - diag[i]
            if not gap:
                out[lam] = basis[i]
                break
            v = g.coefficient(basis[i])
            if v:
                coeffs[i] = c = v / gap
                g = _step(g, c, images[i])
        else:
            out[lam] = SymPoly(n, dict(zip(basis, coeffs)))
    return out


def jack_P_eigen(lam, n, alpha=None):
    """Monic Jack polynomial as a triangular eigenfunction.

    Works over any symbolic alpha (default: the alpha generator); the
    differential determinant is applied at t = 1, where the candidate
    eigenvalues of distinct partitions stay distinct.  Solved one degree
    at a time: one cleared image per m_mu serves every partition of it.
    """
    lam = as_partition(lam, n)
    if alpha is None:
        alpha = alpha_gen()
    got = _eigen_basis(n, sum(lam), alpha)[lam]
    if not isinstance(got, SymPoly):
        raise ArithmeticError(f"eigenvalue collision between {lam} and {got}")
    return got


def jack_J(lam, n):
    """Integral form: the lower hook product times the monic polynomial."""
    lam = as_partition(lam, n)
    return jack_P(lam, n) * hook_product_lower(lam, alpha_gen())


def shifted_jack_J(lam, n):
    """Inhomogeneous integral form over Q(alpha).

    Built from the interpolation polynomial by flipping the sign of every
    variable, scaling by the lower hook product at 1/r, and rewriting
    r = 1/alpha.  Its top component is jack_J again.
    """
    lam = as_partition(lam, n)
    rho = ShiftVector.staircase_multiple(n)
    P = interpolation_polynomial(lam, rho)
    c = hook_product_lower(lam, 1 / rho.r)
    sign = Fraction(-1) ** sum(lam)
    J = P.negate_variables() * (c * sign)
    return J.map_coeffs(lambda v: invert_parameter(v, ALPHA))


class ConjectureRow:
    """One m_mu coefficient of the graded expansion; a is a UniPoly in
    alpha when polynomial, else the raw scalar."""

    __slots__ = ("mu", "a", "polynomial", "integral", "nonneg")

    def __init__(self, mu, a, polynomial, integral, nonneg):
        self.mu, self.a, self.polynomial = mu, a, polynomial
        self.integral, self.nonneg = integral, nonneg

    def as_dict(self):
        return {"mu": list(self.mu), "a": str(self.a),
                "polynomial": self.polynomial,
                "integral": self.integral, "nonneg": self.nonneg}


class ConjectureReport:
    """The graded rows of one expansion and its global dominance flag."""

    __slots__ = ("lam", "n", "rows", "dominance_ok")

    def __init__(self, lam, n):
        self.lam, self.n, self.rows, self.dominance_ok = lam, n, [], True

    @property
    def verdict(self):
        ok = self.dominance_ok and all(
            row.polynomial and row.integral and row.nonneg for row in self.rows)
        return "pass" if ok else "fail"

    def as_dict(self):
        return {"schema": 1, "lambda": list(self.lam), "n": self.n,
                "rows": [row.as_dict() for row in self.rows],
                "dominance_ok": self.dominance_ok, "verdict": self.verdict}


def conjecture_expand(lam, n):
    """Expand the shifted integral form and grade each coefficient.

    The m_mu coefficient is alpha^(|mu| - |lam|) * a(alpha); the report
    records, for every mu in the support, whether a is a polynomial with
    nonnegative integer coefficients, plus one global dominance flag.
    """
    lam = as_partition(lam, n)
    J = shifted_jack_J(lam, n)
    report = ConjectureReport(lam=lam, n=n)
    weight = sum(lam)
    for mu in J.partitions():
        c = J.terms[mu]
        shift = weight - sum(mu)
        if isinstance(c, Fraction):
            c = RationalFunction.const(ALPHA, c)
        a = c * RationalFunction(UniPoly(ALPHA, (0,) * shift + (Fraction(1),)))
        if a.is_polynomial():
            poly = a.as_unipoly()
            integral = all(v.denominator == 1 for v in poly.coeffs)
            nonneg = all(v >= 0 for v in poly.coeffs)
            report.rows.append(ConjectureRow(mu, poly, True, integral, nonneg))
        else:
            report.rows.append(ConjectureRow(mu, a, False, False, False))
        if not dominance_leq(mu, lam):
            report.dominance_ok = False
    return report


def pieri_verify(mu, k, n):
    """Check e_k * P_mu against the vertical-strip expansion over Q(alpha).

    Returns (ok, residual); the residual is the m-basis difference of the
    two sides, zero exactly when the identity holds.  Jack polynomials
    come from the eigenfunction route so arbitrary degrees stay cheap.
    """
    mu = as_partition(mu, n)
    if not 1 <= k <= n:
        raise ValueError(f"strip size {k} out of range for n={n}")
    alpha = alpha_gen()
    lhs = elementary(k, n) * jack_P_eigen(mu, n)
    rhs = SymPoly.zero(n)
    for lam, _rows in vertical_strips(mu, k):
        coeff = pieri_coefficient(lam, mu, alpha)
        rhs = rhs + jack_P_eigen(lam, n) * coeff
    residual = lhs - rhs
    return residual.is_zero(), residual


def jack_P_at(lam, n, alpha_value):
    """Specialize jack_P at a rational alpha; poles raise cleanly."""
    f = jack_P(lam, n)
    return f.map_coeffs(lambda c: substitute(c, alpha_value))


__all__ = [
    "ALPHA", "alpha_gen", "jack_P", "jack_P_eigen",
    "jack_J", "shifted_jack_J", "ConjectureRow", "ConjectureReport",
    "conjecture_expand", "pieri_verify", "jack_P_at",
]
