"""Property tests of the scalar kernel, with sympy as the oracle.

sympy and hypothesis are test-time dependencies only; nothing under
``src/`` imports them.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from shifted_symfun.interpolation import solve_linear  # noqa: E402
from shifted_symfun.scalars import (RationalFunction,  # noqa: E402
                                    TagMismatchError, UniPoly, _zgcd,
                                    invert_parameter, substitute)

PROPS = settings(max_examples=60, deadline=None)
R_SYM = sympy.Symbol("r")


def rationals_upto(bound):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 9))


rationals = rationals_upto(40)


def polys(max_degree=4, bound=40):
    return st.lists(rationals_upto(bound), max_size=max_degree + 1).map(
        lambda cs: UniPoly("r", cs))


def nonzero_polys(max_degree=4):
    return polys(max_degree).filter(lambda p: not p.is_zero())


rational_functions = st.builds(RationalFunction, polys(3), nonzero_polys(3))


# -- conversions to and from sympy --------------------------------------------

def to_sympy_poly(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)] or [0], R_SYM, domain=QQ)


def from_sympy_poly(p):
    return UniPoly("r", [Fraction(int(c.p), int(c.q))
                         for c in reversed(p.all_coeffs())])


def to_sympy(f):
    return (to_sympy_poly(f.num).as_expr()
            / to_sympy_poly(f.den).as_expr())


def sympy_normal_form(expr):
    """(numerator, monic denominator) of a sympy rational function."""
    num, den = sympy.fraction(sympy.cancel(expr))
    num = sympy.Poly(num, R_SYM, domain=QQ)
    den = sympy.Poly(den, R_SYM, domain=QQ)
    lead = den.LC()
    return from_sympy_poly(num.quo_ground(lead)), from_sympy_poly(den.monic())


# -- ring and field laws ------------------------------------------------------

@PROPS
@given(polys(), polys(), polys())
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and (a - a).is_zero()
    assert a + 0 == a and a * 1 == a
    assert -(-a) == a and a - b == a + (-b)
    for p in (a + b, a - b, a * b, a * Fraction(1, 3)):
        assert all(type(v) is Fraction for v in p.coeffs)


@PROPS
@given(polys(6), nonzero_polys())
def test_polynomial_division(a, b):
    q, rem = divmod(a, b)
    assert q * b + rem == a
    assert rem.degree() < b.degree()
    assert (a * b).exact_div(b) == a


@PROPS
@given(polys(), st.integers(0, 4), rationals)
def test_polynomial_power_and_evaluation(a, k, x):
    want = Fraction(1)
    for _ in range(k):
        want *= a(x)
    assert (a ** k)(x) == want and type(a(x)) is Fraction
    assert a(x) == sum((c * x ** i for i, c in enumerate(a.coeffs)),
                       Fraction(0))


@PROPS
@given(rational_functions, rational_functions, rational_functions)
def test_rational_function_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    if b:
        assert (a / b) * b == a
        assert b * (1 / b) == 1
        assert b ** -2 == 1 / (b * b)


@PROPS
@given(rational_functions, rationals)
def test_rational_function_scalar_operands(a, c):
    cf = RationalFunction.const("r", c)
    assert a + c == a + cf and c + a == a + cf
    assert a * c == a * cf and c * a == a * cf
    assert a - c == a - cf and c - a == cf - a
    if c:
        assert a / c == a / cf


# -- normal form --------------------------------------------------------------

@PROPS
@given(polys(3), nonzero_polys(3), nonzero_polys(2))
def test_normal_form_is_unique(n, d, g):
    f = RationalFunction(n, d)
    h = RationalFunction(n * g, d * g)
    assert f == h
    assert f.num.coeffs == h.num.coeffs and f.den.coeffs == h.den.coeffs
    assert hash(f) == hash(h)
    assert f.den.coefficient(f.den.degree()) == 1


@PROPS
@given(rationals, nonzero_polys(3))
def test_constant_hashes_like_its_fraction(c, p):
    f = RationalFunction(p * c, p)
    assert f.is_constant() and f == c
    assert hash(f) == hash(c)
    assert hash(RationalFunction.const("r", c)) == hash(c)


@PROPS
@given(polys(4), nonzero_polys(4), nonzero_polys(2))
def test_normal_form_matches_sympy_cancel(n, d, g):
    f = RationalFunction(n * g, d * g)
    num, den = sympy_normal_form(to_sympy_poly(n * g).as_expr()
                                 / to_sympy_poly(d * g).as_expr())
    assert f.num == num and f.den == den


# -- the stored form: k * n / d ---------------------------------------------

def assert_stored_form(f):
    """(f.k, f.n, f.d) is the normal form, and the num/den views rebuild
    f through the public constructor."""
    k, n, d = f.k, f.n, f.d
    if not n:
        assert k == 0 and d == (1,)
    else:
        assert k and type(k) in (int, Fraction)
        for t in (n, d):
            assert type(t) is tuple and all(type(c) is int for c in t)
            assert t[-1] > 0 and math.gcd(*t) == 1
        assert _zgcd(n, d)[0] == (1,)
    g = RationalFunction(f.num, f.den)
    assert (g.k, g.n, g.d) == (k, n, d) and g == f and hash(g) == hash(f)
    assert f.den.coefficient(f.den.degree()) == 1


@PROPS
@given(rational_functions, rational_functions, rationals)
def test_arithmetic_keeps_the_stored_form(a, b, c):
    results = [a + b, a - b, a * b, a + c, c - a, a * c, -a, a ** 2]
    if b:
        results += [a / b, c / b, b ** -1]
    for f in [a, b] + results:
        assert_stored_form(f)
    num, den = sympy_normal_form(to_sympy(a) + to_sympy(b))
    assert (a + b).num == num and (a + b).den == den
    num, den = sympy_normal_form(to_sympy(a) + sympy.Rational(
        c.numerator, c.denominator))
    assert (a + c).num == num and (a + c).den == den


# -- gcd ----------------------------------------------------------------------

@pytest.mark.parametrize("bound", [40, 10 ** 7])
@PROPS
@given(data=st.data())
def test_gcd_matches_sympy(bound, data):
    # elimination over Q[r] produces coefficients far beyond 10^4
    g = data.draw(polys(3, bound))
    a, b = (data.draw(polys(4, bound)) * g for _ in range(2))
    want = from_sympy_poly(sympy.gcd(to_sympy_poly(a), to_sympy_poly(b)))
    assert a.gcd(b) == want


# -- the linear solver --------------------------------------------------------

small_polys = st.lists(st.integers(-5, 5), max_size=3).map(
    lambda cs: UniPoly("r", cs))
# mostly polynomial entries, as the interpolation systems have, and some
# with denominators so that rows must be cleared
entries = st.builds(
    RationalFunction, small_polys,
    st.one_of(st.just(UniPoly("r", [1])), st.just(UniPoly("r", [1])),
              small_polys.filter(lambda p: not p.is_zero())))


@st.composite
def linear_systems(draw):
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    A = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=k, max_size=k))
    B = draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                      min_size=k, max_size=k))
    return A, B


@settings(max_examples=40, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_domain_matrix(system):
    A, B = system
    k, m = len(A), len(B[0])
    field = QQ.frac_field(R_SYM)
    dA = DomainMatrix.from_list_sympy(
        k, k, [[to_sympy(e) for e in row] for row in A]).convert_to(field)
    assume(not dA.det() == field.zero)
    dB = DomainMatrix.from_list_sympy(
        k, m, [[to_sympy(e) for e in row] for row in B]).convert_to(field)
    want = dA.lu_solve(dB).to_Matrix()
    cols = solve_linear(A, B)
    for j in range(m):
        for i in range(k):
            got = cols[j][i]
            if not isinstance(got, RationalFunction):
                got = RationalFunction(got) if isinstance(got, UniPoly) \
                    else RationalFunction.const("r", got)
            num, den = sympy_normal_form(want[i, j])
            assert got.num == num and got.den == den


# -- parameter inversion ------------------------------------------------------

def invert_by_gcd(x, new_param):
    """f(p) as f(1/q): q^(deg D - deg N) rev(N)(q) / rev(D)(q) built from
    the Fraction coefficients and renormalized through a gcd."""
    if not x:
        return RationalFunction(UniPoly(new_param))
    rev_num = UniPoly(new_param, tuple(reversed(x.num.coeffs)))
    rev_den = UniPoly(new_param, tuple(reversed(x.den.coeffs)))
    shift = x.den.degree() - x.num.degree()
    t = UniPoly.gen(new_param)
    if shift > 0:
        rev_num = rev_num * t ** shift
    elif shift < 0:
        rev_den = rev_den * t ** (-shift)
    return RationalFunction(rev_num, rev_den)


def times_r_power(p, k):
    return UniPoly("r", (0,) * k + p.coeffs)


# N(0) = 0 and D(0) = 0 both come up, and constants and zero
inversion_inputs = st.one_of(
    st.builds(lambda a, b, i, j: RationalFunction(times_r_power(a, i),
                                                  times_r_power(b, j)),
              polys(3), nonzero_polys(3), st.integers(0, 3),
              st.integers(0, 3)),
    st.builds(lambda c: RationalFunction.const("r", c), rationals))


@PROPS
@given(inversion_inputs)
def test_invert_parameter_matches_the_gcd_construction(f):
    got, want = invert_parameter(f, "s"), invert_by_gcd(f, "s")
    assert got == want
    assert (got.num.cont, got.num.prim) == (want.num.cont, want.num.prim)
    assert (got.den.cont, got.den.prim) == (want.den.cont, want.den.prim)
    for q in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
        if f.den(1 / q):
            assert substitute(got, q) == substitute(f, 1 / q)


@PROPS
@given(inversion_inputs)
def test_invert_parameter_round_trip(f):
    g = invert_parameter(f, "s")
    assert g.param == "s"
    assert invert_parameter(g, "r") == f


def test_invert_parameter_edge_cases():
    r, s = RationalFunction.gen("r"), RationalFunction.gen("s")
    zero = RationalFunction(UniPoly("r"))
    assert invert_parameter(zero, "s") == RationalFunction(UniPoly("s"))
    assert invert_parameter(RationalFunction.const("r", Fraction(-3, 2)),
                            "s") == RationalFunction.const("s",
                                                           Fraction(-3, 2))
    assert invert_parameter(r, "s") == 1 / s
    assert invert_parameter(1 / r, "s") == s
    # N(0) = 0 and a negative lowest coefficient: (2r^2 - r) / (r + 1)
    # becomes (2 - s) / (s^2 + s)
    assert invert_parameter((2 * r * r - r) / (r + 1), "s") == \
        (2 - s) / (s * s + s)
    assert invert_parameter(Fraction(3, 4), "s") == Fraction(3, 4)


# -- one storage form: UniPoly has rational coefficients only ----------------

def test_unipoly_rejects_other_parameters():
    t, r = UniPoly.gen("t"), RationalFunction.gen("r")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TagMismatchError):
            op(t, r)
        with pytest.raises(TagMismatchError):
            op(r, t)
    with pytest.raises(TagMismatchError):
        _ = r / t
    with pytest.raises(TypeError):
        UniPoly("t", (r, 1))
