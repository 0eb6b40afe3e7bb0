"""The one stored form of a SymPoly.

A SymPoly keeps the form it was built from: scalars (``SymPoly(n,
terms)``) or a cleared form (den, lams, nums) from ``_from_cleared``.
Its arithmetic runs on the cleared form.  These tests check that
arithmetic against a termwise scalar reference, for polynomials built
both ways, including forms that carry a common factor in the
denominator and every numerator, and count what the kernels build when
they read one another's results.  hypothesis is a test-time dependency
only.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifted_symfun import jack, sympoly
from shifted_symfun.interpolation import ShiftVector, interpolation_polynomial
from shifted_symfun.jack import alpha_gen
from shifted_symfun.operators import apply_difference_family, apply_raising
from shifted_symfun.partitions import enumerate_upto
from shifted_symfun.scalars import RationalFunction, UniPoly
from shifted_symfun.sympoly import SymPoly, _from_cleared, collect_symmetric

PROPS = settings(max_examples=60, deadline=None)
R = RationalFunction.gen("r")

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
# (a r + b) / (r + c): a denominator in r, and constants when a = b = 0
rational_functions = st.builds(lambda a, b, c: (R * a + b) / (R + c),
                               st.integers(-3, 3), st.integers(-3, 3),
                               st.integers(1, 4))
int_factors = st.integers(1, 6)
# a nonzero integer polynomial in r of degree at most 1
poly_factors = st.builds(lambda a, b: UniPoly("r", [a, b]),
                         st.integers(1, 4), st.integers(-3, 3))
scalars_c = st.one_of(st.just(Fraction(0)), rationals,
                      st.builds(lambda c: R * 0 + c, rationals),
                      rational_functions)


@st.composite
def worlds(draw):
    """(n, coefficient strategy, factor strategy) over Q or over Q(r)."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return n, rationals, int_factors
    return (n, st.one_of(rationals, rational_functions),
            st.one_of(int_factors, poly_factors))


def sym_polys(n, coeffs):
    basis = enumerate_upto(n, 3)
    return st.dictionaries(st.sampled_from(basis), coeffs, max_size=5).map(
        lambda terms: SymPoly(n, terms))


def from_form(f, k):
    """A copy of f built from its cleared form, with k multiplied into
    the denominator and every numerator."""
    den, lams, nums = f.form
    return _from_cleared(f.n, den * k, {lam: v * k
                                        for lam, v in zip(lams, nums)})


def termwise(f, g, op):
    """The scalar reference: op on the coefficients, key by key."""
    out = {lam: op(lam, f.get(lam, 0), g.get(lam, 0))
           for lam in {*f, *g}}
    return {lam: c for lam, c in out.items() if c}


@st.composite
def cases(draw):
    n, coeffs, factors = draw(worlds())
    f, g = draw(sym_polys(n, coeffs)), draw(sym_polys(n, coeffs))
    return f, g, draw(factors), draw(factors), draw(scalars_c)


@PROPS
@given(cases())
def test_arithmetic_on_the_stored_form_matches_the_scalars(case):
    f0, g0, k, m, c = case
    f_terms, g_terms = dict(f0.terms), dict(g0.terms)
    top = max(map(sum, f_terms), default=-1)
    want = {
        "add": termwise(f_terms, g_terms, lambda lam, a, b: a + b),
        "sub": termwise(f_terms, g_terms, lambda lam, a, b: a - b),
        "neg": termwise(f_terms, {}, lambda lam, a, b: -a),
        "scale": termwise(f_terms, {}, lambda lam, a, b: c * a),
        "top": {lam: a for lam, a in f_terms.items() if sum(lam) == top},
        "negate": termwise(f_terms, {}, lambda lam, a, b:
                           -a if sum(lam) % 2 else a),
    }
    for f in (f0, from_form(f0, k)):
        for g in (g0, from_form(g0, m)):
            got = {"add": f + g, "sub": f - g, "neg": -f, "scale": c * f,
                   "top": f.top_component(), "negate": f.negate_variables()}
            for name, h in got.items():
                assert dict(h.terms) == want[name], name


@PROPS
@given(cases())
def test_equality_and_readers_agree_across_both_constructions(case):
    f0, g0, k, m, _ = case
    polys = [f0, from_form(f0, k), g0, from_form(g0, m)]
    for a in polys:
        for b in polys:
            assert (a == b) == (dict(a.terms) == dict(b.terms))
    for f in (f0, polys[1]):
        terms = dict(f0.terms)
        assert f.partitions() == sorted(terms, key=lambda p: (sum(p), p),
                                        reverse=True)
        assert f.degree() == max(map(sum, terms), default=-1)
        assert f.is_zero() == (not terms) == (not f)
        for lam in enumerate_upto(f.n, 3):
            assert f.coefficient(lam) == terms.get(lam, 0)
        with pytest.raises(TypeError):
            f.terms[(0,) * f.n] = Fraction(7)
        assert pickle.loads(pickle.dumps(f)) == f
        # equal numerators over another denominator are another polynomial
        den, lams, nums = f.form
        halved = _from_cleared(f.n, den * 2, dict(zip(lams, nums)))
        assert (halved == f) == f.is_zero()


def test_kernel_results_are_read_without_clearing_their_coefficients(
        monkeypatch):
    # a P, an operator image and a collected product go on to the next
    # kernel as the cleared forms they were built as
    n = 3
    rho = ShiftVector.staircase_multiple(n, None)
    P = interpolation_polynomial((2, 1, 0), rho)
    image = apply_raising(SymPoly.basis(n, (1, 1, 0)), 1, R)
    product = collect_symmetric(P.to_sparse() * image.to_sparse())
    calls = []
    real = sympoly.clear_denominators

    def counted(values):
        calls.append(list(values))
        return real(values)
    monkeypatch.setattr(sympoly, "clear_denominators", counted)
    for f in (P, image, product):
        f.to_sparse()
        f.evaluate(rho.point((1, 1, 0)))
        apply_raising(f, 2, R)
        apply_difference_family(f, R)
    monkeypatch.undo()
    for f in (P, image, product):
        assert list(f.terms.values()) not in calls


def count_rational_functions(monkeypatch, fn):
    """The RationalFunctions fn() builds from a numerator and a
    denominator, each normalized with a gcd: the calls of __init__."""
    built = []
    init = RationalFunction.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)
    with monkeypatch.context() as m:
        m.setattr(RationalFunction, "__init__", counted)
        fn()
    return len(built)


def test_raising_compositions_build_no_scalar_per_coefficient(monkeypatch):
    # the images are warm, so a composition is two cleared combinations
    def compose():
        for mu in [(2, 1, 0), (3, 1, 1), (4, 2, 0)]:
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    apply_raising(apply_raising(SymPoly.basis(3, mu), j, R),
                                  i, R)
    compose()
    assert count_rational_functions(monkeypatch, compose) <= 27


def test_eigen_basis_reads_the_images_as_cleared_forms(monkeypatch):
    # one scalar per diagonal entry and per step of the back-substitution;
    # turning every image coefficient into a scalar built 78
    def solve():
        jack._eigen_basis.__wrapped__(4, 6, alpha_gen() + 13)
    assert count_rational_functions(monkeypatch, solve) <= 44
