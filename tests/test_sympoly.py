import random
from fractions import Fraction

import pytest

from shifted_symfun.partitions import enumerate_upto
from shifted_symfun.scalars import ExactDivisionError, RationalFunction
from shifted_symfun.sympoly import (NotSymmetricError, SparsePoly, SymPoly,
                                    collect_symmetric, complete,
                                    complete_eval, e_basis_expand,
                                    e_monomial, elementary,
                                    factorial_monomial, falling_power,
                                    m_expand)

from reference_determinants import (alternant, divide_by_vandermonde,
                                    vandermonde)


def rand_point(rng, n):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(n))


def rand_sym(rng, n, d):
    terms = {}
    for lam in enumerate_upto(n, d):
        if rng.random() < 0.5:
            terms[lam] = Fraction(rng.randint(-5, 5))
    return SymPoly(n, terms)


def test_m_expand_golden():
    p = m_expand(2, (2, 1))
    assert p.terms == {(2, 1): Fraction(1), (1, 2): Fraction(1)}
    q = m_expand(3, (1, 1, 0))
    assert set(q.terms) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert all(c == 1 for c in q.terms.values())


def test_sympoly_product_golden():
    m1 = SymPoly.basis(2, (1, 0))
    prod = m1 * m1
    assert prod == SymPoly(2, {(2, 0): Fraction(1), (1, 1): Fraction(2)})
    e1 = elementary(1, 3)
    e2 = elementary(2, 3)
    assert e1 * e2 == SymPoly(3, {(2, 1, 0): Fraction(1),
                                  (1, 1, 1): Fraction(3)})


def test_collect_symmetric_roundtrip():
    rng = random.Random(21)
    for n in (1, 2, 3):
        for _ in range(15):
            f = rand_sym(rng, n, 4)
            assert collect_symmetric(f.to_sparse()) == f


def test_collect_symmetric_rejects_asymmetric():
    x1sq = SparsePoly.variable(2, 0) * SparsePoly.variable(2, 0)
    with pytest.raises(NotSymmetricError):
        collect_symmetric(x1sq)


def test_collect_symmetric_t_components():
    f = SymPoly.basis(2, (1, 0))
    t = SparsePoly.t_var(2)
    sparse = f.to_sparse(has_t=True) * t * t + elementary(2, 2).to_sparse(has_t=True)
    comps = {tp: collect_symmetric(q)
             for tp, q in sparse.t_components().items()}
    assert set(comps) == {0, 2}
    assert comps[2] == f
    assert comps[0] == elementary(2, 2)


def test_translate_matches_evaluation():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = rand_sym(rng, n, 3).to_sparse()
        deltas = rand_point(rng, n)
        g = f.translate(deltas)
        pt = rand_point(rng, n)
        shifted = tuple(p - d for p, d in zip(pt, deltas))
        assert g.evaluate(pt) == f.evaluate(shifted)


def test_divide_linear_diff():
    rng = random.Random(23)
    for _ in range(20):
        n = 3
        g = rand_sym(rng, n, 3).to_sparse()
        x0, x1 = SparsePoly.variable(n, 0), SparsePoly.variable(n, 1)
        prod = g * (x0 - x1)
        assert prod.divide_linear_diff(0, 1) == g
    with pytest.raises(ExactDivisionError):
        SparsePoly.variable(2, 0).divide_linear_diff(0, 1)


def test_vandermonde():
    for n in range(1, 5):
        prod = SparsePoly.const(n, Fraction(1))
        for i in range(n):
            for j in range(i + 1, n):
                prod = prod * (SparsePoly.variable(n, i)
                               - SparsePoly.variable(n, j))
        assert vandermonde(n) == prod
    v = vandermonde(3)
    assert all(v.swap_vars(i, i + 1) == -v for i in range(2))
    assert v.evaluate((Fraction(3), Fraction(2), Fraction(1))) == 2
    rng = random.Random(24)
    for _ in range(10):
        pt = rand_point(rng, 3)
        want = ((pt[0] - pt[1]) * (pt[0] - pt[2]) * (pt[1] - pt[2]))
        assert v.evaluate(pt) == want


def test_alternant_expands_and_alternates_in_columns():
    rng = random.Random(26)
    for n in range(1, 5):
        table = [[rand_sym(rng, n, 2).to_sparse() for _ in range(n)]
                 for _ in range(n)]
        det = alternant(n, lambda i, j: table[i][j])
        if n == 2:
            (a, b), (c, d) = table
            assert det == a * d - b * c
        for x in range(n):
            for y in range(x + 1, n):
                swap = {x: y, y: x}
                assert alternant(
                    n, lambda i, j: table[i][swap.get(j, j)]) == -det


def test_divide_by_vandermonde_roundtrip():
    rng = random.Random(25)
    v = vandermonde(3)
    for _ in range(10):
        f = rand_sym(rng, 3, 3).to_sparse()
        assert divide_by_vandermonde(f * v) == f


def test_elementary_complete_golden():
    assert elementary(2, 3) == SymPoly.basis(3, (1, 1, 0))
    assert elementary(0, 3) == SymPoly.one(3)
    assert complete(2, 2) == SymPoly(2, {(2, 0): Fraction(1),
                                         (1, 1): Fraction(1)})


def test_symmetric_evals_match_polynomials():
    rng = random.Random(26)
    for _ in range(15):
        n = rng.randint(1, 4)
        pt = rand_point(rng, n)
        for j in range(3):
            assert complete_eval(j, pt) == complete(j, n).evaluate(pt)


def test_falling_power():
    f = falling_power(1, 0, 3)
    for v in range(-2, 5):
        assert f.evaluate((Fraction(v),)) == v * (v - 1) * (v - 2)
    g = falling_power(2, 1, 2, offset=Fraction(1, 2))
    val = Fraction(3)
    assert g.evaluate((Fraction(0), val)) == \
        (val - Fraction(1, 2)) * (val - Fraction(3, 2))


def test_factorial_monomial_is_symmetric():
    f = factorial_monomial(2, (2, 1))
    top = collect_symmetric(f)  # raises NotSymmetricError otherwise
    assert top.top_component() == SymPoly.basis(2, (2, 1))


def test_e_basis_expand_roundtrip():
    rng = random.Random(27)
    for n in (1, 2, 3):
        for _ in range(12):
            f = rand_sym(rng, n, 4)
            expansion = e_basis_expand(f)
            rebuilt = SymPoly.zero(n)
            for exps, c in expansion.items():
                rebuilt = rebuilt + e_monomial(n, exps) * c
            assert rebuilt == f


def test_e_basis_expand_golden():
    f = SymPoly.basis(2, (1, 1))
    assert e_basis_expand(f) == {(0, 1): Fraction(1)}
    # one variable: everything is a polynomial in e_1 = x
    assert e_basis_expand(SymPoly.basis(1, (2,))) == {(2,): Fraction(1)}


def test_negate_variables():
    f = SymPoly(2, {(2, 0): Fraction(1), (1, 0): Fraction(3),
                    (0, 0): Fraction(-1)})
    g = f.negate_variables()
    assert g == SymPoly(2, {(2, 0): Fraction(1), (1, 0): Fraction(-3),
                            (0, 0): Fraction(-1)})


def test_public_constructor_validates_keys():
    # the arithmetic builds its canonical results without this check
    with pytest.raises(ValueError):
        SymPoly(3, {(1, 2, 0): 1})
    with pytest.raises(ValueError):
        SymPoly(2, {(1, 1, 1): 1})


def test_mixed_scalar_coefficients():
    alpha = RationalFunction.gen("alpha")
    f = SymPoly.basis(2, (1, 0), alpha) + SymPoly.basis(2, (1, 0))
    assert f.coefficient((1, 0)) == alpha + 1
    assert (f * (1 / (alpha + 1))).coefficient((1, 0)) == 1
