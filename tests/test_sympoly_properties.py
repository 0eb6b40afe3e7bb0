"""Round-trip property tests of SparsePoly over Q.

Shifting there and back, shifting against evaluation, and exact division
by a linear difference against multiplication.  hypothesis is a
test-time dependency only.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifted_symfun.scalars import ExactDivisionError
from shifted_symfun.sympoly import SparsePoly

PROPS = settings(max_examples=60, deadline=None)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def sparse_polys(n, fixed_zero=None):
    """Small SparsePolys in n variables; variable fixed_zero left out."""
    def key(exps):
        if fixed_zero is not None:
            exps[fixed_zero] = 0
        return tuple(exps)

    keys = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(key)
    return st.dictionaries(keys, rationals, max_size=5).map(
        lambda terms: SparsePoly(n, terms))


@st.composite
def poly_and_points(draw):
    n = draw(st.integers(1, 3))
    p = draw(sparse_polys(n))
    d = draw(st.lists(rationals, min_size=n, max_size=n))
    x = draw(st.lists(rationals, min_size=n, max_size=n))
    return p, d, x


@st.composite
def linear_diff_cases(draw):
    n = draw(st.integers(2, 3))
    i, j = draw(st.permutations(range(n)))[:2]
    return n, i, j


@PROPS
@given(poly_and_points())
def test_translate_round_trip(case):
    p, d, _ = case
    assert p.translate(d).translate([-c for c in d]) == p


@PROPS
@given(poly_and_points())
def test_translate_is_evaluation_at_shifted_point(case):
    p, d, x = case
    shifted = [a - b for a, b in zip(x, d)]
    assert p.translate(d).evaluate(x) == p.evaluate(shifted)


@PROPS
@given(linear_diff_cases(), st.data())
def test_divide_linear_diff_undoes_product(case, data):
    n, i, j = case
    q = data.draw(sparse_polys(n))
    diff = SparsePoly.variable(n, i) - SparsePoly.variable(n, j)
    assert (diff * q).divide_linear_diff(i, j) == q


@PROPS
@given(linear_diff_cases(), st.data())
def test_divide_linear_diff_refuses_non_multiple(case, data):
    # (x_i - x_j) q + s with s != 0 free of x_i is nonzero on x_i = x_j,
    # so it is not a multiple of x_i - x_j
    n, i, j = case
    q = data.draw(sparse_polys(n))
    s = data.draw(sparse_polys(n, fixed_zero=i).filter(
        lambda s: not s.is_zero()))
    diff = SparsePoly.variable(n, i) - SparsePoly.variable(n, j)
    with pytest.raises(ExactDivisionError):
        (diff * q + s).divide_linear_diff(i, j)
