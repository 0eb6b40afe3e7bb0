"""Cross-world oracles for the integer polynomial layer.

SparsePoly keeps one scalar content and a map of cleared numerators:
ints over Q, integer polynomials in r over Q(r).  These tests check it
against routes that do not share that representation: the symbolic-r
operators with r substituted afterwards, term-by-term Fraction
evaluation, and sympy's Poly over QQ.  The cached evaluation rows are
checked against cold and term-by-term evaluation, and the Newton basis
against one full solve.
sympy and hypothesis are test-time dependencies only.
"""

import pickle
import random
import sys
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from shifted_symfun import sympoly  # noqa: E402
from shifted_symfun.interpolation import (ShiftVector,  # noqa: E402
                                          _node_matrix, interpolate,
                                          interpolate_recursive,
                                          interpolation_basis,
                                          interpolation_polynomial,
                                          solve_linear)
from shifted_symfun.operators import (apply_difference_family,  # noqa: E402
                                      apply_raising)
from shifted_symfun.partitions import (enumerate_exact,  # noqa: E402
                                       enumerate_upto, rho_hook_product)
from shifted_symfun.scalars import (RationalFunction,  # noqa: E402
                                    TagMismatchError, UniPoly,
                                    clear_denominators, substitute)
from shifted_symfun.sympoly import (SparsePoly, SymPoly,  # noqa: E402
                                    _perms, collect_symmetric)

PROPS = settings(max_examples=40, deadline=None)
R = RationalFunction.gen("r")

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
# shifts with r > 1, r < 0 and non-unit denominators all come up
shifts = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


def sym_polys(n, dmax, coeffs=small_rationals):
    basis = enumerate_upto(n, dmax)
    return st.dictionaries(st.sampled_from(basis), coeffs, max_size=5).map(
        lambda terms: SymPoly(n, terms))


def at(f, r):
    """The SymPoly f over Q(r) with r substituted by a rational."""
    return f.map_coeffs(lambda c: substitute(c, r))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=7))
def test_perms_is_the_set_of_permutations(key):
    got = list(_perms(key))
    assert len(got) == len(set(got))
    assert set(got) == set(permutations(key))


@PROPS
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(sym_polys(n, 3), st.integers(0, n))), shifts)
def test_rational_shift_operators_match_symbolic_then_substituted(case, r):
    f, k = case
    assert apply_raising(f, k, r) == at(apply_raising(f, k, R), r)
    over_q = apply_difference_family(f, r)
    over_r = apply_difference_family(f, R)
    zero = SymPoly.zero(f.n)
    for p in set(over_q) | set(over_r):
        assert over_q.get(p, zero) == at(over_r.get(p, zero), r)


def reference_evaluate(f, point):
    """The old evaluation: every monomial of every orbit, one scalar
    product at a time."""
    total = Fraction(0)
    for lam, c in f.terms.items():
        s = Fraction(0)
        for key in set(permutations(lam)):
            v = Fraction(1)
            for x, e in zip(point, key):
                for _ in range(e):
                    v = v * x
            s = s + v
        total = total + c * s
    return total


linear_in_r = st.builds(lambda a, b: a + b * R, small_rationals,
                        small_rationals)
rational_in_r = st.builds(lambda a, b, c: (a + b * R) / (c + R),
                          small_rationals, small_rationals,
                          st.integers(1, 5))


def points(n):
    return st.one_of(st.lists(small_rationals, min_size=n, max_size=n),
                     st.lists(linear_in_r, min_size=n, max_size=n),
                     st.lists(rational_in_r, min_size=n, max_size=n))


mixed_coeffs = st.one_of(small_rationals, rational_in_r)


def sparse_reference(p, point):
    """p at point, one scalar product per variable per monomial."""
    total = Fraction(0)
    for key, c in p.terms.items():
        v = c
        for x, e in zip(point, key):
            for _ in range(e):
                v = v * x
        total = total + v
    return total


def points_maybe_zero(n):
    """A point over Q or Q(r); at most one coordinate is the zero of the
    point's own world."""
    return st.tuples(points(n), st.integers(-1, n - 1)).map(
        lambda case: [x * 0 if i == case[1] else x
                      for i, x in enumerate(case[0])])


def assert_same_value_and_type(got, want):
    assert got == want
    assert type(got) is type(want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_matches_term_by_term_evaluation(data):
    # polynomials over Q or Q(r) at points over Q or Q(r): both mixed
    # worlds come up, as do the zero polynomial and a zero coordinate
    n = data.draw(st.integers(1, 4))
    coeffs = data.draw(st.sampled_from([
        small_rationals,
        st.one_of(small_rationals, linear_in_r, rational_in_r)]))
    f = data.draw(sym_polys(n, 4, coeffs=coeffs))
    keys = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    p = SparsePoly(n, data.draw(st.dictionaries(keys, coeffs, max_size=6)))
    point = data.draw(points_maybe_zero(n))
    assert_same_value_and_type(f.evaluate(point), reference_evaluate(f, point))
    assert_same_value_and_type(f.to_sparse().evaluate(point),
                               reference_evaluate(f, point))
    assert_same_value_and_type(p.evaluate(point), sparse_reference(p, point))


@PROPS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    sym_polys(n, 3, coeffs=st.one_of(small_rationals, linear_in_r)),
    st.lists(st.integers(0, 6), min_size=n, max_size=n))))
def test_evaluate_over_q_of_r_at_partition_nodes(case):
    f, mu = case
    node = [m + R * (f.n - 1 - i) for i, m in enumerate(mu)]
    assert f.evaluate(node) == reference_evaluate(f, node)


@PROPS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    sym_polys(n, 3, coeffs=mixed_coeffs), points(n), points(n))))
def test_translate_by_scalars_of_either_world(case):
    # shifting by d and evaluating at x is evaluating at x - d, for
    # rational shifts and for shifts that are polynomials or rational
    # functions in r (these multiply the numerators by polynomials in r)
    f, d, x = case
    p = f.to_sparse()
    shifted = [a - b for a, b in zip(x, d)]
    assert p.translate(d).evaluate(x) == p.evaluate(shifted)


def sparse_polys(n):
    keys = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    return st.dictionaries(keys, small_rationals, max_size=6).map(
        lambda terms: SparsePoly(n, terms))


def to_sympy(p, xs):
    expr = sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([x ** e for x, e in zip(xs, k)])
                for k, c in p.terms.items()), sympy.Integer(0))
    return sympy.Poly(expr, *xs, domain=sympy.QQ)


@PROPS
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(sparse_polys(n), sparse_polys(n))),
    small_rationals.filter(bool))
def test_products_with_a_content_match_sympy(case, c):
    a, b = case
    a = a * c  # a content other than 1 on one side
    xs = sympy.symbols(f"x0:{a.n}")
    want = to_sympy(a, xs) * to_sympy(b, xs)
    got = a * b
    assert to_sympy(got, xs) == want
    assert to_sympy(got + b * a, xs) == 2 * want
    assert all(isinstance(v, int) for v in got.ints.values())


def test_r_lives_in_the_numerators():
    # over Q(r) each key carries an integer polynomial in r, keyed by the
    # x exponents alone
    p = SparsePoly.variable(2, 0) * (R + Fraction(1, 2)) + R / 3
    assert p.param == "r"
    assert p.ints == {(1, 0): UniPoly("r", [3, 6]),
                      (0, 0): UniPoly("r", [0, 2])}
    assert p.cont == RationalFunction(UniPoly.const("r", Fraction(1, 6)))
    assert p.terms == {(1, 0): R + Fraction(1, 2), (0, 0): R / 3}
    q = p * (1 / (R + 1))
    assert q.ints == p.ints
    assert (q * (R + 1)).terms == p.terms
    # a polynomial over Q promoted to Q(r) keeps its int numerators
    x = SparsePoly(2, {(1, 0): Fraction(1, 2), (0, 1): 3})
    lifted = x * R
    assert lifted.param == "r" and lifted.ints == x.ints
    assert all(type(v) is int for v in lifted.ints.values())
    # zero coefficients are dropped before clearing, so they do not make
    # a polynomial over Q(r)
    z = SparsePoly(2, {(1, 0): R * 0, (0, 1): Fraction(1, 2)})
    assert z.param is None and z.ints == {(0, 1): 1}


def test_to_sparse_reads_the_cleared_form_once(monkeypatch):
    # the SymPoly's own cleared form serves every to_sparse call
    n = 3
    rho = ShiftVector.staircase_multiple(n, None)
    f = SymPoly(n, dict(interpolation_polynomial((2, 1), rho).terms))
    calls = []
    real = sympoly.clear_denominators

    def counted(values):
        calls.append(values)
        return real(values)
    monkeypatch.setattr(sympoly, "clear_denominators", counted)
    first, second = f.to_sparse(), f.to_sparse()
    monkeypatch.undo()
    assert len(calls) == 1
    assert first == second and collect_symmetric(first) == f


def test_accumulators_start_from_their_first_term(monkeypatch):
    # over Q(r) a new key keeps its first numerator as it is: no UniPoly is
    # added to the int 0, which would build a zero UniPoly in _coerce; nor
    # does the Sekiguchi image multiply one by a zero part or a zero pad
    sites = ("_imul", "translate", "__add__", "sekiguchi_image",
             "_schur_to_m")
    ops = {UniPoly.__add__.__code__: sites,
           UniPoly.__mul__.__code__: ("sekiguchi_image",)}
    seen = {(op, site): 0 for op, names in ops.items() for site in names}
    real = UniPoly._coerce

    def counted(self, other):
        op, caller = sys._getframe(1).f_code, sys._getframe(2)
        while caller.f_code.co_name.startswith("<"):  # a comprehension
            caller = caller.f_back
        site = (op, caller.f_code.co_name)
        if (type(other) in (int, Fraction) and not other
                and caller.f_globals is vars(sympoly) and site in seen):
            seen[site] += 1
        return real(self, other)
    monkeypatch.setattr(UniPoly, "_coerce", counted)
    x0, x1 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    p = (x0 + R) * (x1 * (R + 1) + Fraction(1, 2))
    q = p.translate((R, Fraction(1, 3))) + x0 * x1 * x1 * R
    image = sympoly.sekiguchi_image(3, (2, 1, 0), R)
    sympoly.sekiguchi_image(3, (2, 1, 0), R / (R + 1), t_value=R)
    monkeypatch.undo()
    assert seen == dict.fromkeys(seen, 0)
    # the same values as the route over Q at r = 2
    two = Fraction(2)
    want = ((x0 + two) * (x1 * 3 + Fraction(1, 2))).translate(
        (two, Fraction(1, 3))) + x0 * x1 * x1 * two
    assert {k: substitute(c, two) for k, c in q.terms.items()} == want.terms
    assert [(t, substitute(den, two), lams,
             tuple(substitute(v, two) for v in nums))
            for t, den, lams, nums in image] == \
        [(t, den, lams, nums) for t, den, lams, nums
         in sympoly.sekiguchi_image(3, (2, 1, 0), two)]


def test_sign_only_content_difference_is_added_without_clearing(monkeypatch):
    # contents c and -c: the sum negates one int map and rescales nothing
    p = SparsePoly.variable(2, 0) * (R + Fraction(1, 2)) + R / 3
    x0, x1 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    pairs = [(p, -p), (p, p * (-1)), (x0, -x1)]
    want = []
    for a, b in pairs:
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0) + c
        want.append({k: c for k, c in terms.items() if c})
    calls = []
    real = sympoly.clear_denominators

    def counted(values):
        calls.append(values)
        return real(values)
    monkeypatch.setattr(sympoly, "clear_denominators", counted)
    got = [p - p, p + p * (-1), x0 - x1]
    monkeypatch.undo()
    assert calls == []
    assert [g.terms for g in got] == want


# -- evaluation rows and the Newton basis -------------------------------------

def cold_evaluate(f, point):
    """f at point from an empty row table, which is then put back."""
    saved = dict(sympoly._ROW_CACHE)
    sympoly._ROW_CACHE.clear()
    try:
        return f.evaluate(point)
    finally:
        sympoly._ROW_CACHE.clear()
        sympoly._ROW_CACHE.update(saved)


@PROPS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    sym_polys(n, 2, coeffs=mixed_coeffs), sym_polys(n, 5, coeffs=mixed_coeffs),
    points(n))))
def test_row_cached_evaluate_matches_a_cold_evaluation(case):
    # the low polynomial opens the point's row with a short power table;
    # the high one makes it grow
    low, high, point = case
    for f in (low, high, low, high):
        want = reference_evaluate(f, point)
        assert cold_evaluate(f, point) == want
        assert f.evaluate(point) == want


def test_rows_of_q_and_q_of_r_points_stay_apart():
    f = SymPoly(2, {(2, 1): Fraction(3), (1, 0): Fraction(1, 2)})
    q_point = [Fraction(2), Fraction(5)]
    r_point = [RationalFunction.const("r", 2), RationalFunction.const("r", 5)]
    assert q_point == r_point  # equal scalars from two worlds
    for first, second in ((q_point, r_point), (r_point, q_point)):
        sympoly._ROW_CACHE.clear()
        for point in (first, second):
            value = f.evaluate(point)
            assert type(value) is type(point[0])
            assert value == reference_evaluate(f, point)


def test_sparse_evaluate_keeps_no_row_and_refuses_t():
    p = (SparsePoly.variable(2, 0) + R) * SparsePoly.variable(2, 1)
    point = [Fraction(5, 11), R + Fraction(2, 13)]  # met nowhere else
    before = len(sympoly._ROW_CACHE)
    assert p.evaluate(point) == (point[0] + R) * point[1]
    assert len(sympoly._ROW_CACHE) == before
    with pytest.raises(ValueError, match="t components"):
        (p + SparsePoly.t_var(2)).evaluate(point)


def test_interpolate_keeps_no_row():
    # a one-off shift: interpolate reads its node matrix off uncached rows,
    # and its solution still matches the recursive construction
    rho = ShiftVector.generic((Fraction(37, 3), Fraction(-11, 7), R / 5))
    values = {mu: Fraction(sum(mu) ** 2 - 3, 1 + mu[0])
              for mu in enumerate_upto(3, 3)}
    before = len(sympoly._ROW_CACHE)
    got = interpolate(3, 3, values, rho)
    assert len(sympoly._ROW_CACHE) == before
    # the recursive route reads each g(x - rho_n) off a row of its own
    rec = interpolate_recursive(3, 3, values, rho)
    assert len(sympoly._ROW_CACHE) == before
    assert got == rec
    for mu, v in values.items():
        assert got.evaluate(rho.point(mu)) == v


# -- one integer evaluation path ----------------------------------------------

def test_evaluate_edge_cases_keep_the_reference_type():
    q_point = [Fraction(3, 2), Fraction(0), Fraction(-2)]
    r_point = [R + 1, R * 0, 1 / (R + 2)]
    polys = [SymPoly.zero(3),
             SymPoly(3, {(0, 0, 0): Fraction(7)}),
             SymPoly(3, {(2, 1, 0): Fraction(3, 4), (0, 0, 0): Fraction(5)}),
             SymPoly(3, {(1, 0, 0): R / 3, (0, 0, 0): 1 / (R + 1)}),
             SymPoly(3, {(0, 0, 0): RationalFunction.const("r", 2)})]
    for f in polys:
        for point in (q_point, r_point):
            want = reference_evaluate(f, point)
            assert_same_value_and_type(f.evaluate(point), want)
            assert_same_value_and_type(f.to_sparse().evaluate(point), want)
    # a map emptied by cancellation over Q(r) is the zero of Q
    p = SparsePoly.variable(3, 0) * R
    for point in (q_point, r_point):
        assert_same_value_and_type((p - p).evaluate(point), Fraction(0))


def test_evaluate_refuses_a_point_over_another_parameter():
    s_point = [RationalFunction.gen("s")] * 2
    f = SymPoly(2, {(1, 0): R})
    for g in (f, f.to_sparse()):
        with pytest.raises(TagMismatchError):
            g.evaluate(s_point)


@pytest.mark.parametrize("r", [R, Fraction(1, 2)])
def test_cleared_form_does_not_leak_between_objects(r):
    # P's cleared coefficients are kept on P after its first evaluation;
    # every object built from P must evaluate from its own coefficients
    rho = ShiftVector.staircase_multiple(3, r)
    P = interpolation_basis(3, 3, rho)[(2, 1, 0)]
    nodes = [rho.point(mu) for mu in enumerate_upto(3, 4)]
    values = [P.evaluate(pt) for pt in nodes]
    assert values == [reference_evaluate(P, pt) for pt in nodes]
    assert any(values) and not all(values)
    built = [(P + 1, lambda v: v + 1),
             (-P, lambda v: -v),
             (P * Fraction(2, 3), lambda v: v * Fraction(2, 3)),
             (pickle.loads(pickle.dumps(P)), lambda v: v)]
    for g, expected in built:
        for pt, v in zip(nodes, values):
            got = g.evaluate(pt)
            assert got == expected(v) == reference_evaluate(g, pt)
    assert [P.evaluate(pt) for pt in nodes] == values


def full_solve(n, d, rho):
    """Every P_lam of degree d from one solve over all nodes of degree <= d,
    with the monomials as unknowns: the construction before Newton's."""
    nodes = enumerate_upto(n, d)
    tops = enumerate_exact(n, d)
    A = _node_matrix(rho, nodes, [SymPoly.basis(n, nu)._int_form()
                                  for nu in nodes])
    B = [[rho_hook_product(lam, rho.entries) if mu == lam else 0
          for lam in tops] for mu in nodes]
    cols = solve_linear(A, B)
    return {lam: SymPoly(n, dict(zip(nodes, col)))
            for lam, col in zip(tops, cols)}


symbolic_shifts = st.one_of(
    st.just(R),
    st.builds(lambda c: R * c, small_rationals.filter(bool)),
    st.builds(lambda c: R + c, small_rationals))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.one_of(shifts, symbolic_shifts))
def test_newton_basis_equals_the_full_solve(n, d, r):
    rho = ShiftVector.staircase_multiple(n, r)
    assume(rho.is_d_dominant(d))
    assert dict(interpolation_basis(n, d, rho)) == full_solve(n, d, rho)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.integers(0, 5), st.lists(shifts, min_size=n, max_size=n))))
def test_newton_basis_equals_the_full_solve_at_generic_shifts(case):
    """Generic shifts, dominant or only d-dominant, that are no staircase
    multiple: special-forms builds one-column P's at such shifts."""
    d, entries = case
    rho = ShiftVector.generic(entries)
    assume(rho.is_d_dominant(d))
    n = rho.n
    assert dict(interpolation_basis(n, d, rho)) == full_solve(n, d, rho)


def test_newton_basis_equals_the_full_solve_at_n4():
    rho = ShiftVector.staircase_multiple(4, R)
    for d in range(5):
        assert dict(interpolation_basis(4, d, rho)) == full_solve(4, d, rho)


def generic_dominant_shift(n, seed):
    """A seeded random shift vector with rational entries that is dominant:
    no difference rho_i - rho_j (i < j) is a negative integer."""
    rng = random.Random(seed)
    while True:
        rho = ShiftVector.generic(
            [Fraction(rng.randint(-40, 40), rng.randint(1, 9))
             for _ in range(n)])
        if rho.is_dominant():
            return rho


@pytest.mark.parametrize("shift", ["symbolic", "r=1/2", "generic"])
def test_newton_basis_equals_the_independent_solve(shift):
    # interpolate is the one-solve route with the monomials as unknowns and
    # uncached rows: it shares no reduction step with the Newton basis
    for n in range(1, 4):
        rho = {"symbolic": lambda: ShiftVector.staircase_multiple(n),
               "r=1/2": lambda: ShiftVector.staircase_multiple(
                   n, Fraction(1, 2)),
               "generic": lambda: generic_dominant_shift(n, 1000 + n)}[shift]()
        for d in range(5):
            nodes = enumerate_upto(n, d)
            for lam, P in interpolation_basis(n, d, rho).items():
                hook = rho_hook_product(lam, rho.entries)
                values = {mu: hook if mu == lam else 0 for mu in nodes}
                assert P == interpolate(n, d, values, rho), (n, lam)


# -- orbit sums over Q(r) on packed ints --------------------------------------

def unipoly_orbit(elems, lam):
    """sum over the orbit of lam of prod_i elems[i]^key[i], one product
    per monomial: of UniPolys over Q(r), of ints over Q."""
    over_r = any(isinstance(x, UniPoly) for x in elems)
    total = UniPoly("r") if over_r else 0
    for key in set(permutations(lam)):
        term = UniPoly.const("r", 1) if over_r else 1
        for x, e in zip(elems, key):
            term = term * x ** e
        total = total + term
    return total


def reference_orbit(elems, lam):
    """``unipoly_orbit`` in the form the row keeps: the int over Q, and
    over Q(r) the coefficient tuple in r, lowest first."""
    s = unipoly_orbit(elems, lam)
    return s.coeffs if isinstance(s, UniPoly) else s


# integer and non-integer coefficients, zero, and a denominator in r
coords_in_r = st.one_of(linear_in_r, rational_in_r,
                        st.builds(lambda a: a * R, small_rationals),
                        st.just(R * 0),
                        small_rationals.map(lambda c: R * 0 + c))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.one_of(st.lists(coords_in_r, min_size=n, max_size=n),
              st.lists(small_rationals, min_size=n, max_size=n)),
    st.lists(st.integers(0, 4), min_size=n, max_size=n))))
def test_packed_orbit_sums_match_unipoly_products(case):
    point, parts = case
    lam = tuple(sorted(parts, reverse=True))
    row = sympoly._Row(point)
    _, elems = clear_denominators(point)
    got = row.orbit(lam)
    assert got == reference_orbit(elems, lam)
    if row.var:
        assert type(got) is tuple and all(type(c) is int for c in got)
    else:
        assert type(got) is int
    if not any(lam):
        assert got == (1 if row.var is None else (1,))


# repeated parts, fewer parts than variables, and every variable used,
# over Q and over Q(r)
ORBIT_CASES = [
    ([Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(5)],
     (2, 2, 1, 0)),
    ([Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(5),
      Fraction(1), Fraction(-4)], (3, 1, 1, 0, 0, 0)),
    ([R + 1, 2 * R, R / 3 - 1, (R + 2) / (R - 1), 5 - R],
     (2, 1, 1, 0, 0)),
    ([R + 1, 2 * R, R / 3 - 1], (3, 2, 1)),
]


def orbit_sums_agree():
    return all(sympoly._Row(point).orbit(lam)
               == reference_orbit(clear_denominators(point)[1], lam)
               for point, lam in ORBIT_CASES)


def _zero_term_dropped(monkeypatch):
    """x_k^0 * m_lam(x_1..x_(k-1)) left out for every nonzero lam."""
    real = sympoly._removals
    monkeypatch.setattr(sympoly, "_removals", lambda parts: [
        step for step in real(parts) if step[0] or not parts])


def _repeated_parts_kept(monkeypatch):
    """A part taken out once per occurrence, not once per value."""
    monkeypatch.setattr(sympoly, "_removals", lambda parts: [(0, parts)] + [
        (a, parts[:j] + parts[j + 1:]) for j, a in enumerate(parts)])


ORBIT_MUTANTS = {"zero-term": _zero_term_dropped,
                 "repeated-parts": _repeated_parts_kept}


@pytest.mark.parametrize("mutant", sorted(ORBIT_MUTANTS))
def test_orbit_mutants_are_caught(monkeypatch, mutant):
    assert orbit_sums_agree()
    ORBIT_MUTANTS[mutant](monkeypatch)
    assert not orbit_sums_agree()


def test_packed_orbit_sums_keep_negative_and_large_coefficients():
    # cancellation to zero, negative coefficients, and a point with a
    # rational denominator q != 1 whose cleared coordinates grow
    point = [R - 7, 7 - R, (3 * R + 1) / 5, Fraction(-2, 3) * R]
    _, elems = clear_denominators(point)
    row = sympoly._Row(point)
    assert row.den != 1
    lams = ((1, 1, 0, 0), (3, 1, 0, 0), (5, 4, 4, 2), (9, 0, 0, 0))
    for lam in lams:
        assert row.orbit(lam) == reference_orbit(elems, lam)
    assert sympoly._Row([R, -R]).orbit((1, 0)) == ()
    # SparsePoly.evaluate sums term by term over the scalars: the same
    # orbits, and large negative coefficients in r
    big = 10 ** 15 * R ** 3 - 999 * R - Fraction(7, 2)
    polys = [sympoly.m_expand(4, lam) for lam in lams] + [
        SparsePoly(4, {(9, 0, 0, 0): big, (0, 1, 4, 0): Fraction(-5 ** 20),
                       (0, 0, 1, 2): -big, (0, 0, 0, 0): R - 10 ** 9})]
    for p in polys:
        assert p.evaluate(point) == sparse_reference(p, point)
    x = [SparsePoly.variable(2, i) for i in range(2)]
    assert (x[0] + x[1]).evaluate([R, -R]) == 0
    # an orbit of size 1 at single-term coordinates of one norm: the
    # bound |orbit| * norm^|lam| is the size of the sum's one coefficient,
    # so a packing one bit narrower would not hold it; positive and
    # negative
    for pt, lam in (([3 * R, -3 * R, 3 * R, -3 * R], (2, 2, 2, 2)),
                    ([3 * R, -3 * R, -3 * R, -3 * R], (1, 1, 1, 1)),
                    ([-5 * R ** 2] * 3, (3, 3, 3))):
        row = sympoly._Row(pt)
        got = row.orbit(lam)
        assert got == reference_orbit(clear_denominators(pt)[1], lam)
        assert sympoly._norm(got) == row.norm ** sum(lam)
    f = SymPoly(4, {(2, 1, 0, 0): Fraction(-1)})
    assert f.evaluate([3 * R] * 4) == reference_evaluate(f, [3 * R] * 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9).flatmap(lambda bits: st.tuples(
    st.just(bits), st.lists(st.integers(-(1 << bits - 1) + 1,
                                        (1 << bits - 1) - 1), max_size=6))))
def test_unpack_inverts_pack_and_refuses_what_does_not_fit(case):
    bits, coeffs = case
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    assert sympoly._unpack(sympoly._pack(coeffs, bits), bits) == coeffs
    # at one bit the digits are -1 and 0, so no positive value fits and
    # unpacking must refuse it rather than loop
    with pytest.raises(ValueError):
        sympoly._unpack(1, 1)
    with pytest.raises(ValueError):
        sympoly._unpack(1 + abs(sympoly._pack(coeffs, bits)), 1)


def test_zero_partition_orbit_is_the_int_one():
    # the one of each world: the int 1 over Q, the coefficient tuple (1,)
    # over Q(r); a constant SymPoly must still evaluate to a Fraction at
    # a symbolic node
    rho = ShiftVector.staircase_multiple(3, R)
    node = rho.point((2, 1, 0))
    half = ShiftVector.staircase_multiple(3, Fraction(1, 2)).point((2, 1, 0))
    for row, lam, one in ((sympoly._Row(node), (), (1,)),
                          (sympoly._Row(node), (0, 0, 0), (1,)),
                          (sympoly._Row(half), (0, 0, 0), 1),
                          (sympoly._Row(()), (), 1)):
        got = row.orbit(lam)
        assert type(got) is type(one) and got == one
    # a cold orbit sum over Q(r) is kept as the int tuple the unpacking
    # leaves, with no UniPoly built around it
    got = sympoly._Row(node).orbit((2, 1, 0))
    assert type(got) is tuple and all(type(c) is int for c in got)
    for c in (Fraction(7, 3), Fraction(0)):
        got = SymPoly(3, {(0, 0, 0): c}).evaluate(node)
        assert type(got) is Fraction and got == c
    assert type(SymPoly(0, {(): Fraction(2)}).evaluate(())) is Fraction
