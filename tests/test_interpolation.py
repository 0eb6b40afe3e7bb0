import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shifted_symfun.interpolation import (NonDominantError, ShiftVector,
                                          column_forms,
                                          factorial_monomial_sym,
                                          factorial_schur,
                                          first_column_reduction, interpolate,
                                          interpolate_recursive,
                                          interpolation_basis,
                                          interpolation_polynomial,
                                          single_row, solve_linear)
from shifted_symfun.partitions import (contains, dominance_leq,
                                       dominance_less, enumerate_upto,
                                       hook_product_lower, rho_hook_product,
                                       staircase)
from shifted_symfun.scalars import RationalFunction
from shifted_symfun.sympoly import SymPoly, falling_power, schur_expand

from reference_determinants import factorial_schur_bialternant

R = RationalFunction.gen("r")


def gauss_solve(A, b):
    """Plain fraction-field Gaussian elimination, used as an oracle."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def test_solve_linear_against_gaussian_oracle():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 5)
        A = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        try:
            want = gauss_solve(A, b)
        except StopIteration:
            continue  # singular; see the singular test below
        got = solve_linear(A, [[v] for v in b])[0]
        assert list(got) == want


def test_solve_linear_symbolic():
    A = [[R, 1], [1, R]]
    B = [[R * R], [R]]
    x, y = solve_linear(A, B)[0]
    assert R * x + y == R * R
    assert x + R * y == R


def test_solve_linear_singular():
    with pytest.raises(NonDominantError):
        solve_linear([[Fraction(1), Fraction(1)],
                      [Fraction(2), Fraction(2)]],
                     [[Fraction(1)], [Fraction(0)]])
    # the same refusal over Q(r): the second row is r times the first
    with pytest.raises(NonDominantError):
        solve_linear([[R, R ** 0], [R * R, R]], [[R ** 0], [R]])


def test_shift_vector_dominance():
    rho = ShiftVector.staircase_multiple(3, Fraction(-1, 2))
    assert not rho.is_dominant()
    assert rho.offending_ratio() == (1, 2)
    assert ShiftVector.staircase_multiple(3, Fraction(2, 3)).is_dominant()
    assert ShiftVector.staircase_multiple(3, R).is_dominant()
    # -2 staircase: fine up to degree 1 in two variables, dead at 2
    rho2 = ShiftVector.staircase_multiple(2, Fraction(-2))
    assert rho2.is_d_dominant(1)
    assert not rho2.is_d_dominant(2)
    generic = ShiftVector.generic((Fraction(1, 3), Fraction(1, 2), Fraction(0)))
    assert generic.is_dominant()


def test_equal_shift_vectors_hash_alike():
    # a constant RationalFunction equals its Fraction, so the vectors are
    # equal and a set holds one of them
    rational = ShiftVector.generic([Fraction(1), Fraction(0)])
    constant = ShiftVector.generic([RationalFunction.const("r", 1),
                                    RationalFunction.const("r", 0)])
    assert rational == constant
    assert hash(rational) == hash(constant)
    assert len({rational, constant}) == 1
    assert rational.key() != constant.key()


def test_points():
    rho = ShiftVector.staircase_multiple(2, Fraction(1, 2))
    assert rho.point((2, 1)) == (Fraction(5, 2), Fraction(1))
    assert rho.point((0, 0)) == (Fraction(1, 2), Fraction(0))


def test_first_nontrivial_polynomial():
    # one box, two variables: x1 + x2 - (rho1 + rho2)
    rho = ShiftVector.generic((R + 3, R))
    P = interpolation_polynomial((1, 0), rho)
    want = SymPoly.basis(2, (1, 0)) - SymPoly.one(2) * (2 * R + 3)
    assert P == want


def test_one_variable_product_form():
    # n = 1, staircase shift is zero: P_(d) is the falling factorial
    from shifted_symfun.sympoly import collect_symmetric
    for d in range(5):
        rho = ShiftVector.staircase_multiple(1, R)
        P = interpolation_polynomial((d,), rho)
        want = collect_symmetric(falling_power(1, 0, d))
        assert P == want


def test_vanishing_and_normalization_small():
    rho = ShiftVector.staircase_multiple(2, Fraction(3))
    for d in range(4):
        for lam, P in interpolation_basis(2, d, rho).items():
            for mu in enumerate_upto(2, d):
                val = P.evaluate(rho.point(mu))
                if mu == lam:
                    assert val == rho_hook_product(lam, rho.entries)
                else:
                    assert val == 0
            assert P.coefficient(lam) == 1


def test_interpolate_matches_prescribed_values():
    rng = random.Random(32)
    rho = ShiftVector.generic((Fraction(5, 3), Fraction(1, 7)))
    for d in range(4):
        values = {mu: Fraction(rng.randint(-9, 9))
                  for mu in enumerate_upto(2, d)}
        f = interpolate(2, d, values, rho)
        assert f.degree() <= d
        for mu, want in values.items():
            assert f.evaluate(rho.point(mu)) == want


def test_interpolate_refuses_bad_shift():
    rho = ShiftVector.staircase_multiple(2, Fraction(-1))
    with pytest.raises(NonDominantError):
        interpolate(2, 1, {(0, 0): Fraction(1), (1, 0): Fraction(0)}, rho)


def test_recursive_equals_direct():
    rng = random.Random(33)
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3, 4):
            rho = ShiftVector.generic(
                tuple(Fraction(rng.randint(1, 40), 7) + 2 * i
                      for i in range(n)))
            values = {mu: Fraction(rng.randint(-9, 9))
                      for mu in enumerate_upto(n, d)}
            assert interpolate(n, d, values, rho) == \
                interpolate_recursive(n, d, values, rho)


def test_recursive_symbolic():
    rho = ShiftVector.staircase_multiple(2, R)
    values = {mu: Fraction(0) for mu in enumerate_upto(2, 2)}
    values[(1, 1)] = Fraction(1)
    direct = interpolate(2, 2, values, rho)
    assert interpolate_recursive(2, 2, values, rho) == direct
    # that interpolant is P_(1,1) over its hook product
    P = interpolation_polynomial((1, 1), rho)
    hook = rho_hook_product((1, 1), rho.entries)
    assert direct * hook == P


def test_column_forms_agree_and_match_solver():
    for n in (2, 3):
        rho = ShiftVector.staircase_multiple(n, R)
        for k in range(1, n + 1):
            first, second = column_forms(k, rho)
            assert first == second
            lam = (1,) * k + (0,) * (n - k)
            assert first == interpolation_polynomial(lam, rho)


def test_column_forms_generic_shift():
    rho = ShiftVector.generic((Fraction(9, 2), Fraction(7, 3), Fraction(1, 5)))
    for k in (1, 2, 3):
        first, second = column_forms(k, rho)
        assert first == second


def test_factorial_schur_is_unit_staircase_form():
    for n, dmax in ((3, 4), (4, 3)):
        rho = ShiftVector.staircase_multiple(n, Fraction(1))
        for lam in enumerate_upto(n, dmax):
            assert factorial_schur(lam, n) == interpolation_polynomial(lam, rho)
    # classical top components
    assert factorial_schur((2, 0), 2).top_component() == \
        SymPoly(2, {(2, 0): Fraction(1), (1, 1): Fraction(1)})
    assert factorial_schur((2, 1), 2).top_component() == \
        SymPoly.basis(2, (2, 1))


def test_factorial_schur_matches_the_bialternant():
    """The tableau sum against the falling-power alternant divided by the
    Vandermonde."""
    for n, dmax in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 4)):
        for lam in enumerate_upto(n, dmax):
            assert factorial_schur(lam, n) == \
                factorial_schur_bialternant(lam, n)


def shapes(n, size):
    """A partition of ``size`` with at most n parts."""
    return st.sampled_from([lam for lam in enumerate_upto(n, size)
                            if sum(lam) == size])


shape_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.integers(0, 6).flatmap(lambda d: shapes(n, d)),
    st.integers(0, 7).flatmap(lambda d: shapes(n, d))))


@settings(max_examples=30, deadline=None)
@given(shape_pairs)
@example(((3, 2, 1, 0), (3, 2, 1, 0)))
@example(((2, 2, 0), (4, 1, 1)))
def test_factorial_schur_vanishes_off_the_shapes_it_fits(pair):
    """s_lam(x | a) has the Schur function s_lam as its top component,
    vanishes at mu + delta unless lam fits inside mu, is positive there
    when it does, and takes the hook product at lam + delta (the
    shifted Schur function of Okounkov and Olshanski)."""
    lam, mu = pair
    n = len(lam)
    f = factorial_schur(lam, n)
    assert f.top_component() == SymPoly(n, dict(schur_expand(n, lam)))

    def at(nu):
        return f.evaluate(tuple(Fraction(a + b)
                                for a, b in zip(nu, staircase(n))))
    assert at(lam) == hook_product_lower(lam, Fraction(1))
    if contains(lam, mu):
        assert at(mu) > 0
    else:
        assert at(mu) == 0


def test_factorial_monomials_are_zero_shift_form():
    rho = ShiftVector.staircase_multiple(3, Fraction(0))
    for lam in enumerate_upto(3, 4):
        assert factorial_monomial_sym(lam, 3) == \
            interpolation_polynomial(lam, rho)


def test_single_row_closed_form():
    for n in (1, 2, 3):
        rho = ShiftVector.staircase_multiple(n, R)
        for d in (1, 2, 3, 4):
            lam = (d,) + (0,) * (n - 1)
            assert single_row(d, R, n) == interpolation_polynomial(lam, rho)
    assert single_row(3, Fraction(5, 3), 2) == interpolation_polynomial(
        (3, 0), ShiftVector.staircase_multiple(2, Fraction(5, 3)))


def test_first_column_reduction():
    rho = ShiftVector.staircase_multiple(2, R)
    for lam in ((1, 1), (2, 1), (2, 2), (3, 1)):
        assert first_column_reduction(lam, rho) == \
            interpolation_polynomial(lam, rho)


def test_staircase_convention():
    assert ShiftVector.staircase_multiple(3, Fraction(2)).entries == \
        tuple(Fraction(2) * k for k in staircase(3))


def test_staircase_multiple_is_the_one_staircase_builder():
    for n in range(1, 5):
        sym = ShiftVector.staircase_multiple(n)
        gen = ShiftVector.generic([R * k for k in staircase(n)])
        assert sym == gen and sym.key() == gen.key() and sym.r == R
        assert sym.key() == ShiftVector.staircase_multiple(n, R).key()
        for r in ("1/2", "2", 2, Fraction(-3, 4)):
            rho = ShiftVector.staircase_multiple(n, r)
            want = ShiftVector.generic([Fraction(r) * k for k in staircase(n)])
            assert rho == want and rho.key() == want.key()
            assert type(rho.r) is Fraction and rho.r == Fraction(r)
    with pytest.raises(ValueError):
        ShiftVector.staircase_multiple(2, "symbolic")


def test_cached_polynomial_cannot_be_mutated():
    from shifted_symfun.checks import run_check
    rho = ShiftVector.staircase_multiple(2, Fraction(1, 2))
    P = interpolation_polynomial((1, 0), rho)
    with pytest.raises(TypeError):
        P.terms[(0, 0)] = Fraction(7)
    assert interpolation_polynomial((1, 0), rho) is P
    assert run_check("vanishing", 2, 1, r=Fraction(1, 2))["status"] == "pass"


def test_cached_basis_cannot_be_mutated():
    from shifted_symfun.checks import run_check
    rho = ShiftVector.staircase_multiple(2, Fraction(1, 2))
    basis = interpolation_basis(2, 1, rho)
    P = basis[(1, 0)]
    # the returned dict is the caller's own: emptying or overwriting it
    # leaves the cache and the next call as they were
    basis.clear()
    basis[(1, 0)] = SymPoly.one(2)
    again = interpolation_basis(2, 1, rho)
    assert again is not basis and set(again) == {(1, 0)}
    assert again[(1, 0)] is P is interpolation_polynomial((1, 0), rho)
    assert run_check("vanishing", 2, 1, r=Fraction(1, 2))["status"] == "pass"


def test_cached_polynomial_pickles_and_deep_copies():
    import copy
    import pickle
    P = interpolation_polynomial((2, 1), ShiftVector.staircase_multiple(2, R))
    for Q in (pickle.loads(pickle.dumps(P)), copy.deepcopy(P)):
        assert Q == P and Q is not P
        with pytest.raises(TypeError):
            Q.terms[(0, 0)] = Fraction(7)


@contextmanager
def cold_basis_cache():
    """The basis cache emptied for the block and restored after it."""
    from shifted_symfun import interpolation
    cache = interpolation._BASIS_CACHE
    saved = dict(cache)
    cache.clear()
    try:
        yield cache
    finally:
        cache.clear()
        cache.update(saved)


def test_memo_miss_stores_one_entry_and_hit_none():
    from shifted_symfun import jack
    rho = ShiftVector.staircase_multiple(2, Fraction(5, 7))
    with cold_basis_cache() as cache:
        # one entry per (shift key, partition); a degree is built on the
        # lower ones, and with those cached a miss stores the entries of
        # its own partitions only
        interpolation_basis(2, 1, rho)
        assert set(cache) == {(rho.key(), (0, 0)), (rho.key(), (1, 0))}
        basis = interpolation_basis(2, 2, rho)
        key = rho.key()
        assert set(cache) == {(key, lam) for lam in enumerate_upto(2, 2)}
        assert all(cache[key, lam][0] is P for lam, P in basis.items())
        assert interpolation_basis(2, 2, rho) == basis
        assert interpolation_basis(2, d=2, rho=rho)[(1, 1)] is basis[(1, 1)]
        assert interpolation_polynomial((1, 1), rho) is basis[(1, 1)]
        assert len(cache) == 4
    alpha = jack.alpha_gen() + Fraction(5, 7)
    before = len(jack._EIGEN_CACHE)
    P = jack.jack_P_eigen((2, 0), 2, alpha)
    assert len(jack._EIGEN_CACHE) == before + 1
    assert jack.jack_P_eigen((2, 0), 2, alpha) is P
    jack.jack_P_eigen((1, 1), 2, alpha)  # same degree: already solved
    assert len(jack._EIGEN_CACHE) == before + 1


def test_newton_reduces_each_partition_once(monkeypatch):
    from shifted_symfun import interpolation
    real = interpolation._reduce
    reduced = []

    def counted(nu, lower):
        reduced.append(nu)
        return real(nu, lower)

    monkeypatch.setattr(interpolation, "_reduce", counted)
    rho = ShiftVector.staircase_multiple(4, 3 * R)
    nodes = enumerate_upto(4, 6)
    with cold_basis_cache():
        interpolation_basis(4, 6, rho)
        # one reduction per partition, p_4(d) at degree d, each after
        # every partition below it; no linear system is solved
        assert sorted(reduced) == sorted(nodes)
        degrees = [sum(nu) for nu in reduced]
        assert [degrees.count(d) for d in range(7)] == [1, 1, 2, 3, 5, 6, 9]
        for i, nu in enumerate(reduced):
            assert {mu for mu in nodes if dominance_less(mu, nu)} <= set(
                reduced[:i])
        interpolation_basis(4, 6, rho)
        interpolation_polynomial((3, 2, 1, 0), rho)
    assert len(reduced) == 27


def test_polynomial_builds_its_down_set_only(monkeypatch):
    from shifted_symfun import interpolation
    real = interpolation._reduce
    reduced = []

    def counted(nu, lower):
        reduced.append(nu)
        return real(nu, lower)

    monkeypatch.setattr(interpolation, "_reduce", counted)
    rho = ShiftVector.staircase_multiple(5)
    lam = (4, 2, 1, 1, 0)
    with cold_basis_cache() as cache:
        P = interpolation_polynomial(lam, rho)
        down = [mu for mu in enumerate_upto(5, 8) if dominance_leq(mu, lam)]
        assert reduced == down and len(down) == 41
        assert set(cache) == {(rho.key(), mu) for mu in down}
        assert interpolation_basis(5, 8, rho)[lam] is P


def test_basis_refuses_a_reduction_that_skips_the_same_degree(monkeypatch):
    """The basis checks its own node values: reduced only against the
    lower degrees, P_(2,0,0) keeps its value at (1,1,0) + rho."""
    from shifted_symfun import interpolation, partitions
    rho = ShiftVector.staircase_multiple(3, 5 * R)
    monkeypatch.setattr(
        interpolation, "dominance_less",
        lambda mu, lam: sum(mu) < sum(lam) and partitions.dominance_less(
            mu, lam))
    with cold_basis_cache() as cache:
        with pytest.raises(ArithmeticError,
                           match=r"P_\(2, 0, 0\).* node \(1, 1, 0\)"):
            interpolation_basis(3, 4, rho)
        assert (rho.key(), (2, 0, 0)) not in cache


def test_builder_that_drops_a_partition_below_is_refused(monkeypatch):
    """A mutant builder whose down-set misses (1, 0, 0): P_(1,1,0),
    reduced against P_(0,0,0) alone, keeps its value at (1,0,0) + rho."""
    from shifted_symfun import interpolation, partitions
    rho = ShiftVector.staircase_multiple(3, 7 * R)
    monkeypatch.setattr(
        interpolation, "dominance_less",
        lambda mu, lam: mu != (1, 0, 0) and partitions.dominance_less(
            mu, lam))
    with cold_basis_cache():
        with pytest.raises(ArithmeticError,
                           match=r"P_\(1, 1, 0\).* node \(1, 0, 0\)"):
            interpolation_polynomial((1, 1), rho)


dominant_shifts = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.fractions(-6, 6, max_denominator=4), min_size=n, max_size=n)).map(
        ShiftVector.generic).filter(ShiftVector.is_dominant)


@settings(max_examples=15, deadline=None)
@given(dominant_shifts, st.data())
def test_down_set_build_equals_the_whole_degree(rho, data):
    n = rho.n
    k = data.draw(st.integers(0, n))
    with cold_basis_cache() as cache:
        interpolation_polynomial((1,) * k, rho)
        # the down-set of (1^k) is {(1^j) : j <= k}
        assert len(cache) == k + 1
        assert set(cache) == {(rho.key(), (1,) * j + (0,) * (n - j))
                              for j in range(k + 1)}
    with cold_basis_cache():
        bases = {d: interpolation_basis(n, d, rho) for d in range(6)}
    for lam in enumerate_upto(n, 5):
        with cold_basis_cache():
            assert interpolation_polynomial(lam, rho) == bases[sum(lam)][lam]


def test_memoized_function_stays_a_plain_function():
    import inspect
    assert inspect.isfunction(interpolation_basis)
    assert interpolation_basis.__module__ == "shifted_symfun.interpolation"
    assert interpolation_basis.__qualname__ == "interpolation_basis"
    from shifted_symfun.interpolation import _newton
    assert inspect.isfunction(_newton) and _newton.__qualname__ == "_newton"
