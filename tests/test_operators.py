import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from types import FunctionType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shifted_symfun.interpolation import (ShiftVector, interpolation_basis,
                                          interpolation_polynomial)
from shifted_symfun import checks, operators
from shifted_symfun.operators import (OperatorMatrix, apply_difference_family,
                                      apply_raising, apply_sekiguchi_debiard,
                                      eigenvalue_poly, inhomogeneous_lift)
from shifted_symfun.partitions import (dominance_leq, enumerate_upto,
                                       staircase)
from shifted_symfun.scalars import RationalFunction, TagMismatchError
from shifted_symfun.sympoly import SparsePoly, SymPoly, _strict, elementary

from reference_determinants import (alternant, apply_family, block_factor,
                                    block_members, block_strict_part,
                                    block_vandermonde, cutoff_determinant,
                                    member_terms, subset_determinant)

R = RationalFunction.gen("r")


def rand_sym(rng, n, d):
    terms = {}
    for lam in enumerate_upto(n, d):
        if rng.random() < 0.6:
            terms[lam] = Fraction(rng.randint(-4, 4))
    return SymPoly(n, terms)


def orbit_member(rep, rows):
    """c_I from the family representative c_(I0), |I0| = |I|: permuting
    the rows of the determinant gives c_I(x) = sgn(tau) c_(I0)(x_tau),
    where tau lists I, then the rest, and (x_tau)_i = x_(tau(i))."""
    n = rep.n
    tau = tuple(rows) + tuple(i for i in range(n) if i not in rows)
    sign = (-1) ** sum(1 for a, b in combinations(tau, 2) if a > b)
    terms = {}
    for key, c in rep.terms.items():
        moved = [0] * n
        for i, e in enumerate(key[:n]):
            moved[tau[i]] = e
        terms[tuple(moved) + key[n:]] = sign * c
    return SparsePoly(n, terms, rep.has_t)


def expanded_phi(n, r, size):
    """phi_(I0), I0 = {0, ..., size - 1}, expanded in full from the
    reference factor: V(x_I0) V(x_rest) B_size."""
    return block_vandermonde(n, size) * block_factor(n, r, size)


def expanded_d(n, r, size):
    """d_(I0) expanded in full from the reference factor:
    (-1)^size * prod_{i not in I0} (x_i + t) * phi_(I0)."""
    t = SparsePoly.t_var(n)
    outside = (SparsePoly.variable(n, i) + t for i in range(size, n))
    return prod(outside, start=expanded_phi(n, r, size) * (-1) ** size)


def test_subset_coefficient_factorization():
    """The d_(I0) expanded from the reference factors B_size as
    (-1)^|I0| * prod_{i not in I0} (x_i + t) * V(x_I0) V(x_rest) B_size,
    one per size, give every d_I of the generating determinant through
    the orbit identity."""
    for r in (R, Fraction(1, 2), Fraction(-5, 3), Fraction(0), Fraction(7)):
        for n in (1, 2, 3, 4):
            for size in range(n + 1):
                rep = expanded_d(n, r, size)
                for rows in combinations(range(n), size):
                    assert orbit_member(rep, rows) == \
                        subset_determinant(rows, n, r), (n, r, rows)


def test_cutoff_phi_equals_its_determinant():
    """The reference factor B_size times its two block Vandermondes gives
    the cut-off determinant expanded from its definition, for every I at
    n <= 5 through the orbit identity.  Contents may differ while the
    polynomials agree, so the test compares with ==."""
    for r in (R, Fraction(1, 2), Fraction(-5, 3), Fraction(0), Fraction(7)):
        for n in range(1, 6):
            for size in range(n + 1):
                rep = expanded_phi(n, r, size)
                for rows in combinations(range(n), size):
                    assert orbit_member(rep, rows) == \
                        cutoff_determinant(rows, n, r), (n, r, rows)


def test_cutoff_phi_frozen_small():
    # n = 1: B_0 = 1, B_1 = x; n = 2: B_1 = x_0 (x_0 - x_1 - r)
    assert block_factor(1, R, 0) == SparsePoly.const(1, 1)
    assert block_factor(1, R, 1) == SparsePoly.variable(1, 0)
    x0, x1 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    assert block_factor(2, R, 1) == x0 * (x0 - x1 - R)
    # phi_(0) at n = 2 is x_0^2 - x_0 x_1 - r x_0: keys (x-part, t, r, int)
    (member,) = operators._members(2, R, 1)
    assert member[0] == 1 and member[1] == 1
    assert sorted(member[2]) == [((1, 0), 0, 1, -1), ((1, 1), 0, 0, -1),
                                 ((2, 0), 0, 0, 1)]


def test_members_are_the_block_strict_parts_of_the_determinants():
    """Each member the image kernel reads, formed once off the Laplace
    expansion of phi_(I0), equals the block-strict part of its
    determinant expanded in full: d_(I0) for the t-family, phi_(I0) for
    raising by k; compared by == on scalars."""
    for r in (R, Fraction(1, 2), Fraction(-5, 3), Fraction(0), Fraction(7)):
        for n in range(1, 6):
            family = operators._members(n, r, operators._T_FAMILY)
            assert [m[0] for m in family] == list(range(n + 1))
            for member in family:
                size = member[0]
                want = subset_determinant(tuple(range(size)), n, r)
                assert member_terms(member) == \
                    block_strict_part(want, size), (n, r, size)
            for k in range(n + 1):
                (member,) = operators._members(n, r, k)
                want = cutoff_determinant(tuple(range(k)), n, r)
                assert member[0] == k
                assert member_terms(member) == \
                    block_strict_part(want, k), (n, r, k)


SHIFTS = (R, Fraction(1, 2), Fraction(-5, 3), Fraction(0), Fraction(7))


def members_agree(build, n, r):
    """build(n, r, family) against the reference pipeline, which expands
    each B_size from its linear factors, checks it block-symmetric and
    sorts its keys (``block_members``): equal terms for every family
    at n, and contents of the same scalar type, so a member with no r
    stays over Q."""
    for family in [operators._T_FAMILY, *range(n + 1)]:
        got, want = build(n, r, family), block_members(n, r, family)
        if [m[0] for m in got] != [m[0] for m in want]:
            return False
        for g, w in zip(got, want):
            if (member_terms(g) != member_terms(w)
                    or type(g[1]) is not type(w[1])):
                return False
    return True


@pytest.mark.parametrize("r", SHIFTS, ids=str)
def test_members_equal_the_block_factor_pipeline(r):
    assert all(members_agree(operators._members, n, r) for n in range(1, 7))


def _laplace_sign_dropped(monkeypatch):
    """Every Laplace sign forced to +1; ``_shifted_alternant`` keeps the
    real sort signs, rebuilt over globals that hold the real sort."""
    real, alternant = operators._sort_sign, operators._shifted_alternant
    monkeypatch.setattr(operators, "_shifted_alternant", FunctionType(
        alternant.__code__, dict(vars(operators), _sort_sign=real)))
    monkeypatch.setattr(operators, "_sort_sign", lambda x: (real(x)[0], 1))


def _binomial_off_by_one(monkeypatch):
    """C(b + 1, c) for C(b, c) in every column of a_beta(x + r)."""
    monkeypatch.setattr(operators, "comb", lambda b, c: comb(b + 1, c))


def _one_strip_dropped(monkeypatch):
    """The t-strips u with one entry left out of d_(I0)."""
    monkeypatch.setattr(operators, "product", lambda *a, **kw: [
        u for u in product(*a, **kw) if sum(u) != 1])


MUTANTS = {"sign": _laplace_sign_dropped, "binomial": _binomial_off_by_one,
           "t-strip": _one_strip_dropped}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_member_mutants_are_caught(monkeypatch, mutant):
    """Each mutant's members, built past their cache, no longer agree
    with the reference pipeline."""
    MUTANTS[mutant](monkeypatch)
    fresh = operators._members.__wrapped__
    assert not all(members_agree(fresh, n, r)
                   for r in (R, Fraction(1, 2)) for n in range(1, 4))


@pytest.mark.parametrize("mutant", ["sign", "binomial"])
@pytest.mark.parametrize("r", [None, Fraction(1, 2)], ids=["symbolic", "1/2"])
def test_cutoff_catches_the_member_mutants(monkeypatch, mutant, r):
    """check_cutoff reads the raising members themselves, so a mutant
    member fails it."""
    MUTANTS[mutant](monkeypatch)
    monkeypatch.setattr(checks, "_members", operators._members.__wrapped__)
    assert checks.check_cutoff(3, 3, r=r)["status"] == "fail"


betas = st.sets(st.integers(0, 6), min_size=1, max_size=4).map(
    lambda s: tuple(sorted(s, reverse=True)))


@settings(max_examples=40, deadline=None)
@given(betas, st.one_of(st.just(R), st.builds(Fraction, st.integers(-9, 9),
                                              st.integers(1, 5))))
@example((6, 5, 3, 0), R)
@example((4, 2), Fraction(-3, 2))
@example((1,), Fraction(0))
def test_shifted_alternant_is_the_expanded_determinant(beta, r):
    """a_beta(x + r) = sum_gamma c_gamma r^(|beta| - |gamma|) a_gamma(x):
    the column helper's c_gamma against the strictly decreasing keys of
    det[(x_i + r)^beta_j] expanded by the reference ``alternant``."""
    m = len(beta)

    def entry(i, j):
        p = SparsePoly.const(m, Fraction(1))
        for _ in range(beta[j]):
            p = p * (SparsePoly.variable(m, i) + r)
        return p
    want = {k: c for k, c in alternant(m, entry).terms.items() if _strict(k)}
    got = operators._shifted_alternant(beta)
    assert all(_strict(g) for g in got)
    terms = {g: c * r ** (sum(beta) - sum(g)) for g, c in got.items()}
    assert {g: c for g, c in terms.items() if c} == want


def test_cutoff_vanishing_where_strip_breaks():
    rho = ShiftVector.staircase_multiple(3, R)
    for mu in enumerate_upto(3, 4):
        pt = rho.point(mu)
        for size in range(4):
            for rows in combinations(range(3), size):
                shifted = list(mu)
                for i in rows:
                    shifted[i] -= 1
                ok = all(shifted[i] >= shifted[i + 1] for i in range(2)) \
                    and shifted[-1] >= 0
                val = orbit_member(expanded_phi(3, R, size),
                                   rows).evaluate(pt)
                if not ok:
                    assert val == 0


def t_value(coeffs, t):
    """sum_p c_p t^p for a coefficient tuple from eigenvalue_poly."""
    return sum(c * t ** p for p, c in enumerate(coeffs))


def test_family_on_constants():
    """On 1 the family reduces to the empty-partition eigenvalue."""
    one = SymPoly.one(2)
    fam = apply_difference_family(one, R)
    want = eigenvalue_poly((0, 0), R, 2)  # (t + r)(t + 0)
    assert want == (0, R, 1)
    for p in range(3):
        c = want[p]
        if c:
            assert fam[p] == one * c
        else:
            assert p not in fam


def test_eigenvalue_poly_frozen():
    e = eigenvalue_poly((1, 0), R, 2)
    assert e == (0, R + 1, 1)
    e3 = eigenvalue_poly((2, 1, 0), R, 3)
    assert len(e3) == 4
    for tv in (Fraction(0), Fraction(1), Fraction(-1)):
        assert t_value(e, tv) == (tv + R + 1) * tv
        want = (tv + 2 * R + 2) * (tv + R + 1) * tv
        assert t_value(e3, tv) == want
    # (t + 2 + 1/2)(t + 1) at r = 1/2
    assert eigenvalue_poly((2, 1), Fraction(1, 2), 2) == \
        (Fraction(5, 2), Fraction(7, 2), 1)


def test_eigenvalue_poly_is_the_subset_sum():
    """Entry p is e_(n-p) of the constants lam_i + r*delta_i, each a sum
    of products over the index sets of size n - p."""
    for r in (R, 1 / R, R + Fraction(1, 3), Fraction(1, 2)):
        for n in range(1, 6):
            delta = staircase(n)
            for lam in enumerate_upto(n, 4):
                consts = [lam[i] + r * delta[i] for i in range(n)]
                want = tuple(
                    sum((prod(s, start=Fraction(1))
                         for s in combinations(consts, n - p)), Fraction(0))
                    for p in range(n + 1))
                assert eigenvalue_poly(lam, r, n) == want


def test_interpolation_polynomials_are_eigenfunctions():
    rho = ShiftVector.staircase_multiple(2, R)
    for d in range(4):
        for lam, P in interpolation_basis(2, d, rho).items():
            fam = apply_difference_family(P, R)
            eig = eigenvalue_poly(lam, R, 2)
            for p in range(3):
                assert fam.get(p, SymPoly.zero(2)) == P * eig[p]


def test_difference_component_identity():
    rng = random.Random(41)
    f = rand_sym(rng, 2, 3)
    assert apply_difference_family(f, R)[f.n] == f


def test_raising_creates_columns():
    for n in (2, 3):
        rho = ShiftVector.staircase_multiple(n, R)
        one = SymPoly.one(n)
        for k in range(1, n + 1):
            lam = (1,) * k + (0,) * (n - k)
            assert apply_raising(one, k, R) == \
                interpolation_polynomial(lam, rho)


def test_raising_top_component():
    rng = random.Random(42)
    for _ in range(8):
        n = rng.randint(2, 3)
        f = rand_sym(rng, n, 3)
        if f.is_zero():
            continue
        for k in range(1, n + 1):
            img = apply_raising(f, k, R)
            assert img.top_component() == (elementary(k, n) * f).top_component()
            assert img.degree() == f.degree() + k


def test_sekiguchi_triangular_with_eigenvalue_diagonal():
    t0 = Fraction(1)
    for n in (2, 3):
        basis = enumerate_upto(n, 3)
        mat = OperatorMatrix.build(
            lambda f: apply_sekiguchi_debiard(f, R, t_value=t0),
            n, basis, basis)
        same_degree = lambda a, b: sum(a) == sum(b) and dominance_leq(a, b)
        assert mat.is_triangular(same_degree)
        for mu in mat.source:
            assert mat.entry(mu, mu) == t_value(eigenvalue_poly(mu, R, n), t0)


def test_sekiguchi_on_random_input_matches_matrix():
    rng = random.Random(43)
    n, d = 2, 3
    basis = enumerate_upto(n, d)
    mat = OperatorMatrix.build(
        lambda g: apply_sekiguchi_debiard(g, R, t_value=Fraction(1)),
        n, basis, basis)
    f = rand_sym(rng, n, d)
    img = apply_sekiguchi_debiard(f, R, t_value=Fraction(1))
    want = SymPoly.zero(n)
    for j, mu in enumerate(mat.source):
        c = f.coefficient(mu)
        if c:
            for i, lam in enumerate(mat.target):
                e = mat.rows[i][j]
                if e:
                    want = want + SymPoly.basis(n, lam, Fraction(1)) * (e * c)
    assert img == want


def test_operator_matrix_algebra():
    n, d = 2, 2
    raise_1 = lambda f: apply_raising(f, 1, R)
    e1 = OperatorMatrix.build(raise_1, n, enumerate_upto(n, d),
                              enumerate_upto(n, d + 1))
    e1_up = OperatorMatrix.build(raise_1, n, enumerate_upto(n, d + 1),
                                 enumerate_upto(n, d + 2))
    comp = e1_up @ e1
    assert comp.source == e1.source and comp.target == e1_up.target
    diff = comp - comp
    assert diff.is_zero()
    with pytest.raises(ValueError):
        _ = e1 @ e1  # bases do not chain


def test_operator_matrix_product_matches_the_entrywise_sum():
    """Over Q, over Q(r), and with one operand over each, every entry
    of a product equals the scalar sum."""
    rng = random.Random(7)
    pool = {"q": [Fraction(0), Fraction(0), Fraction(3, 4), Fraction(-5),
                  Fraction(2, 9)],
            "r": [Fraction(0), R, (R + 1) / (R + 2), Fraction(-1, 3),
                  R * R / (2 * R - 3)]}
    basis = enumerate_upto(2, 2)
    for left, right in (("q", "q"), ("r", "r"), ("q", "r"), ("r", "q")):
        a = OperatorMatrix(basis, basis, [[rng.choice(pool[left])
                                           for _ in basis] for _ in basis])
        b = OperatorMatrix(basis, basis, [[rng.choice(pool[right])
                                           for _ in basis] for _ in basis])
        got = a @ b
        for i in range(len(basis)):
            for j in range(len(basis)):
                want = sum((a.rows[i][k] * b.rows[k][j]
                            for k in range(len(basis))), Fraction(0))
                assert got.rows[i][j] == want


@pytest.mark.parametrize("r", [R, Fraction(3, 2)], ids=["symbolic", "3/2"])
def test_matrix_products_match_the_composed_operators(r):
    """Column mu of M_i @ M_j is op_i(op_j m_mu), for two raising
    operators and for two components of the t-family."""
    n, d = 3, 3
    zero = SymPoly.zero(n)

    def raising(k):
        return lambda f: apply_raising(f, k, r)

    def difference(k):
        return lambda f: apply_difference_family(f, r).get(n - k, zero)

    def upto(e):
        return enumerate_upto(n, e)

    i, j = 1, 2
    # op_j sends degree <= d into degree <= mid, op_i that into <= top
    for op, mid, top in ((raising, d + j, d + j + i), (difference, d, d)):
        product = (OperatorMatrix.build(op(i), n, upto(mid), upto(top))
                   @ OperatorMatrix.build(op(j), n, upto(d), upto(mid)))
        for col, mu in enumerate(product.source):
            want = op(i)(op(j)(SymPoly.basis(n, mu)))
            got = {lam: row[col] for lam, row in zip(product.target,
                                                      product.rows)}
            assert SymPoly(n, got) == want


def test_inhomogeneous_lift_small():
    # in one box the lift of m_1 is exactly the degree-one interpolation poly
    rho = ShiftVector.staircase_multiple(2, R)
    f = SymPoly.basis(2, (1, 0))
    assert inhomogeneous_lift(f, R) == interpolation_polynomial((1, 0), rho)


def test_difference_family_never_raises_degree():
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(1, 3)
        f = rand_sym(rng, n, 4)
        if f.is_zero():
            continue
        for g in apply_difference_family(f, R).values():
            assert g.degree() <= f.degree()


def test_families_are_cached_per_scalar_world():
    """Equal shifts from Q and Q(r) fill separate cache entries, and the
    members of each world give every member of its family."""
    one_q, one_r = Fraction(1), RationalFunction.const("r", 1)
    assert one_q == one_r and hash(one_q) == hash(one_r)
    t_family = operators._T_FAMILY
    for n in (1, 2, 3, 4):
        worlds = []  # the t-family's and the raising members over Q, Q(r)
        for one in (one_q, one_r):
            members = operators._members(n, one, t_family)
            assert isinstance(members, tuple) and len(members) == n + 1
            assert operators._members(n, one, t_family) is members
            raising = [operators._members(n, one, k)[0]
                       for k in range(n + 1)]
            assert all(operators._members(n, one, k)[0] is member
                       for k, member in enumerate(raising))
            worlds.append((members, raising))
        (members_q, raising_q), (members_r, raising_r) = worlds
        assert members_q is not members_r
        assert all(a is not b for a, b in zip(raising_q, raising_r))
        for (members, raising), world_r in zip(worlds, (False, True)):
            # r enters every member of size 0 < k < n, so from n = 2 on
            conts = [cont for _, cont, _ in members + tuple(raising)]
            assert any(isinstance(c, RationalFunction) for c in conts) \
                == (world_r and n > 1)
            for size in range(n + 1):
                d = subset_determinant(tuple(range(size)), n, one_q)
                assert member_terms(members[size]) == \
                    block_strict_part(d, size), (n, size)
                phi = cutoff_determinant(tuple(range(size)), n, one_q)
                assert member_terms(raising[size]) == \
                    block_strict_part(phi, size), (n, size)


# -- application by linearity -------------------------------------------------

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
# coefficients over Q(r): polynomials in r and quotients by r + c
r_coeffs = st.one_of(
    small_rationals,
    st.builds(lambda a, b: a * R + b, small_rationals, small_rationals),
    st.builds(lambda a, b: a / (R + b), small_rationals,
              st.integers(-3, 3)))
shifts = st.one_of(st.just(R),
                   st.builds(Fraction, st.integers(-12, 12),
                             st.integers(1, 7)))


def general_inputs(n):
    """SymPolys of degree <= 3 over Q or over Q(r), with mixed contents;
    the empty dict gives the zero polynomial."""
    basis = enumerate_upto(n, 3)
    return st.sampled_from((small_rationals, r_coeffs)).flatmap(
        lambda coeffs: st.dictionaries(st.sampled_from(basis), coeffs,
                                       max_size=5)).map(
        lambda terms: SymPoly(n, terms))


def same(got, want):
    """Equal, with every coefficient of the same scalar type."""
    assert got == want
    assert {lam: type(c) for lam, c in got.terms.items()} == \
        {lam: type(c) for lam, c in want.terms.items()}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(general_inputs(n), st.integers(0, n))), shifts)
@example((SymPoly.zero(2), 0), R)
@example((SymPoly.zero(3), 3), Fraction(1, 2))
@example((SymPoly.one(3), 3), R)
@example((SymPoly.basis(2, (0, 0), Fraction(-7, 3)), 0), Fraction(3, 2))
@example((SymPoly(3, {(2, 1, 0): Fraction(1, 2), (1, 1, 0): Fraction(2, 3),
                      (0, 0, 0): 5}), 1), Fraction(-2, 5))
@example((SymPoly(3, {(1, 0, 0): 2, (2, 0, 0): Fraction(-3, 7)}), 2), R)
@example((SymPoly(3, {(1, 1, 0): (R + 1) / (R - 2), (0, 0, 0): R}), 2),
         Fraction(3, 4))
@example((SymPoly(2, {(2, 1): R / 3, (1, 0): Fraction(1, 5)}), 2), R)
def test_linearity_matches_the_kernel(case, r):
    """The images of the m_mu, formed by the kernel once per process and
    extended by linearity, against the families applied to f directly
    through the full products (``reference_determinants.apply_family``):
    Q and Q(r) inputs at rational and symbolic shifts, k = 0 to n."""
    f, k = case
    n = f.n
    want = apply_family(f, [(size, subset_determinant(tuple(range(size)),
                                                      n, r))
                            for size in range(n + 1)], True)
    got = apply_difference_family(f, r)
    assert list(got) == sorted(got) == list(want)
    for p in want:
        same(got[p], want[p])
    same(apply_raising(f, k, r),
         apply_family(f, [(k, cutoff_determinant(tuple(range(k)), n, r))],
                      False))


def test_linearity_refuses_an_input_over_another_parameter():
    # r enters phi_(0) through x_0 - x_1 - r; the input lives over Q(s)
    s = RationalFunction.gen("s")
    f = SymPoly(2, {(1, 0): s, (0, 0): Fraction(1, 2)})
    with pytest.raises(TagMismatchError):
        apply_family(f, [(1, cutoff_determinant((0,), 2, R))], False)
    with pytest.raises(TagMismatchError):
        apply_raising(f, 1, R)
    with pytest.raises(TagMismatchError):
        apply_difference_family(f, R)
    with pytest.raises(TagMismatchError):
        apply_sekiguchi_debiard(f, R)
