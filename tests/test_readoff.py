"""Oracles for the Schur read-off tail of the operators.

Each operator sum is alternating in x, so the operators form only its
strictly decreasing keys and read the quotient by the Vandermonde off
them (``sympoly.family_image``, ``sympoly.sekiguchi_image``).  These
tests compare that route with the full one, which forms every key,
divides by the Vandermonde and collects the orbits
(``collect_symmetric``, one power of t at a time), with each d_I and
phi_I expanded from the determinant that defines it, and the image
kernel ``sympoly.family_image`` with the full product of each
representative, antisymmetrized and read off by the reference
``collect_alternating``, and the block-strict keys the reference reads
off a block-symmetric factor with those of the product formed in full.
They also pin the s -> m table to known Kostka rows and to the
bialternant, and check the sign rules that the read-off rests on
against a cycle count.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shifted_symfun import operators, sympoly
from shifted_symfun.operators import (apply_difference_family, apply_raising,
                                      apply_sekiguchi_debiard)
from shifted_symfun.partitions import enumerate_upto, staircase
from shifted_symfun.scalars import RationalFunction, _lift, substitute
from shifted_symfun.sympoly import (SparsePoly, SymPoly, _from_cleared, _sign,
                                    _sort_sign, collect_symmetric, complete,
                                    elementary, family_image, schur_expand)

from reference_determinants import (_signed_permutations, apply_family,
                                    bialternant_row, block_members,
                                    block_strict, block_strict_part,
                                    block_vandermonde, collect_alternating,
                                    cutoff_determinant, divide_by_vandermonde,
                                    member_terms, subset_determinant,
                                    vandermonde)

PROPS = settings(max_examples=25, deadline=None)
R = RationalFunction.gen("r")

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
# r > 1, r < 0 and non-unit denominators all come up; so does symbolic r
shifts = st.one_of(st.just(R),
                   st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)))


def sym_polys(n, dmax):
    basis = enumerate_upto(n, dmax)
    return st.dictionaries(st.sampled_from(basis), small_rationals,
                           max_size=5).map(lambda terms: SymPoly(n, terms))


cases = st.integers(1, 3).flatmap(
    lambda n: st.tuples(sym_polys(n, 4), st.integers(0, n)))
# the operators form one member per size; at n = 4 the middle size has
# C(4, 2) = 6 members, so the comparison with every member reaches n = 4
family_cases = st.integers(1, 4).flatmap(
    lambda n: st.tuples(sym_polys(n, 4 if n < 4 else 3), st.integers(0, n)))


def full_route(total):
    """Divide by the Vandermonde and collect every orbit, each power of
    t on its own when there is a t."""
    q = divide_by_vandermonde(total)
    if not q.has_t:
        return collect_symmetric(q)
    return {tp: collect_symmetric(part)
            for tp, part in q.t_components().items()}


def full_family(f, family, has_t):
    src = f.to_sparse(has_t)
    total = SparsePoly.zero(f.n, has_t)
    for rows, coeff in family:
        total = total + coeff * src.translate(
            [int(i in rows) for i in range(f.n)])
    return full_route(total)


def full_sekiguchi(f, r, t_value=None):
    n = f.n
    delta = staircase(n)
    r = _lift(r)
    t = SparsePoly.t_var(n)
    total = SparsePoly.zero(n, t_value is None)
    for key, c in f.to_sparse().terms.items():
        for perm, sign in _signed_permutations(n):
            consts = [r * delta[perm[i]] + key[i] for i in range(n)]
            mono = SparsePoly(n, {tuple(key[i] + delta[perm[i]]
                                        for i in range(n)): sign * c})
            if t_value is None:
                total = total + prod((t + cc for cc in consts), start=mono)
            else:
                total = total + mono * prod(cc + t_value for cc in consts)
    return full_route(total)


@PROPS
@given(family_cases, shifts)
@example((SymPoly(3, {(2, 1, 0): Fraction(3, 2), (1, 1, 1): -1}), 2),
         Fraction(5, 3))
@example((SymPoly(2, {(3, 1): 1, (0, 0): 2}), 1), R)
@example((SymPoly(4, {(2, 1, 0, 0): 1, (1, 1, 1, 0): Fraction(-2, 3),
                      (0, 0, 0, 0): 5}), 2), R)
@example((SymPoly(4, {(3, 0, 0, 0): Fraction(1, 2), (1, 1, 0, 0): 3}), 1),
         Fraction(3, 2))
def test_difference_and_raising_match_the_full_route(case, r):
    """One product per size, antisymmetrized, against the sum over every
    index set I with each c_I its own determinant."""
    f, k = case
    n = f.n
    subsets = [rows for size in range(n + 1)
               for rows in combinations(range(n), size)]
    d_family = [(rows, subset_determinant(rows, n, r)) for rows in subsets]
    assert apply_difference_family(f, r) == full_family(f, d_family, True)
    phi_family = [(rows, cutoff_determinant(rows, n, r))
                  for rows in combinations(range(n), k)]
    assert apply_raising(f, k, r) == full_family(f, phi_family, False)


@PROPS
@given(family_cases, shifts, st.one_of(st.none(), small_rationals))
@example((SymPoly(3, {(2, 2, 0): 1, (1, 0, 0): Fraction(-1, 3)}), 0),
         Fraction(7, 2), None)
@example((SymPoly(4, {(2, 1, 0, 0): 1, (0, 0, 0, 0): Fraction(-2, 3)}), 0),
         R, None)
# the eigen route's shift r = 1/alpha has a denominator to clear
@example((SymPoly(3, {(2, 1, 0): 1, (1, 1, 1): Fraction(-3, 2)}), 0),
         1 / R, Fraction(1))
@example((SymPoly(3, {(3, 0, 0): Fraction(1, 2), (1, 0, 0): 2}), 0),
         1 / R, None)
# a t_value over Q(r), with r rational or symbolic
@example((SymPoly(2, {(2, 0): 1, (1, 1): Fraction(-1, 3)}), 0),
         Fraction(3, 2), (R + 1) / 2)
@example((SymPoly(3, {(2, 1, 0): Fraction(5, 2), (0, 0, 0): 1}), 0),
         1 / R, R / (R + 3))
def test_sekiguchi_matches_the_full_route(case, r, t_value):
    f, _ = case
    assert apply_sekiguchi_debiard(f, r, t_value=t_value) == \
        full_sekiguchi(f, r, t_value)


@PROPS
@given(st.integers(1, 3).flatmap(lambda n: sym_polys(n, 4)), st.booleans())
def test_collect_alternating_inverts_the_vandermonde_product(g, with_t):
    v = vandermonde(g.n)
    if not with_t:
        assert collect_alternating(v * g.to_sparse()) == g
        return
    # g + t * 2g, split back by the power of t
    t = SparsePoly.t_var(g.n)
    total = v.with_t() * (g.to_sparse(True) + t * (g * 2).to_sparse(True))
    want = {p: h for p, h in ((0, g), (1, g * 2)) if h}
    assert collect_alternating(total) == want


def image_parts(n, image):
    """A cleared ``family_image`` as {t power: SymPoly}."""
    return {p: _from_cleared(n, den, dict(zip(lams, nums)))
            for p, den, lams, nums in image}


def same_parts(got, want):
    """Equal t powers in the same order, equal SymPolys, and every
    coefficient of the same scalar type."""
    assert list(got) == list(want)
    for p, g in want.items():
        assert got[p] == g
        assert {lam: type(c) for lam, c in got[p].terms.items()} == \
            {lam: type(c) for lam, c in g.terms.items()}


# (n, mu, d-family or phi-family, the sizes of the members taken)
kernel_cases = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(enumerate_upto(n, 4 if n < 4 else 3)),
    st.booleans(), st.sets(st.integers(0, n), min_size=1)))


@PROPS
@given(kernel_cases, shifts)
# d_(I0) at size 0 lives over Q even at symbolic r (no r slot), d_(I0)
# at size n has no t slot, and the two alone give an image over Q
@example((3, (2, 1, 0), True, {0}), R)
@example((3, (2, 1, 0), True, {3}), R)
@example((3, (3, 1, 0), True, {0, 3}), R)
@example((3, (3, 1, 0), True, {0, 1, 3}), R)
@example((4, (2, 1, 0, 0), True, {0, 1, 2, 3, 4}), R)
@example((2, (1, 1), False, {0, 1, 2}), Fraction(3, 2))
def test_family_image_is_the_antisymmetrized_full_product(case, r):
    """The kernel pairs the block-decreasing keys of each representative,
    here read off its block-symmetric factor by the reference pipeline,
    with the packed shifted orbit, and sums the members before the Schur
    rows; the reference forms each full product with the determinant,
    antisymmetrizes it and reads it off by ``collect_alternating``."""
    n, mu, subset, sizes = case
    sizes = sorted(sizes)
    if subset:
        family = block_members(n, r, "t")
        members = [family[k] for k in sizes]
        determinant = subset_determinant
    else:
        members = [block_members(n, r, k)[0] for k in sizes]
        determinant = cutoff_determinant
    full = [(k, determinant(tuple(range(k)), n, r)) for k in sizes]
    want = apply_family(SymPoly.basis(n, mu), full, subset)
    if not subset:
        want = {0: want} if want else {}
    same_parts(image_parts(n, family_image(n, mu, members)), want)


# (n, size, has t, the terms of a seed polynomial in x, then t), with
# coefficients over Q or polynomials in r
block_cases = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.booleans(),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * (n + 1)),
                    st.one_of(small_rationals,
                              st.builds(lambda a, b: a * R + b,
                                        small_rationals, small_rationals)),
                    max_size=4)))


@PROPS
@given(block_cases)
@example((3, 1, True, {(2, 1, 0, 1): R, (0, 0, 0, 0): Fraction(1, 2)}))
@example((4, 2, False, {(1, 0, 2, 1, 0): 3, (2, 2, 1, 1, 0): 2 * R - 1}))
def test_block_sort_is_the_block_strict_part_of_the_full_product(case):
    """For b symmetrized inside [0, size) and [size, n), the member the
    reference ``block_strict`` forms (each key of b plus the block
    staircase, sorted with its sign inside each block) against the
    block-strict part of V(x_I0) V(x_rest) b expanded with the reference
    ``vandermonde``."""
    n, size, has_t, terms = case
    width = n + 1 if has_t else n
    seed = {k[:width]: c for k, c in terms.items()}
    sym = {}
    for head in permutations(range(size)):
        for tail in permutations(range(size, n)):
            perm = head + tail
            for k, c in seed.items():
                moved = tuple(k[i] for i in perm) + k[n:]
                sym[moved] = sym.get(moved, 0) + c
    b = SparsePoly(n, sym, has_t)
    member = block_strict(size, b)
    assert member[0] == size
    assert member_terms(member) == \
        block_strict_part(block_vandermonde(n, size) * b, size)


def test_family_image_packs_exponents_beyond_eight_bits():
    # m_(260) at n = 2: the sums reach 262, so a slot of 8 bits would
    # carry into the next one
    f = SymPoly.basis(2, (260, 0))
    half = Fraction(1, 2)
    want = apply_family(f, [(1, cutoff_determinant((0,), 2, half))], False)
    members = operators._members(2, half, 1)
    same_parts(image_parts(2, family_image(2, (260, 0), members)), {0: want})
    assert apply_raising(f, 1, half) == want
    assert want.top_component() == elementary(1, 2) * f
    # at symbolic r the r slot sits above the same x slots
    assert apply_raising(f, 1, R).map_coeffs(
        lambda c: substitute(c, half)) == want


def test_schur_table_matches_the_bialternant():
    """The rows counted as Kostka numbers, against the bialternant
    a_(mu + delta) / V, for n <= 5 and |mu| <= 7, lam descending."""
    for n in range(1, 6):
        for mu in enumerate_upto(n, 7):
            row, want = schur_expand(n, mu), bialternant_row(n, mu)
            assert dict(row) == want, (n, mu)
            assert [lam for lam, _ in row] == sorted(want, reverse=True)


def test_schur_table_matches_kostka_rows():
    assert dict(schur_expand(3, (2, 1))) == {(2, 1, 0): 1, (1, 1, 1): 2}
    assert dict(schur_expand(4, (2, 2))) == {
        (2, 2, 0, 0): 1, (2, 1, 1, 0): 1, (1, 1, 1, 1): 2}
    for n in (1, 2, 3):
        for d in range(6):
            # s_(d) = h_d and s_(1^k) = e_k
            assert SymPoly(n, dict(schur_expand(n, (d,)))) == complete(d, n)
            if d <= n:
                assert SymPoly(n, dict(schur_expand(n, (1,) * d))) == \
                    elementary(d, n)
    assert all(type(k) is int for _, k in schur_expand(3, (3, 1)))


def cycle_sign(perm):
    """(-1)^(n - number of cycles): the sign of a permutation of range(n),
    counted without inversions."""
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


def test_permutation_sign_matches_the_cycle_count():
    for n in range(6):
        for perm in permutations(range(n)):
            assert _sign(perm) == cycle_sign(perm)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=6))
def test_sort_sign_sorts_with_the_sign_of_the_sort(x):
    y, sign = _sort_sign(tuple(x))
    assert y == tuple(sorted(x, reverse=True))
    if len(set(x)) < len(x):
        assert sign == 0
        return
    # y[i] = x[order[i]]: order is the sorting permutation
    order = sorted(range(len(x)), key=lambda i: -x[i])
    assert sign == cycle_sign(order)


def test_sekiguchi_with_unsigned_sorts_leaves_the_full_route(monkeypatch):
    # in m_(2) at n = 3, x^(0, 2, 0) lands on (2, 3, 0): one transposition
    # from (3, 2, 0), so dropping the sign of the sort changes the result
    f = SymPoly(3, {(2, 0, 0): 1, (1, 1, 0): Fraction(-1, 2)})
    want = full_sekiguchi(f, R)
    assert apply_sekiguchi_debiard(f, R) == want

    def unsigned(x):
        y, sign = _sort_sign(x)
        return y, abs(sign)
    monkeypatch.setattr(sympoly, "_sort_sign", unsigned)
    # a family image formed meanwhile would keep unsigned sorts in the
    # process-wide sort tables; hand it a fresh table per call instead
    monkeypatch.setattr(sympoly, "_sort_table", lambda n, width: {})
    assert apply_sekiguchi_debiard(f, R) != want
