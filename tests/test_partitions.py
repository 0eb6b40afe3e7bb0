import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from shifted_symfun.partitions import (as_partition, boxes, conjugate,
                                       conjugate_part, contains,
                                       dominance_leq, dominance_less,
                                       enumerate_exact, enumerate_upto,
                                       hook_product_lower,
                                       hook_product_upper,
                                       horizontal_strips, is_partition,
                                       is_vertical_strip, kostka, lower_hook,
                                       pieri_coefficient, rho_hook_product,
                                       rho_hooklength, staircase, trim,
                                       upper_hook, vertical_strips, x_set)
from shifted_symfun.scalars import RationalFunction

ALPHA = RationalFunction.gen("alpha")
R = RationalFunction.gen("r")


def brute_partitions(n, d):
    """Weakly decreasing nonnegative n-tuples summing to d, by filtering."""
    out = set()
    for tup in product(range(d + 1), repeat=n):
        if sum(tup) == d and all(tup[i] >= tup[i + 1] for i in range(n - 1)):
            out.add(tup)
    return out


def test_is_partition_and_padding():
    assert is_partition([3, 1, 0])
    assert not is_partition([1, 2])
    assert not is_partition([2, -1])
    assert as_partition((2, 1), 4) == (2, 1, 0, 0)
    assert trim((2, 1, 0, 0)) == (2, 1)
    with pytest.raises(ValueError):
        as_partition((1, 2), 3)


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    rng = random.Random(7)
    for _ in range(40):
        lam = tuple(sorted((rng.randint(0, 5) for _ in range(4)), reverse=True))
        assert conjugate(conjugate(lam)) == trim(lam)
        for j in range(1, 7):
            cj = conjugate(lam)
            want = cj[j - 1] if j <= len(cj) else 0
            assert conjugate_part(lam, j) == want


def test_dominance():
    assert dominance_leq((2, 2, 0), (3, 1, 0))
    assert not dominance_leq((3, 1, 0), (2, 2, 0))
    assert dominance_leq((1, 0), (2, 0))      # across degrees
    assert not dominance_leq((2, 0), (1, 1))
    assert dominance_less((1, 1), (2, 0))
    assert not dominance_less((2, 0), (2, 0))
    rng = random.Random(8)
    pool = sorted(brute_partitions(3, 4))
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b


def test_contains():
    assert contains((1, 1), (2, 1))
    assert contains((0, 0), (3, 1))
    assert not contains((2, 0), (1, 1))
    assert contains((2, 1), (2, 1))


def test_enumeration_matches_brute_force():
    for n in (1, 2, 3, 4):
        for d in range(6):
            got = enumerate_exact(n, d)
            assert set(got) == brute_partitions(n, d)
            assert got == sorted(got)
            assert all(len(p) == n for p in got)
    counts = [len(enumerate_exact(2, d)) for d in range(6)]
    assert counts == [1, 1, 2, 2, 3, 3]
    assert len(enumerate_exact(4, 5)) == 6


def test_enumeration_order_refines_dominance():
    for n in (2, 3):
        lst = enumerate_upto(n, 5)
        assert lst == sorted(lst, key=lambda p: (sum(p), p))
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                assert not dominance_less(lst[j], lst[i])


def test_staircase_and_boxes():
    assert staircase(3) == (2, 1, 0)
    assert staircase(1) == (0,)
    assert set(boxes((2, 1))) == {(1, 1), (1, 2), (2, 1)}
    assert list(boxes((0, 0))) == []


def test_hooks_frozen():
    # lam = (2,1), box (1,1): arm 1, leg 1
    assert lower_hook((2, 1), (1, 1), ALPHA) == ALPHA + 2
    assert upper_hook((2, 1), (1, 1), ALPHA) == 2 * ALPHA + 1
    assert hook_product_lower((2, 1), ALPHA) == ALPHA + 2
    assert hook_product_upper((2, 1), ALPHA) == ALPHA * ALPHA * (2 * ALPHA + 1)
    assert hook_product_lower((2, 0), ALPHA) == ALPHA + 1
    # classical hook lengths at alpha = 1
    assert hook_product_lower((2, 1), Fraction(1)) == 3
    assert hook_product_upper((3, 1), Fraction(1)) == 8


def test_rho_hooklength_frozen():
    rho = (R, RationalFunction.const("r", Fraction(0)))
    assert rho_hooklength((2, 1), (1, 1), rho) == R + 2
    assert rho_hooklength((2, 1), (1, 2), rho) == 1
    assert rho_hooklength((2, 1), (2, 1), rho) == 1
    assert rho_hook_product((2, 1), rho) == R + 2


def test_hook_scaling_bridge():
    """The staircase-multiple hook lengths are r times upper hooks at 1/r."""
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 4)
        lam = rng.choice(sorted(brute_partitions(n, rng.randint(0, 5))))
        rho = tuple(R * k for k in staircase(n))
        for box in boxes(lam):
            assert rho_hooklength(lam, box, rho) == R * upper_hook(lam, box, 1 / R)
        assert rho_hook_product(lam, rho) == \
            R ** sum(lam) * hook_product_upper(lam, 1 / R)


def test_vertical_strips():
    assert is_vertical_strip((2, 1), (1, 1))
    assert not is_vertical_strip((3, 1), (1, 1))
    assert is_vertical_strip((2, 2), (2, 1))
    assert not is_vertical_strip((2, 1), (2, 2))
    got = {lam for lam, _ in vertical_strips((1, 0), 1)}
    assert got == {(2, 0), (1, 1)}
    got = {lam for lam, _ in vertical_strips((1, 1), 1)}
    assert got == {(2, 1)}
    for lam, rows in vertical_strips((2, 1, 0), 2):
        assert is_vertical_strip(lam, (2, 1, 0))
        assert sum(lam) == 5
        assert len(rows) == 2


def test_horizontal_strips_match_a_filter():
    """Every lam inside mu with mu/lam a horizontal k-strip, against a
    filter over all lam inside mu, largest lam first."""
    for n in range(1, 5):
        for mu in enumerate_upto(n, 7):
            inside = [lam for lam in product(*(range(p + 1) for p in mu))
                      if is_partition(lam)]
            for k in range(sum(mu) + 2):
                want = [lam for lam in inside
                        if sum(mu) - sum(lam) == k
                        and all(lam[i] >= mu[i + 1] for i in range(n - 1))]
                assert horizontal_strips(mu, k) == \
                    sorted(want, reverse=True), (mu, k)


def test_kostka_counts_tableaux():
    # K_(mu, 1^d) counts standard tableaux: the hook length formula
    for mu in enumerate_exact(4, 6):
        hooks = 1
        for i, j in boxes(mu):
            hooks *= upper_hook(trim(mu), (i, j), 1)
        assert kostka(mu, (1,) * 6) == factorial(6) // hooks, mu
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2, 1), (2, 2, 2)) == 2
    assert kostka((2, 2), (2, 2, 0, 0)) == 1
    assert kostka((2, 2), (3, 1)) == 0      # (3, 1) is not below (2, 2)
    assert kostka((), ()) == 1 and kostka((1,), ()) == 0


def test_x_set_and_pieri_coefficient():
    assert x_set((1, 1), (1, 0)) == [(1, 1)]
    assert x_set((2, 0), (1, 0)) == []
    golden = pieri_coefficient((1, 1), (1, 0), ALPHA)
    assert golden == 2 * ALPHA / (ALPHA + 1)
    # adding a row of boxes in fresh columns costs nothing
    assert pieri_coefficient((2, 0), (1, 0), ALPHA) == 1
