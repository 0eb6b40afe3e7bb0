import math
import operator
import random
from fractions import Fraction

import pytest

from shifted_symfun import scalars
from shifted_symfun.scalars import (ExactDivisionError, PoleError,
                                    RationalFunction, TagMismatchError,
                                    UniPoly, binom_scalar,
                                    clear_denominators, falling_factorial,
                                    invert_parameter, scalar_key,
                                    substitute)

T = UniPoly.gen("t")
R = RationalFunction.gen("r")


def rand_poly(rng, var="t", deg=4, lo=-6, hi=6):
    coeffs = [Fraction(rng.randint(lo, hi), rng.randint(1, 4))
              for _ in range(rng.randint(0, deg) + 1)]
    return UniPoly(var, tuple(coeffs))


def rand_rf(rng):
    num = rand_poly(rng, "r")
    den = rand_poly(rng, "r")
    while den.is_zero():
        den = rand_poly(rng, "r")
    return RationalFunction(num, den)


def test_unipoly_basic():
    p = (T + 1) * (T - 1)
    assert p == T * T - 1
    assert p.degree() == 2
    assert p(Fraction(3)) == 8
    assert (T ** 3).coefficient(3) == 1
    assert (T ** 3).coefficient(1) == 0
    assert UniPoly.const("t", Fraction(0)).degree() == -1


def test_unipoly_coefficient_out_of_range():
    p = 2 * T ** 2 - Fraction(3, 2) * T
    for k, want in ((-1, 0), (0, 0), (1, Fraction(-3, 2)), (2, 2), (3, 0),
                    (7, 0)):
        got = p.coefficient(k)
        assert got == want and type(got) is Fraction
    zero = T - T
    for k in (-1, 0, 1):
        assert zero.coefficient(k) == 0 and type(zero.coefficient(k)) is Fraction
    assert p.coeffs == (0, Fraction(-3, 2), 2) and zero.coeffs == ()


def test_unipoly_str():
    assert str(2 * T ** 2 - 3 * T) == "2*t^2 - 3*t"
    assert str(T - T) == "0"


def test_unipoly_divmod_random():
    rng = random.Random(101)
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        q, rem = divmod(a, b)
        assert q * b + rem == a
        assert rem.degree() < b.degree()


def test_unipoly_exact_div():
    a = (T + 2) * (3 * T - 1)
    assert a.exact_div(T + 2) == 3 * T - 1
    with pytest.raises(ExactDivisionError):
        (T + 1).exact_div(T)
    # a RationalFunction divisor is a type misuse, not a zero divisor,
    # even over the same parameter
    for op in (divmod, operator.floordiv, operator.mod, UniPoly.exact_div):
        with pytest.raises(TypeError):
            op(UniPoly.gen("r"), R)
        with pytest.raises(ZeroDivisionError):
            op(T, T - T)


def test_unipoly_gcd_random():
    rng = random.Random(102)
    for _ in range(40):
        g = rand_poly(rng)
        if g.is_zero():
            continue
        a = rand_poly(rng) * g
        b = rand_poly(rng) * g
        if a.is_zero() and b.is_zero():
            continue
        d = a.gcd(b)
        if not a.is_zero():
            assert (a % d).is_zero()
        if not b.is_zero():
            assert (b % d).is_zero()
        assert (d % g.primitive()).is_zero() or d.degree() >= g.degree()


def test_unipoly_eval_matches_expansion():
    rng = random.Random(103)
    for _ in range(30):
        p = rand_poly(rng)
        v = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        direct = sum((p.coefficient(k) * v ** k
                      for k in range(p.degree() + 1)), Fraction(0))
        assert p(v) == direct


def test_rational_function_reduction():
    f = ((R + 1) * (R - 1)) / (R - 1)
    assert f == R + 1
    assert f.is_polynomial()
    zero = R - R
    assert zero.den.degree() == 0 and not zero
    # denominator is kept monic
    g = 1 / (2 * R + 2)
    assert g.den.coefficient(g.den.degree()) == 1
    assert g * (2 * R + 2) == 1


def test_arithmetic_builds_no_unipoly(monkeypatch):
    # values are stored as k * n / d; a UniPoly is built only when the
    # num/den views are read
    calls = []
    real = scalars._poly

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(scalars, "_poly", counted)
    f = ((R + 1) / (R - 2)) * (R * R + 3) + Fraction(1, 2)
    assert calls == []
    assert f.num == UniPoly("r", [2, Fraction(7, 2), 1, 1])
    assert f.den == UniPoly("r", [-2, 1])


def test_adding_a_rational_takes_no_gcd(monkeypatch):
    # k n/d + c = (k n + c d)/d is reduced already
    f = (R + 1) / (R - 2)
    calls = []
    real = scalars._zgcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)
    monkeypatch.setattr(scalars, "_zgcd", counted)
    g = f + Fraction(3, 4)
    h = Fraction(3, 4) + f
    monkeypatch.undo()
    assert calls == []
    assert g == h == (Fraction(7, 4) * R - Fraction(1, 2)) / (R - 2)
    assert (g.k, g.n, g.d) == (Fraction(1, 4), (-2, 7), (-2, 1))
    z = RationalFunction.const("r", 3) + (-3)
    assert (z.k, z.n, z.d) == (0, (), (1,))


def test_scalar_key_reads_the_stored_form():
    a, b = (R * R - 1) / (R - 1), R + 1
    assert a == b and scalar_key(a) == scalar_key(b)
    assert hash(scalar_key(a)) == hash(scalar_key(b))
    assert scalar_key(a) != scalar_key(R + 2)
    three = RationalFunction.const("r", 3)
    assert scalar_key((3 * R) / R) == scalar_key(three)
    # a constant RationalFunction equals its Fraction but keeps its own key
    assert three == Fraction(3) and hash(three) == hash(Fraction(3))
    assert scalar_key(three) != scalar_key(Fraction(3))
    zero = R - R
    assert scalar_key(zero) == scalar_key(RationalFunction.const("r", 0))
    assert scalar_key(zero) != scalar_key(Fraction(0))


def test_rational_function_field_laws():
    rng = random.Random(104)
    for _ in range(25):
        a, b, c = rand_rf(rng), rand_rf(rng), rand_rf(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a
        assert a - a == 0
        assert a + 0 == a and a * 1 == a


def test_rational_function_pow():
    f = (R + 1) / R
    assert f ** 2 == (R + 1) * (R + 1) / (R * R)
    assert f ** 0 == 1
    assert f ** -1 == R / (R + 1)


def test_substitute_and_pole():
    f = 1 / (R - 1)
    assert f.substitute(Fraction(2)) == 1
    with pytest.raises(PoleError):
        f.substitute(Fraction(1))
    assert substitute(Fraction(5), Fraction(7)) == 5
    assert substitute(R + 2, Fraction(3)) == 5


def test_parameter_tags_do_not_mix():
    s = RationalFunction.gen("s")
    with pytest.raises(TagMismatchError):
        _ = R + s
    with pytest.raises(TagMismatchError):
        _ = R * s
    with pytest.raises(TagMismatchError):
        _ = R / s
    with pytest.raises(TagMismatchError):
        _ = UniPoly.gen("t") + UniPoly.gen("u")
    assert scalar_key(Fraction(1, 2)) is not None
    assert scalar_key(R) != scalar_key(s)


def test_invert_parameter_roundtrip():
    rng = random.Random(105)
    for _ in range(20):
        f = rand_rf(rng)
        g = invert_parameter(f, "s")
        back = invert_parameter(g, "r")
        assert back == f
    # spot value: f(r) = r + 1 becomes (1 + s)/s
    s = RationalFunction.gen("s")
    assert invert_parameter(R + 1, "s") == (1 + s) / s


def test_falling_factorial_and_binom():
    for a in range(-3, 7):
        for m in range(0, 5):
            want = 1
            for i in range(m):
                want *= a - i
            assert falling_factorial(Fraction(a), m) == want
    for k in range(0, 6):
        assert binom_scalar(Fraction(7), k) == math.comb(7, k)
    assert falling_factorial(R, 2) == R * (R - 1)
    assert binom_scalar(-R, 2) == R * (R + 1) / 2


def test_clear_denominators():
    vals = [1 / (R + 1), R / ((R + 1) * (R - 2)),
            RationalFunction.const("r", Fraction(3)), Fraction(5, 6),
            RationalFunction.const("r", 0), R / 4]
    den, nums = clear_denominators(vals)
    assert isinstance(den, UniPoly) and den.var == "r"
    assert den.degree() == 2
    for v, num in zip(vals, nums):
        assert isinstance(num, UniPoly) and num.var == "r"
        assert all(c.denominator == 1 for c in num.coeffs)
        assert RationalFunction(num, den) == v
    den, nums = clear_denominators([Fraction(1, 2), Fraction(3), 4,
                                    Fraction(-5, 6)])
    assert (den, nums) == (6, [3, 18, 24, -5])
    assert all(type(x) is int for x in nums)
    assert clear_denominators([]) == (1, [])
    with pytest.raises(TagMismatchError):
        clear_denominators([R, RationalFunction.gen("s")])
