"""Exact scalar arithmetic: rationals, univariate polynomials, rational functions.

Every coefficient in this package is one of three kinds:

  * Fraction            -- plain rational number
  * UniPoly             -- polynomial over Q in one named parameter
  * RationalFunction    -- quotient of two polynomials in the same parameter

A "Scalar" is a Fraction or a RationalFunction.  UniPoly is the type of
a cleared numerator or denominator (the entry type of the linear solver
once rows are cleared, and of ``clear_denominators``) and the type of the
``num``/``den`` views of a RationalFunction.  Its coefficients are
rationals only: a polynomial in t over Q(r) is kept as a tuple of its
t-coefficients, not as a UniPoly.  Mixing scalars that live over different
parameters is a bug, not a coercion opportunity, and raises
TagMismatchError.

Representation.  A UniPoly is a rational content times a primitive
integer polynomial: ``cont`` is an int or a Fraction, and ``prim`` a tuple
of ints, lowest degree first, with gcd 1 and a positive leading entry (the
zero polynomial has content 0 and ``prim == ()``).  By Gauss's lemma products
of primitive parts are primitive, so multiplication needs no gcd; exact
division is integer long division and the gcd is computed on plain ints.
A RationalFunction is stored the same way, as k * n / d with a rational k
and coprime primitive int tuples n and d.  ``coeffs``, the Fraction
coefficient tuple, is built on every read, for rendering only.
"""

from fractions import Fraction
from functools import wraps
from math import factorial, gcd, lcm


class TagMismatchError(TypeError):
    """Arithmetic between scalars over different parameters."""


class PoleError(ZeroDivisionError):
    """Substitution hit a zero of a denominator."""


class ExactDivisionError(ArithmeticError):
    """A division that was promised to be exact left a remainder."""


# -- dense integer polynomials ---------------------------------------------
#
# Tuples or lists of ints, lowest degree first, no trailing zeros.  These
# are the kernel's working representation; nothing outside this module
# sees them.

def _qdiv(a, b):
    """Exact quotient of two rationals; an int when both are ints and
    the division leaves no remainder."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _qnorm(c):
    """An integral Fraction as an int; int arithmetic is much cheaper."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _zprimitive(cs):
    """(content, primitive tuple) of a nonzero trimmed int sequence.

    The content carries the sign of the leading coefficient, so the
    primitive part always has a positive one.
    """
    g = gcd(*cs)
    if cs[-1] < 0:
        g = -g
    if g == 1:
        return 1, tuple(cs)
    return g, tuple([c // g for c in cs])


def _zmul(a, b):
    """Product of two nonzero int polynomials."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple([c * x for x in a])
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a):
                out[i + j] += x * y
    return tuple(out)


def _zpow(a, k):
    result = (1,)
    while k:
        if k & 1:
            result = _zmul(result, a)
        k >>= 1
        if k:
            a = _zmul(a, a)
    return result


def _zcombine(x, a, y, b):
    """x*a + y*b for int scalars x, y; trailing zeros dropped."""
    if len(a) < len(b):
        x, a, y, b = y, b, x, a
    if x == 1 and y == 1:
        out = [u + v for u, v in zip(a, b)]
    else:
        out = [x * u + y * v for u, v in zip(a, b)]
    if len(a) > len(b):
        tail = a[len(b):]
        out.extend(tail if x == 1 else [x * u for u in tail])
    else:
        while out and not out[-1]:
            out.pop()
    return out


def _zdiv_exact(a, b):
    """The quotient a / b in Z[x], or None when b does not divide a."""
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        return None
    lb = b[-1]
    if db == 0:
        if lb == 1:
            return a
        if any(c % lb for c in a):
            return None
        return tuple([c // lb for c in a])
    if b[0] and a[0] % b[0]:
        return None
    rem = list(a)
    low = b[:db]
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        top = rem[k + db]
        if top:
            q, m = divmod(top, lb)
            if m:
                return None
            quo[k] = q
            rem[k:k + db] = [r - q * c for r, c in zip(rem[k:k + db], low)]
    if any(rem[:db]):
        return None
    return tuple(quo)


def _zpseudo_divmod(a, b):
    """(q, r, m) with m*a = q*b + r over Z, deg r < deg b, m = lc(b)^k."""
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        return (), tuple(a), 1
    lb = b[-1]
    rem = list(a)
    quo = [0] * (dq + 1)
    mult = 1
    for k in range(dq, -1, -1):
        top = rem[k + db]
        if not top:
            continue
        if top % lb:
            rem = [lb * c for c in rem]
            quo = [lb * c for c in quo]
            mult *= lb
            top *= lb
        q = top // lb
        quo[k] = q
        for i in range(db + 1):
            rem[k + i] -= q * b[i]
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(quo), tuple(rem), mult


def _zgcd(f, g):
    """(h, f/h, g/h) for primitive f, g with positive leading terms.

    h is their primitive gcd, from the primitive polynomial remainder
    sequence, so both cofactors are primitive too.
    """
    if len(f) == 1 or len(g) == 1:
        return (1,), f, g
    if f == g:
        return f, (1,), (1,)
    a, b = f, g
    while b:
        r = _zpseudo_divmod(a, b)[1]
        a, b = b, (_zprimitive(r)[1] if r else ())
    return a, _zdiv_exact(f, a), _zdiv_exact(g, a)


def _zeval_homog(a, p, q):
    """q^deg(a) * a(p/q) as an int."""
    v = 0
    qk = 1
    for c in reversed(a):
        v = v * p + c * qk
        qk *= q
    return v


# -- univariate polynomials ------------------------------------------------

def _poly(var, cont, prim):
    """UniPoly over Q from a nonzero content and a primitive tuple."""
    p = object.__new__(UniPoly)
    p.var = var
    p.cont = cont
    p.prim = prim
    return p


def _poly_from_ints(var, den, cs):
    """UniPoly with coefficients cs / den; cs a trimmed int list."""
    if not cs:
        return _poly(var, 0, ())
    c, prim = _zprimitive(cs)
    return _poly(var, _qdiv(c, den), prim)


def _ratio_parts(ca, cb):
    """Ints (x, y, den) with ca = x/den and cb = y/den."""
    if type(ca) is int and type(cb) is int:
        return ca, cb, 1
    na, da = ca.numerator, ca.denominator
    nb, db = cb.numerator, cb.denominator
    if da == db:
        return na, nb, da
    g = gcd(da, db)
    return na * (db // g), nb * (da // g), da // g * db


class UniPoly:
    """Dense univariate polynomial, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Coefficients are rationals.  Instances are immutable; see the module
    docstring for the stored form.
    """

    __slots__ = ("var", "cont", "prim")

    def __init__(self, var, coeffs=()):
        self.var = var
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        den = 1
        for c in cs:
            if isinstance(c, Fraction):
                d = c.denominator
                if den % d:
                    den = den // gcd(den, d) * d
            elif not isinstance(c, int):
                raise TypeError(
                    f"cannot use {type(c).__name__} as a coefficient")
        if den == 1:
            ints = [int(c) for c in cs]
        else:
            ints = [c.numerator * (den // c.denominator)
                    if isinstance(c, Fraction) else c * den for c in cs]
        if ints:
            c, self.prim = _zprimitive(ints)
            self.cont = _qdiv(c, den)
        else:
            self.cont, self.prim = 0, ()

    @property
    def coeffs(self):
        """The coefficients as a tuple, lowest degree first; built on
        every read, for rendering."""
        c = Fraction(self.cont)
        return tuple([c * v for v in self.prim])

    @classmethod
    def const(cls, var, c):
        return cls(var, (c,))

    @classmethod
    def gen(cls, var):
        return _poly(var, 1, (0, 1))

    def is_zero(self):
        return not self.prim

    def degree(self):
        return len(self.prim) - 1

    def is_constant(self):
        return len(self.prim) <= 1

    def constant_value(self):
        if len(self.prim) > 1:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.cont)

    def coefficient(self, k):
        if 0 <= k < len(self.prim):
            return Fraction(self.cont) * self.prim[k]
        return Fraction(0)

    def _coerce(self, other):
        """Lift other to a UniPoly in self.var, or return None."""
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise TagMismatchError(
                    f"polynomials in {self.var!r} and {other.var!r} do not mix")
            return other
        if isinstance(other, RationalFunction):
            if other.param == self.var:
                return None  # handled by RationalFunction reflected ops
            raise TagMismatchError(
                f"polynomial in {self.var!r} and rational function in "
                f"{other.param!r} do not mix")
        if isinstance(other, (int, Fraction)):
            if not other:
                return _poly(self.var, 0, ())
            return _poly(self.var, _qnorm(other), (1,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.prim:
            return self
        if not self.prim:
            return o
        x, y, den = _ratio_parts(self.cont, o.cont)
        return _poly_from_ints(self.var, den,
                               _zcombine(x, self.prim, y, o.prim))

    __radd__ = __add__

    def __neg__(self):
        if not self.prim:
            return self
        return _poly(self.var, -self.cont, self.prim)

    def __sub__(self, other):
        return self + (-other if isinstance(other, UniPoly) else -_lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.prim or not o.prim:
            return _poly(self.var, 0, ())
        return _poly(self.var, self.cont * o.cont, _zmul(self.prim, o.prim))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if not self.prim:
            return self if k else _poly(self.var, 1, (1,))
        return _poly(self.var, self.cont ** k, _zpow(self.prim, k))

    def _divisor(self, other):
        o = self._coerce(other)
        if o is None:
            raise TypeError(
                f"no polynomial division by {type(other).__name__}")
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return o

    def __divmod__(self, other):
        o = self._divisor(other)
        q, r, m = _zpseudo_divmod(self.prim, o.prim)
        quo = _poly_from_ints(self.var, 1, list(q))
        rem = _poly_from_ints(self.var, 1, list(r))
        scale = _qdiv(self.cont, m)
        return (_scaled(quo, _qdiv(scale, o.cont)), _scaled(rem, scale))

    def exact_div(self, other):
        o = self._divisor(other)
        if not self.prim:
            return self
        q = _zdiv_exact(self.prim, o.prim)
        if q is None:
            raise ExactDivisionError(f"{self} is not divisible by {other}")
        return _poly(self.var, _qdiv(self.cont, o.cont), q)

    def primitive(self):
        """Scale to coprime integer coefficients with positive leading one."""
        if not self.prim:
            return self
        return _poly(self.var, 1, self.prim)

    def monic(self):
        if self.is_zero():
            return self
        return _poly(self.var, _qdiv(1, self.prim[-1]), self.prim)

    def gcd(self, other):
        """Monic gcd over Q[var], computed on the primitive parts."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"no gcd with {type(other).__name__}")
        if not o.prim:
            return self.monic()
        if not self.prim:
            return o.monic()
        h = _zgcd(self.prim, o.prim)[0]
        return _poly(self.var, _qdiv(1, h[-1]), h)

    def __call__(self, value):
        if isinstance(value, (int, Fraction)):
            if not self.prim:
                return Fraction(0)
            p, q = value.numerator, value.denominator
            return self.cont * Fraction(_zeval_homog(self.prim, p, q),
                                        q ** (len(self.prim) - 1))
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return (self.var == other.var and self.prim == other.prim
                    and self.cont == other.cont)
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # the stored form is unique (see the module docstring); an int and
        # an integral Fraction content hash alike, a constant as its value
        return hash(self.cont if len(self.prim) <= 1
                    else (self.var, self.cont, self.prim))

    def __bool__(self):
        return bool(self.prim)

    def __str__(self):
        if not self.prim:
            return "0"
        parts = []
        for k, c in reversed(tuple(enumerate(self.coeffs))):
            if not c:
                continue
            if k == 0:
                body = str(c)
            else:
                v = self.var if k == 1 else f"{self.var}^{k}"
                if c == 1:
                    body = v
                elif c == -1:
                    body = f"-{v}"
                else:
                    body = f"{c}*{v}"
            if parts and not body.startswith("-"):
                parts.append(f" + {body}")
            elif parts:
                parts.append(f" - {body[1:]}")
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self):
        return f"UniPoly({self.var!r}, {self.coeffs!r})"


def _scaled(p, c):
    """p times a nonzero rational."""
    if not p.prim:
        return p
    return _poly(p.var, p.cont * c, p.prim)


def _lift(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def _rf(var, k, n, d):
    """The RationalFunction k * n / d, from its stored form (see the
    class docstring)."""
    f = object.__new__(RationalFunction)
    f.param, f.k, f.n, f.d = var, k, n, d
    return f


class RationalFunction:
    """Reduced fraction of two polynomials over Q in one parameter.

    Stored as ``k * n / d``: ``k`` is a rational, and ``n`` and ``d`` are
    coprime primitive int tuples, lowest degree first, with positive
    leading entries; zero is ``k = 0, n = (), d = (1,)``.  The form is
    unique, so == compares the stored fields.  ``num`` and ``den`` are
    UniPoly views built on read, ``den`` monic.  Instances are immutable
    and hashable.
    """

    __slots__ = ("param", "k", "n", "d")

    def __init__(self, num, den=None):
        if not isinstance(num, UniPoly):
            raise TypeError("numerator must be a UniPoly")
        n, d, k = num.prim, (1,), num.cont
        if den is not None:
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            if num.var != den.var:
                raise TagMismatchError(
                    f"numerator in {num.var!r}, denominator in {den.var!r}")
            if n:
                d, k = den.prim, _qdiv(k, den.cont)
                if len(n) > 1 and len(d) > 1:
                    _, n, d = _zgcd(n, d)
        self.param, self.k, self.n, self.d = num.var, k, n, d

    @property
    def num(self):
        if not self.n:
            return _poly(self.param, 0, ())
        return _poly(self.param, _qdiv(self.k, self.d[-1]), self.n)

    @property
    def den(self):
        return _poly(self.param, _qdiv(1, self.d[-1]), self.d)

    @classmethod
    def gen(cls, param):
        return cls(UniPoly.gen(param))

    @classmethod
    def const(cls, param, c):
        return cls(UniPoly.const(param, _lift(c)))

    def is_constant(self):
        return len(self.n) <= 1 and len(self.d) == 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.k)

    def is_polynomial(self):
        return len(self.d) == 1

    def as_unipoly(self):
        if not self.is_polynomial():
            raise ValueError(f"{self} has a nontrivial denominator")
        return self.num

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.param != self.param:
                raise TagMismatchError(
                    f"rational functions in {self.param!r} and {other.param!r} do not mix")
            return other
        if isinstance(other, (int, Fraction)):
            return _rf(self.param, _qnorm(other), (1,) if other else (), (1,))
        if isinstance(other, UniPoly):
            if other.var != self.param:
                raise TagMismatchError(
                    f"rational function in {self.param!r} and polynomial "
                    f"in {other.var!r} do not mix")
            return _rf(self.param, other.cont, other.prim, (1,))
        return None

    def __add__(self, other):
        var = self.param
        if isinstance(other, (int, Fraction)):
            # k n/d + c = (k n + c d)/d, still reduced
            if not other:
                return self
            x, y, den = _ratio_parts(self.k, _qnorm(other))
            n = _zcombine(x, self.n, y, self.d)
            if not n:
                return _rf(var, 0, (), (1,))
            c, n = _zprimitive(n)
            return _rf(var, _qdiv(c, den), n, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.n:
            return self
        if not self.n:
            return o
        # k1 n1/d1 + k2 n2/d2 over d1 when the denominators agree, else
        # over d1*d2
        d1, d2 = self.d, o.d
        x, y, den = _ratio_parts(self.k, o.k)
        if d1 == d2:
            n, d = _zcombine(x, self.n, y, o.n), d1
        else:
            n = _zcombine(x, _zmul(self.n, d2), y, _zmul(o.n, d1))
            d = _zmul(d1, d2)
        if not n:
            return _rf(var, 0, (), (1,))
        c, n = _zprimitive(n)
        if len(n) > 1 and len(d) > 1:
            _, n, d = _zgcd(n, d)
        return _rf(var, _qdiv(c, den), n, d)

    __radd__ = __add__

    def __neg__(self):
        return _rf(self.param, -self.k, self.n, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.n:
                return _rf(self.param, 0, (), (1,))
            return _rf(self.param, self.k * _qnorm(other), self.n, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1, n2, d2 = self.n, self.d, o.n, o.d
        if not n1 or not n2:
            return _rf(self.param, 0, (), (1,))
        # cross-cancel: both inputs are reduced, so the product is too
        if len(d2) > 1 and len(n1) > 1:
            _, n1, d2 = _zgcd(n1, d2)
        if len(d1) > 1 and len(n2) > 1:
            _, n2, d1 = _zgcd(n2, d1)
        return _rf(self.param, self.k * o.k, _zmul(n1, n2), _zmul(d1, d2))

    __rmul__ = __mul__

    def _inverse(self):
        if not self.n:
            raise ZeroDivisionError("division by zero rational function")
        return _rf(self.param, _qdiv(1, self.k), self.d, self.n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        inv = self._inverse()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * inv

    def __pow__(self, k):
        if k < 0:
            return self._inverse() ** (-k)
        if not self.n:
            return self if k else _rf(self.param, 1, (1,), (1,))
        return _rf(self.param, self.k ** k, _zpow(self.n, k),
                   _zpow(self.d, k))

    def substitute(self, value):
        """Evaluate at a rational value of the parameter."""
        p, q = value.numerator, value.denominator
        dv = _zeval_homog(self.d, p, q)  # q^deg(d) * d(p/q)
        if not dv:
            raise PoleError(f"{self} has a pole at {self.param}={value}")
        return self.k * Fraction(_zeval_homog(self.n, p, q) * q ** len(self.d),
                                 dv * q ** len(self.n))

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return (self.n == other.n and self.d == other.d
                    and self.k == other.k and self.param == other.param)
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.k == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.k)
        return hash((self.param, self.k, self.n, self.d))

    def __bool__(self):
        return bool(self.n)

    def __str__(self):
        ns = str(self.num)
        if self.is_polynomial():
            return ns
        if " " in ns:
            ns = f"({ns})"
        return f"{ns}/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


# -- helpers on the Scalar union ---------------------------------------------

def is_scalar(x):
    return isinstance(x, (Fraction, RationalFunction))


def scalar_key(x):
    """Hashable cache key that separates the scalar worlds."""
    if isinstance(x, Fraction):
        return ("q", x)
    if isinstance(x, RationalFunction):
        return ("rf", x.param, x.k, x.n, x.d)
    raise TypeError(f"not a scalar: {x!r}")


def memoized(table, key):
    """Decorator: cache results in the dict ``table`` under ``key(...)``.

    ``key`` takes the function's arguments; a miss stores one entry, a hit
    none, and callers treat values as immutable.  Keys use ``scalar_key``:
    a constant RationalFunction equals and hashes like its Fraction.
    """
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs)
            got = table.get(k)
            if got is None:
                got = table[k] = fn(*args, **kwargs)
            return got
        return wrapper
    return decorate


def substitute(x, value):
    """Specialize the parameter of a scalar to a rational value."""
    value = _lift(value)
    if isinstance(x, (int, Fraction)):
        return _lift(x)
    if isinstance(x, RationalFunction):
        return x.substitute(value)
    if isinstance(x, UniPoly):
        return x(value)
    raise TypeError(f"cannot substitute into {type(x).__name__}")


def falling_factorial(a, m):
    """a(a-1)...(a-m+1); the empty product for m = 0."""
    if m < 0:
        raise ValueError("falling factorial needs m >= 0")
    result = Fraction(1)
    for i in range(m):
        result = result * (a - i)
    return result


def binom_scalar(a, k):
    """Binomial coefficient with an arbitrary scalar top argument."""
    if k < 0:
        return Fraction(0)
    return falling_factorial(a, k) / factorial(k)


def _prim_lcm(polys):
    """The lcm of the primitive parts of nonzero UniPolys in one
    parameter, as a primitive int tuple with a positive leading entry."""
    out = None
    for p in polys:
        if len(p.prim) > 1:
            out = p if out is None else out * p.exact_div(out.gcd(p))
    return out.prim if out else (1,)


def clear_denominators(values):
    """(den, nums) with values[k] == nums[k] / den for every k.

    Over Q den and the nums are ints, and den is the lcm of the
    denominators.  As soon as one value is a RationalFunction, den and the
    nums are UniPolys in its parameter with integer coefficients; den is
    the lcm of the denominators' primitive parts times the lcm of the
    rational denominators left over.
    """
    params = {v.param for v in values if isinstance(v, RationalFunction)}
    if not params:
        den = lcm(*(v.denominator for v in values))
        return den, [v.numerator * (den // v.denominator) for v in values]
    if len(params) > 1:
        raise TagMismatchError(f"rational functions in {sorted(params)} "
                               "do not mix")
    param = params.pop()
    plcm = _prim_lcm([_poly(param, 1, v.d) for v in values
                      if isinstance(v, RationalFunction) and len(v.d) > 1])
    parts = []  # each value as k * prim / plcm, k rational, prim over Z
    for v in values:
        if not v:
            parts.append((0, ()))
        elif isinstance(v, RationalFunction):
            parts.append((v.k, _zmul(v.n, _zdiv_exact(plcm, v.d))))
        else:
            parts.append((v, plcm))
    q = lcm(*(k.denominator for k, _ in parts))
    return (_poly(param, q, plcm),
            [_poly(param, k.numerator * (q // k.denominator), prim)
             if k else _poly(param, 0, ()) for k, prim in parts])


def _ratio(num, den):
    """The scalar num / den for cleared numerators and denominators: ints,
    or integer UniPolys in one parameter (either side may be an int)."""
    if isinstance(den, UniPoly):
        if not isinstance(num, UniPoly):
            num = _poly(den.var, num, (1,) if num else ())
        return RationalFunction(num, den)
    if isinstance(num, UniPoly):
        return RationalFunction(num, _poly(num.var, den, (1,)))
    return Fraction(num, den)


def invert_parameter(x, new_param):
    """Rewrite a scalar f(p) as f(1/q) over the new parameter q.

    Fractions pass through unchanged.  For a rational function N(p)/D(p)
    the result is q^(deg D - deg N) * rev(N)(q) / rev(D)(q) where rev
    reverses the coefficient sequence, read off the primitive int tuples:
    with the powers of p split off first, the reversals of a coprime pair
    stay coprime and neither has the factor q, so no gcd is taken.
    """
    if isinstance(x, (int, Fraction)):
        return _lift(x)
    if not isinstance(x, RationalFunction):
        raise TypeError(f"cannot invert parameter of {type(x).__name__}")
    k, num, den = x.k, x.n, x.d
    if not num:
        return _rf(new_param, 0, (), (1,))
    shift = len(den) - len(num)
    num, den = _reversed(num), _reversed(den)
    if num[-1] < 0:
        k, num = -k, tuple(-c for c in num)
    if den[-1] < 0:
        k, den = -k, tuple(-c for c in den)
    if shift > 0:
        num = (0,) * shift + num
    elif shift < 0:
        den = (0,) * -shift + den
    return _rf(new_param, k, num, den)


def _reversed(cs):
    """The int tuple cs reversed, with the zeros it ends in dropped."""
    low = 0
    while not cs[low]:
        low += 1
    return cs[low:][::-1]
