"""Sparse multivariate polynomials and the monomial symmetric basis.

Two containers share the work:

  * SparsePoly -- one scalar content times a dict of cleared numerators
    (ints over Q, integer UniPolys in r over Q(r)), keyed by exponent
    tuples with an optional slot for the generating variable t
  * SymPoly    -- symmetric polynomials stored by partition in the m-basis

Conversions go down via to_sparse (which reads the SymPoly's own
cleared form) / m_expand and back up via collect_symmetric, which
verifies symmetry instead of assuming it.  The operator images
(``family_image``, ``sekiguchi_image``) read the quotient of an
alternating polynomial by the Vandermonde off its strictly decreasing
keys and stay in cleared int form.  That conversion,
``SparsePoly.terms`` and ``_from_cleared`` (the end of a cleared linear
combination in the m-basis, ``_combine``) are the only places where
the numerators turn back into Fraction or RationalFunction
coefficients.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, lcm, prod
from operator import add, gt, mul, sub
from types import MappingProxyType

from .partitions import (as_partition, conjugate, dominance_leq,
                         enumerate_exact, kostka, staircase, trim)
from .scalars import (ExactDivisionError, RationalFunction, TagMismatchError,
                      UniPoly, _lift, _poly, _prim_lcm, _ratio,
                      clear_denominators, is_scalar, memoized, scalar_key)


class NotSymmetricError(ValueError):
    """collect_symmetric was handed a polynomial that is not symmetric."""


def _perms(key):
    """Every distinct rearrangement of key once, in lex order: the
    next-permutation step (Knuth's Algorithm L), so an orbit costs its own
    size rather than len(key)!."""
    a = sorted(key)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def _sign(perm):
    """The sign of a permutation, from the parity of its inversions."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


# -- the integer layer --------------------------------------------------------

def _cleared(values):
    """(den, content, nums) with values[k] == content * nums[k].

    content = 1/den.  Over Q, den and the nums are ints and content is a
    Fraction; over Q(r) they are UniPolys in r with integer coefficients
    and content is a RationalFunction.
    """
    den, nums = clear_denominators(values)
    return den, _ratio(1, den), nums


def _zcoeffs(num):
    """A cleared numerator (an int, or a UniPoly in r with integer
    coefficients) as its int coefficient tuple in r; () for zero."""
    if isinstance(num, UniPoly):
        return tuple([num.cont * c for c in num.prim])
    return (num,) if num else ()


def _r_pairs(num):
    """A cleared numerator as (power of r, int) pairs."""
    return [(j, c) for j, c in enumerate(_zcoeffs(num)) if c]


def _norm(coeffs):
    """The l1 norm of an int coefficient sequence."""
    return sum(map(abs, coeffs))


def _pack(coeffs, bits):
    """An int polynomial in r (coefficients lowest first) at r = 2^bits."""
    v = 0
    for c in reversed(coeffs):
        v = (v << bits) + c
    return v


def _unpack(v, bits):
    """The coefficients, lowest first, of the int polynomial whose value
    at r = 2^bits is v; each must be below 2^(bits - 1) in size.

    Each step at bits >= 2 leaves a value of smaller size, so
    bit_length + 1 steps reach 0; at bits = 1 no positive digit fits and
    the value stops shrinking, so a value left over raises ValueError."""
    out, half, mask = [], 1 << (bits - 1), (1 << bits) - 1
    for _ in range(abs(v).bit_length() + 1):
        if not v:
            break
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> bits
    if v:
        raise ValueError(f"no polynomial with digits of {bits} bits has "
                         f"this value")
    return out


def _make(n, has_t, param, cont, ints):
    p = object.__new__(SparsePoly)
    p.n, p.has_t, p.param, p.cont, p.ints = n, has_t, param, cont, ints
    return p


def _sym(n, clean):
    """SymPoly from terms already canonical: partitions padded to n parts
    as keys, nonzero Fraction or RationalFunction values."""
    f = object.__new__(SymPoly)
    f.n, f.terms, f._ints = n, MappingProxyType(clean), None
    return f


def _imul(a, b):
    """Product of two numerator maps: keys add slot by slot."""
    out = {}
    get = out.get
    items = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in items:
            k, c = tuple(map(add, k1, k2)), c1 * c2
            v = get(k)
            out[k] = c if v is None else v + c
    return {k: c for k, c in out.items() if c}


def _strict(x):
    """True when the exponent tuple x strictly decreases."""
    return all(map(gt, x, x[1:]))


def _sort_sign(x):
    """(x sorted decreasing, the sign of the sorting permutation), with
    sign 0 when an entry repeats: the antisymmetrization of the monomial
    with exponent x is that sign times the one of the sorted exponent,
    and zero on a repeat."""
    y = tuple(sorted(x, reverse=True))
    if not _strict(y):
        return y, 0
    return y, (-1) ** sum(h < t for h, t in combinations(x, 2))


def _numerator(param, ints):
    """sum_j ints[j] * r^j, for ints keyed by power of r, as a cleared
    numerator: an int over Q (param None), an integer UniPoly over Q(r)."""
    if param is None:
        return ints.get(0, 0)
    return UniPoly(param, [ints.get(j, 0) for j in range(max(ints) + 1)])


class SparsePoly:
    """Multivariate polynomial: one scalar content times a map of cleared
    numerators.

    Its value is ``cont * sum(c * monomial(key))`` over ``ints``, a dict
    of nonzero numerators in the form ``clear_denominators`` returns.  A
    key holds the n x-exponents, then the exponent of t when has_t is
    set.  Over Q, ``param`` is None, ``cont`` a Fraction and the
    numerators ints; over Q(r), ``param`` names r, ``cont`` is a
    RationalFunction and the numerators are UniPolys in r with integer
    coefficients (or ints, kept as they are when a polynomial over Q
    meets Q(r)).  Products, shifts and divisions run on the numerators
    alone, products in r through the scalar kernel; ``terms`` gives the
    scalar coefficients.
    """

    __slots__ = ("n", "has_t", "param", "cont", "ints")

    def __init__(self, n, terms=None, has_t=False):
        terms = terms or {}
        width = n + 1 if has_t else n
        for key in terms:
            if len(key) != width:
                raise ValueError(f"key {key} has wrong width, expected {width}")
        terms = {tuple(k): c for k, c in terms.items() if c}
        _, cont, nums = _cleared(list(terms.values()))
        self.n, self.has_t, self.param = n, has_t, getattr(cont, "param", None)
        self.cont, self.ints = cont, dict(zip(terms, nums))

    @classmethod
    def zero(cls, n, has_t=False):
        return _make(n, has_t, None, Fraction(1), {})

    @classmethod
    def const(cls, n, c, has_t=False):
        width = n + 1 if has_t else n
        return cls(n, {(0,) * width: c}, has_t)

    @classmethod
    def variable(cls, n, i):
        key = [0] * n
        key[i] = 1
        return _make(n, False, None, Fraction(1), {tuple(key): 1})

    @classmethod
    def t_var(cls, n):
        return _make(n, True, None, Fraction(1), {(0,) * n + (1,): 1})

    @property
    def terms(self):
        """The coefficients as {key: Fraction or RationalFunction}."""
        c = self.cont
        return {k: c * v for k, v in self.ints.items()}

    def is_zero(self):
        return not self.ints

    def coefficient(self, key):
        return self.terms.get(tuple(key), Fraction(0))

    def degree(self):
        """Total degree in the x variables only; -1 for the zero polynomial."""
        n = self.n
        return max((sum(k[:n]) for k in self.ints), default=-1)

    def with_t(self):
        if self.has_t:
            return self
        return _make(self.n, True, self.param, self.cont,
                     {k + (0,): c for k, c in self.ints.items()})

    def t_components(self):
        """Split by t power into plain polynomials: {t_exponent: poly}."""
        if not self.has_t:
            return {0: self}
        buckets = {}
        for k, c in self.ints.items():
            buckets.setdefault(k[-1], {})[k[:-1]] = c
        return {p: _make(self.n, False, self.param, self.cont, d)
                for p, d in sorted(buckets.items())}

    def _over(self, param):
        """self over Q(param); unchanged when param is None or its own."""
        if param is None or param == self.param:
            return self
        if self.param is not None:
            raise TagMismatchError(
                f"polynomials over {self.param!r} and {param!r} do not mix")
        return _make(self.n, self.has_t, param,
                     RationalFunction.const(param, self.cont), self.ints)

    def _pair(self, other):
        if self.n != other.n:
            raise ValueError("variable counts differ")
        a, b = self._over(other.param), other._over(self.param)
        if a.has_t == b.has_t:
            return a, b
        return a.with_t(), b.with_t()

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.n, other, self.has_t)
        a, b = self._pair(other)
        cont, out, extra = a.cont, dict(a.ints), b.ints
        if a.cont != b.cont:
            if a.cont == -b.cont:  # only the sign differs
                extra = {k: -c for k, c in extra.items()}
            else:  # rescale both to one content
                _, cont, (ma, mb) = _cleared([a.cont, b.cont])
                out = {k: c * ma for k, c in out.items()}
                extra = {k: c * mb for k, c in extra.items()}
        for k, c in extra.items():
            v = out.get(k)
            s = c if v is None else v + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _make(a.n, a.has_t, a.param, cont, out)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, self.has_t, self.param, -self.cont, self.ints)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = _lift(other)
            if not c:
                return SparsePoly.zero(self.n, self.has_t)
            p = self._over(getattr(c, "param", None))
            return _make(p.n, p.has_t, p.param, p.cont * c, p.ints)
        a, b = self._pair(other)
        return _make(a.n, a.has_t, a.param, a.cont * b.cont,
                     _imul(a.ints, b.ints))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = self._pair(other)
        return (a.cont == b.cont and a.ints == b.ints) or a.terms == b.terms

    def __bool__(self):
        return bool(self.ints)

    def evaluate(self, point):
        """The value at a point, as the plain sum of its scalar terms."""
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        if self.has_t:
            raise ValueError("evaluate t components separately")
        total = Fraction(0)
        for key, c in self.terms.items():
            total += prod((x ** e for x, e in zip(point, key) if e), start=c)
        return total

    def translate(self, deltas):
        """Substitute x_i -> x_i - deltas[i]; r and t are untouched.

        One variable at a time: with deltas[i] = a/q,
        (x - a/q)^e = q^-e sum_k C(e, k) q^k x^k (-a)^(e-k).  Each term is
        padded to q^-top, top the largest e present, so the content takes
        one factor q^-top and the map stays integral.
        """
        if len(deltas) != self.n:
            raise ValueError("need one shift per variable")
        p = self
        for i, delta in enumerate(deltas):
            if not delta or not p.ints:
                continue
            q, scale, (a,) = _cleared([delta])
            p = p._over(getattr(scale, "param", None))
            top = max(k[i] for k in p.ints)
            expansions = {}
            out = {}
            get = out.get
            for key, c in p.ints.items():
                e = key[i]
                if e not in expansions:
                    expansions[e] = [
                        (k, comb(e, k) * q ** (top - e + k) * (-a) ** (e - k))
                        for k in range(e + 1)]
                kk = list(key)
                for k, v in expansions[e]:
                    kk[i] = k
                    kt, cv = tuple(kk), c * v
                    u = get(kt)
                    out[kt] = cv if u is None else u + cv
            cont = p.cont if q == 1 else p.cont * scale ** top
            p = _make(p.n, p.has_t, p.param, cont,
                      {k: c for k, c in out.items() if c})
        return p

    def swap_vars(self, i, j):
        out = {}
        for k, c in self.ints.items():
            kk = list(k)
            kk[i], kk[j] = kk[j], kk[i]
            out[tuple(kk)] = c
        return _make(self.n, self.has_t, self.param, self.cont, out)

    def divide_linear_diff(self, i, j):
        """Exact division by (x_i - x_j); raises if a remainder is left.

        Synthetic division in x_i from the top power down: with
        self = sum_e c_e x_i^e, the quotient has q_(e-1) = c_e + x_j q_e
        and the remainder c_0 + x_j q_0 must vanish.
        """
        if i == j:
            raise ValueError("need two distinct variables")
        levels = {}
        for key, c in self.ints.items():
            kk = list(key)
            kk[i] = 0
            levels.setdefault(key[i], {})[tuple(kk)] = c
        out, cur = {}, {}
        for e in range(max(levels, default=0), -1, -1):
            nxt = dict(levels.get(e, {}))
            for key, c in cur.items():
                kk = list(key)
                kk[j] += 1
                kt = tuple(kk)
                nxt[kt] = nxt.get(kt, 0) + c
            cur = {k: c for k, c in nxt.items() if c}
            if e:
                for key, c in cur.items():
                    kk = list(key)
                    kk[i] = e - 1
                    out[tuple(kk)] = c
        if cur:
            raise ExactDivisionError(f"not divisible by x{i} - x{j}")
        return _make(self.n, self.has_t, self.param, self.cont, out)

    def map_coeffs(self, fn):
        return SparsePoly(self.n, {k: fn(c) for k, c in self.terms.items()},
                          self.has_t)

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "SparsePoly(0)"
        names = [f"x{i+1}" for i in range(self.n)] + (["t"] if self.has_t else [])
        bits = []
        for k in sorted(terms, reverse=True):
            c = terms[k]
            mono = "*".join(f"{nm}^{e}" if e > 1 else nm
                            for nm, e in zip(names, k) if e)
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)


class SymPoly:
    """Symmetric polynomial in n variables, stored by partition (m-basis).

    ``terms`` is a read-only view: interpolation and Jack results are
    cached per process, and a caller must not be able to edit them.  The
    first evaluation keeps the coefficients cleared to ints on the object
    (``_int_form``); every other operation returns a new object.
    """

    __slots__ = ("n", "terms", "_ints")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for key, c in (terms or {}).items():
            lam = as_partition(key, n)
            c = _lift(c)
            if c:
                clean[lam] = c
        self.terms = MappingProxyType(clean)
        self._ints = None

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild from a plain dict (the
        # cleared form is not sent, the copy clears its own on demand)
        return SymPoly, (self.n, dict(self.terms))

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * n: Fraction(1)})

    @classmethod
    def basis(cls, n, lam, coeff=Fraction(1)):
        return cls(n, {as_partition(lam, n): coeff})

    def coefficient(self, mu):
        return self.terms.get(as_partition(mu, self.n), Fraction(0))

    def partitions(self):
        """Support, leading partitions first (degree then lex, descending)."""
        return sorted(self.terms, key=lambda p: (sum(p), p), reverse=True)

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(p) for p in self.terms), default=-1)

    def top_component(self):
        d = self.degree()
        return _sym(self.n, {p: c for p, c in self.terms.items()
                             if sum(p) == d})

    def __add__(self, other):
        if is_scalar(other) or isinstance(other, int):
            other = SymPoly(self.n, {(0,) * self.n: _lift(other)})
        if self.n != other.n:
            raise ValueError("variable counts differ")
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _sym(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return _sym(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if is_scalar(other) or isinstance(other, int):
            return self + (-_lift(other))
        return self + (-other)

    def __mul__(self, other):
        if is_scalar(other) or isinstance(other, int):
            c = _lift(other)
            if not c:
                return SymPoly.zero(self.n)
            return _sym(self.n, {k: c * v for k, v in self.terms.items()})
        if not isinstance(other, SymPoly):
            return NotImplemented
        return collect_symmetric(self.to_sparse() * other.to_sparse())

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def map_coeffs(self, fn):
        return SymPoly(self.n, {k: fn(c) for k, c in self.terms.items()})

    def negate_variables(self):
        """Substitute x -> -x; each m_mu picks up (-1)^|mu|."""
        return _sym(self.n, {k: c if sum(k) % 2 == 0 else -c
                             for k, c in self.terms.items()})

    def to_sparse(self, has_t=False):
        """The SparsePoly of self over the content 1/den of ``_int_form``,
        each orbit key carrying its partition's numerator."""
        den, lams, nums = self._int_form()
        tail = (0,) if has_t else ()
        return _make(self.n, has_t, getattr(den, "var", None), _ratio(1, den),
                     {key + tail: num for lam, num in zip(lams, nums)
                      for key in _perms(lam)})

    def evaluate(self, point):
        """The value at a point, off its per-process ``_point_row``."""
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        return _point_row(tuple(point)).value(*self._int_form())

    def _int_form(self):
        """(den, lams, nums) with terms[lams[i]] == nums[i] / den: the
        coefficients cleared once per object, on first use.  ``terms`` is
        read-only, so the form cannot go stale."""
        form = self._ints
        if form is None:
            den, nums = clear_denominators(list(self.terms.values()))
            form = self._ints = (den, tuple(self.terms), tuple(nums))
        return form

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = []
        for lam in self.partitions():
            bits.append(f"({self.terms[lam]})*m{list(trim(lam))}")
        return " + ".join(bits)


# -- evaluation rows ----------------------------------------------------------

_ROW_CACHE = {}


def _powers(x, top):
    """[1, x, x^2, ..., x^top] for an int x."""
    out = [1, x]
    while len(out) <= top:
        out.append(out[-1] * x)
    return out


def _removals(parts):
    """(a, parts with one a taken out) for a = 0 and each distinct part a
    of a partition's nonzero parts: the terms of ``_Row.orbit``'s step."""
    return [(0, parts)] + [(a, parts[:j] + parts[j + 1:])
                           for j, a in enumerate(parts)
                           if not j or parts[j - 1] != a]


class _Row:
    """One point, cleared to one denominator q: the one place where a
    polynomial is evaluated, and only a symmetric one.  Over Q the
    cleared coordinates are ints; over Q(r) each integer polynomial in r
    is packed into one int, its value at r = 2^bits (Kronecker
    substitution; see ``_pack``), so both worlds run one int loop.
    ``orbit`` sums a monomial symmetric function (kept on the row) and
    ``value`` reads a cleared m-basis combination off those sums."""

    __slots__ = ("den", "var", "coords", "norm", "powers", "orbits")

    def __init__(self, point):
        den, elems = clear_denominators(point)
        self.den = 1 if den == 1 else den
        self.var = getattr(den, "var", None)
        self.coords = [_zcoeffs(x) for x in elems] if self.var else elems
        self.norm = max(map(_norm if self.var else abs, self.coords),
                        default=0)
        self.powers = [[1, x] for x in elems] if self.var is None else None
        self.orbits = {}

    def _table(self, top, bits):
        """[x^0, ..., x^top] per cleared coordinate x: the ints, grown on
        demand, over Q; over Q(r) their values at r = 2^bits."""
        if self.var is None:
            self.powers = [p if len(p) > top else _powers(p[1], top)
                           for p in self.powers]
            return self.powers
        return [_powers(_pack(z, bits), top) for z in self.coords]

    def orbit(self, lam):
        """m_lam at the cleared coordinates, for a partition lam: an int
        over Q, its int coefficient tuple in r (lowest first) over Q(r),
        and 1 or (1,) for every zero partition.  No rearrangement is listed:
        m_lam(x_1..x_k) = sum_a x_k^a m_(lam - a)(x_1..x_(k-1)), a over 0
        and the distinct parts of lam (Macdonald I.2), runs one variable
        at a time from the last, each sub-partition summed once in a dict
        local to the call; the a = 0 term goes when x_1..x_(k-1) cannot
        hold lam, so m_lam = 0 when lam has more than k parts.  Over Q(r)
        one width serves the call, as packing is a ring map and only the
        final sum unpacks: no coefficient of it exceeds |orbit| *
        norm^|lam|, norm the largest l1 norm of a coordinate and |orbit|
        the multinomial k! / prod_i m_i!, m_i the multiplicities of lam
        padded to k entries."""
        s = self.orbits.get(lam)
        if s is None:
            parts, k = tuple(filter(None, lam)), len(self.coords)
            var, s, bits = self.var, 1, 2  # two bits unpack m_0 = 1
            if parts:
                if var is not None and len(parts) <= k:
                    size = factorial(k) // factorial(k - len(parts))
                    for a in set(parts):
                        size //= factorial(parts.count(a))
                    bits = (size * self.norm ** sum(parts)).bit_length() + 1
                pw, sums, steps = self._table(parts[0], bits), {parts: 1}, {}
                for i in reversed(range(k)):
                    col, out = pw[i], {}
                    get = out.get
                    for rest, v in sums.items():
                        if rest not in steps:
                            steps[rest] = _removals(rest)
                        for a, sub in steps[rest]:
                            if a or len(rest) <= i:
                                out[sub] = get(sub, 0) + col[a] * v
                    sums = out
                s = sums.get((), 0)
            if var is not None:
                s = tuple(_unpack(s, bits))
            self.orbits[lam] = s
        return s

    def value(self, den, lams, nums):
        """sum_i nums[i] * m_(lams[i]) / den at the point, for cleared
        numerators (ints, or integer UniPolys over Q(r)): the numerators
        times the orbit sums, summed per degree d, folded by Horner in q
        over the degrees and left in one quotient by den * q^top.

        Over Q(r) the numerators, the orbit sums and q are packed as in
        ``orbit``, so the sum is one int loop and one unpack; no
        coefficient of it exceeds the sum of the products of the l1 norms
        of each numerator and its orbit sum, times norm(q)^top."""
        if not lams:
            return Fraction(0)
        degrees = list(map(sum, lams))
        top = max(degrees)
        if not top:  # the constant term alone
            return _ratio(nums[0], den)
        orbits = list(map(self.orbit, lams))
        q = self.den
        var = self.var
        if var is not None:
            zn, zq = list(map(_zcoeffs, nums)), _zcoeffs(q)
            bound = (sum(map(mul, map(_norm, zn), map(_norm, orbits)))
                     * _norm(zq) ** top)
            bits = bound.bit_length() + 1
            nums = [_pack(z, bits) for z in zn]
            orbits = [_pack(z, bits) for z in orbits]
            q = _pack(zq, bits)
        if q == 1:  # an integral point, such as a node at a symbolic shift
            acc = sum(map(mul, nums, orbits))
        else:
            sums = [0] * (top + 1)
            for d, num, s in zip(degrees, nums, orbits):
                sums[d] += num * s
            acc = 0
            for s in sums:
                acc = acc * q + s
            den = den * self.den ** top
        if var is not None:
            acc = UniPoly(var, _unpack(acc, bits))
        return _ratio(acc, den)


@memoized(_ROW_CACHE, lambda point: tuple(scalar_key(_lift(x)) for x in point))
def _point_row(point):
    """The evaluation row of a point, per process; scalar_key keeps the
    rows of Q and Q(r) points apart."""
    return _Row(point)


# -- cleared linear combinations ----------------------------------------------

def _common(dens):
    """(L, {den: L / den}) for cleared denominators, ints or integer
    UniPolys over Q(r), formed on them directly: L is the lcm of their
    int contents times the lcm of their primitive parts."""
    dens = list(dict.fromkeys(dens))
    if len(dens) == 1:
        return dens[0], {dens[0]: 1}
    k = lcm(*(getattr(d, "cont", d) for d in dens))
    polys = [d for d in dens if isinstance(d, UniPoly)]
    if not polys:
        return k, {d: k // d for d in dens}
    common = _poly(polys[0].var, k, _prim_lcm(polys))
    return common, {d: common.exact_div(d) for d in dens}


def _combine(terms):
    """sum_i a_i * sum_j nums_i[j] * m_(lams_i[j]) / den_i for the terms
    (a_i, den_i, lams_i, nums_i), with a_i and the nums cleared numerators,
    as (L, {lam: numerator}) over one common multiple L of the den_i: one
    multiply-add per term and partition, and no scalar built.  Numerators
    that cancel stay in the map as zeros."""
    common, mults = _common([den for _, den, _, _ in terms])
    acc = {}
    get = acc.get
    for a, den, lams, nums in terms:
        c = a * mults[den]
        if c != 1:  # a term of weight one is read as it is
            nums = [c * b for b in nums]
        for lam, b in zip(lams, nums):
            v = get(lam)
            acc[lam] = b if v is None else v + b
    return common, acc


def _from_cleared(n, den, acc):
    """The SymPoly sum acc[lam] / den * m_lam: one scalar per nonzero
    numerator, built once."""
    return _sym(n, {lam: _ratio(v, den) for lam, v in acc.items() if v})


# -- constructors and conversions --------------------------------------------

def m_expand(n, lam):
    """The monomial symmetric polynomial m_lam as a SparsePoly."""
    return SymPoly.basis(n, lam).to_sparse()


def collect_symmetric(p):
    """Regroup a symmetric SparsePoly into the m-basis.

    Every orbit must be fully present with one shared coefficient;
    otherwise NotSymmetricError carries a witness monomial.
    """
    if p.has_t:
        raise ValueError("collect t components separately")
    groups = {}
    for key, c in p.ints.items():
        groups.setdefault(tuple(sorted(key, reverse=True)), {})[key] = c
    out = {}
    for lam, seen in groups.items():
        missing = next((k for k in _perms(lam) if k not in seen), None)
        if missing is not None:
            raise NotSymmetricError(f"missing monomial x^{missing}")
        ref = seen[lam]
        for key, c in seen.items():
            if c != ref:
                raise NotSymmetricError(
                    f"coefficients differ on the orbit of x^{lam}: "
                    f"{p.coefficient(key)} at x^{key} "
                    f"vs {p.coefficient(lam)}")
        out[lam] = p.cont * ref
    return _sym(p.n, out)


def _schur_to_m(strict):
    """The Schur read-off tail: for the pairs (row, [(rest, c), ...]) of
    strict, row the ``schur_expand`` row of some s_mu, the sum of
    c * s_mu * rest in the m-basis, as {rest: {lam: int}}.  Entries that
    cancel stay as zeros."""
    out = {}
    for row, rests in strict:
        for rest, c in rests:
            acc = out.get(rest)
            if acc is None:
                acc = out[rest] = {}
            get = acc.get
            for lam, k in row:
                v = get(lam)
                acc[lam] = k * c if v is None else v + k * c
    return out


# -- operator images ----------------------------------------------------------

_SORT_TABLES = {}


@memoized(_SORT_TABLES, lambda n, width: (n, width))
def _sort_table(n, width):
    """{packed key: ``_packed_sort`` of it} for n exponent slots of
    ``width`` bits, kept per process: every image at the same
    (n, width) meets the same sums and reads the same rows.  The table
    grows as ``family_image`` meets new sums; an entry never changes."""
    return {}


def _slots(v, n, width):
    """The n exponents packed in v, slot i (x_i) first."""
    mask = (1 << width) - 1
    return tuple([(v >> width * i) & mask for i in range(n)])


def _packed_sort(v, n, width):
    """``_sort_sign`` of the packed key v: (the sorted key y packed
    again, the sign, the ``schur_expand`` row of s_(y - delta)), or
    (0, 0, ()) when an entry repeats."""
    y, sign = _sort_sign(_slots(v, n, width))
    if not sign:
        return 0, 0, ()
    return (_pack(y, width), sign,
            schur_expand(n, tuple(map(sub, y, staircase(n)))))


def _shifted_orbit(mu, k, width):
    """m_mu(x - eps_(I0)), I0 = {0, ..., k - 1}, as [(packed key, int)]:
    each rearrangement beta of mu, its slots from k on as they are, times
    (x_i - 1)^beta_i = sum_j C(beta_i, j) (-1)^(beta_i - j) x_i^j for
    every i < k.  The rearrangements come in lex order, so the expansion
    of a head beta[:k] serves every tail that follows it."""
    rows = {}
    out = {}
    get = out.get
    head = terms = None
    for beta in _perms(mu):
        if beta[:k] != head:
            head, terms = beta[:k], [(0, 1)]
            for i, e in enumerate(head):
                row = rows.get((i, e))
                if row is None:
                    row = rows[i, e] = [
                        (j << width * i, (-1) ** (e - j) * comb(e, j))
                        for j in range(e + 1)]
                terms = [(x + y, a * b) for x, a in terms for y, b in row]
        tail = _pack((0,) * k + beta[k:], width)
        for x, c in terms:
            x += tail
            out[x] = get(x, 0) + c
    return [(x, c) for x, c in out.items() if c]


def family_image(n, mu, members):
    """The image of m_mu under a coefficient family, in cleared form.

    members holds the ``operators._members`` entries (size, content,
    keys) of c_(I0), I0 = {0, ..., size - 1}, one per size, with every other
    member c_(sigma I0)(x) = sgn(sigma) c_(I0)(x_sigma).  The image is
    the sum over the members and every I of their size of
    c_I * m_mu(x - eps_I), divided by the Vandermonde, as a tuple of
    (t power, den, lams, nums) over the nonzero t powers, ascending: the
    t power's coefficient of m_(lams[i]) is nums[i] / den, cleared as by
    ``clear_denominators`` (ints over Q, integer UniPolys over Q(r) when
    a member lives there).

    The sum over |I| = size is the antisymmetrization of
    c_(I0) * m_mu(x - eps_(I0)) over size!(n - size)!, which must
    alternate inside the blocks [0, size) and [size, n) (Macdonald I.3).
    So only the keys kappa of c_(I0) whose x-part strictly decreases in
    both blocks are paired with every key beta of the shifted orbit, and
    x^(kappa + beta) moves to its sorted key with the sign of the sort,
    dropping on a repeat.  Keys are ints: x_i in slot i, each slot wide
    enough for the largest sum, and the t and r exponents of c_(I0)
    above them (t, then r, each member read in its own layout); the
    sorted key and sign of a sum come from the process-wide
    ``_sort_table``.  The members' coefficients are summed over one
    cleared content before any s_lam is expanded, once per lam.
    """
    den, scales = clear_denominators([cont for _, cont, _ in members])
    param = getattr(den, "var", None)
    top = max((e for _, _, keys in members for key in keys for e in key[0]),
              default=0)
    ttop = max((key[1] for _, _, keys in members for key in keys), default=0)
    width = (top + max(mu, default=0)).bit_length() or 1
    xbits, tbits = n * width, ttop.bit_length()
    table = _sort_table(n, width)
    acc = {}
    get = acc.get
    for (size, _, keys), scale in zip(members, scales):
        scaled = [(j << tbits, v) for j, v in _r_pairs(scale)]
        left = {}
        for x, t, r, a in keys:
            rest = t + (r << tbits)
            left.setdefault(_pack(x, width), []).extend(
                [((rest + j) << xbits, a * v) for j, v in scaled])
        right = _shifted_orbit(mu, size, width)
        for xa, rests in left.items():
            ys = {}
            yget = ys.get
            for xb, b in right:
                s = xa + xb
                hit = table.get(s)
                if hit is None:
                    hit = table[s] = _packed_sort(s, n, width)
                y, sign, _ = hit
                if sign:
                    ys[y] = yget(y, 0) + sign * b
            for y, w in ys.items():
                if w:
                    for rest, a in rests:
                        k = y + rest
                        acc[k] = get(k, 0) + w * a
    xmask, tmask = (1 << xbits) - 1, (1 << tbits) - 1
    strict = {}
    for k, c in acc.items():
        if c:
            strict.setdefault(k & xmask, []).append((k >> xbits, c))
    rows = []
    for y, rests in strict.items():
        hit = table.get(y)
        if hit is None:
            hit = table[y] = _packed_sort(y, n, width)
        rows.append((hit[2], rests))
    parts = {}  # t power -> lam -> power of r -> int
    for rest, by_lam in _schur_to_m(rows).items():
        part = parts.setdefault(rest & tmask, {})
        j = rest >> tbits
        for lam, c in by_lam.items():
            if c:
                part.setdefault(lam, {})[j] = c
    return tuple((t, den, tuple(by_lam),
                  tuple(_numerator(param, d) for d in by_lam.values()))
                 for t, by_lam in sorted(parts.items()))


def sekiguchi_image(n, mu, r, t_value=None):
    """The image of m_mu under the Sekiguchi-Debiard operator, in the
    cleared form of ``family_image``.

    For symmetric f the sum over permutations is the antisymmetrization
    of x^delta * prod_i (x_i d_i + r*delta_i + t) f (Macdonald I.3), so
    each x^kappa of the orbit of mu lands on kappa + delta sorted
    decreasing, with the sign of the sort, times
    prod_i (kappa_i + r*delta_i + t), and drops on a repeated entry.
    r and t_value are written over one denominator q, r = a/q and
    t_value = u/q, and the product is expanded one linear factor
    q*kappa_i + a*delta_i + u at a time (q*kappa_i + a*delta_i + q*t
    when t stays free, by power of t), over q^n.  No term is an int zero:
    over Q(r) each would build a zero UniPoly.
    """
    delta = staircase(n)
    has_t = t_value is None
    q, nums = clear_denominators([r] if has_t else [r, t_value])
    terms = [([nums[0] * d] if d else []) + nums[1:] for d in delta]
    strict = {}
    for kappa in _perms(mu):
        y, sign = _sort_sign(tuple(map(add, kappa, delta)))
        if not sign:
            continue
        coeffs, low = [sign], 0  # the product so far, t^(low + i) at i
        for k, ts in zip(kappa, terms):
            parts = [q * k] + ts if k else ts
            c = sum(parts[1:], parts[0]) if parts else 0
            if not has_t:
                coeffs[0] *= c
            elif not c:  # times q*t
                coeffs, low = [q * b for b in coeffs], low + 1
            else:  # times c + q*t
                coeffs = ([coeffs[0] * c]
                          + [a * c + q * b for a, b in zip(coeffs[1:], coeffs)]
                          + [q * coeffs[-1]])
        acc = strict.setdefault(y, {})
        for p, v in enumerate(coeffs, low):
            u = acc.get(p)
            acc[p] = v if u is None else u + v
    rows = [(schur_expand(n, tuple(map(sub, y, delta))), list(acc.items()))
            for y, acc in strict.items()]
    den = q ** n
    out = []
    for p, by_lam in sorted(_schur_to_m(rows).items()):
        lams = tuple(lam for lam, c in by_lam.items() if c)
        if lams:
            out.append((p, den, lams, tuple(by_lam[lam] for lam in lams)))
    return tuple(out)


def elementary(k, n):
    """e_k in n variables as a SymPoly (zero when k > n)."""
    if k < 0:
        raise ValueError("negative elementary index")
    if k > n:
        return SymPoly.zero(n)
    return SymPoly.basis(n, (1,) * k)


def complete(j, n):
    """h_j in n variables: the sum of every m_lam with |lam| = j."""
    if j < 0:
        raise ValueError("negative complete index")
    return SymPoly(n, {lam: Fraction(1) for lam in enumerate_exact(n, j)})


def complete_eval(j, values):
    """h_j at a list of scalars."""
    if j < 0:
        raise ValueError("negative complete index")
    return sum((prod(f, start=Fraction(1))
                for f in combinations_with_replacement(values, j)),
               Fraction(0))


def falling_power(n, i, m, offset=0):
    """(x_i - offset)(x_i - offset - 1)...(x_i - offset - m + 1)."""
    result = SparsePoly.const(n, Fraction(1))
    xi = SparsePoly.variable(n, i)
    for s in range(m):
        result = result * (xi - (_lift(offset) + s))
    return result


def factorial_monomial(n, lam):
    """Sum over the orbit of lam of products of falling powers of the x_i."""
    lam = as_partition(lam, n)
    total = SparsePoly.zero(n)
    cache = {}
    for key in _perms(lam):
        term = SparsePoly.const(n, Fraction(1))
        for i, e in enumerate(key):
            if e:
                f = cache.get((i, e))
                if f is None:
                    f = falling_power(n, i, e)
                    cache[(i, e)] = f
                term = term * f
        total = total + term
    return total


_SCHUR_CACHE = {}


@memoized(_SCHUR_CACHE, lambda n, mu: (n, tuple(mu)))
def schur_expand(n, mu):
    """The Schur polynomial s_mu in n variables as ((lam, K), ...) pairs:
    its m-coefficients, the Kostka numbers K_(mu, lam), as ints, lam
    descending.

    Built once per (n, mu) by counting tableaux (``partitions.kostka``)
    over the lam of |mu| with at most n parts that mu dominates, the
    only ones K_(mu, lam) can be nonzero on (Macdonald I.6).
    """
    mu = as_partition(mu, n)
    row = []
    for lam in reversed(enumerate_exact(n, sum(mu))):
        if dominance_leq(lam, mu):
            k = kostka(mu, lam)
            if k:
                row.append((lam, k))
    return tuple(row)


def e_monomial(n, exps):
    """Product over k of e_k^{exps[k-1]} as a SymPoly."""
    if len(exps) != n:
        raise ValueError("need one exponent per elementary generator")
    result = SymPoly.one(n)
    for k, a in enumerate(exps, start=1):
        for _ in range(a):
            result = result * elementary(k, n)
    return result


def e_basis_expand(f):
    """Write f in the elementary generators: {exps: coeff}.

    exps[k-1] is the power of e_k.  Works degree by degree; the leading
    partition of each homogeneous piece determines the next generator
    monomial through its conjugate.
    """
    n = f.n
    out = {}
    by_degree = {}
    for lam, c in f.terms.items():
        by_degree.setdefault(sum(lam), {})[lam] = c
    for d, terms in sorted(by_degree.items()):
        g = SymPoly(n, terms)
        while not g.is_zero():
            lead = max(g.terms, key=lambda p: (sum(p), p))
            c = g.terms[lead]
            nu = conjugate(lead)
            if nu and nu[0] > n:
                raise ValueError(f"{lead} needs more than {n} variables")
            exps = tuple(sum(1 for p in nu if p == k) for k in range(1, n + 1))
            out[exps] = c
            g = g - e_monomial(n, exps) * c
    return out
