"""Sparse multivariate polynomials and the monomial symmetric basis.

Two containers share the work:

  * SparsePoly -- exponent-keyed dict, optionally with one extra slot for
    the generating variable t at the end of every key
  * SymPoly    -- symmetric polynomials stored by partition in the m-basis

Conversions go down via to_sparse / m_expand and back up via
collect_symmetric, which verifies symmetry instead of assuming it.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from types import MappingProxyType

from .partitions import (as_partition, conjugate, enumerate_exact, staircase,
                         trim)
from .scalars import ExactDivisionError, _lift, is_scalar


class NotSymmetricError(ValueError):
    """collect_symmetric was handed a polynomial that is not symmetric."""


def _perms(key):
    return set(permutations(key))


def _signed_permutations(n):
    """Every permutation of range(n) with its sign, as (perm, +-1) pairs."""
    out = []
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        out.append((perm, -1 if inv % 2 else 1))
    return out


class SparsePoly:
    """Multivariate polynomial over scalars, keys are exponent tuples.

    Keys have length n, or n + 1 when has_t is set; the last slot is then
    the exponent of t.  Zero coefficients are never stored.
    """

    __slots__ = ("n", "has_t", "terms")

    def __init__(self, n, terms=None, has_t=False):
        self.n = n
        self.has_t = has_t
        width = n + 1 if has_t else n
        clean = {}
        for key, c in (terms or {}).items():
            if len(key) != width:
                raise ValueError(f"key {key} has wrong width, expected {width}")
            c = _lift(c)
            if c:
                clean[tuple(key)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n, has_t=False):
        return cls(n, {}, has_t)

    @classmethod
    def const(cls, n, c, has_t=False):
        width = n + 1 if has_t else n
        return cls(n, {(0,) * width: c}, has_t)

    @classmethod
    def variable(cls, n, i):
        key = [0] * n
        key[i] = 1
        return cls(n, {tuple(key): Fraction(1)})

    @classmethod
    def t_var(cls, n):
        return cls(n, {(0,) * n + (1,): Fraction(1)}, has_t=True)

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(tuple(key), Fraction(0))

    def degree(self):
        """Total degree in the x variables only; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        stop = self.n
        return max(sum(k[:stop]) for k in self.terms)

    def with_t(self):
        if self.has_t:
            return self
        return SparsePoly(self.n, {k + (0,): c for k, c in self.terms.items()},
                          has_t=True)

    def t_components(self):
        """Split by t power into plain polynomials: {t_exponent: poly}."""
        if not self.has_t:
            return {0: self}
        buckets = {}
        for k, c in self.terms.items():
            buckets.setdefault(k[-1], {})[k[:-1]] = c
        return {p: SparsePoly(self.n, d) for p, d in sorted(buckets.items())}

    def _pair(self, other):
        if self.n != other.n:
            raise ValueError("variable counts differ")
        if self.has_t == other.has_t:
            return self, other
        return self.with_t(), other.with_t()

    def __add__(self, other):
        if is_scalar(other) or isinstance(other, int):
            return self + SparsePoly.const(self.n, _lift(other), self.has_t)
        a, b = self._pair(other)
        out = dict(a.terms)
        for k, c in b.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparsePoly(a.n, out, a.has_t)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.n, {k: -c for k, c in self.terms.items()},
                          self.has_t)

    def __sub__(self, other):
        if is_scalar(other) or isinstance(other, int):
            return self + (-_lift(other))
        return self + (-other)

    def __mul__(self, other):
        if is_scalar(other) or isinstance(other, int):
            c = _lift(other)
            if not c:
                return SparsePoly.zero(self.n, self.has_t)
            return SparsePoly(self.n,
                              {k: c * v for k, v in self.terms.items()},
                              self.has_t)
        a, b = self._pair(other)
        out = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return SparsePoly(a.n, out, a.has_t)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = self._pair(other)
        return a.terms == b.terms

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, point, t_value=None):
        """Evaluate at scalars; keep has_t polynomials need t_value."""
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        if self.has_t and t_value is None:
            raise ValueError("need a value for t")
        total = Fraction(0)
        for k, c in self.terms.items():
            v = c
            for x, e in zip(point, k[:self.n]):
                for _ in range(e):
                    v = v * x
            if self.has_t:
                for _ in range(k[-1]):
                    v = v * t_value
            total = total + v
        return total

    def translate(self, deltas):
        """Substitute x_i -> x_i - deltas[i]; t is untouched."""
        if len(deltas) != self.n:
            raise ValueError("need one shift per variable")
        cache = {}

        def expansion(i, e):
            # (x_i - d)^e as [(k, scalar)] by the binomial theorem
            got = cache.get((i, e))
            if got is None:
                d = deltas[i]
                got = []
                for k in range(e + 1):
                    c = Fraction(comb(e, k))
                    for _ in range(e - k):
                        c = c * (-d)
                    if c:
                        got.append((k, c))
                cache[(i, e)] = got
            return got

        acc = {}
        for key, coeff in self.terms.items():
            partial = [(key[self.n:], coeff)]  # start from the t tail
            for i in range(self.n - 1, -1, -1):
                if key[i] == 0:
                    partial = [((0,) + tail, c) for tail, c in partial]
                    continue
                nxt = []
                for k, bc in expansion(i, key[i]):
                    for tail, c in partial:
                        nxt.append(((k,) + tail, bc * c))
                partial = nxt
            for tail, c in partial:
                s = acc.get(tail, 0) + c
                if s:
                    acc[tail] = s
                else:
                    acc.pop(tail, None)
        return SparsePoly(self.n, acc, self.has_t)

    def swap_vars(self, i, j):
        out = {}
        for k, c in self.terms.items():
            kk = list(k)
            kk[i], kk[j] = kk[j], kk[i]
            out[tuple(kk)] = c
        return SparsePoly(self.n, out, self.has_t)

    def is_symmetric(self):
        return all(self.swap_vars(i, i + 1) == self for i in range(self.n - 1))

    def divide_linear_diff(self, i, j):
        """Exact division by (x_i - x_j); raises if a remainder is left."""
        if i == j:
            raise ValueError("need two distinct variables")
        if self.is_zero():
            return self
        levels = {}
        for key, c in self.terms.items():
            e = key[i]
            kk = list(key)
            kk[i] = 0
            levels.setdefault(e, {})[tuple(kk)] = c
        top = max(levels)
        if top == 0:
            raise ExactDivisionError(f"not divisible by x{i} - x{j}")

        def add_into(dst, src, bump_j=False):
            for k, c in src.items():
                if bump_j:
                    kk = list(k)
                    kk[j] += 1
                    k = tuple(kk)
                s = dst.get(k, 0) + c
                if s:
                    dst[k] = s
                else:
                    dst.pop(k, None)

        out = {}
        cur = dict(levels.get(top, {}))  # q_{top-1}
        for k in range(top - 1, -1, -1):
            for key, c in cur.items():
                kk = list(key)
                kk[i] = k
                out[tuple(kk)] = c
            nxt = {}
            add_into(nxt, cur, bump_j=True)       # x_j * q_k
            add_into(nxt, levels.get(k, {}))      # + c_k
            cur = nxt
        if cur:
            raise ExactDivisionError(f"not divisible by x{i} - x{j}")
        return SparsePoly(self.n, out, self.has_t)

    def map_coeffs(self, fn):
        return SparsePoly(self.n, {k: fn(c) for k, c in self.terms.items()},
                          self.has_t)

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        names = [f"x{i+1}" for i in range(self.n)] + (["t"] if self.has_t else [])
        bits = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mono = "*".join(f"{nm}^{e}" if e > 1 else nm
                            for nm, e in zip(names, k) if e)
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)


class SymPoly:
    """Symmetric polynomial in n variables, stored by partition (m-basis).

    ``terms`` is a read-only view: interpolation and Jack results are
    cached per process, and a caller must not be able to edit them.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for key, c in (terms or {}).items():
            lam = as_partition(key, n)
            c = _lift(c)
            if c:
                clean[lam] = c
        self.terms = MappingProxyType(clean)

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild from a plain dict
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
        return SymPoly(self.n, {p: c for p, c in self.terms.items()
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
        return SymPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if is_scalar(other) or isinstance(other, int):
            return self + (-_lift(other))
        return self + (-other)

    def __mul__(self, other):
        if is_scalar(other) or isinstance(other, int):
            c = _lift(other)
            if not c:
                return SymPoly.zero(self.n)
            return SymPoly(self.n, {k: c * v for k, v in self.terms.items()})
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
        return SymPoly(self.n, {k: c if sum(k) % 2 == 0 else -c
                                for k, c in self.terms.items()})

    def to_sparse(self, has_t=False):
        out = {}
        for lam, c in self.terms.items():
            for key in _perms(lam):
                out[key + (0,) if has_t else key] = c
        return SparsePoly(self.n, out, has_t)

    def evaluate(self, point):
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for lam, c in self.terms.items():
            s = Fraction(0)
            for key in _perms(lam):
                v = Fraction(1)
                for x, e in zip(point, key):
                    for _ in range(e):
                        v = v * x
                s = s + v
            total = total + c * s
        return total

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = []
        for lam in self.partitions():
            bits.append(f"({self.terms[lam]})*m{list(trim(lam))}")
        return " + ".join(bits)


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
    for key, c in p.terms.items():
        rep = tuple(sorted(key, reverse=True))
        groups.setdefault(rep, {})[key] = c
    out = {}
    for rep, seen in groups.items():
        orbit = _perms(rep)
        if len(seen) != len(orbit):
            missing = next(iter(orbit - set(seen)))
            raise NotSymmetricError(f"missing monomial x^{missing}")
        ref = seen[rep]
        for key, c in seen.items():
            if c != ref:
                raise NotSymmetricError(
                    f"coefficients differ on the orbit of x^{rep}: "
                    f"{c} at x^{key} vs {ref}")
        out[rep] = ref
    return SymPoly(p.n, out)


def collect_symmetric_t(p):
    """Collect each t power separately: {t_exponent: SymPoly}."""
    return {tp: collect_symmetric(q) for tp, q in p.t_components().items()}


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


def elementary_eval(k, values):
    """e_k at a list of scalars."""
    if k < 0:
        raise ValueError("negative elementary index")
    if k > len(values):
        return Fraction(0)
    total = Fraction(0)
    for sub in combinations(values, k):
        v = Fraction(1)
        for x in sub:
            v = v * x
        total = total + v
    return total


def complete_eval(j, values):
    """h_j at a list of scalars."""
    if j < 0:
        raise ValueError("negative complete index")
    total = Fraction(0)
    for sub in combinations_with_replacement(values, j):
        v = Fraction(1)
        for x in sub:
            v = v * x
        total = total + v
    return total


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


def alternant(n, entry):
    """The n x n determinant det[entry(i, j)] as a SparsePoly.

    entry(i, j) returns the SparsePoly in row i, column j; it is called
    once per cell, and the signed-permutation sum reuses the table.
    """
    table = [[entry(i, j) for j in range(n)] for i in range(n)]
    det = SparsePoly.zero(n)
    for perm, sign in _signed_permutations(n):
        term = SparsePoly.const(n, Fraction(sign))
        for i in range(n):
            term = term * table[i][perm[i]]
        det = det + term
    return det


def vandermonde(n):
    """Product of (x_i - x_j) over i < j, as the alternant det[x_i^delta_j]."""
    delta = staircase(n)

    def entry(i, j):
        key = [0] * n
        key[i] = delta[j]
        return SparsePoly(n, {tuple(key): Fraction(1)})
    return alternant(n, entry)


def divide_by_vandermonde(p):
    """Exact division by the Vandermonde determinant, factor by factor."""
    for i in range(p.n):
        for j in range(i + 1, p.n):
            p = p.divide_linear_diff(i, j)
    return p


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
