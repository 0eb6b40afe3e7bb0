"""Named verification suites.

Each check replays one of the library's structural guarantees over an
exhaustive or seeded-random range and returns a small report dict:

    {"schema": 1, "check": name, "params": {...},
     "status": "pass" | "fail", "witness": None | {...}}

The first counterexample, if any, is serialized into the witness.  The
CLI exposes these by name; the acceptance tests drive the same functions
at their full documented ranges.  A check that takes the shift runs at
the symbolic staircase when r is None, which its report labels as
symbolic, and otherwise at a rational r: a Fraction, an int or a "p/q"
string.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import sub

from .interpolation import (ShiftVector, column_forms, factorial_monomial_sym,
                            factorial_schur, first_column_reduction,
                            interpolate, interpolate_recursive,
                            interpolation_basis, interpolation_polynomial,
                            single_row)
from .jack import (alpha_gen, jack_J, jack_P, jack_P_at, jack_P_eigen,
                   pieri_verify)
from .operators import (_members, apply_difference_family, apply_raising,
                        eigenvalue_poly, inhomogeneous_lift)
from .partitions import (contains, dominance_less, enumerate_exact,
                         enumerate_upto, hook_product_lower, is_partition,
                         pieri_coefficient, rho_hook_product, staircase)
from .scalars import clear_denominators, invert_parameter, substitute
from .sympoly import (SymPoly, _numerator, _Row, _sign, elementary,
                      schur_expand)

DEFAULT_SEED = 20260814


def _r_label(r):
    return "symbolic" if r is None else str(Fraction(r))


def _report(name, params, witness=None):
    return {"schema": 1, "check": name, "params": params,
            "status": "pass" if witness is None else "fail",
            "witness": witness}


def _w(**kw):
    """Witness dict with everything stringified for JSON."""
    out = {}
    for k, v in kw.items():
        if isinstance(v, tuple):
            out[k] = list(v)
        elif isinstance(v, (int, str, list, bool)) or v is None:
            out[k] = v
        else:
            out[k] = str(v)
    return out


def check_vanishing(n, dmax, r=None):
    """Vanishing at foreign nodes plus the hook-product normalization."""
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rho = ShiftVector.staircase_multiple(n, r)
    points = {mu: rho.point(mu) for mu in enumerate_upto(n, dmax)}
    for d in range(dmax + 1):
        nodes = enumerate_upto(n, d)
        for lam, P in interpolation_basis(n, d, rho).items():
            for mu in nodes:
                val = P.evaluate(points[mu])
                if mu == lam:
                    want = rho_hook_product(lam, rho.entries)
                    if val != want:
                        return _report("vanishing", params, _w(
                            kind="normalization", lam=lam, value=val, want=want))
                elif val:
                    return _report("vanishing", params, _w(
                        kind="vanishing", lam=lam, mu=mu, value=val))
    return _report("vanishing", params)


def check_unitriangular(n, dmax, r=None):
    """Unit m_lam coefficient; every other term strictly below in dominance."""
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rho = ShiftVector.staircase_multiple(n, r)
    for d in range(dmax + 1):
        for lam, P in interpolation_basis(n, d, rho).items():
            if P.coefficient(lam) != 1:
                return _report("unitriangular", params, _w(
                    kind="leading", lam=lam, value=P.coefficient(lam)))
            for mu in P.terms:
                if mu != lam and not dominance_less(mu, lam):
                    return _report("unitriangular", params, _w(
                        kind="dominance", lam=lam, mu=mu))
    return _report("unitriangular", params)


def _random_fraction(rng, lo=-30, hi=30, dens=(1, 2, 3, 5, 7)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _random_dominant_entries(rng, n):
    """Strictly decreasing positive rationals; always dominant."""
    entries = [_random_fraction(rng, 1, 12)]
    for _ in range(n - 1):
        entries.append(entries[-1] + Fraction(rng.randint(1, 12),
                                              rng.choice((1, 2, 3, 5, 7))))
    entries.reverse()
    return tuple(entries)


def check_special_forms(n, dmax):
    """The four closed forms against the direct solve.

    (a) zero shift: factorial monomials; (b) unit staircase: factorial
    Schur functions, summed over semistandard tableaux one horizontal
    strip at a time (no determinant is expanded); (c) one-column forms,
    symbolic and at random shift vectors; (d) the one-row chain sum.
    """
    trials, seed = 6, DEFAULT_SEED
    params = {"n": n, "dmax": dmax, "trials": trials, "seed": seed}
    rho0 = ShiftVector.staircase_multiple(n, 0)
    rho1 = ShiftVector.staircase_multiple(n, 1)
    for d in range(dmax + 1):
        for lam in enumerate_exact(n, d):
            if factorial_monomial_sym(lam, n) != interpolation_polynomial(lam, rho0):
                return _report("special-forms", params, _w(part="r=0", lam=lam))
            if factorial_schur(lam, n) != interpolation_polynomial(lam, rho1):
                return _report("special-forms", params, _w(part="r=1", lam=lam))
    rng = random.Random(seed)
    shift_vectors = [ShiftVector.staircase_multiple(n)]
    for _ in range(trials):
        shift_vectors.append(ShiftVector.generic(_random_dominant_entries(rng, n)))
    for _ in range(max(3, trials // 2)):
        shift_vectors.append(ShiftVector.generic(
            tuple(_random_fraction(rng) for _ in range(n))))
    for rho in shift_vectors:
        for k in range(1, n + 1):
            first, second = column_forms(k, rho)
            if first != second:
                return _report("special-forms", params, _w(
                    part="one-column", k=k, rho=[str(e) for e in rho.entries]))
            if rho.is_d_dominant(k):
                if first != interpolation_polynomial((1,) * k, rho):
                    return _report("special-forms", params, _w(
                        part="one-column-vs-solve", k=k,
                        rho=[str(e) for e in rho.entries]))
    for r in (None, Fraction(5, 3)):
        rho = ShiftVector.staircase_multiple(n, r)
        for d in range(1, dmax + 1):
            lam = (d,) + (0,) * (n - 1)
            if single_row(d, rho.r, n) != interpolation_polynomial(lam, rho):
                return _report("special-forms", params, _w(
                    part="one-row", d=d, r=_r_label(r)))
    return _report("special-forms", params)


def check_uniqueness(n, dmax):
    """Direct solve vs the recursive construction on random data."""
    trials, seed = 5, DEFAULT_SEED
    params = {"n": n, "dmax": dmax, "trials": trials, "seed": seed}
    rng = random.Random(seed)
    for nn in range(1, n + 1):
        for d in range(dmax + 1):
            vectors = []
            while len(vectors) < trials:
                entries = tuple(_random_fraction(rng, -20, 20)
                                for _ in range(nn))
                rho = ShiftVector.generic(entries)
                if rho.is_dominant():
                    vectors.append(rho)
            for rho in vectors:
                values = {mu: _random_fraction(rng, -9, 9)
                          for mu in enumerate_upto(nn, d)}
                direct = interpolate(nn, d, values, rho)
                rebuilt = interpolate_recursive(nn, d, values, rho)
                if direct != rebuilt:
                    return _report("uniqueness", params, _w(
                        n=nn, d=d, rho=[str(e) for e in rho.entries]))
    return _report("uniqueness", params)


def check_eigenvalue(n, dmax, r=None):
    """The generating family acts diagonally with the product eigenvalue."""
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rho = ShiftVector.staircase_multiple(n, r)
    for d in range(dmax + 1):
        for lam, P in interpolation_basis(n, d, rho).items():
            family = apply_difference_family(P, rho.r)
            eig = eigenvalue_poly(lam, rho.r, n)
            for p in range(n + 1):
                got = family.get(p, SymPoly.zero(n))
                want = P * eig[p]
                if got != want:
                    return _report("eigenvalue", params, _w(
                        lam=lam, t_power=p))
    return _report("eigenvalue", params)


def check_commutativity(n, dmax, r=None):
    """All pairs commute, in both operator families, on degree <= dmax.

    For every pair i < j and every m_mu with |mu| <= dmax, op_i(op_j m_mu)
    must equal op_j(op_i m_mu), each composed by applying the public
    function to the result of the inner call; by linearity this is
    column mu of the matrix products M_i M_j and M_j M_i.  D_k is the
    t^(n-k) piece of the t-family, so one family call on D_j m_mu gives
    every D_i(D_j m_mu).  The witness is the first failing pair.
    """
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rr = ShiftVector.staircase_multiple(n, r).r
    basis = [SymPoly.basis(n, mu) for mu in enumerate_upto(n, dmax)]
    ks = range(1, n + 1)
    pairs = list(combinations(ks, 2))

    def difference(f):
        family = apply_difference_family(f, rr)
        return {k: family.get(n - k, SymPoly.zero(n)) for k in ks}

    # twice[j][i] = D_i(D_j m_mu), one dict per mu
    twice = [{j: difference(g) for j, g in difference(f).items()}
             for f in basis]
    for i, j in pairs:
        if any(t[j][i] != t[i][j] for t in twice):
            return _report("commutativity", params, _w(
                family="difference", i=i, j=j))
    once = [{k: apply_raising(f, k, rr) for k in ks} for f in basis]
    for i, j in pairs:
        if any(apply_raising(g[j], i, rr) != apply_raising(g[i], j, rr)
               for g in once):
            return _report("commutativity", params, _w(
                family="raising", i=i, j=j))
    return _report("commutativity", params)


def check_cutoff(n, dmax, r=None):
    """Cut-off determinants vanish where the shifted index set breaks.

    phi_I(x) = sgn(tau) phi_(I0)(x_tau), tau listing I then the rest, and
    phi_(I0) is read off the keys of the raising member the operators
    multiply by, with a_kappa = V * s_(kappa - delta); the empty I is
    left out, as mu - eps_I = mu never breaks.
    """
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rho = ShiftVector.staircase_multiple(n, r)

    def s_row(k, kappa):  # s_(kappa - delta) in k variables
        return schur_expand(k, tuple(map(sub, kappa, staircase(k))))
    forms = {}  # per size and head: s_(head - delta), sum c * s_(tail - delta)
    for size in range(1, n + 1):
        _, cont, keys = _members(n, rho.r, size)[0]
        den = clear_denominators([cont])[0]  # the content is 1 / den
        m, param, tails = n - size, getattr(cont, "param", None), {}
        for x, _, j, v in keys:  # tails: head -> lam -> power of r -> int
            acc = tails.setdefault(x[:size], {})
            for lam, k in s_row(m, x[size:]):
                ints = acc.setdefault(lam, {})
                ints[j] = ints.get(j, 0) + k * v
        forms[size] = [
            ((1, *zip(*s_row(size, head))),
             (den, tuple(acc), tuple([_numerator(param, d)
                                      for d in acc.values()])))
            for head, acc in tails.items()]
    for mu in enumerate_upto(n, dmax):
        pt = rho.point(mu)
        by_set = {}  # one row per index set: I's head is its complement's tail
        for size in range(1, n + 1):
            for rows in combinations(range(n), size):
                if is_partition([m - (i in rows) for i, m in enumerate(mu)]):
                    continue
                rest = tuple(i for i in range(n) if i not in rows)
                for s in (rows, rest):
                    if s not in by_set:
                        by_set[s] = _Row([pt[i] for i in s])
                tau = rows + rest
                y = [pt[i] for i in tau]
                val = sum(by_set[rows].value(*a) * by_set[rest].value(*b)
                          for a, b in forms[size])
                val = prod((y[i] - y[j] for i, j in combinations(range(n), 2)
                            if (i < size) == (j < size)),
                           start=_sign(tau) * val)
                if val:
                    return _report("cutoff", params, _w(
                        mu=mu, rows=list(rows), value=val))
    return _report("cutoff", params)


def check_raising_stability(n, dmax, r=None):
    """Raising by k lands in degree d + k with top component e_k times the input."""
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rr = ShiftVector.staircase_multiple(n, r).r
    for mu in enumerate_upto(n, dmax):
        f = SymPoly.basis(n, mu)
        for k in range(1, n + 1):
            img = apply_raising(f, k, rr)
            if img.degree() > sum(mu) + k:
                return _report("raising-stability", params, _w(
                    mu=mu, k=k, degree=img.degree()))
            if img.top_component() != elementary(k, n) * f:
                return _report("raising-stability", params, _w(
                    mu=mu, k=k, kind="top-component"))
    return _report("raising-stability", params)


def check_degree_bound(n, dmax, r=None):
    """The difference family never raises degree, on random inputs."""
    trials, seed = 6, DEFAULT_SEED
    params = {"n": n, "dmax": dmax, "r": _r_label(r),
              "trials": trials, "seed": seed}
    rr = ShiftVector.staircase_multiple(n, r).r
    rng = random.Random(seed)
    pool = enumerate_upto(n, dmax)
    for _ in range(trials):
        terms = {mu: _random_fraction(rng, -9, 9)
                 for mu in rng.sample(pool, k=min(4, len(pool)))}
        f = SymPoly(n, terms)
        if f.is_zero():
            continue
        family = apply_difference_family(f, rr)
        for p, g in family.items():
            if g.degree() > f.degree():
                return _report("degree-bound", params, _w(
                    terms=[list(t) for t in terms], t_power=p,
                    degree=g.degree()))
    return _report("degree-bound", params)


def check_extra_vanishing(n, dmax, r=None):
    """Vanishing at every node whose partition does not contain lam."""
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rho = ShiftVector.staircase_multiple(n, r)
    points = {mu: rho.point(mu) for mu in enumerate_upto(n, dmax)}
    for lam in points:
        P = interpolation_polynomial(lam, rho)
        for mu, point in points.items():
            if contains(lam, mu):
                continue
            val = P.evaluate(point)
            if val:
                return _report("extra-vanishing", params, _w(
                    lam=lam, mu=mu, value=val))
    return _report("extra-vanishing", params)


def check_ideal_stability(n, dmax, r=None):
    """The span attached to an up-closed partition set behaves like its ideal.

    Members vanish at every node outside the set; the diagonal values are
    nonzero, so the members are independent and the vanishing conditions
    cut out exactly their span in each degree.
    """
    generator = (1,) * min(2, n)
    params = {"n": n, "dmax": dmax, "r": _r_label(r),
              "generator": list(generator)}
    rho = ShiftVector.staircase_multiple(n, r)
    nodes = enumerate_upto(n, dmax)
    members = [lam for lam in nodes if contains(generator, lam)]
    outside = {mu: rho.point(mu) for mu in nodes
               if not contains(generator, mu)}
    for lam in members:
        P = interpolation_polynomial(lam, rho)
        if not rho_hook_product(lam, rho.entries):
            return _report("ideal-stability", params, _w(
                kind="degenerate-node", lam=lam))
        for mu, point in outside.items():
            if P.evaluate(point):
                return _report("ideal-stability", params, _w(
                    lam=lam, mu=mu))
    return _report("ideal-stability", params)


def check_jack_agreement(n, dmax):
    """Both Jack constructions coincide; alpha = 1 lands on Schur forms."""
    params = {"n": n, "dmax": dmax}
    for nn in range(1, n + 1):
        for lam in enumerate_upto(nn, dmax):
            a = jack_P(lam, nn)
            b = jack_P_eigen(lam, nn)
            if a != b:
                return _report("jack-agreement", params, _w(
                    n=nn, lam=lam, kind="construction-mismatch"))
            schur = factorial_schur(lam, nn).top_component()
            if jack_P_at(lam, nn, Fraction(1)) != schur:
                return _report("jack-agreement", params, _w(
                    n=nn, lam=lam, kind="alpha=1"))
            scaled = jack_J(lam, nn).map_coeffs(
                lambda c: substitute(c, Fraction(1)))
            if scaled != schur * hook_product_lower(lam, Fraction(1)):
                return _report("jack-agreement", params, _w(
                    n=nn, lam=lam, kind="integral-form-alpha=1"))
    return _report("jack-agreement", params)


def check_lift(n, dmax):
    """Substituting raising operators into the e-expansion recovers the family."""
    params = {"n": n, "dmax": dmax}
    rho = ShiftVector.staircase_multiple(n)
    for lam in enumerate_upto(n, dmax):
        # the alpha basis that jack-agreement and pieri build, at alpha = 1/r
        jack_r = jack_P_eigen(lam, n).map_coeffs(
            lambda c: invert_parameter(c, rho.r.param))
        lifted = inhomogeneous_lift(jack_r, rho.r)
        if lifted != interpolation_polynomial(lam, rho):
            return _report("lift", params, _w(lam=lam))
    return _report("lift", params)


def check_pieri(n, dmax):
    """Vertical-strip expansion of e_k times a Jack polynomial."""
    params = {"n": n, "dmax": dmax}
    alpha = alpha_gen()
    golden = pieri_coefficient((1, 1), (1, 0), alpha)
    want = 2 * alpha / (alpha + 1)
    if golden != want:
        return _report("pieri", params, _w(kind="golden-coefficient",
                                           value=golden, want=want))
    for mu in enumerate_upto(n, dmax):
        for k in range(1, n + 1):
            ok, residual = pieri_verify(mu, k, n)
            if not ok:
                return _report("pieri", params, _w(
                    mu=mu, k=k, residual=repr(residual)))
    return _report("pieri", params)


def check_reduction(n, dmax, r=None):
    """Full-column split: P_lam against its first-column reduction."""
    params = {"n": n, "dmax": dmax, "r": _r_label(r)}
    rho = ShiftVector.staircase_multiple(n, r)
    for d in range(n, dmax + 1):
        for lam in enumerate_exact(n, d):
            if lam[-1] < 1:
                continue
            if first_column_reduction(lam, rho) != interpolation_polynomial(lam, rho):
                return _report("reduction", params, _w(lam=lam))
    return _report("reduction", params)


# name -> (function, takes an r argument)
CHECKS = {
    "vanishing": (check_vanishing, True),
    "unitriangular": (check_unitriangular, True),
    "special-forms": (check_special_forms, False),
    "uniqueness": (check_uniqueness, False),
    "eigenvalue": (check_eigenvalue, True),
    "commutativity": (check_commutativity, True),
    "cutoff": (check_cutoff, True),
    "raising-stability": (check_raising_stability, True),
    "degree-bound": (check_degree_bound, True),
    "extra-vanishing": (check_extra_vanishing, True),
    "ideal-stability": (check_ideal_stability, True),
    "reduction": (check_reduction, True),
    "jack-agreement": (check_jack_agreement, False),
    "lift": (check_lift, False),
    "pieri": (check_pieri, False),
}


def run_check(name, n, dmax, r=None):
    """Dispatch one named check; r applies only where meaningful."""
    try:
        fn, takes_r = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}") from None
    if takes_r:
        return fn(n, dmax, r=r)
    if r is not None:
        raise ValueError(f"check {name!r} does not take a rational r")
    return fn(n, dmax)
