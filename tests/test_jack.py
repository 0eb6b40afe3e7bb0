import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shifted_symfun
from shifted_symfun import jack
from shifted_symfun.interpolation import ShiftVector, interpolation_polynomial
from shifted_symfun.jack import (ConjectureReport, ConjectureRow, alpha_gen,
                                 conjecture_expand, jack_J, jack_P, jack_P_at,
                                 jack_P_eigen, pieri_verify, shifted_jack_J)
from shifted_symfun.partitions import (enumerate_exact, enumerate_upto,
                                       hook_product_lower, pieri_coefficient)
from shifted_symfun.scalars import PoleError, RationalFunction, UniPoly
from shifted_symfun.sympoly import SymPoly, elementary

from reference_determinants import dense_eigen_basis

ALPHA = alpha_gen()


def partitions_of(k):
    def rec(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, maxpart), 0, -1):
            for rest in rec(rem - p, p):
                yield (p,) + rest
    yield from rec(k, k)


def cycle_type_size(kappa):
    z = 1
    for part, mult in Counter(kappa).items():
        z *= factorial(mult) * part ** mult
    return z


def one_row_from_generating_function(k, n):
    """Independent route to the one-row polynomial.

    Coefficient of y^k in exp(sum_m p_m y^m / (alpha m)) is proportional
    to the one-row polynomial; normalizing the leading monomial
    coefficient to 1 pins it down.
    """
    g = SymPoly.zero(n)
    for kappa in partitions_of(k):
        term = SymPoly.one(n)
        for part in kappa:
            term = term * SymPoly.basis(n, (part,) + (0,) * (n - 1))
        coeff = RationalFunction.const(
            "alpha", Fraction(1, cycle_type_size(kappa))) / ALPHA ** len(kappa)
        g = g + term * coeff
    lead = g.coefficient((k,) + (0,) * (n - 1))
    return g * (1 / lead)


def test_one_row_against_generating_function():
    for k in (1, 2, 3, 4):
        lam = (k, 0, 0)
        assert jack_P(lam, 3) == one_row_from_generating_function(k, 3)


def test_frozen_expansions():
    # derived by Gram-Schmidt against the alpha inner product
    assert jack_P((2, 0), 2) == SymPoly.basis(2, (2, 0)) + \
        SymPoly.basis(2, (1, 1)) * (2 / (ALPHA + 1))
    assert jack_P((2, 1, 0), 3) == SymPoly.basis(3, (2, 1, 0)) + \
        SymPoly.basis(3, (1, 1, 1)) * (6 / (ALPHA + 2))
    assert jack_P((3, 0), 2) == SymPoly.basis(2, (3, 0)) + \
        SymPoly.basis(2, (2, 1)) * (3 / (2 * ALPHA + 1))


def test_one_column_is_elementary():
    for n in (2, 3):
        for k in range(1, n + 1):
            lam = (1,) * k + (0,) * (n - k)
            assert jack_P(lam, n) == elementary(k, n)


def test_construction_routes_agree():
    for n in (1, 2, 3):
        for lam in enumerate_upto(n, 4):
            assert jack_P(lam, n) == jack_P_eigen(lam, n)


def test_alpha_one_is_schur():
    # s_21 = m21 + 2 m111, s_3 = m3 + m21 + m111 (three variables)
    s21 = SymPoly(3, {(2, 1, 0): Fraction(1), (1, 1, 1): Fraction(2)})
    s3 = SymPoly(3, {(3, 0, 0): Fraction(1), (2, 1, 0): Fraction(1),
                     (1, 1, 1): Fraction(1)})
    assert jack_P_at((2, 1, 0), 3, Fraction(1)) == s21
    assert jack_P_at((3, 0, 0), 3, Fraction(1)) == s3


def test_rational_alpha_specialization():
    av = Fraction(1, 2)
    for lam in enumerate_upto(2, 3):
        want = jack_P(lam, 2).map_coeffs(
            lambda c: c.substitute(av)
            if isinstance(c, RationalFunction) else c)
        assert jack_P_eigen(lam, 2, alpha=av) == want
        assert jack_P_at(lam, 2, av) == want


def test_pole_detection():
    with pytest.raises(PoleError):
        jack_P_at((2, 0), 2, Fraction(-1))  # 2/(alpha+1) blows up


def test_integral_form_golden():
    got = jack_J((2, 0), 2)
    want = SymPoly.basis(2, (2, 0)) * (ALPHA + 1) + \
        SymPoly.basis(2, (1, 1)) * Fraction(2)
    assert got == want
    assert jack_J((1, 1), 2) == elementary(2, 2) * Fraction(2)


def test_integral_form_hook_scaling():
    for lam in enumerate_upto(2, 4):
        assert jack_J(lam, 2) == jack_P(lam, 2) * hook_product_lower(lam, ALPHA)


def test_shifted_integral_form():
    # one box: m1 + 1/alpha in two variables, m1 + 3/alpha in three
    J1 = shifted_jack_J((1, 0), 2)
    assert J1 == SymPoly.basis(2, (1, 0)) + SymPoly.one(2) * (1 / ALPHA)
    J13 = shifted_jack_J((1, 0, 0), 3)
    assert J13 == SymPoly.basis(3, (1, 0, 0)) + SymPoly.one(3) * (3 / ALPHA)


def test_shifted_integral_form_top():
    for lam in enumerate_upto(2, 4):
        assert shifted_jack_J(lam, 2).top_component() == jack_J(lam, 2)


def test_shifted_form_interpolates():
    """Triangular node values, inherited from the interpolation family."""
    r = RationalFunction.gen("r")
    rho = ShiftVector.staircase_multiple(2, r)
    lam = (2, 1)
    P = interpolation_polynomial(lam, rho)
    J = shifted_jack_J(lam, 2)
    # same polynomial up to sign flips and scaling, so same vanishing set
    for mu in enumerate_upto(2, 3):
        if mu != lam:
            val = P.evaluate(rho.point(mu))
            assert val == 0


def test_conjecture_single_box():
    report = conjecture_expand((1, 0, 0), 3)
    assert isinstance(report, ConjectureReport)
    assert report.verdict == "pass"
    rows = {tuple(r.mu): r for r in report.rows}
    assert str(rows[(1, 0, 0)].a) == "1"
    assert str(rows[(0, 0, 0)].a) == "3"


def test_conjecture_report_shape():
    doc = conjecture_expand((2, 1), 2).as_dict()
    assert doc["schema"] == 1
    assert doc["lambda"] == [2, 1]
    assert doc["n"] == 2
    assert doc["verdict"] == "pass"
    assert doc["dominance_ok"] is True
    for row in doc["rows"]:
        assert set(row) == {"mu", "a", "polynomial", "integral", "nonneg"}
        assert row["polynomial"] and row["integral"] and row["nonneg"]


def test_conjecture_report_keeps_the_slotted_record_shape():
    # plain slotted classes: the same fields, defaults and verdict as the
    # records they replace
    report = ConjectureReport((1, 0), 2)
    assert (report.rows, report.dominance_ok, report.verdict) == ([], True,
                                                                  "pass")
    report.rows.append(ConjectureRow((1, 0), UniPoly("alpha", (0, 1)), True,
                                     True, False))
    assert report.verdict == "fail"
    assert report.as_dict()["rows"] == [
        {"mu": [1, 0], "a": "alpha", "polynomial": True, "integral": True,
         "nonneg": False}]
    with pytest.raises(AttributeError):
        report.extra = 1


def test_conjecture_grades_each_failing_coefficient(monkeypatch):
    """Each grading rule on a row built to break it alone.  The m_mu
    coefficient is alpha^(|mu| - |lam|) * a, so the rows below |lam| = 3
    carry a divided by powers of alpha."""
    from shifted_symfun import jack
    lam = (2, 1, 0)
    J = SymPoly(3, {
        (2, 1, 0): ALPHA * ALPHA - ALPHA,   # a negative coefficient
        (1, 1, 0): Fraction(1, 2),          # a = alpha / 2, not integral
        (1, 0, 0): 1 / (ALPHA + 1),         # a = alpha^2 / (alpha + 1)
        (1, 1, 1): ALPHA + 2,               # every rule holds
    })
    monkeypatch.setattr(jack, "shifted_jack_J", lambda lam, n: J)
    report = conjecture_expand(lam, 3)
    flags = {r.mu: (r.polynomial, r.integral, r.nonneg) for r in report.rows}
    assert flags == {(2, 1, 0): (True, True, False),
                     (1, 1, 0): (True, False, True),
                     (1, 0, 0): (False, False, False),
                     (1, 1, 1): (True, True, True)}
    assert report.dominance_ok and report.verdict == "fail"
    # a good row alone passes; a mu not dominated by lam fails on its own
    monkeypatch.setattr(jack, "shifted_jack_J",
                        lambda lam, n: SymPoly(3, {(1, 1, 1): ALPHA + 2}))
    assert conjecture_expand(lam, 3).verdict == "pass"
    monkeypatch.setattr(jack, "shifted_jack_J",
                        lambda lam, n: SymPoly(3, {(3, 0, 0): ALPHA}))
    report = conjecture_expand(lam, 3)
    assert [(r.polynomial, r.integral, r.nonneg) for r in report.rows] == \
        [(True, True, True)]
    assert not report.dominance_ok and report.verdict == "fail"
    for bad in ((2, 1, 0), (1, 1, 0), (1, 0, 0)):
        monkeypatch.setattr(jack, "shifted_jack_J", lambda lam, n, bad=bad:
                            SymPoly(3, {bad: J.terms[bad]}))
        assert conjecture_expand(lam, 3).verdict == "fail", bad


def test_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, ast and dis: most of the package's
    # import time, paid by every command
    src = Path(shifted_symfun.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import shifted_symfun; print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_conjecture_coefficients_are_hook_products_on_diagonal():
    lam = (2, 1, 0)
    report = conjecture_expand(lam, 3)
    top = {tuple(r.mu): r for r in report.rows}[lam]
    assert top.a == hook_product_lower(lam, ALPHA).as_unipoly()


def test_pieri_golden_identity():
    lhs = elementary(1, 2) * jack_P((1, 0), 2)
    rhs = jack_P((2, 0), 2) + jack_P((1, 1), 2) * (2 * ALPHA / (ALPHA + 1))
    assert lhs == rhs
    assert pieri_coefficient((1, 1), (1, 0), ALPHA) == 2 * ALPHA / (ALPHA + 1)


def test_pieri_verify_ranges():
    for n in (1, 2, 3):
        for mu in enumerate_upto(n, 3):
            for k in range(1, n + 1):
                ok, residual = pieri_verify(mu, k, n)
                assert ok and residual.is_zero()
    with pytest.raises(ValueError):
        pieri_verify((1, 0), 3, 2)


def test_eigen_route_builds_each_degree_once(monkeypatch):
    from shifted_symfun import jack
    calls = []
    real = jack.apply_sekiguchi_debiard

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jack, "apply_sekiguchi_debiard", counting)
    alpha = alpha_gen() + 7  # a parameter no other test solves at
    lams = [lam for lam in enumerate_upto(3, 4) if sum(lam) == 4]
    assert len(lams) == 4
    for lam in lams:
        jack_P_eigen(lam, 3, alpha)
    assert len(calls) == 4  # one per basis element of the degree


def test_eigen_route_caches_no_operator_image():
    # the Sekiguchi-Debiard images are formed per call: each degree is
    # built once, so a cached image would never be read again
    from shifted_symfun import operators
    before = set(operators._IMAGE_CACHE)
    alpha = alpha_gen() + 11  # a parameter no other test solves at
    jack_P_eigen((2, 1, 0), 3, alpha)
    assert set(operators._IMAGE_CACHE) == before


def test_eigen_collision_at_alpha_minus_one():
    alpha = Fraction(-1)
    for _ in range(2):  # the second pass reads the cached degree
        with pytest.raises(ArithmeticError, match="collision"):
            jack_P_eigen((2, 0), 2, alpha=alpha)
        assert jack_P_eigen((1, 1), 2, alpha=alpha) == \
            SymPoly(2, {(1, 1): Fraction(1)})


@contextmanager
def cold_eigen_cache():
    """The eigen basis cache emptied for the block and restored after
    it, so no entry formed inside, a mutant's included, outlives it."""
    saved = dict(jack._EIGEN_CACHE)
    jack._EIGEN_CACHE.clear()
    try:
        yield
    finally:
        jack._EIGEN_CACHE.clear()
        jack._EIGEN_CACHE.update(saved)


eigen_alphas = st.one_of(
    st.integers(-30, 30).map(lambda c: ALPHA + c),  # fresh cache keys
    st.fractions(-4, 4, max_denominator=6).filter(bool))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), eigen_alphas)
@example(2, 2, Fraction(-1))  # (2, 0) collides with (1, 1)
@example(4, 5, ALPHA)
def test_eigen_basis_matches_dense_back_substitution(n, d, alpha):
    with cold_eigen_cache():
        assert jack._eigen_basis(n, d, alpha) == dense_eigen_basis(n, d, alpha)


def test_eigen_basis_sums_no_row(monkeypatch):
    # the k-th partition of a degree adds n factors of its eigenvalue
    # (at most two sums each) and k gaps; a dense row sum adds far more
    n, d, alpha = 4, 6, ALPHA + 13
    calls = []
    real = RationalFunction.__add__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    with cold_eigen_cache():
        monkeypatch.setattr(RationalFunction, "__add__", counting)
        monkeypatch.setattr(RationalFunction, "__radd__", counting)
        jack._eigen_basis(n, d, alpha)
        monkeypatch.undo()
    m = len(enumerate_exact(n, d))
    assert 0 < len(calls) <= sum(2 * n + k for k in range(m)) == 108


def test_eigen_basis_needs_every_step(monkeypatch):
    # a step that drops the update c_mu * D m_mu reads the next
    # coefficient off D m_lam alone
    n, d, alpha = 3, 4, ALPHA + 17
    want = dense_eigen_basis(n, d, alpha)
    with cold_eigen_cache():
        assert jack._eigen_basis(n, d, alpha) == want
    monkeypatch.setattr(jack, "_step", lambda form, c, other: form)
    with cold_eigen_cache():
        assert jack._eigen_basis(n, d, alpha) != want
