"""End-to-end acceptance suite.

Each test replays one acceptance criterion over its full contractual
range, prints exactly one pass/fail line, and fails the test if the
criterion does not hold.  Nothing here is approximate: every comparison
is exact scalar equality.
"""

import time
from fractions import Fraction

from shifted_symfun.checks import (check_commutativity, check_eigenvalue,
                                   check_extra_vanishing,
                                   check_jack_agreement, check_lift,
                                   check_pieri, check_special_forms,
                                   check_uniqueness, check_unitriangular,
                                   check_vanishing)
from shifted_symfun.jack import alpha_gen, conjecture_expand, jack_P
from shifted_symfun.partitions import enumerate_exact
from shifted_symfun.sympoly import elementary

R_VALUES = (None, Fraction(1), Fraction(2), Fraction(1, 2),
            Fraction(5, 3))


def _sweep(check, dmax, r_values=(None,), ns=(1, 2, 3)):
    """Run one named check over the grid; returns (all_pass, symbolic_time)."""
    ok = True
    sym_elapsed = 0.0
    for n in ns:
        for r in r_values:
            t0 = time.monotonic()
            report = check(n, dmax, r)
            dt = time.monotonic() - t0
            if r is None:
                sym_elapsed += dt
            ok = ok and report["status"] == "pass"
    return ok, sym_elapsed


def test_criterion_01_vanishing_and_normalization(acceptance):
    ok, sym = _sweep(check_vanishing, 5, R_VALUES)
    ok = ok and sym < 120.0
    assert acceptance(1, "vanishing and hook-product normalization "
                         "(n<=3, deg<=5, shifts symbolic/1/2/1:2/5:3)", ok)


def test_criterion_02_leading_term_and_triangularity(acceptance):
    ok, _ = _sweep(check_unitriangular, 5, R_VALUES)
    assert acceptance(2, "unit leading coefficient and dominance "
                         "triangularity (same grid)", ok)


def test_criterion_03_closed_forms(acceptance):
    ok = True
    for n in (1, 2, 3):
        report = check_special_forms(n, 5)
        ok = ok and report["status"] == "pass"
    assert acceptance(3, "closed forms: zero shift, unit staircase, "
                         "one-column (random shifts), one-row", ok)


def test_criterion_04_eigenvalue_identity(acceptance):
    ok, sym = _sweep(check_eigenvalue, 5)
    ok = ok and sym < 300.0
    assert acceptance(4, "difference family acts with product eigenvalues, "
                         "identically in t (n<=3, deg<=5)", ok)


def test_criterion_05_commuting_families(acceptance):
    ok, _ = _sweep(check_commutativity, 5)
    assert acceptance(5, "difference and raising families commute as exact "
                         "matrices on degree<=5", ok)


def test_criterion_06_jack_agreement(acceptance):
    report = check_jack_agreement(3, 5)
    assert acceptance(6, "top components match eigenfunction route and "
                         "collapse to Schur at alpha=1 (n<=3, deg<=5)",
                      report["status"] == "pass")


def test_criterion_07_extra_vanishing(acceptance):
    ok, _ = _sweep(check_extra_vanishing, 5)
    assert acceptance(7, "vanishing at all non-containing nodes, including "
                         "higher degree (n<=3, deg<=5)", ok)


def test_criterion_08_lift(acceptance):
    ok = all(check_lift(n, 4)["status"] == "pass" for n in (1, 2, 3))
    assert acceptance(8, "raising-operator lift recovers the interpolation "
                         "family (n<=3, deg<=4)", ok)


def test_criterion_09_pieri(acceptance):
    alpha = alpha_gen()
    golden = elementary(1, 2) * jack_P((1, 0), 2) == \
        jack_P((2, 0), 2) + jack_P((1, 1), 2) * (2 * alpha / (alpha + 1))
    ok = all(check_pieri(n, 4)["status"] == "pass" for n in (1, 2, 3))
    assert acceptance(9, "vertical-strip expansion for e_k (deg<=4, all k, "
                         "n<=3) with the golden one-box case", ok and golden)


def test_criterion_10_positivity_scan(acceptance):
    t0 = time.monotonic()
    polynomial_ok = True
    violations = 0
    for n in (1, 2, 3, 4):
        for d in range(6):
            for lam in enumerate_exact(n, d):
                report = conjecture_expand(lam, n)
                for row in report.rows:
                    polynomial_ok = polynomial_ok and row.polynomial
                    if not (row.integral and row.nonneg):
                        violations += 1
                polynomial_ok = polynomial_ok and report.dominance_ok
    elapsed = time.monotonic() - t0
    ok = polynomial_ok and violations == 0 and elapsed < 900.0
    assert acceptance(10, "integral-form coefficients are nonnegative "
                          "integer polynomials (n<=4, deg<=5, "
                          f"{violations} violations)", ok)


def test_criterion_11_uniqueness(acceptance):
    report = check_uniqueness(3, 5)
    assert acceptance(11, "direct solve equals recursive construction on "
                          "random data (n<=3, deg<=5, 5 random dominant "
                          "shifts)", report["status"] == "pass")
