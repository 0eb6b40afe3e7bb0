import inspect
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from shifted_symfun import checks, jack, operators
from shifted_symfun.interpolation import ShiftVector
from shifted_symfun.partitions import enumerate_upto, is_partition
from shifted_symfun.scalars import scalar_key
from shifted_symfun.sympoly import SymPoly, _Row

from reference_determinants import scalar_cutoff_forms


def test_registry_names():
    for pinned in ("eigenvalue", "extra-vanishing", "pieri", "vanishing",
                   "commutativity", "cutoff", "special-forms", "uniqueness",
                   "lift", "jack-agreement"):
        assert pinned in checks.CHECKS


def test_all_checks_pass_small_range():
    for name in checks.CHECKS:
        report = checks.run_check(name, 2, 2)
        assert report["schema"] == 1
        assert report["check"] == name
        assert report["status"] == "pass", report
        assert report["witness"] is None
        assert report["params"]["n"] == 2


def test_rational_parameter_threading():
    report = checks.run_check("vanishing", 2, 3, r="2")
    assert report["status"] == "pass"
    assert report["params"]["r"] == "2"


def test_unknown_check():
    with pytest.raises(ValueError):
        checks.run_check("nope", 2, 2)


def test_alpha_checks_refuse_rational_r():
    # "symbolic" is refused too: the symbolic shift is r=None
    alpha_checks = [name for name, (_, takes_r) in checks.CHECKS.items()
                    if not takes_r]
    for name in alpha_checks:
        for r in ("1/2", "symbolic"):
            with pytest.raises(ValueError):
                checks.run_check(name, 2, 2, r=r)


def test_lift_reads_the_alpha_eigen_basis(monkeypatch):
    # lift rewrites the Q(alpha) eigen basis at alpha = 1/r, the one that
    # jack-agreement and pieri build, rather than solving one over Q(r)
    def over_r():
        return [k for k in jack._EIGEN_CACHE if k[2][:2] == ("rf", "r")]
    for key in over_r():
        monkeypatch.delitem(jack._EIGEN_CACHE, key)
    assert checks.run_check("lift", 3, 3)["status"] == "pass"
    assert over_r() == []


SHIFT_CHECKS = [name for name, (_, takes_r) in checks.CHECKS.items()
                if takes_r]


@pytest.mark.parametrize("name", SHIFT_CHECKS)
def test_r_none_is_the_symbolic_shift(name):
    report = checks.run_check(name, 2, 2)
    assert report == checks.run_check(name, 2, 2, r=None)
    assert report["params"]["r"] == "symbolic"
    # "symbolic" is an output label, not a value of r
    with pytest.raises(ValueError):
        checks.run_check(name, 2, 2, r="symbolic")


def test_checks_take_only_their_range_and_shift():
    for name, (fn, takes_r) in checks.CHECKS.items():
        want = ["n", "dmax", "r"] if takes_r else ["n", "dmax"]
        assert list(inspect.signature(fn).parameters) == want, name


@pytest.mark.parametrize("call, want", [
    (lambda: checks.check_special_forms(2, 2),
     {"n": 2, "dmax": 2, "trials": 6, "seed": 20260814}),
    (lambda: checks.check_uniqueness(2, 2),
     {"n": 2, "dmax": 2, "trials": 5, "seed": 20260814}),
    (lambda: checks.check_degree_bound(2, 2),
     {"n": 2, "dmax": 2, "r": "symbolic", "trials": 6, "seed": 20260814}),
    (lambda: checks.check_degree_bound(3, 2, Fraction(1, 2)),
     {"n": 3, "dmax": 2, "r": "1/2", "trials": 6, "seed": 20260814}),
    (lambda: checks.check_ideal_stability(2, 2),
     {"n": 2, "dmax": 2, "r": "symbolic", "generator": [1, 1]}),
    (lambda: checks.check_ideal_stability(1, 2, "2"),
     {"n": 1, "dmax": 2, "r": "2", "generator": [1]}),
], ids=["special-forms", "uniqueness", "degree-bound", "degree-bound-1/2",
        "ideal-stability", "ideal-stability-n1"])
def test_fixed_sampling_is_reported_in_params(call, want):
    report = call()
    assert report["status"] == "pass"
    assert list(report["params"].items()) == list(want.items())


def test_failure_produces_witness(monkeypatch):
    real = checks.interpolation_basis

    def corrupted(n, d, rho):
        out = dict(real(n, d, rho))
        return {lam: P + SymPoly.one(n) for lam, P in out.items()}

    monkeypatch.setattr(checks, "interpolation_basis", corrupted)
    report = checks.check_vanishing(2, 2)
    assert report["status"] == "fail"
    assert report["witness"] is not None
    assert "lam" in report["witness"]


def test_commutativity_detects_broken_family(monkeypatch):
    real = checks.apply_difference_family

    def skewed(f, r):
        fam = dict(real(f, r))
        # bump the constant row of one component; the bumped operator
        # no longer commutes with the rest of the family
        fam[0] = fam.get(0, SymPoly.zero(f.n)) + SymPoly.one(f.n)
        return fam

    monkeypatch.setattr(checks, "apply_difference_family", skewed)
    report = checks.check_commutativity(2, 2)
    assert report["status"] == "fail"
    report = checks.check_commutativity(3, 2)
    assert report["witness"] == {"family": "difference", "i": 1, "j": 3}


def test_commutativity_detects_broken_raising_operator(monkeypatch):
    real = checks.apply_raising

    def skewed(f, k, r):
        # R_1 f also gains f's constant coefficient times m_(1): still
        # linear, but it no longer commutes with R_2
        img = real(f, k, r)
        if k == 1:
            img = img + SymPoly.basis(f.n, (1,), f.coefficient(()))
        return img

    monkeypatch.setattr(checks, "apply_raising", skewed)
    for n, dmax, r in ((2, 2, None), (3, 3, Fraction(3, 2))):
        report = checks.check_commutativity(n, dmax, r=r)
        assert report["status"] == "fail"
        assert report["witness"] == {"family": "raising", "i": 1, "j": 2}


@pytest.fixture
def restored_operator_caches():
    """The operator caches, put back exactly as they were after the test,
    so entries a mutant fills do not outlive it."""
    tables = (operators._MEMBER_CACHE, operators._IMAGE_CACHE)
    saved = [dict(table) for table in tables]
    yield
    for table, entries in zip(tables, saved):
        table.clear()
        table.update(entries)


def test_commutativity_forms_only_the_images_it_composes(
        restored_operator_caches):
    images = operators._IMAGE_CACHE
    images.clear()

    def misses():
        """Entries per operator: the t-family, then raising k = 1, 2, 3."""
        count = Counter(key[2] for key in images)
        return [count[k] for k in (operators._T_FAMILY, 1, 2, 3)]

    assert checks.check_commutativity(3, 5)["status"] == "pass"
    # the t-family on the 16 partitions of size <= 5, which hold every
    # D_j m_mu; raising by k on the m_mu, |mu| <= 5, and on the support
    # of every R_j m_mu, j != k, each image formed once
    assert misses() == [16, 35, 32, 30]
    # raising stability reads the same images of the m_mu, |mu| <= 5
    assert checks.check_raising_stability(3, 5)["status"] == "pass"
    assert misses() == [16, 35, 32, 30]


def test_checks_read_the_operator_coefficients_through_the_cache(
        monkeypatch, restored_operator_caches):
    n, dmax, r = 3, 2, Fraction(13, 4)
    assert checks.check_eigenvalue(n, dmax, r=r)["status"] == "pass"
    assert checks.check_raising_stability(n, dmax, r=r)["status"] == "pass"
    # the size-1 member doubled still alternates inside its blocks, so
    # only the checks can tell it from the member
    real = operators._members
    monkeypatch.setattr(
        operators, "_members",
        lambda nn, rr, family: tuple(
            (size, cont * 2 if size == 1 else cont, keys)
            for size, cont, keys in real(nn, rr, family)))
    key = scalar_key(r)
    for entry in [k for k in operators._IMAGE_CACHE if k[:2] == (n, key)]:
        del operators._IMAGE_CACHE[entry]
    assert checks.check_eigenvalue(n, dmax, r=r)["status"] == "fail"
    assert checks.check_raising_stability(n, dmax, r=r)["status"] == "fail"


def test_operator_results_cannot_edit_the_cache():
    r = Fraction(13, 4)
    f = SymPoly(3, {(1, 0, 0): Fraction(2, 3), (0, 0, 0): 1})
    family = operators.apply_difference_family(f, r)
    raised = operators.apply_raising(f, 1, r)
    before = dict(operators._IMAGE_CACHE)
    # every entry is a tuple of ints and tuples: nothing in it is mutable
    stack = [e for k, e in before.items() if k[1] == scalar_key(r)]
    assert stack
    while stack:
        item = stack.pop()
        assert type(item) in (tuple, int), type(item)
        if type(item) is tuple:
            stack.extend(item)
    with pytest.raises(TypeError):
        raised.terms[(1, 0, 0)] = Fraction(5)
    family.clear()
    again = operators.apply_raising(f, 1, r)
    assert again == raised and again is not raised
    assert operators.apply_difference_family(f, r)
    assert operators._IMAGE_CACHE == before


def test_node_checks_read_the_coefficients(monkeypatch):
    # one coefficient of P_(1,1,0) moved: the value at the empty node,
    # which does not contain (1,1), is no longer 0
    real = checks.interpolation_basis
    target = (1, 1, 0)

    def perturbed(n, d, rho):
        basis = dict(real(n, d, rho))
        if target in basis:
            basis[target] = basis[target] + SymPoly.one(n)
        return basis

    monkeypatch.setattr(checks, "interpolation_basis", perturbed)
    monkeypatch.setattr(checks, "interpolation_polynomial",
                        lambda lam, rho: perturbed(rho.n, sum(lam), rho)[lam])
    for name in ("vanishing", "extra-vanishing", "ideal-stability"):
        report = checks.run_check(name, 3, 3, r="2")
        assert report["status"] == "fail", name


def test_cutoff_reads_the_raising_families(monkeypatch):
    real = operators._member
    fills = []

    def counted(n, r, size, with_t):
        """Runs once per cache fill of a member."""
        fills.append(size)
        return real(n, r, size, with_t)

    monkeypatch.setattr(operators, "_member", counted)
    r = Fraction(7, 3)  # a shift no other test builds families at
    assert checks.check_raising_stability(3, 1, r=r)["status"] == "pass"
    # one raising member per nonempty size, not one per I
    assert sorted(fills) == [1, 2, 3]
    assert sorted(key[2] for key in operators._MEMBER_CACHE
                  if key[:2] == (3, scalar_key(r))) == [1, 2, 3]
    built = len(fills)
    assert checks.check_cutoff(3, 1, r=r)["status"] == "pass"
    assert len(fills) == built
    # on its own the check builds each member once
    r = Fraction(11, 4)
    assert checks.check_cutoff(3, 1, r=r)["status"] == "pass"
    assert checks.check_cutoff(3, 1, r=r)["status"] == "pass"
    assert len(fills) == 2 * built


def test_cutoff_reads_each_member_off_its_representative(monkeypatch):
    # the key with head (1, 0) and tail (1,) adds
    # a_(1,0)(y_0, y_1) * a_(1)(y_2) = (y_0 - y_1) * y_2 to phi_(I0), so
    # sgn(tau) * (y_0 - y_1) * y_2 to phi_I, with y = x_tau: 0 at the node
    # (4, 2, 0) for I = (0, 1), and -(4 - 0) * 2 = -8 for I = (0, 2),
    # tau = (0, 2, 1); at r = 2 the member's content is 1
    real = checks._members

    def skewed(n, r, family):
        members = real(n, r, family)
        if family != 2:
            return members
        ((size, cont, keys),) = members
        assert cont == 1
        return ((size, cont, keys + (((1, 0, 1), 0, 0, 1),)),)

    monkeypatch.setattr(checks, "_members", skewed)
    report = checks.check_cutoff(3, 0, r="2")
    assert report["status"] == "fail"
    assert report["witness"] == {"mu": [0, 0, 0], "rows": [0, 2],
                                 "value": "-8"}


def cutoff_forms_read(monkeypatch, n, r):
    """{size: [(head form, tail form)]}, the forms check_cutoff reads
    phi_(I0) off, in the order it reads them: at the node 0 every
    nonempty index set I breaks, and for each I the check reads the head
    and then the tail of every pair, at the rows of I and of its
    complement."""
    calls, real = [], _Row.value

    def recorded(row, *form):
        calls.append((len(row.coords), form))
        return real(row, *form)

    with monkeypatch.context() as m:
        m.setattr(_Row, "value", recorded)
        assert checks.check_cutoff(n, 0, r)["status"] == "pass"
    pairs = {}  # a form is known by its partition tuple, built once
    for (size, head), (_, tail) in zip(calls[0::2], calls[1::2]):
        pairs.setdefault(size, {}).setdefault((id(head[1]), id(tail[1])),
                                              (head, tail))
    return {size: list(p.values()) for size, p in pairs.items()}


@pytest.mark.parametrize("r", [None, Fraction(1, 2), Fraction(3, 2)],
                         ids=["symbolic", "1/2", "3/2"])
def test_cutoff_forms_equal_the_scalar_construction(monkeypatch, r):
    """The forms read off the members' ints take the values, of the same
    scalar type, of the forms built through SparsePoly terms, SymPoly
    and ``form``, at every node of degree <= 3: each head form at
    every index set I, each tail form at its complement."""
    for n in range(1, 6):
        rho = ShiftVector.staircase_multiple(n, r)
        got = cutoff_forms_read(monkeypatch, n, r)
        want = scalar_cutoff_forms(n, [operators._members(n, rho.r, size)[0]
                                       for size in range(1, n + 1)])
        assert {k: len(v) for k, v in got.items()} == {
            k: len(v) for k, v in want.items()}
        for mu in enumerate_upto(n, 3):
            pt = rho.point(mu)
            for size, pairs in got.items():
                for rows in combinations(range(n), size):
                    rest = [i for i in range(n) if i not in rows]
                    rows = [_Row([pt[i] for i in s]) for s in (rows, rest)]
                    for forms, ref in zip(pairs, want[size]):
                        for row, form, ref_form in zip(rows, forms, ref):
                            a, b = row.value(*form), row.value(*ref_form)
                            assert a == b and type(a) is type(b), (n, mu)


def test_cutoff_fails_when_the_tails_lose_their_power_of_r(monkeypatch):
    """A mutant that puts every tail int at r^0 fails the check at the
    symbolic shift."""
    assert checks.check_cutoff(3, 3)["status"] == "pass"
    real = checks._numerator
    monkeypatch.setattr(checks, "_numerator", lambda param, ints: real(
        param, {0: sum(ints.values())}))
    assert checks.check_cutoff(3, 3)["status"] == "fail"


@pytest.mark.parametrize("r", [None, Fraction(1, 2)], ids=["symbolic", "1/2"])
def test_cutoff_builds_one_row_per_node_and_index_set(monkeypatch, r):
    """The head of I and the tail of its complement are one point, so
    each node builds one row per index set that a breaking I uses."""
    real, built = checks._Row, []
    monkeypatch.setattr(checks, "_Row",
                        lambda point: built.append(point) or real(point))
    n, dmax, sets, breaking = 3, 3, 0, 0
    for mu in enumerate_upto(n, dmax):
        used = set()
        for size in range(1, n + 1):
            for rows in combinations(range(n), size):
                if not is_partition([m - (i in rows)
                                     for i, m in enumerate(mu)]):
                    breaking += 1
                    used |= {rows, tuple(i for i in range(n)
                                         if i not in rows)}
        sets += len(used)
    assert checks.check_cutoff(n, dmax, r=r)["status"] == "pass"
    # two rows per breaking I would be 2 * breaking
    assert len(built) == sets < 2 * breaking
