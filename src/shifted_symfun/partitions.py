"""Partition combinatorics: orders, strips, hooks and hook products.

Partitions are tuples of weakly decreasing nonnegative ints.  A partition
"with n parts" keeps its trailing zeros, so (2, 1, 0) is the padded form of
(2, 1) for n = 3.  Boxes are (row, column) pairs, both 1-based, matching the
usual matrix picture of a Young diagram.  Variable index sets (for strips)
are 0-based like everything else that indexes x_1..x_n in this package.
"""

from fractions import Fraction
from itertools import combinations

from .scalars import memoized


def is_partition(seq):
    """True for a weakly decreasing sequence of nonnegative ints."""
    return all(isinstance(p, int) and p >= 0 for p in seq) and \
        all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def as_partition(seq, n=None):
    """Validate and return the partition as a tuple, padded to n parts."""
    lam = tuple(seq)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if n is None:
        return lam
    if len(lam) > n:
        if any(lam[n:]):
            raise ValueError(f"{lam} has more than {n} parts")
        return lam[:n]
    return lam + (0,) * (n - len(lam))


def trim(lam):
    """Drop trailing zeros."""
    k = len(lam)
    while k and lam[k - 1] == 0:
        k -= 1
    return tuple(lam[:k])


def conjugate(lam):
    """Transpose of the diagram; the result has lam[0] parts, no padding."""
    lam = trim(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def conjugate_part(lam, j):
    """Column length lam'_j for 1-based j, zero beyond the first row."""
    if j < 1:
        raise ValueError("column index is 1-based")
    return sum(1 for p in lam if p >= j)


def dominance_leq(mu, lam):
    """Prefix-sum comparison mu_1+..+mu_k <= lam_1+..+lam_k for every k.

    Total on integer vectors of any lengths (the shorter one is padded), so
    partitions of different degrees compare too; on a fixed degree this is
    the dominance order.
    """
    n = max(len(mu), len(lam))
    s_mu = s_lam = 0
    for k in range(n):
        s_mu += mu[k] if k < len(mu) else 0
        s_lam += lam[k] if k < len(lam) else 0
        if s_mu > s_lam:
            return False
    return True


def dominance_less(mu, lam):
    return tuple(mu) != tuple(lam) and dominance_leq(mu, lam)


def contains(inner, outer):
    """Componentwise inner_i <= outer_i, i.e. the diagrams nest."""
    n = max(len(inner), len(outer))
    for k in range(n):
        a = inner[k] if k < len(inner) else 0
        b = outer[k] if k < len(outer) else 0
        if a > b:
            return False
    return True


def enumerate_exact(n, d):
    """All partitions of d into at most n parts, padded to n, sorted."""
    out = []

    def rec(prefix, remaining, bound):
        if len(prefix) == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        lo = 0 if len(prefix) < n - 1 else remaining
        for p in range(min(bound, remaining), lo - 1, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], d, d)
    out.sort()
    return out


def enumerate_upto(n, d):
    """Partitions with at most n parts and degree <= d.

    The order is degree-major, then lexicographic on the padded tuples;
    this refines dominance, so triangular linear algebra can consume the
    list as-is.
    """
    out = []
    for k in range(d + 1):
        out.extend(enumerate_exact(n, k))
    return out


def staircase(n):
    """(n-1, n-2, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


def boxes(lam):
    """All (row, column) pairs of the diagram, 1-based, row-major."""
    for i, part in enumerate(trim(lam), start=1):
        for j in range(1, part + 1):
            yield (i, j)


def is_vertical_strip(lam, mu):
    """True when lam/mu adds at most one box per row (lam = mu + eps_I)."""
    n = max(len(lam), len(mu))
    for k in range(n):
        a = lam[k] if k < len(lam) else 0
        b = mu[k] if k < len(mu) else 0
        if a - b not in (0, 1):
            return False
    return True


def vertical_strips(mu, k):
    """All ways to grow mu by a vertical k-strip.

    Returns (lam, rows) pairs where rows is the 0-based index set I with
    lam = mu + eps_I, and lam is still a partition with len(mu) parts.
    Ordered by the enumeration order of I.
    """
    mu = as_partition(mu)
    n = len(mu)
    out = []
    for rows in combinations(range(n), k):
        lam = list(mu)
        for i in rows:
            lam[i] += 1
        if is_partition(lam):
            out.append((tuple(lam), rows))
    return out


def horizontal_strips(mu, k):
    """All ways to shrink mu by a horizontal k-strip.

    Returns every lam with mu/lam a horizontal strip of k boxes (at most
    one box per column): mu_(i+1) <= lam_i <= mu_i and |mu| - |lam| = k.
    lam keeps len(mu) parts; the list runs from the largest lam_1 down,
    each row's choices largest first.  The rows below row i can give up
    at most mu_(i+1) boxes in all, so row i gives up at least the rest
    and no branch ends short.
    """
    mu = as_partition(mu)
    out = []

    def rec(i, lam, left):
        if i == len(mu):
            out.append(tuple(lam))
            return
        below = mu[i + 1] if i + 1 < len(mu) else 0
        for d in range(max(0, left - below), min(mu[i] - below, left) + 1):
            rec(i + 1, lam + [mu[i] - d], left - d)

    rec(0, [], k)
    return out


_KOSTKA_CACHE = {}


@memoized(_KOSTKA_CACHE, lambda mu, nu: (trim(mu), trim(nu)))
def kostka(mu, nu):
    """The Kostka number K_(mu, nu): the semistandard tableaux of shape mu
    and weight nu (Macdonald I.5), so s_mu = sum_nu K_(mu, nu) m_nu
    (I.6).  The boxes holding the largest entry form a horizontal strip,
    so K_(mu, nu) is the sum of K_(lam, nu') over the lam with mu/lam a
    horizontal strip of nu's last part, nu' = nu without it."""
    mu, nu = trim(mu), trim(nu)
    if not nu:
        return int(not mu)
    if len(mu) > len(nu) or sum(mu) != sum(nu):
        return 0
    return sum(kostka(lam, nu[:-1]) for lam in horizontal_strips(mu, nu[-1]))


def _check_box(lam, box):
    i, j = box
    if i < 1 or j < 1 or i > len(lam) or lam[i - 1] < j:
        raise ValueError(f"box {box} is outside {lam}")


def lower_hook(lam, box, alpha):
    """alpha * arm + leg + 1 at the box, arm = lam_i - j, leg = lam'_j - i."""
    _check_box(lam, box)
    i, j = box
    return alpha * (lam[i - 1] - j) + (conjugate_part(lam, j) - i + 1)


def upper_hook(lam, box, alpha):
    """alpha * (arm + 1) + leg at the box."""
    _check_box(lam, box)
    i, j = box
    return alpha * (lam[i - 1] - j + 1) + (conjugate_part(lam, j) - i)


def hook_product_lower(lam, alpha):
    result = Fraction(1)
    for box in boxes(lam):
        result = lower_hook(lam, box, alpha) * result
    return result


def hook_product_upper(lam, alpha):
    result = Fraction(1)
    for box in boxes(lam):
        result = upper_hook(lam, box, alpha) * result
    return result


def rho_hooklength(lam, box, rho):
    """Shifted hook (lam_i - j + 1) + (rho_i - rho_{lam'_j}).

    rho is the sequence of shift scalars; it must cover every row index
    that the column lengths of lam reach.
    """
    _check_box(lam, box)
    i, j = box
    cp = conjugate_part(lam, j)
    if cp > len(rho):
        raise ValueError(f"shift vector of length {len(rho)} too short for {lam}")
    return (lam[i - 1] - j + 1) + (rho[i - 1] - rho[cp - 1])


def rho_hook_product(lam, rho):
    """Product of shifted hooks over the diagram; the empty product is 1."""
    result = Fraction(1)
    for box in boxes(lam):
        result = rho_hooklength(lam, box, rho) * result
    return result


def x_set(lam, mu):
    """Boxes (i, j) of lam with mu_i = lam_i and mu'_j < lam'_j.

    These are the boxes in the rows that a vertical strip lam/mu does not
    touch, sitting in the columns it does touch.
    """
    lam = trim(lam)
    mu = tuple(mu)
    if not contains(mu, lam):
        raise ValueError(f"{mu} is not contained in {lam}")
    out = []
    for i, j in boxes(lam):
        mu_i = mu[i - 1] if i <= len(mu) else 0
        if mu_i == lam[i - 1] and conjugate_part(mu, j) < conjugate_part(lam, j):
            out.append((i, j))
    return out


def pieri_coefficient(lam, mu, alpha):
    """Vertical-strip Pieri coefficient of P_lam in e_k * P_mu.

    Product over the boxes of x_set(lam, mu) of
    (lower/upper hook of lam) * (upper/lower hook of mu).
    """
    if not is_vertical_strip(lam, mu):
        raise ValueError(f"{lam}/{mu} is not a vertical strip")
    result = Fraction(1)
    for box in x_set(lam, mu):
        result = result * lower_hook(lam, box, alpha) / upper_hook(lam, box, alpha)
        result = result * upper_hook(mu, box, alpha) / lower_hook(mu, box, alpha)
    return result
