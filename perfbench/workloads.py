"""The benchmark's workloads: fixed CLI invocations and their goldens.

Each workload is the argv passed to ``shifted_symfun.cli.main``.  Why
these three:

* ``scan-sym`` solves the symbolic interpolation basis for every degree
  up to 6 over Q(r) (the linear solve and the UniPoly/RationalFunction
  kernel) and grades it through ``shifted_jack_J``/``conjecture_expand``.
  It is the only workload that uses the worker pool (2 workers).
* ``verify-sym`` replays all 15 checks symbolically at n=3 in one
  process: the operator and Jack eigen routes dominate, heavy in
  RationalFunction gcd, and the checks share the process caches.  It
  bypasses the solver and the pool.
* ``verify-rational`` runs the ten shift-parameterized checks with a
  rational shift, so every scalar is a Fraction: the polynomial and
  operator layers carry the work and the UniPoly/RationalFunction
  kernel is bypassed.

The workload seed matters only for ``verify-rational``: it picks the
shift from ``RATIONAL_SHIFTS`` (``seed % len``), a list of positive
rationals of height at most 4, all dominant for every n, which take
about the same time.  The two symbolic workloads have no random input;
their seed is recorded and otherwise ignored.  Seed 0, the default,
gives r = 1/2.

``goldens.json`` holds, for every argv a seed can produce, the exit
code and the sha256 of stdout taken from the package before any
optimisation; a run that does not reproduce both counts as failed.
"""

import json
import os

DEFAULT_SEED = 0

RATIONAL_SHIFTS = ("1/2", "2/3", "3/2", "3/4")

RATIONAL_CHECKS = ("vanishing,unitriangular,eigenvalue,commutativity,cutoff,"
                   "raising-stability,degree-bound,extra-vanishing,"
                   "ideal-stability,reduction")


def argv_for(workload, seed):
    """The CLI argv of ``workload`` under ``seed``."""
    if workload == "scan-sym":
        return ["scan", "--n", "4", "--dmax", "6", "--workers", "2",
                "--output", "json"]
    if workload == "verify-sym":
        return ["verify", "--check", "all", "--n", "3", "--dmax", "5",
                "--output", "json"]
    if workload == "verify-rational":
        r = RATIONAL_SHIFTS[seed % len(RATIONAL_SHIFTS)]
        return ["verify", "--check", RATIONAL_CHECKS, "--n", "3",
                "--dmax", "8", "--r", r, "--output", "json"]
    raise KeyError(workload)


WORKLOADS = ("scan-sym", "verify-sym", "verify-rational")


def tiny(argv):
    """The same command at n=2, dmax=2: the untimed priming run."""
    out = list(argv)
    for flag in ("--n", "--dmax"):
        if flag in out:
            out[out.index(flag) + 1] = "2"
    return out


def load_goldens():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "goldens.json")
    with open(path) as fh:
        return json.load(fh)


def golden_key(argv):
    return " ".join(argv)
