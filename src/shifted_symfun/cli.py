"""Command-line front end.

Three subcommands:

* ``compute`` prints one polynomial in the monomial basis,
* ``verify`` replays named structural checks and reports pass/fail,
* ``scan`` expands the inhomogeneous integral form for every partition
  up to a degree bound and grades the coefficients.

Exit codes: 0 success, 1 verification failure, 2 configuration problem
(including a rational shift parameter that fails the dominance test).
Output is deterministic for a given configuration regardless of the
worker count; JSON documents carry ``"schema": 1``.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .checks import CHECKS, _r_label, run_check
from .interpolation import (NonDominantError, ShiftVector, column_forms,
                            factorial_schur, interpolation_basis,
                            interpolation_polynomial, single_row)
from .jack import conjecture_expand, jack_J, jack_P, shifted_jack_J
from .partitions import enumerate_exact, is_partition
from .scalars import PoleError, RationalFunction, substitute

GREEK = {"alpha": "α"}
# every subcommand refuses more variables, and compute larger
# partitions, up front (exit 2); see the README
MAX_COMPUTE_N = 6
MAX_COMPUTE_NODES = 64
JACK_SIDE = ("jackP", "jackJ", "shiftedJ")


class ConfigError(Exception):
    """Bad run configuration; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# rendering

def _frac_text(f):
    return str(f) if f.denominator == 1 else f"({f})"


def _poly_text(p):
    """Compact text for a univariate polynomial, highest power first."""
    var = GREEK.get(p.var, p.var)
    if p.degree() < 0:
        return "0"
    out = ""
    for k in range(p.degree(), -1, -1):
        c = p.coefficient(k)
        if not c:
            continue
        neg = c < 0
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            vp = var if k == 1 else f"{var}^{k}"
            body = vp if mag == 1 else f"{_frac_text(mag)}{vp}"
        out += ("-" if neg else ("+" if out else "")) + body
    return out


def _term_count(p):
    return sum(1 for c in p.coeffs if c)


def _scalar_text(c):
    if isinstance(c, RationalFunction):
        if c.is_constant():
            return _scalar_text(c.constant_value())
        ns = _poly_text(c.num)
        if c.den.is_constant():
            return ns
        if _term_count(c.num) > 1:
            ns = f"({ns})"
        ds = _poly_text(c.den)
        bare_power = (_term_count(c.den) == 1
                      and c.den.coefficient(c.den.degree()) == 1)
        if not bare_power:
            ds = f"({ds})"
        return f"{ns}/{ds}"
    return str(Fraction(c))


def _key_text(key):
    if not any(key):
        return "m[]"
    return "m[" + ",".join(str(k) for k in key) + "]"


def poly_text(sym):
    """Monomial-basis text like ``m[2,0] + (2/(α+1)) m[1,1]``."""
    pieces = []
    for key in sym.partitions():
        c = sym.terms[key]
        if isinstance(c, RationalFunction) and not c.is_constant():
            sign, prefix = 1, f"({_scalar_text(c)}) "
        else:
            f = c.constant_value() if isinstance(c, RationalFunction) else Fraction(c)
            sign = -1 if f < 0 else 1
            mag = abs(f)
            prefix = "" if mag == 1 else f"{mag} "
        term = prefix + _key_text(key)
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + term)
        else:
            pieces.append((" - " if sign < 0 else " + ") + term)
    return "".join(pieces) if pieces else "0"


def _scalar_json(c):
    """Rationals as "p/q" strings; rational functions as a coefficient
    pair [[numerator], [denominator]], constant term first."""
    if isinstance(c, RationalFunction):
        if c.is_constant():
            return _scalar_json(c.constant_value())
        return [[str(x) for x in c.num.coeffs],
                [str(x) for x in c.den.coeffs]]
    return str(Fraction(c))


def poly_json(sym):
    return {"n": sym.n, "basis": "m",
            "terms": [{"key": list(key), "coeff": _scalar_json(sym.terms[key])}
                      for key in sym.partitions()]}


# ---------------------------------------------------------------------------
# configuration

def _parse_partition(text, n):
    cleaned = text.strip().strip("[]")
    try:
        parts = [int(tok) for tok in cleaned.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse partition {text!r}") from None
    if not is_partition(parts):
        raise ConfigError(f"{parts} is not a partition "
                          "(weakly decreasing, nonnegative)")
    nonzero = sum(1 for p in parts if p)
    if nonzero > n:
        raise ConfigError(f"partition {parts} has {nonzero} nonzero parts "
                          f"but n = {n}")
    parts = [p for p in parts if p]
    return tuple(parts) + (0,) * (n - len(parts))


def _parse_r(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse rational {text!r}; use p/q") from None


def _resolve_parameter(args):
    """The shift: None for the symbolic one, else a dominant Fraction."""
    if args.symbolic and args.r is not None:
        raise ConfigError("--symbolic and --r are mutually exclusive")
    if args.r is None:
        return None
    r = _parse_r(args.r)
    rho = ShiftVector.staircase_multiple(args.n, r)
    if not rho.is_dominant():
        p, q = rho.offending_ratio()
        raise ConfigError(
            f"r = {r} is not dominant for n = {args.n}: "
            f"r = -{p}/{q} with 1 <= {q} <= n - 1, so interpolation "
            "nodes collide; refusing to run")
    return r


def _check_bounds(args, need_dmax=False):
    """Refuse n and dmax out of range before any work.  No orbit is
    listed to evaluate it, but above MAX_COMPUTE_N = 6 the image kernel's
    pairing, the orbit expansions of to_sparse and the Sekiguchi-Debiard
    images (up to n! keys) and the partition counts grow: the bound stays."""
    if args.n < 1:
        raise ConfigError(f"n must be >= 1, got {args.n}")
    if args.n > MAX_COMPUTE_N:
        raise ConfigError(f"n = {args.n} is above the bound "
                          f"{MAX_COMPUTE_N}; refusing to run")
    if need_dmax and args.dmax < 0:
        raise ConfigError(f"dmax must be >= 0, got {args.dmax}")


def _resolve_workers(value):
    if value is None:
        raw = os.environ.get("SHIFTED_SYMFUN_WORKERS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"SHIFTED_SYMFUN_WORKERS={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigError(f"workers must be >= 1, got {value}")
    return value


def _run_tasks(fn, tasks, requested):
    """[fn(t) for t in tasks], on a process pool when more than one
    worker is left after capping the request at the task count and at
    the number of CPUs."""
    workers = min(requested, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _substitute_alpha(sym, value):
    try:
        return sym.map_coeffs(lambda c: substitute(c, value))
    except PoleError:
        raise ConfigError(
            f"alpha = {value} is a pole of a coefficient") from None


# ---------------------------------------------------------------------------
# compute

def _require_nodes(n, d, what):
    """Refuse up front a degree-d solve in n variables that needs more
    than MAX_COMPUTE_NODES interpolation nodes (every partition of degree
    <= d with at most n parts)."""
    nodes = 0
    for e in range(d + 1):
        nodes += len(enumerate_exact(n, e))
        if nodes > MAX_COMPUTE_NODES:
            raise ConfigError(
                f"{what} = {d} needs more than {MAX_COMPUTE_NODES} "
                f"interpolation nodes in n = {n} variables; refusing to run")


def _compute_partition(args):
    """The --lambda partition, refused up front when the degree-|lambda|
    solve would have too many interpolation nodes."""
    lam = _parse_partition(args.lam, args.n)
    _require_nodes(args.n, sum(lam), "|lambda|")
    return lam


def cmd_compute(args):
    _check_bounds(args)
    n = args.n
    if args.lam is None:
        raise ConfigError("compute needs --lambda")
    lam = _compute_partition(args)
    r = _resolve_parameter(args)
    what = args.what
    param = None

    if what in JACK_SIDE:
        if r is not None and r == 0:
            raise ConfigError("jack-side commands need r != 0 "
                              "(the parameter bridge is alpha = 1/r)")
        sym = {"jackP": jack_P, "jackJ": jack_J,
               "shiftedJ": shifted_jack_J}[what](lam, n)
        if r is not None:
            sym = _substitute_alpha(sym, 1 / r)
        else:
            param = "alpha"
    elif what == "factorial-schur":
        if r is not None and r != 1:
            raise ConfigError("factorial-schur is the r = 1 special form; "
                              "drop --r or pass --r 1")
        sym = factorial_schur(lam, n)
    else:
        rho = ShiftVector.staircase_multiple(n, r)
        param = "r" if r is None else None
        if what == "P":
            sym = interpolation_polynomial(lam, rho)
        elif what == "P1k":
            k = sum(lam)
            if k == 0 or lam != (1,) * k + (0,) * (n - k):
                raise ConfigError("P1k needs a nonempty one-column "
                                  "partition 1,1,...")
            first, second = column_forms(k, rho)
            if first != second:
                raise AssertionError("one-column closed forms disagree")
            sym = first
        elif what == "one-row":
            if any(lam[1:]):
                raise ConfigError("one-row needs a single-row partition")
            if lam[0] == 0:
                raise ConfigError("one-row needs a nonempty row")
            try:
                sym = single_row(lam[0], rho.r, n)
            except ValueError as exc:  # the closed form's normalizer is 0
                raise ConfigError(f"one-row closed form: {exc}") from None
        else:
            raise ConfigError(f"unknown --what {what!r}")

    if args.output == "json":
        doc = {"schema": 1, "command": "compute", "what": what,
               "n": n, "lambda": list(lam),
               "r": _r_label(r),
               "param": param, "result": poly_json(sym)}
        print(json.dumps(doc))
    else:
        print(poly_text(sym))
    return 0


# ---------------------------------------------------------------------------
# verify

def _verify_one(task):
    name, n, dmax, r = task
    return run_check(name, n, dmax, r=r)


def cmd_verify(args):
    _check_bounds(args, need_dmax=True)
    names = []
    for entry in args.check or []:
        for name in entry.split(","):
            name = name.strip()
            if name:
                names.append(name)
    if not names:
        raise ConfigError("verify needs --check NAME (or --check all)")
    unknown = [name for name in names if name != "all" and name not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; "
                          f"available: {', '.join(CHECKS)}")
    if "all" in names:
        names = list(CHECKS)
    r = _resolve_parameter(args)
    for name in names:
        if not CHECKS[name][1] and r is not None:
            raise ConfigError(f"check {name!r} has its own parameter "
                              "handling and does not take --r")
    workers = _resolve_workers(args.workers)
    tasks = [(name, args.n, args.dmax, r) for name in names]
    reports = _run_tasks(_verify_one, tasks, workers)
    failed = [rep for rep in reports if rep["status"] != "pass"]
    if args.output == "json":
        doc = {"schema": 1, "command": "verify", "reports": reports,
               "status": "fail" if failed else "pass"}
        print(json.dumps(doc))
    else:
        for rep in reports:
            line = f"check={rep['check']} status={rep['status']}"
            if rep["witness"] is not None:
                line += f" witness={json.dumps(rep['witness'])}"
            print(line)
        print(f"ran {len(reports)} checks: "
              f"{len(reports) - len(failed)} pass, {len(failed)} fail")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# scan

def _scan_one(task):
    n, lam = task
    return conjecture_expand(lam, n).as_dict()


def cmd_scan(args):
    _check_bounds(args, need_dmax=True)
    if args.r is not None:
        raise ConfigError("scan runs symbolically; drop --r")
    _require_nodes(args.n, args.dmax, "dmax")
    workers = _resolve_workers(args.workers)
    tasks = [(args.n, lam)
             for d in range(args.dmax + 1)
             for lam in enumerate_exact(args.n, d)]
    # every basis is solved here, once: forked workers inherit the cache
    # and only grade
    interpolation_basis(args.n, args.dmax,
                        ShiftVector.staircase_multiple(args.n))
    reports = _run_tasks(_scan_one, tasks, workers)
    npass = sum(1 for rep in reports if rep["verdict"] == "pass")
    nfail = len(reports) - npass
    if args.output == "json":
        for rep in reports:
            print(json.dumps(rep))
        print(json.dumps({"schema": 1, "command": "scan", "n": args.n,
                          "dmax": args.dmax, "reports": len(reports),
                          "pass": npass, "fail": nfail,
                          "status": "fail" if nfail else "pass"}))
    else:
        for rep in reports:
            print(f"lambda={json.dumps(rep['lambda'])} "
                  f"verdict={rep['verdict']} rows={len(rep['rows'])}")
        print(f"scanned {len(reports)} partitions: "
              f"{npass} pass, {nfail} fail")
    if nfail and args.strict:
        return 1
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="shifted-symfun",
        description="Interpolation symmetric polynomials, their operator "
                    "calculus, and Jack positivity scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, batch=False):
        """The shared options; a batch command (verify, scan) also takes
        a degree bound and a worker count."""
        p.add_argument("--n", type=int, required=True,
                       help="number of variables (>= 1)")
        p.add_argument("--r", default=None,
                       help="rational shift parameter, p/q")
        p.add_argument("--symbolic", action="store_true",
                       help="keep the parameter symbolic (default)")
        p.add_argument("--output", choices=("json", "text"), default="text")
        if batch:
            p.add_argument("--dmax", type=int, required=True,
                           help="degree bound")
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes "
                                "(default: $SHIFTED_SYMFUN_WORKERS or 1)")

    pc = sub.add_parser("compute", help="print one polynomial")
    pc.add_argument("--what", required=True,
                    choices=("P", "P1k", "factorial-schur", "one-row",
                             "jackP", "jackJ", "shiftedJ"))
    pc.add_argument("--lambda", dest="lam", default=None,
                    help="partition, e.g. 2,1")
    common(pc)

    pv = sub.add_parser("verify", help="replay structural checks")
    pv.add_argument("--check", action="append", default=None,
                    help="check name, repeatable; 'all' runs everything")
    common(pv, batch=True)

    ps = sub.add_parser("scan", help="grade integral-form coefficients")
    ps.add_argument("--strict", action="store_true",
                    help="exit 1 if any report fails")
    common(ps, batch=True)

    return parser


def _glue_negative_values(argv):
    """Join ``--r -1/2`` into ``--r=-1/2`` so argparse does not read the
    value as an option string."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--r", "--lambda") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_negative_values(list(argv)))
    handler = {"compute": cmd_compute, "verify": cmd_verify,
               "scan": cmd_scan}[args.command]
    try:
        return handler(args)
    except (ConfigError, NonDominantError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
