"""Run one CLI invocation in this fresh process and report on it.

Usage (from the repository root)::

    python3 perfbench/runner.py [--setup-only] [--trace-dir DIR] -- ARGV...

The import of ``shifted_symfun`` ends set-up.  Then ``cli.main(ARGV)``
runs with stdout captured in memory, and the runner prints one JSON line:
the perf_counter reading at the end of set-up, the time inside
``cli.main``, the exit code, the sha256 of the captured stdout, the CPU
time of this process and its pool workers, and the peak RSS of each.
With ``--trace-dir`` the package's functions are wrapped first and every
process of the run writes its spans into DIR.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import shifted_symfun  # noqa: E402  (set-up ends here)

SETUP_END = time.perf_counter()


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me, kids


def _cpu(usage):
    me, kids = usage
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv):
    setup_only = "--setup-only" in argv
    trace_dir = None
    if "--trace-dir" in argv:
        trace_dir = argv[argv.index("--trace-dir") + 1]
    cli_argv = argv[argv.index("--") + 1:] if "--" in argv else []
    if setup_only:
        print(json.dumps({"setup_end": SETUP_END}))
        return 0

    from shifted_symfun import cli

    tracer = None
    if trace_dir is not None:
        import layers
        from tracer import Tracer
        tracer = Tracer(trace_dir, run_id=os.path.basename(trace_dir))
        layers.install(tracer, shifted_symfun)

    buf = io.StringIO()
    before = _usage()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        span = tracer.begin("run") if tracer else None
        try:
            code = cli.main(cli_argv)
        except SystemExit as exc:       # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            if tracer:
                tracer.end(span)
    t1 = time.perf_counter()
    after = _usage()
    if tracer:
        tracer.flush()
    out = buf.getvalue().encode()
    print(json.dumps({
        "setup_end": SETUP_END,
        "wall_s": t1 - t0,
        "cpu_s": _cpu(after) - _cpu(before),
        "maxrss_kib": after[0].ru_maxrss,
        "children_maxrss_kib": after[1].ru_maxrss,
        "exit": code if code is not None else 0,
        "sha256": hashlib.sha256(out).hexdigest(),
        "stdout_bytes": len(out),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
