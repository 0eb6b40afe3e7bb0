"""Benchmark of the shifted_symfun command line.

Run from the repository root::

    python3 perfbench/run.py --workload scan-sym --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                       # every workload
    python3 perfbench/run.py --argv "compute --what P --n 4 --lambda 4,2,1"

Every CLI run happens in a fresh process (``runner.py``), because every
cache in the package lives for one process and users pay for filling it
on every run.  The loop is closed with one client: the next run starts
only after the previous one has exited.  One untimed priming run of the
same command at n=2, dmax=2 comes first, so that bytecode compilation
and a cold file cache stay out of the timings.

``--trace 0`` reports the end-to-end metrics, medians over the runs of
the loop: ``wall_s`` (time inside ``cli.main``), ``cpu_s`` (user+system
of the run process and its pool workers), ``peak_rss_mib`` (the larger
of the two peaks) and ``setup_s`` (spawn until ``import shifted_symfun``
returns; set-up is also probed on its own several times per run).  A
run fails on a nonzero runner exit, a timeout, or an exit code or stdout
digest that differs from the golden; failed runs are counted against
the runs attempted (``failed_share``) and their timings are dropped.

``--trace 1`` makes one untraced run and then traced runs, which wrap
the package's functions (``layers.py``) and report per-layer metrics;
``trace.overhead_ratio`` is traced wall time over untraced wall time.

``--argv`` runs any other CLI argv through the same runner, plain or
traced, without a golden: such a run counts as correct when it exits 0
and every run prints the same stdout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result document,
stamped with the environment, goes to ``.perfbench/results/``.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import layers  # noqa: E402
import workloads  # noqa: E402

RUN_TIMEOUT_S = 150
MIN_RUNS = 3            # timed runs per invocation, whatever --seconds says
MIN_TRACED_RUNS = 2     # so that call counts can be compared run to run
SETUP_PROBES = 10       # extra set-up-only spawns per invocation

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"))


# ---------------------------------------------------------------------------
# environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """HEAD of the git checkout rooted here, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "shifted_symfun",
                                              "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed):
    """Stamp for every result: results from different machines, sources
    or seeds must not be compared silently."""
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "commit": _commit(),
            "src_sha256": _source_digest(),
            "seed": seed}


# ---------------------------------------------------------------------------
# running the child

def _child_env():
    env = dict(os.environ)
    env.pop("SHIFTED_SYMFUN_WORKERS", None)   # the argv sets the workers
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # priming compiles the bytecode
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(extra, cli_argv=()):
    """Run runner.py once; return (report or None, pid, error or None)."""
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), *extra,
           "--", *cli_argv]
    t_spawn = time.perf_counter()
    # A session of its own, so that a timeout also kills the pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, proc.pid, "timeout"
    if proc.returncode != 0:
        return None, proc.pid, err.strip()[-2000:] or "runner failed"
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - t_spawn
    return report, proc.pid, None


class Loop:
    """Closed loop of runs of one argv, checking each against the golden."""

    def __init__(self, argv, golden):
        self.argv = argv
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.digests = set()

    def run(self, trace_dir=None):
        extra = ["--trace-dir", trace_dir] if trace_dir else []
        self.attempted += 1
        report, pid, error = spawn(extra, self.argv)
        if report is not None:
            self.digests.add(report["sha256"])
            want = self.golden or {"exit": 0}
            if report["exit"] != want["exit"]:
                error = f"exit {report['exit']}, golden {want['exit']}"
            elif self.golden and report["sha256"] != self.golden["sha256"]:
                error = "stdout differs from golden"
        if error is not None:
            self.failures.append(error)
            return None, pid
        return report, pid

    @property
    def failed(self):
        # Without a golden, runs that disagree with each other fail too.
        return len(self.failures) + (len(self.digests) - 1
                                     if not self.golden and self.digests
                                     else 0)


def prime(argv):
    """Untimed run of the same command at a tiny size."""
    spawn([], workloads.tiny(argv))


def _stats(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "min": values[0], "max": values[-1]}


def measure_plain(loop, seconds):
    setup = []
    for _ in range(SETUP_PROBES):
        report, _, error = spawn(["--setup-only"])
        if error is None:
            setup.append(report["setup_s"])
    samples = []
    t0 = time.perf_counter()
    while loop.attempted < MIN_RUNS or time.perf_counter() - t0 < seconds:
        report, _ = loop.run()
        if report is not None:
            samples.append(report)
            setup.append(report["setup_s"])
    if not samples:
        return None
    cols = {
        "wall_s": [s["wall_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mib": [max(s["maxrss_kib"], s["children_maxrss_kib"]) / 1024
                         for s in samples],
        "setup_s": setup,
    }
    return {name: _stats(values) for name, values in cols.items()}


def measure_traced(loop, seconds, label):
    report, _ = loop.run()
    if report is None:
        return None
    untraced_wall = report["wall_s"]
    runs = []
    trace_root = os.path.join(OUT, "trace", label)
    shutil.rmtree(trace_root, ignore_errors=True)
    t0 = time.perf_counter()
    k = 0
    while k < MIN_TRACED_RUNS or time.perf_counter() - t0 < seconds:
        k += 1
        trace_dir = os.path.join(trace_root, f"run{k}")
        os.makedirs(trace_dir)
        report, pid = loop.run(trace_dir)
        if report is not None:
            dumps = []
            for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
                with open(path) as fh:
                    dumps.append(json.load(fh))
            runs.append(layers.run_metrics(dumps, pid))
        if k > 1:   # keep the spans of the last run only
            shutil.rmtree(os.path.join(trace_root, f"run{k - 1}"))
    if not runs:
        return None
    medians, spread = layers.summarize(runs, untraced_wall)
    return {"metrics": medians, "count_spread": spread,
            "counts_identical": all(lo == hi for lo, hi in spread.values()),
            "traced_runs": len(runs), "untraced_wall_s": untraced_wall,
            "identity_error_s": max(abs(layers.identity_error(r))
                                    for r in runs)}


# ---------------------------------------------------------------------------
# reporting

def _fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_plain(label, result, loop):
    for name, unit in END_TO_END:
        st = result[name]
        print(f"{label} {name} median={_fmt(st['median'])} {unit} "
              f"q1={_fmt(st['q1'])} q3={_fmt(st['q3'])} n={st['n']}")
    print(f"{label} failed_share {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.3f}")


def print_traced(label, result, loop):
    for name, unit in layers.PER_LAYER:
        line = f"{label} {name} {_fmt(result['metrics'][name])} {unit}"
        lo_hi = result["count_spread"].get(name)
        if lo_hi and lo_hi[0] != lo_hi[1]:
            line += f" (spread {lo_hi[0]}..{lo_hi[1]})"
        print(line)
    print(f"{label} traced_runs={result['traced_runs']} "
          f"counts_identical={result['counts_identical']} "
          f"identity_error_s={result['identity_error_s']:.2e}")
    print(f"{label} failed_share {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.3f}")


def write_document(doc):
    name = (f"{doc['label']}-seed{doc['env']['seed']}-trace{doc['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    path = os.path.join(OUT, "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def bench_one(label, argv, golden, seconds, trace, stamp):
    """Measure one argv; return the loop, the metrics for the JSON line
    and the result document."""
    loop = Loop(argv, golden)
    prime(argv)
    if trace:
        result = measure_traced(loop, seconds, label)
        units = dict(layers.PER_LAYER)
        metrics = {} if result is None else {
            name: {"value": result["metrics"][name], "unit": units[name]}
            for name, _ in layers.PER_LAYER}
    else:
        result = measure_plain(loop, seconds)
        metrics = {} if result is None else {
            name: {"value": result[name]["median"], "unit": unit}
            for name, unit in END_TO_END}
    if result is not None:
        (print_traced if trace else print_plain)(label, result, loop)
    for error in loop.failures:
        print(f"{label} failed run: {error}", file=sys.stderr)
    doc = {"env": stamp, "label": label, "argv": argv, "trace": trace,
           "seconds": seconds, "attempted": loop.attempted,
           "failed": loop.failed, "failed_share": loop.failed / loop.attempted,
           "failures": loop.failures, "result": result}
    print(f"{label} result document: {write_document(doc)}")
    return loop, metrics, doc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None,
                   help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    p.add_argument("--argv", default=None,
                   help="ad-hoc: any CLI argv, run without a golden")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if (args.workload is None) == (args.argv is None):
        p.error("give exactly one of --workload and --argv")
    if not os.path.isfile(os.path.join(ROOT, "src", "shifted_symfun",
                                       "__init__.py")):
        print("error: run from a checkout that has src/shifted_symfun",
              file=sys.stderr)
        return 2

    if args.argv is not None:
        jobs = [("adhoc", shlex.split(args.argv), None)]
    else:
        names = (workloads.WORKLOADS if args.workload == "all"
                 else [args.workload])
        unknown = [n for n in names if n not in workloads.WORKLOADS]
        if unknown:
            p.error(f"unknown workload {unknown[0]!r}")
        goldens = workloads.load_goldens()
        jobs = []
        for name in names:
            cli_argv = workloads.argv_for(name, args.seed)
            golden = goldens.get(workloads.golden_key(cli_argv))
            if golden is None:
                print(f"error: no golden for {cli_argv}", file=sys.stderr)
                return 2
            jobs.append((name, cli_argv, golden))

    stamp = environment(args.seed)
    print("env " + json.dumps(stamp))
    attempted = failed = 0
    metrics = {}
    for label, cli_argv, golden in jobs:
        loop, got, _ = bench_one(label, cli_argv, golden, args.seconds,
                                 args.trace, stamp)
        attempted += loop.attempted
        failed += loop.failed
        if len(jobs) == 1:
            metrics = got
        else:
            metrics.update({f"{label}.{k}": v for k, v in got.items()})
    if not metrics:
        print("error: no run succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
