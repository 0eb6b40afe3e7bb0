import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shifted_symfun import checks, cli
from shifted_symfun import jack as jack_module
from shifted_symfun.interpolation import ShiftVector
from shifted_symfun.partitions import enumerate_upto
from shifted_symfun.scalars import RationalFunction


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_interpolation_golden(capsys):
    code, out, _ = run(capsys, ["compute", "--what", "P", "--lambda", "1",
                                "--n", "2", "--r", "1/2"])
    assert code == 0
    assert out.strip() == "m[1,0] - 1/2 m[]"


def test_compute_jack_golden(capsys):
    code, out, _ = run(capsys, ["compute", "--what", "jackP", "--lambda", "2",
                                "--n", "2", "--symbolic"])
    assert code == 0
    assert out.strip() == "m[2,0] + (2/(α+1)) m[1,1]"


def test_non_dominant_shift_refused(capsys):
    code, out, err = run(capsys, ["compute", "--what", "P", "--lambda", "1",
                                  "--n", "3", "--r", "-1/2"])
    assert code == 2
    assert "-1/2" in err and "1" in err and "2" in err
    assert out == ""


def test_dominant_negative_shift_accepted(capsys):
    # r = -1/3 has denominator 3 > n - 1, so no node differences collide
    code, out, _ = run(capsys, ["compute", "--what", "P", "--lambda", "1",
                                "--n", "3", "--r", "-1/3"])
    assert code == 0 and out.strip()


def test_compute_whats(capsys):
    cases = [
        (["--what", "P1k", "--lambda", "1,1", "--n", "2", "--symbolic"],
         "m[1,1]"),
        (["--what", "jackJ", "--lambda", "2", "--n", "2", "--symbolic"],
         "(α+1) m[2,0] + 2 m[1,1]"),
        (["--what", "shiftedJ", "--lambda", "1", "--n", "2", "--symbolic"],
         "m[1,0] + (1/α) m[]"),
    ]
    for argv, want in cases:
        code, out, err = run(capsys, ["compute"] + argv)
        assert code == 0, err
        assert out.strip() == want


def test_compute_json_document(capsys):
    code, out, _ = run(capsys, ["compute", "--what", "jackP", "--lambda", "2",
                                "--n", "2", "--symbolic", "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "compute"
    assert doc["lambda"] == [2, 0]
    assert doc["param"] == "alpha"
    assert doc["result"]["basis"] == "m"
    assert doc["result"]["terms"] == [
        {"key": [2, 0], "coeff": "1"},
        {"key": [1, 1], "coeff": [["2"], ["1", "1"]]},
    ]


def test_compute_rational_alpha_bridge(capsys):
    # r = 2 means alpha = 1/2: coefficient 2/(alpha+1) becomes 4/3
    code, out, _ = run(capsys, ["compute", "--what", "jackP", "--lambda", "2",
                                "--n", "2", "--r", "2"])
    assert code == 0
    assert out.strip() == "m[2,0] + 4/3 m[1,1]"


def test_compute_config_errors(capsys):
    bad = [
        ["compute", "--what", "P", "--lambda", "1,2", "--n", "2", "--symbolic"],
        ["compute", "--what", "P", "--lambda", "1,1,1", "--n", "2",
         "--symbolic"],
        ["compute", "--what", "P", "--lambda", "1", "--n", "0", "--symbolic"],
        ["compute", "--what", "P1k", "--lambda", "2", "--n", "2",
         "--symbolic"],
        ["compute", "--what", "one-row", "--lambda", "1,1", "--n", "2",
         "--symbolic"],
        ["compute", "--what", "factorial-schur", "--lambda", "1", "--n", "2",
         "--r", "2"],
        ["compute", "--what", "jackP", "--lambda", "1", "--n", "2",
         "--r", "0"],
        ["compute", "--what", "P", "--lambda", "1", "--n", "2",
         "--r", "1/2", "--symbolic"],
        ["compute", "--what", "P", "--lambda", "1", "--n", "2", "--r", "x"],
    ]
    for argv in bad:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")


def test_one_row_vanishing_normalizer_refused(capsys):
    # r = -2 is dominant at n = 1, but binom(2, 3) = 0 kills the closed
    # form's normalizer; the solver route still answers
    code, out, _ = run(capsys, ["compute", "--what", "P", "--lambda", "3",
                                "--n", "1", "--r", "-2"])
    assert code == 0
    assert out.strip() == "m[3] - 3 m[2] + 2 m[1]"
    code, out, err = run(capsys, ["compute", "--what", "one-row",
                                  "--lambda", "3", "--n", "1", "--r", "-2"])
    assert code == 2
    assert err.startswith("error:") and "binom(-r, 3)" in err
    assert out == ""


def test_verify_examples(capsys):
    code, out, _ = run(capsys, ["verify", "--check", "eigenvalue",
                                "--n", "2", "--dmax", "4", "--symbolic"])
    assert code == 0
    assert "check=eigenvalue status=pass" in out
    code, out, _ = run(capsys, ["verify", "--check", "extra-vanishing",
                                "--n", "3", "--dmax", "4", "--r", "2/3"])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "--check", "pieri",
                                "--n", "2", "--dmax", "3"])
    assert code == 0


def test_verify_json_and_multiple_checks(capsys):
    code, out, _ = run(capsys, ["verify", "--check", "vanishing,cutoff",
                                "--n", "2", "--dmax", "3",
                                "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["status"] == "pass"
    assert [r["check"] for r in doc["reports"]] == ["vanishing", "cutoff"]


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, ["verify", "--check", "bogus",
                                "--n", "2", "--dmax", "2"])
    assert code == 2
    assert "bogus" in err


def test_verify_unknown_check_next_to_all(capsys):
    # unknown names are looked for before "all" expands to every check
    code, out, err = run(capsys, ["verify", "--check", "all,bogus",
                                  "--n", "1", "--dmax", "0"])
    assert code == 2
    assert out == ""
    assert "unknown checks ['bogus']" in err


def test_compute_oversized_input_refused_up_front(capsys):
    for argv in (["--n", "2", "--lambda", "99999999999999999999999"],
                 ["--n", "2", "--lambda", "15"],
                 ["--n", str(cli.MAX_COMPUTE_N + 1), "--lambda", "1"],
                 ["--n", "10000000000000", "--lambda", "1"]):
        start = time.perf_counter()
        code, out, err = run(capsys, ["compute", "--what", "P"] + argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert "refusing to run" in err
    # the largest admitted degree in two variables has 64 nodes
    assert len(enumerate_upto(2, 14)) == cli.MAX_COMPUTE_NODES


def test_scan_and_verify_oversized_n_refused_up_front(capsys):
    for argv in (["scan", "--n", "3000", "--dmax", "0"],
                 ["verify", "--check", "vanishing", "--n", "3000",
                  "--dmax", "0"],
                 ["verify", "--check", "cutoff", "--n", "9", "--dmax", "0"],
                 ["scan", "--n", str(cli.MAX_COMPUTE_N + 1), "--dmax", "0"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert "refusing to run" in err


def test_scan_oversized_basis_refused_up_front(capsys, monkeypatch):
    # scan solves the degree-dmax basis; it takes the node bound of compute
    solved = []
    monkeypatch.setattr(cli, "interpolation_basis",
                        lambda n, d, rho: solved.append((n, d)))
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, tasks, workers: [])
    admitted = ((2, 14), (4, 6), (5, 8))  # 64, 27 and 60 nodes
    assert [len(enumerate_upto(n, d)) for n, d in admitted] == [
        cli.MAX_COMPUTE_NODES, 27, 60]
    for n, dmax in admitted:
        code, _, err = run(capsys, ["scan", "--n", str(n),
                                    "--dmax", str(dmax)])
        assert code == 0, err
    assert solved == list(admitted)
    for n, dmax in ((2, 15), (5, 9), (6, 20), (1, 10 ** 9)):
        start = time.perf_counter()
        code, out, err = run(capsys, ["scan", "--n", str(n),
                                      "--dmax", str(dmax)])
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert "refusing to run" in err
    assert len(solved) == len(admitted)


def test_verify_alpha_check_rejects_r(capsys):
    code, _, err = run(capsys, ["verify", "--check", "pieri",
                                "--n", "2", "--dmax", "2", "--r", "1/2"])
    assert code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    def broken(n, dmax, r=None):
        return {"schema": 1, "check": "vanishing", "params": {"n": n},
                "status": "fail", "witness": {"kind": "synthetic"}}

    monkeypatch.setitem(cli.CHECKS, "vanishing", (broken, True))
    code, out, _ = run(capsys, ["verify", "--check", "vanishing",
                                "--n", "2", "--dmax", "2"])
    assert code == 1
    assert "witness" in out and "synthetic" in out


def brute_count(n, dmax):
    def parts(rem, maxpart, slots):
        if rem == 0:
            return 1
        if slots == 0:
            return 0
        return sum(parts(rem - p, p, slots - 1)
                   for p in range(min(rem, maxpart), 0, -1))
    return sum(parts(d, d if d else 1, n) for d in range(dmax + 1))


def test_scan_document_and_count(capsys):
    code, out, _ = run(capsys, ["scan", "--n", "2", "--dmax", "3",
                                "--output", "json"])
    assert code == 0
    lines = out.strip().split("\n")
    reports, summary = lines[:-1], json.loads(lines[-1])
    assert len(reports) == brute_count(2, 3) == 6
    assert summary["schema"] == 1 and summary["reports"] == 6
    assert summary["pass"] == 6 and summary["fail"] == 0
    first = json.loads(reports[0])
    assert first["lambda"] == [0, 0] and first["verdict"] == "pass"
    for line in reports:
        doc = json.loads(line)
        assert set(doc) == {"schema", "lambda", "n", "rows",
                            "dominance_ok", "verdict"}
        for row in doc["rows"]:
            assert set(row) == {"mu", "a", "polynomial", "integral", "nonneg"}


def test_scan_worker_determinism(capsys):
    _, out1, _ = run(capsys, ["scan", "--n", "2", "--dmax", "3",
                              "--output", "json", "--workers", "1"])
    _, out2, _ = run(capsys, ["scan", "--n", "2", "--dmax", "3",
                              "--output", "json", "--workers", "3"])
    assert out1 == out2


def test_scan_solves_every_basis_before_the_pool(capsys, monkeypatch):
    from shifted_symfun import interpolation
    rho = ShiftVector.staircase_multiple(3)
    seen = []
    real = cli._run_tasks

    def wrapped(fn, tasks, requested):
        seen.extend(lam for lam in enumerate_upto(3, 4) if (rho.key(), lam)
                    in interpolation._BASIS_CACHE)
        return real(fn, tasks, requested)

    monkeypatch.setattr(cli, "_run_tasks", wrapped)
    cache = interpolation._BASIS_CACHE
    saved = dict(cache)
    cache.clear()
    try:
        code, _, _ = run(capsys, ["scan", "--n", "3", "--dmax", "4",
                                  "--workers", "1", "--output", "json"])
    finally:
        cache.clear()
        cache.update(saved)
    assert code == 0 and seen == enumerate_upto(3, 4)


def test_symbolic_checks_reuse_the_bases_scan_solved(capsys):
    # scan's pre-solve, jack_P and the symbolic checks build the symbolic
    # staircase separately; all of them must land on one entry per
    # partition
    from shifted_symfun import interpolation
    cache = interpolation._BASIS_CACHE
    saved = dict(cache)
    cache.clear()
    try:
        code, _, _ = run(capsys, ["scan", "--n", "3", "--dmax", "4",
                                  "--workers", "1", "--output", "json"])
        solved = set(cache)
        assert checks.check_vanishing(3, 4)["status"] == "pass"
        jack_module.jack_P((2, 1, 1), 3)
        assert set(cache) == solved
    finally:
        cache.clear()
        cache.update(saved)
    key = ShiftVector.staircase_multiple(3).key()
    assert code == 0 and solved == {(key, lam) for lam in enumerate_upto(3, 4)}


class FakePool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    maps in this process, so no worker process is started."""

    sizes = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_worker_count_is_capped(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(FakePool, "sizes", [])
    argv = ["scan", "--n", "2", "--dmax", "2", "--output", "json"]
    _, out_one, _ = run(capsys, argv + ["--workers", "1"])
    assert FakePool.sizes == []
    _, out_many, _ = run(capsys, argv + ["--workers", "64"])
    assert FakePool.sizes == [2]
    assert out_many == out_one
    # one task never needs a pool; two tasks cap the request at two
    verify = ["verify", "--n", "2", "--dmax", "1", "--workers", "64"]
    run(capsys, verify + ["--check", "vanishing"])
    assert FakePool.sizes == [2]
    run(capsys, verify + ["--check", "vanishing,eigenvalue"])
    assert FakePool.sizes == [2, 2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run(capsys, argv + ["--workers", "64"])
    assert FakePool.sizes == [2, 2]


@pytest.mark.parametrize("value", ["0", "-5", "1"])
def test_compute_takes_no_workers(capsys, value):
    # compute forms one polynomial in-process; verify and scan refuse
    # 0 and -5 through the worker count, compute through the parser
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--what", "P", "--n", "2", "--lambda", "1",
                  "--workers", value])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    for command in (["verify", "--check", "vanishing"], ["scan"]):
        code, _, _ = run(capsys, command + ["--n", "2", "--dmax", "1",
                                              "--workers", value])
        assert code == (0 if value == "1" else 2), (command, value)


def test_scan_workers_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SHIFTED_SYMFUN_WORKERS", "2")
    _, out_env, _ = run(capsys, ["scan", "--n", "2", "--dmax", "2",
                                 "--output", "json"])
    monkeypatch.setenv("SHIFTED_SYMFUN_WORKERS", "1")
    _, out_one, _ = run(capsys, ["scan", "--n", "2", "--dmax", "2",
                                 "--output", "json"])
    assert out_env == out_one
    monkeypatch.setenv("SHIFTED_SYMFUN_WORKERS", "zero")
    code, _, err = run(capsys, ["scan", "--n", "2", "--dmax", "2"])
    assert code == 2 and "SHIFTED_SYMFUN_WORKERS" in err


def test_scan_rejects_rational_parameter(capsys):
    code, _, err = run(capsys, ["scan", "--n", "2", "--dmax", "2",
                                "--r", "1/2"])
    assert code == 2
    assert "symbolically" in err


def test_scan_fault_injection_strict(capsys, monkeypatch):
    real = jack_module.shifted_jack_J
    alpha = RationalFunction.gen("alpha")

    def corrupted(lam, n):
        return real(lam, n) * (1 / (alpha + 1))

    monkeypatch.setattr(jack_module, "shifted_jack_J", corrupted)
    code, out, _ = run(capsys, ["scan", "--n", "2", "--dmax", "2",
                                "--strict", "--workers", "1",
                                "--output", "json"])
    assert code == 1
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["fail"] > 0 and summary["status"] == "fail"
    # without --strict the same corruption still reports but exits 0
    code, _, _ = run(capsys, ["scan", "--n", "2", "--dmax", "2",
                              "--workers", "1", "--output", "json"])
    assert code == 0


def test_scan_text_output(capsys):
    code, out, _ = run(capsys, ["scan", "--n", "2", "--dmax", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda=[0, 0] verdict=pass rows=1"
    assert lines[-1] == "scanned 4 partitions: 4 pass, 0 fail"


# Each option's values as (well formed, malformed).  Sizes stay small
# (n <= 3, dmax <= 2, parts <= 4) so every accepted run finishes quickly;
# the one huge partition is refused up front by compute's size bound.
# ``--check all`` is left out: it takes about half a second at n = 3.
FUZZ_VALUES = {
    "--n": (["1", "2", "3"], ["0", "-1", "x", "1.5"]),
    "--dmax": (["0", "1", "2"], ["-1", "x"]),
    "--lambda": (["2,1", "1", "3", "1,,1", "[1,1]",
                  "99999999999999999999999"], ["-1", "a", "1,2", ""]),
    "--r": (["1/2", "-1", "0", "-1/2", "2"], ["1/0", "x"]),
    "--what": (["P", "P1k", "factorial-schur", "one-row", "jackP", "jackJ",
                "shiftedJ"], ["bogus"]),
    "--check": (["vanishing", "cutoff,eigenvalue", "lift,pieri"],
                ["bogus", "", "all,bogus"]),
    "--output": (["text", "json"], ["xml"]),
    "--workers": (["1"], ["0", "x"]),
}
FUZZ_FLAGS = ["--symbolic", "--strict"]
NEEDED = {"compute": ["--n", "--what", "--lambda"],
          "verify": ["--n", "--dmax", "--check"],
          "scan": ["--n", "--dmax"]}
OPTIONAL = ["--r", "--symbolic", "--output"]
COMMAND_OPTIONAL = {"compute": [], "verify": ["--workers"],
                    "scan": ["--workers", "--strict"]}


@st.composite
def cli_argv(draw):
    """A well-formed command line with up to two faults injected."""
    command = draw(st.sampled_from(sorted(NEEDED)))
    optional = OPTIONAL + COMMAND_OPTIONAL[command]
    names = NEEDED[command] + [n for n in optional if draw(st.booleans())]
    opts = {name: draw(st.sampled_from(FUZZ_VALUES[name][0]))
            if name in FUZZ_VALUES else None for name in names}
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["malformed", "drop", "stray",
                                      "command"]))
        if fault == "malformed":
            name = draw(st.sampled_from(sorted(FUZZ_VALUES)))
            opts[name] = draw(st.sampled_from(FUZZ_VALUES[name][1]))
        elif fault == "drop":
            opts.pop(draw(st.sampled_from(sorted(opts))))
        elif fault == "stray":
            name = draw(st.sampled_from(sorted(FUZZ_VALUES) + FUZZ_FLAGS))
            opts[name] = (draw(st.sampled_from(FUZZ_VALUES[name][0]))
                          if name in FUZZ_VALUES else None)
        else:
            command = "bogus"
    argv = [command]
    for name, value in opts.items():
        argv += [name] if value is None else [name, value]
    return argv


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_cli_fuzz_exit_codes(monkeypatch, argv):
    monkeypatch.delenv("SHIFTED_SYMFUN_WORKERS", raising=False)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses malformed argv
            code = exc.code
    assert code in (0, 1, 2), argv
