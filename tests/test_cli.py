import csv
import json
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from entlink import cli, satlink


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "entlink.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture
def run(capsys):
    """`cli.main` in this process; returns what `run_cli` returns, with the
    code of an argparse exit as the exit code.  Only the tests of the
    process itself (version, exit codes) pay for a spawn."""
    def call(args):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)
    return call


def test_version():
    r = run_cli(["--version"])
    assert r.returncode == 0
    assert r.stdout.strip() == "1.0.0"


def test_no_command_prints_help(run):
    r = run([])
    assert r.returncode == 2


def test_elem_steady_csv_matches_library(run):
    r = run(["elem", "steady", "--p", "0.5", "--m-star", "2",
             "--f", "1,0.9,0.8"])
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(r.stdout.splitlines()))
    by_ts = {row["t_star"]: row for row in rows}
    assert float(by_ts["2"]["ftilde"]) == 0.675
    assert float(by_ts["2"]["x"]) == 0.75
    assert float(by_ts["0"]["f"]) == 1.0


def test_twolink_analytic_json(run):
    r = run(["--format", "json", "twolink", "analytic",
             "--p", "0.5", "--q", "0.5", "--t-star", "0"])
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["meta"]["version"] == "1.0.0"
    assert payload["data"][0]["expected_waiting"] == 8.0


def test_satlink_link_values(run):
    r = run(["satlink", "link", "--d", "2000", "--h", "500", "--fs", "1"])
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert abs(float(rows[0]["path_length_km"]) - 1151.602) < 0.05
    assert rows[0]["entangled"] == "true"


def test_satlink_keyrates_below_the_chsh_bound(run):
    # fs = 0.7 gives QBER 0.2, a CHSH value below 2: no DI key fraction,
    # and all three protocols get their rows
    r = run(["satlink", "keyrates", "--d", "500", "--fs", "0.7", "--M", "50"])
    assert r.returncode == 0, r.stderr
    rows = {row["protocol"]: row for row in csv.DictReader(r.stdout.splitlines())}
    assert list(rows) == ["bb84", "6state", "di"]
    for proto in ("bb84", "6state", "di"):
        assert float(rows[proto]["qber"]) == pytest.approx(0.2, abs=1e-12)
    # the DI QBER was printed as nan, and the key fraction as -inf
    assert rows["di"]["qber"] == rows["6state"]["qber"]
    assert rows["di"]["key_fraction"] == ""
    assert float(rows["di"]["key_per_step"]) == 0.0


def test_output_file(tmp_path, run):
    out = tmp_path / "res.csv"
    r = run(["--out", str(out), "waiting", "collective",
             "--M", "2", "--p", "0.5"])
    assert r.returncode == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert abs(float(rows[0]["expected_waiting"]) - 8 / 3) < 1e-12


def test_config_file_fills_defaults(tmp_path, run):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 0.5}))
    r = run(["--config", str(cfg), "waiting", "collective",
             "--M", "2", "--p", "0.5"])
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert "expected_virtual" in rows[0]
    assert abs(float(rows[0]["expected_virtual"]) - 16 / 3) < 1e-12


def test_invalid_input_exit_code_2():
    r = run_cli(["elem", "steady", "--p", "2", "--m-star", "0", "--f", "1"])
    assert r.returncode == 2
    assert "entlink:" in r.stderr


@pytest.mark.parametrize("p1, q", [("0.5", "0"), ("0", "0.5")], ids=["q-zero", "p1-zero"])
def test_unreachable_absorption_exit_code_2(p1, q, run):
    # q = 0 exited 3 as an "ill-conditioned" solve; no swap ever succeeds
    r = run(["twolink", "evaluate", "--p1", p1, "--p2", "0.5", "--q", q,
             "--m1-star", "2", "--m2-star", "2", "--t1-star", "2", "--t2-star", "2"])
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "unreachable" in r.stderr


NEGATIVE_SEED = {
    "simulate-elem": ["simulate", "elem", "--p", "0.5", "--m-star", "2", "--f", "1,0.9,0.8",
                      "--t-star", "2", "--trials", "10"],
    "simulate-twolink": ["simulate", "twolink", "--p1", "0.5", "--p2", "0.5", "--q", "0.5",
                         "--m1-star", "2", "--m2-star", "2", "--t1-star", "2",
                         "--t2-star", "2", "--trials", "10"],
    "simulate-collective": ["simulate", "collective", "--M", "2", "--p", "0.5",
                            "--trials", "10"],
    "selftest": ["--selftest"],
}


@pytest.mark.parametrize("args", NEGATIVE_SEED.values(), ids=NEGATIVE_SEED)
def test_negative_seed_exit_code_2(args, run):
    r = run(["--seed", "-1", *args])
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("entlink:") and "--seed" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args", [
    ["simulate", "elem", "--p", "0.5", "--m-star", "2", "--f", "1,0.9,0.8",
     "--t-star", "-1", "--trials", "10"],
    ["twolink", "evaluate", "--p1", "0.5", "--p2", "0.5", "--q", "0.5", "--m1-star", "2",
     "--m2-star", "2", "--t1-star", "-1", "--t2-star", "2"],
], ids=["simulate-elem", "twolink-evaluate"])
def test_negative_cutoff_exit_code_2(args, run):
    # simulate elem used to print the t* = 0 result and exit 0
    r = run(args)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("entlink:") and "cutoff_decision" in r.stderr
    assert r.stdout == ""


def _small_p(command, p, *extra):
    return ["twolink", command, "--p1", p, "--p2", p, "--q", "0.5", "--m1-star", "2",
            "--m2-star", "2", *extra]


def _exact_wait(p, q, t_star):
    """The symmetric-cutoff closed form in `Fraction`s, at the float inputs'
    exact values."""
    p, q = Fraction(float(p)), Fraction(q)
    rr = (1 - p) ** t_star
    return (3 - 2 * p * (1 - rr) - 2 * rr) / (q * p * (2 - p * (1 - 2 * rr) - 2 * rr))


NUMERICAL_FAILURES = {
    # the start state's self-loop is 1 - 2e-13; the cycle's exit mass comes
    # out 1e-3 short of 1
    "evaluate-p-1e-13": _small_p("evaluate", "1e-13", "--t1-star", "2", "--t2-star", "2"),
    "lp-waiting-p-1e-13": _small_p("lp-waiting", "1e-13"),
}


@pytest.mark.parametrize("args", NUMERICAL_FAILURES.values(), ids=NUMERICAL_FAILURES)
def test_numerical_failure_exit_code_3(args, run):
    # valid input whose solve breaks down at small p is a numerical failure
    r = run(args)
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stderr)["error"] == "numerical"
    assert r.stdout == ""


def test_collective_wait_that_overflows_exits_3(run):
    # the recursion overflowed to NaN with two RuntimeWarnings, and the
    # command exited 2 blaming virtual_expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run(["waiting", "collective", "--M", "2", "--p", "5e-324", "--t-req", "0",
                 "--q", "0.5"])
    assert r.returncode == 3 and r.stdout == ""
    error = json.loads(r.stderr)
    assert error["error"] == "numerical"
    assert error["detail"].startswith("collective_expected_infty:")
    assert "overflows a float" in error["detail"]


def test_numerical_failure_exits_3_from_the_process():
    r = run_cli(NUMERICAL_FAILURES["evaluate-p-1e-13"])
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stderr)["error"] == "numerical"


def test_evaluate_at_small_p_is_exact(run):
    # the absorbing solve exited 3 here (and was off by 1.1e-11 at p = 1e-3)
    r = run(_small_p("evaluate", "1e-6", "--t1-star", "2", "--t2-star", "2"))
    assert r.returncode == 0, r.stderr
    row = next(csv.DictReader(r.stdout.splitlines()))
    exact = _exact_wait("1e-6", Fraction(1, 2), 2)
    assert abs(Fraction(row["expected_waiting"]) / exact - 1) <= 1e-9
    assert float(row["f_at_absorption"]) == 1.0


@pytest.mark.parametrize("p", ["1e-6", "1e-3"])
def test_lp_fidelity_is_right_or_exits_3(p, run):
    # at p = 1e-6 the absorbing LP printed 0.9231877689426496 with exit 0,
    # and at p = 1e-3 1.000000000054378; the renewal LP could exit 3.  The
    # optimum by Howard's steps is exactly f(0, 0) = 1
    r = run(_small_p("lp-fidelity", p, "--t-coh", "12"))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "optimal_f_at_absorption\n1.0\n"


@pytest.mark.parametrize("command, p", [("lp-waiting", "1e-4"), ("lp-waiting", "1e-5"),
                                        ("lp-waiting", "1e-6"), ("lp-fidelity", "1e-4"),
                                        ("lp-fidelity", "1e-5")],
                         ids=lambda v: v)
def test_small_p_optima_are_exact(command, p, run):
    # the renewal LP exited 3 at these p: HiGHS's value off its decision's
    # (lp-waiting 1e-4), a failed primal residual check (lp-waiting 1e-5,
    # 1e-6) and "unbounded" for an LP bounded by 1 (lp-fidelity 1e-5)
    r = run(_small_p(command, p, *(("--t-coh", "12") if command == "lp-fidelity" else ())))
    assert r.returncode == 0, r.stderr
    if command == "lp-fidelity":
        assert r.stdout == "optimal_f_at_absorption\n1.0\n"
    else:
        row = next(csv.DictReader(r.stdout.splitlines()))
        exact = _exact_wait(p, Fraction(1, 2), 2)
        assert abs(Fraction(row["min_expected_waiting"]) / exact - 1) <= 1e-12


def test_lp_fidelity_with_one_slow_link_is_exact(run):
    # HiGHS called this LP, bounded by 1, unbounded (exit 3); started from
    # cutoff (0, 0), which is optimal for f decreasing with age, it is not
    r = run(["twolink", "lp-fidelity", "--p1", "1e-5", "--p2", "0.5", "--q", "0.5",
             "--m1-star", "2", "--m2-star", "2", "--t-coh", "12"])
    assert r.returncode == 0, r.stderr
    assert r.stdout == "optimal_f_at_absorption\n1.0\n"


def test_bad_config_exit_code_2(tmp_path, run):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    r = run(["--config", str(cfg), "waiting", "collective",
             "--M", "1", "--p", "0.5"])
    assert r.returncode == 2


def test_config_non_integer_trials_exit_code_2(tmp_path, run):
    # argparse converts a config file's value as it converts the command
    # line's, so "100.5" never reaches SimConfig
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 100.5}))
    r = run(["--config", str(cfg), "simulate", "collective", "--M", "2", "--p", "0.5"])
    assert r.returncode == 2 and "invalid int value: '100.5'" in r.stderr and not r.stdout


@pytest.mark.parametrize("cfg, args", [
    ({"t-req": 1.5}, ["waiting", "collective", "--M", "4", "--p", "0.3"]),
    ({"steps": 2.5}, ["satlink", "sweep", "--d-min", "100", "--d-max", "200"]),
    ({"t_coh": None}, ["elem", "steady", "--p", "0.5", "--m-star", "2"]),
    ({"format": "xml"}, ["twolink", "analytic", "--p", "0.5", "--q", "0.5", "--t-star", "0"]),
    (None, ["elem", "steady", "--p", "0.5", "--m-star", "2", "--f", "1,abc,0.8"]),
], ids=["t-req-float", "steps-float", "t-coh-null", "format-xml", "f-not-a-number"])
def test_config_and_f_values_are_checked_like_the_command_line(cfg, args, tmp_path, run):
    # each case printed a number, ended in a traceback or wrote CSV for "xml"
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        args = ["--config", str(path), *args]
    r = run(args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""  # an exception would escape cli.main and fail the test


def test_config_unknown_keys_exit_code_2(tmp_path, run):
    # the misspelt keys were dropped, and the default answer was printed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeed": 5, "t-coh": 12, "alpah": 0.4}))
    r = run(["--config", str(path), "twolink", "lp-waiting", *TWO_LINK])
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "'seeed'" in r.stderr and "'alpah'" in r.stderr
    assert "t-coh" not in r.stderr  # an option of other twolink commands
    path.write_text(json.dumps({"t-coh": 12}))
    assert run(["--config", str(path), "twolink", "lp-waiting", *TWO_LINK]).returncode == 0


@pytest.mark.parametrize("bound", ["-1", "-3"])
@pytest.mark.parametrize("t_coh", [[], ["--t-coh", "12"]], ids=["uniform-f", "t-coh"])
def test_negative_storage_bound_exit_code_2(bound, t_coh, run):
    # -3 ended in numpy's "negative dimensions are not allowed" traceback
    args = ["twolink", "evaluate", "--p1", "0.5", "--p2", "0.5", "--q", "0.5",
            "--m1-star", bound, "--m2-star", "2", "--t1-star", "0", "--t2-star", "0", *t_coh]
    r = run(args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "storage bounds must be >= 0" in r.stderr


@pytest.mark.parametrize("args", [["--d", "inf"], ["--d", "nan"], ["--d", "1000", "--h", "inf"],
                                  ["--d", "1000", "--h", "nan"]],
                         ids=["d-inf", "d-nan", "h-inf", "h-nan"])
def test_non_finite_satellite_geometry_exit_code_2(args, run):
    # --d inf ended in "math domain error"; the others exited 2 only at
    # heralded_link's eta check, after the geometry was accepted
    r = run(["satlink", "link", *args])
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "SatGeometry" in r.stderr


def test_simulate_collective_seeded(run):
    args = ["--seed", "5", "simulate", "collective", "--M", "2", "--p", "0.5",
            "--trials", "2000"]
    a, b = run(args), run(args)
    assert a.returncode == 0 and a.stdout == b.stdout
    rows = list(csv.DictReader(a.stdout.splitlines()))
    assert rows[0]["rng"] == "PCG64"


def test_config_overrides_option_defaults(tmp_path, run):
    # options that have parser defaults (global and per subcommand) must
    # take their value from the config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 300, "fs": 0.9, "format": "json"}))
    r = run(["--config", str(cfg), "satlink", "link", "--d", "1000"])
    want = run(["--format", "json", "satlink", "link", "--d", "1000",
                "--h", "300", "--fs", "0.9"])
    assert r.returncode == 0, r.stderr
    assert r.stdout == want.stdout
    row = json.loads(r.stdout)["data"][0]
    assert abs(row["path_length_km"] - 592.980) < 0.01
    assert abs(row["phi_plus"] - 0.9) < 1e-12
    # the command line still beats the config file
    r = run(["--config", str(cfg), "--format", "csv", "satlink", "link",
             "--d", "1000", "--h", "500", "--fs", "1"])
    default = run(["satlink", "link", "--d", "1000"])
    assert r.stdout == default.stdout


def test_config_defaults_stay_with_their_call(tmp_path, run):
    # the parser of calls without --config is built once per process, so a
    # config must not set defaults on it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 300, "fs": 0.9, "format": "json"}))
    args = ["satlink", "link", "--d", "1000"]
    before = run(args)
    with_cfg = run(["--config", str(cfg), *args])
    after = run(args)
    assert before.returncode == with_cfg.returncode == after.returncode == 0
    assert with_cfg.stdout != before.stdout and after.stdout == before.stdout
    assert after.stdout.startswith("path_length_km,")


def test_parser_is_built_once_per_process(monkeypatch, run):
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    try:
        for args in (["satlink", "link", "--d", "1000"],
                     ["twolink", "analytic", "--p", "0.5", "--q", "0.5", "--t-star", "0"],
                     ["waiting", "collective", "--M", "2", "--p", "0.5"],
                     ["twolink", "analytic", "--p", "0"],  # an argparse error
                     []):  # the help
            run(args)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_elem_optimal_writes_one_table(run):
    args = ["elem", "optimal", "--p", "0.4", "--m-star", "3",
            "--f", "1,0.95,0.85,0.7"]
    r = run(args)
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert [row["state"] for row in rows] == ["-1", "0", "1", "2", "3"]
    assert list(rows[0]) == ["state", "wait", "request", "optimal_ftilde"]
    assert len({row["optimal_ftilde"] for row in rows}) == 1
    for row in rows:
        assert float(row["wait"]) + float(row["request"]) == 1.0
    j = run(["--format", "json", *args])
    assert j.returncode == 0, j.stderr
    data = json.loads(j.stdout)["data"]
    assert [{k: str(v) for k, v in row.items()} for row in data] == rows


@pytest.mark.parametrize("args", [
    # the LP printed 0.0: HiGHS drops matrix entries below 1e-9, here p
    "--p 1e-10 --m-star 3 --t-coh 4",
    "--p 1e-12 --m-star 2 --f 1,0.9,0.8",
    # 1.0: the 1 - p entries dropped out
    "--p 0.9999999999976974 --m-star 0 --f 1",
    # 0.0: every reward below HiGHS's 1e-10 dual feasibility tolerance
    "--p 1 --m-star 0 --f 6.25e-74",
    # 1e-8 and 3.4e-9 relative off, within HiGHS's tolerances
    "--p 1e-8 --m-star 0 --f 0.0039",
    "--p 1e-8 --m-star 3 --f 1,5.960464477539063e-08,5.960464477539063e-08,"
    "5.960464477539063e-08",
])
def test_elem_optimal_prints_the_best_cutoff(args, run):
    argv = args.split()
    r = run(["elem", "optimal", *argv])
    assert r.returncode == 0, r.stderr
    opts = dict(zip(argv[::2], argv[1::2]))
    m_star = int(opts["--m-star"])
    f = ([float(v) for v in opts["--f"].split(",")] if "--f" in opts
         else satlink.memory_f_vector(m_star, float(opts["--t-coh"]), 0.5, 0.5)[1:])
    p, f = Fraction(float(opts["--p"])), [Fraction(float(v)) for v in f]
    best = max(p * sum(f[:t + 1]) / (1 + t * p) for t in range(m_star + 1))
    value = Fraction(float(next(csv.DictReader(r.stdout.splitlines()))["optimal_ftilde"]))
    assert abs(value - best) <= Fraction(1e-12) * best


def test_simulate_twolink_fails_when_trajectories_exhaust_the_horizon(run):
    r = run(["--seed", "1", "simulate", "twolink", "--p1", "0.01", "--p2", "0.01",
             "--q", "0.5", "--m1-star", "2", "--m2-star", "2", "--t1-star", "2",
             "--t2-star", "2", "--horizon", "1", "--trials", "1000"])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "1000 of 1000 trajectories exhausted" in r.stderr
    assert "Warning" not in r.stderr


def test_simulate_needs_two_samples_for_a_standard_error(run):
    twolink = ["simulate", "twolink", "--p1", "0.5", "--p2", "0.5", "--q", "0.5",
               "--m1-star", "2", "--m2-star", "2", "--t1-star", "2", "--t2-star", "2"]
    collective = ["simulate", "collective", "--M", "2", "--p", "0.5"]
    for args in (twolink, collective):
        r = run([*args, "--trials", "1"])
        assert r.returncode == 2
        assert r.stdout == "" and "nan" not in r.stderr
        assert "1 usable samples" in r.stderr
        ok = run([*args, "--trials", "2"])
        assert ok.returncode == 0, ok.stderr
        assert "nan" not in ok.stdout


@pytest.mark.parametrize("args", [
    ["--p", "0.5", "--q", "0.5", "--t-star", "-1"],
    ["--p", "1.5", "--q", "0.5", "--t-star", "0"],
    ["--p", "0.5", "--q", "1.5", "--t-star", "0"],
    ["--p", "0", "--q", "0.5", "--t-star", "0"],
], ids=["negative-t-star", "p-above-one", "q-above-one", "p-zero"])
def test_twolink_analytic_rejects_invalid_input(args, capsys):
    assert cli.main(["twolink", "analytic", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "analytic_symmetric_waiting_time" in err


def test_twolink_analytic_overflow_exit_code_3(run):
    # 1e-170 ended in a ZeroDivisionError traceback (exit 1) and 1e-160
    # printed inf
    for p in ("1e-170", "1e-160"):
        r = run(["twolink", "analytic", "--p", p, "--q", "0.5", "--t-star", "2"])
        assert r.returncode == 3 and r.stdout == "", (p, r.stderr)
        assert json.loads(r.stderr)["error"] == "numerical"
        assert "overflows" in r.stderr


def test_saturated_collective_simulation_exit_code_3(run):
    # numpy's geometric sampler clips at 2**63 - 1: exit 0 with mean
    # 9.223372036854776e+18 and se 0.0
    r = run(["--seed", "42", "simulate", "collective", "--M", "2", "--p", "1e-300"])
    assert r.returncode == 3 and r.stdout == "", r.stderr
    assert json.loads(r.stderr)["error"] == "numerical"
    assert "overflows int64" in r.stderr


TWO_LINK = ["--p1", "0.5", "--p2", "0.5", "--q", "0.5", "--m1-star", "2", "--m2-star", "2"]
CUTOFFS = ["--t1-star", "2", "--t2-star", "2"]


@pytest.mark.parametrize("args", [
    ["twolink", "lp-fidelity", *TWO_LINK, "--t-coh", "12", "--alpha", "2", "--beta", "2"],
    ["twolink", "evaluate", *TWO_LINK, *CUTOFFS, "--t-coh", "12", "--alpha", "-3"],
    ["simulate", "twolink", *TWO_LINK, *CUTOFFS, "--t-coh", "12", "--alpha", "-3"],
    ["elem", "optimal", "--p", "0.5", "--m-star", "2", "--f", "1,nan,0.8"],
], ids=["lp-fidelity-f-above-one", "evaluate-f-below-zero", "simulate-f-below-zero",
        "elem-optimal-f-nan"])
def test_figure_of_merit_outside_unit_interval_exit_code_2(args, capsys):
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "entlink:" in err and "f values must lie in [0, 1]" in err


@pytest.mark.parametrize("t_coh", ["nan", "inf", "0"])
@pytest.mark.parametrize("args", [["twolink", "lp-fidelity", *TWO_LINK],
                                  ["elem", "steady", "--p", "0.5", "--m-star", "2"]],
                         ids=["lp-fidelity", "elem-steady"])
def test_coherence_time_outside_its_domain_exit_code_2(args, t_coh, capsys):
    # nan reached the model as f = nan and was rejected there; inf was taken
    # as a memory that never decays
    assert cli.main([*args, "--t-coh", t_coh]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "memory_f: t_coh must be positive and finite" in err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_satlink_sweep_rejects_fewer_than_one_step(steps, capsys):
    args = ["satlink", "sweep", "--d-min", "100", "--d-max", "2000", "--steps", steps]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--steps must be >= 1" in err
    assert cli.main([*args[:-1], "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


# Every subcommand's options as (type, default, required, help), recorded from
# the parser that declared each subcommand's options by hand.
_ELEM = {"--p": ("float", None, True, None), "--m-star": ("int", None, True, None),
         "--f": (None, None, False, "comma-separated f(0),...,f(m*)"),
         "--t-coh": ("float", 50.0, False, "memory coherence steps (used when --f is absent)"),
         "--alpha": ("float", 0.5, False, None), "--beta": ("float", 0.5, False, None)}
_TWO = {"--p1": ("float", None, True, None), "--p2": ("float", None, True, None),
        "--q": ("float", None, True, None), "--m1-star": ("int", None, True, None),
        "--m2-star": ("int", None, True, None)}
_TWO_F = {**_TWO,
          "--t-coh": ("float", None, False, "build f from memory decay; default uniform f=1"),
          "--alpha": ("float", 0.5, False, None), "--beta": ("float", 0.5, False, None)}
_CUTOFFS = {"--t1-star": ("int", None, True, None), "--t2-star": ("int", None, True, None)}
_SAT = {"--d": ("float", None, True, "ground separation, km"),
        "--h": ("float", 500.0, False, "orbit altitude, km"),
        "--fs": ("float", 1.0, False, None), "--nbar1": ("float", 0.0, False, None),
        "--nbar2": ("float", 0.0, False, None), "--M": ("int", 1, False, None),
        "--eta-zen": ("float", 0.5, False, None)}
_COLLECTIVE = {"--M": ("int", None, True, None), "--p": ("float", None, True, None),
               "--t-req": ("int", 0, False, None)}
_TRIALS = {"--trials": ("int", 100000, False, None)}
CLI_SURFACE = {
    "": {"--version": (None, "==SUPPRESS==", False, "show program's version number and exit"),
         "--config": (None, None, False, "JSON file with default argument values"),
         "--out": (None, None, False, "write output to this file instead of stdout"),
         "--format": (None, "csv", False, None), "--seed": ("int", 20260824, False, None),
         "--selftest": (None, False, False,
                        "run the acceptance checks and exit nonzero on failure")},
    "elem steady": _ELEM, "elem optimal": _ELEM, "elem forward": _ELEM,
    "elem backward": {**_ELEM, "--t": ("int", None, True, None)},
    "twolink lp-fidelity": _TWO_F, "twolink lp-waiting": _TWO,
    "twolink analytic": {"--p": ("float", None, True, None), "--q": ("float", None, True, None),
                         "--t-star": ("int", None, True, None)},
    "twolink evaluate": {**_TWO_F, **_CUTOFFS},
    "satlink link": _SAT, "satlink keyrates": _SAT,
    "satlink sweep": {**_SAT, "--d": ("float", None, False, "ground separation, km"),
                      "--d-min": ("float", None, True, None),
                      "--d-max": ("float", None, True, None),
                      "--steps": ("int", 50, False, None)},
    "waiting collective": {**_COLLECTIVE, "--q": ("float", None, False,
                                                  "joining success prob; adds the virtual-link value")},
    "simulate elem": {**_ELEM, "--t-star": ("int", None, False, None), **_TRIALS,
                      "--horizon": ("int", 200, False, None)},
    "simulate twolink": {**_TWO_F, **_CUTOFFS, **_TRIALS,
                         "--horizon": ("int", 10000, False, None)},
    "simulate collective": {**_COLLECTIVE, **_TRIALS},
}


def _cli_surface(parser, path=()):
    """{"group name": {option: (type, default, required, help)}} over the
    parser tree; a subcommand action's choices map names to parsers."""
    out, opts = {}, {}
    for action in parser._actions:
        if isinstance(action.choices, dict):
            for name, sub in action.choices.items():
                out.update(_cli_surface(sub, (*path, name)))
        elif action.option_strings and action.dest != "help":
            opts[action.option_strings[0]] = (getattr(action.type, "__name__", None),
                                              action.default, action.required, action.help)
    if opts or not out:
        out[" ".join(path)] = opts
    return out


def test_every_subcommand_keeps_its_options():
    want = {**CLI_SURFACE, "satlink sweep": dict(CLI_SURFACE["satlink sweep"])}
    del want["satlink sweep"]["--d"]  # the sweep sets d on every row
    assert _cli_surface(cli.build_parser()) == want


def test_satlink_sweep_takes_no_d(run):
    # --d was accepted and then overwritten on every row
    r = run(["satlink", "sweep", "--d", "5", "--d-min", "100", "--d-max", "200", "--steps", "2"])
    assert r.returncode == 2 and r.stdout == "" and "--d" in r.stderr
