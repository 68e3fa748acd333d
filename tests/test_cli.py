import csv
import json
import subprocess
import sys


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "entlink.cli", *args],
                          capture_output=True, text=True, **kw)


def test_version():
    r = run_cli(["--version"])
    assert r.returncode == 0
    assert r.stdout.strip() == "1.0.0"


def test_no_command_prints_help():
    r = run_cli([])
    assert r.returncode == 2


def test_elem_steady_csv_matches_library():
    r = run_cli(["elem", "steady", "--p", "0.5", "--m-star", "2",
                 "--f", "1,0.9,0.8"])
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(r.stdout.splitlines()))
    by_ts = {row["t_star"]: row for row in rows}
    assert float(by_ts["2"]["ftilde"]) == 0.675
    assert float(by_ts["2"]["x"]) == 0.75
    assert float(by_ts["0"]["f"]) == 1.0


def test_twolink_analytic_json():
    r = run_cli(["--format", "json", "twolink", "analytic",
                 "--p", "0.5", "--q", "0.5", "--t-star", "0"])
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["meta"]["version"] == "1.0.0"
    assert payload["data"][0]["expected_waiting"] == 8.0


def test_satlink_link_values():
    r = run_cli(["satlink", "link", "--d", "2000", "--h", "500", "--fs", "1"])
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert abs(float(rows[0]["path_length_km"]) - 1151.602) < 0.05
    assert rows[0]["entangled"] == "true"


def test_output_file(tmp_path):
    out = tmp_path / "res.csv"
    r = run_cli(["--out", str(out), "waiting", "collective",
                 "--M", "2", "--p", "0.5"])
    assert r.returncode == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert abs(float(rows[0]["expected_waiting"]) - 8 / 3) < 1e-12


def test_config_file_fills_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 0.5}))
    r = run_cli(["--config", str(cfg), "waiting", "collective",
                 "--M", "2", "--p", "0.5"])
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert "expected_virtual" in rows[0]
    assert abs(float(rows[0]["expected_virtual"]) - 16 / 3) < 1e-12


def test_invalid_input_exit_code_2():
    r = run_cli(["elem", "steady", "--p", "2", "--m-star", "0", "--f", "1"])
    assert r.returncode == 2
    assert "entlink:" in r.stderr


def test_bad_config_exit_code_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    r = run_cli(["--config", str(cfg), "waiting", "collective",
                 "--M", "1", "--p", "0.5"])
    assert r.returncode == 2


def test_simulate_collective_seeded():
    args = ["--seed", "5", "simulate", "collective", "--M", "2", "--p", "0.5",
            "--trials", "2000"]
    a, b = run_cli(args), run_cli(args)
    assert a.returncode == 0 and a.stdout == b.stdout
    rows = list(csv.DictReader(a.stdout.splitlines()))
    assert rows[0]["rng"] == "PCG64"


def test_config_overrides_option_defaults(tmp_path):
    # options that have parser defaults (global and per subcommand) must
    # take their value from the config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 300, "fs": 0.9, "format": "json"}))
    r = run_cli(["--config", str(cfg), "satlink", "link", "--d", "1000"])
    want = run_cli(["--format", "json", "satlink", "link", "--d", "1000",
                    "--h", "300", "--fs", "0.9"])
    assert r.returncode == 0, r.stderr
    assert r.stdout == want.stdout
    row = json.loads(r.stdout)["data"][0]
    assert abs(row["path_length_km"] - 592.980) < 0.01
    assert abs(row["phi_plus"] - 0.9) < 1e-12
    # the command line still beats the config file
    r = run_cli(["--config", str(cfg), "--format", "csv", "satlink", "link",
                 "--d", "1000", "--h", "500", "--fs", "1"])
    default = run_cli(["satlink", "link", "--d", "1000"])
    assert r.stdout == default.stdout


def test_elem_optimal_writes_one_table():
    args = ["elem", "optimal", "--p", "0.4", "--m-star", "3",
            "--f", "1,0.95,0.85,0.7"]
    r = run_cli(args)
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert [row["state"] for row in rows] == ["-1", "0", "1", "2", "3"]
    assert list(rows[0]) == ["state", "wait", "request", "optimal_ftilde"]
    assert len({row["optimal_ftilde"] for row in rows}) == 1
    for row in rows:
        assert float(row["wait"]) + float(row["request"]) == 1.0
    j = run_cli(["--format", "json", *args])
    assert j.returncode == 0, j.stderr
    data = json.loads(j.stdout)["data"]
    assert [{k: str(v) for k, v in row.items()} for row in data] == rows


def test_simulate_twolink_fails_when_trajectories_exhaust_the_horizon():
    r = run_cli(["--seed", "1", "simulate", "twolink", "--p1", "0.01", "--p2", "0.01",
                 "--q", "0.5", "--m1-star", "2", "--m2-star", "2", "--t1-star", "2",
                 "--t2-star", "2", "--horizon", "1", "--trials", "1000"])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "1000 of 1000 trajectories exhausted" in r.stderr
    assert "Warning" not in r.stderr


def test_simulate_needs_two_samples_for_a_standard_error():
    twolink = ["simulate", "twolink", "--p1", "0.5", "--p2", "0.5", "--q", "0.5",
               "--m1-star", "2", "--m2-star", "2", "--t1-star", "2", "--t2-star", "2"]
    collective = ["simulate", "collective", "--M", "2", "--p", "0.5"]
    for args in (twolink, collective):
        r = run_cli([*args, "--trials", "1"])
        assert r.returncode == 2
        assert r.stdout == "" and "nan" not in r.stderr
        assert "1 usable samples" in r.stderr
        ok = run_cli([*args, "--trials", "2"])
        assert ok.returncode == 0, ok.stderr
        assert "nan" not in ok.stdout
