"""End-to-end command-line behavior through the in-process entry point."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinlab import cli, fidelity, infogain, numerics

LOG2E = 1.0 / math.log(2.0)


def run_cli(args, capsys):
    code = cli.main(args)
    return code, capsys.readouterr().out


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_table_values(capsys):
    code, out = run_cli(["table", "--max-n", "4"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "f_rotation", "f_parallel", "f_optimal"]
    assert [r["n"] for r in rows] == ["1", "2", "3", "4"]
    closed = [2.0 / 3.0,
              (3.0 + math.sqrt(3.0)) / 6.0,
              (6.0 + math.sqrt(6.0)) / 10.0,
              (5.0 + math.sqrt(15.0)) / 10.0]
    for row, want in zip(rows, closed):
        n = int(row["n"])
        assert float(row["f_rotation"]) == pytest.approx(want, abs=1e-12)
        assert float(row["f_parallel"]) == pytest.approx((n + 1.0) / (n + 2.0), abs=1e-14)
        assert float(row["f_optimal"]) == pytest.approx(2.0 ** n / (2.0 ** n + 1.0), abs=1e-14)


def test_table_single_row_is_all_two_thirds(capsys):
    code, out = run_cli(["table", "--max-n", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    # one spin: the restriction costs nothing, so all three columns coincide
    assert row["f_rotation"] == row["f_parallel"] == row["f_optimal"]
    assert float(row["f_rotation"]) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_table_json(capsys):
    code, out = run_cli(["table", "--max-n", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert set(payload[0]) == {"n", "f_rotation", "f_parallel", "f_optimal"}
    assert payload[1]["n"] == 2
    assert payload[1]["f_rotation"] == pytest.approx((3.0 + math.sqrt(3.0)) / 6.0, abs=1e-12)


def test_csv_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert cli.main(["table", "--max-n", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    _, stdout_text = run_cli(["table", "--max-n", "5"], capsys)
    file_text = path.read_text(encoding="utf-8")
    assert file_text == stdout_text
    assert "\r" not in file_text
    assert file_text.endswith("\n")


def test_csv_cells_roundtrip(capsys):
    _, out = run_cli(["table", "--max-n", "7"], capsys)
    _, rows = parse_csv(out)
    for row in rows:
        n = int(row["n"])
        assert float(row["f_rotation"]) == pytest.approx(
            fidelity.max_fidelity_polynomial(n), rel=1e-13)


def test_verify_fast_green(capsys):
    code, out = run_cli(["verify"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "47 checks, 47 passed, 0 failed"
    # the claim sequence is pinned: none dropped, renamed or reordered between levels
    fast = [c.name for c in cli.run_verify("fast")]
    full = [c.name for c in cli.run_verify("full")]
    assert [line.split()[1].rstrip(":") for line in lines[:-1]] == fast
    assert len(fast) == 47 and len(full) == 100
    assert len(set(full)) == len(full)
    assert full[:47] == fast
    assert fast[0] == full[0] == "fidelity_closed_n1"
    assert fast[-1] == "overlap_mid_zero_at_third"
    assert full[-1] == "asymptotic_limit"


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "verify.txt"
    assert cli.main(["verify", "--out", str(path)]) == 0
    capsys.readouterr()
    assert "0 failed" in path.read_text(encoding="utf-8")


def test_verify_detects_corrupted_matrix(monkeypatch, capsys):
    real = fidelity.build_m

    def corrupted(nspins):
        m = real(nspins)
        return numerics.Tridiag(m.diag, 1.1 * np.asarray(m.offdiag))

    monkeypatch.setattr(fidelity, "build_m", corrupted)
    code, out = run_cli(["verify"], capsys)
    assert code == 1
    assert "FAIL fidelity_closed_n2" in out
    assert "0 failed" not in out


def test_verify_reports_failed_yes_no_claim(monkeypatch, capsys):
    real = fidelity.asymptotic_table

    def not_monotone(max_n):
        rows = real(max_n)
        (n0, f0, d0), (n1, f1, d1) = rows[:2]
        return [(n0, f1, d0), (n1, f0, d1), *rows[2:]]

    monkeypatch.setattr(fidelity, "asymptotic_table", not_monotone)
    code, out = run_cli(["verify", "--level", "full"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "FAIL asymptotic_monotone: fidelity strictly increasing to N=200" in lines
    assert lines[-1] == "100 checks, 99 passed, 1 failed"


def test_simulate_grid_row(capsys):
    code, out = run_cli(["simulate", "--n", "1", "--shots", "2000", "--seed", "7"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "povm", "shots", "seed", "f_hat", "stderr", "f_exact", "z_score"]
    assert len(rows) == 1
    row = rows[0]
    assert row["povm"] == "grid"
    assert row["shots"] == "2000"
    assert float(row["f_exact"]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert 0.0 < float(row["f_hat"]) < 1.0
    assert math.isfinite(float(row["z_score"]))


def test_simulate_large_grid_row(capsys):
    # 3844 outcomes over a 961-dimensional tower: needs a stable Wigner kernel
    code, out = run_cli(["simulate", "--n", "60", "--shots", "200", "--seed", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(float(rows[0]["z_score"])) < 5.0


def test_simulate_octahedron_row(capsys):
    code, out = run_cli(["simulate", "--n", "2", "--povm", "octahedron",
                         "--shots", "2000", "--seed", "3"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["povm"] == "octahedron"
    assert float(rows[0]["f_exact"]) == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("args, row", [
    ("--n 12 --shots 100000 --seed 0",
     "12,grid,100000,0,0.974425879538416,0.000133955519399881,0.974553956171366,"
     "-0.956113145047502"),
    ("--n 2 --povm octahedron --shots 1000000 --seed 7",
     "2,octahedron,1000000,7,0.799855183927221,0.000163241168169773,0.8,-0.887129603411193"),
    ("--n 40 --shots 20000 --seed 3",
     "40,grid,20000,3,0.996850814143281,5.87318804202078e-05,0.996876085310183,"
     "-0.430280228062791"),
    ("--n 64 --shots 20000 --seed 5",
     "64,grid,20000,5,0.998741414358143,2.13186302929165e-05,0.998712347123237,"
     "1.36346634405297"),
])
def test_simulate_seeded_rows_pinned(args, row, capsys):
    # any change in the draw order, the outcome scan or the score moves these bytes
    code, out = run_cli(["simulate", *args.split()], capsys)
    assert code == 0
    assert out.splitlines() == ["n,povm,shots,seed,f_hat,stderr,f_exact,z_score", row]


def test_simulate_leaves_scipy_linalg_unimported():
    # the sampler's Wigner-d tables come from numpy.linalg.eigh; importing
    # scipy.linalg would add about 80 ms to every simulate call
    code = ("import sys; from spinlab import cli; "
            "status = cli.main(['simulate', '--n', '12', '--shots', '1000']); "
            "print(status, 'scipy.linalg' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_simulate_repeat_seed_identical(capsys):
    args = ["simulate", "--n", "1", "--shots", "10", "--seed", "42"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_simulate_json_keys(capsys):
    code, out = run_cli(["simulate", "--n", "1", "--shots", "50",
                         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload[0]) == {"n", "povm", "shots", "seed", "f_hat",
                               "stderr", "f_exact", "z_score"}


def test_infogain_closed_table(capsys):
    code, out = run_cli(["infogain", "--mode", "closed"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "info_gain"]
    assert len(rows) == 8
    for row in rows:
        n = int(row["n"])
        want = n - (1.0 - 0.5 ** n) * LOG2E
        assert float(row["info_gain"]) == pytest.approx(want, abs=1e-12)


def test_infogain_quadrature_table(capsys):
    code, out = run_cli(["infogain", "--mode", "quadrature"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "closed", "quadrature", "abs_diff"]
    assert len(rows) == 3
    for row in rows:
        assert float(row["abs_diff"]) < 1e-12
        # columns are rounded to 15 digits independently of their difference
        recomputed = abs(float(row["closed"]) - float(row["quadrature"]))
        assert recomputed == pytest.approx(float(row["abs_diff"]), abs=1e-14)


def test_infogain_alpha_scan(capsys):
    code, out = run_cli(["infogain", "--mode", "alpha-scan"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha_over_pi", "info_gain", "is_max"]
    assert len(rows) == 65
    peaks = [r for r in rows if r["is_max"] == "1"]
    assert len(peaks) == 1
    peak = peaks[0]
    assert float(peak["alpha_over_pi"]) == pytest.approx(0.2317, abs=1e-3)
    assert float(peak["info_gain"]) == pytest.approx(0.8729, abs=5e-4)
    scan_best = max(float(r["info_gain"]) for r in rows if r["is_max"] == "0")
    assert float(peak["info_gain"]) >= scan_best - 1e-9


def test_infogain_alpha_scan_scans_once(monkeypatch, capsys):
    # the table's 64 scanned gains are the ones the maximizer refines from
    calls = []
    quadrature = infogain.info_gain_quadrature

    def counted(*args, **kwargs):
        calls.append(1)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(infogain, "info_gain_quadrature", counted)
    infogain.maximize_alpha()
    maximizer_calls = len(calls)
    calls.clear()
    code, _ = run_cli(["infogain", "--mode", "alpha-scan"], capsys)
    assert code == 0
    assert len(calls) == maximizer_calls


def test_asymptotic_output(capsys):
    code, out = run_cli(["asymptotic", "--max-n", "60"], capsys)
    assert code == 0
    assert out.count("n,fidelity,scaled_deficit,xi_squared") == 1
    header, rows = parse_csv(out)
    assert header == ["n", "fidelity", "scaled_deficit", "xi_squared"]
    assert len(rows) == 60
    assert [r["n"] for r in rows] == [str(n) for n in range(1, 61)]
    assert len({r["xi_squared"] for r in rows}) == 1
    fids = [float(r["fidelity"]) for r in rows]
    assert all(b > a for a, b in zip(fids, fids[1:]))
    for parity in (0, 1):
        deficits = [float(r["scaled_deficit"]) for r in rows if int(r["n"]) % 2 == parity]
        assert all(b > a for a, b in zip(deficits, deficits[1:]))


@pytest.mark.parametrize("argv", [
    ["table", "--max-n", "0"],
    ["table", "--max-n", "1001"],
    ["simulate", "--n", "0"],
    ["simulate", "--shots", "0"],
    ["simulate", "--povm", "octahedron", "--n", "3"],
    ["asymptotic", "--max-n", "9"],
    ["bogus"],
    [],
    ["simulate", "--n", "65"],
    ["simulate", "--seed", "-1"],
    ["table", "--max-n", "3", "--out", os.path.join(os.devnull, "x.csv")],
    ["verify", "--out", os.curdir],
    ["simulate", "--n", "x"],
])
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if "--out" in argv:  # a file that cannot be written is reported in one line
        assert len(captured.err.splitlines()) == 1 and "cannot write" in captured.err
    elif argv and argv[0] in ("table", "verify", "simulate", "infogain", "asymptotic"):
        # an error in a subcommand's arguments shows that subcommand's usage
        assert captured.err.startswith(f"usage: spinlab {argv[0]} ")
    if "x" in argv:
        assert "invalid int value: 'x'" in captured.err
