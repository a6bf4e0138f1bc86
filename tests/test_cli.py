"""End-to-end command-line behavior through the in-process entry point."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinlab import claims, cli, fidelity, infogain, numerics

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
    for row, want in zip(rows, claims.CLOSED_FORMS.values()):
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
    assert payload[1]["f_rotation"] == pytest.approx(claims.CLOSED_FORMS[2], abs=1e-12)


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
    # the report lists the fast claims of the table, in its order
    fast = [c.name for c in claims.at_level("fast")]
    assert [line.split()[1].rstrip(":") for line in lines[:-1]] == fast


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

    # a clean run first: no input it computes may carry over to the next run
    assert run_cli(["verify", "--level", "full"], capsys)[0] == 0
    monkeypatch.setattr(fidelity, "asymptotic_table", not_monotone)
    code, out = run_cli(["verify", "--level", "full"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "FAIL asymptotic_monotone: fidelity strictly increasing to N=200" in lines
    assert lines[-1] == "101 checks, 100 passed, 1 failed"


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


def test_simulate_grid_row_at_the_cap(capsys):
    # 16900 outcomes over a 4225-dimensional tower, held as 130 ring states
    code, out = run_cli(["simulate", "--n", "128", "--shots", "20000", "--seed", "5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(float(rows[0]["z_score"])) < 5.0


def test_simulate_octahedron_row(capsys):
    code, out = run_cli(["simulate", "--n", "2", "--povm", "octahedron",
                         "--shots", "2000", "--seed", "3"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["povm"] == "octahedron"
    assert float(rows[0]["f_exact"]) == pytest.approx(claims.OCTAHEDRON, abs=1e-12)


@pytest.mark.parametrize("args, row", [
    ("--n 12 --shots 100000 --seed 0",
     "12,grid,100000,0,0.974425879538416,0.000133955519399881,0.974553956171366,"
     "-0.956113145047502"),
    ("--n 2 --povm octahedron --shots 1000000 --seed 7",
     "2,octahedron,1000000,7,0.799855183927221,0.000163241168169773,0.8,-0.887129603411193"),
    ("--n 2 --shots 20000 --seed 5",
     "2,grid,20000,5,0.788476790254653,0.00128318558000118,0.788675134594825,"
     "-0.154571827538256"),
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


# one of each subcommand, with both POVM kinds and every infogain mode
SUBCOMMANDS = ("table --max-n 7", "verify --level fast", "verify --level full",
               "simulate --n 12 --shots 1000", "simulate --n 2 --povm octahedron --shots 1000",
               "infogain --mode closed", "infogain --mode quadrature",
               "infogain --mode alpha-scan", "asymptotic")


def test_simulate_leaves_scipy_linalg_unimported():
    # numpy is the only runtime dependency: no subcommand imports any scipy
    # module, which would add 0.2-0.3 s to every run; scipy is the tests' oracle
    code = ("import contextlib, io, sys\n"
            "from spinlab import cli\n"
            "for args in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = cli.main(args.split())\n"
            "    print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code, *SUBCOMMANDS], capture_output=True,
                          text=True, env=env, check=True)
    assert dict(zip(SUBCOMMANDS, done.stdout.splitlines())) == dict.fromkeys(SUBCOMMANDS, "0 []")


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


def reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("seed", [0, 5])  # f_hat below f_exact at seed 0, above at 5
def test_simulate_single_shot_json_is_strict(capsys, seed):
    args = ["simulate", "--n", "3", "--shots", "1", "--seed", str(seed)]
    code, out = run_cli([*args, "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out, parse_constant=reject_constant)[0]
    assert row["stderr"] is None
    assert row["z_score"] == 0.0 and math.copysign(1.0, row["z_score"]) == 1.0
    # CSV keeps the infinite stderr and writes the z-score as 0
    _, csv_out = run_cli(args, capsys)
    _, rows = parse_csv(csv_out)
    assert rows[0]["stderr"] == "inf" and rows[0]["z_score"] == "0"


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
    # JSON floats round-trip, so the table's peak is maximize_alpha()'s bit for bit
    _, out = run_cli(["infogain", "--mode", "alpha-scan", "--format", "json"], capsys)
    best, gain = infogain.maximize_alpha()
    assert [(r["alpha_over_pi"], r["info_gain"]) for r in json.loads(out) if r["is_max"]] == [
        (best / math.pi, gain)]


def test_infogain_alpha_scan_scans_once(monkeypatch, capsys):
    # the table's 64 scanned gains are one 64-row call of the gain kernel, and its
    # golden-section search makes the same lookahead-batch calls that maximize_alpha
    # makes: a few calls of at most 15 rows, where one point at a time took 26 calls
    rows = []
    kernel = infogain._gains

    def counted(sn, nspins, codes, decoders):
        rows.append(codes.shape[0])
        return kernel(sn, nspins, codes, decoders)

    monkeypatch.setattr(infogain, "_gains", counted)
    infogain.maximize_alpha()
    maximizer_rows = list(rows)
    rows.clear()
    code, _ = run_cli(["infogain", "--mode", "alpha-scan"], capsys)
    assert code == 0
    assert rows == maximizer_rows
    assert rows[0] == 64 and 1 < len(rows) <= 1 + 7 and max(rows[1:]) <= 15


def test_main_reuses_its_parser(capsys):
    # the parser is built once per process: a usage error between two runs of
    # the same command changes neither run's output, nor the error's
    good = ["table", "--max-n", "3"]
    first = run_cli(good, capsys)
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            cli.main(["table", "--max-n", "0"])
        errors.append((err.value.code, capsys.readouterr()))
        assert run_cli(good, capsys) == first
    assert errors[0] == errors[1] and errors[0][0] == 2
    assert errors[0][1].err.startswith("usage: spinlab table ")
    assert cli._parser() is cli._parser()


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


@pytest.mark.parametrize("argv,digest", [
    (["table", "--max-n", "1000"],
     "800dbfd48266ee7c6e6158307ced8228965b0c8dca9393704fb229a0c1fcef19"),
    (["asymptotic", "--max-n", "1000"],
     "7e9585cfd940e95b81fa4318fb6e0934c6a39edb8f7efa7a8fd0fdd5e40d29c4"),
])
def test_large_n_scan_bytes_are_pinned(argv, digest, capsys):
    # every digit comes from Python floats and numpy's elementwise arithmetic (the
    # polynomial route's batched Newton), so no BLAS or LAPACK build moves it
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # what the digest pins: N = 1..1000, F rising, the polynomial route's F to the bit in
    # both commands (table's f_rotation), and the deficit near the J0 limit at N = 1000
    rows = json.loads(run_cli([*argv, "--format", "json"], capsys)[1])
    fids = [r["f_rotation" if argv[0] == "table" else "fidelity"] for r in rows]
    assert [r["n"] for r in rows] == list(range(1, 1001))
    assert all(b > a for a, b in zip(fids, fids[1:]))
    assert fids == fidelity.max_fidelity_polynomials(1000).tolist()
    if argv[0] == "asymptotic":
        assert abs(rows[-1]["scaled_deficit"] / rows[-1]["xi_squared"] - 1.0) < 7e-3


@pytest.mark.parametrize("argv", [
    ["table", "--max-n", "0"],
    ["table", "--max-n", "1001"],
    ["simulate", "--n", "0"],
    ["simulate", "--shots", "0"],
    ["simulate", "--povm", "octahedron", "--n", "3"],
    ["asymptotic", "--max-n", "9"],
    ["bogus"],
    [],
    ["simulate", "--n", "129"],
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
    assert captured.out == "" and "Traceback" not in captured.err
    if "--out" in argv:  # a file that cannot be written is reported in one line
        assert len(captured.err.splitlines()) == 1 and "cannot write --out" in captured.err
    elif argv and argv[0] in ("table", "verify", "simulate", "infogain", "asymptotic"):
        # an error in a subcommand's arguments shows that subcommand's usage
        assert captured.err.startswith(f"usage: spinlab {argv[0]} ")
    if "x" in argv:
        assert "invalid int value: 'x'" in captured.err
