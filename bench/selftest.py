"""Self-test of the benchmark's output checks; does not import spinlab.

    python3 bench/selftest.py

Each check gets the reference value, which it must accept, and values
perturbed by more than its tolerance, which it must reject. Exits 1 if
any check accepts a wrong value or rejects a right one.
"""

from __future__ import annotations

import math
import sys

from scipy import optimize

import checks as c

FAILURES: list[str] = []


def accepts(name: str, problems: list[str]) -> None:
    if problems:
        FAILURES.append(f"{name}: rejected a correct value: {problems[0]}")


def rejects(name: str, problems: list[str]) -> None:
    if not problems:
        FAILURES.append(f"{name}: accepted a perturbed value")


def fmt(v) -> str:
    return format(float(v), ".15g")


def csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)] + [",".join(fmt(v) if isinstance(v, float) else str(v)
                                            for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_zero_and_routes():
    for kind, degree in (("legendre", 40), ("jacobi01", 33)):
        x = c.largest_zero_ref(kind, degree)
        accepts("zero", c.check_zero(kind, degree, x))
        rejects("zero", c.check_zero(kind, degree, x + 3 * c.ZERO_TOL))
    for n in (2, 3, 37):
        f = c.fidelity_ref(n)
        accepts("routes", c.check_routes(n, f, f, f))
        accepts("routes without quadrature", c.check_routes(n, f, f, None))
        rejects("eigen route", c.check_routes(n, f + 2 * c.EIGEN_TOL, f, f))
        rejects("polynomial route", c.check_routes(n, f, f - 3 * c.POLY_TOL, f))
        rejects("quadrature route", c.check_routes(n, f, f, f + 2 * c.QUAD_TOL))
        rejects("nan route", c.check_routes(n, f, f, math.nan))
    # the closed forms alone catch a wrong N = 1..4 value
    for n, want in c.CLOSED_FORMS.items():
        accepts("closed form", c.close("closed", c.fidelity_ref(n), want, c.CLOSED_TOL))


def test_codes_and_directions():
    for d in (2, 77, 128):
        accepts("coherent", c.check_coherent(d, d / (d + 1.0)))
        rejects("coherent", c.check_coherent(d, d / (d + 1.0) - 2 * c.COHERENT_TOL))
    accepts("split", c.check_split(2.5, c.SPLIT_VALUE))
    rejects("split", c.check_split(2.5, c.SPLIT_VALUE + 2 * c.CLOSED_TOL))
    f = c.fidelity_ref(20)
    accepts("direction", c.check_direction(20, (1.0, 2.0), f))
    rejects("direction", c.check_direction(20, (1.0, 2.0), f + 2 * c.DIRECTION_TOL))


def test_scan_limit():
    for n in (10, 150, 1999):
        f = c.fidelity_ref(n)
        accepts("scaled deficit", c.check_scaled_deficit(n, f))
        rejects("deficit above xi^2", c.check_scaled_deficit(n, 1.0 - c.XI_SQ / n**2 - 1e-9))
        far = 1.0 - (c.XI_SQ - 6.0 * c.XI_SQ / n) / n**2 + 1e-12
        rejects("deficit too far below xi^2", c.check_scaled_deficit(n, far))
    accepts("increasing", c.check_increasing("x", [1.0, 2.0, 3.0]))
    rejects("increasing", c.check_increasing("x", [1.0, 3.0, 2.0]))
    rejects("increasing", c.check_increasing("x", [1.0, 1.0]))


def true_maximum() -> tuple[float, float]:
    res = optimize.minimize_scalar(lambda a: -c.info_gain_two_spin_ref(a),
                                   bounds=(0.6, 0.9), method="bounded",
                                   options={"xatol": 1e-10})
    return float(res.x), -float(res.fun)


def test_info_gain():
    for d in (2, 9, 64):
        g = c.info_gain_coherent_ref(d)
        accepts("gain coherent", c.check_info_gain_coherent(d, g))
        rejects("gain coherent", c.check_info_gain_coherent(d, g + 2 * c.COHERENT_GAIN_TOL))
    for alpha in (0.01, 0.7, 1.5):
        g = c.info_gain_two_spin_ref(alpha)
        accepts("gain two-spin", c.check_info_gain_two_spin(alpha, 3.0, g))
        rejects("gain two-spin",
                c.check_info_gain_two_spin(alpha, 3.0, g - 2 * c.TWO_SPIN_GAIN_TOL))
    scanned = [c.info_gain_two_spin_ref(float(a)) for a in c.scan_alphas()]
    a_star, g_star = true_maximum()
    accepts("maximum", c.check_maximum(a_star, g_star, scanned))
    rejects("maximum gain", c.check_maximum(a_star, g_star - 2 * c.ALPHA_SCAN_GAIN_TOL, scanned))
    rejects("maximum at edge", c.check_maximum(0.0, c.info_gain_two_spin_ref(0.0), scanned))
    rejects("maximum below scan", c.check_maximum(a_star, g_star, scanned + [g_star + 1e-9]))


def test_monte_carlo():
    accepts("monte carlo", c.check_monte_carlo("mc", 0.8 + 4e-4, 1e-4, 0.8))
    rejects("monte carlo", c.check_monte_carlo("mc", 0.8 + 6e-4, 1e-4, 0.8))
    rejects("monte carlo", c.check_monte_carlo("mc", 0.8, 0.0, 0.8))
    accepts("identical", c.check_identical("x", (0.8, 1e-4), (0.8, 1e-4)))
    rejects("identical", c.check_identical("x", (0.8, 1e-4),
                                           (math.nextafter(0.8, 1.0), 1e-4)))


def test_verify_report():
    good = "PASS a: residual 0\nPASS b: residual 0\n2 checks, 2 passed, 0 failed\n"
    accepts("verify", c.check_verify_report(0, good))
    rejects("verify exit", c.check_verify_report(1, good))
    rejects("verify fail line", c.check_verify_report(
        0, good.replace("PASS b", "FAIL b")))
    rejects("verify summary", c.check_verify_report(
        0, good.replace("2 checks, 2 passed", "3 checks, 3 passed")))
    rejects("verify empty", c.check_verify_report(0, ""))


def table_rows(max_n: int) -> list[list]:
    return [[n, c.fidelity_ref(n), (n + 1.0) / (n + 2.0), 1.0 - 1.0 / (2.0 ** n + 1.0)]
            for n in range(1, max_n + 1)]


def test_table_and_asymptotic():
    header = ["n", "f_rotation", "f_parallel", "f_optimal"]
    rows = table_rows(20)
    accepts("table", c.check_table_csv(0, csv(header, rows), 20))
    rejects("table rows", c.check_table_csv(0, csv(header, rows[:-1]), 20))
    for col, delta in ((1, 10 * c.POLY_TOL), (2, 1e-13), (3, -1e-13)):
        bad = [list(r) for r in rows]
        bad[16][col] += delta
        rejects(f"table column {col}", c.check_table_csv(0, csv(header, bad), 20))

    header = ["n", "fidelity", "scaled_deficit", "xi_squared"]
    rows = [[n, f, n * n * (1.0 - f), c.XI_SQ] for n, f in
            ((n, c.fidelity_ref(n)) for n in range(1, 21))]
    accepts("asymptotic", c.check_asymptotic_csv(0, csv(header, rows), 20))
    bad = [list(r) for r in rows]
    bad[16][1] += 10 * c.POLY_TOL
    rejects("asymptotic fidelity", c.check_asymptotic_csv(0, csv(header, bad), 20))
    bad = [list(r) for r in rows]
    bad[9][2], bad[10][2] = bad[10][2], bad[9][2]
    rejects("asymptotic order", c.check_asymptotic_csv(0, csv(header, bad), 20))
    bad = [list(r) for r in rows]
    bad[12][3] += 1e-12
    rejects("asymptotic xi^2", c.check_asymptotic_csv(0, csv(header, bad), 20))
    rejects("asymptotic exit", c.check_asymptotic_csv(2, csv(header, rows), 20))


def test_simulate_and_scan_csv():
    header = ["n", "povm", "shots", "seed", "f_hat", "stderr", "f_exact", "z_score"]
    exact = c.fidelity_ref(11)
    row = [11, "grid", 131072, 5, exact + 1e-4, 2e-4, exact, 0.5]
    accepts("simulate", c.check_simulate_csv(0, csv(header, [row]), 11, "grid", exact))
    rejects("simulate exact", c.check_simulate_csv(
        0, csv(header, [row[:6] + [exact + 2 * c.CLOSED_TOL, 0.5]]), 11, "grid", exact))
    rejects("simulate estimate", c.check_simulate_csv(
        0, csv(header, [row[:4] + [exact + 1.1e-3] + row[5:]]), 11, "grid", exact))
    rejects("simulate exit", c.check_simulate_csv(1, csv(header, [row]), 11, "grid", exact))

    header = ["alpha_over_pi", "info_gain", "is_max"]
    alphas = c.scan_alphas()
    rows = [[float(a) / math.pi, c.info_gain_two_spin_ref(float(a)), 0] for a in alphas]
    a_star, g_star = true_maximum()
    good = rows + [[a_star / math.pi, g_star, 1]]
    accepts("alpha-scan", c.check_alpha_scan_csv(0, csv(header, good)))
    bad = [list(r) for r in good]
    bad[20][1] += 2 * c.ALPHA_SCAN_GAIN_TOL
    rejects("alpha-scan gain", c.check_alpha_scan_csv(0, csv(header, bad)))
    bad = [list(r) for r in good]
    bad[-1][1] -= 2 * c.ALPHA_SCAN_GAIN_TOL
    rejects("alpha-scan maximum", c.check_alpha_scan_csv(0, csv(header, bad)))
    bad = [list(r) for r in good]
    bad[-1][2] = 0
    rejects("alpha-scan flag", c.check_alpha_scan_csv(0, csv(header, bad)))


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    for line in FAILURES:
        print(f"FAIL {line}")
    print(f"{len(tests)} groups, {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
