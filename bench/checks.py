"""Reference values and output checks for the benchmark, computed apart from spinlab.

Nothing here imports spinlab. Every reference comes from a closed form or
from scipy (orthogonal-polynomial roots, the first J0 zero, adaptive 1-D
quadrature), so a check passes only when the program agrees with a
computation that shares none of its code. Each check returns a list of
problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, special

LOG2E = 1.0 / math.log(2.0)
XI_SQ = float(special.jn_zeros(0, 1)[0]) ** 2

# Agreement observed at this commit is quoted next to each tolerance.
ZERO_TOL = 5e-16         # largest zeros vs scipy: <= 2.3e-16 up to degree 1001
EIGEN_TOL = 1e-12        # eigen route vs scipy zero: <= 1.6e-14 up to N = 2000
POLY_TOL = 1e-15         # polynomial route vs scipy zero: <= 1.2e-16
QUAD_TOL = 1e-9          # quadrature route up to N = 64: <= 2e-12
CLOSED_TOL = 1e-12       # N = 1..4 closed forms, split code at any beta
COHERENT_TOL = 1e-10     # d/(d+1) up to d = 128: <= 3.4e-13
DIRECTION_TOL = 1e-12    # fidelity at any decoder direction: varies < 1e-13
COHERENT_GAIN_TOL = 1e-9  # coherent info gain vs closed form: <= 5.3e-10 for d = 2..128
# The adaptive info-gain rule stops when Gauss-Legendre orders 64 and 96 (or
# 128 and 192, ...) agree to 1e-8, which does not bound its error: at some
# alpha the 96-point rule is off by up to 9.1e-6 (largest over 400001 alphas
# in [0, pi/2]), and 5.5% of alphas miss 1e-8. Fixed inputs get a tolerance
# from their own observed error; seed-drawn alphas need one above that bound.
ALPHA_SCAN_GAIN_TOL = 3e-7  # 64 alpha-scan points: <= 1.35e-7; maximize_alpha: 2.9e-9
TWO_SPIN_GAIN_TOL = 2e-5  # seed-drawn alpha: <= 7.9e-6 over 20000 alphas
TABLE_TOL = 1e-14        # closed-form table columns printed to 15 digits
MC_SIGMAS = 5.0          # Monte Carlo estimate within this many standard errors

CLOSED_FORMS = {
    1: 2.0 / 3.0,
    2: (3.0 + math.sqrt(3.0)) / 6.0,
    3: (6.0 + math.sqrt(6.0)) / 10.0,
    4: (5.0 + math.sqrt(15.0)) / 10.0,
}
SPLIT_VALUE = (3.0 + math.sqrt(3.0)) / 6.0


def close(name: str, got: float, want: float, tol: float) -> list[str]:
    err = abs(float(got) - float(want))
    if err <= tol:  # also False for nan
        return []
    return [f"{name}: got {got!r}, want {want!r} (|diff| {err:.3e} > {tol:.1e})"]


@lru_cache(maxsize=None)
def largest_zero_ref(kind: str, degree: int) -> float:
    """Largest root of P_l (legendre) or P_l^(0,1) (jacobi01), from scipy."""
    if kind == "legendre":
        roots = special.roots_legendre(degree)[0]
    elif kind == "jacobi01":
        roots = special.roots_jacobi(degree, 0.0, 1.0)[0]
    else:
        raise ValueError(f"unknown family {kind!r}")
    return float(np.max(roots))


def zero_of(nspins: int) -> tuple[str, int]:
    """Polynomial family and degree whose largest zero fixes the N-spin optimum."""
    if nspins % 2 == 0:
        return "legendre", nspins // 2 + 1
    return "jacobi01", (nspins + 1) // 2


def fidelity_ref(nspins: int) -> float:
    """Best restricted fidelity (1 + x_max) / 2 from the scipy root."""
    return (1.0 + largest_zero_ref(*zero_of(nspins))) / 2.0


def info_gain_coherent_ref(d: int) -> float:
    return math.log2(d) - (1.0 - 1.0 / d) * LOG2E


@lru_cache(maxsize=None)
def info_gain_two_spin_ref(alpha: float) -> float:
    """Gain of cos(a)|1,0;n> + sin(a)e^{ib}|0,0> under its matched decoder.

    The decoder overlap depends on x = cos(theta) only:
    q(x) = (sqrt(3) cos(a) x + sin(a))^2, and the gain is
    (1/2) int_{-1}^{1} q log2 q dx. The kink at the zero of q is passed to
    quad as a break point. The result does not depend on beta.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)

    def integrand(x: float) -> float:
        q = (math.sqrt(3.0) * ca * x + sa) ** 2
        return q * math.log2(q) if q > 0.0 else 0.0

    points = []
    if ca > 0.0:
        x0 = -sa / (math.sqrt(3.0) * ca)
        if -1.0 < x0 < 1.0:
            points.append(x0)
    value, _ = integrate.quad(integrand, -1.0, 1.0, points=points or None,
                              epsabs=1e-13, epsrel=1e-13, limit=200)
    return 0.5 * value


def scan_alphas() -> np.ndarray:
    """The 64 scan points of the two-spin family, 0 to pi/2 inclusive."""
    return np.linspace(0.0, math.pi / 2.0, 64)


# ---- checks on single outputs ---------------------------------------------

def check_zero(kind: str, degree: int, got: float) -> list[str]:
    return close(f"largest_zero({kind}, {degree})", got,
                 largest_zero_ref(kind, degree), ZERO_TOL)


def check_routes(n: int, f_eigen: float, f_poly: float, f_quad: float | None) -> list[str]:
    """Eigen, polynomial and (optionally) quadrature fidelity of the N-spin optimum."""
    want = fidelity_ref(n)
    out = close(f"eigen route N={n}", f_eigen, want, EIGEN_TOL)
    out += close(f"polynomial route N={n}", f_poly, want, POLY_TOL)
    if f_quad is not None:
        out += close(f"quadrature route N={n}", f_quad, want, QUAD_TOL)
    if n in CLOSED_FORMS:
        for route, got in (("eigen", f_eigen), ("polynomial", f_poly), ("quadrature", f_quad)):
            if got is not None:
                out += close(f"{route} closed form N={n}", got, CLOSED_FORMS[n], CLOSED_TOL)
    return out


def check_coherent(d: int, got: float) -> list[str]:
    return close(f"coherent fidelity d={d}", got, d / (d + 1.0), COHERENT_TOL)


def check_split(beta: float, got: float) -> list[str]:
    return close(f"split code beta={beta:.6f}", got, SPLIT_VALUE, CLOSED_TOL)


def check_direction(n: int, direction: tuple[float, float], got: float) -> list[str]:
    theta, phi = direction
    return close(f"decoder direction ({theta:.4f}, {phi:.4f}) N={n}", got,
                 fidelity_ref(n), DIRECTION_TOL)


def check_scaled_deficit(n: int, f: float) -> list[str]:
    """N^2 (1 - F) lies below xi^2, within the leading 6 xi^2 / N of it."""
    gap = XI_SQ - n * n * (1.0 - f)
    if 0.0 < gap < 6.0 * XI_SQ / n:
        return []
    return [f"scaled deficit N={n}: xi^2 - N^2(1-F) = {gap!r} outside (0, {6.0 * XI_SQ / n:.6g})"]


def check_increasing(name: str, values) -> list[str]:
    vals = [float(v) for v in values]
    bad = [i for i in range(1, len(vals)) if not vals[i] > vals[i - 1]]
    if bad:
        return [f"{name}: not strictly increasing at position {bad[0]}"]
    return []


def check_info_gain_coherent(d: int, got: float) -> list[str]:
    return close(f"info gain coherent d={d}", got, info_gain_coherent_ref(d),
                 COHERENT_GAIN_TOL)


def check_info_gain_two_spin(alpha: float, beta: float, got: float) -> list[str]:
    return close(f"info gain two-spin alpha={alpha:.6f} beta={beta:.6f}", got,
                 info_gain_two_spin_ref(float(alpha)), TWO_SPIN_GAIN_TOL)


def check_maximum(alpha_star: float, gain_star: float, scanned) -> list[str]:
    """The located maximum is interior, matches scipy there, and beats every scanned gain."""
    out = []
    if not 0.0 < alpha_star < math.pi / 2.0:
        out.append(f"maximize_alpha: alpha {alpha_star!r} not interior")
    out += close(f"maximize_alpha gain at alpha={alpha_star:.6f}", gain_star,
                 info_gain_two_spin_ref(float(alpha_star)), ALPHA_SCAN_GAIN_TOL)
    top = max(float(g) for g in scanned)
    if not gain_star >= top:
        out.append(f"maximize_alpha: gain {gain_star!r} below a scanned gain {top!r}")
    return out


def check_monte_carlo(name: str, estimate: float, stderr: float, exact: float) -> list[str]:
    if stderr > 0.0 and abs(estimate - exact) <= MC_SIGMAS * stderr:
        return []
    return [f"{name}: estimate {estimate!r} +/- {stderr!r} is more than "
            f"{MC_SIGMAS:g} standard errors from {exact!r}"]


def check_identical(name: str, first, second) -> list[str]:
    if first == second:
        return []
    return [f"{name}: repeated seed gave {second!r}, first run gave {first!r}"]


def check_exit(name: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{name}: exit code {code}"]


# ---- checks on CLI output text ----------------------------------------------

def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_verify_report(code: int, text: str) -> list[str]:
    """`spinlab verify` exits 0 and every check line reads PASS."""
    out = check_exit("verify", code)
    lines = text.splitlines()
    if len(lines) < 2:
        return out + ["verify: report has no check lines"]
    checks, summary = lines[:-1], lines[-1]
    failing = [line for line in checks if not line.startswith("PASS ")]
    if failing:
        out.append(f"verify: {len(failing)} lines not PASS, first: {failing[0]!r}")
    want = f"{len(checks)} checks, {len(checks)} passed, 0 failed"
    if summary != want:
        out.append(f"verify: summary {summary!r}, want {want!r}")
    return out


def check_table_csv(code: int, text: str, max_n: int) -> list[str]:
    """`spinlab table`: the restricted column rises and matches the closed
    forms (N = 1..4) and scipy roots on fixed rows; the parallel and optimal
    columns match (N+1)/(N+2) and 2^N/(2^N+1)."""
    out = check_exit("table", code)
    header, rows = _csv(text)
    if header != ["n", "f_rotation", "f_parallel", "f_optimal"] or len(rows) != max_n:
        return out + [f"table: header {header!r} with {len(rows)} rows, want {max_n}"]
    frot = []
    for row in rows:
        n = int(row[0])
        f_rot, f_par, f_opt = (float(v) for v in row[1:])
        frot.append(f_rot)
        out += close(f"table f_parallel N={n}", f_par, (n + 1.0) / (n + 2.0), TABLE_TOL)
        out += close(f"table f_optimal N={n}", f_opt, 1.0 - 1.0 / (2.0 ** n + 1.0), TABLE_TOL)
        if n in CLOSED_FORMS:
            out += close(f"table closed form N={n}", f_rot, CLOSED_FORMS[n], CLOSED_TOL)
    out += _spot_fidelities("table", frot)
    out += check_increasing("table f_rotation", frot)
    return out


def _spot_fidelities(name: str, fids: list[float]) -> list[str]:
    """Fidelities on a fixed spread of rows against scipy roots; all 1000 rows
    would take scipy about 30 s."""
    out = []
    count = len(fids)
    for n in sorted({1, 2, 3, 4, 5, 17, 64, 101, 250, 499, 500, count} & set(range(1, count + 1))):
        out += close(f"{name} fidelity N={n}", fids[n - 1], fidelity_ref(n), POLY_TOL)
    return out


def check_asymptotic_csv(code: int, text: str, max_n: int) -> list[str]:
    """`spinlab asymptotic`: N^2(1-F) rises toward xi^2 from below on every row."""
    out = check_exit("asymptotic", code)
    header, rows = _csv(text)
    if header != ["n", "fidelity", "scaled_deficit", "xi_squared"] or len(rows) != max_n:
        return out + [f"asymptotic: header {header!r} with {len(rows)} rows, want {max_n}"]
    fids, scaled = [], []
    for row in rows:
        n, f, s, xi_sq = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        fids.append(f)
        scaled.append(s)
        out += close(f"asymptotic xi^2 N={n}", xi_sq, XI_SQ, TABLE_TOL)
        out += check_scaled_deficit(n, f)
    out += check_increasing("asymptotic scaled deficit", scaled)
    out += _spot_fidelities("asymptotic", fids)
    return out


def check_simulate_csv(code: int, text: str, n: int, povm: str, exact: float) -> list[str]:
    """`spinlab simulate`: exact column right, estimate within MC_SIGMAS errors of it."""
    out = check_exit("simulate", code)
    header, rows = _csv(text)
    want = ["n", "povm", "shots", "seed", "f_hat", "stderr", "f_exact", "z_score"]
    if header != want or len(rows) != 1:
        return out + [f"simulate: header {header!r} with {len(rows)} rows"]
    row = rows[0]
    if int(row[0]) != n or row[1] != povm:
        out.append(f"simulate: row {row!r} is not n={n} povm={povm}")
    f_hat, stderr, f_exact = float(row[4]), float(row[5]), float(row[6])
    out += close("simulate f_exact", f_exact, exact, CLOSED_TOL)
    out += check_monte_carlo("simulate cli", f_hat, stderr, exact)
    return out


def check_alpha_scan_csv(code: int, text: str) -> list[str]:
    """`spinlab infogain --mode alpha-scan`: 64 scanned gains vs scipy, then
    a maximum row whose gain is at least every scanned gain."""
    out = check_exit("infogain alpha-scan", code)
    header, rows = _csv(text)
    if header != ["alpha_over_pi", "info_gain", "is_max"] or len(rows) != 65:
        return out + [f"alpha-scan: header {header!r} with {len(rows)} rows, want 65"]
    scanned = []
    for row, alpha in zip(rows[:-1], scan_alphas()):
        a_pi, gain, flag = float(row[0]), float(row[1]), row[2]
        out += close("alpha-scan alpha/pi", a_pi, alpha / math.pi, TABLE_TOL)
        out += close(f"alpha-scan gain alpha={alpha:.6f}", gain,
                     info_gain_two_spin_ref(float(alpha)), ALPHA_SCAN_GAIN_TOL)
        if flag != "0":
            out.append(f"alpha-scan: scanned row flagged {flag!r}")
        scanned.append(gain)
    last = rows[-1]
    if last[2] != "1":
        out.append(f"alpha-scan: last row flagged {last[2]!r}, want 1")
    out += check_maximum(float(last[0]) * math.pi, float(last[1]), scanned)
    return out
