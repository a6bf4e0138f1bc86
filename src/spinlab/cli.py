"""Command-line front end: tables, verification suite, simulations.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors. All tables are CSV by default (15 significant digits, newline
endings) or JSON arrays of flat objects with the same keys.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fidelity, infogain, povm
from .codes import (AlphaFamily, alpha_code, coherent_code, minimal_sn,
                    source_density, von_neumann_entropy)
from .numerics import bessel_j0_first_zero
from .su2 import (Direction, HalfInt, X_AXIS, overlap_sq_32, peres_generators,
                  spin_operators, wigner_small_d)


# largest --n for the grid POVM, set by its state array alone: (N+2)^2 outcomes
# over a (N/2+1)^2-dimensional tower, 4356 x 1089 complex (about 76 MB) at
# N = 64. The ring-first sampler holds O(N^2) values per shot, not O(N^4)
GRID_MAX_N = 64


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".15g")
    return str(v)


def _emit(headers: list[str], rows: list[tuple], fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = [dict(zip(headers, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(headers)]
        lines.extend(",".join(_format_value(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_table(max_n: int, fmt: str, out: str | None) -> int:
    """Best restricted fidelity next to the parallel and unrestricted benchmarks.

    The restricted column is computed through the polynomial route; the
    verify command pins it against the eigenvalue route.
    """
    headers = ["n", "f_rotation", "f_parallel", "f_optimal"]
    rows = []
    for n in range(1, max_n + 1):
        rows.append((n,
                     fidelity.max_fidelity_polynomial(n),
                     fidelity.fidelity_parallel(n),
                     fidelity.fidelity_optimal(2 ** n)))
    _emit(headers, rows, fmt, out)
    return 0


def cmd_simulate(n: int, povm_kind: str, shots: int, seed: int,
                 fmt: str, out: str | None) -> int:
    if povm_kind == "octahedron":
        code = coherent_code(4)
        meas = povm.octahedron_povm()
        reference = fidelity.fidelity_optimal(4)
    else:
        reference, code = fidelity.max_fidelity_rotation(n)
        meas = povm.quadrature_povm(minimal_sn(n), n)
    mean, stderr = povm.simulate(code, meas, shots, seed)
    z = 0.0 if stderr == 0.0 else (mean - reference) / stderr
    headers = ["n", "povm", "shots", "seed", "f_hat", "stderr", "f_exact", "z_score"]
    _emit(headers, [(n, povm_kind, shots, seed, mean, stderr, reference, z)], fmt, out)
    return 0


def cmd_infogain(mode: str, fmt: str, out: str | None) -> int:
    if mode == "closed":
        headers = ["n", "info_gain"]
        rows = [(n, infogain.info_gain_closed(n)) for n in range(1, 9)]
    elif mode == "quadrature":
        headers = ["n", "closed", "quadrature", "abs_diff"]
        rows = []
        for n in range(1, 4):
            closed = infogain.info_gain_closed(n)
            quad = infogain.info_gain_quadrature(coherent_code(2 ** n))
            rows.append((n, closed, quad, abs(closed - quad)))
    else:
        headers = ["alpha_over_pi", "info_gain", "is_max"]
        alphas, gains = infogain.scan_alpha()
        rows = [(float(alpha) / math.pi, gain, 0) for alpha, gain in zip(alphas, gains)]
        best_alpha, best_gain = infogain.refine_alpha(alphas, gains)
        rows.append((best_alpha / math.pi, best_gain, 1))
    _emit(headers, rows, fmt, out)
    return 0


def cmd_asymptotic(max_n: int, fmt: str, out: str | None) -> int:
    xi_sq = bessel_j0_first_zero() ** 2
    headers = ["n", "fidelity", "scaled_deficit", "xi_squared"]
    rows = [(n, f, deficit, xi_sq) for n, f, deficit in fidelity.asymptotic_table(max_n)]
    _emit(headers, rows, fmt, out)
    return 0


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def _residual(name: str, value: float, tol: float) -> Check:
    return Check(name, value <= tol, f"residual {value:.3e} (tolerance {tol:.1e})")


def _checks_fidelity_values() -> list[Check]:
    closed = {
        1: 2.0 / 3.0,
        2: (3.0 + math.sqrt(3.0)) / 6.0,
        3: (6.0 + math.sqrt(6.0)) / 10.0,
        4: (5.0 + math.sqrt(15.0)) / 10.0,
    }
    printed = {5: 0.9114, 6: 0.9306, 7: 0.9429}
    out = []
    for n, want in closed.items():
        got, _ = fidelity.max_fidelity_rotation(n)
        out.append(_residual(f"fidelity_closed_n{n}", abs(got - want), 1e-12))
    for n, want in printed.items():
        got, _ = fidelity.max_fidelity_rotation(n)
        out.append(_residual(f"fidelity_printed_n{n}", abs(got - want), 5e-5))
    return out


def _checks_routes(ns) -> list[Check]:
    out = []
    for n in ns:
        f_eig, code = fidelity.max_fidelity_rotation(n)
        f_poly = fidelity.max_fidelity_polynomial(n)
        f_quad = fidelity.fidelity_quadrature(code)
        out.append(_residual(f"routes_eigen_vs_poly_n{n}", abs(f_eig - f_poly), 1e-12))
        out.append(_residual(f"routes_eigen_vs_quad_n{n}", abs(f_eig - f_quad), 1e-9))
    return out


def _checks_optimal(d_lo: int, d_hi: int) -> list[Check]:
    out = []
    for d in range(d_lo, d_hi + 1):
        got = fidelity.fidelity_quadrature(coherent_code(d))
        out.append(_residual(f"optimal_dim_d{d}", abs(got - fidelity.fidelity_optimal(d)), 1e-10))
    return out


def _checks_parallel() -> list[Check]:
    worst = max(abs(fidelity.fidelity_parallel(n) - fidelity.fidelity_optimal(n + 1))
                for n in range(1, 7))
    return [_residual("parallel_is_coherent_case", worst, 1e-15)]


def _checks_split_code() -> list[Check]:
    want = (3.0 + math.sqrt(3.0)) / 6.0
    values = [fidelity.fidelity_quadrature(alpha_code(AlphaFamily(math.pi / 4.0, beta)))
              for beta in (0.0, 0.9, math.pi / 2.0, 2.5, math.pi, 5.1)]
    worst = max(abs(v - want) for v in values)
    spread = max(values) - min(values)
    return [_residual("split_code_value", worst, 1e-12),
            _residual("split_code_beta_independent", spread, 1e-12)]


def _checks_identities(ns) -> list[Check]:
    out = []
    for n in ns:
        dev = povm.check_identity(povm.quadrature_povm(minimal_sn(n), n))
        out.append(_residual(f"identity_grid_n{n}", dev, 1e-10))
    return out


def _checks_fixed_povms() -> list[Check]:
    out = [_residual("identity_pair", povm.check_identity(povm.von_neumann_pair(X_AXIS)), 1e-10),
           _residual("identity_octahedron", povm.check_identity(povm.octahedron_povm()), 1e-10)]
    got = povm.povm_fidelity_exact(coherent_code(4), povm.octahedron_povm())
    out.append(_residual("octahedron_fidelity", abs(got - 0.8), 1e-12))
    return out


def _algebra_residual(x, y, z) -> float:
    """Largest entry of [x, y] - i z over the three cyclic commutators."""
    return max(float(np.max(np.abs(a @ b - b @ a - 1j * c)))
               for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))


def _checks_structure() -> list[Check]:
    out = []
    gx, gy, gz = peres_generators()
    out.append(_residual("peres_algebra", _algebra_residual(gx, gy, gz), 1e-13))
    casimir = gx @ gx + gy @ gy + gz @ gz - (15.0 / 4.0) * np.eye(4)
    out.append(_residual("peres_casimir", float(np.max(np.abs(casimir))), 1e-13))
    for twice in (1, 2, 3, 8, 25):
        out.append(_residual(f"spin_algebra_2s{twice}",
                             _algebra_residual(*spin_operators(HalfInt(twice))), 1e-13))
    return out


def _checks_overlaps() -> list[Check]:
    grid = np.linspace(-1.0, 1.0, 1001)
    top = np.array([overlap_sq_32(c, HalfInt(3)) for c in grid])
    mid = np.array([overlap_sq_32(c, HalfInt(1)) for c in grid])
    angles = np.arccos(grid)
    top_wigner = wigner_small_d(HalfInt(3), HalfInt(3), HalfInt(3), angles) ** 2
    mid_wigner = wigner_small_d(HalfInt(3), HalfInt(1), HalfInt(1), angles) ** 2
    out = [
        _residual("overlap_top_closed_form", float(np.max(np.abs(top - top_wigner))), 1e-12),
        _residual("overlap_mid_closed_form", float(np.max(np.abs(mid - mid_wigner))), 1e-12),
        Check("overlap_top_monotone", bool(np.all(np.diff(top) > 0.0)),
              "strictly increasing on a 1001-point grid"),
        Check("overlap_mid_nonmonotone", bool(np.any(np.diff(mid) < 0.0)),
              "decreasing somewhere on a 1001-point grid"),
        _residual("overlap_mid_zero_at_third", overlap_sq_32(1.0 / 3.0, HalfInt(1)), 1e-12),
    ]
    return out


def _checks_entropies() -> list[Check]:
    targets = [
        ("source_entropy_qubit", coherent_code(2), 1.0),
        ("source_entropy_qutrit", coherent_code(3), math.log2(3.0)),
        ("source_entropy_two_qubit", coherent_code(4), 2.0),
        ("source_entropy_split", alpha_code(AlphaFamily(math.pi / 4.0)),
         1.0 + 0.5 * math.log2(3.0)),
    ]
    return [_residual(name, abs(von_neumann_entropy(source_density(code)) - want), 1e-8)
            for name, code, want in targets]


def _checks_infogain() -> list[Check]:
    out = []
    for n in (1, 2):
        closed = infogain.info_gain_closed(n)
        quad = infogain.info_gain_quadrature(coherent_code(2 ** n))
        out.append(_residual(f"infogain_quadrature_n{n}", abs(closed - quad), 1e-12))
    # two-spin gain int q log2(q) dx/2 with q = (a x + b)^2, a = sqrt(3) cos(alpha), b = sin(alpha)
    # is [F(b + a) - F(b - a)] / a with F' = u^2 log2|u|, and b^2 log2(b^2) at a = 0
    F = lambda u: u ** 3 * (math.log2(abs(u) or 1.0) / 3.0 - 1.0 / (9.0 * math.log(2.0)))
    errs = []
    for alpha in (0.0, math.pi / 18.0, 0.29908, math.pi / 4.0, 1.2, math.pi / 2.0):
        a, b = math.sqrt(3.0) * math.cos(alpha), math.sin(alpha)
        want = (F(b + a) - F(b - a)) / a if a > 1e-12 else b * b * math.log2(b * b)
        errs.append(abs(infogain.info_gain_quadrature(alpha_code(AlphaFamily(alpha))) - want))
    return out + [_residual("infogain_two_spin_closed_form", max(errs), 1e-12)]


def _checks_asymptotic() -> list[Check]:
    rows = fidelity.asymptotic_table(200)
    fids = [row[1] for row in rows]
    monotone = all(b > a for a, b in zip(fids, fids[1:]))
    xi_sq = bessel_j0_first_zero() ** 2
    rel = abs(rows[-1][2] / xi_sq - 1.0)
    return [Check("asymptotic_monotone", monotone, "fidelity strictly increasing to N=200"),
            _residual("asymptotic_limit", rel, 0.03)]


def run_verify(level: str) -> list[Check]:
    """Cross-module invariant suite; full adds the slow scans."""
    checks = []
    checks += _checks_fidelity_values()
    checks += _checks_routes(range(1, 7))
    checks += _checks_optimal(2, 8)
    checks += _checks_parallel()
    checks += _checks_split_code()
    checks += _checks_fixed_povms()
    checks += _checks_identities(range(1, 4))
    checks += _checks_structure()
    checks += _checks_overlaps()
    if level == "full":
        checks += _checks_routes([*range(7, 13), 100, 200])
        checks += _checks_optimal(9, 32)
        # N = 16 (dimension 81) only: larger grids would lengthen every full run
        checks += _checks_identities([*range(4, 7), 16])
        checks += _checks_entropies()
        checks += _checks_infogain()
        checks += _checks_asymptotic()
    return checks


def cmd_verify(level: str, out: str | None) -> int:
    checks = run_verify(level)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    failed = [c for c in checks if not c.passed]
    lines.append(f"{len(checks)} checks, {len(checks) - len(failed)} passed, {len(failed)} failed")
    _write("\n".join(lines) + "\n", out)
    return 1 if failed else 0


def _io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="Fidelities, decoders, and information gain for direction encoding in spins.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="best-fidelity table with benchmarks")
    t.add_argument("--max-n", type=int, default=7, dest="max_n")
    _io_flags(t)

    v = sub.add_parser("verify", help="cross-route invariant suite")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.add_argument("--out", default=None)

    s = sub.add_parser("simulate", help="Monte Carlo decoding run")
    s.add_argument("--n", type=int, default=1,
                   help=f"number of spins; --povm grid takes N <= {GRID_MAX_N}, since the "
                        "grid POVM's state array grows as N^4. The grid is sampled ring "
                        "first, about (N+1)(2N+4) + D operations plus the Wigner-d "
                        "columns per shot (D = tower dimension); the octahedron "
                        "computes all 6 outcome probabilities per shot")
    s.add_argument("--povm", choices=("grid", "octahedron"), default="grid")
    s.add_argument("--shots", type=int, default=100000)
    s.add_argument("--seed", type=int, default=0)
    _io_flags(s)

    g = sub.add_parser("infogain", help="information-gain tables")
    g.add_argument("--mode", choices=("closed", "quadrature", "alpha-scan"), default="closed")
    _io_flags(g)

    a = sub.add_parser("asymptotic", help="large-N scaling scan")
    a.add_argument("--max-n", type=int, default=200, dest="max_n")
    _io_flags(a)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table":
        if not 1 <= args.max_n <= 1000:
            parser.error("--max-n must lie in [1, 1000]")
        return cmd_table(args.max_n, args.format, args.out)
    if args.command == "verify":
        return cmd_verify(args.level, args.out)
    if args.command == "simulate":
        if args.n < 1:
            parser.error("--n must be >= 1")
        if args.shots < 1:
            parser.error("--shots must be >= 1")
        if args.povm == "grid" and args.n > GRID_MAX_N:
            parser.error(f"--povm grid takes --n up to {GRID_MAX_N}")
        if args.povm == "octahedron" and args.n != 2:
            parser.error("--povm octahedron decodes the two-qubit coherent code; use --n 2")
        return cmd_simulate(args.n, args.povm, args.shots, args.seed,
                            args.format, args.out)
    if args.command == "infogain":
        return cmd_infogain(args.mode, args.format, args.out)
    if args.command == "asymptotic":
        if args.max_n < 10:
            parser.error("--max-n must be >= 10")
        return cmd_asymptotic(args.max_n, args.format, args.out)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
