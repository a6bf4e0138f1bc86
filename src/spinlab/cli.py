"""Command-line front end: tables, verification suite, simulations.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors and when the --out file cannot be written. All tables are CSV by
default (15 significant digits, newline endings) or JSON arrays of flat
objects with the same keys.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import fidelity, infogain, povm
from .codes import (AlphaFamily, alpha_code, coherent_code, minimal_sn,
                    source_density, von_neumann_entropy)
from .numerics import bessel_j0_first_zero
from .su2 import (Direction, HalfInt, X_AXIS, overlap_sq_32, peres_generators,
                  spin_operators, wigner_small_d)


# largest --n for the grid POVM. The ring sampler's fold table, T x 2(N + 1) x
# 2(N // 2 + 1) floats over T = N + 2 rings, grows as N^3 (35 MB at N = 128),
# so the cap bounds memory (its set-up temporaries go one block of rings at a
# time; a 20000-shot run peaks at 104 MB RSS at N = 128); it is also where the
# sampler's harmonics are tested
GRID_MAX_N = 128


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".15g")
    return str(v)


def _json_value(v):
    """v, or None for a non-finite float, which JSON (RFC 8259) cannot write."""
    return None if isinstance(v, (float, np.floating)) and not math.isfinite(v) else v


def _emit(headers: list[str], rows: list[tuple], fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = [{h: _json_value(v) for h, v in zip(headers, row)} for row in rows]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(headers)]
        lines.extend(",".join(_format_value(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        sys.stderr.write(f"spinlab: error: cannot write --out {out}: {err.strerror}\n")
        raise SystemExit(2)


def cmd_table(max_n: int, fmt: str, out: str | None) -> int:
    """Best restricted fidelity next to the parallel and unrestricted benchmarks.

    The restricted column is computed through the polynomial route; the
    verify command pins it against the eigenvalue route.
    """
    headers = ["n", "f_rotation", "f_parallel", "f_optimal"]
    rows = [(n, f, fidelity.fidelity_parallel(n), fidelity.fidelity_optimal(2 ** n))
            for n, f in enumerate(fidelity.max_fidelity_polynomials(max_n).tolist(), start=1)]
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
    # no z-score without a positive finite stderr, as for a single shot
    z = (mean - reference) / stderr if 0.0 < stderr < math.inf else 0.0
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


def _algebra_residual(x, y, z) -> float:
    """Largest entry of [x, y] - i z over the three cyclic commutators."""
    return max(float(np.max(np.abs(a @ b - b @ a - 1j * c)))
               for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))


def _claims(level: str):
    """Yield the verify claims in report order; full adds the slow scans.

    A numeric claim is (name, residual, tolerance) and holds when the residual
    is at most the tolerance; a yes/no claim is (name, truth, detail).
    """
    def routes(ns):
        for n in ns:
            f_eig, code = fidelity.max_fidelity_rotation(n)
            f_poly = fidelity.max_fidelity_polynomial(n)
            f_quad = fidelity.fidelity_quadrature(code)
            yield f"routes_eigen_vs_poly_n{n}", abs(f_eig - f_poly), 1e-12
            yield f"routes_eigen_vs_quad_n{n}", abs(f_eig - f_quad), 1e-9

    def optimal(ds):
        for d in ds:
            got = fidelity.fidelity_quadrature(coherent_code(d))
            yield f"optimal_dim_d{d}", abs(got - fidelity.fidelity_optimal(d)), 1e-10

    def identities(ns):
        for n in ns:
            dev = povm.check_identity(povm.quadrature_povm(minimal_sn(n), n))
            yield f"identity_grid_n{n}", dev, 1e-10

    closed = {
        1: 2.0 / 3.0,
        2: (3.0 + math.sqrt(3.0)) / 6.0,
        3: (6.0 + math.sqrt(6.0)) / 10.0,
        4: (5.0 + math.sqrt(15.0)) / 10.0,
    }
    for n, want in closed.items():
        yield f"fidelity_closed_n{n}", abs(fidelity.max_fidelity_rotation(n)[0] - want), 1e-12
    for n, want in {5: 0.9114, 6: 0.9306, 7: 0.9429}.items():
        yield f"fidelity_printed_n{n}", abs(fidelity.max_fidelity_rotation(n)[0] - want), 5e-5
    yield from routes(range(1, 7))
    yield from optimal(range(2, 9))
    worst = max(abs(fidelity.fidelity_parallel(n) - fidelity.fidelity_optimal(n + 1))
                for n in range(1, 7))
    yield "parallel_is_coherent_case", worst, 1e-15

    values = [fidelity.fidelity_quadrature(alpha_code(AlphaFamily(math.pi / 4.0, beta)))
              for beta in (0.0, 0.9, math.pi / 2.0, 2.5, math.pi, 5.1)]
    yield "split_code_value", max(abs(v - closed[2]) for v in values), 1e-12
    yield "split_code_beta_independent", max(values) - min(values), 1e-12

    octahedron = povm.octahedron_povm()
    yield "identity_pair", povm.check_identity(povm.von_neumann_pair(X_AXIS)), 1e-10
    yield "identity_octahedron", povm.check_identity(octahedron), 1e-10
    got = povm.povm_fidelity_exact(coherent_code(4), octahedron)
    yield "octahedron_fidelity", abs(got - 0.8), 1e-12
    yield from identities(range(1, 4))

    gx, gy, gz = peres_generators()
    yield "peres_algebra", _algebra_residual(gx, gy, gz), 1e-13
    casimir = gx @ gx + gy @ gy + gz @ gz - (15.0 / 4.0) * np.eye(4)
    yield "peres_casimir", float(np.max(np.abs(casimir))), 1e-13
    for twice in (1, 2, 3, 8, 25):
        yield f"spin_algebra_2s{twice}", _algebra_residual(*spin_operators(HalfInt(twice))), 1e-13

    grid = np.linspace(-1.0, 1.0, 1001)
    top = overlap_sq_32(grid, HalfInt(3))
    mid = overlap_sq_32(grid, HalfInt(1))
    angles = np.arccos(grid)
    top_wigner = wigner_small_d(HalfInt(3), HalfInt(3), HalfInt(3), angles) ** 2
    mid_wigner = wigner_small_d(HalfInt(3), HalfInt(1), HalfInt(1), angles) ** 2
    yield "overlap_top_closed_form", float(np.max(np.abs(top - top_wigner))), 1e-12
    yield "overlap_mid_closed_form", float(np.max(np.abs(mid - mid_wigner))), 1e-12
    yield ("overlap_top_monotone", bool(np.all(np.diff(top) > 0.0)),
           "strictly increasing on a 1001-point grid")
    yield ("overlap_mid_nonmonotone", bool(np.any(np.diff(mid) < 0.0)),
           "decreasing somewhere on a 1001-point grid")
    yield "overlap_mid_zero_at_third", overlap_sq_32(1.0 / 3.0, HalfInt(1)), 1e-12
    if level != "full":
        return

    yield from routes([*range(7, 13), 100, 200])
    yield from optimal(range(9, 33))
    # checked one projection at a time, N = 64 (dimension 1089) takes about 10 ms
    yield from identities([*range(4, 7), 16, 64])

    entropies = [
        ("qubit", coherent_code(2), 1.0),
        ("qutrit", coherent_code(3), math.log2(3.0)),
        ("two_qubit", coherent_code(4), 2.0),
        ("split", alpha_code(AlphaFamily(math.pi / 4.0)), 1.0 + 0.5 * math.log2(3.0)),
    ]
    for name, code, want in entropies:
        got = von_neumann_entropy(source_density(code))
        yield f"source_entropy_{name}", abs(got - want), 1e-8

    for n in (1, 2):
        quad = infogain.info_gain_quadrature(coherent_code(2 ** n))
        yield f"infogain_quadrature_n{n}", abs(infogain.info_gain_closed(n) - quad), 1e-12
    # two-spin gain int q log2(q) dx/2 with q = (a x + b)^2, a = sqrt(3) cos(alpha), b = sin(alpha)
    # is [F(b + a) - F(b - a)] / a with F' = u^2 log2|u|, and b^2 log2(b^2) at a = 0
    F = lambda u: u ** 3 * (math.log2(abs(u) or 1.0) / 3.0 - 1.0 / (9.0 * math.log(2.0)))
    errs = []
    for alpha in (0.0, math.pi / 18.0, 0.29908, math.pi / 4.0, 1.2, math.pi / 2.0):
        a, b = math.sqrt(3.0) * math.cos(alpha), math.sin(alpha)
        want = (F(b + a) - F(b - a)) / a if a > 1e-12 else b * b * math.log2(b * b)
        errs.append(abs(infogain.info_gain_quadrature(alpha_code(AlphaFamily(alpha))) - want))
    yield "infogain_two_spin_closed_form", max(errs), 1e-12

    rows = fidelity.asymptotic_table(200)
    fids = [row[1] for row in rows]
    yield ("asymptotic_monotone", all(b > a for a, b in zip(fids, fids[1:])),
           "fidelity strictly increasing to N=200")
    yield "asymptotic_limit", abs(rows[-1][2] / bessel_j0_first_zero() ** 2 - 1.0), 0.03


def run_verify(level: str) -> list[Check]:
    """Cross-module invariant suite; full adds the slow scans."""
    return [Check(name, value, tol) if isinstance(tol, str) else
            Check(name, value <= tol, f"residual {value:.3e} (tolerance {tol:.1e})")
            for name, value, tol in _claims(level)]


def cmd_verify(level: str, out: str | None) -> int:
    checks = run_verify(level)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    failed = [c for c in checks if not c.passed]
    lines.append(f"{len(checks)} checks, {len(checks) - len(failed)} passed, {len(failed)} failed")
    _write("\n".join(lines) + "\n", out)
    return 1 if failed else 0


def _int_in(lo: int, hi: int | None = None):
    """argparse type for an integer in [lo, hi] (no upper end when hi is None)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(
                f"must be >= {lo}" if hi is None else f"must lie in [{lo}, {hi}]")
        return value
    parse.__name__ = "int"  # so a non-integer reads "invalid int value: 'x'", as with type=int
    return parse


def _io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="Fidelities, decoders, and information gain for direction encoding in spins.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="best-fidelity table with benchmarks")
    t.add_argument("--max-n", type=_int_in(1, 1000), default=7, dest="max_n")
    _io_flags(t)
    t.set_defaults(run=lambda args: cmd_table(args.max_n, args.format, args.out))

    v = sub.add_parser("verify", help="cross-route invariant suite")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.add_argument("--out", default=None)
    v.set_defaults(run=lambda args: cmd_verify(args.level, args.out))

    s = sub.add_parser("simulate", help="Monte Carlo decoding run")
    s.add_argument("--n", type=_int_in(1), default=1,
                   help=f"number of spins; --povm grid takes N <= {GRID_MAX_N}, since its "
                        "ring sampler's fold table grows as N^3. The grid is sampled ring "
                        "first, about (N+1)(2N+4) + D operations plus the Wigner-d "
                        "columns per shot (D = tower dimension); the octahedron "
                        "computes all 6 outcome probabilities per shot")
    s.add_argument("--povm", choices=("grid", "octahedron"), default="grid")
    s.add_argument("--shots", type=_int_in(1), default=100000)
    s.add_argument("--seed", type=_int_in(0), default=0)
    _io_flags(s)

    def simulate(args) -> int:
        if args.povm == "grid" and args.n > GRID_MAX_N:
            s.error(f"--povm grid takes --n up to {GRID_MAX_N}")
        if args.povm == "octahedron" and args.n != 2:
            s.error("--povm octahedron decodes the two-qubit coherent code; use --n 2")
        return cmd_simulate(args.n, args.povm, args.shots, args.seed, args.format, args.out)
    s.set_defaults(run=simulate)

    g = sub.add_parser("infogain", help="information-gain tables")
    g.add_argument("--mode", choices=("closed", "quadrature", "alpha-scan"), default="closed")
    _io_flags(g)
    g.set_defaults(run=lambda args: cmd_infogain(args.mode, args.format, args.out))

    a = sub.add_parser("asymptotic", help="large-N scaling scan")
    a.add_argument("--max-n", type=_int_in(10), default=200, dest="max_n")
    _io_flags(a)
    a.set_defaults(run=lambda args: cmd_asymptotic(args.max_n, args.format, args.out))
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process and shared by every :func:`main`
    call: parsing leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
