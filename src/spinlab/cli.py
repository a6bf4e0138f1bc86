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
from functools import cache

import numpy as np

from . import claims, fidelity, infogain, povm
from .codes import coherent_code, minimal_sn
from .numerics import bessel_j0_first_zero


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


def cmd_verify(level: str, out: str | None) -> int:
    """Check the claims of one level (:mod:`spinlab.claims`), one report line each."""
    run = claims.Run()
    results = [(c.name, *c.check(run)) for c in claims.at_level(level)]
    lines = [f"{'PASS' if passed else 'FAIL'} {name}: {detail}" for name, passed, detail in results]
    failed = sum(not passed for _, passed, _ in results)
    lines.append(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
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
    v.add_argument("--level", choices=claims.LEVELS, default="fast")
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
