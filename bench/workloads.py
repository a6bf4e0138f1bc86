"""The benchmark's four workloads, each a fixed list of operations drawn from a seed.

Building a workload is its set-up: it draws the inputs, builds the codes
and POVMs the operations need and runs a small untimed warm-up. Each
operation calls spinlab through its public functions or through
``spinlab.cli.main(argv)`` with ``--out`` inside a temporary directory.

Sizes that set an operation's cost (N, d) are drawn within narrow strata,
so every seed gives a list of about the same cost, and the seed mainly
moves the parameters that do not change cost (angles, directions, Monte
Carlo seeds). That keeps the end-to-end figures steady across seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from spinlab import cli, codes, fidelity, infogain, numerics, povm, su2


@dataclass(frozen=True)
class Op:
    """One timed operation; ``check`` turns its output into a list of problems."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    twin: str | None = None  # label of an earlier op whose output must be identical


@dataclass
class Workload:
    ops: list[Op]
    setup_problems: list[str] = field(default_factory=list)
    finish: Callable[[dict[str, list]], list[str]] = lambda results: []


def _strata(rng, lo: int, hi: int, count: int) -> list[int]:
    """One integer drawn from each of ``count`` equal-width strata of [lo, hi]."""
    edges = np.linspace(lo, hi + 1, count + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        a, b = int(math.ceil(a)), int(math.ceil(b)) - 1
        out.append(int(rng.integers(a, b + 1)))
    return out


def _cli(argv: list[str], out_path: str) -> tuple[int, str]:
    """Run ``spinlab <argv> --out out_path`` in-process; return exit code and output."""
    try:
        code = cli.main(argv + ["--out", out_path])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    with open(out_path, encoding="utf-8") as fh:
        return code, fh.read()


# ---- routes ---------------------------------------------------------------------

ROUTE_MAX_N = 64         # quadrature drifts from the eigen route above N ~ 80
DIRECTION_N = 20
DIRECTION_OPS = 8


def routes(rng, tmp: str) -> Workload:
    """Three fidelity routes at N in 1..64, coherent and split codes, decoder
    directions, and ``spinlab verify --level full``."""
    ns = [1, 2, 3, 4] + _strata(rng, 5, ROUTE_MAX_N - 1, 15) + [ROUTE_MAX_N]
    ds = _strata(rng, 2, 128, 8)
    betas = rng.uniform(0.0, 2.0 * math.pi, 4)
    cos_t = rng.uniform(-1.0, 1.0, DIRECTION_OPS)
    phis = rng.uniform(0.0, 2.0 * math.pi, DIRECTION_OPS)

    def route(n):
        f_eig, code = fidelity.max_fidelity_rotation(n)
        return f_eig, fidelity.max_fidelity_polynomial(n), fidelity.fidelity_quadrature(code)

    ops = [Op(f"route N={n}", lambda n=n: route(n),
              lambda out, n=n: checks.check_routes(n, *out)) for n in ns]
    for d in ds:
        code = codes.coherent_code(d)
        ops.append(Op(f"coherent d={d}", lambda code=code: fidelity.fidelity_quadrature(code),
                      lambda out, d=d: checks.check_coherent(d, out)))
    for beta in betas:
        code = codes.alpha_code(codes.AlphaFamily(math.pi / 4.0, float(beta)))
        ops.append(Op(f"split beta={beta:.6f}",
                      lambda code=code: fidelity.fidelity_quadrature(code),
                      lambda out, b=float(beta): checks.check_split(b, out)))
    _, dir_code = fidelity.max_fidelity_rotation(DIRECTION_N)
    for c, phi in zip(cos_t, phis):
        direction = su2.Direction(math.acos(c), float(phi))
        key = (direction.theta, direction.phi)
        ops.append(Op(f"direction {key[0]:.6f},{key[1]:.6f}",
                      lambda m=direction: fidelity.fidelity_quadrature(
                          dir_code, decoder_direction=m),
                      lambda out, key=key: checks.check_direction(DIRECTION_N, key, out)))
    verify_out = os.path.join(tmp, "verify.txt")
    ops.append(Op("cli verify --level full",
                  lambda: _cli(["verify", "--level", "full"], verify_out),
                  lambda out: checks.check_verify_report(*out)))
    route(1)  # warm-up
    return Workload(ops)


# ---- sampling -------------------------------------------------------------------

GRID_NS = (10, 11, 12)
GRID_SHOTS = 1 << 17      # one full sampling chunk of povm.simulate
OCTAHEDRON_SHOTS = 10 ** 6
CLI_GRID_N = 11
IDENTITY_TOL = 1e-10


def sampling(rng, tmp: str) -> Workload:
    """Seeded Monte Carlo decoding: grid POVMs at N = 10..12, the octahedron
    with a repeated seed, and ``spinlab simulate`` in-process."""
    problems = []
    grid = {}
    for n in GRID_NS:
        _, code = fidelity.max_fidelity_rotation(n)
        meas = povm.quadrature_povm(codes.minimal_sn(n), n)
        dev = povm.check_identity(meas)
        if not dev <= IDENTITY_TOL:
            problems.append(f"grid POVM N={n}: identity deviation {dev:.3e}")
        problems += checks.close(f"grid POVM exact fidelity N={n}",
                                 povm.povm_fidelity_exact(code, meas),
                                 checks.fidelity_ref(n), checks.CLOSED_TOL)
        grid[n] = (code, meas)
    octa_code, octa = codes.coherent_code(4), povm.octahedron_povm()
    dev = povm.check_identity(octa)
    if not dev <= IDENTITY_TOL:
        problems.append(f"octahedron: identity deviation {dev:.3e}")
    problems += checks.close("octahedron exact fidelity",
                             povm.povm_fidelity_exact(octa_code, octa), 0.8, checks.CLOSED_TOL)

    seeds = [int(s) for s in rng.integers(0, 2 ** 31, len(GRID_NS) + 2)]
    ops = []
    for n, seed in zip(GRID_NS, seeds):
        code, meas = grid[n]
        ops.append(Op(f"grid N={n} seed={seed}",
                      lambda code=code, meas=meas, seed=seed: povm.simulate(
                          code, meas, GRID_SHOTS, seed),
                      lambda out, n=n: checks.check_monte_carlo(
                          f"grid N={n}", *out, checks.fidelity_ref(n))))
    octa_seed, cli_seed = seeds[-2], seeds[-1]
    octa_label = f"octahedron seed={octa_seed}"
    for label, twin in ((octa_label, None), (octa_label + " repeat", octa_label)):
        ops.append(Op(label,
                      lambda: povm.simulate(octa_code, octa, OCTAHEDRON_SHOTS, octa_seed),
                      lambda out: checks.check_monte_carlo("octahedron", *out, 0.8),
                      twin=twin))
    sim_out = os.path.join(tmp, "simulate.csv")
    argv = ["simulate", "--n", str(CLI_GRID_N), "--povm", "grid",
            "--shots", str(GRID_SHOTS), "--seed", str(cli_seed)]
    ops.append(Op(f"cli simulate N={CLI_GRID_N} seed={cli_seed}",
                  lambda: _cli(argv, sim_out),
                  lambda out: checks.check_simulate_csv(
                      *out, CLI_GRID_N, "grid", checks.fidelity_ref(CLI_GRID_N))))
    povm.simulate(*grid[GRID_NS[0]], 1000, 0)  # warm-up
    return Workload(ops, problems)


# ---- scan -----------------------------------------------------------------------

SCAN_STRATA = 48
ASYMPTOTIC_MAX_N = 1000
TABLE_MAX_N = 1000


def scan(rng, tmp: str) -> Workload:
    """Eigen route (Sturm bisection + inverse iteration) and polynomial route
    (Newton on three-term recursions) at N in 100..2000, plus the
    ``asymptotic`` and ``table`` commands."""
    ns = _strata(rng, 100, 2000, SCAN_STRATA)

    def both(n):
        f_eig, _ = fidelity.max_fidelity_rotation(n)
        kind, degree = checks.zero_of(n)
        return f_eig, numerics.largest_zero(kind, degree), fidelity.max_fidelity_polynomial(n)

    def check(out, n):
        f_eig, zero, f_poly = out
        return (checks.check_zero(*checks.zero_of(n), zero)
                + checks.check_routes(n, f_eig, f_poly, None)
                + checks.check_scaled_deficit(n, f_poly))

    ops = [Op(f"scan N={n}", lambda n=n: both(n), lambda out, n=n: check(out, n)) for n in ns]
    asym_out = os.path.join(tmp, "asymptotic.csv")
    ops.append(Op("cli asymptotic",
                  lambda: _cli(["asymptotic", "--max-n", str(ASYMPTOTIC_MAX_N)], asym_out),
                  lambda out: checks.check_asymptotic_csv(*out, ASYMPTOTIC_MAX_N)))
    table_out = os.path.join(tmp, "table.csv")
    ops.append(Op("cli table",
                  lambda: _cli(["table", "--max-n", str(TABLE_MAX_N)], table_out),
                  lambda out: checks.check_table_csv(*out, TABLE_MAX_N)))

    def finish(results):
        """N^2 (1 - F) increases with N across the drawn sizes."""
        pairs = sorted((n, results[f"scan N={n}"][0][2]) for n in ns
                       if results[f"scan N={n}"])
        return checks.check_increasing("scan scaled deficit",
                                       [n * n * (1.0 - f) for n, f in pairs])

    both(100)  # warm-up
    return Workload(ops, finish=finish)


# ---- infogain -------------------------------------------------------------------

GAIN_D_STRATA = 8
GAIN_ALPHA_STRATA = 32


def info_gain(rng, tmp: str) -> Workload:
    """Adaptive info-gain quadrature for coherent and two-spin codes, the
    alpha maximizer and ``spinlab infogain --mode alpha-scan``."""
    ds = _strata(rng, 2, 64, GAIN_D_STRATA)
    edges = np.linspace(0.0, math.pi / 2.0, GAIN_ALPHA_STRATA + 1)
    alphas = rng.uniform(edges[:-1], edges[1:])
    betas = rng.uniform(0.0, 2.0 * math.pi, GAIN_ALPHA_STRATA)
    ops = []
    for d in ds:
        code = codes.coherent_code(d)
        ops.append(Op(f"gain coherent d={d}",
                      lambda code=code: infogain.info_gain_quadrature(code),
                      lambda out, d=d: checks.check_info_gain_coherent(d, out)))
    for a, b in zip(alphas, betas):
        a, b = float(a), float(b)
        code = codes.alpha_code(codes.AlphaFamily(a, b))
        ops.append(Op(f"gain two-spin alpha={a:.6f} beta={b:.6f}",
                      lambda code=code: infogain.info_gain_quadrature(code),
                      lambda out, a=a, b=b: checks.check_info_gain_two_spin(a, b, out)))
    beta = float(rng.uniform(0.0, 2.0 * math.pi))
    ops.append(Op(f"maximize_alpha beta={beta:.6f}",
                  lambda: infogain.maximize_alpha(beta=beta),
                  lambda out: checks.check_maximum(
                      *out, [checks.info_gain_two_spin_ref(float(a))
                             for a in checks.scan_alphas()])))
    scan_out = os.path.join(tmp, "alpha_scan.csv")
    ops.append(Op("cli infogain --mode alpha-scan",
                  lambda: _cli(["infogain", "--mode", "alpha-scan"], scan_out),
                  lambda out: checks.check_alpha_scan_csv(*out)))
    # warm-up: alpha = 0 needs the highest quadrature orders of the family
    infogain.info_gain_quadrature(codes.alpha_code(codes.AlphaFamily(0.0)))
    return Workload(ops)


WORKLOADS = {"routes": routes, "sampling": sampling, "scan": scan, "infogain": info_gain}
