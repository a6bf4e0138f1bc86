"""The claims that ``spinlab verify`` checks, one record each, in report order.

The paper's closed forms are written here once; the tests read them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fidelity, infogain, povm
from .codes import (AlphaFamily, alpha_code, coherent_code, minimal_sn, source_density,
                    von_neumann_entropy)
from .numerics import bessel_j0_first_zero
from .su2 import HalfInt, X_AXIS, overlap_sq_32, peres_generators, spin_operators, wigner_small_d

LEVELS = ("fast", "full")  # a level checks its own claims and those of the levels before it

# the best N-spin fidelity in closed form, and as the paper prints it for N = 5..7
CLOSED_FORMS = {
    1: 2.0 / 3.0,
    2: (3.0 + math.sqrt(3.0)) / 6.0,
    3: (6.0 + math.sqrt(6.0)) / 10.0,
    4: (5.0 + math.sqrt(15.0)) / 10.0,
}
PRINTED = {5: 0.9114, 6: 0.9306, 7: 0.9429}
OCTAHEDRON = 0.8  # the octahedron POVM on the two-qubit coherent code: 4/5


class Run(dict):
    """One verify run's shared inputs: ``run(f, *args)`` is ``f(*args)``, computed at
    its first call in the run. A run is dropped after its last claim, so nothing is
    kept from one run to the next."""

    def __call__(self, f, *args):
        if (f, args) not in self:
            self[f, args] = f(*args)
        return self[f, args]


@dataclass(frozen=True)
class Claim:
    """One claim. ``compute`` returns a residual that must be at most the float
    ``tol``, or, for a yes/no claim, a truth value, and ``tol`` is then the detail
    that the report prints next to it."""

    name: str
    level: str  # one of LEVELS
    compute: Callable[[Run], float | bool]
    tol: float | str

    def check(self, run: Run) -> tuple[bool, str]:
        """(passed, detail), as the verify report prints them."""
        value = self.compute(run)
        if isinstance(self.tol, str):
            return bool(value), self.tol
        return bool(value <= self.tol), f"residual {value:.3e} (tolerance {self.tol:.1e})"


def _split_values() -> list[float]:
    """Fidelity of the split code (alpha = pi/4) at six phases beta."""
    return [fidelity.fidelity_quadrature(alpha_code(AlphaFamily(math.pi / 4.0, beta)))
            for beta in (0.0, 0.9, math.pi / 2.0, 2.5, math.pi, 5.1)]


def _overlaps(twice: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin-3/2 squared overlap of projection m = twice/2 on 1001 cosines in [-1, 1]:
    (closed form, squared Wigner-d element)."""
    grid = np.linspace(-1.0, 1.0, 1001)
    m = HalfInt(twice)
    return overlap_sq_32(grid, m), wigner_small_d(HalfInt(3), m, m, np.arccos(grid)) ** 2


def _algebra_residual(x, y, z) -> float:
    """Largest entry of [x, y] - i z over the three cyclic commutators."""
    return max(float(np.max(np.abs(a @ b - b @ a - 1j * c)))
               for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))


def _two_spin_gain(alpha: float) -> float:
    """Two-spin gain int q log2(q) dx/2 with q = (a x + b)^2, a = sqrt(3) cos(alpha),
    b = sin(alpha): [F(b + a) - F(b - a)] / a with F' = u^2 log2|u|, b^2 log2(b^2) at a = 0."""
    F = lambda u: u ** 3 * (math.log2(abs(u) or 1.0) / 3.0 - 1.0 / (9.0 * math.log(2.0)))
    a, b = math.sqrt(3.0) * math.cos(alpha), math.sin(alpha)
    return (F(b + a) - F(b - a)) / a if a > 1e-12 else b * b * math.log2(b * b)


def _route_claims(level: str, ns) -> list[Claim]:
    return [claim for n in ns for claim in (
        Claim(f"routes_eigen_vs_poly_n{n}", level, lambda r, n=n: abs(
            r(fidelity.max_fidelity_rotation, n)[0] - fidelity.max_fidelity_polynomial(n)), 1e-12),
        Claim(f"routes_eigen_vs_quad_n{n}", level, lambda r, n=n: abs(
            r(fidelity.max_fidelity_rotation, n)[0]
            - fidelity.fidelity_quadrature(r(fidelity.max_fidelity_rotation, n)[1])), 1e-9))]


def _optimal_claims(level: str, ds) -> list[Claim]:
    return [Claim(f"optimal_dim_d{d}", level, lambda r, d=d: abs(
        fidelity.fidelity_quadrature(coherent_code(d)) - fidelity.fidelity_optimal(d)), 1e-10)
        for d in ds]


def _identity_claims(level: str, ns) -> list[Claim]:
    return [Claim(f"identity_grid_n{n}", level, lambda r, n=n: povm.check_identity(
        povm.quadrature_povm(minimal_sn(n), n)), 1e-10) for n in ns]


CLAIMS: tuple[Claim, ...] = (
    # the eigen route at each N is solved once per run, for these and the route claims
    *[Claim(f"fidelity_closed_n{n}", "fast", lambda r, n=n, want=want: abs(
        r(fidelity.max_fidelity_rotation, n)[0] - want), 1e-12)
      for n, want in CLOSED_FORMS.items()],
    *[Claim(f"fidelity_printed_n{n}", "fast", lambda r, n=n, want=want: abs(
        r(fidelity.max_fidelity_rotation, n)[0] - want), 5e-5) for n, want in PRINTED.items()],
    *_route_claims("fast", range(1, 7)),
    *_optimal_claims("fast", range(2, 9)),
    Claim("parallel_is_coherent_case", "fast", lambda r: max(
        abs(fidelity.fidelity_parallel(n) - fidelity.fidelity_optimal(n + 1)) for n in range(1, 7)),
        1e-15),
    Claim("split_code_value", "fast",
          lambda r: max(abs(v - CLOSED_FORMS[2]) for v in r(_split_values)), 1e-12),
    Claim("split_code_beta_independent", "fast",
          lambda r: max(r(_split_values)) - min(r(_split_values)), 1e-12),
    Claim("identity_pair", "fast",
          lambda r: povm.check_identity(povm.von_neumann_pair(X_AXIS)), 1e-10),
    Claim("identity_octahedron", "fast",
          lambda r: povm.check_identity(r(povm.octahedron_povm)), 1e-10),
    Claim("octahedron_fidelity", "fast", lambda r: abs(
        povm.povm_fidelity_exact(coherent_code(4), r(povm.octahedron_povm)) - OCTAHEDRON), 1e-12),
    *_identity_claims("fast", range(1, 4)),
    Claim("peres_algebra", "fast", lambda r: _algebra_residual(*r(peres_generators)), 1e-13),
    Claim("peres_casimir", "fast", lambda r: float(np.max(np.abs(
        sum(g @ g for g in r(peres_generators)) - (15.0 / 4.0) * np.eye(4)))), 1e-13),
    *[Claim(f"spin_algebra_2s{twice}", "fast", lambda r, twice=twice: _algebra_residual(
        *spin_operators(HalfInt(twice))), 1e-13) for twice in (1, 2, 3, 8, 25)],
    *[Claim(f"overlap_{key}_closed_form", "fast", lambda r, twice=twice: float(
        np.max(np.abs(np.subtract(*r(_overlaps, twice))))), 1e-12)
      for key, twice in (("top", 3), ("mid", 1))],
    Claim("overlap_top_monotone", "fast", lambda r: bool(np.all(np.diff(r(_overlaps, 3)[0]) > 0.0)),
          "strictly increasing on a 1001-point grid"),
    Claim("overlap_mid_nonmonotone", "fast",
          lambda r: bool(np.any(np.diff(r(_overlaps, 1)[0]) < 0.0)),
          "decreasing somewhere on a 1001-point grid"),
    Claim("overlap_mid_zero_at_third", "fast",
          lambda r: overlap_sq_32(1.0 / 3.0, HalfInt(1)), 1e-12),

    *_route_claims("full", [*range(7, 13), 100, 200]),
    *_optimal_claims("full", range(9, 33)),
    # checked one projection at a time, N = 64 (dimension 1089) takes about 10 ms
    *_identity_claims("full", [*range(4, 7), 16, 64]),
    *[Claim(f"source_entropy_{name}", "full", lambda r, code=code, want=want: abs(
        von_neumann_entropy(source_density(code())) - want), 1e-8) for name, code, want in (
        ("qubit", lambda: coherent_code(2), 1.0),
        ("qutrit", lambda: coherent_code(3), math.log2(3.0)),
        ("two_qubit", lambda: coherent_code(4), 2.0),
        ("split", lambda: alpha_code(AlphaFamily(math.pi / 4.0)), 1.0 + 0.5 * math.log2(3.0)))],
    *[Claim(f"infogain_quadrature_n{n}", "full", lambda r, n=n: abs(
        infogain.info_gain_closed(n) - infogain.info_gain_quadrature(coherent_code(2 ** n))),
        1e-12) for n in (1, 2)],
    Claim("infogain_two_spin_closed_form", "full", lambda r: max(
        abs(infogain.info_gain_quadrature(alpha_code(AlphaFamily(alpha))) - _two_spin_gain(alpha))
        for alpha in (0.0, math.pi / 18.0, 0.29908, math.pi / 4.0, 1.2, math.pi / 2.0)), 1e-12),
    Claim("asymptotic_monotone", "full", lambda r: all(
        b[1] > a[1] for a, b in zip(r(fidelity.asymptotic_table, 200),
                                    r(fidelity.asymptotic_table, 200)[1:])),
        "fidelity strictly increasing to N=200"),
    Claim("asymptotic_limit", "full", lambda r: abs(
        r(fidelity.asymptotic_table, 200)[-1][2] / bessel_j0_first_zero() ** 2 - 1.0), 0.03),
)


def at_level(level: str) -> list[Claim]:
    """The claims that ``verify --level level`` checks, in report order."""
    upto = LEVELS.index(level)
    return [c for c in CLAIMS if LEVELS.index(c.level) <= upto]
