"""Direction-encoding code spaces and their source statistics.

A code family assigns each direction n a normalized state spread over a
tower of irreps S = N/2, N/2 - 1, ..., sn, one block per spin, with
direction-independent weights. Materializing the family at a direction
gives a block vector; averaging the projector over all directions gives
the source density matrix seen by an eavesdropper without a reference
frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .su2 import Direction, HalfInt, _d_column, _projection_values

# angles per Wigner-kernel call: kernel temporaries as large as a whole block
# stay resident in the heap after use and raise peak memory
_KERNEL_POINTS = 1024


@dataclass(frozen=True, eq=False)
class MultiRepState:
    """Direction-independent coefficients over the irrep tower.

    coeffs[i] weights the block with spin S = N/2 - i; the last block has
    spin sn. The encoded state for direction n is the concatenation of
    coeffs[i] * |S_i, sn; n> over the blocks. A single-block instance with
    sn = N/2 is the coherent encoding that saturates the unrestricted
    optimum.
    """

    sn: HalfInt
    nspins: int
    coeffs: np.ndarray

    def __post_init__(self):
        sn = HalfInt.of(self.sn)
        object.__setattr__(self, "sn", sn)
        if self.nspins < 1:
            raise ValueError("nspins must be >= 1")
        if sn.twice < 0 or sn.twice > self.nspins:
            raise ValueError("sn must lie between 0 and N/2")
        if (self.nspins - sn.twice) % 2 != 0:
            raise ValueError("sn must differ from N/2 by an integer")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        blocks = (self.nspins - sn.twice) // 2 + 1
        if coeffs.shape != (blocks,):
            raise ValueError(f"need {blocks} coefficients for N={self.nspins}, sn={sn!r}")
        if abs(np.linalg.norm(coeffs) - 1.0) > 1e-12:
            raise ValueError("coefficients must be normalized")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def spins(self) -> list[HalfInt]:
        """Block spins in descending order, N/2 down to sn."""
        return [HalfInt(self.nspins - 2 * i) for i in range(self.coeffs.size)]

    @property
    def dim(self) -> int:
        return sum(s.twice + 1 for s in self.spins)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("trace must be 1")
        if float(np.linalg.eigvalsh(m)[0]) < -1e-10:
            raise ValueError("matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class AlphaFamily:
    """Two-spin singlet-triplet mixture cos(a)|1,0;n> + sin(a) e^{ib} |0,0>."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi / 2.0:
            raise ValueError("alpha must lie in [0, pi/2]")


def minimal_sn(nspins: int) -> HalfInt:
    """Smallest projection label available for N spins: 0 or 1/2 by parity."""
    if nspins < 1:
        raise ValueError("nspins must be >= 1")
    return HalfInt(nspins % 2)


def coherent_code(d: int) -> MultiRepState:
    """Single-irrep encoding |S,S;n> with S = (d-1)/2.

    This is the optimal d-level code; for d = N+1 it is also the aligned
    product state of N spins.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    return MultiRepState(HalfInt(d - 1), d - 1, np.array([1.0 + 0.0j]))


def alpha_code(f: AlphaFamily) -> MultiRepState:
    """Coefficient form of the two-spin family."""
    return MultiRepState(HalfInt(0), 2,
                         np.array([math.cos(f.alpha),
                                   math.sin(f.alpha) * np.exp(1j * f.beta)]))


def _block_amplitudes(a: MultiRepState, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Amplitude matrix of the encoded states, shape (dim, npoints)."""
    out = np.empty((a.dim, thetas.size), dtype=complex)
    row = 0
    for coeff, s in zip(a.coeffs, a.spins):
        block = out[row:row + s.twice + 1]
        np.multiply.outer(-1j * _projection_values(s), phis, out=block)
        np.exp(block, out=block)
        for lo in range(0, thetas.size, _KERNEL_POINTS):
            part = slice(lo, lo + _KERNEL_POINTS)
            block[:, part] *= _d_column(s, a.sn, thetas[part])
        block *= coeff
        row += s.twice + 1
    return out


def code_state(a: MultiRepState, n: Direction) -> np.ndarray:
    """Encoded state for direction n as a block vector over the irrep tower."""
    return _block_amplitudes(a, np.array([n.theta]), np.array([n.phi]))[:, 0]


def alpha_state(f: AlphaFamily, n: Direction) -> np.ndarray:
    """Four-component encoded state of the two-spin family at direction n."""
    return code_state(alpha_code(f), n)


def decoder_coefficients(sn, nspins: int) -> np.ndarray:
    """Block weights b_S = sqrt((2S+1)/D) of the covariant decoder."""
    sn = HalfInt.of(sn)
    if nspins < 1:
        raise ValueError("nspins must be >= 1")
    if sn.twice < 0 or sn.twice > nspins or (nspins - sn.twice) % 2 != 0:
        raise ValueError(f"sn={sn!r} is incompatible with N={nspins}")
    dims = np.array([tw + 1 for tw in range(nspins, sn.twice - 1, -2)], dtype=float)
    return np.sqrt(dims / dims.sum())


def decoder_state(sn, nspins: int, m: Direction) -> np.ndarray:
    """Covariant decoder state B(m): the sqrt((2S+1)/D)-weighted tower along m."""
    b = decoder_coefficients(sn, nspins)
    return code_state(MultiRepState(HalfInt.of(sn), nspins, b.astype(complex)), m)


def matched_decoder(a: MultiRepState) -> MultiRepState:
    """Decoder family for a given code: sqrt((2S+1)/D) weights carrying the
    code's coefficient phases.

    Phase matching is what makes the decoded fidelity independent of any
    relative phases in the code (a zero coefficient contributes no phase).
    """
    b = decoder_coefficients(a.sn, a.nspins).astype(complex)
    mags = np.abs(a.coeffs)
    safe = np.where(mags > 1e-14, mags, 1.0)
    phases = np.where(mags > 1e-14, a.coeffs / safe, 1.0)
    return MultiRepState(a.sn, a.nspins, b * phases)


def sphere_grid(theta_order: int, phi_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product quadrature for the sphere with measure normalized to 1.

    Gauss-Legendre in cos(theta) times a uniform azimuthal grid. Returns
    flat arrays (weights, thetas, phis); weights sum to 1. Exact whenever
    the integrand is a polynomial of degree <= 2*theta_order - 1 in
    cos(theta) and contains azimuthal harmonics only below phi_count.
    """
    if theta_order < 1 or phi_count < 1:
        raise ValueError("grid sizes must be >= 1")
    rule = numerics.gauss_legendre(theta_order)
    thetas = np.arccos(rule.nodes)
    phis = 2.0 * math.pi * np.arange(phi_count) / phi_count
    weights = np.repeat(rule.weights / 2.0, phi_count) / phi_count
    return weights, np.repeat(thetas, phi_count), np.tile(phis, theta_order)


def grid_unit_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Cartesian unit vectors for grid angles, shape (npoints, 3)."""
    st = np.sin(thetas)
    return np.stack([st * np.cos(phis), st * np.sin(phis), np.cos(thetas)], axis=1)


def source_density(a: MultiRepState, theta_order: int | None = None,
                   phi_count: int | None = None) -> DensityMatrix:
    """Average of |A(n)><A(n)| over uniformly distributed directions.

    The default grid is the smallest exact one; passing anything coarser
    raises instead of silently returning a biased average.
    """
    n = a.nspins
    min_theta, min_phi = n + 2, n + 1
    theta_order = min_theta if theta_order is None else theta_order
    phi_count = min_phi if phi_count is None else phi_count
    if theta_order < min_theta or phi_count < min_phi:
        raise ValueError("quadrature grid too coarse for this code space")
    w, th, ph = sphere_grid(theta_order, phi_count)
    amp = _block_amplitudes(a, th, ph)
    rho = (amp * w) @ amp.conj().T
    return DensityMatrix(rho)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -tr(rho log2 rho) in bits; zero eigenvalues contribute nothing."""
    vals, _ = numerics.hermitian_eigensystem(rho.matrix)
    total = 0.0
    for v in vals.real:
        if v > 1e-15:
            total -= v * math.log2(v)
    return total
