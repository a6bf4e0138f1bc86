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
from .su2 import (Direction, HalfInt, _d_diagonal_cosines, _d_fourier, _half_angle_trig,
                  _projection_values)

# angles per cosine-series call of the +z overlap: temporaries of N // 2 + 1
# rows by all angles stay resident in the heap after use and raise peak memory
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
        if not abs(np.linalg.norm(coeffs) - 1.0) <= 1e-12:
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
        if not np.max(np.abs(m - m.conj().T)) <= 1e-10:
            raise ValueError("matrix must be Hermitian")
        if not abs(np.trace(m).real - 1.0) <= 1e-10:
            raise ValueError("trace must be 1")
        if not float(np.linalg.eigvalsh(m)[0]) >= -1e-10:
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


def _tower_kernel(code: MultiRepState) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """Column sn of every block's d^S as one real table, and where each block sits.

    Returns (table, blocks). table, shape (D, 2n) with n = N // 2 + 1,
    stacks the :func:`spinlab.su2._d_fourier` table of each block like the
    code's components, zero past the block's own spin, so that table times
    the half-angle harmonics of spin N/2 (:func:`spinlab.su2._half_angle_trig`
    of theta, or :func:`spinlab.su2._half_angle_terms` of cos(theta)) gives
    every block's d-column at once. blocks lists, per block S, the slice of
    its rows among the D components and the slice of the N + 1 projection
    slots m = N/2, ..., -N/2 that its projections S, ..., -S fill.
    """
    n = code.nspins // 2 + 1
    table = np.zeros((code.dim, 2 * n))
    blocks = []
    row = 0
    for s in code.spins:
        rows = slice(row, row + s.twice + 1)
        first = (code.nspins - s.twice) // 2
        blocks.append((rows, slice(first, first + s.twice + 1)))
        f = _d_fourier(s.twice, code.sn.twice)
        k = s.twice // 2 + 1
        table[rows, :k] = f[:, :k]
        table[rows, n:n + k] = f[:, k:]
        row += s.twice + 1
    return table, blocks


def _block_amplitudes(a: MultiRepState, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Amplitude matrix of the encoded states, shape (dim, npoints): the tower's
    d-columns from :func:`_tower_kernel` at once, times e^{-i m phi} per
    projection slot and each block's coefficient."""
    table, blocks = _tower_kernel(a)
    d = table @ _half_angle_trig(thetas, a.nspins)
    phases = np.exp(np.multiply.outer(-1j * _projection_values(HalfInt(a.nspins)), phis))
    out = np.empty(d.shape, dtype=complex)
    for coeff, (rows, slots) in zip(a.coeffs, blocks):
        np.multiply(phases[slots], d[rows], out=out[rows])
        out[rows] *= coeff
    return out


def _axial_overlap(a: MultiRepState, b: MultiRepState, thetas: np.ndarray) -> np.ndarray:
    """Overlap <B(z)|A(n)> at polar angles thetas and azimuth 0, shape (npoints,).

    Along z the decoder B has only the |S, sn> components b_S, so the
    overlap is sum_S conj(b_S) a_S d^S_{sn,sn}(theta). Every block of a
    tower has the parity of 2S = N, so each block's cosine series
    (:func:`spinlab.su2._d_diagonal_cosines`) reads the leading harmonics
    of the top block's: the tower sums into one series of N // 2 + 1
    coefficients, evaluated once per angle. The result is real when the
    summed coefficients are. At azimuth phi the overlap gains the common
    phase e^{-i sn phi} only.
    """
    coef = np.zeros(a.nspins // 2 + 1, dtype=complex)
    for a_s, b_s, s in zip(a.coeffs, b.coeffs, a.spins):
        c = _d_diagonal_cosines(s.twice, a.sn.twice)
        coef[:c.size] += (b_s.conjugate() * a_s) * c
    if not coef.imag.any():
        coef = coef.real
    half_k = np.arange(coef.size) + (a.nspins % 2) / 2.0  # k_i / 2 of the series
    out = np.empty(thetas.size, dtype=coef.dtype)
    for lo in range(0, thetas.size, _KERNEL_POINTS):
        part = slice(lo, lo + _KERNEL_POINTS)
        out[part] = coef @ np.cos(np.multiply.outer(half_k, thetas[part]))
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


def _exact_size(nspins: int) -> int:
    """Polar nodes and azimuths, N + 2 each, of the sphere grid that averages
    exactly over the directions of an N-spin code space.

    Each sphere average taken here integrates a product of two encoded or
    decoder amplitudes, spins <= N/2, possibly times a (1 + n.g)/2 score.
    Its azimuthal harmonics e^{ik phi} have |k| <= N + 1 (N from the
    overlap, +1 from the score), so N + 2 azimuths integrate it exactly.
    Its degree in cos(theta) is at most N + 1, and an n-node
    Gauss-Legendre rule is exact to degree 2n - 1, so (N + 3) // 2 polar
    nodes would suffice: the polar count of N + 2 is conservative, and is
    kept because seeded outputs (the grid POVM's outcomes and so every
    seeded ``simulate`` estimate) depend on the grid.
    """
    return nspins + 2


def _tower_phases(sn: HalfInt, nspins: int, count: int) -> np.ndarray:
    """e^{-i m 2 pi l / count} for l < count, shape (count, tower dimension).

    Columns follow the components of the tower S = N/2, N/2 - 1, ..., sn,
    blocks in descending spin and projections m = S, ..., -S in each.
    """
    m = np.concatenate([_projection_values(HalfInt(t))
                        for t in range(nspins, sn.twice - 1, -2)])
    azimuths = 2.0 * math.pi * np.arange(count) / count
    return np.exp(-1j * np.multiply.outer(azimuths, m))


def grid_unit_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Cartesian unit vectors for grid angles, shape (npoints, 3)."""
    st = np.sin(thetas)
    return np.stack([st * np.cos(phis), st * np.sin(phis), np.cos(thetas)], axis=1)


def exact_sphere(a: MultiRepState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact sphere grid of :func:`_exact_size` for a code family, ring by ring.

    Returns (weights (K,), states (K, dim), unit vectors (K, 3)) over the
    K = (N + 2)^2 points of :func:`sphere_grid`: the weights sum to 1 and
    row k of states is the encoded state A(n_k). The state at a grid point
    is its polar ring's state at azimuth 0 times e^{-i m phi} per component,
    so one Wigner-d column per block and polar angle builds every row.
    """
    size = _exact_size(a.nspins)
    w, th, ph = sphere_grid(size, size)
    rings = _block_amplitudes(a, th[::size], np.zeros(size))
    states = (rings.T[:, None, :] * _tower_phases(a.sn, a.nspins, size)).reshape(-1, a.dim)
    return w, states, grid_unit_vectors(th, ph)


def source_density(a: MultiRepState) -> DensityMatrix:
    """Average of |A(n)><A(n)| over uniformly distributed directions, taken
    exactly on :func:`exact_sphere`."""
    w, states, _ = exact_sphere(a)
    return DensityMatrix((states.T * w) @ states.conj())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -tr(rho log2 rho) in bits; zero eigenvalues contribute nothing."""
    return numerics.spectral_entropy(rho.matrix)
