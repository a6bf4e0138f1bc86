"""Finite POVMs for direction decoding: exact fidelities and Monte Carlo.

A finite POVM here is a list of weighted rank-one elements, each tagged
with the direction the decoder reports when that outcome fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .codes import (MultiRepState, _block_amplitudes, decoder_coefficients,
                    grid_unit_vectors, sphere_grid)
from .su2 import Direction, HalfInt, X_AXIS, Y_AXIS, Z_AXIS, rotate_to

# chunk size for vectorized sampling; fixed so a seed gives one stream
_CHUNK = 1 << 17
# elements per sampling sub-block (outcomes or dimension times shots): a chunk
# of the N = 12 grid POVM (196 outcomes) still fits in one sub-block
_BUDGET = 196 * _CHUNK


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One outcome: weight, unit state, and the direction guessed on firing."""

    weight: float
    state: np.ndarray
    guess: Direction

    def __post_init__(self):
        if not self.weight > 0.0:
            raise ValueError("weight must be positive")
        state = np.asarray(self.state, dtype=complex)
        if state.ndim != 1:
            raise ValueError("state must be a vector")
        if abs(np.linalg.norm(state) - 1.0) > 1e-12:
            raise ValueError("state must be normalized")
        object.__setattr__(self, "state", state)


@dataclass(frozen=True, eq=False)
class FinitePovm:
    """Weighted rank-one elements; weights sum to the space dimension when
    the elements resolve the identity."""

    dim: int
    elements: tuple[PovmElement, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("a POVM needs at least one element")
        for el in elements:
            if el.state.shape != (self.dim,):
                raise ValueError("element dimension mismatch")
        object.__setattr__(self, "elements", elements)

    @property
    def total_weight(self) -> float:
        return float(sum(el.weight for el in self.elements))


def quadrature_povm(sn, nspins: int, theta_order: int | None = None,
                    phi_count: int | None = None) -> FinitePovm:
    """Grid discretization of the covariant decoder measurement.

    Element weights are D times the grid weights, so they sum to D and the
    elements resolve the identity exactly whenever the grid meets the
    band-limit of the decoder projectors.
    """
    sn = HalfInt.of(sn)
    min_theta, min_phi = nspins + 2, nspins + 2
    theta_order = min_theta if theta_order is None else theta_order
    phi_count = min_phi if phi_count is None else phi_count
    if theta_order < min_theta or phi_count < min_phi:
        raise ValueError("grid too coarse to resolve the identity")
    family = MultiRepState(sn, nspins, decoder_coefficients(sn, nspins).astype(complex))
    w, th, ph = sphere_grid(theta_order, phi_count)
    amp = _block_amplitudes(family, th, ph)
    dim = family.dim
    elements = [PovmElement(dim * w[k], amp[:, k], Direction(th[k], ph[k]))
                for k in range(w.size)]
    return FinitePovm(dim, tuple(elements))


def octahedron_povm() -> FinitePovm:
    """Six spin-3/2 coherent projectors along +/-x, +/-y, +/-z, weight 2/3 each.

    The minimal finite decoder for the four-dimensional coherent code; its
    exact mean fidelity equals the unrestricted optimum 4/5.
    """
    spin = HalfInt(3)
    dirs = [X_AXIS, X_AXIS.antipode(), Y_AXIS, Y_AXIS.antipode(), Z_AXIS, Z_AXIS.antipode()]
    elements = [PovmElement(2.0 / 3.0, rotate_to(spin, spin, d).amps, d) for d in dirs]
    return FinitePovm(4, tuple(elements))


def von_neumann_pair(m: Direction) -> FinitePovm:
    """Two-outcome spin-1/2 measurement along m, guessing m or its antipode."""
    half = HalfInt(1)
    up = rotate_to(half, half, m)
    down = rotate_to(half, half, m.antipode())
    return FinitePovm(2, (PovmElement(1.0, up.amps, m),
                          PovmElement(1.0, down.amps, m.antipode())))


def check_identity(p: FinitePovm) -> float:
    """Operator-norm deviation of sum_i w_i |s_i><s_i| from the identity."""
    acc = -np.eye(p.dim, dtype=complex)
    for el in p.elements:
        acc += el.weight * np.outer(el.state, el.state.conj())
    vals, _ = numerics.hermitian_eigensystem(acc)
    return float(np.max(np.abs(vals)))


def _element_arrays(p: FinitePovm):
    states = np.stack([el.state for el in p.elements])
    weights = np.array([el.weight for el in p.elements])
    guesses = np.stack([el.guess.unit_vector for el in p.elements])
    return states, weights, guesses


def povm_fidelity_exact(code: MultiRepState, p: FinitePovm,
                        theta_order: int | None = None,
                        phi_count: int | None = None) -> float:
    """Exact mean fidelity of a code decoded by a finite POVM.

    Quadrature over the encoded direction of
    sum_i w_i |<A(n)|s_i>|^2 (1 + n.g_i)/2. Refuses POVMs that do not
    resolve the identity, since the result would not be a fidelity.
    """
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    deviation = check_identity(p)
    if deviation > 1e-10:
        raise ValueError(f"POVM does not resolve the identity (deviation {deviation:.3e})")
    n = code.nspins
    min_theta, min_phi = n + 2, n + 2
    theta_order = min_theta if theta_order is None else theta_order
    phi_count = min_phi if phi_count is None else phi_count
    if theta_order < min_theta or phi_count < min_phi:
        raise ValueError("quadrature grid too coarse for exactness")
    w, th, ph = sphere_grid(theta_order, phi_count)
    amp = _block_amplitudes(code, th, ph)
    states, weights, guesses = _element_arrays(p)
    prob = np.abs(states.conj() @ amp) ** 2              # (elements, points)
    score = (1.0 + guesses @ grid_unit_vectors(th, ph).T) / 2.0
    return float(np.sum(weights[:, None] * prob * score * w[None, :]))


def _draw_outcomes(code: MultiRepState, bras: np.ndarray, weights: np.ndarray,
                   th: np.ndarray, ph: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index fired by each shot: the first whose cumulative probability reaches u."""
    amp = _block_amplitudes(code, th, ph)
    probs = weights[:, None] * np.abs(bras @ amp) ** 2
    worst = float(np.max(np.abs(probs.sum(axis=0) - 1.0)))
    if worst > 1e-8:
        raise RuntimeError(
            f"outcome probabilities sum to 1 +/- {worst:.3e}; "
            "the POVM does not resolve the identity on this code space")
    cum = np.cumsum(probs, axis=0)
    return np.minimum((cum < u[None, :]).sum(axis=0), weights.size - 1)


def simulate(code: MultiRepState, p: FinitePovm, shots: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the mean fidelity.

    Parameters
    ----------
    code : MultiRepState
        Encoding family to sample.
    p : FinitePovm
        Decoding measurement; outcome i fires with probability
        w_i |<A(n)|s_i>|^2 and scores (1 + n.g_i)/2.
    shots : int
        Number of independent uniformly random directions, >= 1.
    seed : int
        PCG64 stream seed. A given seed reproduces the estimate bit for
        bit; the fixed internal chunk size keeps the draw order stable,
        and chunks are scored in sub-blocks of bounded size.

    Returns
    -------
    (mean, stderr)
        Sample mean and its standard error (inf for a single shot).

    Raises
    ------
    RuntimeError
        If the outcome probabilities of any shot fail to sum to 1 within
        1e-8, which means the POVM and code are inconsistent.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    rng = np.random.default_rng(seed)
    states, weights, guesses = _element_arrays(p)
    bras = states.conj()
    width = max(1, _BUDGET // max(weights.size, code.dim))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < shots:
        k = min(_CHUNK, shots - done)
        cos_th = rng.uniform(-1.0, 1.0, k)
        ph = rng.uniform(0.0, 2.0 * math.pi, k)
        u = rng.random(k)
        th = np.arccos(cos_th)
        idx = np.empty(k, dtype=np.intp)
        for lo in range(0, k, width):
            part = slice(lo, lo + width)
            idx[part] = _draw_outcomes(code, bras, weights, th[part], ph[part], u[part])
        score = (1.0 + np.sum(grid_unit_vectors(th, ph) * guesses[idx], axis=1)) / 2.0
        total += float(score.sum())
        total_sq += float((score * score).sum())
        done += k
    mean = total / shots
    if shots == 1:
        return mean, math.inf
    var = max((total_sq - shots * mean * mean) / (shots - 1), 0.0)
    return mean, math.sqrt(var / shots)
