"""Finite POVMs for direction decoding: exact fidelities and Monte Carlo.

A finite POVM here is three arrays over its K outcomes: weights, rank-one
unit states and the unit vector the decoder reports when each one fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .codes import (MultiRepState, _block_amplitudes, decoder_coefficients,
                    exact_grid, grid_unit_vectors, sphere_grid)
from .su2 import Direction, HalfInt, X_AXIS, Y_AXIS, Z_AXIS, rotate_to

# chunk size for vectorized sampling; fixed so a seed gives one stream
_CHUNK = 1 << 17
# elements per sampling sub-block (outcomes or dimension times shots): a chunk
# of the N = 12 grid POVM (196 outcomes) still fits in one sub-block
_BUDGET = 196 * _CHUNK


@dataclass(frozen=True, eq=False)
class FinitePovm:
    """Rank-one POVM on a dim-dimensional space, held as three read-only arrays.

    Outcome k has weight ``weights[k] > 0``, unit state ``states[k]`` (a row
    of the complex (K, dim) array) and guesses the unit vector
    ``guesses[k]`` (a row of the (K, 3) array) when it fires. The outcomes
    resolve the identity when the weighted Gram matrix
    sum_k w_k |s_k><s_k| equals it, which :func:`check_identity` measures;
    the weights then sum to dim.
    """

    dim: int
    weights: np.ndarray
    states: np.ndarray
    guesses: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("a POVM needs a vector of at least one weight")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")
        states = np.asarray(self.states, dtype=complex, order="C")
        if states.shape != (weights.size, self.dim):
            raise ValueError(f"states must have shape ({weights.size}, {self.dim})")
        if not np.all(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= 1e-12):
            raise ValueError("states must be normalized")
        guesses = np.asarray(self.guesses, dtype=float)
        if guesses.shape != (weights.size, 3):
            raise ValueError(f"guesses must have shape ({weights.size}, 3)")
        if not np.all(np.abs(np.linalg.norm(guesses, axis=1) - 1.0) <= 1e-12):
            raise ValueError("guesses must be unit vectors")
        for name, value in (("weights", weights), ("states", states), ("guesses", guesses)):
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def quadrature_povm(sn, nspins: int, theta_order: int | None = None,
                    phi_count: int | None = None) -> FinitePovm:
    """Grid discretization of the covariant decoder measurement.

    Element weights are D times the grid weights, so they sum to D and the
    elements resolve the identity exactly whenever the grid meets the
    band-limit of the decoder projectors.
    """
    sn = HalfInt.of(sn)
    theta_order, phi_count = exact_grid(nspins, theta_order, phi_count)
    family = MultiRepState(sn, nspins, decoder_coefficients(sn, nspins).astype(complex))
    w, th, ph = sphere_grid(theta_order, phi_count)
    amp = _block_amplitudes(family, th, ph)
    return FinitePovm(family.dim, family.dim * w, np.ascontiguousarray(amp.T),
                      grid_unit_vectors(th, ph))


def _coherent_povm(s: HalfInt, dirs: tuple[Direction, ...], weight: float) -> FinitePovm:
    """Spin-s coherent projectors |s, s; n>, one per direction n in dirs,
    each with the same weight and guessing its own direction."""
    states = np.stack([rotate_to(s, s, n).amps for n in dirs])
    guesses = np.stack([n.unit_vector for n in dirs])
    return FinitePovm(s.twice + 1, np.full(len(dirs), weight), states, guesses)


def octahedron_povm() -> FinitePovm:
    """Six spin-3/2 coherent projectors along +/-x, +/-y, +/-z, weight 2/3 each.

    The minimal finite decoder for the four-dimensional coherent code; its
    exact mean fidelity equals the unrestricted optimum 4/5.
    """
    dirs = (X_AXIS, X_AXIS.antipode(), Y_AXIS, Y_AXIS.antipode(), Z_AXIS, Z_AXIS.antipode())
    return _coherent_povm(HalfInt(3), dirs, 2.0 / 3.0)


def von_neumann_pair(m: Direction) -> FinitePovm:
    """Two-outcome spin-1/2 measurement along m, guessing m or its antipode."""
    return _coherent_povm(HalfInt(1), (m, m.antipode()), 1.0)


def check_identity(p: FinitePovm) -> float:
    """Operator-norm deviation of sum_k w_k |s_k><s_k| from the identity.

    The sum is one weighted Gram matrix of the state rows.
    """
    gram = (p.states.T * p.weights) @ p.states.conj()
    vals, _ = numerics.hermitian_eigensystem(gram - np.eye(p.dim))
    return float(np.max(np.abs(vals)))


def povm_fidelity_exact(code: MultiRepState, p: FinitePovm,
                        theta_order: int | None = None,
                        phi_count: int | None = None) -> float:
    """Exact mean fidelity of a code decoded by a finite POVM.

    Quadrature over the encoded direction of
    sum_k w_k |<A(n)|s_k>|^2 (1 + n.g_k)/2. Refuses POVMs that do not
    resolve the identity, since the result would not be a fidelity.
    """
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    deviation = check_identity(p)
    if deviation > 1e-10:
        raise ValueError(f"POVM does not resolve the identity (deviation {deviation:.3e})")
    w, th, ph = sphere_grid(*exact_grid(code.nspins, theta_order, phi_count))
    amp = _block_amplitudes(code, th, ph)
    prob = np.abs(p.states.conj() @ amp) ** 2              # (outcomes, points)
    score = (1.0 + p.guesses @ grid_unit_vectors(th, ph).T) / 2.0
    return float(np.sum(p.weights[:, None] * prob * score * w[None, :]))


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
    bras = p.states.conj()
    width = max(1, _BUDGET // max(p.weights.size, code.dim))
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
            idx[part] = _draw_outcomes(code, bras, p.weights, th[part], ph[part], u[part])
        score = (1.0 + np.sum(grid_unit_vectors(th, ph) * p.guesses[idx], axis=1)) / 2.0
        total += float(score.sum())
        total_sq += float((score * score).sum())
        done += k
    mean = total / shots
    if shots == 1:
        return mean, math.inf
    var = max((total_sq - shots * mean * mean) / (shots - 1), 0.0)
    return mean, math.sqrt(var / shots)
