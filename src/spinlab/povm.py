"""Finite POVMs for direction decoding: exact fidelities and Monte Carlo.

A finite POVM here is three arrays over its K outcomes: weights, rank-one
unit states and the unit vector the decoder reports when each one fires.
A grid POVM also declares its ring layout, which lets the sampler draw a
polar ring first and an outcome on that ring second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import chebyshev

from . import numerics
from .codes import (MultiRepState, _block_amplitudes, _exact_size, _tower_phases,
                    decoder_coefficients, exact_sphere, grid_unit_vectors)
from .su2 import Direction, HalfInt, X_AXIS, Y_AXIS, Z_AXIS, _d_column, rotate_to

# chunk size for vectorized sampling; fixed so a seed gives one stream
_CHUNK = 1 << 17
# values per sampling sub-block, shots times the values one shot holds:
# max(K, D) on the generic path (K outcomes, dimension D; K D complex products
# per shot), about T + P + D on the ring path (T rings of P outcomes; (N + 1)
# (T + P) products plus D and the Wigner-d columns per shot). About 64 MB of
# complex values: the octahedron takes whole chunks, the N = 12 grid about
# 54000 shots per sub-block on the ring path and 3400 at N = 64
_BUDGET = 1 << 22


@dataclass(frozen=True)
class RingLayout:
    """Ring structure of a grid POVM over the tower S = N/2, N/2 - 1, ..., sn.

    Outcome j * ring_size + l is ring state j, the state of outcome
    j * ring_size, times e^{-i m 2 pi l / ring_size} on each tower component
    of projection m, and the outcomes of one ring share one weight.
    :class:`FinitePovm` checks a declared layout against its rows.
    """

    sn: HalfInt
    nspins: int
    ring_size: int

    def __post_init__(self):
        object.__setattr__(self, "sn", HalfInt.of(self.sn))

    def phases(self) -> np.ndarray:
        """e^{-i m 2 pi l / ring_size} from :func:`spinlab.codes._tower_phases`;
        the first block, S = N/2, holds each of the N + 1 projections once."""
        return _tower_phases(self.sn, self.nspins, self.ring_size)


def _check_ring_layout(layout: RingLayout, weights: np.ndarray, states: np.ndarray) -> None:
    """Raise ValueError unless the rows and weights follow the declared layout.

    Parseval over a ring's azimuths needs ring_size >= N + 1, so that no
    two projections of the tower share a phase pattern.
    """
    size = layout.ring_size
    if size < layout.nspins + 1:
        raise ValueError(f"a ring layout over N = {layout.nspins} needs at least "
                         f"{layout.nspins + 1} outcomes per ring")
    phases = layout.phases()
    if phases.shape[1] != states.shape[1] or weights.size % size != 0:
        raise ValueError("the ring layout does not match the POVM's dimension "
                         "or outcome count")
    for ring, w in zip(states.reshape(-1, size, states.shape[1]), weights.reshape(-1, size)):
        if (np.max(np.abs(ring - ring[0] * phases)) > 1e-12
                or np.max(np.abs(w - w[0])) > 1e-12 * w[0]):
            raise ValueError("the states or weights do not follow the declared ring layout")


@dataclass(frozen=True, eq=False)
class FinitePovm:
    """Rank-one POVM on a dim-dimensional space, held as three read-only arrays.

    Outcome k has weight ``weights[k] > 0``, unit state ``states[k]`` (a row
    of the complex (K, dim) array) and guesses the unit vector
    ``guesses[k]`` (a row of the (K, 3) array) when it fires. The outcomes
    resolve the identity when the weighted Gram matrix
    sum_k w_k |s_k><s_k| equals it, which :func:`check_identity` measures;
    the weights then sum to dim. An optional ``layout`` declares the ring
    structure of a grid POVM; it is checked against the rows on
    construction and selects the ring-first sampler of :func:`simulate`.
    """

    dim: int
    weights: np.ndarray
    states: np.ndarray
    guesses: np.ndarray
    layout: RingLayout | None = None

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
        if self.layout is not None:
            _check_ring_layout(self.layout, weights, states)
        for name, value in (("weights", weights), ("states", states), ("guesses", guesses)):
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def quadrature_povm(sn, nspins: int) -> FinitePovm:
    """Grid discretization of the covariant decoder measurement.

    One outcome per point of :func:`spinlab.codes.exact_sphere` for the
    decoder family, with D times the grid weight, so the weights sum to D
    and the elements resolve the identity exactly. The rows are built ring
    by ring, and the POVM declares that :class:`RingLayout`.
    """
    sn = HalfInt.of(sn)
    family = MultiRepState(sn, nspins, decoder_coefficients(sn, nspins).astype(complex))
    w, states, vecs = exact_sphere(family)
    layout = RingLayout(sn, nspins, _exact_size(nspins))
    return FinitePovm(family.dim, family.dim * w, states, vecs, layout)


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


def povm_fidelity_exact(code: MultiRepState, p: FinitePovm) -> float:
    """Exact mean fidelity of a code decoded by a finite POVM.

    The average of sum_k w_k |<A(n)|s_k>|^2 (1 + n.g_k)/2 over the encoded
    direction n, exact on :func:`spinlab.codes.exact_sphere`. Refuses POVMs
    that do not resolve the identity, since the result would not be a fidelity.
    """
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    deviation = check_identity(p)
    if deviation > 1e-10:
        raise ValueError(f"POVM does not resolve the identity (deviation {deviation:.3e})")
    w, states, vecs = exact_sphere(code)
    prob = np.abs(p.states.conj() @ states.T) ** 2         # (outcomes, points)
    score = (1.0 + p.guesses @ vecs.T) / 2.0
    return float(np.sum(p.weights[:, None] * prob * score * w[None, :]))


def _check_total(total: np.ndarray) -> None:
    """Raise RuntimeError unless each shot's outcome probabilities sum to 1 within 1e-8."""
    worst = float(np.max(np.abs(total - 1.0)))
    if worst > 1e-8:
        raise RuntimeError(
            f"outcome probabilities sum to 1 +/- {worst:.3e}; "
            "the POVM does not resolve the identity on this code space")


def _draw_outcomes(code: MultiRepState, bras: np.ndarray, weights: np.ndarray,
                   th: np.ndarray, ph: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index fired by each shot: the first whose cumulative probability reaches u."""
    amp = _block_amplitudes(code, th, ph)
    probs = weights[:, None] * np.abs(bras @ amp) ** 2
    _check_total(probs.sum(axis=0))
    cum = np.cumsum(probs, axis=0)
    return np.minimum((cum < u[None, :]).sum(axis=0), weights.size - 1)


def _ring_sampler(code: MultiRepState, p: FinitePovm):
    """Ring-first outcome draw for a POVM whose layout covers the code's tower.

    With ring state R_j, the overlap of outcome (j, l) with the code state
    at (theta, phi) is sum_m g_jm(theta) e^{-i m phi} e^{i m phi_l}, where
    g_jm = sum_S a_S conj(R_j[S, m]) d^S_{m,sn}(theta) collects the N + 1
    projections. Parseval over the ring's P >= N + 1 azimuths makes ring j's
    probability P w_j sum_m |g_jm|^2, a polynomial of degree <= N in
    cos(theta) whose Chebyshev coefficients are fitted here from N + 1
    nodes. The returned function maps (theta, phi, u) of a sub-block of
    shots to outcome indices: it picks each shot's ring from the fitted
    probabilities, then the outcome on that ring from its P amplitudes.
    """
    size = p.layout.ring_size
    nslots = code.nspins + 1
    ring_weights = p.weights[::size]
    widths = [s.twice + 1 for s in code.spins]
    mixed = (np.repeat(code.coeffs, widths) * p.states[::size].conj()).T  # (D, T)
    # block S covers rows [start, start + 2S + 1) and slots from (N - 2S) / 2 on
    starts = np.cumsum([0, *widths[:-1]])
    blocks = [(s, mixed[r:r + w], (code.nspins - s.twice) // 2)
              for s, r, w in zip(code.spins, starts, widths)]
    # the top block S = N/2 lists every projection once, in slot order
    to_ring = p.layout.phases()[:, :nslots].conj()                     # (P, N + 1)

    def slot_sums(ring: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """g_jm(theta) for ring indices and angles that broadcast together,
        with the N + 1 projection slots on a new first axis."""
        g = np.zeros((nslots, *np.broadcast_shapes(ring.shape, thetas.shape)), dtype=complex)
        for s, rows, first in blocks:
            d = _d_column(s, code.sn, thetas.ravel()).reshape(-1, *thetas.shape)
            g[first:first + s.twice + 1] += rows[:, ring] * d
        return g

    def ring_probabilities(x: np.ndarray) -> np.ndarray:
        g = slot_sums(np.arange(ring_weights.size)[:, None], np.arccos(x)[None, :])
        return ((size * ring_weights)[:, None] * np.sum(np.abs(g) ** 2, axis=0)).T

    coef = chebyshev.chebinterpolate(ring_probabilities, code.nspins).T  # (T, N + 1)

    def draw(th: np.ndarray, ph: np.ndarray, u: np.ndarray) -> np.ndarray:
        fitted = coef @ chebyshev.chebvander(np.cos(th), code.nspins).T  # (T, shots)
        cum = np.cumsum(fitted, axis=0)
        _check_total(cum[-1])
        ring = np.minimum((cum < u[None, :]).sum(axis=0), ring_weights.size - 1)
        shots = np.arange(th.size)
        base = cum[ring, shots] - fitted[ring, shots]
        # e^{-i m phi} for m = N/2 down to -N/2, as powers of e^{i phi}
        spin = np.empty((nslots, th.size), dtype=complex)
        spin[0] = np.exp(-0.5j * code.nspins * ph)
        spin[1:] = np.exp(1j * ph)
        g = slot_sums(ring, th) * np.cumprod(spin, axis=0, out=spin)
        probs = np.abs(to_ring @ g) ** 2                                  # (P, shots)
        probs *= ring_weights[ring]
        worst = float(np.max(np.abs(probs.sum(axis=0) - fitted[ring, shots])))
        if worst > 1e-8:
            raise RuntimeError(
                f"a ring's outcome probabilities differ from its fitted probability by "
                f"{worst:.3e}; the POVM's ring layout does not hold on this code space")
        cum_ring = base + np.cumsum(probs, axis=0)
        return ring * size + np.minimum((cum_ring < u[None, :]).sum(axis=0), size - 1)

    return draw


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
        1e-8, which means the POVM and code are inconsistent, or, on the
        ring path, if the chosen ring's outcome probabilities differ from
        its fitted probability by more than 1e-8.

    Notes
    -----
    Each shot fires the first outcome whose cumulative probability reaches
    a uniform u, on one of two paths chosen from the input:

    * Ring path, for a POVM whose :class:`RingLayout` covers the code's own
      tower (sn, N), as :func:`quadrature_povm` declares. The T ring
      probabilities are fitted Chebyshev series in cos(theta), so a shot
      costs (N + 1) T for its ring, the Wigner-d columns at its theta, D
      products into N + 1 projection slots and (N + 1) P for the P
      outcomes on its ring. Memory per shot is O(T + P + D).
    * Generic path, for every other POVM (the octahedron, projector pairs,
      POVMs built by hand): all K overlaps with the code state, K D
      complex products per shot, and a K-long cumulative sum.

    Both paths pick the same outcome except when u lies within rounding
    (about 1e-16) of a cumulative boundary.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    rng = np.random.default_rng(seed)
    layout = p.layout
    if layout is not None and (layout.sn, layout.nspins) == (code.sn, code.nspins):
        draw = _ring_sampler(code, p)
        footprint = p.weights.size // layout.ring_size + layout.ring_size + code.dim
    else:
        draw = partial(_draw_outcomes, code, p.states.conj(), p.weights)
        footprint = max(p.weights.size, code.dim)
    width = max(1, _BUDGET // footprint)
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
            idx[part] = draw(th[part], ph[part], u[part])
        score = (1.0 + np.sum(grid_unit_vectors(th, ph) * p.guesses[idx], axis=1)) / 2.0
        total += float(score.sum())
        total_sq += float((score * score).sum())
        done += k
    mean = total / shots
    if shots == 1:
        return mean, math.inf
    var = max((total_sq - shots * mean * mean) / (shots - 1), 0.0)
    return mean, math.sqrt(var / shots)
