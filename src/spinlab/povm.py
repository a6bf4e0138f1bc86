"""Finite POVMs for direction decoding: exact fidelities and Monte Carlo.

A finite POVM here is three arrays over its K outcomes: weights, rank-one
unit states and the unit vector the decoder reports when each one fires.
A grid POVM holds them per polar ring, so its identity check goes one
projection at a time and the sampler draws a ring, then an outcome on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from . import numerics
from .codes import (MultiRepState, _decoded_fidelity, _exact_rings, _projection_blocks,
                    _tower_dim, _tower_kernel, _tower_phases, _turned_about_z,
                    decoder_coefficients)
from .su2 import Direction, HalfInt, X_AXIS, Y_AXIS, Z_AXIS, _half_angle_terms, _powers, rotate_to

# chunk size for vectorized sampling; fixed so a seed gives one stream
_CHUNK = 1 << 17
# values per sampling sub-block: shots times a per-shot footprint of K + D on
# the generic path (K outcomes, dimension D), T + P + N + 1 on the ring path
# (T rings of P outcomes, N + 1 projection slots). The draw is bound by memory
# traffic, so sub-blocks stay in cache (13107 shots for the octahedron, 3196
# for the N = 12 grid): on a 2 MB-L2 Xeon core, 211 and 589 ns per shot against
# 351 and 1085 ns in whole 131072-shot chunks
_BUDGET = 1 << 17


def _store_outcomes(p, dim: int) -> None:
    """Check a POVM's weights, unit states and unit guesses, one per row, on
    a dim-dimensional space, and store them as read-only arrays."""
    weights = np.asarray(p.weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("a POVM needs a vector of at least one weight")
    if not np.all(weights > 0.0):
        raise ValueError("weights must be positive")
    states = np.asarray(p.states, dtype=complex, order="C")
    guesses = np.asarray(p.guesses, dtype=float)
    for name, rows, width in (("states", states, dim), ("guesses", guesses, 3)):
        if rows.shape != (weights.size, width):
            raise ValueError(f"{name} must have shape ({weights.size}, {width})")
        if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= 1e-12):
            raise ValueError(f"{name} must be unit vectors")
    for name, value in (("weights", weights), ("states", states), ("guesses", guesses)):
        value = value.view()
        value.flags.writeable = False
        object.__setattr__(p, name, value)


@dataclass(frozen=True, eq=False)
class FinitePovm:
    """Rank-one POVM on a dim-dimensional space, held as three read-only arrays.

    Outcome k has weight ``weights[k] > 0``, unit state ``states[k]`` (a row
    of the complex (K, dim) array) and guesses the unit vector
    ``guesses[k]`` (a row of the (K, 3) array) when it fires. The outcomes
    resolve the identity when sum_k w_k |s_k><s_k| equals it
    (:func:`check_identity`); the weights then sum to dim.
    """

    dim: int
    weights: np.ndarray
    states: np.ndarray
    guesses: np.ndarray

    def __post_init__(self):
        _store_outcomes(self, self.dim)


@dataclass(frozen=True, eq=False)
class RingPovm:
    """Rank-one grid POVM on the tower S = N/2, N/2 - 1, ..., sn, held ring by ring.

    Each of the T rings has ``ring_size`` = P >= N + 1 outcomes, so that no
    two projections of the tower share a phase pattern over a ring. Outcome
    j P + l sits at azimuth 2 pi l / P of ring j, whose ``weights[j]``, unit
    ``states[j]`` (rows of (T, D)) and ``guesses[j]`` hold at azimuth 0.
    """

    sn: HalfInt
    nspins: int
    ring_size: int
    weights: np.ndarray
    states: np.ndarray
    guesses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sn", HalfInt.of(self.sn))
        decoder_coefficients(self.sn, self.nspins)  # raises unless (sn, N) is a tower
        if self.ring_size < self.nspins + 1:
            raise ValueError(f"a grid POVM over N = {self.nspins} needs at least "
                             f"{self.nspins + 1} outcomes per ring")
        _store_outcomes(self, self.dim)

    @property
    def dim(self) -> int:
        return _tower_dim(self.sn, self.nspins)

    def rows(self) -> FinitePovm:
        """The same measurement with each of its T P outcomes as one row: outcome j P + l
        is ring j turned about z by phi = 2 pi l / P, e^{-i m phi} per projection m."""
        size = self.ring_size
        states = self.states[:, None, :] * _tower_phases(self.sn, self.nspins, size)
        return FinitePovm(self.dim, np.repeat(self.weights, size), states.reshape(-1, self.dim),
                          _turned_about_z(self.guesses, size))


def quadrature_povm(sn, nspins: int) -> RingPovm:
    """Grid discretization of the covariant decoder measurement.

    One outcome per point of the exact sphere grid
    (:func:`spinlab.codes._exact_rings`) for the decoder family, with D
    times the grid weight, so the weights sum to D and the elements
    resolve the identity exactly. Only its polar rings are built.
    """
    sn = HalfInt.of(sn)
    family = MultiRepState(sn, nspins, decoder_coefficients(sn, nspins).astype(complex))
    size, w, states, vecs = _exact_rings(family)
    return RingPovm(sn, nspins, size, family.dim * w, states, vecs)


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


def check_identity(p: FinitePovm | RingPovm) -> float:
    """Operator-norm deviation of sum_k w_k |s_k><s_k| from the identity.

    For a :class:`FinitePovm` the sum is one weighted Gram matrix of the
    state rows. For a :class:`RingPovm`, Parseval over each ring's P >= N + 1
    azimuths makes it block-diagonal in the projection m, so no D x D matrix
    is formed: one block P sum_j w_j R_j[S, m] conj(R_j[S', m]) per m, solved
    as one stack per block size.
    """
    if isinstance(p, FinitePovm):
        stacks = [(p.states.T * p.weights) @ p.states.conj()]
    else:
        stacks = [blocks for _, blocks in _projection_blocks(
            p.sn, p.nspins, p.ring_size, p.weights, p.states)]
    worst = 0.0
    for grams in stacks:
        vals = numerics.hermitian_eigenvalues(grams - np.eye(grams.shape[-1]))
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def povm_fidelity_exact(code: MultiRepState, p: FinitePovm | RingPovm) -> float:
    """Exact mean fidelity of a code decoded by a finite POVM.

    The average of sum_k w_k |<A(n)|s_k>|^2 (1 + n.g_k)/2 over the encoded
    direction n, exact on the grid of :func:`spinlab.codes._exact_rings`
    (:func:`spinlab.codes._decoded_fidelity`). A :class:`RingPovm` on the code's own
    tower passes its T rings at P times their weight: outcome (j, l) is (j, 0) turned
    about z, as is the code family, and the exact average does not see the turn.
    Refuses POVMs that do not resolve the identity: the result would not be a fidelity.
    """
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    deviation = check_identity(p)
    if deviation > 1e-10:
        raise ValueError(f"POVM does not resolve the identity (deviation {deviation:.3e})")
    if isinstance(p, RingPovm) and (p.sn, p.nspins) == (code.sn, code.nspins):
        return _decoded_fidelity(code, p.ring_size * p.weights, p.states, p.guesses)
    p = p.rows() if isinstance(p, RingPovm) else p
    return _decoded_fidelity(code, p.weights, p.states, p.guesses)


def _check_total(total: np.ndarray) -> None:
    """Raise RuntimeError unless each shot's outcome probabilities sum to 1 within 1e-8."""
    worst = float(np.max(np.abs(total - 1.0)))
    if not worst <= 1e-8:
        raise RuntimeError(
            f"outcome probabilities sum to 1 +/- {worst:.3e}; "
            "the POVM does not resolve the identity on this code space")


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2, without the square root of np.abs."""
    return np.square(z.real) + np.square(z.imag)


def _running_sum(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=0), bit for bit, in place and one row at a time: for a
    few long rows this is about ten times faster than numpy's accumulate along
    axis 0. Returns a."""
    for i in range(1, a.shape[0]):
        a[i] += a[i - 1]
    return a


def _first_reaching(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the first row whose cumulative probability reaches u; the
    last row when rounding leaves the total just below u."""
    return np.minimum((cum < u[None, :]).sum(axis=0), cum.shape[0] - 1)


def _half_turn(x: np.ndarray) -> np.ndarray:
    """e^{i theta/2} from x = cos(theta), theta in [0, pi], by two square roots."""
    return np.sqrt((1.0 + x) / 2.0) + 1j * np.sqrt((1.0 - x) / 2.0)


def _generic_sampler(code: MultiRepState, p: FinitePovm):
    """Outcome draw over all K outcomes, for any POVM on the code's space.

    The returned function maps (cos(theta), e^{i phi}, u) of a sub-block of
    shots to outcome indices: each shot fires the first outcome whose
    cumulative probability w_k |<s_k|A(n)>|^2 reaches u. The code state
    is the tower's d-columns times e^{i j phi} in slot j, m = N/2 - j (the common
    e^{-i N phi/2} drops out); the code's coefficients are folded into the bras once.
    """
    table, blocks = _tower_kernel(code)
    bras = p.states.conj() * np.repeat(code.coeffs, [s.twice + 1 for s in code.spins])
    weights = p.weights[:, None]
    # one flat buffer per sub-block array, kept across sub-blocks and grown on demand:
    # freed and allocated again, these arrays would fault their pages in every time
    buffers = {}

    def scratch(name: str, shape: tuple[int, int], dtype) -> np.ndarray:
        size = shape[0] * shape[1]
        if name not in buffers or buffers[name].size < size:
            buffers[name] = np.empty(size, dtype=dtype)
        return buffers[name][:size].reshape(shape)

    def draw(x: np.ndarray, turn: np.ndarray, u: np.ndarray) -> np.ndarray:
        shots = x.size
        d = np.matmul(table, _half_angle_terms(_half_turn(x), code.nspins),
                      out=scratch("d", (code.dim, shots), float))         # (D, shots)
        phases = _powers(1.0, turn, code.nspins + 1)
        amp = scratch("amp", (code.dim, shots), complex)
        for rows, slots in blocks:
            np.multiply(d[rows], phases[slots], out=amp[rows])
        overlaps = np.matmul(bras, amp, out=scratch("overlaps", (bras.shape[0], shots), complex))
        probs = np.square(overlaps.real, out=scratch("probs", overlaps.shape, float))
        probs += np.square(overlaps.imag, out=overlaps.imag)
        probs *= weights
        _check_total(probs.sum(axis=0))
        return _first_reaching(_running_sum(probs), u)

    return draw


def _ring_sampler(code: MultiRepState, p: RingPovm):
    """Ring-first outcome draw for a grid POVM on the code's own tower.

    With ring state R_j, the overlap of outcome (j, l) with the code state
    at (theta, phi) is sum_m g_jm(theta) e^{-i m phi} e^{i m phi_l}, where
    g_jm = sum_S a_S conj(R_j[S, m]) d^S_{m,sn}(theta), a fixed combination
    of the half-angle harmonics of :func:`spinlab.su2._half_angle_terms`
    folded into one (N + 1, 2n) table per ring, free of the dimension D.
    Parseval over the ring's P >= N + 1 azimuths makes ring j's probability
    P w_j sum_m |g_jm|^2, a polynomial of degree <= N in cos(theta) fitted
    as a Chebyshev series from N + 1 nodes. The returned function maps
    (cos(theta), e^{i phi}, u) of a sub-block of shots to outcome indices:
    a ring from the fitted probabilities, then an outcome from its ring's P
    amplitudes, the shots of one ring sharing one matrix product.
    """
    size, ring_weights = p.ring_size, p.weights
    nslots = code.nspins + 1
    table, blocks = _tower_kernel(code)
    mixed = (np.repeat(code.coeffs, [s.twice + 1 for s in code.spins]) * p.states.conj()).T
    # real and imaginary parts stacked, so each product is a real one; the
    # table, O(N^3) floats, is the largest array of the ring path
    fold = np.zeros((ring_weights.size, 2, nslots, table.shape[1]))
    for rows, slots in blocks:
        part = mixed[rows].T[:, :, None]
        fold[:, 0, slots] += part.real * table[rows]
        fold[:, 1, slots] += part.imag * table[rows]
    fold = fold.reshape(ring_weights.size, 2 * nslots, -1)              # (T, 2(N + 1), 2n)
    # the top block S = N/2 alone lists every projection once, in slot order
    to_ring = _tower_phases(HalfInt(code.nspins), code.nspins, size).conj()  # (P, N + 1)

    def ring_probabilities(x: np.ndarray) -> np.ndarray:
        g = fold @ _half_angle_terms(_half_turn(x), code.nspins)        # (T, 2(N + 1), nodes)
        return ((size * ring_weights)[:, None] * np.sum(np.square(g, out=g), axis=1)).T

    coef = chebyshev.chebinterpolate(ring_probabilities, code.nspins).T  # (T, N + 1)

    def draw(x: np.ndarray, turn: np.ndarray, u: np.ndarray) -> np.ndarray:
        fitted = coef @ chebyshev.chebvander(x, code.nspins).T           # (T, shots)
        cum = _running_sum(fitted.copy())
        _check_total(cum[-1])
        ring = _first_reaching(cum, u)
        # from here on the shots run ring by ring, so each ring's shots share
        # one product with its table; only the outcome indices go back
        order = np.argsort(ring, kind="stable")
        ring = ring[order]
        own = fitted[ring, order]
        base = cum[ring, order] - own
        terms = _half_angle_terms(_half_turn(x[order]), code.nspins)
        parts = np.empty((2 * nslots, x.size))
        lo = 0
        for j, hi in enumerate(np.cumsum(np.bincount(ring, minlength=ring_weights.size))):
            np.matmul(fold[j], terms[:, lo:hi], out=parts[:, lo:hi])
            lo = hi
        g = np.empty((nslots, x.size), dtype=complex)                    # g_jm e^{i j phi}
        g.real = parts[:nslots]
        g.imag = parts[nslots:]
        # free what is dead before the largest temporaries: once a sub-block's heap
        # passes glibc's trim threshold (4 MB after the 2 MB chunk arrays), every
        # sub-block faults its pages in again
        del fitted, cum, terms, parts
        g *= _powers(1.0, turn[order], nslots)
        probs = _abs2(to_ring @ g)                                       # (P, shots)
        probs *= ring_weights[ring]
        worst = float(np.max(np.abs(probs.sum(axis=0) - own)))
        if not worst <= 1e-8:
            raise RuntimeError(
                f"a ring's outcome probabilities differ from its fitted probability by "
                f"{worst:.3e}; the grid POVM does not resolve the identity on this code space")
        out = np.empty(x.size, dtype=np.intp)
        out[order] = ring * size + _first_reaching(base + _running_sum(probs), u[order])
        return out

    return draw


def simulate(code: MultiRepState, p: FinitePovm | RingPovm, shots: int,
             seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the mean fidelity.

    Parameters
    ----------
    code : MultiRepState
        Encoding family to sample.
    p : FinitePovm or RingPovm
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
        its fitted probability by more than 1e-8. A NaN fails both checks.

    Notes
    -----
    Each shot fires the first outcome whose cumulative probability reaches
    a uniform u. Both paths read the Wigner-d columns from fixed half-angle
    Fourier tables (:func:`spinlab.su2._d_fourier`) times cos and sin of
    k theta/2 and the phases e^{-i m phi}, both as powers
    (:func:`spinlab.su2._powers`) of e^{i theta/2} = sqrt((1+x)/2) +
    i sqrt((1-x)/2) at the drawn x = cos(theta) and of e^{i phi}, so the
    draw calls no trigonometric function of theta:

    * Ring path (:func:`_ring_sampler`), for a :class:`RingPovm` on the
      code's own tower (sn, N): (N + 1) T operations for the ring, one
      product of its (2(N + 1), 2n) table with 2n <= N + 2 half-angle terms
      and (N + 1) P for its P outcomes, so O(T + P + N) per shot, free of D.
    * Generic path (:func:`_generic_sampler`), for every other POVM and for
      the rows of a ring POVM on another tower: K D complex products and a
      K-long cumulative sum per shot.

    Both paths pick the same outcome except when u lies within rounding
    (about 1e-16) of a cumulative boundary. On one 2 MB-L2 Xeon core with
    one BLAS thread a call costs about 0.2 us per shot for the octahedron,
    0.6 us for the N = 12 grid and 3 us at N = 40, draws and score included.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    rng = np.random.default_rng(seed)
    if isinstance(p, RingPovm) and (p.sn, p.nspins) == (code.sn, code.nspins):
        draw = _ring_sampler(code, p)
        footprint = p.weights.size + p.ring_size + code.nspins + 1
        guesses = _turned_about_z(p.guesses, p.ring_size)
    else:
        p = p.rows() if isinstance(p, RingPovm) else p
        draw = _generic_sampler(code, p)
        footprint = p.weights.size + code.dim
        guesses = p.guesses
    width = max(1, _BUDGET // footprint)
    gx, gy, gz = np.ascontiguousarray(guesses.T)
    total, total_sq, done = 0.0, 0.0, 0
    while done < shots:
        k = min(_CHUNK, shots - done)
        cos_th = rng.uniform(-1.0, 1.0, k)
        ph = rng.uniform(0.0, 2.0 * math.pi, k)
        u = rng.random(k)
        th = np.arccos(cos_th)
        # cos(phi) and sin(phi) serve both the draw and the score, whose
        # unit vector is (sin th cos ph, sin th sin ph, cos th), dotted with the
        # guess term by term
        cos_ph, sin_ph = np.cos(ph), np.sin(ph)
        turn = cos_ph + 1j * sin_ph
        idx = np.empty(k, dtype=np.intp)
        for lo in range(0, k, width):
            part = slice(lo, lo + width)
            idx[part] = draw(cos_th[part], turn[part], u[part])
        # free what is dead before the score's temporaries, which would otherwise
        # stack on the generic draw's buffers and raise the peak
        del cos_th, u, turn
        st = np.sin(th)
        score = (1.0 + (st * cos_ph * gx[idx] + st * sin_ph * gy[idx]
                        + np.cos(th) * gz[idx])) / 2.0
        total += float(score.sum())
        total_sq += float((score * score).sum())
        done += k
    mean = total / shots
    if shots == 1:
        return mean, math.inf
    var = max((total_sq - shots * mean * mean) / (shots - 1), 0.0)
    return mean, math.sqrt(var / shots)
