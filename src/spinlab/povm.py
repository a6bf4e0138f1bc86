"""Finite POVMs for direction decoding: exact fidelities and Monte Carlo.

A finite POVM here is three arrays over its K outcomes: weights, rank-one
unit states and the unit vector the decoder reports when each one fires.
A grid POVM also declares its ring layout, which lets the sampler draw a
polar ring first and an outcome on that ring second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from . import numerics
from .codes import (MultiRepState, _exact_size, _tower_phases, decoder_coefficients,
                    exact_sphere)
from .su2 import (Direction, HalfInt, X_AXIS, Y_AXIS, Z_AXIS, _d_fourier, _half_angle_terms,
                  rotate_to)

# chunk size for vectorized sampling; fixed so a seed gives one stream
_CHUNK = 1 << 17
# values per sampling sub-block: shots times a per-shot footprint of K + D on
# the generic path (K outcomes, dimension D) and T + P + N + 1 on the ring
# path (T rings of P outcomes, N + 1 projection slots). With no trigonometric
# call left in the draw, whole chunks are bound by memory traffic, so the
# sub-blocks are sized to stay in cache: 13107 shots for the octahedron,
# 3196 for the N = 12 grid and 665 at N = 64. On a 2 MB-L2 Xeon core the
# octahedron's simulate took 211 ns per shot this way against 351 ns with
# whole 131072-shot chunks, and the N = 12 grid 589 against 1085 ns
_BUDGET = 1 << 17


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
    if not worst <= 1e-8:
        raise RuntimeError(
            f"outcome probabilities sum to 1 +/- {worst:.3e}; "
            "the POVM does not resolve the identity on this code space")


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2, without the square root of np.abs."""
    return np.square(z.real) + np.square(z.imag)


def _running_sum(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=0), bit for bit, one row at a time: for a few long
    rows this is about ten times faster than numpy's accumulate along axis 0."""
    out = a.copy()
    for i in range(1, out.shape[0]):
        out[i] += out[i - 1]
    return out


def _first_reaching(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the first row whose cumulative probability reaches u; the
    last row when rounding leaves the total just below u."""
    return np.minimum((cum < u[None, :]).sum(axis=0), cum.shape[0] - 1)


def _tower_kernel(code: MultiRepState) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """Column sn of every block's d^S as one real table, and where each block sits.

    Returns (table, blocks). table, shape (D, 2n) with n = N // 2 + 1,
    stacks the :func:`spinlab.su2._d_fourier` table of each block like the
    code's components, zero past the block's own spin, so that
    table @ _half_angle_terms(cos(theta), N) gives every block's d-column
    at once with no trigonometric call. blocks lists, per block S, the
    slice of its rows among the D components and the slice of the N + 1
    projection slots m = N/2, ..., -N/2 that its projections S, ..., -S
    fill.
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


def _slot_phases(nspins: int, turn: np.ndarray) -> np.ndarray:
    """e^{i j phi} for the slots j = 0, ..., N, shape (N + 1, shots), from turn = e^{i phi}.

    Slot j holds projection m = N/2 - j, whose phase e^{-i m phi} is
    e^{i j phi} times e^{-i N phi / 2}; that factor is common to every
    component of a shot's state, so no probability sees it.
    """
    out = np.empty((nspins + 1, turn.size), dtype=complex)
    out[0] = 1.0
    for j in range(1, nspins + 1):
        np.multiply(out[j - 1], turn, out=out[j])
    return out


def _generic_sampler(code: MultiRepState, p: FinitePovm):
    """Outcome draw over all K outcomes, for any POVM on the code's space.

    The returned function maps (cos(theta), e^{i phi}, u) of a sub-block of
    shots to outcome indices: each shot fires the first outcome whose
    cumulative probability w_k |<s_k|A(n)>|^2 reaches u. The code state
    is the tower's d-columns times the slot phases; the code's
    coefficients are folded into the bras once.
    """
    table, blocks = _tower_kernel(code)
    bras = p.states.conj() * np.repeat(code.coeffs, [s.twice + 1 for s in code.spins])
    weights = p.weights[:, None]

    def draw(x: np.ndarray, turn: np.ndarray, u: np.ndarray) -> np.ndarray:
        d = table @ _half_angle_terms(x, code.nspins)                   # (D, shots)
        phases = _slot_phases(code.nspins, turn)
        amp = np.empty(d.shape, dtype=complex)
        for rows, slots in blocks:
            np.multiply(d[rows], phases[slots], out=amp[rows])
        probs = weights * _abs2(bras @ amp)
        _check_total(probs.sum(axis=0))
        return _first_reaching(_running_sum(probs), u)

    return draw


def _ring_sampler(code: MultiRepState, p: FinitePovm):
    """Ring-first outcome draw for a POVM whose layout covers the code's tower.

    With ring state R_j, the overlap of outcome (j, l) with the code state
    at (theta, phi) is sum_m g_jm(theta) e^{-i m phi} e^{i m phi_l}, where
    g_jm = sum_S a_S conj(R_j[S, m]) d^S_{m,sn}(theta) collects the N + 1
    projections. Each g_jm is a fixed combination of the half-angle
    harmonics of :func:`spinlab.su2._half_angle_terms`, folded here into
    one (N + 1, 2n) table per ring, so a shot's work does not grow with
    the dimension D. Parseval over the ring's P >= N + 1 azimuths makes
    ring j's probability P w_j sum_m |g_jm|^2, a polynomial of degree <= N
    in cos(theta) whose Chebyshev coefficients are fitted here from N + 1
    nodes. The returned function maps (cos(theta), e^{i phi}, u) of a
    sub-block of shots to outcome indices: it picks each shot's ring from
    the fitted probabilities, then the outcome on that ring from its P
    amplitudes, shots of one ring sharing one matrix product.
    """
    size = p.layout.ring_size
    nslots = code.nspins + 1
    ring_weights = p.weights[::size]
    table, blocks = _tower_kernel(code)
    widths = [s.twice + 1 for s in code.spins]
    mixed = (np.repeat(code.coeffs, widths) * p.states[::size].conj()).T  # (D, T)
    fold = np.zeros((ring_weights.size, nslots, table.shape[1]), dtype=complex)
    for rows, slots in blocks:
        fold[:, slots] += mixed[rows].T[:, :, None] * table[rows]
    # real and imaginary parts stacked, so each product is a real one
    fold = np.concatenate([fold.real, fold.imag], axis=1)               # (T, 2(N + 1), 2n)
    # the top block S = N/2 lists every projection once, in slot order
    to_ring = p.layout.phases()[:, :nslots].conj()                     # (P, N + 1)

    def ring_probabilities(x: np.ndarray) -> np.ndarray:
        g = fold @ _half_angle_terms(x, code.nspins)                    # (T, 2(N + 1), nodes)
        return ((size * ring_weights)[:, None] * np.sum(np.square(g), axis=1)).T

    coef = chebyshev.chebinterpolate(ring_probabilities, code.nspins).T  # (T, N + 1)

    def draw(x: np.ndarray, turn: np.ndarray, u: np.ndarray) -> np.ndarray:
        fitted = coef @ chebyshev.chebvander(x, code.nspins).T           # (T, shots)
        cum = _running_sum(fitted)
        _check_total(cum[-1])
        ring = _first_reaching(cum, u)
        # from here on the shots run ring by ring, so each ring's shots share
        # one product with its table; only the outcome indices go back
        order = np.argsort(ring, kind="stable")
        ring = ring[order]
        own = fitted[ring, order]
        base = cum[ring, order] - own
        terms = _half_angle_terms(x[order], code.nspins)
        parts = np.empty((2 * nslots, x.size))
        lo = 0
        for j, hi in enumerate(np.cumsum(np.bincount(ring, minlength=ring_weights.size))):
            np.matmul(fold[j], terms[:, lo:hi], out=parts[:, lo:hi])
            lo = hi
        g = np.empty((nslots, x.size), dtype=complex)                    # g_jm e^{i j phi}
        g.real = parts[:nslots]
        g.imag = parts[nslots:]
        g *= _slot_phases(code.nspins, turn[order])
        probs = _abs2(to_ring @ g)                                       # (P, shots)
        probs *= ring_weights[ring]
        worst = float(np.max(np.abs(probs.sum(axis=0) - own)))
        if not worst <= 1e-8:
            raise RuntimeError(
                f"a ring's outcome probabilities differ from its fitted probability by "
                f"{worst:.3e}; the POVM's ring layout does not hold on this code space")
        out = np.empty(x.size, dtype=np.intp)
        out[order] = ring * size + _first_reaching(base + _running_sum(probs), u[order])
        return out

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
        its fitted probability by more than 1e-8. A NaN fails both checks.

    Notes
    -----
    Each shot fires the first outcome whose cumulative probability reaches
    a uniform u, on one of two paths chosen from the input. Both read the
    Wigner-d columns from fixed half-angle Fourier tables
    (:func:`spinlab.su2._d_fourier`) times cos and sin of k theta/2 built by
    angle addition from the drawn cos(theta), and the phases e^{-i m phi}
    as powers of e^{i phi}, so the draw calls no trigonometric function of
    theta:

    * Ring path, for a POVM whose :class:`RingLayout` covers the code's own
      tower (sn, N), as :func:`quadrature_povm` declares. The T ring
      probabilities are fitted Chebyshev series in cos(theta), so a shot
      costs (N + 1) T for its ring, one product of its ring's real
      (2(N + 1), 2n) table with its 2n <= N + 2 half-angle terms, and
      (N + 1) P for the P outcomes on its ring. Memory and work per shot
      are O(T + P + N), free of the dimension D.
    * Generic path, for every other POVM (the octahedron, projector pairs,
      POVMs built by hand): the D d-column values, then all K overlaps
      with the code state, K D complex products per shot, and a K-long
      cumulative sum.

    Both paths pick the same outcome except when u lies within rounding
    (about 1e-16) of a cumulative boundary. On one 2 MB-L2 Xeon core with
    one BLAS thread a whole call costs about 0.2 us per shot for the
    octahedron, 0.6 us for the N = 12 grid and 3 us at N = 40, the random
    draws and the score included.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    rng = np.random.default_rng(seed)
    layout = p.layout
    if layout is not None and (layout.sn, layout.nspins) == (code.sn, code.nspins):
        draw = _ring_sampler(code, p)
        footprint = p.weights.size // layout.ring_size + layout.ring_size + code.nspins + 1
    else:
        draw = _generic_sampler(code, p)
        footprint = p.weights.size + code.dim
    width = max(1, _BUDGET // footprint)
    gx, gy, gz = np.ascontiguousarray(p.guesses.T)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < shots:
        k = min(_CHUNK, shots - done)
        cos_th = rng.uniform(-1.0, 1.0, k)
        ph = rng.uniform(0.0, 2.0 * math.pi, k)
        u = rng.random(k)
        th = np.arccos(cos_th)
        # cos(phi) and sin(phi) serve both the draw and the score, whose
        # unit vector is that of grid_unit_vectors(th, ph), dotted with the
        # guess term by term
        cos_ph, sin_ph = np.cos(ph), np.sin(ph)
        turn = cos_ph + 1j * sin_ph
        idx = np.empty(k, dtype=np.intp)
        for lo in range(0, k, width):
            part = slice(lo, lo + width)
            idx[part] = draw(cos_th[part], turn[part], u[part])
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
