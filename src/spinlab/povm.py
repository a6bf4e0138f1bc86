"""Finite POVMs for direction decoding: exact fidelities and Monte Carlo.

A finite POVM here is three arrays over its K outcomes: weights, rank-one
unit states and the unit vector the decoder reports when each one fires.
A grid POVM holds them per polar ring, so its identity check goes one
projection at a time and the sampler draws a ring, then an outcome on it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from . import numerics
from .codes import (MultiRepState, _checked_twices, _decoded_fidelity, _exact_rings,
                    _projection_blocks, _tower_dim, _tower_kernel, _tower_phases, _turned_about_z,
                    decoder_coefficients)
from .numerics import _checked_count
from .su2 import Direction, HalfInt, X_AXIS, Y_AXIS, Z_AXIS, _half_angle_terms, _powers, rotate_to

# shots per sampling chunk. It fixes the layout of the random stream, k values of
# cos(theta), then k of phi, then k of u per chunk of k shots, and the length of
# the one score vector whose pairwise sums make the estimate, so a seed gives one
# result; no other array of simulate grows with it or with the shot count
_CHUNK = 1 << 17
# values per sampling sub-block: shots times a per-shot footprint of K + D on
# the generic path (K outcomes, dimension D), T + P + N + 1 on the ring path
# (T rings of P outcomes, N + 1 projection slots). Draws, kept buffers, the
# score entries and the few temporaries left come to 13-28 bytes per counted
# value, so a sub-block holds 1.8-3.7 MB: 13107 shots at 279 bytes each for the
# octahedron, 3196 at 628 for the N = 12 grid, 1048 at 1677 for the N = 40
# grid (tracemalloc's peak over the sub-blocks, less what the set-up holds)
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
        _checked_twices(self.sn, self.nspins)  # raises unless (sn, N) is a tower
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


def _as_read(code: MultiRepState, p: FinitePovm | RingPovm):
    """p as the exact average and the sampler read it for code, with the outcomes that
    each of its states stands for: a :class:`RingPovm` on the code's own tower (sn, N)
    ring by ring, P per ring, and any other POVM by its rows, one each."""
    if isinstance(p, RingPovm) and (p.sn, p.nspins) == (code.sn, code.nspins):
        return p, p.ring_size
    return (p.rows() if isinstance(p, RingPovm) else p), 1


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
    p, size = _as_read(code, p)
    return _decoded_fidelity(code, size * p.weights, p.states, p.guesses)


def _check_total(total: np.ndarray) -> None:
    """Raise RuntimeError unless each shot's outcome probabilities sum to 1 within 1e-8."""
    worst = float(np.max(np.abs(total - 1.0)))
    if not worst <= 1e-8:
        raise RuntimeError(
            f"outcome probabilities sum to 1 +/- {worst:.3e}; "
            "the POVM does not resolve the identity on this code space")


def _scratch(widths: dict | None = None):
    """A getter of work arrays for one call: each name is one flat byte buffer,
    kept across sub-blocks and grown on demand, that any array of any dtype may
    take once the array before it in that buffer is dead. The arrays of a
    sub-block are so allocated once per call; freed and allocated again, they
    would fault their pages in every time, or not, as glibc's dynamic mmap and
    trim thresholds happen to stand. widths maps a name to the most floats per
    shot that any array in it holds: that buffer is first allocated at this width
    for the request's shot count (its last axis), so it does not grow while an
    array in its old memory is still alive, and a wider array fails an assertion."""
    buffers, widths = {}, widths or {}

    def scratch(name, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        width = widths.get(name, 0) * shape[-1] * 8
        assert name not in widths or size <= width, f"buffer {name!r} is too narrow for {shape}"
        if name not in buffers or buffers[name].size < size:
            buffers[name] = np.empty(max(size, width), dtype=np.uint8)
        return buffers[name][:size].view(dtype).reshape(shape)

    return scratch


def _running_sum(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=0), bit for bit, in place and one row at a time: for a
    few long rows this is about ten times faster than numpy's accumulate along
    axis 0. Returns a."""
    for i in range(1, a.shape[0]):
        a[i] += a[i - 1]
    return a


def _first_reaching(cum: np.ndarray, u: np.ndarray, out: np.ndarray,
                    below: np.ndarray) -> np.ndarray:
    """Per column, the first row whose cumulative probability reaches u; the
    last row when rounding leaves the total just below u. Written into out, with
    below, of cum's shape, as work space; returns out."""
    np.sum(np.less(cum, u, out=below), axis=0, out=out)
    return np.minimum(out, cum.shape[0] - 1, out=out)


def _half_turn(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{i theta/2} = sqrt((1+x)/2) + i sqrt((1-x)/2) from x = cos(theta), theta in
    [0, pi], by two square roots; written into out, a complex array of x's shape,
    when one is given. Returns out."""
    if out is None:
        out = np.empty(np.shape(x), dtype=complex)
    np.add(1.0, x, out=out.real)
    np.subtract(1.0, x, out=out.imag)
    parts = out.view(float)  # both halves at once, in contiguous memory
    parts /= 2.0
    np.sqrt(parts, out=parts)
    return out


def _sine(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """sin(theta) = sqrt((1 - x)(1 + x)) from x = cos(theta), theta in [0, pi], written
    into out, with work, of x's shape, as scratch: within an ulp of the true value
    wherever 1 - x and 1 + x are exact, as they are for every drawn x. Returns out."""
    np.subtract(1.0, x, out=out)
    out *= np.add(1.0, x, out=work)
    return np.sqrt(out, out=out)


def _abs_square(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|z|^2 = re^2 + im^2, bit for bit, of a C-contiguous complex array z, written
    into the float array out: z's float view is squared in place, so z is
    overwritten, and its real and imaginary halves added. Returns out."""
    pairs = z.view(float).reshape(z.shape + (2,))
    np.square(pairs, out=pairs)
    return np.add(pairs[..., 0], pairs[..., 1], out=out)


def _chebyshev_rows(x: np.ndarray, degree: int, out: np.ndarray) -> np.ndarray:
    """chebyshev.chebvander(x, degree).T, bit for bit, for degree >= 1, written into
    out of shape (degree + 1, x.size) by chebvander's own recurrence: with y = x + 0,
    T_0 = y 0 + 1, T_1 = y and T_k = T_{k-1} (2 y) - T_{k-2}. Returns out."""
    y = np.add(x, 0.0, out=out[1])
    np.multiply(y, 0.0, out=out[0])
    out[0] += 1.0
    if degree > 1:
        # 2 y waits in the last row, which the recurrence writes last
        two_y = np.multiply(y, 2.0, out=out[-1])
        for k in range(2, degree + 1):
            np.multiply(out[k - 1], two_y, out=out[k])
            out[k] -= out[k - 2]
    return out


def _generic_sampler(code: MultiRepState, p: FinitePovm):
    """Outcome draw over all K outcomes, for any POVM on the code's space.

    The returned function maps (cos(theta), e^{i phi}, u) of a sub-block of
    shots to outcome indices: each shot fires the first outcome whose
    cumulative probability w_k |<s_k|A(n)>|^2 reaches u. The code state
    is the tower's d-columns times e^{i j phi} in slot j, m = N/2 - j (the common
    e^{-i N phi/2} drops out); the code's coefficients are folded into the bras once.
    The indices are written into a buffer that the next call overwrites.
    """
    table, blocks = _tower_kernel(code)
    bras = p.states.conj() * np.repeat(code.coeffs, [s.twice + 1 for s in code.spins])
    weights = p.weights[:, None]
    harmonics, nslots, nbras = code.nspins // 2 + 1, code.nspins + 1, bras.shape[0]
    scratch = _scratch({0: code.dim, 1: max(2 * harmonics, 2 * code.dim, nbras),
                        2: max(2 * nslots, 2 * nbras)})

    def draw(x: np.ndarray, turn: np.ndarray, u: np.ndarray) -> np.ndarray:
        shots = x.size
        # the (rows, shots) arrays take turns in buffers 0, 1 and 2
        terms = _half_angle_terms(_half_turn(x, scratch(0, (shots,), complex)), code.nspins,
                                  scratch(2, (2 * harmonics, shots)),
                                  scratch(1, (harmonics, shots), complex))
        d = np.matmul(table, terms, out=scratch(0, (code.dim, shots)))  # (D, shots)
        phases = _powers(1.0, turn, nslots, out=scratch(2, (nslots, shots), complex))
        amp = scratch(1, (code.dim, shots), complex)
        for rows, slots in blocks:
            np.multiply(d[rows], phases[slots], out=amp[rows])
        overlaps = np.matmul(bras, amp, out=scratch(2, (nbras, shots), complex))
        probs = _abs_square(overlaps, out=scratch(1, overlaps.shape))  # (K, shots)
        probs *= weights
        _check_total(np.sum(probs, axis=0, out=scratch("total", (shots,))))
        return _first_reaching(_running_sum(probs), u, scratch("pick", (shots,), np.intp),
                               scratch("below", probs.shape, bool))

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
    amplitudes, the shots of one ring sharing one matrix product. The indices
    are written into a buffer that the next call overwrites.

    The tables and the fit are built one block of rings at a time, so their
    temporaries hold about 2 _BUDGET floats whatever N; each ring's values are
    those of one whole-table pass.
    """
    size, ring_weights = p.ring_size, p.weights
    nrings, nslots = ring_weights.size, code.nspins + 1
    table, blocks = _tower_kernel(code)
    mixed = (np.repeat(code.coeffs, [s.twice + 1 for s in code.spins]) * p.states.conj()).T
    step = max(1, _BUDGET // (nslots * nslots))
    ring_blocks = [slice(lo, lo + step) for lo in range(0, nrings, step)]
    # real and imaginary parts stacked, so each product is a real one; the
    # table, O(N^3) floats, is the largest array of the ring path
    fold = np.zeros((nrings, 2, nslots, table.shape[1]))
    for rings in ring_blocks:
        for rows, slots in blocks:
            part = mixed[rows].T[rings, :, None]
            fold[rings, 0, slots] += part.real * table[rows]
            fold[rings, 1, slots] += part.imag * table[rows]
    fold = fold.reshape(nrings, 2 * nslots, -1)                         # (T, 2(N + 1), 2n)
    # the top block S = N/2 alone lists every projection once, in slot order
    to_ring = _tower_phases(HalfInt(code.nspins), code.nspins, size).conj()  # (P, N + 1)

    def ring_probabilities(x: np.ndarray) -> np.ndarray:
        terms = _half_angle_terms(_half_turn(x), code.nspins)
        summed = np.empty((nrings, x.size))
        for rings in ring_blocks:
            g = fold[rings] @ terms                                     # (rings, 2(N + 1), nodes)
            np.sum(np.square(g, out=g), axis=1, out=summed[rings])
        return ((size * ring_weights)[:, None] * summed).T

    coef = chebyshev.chebinterpolate(ring_probabilities, code.nspins).T  # (T, N + 1)
    harmonics = code.nspins // 2 + 1
    # ring indices sorted as the smallest unsigned type that holds them (uint8 up to
    # N = 128): at 16 bits or fewer numpy's stable sort is a radix sort, and a stable
    # sort of the same keys gives the same permutation
    ring_key = np.min_scalar_type(nrings - 1)
    scratch = _scratch({0: max(nrings, 2 * nslots, size), 1: max(nrings, 2 * nslots, 2 * size)})

    def draw(x: np.ndarray, turn: np.ndarray, u: np.ndarray) -> np.ndarray:
        shots = x.size
        # the (rows, shots) arrays alternate between buffers 0 and 1
        fitted = np.matmul(coef, _chebyshev_rows(x, code.nspins, scratch(1, (nslots, shots))),
                           out=scratch(0, (nrings, shots)))             # (T, shots)
        cum = scratch(1, fitted.shape)
        cum[...] = fitted
        _check_total(_running_sum(cum)[-1])
        ring = _first_reaching(cum, u, scratch("ring", (shots,), np.intp),
                               scratch("below", cum.shape, bool))
        # from here on the shots run ring by ring, so each ring's shots share
        # one product with its table; only the outcome indices go back
        order = np.argsort(ring.astype(ring_key), kind="stable")
        ring = np.take(ring, order, out=scratch("sorted", (shots,), np.intp))
        at = np.multiply(ring, shots, out=scratch("at", (shots,), np.intp))
        at += order                                                     # flat (ring, shot)
        own = np.take(fitted, at, out=scratch("own", (shots,)))
        base = np.take(cum, at, out=scratch("base", (shots,)))
        base -= own
        # e^{i theta/2} is read only while its powers form, so the harmonics may overwrite it
        half = _half_turn(np.take(x, order, out=scratch("x", (shots,))),
                          scratch(0, (shots,), complex))
        terms = _half_angle_terms(half, code.nspins, scratch(0, (2 * harmonics, shots)),
                                  scratch(1, (harmonics, shots), complex))
        parts = scratch(1, (2 * nslots, shots))
        lo = 0
        for j, hi in enumerate(np.cumsum(np.bincount(ring, minlength=nrings))):
            np.matmul(fold[j], terms[:, lo:hi], out=parts[:, lo:hi])
            lo = hi
        g = scratch(0, (nslots, shots), complex)                         # g_jm e^{i j phi}
        g.real = parts[:nslots]
        g.imag = parts[nslots:]
        g *= _powers(1.0, np.take(turn, order, out=scratch("turn", (shots,), complex)), nslots,
                     out=scratch(1, (nslots, shots), complex))
        overlaps = np.matmul(to_ring, g, out=scratch(1, (size, shots), complex))
        probs = _abs_square(overlaps, out=scratch(0, overlaps.shape))  # (P, shots)
        probs *= np.take(ring_weights, ring, out=scratch("weight", (shots,)))
        gap = np.sum(probs, axis=0, out=scratch("gap", (shots,)))
        gap -= own
        worst = float(np.max(np.abs(gap, out=gap)))
        if not worst <= 1e-8:
            raise RuntimeError(
                f"a ring's outcome probabilities differ from its fitted probability by "
                f"{worst:.3e}; the grid POVM does not resolve the identity on this code space")
        probs = _running_sum(probs)
        probs += base
        pick = _first_reaching(probs, np.take(u, order, out=scratch("u", (shots,))),
                               scratch("pick", (shots,), np.intp), scratch("below", probs.shape, bool))
        pick += np.multiply(ring, size, out=at)
        out = scratch("out", (shots,), np.intp)
        out[order] = pick
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
        bit: the fixed chunk size (``_CHUNK``) fixes the stream's layout,
        and the sub-blocks only read it in pieces.

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
    i sqrt((1-x)/2) at the drawn x = cos(theta) and of e^{i phi}. The score
    takes cos(theta) as x itself and sin(theta) as sqrt((1-x)(1+x)), so
    neither the draw nor the score calls a trigonometric function of theta:

    * Ring path (:func:`_ring_sampler`), for a :class:`RingPovm` on the
      code's own tower (sn, N): (N + 1) T operations for the ring, one
      product of its (2(N + 1), 2n) table with 2n <= N + 2 half-angle terms
      and (N + 1) P for its P outcomes, so O(T + P + N) per shot, free of D.
    * Generic path (:func:`_generic_sampler`), for every other POVM and for
      the rows of a ring POVM on another tower: K D complex products and a
      K-long cumulative sum per shot.

    Both paths pick the same outcome except when u lies within rounding
    (about 1e-16) of a cumulative boundary. On one 2 MB-L2 Xeon core with
    one BLAS thread a call costs about 0.15 us per shot for the octahedron,
    0.5 us for the N = 12 grid and 1.8 us at N = 40, draws and score included.

    The working set is fixed per call. A sub-block of ``_BUDGET`` //
    footprint shots reads its cos(theta), phi and u from copies of the bit
    generator advanced to their offsets in the chunk (PCG64 spends one output
    per double, so the values are those of whole-chunk draws), then draws and
    scores in buffers kept for the call, which hold the half-angle harmonics,
    phases and Chebyshev rows too. Only the score vector has one entry per
    shot of a chunk (1 MB), so a call's allocations peak near 4.5 MiB for the
    octahedron and 3.0 MiB for the N = 12 grid, at any shot count.
    """
    _checked_count(shots, "shots")
    _checked_count(seed, "seed", 0)
    if p.dim != code.dim:
        raise ValueError("POVM and code dimensions differ")
    p, size = _as_read(code, p)
    if isinstance(p, RingPovm):
        draw = _ring_sampler(code, p)
        footprint = p.weights.size + size + code.nspins + 1
        guesses = _turned_about_z(p.guesses, size)
    else:
        draw = _generic_sampler(code, p)
        footprint = p.weights.size + code.dim
        guesses = p.guesses
    width = max(1, _BUDGET // footprint)
    gx, gy, gz = np.ascontiguousarray(guesses.T)
    bits = np.random.default_rng(seed).bit_generator
    scratch = _scratch()
    score = np.empty(min(_CHUNK, shots))
    total, total_sq, done = 0.0, 0.0, 0
    while done < shots:
        k = min(_CHUNK, shots - done)
        # the chunk's stream is k values of cos(theta), then k of phi, then k of u, one
        # 64-bit output each; each is read a sub-block at a time from a copy of the
        # generator moved on to its offset, and the generator itself then skips all 3k
        cos_draws, ph_draws, u_draws = (np.random.Generator(copy.deepcopy(bits).advance(i * k))
                                        for i in range(3))
        for lo in range(0, k, width):
            m = min(width, k - lo)
            # numpy's uniform(low, high) is low + (high - low) r; 2 r and 0 + 2 pi r
            # round once either way, so these are uniform(-1, 1) and uniform(0, 2 pi)
            x = cos_draws.random(out=scratch("x", (m,)))
            x *= 2.0
            x -= 1.0
            ph = ph_draws.random(out=scratch("ph", (m,)))
            ph *= 2.0 * math.pi
            u = u_draws.random(out=scratch("u", (m,)))
            # e^{i phi} serves both the draw and the score; cos(phi) passes through
            # the guess buffer, which the score takes only later
            turn = scratch("turn", (m,), complex)
            guess = scratch("guess", (m,))
            turn.real = np.cos(ph, out=guess)
            turn.imag = np.sin(ph, out=ph)
            idx = draw(x, turn, u)
            # the score's unit vector (sin th cos ph, sin th sin ph, cos th) dotted with
            # the guess term by term, as (1 + (x + y + z)) / 2, where cos(theta) is the
            # drawn x itself; phi and u are dead, so their buffers take sin(theta) and
            # the terms
            st = _sine(x, out=ph, work=u)
            acc = np.multiply(st, turn.real, out=u)
            acc *= np.take(gx, idx, out=guess)
            term = np.multiply(st, turn.imag, out=st)
            term *= np.take(gy, idx, out=guess)
            acc += term
            term = np.multiply(x, np.take(gz, idx, out=guess), out=ph)
            acc += term
            part = np.add(acc, 1.0, out=score[lo:lo + m])
            part /= 2.0
        bits.advance(3 * k)
        # one chunk-wide vector keeps both sums the pairwise sums of whole chunks
        total += float(score[:k].sum())
        total_sq += float(np.square(score[:k], out=score[:k]).sum())
        done += k
    mean = total / shots
    if shots == 1:
        return mean, math.inf
    var = max((total_sq - shots * mean * mean) / (shots - 1), 0.0)
    return mean, math.sqrt(var / shots)
