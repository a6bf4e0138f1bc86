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
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import _checked_count
from .su2 import (Direction, HalfInt, _d_diagonal_cosines, _d_fourier, _half_angle_terms,
                  _projection_values)

# angles per cosine-series call of the +z overlap: temporaries of N // 2 + 1
# rows by all angles stay resident in the heap after use and raise peak memory
_KERNEL_POINTS = 1024
# complex terms per reduction of :func:`_block_sum` (512 KB): the whole tower's
# terms at once would take 4 MB at N = 1000
_SUM_TERMS = 1 << 15


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
        blocks = len(_checked_twices(sn, self.nspins))
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (blocks,):
            raise ValueError(f"need {blocks} coefficients for N={self.nspins}, sn={sn!r}")
        if not abs(np.linalg.norm(coeffs) - 1.0) <= 1e-12:
            raise ValueError("coefficients must be normalized")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def spins(self) -> list[HalfInt]:
        """Block spins in descending order, N/2 down to sn."""
        return [HalfInt(twice) for twice in _block_twices(self.sn, self.nspins)]

    @property
    def dim(self) -> int:
        return _tower_dim(self.sn, self.nspins)


def _block_twices(sn: HalfInt, nspins: int) -> range:
    """2S of each block of the tower (sn, N), descending: N, N - 2, ..., 2 sn. Unchecked:
    the objects that carry a tower check it once, when built (:func:`_checked_twices`)."""
    return range(nspins, sn.twice - 1, -2)


def _checked_twices(sn: HalfInt, nspins: int) -> range:
    """:func:`_block_twices` of (sn, N), raising ValueError unless N is an integer >= 1
    and sn lies between 0 and N/2 and differs from N/2 by an integer."""
    _checked_count(nspins)
    if sn.twice < 0 or sn.twice > nspins or (nspins - sn.twice) % 2 != 0:
        raise ValueError(f"sn={sn!r} is incompatible with N={nspins}")
    return _block_twices(sn, nspins)


def _tower_dim(sn: HalfInt, nspins: int) -> int:
    """Dimension of the tower S = N/2, N/2 - 1, ..., sn: the sum of 2S + 1 over its
    blocks, ((N + 2)^2 - (2 sn)^2) / 4."""
    return ((nspins + 2) ** 2 - sn.twice ** 2) // 4


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix, with the ascending
    eigenvalues that its positive semidefinite check solves for."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        vals = numerics.hermitian_eigenvalues(m)
        if not abs(np.trace(m).real - 1.0) <= 1e-10:
            raise ValueError("trace must be 1")
        if not float(vals[0]) >= -1e-10:
            raise ValueError("matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", vals)

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


_MINIMAL_SN = (HalfInt(0), HalfInt(1))  # shared: HalfInt is frozen


def minimal_sn(nspins: int) -> HalfInt:
    """Smallest projection label available for N spins: 0 or 1/2 by parity."""
    return _MINIMAL_SN[_checked_count(nspins) % 2]


def coherent_code(d: int) -> MultiRepState:
    """Single-irrep encoding |S,S;n> with S = (d-1)/2.

    This is the optimal d-level code; for d = N+1 it is also the aligned
    product state of N spins.
    """
    _checked_count(d, "d", 2)
    return MultiRepState(HalfInt(d - 1), d - 1, np.array([1.0 + 0.0j]))


def alpha_code(f: AlphaFamily) -> MultiRepState:
    """Coefficient form of the two-spin family."""
    return MultiRepState(HalfInt(0), 2, _alpha_coefficients([f.alpha], f.beta)[0])


def _alpha_coefficients(alphas, beta: float) -> np.ndarray:
    """Coefficients (cos(a), sin(a) e^{ib}) of the two-spin family for each alpha, shape
    (K, 2); alphas are taken to lie in [0, pi/2]."""
    phase = np.exp(1j * beta)
    return np.array([(math.cos(a), math.sin(a) * phase) for a in alphas])


def _tower_kernel(code: MultiRepState) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """Column sn of every block's d^S as one real table, and where each block sits.

    table, shape (D, 2n) with n = N // 2 + 1, stacks each block's
    :func:`spinlab.su2._d_fourier` table like the code's components, zero
    past the block's own spin, so that table times the half-angle harmonics
    of spin N/2 (:func:`spinlab.su2._half_angle_terms`)
    gives every block's d-column at once. blocks lists, per block S, the
    slice of its rows among the D components and the slice of the N + 1
    projection slots m = N/2, ..., -N/2 that its projections S, ..., -S fill.
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
    d = table @ _half_angle_terms(np.exp(0.5j * thetas), a.nspins)
    phases = np.exp(np.multiply.outer(-1j * _projection_values(HalfInt(a.nspins)), phis))
    out = np.empty(d.shape, dtype=complex)
    for coeff, (rows, slots) in zip(a.coeffs, blocks):
        np.multiply(phases[slots], d[rows], out=out[rows])
        out[rows] *= coeff
    return out


def _overlap_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(b_S) a_S for coefficient arrays of one shape (..., B).

    Written in real arithmetic, which rounds as numpy's product of two
    complex scalars does; its array loop may fuse multiply-adds instead.
    """
    out = np.empty(a.shape, dtype=complex)
    out.real = b.real * a.real + b.imag * a.imag
    out.imag = b.real * a.imag - b.imag * a.real
    return out


def _block_sum(products: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_i products[:, i, None] * table[i] for block products (K, B) and a real table
    (B, L), shape (K, L), bit for bit as a loop over the blocks adds it from zeros,
    0 + t_0 + t_1 + ..., signed zeros included.

    The terms of max(1, _SUM_TERMS // (K L)) blocks at a time go into one
    C-ordered buffer (1 + m, K, L) whose first row is the running total (zeros
    at the start), and one reduction over that first axis adds its rows in
    order: numpy sums pairwise only along an axis that its inner loop walks,
    and here that loop walks the K L entries of a row (K L > 1 whenever B > 1,
    as both tables have L >= B). The buffer holds about _SUM_TERMS values
    whatever B.
    """
    rows, blocks = products.shape
    step = max(1, _SUM_TERMS // (rows * table.shape[1]))
    terms = np.empty((1 + min(step, blocks), rows, table.shape[1]), dtype=complex)
    total = 0.0
    for lo in range(0, blocks, step):
        part = terms[:1 + min(step, blocks - lo)]
        part[0] = total
        np.multiply(products.T[lo:lo + step, :, None], table[lo:lo + step, None, :], out=part[1:])
        total = np.add.reduce(part, axis=0)
    return total


def _axial_coefficients(sn: HalfInt, nspins: int, products: np.ndarray) -> np.ndarray:
    """Cosine series, shape (K, N // 2 + 1), of the overlaps sum_S p_S d^S_{sn,sn}(theta)
    with block products p_S = conj(b_S) a_S, shape (K, B), of the tower (sn, N).

    Every block of a tower has the parity of 2S = N, so each block's cosine
    series (:func:`spinlab.su2._d_diagonal_cosines`) reads the leading
    harmonics of the top block's: block i fills the first N // 2 + 1 - i.
    Stacked and zero-padded into one (B, N // 2 + 1) table per call, they are
    summed over the tower by the ordered reduction of :func:`_block_sum`, in
    chunks of blocks of at most _SUM_TERMS terms.
    """
    pad = np.zeros(products.shape[1])
    parts = []
    for i, twice in enumerate(_block_twices(sn, nspins)):
        parts += (_d_diagonal_cosines(twice, sn.twice), pad[:i])
    return _block_sum(products, np.concatenate(parts).reshape(-1, nspins // 2 + 1))


def _axial_series(coef: np.ndarray, nspins: int, thetas: np.ndarray) -> np.ndarray:
    """Row k of the series coef (K, N // 2 + 1) of :func:`_axial_coefficients` at the
    polar angles of row k of thetas (K, P), shape (K, P).

    Angles go in chunks of at most _KERNEL_POINTS: whole rows, or parts of
    one. Rows whose coefficients are all real are evaluated in real
    arithmetic, reading the real parts in place (BLAS may round a packed
    vector differently); the result is complex when any row is not real.
    Rows are split into a real and a complex group only when both kinds
    occur; otherwise the chunks are runs of consecutive rows, read as views.
    """
    half_k = np.arange((nspins % 2) / 2.0, coef.shape[1])  # k_i / 2 of the series
    complex_rows = coef.imag.any(axis=1)
    kinds = set(complex_rows.tolist())
    rows = max(1, _KERNEL_POINTS // thetas.shape[1])
    cols = min(thetas.shape[1], _KERNEL_POINTS)
    out = np.empty(thetas.shape, dtype=complex if True in kinds else float)
    if len(kinds) == 1:
        chunks = [(slice(lo, lo + rows), True not in kinds) for lo in range(0, len(coef), rows)]
    else:  # a real and a complex group of rows, each gathered
        chunks = [(group[lo:lo + rows], is_real)
                  for group, is_real in (((~complex_rows).nonzero()[0], True),
                                         (complex_rows.nonzero()[0], False))
                  for lo in range(0, group.size, rows)]
    for sel, is_real in chunks:
        c = coef[sel, None, :].real if is_real else coef[sel, None, :]
        for left in range(0, thetas.shape[1], cols):
            part = slice(left, left + cols)
            table = half_k[:, None] * thetas[sel, None, part]
            out[sel, part] = np.matmul(c, np.cos(table, out=table))[:, 0, :]
    return out


def _axial_overlap(a: MultiRepState, b: MultiRepState, thetas: np.ndarray) -> np.ndarray:
    """Overlap <B(z)|A(n)> at polar angles thetas and azimuth 0, shape (npoints,).

    Along z the decoder B has only the |S, sn> components b_S, so the
    overlap is sum_S conj(b_S) a_S d^S_{sn,sn}(theta): one cosine series of
    N // 2 + 1 coefficients (:func:`_axial_coefficients`), evaluated once per
    angle (:func:`_axial_series`). The result is real when the summed
    coefficients are. At azimuth phi the overlap gains the common phase
    e^{-i sn phi} only.
    """
    coef = _axial_coefficients(a.sn, a.nspins, _overlap_products(a.coeffs[None], b.coeffs[None]))
    return _axial_series(coef, a.nspins, thetas[None])[0]


def code_state(a: MultiRepState, n: Direction) -> np.ndarray:
    """Encoded state for direction n as a block vector over the irrep tower."""
    return _block_amplitudes(a, np.array([n.theta]), np.array([n.phi]))[:, 0]


def alpha_state(f: AlphaFamily, n: Direction) -> np.ndarray:
    """Four-component encoded state of the two-spin family at direction n."""
    return code_state(alpha_code(f), n)


def decoder_coefficients(sn, nspins: int) -> np.ndarray:
    """Block weights b_S = sqrt((2S+1)/D) of the covariant decoder."""
    sn = HalfInt.of(sn)
    _checked_twices(sn, nspins)
    dims = np.arange(nspins + 1, sn.twice, -2, dtype=float)  # 2S + 1, S = N/2 down to sn
    return np.sqrt(dims / _tower_dim(sn, nspins))


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
    return MultiRepState(a.sn, a.nspins, _matched_coefficients(a.sn, a.nspins, a.coeffs))


def _matched_coefficients(sn: HalfInt, nspins: int, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of :func:`matched_decoder` for code coefficients (..., B) on the tower
    (sn, N), elementwise."""
    mags = np.abs(coeffs)
    phases = np.divide(coeffs, mags, out=np.ones(coeffs.shape, coeffs.dtype), where=mags > 1e-14)
    return decoder_coefficients(sn, nspins) * phases


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


def _tower_projections(sn: HalfInt, nspins: int) -> np.ndarray:
    """Projection m of each component of the tower (sn, N), in component order."""
    return np.concatenate([_projection_values(HalfInt(t)) for t in _block_twices(sn, nspins)])


def _tower_phases(sn: HalfInt, nspins: int, count: int) -> np.ndarray:
    """e^{-i m 2 pi l / count} for l < count, shape (count, tower dimension)."""
    azimuths = 2.0 * math.pi * np.arange(count) / count
    return np.exp(-1j * np.multiply.outer(azimuths, _tower_projections(sn, nspins)))


def _turned_about_z(vecs: np.ndarray, count: int) -> np.ndarray:
    """Vectors vecs (T, 3) turned about z by 2 pi l / count, shape (T count, 3), l fastest."""
    phis = 2.0 * math.pi * np.arange(count) / count
    (x, y, z), c, s = vecs.T[:, :, None], np.cos(phis), np.sin(phis)
    return np.stack([x * c - y * s, x * s + y * c, z.repeat(count, 1)], axis=2).reshape(-1, 3)


def _exact_rings(a: MultiRepState) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The exact sphere grid of :func:`_exact_size` for a code family as its T polar
    rings at azimuth 0: (ring size P, weights (T,), states (T, dim), unit vectors
    (T, 3)). Ring j, at Gauss-Legendre node j in cos(theta), has P points of weight
    w_j / 2 / P each (they sum to 1), at the azimuths phi = 2 pi l / P."""
    size = _exact_size(a.nspins)
    rule = numerics.gauss_legendre(size)
    th = np.arccos(rule.nodes)
    vecs = np.stack([np.sin(th), np.zeros(size), np.cos(th)], axis=1)
    return size, rule.weights / 2.0 / size, _block_amplitudes(a, th, np.zeros(size)).T, vecs


def _decoded_fidelity(a: MultiRepState, weights: np.ndarray, states: np.ndarray,
                      guesses: np.ndarray) -> float:
    """sum_k w_k of the average over n of |<s_k|A(n)>|^2 (1 + n.g_k)/2, exact on the grid
    of :func:`_exact_rings`, for outcomes k with weights w_k (K,), unit states s_k (K, dim)
    and guesses g_k (K, 3). With h_m the sum of conj(s_k) R_j over the components of
    projection m, the overlap with ring j at azimuth phi is sum_m h_m e^{-i m phi} and the
    score adds e^{+-i phi}, so Parseval over its P = N + 2 azimuths gives ring j the value
    P w_j / 2 [(1 + cos theta_j g_z) sum_m |h_m|^2 + sin theta_j Re((g_x - i g_y) X)],
    X = sum_m h_m conj(h_{m-1}): O(K T D) time and O(K T) memory, no grid point; the
    K T ring values are summed exactly (math.fsum), which bounds the rounding."""
    size, w, rings, vecs = _exact_rings(a)
    m = _tower_projections(a.sn, a.nspins)
    h = np.zeros((weights.size, w.size), dtype=complex)  # no h_{m-1} below the lowest m
    square, cross = np.zeros(h.shape), np.zeros(h.shape, dtype=complex)
    for value in np.unique(m):  # ascending in steps of 1
        idx = np.flatnonzero(m == value)
        last, h = h, states[:, idx].conj() @ rings[:, idx].T           # (outcomes, rings)
        square += h.real ** 2 + h.imag ** 2
        cross += h * last.conj()
    (gx, gy, gz), (sin_t, _, cos_t) = guesses.T[:, :, None], vecs.T
    per_ring = (1.0 + gz * cos_t) * square + sin_t * (gx * cross.real + gy * cross.imag)
    return math.fsum((weights[:, None] * per_ring * (size * w)).ravel().tolist()) / 2.0


def _projection_blocks(sn: HalfInt, nspins: int, count: int, weights: np.ndarray,
                       states: np.ndarray):
    """Blocks of sum_k w_k |s_k><s_k| over T rings of count >= N + 1 points, each
    point of ring j with weight ``weights[j]`` and ring j's state R_j = ``states[j]``
    (T, D) at azimuth 0, turned to azimuth phi by e^{-i m phi} per projection m.

    Parseval over each ring's azimuths makes the sum block-diagonal in the
    projection m. Yields, one pair per block size k (the g projections that
    have k components, as +-m do), the indices (g, k) of the components of
    each projection and the blocks (g, k, k), sum_j w_j R_j[S, m] conj(R_j[S', m]).
    Real ring states give real blocks.
    """
    if not states.imag.any():
        states = states.real
    m = _tower_projections(sn, nspins)
    order = np.argsort(m, kind="stable")  # one ascending run of components per projection
    sizes = np.unique(m, return_counts=True)[1]
    starts = np.cumsum(sizes) - sizes
    for k in np.unique(sizes):
        idx = order[starts[sizes == k, None] + np.arange(k)]
        ring = states[:, idx].transpose(1, 2, 0)  # (g, k, T)
        yield idx, (ring * (count * weights)) @ ring.conj().transpose(0, 2, 1)


def source_density(a: MultiRepState) -> DensityMatrix:
    """Average of |A(n)><A(n)| over uniformly distributed directions, taken
    exactly on the rings of :func:`_exact_rings`, one projection block at a time."""
    size, w, states, _ = _exact_rings(a)
    rho = np.zeros((a.dim, a.dim), dtype=complex)
    for stack, blocks in _projection_blocks(a.sn, a.nspins, size, w, states):
        for idx, block in zip(stack, blocks):
            rho[np.ix_(idx, idx)] = block
    return DensityMatrix(rho)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -tr(rho log2 rho) in bits; zero eigenvalues contribute nothing."""
    return numerics.spectral_entropy(rho.eigenvalues)
