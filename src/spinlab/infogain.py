"""Average information gain of the covariant decoding measurement."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from . import numerics
from .codes import (AlphaFamily, MultiRepState, _alpha_coefficients, _axial_coefficients,
                    _axial_series, _block_sum, _matched_coefficients, _overlap_products,
                    _tower_dim)
from .numerics import _checked_count
from .su2 import HalfInt

_LOG2E = 1.0 / math.log(2.0)
# Gauss-Legendre nodes per piece, taken to t in [0, 1] and through s(t) = t^3 (10 - 15t + 6t^2):
# nodes s(t_j), weights s'(t_j) w_j / 4 (1/2 from dt, 1/2 from the sphere's dx/2)
_PIECE_ORDER = 48
_T = (numerics.gauss_legendre(_PIECE_ORDER).nodes + 1.0) / 2.0
_PIECE_NODES = _T ** 3 * (10.0 - 15.0 * _T + 6.0 * _T ** 2)
_PIECE_WEIGHTS = 7.5 * (_T * (1.0 - _T)) ** 2 * numerics.gauss_legendre(_PIECE_ORDER).weights
# width in alpha to which the golden-section search narrows the peak's bracket
_ALPHA_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# one kernel call of refine_alpha evaluates the point the search stands at and the point
# after each outcome of its next _LOOKAHEAD comparisons
_LOOKAHEAD = 3


def info_gain_closed(nspins: int) -> float:
    """Closed form N - (1 - 2^-N) log2(e) for the optimal 2^N-dimensional code.

    Equals log2(d) - (1 - 1/d) log2(e) at d = 2^N; approaches N - log2(e)
    from below as N grows.
    """
    _checked_count(nspins)
    return nspins - (1.0 - 2.0 ** (-nspins)) * _LOG2E


def info_gain_quadrature(code: MultiRepState, decoder: MultiRepState | None = None) -> float:
    """Average gain int dn q log2(q), q = D |<A(n)|B(z)>|^2, by one fixed rule.

    q depends on x = cos(theta) alone: the overlap is p(x) = ((1+x)/2)^sn r(x)
    with r = sum_S conj(b_S) a_S P^(0,2sn)_{S-sn}(x) of degree B - 1 (B blocks),
    sampled in that Jacobi form since p / ((1+x)/2)^sn loses digits near -1.
    [-1, 1] is cut at Re(z) for each root z of r's Chebyshev series (exact
    from B nodes) inside it. q log q is smooth on each piece, x = a + (b - a)
    s(t) flattens its kinks at the cuts and at -1, and _PIECE_ORDER
    Gauss-Legendre nodes per piece reach rounding level. Decoders that are
    not phase-matched take the same path. Raises unless q integrates to 1,
    i.e. unless the decoder resolves the identity.

    This is the one-row call of the batched kernel :func:`_gains`.
    """
    if decoder is None:
        decoder_coeffs = _matched_coefficients(code.sn, code.nspins, code.coeffs)
    elif decoder.sn != code.sn or decoder.nspins != code.nspins:
        raise ValueError("decoder must live on the code's irrep tower")
    else:
        decoder_coeffs = decoder.coeffs
    return float(_gains(code.sn, code.nspins, code.coeffs[None], decoder_coeffs[None])[0])


# one entry per tower shape (B, 2 sn), at most 16: 16 B^2 bytes each, 4 MB for the
# 501 blocks of N = 1000
@lru_cache(maxsize=16)
def _fit_tables(blocks: int, twice_sn: int) -> tuple[np.ndarray, np.ndarray]:
    """The B x B tables that sample and fit r: P^(0,2sn)_{S-sn} at the B Chebyshev nodes
    (row per block, S descending), by the recurrence of :func:`spinlab.numerics._three_terms`,
    and the transposed Chebyshev-Vandermonde matrix of those nodes, as ``chebinterpolate``
    builds it; frozen and shared."""
    nodes = chebyshev.chebpts1(blocks)
    rows = [np.zeros(blocks), np.ones(blocks)]  # P_{-1} = 0 and P_0 = 1
    for a, b, c in numerics._three_terms(twice_sn, blocks - 1):
        rows.append((a * nodes + b) * rows[-1] - c * rows[-2])
    jacobi = np.array(rows[:0:-1])
    vander = chebyshev.chebvander(nodes, blocks - 1).T
    for table in (jacobi, vander):
        table.setflags(write=False)
    return jacobi, vander


def _gains(sn: HalfInt, nspins: int, codes: np.ndarray, decoders: np.ndarray) -> np.ndarray:
    """Gains of K codes (K, B) under K decoders (K, B), all on the tower (sn, N), by the
    rule of :func:`info_gain_quadrature`, shape (K,).

    One pass for all rows: r is sampled at the B Chebyshev nodes, the block
    products times the Jacobi rows of :func:`_fit_tables` summed over the
    blocks in block order by one reduction (:func:`spinlab.codes._block_sum`,
    in chunks of blocks that bound its buffer), and fitted as
    ``chebinterpolate`` does; the roots come in closed form when B = 2 and
    from ``chebroots`` row by row otherwise. With one block r is constant
    and every row is the one piece [-1, 1]. Otherwise the cuts are padded
    with empty pieces at +1 to the most any row has, so the rows share one
    node layout, and each row's sums run over its own pieces only: a row's
    gain does not depend on the other rows. Raises, naming the first such
    row, unless every row's q integrates to 1.
    """
    rows, blocks = codes.shape
    products = _overlap_products(codes, decoders)
    cuts = np.ones((rows, blocks + 1))  # [-1, 1], then B - 1 empty pieces at +1
    cuts[:, 0] = -1.0
    pieces = None  # one block: every row fills the node layout
    if blocks > 1:
        jacobi, vander = _fit_tables(blocks, sn.twice)
        series = np.matmul(vander, _block_sum(products, jacobi)[:, :, None])[:, :, 0]
        head, tail = series[:, :1], series[:, 1:]  # scaled as chebinterpolate scales them
        head /= blocks
        tail /= 0.5 * blocks
        if blocks == 2:
            # chebroots drops a zero leading coefficient, and with it the root; a zero
            # lead leaves the root at 1, outside
            lead = series[:, 1]
            roots = np.divide(-series[:, 0], lead, out=np.ones(rows, dtype=complex),
                              where=lead != 0.0).real
            inside = np.abs(roots) < 1.0
            np.copyto(cuts[:, 1], roots, where=inside)
            pieces = 1 + inside
        else:
            pieces = np.empty(rows, dtype=int)
            for k in range(rows):
                roots = chebyshev.chebroots(series[k]).real
                row = np.unique(np.concatenate(([-1.0, 1.0], roots[np.abs(roots) < 1.0])))
                cuts[k, :row.size] = row
                pieces[k] = row.size - 1
        cuts = cuts[:, :max(pieces.tolist()) + 1]
    widths = cuts[:, 1:] - cuts[:, :-1]
    x = (cuts[:, :-1, None] + widths[:, :, None] * _PIECE_NODES).reshape(rows, -1)
    w = (widths[:, :, None] * _PIECE_WEIGHTS).reshape(rows, -1)
    overlap = _axial_series(_axial_coefficients(sn, nspins, products), nspins, np.arccos(x))
    # q and q log q side by side, then weighted in place: one (2, K, L) array
    values = np.zeros((2,) + overlap.shape)
    q = np.multiply(_tower_dim(sn, nspins), np.abs(overlap) ** 2, out=values[0])
    q_log_q = np.log(q, out=values[1], where=q > 0)
    q_log_q *= q
    values *= w
    mass, gain = values.sum(axis=-1) if pieces is None else _row_sums(values, pieces)
    for k, total in enumerate(mass.tolist()):
        if not abs(total - 1.0) <= 1e-8:
            raise RuntimeError(f"row {k}: outcome density integrates to {total!r}, "
                               "not 1; the decoder does not resolve the identity")
    return gain * _LOG2E


def _row_sums(values: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """Sums over the last axis of values (..., K, L) of each row k's first pieces[k]
    pieces, as a row of that length alone sums: numpy's pairwise sum would split
    a zero-padded row elsewhere."""
    out = values.sum(axis=-1)  # exact for the rows that fill the layout
    for count in set(pieces.tolist()) - {values.shape[-1] // _PIECE_ORDER}:
        sel = pieces == count
        out[..., sel] = values[..., sel, :count * _PIECE_ORDER].sum(axis=-1)
    return out


def scan_alpha(beta: float = 0.0) -> tuple[np.ndarray, list[float]]:
    """Information gain of the two-spin family at 64 alphas spanning [0, pi/2].

    One 64-row call of :func:`_gains`, with the phase-matched decoders of
    :func:`spinlab.codes.matched_decoder`; each gain equals the single
    call ``info_gain_quadrature(alpha_code(AlphaFamily(alpha, beta)))``.
    """
    alphas = np.linspace(0.0, math.pi / 2.0, 64)
    sn = HalfInt(0)
    codes = _alpha_coefficients(alphas, beta)
    return alphas, _gains(sn, 2, codes, _matched_coefficients(sn, 2, codes)).tolist()


def refine_alpha(alphas: np.ndarray, gains: list[float],
                 beta: float = 0.0) -> tuple[float, float]:
    """Golden-section search for the gain peak bracketed by a scan.

    The scan's alphas must be strictly increasing, with one finite gain
    each, and its largest gain must be interior; its two neighbours bracket
    the peak, which is narrowed to width _ALPHA_TOL. Returns (alpha_star, gain_star).
    Raises ValueError on a malformed scan, RuntimeError without an interior peak.

    It compares the same points with the same float arithmetic as a search
    that evaluates one point at a time, but reads each gain from a table
    that one :func:`_gains` call fills per lookahead batch: every point the
    search can evaluate in its next _LOOKAHEAD + 1 evaluations, down both
    outcomes of each comparison (:func:`_lookahead`). Paths through different
    outcomes often meet at the same point, which is evaluated once and may let
    the walk run past the batch's depth. A kernel row equals its one-row call,
    so alpha_star and gain_star are bit for bit those of the one-point search
    with ``info_gain_quadrature(alpha_code(AlphaFamily(alpha, beta)))``. The
    bracket of the 64-point scan takes 6 calls of 8 to 15 rows, 71 rows in
    all, where one point at a time takes 26 calls.
    """
    alphas, gains = np.asarray(alphas, dtype=float), np.asarray(gains, dtype=float)
    if alphas.ndim != 1 or gains.shape != alphas.shape:
        raise ValueError("need one gain per alpha")
    if not (np.diff(alphas) > 0.0).all():
        raise ValueError("alphas must be strictly increasing")
    if not np.isfinite(gains).all():
        raise ValueError("gains must be finite")
    peak = int(np.argmax(gains))
    if peak == 0 or peak == len(alphas) - 1:
        raise RuntimeError("no interior maximum bracketed by the scan")
    a, b = float(alphas[peak - 1]), float(alphas[peak + 1])
    for alpha in (a, b):
        AlphaFamily(alpha, beta)  # raises unless alpha lies in [0, pi/2]
    node = (a, b, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
    sn = HalfInt(0)
    known: dict[float, float] = {}
    while True:
        reads = _reads(*node)
        if any(x not in known for x in reads):
            batch = list(_lookahead(node, known, {}, _LOOKAHEAD + 1))
            codes = _alpha_coefficients(batch, beta)
            known.update(zip(batch, _gains(sn, 2, codes, _matched_coefficients(sn, 2, codes)).tolist()))
        if len(reads) == 1:
            return reads[0], known[reads[0]]
        c, d = reads
        node = _outcomes(*node)[0 if known[c] > known[d] else 1]


def _reads(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """The points whose gains the golden-section search reads at the bracket (a, b) with
    inner points c < d: c and d while b - a > _ALPHA_TOL, then the midpoint it returns."""
    return (c, d) if b - a > _ALPHA_TOL else (0.5 * (a + b),)


def _outcomes(a: float, b: float, c: float, d: float) -> tuple[tuple[float, ...], ...]:
    """The brackets after the comparison at (a, b, c, d): the first when the gain at c
    beats the gain at d, the second otherwise."""
    return (a, d, d - _INVPHI * (d - a), c), (c, b, d, c + _INVPHI * (b - c))


def _lookahead(node: tuple[float, ...], known: dict, batch: dict, evals: int,
               parent: tuple[float, ...] = ()) -> dict:
    """batch, filled (as dict keys, in order) with every point that the search at node
    can evaluate in its next ``evals`` evaluations, down both outcomes of each comparison:
    the points it reads that are neither in known nor read at the parent node. Paths
    may meet at the same point; it is evaluated once."""
    points = _reads(*node)
    for x in points:
        if evals and x not in known and x not in parent:
            batch[x] = None
            evals -= 1
    if evals and len(points) == 2:
        for child in _outcomes(*node):
            _lookahead(child, known, batch, evals, points)
    return batch


def maximize_alpha(beta: float = 0.0) -> tuple[float, float]:
    """Alpha maximizing the two-spin family's information gain.

    A 64-point scan over [0, pi/2] (scan_alpha, one 64-row kernel call)
    brackets the peak, then golden-section search (refine_alpha, 6 kernel
    calls in lookahead batches) narrows the bracket to width _ALPHA_TOL.
    Returns (alpha_star, gain_star).
    """
    return refine_alpha(*scan_alpha(beta), beta=beta)
