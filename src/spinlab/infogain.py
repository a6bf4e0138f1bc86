"""Average information gain of the covariant decoding measurement."""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev

from . import numerics
from .codes import AlphaFamily, MultiRepState, _axial_overlap, alpha_code, matched_decoder

_LOG2E = 1.0 / math.log(2.0)
# Gauss-Legendre nodes per piece, taken to t in [0, 1] and through s(t) = t^3 (10 - 15t + 6t^2):
# nodes s(t_j), weights s'(t_j) w_j / 4 (1/2 from dt, 1/2 from the sphere's dx/2)
_PIECE_ORDER = 48
_T = (numerics.gauss_legendre(_PIECE_ORDER).nodes + 1.0) / 2.0
_PIECE_NODES = _T ** 3 * (10.0 - 15.0 * _T + 6.0 * _T ** 2)
_PIECE_WEIGHTS = 7.5 * (_T * (1.0 - _T)) ** 2 * numerics.gauss_legendre(_PIECE_ORDER).weights
# width in alpha to which the golden-section search narrows the peak's bracket
_ALPHA_TOL = 1e-6


def info_gain_closed(nspins: int) -> float:
    """Closed form N - (1 - 2^-N) log2(e) for the optimal 2^N-dimensional code.

    Equals log2(d) - (1 - 1/d) log2(e) at d = 2^N; approaches N - log2(e)
    from below as N grows.
    """
    if nspins < 1:
        raise ValueError("nspins must be >= 1")
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
    """
    from scipy import special  # here, not at the top: importing spinlab loads no scipy
    decoder = matched_decoder(code) if decoder is None else decoder
    if decoder.sn != code.sn or decoder.nspins != code.nspins:
        raise ValueError("decoder must live on the code's irrep tower")
    roots = chebyshev.chebroots(chebyshev.chebinterpolate(lambda x: sum(
        np.conj(b) * a * special.eval_jacobi((s.twice - code.sn.twice) // 2, 0.0, code.sn.twice, x)
        for a, b, s in zip(code.coeffs, decoder.coeffs, code.spins)), code.coeffs.size - 1)).real
    cuts = np.unique(np.concatenate(([-1.0, 1.0], roots[np.abs(roots) < 1.0])))
    x = (cuts[:-1, None] + np.outer(np.diff(cuts), _PIECE_NODES)).ravel()
    w = np.outer(np.diff(cuts), _PIECE_WEIGHTS).ravel()
    q = code.dim * np.abs(_axial_overlap(code, decoder, np.arccos(x))) ** 2
    mass = float(np.sum(w * q))
    if abs(mass - 1.0) > 1e-8:
        raise RuntimeError(f"outcome density integrates to {mass!r}, not 1; "
                           "the decoder does not resolve the identity")
    return float(np.sum(w * special.xlogy(q, q))) * _LOG2E


def _alpha_gain(alpha: float, beta: float) -> float:
    return info_gain_quadrature(alpha_code(AlphaFamily(alpha, beta)))


def scan_alpha(beta: float = 0.0) -> tuple[np.ndarray, list[float]]:
    """Information gain of the two-spin family at 64 alphas spanning [0, pi/2]."""
    alphas = np.linspace(0.0, math.pi / 2.0, 64)
    return alphas, [_alpha_gain(float(a), beta) for a in alphas]


def refine_alpha(alphas: np.ndarray, gains: list[float],
                 beta: float = 0.0) -> tuple[float, float]:
    """Golden-section search for the gain peak bracketed by a scan.

    The scan's largest gain must be interior; its two neighbours bracket
    the peak, which is narrowed to width _ALPHA_TOL. Returns (alpha_star, gain_star).
    """
    peak = int(np.argmax(gains))
    if peak == 0 or peak == len(alphas) - 1:
        raise RuntimeError("no interior maximum bracketed by the scan")
    a, b = float(alphas[peak - 1]), float(alphas[peak + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = _alpha_gain(c, beta), _alpha_gain(d, beta)
    while b - a > _ALPHA_TOL:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = _alpha_gain(c, beta)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = _alpha_gain(d, beta)
    best = 0.5 * (a + b)
    return best, _alpha_gain(best, beta)


def maximize_alpha(beta: float = 0.0) -> tuple[float, float]:
    """Alpha maximizing the two-spin family's information gain.

    A 64-point scan over [0, pi/2] (scan_alpha) brackets the peak, then
    golden-section (refine_alpha) narrows the bracket to width _ALPHA_TOL.
    Returns (alpha_star, gain_star).
    """
    return refine_alpha(*scan_alpha(beta), beta=beta)
