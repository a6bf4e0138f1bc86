"""Average information gain of the covariant decoding measurement."""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .codes import AlphaFamily, MultiRepState, _axial_overlap, alpha_code, matched_decoder

_LOG2E = 1.0 / math.log(2.0)
_MAX_THETA_ORDER = 8192


def info_gain_closed(nspins: int) -> float:
    """Closed form N - (1 - 2^-N) log2(e) for the optimal 2^N-dimensional code.

    Equals log2(d) - (1 - 1/d) log2(e) at d = 2^N; approaches N - log2(e)
    from below as N grows.
    """
    if nspins < 1:
        raise ValueError("nspins must be >= 1")
    return nspins - (1.0 - 2.0 ** (-nspins)) * _LOG2E


def info_gain_quadrature(code: MultiRepState, decoder: MultiRepState | None = None,
                         theta_order: int = 64, tol: float = 1e-8) -> float:
    """Average gain int dn q log2(q) with q = D |<A(n)|B(z)>|^2.

    The decoder lies on +z, so q depends on theta alone (the overlap is
    sum_S conj(b_S) a_S d^S_{sn,sn}(theta) up to a phase) and the sphere
    average is one Gauss-Legendre sum in x = cos(theta) with weights w_j/2.
    q integrates to 1 whenever the decoder resolves the identity (checked,
    since a failed check means the "gain" is meaningless). The integrand has
    logarithmic kinks wherever the overlap vanishes, so the rule is not
    exact; two rules 1.5x apart must agree within tol, and the order
    doubles until they do.
    """
    decoder = matched_decoder(code) if decoder is None else decoder
    if decoder.sn != code.sn or decoder.nspins != code.nspins:
        raise ValueError("decoder must live on the code's irrep tower")
    dim = code.dim

    def at_order(order: int) -> float:
        rule = numerics.gauss_legendre(order)
        w = rule.weights / 2.0
        q = dim * np.abs(_axial_overlap(code, decoder, np.arccos(rule.nodes))) ** 2
        mass = float(np.sum(w * q))
        if abs(mass - 1.0) > 1e-8:
            raise RuntimeError(
                f"outcome density integrates to {mass!r}, not 1; "
                "the decoder does not resolve the identity")
        terms = np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
        return float(np.sum(w * terms))

    order = theta_order
    coarse = at_order(order)
    while order <= _MAX_THETA_ORDER:
        fine = at_order(order * 3 // 2)
        if abs(fine - coarse) <= tol:
            return fine
        order *= 2
        coarse = at_order(order)
    raise RuntimeError("information-gain quadrature did not stabilize")


def _alpha_gain(alpha: float, beta: float) -> float:
    return info_gain_quadrature(alpha_code(AlphaFamily(alpha, beta)))


def scan_alpha(beta: float = 0.0) -> tuple[np.ndarray, list[float]]:
    """Information gain of the two-spin family at 64 alphas spanning [0, pi/2]."""
    alphas = np.linspace(0.0, math.pi / 2.0, 64)
    return alphas, [_alpha_gain(float(a), beta) for a in alphas]


def refine_alpha(alphas: np.ndarray, gains: list[float], tol: float = 1e-6,
                 beta: float = 0.0) -> tuple[float, float]:
    """Golden-section search for the gain peak bracketed by a scan.

    The scan's largest gain must be interior; its two neighbours bracket
    the peak, which is narrowed to width tol. Returns (alpha_star, gain_star).
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError("tol must lie in (0, 1e-4]")
    peak = int(np.argmax(gains))
    if peak == 0 or peak == len(alphas) - 1:
        raise RuntimeError("no interior maximum bracketed by the scan")
    a, b = float(alphas[peak - 1]), float(alphas[peak + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = _alpha_gain(c, beta), _alpha_gain(d, beta)
    while b - a > tol:
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


def maximize_alpha(tol: float = 1e-6, beta: float = 0.0) -> tuple[float, float]:
    """Alpha maximizing the two-spin family's information gain.

    A 64-point scan over [0, pi/2] (scan_alpha) brackets the peak, then
    golden-section (refine_alpha) narrows the bracket to width tol.
    Returns (alpha_star, gain_star).
    """
    return refine_alpha(*scan_alpha(beta), tol=tol, beta=beta)
