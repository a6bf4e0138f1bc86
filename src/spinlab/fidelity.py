"""Mean fidelity of direction encodings, by three independent routes.

The restricted-rotation optimum comes from the top eigenpair of a small
tridiagonal matrix. The same number is the largest zero of a classical
orthogonal polynomial (Legendre for even N, the (0,1) Jacobi family for odd
N), and both are cross-checked against direct quadrature of the defining
integral. Keeping all three routes alive is the point: they share no code.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .codes import (MultiRepState, _axial_overlap, _block_twices, _decoded_fidelity, _exact_size,
                    code_state, matched_decoder, minimal_sn)
from .numerics import _checked_count
from .su2 import Direction, Z_AXIS


def build_m(nspins: int) -> numerics.Tridiag:
    """Tridiagonal overlap matrix whose top eigenvalue sets the best restricted fidelity.

    Rows are ordered from the S = N/2 block (top left) down to S = sn
    (bottom right). With k counting rows from the bottom, the entries are

        even N:  d_k = 0,              c_k = k / sqrt(4k^2 - 1)
        odd  N:  d_k = 1/(4k^2 - 1),   c_k = sqrt(k(k+1)) / (2k + 1)
    """
    if _checked_count(nspins) % 2 == 0:
        size = nspins // 2 + 1
        diag = np.zeros(size)
        cs = [k / math.sqrt(4.0 * k * k - 1.0) for k in range(1, size)]
    else:
        size = (nspins + 1) // 2
        diag = np.array([1.0 / (4.0 * k * k - 1.0) for k in range(size, 0, -1)])
        cs = [math.sqrt(k * (k + 1.0)) / (2.0 * k + 1.0) for k in range(1, size)]
    return numerics.Tridiag(diag, np.array(cs[::-1]))


def max_fidelity_rotation(nspins: int) -> tuple[float, MultiRepState]:
    """Best mean fidelity over rotation-covariant encodings of N spins.

    Returns the fidelity (1 + lambda_max)/2 and the optimizing code, whose
    coefficients are the top eigenvector mapped onto the irrep tower
    (first entry = S = N/2 block). The eigenvector of this matrix is
    sign-definite, so the coefficients are taken nonnegative.
    """
    m = build_m(nspins)
    lam, vec = numerics.tridiag_max_eigenpair(m)
    if np.any(vec < -1e-12):
        raise RuntimeError("leading eigenvector is not sign-definite")
    coeffs = np.clip(vec, 0.0, None)
    coeffs = coeffs / np.linalg.norm(coeffs)
    code = MultiRepState(minimal_sn(nspins), nspins, coeffs.astype(complex))
    return (1.0 + lam) / 2.0, code


def _zero_of(nspins: int) -> tuple[int, int]:
    """b and degree of the Jacobi polynomial P^(0,b) whose largest zero x gives the
    restricted optimum (1 + x)/2: b = 2 sn of the minimal tower (0 for even N, 1 for
    odd N), the degree its number of blocks."""
    sn = minimal_sn(nspins)
    return sn.twice, len(_block_twices(sn, nspins))


def max_fidelity_polynomial(nspins: int) -> float:
    """Best restricted fidelity via the largest orthogonal-polynomial zero."""
    return (1.0 + numerics._largest_zero(*_zero_of(nspins))) / 2.0


_PASS_COEFFICIENTS = 2 ** 20  # per Newton pass of max_fidelity_polynomials: 24 MB at most


def max_fidelity_polynomials(max_n: int) -> np.ndarray:
    """:func:`max_fidelity_polynomial` of N = 1, ..., max_n, bit for bit, from batched Newton
    passes (:func:`spinlab.numerics._largest_zeros`), one up to max_n = 1000."""
    _checked_count(max_n, "max_n")
    bs, degrees = zip(*map(_zero_of, range(1, max_n + 1)))
    step = max(1, _PASS_COEFFICIENTS // max(degrees))
    x = np.concatenate([numerics._largest_zeros(bs[i:i + step], degrees[i:i + step])
                        for i in range(0, max_n, step)])
    return (1.0 + x) / 2.0


def fidelity_optimal(d: int) -> float:
    """Best possible mean fidelity of any d-dimensional encoding: d/(d+1)."""
    _checked_count(d, "d", 2)
    return d / (d + 1)


def fidelity_parallel(nspins: int) -> float:
    """Mean fidelity of N aligned product spins: (N+1)/(N+2)."""
    _checked_count(nspins)
    return (nspins + 1) / (nspins + 2)


def fidelity_quadrature(code: MultiRepState, decoder: MultiRepState | None = None,
                        decoder_direction: Direction = Z_AXIS) -> float:
    """Mean fidelity by direct quadrature of the defining average.

    Computes D * int dn (1 + n.m)/2 |<A(n)|B(m)>|^2 over the normalized
    sphere measure, with B the covariant decoder family (phase-matched to
    the code unless one is passed explicitly) evaluated at the fixed
    direction m. The integrand is band-limited, so the grid of
    :func:`spinlab.codes._exact_rings` is exact, not approximate.

    With the decoder on +z (m.theta == 0, any phi) the integrand depends on
    theta alone: the overlap is sum_S conj(b_S) a_S d^S_{sn,sn}(theta) up to
    a phase, so the average is one Gauss-Legendre sum in x = cos(theta)
    over the polar nodes of that grid,

        D * sum_j (w_j / 2) (1 + x_j)/2 |sum_S conj(b_S) a_S d^S_{sn,sn}(arccos x_j)|^2.

    The overlap is one cosine series for the whole tower
    (:func:`spinlab.codes._axial_overlap`), built from one tridiagonal
    eigenvector per block, so this path costs O(N^2) time and memory; it
    shares no code with the eigen and polynomial routes. Its terms reach
    D near x = 1, so its rounding grows as D eps: about 40 D eps at
    N = 1000.

    Any other decoder direction takes the exact sphere grid, ring by ring
    and projection by projection, as one outcome of weight D, state B(m)
    and guess m of a finite POVM (:func:`spinlab.codes._decoded_fidelity`);
    its agreement with the +z value is the covariance cross-check.
    """
    decoder = matched_decoder(code) if decoder is None else decoder
    if decoder.sn != code.sn or decoder.nspins != code.nspins:
        raise ValueError("decoder must live on the code's irrep tower")
    if decoder_direction.theta == 0.0:
        rule = numerics.gauss_legendre(_exact_size(code.nspins))
        overlap_sq = np.abs(_axial_overlap(code, decoder, np.arccos(rule.nodes))) ** 2
        score = (1.0 + rule.nodes) / 2.0
        return float(code.dim * np.sum(rule.weights / 2.0 * score * overlap_sq))
    return _decoded_fidelity(code, np.array([float(code.dim)]),
                             code_state(decoder, decoder_direction)[None, :],
                             decoder_direction.unit_vector[None, :])


def asymptotic_table(max_n: int) -> list[tuple[int, float, float]]:
    """Rows (N, F, N^2 (1-F)) for the optimal restricted encodings, N = 1, ..., max_n.

    F comes from the polynomial route for the whole range at once
    (:func:`max_fidelity_polynomials`). The scaled deficit in the last column
    climbs toward the square of the first J0 zero; useful for checking the
    large-N falloff.
    """
    return [(n, f, n * n * (1.0 - f))
            for n, f in enumerate(max_fidelity_polynomials(max_n).tolist(), start=1)]
