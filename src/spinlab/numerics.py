"""Quadrature rules, orthogonal polynomials, and small eigensolvers.

Everything works in plain float64. The symmetric tridiagonal top eigenpair
is computed by hand (Sturm counts plus inverse iteration) so that it stays
independent of the LAPACK-backed dense path it is cross-checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = [
    "Quadrature1D",
    "Tridiag",
    "bessel_j0_first_zero",
    "gauss_legendre",
    "hermitian_eigensystem",
    "jacobi01_eval",
    "largest_zero",
    "legendre_eval",
    "spectral_entropy",
    "tridiag_max_eigenpair",
]


@dataclass(frozen=True, eq=False)
class Quadrature1D:
    """Nodes and weights for integration over [-1, 1].

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing abscissas in [-1, 1].
    weights : ndarray
        Positive weights; for a Gauss-Legendre rule they sum to 2.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.abs(nodes) <= 1.0):
            raise ValueError("nodes must lie in [-1, 1]")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class Tridiag:
    """Real symmetric tridiagonal matrix stored as diagonal plus off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        off = np.asarray(self.offdiag, dtype=float)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("diag must be a non-empty 1-d array")
        if off.shape != (diag.size - 1,):
            raise ValueError("offdiag must have length len(diag) - 1")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

    @property
    def size(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.size > 1:
            idx = np.arange(self.size - 1)
            m[idx, idx + 1] = self.offdiag
            m[idx + 1, idx] = self.offdiag
        return m


@lru_cache(maxsize=64)
def _gauss_legendre_cached(order: int) -> Quadrature1D:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return Quadrature1D(nodes, weights)


def gauss_legendre(order: int) -> Quadrature1D:
    """Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2*order - 1. Rules are cached and
    their arrays frozen, so repeated requests share one object.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _gauss_legendre_cached(order)


def legendre_eval(l: int, x):
    """Evaluate the Legendre polynomial P_l at x (scalar or ndarray)."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return _eval_with_derivative("legendre", l, x)[0]


def jacobi01_eval(l: int, x):
    """Evaluate the Jacobi polynomial with weight (1+x), normalized to 1 at x=1.

    Three-term recursion derived from the general Jacobi recurrence at
    parameters (0, 1); scalar or ndarray argument.
    """
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return _eval_with_derivative("jacobi01", l, x)[0]


def _three_term(kind: str, k: int) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of p_k = (a x + b) p_{k-1} - c p_{k-2} for the family."""
    if kind == "legendre":
        return (2 * k - 1) / k, 0.0, (k - 1) / k
    den = (k + 1) * (2 * k - 1)
    return (2 * k + 1) * (2 * k - 1) / den, -1.0 / den, (k - 1) * (2 * k + 1) / den


def _eval_with_derivative(kind: str, l: int, x):
    """Value and first derivative of the degree-l polynomial of the family, elementwise in x."""
    zero = x * 0.0
    p_prev, p = zero, zero + 1.0
    d_prev, d = zero, zero
    for k in range(1, l + 1):
        a, b, c = _three_term(kind, k)
        slope = a * x + b
        p, p_prev, d, d_prev = (slope * p - c * p_prev, p,
                                a * p + slope * d - c * d_prev, d)
    return p, d


def largest_zero(kind: str, l: int) -> float:
    """Greatest root in (-1, 1) of P_l ('legendre') or the (0,1) Jacobi family.

    Newton iteration from x = 1: both families are positive, increasing, and
    convex to the right of their last zero, so the iterates descend
    monotonically onto it. Near convergence rounding noise in p can flip its
    sign and bounce the iterate by a fraction of an ulp; the step-size stop
    and the two-cycle check absorb that.
    """
    if kind not in ("legendre", "jacobi01"):
        raise ValueError(f"unknown polynomial family: {kind!r}")
    if l < 1:
        raise ValueError("degree must be >= 1")
    x = 1.0
    x_older = math.inf
    for _ in range(200):
        p, dp = _eval_with_derivative(kind, l, x)
        if p == 0.0:
            return x
        if dp <= 0.0:
            raise RuntimeError(
                f"largest_zero({kind!r}, {l}): derivative lost positivity")
        x_new = x - p / dp
        if abs(x_new - x) <= 5e-16:
            return x_new
        if x_new == x_older:
            return 0.5 * (x + x_new)
        x_older = x
        x = x_new
    raise RuntimeError(f"largest_zero({kind!r}, {l}) did not converge")


_PIVMIN = 1e-292


def _count_below(diag: np.ndarray, off_sq: np.ndarray, x: float) -> int:
    """Number of eigenvalues strictly below x, from the Sturm pivot signs."""
    count = 0
    q = 1.0
    for i in range(diag.size):
        q = (diag[i] - x) - (off_sq[i - 1] / q if i else 0.0)
        if abs(q) < _PIVMIN:
            q = -_PIVMIN
        if q < 0.0:
            count += 1
    return count


def _bisect_kth(diag, off_sq, k: int, lo: float, hi: float, tol: float) -> float:
    """k-th smallest eigenvalue (1-based) by bisection on the Sturm count."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _count_below(diag, off_sq, mid) >= k:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _solve_shifted(diag, off, shift: float, rhs) -> np.ndarray:
    """Solve (T - shift*I) x = rhs for symmetric tridiagonal T.

    Gaussian elimination with partial pivoting; row swaps introduce at most
    one extra superdiagonal of fill-in. Safe to call with a shift that makes
    the system nearly singular, which is exactly the inverse-iteration case.
    """
    n = diag.size
    y = np.array(rhs, dtype=float)
    u0 = np.zeros(n)
    u1 = np.zeros(n)
    u2 = np.zeros(n)
    # active row i spans columns i, i+1, i+2
    cur = [diag[0] - shift, off[0] if n > 1 else 0.0, 0.0]
    for i in range(n - 1):
        nxt = [off[i], diag[i + 1] - shift, off[i + 1] if i + 1 < n - 1 else 0.0]
        if abs(nxt[0]) > abs(cur[0]):
            cur, nxt = nxt, cur
            y[i], y[i + 1] = y[i + 1], y[i]
        piv = cur[0] if cur[0] != 0.0 else _PIVMIN
        m = nxt[0] / piv
        u0[i], u1[i], u2[i] = piv, cur[1], cur[2]
        y[i + 1] -= m * y[i]
        cur = [nxt[1] - m * cur[1], nxt[2] - m * cur[2], 0.0]
    u0[n - 1] = cur[0] if cur[0] != 0.0 else _PIVMIN
    x = np.zeros(n)
    x[n - 1] = y[n - 1] / u0[n - 1]
    for i in range(n - 2, -1, -1):
        acc = y[i] - u1[i] * x[i + 1]
        if i + 2 < n:
            acc -= u2[i] * x[i + 2]
        x[i] = acc / u0[i]
    return x


def _tridiag_apply(diag, off, v) -> np.ndarray:
    out = diag * v
    if diag.size > 1:
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
    return out


def tridiag_max_eigenpair(m: Tridiag) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its unit eigenvector.

    The eigenvalue comes from Sturm-count bisection to absolute width 1e-13
    (relative to the Gershgorin scale), the eigenvector from inverse
    iteration. The eigenvector sign is fixed so its first nonzero entry is
    positive.

    Raises
    ------
    RuntimeError
        If the two largest eigenvalues are closer than 1e-10: the leading
        eigenvector is then numerically ill-defined and callers must not
        trust it.
    """
    n = m.size
    if n == 1:
        return float(m.diag[0]), np.ones(1)
    diag, off = m.diag, m.offdiag
    off_sq = off * off
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    span = max(hi - lo, 1.0)
    lo -= 1e-6 * span
    hi += 1e-6 * span
    scale = max(1.0, abs(lo), abs(hi))
    tol = 1e-13 * scale
    lam = _bisect_kth(diag, off_sq, n, lo, hi, tol)
    second = _bisect_kth(diag, off_sq, n - 1, lo, hi, tol)
    if lam - second < 1e-10 * scale:
        raise RuntimeError(
            f"top eigenvalues nearly degenerate (gap {lam - second:.3e}); "
            "leading eigenvector is not well defined")
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(5):
        w = _solve_shifted(diag, off, lam, v)
        v = w / np.linalg.norm(w)
        resid = float(np.max(np.abs(_tridiag_apply(diag, off, v) - lam * v)))
        if resid <= 1e-12 * scale:
            break
    else:
        raise RuntimeError("inverse iteration did not converge")
    for entry in v:
        if abs(entry) > 1e-12:
            if entry < 0.0:
                v = -v
            break
    return lam, v


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    dev = float(np.max(np.abs(h - h.conj().T)))
    if not dev <= 1e-10:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def spectral_entropy(h) -> float:
    """Entropy -sum v log2 v in bits over the eigenvalues v of a Hermitian
    matrix; eigenvalues at or below 1e-15 contribute nothing."""
    vals, _ = hermitian_eigensystem(h)
    total = 0.0
    for v in vals.real:
        if v > 1e-15:
            total -= v * math.log2(v)
    return total


def bessel_j0_first_zero() -> float:
    """First positive zero of the Bessel function J0, about 2.4048."""
    return float(special.jn_zeros(0, 1)[0])
