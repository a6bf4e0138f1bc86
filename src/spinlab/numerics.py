"""Quadrature rules, orthogonal polynomials, and small eigensolvers.

Everything works in plain float64. The symmetric tridiagonal top eigenpair
is computed by hand (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) so
that it stays independent of the LAPACK-backed dense path it is
cross-checked against. One Sturm question, how many eigenvalues lie above x
(counted up to 1 or 2), gives the top eigenvalue by bisection and the gap
below it; inverse iteration gives the eigenvector. Those scalar loops run on
Python lists of floats, which are IEEE binary64 like numpy's float64 but
several times cheaper to index one element at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Quadrature1D",
    "Tridiag",
    "bessel_j0_first_zero",
    "gauss_legendre",
    "hermitian_eigenvalues",
    "largest_zero",
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


def _checked_count(count: int, name: str = "nspins", least: int = 1) -> int:
    """count, raising ValueError unless it is an integer >= least: the library's one check
    of a spin count, a dimension, a table size, a shot count, a rule order or a degree."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {count!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}")
    return count


@lru_cache(maxsize=64)
def _gauss_legendre_cached(order: int) -> Quadrature1D:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return Quadrature1D(nodes, weights)


def gauss_legendre(order: int) -> Quadrature1D:
    """Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2*order - 1. Rules are cached and
    their arrays frozen, so repeated requests share one object.
    """
    return _gauss_legendre_cached(_checked_count(order, "order"))


def _three_terms(b: int, l: int) -> list[tuple[float, float, float]]:
    """Coefficients of P_k = (a_k x + b_k) P_{k-1} - c_k P_{k-2}, k = 1, ..., l, for the
    Jacobi family P^(0,b) (weight (1 + x)^b; b = 0 is Legendre), P_0 = 1.

    From 2k (k+b) (2k+b-2) P_k = (2k+b-1) ((2k+b)(2k+b-2) x - b^2) P_{k-1}
    - 2 (k-1) (k+b-1) (2k+b) P_{k-2}, each coefficient one rounding of an exact
    integer ratio, common factors cancelled; k = 1 is P_1 = ((b+2) x - b)/2,
    where that formula divides by zero at b = 0.
    """
    terms = [((b + 2) / 2, -b / 2, 0.0)][:l]
    for k in range(2, l + 1):
        c, kb = 2 * k + b, k * (k + b)
        terms.append((c * (c - 1) / (2 * kb), -(c - 1) * b * b / (2 * kb * (c - 2)),
                      (k - 1) * (k + b - 1) * c / (kb * (c - 2))))
    return terms


def _eval_with_derivative(terms, x):
    """Value and first derivative, elementwise in x and in the coefficients, of the
    polynomial that the recurrence coefficients of :func:`_three_terms` build up to
    their last degree: terms yields one (a, b, c) per step, each a float or an array."""
    zero = x * 0.0
    p_prev, p = zero, zero + 1.0
    d_prev, d = zero, zero
    for a, b, c in terms:
        slope = a * x + b
        # pairs, not one four-tuple: CPython swaps a pair without building a tuple
        d, d_prev = a * p + slope * d - c * d_prev, d
        p, p_prev = slope * p - c * p_prev, p
    return p, d


def largest_zero(kind: str, l: int) -> float:
    """Greatest root in (-1, 1) of P_l ('legendre') or the (0,1) Jacobi family
    ('jacobi01'): :func:`_largest_zero` of P^(0,b) with b = 0 or 1."""
    if kind not in ("legendre", "jacobi01"):
        raise ValueError(f"unknown polynomial family: {kind!r}")
    return _largest_zero(("legendre", "jacobi01").index(kind), l)


def _largest_zero(b: int, l: int) -> float:
    """Greatest root in (-1, 1) of the Jacobi polynomial P^(0,b)_l, evaluated by the
    recurrence of :func:`_three_terms`.

    Newton iteration from x = 1: the polynomial is positive, increasing, and
    convex to the right of its last zero, so the iterates descend
    monotonically onto it. Near convergence rounding noise in p can flip its
    sign and bounce the iterate by a fraction of an ulp; the step-size stop
    and the two-cycle check absorb that.
    """
    terms = _three_terms(b, _checked_count(l, "degree"))  # once, not once per Newton step
    x = 1.0
    x_older = math.inf
    for _ in range(200):
        p, dp = _eval_with_derivative(terms, x)
        if p == 0.0:
            return x
        if dp <= 0.0:
            raise RuntimeError(f"largest zero of P^(0,{b})_{l}: derivative lost positivity")
        x_new = x - p / dp
        if abs(x_new - x) <= 5e-16:
            return x_new
        if x_new == x_older:
            return 0.5 * (x + x_new)
        x_older = x
        x = x_new
    raise RuntimeError(f"largest zero of P^(0,{b})_{l} did not converge")


def _largest_zeros(bs, degrees) -> np.ndarray:
    """:func:`_largest_zero` of every pair (bs[i], degrees[i]) at once, equal to it
    bit for bit.

    One Newton iteration runs for the whole table. Each family's recurrence
    coefficients come from one :func:`_three_terms` list up to the highest
    degree; past an element's own degree its steps are (a, b, c) = (0, 1, 0),
    which leave p and p' exactly as they are. Each element stops by the rules
    of :func:`_largest_zero`, and only the elements still iterating are
    evaluated.
    """
    bs, degrees = list(bs), list(degrees)
    if len(degrees) != len(bs):
        raise ValueError("need one degree per polynomial family")
    degrees = np.array([_checked_count(degree, "degree") for degree in degrees], dtype=int)
    if not bs:
        return np.empty(0)
    families = sorted(set(bs))
    top = int(degrees.max())
    # a, b, c by step and family, then by step and live element (contiguous rows)
    table = np.array([_three_terms(b, top) for b in families]).transpose(2, 1, 0).copy()
    coef = table.take([families.index(b) for b in bs], axis=2)
    np.copyto(coef, np.array([0.0, 1.0, 0.0])[:, None, None],
              where=np.arange(1, top + 1)[:, None] > degrees)  # past each degree
    zeros = np.empty(degrees.size)
    live = np.arange(degrees.size)  # the elements still iterating
    x = np.ones(degrees.size)
    x_older = np.full(degrees.size, math.inf)
    for _ in range(200):
        if not live.size:
            break
        p, dp = _eval_with_derivative(zip(*coef), x)
        bad = (p != 0.0) & (dp <= 0.0)
        if bad.any():
            i = live[bad.argmax()]
            raise RuntimeError(f"largest zero of P^(0,{bs[i]})_{degrees[i]}: "
                               "derivative lost positivity")
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - p / dp
        done = np.zeros(live.size, dtype=bool)
        for rule, value in ((p == 0.0, x), (np.abs(x_new - x) <= 5e-16, x_new),
                            (x_new == x_older, 0.5 * (x + x_new))):
            rule &= ~done  # the first rule that holds decides, as in _largest_zero
            zeros[live[rule]] = value[rule]
            done |= rule
        if done.any():  # keep the live columns contiguous: strided rows cost 4x
            live, x_older, x = live[~done], x[~done], x_new[~done]
            coef = coef[:, :degrees[live].max(initial=0)].compress(~done, axis=2)
        else:
            x_older, x = x, x_new
    if live.size:
        i = live[0]
        raise RuntimeError(f"largest zero of P^(0,{bs[i]})_{degrees[i]} did not converge")
    return zeros


_PIVMIN = 1e-292


def _count_above(diag: list[float], coupling: list[float], x: float, limit: int) -> int:
    """Number of eigenvalues at or above x, counted up to limit: the Sturm pivots of
    T - x I that are not negative (a NaN pivot, made only by an overflowing coupling,
    is not), stopping at the limit-th. coupling[i] is the squared off-diagonal entry
    joining row i to row i - 1, with coupling[0] = 0. Both are plain lists: the loop
    reads one scalar per row, and numpy's element access costs several times the
    arithmetic.
    """
    pivmin = _PIVMIN
    count = 0
    q = 1.0
    for d, c in zip(diag, coupling):
        q = (d - x) - c / q
        if abs(q) < pivmin:
            q = -pivmin
        elif not q < 0.0:
            count += 1
            if count == limit:
                break
    return count


def _solve_shifted(diag: list[float], off: list[float], shift: float,
                   rhs: list[float]) -> list[float]:
    """Solve (T - shift*I) x = rhs for symmetric tridiagonal T, on plain lists.

    Gaussian elimination with partial pivoting; row swaps introduce at most
    one extra superdiagonal of fill-in. Safe to call with a shift that makes
    the system nearly singular, which is exactly the inverse-iteration case.
    """
    u0, u1, u2, y = [], [], [], []  # the rows of U and the eliminated rhs
    # the active row i spans columns i, i+1, i+2 as (c0, c1, c2), with rhs
    # entry yc; the next row is (n0, n1, n2), with rhs entry yn
    c0, c1, c2 = diag[0] - shift, off[0] if off else 0.0, 0.0
    yc = rhs[0]
    for n0, d, n2, yn in zip(off, diag[1:], off[1:] + [0.0], rhs[1:]):
        n1 = d - shift
        if abs(n0) > abs(c0):
            c0, c1, c2, n0, n1, n2 = n0, n1, n2, c0, c1, c2
            yc, yn = yn, yc
        piv = c0 if c0 != 0.0 else _PIVMIN
        m = n0 / piv
        u0.append(piv)
        u1.append(c1)
        u2.append(c2)
        y.append(yc)
        yc = yn - m * yc
        c0, c1, c2 = n1 - m * c1, n2 - m * c2, 0.0
    # back substitution from the last row; the fill-in slot of row n - 2
    # lies past the last column and holds +0.0, so against x2 = 0 it
    # subtracts nothing
    x1, x2 = yc / (c0 if c0 != 0.0 else _PIVMIN), 0.0
    x = [x1]
    for a, b1, b2, yi in zip(reversed(u0), reversed(u1), reversed(u2), reversed(y)):
        x1, x2 = (yi - b1 * x1 - b2 * x2) / a, x1
        x.append(x1)
    x.reverse()
    return x


def _tridiag_apply(diag, off, v) -> np.ndarray:
    out = diag * v
    if diag.size > 1:
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
    return out


def _inverse_iteration(m: Tridiag, lam: float, shift: float, scale: float,
                       settle: bool) -> np.ndarray | None:
    """Unit eigenvector of m for lam from solves with m - shift*I: at most five,
    until the residual is 1e-12 scale.

    That residual leaves an error of up to residual / gap in the vector, where
    gap is the distance to the next eigenvalue. With settle (a close second
    eigenvalue) the solves go on from there, at most ten more, until two
    successive vectors agree to 1e-14 up to sign; each one shrinks the error by
    |lam - shift| / gap, under 1e-13 / 1e-10 past the gap guard. Returns None
    if a solve overflows, so that its norm is not finite: an exactly singular
    pivot in a decoupled block grows the solution by 1/_PIVMIN.
    """
    diag, off = m.diag.tolist(), m.offdiag.tolist()

    def solve(v: list[float]) -> np.ndarray | None:
        w = np.array(_solve_shifted(diag, off, shift, v))
        norm = float(np.linalg.norm(w))
        return w / norm if 0.0 < norm < math.inf else None

    v = [1.0 / math.sqrt(m.size)] * m.size
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(5):
            v = solve(v)
            if v is None:
                return None
            resid = float(np.max(np.abs(_tridiag_apply(m.diag, m.offdiag, v) - lam * v)))
            if resid <= 1e-12 * scale:
                break
            v = v.tolist()
        else:
            raise RuntimeError("inverse iteration did not converge")
        if not settle:
            return v
        for _ in range(10):
            w = solve(v.tolist())
            if w is None or min(np.max(np.abs(w - v)), np.max(np.abs(w + v))) <= 1e-14:
                return w
            v = w
    raise RuntimeError("inverse iteration did not settle")


def tridiag_max_eigenpair(m: Tridiag) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its unit eigenvector.

    The eigenvalue comes from bisection on "is there an eigenvalue above x?"
    to absolute width 1e-13 (relative to the Gershgorin scale); "are there
    two?", 1e-10 below it, tests the gap to the second eigenvalue. The
    eigenvector comes from inverse iteration at the eigenvalue, retried a
    bisection width above it if the solve overflows; "are there two?" 1e-6
    below tells it to iterate past the residual test, which alone leaves an
    error of up to 1e-12 / gap. Its sign makes its first entry above 1e-5 in
    size positive: ten times that error at the 1e-6 gap, so no exact zero
    can decide it. The scalar loops run on plain Python floats, which are
    IEEE binary64 like numpy's float64.

    Raises
    ------
    RuntimeError
        If the two largest eigenvalues are closer than 1e-10 of the scale (the
        message states that bound): the leading eigenvector is then numerically
        ill-defined and callers must not trust it. Also if inverse iteration does
        not reach a unit vector with residual 1e-12 or, past a gap below 1e-6,
        does not settle.
    """
    n = m.size
    if n == 1:
        return float(m.diag[0]), np.ones(1)
    diag, off = m.diag.tolist(), m.offdiag.tolist()
    absoff = [abs(o) for o in off]
    radius = [a + b for a, b in zip(absoff + [0.0], [0.0] + absoff)]
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    span = max(hi - lo, 1.0)
    lo -= 1e-6 * span
    hi += 1e-6 * span
    scale = max(1.0, abs(lo), abs(hi))
    tol = 1e-13 * scale
    coupling = [0.0] + [o * o for o in off]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _count_above(diag, coupling, mid, 1):
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    if _count_above(diag, coupling, lam - 1e-10 * scale, 2) == 2:
        raise RuntimeError(
            f"top eigenvalues nearly degenerate (gap below {1e-10 * scale:.3e}); "
            "leading eigenvector is not well defined")
    settle = _count_above(diag, coupling, lam - 1e-6 * scale, 2) == 2
    v = _inverse_iteration(m, lam, lam, scale, settle)
    if v is None:
        v = _inverse_iteration(m, lam, lam + tol, scale, settle)
    if v is None or not abs(float(v @ v) - 1.0) <= 1e-12:
        raise RuntimeError("inverse iteration did not reach a unit eigenvector")
    if v[np.flatnonzero(np.abs(v) > 1e-5)[0]] < 0.0:
        v = -v
    return lam, v


def hermitian_eigenvalues(h) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian matrix, or of each matrix of a stack
    (..., k, k), without the eigenvectors.

    Raises ValueError unless every matrix is square and Hermitian to 1e-10 (a NaN
    entry fails the check).
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("matrix must be square")
    dev = np.max(np.abs(h - np.swapaxes(h.conj(), -1, -2)), axis=(-2, -1), initial=0.0)
    bad = ~(dev <= 1e-10)
    if bad.any():
        at = f" {np.argwhere(bad)[0].tolist()} of the stack" if h.ndim > 2 else ""
        raise ValueError(f"matrix{at} is not Hermitian "
                         f"(max deviation {float(dev[bad].flat[0]):.3e})")
    return np.linalg.eigvalsh(h)


def spectral_entropy(values: np.ndarray) -> float:
    """Entropy -sum v log2 v in bits over the eigenvalues v of a density
    matrix; eigenvalues at or below 1e-15 contribute nothing."""
    total = 0.0
    for v in values.tolist():
        if v > 1e-15:
            total -= v * math.log2(v)
    return total


def bessel_j0_first_zero() -> float:
    """First positive zero of J0, 2.404825557695773 (j_{0,1} rounded): Newton from 2.4 on 30
    terms of the series J0(x) = sum_k (-x^2/4)^k / (k!)^2 and of J0' = -J1 until it settles."""
    x, x_old = 2.4, 0.0
    while x != x_old:  # the same four steps on every call
        h2 = -x * x / 4.0
        j0, j1, t0, t1 = 0.0, 0.0, 1.0, x / 2.0
        for k in range(1, 31):
            j0, j1, t0, t1 = j0 + t0, j1 + t1, t0 * h2 / (k * k), t1 * h2 / (k * (k + 1))
        x, x_old = x + j0 / j1, x
    return x
