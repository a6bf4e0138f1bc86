"""SU(2) building blocks: half-integer bookkeeping, rotations, spin operators.

Conventions used throughout: basis states are ordered by descending
projection m = S, S-1, ..., -S, and a direction (theta, phi) is reached by
the active rotation exp(-i phi S_z) exp(-i theta S_y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numerics

__all__ = [
    "Direction",
    "HalfInt",
    "SpinKet",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "entanglement_entropy",
    "overlap_sq_32",
    "peres_generators",
    "projections",
    "rotate_to",
    "spin_operators",
    "wigner_small_d",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact half-integer, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, (int, np.integer)):
            raise TypeError("twice must be an integer")
        object.__setattr__(self, "twice", int(self.twice))

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, float, or HalfInt to an exact half-integer."""
        if isinstance(value, HalfInt):
            return value
        twice = 2 * value
        if twice != int(twice):
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(twice))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def projections(s) -> list[HalfInt]:
    """All projections m = S, S-1, ..., -S in descending order."""
    s = HalfInt.of(s)
    if s.twice < 0:
        raise ValueError("spin must be nonnegative")
    return [HalfInt(s.twice - 2 * i) for i in range(s.twice + 1)]


def _check_projection(s: HalfInt, m: HalfInt) -> None:
    if s.twice < 0:
        raise ValueError("spin must be nonnegative")
    if abs(m.twice) > s.twice or (s.twice - m.twice) % 2 != 0:
        raise ValueError(f"projection {m!r} is invalid for spin {s!r}")


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere, stored as polar angles.

    theta is the polar angle from +z in [0, pi]; phi is the azimuth,
    normalized into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        if not 0.0 <= theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float) -> "Direction":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("the zero vector has no direction")
        return cls(math.acos(max(-1.0, min(1.0, z / norm))), math.atan2(y, x))

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])

    def dot(self, other: "Direction") -> float:
        return float(self.unit_vector @ other.unit_vector)

    def antipode(self) -> "Direction":
        return Direction(math.pi - self.theta, self.phi + math.pi)


Z_AXIS = Direction(0.0, 0.0)
X_AXIS = Direction(math.pi / 2.0, 0.0)
Y_AXIS = Direction(math.pi / 2.0, math.pi / 2.0)


@dataclass(frozen=True, eq=False)
class SpinKet:
    """State of a single spin-S system, amplitudes over m = S, S-1, ..., -S."""

    spin: HalfInt
    amps: np.ndarray

    def __post_init__(self):
        spin = HalfInt.of(self.spin)
        object.__setattr__(self, "spin", spin)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (spin.twice + 1,):
            raise ValueError("amplitude count must be 2S + 1")
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-12:
            raise ValueError("state must be normalized")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.spin.twice + 1


def _projection_values(s: HalfInt) -> np.ndarray:
    """Projections S, S-1, ..., -S as floats, in basis order."""
    return np.arange(s.twice, -s.twice - 1, -2) / 2.0


def _sy_tridiagonal(twice: int, index: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked eigenpairs of the real tridiagonal form T of S_y for spin twice/2.

    S_y = diag(i^k) T diag(i^k)^dagger in the descending basis k = S - m; T
    has zero diagonal and off-diagonals sqrt(S(S+1) - m'(m'+1))/2 for
    m' = -S, ..., S - 1, a list that reads the same backwards. With index
    None every pair comes from numpy.linalg.eigh of the dense T, in O(S^3);
    otherwise the one pair of eigenvalue index - S comes from LAPACK's
    bisection and inverse iteration (scipy.linalg.eigh_tridiagonal), in O(S).

    Returns (lam, vecs, fold): the eigenvalues, the real eigenvectors as
    columns, and fold[i] = |2i - 2S| // 2, the harmonic k = |2 lam| of
    lam = i - S as an index into k = 2S mod 2, 2S mod 2 + 2, ..., 2S.
    Raises RuntimeError unless each eigenvalue is within 1e-9 of i - S and
    each eigenvector's squares sum to 1 within 1e-12 (the full solve at
    2S = 1000 and 1001 is off by at most 1.7e-13 and 2.9e-15).
    """
    mp = np.arange(-twice, twice, 2)  # 2m' for m' = -S, ..., S - 1
    off = np.sqrt((twice - mp) * (twice + mp + 2.0)) / 4.0
    if index is None:
        lam, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        want = np.arange(-twice, twice + 1, 2) / 2.0
    else:
        from scipy import linalg  # here, not at the top: its import takes about 80 ms
        lam, vecs = linalg.eigh_tridiagonal(np.zeros(twice + 1), off, select="i",
                                            select_range=(index, index))
        want = index - twice / 2.0
    lam_err = float(np.max(np.abs(lam - want)))
    norm_err = float(np.max(np.abs(np.sum(np.square(vecs), axis=0) - 1.0)))
    if not (lam_err <= 1e-9 and norm_err <= 1e-12):
        raise RuntimeError(
            f"S_y tridiagonal eigenpairs for 2S = {twice} are off: eigenvalues by "
            f"{lam_err:.3e}, squared norms by {norm_err:.3e}")
    return lam, vecs, np.abs(np.arange(-twice, twice + 1, 2)) // 2


# one vector of floor(S) + 1 floats per (spin, projection): a 1000-spin tower
# reads 501 of them, 1 MB in all
@lru_cache(maxsize=1024)
def _d_diagonal_cosines(twice: int, twice_m: int) -> np.ndarray:
    """d^S_{m,m} as a cosine series, frozen and shared: c of length floor(S) + 1 with

        d^S_{m,m}(theta) = sum_i c[i] cos(k_i theta / 2),  k_i = 2S mod 2 + 2i,

    for twice = 2S and twice_m = 2m. With S_y = V diag(lam) V^dagger,
    d^S_{m,m}(theta) = sum_lam w_lam cos(lam theta), w_lam = |V[m, lam]|^2
    (the sines cancel since w_lam = w_-lam), and c[i] folds the pair
    lam = +-k_i/2. A quarter turn about x takes S_y to S_z and S_z to -S_y,
    so w_lam = |<S,lam|u>|^2 for the eigenvector u of S_y at eigenvalue -m;
    the one at m carries the same weights mirrored, lam -> -lam, which the
    fold cannot tell apart. Up to the phases diag(i^k), that u is the
    eigenvector of the real tridiagonal form of S_y (:func:`_sy_tridiagonal`)
    at eigenvalue m, one vector in O(S), with no dense eigenbasis.

    Raises RuntimeError as :func:`_sy_tridiagonal` does.
    """
    _, vec, fold = _sy_tridiagonal(twice, (twice + twice_m) // 2)
    c = np.bincount(fold, weights=vec[:, 0] ** 2)
    c.setflags(write=False)
    return c


# exact sphere grids, grid POVMs and the sampler read one table per block of a
# tower, all under the same keys (2S, 2sn): 33 for the largest grid POVM that
# `simulate` takes (N = 64; 392 kB in all, 34 kB for the top block), 14 for
# `verify --level full`, and 16 and 14 for the benchmark's routes and sampling
# workloads, whose warm rounds miss none
@lru_cache(maxsize=64)
def _d_fourier(twice: int, twice_mp: int) -> np.ndarray:
    """Column m' of d^S as a real table over half-angle harmonics, frozen and shared.

    twice and twice_mp are 2S and 2m'. The Fourier method of Feng, Wang,
    Yang & Jin, PRE 92, 043307 (2015): with S_y = V diag(lam) V^dagger,
    column m' of exp(-i theta S_y) is real and equals Re(w) cos(theta lam)
    + Im(w) sin(theta lam) for w = V diag(conj(V[m', :])). V = diag(i^k) U
    with U real from :func:`_sy_tridiagonal`, so row k of w is
    i^(k - k') U[k] U[k'], k' the row of m': real for even offsets,
    imaginary for odd ones. The pairs lam = +-k/2 fold into F of shape
    (2S+1, 2n), n = floor(S) + 1, with d^S_{m,m'}(theta) =
    sum_i F[m, i] c_i + F[m, n + i] s_i, where c_i and s_i are the cosine
    and sine of k_i theta/2, k_i = 2S mod 2 + 2i, as
    :func:`_half_angle_trig` and :func:`_half_angle_terms` list them.
    """
    lam, u, fold = _sy_tridiagonal(twice)
    col = (twice - twice_mp) // 2
    offset = np.arange(twice + 1) - col
    # i^offset is +-1 for even offsets and +-i for odd ones
    w = np.where(offset % 4 < 2, 1.0, -1.0)[:, None] * u * u[col]
    odd = (offset % 2 == 1)[:, None]
    harmonic = np.zeros((twice + 1, twice // 2 + 1))
    harmonic[np.arange(twice + 1), fold] = 1.0
    table = np.concatenate([np.where(odd, 0.0, w) @ harmonic,
                            np.where(odd, w * np.sign(lam), 0.0) @ harmonic], axis=1)
    table.setflags(write=False)
    return table


def _half_angle_trig(theta, twice: int) -> np.ndarray:
    """The harmonics of :func:`_d_fourier` for spins up to twice/2 at angle(s) theta.

    Returns shape (2n,) + shape(theta), n = twice // 2 + 1: cos(k theta/2)
    for k = twice mod 2, twice mod 2 + 2, ..., twice, then sin(k theta/2)
    for the same k, by one trigonometric call each. Unlike
    :func:`_half_angle_terms` they take theta itself, so they keep full
    relative precision near theta = 0.
    """
    angles = np.multiply.outer(np.arange(twice // 2 + 1) + (twice % 2) / 2.0, theta)
    return np.concatenate([np.cos(angles), np.sin(angles)])


def _half_angle_terms(x: np.ndarray, twice: int) -> np.ndarray:
    """The harmonics of :func:`_d_fourier` for spins up to twice/2 at theta = arccos(x).

    Returns shape (2n, npoints), n = twice // 2 + 1: cos(k theta/2) for
    k = twice mod 2, twice mod 2 + 2, ..., twice, then sin(k theta/2) for
    the same k. A table of any lower spin of the same parity reads the
    first columns of each half. No trigonometric call: with theta in
    [0, pi], cos(theta/2) = sqrt((1+x)/2) and sin(theta/2) = sqrt((1-x)/2),
    and each next k adds theta by the angle-addition rule with cos theta = x
    and sin theta = sqrt((1-x)(1+x)). Rounding grows by about one unit per
    step, so the terms hold to about 1e-14 for twice <= 128.
    """
    n = twice // 2 + 1
    out = np.empty((2, n, x.size))
    cos, sin = out
    if twice % 2:
        cos[0] = np.sqrt((1.0 + x) / 2.0)
        sin[0] = np.sqrt((1.0 - x) / 2.0)
    else:
        cos[0] = 1.0
        sin[0] = 0.0
    sin_theta = np.sqrt((1.0 - x) * (1.0 + x))
    for i in range(1, n):
        cos[i] = cos[i - 1] * x - sin[i - 1] * sin_theta
        sin[i] = sin[i - 1] * x + cos[i - 1] * sin_theta
    return out.reshape(2 * n, x.size)


def wigner_small_d(s, m, mp, theta):
    """Rotation matrix element d^S_{m,m'}(theta) = <S,m| exp(-i theta S_y) |S,m'>.

    Parameters
    ----------
    s, m, mp : HalfInt or number
        Spin and the two projections. Both projections must be valid for s.
    theta : float or ndarray
        Rotation angle(s) about the y axis.

    Returns
    -------
    float or ndarray
        Real matrix element, broadcast over theta.

    Notes
    -----
    Reads row m of the column table :func:`_d_fourier` (the Fourier
    method of Feng, Wang, Yang & Jin, PRE 92, 043307 (2015), on the real
    tridiagonal form of S_y from numpy.linalg.eigh, cached per spin and
    column) times cos and sin of k theta/2 (:func:`_half_angle_trig`), so
    each angle costs O(S). No sum cancels, so the elements stay unitary to
    rounding; the tests hold columns to 1e-13 up to 2S = 401, and
    off-diagonal elements to 1e-13 down to theta = 1e-300.
    """
    s = HalfInt.of(s)
    m = HalfInt.of(m)
    mp = HalfInt.of(mp)
    _check_projection(s, m)
    _check_projection(s, mp)
    theta_arr = np.asarray(theta, dtype=float)
    row = _d_fourier(s.twice, mp.twice)[(s.twice - m.twice) // 2]
    out = row @ _half_angle_trig(theta_arr.ravel(), s.twice)
    if np.ndim(theta) == 0:
        return float(out[0])
    return out.reshape(theta_arr.shape)


def rotate_to(s, m, n: Direction) -> SpinKet:
    """Spin-S state with definite projection m along direction n.

    Applies exp(-i phi S_z) exp(-i theta S_y) to |S, m>, so the amplitude on
    basis state |S, k> is exp(-i k phi) d^S_{k,m}(theta).
    """
    s = HalfInt.of(s)
    m = HalfInt.of(m)
    _check_projection(s, m)
    column = _d_fourier(s.twice, m.twice) @ _half_angle_trig(n.theta, s.twice)
    return SpinKet(s, np.exp(-1j * _projection_values(s) * n.phi) * column)


def spin_operators(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (S_x, S_y, S_z) in the descending-m basis."""
    s = HalfInt.of(s)
    if s.twice < 0:
        raise ValueError("spin must be nonnegative")
    dim = s.twice + 1
    mvals = _projection_values(s)
    sz = np.diag(mvals).astype(complex)
    raising = np.zeros((dim, dim))
    sval = s.value
    for i in range(1, dim):
        mv = mvals[i]
        raising[i - 1, i] = math.sqrt(sval * (sval + 1.0) - mv * (mv + 1.0))
    sx = ((raising + raising.T) / 2.0).astype(complex)
    sy = (raising - raising.T) / 2.0j
    return sx, sy, sz


def peres_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-local two-qubit operators obeying the spin-3/2 algebra.

    Basis order is |uu>, |ud>, |du>, |dd> (first factor slowest). The z
    component is diagonal with spectrum 3/2, 1/2, -1/2, -3/2, so the full
    four-dimensional space of two qubits carries a single spin-3/2 irrep
    of these generators.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    root3 = math.sqrt(3.0)
    gx = (root3 / 2.0) * np.kron(eye, sx) + (np.kron(sx, sx) + np.kron(sy, sy)) / 2.0
    gy = (root3 / 2.0) * np.kron(eye, sy) + (np.kron(sy, sx) - np.kron(sx, sy)) / 2.0
    gz = np.kron(eye, sz) / 2.0 + np.kron(sz, eye)
    return gx, gy, gz


def entanglement_entropy(state) -> float:
    """Entanglement entropy in bits of a normalized two-qubit pure state.

    Zero exactly for product states, 1 for maximally entangled ones.
    """
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("state must be a 4-component vector")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise ValueError("state must be normalized")
    mat = psi.reshape(2, 2)
    return numerics.spectral_entropy(mat @ mat.conj().T)


def overlap_sq_32(cos_angle: float, m) -> float:
    """Squared overlap of two spin-3/2 projection-m states along axes with
    the given cosine between them.

    m = 3/2 gives ((1+c)/2)^3, strictly increasing in c. m = 1/2 gives
    (1+c)(1-3c)^2/8, which vanishes at c = 1/3 and is not monotone; that
    failure is what disqualifies the m = 1/2 tower as a guessing code.
    """
    c = float(cos_angle)
    if not -1.0 <= c <= 1.0:
        raise ValueError("cosine must lie in [-1, 1]")
    m = HalfInt.of(m)
    if m.twice == 3:
        return ((1.0 + c) / 2.0) ** 3
    if m.twice == 1:
        return (1.0 + c) * (1.0 - 3.0 * c) ** 2 / 8.0
    raise ValueError("m must be 3/2 or 1/2")
