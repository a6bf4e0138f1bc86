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
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
            raise ValueError("state must be normalized")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.spin.twice + 1


def _projection_values(s: HalfInt) -> np.ndarray:
    """Projections S, S-1, ..., -S as floats, in basis order."""
    return np.arange(s.twice, -s.twice - 1, -2) / 2.0


@lru_cache(maxsize=128)
def _sy_eigenbasis(twice: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of S_y for spin twice/2, frozen and shared."""
    lam, vecs = np.linalg.eigh(spin_operators(HalfInt(twice))[1])
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return lam, vecs


def _d_column(s: HalfInt, mp: HalfInt, thetas: np.ndarray) -> np.ndarray:
    """Column m' of d^S(theta) for every angle in a 1-d array, shape (2S+1, npoints).

    With S_y = V diag(lam) V^dagger, column m' of exp(-i theta S_y) is
    W exp(-i theta lam) for W = V diag(conj(V[m', :])). It is real, so it
    equals Re(W) cos(theta lam) + Im(W) sin(theta lam).
    """
    lam, vecs = _sy_eigenbasis(s.twice)
    w = vecs * vecs[(s.twice - mp.twice) // 2].conj()
    angles = np.multiply.outer(lam, thetas)
    column = w.real @ np.cos(angles)
    column += w.imag @ np.sin(angles, out=angles)
    return column


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
    Reads row m of the whole column m', which comes from the S_y eigenbasis
    (numpy.linalg.eigh, cached per spin): d^S(theta) = V exp(-i theta Lambda)
    V^dagger, the Fourier method of Feng, Wang, Yang & Jin, PRE 92, 043307
    (2015). No sum cancels, so columns stay unitary to rounding; the tests
    hold them to 1e-13 up to 2S = 401.
    """
    s = HalfInt.of(s)
    m = HalfInt.of(m)
    mp = HalfInt.of(mp)
    _check_projection(s, m)
    _check_projection(s, mp)
    theta_arr = np.asarray(theta, dtype=float)
    row = _d_column(s, mp, theta_arr.ravel())[(s.twice - m.twice) // 2]
    if np.ndim(theta) == 0:
        return float(row[0])
    return row.reshape(theta_arr.shape)


def rotate_to(s, m, n: Direction) -> SpinKet:
    """Spin-S state with definite projection m along direction n.

    Applies exp(-i phi S_z) exp(-i theta S_y) to |S, m>, so the amplitude on
    basis state |S, k> is exp(-i k phi) d^S_{k,m}(theta).
    """
    s = HalfInt.of(s)
    m = HalfInt.of(m)
    _check_projection(s, m)
    column = _d_column(s, m, np.array([n.theta]))[:, 0]
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
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    mat = psi.reshape(2, 2)
    rho = mat @ mat.conj().T
    vals, _ = numerics.hermitian_eigensystem(rho)
    total = 0.0
    for v in vals.real:
        if v > 1e-15:
            total -= v * math.log2(v)
    return total


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
