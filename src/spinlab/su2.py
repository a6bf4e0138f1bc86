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
        if not abs(twice) < math.inf or twice != int(twice):  # int() fails on inf and nan
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
    finite, normalized into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = float(self.theta), float(self.phi)
        if not 0.0 <= theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not math.isfinite(phi):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi % (2.0 * math.pi))

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float) -> "Direction":
        if not all(map(math.isfinite, (x, y, z))):
            raise ValueError("the components must be finite")
        norm = math.hypot(x, y, z)  # scaled: no overflow or underflow of the squares
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


def _sy_half(off: list[float], lam: float) -> list[float]:
    """Entries 0, ..., floor(S) of T's eigenvector at lam from v_0 = 1, unnormalised; the
    entries grow from both ends inwards (stable), scaled by 1e-100 past 1e100."""
    v, prev, cur, t_prev = [1.0], 0.0, 1.0, 0.0
    for t in off[:len(off) // 2]:
        prev, cur, t_prev = cur, (lam * cur - t_prev * prev) / t, t
        if not -1e100 <= cur <= 1e100:
            v, prev, cur = [x * 1e-100 for x in v], prev * 1e-100, cur * 1e-100
        v.append(cur)
    return v


# a few spins: wigner_small_d over all columns of a spin solves its T once
@lru_cache(maxsize=4)
def _sy_vectors(twice: int, index: int | None = None) -> np.ndarray:
    """Checked eigenvectors, frozen and shared, of T, S_y = diag(i^k) T diag(i^k)^dagger
    (k = S - m) for spin twice/2: all, column i at lam = i - S, or the one at index. T has
    zero diagonal, off-diagonals t_k = sqrt((k+1)(2S-k))/2 and these eigenvalues exactly,
    so t_{k-1} v_{k-1} + t_k v_{k+1} = lam v_k (:func:`_sy_half`; Feng, Wang, Yang & Jin,
    PRE 92, 043307 (2015)), v_{2S-k} = (-1)^(2S-i) v_k and v(-lam)_k = (-1)^k v(lam)_k
    give them. Raises RuntimeError unless max |T v - lam v| <= 1e-12 (2S + 1)."""
    off = [math.sqrt((k + 1) * (twice - k)) / 2.0 for k in range(twice)]
    cols = np.arange((twice + 1) // 2, twice + 1) if index is None else np.array([index])
    half = np.array([_sy_half(off, i - twice / 2.0) for i in cols.tolist()]).T
    vecs = np.concatenate([half, half[twice % 2 - 2::-1] * (-1.0) ** (twice - cols)])
    if index is None:
        alternate = (-1.0) ** np.arange(twice + 1)[:, None]
        vecs = np.concatenate([alternate * vecs[:, ::-1][:, :cols[0]], vecs], axis=1)
    vecs /= np.sqrt(np.sum(vecs * vecs, axis=0))
    lams = (np.arange(twice + 1) if index is None else index) - twice / 2.0
    t, edge = np.array(off)[:, None], np.zeros((1, vecs.shape[1]))
    tv = np.concatenate([t * vecs[1:], edge]) + np.concatenate([edge, t * vecs[:-1]])
    err = float(np.max(np.abs(tv - lams * vecs)))
    if not err <= 1e-12 * (twice + 1):
        raise RuntimeError(f"S_y eigenvectors for 2S = {twice}: max |T v - lam v| = {err:.3e}")
    vecs.setflags(write=False)
    return vecs if index is None else vecs[:, 0]


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
    so w_lam = |<S,lam|u>|^2 for the eigenvector u of S_y at eigenvalue -m,
    or mirrored, which the fold cannot tell apart, at m: up to phases, the
    one vector of :func:`_sy_vectors` at m, which raises as it does.
    """
    vec = _sy_vectors(twice, (twice + twice_m) // 2)
    c = np.bincount(np.abs(np.arange(-twice, twice + 1, 2)) // 2, weights=vec * vec)
    c.setflags(write=False)
    return c


# grid POVMs, then the sampler, read one table per block of a tower under the
# same keys (2S, 2sn): 65 blocks for the largest that `simulate` takes
# (N = 128; 3 MB in all), which a smaller cache would miss on the second pass
@lru_cache(maxsize=128)
def _d_fourier(twice: int, twice_mp: int) -> np.ndarray:
    """Column m' of d^S as a real table over half-angle harmonics, frozen and shared.

    twice and twice_mp are 2S and 2m'. The Fourier method of Feng, Wang,
    Yang & Jin, PRE 92, 043307 (2015): with S_y = V diag(lam) V^dagger,
    column m' of exp(-i theta S_y) is Re(w) cos(theta lam) + Im(w)
    sin(theta lam) for w = V diag(conj(V[m', :])). V = diag(i^k) U with U
    from :func:`_sy_vectors`, so row k of w is i^(k - k') U[k] U[k'],
    k' the row of m'. The pairs lam = +-k/2 fold into F of shape (2S+1, 2n),
    n = floor(S) + 1, with d^S_{m,m'}(theta) = sum_i F[m, i] c_i +
    F[m, n + i] s_i for the harmonics c_i, s_i of :func:`_half_angle_terms`.
    """
    u = _sy_vectors(twice)
    twice_lam = np.arange(-twice, twice + 1, 2)  # 2 lam, column by column
    col = (twice - twice_mp) // 2
    offset = np.arange(twice + 1) - col
    # i^offset is +-1 for even offsets and +-i for odd ones
    w = np.where(offset % 4 < 2, 1.0, -1.0)[:, None] * u * u[col]
    odd = (offset % 2 == 1)[:, None]
    harmonic = np.zeros((twice + 1, twice // 2 + 1))
    harmonic[np.arange(twice + 1), np.abs(twice_lam) // 2] = 1.0
    table = np.concatenate([np.where(odd, 0.0, w) @ harmonic,
                            np.where(odd, w * np.sign(twice_lam), 0.0) @ harmonic], axis=1)
    table.setflags(write=False)
    return table


def _powers(first, step, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """first * step**k for k < count, shape (count,) + shape(step), by repeated multiplication;
    written into out, a complex array of that shape, when one is given."""
    if out is None:
        out = np.empty((count,) + np.shape(step), dtype=complex)
    out[0] = first
    for k in range(1, count):
        np.multiply(out[k - 1], step, out=out[k, ...])  # [k, ...]: a view for scalar steps too
    return out


def _half_angle_terms(half, twice: int, out: np.ndarray | None = None,
                      powers: np.ndarray | None = None) -> np.ndarray:
    """The harmonics of :func:`_d_fourier` for spins up to twice/2 at half = e^{i theta/2}.

    Returns shape (2n,) + shape(half), n = twice // 2 + 1: cos(k theta/2), then
    sin(k theta/2), for k = twice mod 2, ..., twice in steps of 2, the parts of the
    powers e^{i k theta/2} (:func:`_powers`); a lower spin of the same parity reads
    the first columns of each half. Pass exp(0.5j theta), which keeps full relative
    precision near theta = 0, or sqrt((1+x)/2) + i sqrt((1-x)/2) from x = cos(theta),
    with no trig call. The tests hold the terms to 1e-13 of the trig form for
    twice <= 401. Given out, a float array of the result's shape, and powers, a
    complex one of shape (n,) + shape(half), the terms go into out and the powers
    into powers; otherwise both are allocated. half is read only before out is
    written, so it may share out's memory.
    """
    n = twice // 2 + 1
    if out is None:
        out = np.empty((2 * n,) + np.shape(half))
        powers = np.empty((n,) + np.shape(half), dtype=complex)
    z = _powers(half if twice % 2 else 1.0, half * half, n, out=powers)
    out[:n] = z.real
    out[n:] = z.imag
    return out


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
    Reads row m of the column table :func:`_d_fourier` (cached per spin and
    column) times cos and sin of k theta/2 (:func:`_half_angle_terms` of
    e^{i theta/2}), so each angle costs O(S). No sum cancels, so the elements
    stay unitary to rounding; the tests hold columns to 1e-13 up to 2S = 401,
    and off-diagonal elements to 1e-13 down to theta = 1e-300.
    """
    s = HalfInt.of(s)
    m = HalfInt.of(m)
    mp = HalfInt.of(mp)
    _check_projection(s, m)
    _check_projection(s, mp)
    theta_arr = np.asarray(theta, dtype=float)
    row = _d_fourier(s.twice, mp.twice)[(s.twice - m.twice) // 2]
    out = row @ _half_angle_terms(np.exp(0.5j * theta_arr.ravel()), s.twice)
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
    column = _d_fourier(s.twice, m.twice) @ _half_angle_terms(np.exp(0.5j * n.theta), s.twice)
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
    return numerics.spectral_entropy(numerics.hermitian_eigenvalues(mat @ mat.conj().T))


def overlap_sq_32(cos_angle, m):
    """Squared overlap of two spin-3/2 projection-m states along axes with
    the given cosine between them, elementwise over an array of cosines (a
    float for a float).

    m = 3/2 gives ((1+c)/2)^3, strictly increasing in c. m = 1/2 gives
    (1+c)(1-3c)^2/8, which vanishes at c = 1/3 and is not monotone; that
    failure is what disqualifies the m = 1/2 tower as a guessing code.
    """
    c = np.asarray(cos_angle, dtype=float)
    if not np.all(np.abs(c) <= 1.0):
        raise ValueError("cosine must lie in [-1, 1]")
    m = HalfInt.of(m)
    # products, not powers: numpy's vector pow may round differently from its scalar one
    if m.twice == 3:
        half = (1.0 + c) / 2.0
        value = half * half * half
    elif m.twice == 1:
        third = 1.0 - 3.0 * c
        value = (1.0 + c) * (third * third) / 8.0
    else:
        raise ValueError("m must be 3/2 or 1/2")
    return float(value) if c.ndim == 0 else value
