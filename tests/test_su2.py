"""Half-integer bookkeeping, Wigner rotations, and the two-qubit spin-3/2."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spinlab import su2
from spinlab.su2 import (Direction, HalfInt, SpinKet, X_AXIS, Y_AXIS, Z_AXIS,
                         entanglement_entropy, overlap_sq_32, peres_generators,
                         projections, rotate_to, spin_operators, wigner_small_d)


def test_halfint_construction_and_value():
    assert HalfInt(3).value == 1.5
    assert float(HalfInt(-1)) == -0.5
    assert HalfInt.of(2).twice == 4
    assert HalfInt.of(0.5) == HalfInt(1)
    assert HalfInt.of(HalfInt(5)) is not None
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    with pytest.raises(TypeError):
        HalfInt(1.5)


def test_halfint_ordering_and_negation():
    assert HalfInt(1) < HalfInt(2)
    assert -HalfInt(3) == HalfInt(-3)
    assert HalfInt(4).is_integer()
    assert not HalfInt(3).is_integer()
    assert repr(HalfInt(3)) == "3/2"
    assert repr(HalfInt(4)) == "2"


def test_projections_descending():
    ms = projections(HalfInt(3))
    assert [m.twice for m in ms] == [3, 1, -1, -3]
    assert projections(0) == [HalfInt(0)]
    with pytest.raises(ValueError):
        projections(HalfInt(-1))


def test_direction_validation_and_normalization():
    with pytest.raises(ValueError):
        Direction(-0.1, 0.0)
    with pytest.raises(ValueError):
        Direction(math.pi + 0.1, 0.0)
    assert Direction(1.0, 2.0 * math.pi + 0.5).phi == pytest.approx(0.5)


def test_direction_cartesian_round_trip():
    d = Direction(0.8, 2.2)
    back = Direction.from_cartesian(*d.unit_vector)
    assert back.theta == pytest.approx(d.theta, abs=1e-14)
    assert back.phi == pytest.approx(d.phi, abs=1e-14)
    with pytest.raises(ValueError):
        Direction.from_cartesian(0.0, 0.0, 0.0)


def test_direction_antipode_and_axes():
    d = Direction(0.7, 1.3)
    assert d.dot(d.antipode()) == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(Z_AXIS.unit_vector, [0, 0, 1])
    assert np.allclose(X_AXIS.unit_vector, [1, 0, 0], atol=1e-16)
    assert np.allclose(Y_AXIS.unit_vector, [0, 1, 0], atol=1e-16)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_direction_from_cartesian_is_unit(x, y, z):
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-6:
        return
    v = Direction.from_cartesian(x, y, z).unit_vector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v @ np.array([x, y, z]) / norm == pytest.approx(1.0, abs=1e-12)


THETAS = np.linspace(0.0, math.pi, 25)


def test_wigner_small_d_closed_forms():
    half, one, three_half = HalfInt(1), HalfInt(2), HalfInt(3)
    got = wigner_small_d(half, HalfInt(-1), HalfInt(1), THETAS)
    assert np.max(np.abs(got - np.sin(THETAS / 2.0))) < 1e-14
    got = wigner_small_d(one, HalfInt(0), HalfInt(0), THETAS)
    assert np.max(np.abs(got - np.cos(THETAS))) < 1e-14
    got = wigner_small_d(three_half, HalfInt(1), HalfInt(1), THETAS)
    want = np.cos(THETAS / 2.0) * (3.0 * np.cos(THETAS) - 1.0) / 2.0
    assert np.max(np.abs(got - want)) < 1e-14
    got = wigner_small_d(three_half, HalfInt(3), HalfInt(3), THETAS)
    assert np.max(np.abs(got - np.cos(THETAS / 2.0) ** 3)) < 1e-14


@pytest.mark.parametrize("twice_s", [1, 2, 7, 40, 129])
def test_wigner_small_d_off_diagonal_at_extreme_angles(twice_s):
    # column m' = S in closed form, sqrt(C(2S, S - m)) cos^(S+m)(theta/2) sin^(S-m)(theta/2);
    # a kernel built from x = cos(theta) loses about 5e-12 at theta = 1e-5
    theta = np.array([1e-300, 1e-12, 1e-8, 1e-5, math.pi - 1e-8, *THETAS])
    s = HalfInt(twice_s)
    half_cos, half_sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    for m in projections(s)[1:]:
        up, down = (twice_s + m.twice) // 2, (twice_s - m.twice) // 2
        want = math.sqrt(math.comb(twice_s, down)) * half_cos ** up * half_sin ** down
        assert np.max(np.abs(wigner_small_d(s, m, s, theta) - want)) < 1e-13


def test_wigner_small_d_identity_at_zero():
    for s in (HalfInt(1), HalfInt(4)):
        for m in projections(s):
            for mp in projections(s):
                want = 1.0 if m == mp else 0.0
                assert wigner_small_d(s, m, mp, 0.0) == pytest.approx(want, abs=1e-15)


def d_matrix(s, theta):
    ms = projections(s)
    return np.array([[wigner_small_d(s, m, mp, theta) for mp in ms] for m in ms])


@pytest.mark.parametrize("twice_s", [1, 2, 3, 5, 7])
def test_wigner_small_d_orthogonality(twice_s):
    s = HalfInt(twice_s)
    for theta in (0.3, 1.1, 2.9):
        d = d_matrix(s, theta)
        assert np.max(np.abs(d.T @ d - np.eye(s.twice + 1))) < 1e-13


def test_wigner_small_d_transpose_symmetry():
    s = HalfInt(4)
    for theta in (0.4, 2.0):
        d = d_matrix(s, theta)
        ms = projections(s)
        for i, m in enumerate(ms):
            for j, mp in enumerate(ms):
                sign = -1.0 if (m.twice - mp.twice) // 2 % 2 else 1.0
                assert d[i, j] == pytest.approx(sign * d[j, i], abs=1e-13)


def test_wigner_small_d_large_spin_stable():
    s = HalfInt(60)  # S = 30, top element is cos^60(theta/2)
    got = wigner_small_d(s, s, s, THETAS)
    assert np.max(np.abs(got - np.cos(THETAS / 2.0) ** 60)) < 1e-13


@pytest.mark.parametrize("twice_s", [200, 201, 400, 401])
def test_wigner_columns_unitary_at_large_spin(twice_s):
    # columns m' = 0 or 1/2 (the ones the optimal codes use) and their neighbours
    s, mp = HalfInt(twice_s), HalfInt(twice_s % 2)
    for theta in THETAS:
        n = Direction(theta, 0.0)
        col = rotate_to(s, mp, n).amps
        nxt = rotate_to(s, HalfInt(mp.twice + 2), n).amps
        assert abs(np.vdot(col, col) - 1.0) < 1e-13
        assert abs(np.vdot(nxt, col)) < 1e-13


def _expm_column(twice_s, twice_mp, thetas):
    """Column m' of exp(-i theta S_y) by scipy's expm, one matrix per distinct angle,
    shape (2S+1, npoints)."""
    sy = spin_operators(HalfInt(twice_s))[1]
    col = (twice_s - twice_mp) // 2
    angles, back = np.unique(thetas, return_inverse=True)
    return expm(np.multiply.outer(-1j * angles, sy))[:, :, col].real.T[:, back]


@settings(deadline=None)
@given(st.integers(0, 128), st.data(),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_half_angle_kernel_matches_d_column(twice_s, data, xs):
    # the sampler's trig-free columns against expm(-i theta S_y) at arccos(x)
    twice_mp = data.draw(st.sampled_from(range(-twice_s, twice_s + 1, 2)))
    x = np.array([-1.0, 1.0, *xs])
    n = twice_s // 2 + 1
    terms = su2._half_angle_terms(x, twice_s)
    assert terms.shape == (2 * n, x.size)
    want = _expm_column(twice_s, twice_mp, np.arccos(x))
    assert np.max(np.abs(su2._d_fourier(twice_s, twice_mp) @ terms - want)) < 1e-13
    # a lower spin of the same parity reads the leading terms of each half
    if twice_s >= 2:
        low = twice_s - 2
        k = low // 2 + 1
        table = su2._d_fourier(low, low % 2)
        got = table @ np.concatenate([terms[:k], terms[n:n + k]])
        want = table @ su2._half_angle_trig(np.arccos(x), low)
        assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("fault", ["eigenvalue", "norm"])
@pytest.mark.parametrize("solve", ["table", "vector"])
def test_sy_tridiagonal_guard_raises(solve, fault, monkeypatch):
    # the full solve behind _d_fourier and the one-vector solve behind
    # _d_diagonal_cosines share one eigenvalue and norm guard
    module, name, build = {
        "table": (np.linalg, "eigh", su2._d_fourier),
        "vector": (scipy.linalg, "eigh_tridiagonal", su2._d_diagonal_cosines),
    }[solve]
    solver = getattr(module, name)

    def faulty(*args, **kwargs):
        lam, vecs = solver(*args, **kwargs)
        if fault == "eigenvalue":
            return lam + 2e-9, vecs
        return lam, vecs * (1.0 + 1e-12)

    build.cache_clear()
    monkeypatch.setattr(module, name, faulty)
    try:
        with pytest.raises(RuntimeError, match="eigenpairs"):
            build(7, 1)
    finally:
        monkeypatch.undo()
        build.cache_clear()
    # at theta = 0 both read d^S_{m,m} = 1 on the diagonal
    assert wigner_small_d(HalfInt(7), HalfInt(1), HalfInt(1), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert su2._d_diagonal_cosines(7, 1).sum() == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 401), st.data(),
       st.lists(st.floats(0.0, math.pi), min_size=1, max_size=20))
def test_diagonal_cosine_series_matches_wigner_small_d(twice_s, data, thetas):
    # the +z quadrature's one-vector series against the full-table kernel of
    # wigner_small_d (same tridiagonal matrix, other LAPACK solver), both parities
    twice_m = data.draw(st.sampled_from(range(-twice_s, twice_s + 1, 2)))
    theta = np.array([0.0, math.pi, *thetas])
    c = su2._d_diagonal_cosines(twice_s, twice_m)
    assert c.shape == (twice_s // 2 + 1,)
    half_k = np.arange(c.size) + (twice_s % 2) / 2.0
    got = c @ np.cos(np.multiply.outer(half_k, theta))
    want = wigner_small_d(HalfInt(twice_s), HalfInt(twice_m), HalfInt(twice_m), theta)
    assert np.max(np.abs(got - want)) < 1e-13


def test_diagonal_cosines_are_read_only():
    c = su2._d_diagonal_cosines(9, 1)
    assert c is su2._d_diagonal_cosines(9, 1)
    assert not c.flags.writeable
    with pytest.raises(ValueError):
        c[0] = 0.0


def test_wigner_small_d_scalar_and_shape():
    out = wigner_small_d(HalfInt(2), HalfInt(0), HalfInt(0), 0.5)
    assert isinstance(out, float)
    out = wigner_small_d(HalfInt(2), HalfInt(0), HalfInt(0), THETAS.reshape(5, 5))
    assert out.shape == (5, 5)


def test_wigner_small_d_rejects_bad_projection():
    with pytest.raises(ValueError):
        wigner_small_d(HalfInt(1), HalfInt(3), HalfInt(1), 0.5)
    with pytest.raises(ValueError):
        wigner_small_d(HalfInt(2), HalfInt(1), HalfInt(0), 0.5)


@given(st.floats(0.0, math.pi))
def test_wigner_rows_are_unit_vectors(theta):
    d = d_matrix(HalfInt(4), theta)
    assert np.max(np.abs((d * d).sum(axis=1) - 1.0)) < 1e-12


def test_rotate_to_z_axis_is_basis_state():
    ket = rotate_to(HalfInt(3), HalfInt(1), Z_AXIS)
    assert np.allclose(ket.amps, [0, 1, 0, 0], atol=1e-15)


def test_rotate_to_x_axis_half_spin():
    ket = rotate_to(HalfInt(1), HalfInt(1), X_AXIS)
    assert np.max(np.abs(ket.amps - 1.0 / math.sqrt(2.0))) < 1e-15


@pytest.mark.parametrize("twice_s", [1, 3, 4])
def test_rotate_to_eigencondition(twice_s):
    # (S.n)|s,m;n> = m|s,m;n> pins both the convention and the phases
    s = HalfInt(twice_s)
    sx, sy, sz = spin_operators(s)
    for n in (Direction(0.9, 2.3), Direction(2.2, 5.1)):
        nx, ny, nz = n.unit_vector
        sn = nx * sx + ny * sy + nz * sz
        for m in projections(s):
            ket = rotate_to(s, m, n)
            assert np.max(np.abs(sn @ ket.amps - m.value * ket.amps)) < 1e-12
            assert np.linalg.norm(ket.amps) == pytest.approx(1.0, abs=1e-12)


def test_spinket_validation():
    with pytest.raises(ValueError):
        SpinKet(HalfInt(1), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        SpinKet(HalfInt(1), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        SpinKet(HalfInt(1), np.array([math.nan, 0.0]))


@pytest.mark.parametrize("twice_s", [1, 2, 3, 10, 25])
def test_spin_operators_algebra(twice_s):
    s = HalfInt(twice_s)
    sx, sy, sz = spin_operators(s)
    eye = np.eye(s.twice + 1)
    sval = s.value
    assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-13
    assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) < 1e-13
    assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) < 1e-13
    assert np.max(np.abs(sx @ sx + sy @ sy + sz @ sz - sval * (sval + 1) * eye)) < 1e-12
    assert np.max(np.abs(sx - sx.conj().T)) == 0.0
    assert np.max(np.abs(sy - sy.conj().T)) == 0.0


def test_spin_operators_sz_descending():
    _, _, sz = spin_operators(HalfInt(3))
    assert np.allclose(np.diag(sz).real, [1.5, 0.5, -0.5, -1.5])


def test_peres_generators_algebra_and_casimir():
    gx, gy, gz = peres_generators()
    assert np.max(np.abs(gx @ gy - gy @ gx - 1j * gz)) < 1e-13
    assert np.max(np.abs(gy @ gz - gz @ gy - 1j * gx)) < 1e-13
    assert np.max(np.abs(gz @ gx - gx @ gz - 1j * gy)) < 1e-13
    casimir = gx @ gx + gy @ gy + gz @ gz
    assert np.max(np.abs(casimir - (15.0 / 4.0) * np.eye(4))) < 1e-13
    assert np.allclose(np.diag(gz).real, [1.5, 0.5, -0.5, -1.5], atol=1e-14)
    assert np.max(np.abs(gx - gx.conj().T)) < 1e-15
    assert np.max(np.abs(gy - gy.conj().T)) < 1e-15


def test_peres_rotations_entangle_product_states():
    # pi about y maps |uu> to another product state; pi/2 does not
    gx, gy, gz = peres_generators()
    up_up = np.zeros(4, dtype=complex)
    up_up[0] = 1.0
    flipped = expm(-1j * math.pi * gy) @ up_up
    assert entanglement_entropy(flipped) < 1e-10
    halfway = expm(-1j * (math.pi / 2.0) * gy) @ up_up
    assert entanglement_entropy(halfway) > 0.01


def test_entanglement_entropy_reference_states():
    product = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert entanglement_entropy(product) == 0.0
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert entanglement_entropy(bell) == pytest.approx(1.0, abs=1e-12)


def test_entanglement_entropy_validation():
    with pytest.raises(ValueError):
        entanglement_entropy(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        entanglement_entropy(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="normalized"):
        entanglement_entropy(np.array([math.nan, 0.0, 0.0, 0.0]))


COSINES = np.linspace(-1.0, 1.0, 1001)


def test_overlap_closed_forms_match_wigner():
    s = HalfInt(3)
    angles = np.arccos(COSINES)
    top = wigner_small_d(s, HalfInt(3), HalfInt(3), angles) ** 2
    mid = wigner_small_d(s, HalfInt(1), HalfInt(1), angles) ** 2
    got_top = np.array([overlap_sq_32(c, HalfInt(3)) for c in COSINES])
    got_mid = np.array([overlap_sq_32(c, HalfInt(1)) for c in COSINES])
    assert np.max(np.abs(got_top - top)) < 1e-13
    assert np.max(np.abs(got_mid - mid)) < 1e-13


def test_overlap_top_strictly_increasing():
    vals = np.array([overlap_sq_32(c, HalfInt(3)) for c in COSINES])
    assert np.all(np.diff(vals) > 0.0)


def test_overlap_mid_nonmonotone_with_interior_zero():
    vals = np.array([overlap_sq_32(c, HalfInt(1)) for c in COSINES])
    assert np.any(np.diff(vals) < 0.0)
    assert overlap_sq_32(1.0 / 3.0, HalfInt(1)) == pytest.approx(0.0, abs=1e-12)
    assert overlap_sq_32(1.0, HalfInt(1)) == pytest.approx(1.0, abs=1e-15)


def test_overlap_validation():
    with pytest.raises(ValueError):
        overlap_sq_32(1.2, HalfInt(3))
    with pytest.raises(ValueError):
        overlap_sq_32(0.0, HalfInt(5))
