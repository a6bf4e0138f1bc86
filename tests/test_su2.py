"""Half-integer bookkeeping, Wigner rotations, and the two-qubit spin-3/2."""

import decimal
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spinlab import povm, su2
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
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="is not a half-integer"):
            HalfInt.of(value)
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


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_direction_rejects_non_finite_azimuth(phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        Direction(0.5, phi)


@pytest.mark.parametrize("xyz", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0),
                                 (1.0, 0.0, -math.inf)])
def test_direction_from_cartesian_rejects_non_finite_components(xyz):
    with pytest.raises(ValueError, match="finite"):
        Direction.from_cartesian(*xyz)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_direction_from_cartesian_takes_any_finite_scale(scale):
    # the squares of these components under- or overflow
    d = Direction.from_cartesian(scale, scale, scale * math.sqrt(2.0))
    assert d.theta == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert d.phi == pytest.approx(math.pi / 4.0, abs=1e-15)


def test_direction_cartesian_round_trip():
    d = Direction(0.8, 2.2)
    back = Direction.from_cartesian(*d.unit_vector)
    assert back.theta == pytest.approx(d.theta, abs=1e-14)
    assert back.phi == pytest.approx(d.phi, abs=1e-14)
    with pytest.raises(ValueError, match="zero vector"):
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


def test_powers_are_repeated_products():
    rng = np.random.default_rng(4)
    step = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 7)) * rng.uniform(0.9, 1.1, 7)
    first = 0.3 - 0.8j
    got = su2._powers(first, step, 40)
    assert got.shape == (40, 7)
    assert np.all(got[0] == first) and np.all(got[1] == first * step)
    want = first * np.power.outer(step, np.arange(40)).T
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
    # a scalar step gives one power per row
    assert su2._powers(1.0, 1j, 5).tolist() == [1, 1j, -1, -1j, 1]


def _same_bits(a, b):
    """Equal shape, dtype and bytes, so NaN payloads and signed zeros count too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("twice", [0, 1, 2, 3, 4, 5, 12, 13, 40, 41, 128, 129, 256, 257])
def test_half_angle_terms_match_concatenated_powers(twice):
    # the samplers' kept buffers hold stale values, so start from NaN; the half
    # turn may sit in the terms' own memory, which they overwrite
    rng = np.random.default_rng(twice)
    x = np.concatenate([[-1.0, 1.0, 0.0, -0.0], 2.0 * rng.random(509) - 1.0])
    half = povm._half_turn(x)
    n = twice // 2 + 1
    z = su2._powers(half if twice % 2 else 1.0, half * half, n)
    want = np.concatenate([z.real, z.imag])
    assert _same_bits(su2._half_angle_terms(half, twice), want)
    powers = np.full((n, x.size), math.nan, dtype=complex)
    out = np.full((2 * n, x.size), math.nan)
    assert su2._half_angle_terms(half, twice, out, powers) is out
    assert _same_bits(out, want)
    assert _same_bits(powers, z)
    # a scalar half, as rotate_to passes: numpy's scalar product, not the array loop
    one = half[7]
    z = su2._powers(one if twice % 2 else 1.0, one * one, n)
    assert _same_bits(su2._half_angle_terms(one, twice), np.concatenate([z.real, z.imag]))
    shared = np.full((2 * n, x.size), math.nan)
    alias = shared[:2].reshape(-1).view(complex)
    alias[...] = half
    assert _same_bits(su2._half_angle_terms(alias, twice, shared, powers), want)
    phases = np.full((twice + 1, x.size), math.nan, dtype=complex)
    assert su2._powers(1.0, half, twice + 1, out=phases) is phases
    assert _same_bits(phases, su2._powers(1.0, half, twice + 1))


def half_angle_trig(theta, twice):
    """The trigonometric form of the half-angle harmonics, one cos and one sin
    call per harmonic and angle: cos(k theta/2), then sin(k theta/2), for
    k = twice mod 2, ..., twice, shape (2n,) + shape(theta)."""
    angles = np.multiply.outer(np.arange(twice // 2 + 1) + (twice % 2) / 2.0, theta)
    return np.concatenate([np.cos(angles), np.sin(angles)])


@pytest.mark.parametrize("twice_s", [1, 2, 7, 40, 129, 200, 401])
def test_theta_seeded_half_angle_terms_match_trig(twice_s):
    # powers of e^{i theta/2} against one trig call per harmonic, absolute
    # everywhere and relative near theta = 0, where sin(k theta/2) is tiny
    theta = np.array([1e-300, 1e-12, 1e-8, 1e-5, math.pi - 1e-8, *THETAS])
    got = su2._half_angle_terms(np.exp(0.5j * theta), twice_s)
    want = half_angle_trig(theta, twice_s)
    assert got.shape == want.shape == (2 * (twice_s // 2 + 1), theta.size)
    assert np.max(np.abs(got - want)) < 1e-13
    small = theta <= 1e-5
    assert np.all(np.abs(got - want)[:, small] <= 1e-13 * np.abs(want)[:, small])


@settings(deadline=None)
@given(st.integers(0, 128), st.data(),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_half_angle_kernel_matches_d_column(twice_s, data, xs):
    # the sampler's trig-free columns against expm(-i theta S_y) at arccos(x)
    twice_mp = data.draw(st.sampled_from(range(-twice_s, twice_s + 1, 2)))
    x = np.array([-1.0, 1.0, *xs])
    n = twice_s // 2 + 1
    terms = su2._half_angle_terms(povm._half_turn(x), twice_s)
    assert terms.shape == (2 * n, x.size)
    want = _expm_column(twice_s, twice_mp, np.arccos(x))
    assert np.max(np.abs(su2._d_fourier(twice_s, twice_mp) @ terms - want)) < 1e-13
    # a lower spin of the same parity reads the leading terms of each half
    if twice_s >= 2:
        low = twice_s - 2
        k = low // 2 + 1
        table = su2._d_fourier(low, low % 2)
        got = table @ np.concatenate([terms[:k], terms[n:n + k]])
        want = table @ su2._half_angle_terms(np.exp(0.5j * np.arccos(x)), low)
        assert np.max(np.abs(got - want)) < 1e-13


def sy_tridiagonal(twice):
    """The real tridiagonal form T of S_y for spin twice/2: zero diagonal and
    off-diagonals sqrt((k+1)(2S-k))/2."""
    k = np.arange(twice)
    return np.zeros(twice + 1), np.sqrt((k + 1.0) * (twice - k)) / 2.0


def sign_fixed(got, want):
    """got with each column's sign taken from want at want's largest entry."""
    cols = np.arange(want.shape[1])
    rows = np.argmax(np.abs(want), axis=0)
    return got * np.sign(got[rows, cols] * want[rows, cols])


def test_sy_vectors_match_dense_eigh():
    # every full set up to 2S = 401 against LAPACK's dense solver; the bound is
    # eigh's own error, up to 1.9e-14 (2S = 368, lam = -181) against a
    # 300-digit evaluation, where the recurrence is within 6.3e-16 of it
    for twice in range(402):
        _, off = sy_tridiagonal(twice)
        want = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]
        got = su2._sy_vectors(twice)
        assert got.shape == want.shape
        assert np.max(np.abs(sign_fixed(got, want) - want)) < 3e-14, twice


@pytest.mark.parametrize("twice", [1, 2, 3, 10, 101, 400, 1000, 1001, 2000, 4000, 4001])
def test_sy_vector_matches_eigh_tridiagonal(twice):
    diag, off = sy_tridiagonal(twice)
    for index in sorted({0, twice // 3, twice // 2, twice}):
        want = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                             select_range=(index, index))[1]
        got = su2._sy_vectors(twice, index)
        assert got.shape == (twice + 1,)
        assert np.max(np.abs(sign_fixed(got[:, None], want) - want)) < 1e-14, index


@pytest.mark.parametrize("twice, index", [(368, 3), (368, 184), (401, 400), (1001, 333)])
def test_sy_vector_matches_high_precision_recurrence(twice, index):
    # the same recurrence run the whole length in 300-digit decimals, normalised
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        lam = decimal.Decimal(2 * index - twice) / 2
        off = [(decimal.Decimal((k + 1) * (twice - k))).sqrt() / 2 for k in range(twice)]
        v = [decimal.Decimal(1)]
        for k, t in enumerate(off):
            v.append((lam * v[-1] - (off[k - 1] * v[-2] if k else 0)) / t)
        norm = sum(x * x for x in v).sqrt()
        want = np.array([float(x / norm) for x in v])[:, None]
    got = su2._sy_vectors(twice, index)[:, None]
    assert np.max(np.abs(sign_fixed(got, want) - want)) < 2e-15


def test_sy_vector_guard_holds_to_2s_10001():
    # the residual guard max |T v - lam v| <= 1e-12 (2S + 1) passes at the
    # extreme and middle eigenvalues, past the 1e100 rescaling
    for index in (0, 1, 3333, 5000, 10000, 10001):
        v = su2._sy_vectors(10001, index)
        assert np.all(np.isfinite(v)) and abs(v @ v - 1.0) < 1e-13


def test_sy_vectors_are_read_only():
    for args in ((9,), (9, 4)):
        v = su2._sy_vectors(*args)
        assert v is su2._sy_vectors(*args)
        assert not v.flags.writeable


@pytest.mark.parametrize("fault", ["eigenvalue", "norm"])
@pytest.mark.parametrize("solve", ["table", "vector"])
def test_sy_tridiagonal_guard_raises(solve, fault, monkeypatch):
    # the full set behind _d_fourier and the one vector behind
    # _d_diagonal_cosines come from one recurrence with one residual guard:
    # it raises on a lam that is not an eigenvalue, and on entries whose
    # scales disagree, as a rescaling past 1e100 that missed one would leave
    build = {"table": su2._d_fourier, "vector": su2._d_diagonal_cosines}[solve]
    recurrence = su2._sy_half

    def faulty(off, lam):
        if fault == "eigenvalue":
            return recurrence(off, lam + 1e-6)
        v = recurrence(off, lam)
        return v[:-1] + [v[-1] * (1.0 + 1e-6)]

    caches = (build, su2._sy_vectors)  # the eigenvectors are cached as well
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(su2, "_sy_half", faulty)
    try:
        with pytest.raises(RuntimeError, match="eigenvectors"):
            build(7, 1)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    # at theta = 0 both read d^S_{m,m} = 1 on the diagonal
    assert wigner_small_d(HalfInt(7), HalfInt(1), HalfInt(1), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert su2._d_diagonal_cosines(7, 1).sum() == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 401), st.data(),
       st.lists(st.floats(0.0, math.pi), min_size=1, max_size=20))
def test_diagonal_cosine_series_matches_wigner_small_d(twice_s, data, thetas):
    # the +z quadrature's one-vector series against the full-table kernel of
    # wigner_small_d, both parities; both come from _sy_vectors, whose own
    # accuracy the eigh, eigh_tridiagonal and high-precision tests hold
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


def test_whole_d_matrix_solves_its_spin_once(monkeypatch):
    # element by element, m outer and m' inner, every column table of one
    # spin reads the eigenvectors of a single full-set solve: 51 recurrences,
    # one per lam >= 0
    recurrence = su2._sy_half
    calls = []

    def counted(off, lam):
        calls.append((len(off), lam))
        return recurrence(off, lam)

    caches = (su2._d_fourier, su2._sy_vectors)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(su2, "_sy_half", counted)
    try:
        s = HalfInt(100)
        d = np.array([[wigner_small_d(s, m, mp, 0.9) for mp in projections(s)]
                      for m in projections(s)])
        solves = su2._sy_vectors.cache_info().misses
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    assert solves == 1
    assert calls == [(100, float(lam)) for lam in range(51)]
    assert np.max(np.abs(d @ d.T - np.eye(101))) < 1e-13


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


@pytest.mark.parametrize("theta", [math.nan, math.inf, np.array([0.5, -math.inf]),
                                   np.array([[0.1], [math.nan]])])
def test_wigner_small_d_rejects_non_finite_angle(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        wigner_small_d(HalfInt(3), HalfInt(3), HalfInt(3), theta)


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


@pytest.mark.parametrize("twice", [3, 1])
def test_overlap_array_equals_scalar_calls(twice):
    grid = np.linspace(-1.0, 1.0, 100001)
    got = overlap_sq_32(grid, HalfInt(twice))
    assert got.shape == grid.shape
    assert np.array_equal(got, [overlap_sq_32(c, HalfInt(twice)) for c in grid.tolist()])
    assert type(overlap_sq_32(0.25, HalfInt(twice))) is float
    assert type(overlap_sq_32(np.float64(0.25), HalfInt(twice))) is float
    two_d = overlap_sq_32(grid[:10].reshape(2, 5), HalfInt(twice))
    assert np.array_equal(two_d, got[:10].reshape(2, 5))


@pytest.mark.parametrize("bad", [1.0 + 1e-15, -1.5, math.nan])
def test_overlap_array_rejects_any_entry_out_of_range(bad):
    cosines = np.linspace(-1.0, 1.0, 9)
    cosines[6] = bad
    with pytest.raises(ValueError, match="cosine"):
        overlap_sq_32(cosines, HalfInt(3))
