"""Quadrature rules, polynomial zeros, and the tridiagonal eigensolver."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_jacobi, eval_legendre, jn_zeros, roots_jacobi, roots_legendre

from spinlab import numerics
from spinlab.codes import coherent_code
from spinlab.fidelity import build_m, max_fidelity_rotation
from spinlab.numerics import (Quadrature1D, Tridiag, bessel_j0_first_zero,
                              gauss_legendre, hermitian_eigenvalues, largest_zero,
                              tridiag_max_eigenpair)
from spinlab.povm import octahedron_povm, simulate
from spinlab.su2 import HalfInt

# Hand-expanded low-degree members of both families, the ground truth the
# recursions are checked against.
LEGENDRE_COEFFS = {
    2: [-0.5, 0.0, 1.5],
    3: [0.0, -1.5, 0.0, 2.5],
    4: [3.0 / 8.0, 0.0, -30.0 / 8.0, 0.0, 35.0 / 8.0],
}
JACOBI01_COEFFS = {
    1: [-0.5, 1.5],
    2: [-0.5, -1.0, 2.5],
    3: [3.0 / 8.0, -15.0 / 8.0, -15.0 / 8.0, 35.0 / 8.0],
    4: [3.0 / 8.0, 12.0 / 8.0, -42.0 / 8.0, -28.0 / 8.0, 63.0 / 8.0],
}


def poly_value(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def test_gauss_legendre_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError, match="^order must be an integer, not 3.0$"):
        gauss_legendre(3.0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: simulate(coherent_code(4), octahedron_povm(), True, 0), ValueError,
     "^shots must be an integer, not True$"),
    (lambda: simulate(coherent_code(4), octahedron_povm(), 10, True), ValueError,
     "^seed must be an integer, not True$"),
    (lambda: max_fidelity_rotation(True), ValueError, "^nspins must be an integer, not True$"),
    (lambda: gauss_legendre(True), ValueError, "^order must be an integer, not True$"),
    (lambda: HalfInt(True), TypeError, "^twice must be an integer$"),
], ids=["shots", "seed", "nspins", "order", "halfint"])
def test_bool_is_not_a_count(call, error, match):
    # bool subclasses int, so an isinstance check alone lets True through as 1
    with pytest.raises(error, match=match):
        call()


def test_gauss_legendre_basic_shape():
    rule = gauss_legendre(12)
    assert rule.order == 12
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)


def test_gauss_legendre_moment_exactness():
    # degree 2n-1 exactness: moments of x^k over [-1, 1]
    rule = gauss_legendre(7)
    for k in range(14):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        got = float(np.sum(rule.weights * rule.nodes ** k))
        assert got == pytest.approx(exact, abs=1e-13)


def test_gauss_legendre_cache_shares_frozen_arrays():
    a = gauss_legendre(16)
    b = gauss_legendre(16)
    assert a is b
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=10))
def test_gauss_legendre_exact_on_random_polynomials(coeffs):
    rule = gauss_legendre(5)
    got = float(np.sum(rule.weights * poly_value(coeffs, rule.nodes)))
    exact = sum(c * 2.0 / (k + 1) for k, c in enumerate(coeffs) if k % 2 == 0)
    assert got == pytest.approx(exact, abs=1e-10)


def test_quadrature1d_validation():
    with pytest.raises(ValueError):
        Quadrature1D([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Quadrature1D([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        Quadrature1D([0.0, 1.0], [1.0])
    for nodes, weights in [([math.nan, 0.5], [1.0, 1.0]), ([math.nan], [1.0]),
                           ([0.0, 0.5], [1.0, math.nan]), ([0.0, 1.5], [1.0, 1.0])]:
        with pytest.raises(ValueError):
            Quadrature1D(nodes, weights)


def recursion_value(b, l, x):
    """P^(0,b)_l at x from the three-term recursion behind largest_zero."""
    return numerics._eval_with_derivative(numerics._three_terms(b, l), x)[0]


def old_three_terms(kind, l):
    """The separate Legendre and (0,1) Jacobi coefficient formulas that the one
    P^(0,b) recurrence replaced, kept as its bit-for-bit reference."""
    if kind == "legendre":
        return [((2 * k - 1) / k, 0.0, (k - 1) / k) for k in range(1, l + 1)]
    return [((2 * k + 1) * (2 * k - 1) / den, -1.0 / den, (k - 1) * (2 * k + 1) / den)
            for k in range(1, l + 1) for den in [(k + 1) * (2 * k - 1)]]


def test_three_terms_reproduce_legendre_and_jacobi01_bit_for_bit():
    # the table and asymptotic outputs rest on these coefficients
    for b, kind in ((0, "legendre"), (1, "jacobi01")):
        want = [tuple(t.hex() for t in step) for step in old_three_terms(kind, 5000)]
        got = [tuple(t.hex() for t in step) for step in numerics._three_terms(b, 5000)]
        assert got == want, kind
        assert numerics._three_terms(b, 0) == []


@pytest.mark.parametrize("l,coeffs", sorted(LEGENDRE_COEFFS.items()))
def test_legendre_eval_matches_hand_expansion(l, coeffs):
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(recursion_value(0, l, xs) - poly_value(coeffs, xs))) < 1e-14


@pytest.mark.parametrize("l,coeffs", sorted(JACOBI01_COEFFS.items()))
def test_jacobi01_eval_matches_hand_expansion(l, coeffs):
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(recursion_value(1, l, xs) - poly_value(coeffs, xs))) < 1e-14


def test_both_families_are_one_at_one():
    for l in range(0, 31):
        assert recursion_value(0, l, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert recursion_value(1, l, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_eval_scalar_returns_scalar_and_broadcasts():
    assert isinstance(float(recursion_value(0, 3, 0.3)), float)
    out = recursion_value(1, 3, np.zeros((2, 5)))
    assert out.shape == (2, 5)


def test_largest_zero_analytic_values():
    assert largest_zero("legendre", 2) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert largest_zero("legendre", 3) == pytest.approx(math.sqrt(0.6), abs=1e-15)
    assert largest_zero("legendre", 4) == pytest.approx(
        math.sqrt((15.0 + 2.0 * math.sqrt(30.0)) / 35.0), abs=1e-15)
    assert largest_zero("jacobi01", 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert largest_zero("jacobi01", 2) == pytest.approx((1.0 + math.sqrt(6.0)) / 5.0, abs=1e-15)


@pytest.mark.parametrize("l", list(range(1, 41)) + [101, 250, 501])
def test_largest_zero_against_scipy(l):
    assert largest_zero("legendre", l) == pytest.approx(roots_legendre(l)[0][-1], abs=5e-15)
    assert largest_zero("jacobi01", l) == pytest.approx(roots_jacobi(l, 0, 1)[0][-1], abs=5e-15)


def test_largest_zero_residual_small():
    # evaluation noise grows with degree, so the strict bound stays at l <= 40
    for l in range(1, 41):
        assert abs(eval_legendre(l, largest_zero("legendre", l))) < 1e-13
        assert abs(eval_jacobi(l, 0, 1, largest_zero("jacobi01", l))) < 1e-13


def test_largest_zero_equals_max_gauss_node():
    for l in (3, 8, 17):
        assert largest_zero("legendre", l) == pytest.approx(
            gauss_legendre(l).nodes[-1], abs=5e-15)


def test_batched_zeros_equal_scalar_zeros():
    # both families mixed, unsorted, repeated: each entry is its scalar call bit for bit
    bs = [1, 0, 0, 1, 0, 1] * 12
    degrees = [37, 1, 250, 1, 2, 137] * 12
    got = numerics._largest_zeros(bs, degrees)
    assert [z.hex() for z in got.tolist()] == [
        largest_zero(("legendre", "jacobi01")[b], l).hex() for b, l in zip(bs, degrees)]
    assert numerics._largest_zeros([], []).shape == (0,)


def test_batched_zeros_validation():
    # the batched pass takes b itself; only largest_zero maps a family name to b
    with pytest.raises(ValueError):
        numerics._largest_zeros([0, 1], [3, 0])
    with pytest.raises(ValueError):
        numerics._largest_zeros([0], [3, 4])
    # a float degree is refused, as by the scalar pass, not truncated to 3
    with pytest.raises(ValueError, match="^degree must be an integer, not 3.7$"):
        numerics._largest_zeros([0], [3.7])


def test_largest_zero_validation():
    with pytest.raises(ValueError):
        largest_zero("chebyshev", 3)
    with pytest.raises(ValueError):
        largest_zero("legendre", 0)
    with pytest.raises(ValueError, match="^degree must be an integer, not 3.0$"):
        largest_zero("legendre", 3.0)


def j0_series(x):
    """Power-series Bessel J0, plenty accurate near the first zero."""
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


def j1_series(x):
    term = x / 2.0
    total = term
    for k in range(1, 40):
        term *= -(x * x / 4.0) / (k * (k + 1.0))
        total += term
    return total


def test_bessel_first_zero_against_series_newton():
    x = 2.4
    for _ in range(50):
        step = j0_series(x) / j1_series(x)  # J0' = -J1
        x += step
        if abs(step) < 1e-15:
            break
    assert bessel_j0_first_zero() == pytest.approx(x, abs=1e-13)
    assert bessel_j0_first_zero() == pytest.approx(2.404825557695773, abs=1e-12)


def test_bessel_first_zero_is_correctly_rounded():
    # j_{0,1} = 2.40482 55576 95772 76862... (DLMF, chapter 10), whose nearest float
    # scipy's jn_zeros misses by one ulp
    assert bessel_j0_first_zero() == float("2.4048255576957727686") == 2.404825557695773
    assert abs(bessel_j0_first_zero() - jn_zeros(0, 1)[0]) <= math.ulp(2.404825557695773)


def test_tridiag_validation_and_dense():
    with pytest.raises(ValueError):
        Tridiag([], [])
    with pytest.raises(ValueError):
        Tridiag([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        Tridiag([1.0, math.nan], [0.5])
    t = Tridiag([1.0, 2.0, 3.0], [0.5, -0.25])
    dense = t.dense()
    assert np.array_equal(dense, dense.T)
    assert dense[0, 1] == 0.5 and dense[2, 1] == -0.25 and dense[0, 2] == 0.0


def test_tridiag_max_eigenpair_two_by_two_analytic():
    c = 1.0 / math.sqrt(3.0)
    lam, vec = tridiag_max_eigenpair(Tridiag([0.0, 0.0], [c]))
    assert lam == pytest.approx(c, abs=1e-13)
    assert np.max(np.abs(vec - 1.0 / math.sqrt(2.0))) < 1e-10


def test_tridiag_max_eigenpair_single_entry():
    lam, vec = tridiag_max_eigenpair(Tridiag([2.5], []))
    assert lam == 2.5
    assert vec.tolist() == [1.0]


def test_tridiag_max_eigenpair_against_dense_solver():
    rng = np.random.default_rng(20240817)
    for size in range(2, 13):
        for _ in range(4):
            diag = rng.normal(size=size)
            off = rng.normal(size=size - 1) + np.sign(rng.normal(size=size - 1)) * 0.3
            t = Tridiag(diag, off)
            lam, vec = tridiag_max_eigenpair(t)
            vals, vecs = np.linalg.eigh(t.dense())
            assert lam == pytest.approx(vals[-1], abs=1e-11)
            assert abs(abs(vec @ vecs[:, -1]) - 1.0) < 1e-9
            resid = np.max(np.abs(t.dense() @ vec - lam * vec))
            assert resid < 1e-10


def test_tridiag_max_eigenpair_sign_convention():
    lam, vec = tridiag_max_eigenpair(Tridiag([0.0, 0.0, 0.0], [0.4, 0.4]))
    first = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
    assert first > 0


def test_tridiag_max_eigenpair_degenerate_top_raises():
    with pytest.raises(RuntimeError):
        tridiag_max_eigenpair(Tridiag([1.0, 1.0], [0.0]))


@pytest.mark.parametrize("delta, raises", [
    (0.0, True), (1e-11, True), (1.5e-10, False), (3e-10, False), (1e-9, False),
    (1e-8, False), (1e-7, False)])
def test_tridiag_max_eigenpair_gap_threshold(delta, raises):
    # the gap guard trips below 1e-10 times the Gershgorin scale (here 1 + 1e-6)
    t = Tridiag([1.0, 1.0 + delta], [0.0])
    if raises:
        with pytest.raises(RuntimeError, match="gap"):
            tridiag_max_eigenpair(t)
    else:
        lam, vec = tridiag_max_eigenpair(t)
        assert lam == pytest.approx(1.0 + delta, abs=1e-13)
        # the residual test alone leaves vec[0] up to 1e-12 / delta, which
        # can outweigh the exact zero and flip the sign rule onto vec[1] < 0
        assert abs(vec[0]) <= 1e-9 and abs(vec[1] - 1.0) <= 1e-9
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)


def test_tridiag_max_eigenpair_sign_rule_holds_across_the_gap():
    # above the 1e-6 settle threshold the residual test leaves vec[0] up to
    # 1e-12 (1 + delta) / delta off its exact zero; the sign rule must look past
    # it to vec[1] at every gap, not only below the threshold
    for delta in np.logspace(-6.0, 0.0, 61):
        _, vec = tridiag_max_eigenpair(Tridiag([1.0, 1.0 + delta], [0.0]))
        assert vec[1] > 0.0, delta
        assert abs(vec[0]) <= 1e-12 * (1.0 + delta) / delta, delta


# Top eigenpairs of the fidelity matrices: the eigenvalue as float.hex and the
# sha256 of the eigenvector's little-endian float64 bytes
PINNED_EIGENPAIRS = [
    (1, "0x1.5555555555555p-2", "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    (2, "0x1.279a7459033f0p-1", "a79009788da6562af5d0a823a8d4d5b76d051e4e53baf8b1c65649a4dc454f37"),
    (3, "0x1.613a4dcd41a10p-1", "2f7d604b6096d04f4067b97592445df2f5264328e88346074d7af1f8efb5bcfe"),
    (4, "0x1.8c97ef43f732cp-1", "493e88bbe308a8b65e7678226361323bfcc5792d5cc0322f5a77e433fada80f7"),
    (5, "0x1.a54932ac4b488p-1", "f64c4fdb7d746f1d7560b43adb5cfd1abd932ed0cf9b5234aba379d3740efaf6"),
    (6, "0x1.b8e6dbcf638c2p-1", "4b30363eee5c26d01387c929862123bb34d55ffdacbd43b89926f00cf0edfdd9"),
    (7, "0x1.c5867a44e5266p-1", "4b051589106d227fc79b6bc461a581fed00ed3cdedd1073fdf17091c9d89da9f"),
    (8, "0x1.cff6ce0533994p-1", "e9b31e4b5c5047acbcde05df13211667049b2b9b4c87c1db70c9360ac4aabbb9"),
    (9, "0x1.d73c15b79f344p-1", "e57e9d909a23df9dd7621497fae959d2d8776bf68dfff9eb99c99e8e914f8e7f"),
    (10, "0x1.dd6ca4e80a0acp-1", "e512dd11a287d0917bf2036b6fc5f3c6b5ddf99d293f506532853fb59361da7e"),
    (11, "0x1.e1fadfe073ef8p-1", "836f2902af76d310d4c5437fff1eaba62a1c3a06a5cccc7a98692470d1af0734"),
    (12, "0x1.e5f178e7c613ap-1", "b33ff0bd208e163b9ed6bb912cd18dadd4d6803ea7073eac70ac5d93acd9d9c7"),
    (64, "0x1.feae731405d6cp-1", "42bacd970b48c5abdf75cf203c3477ad6b9603a2f24f430b19fc854b9e76b7d9"),
    (100, "0x1.ff71215cb0080p-1", "a3f489475171ba9ae495de350b1feeca0d0a26820e38aa6221af8a4390069544"),
    (200, "0x1.ffdb3698eb0c6p-1", "f66b6a737a97cb6ffb7b018832002fd8d5a5b837bb67175aa0ef83276dcb4793"),
    (1000, "0x1.fffe7e374c564p-1", "41e8fdccb67be1d1379b36e5326af5e92334897d5ff2a4f1616c1aca6cea348a"),
    (1001, "0x1.fffe7efbd60cep-1", "df68f100585f583e7e4f610b15551ad016ec98bfb8e2427c6b905c8f4ee1adce"),
]


@pytest.mark.parametrize("n, lam_hex, vec_sha", PINNED_EIGENPAIRS)
def test_max_fidelity_rotation_eigenpair_pinned(n, lam_hex, vec_sha):
    lam, vec = tridiag_max_eigenpair(build_m(n))
    assert lam.hex() == lam_hex
    assert hashlib.sha256(vec.astype("<f8").tobytes()).hexdigest() == vec_sha
    assert max_fidelity_rotation(n)[0] == (1.0 + lam) / 2.0


@pytest.mark.parametrize("diag, off", [
    ([0.15234566010016998, 1.514338909453495, -1.1379390989289333, -1.1999917906247721,
      -0.2968501824793695, 0.49269998116109476],
     [-0.0, 1.1376816299409134, 0.0, 0.35589887145952187, -0.0]),
    ([0.3112976292658989, 0.3265963960937735, -1.9137642104785484, 0.5872597866243651,
      0.10570567214743247, -0.27065942796343, -0.3351196072194967, 0.5991200180862716,
      -0.8792993909043877, -1.4287574117262778],
     [-0.7393117255419478, -0.04755897109623478, 0.4673768818492141, -1.3307626127959473,
      -0.0, -0.0, -0.06708511131542264, 1.1786174001039667, 0.6391577286176845]),
])
def test_tridiag_max_eigenpair_decoupled_blocks(diag, off):
    # an exactly singular pivot in the top block overflows the first solve
    # (its norm is infinite); the eigenvector must still come out unit
    t = Tridiag(diag, off)
    lam, vec = tridiag_max_eigenpair(t)
    vals, vecs = np.linalg.eigh(t.dense())
    assert lam == pytest.approx(vals[-1], abs=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert min(np.max(np.abs(vec - vecs[:, -1])), np.max(np.abs(vec + vecs[:, -1]))) < 1e-9


def test_tridiag_max_eigenpair_calls_no_library_eigensolver(monkeypatch):
    # the eigen route is the independent cross-check of the LAPACK paths
    def refuse(*args, **kwargs):
        raise AssertionError("library eigensolver called")
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    lam, _ = tridiag_max_eigenpair(build_m(64))
    assert lam.hex() == {n: h for n, h, _ in PINNED_EIGENPAIRS}[64]


def test_tridiag_max_eigenpair_bisects_once(monkeypatch):
    # one bisection to 1e-13 of the Gershgorin scale on "one above x?", then
    # "two above x?" for the gap guard and the settle test
    limits = []
    count_above = numerics._count_above
    monkeypatch.setattr(numerics, "_count_above",
                        lambda *args: limits.append(args[3]) or count_above(*args))
    tridiag_max_eigenpair(build_m(200))
    assert 40 <= len(limits) <= 50
    assert set(limits[:-2]) == {1} and limits[-2:] == [2, 2]


def reference_count_below(diag, coupling, x):
    """Eigenvalues strictly below x: every negative Sturm pivot, counted to the end."""
    count, q = 0, 1.0
    for d, c in zip(diag, coupling):
        q = (d - x) - c / q
        if abs(q) < numerics._PIVMIN:
            q = -numerics._PIVMIN
        if q < 0.0:
            count += 1
    return count


def reference_top_eigenvalue(diag, off):
    """(top eigenvalue, Gershgorin scale): the k-th eigenvalue bisection on the full
    count, k = n, in the bracket and to the width that tridiag_max_eigenpair uses."""
    absoff = [abs(o) for o in off]
    radius = [a + b for a, b in zip(absoff + [0.0], [0.0] + absoff)]
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    span = max(hi - lo, 1.0)
    lo, hi = lo - 1e-6 * span, hi + 1e-6 * span
    scale = max(1.0, abs(lo), abs(hi))
    coupling = [0.0] + [o * o for o in off]
    while hi - lo > 1e-13 * scale:
        mid = 0.5 * (lo + hi)
        if reference_count_below(diag, coupling, mid) >= len(diag):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), scale


@st.composite
def tridiags(draw):
    """Tridiags of size 2-11 at scales 1e-8..1e8, with integer diagonals (exact
    degeneracies) and zero couplings (decoupled blocks) among them."""
    n = draw(st.integers(2, 11))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    entry = st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0))
    diag = draw(st.lists(entry, min_size=n, max_size=n))
    off = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                        min_size=n - 1, max_size=n - 1))
    return Tridiag(np.multiply(diag, scale), np.multiply(off, scale))


@given(tridiags())
def test_top_eigenvalue_matches_full_count_bisection(t):
    # the early-exit count decides every bisection step and both gap tests as
    # the full count of negative pivots does, so the eigenvalue is the same bits
    diag, off = t.diag.tolist(), t.offdiag.tolist()
    coupling = [0.0] + [o * o for o in off]
    lam, scale = reference_top_eigenvalue(diag, off)
    for x in (lam, lam - 1e-10 * scale, lam - 1e-6 * scale):
        above = t.size - reference_count_below(diag, coupling, x)
        for limit in (1, 2):
            assert numerics._count_above(diag, coupling, x, limit) == min(above, limit)
    if reference_count_below(diag, coupling, lam - 1e-10 * scale) < t.size - 1:
        with pytest.raises(RuntimeError, match="gap"):
            tridiag_max_eigenpair(t)
    else:
        assert tridiag_max_eigenpair(t)[0].hex() == lam.hex()


def test_count_above_takes_a_nan_pivot_as_not_negative():
    # squared couplings of 1e200 overflow, and inf / inf pivots are NaN; the full
    # count never counted those below x, so they are above it
    diag, coupling = [0.0] * 4, [0.0] + [1e200 * 1e200] * 3
    for x in (-1e201, 0.0, 1e201):
        above = 4 - reference_count_below(diag, coupling, x)
        for limit in (1, 2, 4):
            assert numerics._count_above(diag, coupling, x, limit) == min(above, limit)


@pytest.mark.parametrize("scale, bound", [(1.0, "1.000e-10"), (1e4, "1.000e-06")])
def test_tridiag_max_eigenpair_near_degenerate_pair_raises(scale, bound):
    # two coupled blocks whose top eigenvalues differ by 1e-12 of the scale: the
    # message states the bound tested, 1e-10 of the Gershgorin scale
    t = Tridiag([0.0] * 4, np.multiply([1.0, 0.0, 1.0 + 1e-12], scale))
    with pytest.raises(RuntimeError, match=f"nearly degenerate \\(gap below {bound}\\)"):
        tridiag_max_eigenpair(t)


def test_hermitian_eigensystem_reconstructs():
    # the ascending eigenvalues of a random Hermitian matrix, with the
    # eigenvectors of numpy's eigh, rebuild the matrix
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2.0
    vals = hermitian_eigenvalues(h)
    assert np.all(np.diff(vals) >= -1e-12)
    vecs = np.linalg.eigh(h)[1]
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h)) < 1e-12


def test_hermitian_eigenvalues_match_eigensystem():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2.0
    assert np.max(np.abs(hermitian_eigenvalues(h) - np.linalg.eigh(h)[0])) < 1e-12


def test_hermitian_eigenvalues_validation():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_hermitian_eigenvalues_of_a_stack():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
    h = (a + a.conj().transpose(0, 2, 1)) / 2.0
    got = hermitian_eigenvalues(h)
    assert got.shape == (4, 5)
    for vals, one in zip(got, h):
        assert np.max(np.abs(vals - hermitian_eigenvalues(one))) <= 1e-14


@pytest.mark.parametrize("block", [0, 2, 3])
def test_hermitian_eigenvalues_stack_rejects_any_bad_block(block):
    h = np.stack([np.eye(3)] * 4)
    h[block, 0, 2] = 1e-6
    with pytest.raises(ValueError, match=f"matrix \\[{block}\\] of the stack is not Hermitian"):
        hermitian_eigenvalues(h)
    h[block, 0, 2] = math.nan
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(h)
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((4, 2, 3)))
