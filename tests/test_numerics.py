"""Quadrature rules, polynomial zeros, and the tridiagonal eigensolver."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import roots_jacobi, roots_legendre

from spinlab.numerics import (Quadrature1D, Tridiag, bessel_j0_first_zero,
                              gauss_legendre, hermitian_eigensystem,
                              jacobi01_eval, largest_zero, legendre_eval,
                              tridiag_max_eigenpair)

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


@pytest.mark.parametrize("l,coeffs", sorted(LEGENDRE_COEFFS.items()))
def test_legendre_eval_matches_hand_expansion(l, coeffs):
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(legendre_eval(l, xs) - poly_value(coeffs, xs))) < 1e-14


@pytest.mark.parametrize("l,coeffs", sorted(JACOBI01_COEFFS.items()))
def test_jacobi01_eval_matches_hand_expansion(l, coeffs):
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(jacobi01_eval(l, xs) - poly_value(coeffs, xs))) < 1e-14


def test_both_families_are_one_at_one():
    for l in range(0, 31):
        assert legendre_eval(l, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert jacobi01_eval(l, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_eval_scalar_returns_scalar_and_broadcasts():
    assert isinstance(float(legendre_eval(3, 0.3)), float)
    out = jacobi01_eval(3, np.zeros((2, 5)))
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
        assert abs(legendre_eval(l, largest_zero("legendre", l))) < 1e-13
        assert abs(jacobi01_eval(l, largest_zero("jacobi01", l))) < 1e-13


def test_largest_zero_equals_max_gauss_node():
    for l in (3, 8, 17):
        assert largest_zero("legendre", l) == pytest.approx(
            gauss_legendre(l).nodes[-1], abs=5e-15)


def test_largest_zero_validation():
    with pytest.raises(ValueError):
        largest_zero("chebyshev", 3)
    with pytest.raises(ValueError):
        largest_zero("legendre", 0)


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


def test_hermitian_eigensystem_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2.0
    vals, vecs = hermitian_eigensystem(h)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h)) < 1e-12


def test_hermitian_eigensystem_validation():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
