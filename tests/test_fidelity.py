"""Fidelity optimizers: eigenvalue, polynomial, and quadrature routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_jacobi, eval_legendre

from spinlab import fidelity, numerics
from spinlab.codes import AlphaFamily, MultiRepState, alpha_code, coherent_code, minimal_sn
from spinlab.fidelity import (asymptotic_table, build_m, fidelity_optimal,
                              fidelity_parallel, fidelity_quadrature,
                              max_fidelity_polynomial, max_fidelity_polynomials,
                              max_fidelity_rotation)
from spinlab.numerics import bessel_j0_first_zero
from spinlab.su2 import Direction, HalfInt, X_AXIS

CLOSED_FORMS = {
    1: 2.0 / 3.0,
    2: (3.0 + math.sqrt(3.0)) / 6.0,
    3: (6.0 + math.sqrt(6.0)) / 10.0,
    4: (5.0 + math.sqrt(15.0)) / 10.0,
}
PRINTED = {5: 0.9114, 6: 0.9306, 7: 0.9429}


def test_build_m_two_spins():
    m = build_m(2).dense()
    c = 1.0 / math.sqrt(3.0)
    assert np.max(np.abs(m - np.array([[0.0, c], [c, 0.0]]))) < 1e-15


def test_build_m_three_spins():
    m = build_m(3).dense()
    want = np.array([[1.0 / 15.0, math.sqrt(2.0) / 3.0],
                     [math.sqrt(2.0) / 3.0, 1.0 / 3.0]])
    assert np.max(np.abs(m - want)) < 1e-15


def test_build_m_single_spin():
    m = build_m(1)
    assert m.size == 1
    assert m.diag[0] == pytest.approx(1.0 / 3.0, abs=1e-16)
    with pytest.raises(ValueError):
        build_m(0)


def char_poly(tri, x):
    """Characteristic polynomial det(M - xI) by the leading-minor recursion."""
    p_prev, p = 1.0, tri.diag[0] - x
    for i in range(1, tri.size):
        p, p_prev = (tri.diag[i] - x) * p - tri.offdiag[i - 1] ** 2 * p_prev, p
    return p


@pytest.mark.parametrize("nspins", range(1, 9))
def test_char_poly_recursion_matches_dense_det(nspins):
    tri = build_m(nspins)
    for x in np.linspace(-0.9, 0.9, 7):
        want = np.linalg.det(tri.dense() - x * np.eye(tri.size))
        assert char_poly(tri, x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("nspins", range(1, 11))
def test_char_poly_is_the_classical_family(nspins):
    # the matrix route and the polynomial route must be the same polynomial
    tri = build_m(nspins)
    # scipy's evaluators, independent of the recursion behind largest_zero
    family = eval_legendre if nspins % 2 == 0 else (lambda l, x: eval_jacobi(l, 0, 1, x))
    norm = char_poly(tri, 1.0)
    for x in np.linspace(-1.0, 1.0, 21):
        assert char_poly(tri, x) / norm == pytest.approx(
            float(family(tri.size, x)), abs=1e-10)


@pytest.mark.parametrize("nspins,want", sorted(CLOSED_FORMS.items()))
def test_max_fidelity_rotation_closed_forms(nspins, want):
    got, _ = max_fidelity_rotation(nspins)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("nspins,want", sorted(PRINTED.items()))
def test_max_fidelity_rotation_printed_digits(nspins, want):
    got, _ = max_fidelity_rotation(nspins)
    assert got == pytest.approx(want, abs=5e-5)


def test_max_fidelity_rotation_code_structure():
    f, code = max_fidelity_rotation(2)
    assert code.sn == minimal_sn(2)
    assert code.nspins == 2
    assert np.max(np.abs(code.coeffs - 1.0 / math.sqrt(2.0))) < 1e-10
    assert np.max(np.abs(code.coeffs.imag)) == 0.0


def test_max_fidelity_rotation_coefficients_nonnegative():
    for n in range(1, 13):
        _, code = max_fidelity_rotation(n)
        assert np.all(code.coeffs.real >= 0.0)
        assert np.linalg.norm(code.coeffs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nspins", [*range(1, 13), 90, 200])
def test_equivalence_triangle(nspins):
    f_eig, code = max_fidelity_rotation(nspins)
    assert max_fidelity_polynomial(nspins) == pytest.approx(f_eig, abs=1e-12)
    assert fidelity_quadrature(code) == pytest.approx(f_eig, abs=1e-9)


@pytest.mark.parametrize("nspins", [500, 1000, 1001])
def test_equivalence_at_large_n(nspins):
    """Eigen vs quadrature route within 1e-13 D, D the tower dimension.

    The quadrature sums terms that reach D (the integrand peaks near D at
    x = 1), so its rounding grows as D eps whatever the Wigner kernel:
    |delta| / (D eps) measured 11, 41 and 49 at N = 500, 1000 and 1001.
    """
    f_eig, code = max_fidelity_rotation(nspins)
    assert abs(fidelity_quadrature(code) - f_eig) <= 1e-13 * code.dim


def test_fidelity_optimal_values():
    assert fidelity_optimal(2) == pytest.approx(2.0 / 3.0)
    assert fidelity_optimal(3) == 0.75
    assert fidelity_optimal(2 ** 50) < 1.0
    assert fidelity_optimal(2 ** 1000) == 1.0  # rounds to 1 in float64
    with pytest.raises(ValueError):
        fidelity_optimal(1)


def test_fidelity_parallel_is_coherent_special_case():
    for n in range(1, 9):
        assert fidelity_parallel(n) == fidelity_optimal(n + 1)
    with pytest.raises(ValueError):
        fidelity_parallel(0)


@pytest.mark.parametrize("d", range(2, 9))
def test_coherent_code_reaches_dimension_bound(d):
    got = fidelity_quadrature(coherent_code(d))
    assert got == pytest.approx(fidelity_optimal(d), abs=1e-10)


def test_alpha_family_value_and_beta_independence():
    want = (3.0 + math.sqrt(3.0)) / 6.0
    values = [fidelity_quadrature(alpha_code(AlphaFamily(math.pi / 4.0, beta)))
              for beta in (0.0, 0.9, math.pi / 2.0, 2.5, math.pi, 5.1)]
    for v in values:
        assert v == pytest.approx(want, abs=1e-12)
    assert max(values) - min(values) < 1e-12


def test_alpha_quarter_pi_is_the_two_spin_optimum():
    best, code = max_fidelity_rotation(2)
    sweep = [fidelity_quadrature(alpha_code(AlphaFamily(a)))
             for a in np.linspace(0.0, math.pi / 2.0, 31)]
    assert max(sweep) <= best + 1e-12
    assert fidelity_quadrature(alpha_code(AlphaFamily(math.pi / 4.0))) == pytest.approx(
        best, abs=1e-12)


@settings(max_examples=40)
@given(st.floats(0.0, math.pi / 2.0), st.floats(0.0, 2.0 * math.pi))
def test_alpha_family_never_beats_the_optimum(alpha, beta):
    f = fidelity_quadrature(alpha_code(AlphaFamily(alpha, beta)))
    assert f <= (3.0 + math.sqrt(3.0)) / 6.0 + 1e-10
    assert f >= 0.5 - 1e-12


def test_fidelity_quadrature_decoder_contracts():
    code = alpha_code(AlphaFamily(0.6))
    explicit = fidelity_quadrature(code, decoder=None)
    from spinlab.codes import matched_decoder
    assert fidelity_quadrature(code, decoder=matched_decoder(code)) == explicit
    wrong_tower = coherent_code(4)
    with pytest.raises(ValueError):
        fidelity_quadrature(code, decoder=wrong_tower)


COVARIANCE_CODES = {
    "optimal-n3": lambda: max_fidelity_rotation(3)[1],
    "optimal-n8": lambda: max_fidelity_rotation(8)[1],
    "optimal-n21": lambda: max_fidelity_rotation(21)[1],
    "alpha-complex": lambda: alpha_code(AlphaFamily(0.6, 1.1)),
}


@pytest.mark.parametrize("name", sorted(COVARIANCE_CODES))
def test_fidelity_quadrature_covariant_in_decoder_direction(name, monkeypatch):
    # the +z decoder takes the 1-d rule in cos(theta); the others the sphere grid
    code = COVARIANCE_CODES[name]()
    fz = fidelity_quadrature(code)
    for m in (X_AXIS, Direction(1.1, 2.3), Direction(math.pi, 0.4)):
        assert fidelity_quadrature(code, decoder_direction=m) == pytest.approx(fz, abs=1e-12)

    def no_grid(*args):
        raise AssertionError("a +z decoder must not build the sphere grid")

    monkeypatch.setattr(fidelity, "_decoded_fidelity", no_grid)
    assert fidelity_quadrature(code, decoder_direction=Direction(0.0, 1.3)) == fz


def test_batched_table_equals_single_calls():
    # the polynomial route for the whole table at once, bit for bit, and the two
    # tables that read it
    got = max_fidelity_polynomials(1000)
    want = [max_fidelity_polynomial(n) for n in range(1, 1001)]
    assert [f.hex() for f in got.tolist()] == [f.hex() for f in want]
    assert [row[1] for row in asymptotic_table(1000)] == want
    with pytest.raises(ValueError):
        max_fidelity_polynomials(0)


def test_batched_table_in_several_passes_equals_single_calls(monkeypatch):
    # a small pass size splits the table into passes of 7 consecutive N (top
    # degree 51); each N's zero does not depend on the pass it runs in
    assert fidelity._PASS_COEFFICIENTS // (1000 // 2 + 1) >= 1000  # N <= 1000: one pass
    calls = []
    batched = numerics._largest_zeros

    def counted(bs, degrees):
        calls.append(len(bs))
        return batched(bs, degrees)

    monkeypatch.setattr(fidelity, "_PASS_COEFFICIENTS", 360)
    monkeypatch.setattr(numerics, "_largest_zeros", counted)
    got = max_fidelity_polynomials(100)
    assert calls == [7] * 14 + [2]
    want = [max_fidelity_polynomial(n) for n in range(1, 101)]
    assert [f.hex() for f in got.tolist()] == [f.hex() for f in want]


def test_asymptotic_table_strictly_increasing():
    rows = asymptotic_table(200)
    assert len(rows) == 200
    fids = [r[1] for r in rows]
    assert all(b > a for a, b in zip(fids, fids[1:]))


def test_asymptotic_scaled_deficit_approaches_bessel_constant():
    rows = asymptotic_table(200)
    xi_sq = bessel_j0_first_zero() ** 2
    n, f, deficit = rows[-1]
    assert n == 200
    assert deficit == pytest.approx(n * n * (1.0 - f), abs=1e-12)
    assert abs(deficit / xi_sq - 1.0) < 0.03
    with pytest.raises(ValueError):
        asymptotic_table(0)
