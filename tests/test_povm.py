"""Finite decoding measurements and the Monte Carlo estimator."""

import math

import numpy as np
import pytest

from spinlab import povm
from spinlab.codes import coherent_code, minimal_sn
from spinlab.fidelity import fidelity_quadrature, max_fidelity_rotation
from spinlab.povm import (FinitePovm, PovmElement, check_identity,
                          octahedron_povm, povm_fidelity_exact,
                          quadrature_povm, simulate, von_neumann_pair)
from spinlab.su2 import Direction, HalfInt, X_AXIS, rotate_to


def test_povm_element_validation():
    state = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        PovmElement(0.0, state, X_AXIS)
    with pytest.raises(ValueError):
        PovmElement(1.0, 2.0 * state, X_AXIS)
    with pytest.raises(ValueError):
        PovmElement(1.0, np.eye(2), X_AXIS)


def test_finite_povm_validation():
    el = PovmElement(1.0, np.array([1.0, 0.0]), X_AXIS)
    with pytest.raises(ValueError):
        FinitePovm(3, (el,))  # dimension mismatch
    with pytest.raises(ValueError):
        FinitePovm(2, ())
    with pytest.raises(ValueError):
        FinitePovm(0, (el,))


@pytest.mark.parametrize("nspins", [*range(1, 7), 20])
def test_quadrature_povm_resolves_identity(nspins):
    p = quadrature_povm(minimal_sn(nspins), nspins)
    assert check_identity(p) < 1e-10
    assert p.total_weight == pytest.approx(p.dim, abs=1e-10)


def test_quadrature_povm_finer_grid_still_resolves():
    p = quadrature_povm(HalfInt(0), 2, theta_order=9, phi_count=11)
    assert check_identity(p) < 1e-10
    with pytest.raises(ValueError):
        quadrature_povm(HalfInt(0), 2, theta_order=3)


def test_octahedron_structure():
    p = octahedron_povm()
    assert p.dim == 4
    assert len(p.elements) == 6
    for el in p.elements:
        assert el.weight == pytest.approx(2.0 / 3.0)
    assert check_identity(p) < 1e-10
    # opposite coherent states are orthogonal
    for i in (0, 2, 4):
        a, b = p.elements[i].state, p.elements[i + 1].state
        assert abs(np.vdot(a, b)) < 1e-14


def test_octahedron_exact_fidelity_is_four_fifths():
    got = povm_fidelity_exact(coherent_code(4), octahedron_povm())
    assert got == pytest.approx(0.8, abs=1e-12)


def test_von_neumann_pair_identity_and_guesses():
    m = Direction(0.83, 2.1)
    p = von_neumann_pair(m)
    assert check_identity(p) < 1e-12
    assert len(p.elements) == 2
    assert p.elements[0].guess is m
    assert p.elements[1].guess.dot(m) == pytest.approx(-1.0, abs=1e-14)


def test_check_identity_detects_missing_weight():
    full = von_neumann_pair(X_AXIS)
    halved = FinitePovm(2, (PovmElement(0.5, full.elements[0].state, X_AXIS),
                            full.elements[1]))
    assert check_identity(halved) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("nspins", [*range(1, 5), 20])
def test_povm_route_matches_quadrature_route(nspins):
    f, code = max_fidelity_rotation(nspins)
    p = quadrature_povm(minimal_sn(nspins), nspins)
    assert povm_fidelity_exact(code, p) == pytest.approx(fidelity_quadrature(code), abs=1e-12)
    assert povm_fidelity_exact(code, p) == pytest.approx(f, abs=1e-10)


def test_povm_fidelity_exact_contracts():
    code = coherent_code(2)
    with pytest.raises(ValueError):
        povm_fidelity_exact(code, octahedron_povm())  # dim 2 vs 4
    broken = FinitePovm(2, (von_neumann_pair(X_AXIS).elements[0],))
    with pytest.raises(ValueError):
        povm_fidelity_exact(code, broken)
    with pytest.raises(ValueError):
        povm_fidelity_exact(code, von_neumann_pair(X_AXIS), theta_order=1)


def test_simulate_deterministic_per_seed():
    code = coherent_code(4)
    p = octahedron_povm()
    assert simulate(code, p, 20_000, 11) == simulate(code, p, 20_000, 11)
    assert simulate(code, p, 20_000, 11) != simulate(code, p, 20_000, 12)


def test_simulate_crosses_chunk_boundary_deterministically():
    code = coherent_code(2)
    p = quadrature_povm(HalfInt(1), 1)
    shots = (1 << 17) + 123
    a = simulate(code, p, shots, 3)
    assert a == simulate(code, p, shots, 3)
    assert abs(a[0] - 2.0 / 3.0) < 5.0 * a[1]


def test_simulate_sub_blocks_match_whole_chunk(monkeypatch):
    _, code = max_fidelity_rotation(3)
    p = quadrature_povm(minimal_sn(3), 3)  # 25 outcomes, dimension 6
    whole = simulate(code, p, 5000, 9)
    monkeypatch.setattr(povm, "_BUDGET", 25 * 777)  # 777 shots per sub-block
    split = simulate(code, p, 5000, 9)
    assert split == pytest.approx(whole, abs=1e-12)
    assert simulate(code, p, 5000, 9) == split


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_simulate_statistically_consistent(seed):
    mean, err = simulate(coherent_code(4), octahedron_povm(), 50_000, seed)
    assert 0.0 < err < 0.01
    assert abs(mean - 0.8) < 5.0 * err


def test_simulate_stderr_scales_with_shots():
    code = coherent_code(2)
    p = quadrature_povm(HalfInt(1), 1)
    _, e_small = simulate(code, p, 10_000, 4)
    _, e_big = simulate(code, p, 40_000, 4)
    assert 1.5 < e_small / e_big < 2.5


def test_simulate_single_shot_has_infinite_stderr():
    mean, err = simulate(coherent_code(4), octahedron_povm(), 1, 0)
    assert 0.0 <= mean <= 1.0
    assert math.isinf(err)


def test_simulate_validation():
    code = coherent_code(4)
    with pytest.raises(ValueError):
        simulate(code, octahedron_povm(), 0, 0)
    with pytest.raises(ValueError):
        simulate(coherent_code(2), octahedron_povm(), 10, 0)


def test_simulate_rejects_non_resolving_povm():
    broken = FinitePovm(2, (von_neumann_pair(X_AXIS).elements[0],))
    with pytest.raises(RuntimeError):
        simulate(coherent_code(2), broken, 100, 0)
