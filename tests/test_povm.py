"""Finite decoding measurements and the Monte Carlo estimator."""

import math

import numpy as np
import pytest

from spinlab import povm
from spinlab.codes import coherent_code, minimal_sn
from spinlab.fidelity import fidelity_quadrature, max_fidelity_rotation
from spinlab.povm import (FinitePovm, check_identity, octahedron_povm,
                          povm_fidelity_exact, quadrature_povm, simulate,
                          von_neumann_pair)
from spinlab.su2 import Direction, HalfInt, X_AXIS


def test_povm_element_validation():
    up = np.array([[1.0, 0.0]], dtype=complex)
    z = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        FinitePovm(2, [0.0], up, z)  # zero weight
    with pytest.raises(ValueError):
        FinitePovm(2, [1.0], 2.0 * up, z)  # unnormalised row
    with pytest.raises(ValueError):
        FinitePovm(2, [1.0], np.eye(2)[None], z)  # 2-D row


def test_finite_povm_validation():
    up = np.array([[1.0, 0.0]], dtype=complex)
    z = np.array([[0.0, 0.0, 1.0]])
    assert FinitePovm(2, [1.0], up, z).states.flags.c_contiguous
    with pytest.raises(ValueError):
        FinitePovm(2, [1.0, 1.0], up, z)  # one state for two weights
    with pytest.raises(ValueError):
        FinitePovm(3, [1.0], up, z)  # dimension mismatch
    with pytest.raises(ValueError):
        FinitePovm(2, [], np.empty((0, 2)), np.empty((0, 3)))  # no outcome
    with pytest.raises(ValueError):
        FinitePovm(0, [1.0], up, z)
    with pytest.raises(ValueError):
        FinitePovm(2, [1.0], up, 1.5 * z)  # guess not a unit vector
    with pytest.raises(ValueError):
        FinitePovm(2, [1.0], up, np.full((1, 3), np.nan))
    with pytest.raises(ValueError):
        FinitePovm(2, [1.0], up, z[:, :2])  # guess not in three dimensions


def test_finite_povm_arrays_are_read_only():
    p = von_neumann_pair(X_AXIS)
    for arr in (p.weights, p.states, p.guesses):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("nspins", [*range(1, 7), 20])
def test_quadrature_povm_resolves_identity(nspins):
    p = quadrature_povm(minimal_sn(nspins), nspins)
    assert check_identity(p) < 1e-10
    assert p.weights.sum() == pytest.approx(p.dim, abs=1e-10)


def test_quadrature_povm_finer_grid_still_resolves():
    p = quadrature_povm(HalfInt(0), 2, theta_order=9, phi_count=11)
    assert check_identity(p) < 1e-10
    with pytest.raises(ValueError):
        quadrature_povm(HalfInt(0), 2, theta_order=3)


def test_octahedron_structure():
    p = octahedron_povm()
    assert p.dim == 4
    assert p.states.shape == (6, 4)
    assert p.weights == pytest.approx(np.full(6, 2.0 / 3.0))
    assert check_identity(p) < 1e-10
    # opposite coherent states are orthogonal and guess opposite directions
    for i in (0, 2, 4):
        assert abs(np.vdot(p.states[i], p.states[i + 1])) < 1e-14
        assert p.guesses[i] @ p.guesses[i + 1] == pytest.approx(-1.0, abs=1e-14)


def test_octahedron_exact_fidelity_is_four_fifths():
    got = povm_fidelity_exact(coherent_code(4), octahedron_povm())
    assert got == pytest.approx(0.8, abs=1e-12)


def test_von_neumann_pair_identity_and_guesses():
    m = Direction(0.83, 2.1)
    p = von_neumann_pair(m)
    assert check_identity(p) < 1e-12
    assert p.states.shape == (2, 2)
    assert np.array_equal(p.guesses[0], m.unit_vector)
    assert p.guesses[1] @ m.unit_vector == pytest.approx(-1.0, abs=1e-14)


def test_check_identity_detects_missing_weight():
    full = von_neumann_pair(X_AXIS)
    halved = FinitePovm(2, [0.5, 1.0], full.states, full.guesses)
    assert check_identity(halved) == pytest.approx(0.5, abs=1e-12)


def test_check_identity_matches_outer_product_sum():
    rng = np.random.default_rng(5)
    k, dim = 9, 5
    states = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    guesses = rng.normal(size=(k, 3))
    guesses /= np.linalg.norm(guesses, axis=1, keepdims=True)
    weights = rng.uniform(0.1, 1.0, k)
    acc = -np.eye(dim, dtype=complex)
    for w, s in zip(weights, states):
        acc += w * np.outer(s, s.conj())
    want = float(np.max(np.abs(np.linalg.eigvalsh(acc))))
    assert want > 0.1  # the random POVM does not resolve the identity
    got = check_identity(FinitePovm(dim, weights, states, guesses))
    assert got == pytest.approx(want, abs=1e-12)


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
    pair = von_neumann_pair(X_AXIS)
    broken = FinitePovm(2, pair.weights[:1], pair.states[:1], pair.guesses[:1])
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


def test_simulate_seeded_values_pinned():
    # any change in the order of the draws or of the outcome scan moves these
    _, code = max_fidelity_rotation(3)
    grid = simulate(code, quadrature_povm(minimal_sn(3), 3), 5000, 9)
    assert grid == pytest.approx((0.8428768409560593, 0.0021290700992061154), abs=1e-12)
    octa = simulate(coherent_code(4), octahedron_povm(), 20_000, 11)
    assert octa == pytest.approx((0.7994699350491979, 0.001151710694446307), abs=1e-12)


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
    pair = von_neumann_pair(X_AXIS)
    broken = FinitePovm(2, pair.weights[:1], pair.states[:1], pair.guesses[:1])
    with pytest.raises(RuntimeError):
        simulate(coherent_code(2), broken, 100, 0)
