"""Finite decoding measurements and the Monte Carlo estimator."""

import math

import numpy as np
import pytest

from spinlab import povm
from spinlab.codes import (AlphaFamily, MultiRepState, _block_amplitudes, alpha_code,
                           coherent_code, decoder_coefficients, minimal_sn, sphere_grid)
from spinlab.fidelity import fidelity_quadrature, max_fidelity_rotation
from spinlab.povm import (FinitePovm, RingLayout, check_identity, octahedron_povm,
                          povm_fidelity_exact, quadrature_povm, simulate,
                          von_neumann_pair)
from spinlab.su2 import Direction, HalfInt, X_AXIS


def _without_layout(p):
    """The same three arrays as a POVM that takes the generic sampling path."""
    return FinitePovm(p.dim, p.weights, p.states, p.guesses)


def _forbidden(*args):
    raise AssertionError("this sampling path must not run here")


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


@pytest.mark.parametrize("nspins", [1, 2, 7, 20])
def test_quadrature_povm_rows_are_grid_decoder_states(nspins):
    # one Wigner-d column per ring times the azimuth phases gives the decoder
    # state at every grid point, and the POVM declares that layout
    sn = minimal_sn(nspins)
    p = quadrature_povm(sn, nspins)
    assert p.layout == RingLayout(sn, nspins, nspins + 2)
    family = MultiRepState(sn, nspins, decoder_coefficients(sn, nspins).astype(complex))
    _, th, ph = sphere_grid(nspins + 2, nspins + 2)
    assert np.max(np.abs(p.states - _block_amplitudes(family, th, ph).T)) <= 1e-14


def test_ring_layout_is_checked_against_rows():
    p = quadrature_povm(HalfInt(0), 2)  # 4 rings of 4 outcomes, dimension 4
    assert _without_layout(p).layout is None
    swapped = p.states.copy()
    swapped[[1, 2]] = swapped[[2, 1]]  # two azimuths of ring 0 trade places
    with pytest.raises(ValueError):
        FinitePovm(p.dim, p.weights, swapped, p.guesses, p.layout)
    uneven = p.weights.copy()
    uneven[0] *= 1.5  # one outcome of a ring weighs more than its neighbours
    with pytest.raises(ValueError):
        FinitePovm(p.dim, uneven, p.states, p.guesses, p.layout)
    for layout in (RingLayout(HalfInt(0), 2, 8),   # rings of 8 cut across the rows
                   RingLayout(HalfInt(0), 2, 2),   # 2 azimuths cannot separate m = -1..1
                   RingLayout(HalfInt(2), 2, 4)):  # a tower of dimension 3, not 4
        with pytest.raises(ValueError):
            FinitePovm(p.dim, p.weights, p.states, p.guesses, layout)


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
    ring = quadrature_povm(minimal_sn(3), 3)  # 25 outcomes, dimension 6
    assert ring.layout is not None
    for p in (ring, _without_layout(ring)):
        whole = simulate(code, p, 5000, 9)
        with monkeypatch.context() as patch:
            # 626 shots per sub-block on the generic path, 1387 on the ring path
            patch.setattr(povm, "_BUDGET", 25 * 777)
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


@pytest.mark.parametrize("nspins", [*range(1, 13), 20, 40])
def test_ring_path_draws_what_the_generic_path_draws(nspins, monkeypatch):
    _, code = max_fidelity_rotation(nspins)
    p = quadrature_povm(minimal_sn(nspins), nspins)
    want = simulate(code, _without_layout(p), 3000, nspins)
    monkeypatch.setattr(povm, "_generic_sampler", _forbidden)
    assert simulate(code, p, 3000, nspins) == want


def test_ring_path_with_complex_code_on_finer_grid(monkeypatch):
    code = alpha_code(AlphaFamily(0.6, 1.1))
    p = quadrature_povm(HalfInt(0), 2)
    want = simulate(code, _without_layout(p), 20_000, 4)
    monkeypatch.setattr(povm, "_generic_sampler", _forbidden)
    assert simulate(code, p, 20_000, 4) == want


@pytest.mark.parametrize("nspins", [3, 5, 8])
def test_ring_path_with_complex_codes_and_ring_states(nspins, monkeypatch):
    # a phase per tower component keeps the ring layout and the identity
    # resolution but makes the ring states complex, without the m <-> -m
    # symmetry of the grid decoder; with a complex multi-block code the
    # ring tables must then carry every phase exactly
    rng = np.random.default_rng(nspins)
    sn = minimal_sn(nspins)
    blocks = (nspins - sn.twice) // 2 + 1
    c = rng.normal(size=blocks) * np.exp(2j * math.pi * rng.random(blocks))
    code = MultiRepState(sn, nspins, c / np.linalg.norm(c))
    grid = quadrature_povm(sn, nspins)
    p = FinitePovm(grid.dim, grid.weights,
                   grid.states * np.exp(2j * math.pi * rng.random(grid.dim)),
                   grid.guesses, grid.layout)
    want = simulate(code, _without_layout(p), 20_000, 2)
    monkeypatch.setattr(povm, "_generic_sampler", _forbidden)
    assert simulate(code, p, 20_000, 2) == want


def test_ring_path_needs_the_codes_own_tower(monkeypatch):
    # the two-spin grid POVM resolves the identity of any four-dimensional
    # space, but its layout describes the tower (sn, N) = (0, 2), not that
    # of the spin-3/2 coherent code, so the generic path samples it
    p = quadrature_povm(HalfInt(0), 2)
    want = simulate(coherent_code(4), _without_layout(p), 2000, 1)
    monkeypatch.setattr(povm, "_ring_sampler", _forbidden)
    assert simulate(coherent_code(4), p, 2000, 1) == want


def test_simulate_rejects_scaled_ring(monkeypatch):
    _, code = max_fidelity_rotation(3)
    p = quadrature_povm(minimal_sn(3), 3)
    weights = p.weights.copy()
    weights[5:10] *= 1.5  # all of ring 1: the layout holds, the identity does not
    scaled = FinitePovm(p.dim, weights, p.states, p.guesses, p.layout)
    monkeypatch.setattr(povm, "_generic_sampler", _forbidden)
    with pytest.raises(RuntimeError, match="sum to 1"):
        simulate(code, scaled, 1000, 0)


def test_simulate_checks_chosen_ring_against_its_fit(monkeypatch):
    # moving 0.01 of fitted probability from ring 1 to ring 0 keeps the
    # ring sums at 1, so only the per-ring check can notice
    fit = povm.chebyshev.chebinterpolate

    def shifted(func, deg):
        coef = fit(func, deg)
        coef[0, 0] += 0.01
        coef[0, 1] -= 0.01
        return coef

    _, code = max_fidelity_rotation(3)
    p = quadrature_povm(minimal_sn(3), 3)
    monkeypatch.setattr(povm.chebyshev, "chebinterpolate", shifted)
    with pytest.raises(RuntimeError, match="fitted probability"):
        simulate(code, p, 5000, 0)


def test_simulate_rejects_nan_code():
    # the code constructor refuses NaN; a NaN written in afterwards must
    # still stop both sampling paths instead of returning a number
    octa_code = coherent_code(4)
    octa_code.coeffs[0] = math.nan
    with pytest.raises(RuntimeError, match="sum to 1"):
        simulate(octa_code, octahedron_povm(), 1000, 0)
    _, grid_code = max_fidelity_rotation(3)
    grid_code.coeffs[1] = math.nan
    with pytest.raises(RuntimeError, match="sum to 1"):
        simulate(grid_code, quadrature_povm(minimal_sn(3), 3), 1000, 0)


def test_simulate_ring_check_catches_nan(monkeypatch):
    # NaN phases leave the fitted ring probabilities intact, so only the
    # per-ring comparison can notice them
    _, code = max_fidelity_rotation(3)
    p = quadrature_povm(minimal_sn(3), 3)
    monkeypatch.setattr(povm, "_slot_phases",
                        lambda n, turn: np.full((n + 1, turn.size), math.nan))
    with pytest.raises(RuntimeError, match="fitted probability"):
        simulate(code, p, 1000, 0)


def _random_povm(dim, count, seed):
    """A rank-one POVM from `count` random complex vectors, made to resolve
    the identity by G^(-1/2), with random unit guesses; no ring layout."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    vals, basis = np.linalg.eigh(vecs.T @ vecs.conj())
    rows = vecs @ ((basis * vals ** -0.5) @ basis.conj().T).T
    weights = np.sum(np.abs(rows) ** 2, axis=1)
    guesses = rng.normal(size=(count, 3))
    return FinitePovm(dim, weights, rows / np.sqrt(weights)[:, None],
                      guesses / np.linalg.norm(guesses, axis=1)[:, None])


def test_generic_path_draws_the_reference_outcomes():
    # reference: the per-shot amplitudes of _block_amplitudes at arccos(x);
    # both read the d-columns from codes._tower_kernel, so this checks the
    # sampler's assembly (harmonics, phases, cumulative scan), not the tables,
    # which tests/test_su2.py holds to expm(-i theta S_y)
    rng = np.random.default_rng(5)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    code = MultiRepState(HalfInt(1), 5, c / np.linalg.norm(c))          # spins 5/2, 3/2, 1/2
    p = _random_povm(code.dim, 17, 6)
    assert p.layout is None and check_identity(p) < 1e-12
    x = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 4997)])
    ph = rng.uniform(0.0, 2.0 * math.pi, x.size)
    u = rng.random(x.size)
    amp = _block_amplitudes(code, np.arccos(x), ph)
    probs = p.weights[:, None] * np.abs(p.states.conj() @ amp) ** 2
    want = np.minimum((np.cumsum(probs, axis=0) < u).sum(axis=0), p.weights.size - 1)
    got = povm._generic_sampler(code, p)(x, np.exp(1j * ph), u)
    assert np.array_equal(got, want)


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
