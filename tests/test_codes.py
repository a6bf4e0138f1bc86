"""Code families over the irrep tower, decoders, and source statistics."""

import math

import numpy as np
import pytest

from spinlab import codes, fidelity, infogain, povm
from spinlab.codes import (AlphaFamily, DensityMatrix, MultiRepState, _block_amplitudes,
                           _exact_rings, _tower_projections, alpha_code, alpha_state,
                           code_state, coherent_code, decoder_coefficients, decoder_state,
                           matched_decoder, minimal_sn, source_density, von_neumann_entropy)
from spinlab.su2 import Direction, HalfInt, Z_AXIS, rotate_to


def test_multirep_state_validation():
    with pytest.raises(ValueError):
        MultiRepState(HalfInt(0), 2, np.array([1.0]))  # needs 2 blocks
    with pytest.raises(ValueError):
        MultiRepState(HalfInt(0), 2, np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValueError):
        MultiRepState(HalfInt(1), 2, np.array([1.0, 0.0]))  # parity mismatch
    with pytest.raises(ValueError):
        MultiRepState(HalfInt(5), 2, np.array([1.0]))  # sn > N/2
    with pytest.raises(ValueError):
        MultiRepState(HalfInt(0), 0, np.array([1.0]))
    with pytest.raises(ValueError):
        MultiRepState(HalfInt(3), 3, np.array([math.nan]))  # NaN norm


def test_multirep_state_tower_layout():
    a = MultiRepState(HalfInt(0), 4, np.array([0.6, 0.8, 0.0]))
    assert [s.twice for s in a.spins] == [4, 2, 0]
    assert a.dim == 5 + 3 + 1


def test_tower_dimension_is_the_sum_over_blocks():
    # one formula for every tower (sn, N), N <= 40, read by codes, POVMs and the gain
    for nspins in range(1, 41):
        for twice in range(nspins % 2, nspins + 1, 2):
            blocks = (nspins - twice) // 2 + 1
            code = MultiRepState(HalfInt(twice), nspins, np.ones(blocks) / math.sqrt(blocks))
            assert code.dim == sum(s.twice + 1 for s in code.spins)
            assert code.dim == _tower_projections(code.sn, nspins).size
    grid = povm.quadrature_povm(HalfInt(1), 7)
    assert grid.dim == 8 + 6 + 4 + 2 == grid.states.shape[1]


def test_minimal_sn_parity():
    assert minimal_sn(4) == HalfInt(0)
    assert minimal_sn(5) == HalfInt(1)
    with pytest.raises(ValueError):
        minimal_sn(0)


def test_coherent_code_is_single_block():
    code = coherent_code(5)
    assert code.spins == [HalfInt(4)]
    assert code.dim == 5
    assert code.sn == HalfInt(4)
    with pytest.raises(ValueError):
        coherent_code(1)


def test_alpha_code_structure():
    f = AlphaFamily(0.4, 1.1)
    code = alpha_code(f)
    assert [s.twice for s in code.spins] == [2, 0]
    assert code.coeffs[0] == pytest.approx(math.cos(0.4))
    assert code.coeffs[1] == pytest.approx(math.sin(0.4) * np.exp(1.1j))
    with pytest.raises(ValueError):
        AlphaFamily(-0.1)
    with pytest.raises(ValueError):
        AlphaFamily(math.pi)


def test_code_state_coherent_equals_rotation():
    n = Direction(1.1, 0.7)
    got = code_state(coherent_code(4), n)
    want = rotate_to(HalfInt(3), HalfInt(3), n).amps
    assert np.max(np.abs(got - want)) < 1e-14


def test_code_state_normalized_everywhere():
    code = MultiRepState(HalfInt(1), 5, np.array([0.5, 0.5, 1.0 / math.sqrt(2.0)]))
    for n in (Z_AXIS, Direction(0.3, 4.0), Direction(2.8, 1.0)):
        assert np.linalg.norm(code_state(code, n)) == pytest.approx(1.0, abs=1e-12)


def test_alpha_state_matches_code_state():
    f = AlphaFamily(1.0, 0.3)
    n = Direction(2.0, 0.9)
    assert np.array_equal(alpha_state(f, n), code_state(alpha_code(f), n))


def test_decoder_coefficients_two_spins():
    b = decoder_coefficients(HalfInt(0), 2)
    assert b == pytest.approx([math.sqrt(3.0) / 2.0, 0.5], abs=1e-15)


@pytest.mark.parametrize("nspins", range(1, 9))
def test_decoder_coefficients_formula(nspins):
    sn = minimal_sn(nspins)
    b = decoder_coefficients(sn, nspins)
    spins = [HalfInt(nspins - 2 * i) for i in range(b.size)]
    total = sum(s.twice + 1 for s in spins)
    for coeff, s in zip(b, spins):
        assert coeff == pytest.approx(math.sqrt((s.twice + 1) / total), abs=1e-15)
    assert np.sum(b * b) == pytest.approx(1.0, abs=1e-14)


def test_decoder_coefficients_validation():
    with pytest.raises(ValueError):
        decoder_coefficients(HalfInt(1), 2)
    with pytest.raises(ValueError):
        decoder_coefficients(HalfInt(0), 0)


def test_non_integer_spin_count_is_refused():
    # the tower check refuses a float N before range() or HalfInt sees it
    with pytest.raises(ValueError, match="nspins must be an integer"):
        MultiRepState(0, 2.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="nspins must be an integer"):
        decoder_coefficients(0, 2.0)
    with pytest.raises(ValueError, match="nspins must be an integer"):
        povm.quadrature_povm(0, 2.0)


@pytest.mark.parametrize("call, name", [
    (minimal_sn, "nspins"), (coherent_code, "d"), (fidelity.max_fidelity_polynomial, "nspins"),
    (fidelity.build_m, "nspins"), (fidelity.max_fidelity_rotation, "nspins"),
    (fidelity.max_fidelity_polynomials, "max_n"), (fidelity.asymptotic_table, "max_n"),
    (fidelity.fidelity_optimal, "d"), (fidelity.fidelity_parallel, "nspins"),
    (infogain.info_gain_closed, "nspins"),
], ids=lambda v: getattr(v, "__name__", v))
def test_float_count_is_refused_by_the_shared_check(call, name):
    # numerics._checked_count raises before range(), numpy or HalfInt sees the float
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not 2.0$"):
        call(2.0)


def test_decoder_state_is_weighted_tower():
    m = Direction(0.8, 5.5)
    got = decoder_state(HalfInt(0), 2, m)
    b = decoder_coefficients(HalfInt(0), 2)
    want = np.concatenate([b[0] * rotate_to(HalfInt(2), HalfInt(0), m).amps,
                           b[1] * rotate_to(HalfInt(0), HalfInt(0), m).amps])
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


def test_matched_decoder_carries_code_phases():
    coeffs = np.array([np.exp(0.7j), np.exp(-1.1j)]) / math.sqrt(2.0)
    code = MultiRepState(HalfInt(0), 2, coeffs)
    dec = matched_decoder(code)
    b = decoder_coefficients(HalfInt(0), 2)
    assert np.max(np.abs(dec.coeffs - b * np.array([np.exp(0.7j), np.exp(-1.1j)]))) < 1e-14


def test_matched_decoder_zero_amplitude_stays_real():
    code = MultiRepState(HalfInt(0), 4, np.array([0.0, 1.0, 0.0], dtype=complex))
    dec = matched_decoder(code)
    assert np.max(np.abs(dec.coeffs.imag)) == 0.0
    assert np.all(dec.coeffs.real > 0.0)


def exact_grid(code):
    """(weights, states, unit vectors) at every point of the code's exact grid:
    the rings of _exact_rings turned to each azimuth as RingPovm.rows() turns
    a grid POVM's rings."""
    size, w, states, vecs = _exact_rings(code)
    rows = povm.RingPovm(code.sn, code.nspins, size, w, states, vecs).rows()
    return rows.weights, rows.states, rows.guesses


LONG_PI = np.arccos(np.longdouble(-1.0))


def long_ring_rows(sn, nspins, size, weights, states, vecs):
    """(weights, states, guesses) of RingPovm(sn, nspins, size, weights, states,
    vecs).rows(), from the same float64 rings but in long double: the turns'
    phases e^{-i m phi} and rotations round at long-double precision."""
    phis = 2.0 * LONG_PI * np.arange(size) / size
    phases = np.exp(-1j * np.multiply.outer(phis, _tower_projections(sn, nspins)))
    turned = states.astype(np.clongdouble)[:, None, :] * phases
    (x, y, z), c, s = vecs.T[:, :, None], np.cos(phis), np.sin(phis)
    guesses = np.stack([x * c - y * s, x * s + y * c, z.repeat(size, 1)], axis=2)
    return (np.repeat(weights, size).astype(np.longdouble), turned.reshape(-1, states.shape[1]),
            guesses.reshape(-1, 3))


def row_expansion_fidelity(code, weights, states, guesses):
    """sum_k w_k |<s_k|A(n)>|^2 (1 + n.g_k)/2 summed over every point n of the code's
    exact grid: the (K, (N + 2)^2) form of the decoded fidelity, kept as its reference.
    Summed in long double from the float64 inputs, grid rings included, so that its
    own rounding sits far below the float64 ulp of the program's value."""
    w, points, dirs = long_ring_rows(code.sn, code.nspins, *_exact_rings(code))
    overlaps = np.einsum("kd,nd->kn", np.asarray(states, np.clongdouble).conj(), points)
    prob = overlaps.real ** 2 + overlaps.imag ** 2
    score = (1.0 + np.einsum("ki,ni->kn", np.asarray(guesses, np.longdouble), dirs)) / 2.0
    return float(np.sum(np.asarray(weights, np.longdouble)[:, None] * prob * score * w))


def leggauss_grid(nspins):
    """(weights, thetas, phis) of N + 2 Gauss-Legendre rings of N + 2 azimuths,
    built from numpy alone, ring-major."""
    size = nspins + 2
    x, wx = np.polynomial.legendre.leggauss(size)
    phis = 2.0 * math.pi * np.arange(size) / size
    return (np.repeat(wx / 2.0 / size, size), np.repeat(np.arccos(x), size),
            np.tile(phis, size))


def test_sphere_grid_weights_and_exactness():
    # N = 4: 6 polar rings of 6 azimuths, weights summing to 1
    w, _, vecs = exact_grid(coherent_code(5))
    assert w.size == vecs.shape[0] == 36
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    x, y, z = vecs.T
    # moments of cos(theta): 0 for odd k, 1/(k+1) for even k, exact to degree 11
    for k in range(12):
        want = 0.0 if k % 2 else 1.0 / (k + 1)
        assert float(np.sum(w * z ** k)) == pytest.approx(want, abs=1e-14)
    # sin^m(theta) e^{i m phi} averages to zero for 0 < m < 6 azimuths
    for m in range(1, 6):
        assert abs(np.sum(w * (x + 1j * y) ** m)) < 1e-14


def test_grid_unit_vectors():
    # ring j at azimuth 0 is (sin theta_j, 0, cos theta_j); its points turn about z
    size, _, _, rings = _exact_rings(coherent_code(4))
    _, th, ph = leggauss_grid(3)
    assert np.max(np.abs(rings[:, 2] - np.cos(th[::size]))) < 1e-15
    assert np.all(rings[:, 0] >= 0.0) and np.all(rings[:, 1] == 0.0)
    _, _, vecs = exact_grid(coherent_code(4))
    assert vecs.shape == (25, 3)
    assert np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) < 1e-14
    for k in (0, 7, 24):
        assert np.max(np.abs(vecs[k] - Direction(th[k], ph[k]).unit_vector)) < 1e-14


def block_average_oracle(code):
    """Independent source-density prediction: the direction average projects
    each irrep block to |A_S|^2 / (2S+1) times its identity."""
    out = np.zeros((code.dim, code.dim), dtype=complex)
    row = 0
    for coeff, s in zip(code.coeffs, code.spins):
        d = s.twice + 1
        out[row:row + d, row:row + d] = (abs(coeff) ** 2 / d) * np.eye(d)
        row += d
    return out


def random_code(nspins, seed):
    """Seeded complex coefficients over the whole tower of N spins."""
    sn = minimal_sn(nspins)
    blocks = (nspins - sn.twice) // 2 + 1
    c = np.array([1.0, 1.0j]) @ np.random.default_rng(seed).normal(size=(2, blocks))
    return MultiRepState(sn, nspins, c / np.linalg.norm(c))


@pytest.mark.parametrize("code", [
    coherent_code(2),
    coherent_code(3),
    coherent_code(4),
    alpha_code(AlphaFamily(math.pi / 4.0)),
    alpha_code(AlphaFamily(0.9, 2.1)),
    MultiRepState(HalfInt(1), 3, np.array([0.6, 0.8j])),
    random_code(9, 9),
    fidelity.max_fidelity_rotation(12)[1],
])
def test_source_density_matches_block_average(code):
    rho = source_density(code)
    assert np.max(np.abs(rho.matrix - block_average_oracle(code))) < 1e-13


def test_source_density_builds_no_grid_rows(monkeypatch):
    # one block per projection m: no (N + 2)^2 x D rows, and exact zeros
    # between components of different m
    def refuse(*args):
        raise AssertionError("source_density took the decoded-fidelity path")
    monkeypatch.setattr(codes, "_decoded_fidelity", refuse)
    code = fidelity.max_fidelity_rotation(12)[1]
    rho = source_density(code).matrix
    m = _tower_projections(code.sn, code.nspins)
    assert np.all(rho[np.not_equal.outer(m, m)] == 0.0)
    assert np.max(np.abs(rho - block_average_oracle(code))) < 1e-13


@pytest.mark.parametrize("code", [random_code(9, 9), random_code(8, 4),
                                  MultiRepState(HalfInt(1), 3, np.array([0.6, 0.8j]))])
def test_exact_sphere_rows_are_per_point_states(code):
    # the oracle grid comes from numpy's Gauss-Legendre rule, not from spinlab
    w, states, vecs = exact_grid(code)
    size = code.nspins + 2
    assert w.shape == (size * size,) and states.shape == (size * size, code.dim)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
    gw, th, ph = leggauss_grid(code.nspins)
    assert np.max(np.abs(w - gw)) <= 1e-16
    want = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    assert np.max(np.abs(vecs - want)) <= 1e-14
    assert np.max(np.abs(states - _block_amplitudes(code, th, ph).T)) <= 1e-14


def test_ring_rows_turn_states_and_vectors_about_z():
    # spins 3/2 and 1/2: outcome j P + l is ring j rotated by exp(-i phi_l J_z)
    rng = np.random.default_rng(3)
    states = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    states /= np.linalg.norm(states, axis=1)[:, None]
    vecs = rng.normal(size=(4, 3))  # off the xz plane, unlike grid rings
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    rows = povm.RingPovm(HalfInt(1), 3, 5, rng.random(4) + 0.5, states, vecs).rows()
    m = np.array([1.5, 0.5, -0.5, -1.5, 0.5, -0.5])
    for j in range(4):
        for l in range(5):
            phi = 2.0 * math.pi * l / 5
            c, s = math.cos(phi), math.sin(phi)
            turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            assert np.allclose(rows.states[5 * j + l], states[j] * np.exp(-1j * m * phi),
                               rtol=0.0, atol=1e-14)
            assert np.allclose(rows.guesses[5 * j + l], turn @ vecs[j], rtol=0.0, atol=1e-14)


def assert_within_ulps(got, want, ulps=4):
    assert abs(got - want) <= ulps * np.spacing(want), (got.hex(), want.hex())


def reference_fidelity(code, p):
    """row_expansion_fidelity of a POVM, with a RingPovm's outcomes written out."""
    if isinstance(p, povm.RingPovm):
        return row_expansion_fidelity(code, *long_ring_rows(p.sn, p.nspins, p.ring_size,
                                                            p.weights, p.states, p.guesses))
    return row_expansion_fidelity(code, p.weights, p.states, p.guesses)


@pytest.mark.parametrize("nspins", [*range(1, 21), 33])
def test_grid_fidelity_per_projection_matches_row_expansion(nspins):
    code = fidelity.max_fidelity_rotation(nspins)[1]
    p = povm.quadrature_povm(minimal_sn(nspins), nspins)
    assert_within_ulps(povm.povm_fidelity_exact(code, p), reference_fidelity(code, p))


def scarce_ring_povm(nspins):
    """The grid POVM of N spins with the fewest outcomes per ring, P = N + 1."""
    grid = povm.quadrature_povm(minimal_sn(nspins), nspins)
    size = nspins + 1
    return povm.RingPovm(grid.sn, nspins, size, grid.weights * grid.ring_size / size,
                         grid.states, grid.guesses)


def phased_ring_povm(nspins, seed):
    """The grid POVM of N spins with a seeded phase on each tower component: complex
    ring states, still resolving the identity."""
    grid = povm.quadrature_povm(minimal_sn(nspins), nspins)
    phases = np.exp(2j * math.pi * np.random.default_rng(seed).random(grid.dim))
    return povm.RingPovm(grid.sn, nspins, grid.ring_size, grid.weights, grid.states * phases,
                         grid.guesses)


@pytest.mark.parametrize("code, make_povm", [
    (coherent_code(4), povm.octahedron_povm),
    (coherent_code(2), lambda: povm.von_neumann_pair(Direction(1.1, 2.3))),
    (fidelity.max_fidelity_rotation(3)[1], lambda: scarce_ring_povm(3)),
    (fidelity.max_fidelity_rotation(6)[1], lambda: scarce_ring_povm(6)),
    (random_code(9, 2), lambda: scarce_ring_povm(9)),
    (random_code(8, 5), lambda: phased_ring_povm(8, 5)),
    # a grid POVM on the tower (0, 2) decoding the spin-3/2 code: through its rows
    (coherent_code(4), lambda: povm.quadrature_povm(HalfInt(0), 2)),
], ids=["octahedron", "von-neumann-pair", "ring-n3-p4", "ring-n6-p7", "ring-n9-p10",
        "ring-n8-phased", "other-tower"])
def test_povm_fidelity_per_projection_matches_row_expansion(code, make_povm):
    p = make_povm()
    assert_within_ulps(povm.povm_fidelity_exact(code, p), reference_fidelity(code, p))


@pytest.mark.parametrize("nspins, seed", [(4, 1), (8, 2), (21, 3)])
def test_off_axis_fidelity_per_projection_matches_row_expansion(nspins, seed):
    code = random_code(nspins, seed)
    decoder = matched_decoder(code)
    for m in (Direction(1.1, 2.3), Direction(2.5, 0.3)):
        want = row_expansion_fidelity(code, np.array([float(code.dim)]),
                                      code_state(decoder, m)[None, :], m.unit_vector[None, :])
        assert_within_ulps(fidelity.fidelity_quadrature(code, decoder_direction=m), want)


@pytest.mark.parametrize("average", [
    lambda **kw: source_density(coherent_code(4), **kw),
    lambda **kw: fidelity.fidelity_quadrature(coherent_code(4), **kw),
    lambda **kw: povm.quadrature_povm(HalfInt(0), 2, **kw),
    lambda **kw: povm.povm_fidelity_exact(coherent_code(4), povm.octahedron_povm(), **kw),
])
def test_sphere_averages_take_no_grid_sizes(average):
    for knob in ("theta_order", "phi_count"):
        with pytest.raises(TypeError):
            average(**{knob: 9})


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.0, 1.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([2.0, -1.0]))  # negative eigenvalue
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[math.nan, 0.0], [0.0, 0.5]]))


def test_von_neumann_entropy_reference_points():
    pure = np.zeros((3, 3))
    pure[0, 0] = 1.0
    assert von_neumann_entropy(DensityMatrix(pure)) == 0.0
    mixed = np.eye(5) / 5.0
    assert von_neumann_entropy(DensityMatrix(mixed)) == pytest.approx(math.log2(5.0), abs=1e-12)


def test_source_entropy_solves_one_spectrum(monkeypatch):
    # the entropy reads the eigenvalues of DensityMatrix's positive
    # semidefinite check instead of solving the D x D matrix again; one
    # build beforehand caches the grid's Gauss-Legendre rule, itself an eigvalsh
    code = fidelity.max_fidelity_rotation(12)[1]
    source_density(code)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    entropy = von_neumann_entropy(source_density(code))
    assert calls == [(code.dim, code.dim)]
    vals = eigvalsh(source_density(code).matrix)
    assert entropy == -sum(v * math.log2(v) for v in vals.tolist() if v > 1e-15)


def test_source_entropies_of_reference_codes():
    assert von_neumann_entropy(source_density(coherent_code(2))) == pytest.approx(1.0, abs=1e-8)
    assert von_neumann_entropy(source_density(coherent_code(3))) == pytest.approx(
        math.log2(3.0), abs=1e-8)
    assert von_neumann_entropy(source_density(coherent_code(4))) == pytest.approx(2.0, abs=1e-8)
    split = source_density(alpha_code(AlphaFamily(math.pi / 4.0)))
    assert np.allclose(np.diag(split.matrix).real, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-13)
    assert von_neumann_entropy(split) == pytest.approx(1.0 + 0.5 * math.log2(3.0), abs=1e-8)
