"""Finite decoding measurements and the Monte Carlo estimator."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinlab import povm, su2
from spinlab.codes import (AlphaFamily, MultiRepState, _block_amplitudes, alpha_code,
                           coherent_code, decoder_coefficients, minimal_sn)
from spinlab.fidelity import fidelity_quadrature, max_fidelity_rotation
from spinlab.povm import (FinitePovm, RingPovm, check_identity, octahedron_povm,
                          povm_fidelity_exact, quadrature_povm, simulate,
                          von_neumann_pair)
from spinlab.su2 import Direction, HalfInt, X_AXIS


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
    # per projection on the rings, and by the dense Gram matrix of the rows
    p = quadrature_povm(minimal_sn(nspins), nspins)
    assert check_identity(p) < 1e-10
    assert check_identity(p.rows()) < 1e-10
    assert p.ring_size * p.weights.sum() == pytest.approx(p.dim, abs=1e-10)


@pytest.mark.parametrize("nspins", [1, 2, 7, 20])
def test_quadrature_povm_rows_are_grid_decoder_states(nspins):
    # one Wigner-d column per ring times the azimuth phases gives the decoder
    # state at every grid point, and the ring guesses turn onto the grid
    sn = minimal_sn(nspins)
    p = quadrature_povm(sn, nspins)
    assert (p.sn, p.nspins, p.ring_size) == (sn, nspins, nspins + 2)
    assert p.states.shape == (nspins + 2, p.dim)
    family = MultiRepState(sn, nspins, decoder_coefficients(sn, nspins).astype(complex))
    # the oracle grid: numpy's Gauss-Legendre rings, ring-major, N + 2 azimuths each
    size = nspins + 2
    x, wx = np.polynomial.legendre.leggauss(size)
    th = np.repeat(np.arccos(x), size)
    ph = np.tile(2.0 * math.pi * np.arange(size) / size, size)
    rows = p.rows()
    assert np.max(np.abs(rows.weights - p.dim * np.repeat(wx / 2.0 / size, size))) <= 1e-14
    assert np.max(np.abs(rows.states - _block_amplitudes(family, th, ph).T)) <= 1e-14
    want = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    assert np.max(np.abs(rows.guesses - want)) <= 1e-14


def test_ring_povm_constructor_checks():
    p = quadrature_povm(HalfInt(0), 2)  # 4 rings of 4 outcomes, dimension 4
    args = (p.weights, p.states, p.guesses)
    assert isinstance(p, RingPovm) and RingPovm(HalfInt(0), 2, 3, *args).dim == 4
    with pytest.raises(ValueError, match="outcomes per ring"):
        RingPovm(HalfInt(0), 2, 2, *args)  # 2 azimuths cannot separate m = -1..1
    with pytest.raises(ValueError, match="states must have shape"):
        RingPovm(HalfInt(2), 2, 4, *args)  # a tower of dimension 3, not 4
    with pytest.raises(ValueError, match="incompatible"):
        RingPovm(HalfInt(1), 2, 4, *args)  # sn = 1/2 is not in the tower of N = 2
    unnormalised = p.states.copy()
    unnormalised[1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="states must be unit vectors"):
        RingPovm(HalfInt(0), 2, 4, p.weights, unnormalised, p.guesses)
    with pytest.raises(ValueError, match="guesses must be unit vectors"):
        RingPovm(HalfInt(0), 2, 4, p.weights, p.states, 2.0 * p.guesses)
    for arr in (p.weights, p.states, p.guesses):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("nspins", [2, 3, 8])
def test_ring_identity_check_matches_dense_gram(nspins):
    # one ring weighing 1.5 times its share breaks the identity; the check
    # per projection and the dense Gram matrix of the rows must agree
    grid = quadrature_povm(minimal_sn(nspins), nspins)
    weights = grid.weights.copy()
    weights[1] *= 1.5
    p = RingPovm(grid.sn, nspins, grid.ring_size, weights, grid.states, grid.guesses)
    ring, dense = check_identity(p), check_identity(p.rows())
    assert ring > 0.01
    assert ring == pytest.approx(dense, abs=1e-12)


def per_projection_identity(p: RingPovm) -> float:
    """check_identity of a ring POVM one projection m at a time, in complex arithmetic."""
    m = np.array([q.twice for t in range(p.nspins, p.sn.twice - 1, -2)
                  for q in su2.projections(HalfInt(t))])
    worst = 0.0
    for value in np.unique(m):
        ring = p.states[:, m == value]
        gram = (ring.T * (p.ring_size * p.weights)) @ ring.conj()
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(gram - np.eye(len(gram)))))))
    return worst


@pytest.mark.parametrize("nspins", range(1, 21))
def test_stacked_identity_check_matches_per_projection(nspins):
    grid = quadrature_povm(minimal_sn(nspins), nspins)
    assert not grid.states.imag.any()  # ring states at azimuth 0 are real
    assert abs(check_identity(grid) - per_projection_identity(grid)) <= 1e-15
    # complex ring states, and one ring off its weight so the deviation is not rounding
    rng = np.random.default_rng(nspins)
    weights = grid.weights.copy()
    weights[0] *= 1.25
    p = RingPovm(grid.sn, nspins, grid.ring_size, weights,
                 grid.states * np.exp(2j * math.pi * rng.random(grid.dim)), grid.guesses)
    want = per_projection_identity(p)
    assert want > 1e-3
    assert abs(check_identity(p) - want) <= 1e-15


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


@pytest.mark.parametrize("nspins, want", [
    (10, "0x1.eeb6527405012p-1"), (11, "0x1.f0fd6ff039ef9p-1"), (12, "0x1.f2f8bc73e311cp-1"),
    (None, "0x1.9999999999994p-1")])
def test_povm_fidelity_exact_pinned(nspins, want):
    # the grid decoders of the optimal codes and the octahedron on the d = 4
    # coherent code, as float.hex with one BLAS thread (tests/conftest.py); they
    # sit +3.1, -3.9, +7.3 and -5.6 ulp from (1 + x_max)/2 and 4/5
    if nspins is None:
        got = povm_fidelity_exact(coherent_code(4), octahedron_povm())
    else:
        code = max_fidelity_rotation(nspins)[1]
        got = povm_fidelity_exact(code, quadrature_povm(minimal_sn(nspins), nspins))
    assert got.hex() == want


def test_ring_povm_fidelity_reads_rings_not_rows(monkeypatch):
    # on the code's own tower every outcome of a ring gives its ring's value
    def refuse(self):
        raise AssertionError("a ring POVM on the code's tower wrote out its rows")
    f, code = max_fidelity_rotation(9)
    p = quadrature_povm(minimal_sn(9), 9)
    monkeypatch.setattr(RingPovm, "rows", refuse)
    assert povm_fidelity_exact(code, p) == pytest.approx(f, abs=1e-14)


@pytest.mark.parametrize("nspins", [64, 128])
def test_large_grid_fidelity_attains_the_eigen_route(nspins):
    # (N + 2)^2 outcomes against (N + 2)^2 points took 725 MB at N = 64 and
    # would take about 11 GB at N = 128; per ring and projection it is 17 MB
    f, code = max_fidelity_rotation(nspins)
    p = quadrature_povm(minimal_sn(nspins), nspins)
    tracemalloc.start()
    try:
        got = povm_fidelity_exact(code, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(f, abs=1e-13)
    assert peak < 64 * 2 ** 20


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
    for p in (ring, ring.rows()):
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


# (mean, stderr) as float.hex at seed 13, computed by whole-chunk draws and scores
# (one 131072-long array per quantity): two full chunks and a partial one, and one shot
SEEDED_HEX = {
    ("octahedron", 2 * povm._CHUNK + 17): ("0x1.995e238376b76p-1", "0x1.4eff6ac628e86p-12"),
    ("octahedron", 1): ("0x1.bac6bfd3caba6p-1", "inf"),
    ("grid N=5", 2 * povm._CHUNK + 17): ("0x1.d2884f2f731fbp-1", "0x1.9c4a1a87e6bd8p-13"),
    ("grid N=5", 1): ("0x1.fff3d11b3366cp-1", "inf"),
}


def _simulate_case(name):
    if name == "octahedron":
        return coherent_code(4), octahedron_povm()
    _, code = max_fidelity_rotation(5)
    return code, quadrature_povm(minimal_sn(5), 5)


@pytest.mark.parametrize("name, shots", list(SEEDED_HEX))
def test_simulate_seeded_values_hex_pinned(name, shots):
    # exact pins: a slip in the stream layout or the chunk sums moves them, while a
    # last-bit change in single scores need not (reading cos(theta) as x and sin(theta)
    # as sqrt((1 - x)(1 + x)) in place of their trig forms moved none of the four);
    # the octahedron takes the generic path, the grid the ring path
    mean, stderr = simulate(*_simulate_case(name), shots, 13)
    assert (mean.hex(), stderr.hex() if math.isfinite(stderr) else "inf") == SEEDED_HEX[name, shots]


def _simulate_peak(code, p, shots):
    """tracemalloc's peak, in MiB, over one simulate call."""
    tracemalloc.start()
    try:
        simulate(code, p, shots, 7)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_simulate_working_set_is_independent_of_shots():
    # draws and scores go by sub-block into buffers kept for the call; only the
    # score vector has one entry per shot of a chunk. Whole-chunk arrays peaked
    # at 13.1 and 15.1 MiB for the octahedron and 13.5 MiB for the N = 12 grid;
    # kept buffers with su2's temporaries at 5.25 and 4.28 MiB; the bounds are
    # the 4.49 and 2.96 MiB measured with numpy 2.4 on Python 3.11, plus 0.5 MiB
    octa = coherent_code(4), octahedron_povm()
    _, code = max_fidelity_rotation(12)
    grid = code, quadrature_povm(minimal_sn(12), 12)
    for case in (octa, grid):
        simulate(*case, 1000, 0)  # warm the per-process caches first
    small, large = _simulate_peak(*octa, 1 << 17), _simulate_peak(*octa, 1 << 21)
    assert abs(large - small) <= 0.5 and max(small, large) <= 5.0, (small, large)
    assert _simulate_peak(*grid, 1 << 18) <= 3.5


def _same_bits(a, b):
    """Equal shape, dtype and bytes, so NaN payloads and signed zeros count too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_half_turn_into_a_buffer_matches_the_closed_form():
    rng = np.random.default_rng(3)
    x = np.concatenate([[-1.0, 1.0, 0.0, -0.0, -1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53],
                        2.0 * rng.random(1000) - 1.0])
    want = np.sqrt((1.0 + x) / 2.0) + 1j * np.sqrt((1.0 - x) / 2.0)
    out = np.full(x.size, math.nan, dtype=complex)
    assert povm._half_turn(x, out) is out
    assert _same_bits(out, want)
    assert _same_bits(povm._half_turn(x), want)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 12, 13, 40, 41, 128, 129, 256, 257])
def test_chebyshev_rows_match_chebvander(degree):
    rng = np.random.default_rng(degree)
    x = np.concatenate([[-1.0, 1.0, 0.0, -0.0, 0.5], 2.0 * rng.random(400) - 1.0])
    out = np.full((degree + 1, x.size), math.nan)
    assert povm._chebyshev_rows(x, degree, out) is out
    assert _same_bits(out, np.ascontiguousarray(povm.chebyshev.chebvander(x, degree).T))


def test_abs_square_is_the_sum_of_squares_bit_for_bit():
    parts = [0.0, -0.0, 1e-200, -1e-170, 0.6, -0.8, 3.5, -1e150, math.inf, -math.inf]
    rng = np.random.default_rng(6)
    re = np.concatenate([np.repeat(parts, len(parts)), rng.normal(size=500)])
    im = np.concatenate([np.tile(parts, len(parts)), rng.normal(size=500)])
    z = np.empty((2, re.size // 2), dtype=complex)
    z.real = re.reshape(z.shape)
    z.imag = im.reshape(z.shape)
    want = z.real ** 2 + z.imag ** 2
    out = np.full(z.shape, math.nan)
    assert povm._abs_square(z.copy(), out) is out
    assert _same_bits(out, want)
    # a NaN amplitude still reaches the identity check, which raises
    z = np.array([[0.6, complex(0.0, math.nan)], [0.8j, 1.0]])
    probs = povm._abs_square(z, np.empty(z.shape))
    with pytest.raises(RuntimeError, match="sum to 1"):
        povm._check_total(np.sum(probs, axis=0))


def test_score_reads_cos_and_sin_of_theta_without_trig():
    # the score takes cos(theta) as the drawn x itself and sin(theta) as
    # sqrt((1 - x)(1 + x)), which lies within 2 ulp of 1, the scale of the unit
    # vector, of sin(arccos(x)); near the poles that trig form keeps no relative
    # precision (sin(arccos(-1 + 2^-52)) is 6e7 ulp off), so the square root is
    # held, in exact arithmetic, to within 1 ulp of sin(theta) itself
    rng = np.random.default_rng(12)
    x = np.concatenate([[-1.0, -1.0 + 2.0 ** -52, 0.0, 1.0 - 2.0 ** -53],
                        2.0 * rng.random(10 ** 5) - 1.0])
    sine = povm._sine(x, np.full(x.size, math.nan), np.full(x.size, math.nan))
    eps = np.finfo(float).eps
    assert np.max(np.abs(sine - np.sin(np.arccos(x)))) <= 2.0 * eps
    for value, s in zip(x[:2000].tolist(), sine[:2000].tolist()):
        square = (1 - Fraction(value)) * (1 + Fraction(value))
        ulp = Fraction(math.ulp(s))
        assert max(Fraction(s) - ulp, Fraction(0)) ** 2 <= square <= (Fraction(s) + ulp) ** 2


def _draw_inputs(shots, seed):
    """Drawn (cos(theta), e^{i phi}, u) as simulate forms them, with both poles and x = 0."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[-1.0, 1.0, 0.0], 2.0 * rng.random(shots - 3) - 1.0])
    ph = 2.0 * math.pi * rng.random(shots)
    turn = np.empty(shots, dtype=complex)
    turn.real = np.cos(ph)
    turn.imag = np.sin(ph)
    return x, turn, rng.random(shots)


# sha256 of the outcome indices drawn from _draw_inputs(5000, seed), pinned when
# the samplers still formed the half turn, harmonics, phases and Chebyshev rows
# in fresh arrays and |overlap|^2 by strided squares: the draw is unchanged
DRAW_SHA256 = {
    "octahedron": "68adce5bd3be125a0fc6ac9571af91b18e6419b72c07fa553ed55354666b4df0",
    5: "9792fbd1ee3c45a410d64e8338d996ab6816f4cf1e4148e3fdcc627424ba1e19",
    12: "a0670e8611390d1c840af4f9f5b549774f14e101dbf9ae73c87fe93a44d4b198",
}


@pytest.mark.parametrize("case, path", [("octahedron", "generic"), (5, "ring"), (5, "generic"),
                                        (12, "ring"), (12, "generic")])
def test_draws_are_pinned(case, path):
    if case == "octahedron":
        code, p, seed = coherent_code(4), octahedron_povm(), 1
    else:
        _, code = max_fidelity_rotation(case)
        p, seed = quadrature_povm(minimal_sn(case), case), case
    draw = povm._ring_sampler(code, p) if path == "ring" else povm._generic_sampler(
        code, p if case == "octahedron" else p.rows())
    draw(*_draw_inputs(6000, 99))  # the kept buffers then hold another sub-block's values
    idx = draw(*_draw_inputs(5000, seed))
    assert hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest() == DRAW_SHA256[case]


@pytest.mark.parametrize("nspins", [*range(1, 13), 20, 40])
def test_ring_path_draws_what_the_generic_path_draws(nspins, monkeypatch):
    _, code = max_fidelity_rotation(nspins)
    p = quadrature_povm(minimal_sn(nspins), nspins)
    want = simulate(code, p.rows(), 3000, nspins)
    monkeypatch.setattr(povm, "_generic_sampler", _forbidden)
    assert simulate(code, p, 3000, nspins) == want


def test_ring_path_with_complex_code_on_finer_grid(monkeypatch):
    code = alpha_code(AlphaFamily(0.6, 1.1))
    p = quadrature_povm(HalfInt(0), 2)
    want = simulate(code, p.rows(), 20_000, 4)
    monkeypatch.setattr(povm, "_generic_sampler", _forbidden)
    assert simulate(code, p, 20_000, 4) == want


@pytest.mark.parametrize("nspins", [3, 5, 8])
def test_ring_path_with_complex_codes_and_ring_states(nspins, monkeypatch):
    # a phase per tower component keeps the identity resolution but makes
    # the ring states complex, without the m <-> -m
    # symmetry of the grid decoder; with a complex multi-block code the
    # ring tables must then carry every phase exactly
    rng = np.random.default_rng(nspins)
    sn = minimal_sn(nspins)
    blocks = (nspins - sn.twice) // 2 + 1
    c = rng.normal(size=blocks) * np.exp(2j * math.pi * rng.random(blocks))
    code = MultiRepState(sn, nspins, c / np.linalg.norm(c))
    grid = quadrature_povm(sn, nspins)
    p = RingPovm(sn, nspins, grid.ring_size, grid.weights,
                 grid.states * np.exp(2j * math.pi * rng.random(grid.dim)), grid.guesses)
    want = simulate(code, p.rows(), 20_000, 2)
    monkeypatch.setattr(povm, "_generic_sampler", _forbidden)
    assert simulate(code, p, 20_000, 2) == want


def test_ring_path_needs_the_codes_own_tower(monkeypatch):
    # the two-spin grid POVM resolves the identity of any four-dimensional
    # space, but its rings are built on the tower (sn, N) = (0, 2), not on
    # that of the spin-3/2 coherent code, so the generic path samples its rows
    p = quadrature_povm(HalfInt(0), 2)
    want = simulate(coherent_code(4), p.rows(), 2000, 1)
    monkeypatch.setattr(povm, "_ring_sampler", _forbidden)
    assert simulate(coherent_code(4), p, 2000, 1) == want


def test_simulate_rejects_scaled_ring(monkeypatch):
    _, code = max_fidelity_rotation(3)
    p = quadrature_povm(minimal_sn(3), 3)
    weights = p.weights.copy()
    weights[1] *= 1.5  # all of ring 1: the rings hold, the identity does not
    scaled = RingPovm(p.sn, p.nspins, p.ring_size, weights, p.states, p.guesses)
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
    monkeypatch.setattr(povm, "_powers",
                        lambda first, step, count, out=None:
                        np.full((count, step.size), math.nan))
    with pytest.raises(RuntimeError, match="fitted probability"):
        simulate(code, p, 1000, 0)


def _random_povm(dim, count, seed):
    """A rank-one POVM from `count` random complex vectors, made to resolve
    the identity by G^(-1/2), with random unit guesses; no rings."""
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
    assert check_identity(p) < 1e-12
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
    with pytest.raises(ValueError, match="^shots must be an integer, not 10.0$"):
        simulate(code, octahedron_povm(), 10.0, 0)
    with pytest.raises(ValueError, match="^seed must be an integer, not 1.5$"):
        simulate(code, octahedron_povm(), 10, 1.5)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        simulate(code, octahedron_povm(), 10, -1)
    with pytest.raises(ValueError):
        simulate(coherent_code(2), octahedron_povm(), 10, 0)


def test_simulate_rejects_non_resolving_povm():
    pair = von_neumann_pair(X_AXIS)
    broken = FinitePovm(2, pair.weights[:1], pair.states[:1], pair.guesses[:1])
    with pytest.raises(RuntimeError):
        simulate(coherent_code(2), broken, 100, 0)
