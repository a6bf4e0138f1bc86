"""Average information gain: closed form, quadrature, and the alpha peak."""

import decimal
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import eval_jacobi

from spinlab import infogain, su2
from spinlab.codes import (AlphaFamily, MultiRepState, _axial_coefficients, _axial_overlap,
                           _block_sum, alpha_code, coherent_code, matched_decoder, minimal_sn)
from spinlab.fidelity import max_fidelity_rotation
from spinlab.infogain import (_fit_tables, _gains, info_gain_closed, info_gain_quadrature,
                              maximize_alpha, scan_alpha)
from spinlab.su2 import HalfInt

LOG2E = 1.0 / math.log(2.0)


@pytest.mark.parametrize("twice_sn", [0, 1, 40])
def test_fit_table_jacobi_rows_match_scipy(twice_sn):
    # the recurrence rows P^(0,2sn)_{B-1}, ..., P_0 at the B Chebyshev nodes,
    # each within 1e-11 of its largest value (3.3e-12 measured, at B = 501)
    for blocks in [*range(1, 40), 64, 100, 255, 501]:
        jacobi, vander = _fit_tables(blocks, twice_sn)
        nodes = chebyshev.chebpts1(blocks)
        want = eval_jacobi(np.arange(blocks - 1, -1, -1)[:, None], 0.0, twice_sn, nodes)
        assert jacobi.shape == want.shape == (blocks, blocks)
        err = np.max(np.abs(jacobi - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.max(err) < 1e-11, blocks
        assert not jacobi.flags.writeable and not vander.flags.writeable


def decimal_jacobi_rows(blocks, twice_sn):
    """P^(0,2sn)_{B-1}, ..., P_0 at the B Chebyshev nodes by the three-term recurrence
    in 50-digit decimal arithmetic, rounded to float at the end."""
    b = twice_sn
    with decimal.localcontext(decimal.Context(prec=50)):
        x = np.array([decimal.Decimal(v) for v in chebyshev.chebpts1(blocks).tolist()],
                     dtype=object)
        rows = [np.full(blocks, decimal.Decimal(1), dtype=object), ((b + 2) * x - b) / 2]
        for n in range(2, blocks):
            c = 2 * n + b
            rows.append(((c - 1) * (c * (c - 2) * x - b * b) * rows[-1]
                         - 2 * (n - 1) * (n + b - 1) * c * rows[-2]) / (2 * n * (n + b) * (c - 2)))
        return np.array(rows[blocks - 1::-1], dtype=float)


@pytest.mark.parametrize("blocks,twice_sn", [(501, 0), (501, 1), (201, 40)])
def test_fit_table_rows_match_high_precision_recurrence(blocks, twice_sn):
    # error per entry, scaled by max(|P|, 1): 1.2e-13, 6.8e-12 and 4.0e-12 measured
    want = decimal_jacobi_rows(blocks, twice_sn)
    err = np.abs(_fit_tables(blocks, twice_sn)[0] - want) / np.maximum(np.abs(want), 1.0)
    assert np.max(err) < 1e-11


@pytest.mark.parametrize("nspins", [200, 1000])
def test_large_n_gain_within_tolerance_of_scipy_jacobi_rows(nspins, monkeypatch):
    # the gain's tolerance past the closed forms: the fit amplifies the rows'
    # rounding, and scipy's rows (off by up to 2.2e-12 at B = 501) move the
    # optimal code's gain by 55 ulp at N = 200 and 2.0e-11 at N = 1000
    _, code = max_fidelity_rotation(nspins)
    got = info_gain_quadrature(code)

    def scipy_tables(blocks, twice_sn):
        nodes = chebyshev.chebpts1(blocks)
        jacobi = eval_jacobi(np.arange(blocks - 1, -1, -1)[:, None], 0.0, twice_sn, nodes)
        return jacobi, _fit_tables(blocks, twice_sn)[1]

    monkeypatch.setattr(infogain, "_fit_tables", scipy_tables)
    assert abs(info_gain_quadrature(code) - got) <= 1e-10


def test_info_gain_closed_formula():
    assert info_gain_closed(1) == pytest.approx(1.0 - LOG2E / 2.0, abs=1e-15)
    assert info_gain_closed(2) == pytest.approx(2.0 - 0.75 * LOG2E, abs=1e-15)
    assert info_gain_closed(3) == pytest.approx(3.0 - 0.875 * LOG2E, abs=1e-15)
    # approaches N - log2(e) from above, excess 2^-N log2(e)
    excess = info_gain_closed(20) - (20.0 - LOG2E)
    assert excess == pytest.approx(LOG2E / 2.0 ** 20, rel=1e-12)
    with pytest.raises(ValueError):
        info_gain_closed(0)


def test_info_gain_closed_printed_digits():
    assert info_gain_closed(2) == pytest.approx(0.9180, abs=5e-5)


@pytest.mark.parametrize("nspins", [1, 2, 3, 7])
def test_quadrature_matches_closed_form(nspins):
    got = info_gain_quadrature(coherent_code(2 ** nspins))
    assert got == pytest.approx(info_gain_closed(nspins), abs=1e-12)
    # and every smaller coherent dimension: log2(d) - (1 - 1/d) log2(e)
    for d in range(2, 2 ** nspins):
        want = math.log2(d) - (1.0 - 1.0 / d) * LOG2E
        assert info_gain_quadrature(coherent_code(d)) == pytest.approx(want, abs=1e-12), d


def alpha_gain_oracle(alpha):
    """Scalar-integral evaluation of the two-spin family's gain.

    With the phase-matched decoder the density is
    q(c) = 4 (sqrt(3)/2 cos(a) c + sin(a)/2)^2, azimuth-free, so the gain
    reduces to a 1-d integral handled by adaptive quadrature split at the
    interior zero of q.
    """

    def q(c):
        return 4.0 * (math.sqrt(3.0) / 2.0 * math.cos(alpha) * c
                      + math.sin(alpha) / 2.0) ** 2

    def integrand(c):
        val = q(c)
        return 0.0 if val <= 0.0 else 0.5 * val * math.log2(val)

    points = []
    if math.cos(alpha) > 1e-12:
        zero = -math.tan(alpha) / math.sqrt(3.0)
        if -1.0 < zero < 1.0:
            points = [zero]
    val, _ = quad(integrand, -1.0, 1.0, points=points or None, limit=200)
    return val


@pytest.mark.parametrize("alpha", [0.3, math.pi / 4.0, 0.7, 1.2])
def test_quadrature_matches_scalar_integral_oracle(alpha):
    got = info_gain_quadrature(alpha_code(AlphaFamily(alpha)))
    assert got == pytest.approx(alpha_gain_oracle(alpha), abs=1e-7)


def two_spin_closed_form(alpha):
    """Closed-form gain of the two-spin family.

    The density is q(x) = (a x + b)^2 with a = sqrt(3) cos(alpha) and
    b = sin(alpha), so the gain (1/2) int q log2(q) dx is
    [F(b + a) - F(b - a)] / (a ln 2) with F(u) = u^3 ln|u| / 3 - u^3 / 9.
    Below a = 1e-3 that difference cancels, and the series
    2 log2(e) [b^2 ln b + a^2 (2 ln b + 3) / 6] is used instead; its first
    dropped term, -2 log2(e) a^4 / (60 b^2), is below 1e-13 there.
    """
    a, b = math.sqrt(3.0) * math.cos(alpha), math.sin(alpha)
    if a < 1e-3:
        return 2.0 * LOG2E * (b * b * math.log(b) + a * a * (2.0 * math.log(b) + 3.0) / 6.0)

    def F(u):
        return u ** 3 * (math.log(abs(u)) / 3.0 - 1.0 / 9.0) if u != 0.0 else 0.0

    return (F(b + a) - F(b - a)) / (a * math.log(2.0))


def test_two_spin_family_matches_closed_form():
    # 0.29908 and pi/18 were missed by the old adaptive rule by 7.9e-6 and 1.3e-7
    edges = [0.0, math.pi / 18.0, 0.29908, math.pi / 2.0]
    alphas = edges + list(np.random.default_rng(20240607).uniform(0.0, math.pi / 2.0, 1000))
    errors = [abs(info_gain_quadrature(alpha_code(AlphaFamily(float(a))))
                  - two_spin_closed_form(a)) for a in alphas]
    worst = int(np.argmax(errors))
    assert errors[worst] <= 1e-12, (alphas[worst], errors[worst])


def adaptive_gain(code, decoder):
    """scipy.integrate.quad of the gain, with a break point at each local
    minimum of |overlap| (a kink of q log q where the overlap vanishes).

    Shares only the density with info_gain_quadrature: the minima come from
    a 4001-point scan refined by bounded Brent search.
    """

    def magnitude(x):
        return abs(_axial_overlap(code, decoder, np.arccos(np.array([x])))[0])

    grid = np.linspace(-1.0, 1.0, 4001)
    mags = np.abs(_axial_overlap(code, decoder, np.arccos(grid)))
    minima = np.flatnonzero((mags[1:-1] <= mags[:-2]) & (mags[1:-1] <= mags[2:])) + 1
    points = [minimize_scalar(magnitude, bounds=(grid[i - 1], grid[i + 1]), method="bounded",
                              options={"xatol": 1e-15}).x for i in minima]

    def integrand(x):
        q = code.dim * magnitude(x) ** 2
        return 0.5 * q * math.log2(q) if q > 0.0 else 0.0

    value, _ = quad(integrand, -1.0, 1.0, points=points or None, limit=1000,
                    epsabs=1e-14, epsrel=1e-14)
    return value


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("nspins", [3, 8, 21, 40])
def test_optimal_codes_match_adaptive_quadrature(nspins):
    _, code = max_fidelity_rotation(nspins)
    got = info_gain_quadrature(code)
    assert got == pytest.approx(adaptive_gain(code, matched_decoder(code)), abs=1e-12)


def seeded_code(nspins, twice_sn, seed):
    """Seeded complex coefficients over the tower (sn, N)."""
    blocks = (nspins - twice_sn) // 2 + 1
    coeffs = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, blocks))
    return MultiRepState(HalfInt(twice_sn), nspins, coeffs / np.linalg.norm(coeffs))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("nspins, twice_sn", [(30, 20), (61, 41)])
def test_large_sn_codes_match_adaptive_quadrature(nspins, twice_sn):
    # several blocks at large sn: sampling r as p / ((1+x)/2)^sn would divide p's rounding
    # errors by 2e-18 (N = 30) or 1e-47 (N = 61) at the node nearest -1 and misplace the cuts
    code = seeded_code(nspins, twice_sn, nspins)
    got = info_gain_quadrature(code)
    assert got == pytest.approx(adaptive_gain(code, matched_decoder(code)), abs=1e-12)


def mismatched_decoder(code, seed):
    """The matched decoder of code with a seeded phase on each block."""
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, code.coeffs.size))
    return MultiRepState(code.sn, code.nspins, matched_decoder(code).coeffs * phases)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_phase_mismatched_decoder_matches_adaptive_quadrature():
    # the overlap is complex and its roots leave the real axis; the same rule applies
    _, code = max_fidelity_rotation(5)
    decoder = mismatched_decoder(code, 5)
    got = info_gain_quadrature(code, decoder=decoder)
    assert got == pytest.approx(adaptive_gain(code, decoder), abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, float(np.random.default_rng(18).uniform(0.0, 2.0 * math.pi))])
def test_scan_alpha_rows_equal_single_calls(beta):
    alphas, gains = scan_alpha(beta)
    assert len(gains) == alphas.size == 64
    for alpha, gain in zip(alphas, gains):
        single = info_gain_quadrature(alpha_code(AlphaFamily(float(alpha), beta)))
        assert gain == single, (alpha, gain.hex(), single.hex())


def kernel_rows(pairs):
    """_gains of (code, decoder) pairs on one tower, as one K-row call."""
    code = pairs[0][0]
    return _gains(code.sn, code.nspins, np.stack([c.coeffs for c, _ in pairs]),
                  np.stack([d.coeffs for _, d in pairs]))


@pytest.mark.parametrize("pairs", [
    # real and complex rows together on the optimal N = 8 code's tower; the last has
    # fewer pieces than the first, and summed zero-padded its gain would move by an ulp
    lambda: [(c, matched_decoder(c)) for c in (max_fidelity_rotation(8)[1], seeded_code(8, 0, 1),
                                                seeded_code(8, 0, 11))],
    lambda: [(c, matched_decoder(c)) for c in (seeded_code(30, 20, 30), seeded_code(30, 20, 3))],
    lambda: [(c, matched_decoder(c)) for c in (seeded_code(61, 41, 61), seeded_code(61, 41, 4))],
    lambda: [(max_fidelity_rotation(5)[1], mismatched_decoder(max_fidelity_rotation(5)[1], 5)),
             (max_fidelity_rotation(5)[1], matched_decoder(max_fidelity_rotation(5)[1])),
             (seeded_code(5, 1, 6), mismatched_decoder(seeded_code(5, 1, 6), 7))],
], ids=["optimal-n8", "tower-30-20", "tower-61-41", "mismatched-n5"])
def test_kernel_rows_equal_single_calls(pairs):
    # a row's gain does not depend on the other rows, whatever its pieces or its realness
    pairs = pairs()
    rows = kernel_rows(pairs)
    singles = [info_gain_quadrature(code, decoder=decoder) for code, decoder in pairs]
    assert rows.tolist() == singles
    assert rows.tolist()[::-1] == kernel_rows(pairs[::-1]).tolist()


def test_kernel_names_the_row_that_fails_the_mass_check():
    code = alpha_code(AlphaFamily(math.pi / 4.0))
    lopsided = MultiRepState(HalfInt(0), 2, np.array([1.0 + 0.0j, 0.0]))
    pairs = [(code, matched_decoder(code)), (code, lopsided), (code, matched_decoder(code))]
    with pytest.raises(RuntimeError, match="^row 1: outcome density integrates to"):
        kernel_rows(pairs)


def loop_axial_coefficients(sn, nspins, products):
    """The tower's cosine series summed block by block, as a loop from zeros adds it."""
    coef = np.zeros((products.shape[0], nspins // 2 + 1), dtype=complex)
    for i, twice in enumerate(range(nspins, sn.twice - 1, -2)):
        c = su2._d_diagonal_cosines(twice, sn.twice)
        coef[:, :c.size] += products[:, i, None] * c
    return coef


def loop_samples(products, jacobi):
    """r at the Chebyshev nodes summed block by block, as a loop from zeros adds it."""
    samples = np.zeros(products.shape, dtype=complex)
    for i in range(products.shape[1]):
        samples += products[:, i, None] * jacobi[i]
    return samples


def hexes(values):
    return [float.hex(v) for v in values.view(float).ravel().tolist()]


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_block_sums_add_in_block_order(rows, kind):
    # the ordered reductions equal the per-block loops bit for bit, signed zeros included;
    # summed in reverse or pairwise they do not
    towers = [(n, minimal_sn(n).twice) for n in range(1, 41)]
    towers += [(101, 1), (200, 0), (201, 1), (61, 41), (30, 20)]
    rng = np.random.default_rng(rows)
    for nspins, twice_sn in towers:
        sn, blocks = HalfInt(twice_sn), (nspins - twice_sn) // 2 + 1
        products = rng.normal(size=(rows, blocks)) + 0j
        if kind == "complex":
            products.imag = rng.normal(size=(rows, blocks))
        products[:, ::3] *= -0.0  # signed zeros, as an empty block's product may be
        want = loop_axial_coefficients(sn, nspins, products)
        assert hexes(_axial_coefficients(sn, nspins, products)) == hexes(want), (nspins, twice_sn)
        if blocks > 1:
            jacobi = infogain._fit_tables(blocks, twice_sn)[0]
            got = _block_sum(products, jacobi)  # the samples of r in _gains
            assert hexes(got) == hexes(loop_samples(products, jacobi)), (nspins, twice_sn)


def test_alpha_quarter_pi_value():
    got = info_gain_quadrature(alpha_code(AlphaFamily(math.pi / 4.0)))
    assert got == pytest.approx(0.8664, abs=5e-5)
    assert got == pytest.approx(0.86644897, abs=1e-6)


def test_info_gain_beta_independent():
    vals = [info_gain_quadrature(alpha_code(AlphaFamily(math.pi / 4.0, b)))
            for b in (0.0, 1.3, math.pi, 5.0)]
    assert max(vals) - min(vals) < 1e-10


def test_info_gain_decoder_contracts():
    code = alpha_code(AlphaFamily(math.pi / 4.0))
    with pytest.raises(ValueError):
        info_gain_quadrature(code, decoder=coherent_code(4))
    # a same-tower decoder that fails to resolve the identity is rejected
    lopsided = MultiRepState(HalfInt(0), 2, np.array([1.0 + 0.0j, 0.0]))
    with pytest.raises(RuntimeError):
        info_gain_quadrature(code, decoder=lopsided)


def test_maximize_alpha_location_and_value():
    best, gain = maximize_alpha()
    assert best / math.pi == pytest.approx(0.2317, abs=1e-3)
    assert gain == pytest.approx(0.8729, abs=5e-4)
    # the peak beats both the coherent point and the pi/4 family member
    assert gain > info_gain_quadrature(alpha_code(AlphaFamily(math.pi / 4.0)))
    assert gain > info_gain_quadrature(alpha_code(AlphaFamily(best + 0.02)))
    assert gain > info_gain_quadrature(alpha_code(AlphaFamily(best - 0.02)))


def one_point_golden_section(alphas, gains, beta):
    """refine_alpha's golden-section search as one info_gain_quadrature call per point."""
    def gain(alpha):
        return info_gain_quadrature(alpha_code(AlphaFamily(alpha, beta)))

    peak = int(np.argmax(gains))
    a, b = float(alphas[peak - 1]), float(alphas[peak + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    gc, gd = gain(c), gain(d)
    while b - a > 1e-6:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = gain(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = gain(d)
    best = 0.5 * (a + b)
    return best, gain(best)


SEEDED_BETAS = np.random.default_rng(28).uniform(0.0, 2.0 * math.pi, 10).tolist()


def own_scan(alphas, beta):
    return alphas, [info_gain_quadrature(alpha_code(AlphaFamily(float(a), beta))) for a in alphas]


@pytest.mark.parametrize("scan, beta", [
    *[(scan_alpha, beta) for beta in [0.0] + SEEDED_BETAS],
    # coarser and uneven scans: other brackets, so the search stops at other depths
    *[(lambda beta, n=n: own_scan(np.linspace(0.0, math.pi / 2.0, n), beta), beta)
      for n in (9, 17, 33) for beta in (0.0, SEEDED_BETAS[0])],
    (lambda beta: own_scan(np.sort(np.random.default_rng(5).uniform(0.0, math.pi / 2.0, 20)), beta),
     SEEDED_BETAS[1]),
], ids=[f"scan64-beta{i}" for i in range(11)]
    + [f"linspace{n}-beta{i}" for n in (9, 17, 33) for i in (0, 1)] + ["uneven20"])
def test_refine_alpha_equals_one_point_search(scan, beta):
    # the lookahead batches read the same gains as evaluating each point on its own
    alphas, gains = scan(beta)
    got = infogain.refine_alpha(alphas, gains, beta=beta)
    want = one_point_golden_section(alphas, gains, beta)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_refine_alpha_needs_an_interior_peak_inside_the_family():
    alphas = np.linspace(0.0, math.pi / 2.0, 9)
    for gains in (np.arange(9.0), -np.arange(9.0)):
        with pytest.raises(RuntimeError, match="no interior maximum bracketed by the scan"):
            infogain.refine_alpha(alphas, gains.tolist())
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, pi/2\]"):
        infogain.refine_alpha(alphas + 0.5, [0.0] * 7 + [1.0, 0.0])  # bracket ends past pi/2
    # malformed scans, each of which once returned a wrong peak without a word
    peaked = [0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0]
    with pytest.raises(ValueError, match="alphas must be strictly increasing"):
        infogain.refine_alpha(alphas[::-1], peaked[::-1])
    with pytest.raises(ValueError, match="alphas must be strictly increasing"):
        infogain.refine_alpha(np.repeat(alphas[:5], 2)[:9], peaked)
    with pytest.raises(ValueError, match="gains must be finite"):
        infogain.refine_alpha(alphas, peaked[:5] + [math.nan] + peaked[6:])
    with pytest.raises(ValueError, match="need one gain per alpha"):
        infogain.refine_alpha(alphas, peaked[:-1])
