"""Average information gain: closed form, quadrature, and the alpha peak."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from spinlab.codes import (AlphaFamily, MultiRepState, _axial_overlap, alpha_code,
                           coherent_code, matched_decoder)
from spinlab.fidelity import max_fidelity_rotation
from spinlab.infogain import info_gain_closed, info_gain_quadrature, maximize_alpha
from spinlab.su2 import HalfInt

LOG2E = 1.0 / math.log(2.0)


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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("nspins, twice_sn", [(30, 20), (61, 41)])
def test_large_sn_codes_match_adaptive_quadrature(nspins, twice_sn):
    # several blocks at large sn: sampling r as p / ((1+x)/2)^sn would divide p's rounding
    # errors by 2e-18 (N = 30) or 1e-47 (N = 61) at the node nearest -1 and misplace the cuts
    blocks = (nspins - twice_sn) // 2 + 1
    coeffs = np.array([1.0, 1j]) @ np.random.default_rng(nspins).normal(size=(2, blocks))
    code = MultiRepState(HalfInt(twice_sn), nspins, coeffs / np.linalg.norm(coeffs))
    got = info_gain_quadrature(code)
    assert got == pytest.approx(adaptive_gain(code, matched_decoder(code)), abs=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_phase_mismatched_decoder_matches_adaptive_quadrature():
    # the overlap is complex and its roots leave the real axis; the same rule applies
    _, code = max_fidelity_rotation(5)
    matched = matched_decoder(code)
    phases = np.exp(1j * np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, code.coeffs.size))
    decoder = MultiRepState(code.sn, code.nspins, matched.coeffs * phases)
    got = info_gain_quadrature(code, decoder=decoder)
    assert got == pytest.approx(adaptive_gain(code, decoder), abs=1e-12)


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


def test_maximize_alpha_validation():
    with pytest.raises(ValueError):
        maximize_alpha(tol=0.0)
    with pytest.raises(ValueError):
        maximize_alpha(tol=1e-3)
