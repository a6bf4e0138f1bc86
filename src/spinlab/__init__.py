"""Optimal direction encoding in small spin systems.

Core objects: half-integer spins and rotations (:mod:`spinlab.su2`),
encoding states across irreducible blocks (:mod:`spinlab.codes`),
fidelity optimizers and benchmarks (:mod:`spinlab.fidelity`),
measurement models with a Monte Carlo driver (:mod:`spinlab.povm`),
and average information gain (:mod:`spinlab.infogain`).
"""

from .codes import (AlphaFamily, DensityMatrix, MultiRepState, alpha_code,
                    alpha_state, code_state, coherent_code,
                    decoder_coefficients, decoder_state, matched_decoder,
                    minimal_sn, source_density, von_neumann_entropy)
from .fidelity import (asymptotic_table, build_m, fidelity_optimal,
                       fidelity_parallel, fidelity_quadrature,
                       max_fidelity_polynomial, max_fidelity_polynomials,
                       max_fidelity_rotation)
from .infogain import info_gain_closed, info_gain_quadrature, maximize_alpha
from .numerics import (bessel_j0_first_zero, gauss_legendre, largest_zero,
                       tridiag_max_eigenpair)
from .povm import (FinitePovm, RingPovm, check_identity, octahedron_povm,
                   povm_fidelity_exact, quadrature_povm, simulate,
                   von_neumann_pair)
from .su2 import (Direction, HalfInt, SpinKet, X_AXIS, Y_AXIS, Z_AXIS,
                  entanglement_entropy, overlap_sq_32, peres_generators,
                  projections, rotate_to, spin_operators, wigner_small_d)

__version__ = "0.1.0"

__all__ = [
    "AlphaFamily", "DensityMatrix", "Direction", "FinitePovm", "HalfInt",
    "MultiRepState", "RingPovm", "SpinKet", "X_AXIS", "Y_AXIS", "Z_AXIS",
    "alpha_code", "alpha_state", "asymptotic_table", "bessel_j0_first_zero",
    "build_m", "check_identity", "code_state", "coherent_code",
    "decoder_coefficients", "decoder_state", "entanglement_entropy",
    "fidelity_optimal", "fidelity_parallel", "fidelity_quadrature",
    "gauss_legendre", "info_gain_closed",
    "info_gain_quadrature", "largest_zero", "matched_decoder",
    "max_fidelity_polynomial", "max_fidelity_polynomials", "max_fidelity_rotation",
    "maximize_alpha",
    "minimal_sn", "octahedron_povm", "overlap_sq_32", "peres_generators",
    "povm_fidelity_exact", "projections", "quadrature_povm", "rotate_to",
    "simulate", "source_density", "spin_operators",
    "tridiag_max_eigenpair", "von_neumann_entropy", "von_neumann_pair",
    "wigner_small_d",
]
