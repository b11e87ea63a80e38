"""Finite Toda lattice, tau-function solutions and total-nonnegativity tests.

Building blocks:

* :mod:`todajac.lax` -- tridiagonal phase-space matrices, spectra, minors and
  cofactor-vector machinery.
* :mod:`todajac.tnn` -- total-nonnegativity / total-positivity tests and
  eigenvalue interlacing.
* :mod:`todajac.jacobi` -- tau determinants, the linearization map and its
  inverse, the multiplicative flow on Jacobi coordinates, sign components.
* :mod:`todajac.flow` -- time evolution by three independent methods with
  blowup detection.
* :mod:`todajac.verify` / :mod:`todajac.cli` -- randomized verification that
  the totally nonnegative matrices are exactly the alternating sign cone in
  Jacobi coordinates, plus the command-line front end.
"""

from . import errors
from .errors import (
    BadIndex,
    Blowup,
    DegenerateComponent,
    GridMiss,
    NonGeneralDivisor,
    NonPositiveZ,
    NonRealSpectrum,
    NonSimpleSpectrum,
    NotTnn,
    NotTridiagonal,
    Overflow,
    RangeExceeded,
    SingularLeadingMinor,
    SpectrumOverflow,
    TodaError,
    TooLarge,
    ZeroCofactorValue,
)
from .lax import (
    LaxMatrix,
    PolynomialVector,
    Spectrum,
    char_poly,
    chop_integral,
    chop_values,
    cofactor_vectors,
    divisor_of_component,
    minor,
    spectrum,
)
from .tnn import (
    InterlacingData,
    MinorWitness,
    TnnReport,
    check_interlacing,
    interlacing_spectra,
    is_irreducible_tnn,
    is_tnn_exhaustive,
    is_tnn_interlacing,
    is_tnn_tridiagonal,
    is_totally_positive,
)
from .jacobi import (
    JacobiPoint,
    SignComponent,
    TauSequence,
    abel_jacobi,
    epsilon_signs,
    evolve_point,
    is_general_point,
    reconstruct,
    sign_component,
    tau_sequence,
    theta,
)
from .flow import (
    Trajectory,
    detect_blowup,
    lu_unit_lower,
    matrix_exp_spectral,
    solve_rk4,
    solve_symes,
    solve_tau,
    toda_derivative,
    trajectory,
)
from .verify import VerificationReport, run_verification, verify_sign_patterns

__version__ = "0.1.0"
