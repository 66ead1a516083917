"""Bipolar surfaces of Otsuki tori and their Laplace spectra."""

from .elliptic import (
    complete_E,
    complete_K,
    complete_Pi,
    dE_dk,
    dK_dk,
    dPi_dk,
    dPi_dn,
)
from .geodesic import (
    GeodesicProfile,
    OtsukiSolution,
    RotationNumber,
    a_of_b,
    b_of_a,
    i1,
    i2,
    i_ratio,
    omega,
    profile,
    solve_rotation,
    xi,
    xi_derivative,
)
from .immersion import (
    CorrespondenceReport,
    InducedMetric,
    SurfaceMesh,
    area,
    bipolar_wedge,
    build_mesh,
    export_mesh,
    immerse_bipolar,
    immerse_otsuki,
    induced_metric,
    verify_bipolar_correspondence,
)
from .spectrum import (
    Certificate,
    ModeEntry,
    ModeTable,
    VerificationReport,
    assemble,
    expected_n2,
    lambda_functional,
    lambda_functional_bound,
    verify_theorem3,
    weyl_N,
)
from .sturm import (
    Boundary,
    SLProblem,
    SLSpectrum,
    build_problem,
    classify_subperiod,
    count_sign_changes,
    eigen,
    rayleigh,
)
from .oracle import TorusGrid, cross_check, dense_spectrum, theorem2_residual

__version__ = "0.1.0"
