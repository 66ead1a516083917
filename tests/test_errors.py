"""The shared failure types and the one range validator.

The boundary table pins the accepted domain of every function that
checks its argument range through ``errors.in_interval``: each open end
and the first float beyond each closed end raise DomainError, each
closed end is accepted, and nan and inf raise.
"""

import math

import numpy as np
import pytest

from otsuki_bipolar import errors
from otsuki_bipolar.elliptic import (
    complete_E,
    complete_K,
    complete_Pi,
    dE_dk,
    dK_dk,
    dPi_dk,
    dPi_dn,
)
from otsuki_bipolar.errors import DomainError, in_interval
from otsuki_bipolar.geodesic import (
    a_of_b,
    b_of_a,
    bipolar_half_period,
    i1,
    i2,
    i_ratio,
    omega,
    torus_half_period,
    xi,
    xi_derivative,
)
from otsuki_bipolar.oracle import TorusGrid, dense_spectrum
from otsuki_bipolar.spectrum import assemble

QUARTER_PI, HALF_PI = 0.25 * math.pi, 0.5 * math.pi
K_MAX = 1.0 - 1e-12

# (function of one argument, lo, hi, lo_closed, hi_closed)
DOMAINS = {
    "omega": (omega, 0.0, QUARTER_PI, False, True),
    "b_of_a": (b_of_a, 0.0, QUARTER_PI, False, True),
    "torus_half_period": (torus_half_period, 0.0, QUARTER_PI, False, True),
    "a_of_b": (a_of_b, 0.0, HALF_PI, True, False),
    "xi": (xi, 0.0, HALF_PI, False, False),
    "i_ratio": (i_ratio, 0.0, HALF_PI, False, False),
    "xi_derivative": (xi_derivative, 0.0, 1.0, False, False),
    "i1": (i1, 0.0, HALF_PI, True, False),
    "i2": (i2, 0.0, HALF_PI, True, False),
    "bipolar_half_period": (bipolar_half_period, 0.0, HALF_PI, True, False),
    "complete_K": (complete_K, 0.0, K_MAX, True, True),
    "complete_E": (complete_E, 0.0, 1.0, True, True),
    "complete_Pi.n": (lambda n: complete_Pi(n, 0.5), 0.0, K_MAX, True, True),
    "complete_Pi.k": (lambda k: complete_Pi(0.5, k), 0.0, K_MAX, True, True),
    "dE_dk": (dE_dk, 0.0, 1.0, False, False),
    "dK_dk": (dK_dk, 0.0, 1.0, False, False),
    "dPi_dn.n": (lambda n: dPi_dn(n, 0.5), 0.0, 1.0, False, False),
    "dPi_dn.k": (lambda k: dPi_dn(0.5, k), 0.0, 1.0, False, False),
    "dPi_dk.n": (lambda n: dPi_dk(n, 0.5), 0.0, 1.0, False, False),
    "dPi_dk.k": (lambda k: dPi_dk(0.5, k), 0.0, 1.0, False, False),
}


@pytest.mark.parametrize("name", list(DOMAINS))
def test_domain_boundaries(name):
    f, lo, hi, lo_closed, hi_closed = DOMAINS[name]
    for end, closed, outward in ((lo, lo_closed, -math.inf),
                                 (hi, hi_closed, math.inf)):
        if closed:
            assert math.isfinite(f(end))
            with pytest.raises(DomainError):
                f(float(np.nextafter(end, outward)))
        else:
            with pytest.raises(DomainError):
                f(end)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            f(bad)


def test_in_interval_names_argument_interval_and_value():
    assert in_interval(np.float64(0.5), "k", 0.0, 1.0) == 0.5
    assert type(in_interval(1, "k", 0.0, 1.0, hi_closed=True)) is float
    with pytest.raises(DomainError, match=r"^k must lie in \[0, 1\), got 1\.0$"):
        in_interval(1.0, "k", 0.0, 1.0, lo_closed=True)
    with pytest.raises(DomainError, match=r"\(0, 1\], got nan"):
        in_interval(math.nan, "k", 0.0, 1.0, hi_closed=True)


@pytest.mark.parametrize("cut", [math.nan, math.inf, -1.0])
def test_spectrum_cuts_are_range_checked(cut, cases):
    """assemble takes a cut in [2, inf) and dense_spectrum one in (0, inf),
    so a nan cut never reaches LAPACK and an infinite one never asks the
    oracle for every eigenvalue."""
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    with pytest.raises(DomainError, match=r"^lambda_cut must lie in \[2, inf\)"):
        assemble(sol, None, lambda_cut=cut)
    with pytest.raises(DomainError, match=r"^lambda_cut must lie in \(0, inf\)"):
        dense_spectrum(TorusGrid(prof, 32, 128), cut)


def test_spectrum_cut_ends(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    spectra = {l: cases.spectrum((3, 5), l) for l in range(2)}
    assert assemble(sol, None, lambda_cut=2.0, spectra=spectra).lambda_cut == 2.0
    with pytest.raises(DomainError):
        assemble(sol, None, lambda_cut=float(np.nextafter(2.0, 0.0)),
                 spectra=spectra)
    with pytest.raises(DomainError):
        dense_spectrum(TorusGrid(prof, 32, 128), 0.0)


def test_numerical_failures_share_one_base():
    names = ("NoRoot", "ResolutionTooCoarse", "IntegrationFailure",
             "ConvergenceFailure", "DegenerateGrid", "SubperiodViolation",
             "InsufficientLMax")
    for name in names:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.NumericalFailure)
        assert issubclass(cls, RuntimeError)
    for cls in (errors.DomainError, errors.ZeroFunction,
                errors.VerificationFailed):
        assert not issubclass(cls, errors.NumericalFailure)
