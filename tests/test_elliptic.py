"""Elliptic integrals against brute-force quadrature of the defining
integrals (x = sin u removes the endpoint singularity), and Carlson's
forms against mpmath."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from otsuki_bipolar.elliptic import (
    complete_E,
    complete_K,
    complete_Pi,
    dE_dk,
    dK_dk,
    dPi_dk,
    dPi_dn,
    elliprd,
    elliprf,
    elliprj,
)
from otsuki_bipolar import elliptic
from otsuki_bipolar.errors import DomainError

# The brute-force reference quadratures below ask quad for 1e-14, which
# its error estimate cannot confirm in double precision, so quad warns of
# roundoff.  The library's own quad calls must not warn: the suite treats
# IntegrationWarning as an error everywhere else.
reference_quadrature = pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")

HALF_PI = 0.5 * math.pi


def quad_K(k):
    return quad(lambda u: 1.0 / math.sqrt(1.0 - (k * math.sin(u)) ** 2),
                0.0, HALF_PI, epsabs=1e-14, epsrel=1e-14)[0]


def quad_E(k):
    return quad(lambda u: math.sqrt(1.0 - (k * math.sin(u)) ** 2),
                0.0, HALF_PI, epsabs=1e-14, epsrel=1e-14)[0]


def quad_Pi(n, k):
    return quad(lambda u: 1.0 / ((1.0 - n * math.sin(u) ** 2)
                                 * math.sqrt(1.0 - (k * math.sin(u)) ** 2)),
                0.0, HALF_PI, epsabs=1e-14, epsrel=1e-14)[0]


def test_special_values():
    assert complete_K(0.0) == pytest.approx(HALF_PI, abs=1e-15)
    assert complete_E(0.0) == pytest.approx(HALF_PI, abs=1e-15)
    assert complete_E(1.0) == 1.0
    assert complete_Pi(0.0, 0.0) == pytest.approx(HALF_PI, abs=1e-15)


@reference_quadrature
@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_K_matches_quadrature(k):
    assert complete_K(k) == pytest.approx(quad_K(k), rel=1e-12)


@reference_quadrature
@pytest.mark.parametrize("k", [0.1, 0.3, 0.6, 0.9, 0.999])
def test_E_matches_quadrature(k):
    assert complete_E(k) == pytest.approx(quad_E(k), rel=1e-12)


@reference_quadrature
@pytest.mark.parametrize("n,k", [(0.5, 0.5), (0.2, 0.8), (0.9, 0.3),
                                 (0.3, 0.4), (0.75, 0.75)])
def test_Pi_matches_quadrature(n, k):
    assert complete_Pi(n, k) == pytest.approx(quad_Pi(n, k), rel=1e-12)


def test_Pi_characteristic_zero_degenerates_to_K():
    for k in (0.0, 0.2, 0.7, 0.95):
        assert complete_Pi(0.0, k) == pytest.approx(complete_K(k), rel=1e-14)


def test_legendre_relation_on_grid():
    for k in np.linspace(0.01, 0.99, 50):
        kp = math.sqrt(1.0 - k * k)
        lhs = (complete_E(k) * complete_K(kp) + complete_E(kp) * complete_K(k)
               - complete_K(k) * complete_K(kp))
        assert abs(lhs - HALF_PI) < 1e-11


def test_Pi_increasing_in_characteristic():
    for k in (0.1, 0.5, 0.9):
        vals = [complete_Pi(n, k) for n in np.linspace(0.0, 0.95, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
def test_dE_dk_matches_finite_difference(k):
    assert dE_dk(k) == pytest.approx(_central(complete_E, k, 1e-6), abs=1e-8)


@pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
def test_dK_dk_matches_finite_difference(k):
    assert dK_dk(k) == pytest.approx(_central(complete_K, k, 1e-6), abs=1e-8)


def test_dE_dk_vanishes_at_zero_modulus():
    assert abs(dE_dk(1e-8)) < 1e-7


@pytest.mark.parametrize("n,k", [(0.3, 0.4), (0.6, 0.5), (0.2, 0.7)])
def test_dPi_dn_matches_finite_difference(n, k):
    fd = _central(lambda x: complete_Pi(x, k), n, 1e-6)
    assert dPi_dn(n, k) == pytest.approx(fd, abs=1e-7)


@pytest.mark.parametrize("n,k", [(0.3, 0.4), (0.6, 0.5), (0.2, 0.7)])
def test_dPi_dk_matches_finite_difference(n, k):
    fd = _central(lambda x: complete_Pi(n, x), k, 1e-6)
    assert dPi_dk(n, k) == pytest.approx(fd, abs=1e-7)


def test_dPi_dk_degenerates_to_dK_dk():
    for k in (0.3, 0.6):
        assert dPi_dk(1e-10, k) == pytest.approx(dK_dk(k), rel=1e-6)


def test_derivative_identity_from_K():
    # k(1-k^2) K'(k) = E(k) - (1-k^2) K(k), and the right side is positive
    for k in np.linspace(0.05, 0.95, 19):
        lhs = k * (1.0 - k * k) * dK_dk(k)
        rhs = complete_E(k) - (1.0 - k * k) * complete_K(k)
        assert abs(lhs - rhs) < 1e-11
        assert rhs > 0.0


def test_domain_errors():
    for bad in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(DomainError):
            complete_K(bad)
    with pytest.raises(DomainError):
        complete_E(1.0 + 1e-9)
    with pytest.raises(DomainError):
        complete_Pi(1.0, 0.5)
    with pytest.raises(DomainError):
        dE_dk(0.0)
    with pytest.raises(DomainError):
        dK_dk(1.0)
    with pytest.raises(DomainError):
        dPi_dn(0.25, 0.5)   # n = k^2 singular line
    with pytest.raises(DomainError):
        dPi_dk(0.25, 0.5)


# -- Carlson's forms -------------------------------------------------------

def _relative(got, ref):
    return float(abs(got - ref) / abs(ref))


def test_carlson_forms_against_mpmath_where_the_library_calls_them():
    """R_F(0, y, 1), R_D(0, y, 1) and R_J(0, y, 1, s), y = 2s/(1+s), as xi,
    its derivative and the profile integrals take them, agree with
    40-digit mpmath to 2e-15 relative for s = cos^2 b in [1e-12, 1]
    (measured: 6.7e-16)."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for s in np.concatenate([np.geomspace(1e-12, 1.0, 60),
                                 np.linspace(0.5, 1.0, 11)]):
            s = float(s)
            y = 2.0 * s / (1.0 + s)
            worst = max(worst,
                        _relative(elliprf(0.0, y, 1.0), mpmath.elliprf(0, y, 1)),
                        _relative(elliprd(0.0, y, 1.0), mpmath.elliprd(0, y, 1)),
                        _relative(elliprj(0.0, y, 1.0, s),
                                  mpmath.elliprj(0, y, 1, s)))
    assert worst <= 2e-15


def test_carlson_forms_against_mpmath_at_general_arguments():
    """Away from the library's call sites too: arguments over eight
    decades, one of x, y, z zero in a third of the draws, p on either
    side of them, and every branch of R_C."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    worst = 0.0
    with mpmath.workdps(40):
        for i in range(100):
            x, y, z, p = (float(v) for v in 10.0 ** rng.uniform(-4, 4, 4))
            if i % 3 == 0:
                x = 0.0
            worst = max(worst,
                        _relative(elliprf(x, y, z), mpmath.elliprf(x, y, z)),
                        _relative(elliprd(x, y, z), mpmath.elliprd(x, y, z)),
                        _relative(elliprj(x, y, z, p),
                                  mpmath.elliprj(x, y, z, p)),
                        _relative(elliptic._rc(x, y), mpmath.elliprc(x, y)))
    assert worst <= 2e-15


@pytest.mark.parametrize("direction", [(0.7, -0.2, 0.4), (-0.5, 0.9, 0.1),
                                       (0.3, 0.3, -0.8)])
def test_carlson_series_are_the_fifth_order_taylor_polynomials(direction):
    """The series that ends each duplication loop is, term by term, the
    Taylor polynomial of degree 5 of R_F and R_J about the mean of their
    arguments: along deviations t (X, Y, Z) from A = 1 (P = -(X+Y+Z)/2
    for R_J, Z = -X-Y for R_F) it matches mpmath's Taylor coefficients to
    rounding even at t = 1/2, where a wrong coefficient of any order
    shows, though the loops never leave terms of degree 5 above 1e-15."""
    mpmath = pytest.importorskip("mpmath")
    x, y, z = direction
    p = -(x + y + z) / 2.0
    with mpmath.workdps(50):
        rj = mpmath.taylor(lambda t: mpmath.elliprj(
            1 - t * x, 1 - t * y, 1 - t * z, 1 - t * p), 0, 5)
        rf = mpmath.taylor(lambda t: mpmath.elliprf(
            1 - t * x, 1 - t * y, 1 + t * (x + y)), 0, 5)
    for t in (0.5, 0.25, -0.5):
        want_j = float(mpmath.polyval(rj[::-1], t))
        want_f = float(mpmath.polyval(rf[::-1], t))
        assert elliptic._rj_series(t * x, t * y, t * z) == pytest.approx(
            want_j, rel=1e-15, abs=0.0)
        assert elliptic._rf_series(t * x, t * y) == pytest.approx(
            want_f, rel=1e-15, abs=0.0)


def test_carlson_forms_special_values():
    assert elliprf(1.0, 1.0, 1.0) == 1.0
    assert elliprf(0.0, 1.0, 1.0) == pytest.approx(HALF_PI, rel=1e-15)
    assert elliprd(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert elliprj(2.0, 2.0, 2.0, 2.0) == pytest.approx(2.0 ** -1.5, rel=1e-15)
    assert elliptic._rc(0.0, 4.0) == pytest.approx(0.25 * math.pi, rel=1e-15)
    assert elliptic._rc(1.0, 2.0) == pytest.approx(0.25 * math.pi, rel=1e-15)


@pytest.mark.parametrize("call", [
    lambda: elliprf(-1e-300, 1.0, 1.0),
    lambda: elliprf(0.0, 0.0, 1.0),             # two zeros: diverges
    lambda: elliprf(float("nan"), 1.0, 1.0),
    lambda: elliprf(1.0, math.inf, 1.0),
    lambda: elliprf(1j, 1.0, 1.0),
    lambda: elliprf(np.complex128(1.0), 1.0, 1.0),
    lambda: elliprd(1.0, 1.0, 0.0),
    lambda: elliprj(0.0, 1.0, 1.0, 0.0),
    lambda: elliprj(0.0, 1.0, 1.0, -0.5),       # Cauchy principal value
])
def test_carlson_forms_take_real_arguments_only(call):
    with pytest.raises(DomainError):
        call()
