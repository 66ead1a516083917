"""Period functions, the closed-geodesic solve, and sampled profiles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from otsuki_bipolar.errors import DomainError, ResolutionTooCoarse
from otsuki_bipolar.geodesic import (
    GeodesicProfile,
    _HalfChart,
    RotationNumber,
    a_of_b,
    b_of_a,
    i1,
    i2,
    i_ratio,
    omega,
    solve_rotation,
    xi,
    xi_derivative,
)
from otsuki_bipolar.sturm import count_sign_changes

SQRT2 = math.sqrt(2.0)


# -- brute-force oracles -------------------------------------------------

def omega_clipped_quadrature(a, eps):
    """Raw defining integral on the endpoint-clipped domain."""
    c = math.sin(a) * math.cos(a)

    def f(nu):
        w = (math.sin(nu) * math.cos(nu)) ** 2 - c * c
        return c / (math.cos(nu) * math.sqrt(w))

    return quad(f, a + eps, 0.5 * math.pi - a - eps,
                epsabs=1e-13, epsrel=1e-13, limit=400)[0]


def omega_extrapolated(a):
    """Clip-and-extrapolate oracle: the sqrt(eps) defect is cancelled by
    one Richardson step with clip ratio 4."""
    i1_, i2_ = (omega_clipped_quadrature(a, e) for e in (4e-7, 1e-7))
    return 2.0 * i2_ - i1_


def xi_quadrature(b):
    """Defining integral, regularized by sin(phi) = sin(b) sin(psi).

    Near b = pi/2 the integrand keeps a peak of width cos(b) at the
    endpoints, so the turning points are passed as breakpoint hints.
    """
    sb, cb2 = math.sin(b), math.cos(b) ** 2

    def f(psi):
        c2 = 1.0 - (sb * math.sin(psi)) ** 2
        return cb2 / (c2 * math.sqrt(c2 + cb2))

    edge = 0.5 * math.pi
    return quad(f, -edge, edge, epsabs=1e-12, epsrel=1e-12, limit=2000,
                points=[-edge + math.cos(b), edge - math.cos(b)])[0]


def profile_integral_quadrature(b, power):
    """int cos^power(phi)/sqrt(cos^4 phi - cos^4 b), same regularization."""
    sb, cb2 = math.sin(b), math.cos(b) ** 2

    def f(psi):
        c2 = 1.0 - (sb * math.sin(psi)) ** 2
        return c2 ** ((power - 1) / 2.0) / math.sqrt(c2 + cb2)

    return quad(f, -0.5 * math.pi, 0.5 * math.pi,
                epsabs=1e-13, epsrel=1e-13)[0]


def omega_numpy_scalar_quadrature(a):
    """omega with numpy ufuncs on 0-d values in the integrand: the same
    charts, quad settings and 0.05 branch point as ``omega``."""
    c = math.sin(a) * math.cos(a)
    if a < 0.05:
        def sinc(x):
            x = np.asarray(x, dtype=float)
            out = np.where(x == 0.0, 1.0, np.sin(np.where(x == 0.0, 1.0, x))
                           / np.where(x == 0.0, 1.0, x))
            return float(out)

        def f(u):
            y = 4.0 * a * math.sinh(0.5 * u) ** 2
            m = a + 0.5 * y
            kernel = 1.0 / math.sqrt(sinc(y) * sinc(y + 4.0 * a))
            return c * (1.0 / math.cos(m) + 1.0 / math.sin(m)) * kernel

        u_max = 2.0 * math.asinh(math.sqrt((0.5 * math.pi - 2.0 * a) / (4.0 * a)))
        return quad(f, 0.0, u_max, epsabs=1e-14, epsrel=1e-13, limit=400)[0]

    def g(chi):
        nu = 0.5 * np.arccos(np.clip(math.cos(2.0 * a) * np.cos(chi), -1.0, 1.0))
        return c / (math.cos(nu) * math.sin(2.0 * nu))

    return quad(g, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=800)[0]


# -- rotation numbers ----------------------------------------------------

def test_rotation_number_validation():
    RotationNumber(3, 5)
    with pytest.raises(ValueError):
        RotationNumber(1, 2)        # boundary, not strictly inside
    with pytest.raises(ValueError):
        RotationNumber(2, 4)        # not reduced
    with pytest.raises(ValueError):
        RotationNumber(5, 7)        # 5/7 > sqrt(2)/2
    with pytest.raises(ValueError):
        RotationNumber(-3, 5)


# -- period functions ----------------------------------------------------

def test_omega_at_quarter_pi():
    assert omega(0.25 * math.pi) == pytest.approx(math.pi / SQRT2, abs=1e-10)


def test_omega_limit_at_zero():
    assert abs(omega(1e-6) - 0.5 * math.pi) < 1e-3


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.049, 0.05, 0.3, 0.25 * math.pi])
def test_omega_bitwise_equals_numpy_scalar_integrands(a):
    assert omega(a) == omega_numpy_scalar_quadrature(a)


def test_omega_against_clipped_extrapolated_quadrature():
    for a in (0.3, 0.5, 0.7):
        assert omega(a) == pytest.approx(omega_extrapolated(a), abs=1e-7)


def test_omega_strictly_increasing_with_range():
    grid = np.linspace(0.02, 0.25 * math.pi, 25)
    vals = [omega(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.5 * math.pi < v <= math.pi / SQRT2 + 1e-12 for v in vals)


def test_omega_domain():
    with pytest.raises(DomainError):
        omega(0.0)
    with pytest.raises(DomainError):
        omega(0.26 * math.pi)


def test_b_of_a_endpoints_and_inverse():
    assert b_of_a(0.25 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert b_of_a(1e-9) == pytest.approx(0.5 * math.pi, abs=1e-4)
    for a in (0.1, 0.3, 0.7):
        b = b_of_a(a)
        assert math.cos(b) ** 4 == pytest.approx(
            4.0 * math.sin(a) ** 2 * math.cos(a) ** 2, abs=1e-14)
        assert a_of_b(b) == pytest.approx(a, abs=1e-14)


def test_xi_limits():
    assert xi(1e-6) == pytest.approx(SQRT2 * math.pi / 2.0, abs=1e-9)
    assert xi(0.5 * math.pi - 1e-4) == pytest.approx(0.5 * math.pi, abs=1e-6)


# xi_quadrature asks quad for more than double precision can confirm, and
# quad warns of roundoff; the suite treats that warning as an error elsewhere.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_xi_against_quadrature():
    for b in (0.2, 0.7, 1.1):
        assert xi(b) == pytest.approx(xi_quadrature(b), abs=1e-9)
    # near b = pi/2 the quadrature oracle is roundoff-limited (its own
    # error estimate is ~1e-9); compare at that limit
    b = 0.5 * math.pi - 1e-4
    assert xi(b) == pytest.approx(xi_quadrature(b), abs=5e-9)


def test_xi_equals_omega_through_the_chart_change():
    for a in np.linspace(0.05, 0.25 * math.pi - 1e-6, 20):
        assert xi(b_of_a(a)) == pytest.approx(omega(a), abs=1e-8)


def test_xi_strictly_decreasing():
    grid = np.linspace(0.05, 0.5 * math.pi - 0.05, 25)
    vals = [xi(b) for b in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_xi_derivative_negative_and_matches_finite_difference():
    for n in (1e-3, 0.2, 0.5, 0.9):
        d = xi_derivative(n)
        assert d < 0.0
        f = lambda m: xi(math.asin(math.sqrt(m)))
        fd = (f(n + 1e-7) - f(n - 1e-7)) / 2e-7
        assert d == pytest.approx(fd, abs=1e-7)


# -- profile integrals ---------------------------------------------------

def test_i2_at_zero_and_monotone():
    assert i2(0.0) == pytest.approx(math.pi / SQRT2, abs=1e-14)
    grid = np.linspace(0.0, 0.5 * math.pi - 0.05, 25)
    vals = [i2(b) for b in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v < math.pi / SQRT2 + 1e-14 for v in vals)


def test_i1_i2_against_quadrature():
    for b in (0.3, 0.7, 1.2):
        assert i1(b) == pytest.approx(profile_integral_quadrature(b, 5),
                                      abs=1e-9)
        assert i2(b) == pytest.approx(profile_integral_quadrature(b, 3),
                                      abs=1e-9)


def test_i_ratio_below_two_decreasing_with_limit():
    assert i_ratio(1e-4) == pytest.approx(2.0, abs=1e-6)
    ratio0 = math.pi ** 2 * i1(0.0) / i2(0.0) ** 3
    assert ratio0 == pytest.approx(2.0, abs=1e-14)
    grid = np.linspace(1e-3, 0.5 * math.pi - 0.05, 25)
    vals = [i_ratio(b) for b in grid]
    assert all(v < 2.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_i_functions_domain():
    with pytest.raises(DomainError):
        i1(0.5 * math.pi)
    with pytest.raises(DomainError):
        i2(0.5 * math.pi)


# -- closed-geodesic solve ----------------------------------------------

@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (7, 10)])
def test_solve_rotation_residual(pq, cases):
    sol = cases.solution(pq)
    r = sol.rotation
    assert abs(omega(sol.a) - r.p * math.pi / r.q) < 1e-11
    assert 0.0 < sol.a < 0.25 * math.pi
    assert sol.c == pytest.approx(math.sin(sol.a) * math.cos(sol.a))
    assert math.cos(sol.b) ** 4 == pytest.approx(4.0 * sol.c ** 2, abs=1e-13)


@pytest.mark.parametrize("pq", [(3, 5), (4, 7)])
def test_period_identity(pq, cases):
    sol = cases.solution(pq)
    # the geodesic period from quadrature must match the elliptic closed form
    assert sol.t0 == pytest.approx(
        4 * sol.rotation.q * math.pi * i2(sol.b), abs=1e-10)


# -- sampled profiles ----------------------------------------------------

@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)])
def test_profile_invariants(pq, cases):
    sol, prof = cases.solution(pq), cases.profile(pq)
    p, q = pq

    assert np.max(np.abs(prof.phi)) <= sol.b + 1e-12
    assert prof.phi_at(0.0) == pytest.approx(sol.b, abs=1e-12)
    assert prof.phi_at(prof.t_half) == pytest.approx(-sol.b, abs=1e-12)
    assert prof.theta_at(sol.t0) - prof.theta_at(0.0) == pytest.approx(
        2 * p * math.pi, abs=1e-6)

    assert count_sign_changes(np.sin(prof.phi)) == 2 * q
    assert count_sign_changes(np.sin(prof.theta)) == 2 * p
    assert count_sign_changes(np.cos(prof.theta)) == 2 * p
    assert count_sign_changes(prof.nu_dot_at(prof.s_grid)) == 2 * q

    assert prof.nu.min() >= sol.a - 1e-12
    assert prof.nu.max() <= 0.5 * math.pi - sol.a + 1e-12
    assert prof.lambda_at(sol.s_total) == pytest.approx(2 * p * math.pi,
                                                        abs=1e-6)


def test_profile_unit_speed_interior(cases):
    """Finite-differenced speed stays within 1e-6 away from turning points."""
    prof = cases.profile((5, 9))
    n = prof.t_grid.size
    h = prof.t0 / n
    m = prof.samples_per_half_period

    def d6(f):
        return (np.roll(f, -3) - 9 * np.roll(f, -2) + 45 * np.roll(f, -1)
                - 45 * np.roll(f, 1) + 9 * np.roll(f, 2)
                - np.roll(f, 3)) / (60.0 * h)

    slope = 2 * prof.solution.rotation.p * math.pi / prof.t0
    dphi = d6(prof.phi)
    dth = slope + d6(prof.theta - slope * prof.t_grid)
    c2 = np.cos(prof.phi) ** 2
    speed = 4 * math.pi ** 2 * c2 * (dphi ** 2 + dth ** 2 * c2)
    idx = np.arange(n)
    dist = np.minimum(idx % m, m - (idx % m))
    assert np.max(np.abs(speed - 1.0)[dist >= 3]) < 1e-6
    assert prof.unit_speed_residual < 1e-5


def test_profile_velocities_match_finite_differences(cases):
    prof = cases.profile((3, 5))
    ts = np.linspace(0.3, prof.t0 - 0.3, 211)
    h = 1e-6
    dphi_fd = (prof.phi_at(ts + h) - prof.phi_at(ts - h)) / (2 * h)
    dth_fd = (prof.theta_at(ts + h) - prof.theta_at(ts - h)) / (2 * h)
    assert np.max(np.abs(dphi_fd - prof.phi_dot_at(ts))) < 1e-7
    assert np.max(np.abs(dth_fd - prof.theta_dot_at(ts))) < 1e-7
    ss = np.linspace(0.3, prof.s_total - 0.3, 211)
    dnu_fd = (prof.nu_at(ss + h) - prof.nu_at(ss - h)) / (2 * h)
    dlam_fd = (prof.lambda_at(ss + h) - prof.lambda_at(ss - h)) / (2 * h)
    assert np.max(np.abs(dnu_fd - prof.nu_dot_at(ss))) < 1e-7
    assert np.max(np.abs(dlam_fd - prof.lambda_dot_at(ss))) < 1e-7


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
def test_profile_t_of_x_inverts_the_chart(pq, cases):
    prof = cases.profile(pq)
    q, b = prof.solution.rotation.q, prof.solution.b
    assert prof.t_of_x(math.pi) == pytest.approx(prof.t_half, abs=1e-13)
    assert prof.t_of_x(2 * q * math.pi) == pytest.approx(prof.t0, abs=1e-12)
    xs = np.linspace(0.0, 2 * q * math.pi, 1001)
    ts = prof.t_of_x(xs)
    assert np.all(np.diff(ts) > 0)
    phi = np.arcsin(math.sin(b) * np.cos(xs))
    assert np.max(np.abs(prof.phi_at(ts) - phi)) < 1e-10


def test_profile_rejects_too_few_samples(cases):
    with pytest.raises(ValueError):
        GeodesicProfile(cases.solution((3, 5)), 8)


def test_profile_evaluators_do_not_depend_on_the_sampling(cases):
    # The evaluators read the analytic charts, so 16 samples per
    # half-oscillation, where the finite-difference speed check is poor,
    # give the same values as 512.
    sol = cases.solution((5, 9))
    coarse, fine = GeodesicProfile(sol, 16), GeodesicProfile(sol, 512)
    assert coarse.unit_speed_residual > 1e-5 > fine.unit_speed_residual
    ts = np.linspace(-1.0, 2.5 * sol.t0, 701)
    ss = np.linspace(-1.0, 2.5 * sol.s_total, 701)
    for name, args in (("phi_at", ts), ("theta_at", ts),
                       ("nu_at", ss), ("lambda_at", ss)):
        assert np.array_equal(getattr(coarse, name)(args),
                              getattr(fine, name)(args)), name


def test_chart_rejects_rates_whose_tail_never_resolves():
    # |cos x| has a kink, so its Fourier coefficients decay only like
    # 1/j^2 and never drop below rounding.
    with pytest.raises(ResolutionTooCoarse):
        _HalfChart(lambda x: (np.abs(np.cos(x)), np.ones_like(x)), math.pi)


@pytest.mark.parametrize("change", [
    lambda sol: {"t0": sol.t0 * (1 + 1e-9)},
    lambda sol: {"s_total": sol.s_total * (1 - 1e-9)},
    lambda sol: {"rotation": RotationNumber(5, 8)},     # does not close
])
def test_profile_rejects_a_solution_its_charts_do_not_reproduce(change, cases):
    sol = cases.solution((3, 5))
    with pytest.raises(ResolutionTooCoarse):
        GeodesicProfile(dataclasses.replace(sol, **change(sol)), 16)


@pytest.mark.parametrize("pq", [(3, 5), (7, 13), (10, 19), (51, 101)])
def test_profile_theta_against_adaptive_quadrature(pq):
    sol = solve_rotation(RotationNumber(*pq))
    prof = GeodesicProfile(sol, 16)
    sb2, cb2 = math.sin(sol.b) ** 2, math.cos(sol.b) ** 2

    def dtheta_dx(x):
        cos2 = cb2 + sb2 * math.sin(x) ** 2     # cos^2 phi, no cancellation
        return cb2 / (cos2 * math.sqrt(cos2 + cb2))

    xs = np.linspace(0.0, 2.5 * math.pi, 11)
    theta = prof.theta_at(prof.t_of_x(xs))
    ref = [quad(dtheta_dx, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
           for x in xs]
    assert np.max(np.abs(theta - ref)) <= 1e-12
