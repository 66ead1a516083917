"""Period functions, the closed-geodesic solve, and sampled profiles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import otsuki_bipolar.geodesic as geodesic
from otsuki_bipolar.errors import (
    ConvergenceFailure,
    DomainError,
    IntegrationFailure,
    NoRoot,
    ResolutionTooCoarse,
)
from otsuki_bipolar.geodesic import (
    GeodesicProfile,
    OtsukiSolution,
    _HalfChart,
    RotationNumber,
    a_of_b,
    b_of_a,
    bipolar_half_period,
    i1,
    i2,
    i_ratio,
    omega,
    solve_rotation,
    torus_half_period,
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


def omega_numpy_quadrature(a):
    """omega by the library's Gauss-Kronrod rule on integrands written out
    here in numpy: the same charts, tolerances, panel limits and 0.05
    branch point as ``omega``.  The rule's nodes are interior, so the
    sinc arguments are never 0."""
    c = math.sin(a) * math.cos(a)
    if a < 0.05:
        def f(u):
            y = 4.0 * a * np.sinh(0.5 * u) ** 2
            m = a + 0.5 * y
            kernel = 1.0 / np.sqrt(np.sin(y) / y
                                   * (np.sin(y + 4.0 * a) / (y + 4.0 * a)))
            return c * (1.0 / np.cos(m) + 1.0 / np.sin(m)) * kernel

        u_max = 2.0 * math.asinh(math.sqrt((0.5 * math.pi - 2.0 * a) / (4.0 * a)))
        return geodesic._integrate(f, 0.0, u_max, 1e-14, 1e-13, 400)

    def g(chi):
        nu = 0.5 * np.arccos(math.cos(2.0 * a) * np.cos(chi))
        return c / (np.cos(nu) * np.sin(2.0 * nu))

    return geodesic._integrate(g, 0.0, math.pi, 1e-13, 1e-13, 800)


def _mp_quad(f):
    """mpmath.quad of f over [0, pi], split at pi/2, at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.quad(f, [0, mpmath.pi / 2, mpmath.pi]))


def omega_mpmath(a):
    """omega from the same regularized integrands as ``omega``, by
    mpmath.quad at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = mpmath.mpf(a)
        c = mpmath.sin(a) * mpmath.cos(a)
        if a < 0.05:
            def f(u):
                y = 4 * a * mpmath.sinh(u / 2) ** 2
                m = a + y / 2
                return (c * (1 / mpmath.cos(m) + 1 / mpmath.sin(m))
                        / mpmath.sqrt(mpmath.sinc(y) * mpmath.sinc(y + 4 * a)))

            u_max = 2 * mpmath.asinh(mpmath.sqrt((mpmath.pi / 2 - 2 * a) / (4 * a)))
            return float(mpmath.quad(f, [0, 1, u_max]))

        def g(chi):
            nu = mpmath.acos(mpmath.cos(2 * a) * mpmath.cos(chi)) / 2
            return c / (mpmath.cos(nu) * mpmath.sin(2 * nu))

        return _mp_quad(g)


def bipolar_half_period_mpmath(b):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        cb2, sb2 = mpmath.cos(mpmath.mpf(b)) ** 2, mpmath.sin(mpmath.mpf(b)) ** 2

        def w(x):
            c2 = cb2 + sb2 * mpmath.sin(x) ** 2
            return 2 * mpmath.pi * c2 / mpmath.sqrt(c2 + cb2)

        return _mp_quad(w)


def torus_half_period_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        cos_2a = mpmath.cos(2 * mpmath.mpf(a))
        return _mp_quad(lambda chi: mpmath.pi * mpmath.sin(
            mpmath.acos(cos_2a * mpmath.cos(chi)) / 2))


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
    assert omega(a) == omega_numpy_quadrature(a)


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.049, 0.05, 0.3, 0.25 * math.pi])
def test_omega_against_mpmath(a):
    """The adaptive rule meets 1e-14 relative on both branches of omega;
    its own tolerance is 1e-13."""
    ref = omega_mpmath(a)
    assert abs(omega(a) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("pq", [(2, 3), (3, 5), (9, 16), (11, 16), (70, 99),
                                (51, 101), (2500, 4999)])
def test_period_quadratures_against_mpmath(pq):
    """omega and both half-periods at the solved a and b, against mpmath,
    across the range from a = 2.9e-5 (2500/4999) to 0.77 (70/99)."""
    sol = solve_rotation(RotationNumber(*pq))
    for got, ref in ((omega(sol.a), omega_mpmath(sol.a)),
                     (bipolar_half_period(sol.b),
                      bipolar_half_period_mpmath(sol.b)),
                     (torus_half_period(sol.a), torus_half_period_mpmath(sol.a))):
        assert abs(got - ref) <= 1e-14 * ref, pq


def test_gauss_kronrod_rule_is_exact_to_its_degree():
    """The 21-point Kronrod rule integrates x^k exactly on [-1, 1] up to
    k = 31, and its 10-point Gauss rule up to k = 19, on the Legendre
    nodes; a wrong node or weight breaks one of these."""
    nodes, kronrod = geodesic._GK_NODES, geodesic._GK_SUMS[:, 0]
    gauss = kronrod - geodesic._GK_SUMS[:, 1]
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(kronrod @ nodes ** k - exact) <= 1e-15, k
        if k < 20:
            assert abs(gauss @ nodes ** k - exact) <= 1e-15, k
    legendre, weights = np.polynomial.legendre.leggauss(10)
    on = gauss != 0.0
    assert np.allclose(nodes[on], legendre, rtol=0, atol=1e-15)
    assert np.allclose(gauss[on], weights, rtol=0, atol=1e-15)


def test_integrate_raises_at_its_panel_limit():
    """1/x is not integrable at 0: the panels there never meet the
    tolerance, and the rule raises rather than return a value short of
    it."""
    with pytest.raises(IntegrationFailure, match="at 50 panels"):
        geodesic._integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-13, 1e-13, 50)
    assert geodesic._integrate(np.exp, 0.0, 3.0, 1e-13, 1e-13, 50) == (
        pytest.approx(math.expm1(3.0), rel=1e-15))


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e-3, -10.0, 5.0),
    (lambda x: (x - 1.0 / 3.0) ** 5, 0.0, 1.0),
])
def test_brent_takes_brentqs_steps(f, lo, hi):
    """The root is scipy's brentq's, bit for bit, and so are the points
    at which f is evaluated."""
    seen, ref = [], []
    got = geodesic._brent(lambda x: seen.append(x) or f(x), lo, hi,
                          1e-15, 8.9e-16, 200)
    want = brentq(lambda x: ref.append(x) or f(x), lo, hi, xtol=1e-15,
                  rtol=8.9e-16, maxiter=200)
    assert got == want
    assert seen == ref


def test_brent_failures():
    with pytest.raises(NoRoot):
        geodesic._brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15, 8.9e-16, 200)
    with pytest.raises(ConvergenceFailure):
        geodesic._brent(lambda x: x ** 3 - 2.0, 0.0, 2.0, 1e-15, 8.9e-16, 3)


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


def test_xi_core_matches_omega_on_a_log_grid():
    """The closed form from s = sin 2a matches omega by quadrature to
    1e-13 from a = 1e-12 to pi/4, across both of omega's branches (the
    sinh substitution below a = 0.05, the chi chart above)."""
    grid = np.geomspace(1e-12, 0.25 * math.pi, 60)
    assert np.count_nonzero(grid < 0.05) > 40 and grid[-3] > 0.05
    for a in grid:
        a = float(a)
        assert abs(geodesic._xi_of_s(math.sin(2.0 * a)) - omega(a)) <= 1e-13, a


def _xi_mpmath(b):
    """xi at the double b to 40 digits: 2(1-n)/sqrt(2-n) Pi(n | n/(2-n))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n = mpmath.sin(mpmath.mpf(b)) ** 2
        return float(2 * (1 - n) / mpmath.sqrt(2 - n)
                     * mpmath.ellippi(n, n / (2 - n)))


@pytest.mark.parametrize("b", [1e-6, 0.7, 1.55, 1.57, 0.5 * math.pi - 1e-6,
                               0.5 * math.pi - 1e-8])
def test_xi_against_mpmath(b):
    """xi holds 1e-15 up to b = pi/2 - 1e-8: the complement 1 - n of
    n = sin^2 b must reach Carlson's forms as cos^2 b, since forming it by
    cancellation costs 5.2e-12 at b = 1.57 and leaves n past the largest
    characteristic ``complete_Pi`` accepts within 1e-7 of pi/2."""
    assert abs(xi(b) - _xi_mpmath(b)) <= 1e-15


def test_xi_strictly_decreasing():
    grid = np.linspace(0.05, 0.5 * math.pi - 0.05, 25)
    vals = [xi(b) for b in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def _xi_derivative_mpmath(n):
    """d xi / dn at the double n to 40 digits, by mpmath.diff."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(mpmath.diff(
            lambda t: 2 * (1 - t) / mpmath.sqrt(2 - t)
            * mpmath.ellippi(t, t / (2 - t)), mpmath.mpf(n)))


@pytest.mark.parametrize("n", [1e-6, 0.5, 0.9999, 1.0 - 1e-6, 1.0 - 1e-8,
                               1.0 - 1e-12])
def test_xi_derivative_against_mpmath(n):
    """xi_derivative holds 1e-15 relative up to n = 1 - 1e-12: E - K must
    reach it as -(k^2/3) R_D(0, 1-k^2, 1) with 1 - k^2 formed from 1 - n,
    since the difference of K and E as computed costs 3.6e-10 at
    n = 1 - 1e-8 (and 6e-11 at n = 1e-6)."""
    ref = _xi_derivative_mpmath(n)
    assert abs(xi_derivative(n) / ref - 1.0) <= 1e-15


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


def _profile_integrals_mpmath(b):
    """i1 and i2 at the double b to 40 digits, from K and E of
    k^2 = sin^2 b / (1 + cos^2 b)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c2 = mpmath.cos(mpmath.mpf(b)) ** 2
        m = (1 - c2) / (1 + c2)
        kk, e = mpmath.ellipk(m), mpmath.ellipe(m)
        scale = mpmath.sqrt(2 / (1 + m))
        r1 = 4 * scale / 3 * (e - (1 - m) * (1 + 3 * m) / (4 * (1 + m)) * kk)
        r2 = 2 * scale * (e - (1 - m) / 2 * kk)
        return float(r1), float(r2), float(mpmath.pi ** 2 * r1 / r2 ** 3)


@pytest.mark.parametrize("b", [1e-6, 0.7, 1.55, 0.5 * math.pi - 1e-6,
                               0.5 * math.pi - 2e-7, 0.5 * math.pi - 1e-8])
def test_profile_integrals_against_mpmath(b):
    """i1, i2 and i_ratio hold 2e-14 relative up to b = pi/2 - 1e-8: the
    complement 1 - k^2 must reach Carlson's forms as 2 cos^2 b/(1 + cos^2 b),
    since the modulus k formed from b rounds past the largest that
    ``complete_K`` accepts within ~2e-7 of pi/2."""
    r1, r2, ratio = _profile_integrals_mpmath(b)
    assert abs(i1(b) / r1 - 1.0) <= 2e-14
    assert abs(i2(b) / r2 - 1.0) <= 2e-14
    assert abs(i_ratio(b) / ratio - 1.0) <= 2e-14


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


def _reference_solve_rotation(r):
    """The closure equation rooted on omega by quadrature, by the same
    bracket and brentq settings: an independent solve to compare the
    closed-form root with."""
    target = r.target_angle
    lo, hi = 1e-4, 0.25 * math.pi
    while omega(lo) > target:
        lo *= 1e-2
    a = brentq(lambda x: omega(x) - target, lo, hi, xtol=1e-15, rtol=8.9e-16,
               maxiter=200)
    residual = omega(a) - target
    b = b_of_a(a)
    return OtsukiSolution(rotation=r, a=a, b=b, c=math.sin(a) * math.cos(a),
                          t0=2 * r.q * bipolar_half_period(b),
                          s_total=2 * r.q * torus_half_period(a),
                          omega_residual=residual)


def _reduced_fractions(q_max):
    return [(p, q) for q in range(3, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


def test_solve_rotation_evaluates_omega_once(monkeypatch):
    """The root comes from the closed form of xi; omega, by quadrature,
    runs once per solve, at the root, and the residual is its value
    there minus p pi/q."""
    calls = []

    def spy(a):
        calls.append(a)
        return omega(a)

    monkeypatch.setattr(geodesic, "omega", spy)
    for pq in [(3, 5), (7, 13), (70, 99), (1000, 1999)]:
        calls.clear()
        sol = solve_rotation(RotationNumber(*pq))
        assert calls == [sol.a]
        assert sol.omega_residual == omega(sol.a) - sol.rotation.target_angle


def test_solve_rotation_agrees_with_the_reference_solve():
    """The closed-form root lies within 5e-14 of the root of omega by
    quadrature on every reduced p/q with q <= 20 and on 70/99, where
    omega is flat near a = pi/4 and the two roots differ most (2.9e-14);
    the periods follow it to 1e-13 relative."""
    for pq in _reduced_fractions(20) + [(70, 99)]:
        r = RotationNumber(*pq)
        sol, ref = solve_rotation(r), _reference_solve_rotation(r)
        assert abs(sol.a - ref.a) <= 5e-14, pq
        assert sol.t0 == pytest.approx(ref.t0, rel=1e-13, abs=0.0), pq
        assert sol.s_total == pytest.approx(ref.s_total, rel=1e-13, abs=0.0), pq


def test_solve_rotation_widens_the_bracket_near_one_half(monkeypatch):
    """1000/1999 lies so close to 1/2 that the bracket's lower end moves
    below a = 1e-4; 3/5 keeps it there."""
    seen, core = [], geodesic._xi_of_s
    monkeypatch.setattr(geodesic, "_xi_of_s",
                        lambda s: seen.append(s) or core(s))
    lowest = {}
    for pq in [(3, 5), (1000, 1999)]:
        seen.clear()
        solve_rotation(RotationNumber(*pq))
        lowest[pq] = min(seen)
    assert lowest[(3, 5)] == math.sin(2e-4)
    assert lowest[(1000, 1999)] < math.sin(2e-4)


@pytest.mark.parametrize("pq", [(3, 5), (7, 13), (70, 99), (1000, 1999)])
def test_solve_rotation_periods_are_the_quadratures(pq):
    """t0 and s_total are 2q times the quadrature half-periods, bit for
    bit, so that t0 stays a second route beside the closed form
    2 pi i2(b) that the functional certificate and the profile's period
    check compare it with."""
    sol = solve_rotation(RotationNumber(*pq))
    q = pq[1]
    assert sol.t0 == 2 * q * bipolar_half_period(sol.b)
    assert sol.s_total == 2 * q * torus_half_period(sol.a)


@pytest.mark.sweep
def test_omega_residual_sweep():
    """omega by quadrature agrees with the closed-form root to 1e-12 on
    all 630 reduced p/q with q <= 100 and on five p/q closer to 1/2."""
    extra = [(126, 251), (250, 499), (500, 999), (1000, 1999), (5000, 9999)]
    worst = max((abs(solve_rotation(RotationNumber(*pq)).omega_residual), pq)
                for pq in _reduced_fractions(100) + extra)
    assert worst[0] <= 1e-12, worst


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


@pytest.mark.parametrize("pq, rtol", [((3, 5), 1e-13), ((5, 8), 1e-13),
                                      ((51, 101), 1e-10)])
def test_chart_velocities_match_the_closed_forms(pq, rtol, cases):
    """The velocities of ``bipolar_at`` and ``torus_at``, each a chart
    x-derivative over du/dx, agree with the closed forms of the first
    integrals, and every ``*_at`` is bit for bit its projection of them."""
    sol, prof = cases.solution(pq), cases.profile(pq)
    b, a, c = sol.b, sol.a, sol.c
    rng = np.random.default_rng(11)
    ts = rng.uniform(-sol.t0, 2.0 * sol.t0, 301)
    ss = rng.uniform(-sol.s_total, 2.0 * sol.s_total, 301)
    bip, tor = prof.bipolar_at(ts), prof.torus_at(ss)

    phi, nu = bip[0], tor[0]
    x = prof._bip.x_of(ts)
    chi = prof.torus_chart.x_of(ss)
    w = 2 * math.pi * np.cos(phi) ** 2 / np.sqrt(np.cos(phi) ** 2
                                                 + math.cos(b) ** 2)
    closed = [
        -math.sin(b) * np.sin(x) / (np.cos(phi) * w),
        math.cos(b) ** 2 / (2 * math.pi * np.cos(phi) ** 4),
        math.cos(2 * a) * np.sin(chi)
        / (2 * math.pi * np.sin(nu) * np.sin(2 * nu)),
        c / (2 * math.pi * np.cos(nu) ** 2 * np.sin(nu) ** 2),
    ]
    for got, want in zip([bip[2], bip[3], tor[2], tor[3]], closed):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

    for k, name in enumerate(["phi_at", "theta_at", "phi_dot_at",
                              "theta_dot_at"]):
        assert np.array_equal(getattr(prof, name)(ts), bip[k]), name
    for k, name in enumerate(["nu_at", "lambda_at", "nu_dot_at",
                              "lambda_dot_at"]):
        assert np.array_equal(getattr(prof, name)(ss), tor[k]), name
    assert np.array_equal(prof.cos2_phi_at(ts), np.cos(phi) ** 2)


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
def test_torus_at_chi_is_the_torus_chart_at_chi(pq, cases):
    """``torus_at_chi`` gives nu, lambda and their velocities at chart
    values chi, element for element those of ``torus_chart.at``, and at
    chi = x_of(s) it is ``torus_at(s)``."""
    prof = cases.profile(pq)
    chart = prof.torus_chart
    rng = np.random.default_rng(5)
    chi = rng.uniform(-chart.period, 3.0 * chart.period, 257)
    got = prof.torus_at_chi(chi)
    assert len(got) == 4
    for k, want in enumerate(chart.at(chi)):
        assert np.array_equal(got[k], want), k
    ss = rng.uniform(-prof.s_total, 2.0 * prof.s_total, 257)
    for k, want in enumerate(prof.torus_at(ss)):
        assert np.array_equal(prof.torus_at_chi(chart.x_of(ss))[k], want), k


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
    # half-oscillation give the same values as 512, and the speed
    # identity holds to rounding at the samples of both.
    sol = cases.solution((5, 9))
    coarse, fine = GeodesicProfile(sol, 16), GeodesicProfile(sol, 512)
    assert max(coarse.unit_speed_residual, fine.unit_speed_residual) <= 1e-13
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
        _HalfChart(lambda x: x, lambda x, coord: np.ones_like(x),
                   lambda x: (np.abs(np.cos(x)), np.ones_like(x)), math.pi)


@pytest.mark.parametrize("change", [
    lambda sol: {"t0": sol.t0 * (1 + 1e-9)},
    lambda sol: {"s_total": sol.s_total * (1 - 1e-9)},
    lambda sol: {"rotation": RotationNumber(5, 8)},     # does not close
])
def test_profile_rejects_a_solution_its_charts_do_not_reproduce(change, cases):
    sol = cases.solution((3, 5))
    with pytest.raises(ResolutionTooCoarse):
        GeodesicProfile(dataclasses.replace(sol, **change(sol)), 16)


def test_profile_samples_nothing_until_asked(cases, monkeypatch):
    """Construction builds and checks the charts only; each side's chart
    is sampled once, on the first access to one of its arrays."""
    samples, calls = _HalfChart.samples, []

    def spy(chart, *args):
        calls.append(args)
        return samples(chart, *args)

    monkeypatch.setattr(_HalfChart, "samples", spy)
    prof = GeodesicProfile(cases.solution((3, 5)), 32)
    assert calls == []
    prof.phi, prof.theta, prof.theta
    assert calls == [(32, 10)]
    prof.lambda_angle, prof.nu
    assert calls == [(32, 10)] * 2


def sampled_directly(prof):
    """Every sampled attribute, computed as one pass over both charts."""
    m, halves = prof.samples_per_half_period, 2 * prof.solution.rotation.q
    n = halves * m
    x, theta = prof._bip.samples(m, halves)
    chi, lam = prof.torus_chart.samples(m, halves)
    _, _, phi_dot, theta_dot = prof._bip.at(x[:m])
    b = prof.solution.b
    c2 = math.cos(b) ** 2 + math.sin(b) ** 2 * np.sin(x[:m]) ** 2
    return {"t_grid": np.arange(n) * (prof.t0 / n),
            "phi": prof._bip.coordinate(x), "theta": theta,
            "s_grid": np.arange(n) * (prof.s_total / n),
            "nu": prof.torus_chart.coordinate(chi), "lambda_angle": lam,
            "unit_speed_residual": float(np.max(np.abs(
                4.0 * math.pi ** 2 * c2 * (phi_dot ** 2 + theta_dot ** 2 * c2)
                - 1.0)))}


@pytest.mark.parametrize("first", [("phi", "theta"), ("theta", "phi"),
                                   ("nu", "lambda_angle"),
                                   ("lambda_angle", "nu"),
                                   ("unit_speed_residual", "phi")])
@pytest.mark.parametrize("pq, m", [((3, 5), 512), ((5, 8), 16)])
def test_profile_samples_on_first_access_bit_for_bit(pq, m, first, cases):
    """Whatever is read first, each attribute is the chart samples' value,
    bit for bit, and is kept for later reads."""
    prof = GeodesicProfile(cases.solution(pq), m)
    want = sampled_directly(prof)
    got = {name: getattr(prof, name) for name in (*first, *want)}
    for name, value in want.items():
        assert np.asarray(got[name]).tobytes() == np.asarray(value).tobytes(), name
        assert getattr(prof, name) is got[name], name
    assert isinstance(got["unit_speed_residual"], float)


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
