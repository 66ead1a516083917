"""Closed geodesics on the two orbit spheres and their period functions.

An Otsuki torus is indexed by a reduced fraction p/q in (1/2, sqrt(2)/2).
Its generating geodesic lives on a half-sphere with metric
4 pi^2 sin^2(nu) (d nu^2 + cos^2(nu) d lambda^2); the bipolar surface's
generating geodesic lives on a sphere with metric
4 pi^2 cos^2(phi) (d phi^2 + cos^2(phi) d theta^2).  Both geodesics
oscillate between turning values (nu in [a, pi/2 - a], phi in [-b, b])
and are closed exactly when the angle advance per half-oscillation is a
rational multiple of pi.

The two charts are linked by cos^4 b = 4 sin^2 a cos^2 a, and the angle
advances agree: omega(a) = xi(b(a)).

All turning-point integrals are regularized before quadrature:

  * phi-side: sin(phi) = sin(b) cos(x), x in [0, pi] per half-oscillation,
  * nu-side:  cos(2 nu) = cos(2 a) cos(chi), chi in [0, pi],

which removes the square-root endpoint singularities.  Scalar period
values use adaptive Gauss-Kronrod quadrature on the regularized
integrands; cumulative profile tables use fixed-order Gauss-Legendre
panels (the substituted integrands are analytic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .elliptic import complete_E, complete_K, complete_Pi
from .errors import DomainError, NoRoot, ResolutionTooCoarse

_QUARTER_PI = 0.25 * math.pi
_HALF_PI = 0.5 * math.pi

# 10-point Gauss-Legendre rule used per panel for cumulative tables.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class RotationNumber:
    """A reduced fraction p/q with 1/2 < p/q < sqrt(2)/2."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise ValueError("p and q must be integers")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not reduced (gcd != 1)")
        ratio = self.p / self.q
        if not 0.5 < ratio < math.sqrt(0.5):
            raise ValueError(
                f"p/q = {self.p}/{self.q} outside (1/2, sqrt(2)/2)"
            )

    @property
    def target_angle(self) -> float:
        """Required half-oscillation angle advance, p*pi/q."""
        return self.p * math.pi / self.q

    @property
    def even_q(self) -> bool:
        return self.q % 2 == 0

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class OtsukiSolution:
    """Solved geometric data for one torus and its bipolar surface.

    a        -- minimal nu on the torus-side geodesic, in (0, pi/4)
    b        -- maximal |phi| on the bipolar-side geodesic, in (0, pi/2)
    c        -- angular-momentum integral sin(a) cos(a)
    t0       -- period of the bipolar geodesic in its natural parameter
    s_total  -- period of the torus-side geodesic
    """

    rotation: RotationNumber
    a: float
    b: float
    c: float
    t0: float
    s_total: float
    omega_residual: float = 0.0

    @property
    def t_half(self) -> float:
        """Length of one phi half-oscillation, t0/(2q)."""
        return self.t0 / (2 * self.rotation.q)

    @property
    def s_half(self) -> float:
        """Length of one nu half-oscillation, s_total/(2q)."""
        return self.s_total / (2 * self.rotation.q)


def _check_a(a: float) -> float:
    a = float(a)
    if not math.isfinite(a) or not 0.0 < a <= _QUARTER_PI:
        raise DomainError(f"a must lie in (0, pi/4], got {a!r}")
    return a


def _nu_of_chi(a: float, chi):
    """Turning-free chart of the nu half-oscillation: cos(2 nu) = cos(2a) cos(chi)."""
    return 0.5 * np.arccos(np.clip(math.cos(2.0 * a) * np.cos(chi), -1.0, 1.0))


# The scalar forms below serve the ``quad`` integrands, where numpy calls on
# 0-d values cost ~15 us each.  They keep np.arccos and np.arcsin: math.acos
# and math.asin differ from them in the last bit on some inputs, while
# math.sin, math.cos and math.sqrt agree with numpy exactly, so the period
# values stay bitwise equal to the vectorized forms.  Squares stay ``** 2``:
# ``x * x`` differs from numpy's scalar power in the last bit on some inputs.

def _nu_of_chi_scalar(cos_2a: float, chi: float) -> float:
    return 0.5 * float(np.arccos(min(max(cos_2a * math.cos(chi), -1.0), 1.0)))


def _sinc(x: float) -> float:
    """sin(x)/x, stable at 0."""
    return 1.0 if x == 0.0 else math.sin(x) / x


def _omega_small_a(a: float) -> float:
    """Period angle for small turning values.

    Splitting the defining integral at the equator and folding the upper
    half onto the lower brings it to

        c * int_0^{pi/2-2a} (sec(a+y/2) + csc(a+y/2))
                            / sqrt(sin(y) sin(y+4a)) dy.

    The substitution y = 4a sinh^2(u/2) cancels the sqrt(y (y+4a))
    singularity exactly, leaving an analytic integrand that decays like
    sech(u); this stays well-conditioned down to a ~ 1e-12 where the
    direct chart develops an unresolvable boundary layer.
    """
    c = math.sin(a) * math.cos(a)
    y_max = _HALF_PI - 2.0 * a
    u_max = 2.0 * math.asinh(math.sqrt(y_max / (4.0 * a)))

    def integrand(u):
        y = 4.0 * a * math.sinh(0.5 * u) ** 2
        m = a + 0.5 * y
        kernel = 1.0 / math.sqrt(_sinc(y) * _sinc(y + 4.0 * a))
        return c * (1.0 / math.cos(m) + 1.0 / math.sin(m)) * kernel

    val, _ = quad(integrand, 0.0, u_max, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def omega(a: float) -> float:
    """Angle advance of the torus-side geodesic per half-oscillation.

    Strictly increasing from pi/2 (a -> 0) to pi/sqrt(2) (a = pi/4).
    """
    a = _check_a(a)
    if a < 0.05:
        return _omega_small_a(a)
    c = math.sin(a) * math.cos(a)
    cos_2a = math.cos(2.0 * a)

    def integrand(chi):
        nu = _nu_of_chi_scalar(cos_2a, chi)
        return c / (math.cos(nu) * math.sin(2.0 * nu))

    val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=800)
    return val


def b_of_a(a: float) -> float:
    """Turning value of the bipolar chart: cos^4 b = 4 sin^2 a cos^2 a."""
    a = _check_a(a)
    return math.acos(math.sqrt(math.sin(2.0 * a)))


def a_of_b(b: float) -> float:
    """Inverse of ``b_of_a`` on (0, pi/2) -> (0, pi/4)."""
    b = float(b)
    if not 0.0 <= b < _HALF_PI:
        raise DomainError(f"b must lie in [0, pi/2), got {b!r}")
    return 0.5 * math.asin(math.cos(b) ** 2)


def _check_b_open(b: float) -> float:
    b = float(b)
    if not math.isfinite(b) or not 0.0 < b < _HALF_PI:
        raise DomainError(f"b must lie in (0, pi/2), got {b!r}")
    return b


def xi(b: float) -> float:
    """Angle advance of the bipolar-side geodesic per half-oscillation.

    Evaluated through the closed elliptic form
    2 (1-n)/sqrt(2-n) * Pi(n, sqrt(n/(2-n))) with n = sin^2 b; strictly
    decreasing from pi/sqrt(2) (b -> 0) to pi/2 (b -> pi/2).
    """
    b = _check_b_open(b)
    n = math.sin(b) ** 2
    k = math.sqrt(n / (2.0 - n))
    return 2.0 * (1.0 - n) / math.sqrt(2.0 - n) * complete_Pi(n, k)


def xi_derivative(n: float) -> float:
    """d xi / dn with n = sin^2 b; strictly negative on (0, 1).

    Closed form (E(k) - K(k)) / (n sqrt(2-n)) with k = sqrt(n/(2-n)),
    validated against finite differences and against the chain rule
    through the derivatives of the third-kind integral.
    """
    n = float(n)
    if not math.isfinite(n) or not 0.0 < n < 1.0:
        raise DomainError(f"n must lie in (0, 1), got {n!r}")
    k = math.sqrt(n / (2.0 - n))
    return (complete_E(k) - complete_K(k)) / (n * math.sqrt(2.0 - n))


def _check_b_closed_open(b: float) -> float:
    b = float(b)
    if not math.isfinite(b) or not 0.0 <= b < _HALF_PI:
        raise DomainError(f"b must lie in [0, pi/2), got {b!r}")
    return b


def _profile_modulus(b: float) -> float:
    # k^2 = sin^2 b / (1 + cos^2 b)
    return math.sqrt(math.sin(b) ** 2 / (1.0 + math.cos(b) ** 2))


def i1(b: float) -> float:
    """Closed form of the quintic profile integral
    int_{-b}^{b} cos^5(phi) / sqrt(cos^4 phi - cos^4 b) dphi."""
    b = _check_b_closed_open(b)
    k = _profile_modulus(b)
    m = k * k
    e, kk = complete_E(k), complete_K(k)
    return (4.0 / 3.0) * math.sqrt(2.0 / (1.0 + m)) * (
        e - (1.0 - m) * (1.0 + 3.0 * m) / (4.0 * (1.0 + m)) * kk
    )


def i2(b: float) -> float:
    """Closed form of the cubic profile integral
    int_{-b}^{b} cos^3(phi) / sqrt(cos^4 phi - cos^4 b) dphi.

    Strictly decreasing with i2(0) = pi/sqrt(2); one half-oscillation of
    the bipolar geodesic has length 2 pi i2(b).
    """
    b = _check_b_closed_open(b)
    k = _profile_modulus(b)
    m = k * k
    return 2.0 * math.sqrt(2.0 / (1.0 + m)) * (
        complete_E(k) - 0.5 * (1.0 - m) * complete_K(k)
    )


def i_ratio(b: float) -> float:
    """pi^2 i1(b) / i2(b)^3: strictly below 2 and decreasing in b."""
    b = _check_b_open(b)
    return math.pi ** 2 * i1(b) / i2(b) ** 3


def _bipolar_speeds(b: float):
    """dt/dx and dtheta/dx on the substituted half-oscillation chart.

    x in [0, pi] with sin(phi) = sin(b) cos(x); phi runs b -> -b.
    """
    sb = math.sin(b)
    cb2 = math.cos(b) ** 2

    def phi_of_x(x):
        return np.arcsin(np.clip(sb * np.cos(x), -1.0, 1.0))

    def dt_dx(x):
        c2 = np.cos(phi_of_x(x)) ** 2
        return 2.0 * math.pi * c2 / np.sqrt(c2 + cb2)

    def dtheta_dx(x):
        c2 = np.cos(phi_of_x(x)) ** 2
        return cb2 / (c2 * np.sqrt(c2 + cb2))

    return phi_of_x, dt_dx, dtheta_dx


def _torus_speeds(a: float):
    """ds/dchi and dlambda/dchi on the substituted nu half-oscillation chart."""
    c = math.sin(a) * math.cos(a)

    def nu_of(chi):
        return _nu_of_chi(a, chi)

    def ds_dchi(chi):
        return math.pi * np.sin(nu_of(chi))

    def dlam_dchi(chi):
        nu = nu_of(chi)
        return c / (2.0 * np.sin(nu) * np.cos(nu) ** 2)

    return nu_of, ds_dchi, dlam_dchi


def bipolar_half_period(b: float) -> float:
    """Half-oscillation length of the bipolar geodesic by direct quadrature."""
    b = _check_b_closed_open(b)
    sb = math.sin(b)
    cb2 = math.cos(b) ** 2

    def dt_dx(x):
        phi = float(np.arcsin(min(max(sb * math.cos(x), -1.0), 1.0)))
        c2 = math.cos(phi) ** 2
        return 2.0 * math.pi * c2 / math.sqrt(c2 + cb2)

    val, _ = quad(dt_dx, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def torus_half_period(a: float) -> float:
    """Half-oscillation length of the torus-side geodesic by direct quadrature."""
    a = _check_a(a)
    cos_2a = math.cos(2.0 * a)
    val, _ = quad(lambda chi: math.pi * math.sin(_nu_of_chi_scalar(cos_2a, chi)),
                  0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def solve_rotation(r: RotationNumber) -> OtsukiSolution:
    """Solve omega(a) = p pi / q for the turning value a.

    The period function is strictly increasing on (0, pi/4], so a
    bracketing solve (bisection refined by inverse interpolation, via
    Brent) converges to |omega(a) - p pi/q| < 1e-11.
    """
    if not isinstance(r, RotationNumber):
        r = RotationNumber(*r)
    target = r.target_angle
    if not _HALF_PI < target < math.pi / math.sqrt(2.0):
        raise NoRoot(f"target angle {target} outside (pi/2, pi/sqrt(2))")

    lo, hi = 1e-4, _QUARTER_PI
    # omega decreases to pi/2 as a -> 0; widen the bracket for targets
    # very close to the lower limit.
    while omega(lo) > target:
        lo *= 1e-2
        if lo < 1e-14:
            raise NoRoot("failed to bracket the period equation near a = 0")

    a = brentq(lambda x: omega(x) - target, lo, hi, xtol=1e-15, rtol=8.9e-16,
               maxiter=200)
    residual = omega(a) - target

    b = b_of_a(a)
    c = math.sin(a) * math.cos(a)
    t0 = 2 * r.q * bipolar_half_period(b)
    s_total = 2 * r.q * torus_half_period(a)
    return OtsukiSolution(rotation=r, a=a, b=b, c=c, t0=t0, s_total=s_total,
                          omega_residual=residual)


# ---------------------------------------------------------------------------
# Sampled profiles


def _cumulative_table(fns, n_panels: int):
    """Cumulative integrals of the vectorized integrands over [0, pi].

    Returns the panel edges and one cumulative array per integrand,
    integrated with a fixed-order Gauss-Legendre rule per panel.
    """
    edges = np.linspace(0.0, math.pi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = mids[:, None] + half * _GL_NODES[None, :]
    flat = nodes.ravel()
    out = []
    for fn in fns:
        vals = np.asarray(fn(flat)).reshape(nodes.shape)
        panel = half * (vals * _GL_WEIGHTS).sum(axis=1)
        out.append(np.concatenate(([0.0], np.cumsum(panel))))
    return edges, out


class _HalfOscillation:
    """Monotone half-oscillation chart with spline inversion.

    Maps the arclength-like parameter u in [0, length] to the substituted
    angle x(u) in [0, pi] and the accumulated swept angle ang(u).
    """

    def __init__(self, x_grid, u_of_x, ang_of_x):
        self.length = float(u_of_x[-1])
        self.angle_advance = float(ang_of_x[-1])
        # u(x) is strictly increasing; invert by spline.  Both x(u) and
        # ang(u) have vanishing second derivative at the endpoints, so
        # natural boundary conditions are exact.
        self._x_of_u = CubicSpline(u_of_x, x_grid, bc_type="natural")
        self._ang_of_u = CubicSpline(u_of_x, ang_of_x, bc_type="natural")

    def x(self, u):
        return np.clip(self._x_of_u(np.clip(u, 0.0, self.length)), 0.0, math.pi)

    def angle(self, u):
        return self._ang_of_u(np.clip(u, 0.0, self.length))


class GeodesicProfile:
    """Sampled closed geodesic on both orbit spheres.

    Exposes uniform samples over one full period (attributes ``t_grid``,
    ``phi``, ``theta`` on the bipolar side; ``s_grid``, ``nu``,
    ``lambda_angle`` on the torus side) plus vectorized evaluators valid
    for any parameter value, with velocities from the first integrals of
    the geodesic flow rather than numerical differentiation.

    The phase convention puts t = 0 at a turning point with
    phi(0) = b, theta(0) = 0 (phi decreasing), and s = 0 at nu(0) = a,
    lambda(0) = 0 (nu increasing).
    """

    def __init__(self, solution: OtsukiSolution, samples_per_half_period: int = 512,
                 table_panels: int = 2048):
        if samples_per_half_period < 16:
            raise ValueError("samples_per_half_period must be at least 16")
        self.solution = solution
        self.samples_per_half_period = int(samples_per_half_period)
        a, b = solution.a, solution.b
        q = solution.rotation.q

        phi_of_x, dt_dx, dtheta_dx = _bipolar_speeds(b)
        x_edges, (t_of_x, theta_of_x) = _cumulative_table((dt_dx, dtheta_dx),
                                                          table_panels)
        self._phi_of_x = phi_of_x
        self._dt_dx = dt_dx
        self._x_edges, self._t_of_x_table = x_edges, t_of_x
        self._bip = _HalfOscillation(x_edges, t_of_x, theta_of_x)

        nu_of_chi, ds_dchi, dlam_dchi = _torus_speeds(a)
        chi_edges, (s_of_chi, lam_of_chi) = _cumulative_table(
            (ds_dchi, dlam_dchi), table_panels)
        self._nu_of_chi_fn = nu_of_chi
        self._tor = _HalfOscillation(chi_edges, s_of_chi, lam_of_chi)

        self.t_half = self._bip.length
        self.s_half = self._tor.length
        self.xi_half = self._bip.angle_advance
        self.omega_half = self._tor.angle_advance
        self.t0 = 2 * q * self.t_half
        self.s_total = 2 * q * self.s_half

        m = self.samples_per_half_period
        n = 2 * q * m
        self.t_grid = np.arange(n) * (self.t0 / n)
        self.phi = self.phi_at(self.t_grid)
        self.theta = self.theta_at(self.t_grid)
        self.s_grid = np.arange(n) * (self.s_total / n)
        self.nu = self.nu_at(self.s_grid)
        self.lambda_angle = self.lambda_at(self.s_grid)

        self.unit_speed_residual = self._unit_speed_residual()
        if self.unit_speed_residual > 1e-5:
            raise ResolutionTooCoarse(
                f"unit-speed residual {self.unit_speed_residual:.3e} exceeds 1e-5 "
                f"at {samples_per_half_period} samples per half-oscillation"
            )

    # -- bipolar side -------------------------------------------------

    def _fold_t(self, t):
        """Reduce t to (half-oscillation parity, local parameter)."""
        u = np.asarray(t, dtype=float) % self.t0
        d = np.floor(u / self.t_half).astype(int)
        d = np.minimum(d, 2 * self.solution.rotation.q - 1)
        r = u - d * self.t_half
        return d, np.clip(r, 0.0, self.t_half)

    def phi_at(self, t):
        d, r = self._fold_t(t)
        r_eff = np.where(d % 2 == 0, r, self.t_half - r)
        out = self._phi_of_x(self._bip.x(r_eff))
        return out if out.shape else float(out)

    def theta_at(self, t):
        t = np.asarray(t, dtype=float)
        turns = np.floor(t / self.t0)
        d, r = self._fold_t(t)
        even = d % 2 == 0
        local = np.where(even,
                         d * self.xi_half + self._bip.angle(r),
                         (d + 1) * self.xi_half
                         - self._bip.angle(self.t_half - r))
        out = local + turns * (2 * self.solution.rotation.q * self.xi_half)
        return out if out.shape else float(out)

    def t_of_x(self, x):
        """Parameter t at chart values x >= 0, where sin(phi) = sin(b) cos(x).

        The forward map of the chart: t(k pi + r) = k t_half + tau(r),
        with tau read from the cumulative dt/dx table at the nearest
        panel edge below r plus one Gauss-Legendre panel up to r, so it
        agrees with ``t_half`` and ``t0`` to rounding.
        """
        x = np.asarray(x, dtype=float)
        turns = np.floor(x / math.pi)
        r = x - turns * math.pi
        edges = self._x_edges
        i = np.minimum((r / edges[1]).astype(int), edges.size - 2)
        half = 0.5 * (r - edges[i])
        nodes = (edges[i] + half)[..., None] + half[..., None] * _GL_NODES
        tau = self._t_of_x_table[i] + half * (self._dt_dx(nodes)
                                              * _GL_WEIGHTS).sum(axis=-1)
        out = turns * self.t_half + tau
        return out if out.shape else float(out)

    def phi_dot_at(self, t):
        """Velocity d phi/dt from the first integral, with the segment sign."""
        d, _ = self._fold_t(t)
        phi = np.asarray(self.phi_at(t))
        c4b = math.cos(self.solution.b) ** 4
        cphi = np.cos(phi)
        mag = np.sqrt(np.maximum(cphi ** 4 - c4b, 0.0)) / (2.0 * math.pi * cphi ** 3)
        out = np.where(d % 2 == 0, -mag, mag)
        return out if out.shape else float(out)

    def theta_dot_at(self, t):
        phi = np.asarray(self.phi_at(t))
        out = math.cos(self.solution.b) ** 2 / (2.0 * math.pi * np.cos(phi) ** 4)
        return out if out.shape else float(out)

    # -- torus side ----------------------------------------------------

    def _fold_s(self, s):
        u = np.asarray(s, dtype=float) % self.s_total
        d = np.floor(u / self.s_half).astype(int)
        d = np.minimum(d, 2 * self.solution.rotation.q - 1)
        r = u - d * self.s_half
        return d, np.clip(r, 0.0, self.s_half)

    def nu_at(self, s):
        d, r = self._fold_s(s)
        r_eff = np.where(d % 2 == 0, r, self.s_half - r)
        out = self._nu_of_chi_fn(self._tor.x(r_eff))
        return out if out.shape else float(out)

    def lambda_at(self, s):
        s = np.asarray(s, dtype=float)
        turns = np.floor(s / self.s_total)
        d, r = self._fold_s(s)
        even = d % 2 == 0
        local = np.where(even,
                         d * self.omega_half + self._tor.angle(r),
                         (d + 1) * self.omega_half
                         - self._tor.angle(self.s_half - r))
        out = local + turns * (2 * self.solution.rotation.q * self.omega_half)
        return out if out.shape else float(out)

    def nu_dot_at(self, s):
        d, _ = self._fold_s(s)
        nu = np.asarray(self.nu_at(s))
        c2 = self.solution.c ** 2
        sn, cn = np.sin(nu), np.cos(nu)
        mag = np.sqrt(np.maximum(sn ** 2 * cn ** 2 - c2, 0.0)) / (
            2.0 * math.pi * sn ** 2 * cn)
        out = np.where(d % 2 == 0, mag, -mag)
        return out if out.shape else float(out)

    def lambda_dot_at(self, s):
        nu = np.asarray(self.nu_at(s))
        out = self.solution.c / (2.0 * math.pi * np.cos(nu) ** 2 * np.sin(nu) ** 2)
        return out if out.shape else float(out)

    # -- diagnostics ----------------------------------------------------

    def _unit_speed_residual(self) -> float:
        """Max deviation of the finite-differenced speed from 1.

        Uses 4th-order centered differences of the sampled phi, theta as
        a resolution diagnostic (the closed-form velocities satisfy the
        speed identity exactly and would hide undersampling).
        """
        n = self.t_grid.size
        h = self.t0 / n

        def d6(f):
            return (np.roll(f, -3) - 9 * np.roll(f, -2) + 45 * np.roll(f, -1)
                    - 45 * np.roll(f, 1) + 9 * np.roll(f, 2)
                    - np.roll(f, 3)) / (60.0 * h)

        # theta is periodic only after removing its winding part.
        slope = 2 * self.solution.rotation.p * math.pi / self.t0
        dphi = d6(self.phi)
        dth = slope + d6(self.theta - slope * self.t_grid)
        c2 = np.cos(self.phi) ** 2
        speed = 4.0 * math.pi ** 2 * c2 * (dphi ** 2 + dth ** 2 * c2)
        return float(np.max(np.abs(speed - 1.0)))

    def cos2_phi_at(self, t):
        phi = np.asarray(self.phi_at(t))
        out = np.cos(phi) ** 2
        return out if out.shape else float(out)


def profile(sol: OtsukiSolution, samples_per_half_period: int = 512) -> GeodesicProfile:
    """Build the sampled geodesic profile for a solved rotation number."""
    return GeodesicProfile(sol, samples_per_half_period)
