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

which removes the square-root endpoint singularities.  The closure
equation is solved on the closed elliptic form of xi, by Brent's method
(``_brent``); omega and the half-periods of both geodesics are adaptive
Gauss-Kronrod quadratures of the regularized integrands (``_integrate``,
numpy-vectorized over the nodes), a second route to what the closed form
and the charts give.  The substituted integrands are analytic and periodic,
so the profiles integrate their Fourier series term by term
(``_HalfChart``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import elliprd, elliprf, elliprj
from .errors import (
    ConvergenceFailure,
    IntegrationFailure,
    NoRoot,
    ResolutionTooCoarse,
    in_interval,
)

_QUARTER_PI = 0.25 * math.pi
_HALF_PI = 0.5 * math.pi


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


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21): the Kronrod nodes on
# [0, 1], the centre last, with their weights, and the weights of the
# 10-point Gauss rule on every second node from the outermost.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208532029012, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# On [-1, 1], nodes ascending, as one matrix: a panel's 21 values of f
# times it give the Kronrod sum, the Kronrod sum less the Gauss sum, the
# 21 values themselves and their 21 deviations from half the Kronrod sum.
_GK_NODES = np.array([-v for v in _XGK[:-1]] + list(_XGK[::-1]))
_GK_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[11:20:2] = _WG[::-1]
_GK_SUMS = np.column_stack([
    _GK_WEIGHTS, _GK_WEIGHTS - _G_WEIGHTS, np.eye(21),
    np.eye(21) - 0.5 * np.outer(_GK_WEIGHTS, np.ones(21))])
# Nodes of the panel [lo, hi] as lo (1 - t)/2 + hi (1 + t)/2.
_GK_ENDS = np.stack([0.5 * (1.0 - _GK_NODES), 0.5 * (1.0 + _GK_NODES)])
_EPS = float(np.finfo(float).eps)


def _kronrod_panels(f, lo: list, hi: list) -> tuple[list, list]:
    """The 21-point Kronrod value of each panel [lo[i], hi[i]] and
    QUADPACK's error estimate of it (dqk21), from one call of f on every
    node: |Kronrod - Gauss|, rescaled by the spread of f about its panel
    mean, and at least 50 eps times the panel's integral of |f|."""
    sums = f(np.array([lo, hi]).T @ _GK_ENDS) @ _GK_SUMS
    n = len(lo)
    size, spread = (np.abs(sums[:, 2:]).reshape(n, 2, 21) @ _GK_WEIGHTS).T
    vals, errs = [], []
    for left, right, (k, kg), ab, asc in zip(lo, hi, sums[:, :2].tolist(),
                                             size.tolist(), spread.tolist()):
        half = 0.5 * (right - left)
        err, asc = half * abs(kg), half * asc
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        vals.append(half * k)
        errs.append(max(50.0 * _EPS * half * ab, err))
    return vals, errs


def _integrate(f, a: float, b: float, epsabs: float, epsrel: float,
               limit: int) -> float:
    """Integral of the vectorized f over [a, b], a < b, by QUADPACK's
    21-point Gauss-Kronrod rule, adaptively.

    While the panels' error estimates sum to more than
    max(epsabs, epsrel |integral|), the fewest panels of largest error
    whose errors cover the excess are halved, all of them in one call of
    f.  QUADPACK halves the panel of largest error one at a time; where
    each halving resolves its panel, as on the analytic integrands here,
    it halves the same panels.  IntegrationFailure once ``limit`` panels
    do not reach the tolerance.
    """
    lo, hi = [a], [b]
    val, err = _kronrod_panels(f, lo, hi)
    while True:
        total = sum(val)
        tol = max(epsabs, epsrel * abs(total))
        excess = sum(err) - tol
        if excess <= 0.0:
            return total
        room = limit - len(val)
        if room <= 0:
            raise IntegrationFailure(
                f"quadrature over [{a:.17g}, {b:.17g}] keeps an error"
                f" estimate of {excess + tol:.3e} at {limit} panels"
                f" (tolerance {tol:.3e})")
        split = []
        for i in sorted(range(len(err)), key=err.__getitem__, reverse=True):
            split.append(i)
            excess -= err[i]
            if excess <= 0.0 or len(split) == room:
                break
        mid = [0.5 * (lo[i] + hi[i]) for i in split]
        new_lo = [lo[i] for i in split] + mid
        new_hi = mid + [hi[i] for i in split]
        new_val, new_err = _kronrod_panels(f, new_lo, new_hi)
        keep = sorted(set(range(len(val))).difference(split))
        lo = [lo[i] for i in keep] + new_lo
        hi = [hi[i] for i in keep] + new_hi
        val = [val[i] for i in keep] + new_val
        err = [err[i] for i in keep] + new_err


def _brent(f, lo: float, hi: float, xtol: float, rtol: float,
           maxiter: int) -> float:
    """Root of f in [lo, hi], where f changes sign, by Brent's method in
    the steps of scipy's ``brentq``: inverse quadratic or secant steps
    where they shrink the bracket fast enough, bisection otherwise, until
    the bracket is narrower than xtol + rtol |x|.  NoRoot when f does not
    change sign on [lo, hi]; ConvergenceFailure after ``maxiter`` steps.
    """
    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoRoot(f"f does not change sign on [{lo!r}, {hi!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise ConvergenceFailure(f"Brent's method did not converge in {maxiter}"
                             " steps")


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
        y = 4.0 * a * np.sinh(0.5 * u) ** 2
        m = a + 0.5 * y
        kernel = 1.0 / np.sqrt(_sinc(y) * _sinc(y + 4.0 * a))
        return c * (1.0 / np.cos(m) + 1.0 / np.sin(m)) * kernel

    return _integrate(integrand, 0.0, u_max, 1e-14, 1e-13, 400)


def _sinc(x):
    """sin(x)/x, 1 at 0."""
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def _nu_of_chi(cos_2a: float, chi):
    """nu of the torus-side chart, cos(2 nu) = cos(2a) cos(chi); the
    product of two cosines needs no clipping to [-1, 1]."""
    return 0.5 * np.arccos(cos_2a * np.cos(chi))


def omega(a: float) -> float:
    """Angle advance of the torus-side geodesic per half-oscillation.

    Strictly increasing from pi/2 (a -> 0) to pi/sqrt(2) (a = pi/4).
    """
    a = in_interval(a, "a", 0.0, _QUARTER_PI, hi_closed=True)
    if a < 0.05:
        return _omega_small_a(a)
    c = math.sin(a) * math.cos(a)
    cos_2a = math.cos(2.0 * a)

    def integrand(chi):
        nu = _nu_of_chi(cos_2a, chi)
        return c / (np.cos(nu) * np.sin(2.0 * nu))

    return _integrate(integrand, 0.0, math.pi, 1e-13, 1e-13, 800)


def b_of_a(a: float) -> float:
    """Turning value of the bipolar chart: cos^4 b = 4 sin^2 a cos^2 a."""
    a = in_interval(a, "a", 0.0, _QUARTER_PI, hi_closed=True)
    return math.acos(math.sqrt(math.sin(2.0 * a)))


def a_of_b(b: float) -> float:
    """Inverse of ``b_of_a`` on (0, pi/2) -> (0, pi/4)."""
    b = in_interval(b, "b", 0.0, _HALF_PI, lo_closed=True)
    return 0.5 * math.asin(math.cos(b) ** 2)


def _xi_of_s(s: float) -> float:
    """xi as a function of s = cos^2 b = sin 2a, for s in (0, 1].

    The closed form 2 (1-n)/sqrt(2-n) * Pi(n, k), n = sin^2 b,
    k^2 = n/(2-n), reads Carlson's forms at 1 - n = s and
    1 - k^2 = 2s/(1+s):

        Pi(n, k) = R_F(0, 1-k^2, 1) + n/3 R_J(0, 1-k^2, 1, 1-n).

    Both complements are passed as computed from s, never as 1 - n, so
    the value keeps full accuracy as b -> pi/2 (s -> 0).
    """
    y = 2.0 * s / (1.0 + s)
    pi_nk = elliprf(0.0, y, 1.0) + (1.0 - s) / 3.0 * elliprj(0.0, y, 1.0, s)
    return 2.0 * s / math.sqrt(1.0 + s) * pi_nk


def xi(b: float) -> float:
    """Angle advance of the bipolar-side geodesic per half-oscillation.

    Evaluated through the closed elliptic form
    2 (1-n)/sqrt(2-n) * Pi(n, sqrt(n/(2-n))) with n = sin^2 b, from
    cos^2 b = 1 - n (``_xi_of_s``); strictly decreasing from pi/sqrt(2)
    (b -> 0) to pi/2 (b -> pi/2).
    """
    b = in_interval(b, "b", 0.0, _HALF_PI)
    return _xi_of_s(math.cos(b) ** 2)


def xi_derivative(n: float) -> float:
    """d xi / dn with n = sin^2 b; strictly negative on (0, 1).

    Closed form (E(k) - K(k)) / (n sqrt(2-n)) with k = sqrt(n/(2-n)),
    validated against finite differences and against the chain rule
    through the derivatives of the third-kind integral.  As
    E - K = -(k^2/3) R_D(0, 1-k^2, 1), it reads

        d xi / dn = -R_D(0, 1-k^2, 1) / (3 (2-n)^(3/2)),

    with 1 - k^2 = 2(1-n)/(2-n) formed from 1 - n, so it keeps full
    accuracy as n -> 1.
    """
    n = in_interval(n, "n", 0.0, 1.0)
    rest = 2.0 - n
    return (-elliprd(0.0, 2.0 * (1.0 - n) / rest, 1.0)
            / (3.0 * rest * math.sqrt(rest)))


def _profile_elliptic(b: float) -> tuple[float, float, float, float]:
    """k^2, 1 - k^2, K(k) and E(k) of the profile modulus
    k^2 = sin^2 b / (1 + cos^2 b).

    1 - k^2 = 2 cos^2 b / (1 + cos^2 b) is formed from cos b and passed
    to Carlson's forms directly, K = R_F(0, 1-k^2, 1) and
    E = K - (k^2/3) R_D(0, 1-k^2, 1), so b may come as close to pi/2 as
    cos b stays positive.
    """
    cos2 = math.cos(b) ** 2
    m = math.sin(b) ** 2 / (1.0 + cos2)
    y = 2.0 * cos2 / (1.0 + cos2)
    kk = elliprf(0.0, y, 1.0)
    return m, y, kk, kk - m / 3.0 * elliprd(0.0, y, 1.0)


def i1(b: float) -> float:
    """Closed form of the quintic profile integral
    int_{-b}^{b} cos^5(phi) / sqrt(cos^4 phi - cos^4 b) dphi."""
    b = in_interval(b, "b", 0.0, _HALF_PI, lo_closed=True)
    m, y, kk, e = _profile_elliptic(b)
    return (4.0 / 3.0) * math.sqrt(2.0 / (1.0 + m)) * (
        e - y * (1.0 + 3.0 * m) / (4.0 * (1.0 + m)) * kk
    )


def i2(b: float) -> float:
    """Closed form of the cubic profile integral
    int_{-b}^{b} cos^3(phi) / sqrt(cos^4 phi - cos^4 b) dphi.

    Strictly decreasing with i2(0) = pi/sqrt(2); one half-oscillation of
    the bipolar geodesic has length 2 pi i2(b).
    """
    b = in_interval(b, "b", 0.0, _HALF_PI, lo_closed=True)
    m, y, kk, e = _profile_elliptic(b)
    return 2.0 * math.sqrt(2.0 / (1.0 + m)) * (e - 0.5 * y * kk)


def i_ratio(b: float) -> float:
    """pi^2 i1(b) / i2(b)^3: strictly below 2 and decreasing in b."""
    b = in_interval(b, "b", 0.0, _HALF_PI)
    return math.pi ** 2 * i1(b) / i2(b) ** 3


def bipolar_half_period(b: float) -> float:
    """Half-oscillation length of the bipolar geodesic by direct quadrature
    of dt/dx = W (``radial_coefficients``) over x in [0, pi]."""
    b = in_interval(b, "b", 0.0, _HALF_PI, lo_closed=True)
    return _integrate(lambda x: radial_coefficients(b, x)[2], 0.0, math.pi,
                      1e-13, 1e-13, 400)


def torus_half_period(a: float) -> float:
    """Half-oscillation length of the torus-side geodesic by direct quadrature."""
    a = in_interval(a, "a", 0.0, _QUARTER_PI, hi_closed=True)
    cos_2a = math.cos(2.0 * a)
    return _integrate(lambda chi: math.pi * np.sin(_nu_of_chi(cos_2a, chi)),
                      0.0, math.pi, 1e-13, 1e-13, 400)


def solve_rotation(r: RotationNumber) -> OtsukiSolution:
    """Solve the closure equation xi(b(a)) = p pi / q for the turning value a.

    The root is bracketed on the closed form of xi, evaluated from
    s = sin 2a = cos^2 b, which is strictly increasing in a on (0, pi/4]:
    Brent's method on [1e-4, pi/4], the lower end moved toward 0 for
    targets very close to pi/2.  omega, the torus side's period function
    by quadrature, is then evaluated once, at the root, and
    ``omega_residual`` = omega(a) - p pi/q is how far the two independent
    period functions disagree there.  The periods t0 and s_total are 2q
    times the half-periods by quadrature (``bipolar_half_period`` and
    ``torus_half_period``), a second route beside the closed form
    2 pi i2(b) and the charts of ``GeodesicProfile``.
    """
    if not isinstance(r, RotationNumber):
        r = RotationNumber(*r)
    target = r.target_angle
    if not _HALF_PI < target < math.pi / math.sqrt(2.0):
        raise NoRoot(f"target angle {target} outside (pi/2, pi/sqrt(2))")

    def closure(x: float) -> float:
        return _xi_of_s(math.sin(2.0 * x)) - target

    lo, hi = 1e-4, _QUARTER_PI
    # xi decreases to pi/2 as a -> 0; widen the bracket for targets
    # very close to the lower limit.
    while closure(lo) > 0.0:
        lo *= 1e-2
        if lo < 1e-14:
            raise NoRoot("failed to bracket the period equation near a = 0")
    a = _brent(closure, lo, hi, 1e-15, 8.9e-16, 200)

    b = b_of_a(a)
    c = math.sin(a) * math.cos(a)
    t0 = 2 * r.q * bipolar_half_period(b)
    s_total = 2 * r.q * torus_half_period(a)
    return OtsukiSolution(rotation=r, a=a, b=b, c=c, t0=t0, s_total=s_total,
                          omega_residual=omega(a) - target)


# ---------------------------------------------------------------------------
# Analytic charts of the geodesics

_FIRST_SAMPLES = 2048    # samples per chart period of the first FFT
_MAX_SAMPLES = 2 ** 18   # a tail not resolved by then is taken as non-analytic
_TAIL = 1e-15            # coefficients below this share of sum |f_j| are rounding
_TABLE_REFINEMENT = 8    # table points per FFT node for Newton's first guess
_SERIES_BLOCK = 2 ** 18  # points times angles per group of a series evaluation
_NEWTON_STEPS = 30


def cos2_phi(b: float, x):
    """cos^2 phi at chart values x, where sin(phi) = sin(b) cos(x), as
    cos^2 b + sin^2 b sin^2 x: a sum of two non-negative terms, where
    1 - (sin b cos x)^2 would cancel near b = pi/2."""
    return math.cos(b) ** 2 + math.sin(b) ** 2 * np.sin(x) ** 2


def radial_coefficients(b: float, x):
    """P, S and W of the radial operator at chart values x.

    In the chart sin(phi) = sin(b) cos(x) of the bipolar geodesic,

        P = 2 pi sqrt(cos^2 phi + cos^2 b),
        S = 2 pi / sqrt(cos^2 phi + cos^2 b),
        W = dt/dx = 2 pi cos^2 phi / sqrt(cos^2 phi + cos^2 b),

    all analytic, even and pi-periodic in x.  cos^2 phi is taken as
    ``cos2_phi(b, x)``.
    """
    cos2 = cos2_phi(b, x)
    root = np.sqrt(cos2 + math.cos(b) ** 2)
    return (2.0 * math.pi * root, 2.0 * math.pi / root,
            2.0 * math.pi * cos2 / root)


def _last_term(f_hat) -> int:
    """Index of the last Fourier coefficient above the rounding noise."""
    size = np.abs(f_hat)
    return int(np.flatnonzero(size > _TAIL * (2.0 * size.sum() - size[0]))[-1])


def _sine_series(coef, k0: float, x):
    """sum_j coef[j-1] sin(j k0 x) at every x.

    Terms go in blocks of B ~ sqrt(J): sin((mB + k) y) =
    sin(mBy) cos(ky) + cos(mBy) sin(ky), so each point needs sines and
    cosines of only the B + J/B angles ky and mBy.  Points are taken in
    groups of bounded size.
    """
    block = math.isqrt(coef.size) + 1
    blocks = coef.size // block + 1
    c = np.zeros(blocks * block)
    c[1:coef.size + 1] = coef
    c = c.reshape(blocks, block).T.copy()   # c[k, m] multiplies sin((mB + k) y)
    k = np.arange(block)
    m = np.arange(blocks) * block
    flat = k0 * np.ravel(x)
    out = np.empty(flat.size)
    step = max(1, _SERIES_BLOCK // (block + blocks))
    for i in range(0, flat.size, step):
        y = flat[i:i + step, None]
        my = y * m
        out[i:i + step] = (np.sin(my) * (np.cos(y * k) @ c)
                           + np.cos(my) * (np.sin(y * k) @ c)).sum(axis=1)
    return out.reshape(np.shape(x))


class _HalfChart:
    """A geodesic in a turning-free chart x: ``coordinate(x)`` returns its
    closed-form coordinate and ``slope(x, coord)`` its x-derivative at
    x, given the coordinate there; ``rates(x)`` returns
    du/dx of the arc length u, d(angle)/dx of the swept angle and the
    rate of each further parameter, analytic and even in x with period
    ``period``; one half-oscillation is x in [0, pi], from a turning
    point at x = 0.  Each rate is held by its Fourier series
    f(x) = sum_j f_j e^{2 pi i j x / period} from an FFT of N samples per
    period: N starts at 2048 and doubles until the last coefficient above
    rounding of every rate lies below N/4 (else ResolutionTooCoarse), and
    the series are cut there.  ``integral(x, k)`` is the exact term-wise
    integral of rate k, zero at x = 0; ``u`` and ``angle`` are the first
    two, and ``x_of`` inverts u by Newton, from a table of u.  ``at(x)``
    adds their velocities per unit u: each x-derivative over du/dx.
    """

    def __init__(self, coordinate, slope, rates, period: float):
        self.period = period
        self.coordinate = coordinate
        self._slope = slope
        self.rates = rates
        n = _FIRST_SAMPLES
        while True:
            nodes = np.arange(n) * (period / n)
            hats = [np.fft.rfft(f).real / n for f in rates(nodes)]
            cuts = [_last_term(h) for h in hats]
            if max(cuts) < n // 4:
                break
            if n >= _MAX_SAMPLES:
                raise ResolutionTooCoarse(
                    f"chart rates keep terms above rounding up to j ="
                    f" {max(cuts)} at {n} samples per period")
            n *= 2
        self._k0 = k0 = 2.0 * math.pi / period
        self._series = [(f_hat[0], 2.0 * f_hat[1:cut + 1]
                         / (np.arange(1, cut + 1) * k0))
                        for f_hat, cut in zip(hats, cuts)]
        self.length, self.angle_advance = (
            math.pi * f0 for f0, _ in self._series[:2])
        # u on a grid finer than the FFT nodes, by one zero-padded inverse
        # FFT: the table of Newton's first guesses.
        u0, u_coef = self._series[0]
        fine = _TABLE_REFINEMENT * n
        spectrum = np.zeros(fine // 2 + 1, dtype=complex)
        spectrum[1:u_coef.size + 1] = -0.5j * fine * u_coef
        self._x_table = np.linspace(0.0, period, fine + 1)
        self._u_table = u0 * self._x_table + np.append(
            np.fft.irfft(spectrum, fine), 0.0)

    def integral(self, x, k: int):
        """Integral of rate k from 0 to x."""
        f0, coef = self._series[k]
        return f0 * x + _sine_series(coef, self._k0, x)

    def u(self, x):
        return self.integral(x, 0)

    def angle(self, x):
        return self.integral(x, 1)

    def at(self, x):
        """Coordinate, angle and their velocities per unit u at x."""
        coord = self.coordinate(x)
        du, dangle = self.rates(x)[:2]
        return coord, self.angle(x), self._slope(x, coord) / du, dangle / du

    def x_of(self, u):
        """Chart value x at arc lengths u (any real u)."""
        u = np.asarray(u, dtype=float)
        per_period = self._series[0][0] * self.period
        turns = np.floor(u / per_period)
        tau = u - turns * per_period
        x = np.interp(tau, self._u_table, self._x_table)
        for _ in range(_NEWTON_STEPS):
            step = (self.u(x) - tau) / self.rates(x)[0]
            x = x - step
            if np.all(np.abs(step) <= 1e-12):   # quadratic: x is now exact
                break
        else:
            raise ConvergenceFailure("Newton inversion of the chart did not converge")
        return turns * self.period + x

    def samples(self, per_half: int, halves: int):
        """x and angle on the u-grid of ``per_half`` steps per
        half-oscillation over ``halves`` half-oscillations: one period is
        evaluated and shifted by whole periods."""
        per_period = round(per_half * self.period / math.pi)
        x = self.x_of(np.arange(per_period) * (self.length / per_half))
        ang = self.angle(x)
        shift = np.arange(halves * per_half // per_period)[:, None]
        return ((x + shift * self.period).ravel(),
                (ang + shift * (self._series[1][0] * self.period)).ravel())


def bipolar_chart(b: float) -> _HalfChart:
    """phi = arcsin(sin(b) cos(x)), t and theta of the bipolar geodesic in
    its chart x: d phi/dx = -sin(b) sin(x) / cos(phi), dt/dx = W and
    dtheta/dx = W dtheta/dt = W cos^2 b / (2 pi cos^4 phi); period pi.
    cos phi is taken from ``cos2_phi``, not from phi."""
    sb, cb2 = math.sin(b), math.cos(b) ** 2

    def coordinate(x):
        return np.arcsin(sb * np.cos(x))

    def slope(x, phi):
        return -sb * np.sin(x) / np.sqrt(cos2_phi(b, x))

    def rates(x):
        w = radial_coefficients(b, x)[2]
        return w, cb2 * w / (2.0 * math.pi * cos2_phi(b, x) ** 2)

    return _HalfChart(coordinate, slope, rates, math.pi)


def _torus_chart(a: float) -> _HalfChart:
    """nu = arccos(cos(2a) cos(chi)) / 2, s, lambda and the bipolar
    parameter t of the torus-side geodesic in its chart chi: d nu/dchi =
    cos(2a) sin(chi) / (2 sin(2 nu)), ds/dchi = pi sin(nu),
    dlambda/dchi = c / (2 sin(nu) cos^2(nu)) and, as dt/ds =
    1 + c^2 / sin^4 nu, dt/dchi = pi sin(nu) (1 + c^2 / sin^4 nu); period
    2 pi.  t = ``integral(chi, 2)`` is zero at chi = 0, nu = a.

    sin^2 nu = sin^2 a + cos(2a) sin^2(chi/2) and
    cos^2 nu = sin^2 a + cos(2a) cos^2(chi/2) carry no cancellation at
    the turning points, where the rates peak when a is small.
    """
    c = math.sin(a) * math.cos(a)
    sa2, cos_2a = math.sin(a) ** 2, math.cos(2.0 * a)

    def coordinate(chi):
        return 0.5 * np.arccos(np.clip(cos_2a * np.cos(chi), -1.0, 1.0))

    def slope(chi, nu):
        return cos_2a * np.sin(chi) / (2.0 * np.sin(2.0 * nu))

    def rates(chi):
        sin2_nu = sa2 + cos_2a * np.sin(0.5 * chi) ** 2
        sin_nu = np.sqrt(sin2_nu)
        cos2_nu = sa2 + cos_2a * np.cos(0.5 * chi) ** 2
        ds = math.pi * sin_nu
        return (ds, c / (2.0 * sin_nu * cos2_nu),
                ds * (1.0 + c ** 2 / sin2_nu ** 2))

    return _HalfChart(coordinate, slope, rates, 2.0 * math.pi)


def _value(out):
    return out if out.shape else float(out)


class GeodesicProfile:
    """Closed geodesic on both orbit spheres, from its analytic charts.

    Exposes uniform samples over one full period (attributes ``t_grid``,
    ``phi``, ``theta`` on the bipolar side; ``s_grid``, ``nu``,
    ``lambda_angle`` on the torus side) and one evaluator per side,
    ``bipolar_at(t)`` and ``torus_at(s)``, each of which inverts its
    parameter once and returns the coordinate, the angle and their
    velocities; ``*_dot_at`` are projections of them, and ``phi_at``,
    ``theta_at``, ``nu_at`` and ``lambda_at`` read the same chart values.
    Every value comes from the two charts (``bipolar_chart``,
    sin(phi) = sin(b) cos(x); ``torus_chart``, cos(2 nu) = cos(2a) cos(chi),
    which also carries the bipolar parameter t as its third integral),
    which are exact to rounding and take velocities from the first
    integrals of the geodesic flow.  ``unit_speed_residual`` is
    max |4 pi^2 cos^2 phi (phi'^2 + theta'^2 cos^2 phi) - 1| over the
    samples.  ``table_panels`` is ignored.

    The constructor builds both charts and checks them, and samples
    nothing: it raises ValueError when ``samples_per_half_period`` is
    below 16, and ResolutionTooCoarse when the charts do not close the
    geodesic to 1e-10 or do not reproduce the quadrature periods t0 and
    s_total to 1e-10 relative.  Each sampled attribute is computed on its
    first access and kept; ``phi`` and ``theta`` share one sampling of
    the bipolar chart, ``nu`` and ``lambda_angle`` one of the torus chart.

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
        r = solution.rotation
        q = r.q
        self._bip = bipolar_chart(solution.b)
        self.torus_chart = _torus_chart(solution.a)

        self.t_half = self._bip.length
        self.s_half = self.torus_chart.length
        self.xi_half = self._bip.angle_advance
        self.omega_half = self.torus_chart.angle_advance
        self.t0 = 2 * q * self.t_half
        self.s_total = 2 * q * self.s_half

        closure = max(abs(2 * q * self.xi_half - 2 * r.p * math.pi),
                      abs(2 * q * self.omega_half - 2 * r.p * math.pi))
        mismatch = max(abs(self.t0 - solution.t0) / solution.t0,
                       abs(self.s_total - solution.s_total) / solution.s_total)
        if closure > 1e-10 or mismatch > 1e-10:
            raise ResolutionTooCoarse(
                f"charts of {r} close to {closure:.3e} and match the periods"
                f" to {mismatch:.3e} (limit 1e-10)")

    # -- samples over one period, each computed on first access ----------

    @functools.cached_property
    def t_grid(self) -> np.ndarray:
        n = 2 * self.solution.rotation.q * self.samples_per_half_period
        return np.arange(n) * (self.t0 / n)

    @functools.cached_property
    def _bipolar_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart values x and theta on ``t_grid``."""
        return self._bip.samples(self.samples_per_half_period,
                                 2 * self.solution.rotation.q)

    @functools.cached_property
    def phi(self) -> np.ndarray:
        return self._bip.coordinate(self._bipolar_samples[0])

    @functools.cached_property
    def theta(self) -> np.ndarray:
        return self._bipolar_samples[1]

    @functools.cached_property
    def s_grid(self) -> np.ndarray:
        n = 2 * self.solution.rotation.q * self.samples_per_half_period
        return np.arange(n) * (self.s_total / n)

    @functools.cached_property
    def _torus_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart values chi and lambda on ``s_grid``."""
        return self.torus_chart.samples(self.samples_per_half_period,
                                        2 * self.solution.rotation.q)

    @functools.cached_property
    def nu(self) -> np.ndarray:
        return self.torus_chart.coordinate(self._torus_samples[0])

    @functools.cached_property
    def lambda_angle(self) -> np.ndarray:
        return self._torus_samples[1]

    @functools.cached_property
    def unit_speed_residual(self) -> float:
        # The speed identity is pi-periodic in x: the first half-oscillation
        # of the samples holds it.
        x, _ = self._bip.samples(self.samples_per_half_period, 1)
        _, _, phi_dot, theta_dot = self._bip.at(x)
        c2 = cos2_phi(self.solution.b, x)
        return float(np.max(np.abs(
            4.0 * math.pi ** 2 * c2 * (phi_dot ** 2 + theta_dot ** 2 * c2) - 1.0)))

    # -- bipolar side -------------------------------------------------

    def bipolar_at(self, t):
        """phi, theta and their velocities at t, from one inversion of t."""
        return self._bip.at(self._bip.x_of(t))

    def phi_at(self, t):
        return _value(self._bip.coordinate(self._bip.x_of(t)))

    def theta_at(self, t):
        return _value(self._bip.angle(self._bip.x_of(t)))

    def t_of_x(self, x):
        """Parameter t at chart values x, where sin(phi) = sin(b) cos(x).

        The exact integral of the Fourier series of dt/dx, so t(pi) =
        ``t_half`` and t(2 q pi) = ``t0`` to rounding.
        """
        return _value(self._bip.u(np.asarray(x, dtype=float)))

    def phi_dot_at(self, t):
        return _value(self.bipolar_at(t)[2])

    def theta_dot_at(self, t):
        return _value(self.bipolar_at(t)[3])

    def cos2_phi_at(self, t):
        return _value(np.cos(np.asarray(self.phi_at(t))) ** 2)

    # -- torus side ----------------------------------------------------

    def torus_at(self, s):
        """nu, lambda and their velocities at s, from one inversion of s."""
        return self.torus_chart.at(self.torus_chart.x_of(s))

    def torus_at_chi(self, chi):
        """``torus_at`` at chart values chi."""
        return self.torus_chart.at(chi)

    def nu_at(self, s):
        return _value(self.torus_chart.coordinate(self.torus_chart.x_of(s)))

    def lambda_at(self, s):
        return _value(self.torus_chart.angle(self.torus_chart.x_of(s)))

    def nu_dot_at(self, s):
        return _value(self.torus_at(s)[2])

    def lambda_dot_at(self, s):
        return _value(self.torus_at(s)[3])


def profile(sol: OtsukiSolution, samples_per_half_period: int = 512) -> GeodesicProfile:
    """Build the sampled geodesic profile for a solved rotation number."""
    return GeodesicProfile(sol, samples_per_half_period)
