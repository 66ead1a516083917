"""Complete elliptic integrals of the first, second and third kind.

All three integrals are evaluated through Carlson's symmetric forms
R_F, R_D and R_J, computed here for real arguments by Carlson's
duplication algorithm (B. C. Carlson, "Numerical computation of real or
complex elliptic integrals", Numer. Algorithms 10 (1995) 13-26).  Each
duplication step brings the arguments a factor 4 closer to their mean;
the loop stops when the fifth-order series about the mean is exact to
1e-16 relative, and R_J's terms R_C are taken in closed form.  Measured
against 40-digit mpmath, R_F(0, y, 1), R_D(0, y, 1) and R_J(0, y, 1, s)
with y = 2s/(1+s), as the library calls them, agree to 6.7e-16 relative
for s = cos^2 b in [1e-12, 1], and random arguments over eight decades
to the same (``tests/test_elliptic.py``).  Inputs up to k = 1 - 1e-12
are accepted; K and Pi diverge at k = 1.

The closed-form derivatives are the classical ones:

    dE/dk = (E - K)/k
    dK/dk = E/(k(1-k^2)) - K/k

and for the third kind

    dPi/dn = (E + (k^2-n)K/n + (n^2-k^2)Pi/n) / (2(k^2-n)(n-1))
    dPi/dk = k/(n-k^2) * (E/(k^2-1) + Pi)
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError, in_interval

# Relative truncation error of the duplication loops' final series.
_TOL = 1e-16
_RF_SCALE = (3.0 * _TOL) ** (-1.0 / 6.0)
_RJ_SCALE = (0.25 * _TOL) ** (-1.0 / 6.0)


def _real_args(name: str, args: tuple, positive: bool) -> tuple:
    """The arguments as floats: finite and non-negative, at most one of
    the first three zero, and the last one positive if ``positive``;
    anything else (complex, negative, nan, inf) is a DomainError."""
    if not all(type(v) is float for v in args) and all(
            isinstance(v, numbers.Real) for v in args):
        args = tuple(map(float, args))
    if (all(type(v) is float for v in args)
            and min(args) >= 0.0 and math.isfinite(sum(args))
            and (args[-1] > 0.0 or not positive)
            and (args[0] > 0.0) + (args[1] > 0.0) + (args[2] > 0.0) >= 2):
        return args
    raise DomainError(f"{name} takes finite non-negative real arguments, at"
                      f" most one of x, y, z zero and the rest positive;"
                      f" got {args!r}")


def _rc(x: float, y: float) -> float:
    """Carlson's degenerate form R_C(x, y) = R_F(x, y, y), x >= 0, y > 0,
    in closed form: an arctangent for y > x, an inverse hyperbolic tangent
    or a logarithm for y < x."""
    if x == y:
        return 1.0 / math.sqrt(x)
    if x == 0.0:
        return 0.5 * math.pi / math.sqrt(y)
    # atan(u)/u and atanh(u)/u stay accurate however y - x rounds.
    if y > x:
        u = math.sqrt((y - x) / x)
        return math.atan(u) / (u * math.sqrt(x))
    if y >= 0.5 * x:
        u = math.sqrt((x - y) / x)
        return math.atanh(u) / (u * math.sqrt(x))
    root = math.sqrt(x - y)
    return math.log((math.sqrt(x) + root) / math.sqrt(y)) / root


def elliprf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) = 1/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z))."""
    x, y, z = _real_args("R_F", (x, y, z), False)
    a0 = a = (x + y + z) / 3.0
    q = _RF_SCALE * max(abs(a - x), abs(a - y), abs(a - z))
    x0, y0 = x, y
    scale = 1.0                                  # 4^-m after m steps
    while scale * q >= a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        a = 0.25 * (a + lam)
        scale *= 0.25
    return _rf_series(scale * (a0 - x0) / a, scale * (a0 - y0) / a) / math.sqrt(a)


def _rf_series(dx: float, dy: float) -> float:
    """R_F(A(1-X), A(1-Y), A(1-Z)) sqrt(A) to fifth order in the relative
    deviations X = dx, Y = dy, Z = -X - Y from the mean A."""
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
            - 3.0 * e2 * e3 / 44.0)


def elliprj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's R_J(x, y, z, p) =
    3/2 int_0^inf dt / ((t+p) sqrt((t+x)(t+y)(t+z))), p > 0."""
    return _rj(*_real_args("R_J", (x, y, z, p), True))


def elliprd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z) = R_J(x, y, z, z), z > 0."""
    x, y, z = _real_args("R_D", (x, y, z), True)
    return _rj(x, y, z, z)


def _rj(x: float, y: float, z: float, p: float) -> float:
    a0 = a = (x + y + z + p + p) / 5.0
    q = _RJ_SCALE * max(abs(a - x), abs(a - y), abs(a - z), abs(a - p))
    x0, y0, z0 = x, y, z
    scale, total = 1.0, 0.0                      # 4^-m, and the R_C terms
    while scale * q >= a:
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        alpha = p * (sx + sy + sz) + sx * sy * sz
        beta = sp * (p + lam)
        total += scale * _rc(alpha * alpha, beta * beta)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        p, a = 0.25 * (p + lam), 0.25 * (a + lam)
        scale *= 0.25
    series = _rj_series(scale * (a0 - x0) / a, scale * (a0 - y0) / a,
                        scale * (a0 - z0) / a)
    return scale / (a * math.sqrt(a)) * series + 3.0 * total


def _rj_series(dx: float, dy: float, dz: float) -> float:
    """R_J(A(1-X), A(1-Y), A(1-Z), A(1-P)) A^(3/2) to fifth order in the
    relative deviations X = dx, Y = dy, Z = dz, P = -(X + Y + Z)/2 from
    the mean A."""
    dp = -0.5 * (dx + dy + dz)
    xyz, p2 = dx * dy * dz, dp * dp
    e2 = dx * dy + dx * dz + dy * dz - 3.0 * p2
    e3 = xyz + 2.0 * e2 * dp + 4.0 * dp * p2
    e4 = (2.0 * xyz + e2 * dp + 3.0 * dp * p2) * dp
    e5 = xyz * p2
    return (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
            - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)


# K and Pi diverge at k = 1; reject anything closer than this.
_K_MAX = 1.0 - 1e-12


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k)."""
    k = in_interval(k, "modulus k", 0.0, _K_MAX, lo_closed=True, hi_closed=True)
    return elliprf(0.0, 1.0 - k * k, 1.0)


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k).

    Defined for k in [0, 1]; E(1) = 1.
    """
    k = in_interval(k, "modulus k", 0.0, 1.0, lo_closed=True, hi_closed=True)
    if k == 1.0:
        return 1.0
    m = k * k
    return elliprf(0.0, 1.0 - m, 1.0) - m / 3.0 * elliprd(0.0, 1.0 - m, 1.0)


def complete_Pi(n: float, k: float) -> float:
    """Complete elliptic integral of the third kind, Pi(n, k)."""
    n = in_interval(n, "characteristic n", 0.0, _K_MAX, lo_closed=True, hi_closed=True)
    k = in_interval(k, "modulus k", 0.0, _K_MAX, lo_closed=True, hi_closed=True)
    m = k * k
    val = elliprf(0.0, 1.0 - m, 1.0)
    if n != 0.0:
        val = val + n / 3.0 * elliprj(0.0, 1.0 - m, 1.0, 1.0 - n)
    return val


def dE_dk(k: float) -> float:
    """Derivative of E with respect to the modulus, (E - K)/k."""
    k = in_interval(k, "modulus k", 0.0, 1.0)
    return (complete_E(k) - complete_K(k)) / k


def dK_dk(k: float) -> float:
    """Derivative of K with respect to the modulus."""
    k = in_interval(k, "modulus k", 0.0, 1.0)
    return complete_E(k) / (k * (1.0 - k * k)) - complete_K(k) / k


def dPi_dn(n: float, k: float) -> float:
    """Partial derivative of Pi(n, k) in the characteristic n."""
    n = in_interval(n, "characteristic n", 0.0, 1.0)
    k = in_interval(k, "modulus k", 0.0, 1.0)
    m = k * k
    if n == m:
        raise DomainError("dPi/dn is singular on the line n = k^2")
    e = complete_E(k)
    kk = complete_K(k)
    pi_nk = complete_Pi(n, k)
    return (e + (m - n) / n * kk + (n * n - m) / n * pi_nk) / (2.0 * (m - n) * (n - 1.0))


def dPi_dk(n: float, k: float) -> float:
    """Partial derivative of Pi(n, k) in the modulus k."""
    n = in_interval(n, "characteristic n", 0.0, 1.0)
    k = in_interval(k, "modulus k", 0.0, 1.0)
    m = k * k
    if n == m:
        raise DomainError("dPi/dk is singular on the line n = k^2")
    return k / (n - m) * (complete_E(k) / (m - 1.0) + complete_Pi(n, k))
