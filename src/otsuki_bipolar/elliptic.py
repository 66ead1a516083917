"""Complete elliptic integrals of the first, second and third kind.

All three integrals are evaluated through Carlson symmetric forms
(R_F, R_D, R_J by duplication), which deliver better than 12 significant
digits for moduli in [0, 0.9999].  Inputs up to k = 1 - 1e-12 are
accepted; accuracy degrades slowly beyond k = 0.9999 but stays well
under 1e-10 relative for the moduli this package produces.

The closed-form derivatives are the classical ones:

    dE/dk = (E - K)/k
    dK/dk = E/(k(1-k^2)) - K/k

and for the third kind

    dPi/dn = (E + (k^2-n)K/n + (n^2-k^2)Pi/n) / (2(k^2-n)(n-1))
    dPi/dk = k/(n-k^2) * (E/(k^2-1) + Pi)
"""

from __future__ import annotations

from scipy.special import elliprd, elliprf, elliprj

from .errors import DomainError, in_interval

# K and Pi diverge at k = 1; reject anything closer than this.
_K_MAX = 1.0 - 1e-12


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k)."""
    k = in_interval(k, "modulus k", 0.0, _K_MAX, lo_closed=True, hi_closed=True)
    return float(elliprf(0.0, 1.0 - k * k, 1.0))


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k).

    Defined for k in [0, 1]; E(1) = 1.
    """
    k = in_interval(k, "modulus k", 0.0, 1.0, lo_closed=True, hi_closed=True)
    if k == 1.0:
        return 1.0
    m = k * k
    return float(elliprf(0.0, 1.0 - m, 1.0) - m / 3.0 * elliprd(0.0, 1.0 - m, 1.0))


def complete_Pi(n: float, k: float) -> float:
    """Complete elliptic integral of the third kind, Pi(n, k)."""
    n = in_interval(n, "characteristic n", 0.0, _K_MAX, lo_closed=True, hi_closed=True)
    k = in_interval(k, "modulus k", 0.0, _K_MAX, lo_closed=True, hi_closed=True)
    m = k * k
    val = elliprf(0.0, 1.0 - m, 1.0)
    if n != 0.0:
        val = val + n / 3.0 * elliprj(0.0, 1.0 - m, 1.0, 1.0 - n)
    return float(val)


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
