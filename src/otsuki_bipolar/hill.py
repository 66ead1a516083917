"""Eigenvalue counts of a periodic radial problem from its Hill discriminant.

The problem -(P h')' + l^2 S h = lambda W h has coefficients even and of
period pi, the cell (as in the bipolar chart,
``geodesic.radial_coefficients``; a triple of period L maps to one of
period pi by y = pi x / L), so each cell is symmetric about pi/2.  On a
torus of several cells its eigenfunctions split into Bloch sectors
h(x + pi) = e^{i pi kappa} h(x), and in each sector the levels are
counted without solving for them:

* **Monodromy.** y = (h, P h') obeys y' = [[0, 1/P], [l^2 S - lambda W, 0]] y.
  Its transfer matrix Phi over the half cell [0, pi/2] is a product of
  sixth-order Magnus steps on three Gauss points each (Blanes, Casas,
  Oteo & Ros, "The Magnus expansion and some of its applications",
  *Phys. Rep.* 470, 2009).  A has a zero diagonal, and so have the
  step's alpha_1, alpha_2 and alpha_3, which are held as their two
  corners; their commutators reduce to products of those.  Every
  step's Omega is a traceless 2 x 2 matrix, so its exponential is
  cosh(mu) I + sinh(mu)/mu Omega with mu^2 = -det Omega, and the steps
  are multiplied by a log-depth prefix product.  One pass serves several
  step counts: one coefficient evaluation on all their nodes, one
  Magnus evaluation and one prefix product, in which the shorter sizes
  start with identity steps.  The reflection x -> pi - x gives the
  other half: with R = diag(1, -1), R Phi(pi - x) = Phi(x) R M, so for
  N = Phi(pi/2) the cell's monodromy is M = R N^-1 R N (Magnus &
  Winkler, *Hill's Equation*), and the discriminant is Delta = tr M =
  2 (n11 n22 + n12 n21).
* **Edges and bands.**  A band edge is a level of sector kappa = 0
  (periodic) or 1 (antiperiodic).  Under x -> pi - x such a level is
  even or odd about 0 and about pi/2, so it is a level of one of four
  problems on the half cell, Dirichlet (D) or Neumann (N) at 0 and at
  pi/2: kappa = 0 holds the N-N and D-D levels, kappa = 1 the N-D and
  D-N ones (Eastham, *The Spectral Theory of Periodic Differential
  Equations*, ch. 3).  The Pruefer angle (h = r sin theta,
  P h' = r cos theta) at pi/2 rises with lambda, and passes a multiple
  of pi/2 at each level of its solution's problems: theta_d, of the
  solution with (h, P h')(0) = (0, 1) from theta = 0, has
  a = floor(2 theta_d/pi) D-N and D-D levels below lambda, alternating
  from D-N; theta_n, of (1, 0) from pi/2, has b = floor(2 theta_n/pi)
  N-N and N-D levels, alternating from N-N.  Unwrapped over every step
  point, the angle counts a zero inside the last step too, which sign
  changes of h at the step points miss, and its distance from a
  multiple of pi/2 says how well the count is resolved.  So kappa = 0
  holds ceil(b/2) + floor(a/2) levels below lambda and kappa = 1
  floor(b/2) + ceil(a/2).  Every other sector (kappa folded into
  (0, 1)) has one level in each band, where arccos(Delta/2)/pi = kappa,
  and that turn rises across odd bands and falls across even ones.
  With a + b edges below lambda, it holds floor((a + b)/2) levels, and
  one more if a + b is odd (lambda inside band n = (a + b + 1)/2) and
  the turn at lambda has passed kappa.  ``rotation`` reads the same
  data as the rotation number, the zeros per cell of a real solution.
* **Levels.**  ``levels`` roots Chebyshev interpolants in lambda of n11,
  n12, n21 and n22, which are entire: a level of kappa = 0 is a zero of
  n21 (N-N) or n12 (D-D), of kappa = 1 one of n11 (N-D) or n22 (D-N), of
  any other sector a root of Delta = 2 cos(pi kappa) in each band.
  ``_roots`` steps a level to the root of its condition, and ``_rows``
  samples its solution from the same pass.

``count`` totals the levels of the bipolar surface's sectors
(``surface_sectors``) at l = 0 and 1, with the step count resolved from
one pass's own two sizes, n and 2n.  The coefficients come in as a
callable x -> (P, S, W), so any analytic triple that is even and of
period pi can be counted; ``monodromy`` checks the evenness
(DomainError).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, CountMismatch, DomainError, in_interval

# Gauss-Legendre nodes of one Magnus step, as fractions of the step.
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
_FIRST_STEPS = 64       # Magnus steps per cell n of the first pass, which
                        # measures n and 2n; each later pass doubles both
_MAX_STEPS = 2 ** 14    # the finer size at which an unresolved count stops
_RESOLVED = 10.0        # distance to a half-cell level, in its changes
_ROUNDING = 1e-12       # the angles' rounding, added to each change
# Chebyshev interpolants in lambda, see levels.
_LEVEL_TOL = 1e-10      # largest error of an angle at a cut, at n steps
_NODES = 16             # Chebyshev nodes of the first interpolant
_MAX_NODES = 256        # the node count at which an unresolved tail stops
_TAIL = 1e-13           # the last three coefficients, of the largest
_GRID = 8               # grid points per node that bracket the roots
# The half-cell problem of the zeros of n11, n12, n21 and n22 (N-D, D-D,
# N-N, D-N): its Bloch sector kappa, and the solution that holds it, N
# ((h, P h')(0) = (1, 0)) as 0 or D ((0, 1)) as 1.
_EDGE_KAPPA = np.array([1.0, 0.0, 0.0, 1.0])
_EDGE_START = np.array([0, 1, 0, 1])


def _steps(coefficients, l, lam, sizes):
    """exp(Omega) of every sixth-order Magnus step over the half cell
    [0, pi/2], h = pi/n for each step count n per cell of ``sizes`` (each
    even), as entries (E11, E12, E21, E22) of shape (4, max n/2, sizes x
    pairs).  The columns of size n hold its n/2 steps last, after steps
    of length 0, whose exp(Omega) is the identity and so leaves every
    prefix product as it is.  DomainError if P, S and W are not even
    about pi/2 at the mirrors pi - x of each size's first step's nodes.
    """
    for n in sizes:
        if n < 2 or n % 2:
            raise DomainError(f"Magnus steps per cell must be even, got {n}")
    first, h, x, shape = _nodes(tuple(sizes))
    f = np.array(coefficients(x), dtype=float)
    ends = f[:, :, :-first.size].reshape(f.shape[:2] + shape)
    mismatch = abs(f[:, :, -first.size:]
                   - ends[:, :, first, np.arange(first.size)])
    if (mismatch.max(axis=(1, 2)) > 1e-12 * abs(f).max(axis=(1, 2))).any():
        raise DomainError("the coefficients are not even about pi/2:"
                          " the half-cell monodromy needs P, S and W"
                          " even and of period pi")
    p, s, w = ends[..., None]               # (3 nodes, steps, sizes, 1)
    return _exp_omega(p, s, w, h, l, lam).reshape(4, h.shape[0], -1)


@functools.lru_cache
def _nodes(sizes):
    """For ``_steps`` at ``sizes``: the first step of each size, the step
    lengths h (0 before a size's first step), and the x at which the
    coefficients are taken: the three Gauss nodes of every step, then the
    mirrors pi - x of each size's first step's nodes."""
    n = np.array(sizes)
    first = max(sizes) // 2 - n // 2
    k = np.arange(max(sizes) // 2)[:, None] - first
    h = np.where(k >= 0, math.pi / n, 0.0)[..., None]
    nodes = (np.maximum(k, 0) + np.array(_GAUSS)[:, None, None]) * h[..., 0]
    mirrors = math.pi - nodes[:, first, np.arange(n.size)]
    cached = first, h, np.concatenate((nodes.reshape(3, -1), mirrors), axis=1)
    for a in cached:
        a.flags.writeable = False
    return cached + (nodes.shape[1:],)


def _exp_omega(p, s, w, h, l, lam):
    """exp(Omega) of sixth-order Magnus steps of lengths h (broadcast) from
    P, S and W at each step's three Gauss points (first axis), for every
    pair (l, lambda): entries (E11, E12, E21, E22), steps, pairs."""
    # A = [[0, 1/P], [l^2 S - lambda W, 0]] at the three nodes of each
    # step; alpha_1, alpha_2 and alpha_3 share its zero diagonal and are
    # held as their (1, 2) and (2, 1) entries, stacked first: u and v.
    a = np.empty((2,) + s.shape[:-1] + (len(lam),))
    np.divide(1.0, p, out=a[0])
    np.subtract(np.asarray(l, dtype=float) ** 2 * s,
                np.asarray(lam, dtype=float) * w, out=a[1])
    a1 = h * a[:, 1]
    a2 = math.sqrt(15.0) * h / 3.0 * (a[:, 2] - a[:, 0])
    a3 = 10.0 * h / 3.0 * (a[:, 2] - 2.0 * a[:, 1] + a[:, 0])
    (u1, v1), (u2, v2), (u3, v3) = a1, a2, a3
    # Omega = alpha_1 + alpha_3/12 + [X, Y]/240 with X = -20 alpha_1
    # - alpha_3 + C_1, Y = alpha_2 + C_2, C_1 = [alpha_1, alpha_2] and
    # C_2 = -[alpha_1, 2 alpha_3 + C_1]/60.  C_1 = diag(c, -c), and
    # C_2 has the diagonal (g, -g) and the corners u1 c/30, -v1 c/30.
    # The (2, 1) entries take the opposite sign of each corner term.
    sign = np.array((1.0, -1.0)).reshape((2,) + (1,) * (a.ndim - 2))
    c = u1 * v2 - v1 * u2
    g = (v1 * u3 - u1 * v3) / 30.0
    x = -20.0 * a1 - a3
    y = a2 + a1 * c / (30.0 * sign)
    e = np.empty((4,) + c.shape)            # Omega, then exp(Omega)
    np.divide(x[0] * y[1] - x[1] * y[0], 240.0, out=e[0])
    np.negative(e[0], out=e[3])
    np.add(a1 + a3 / 12.0, (c * y - x * g) / (120.0 * sign), out=e[1:3])
    # exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega, mu^2 = o11^2 + o12 o21.
    mu2 = e[0] ** 2 + e[1] * e[2]
    mu = np.sqrt(np.abs(mu2))
    zero = mu == 0.0
    hyper = mu2 > 0.0
    e *= (np.where(hyper, np.sinh(mu), np.sin(mu)) + zero) / (mu + zero)
    e[::3] += np.where(hyper, np.cosh(mu), np.cos(mu))
    return e


def _prefix_products(m):
    """Every prefix E_j ... E_1 of the steps m, entries (E11, E12, E21,
    E22) of shape (steps, columns), in place, by log2(steps) passes that
    each multiply the products ending d apart."""
    rows = m.reshape((2, 2) + m.shape[1:])  # [i, k] of every product
    d = 1
    while d < m.shape[1]:
        a, b = rows[:, :, d:], rows[:, :, :-d]  # the later steps, the earlier
        np.add(a[:, :1] * b[0], a[:, 1:] * b[1], out=a)
        d *= 2
    return m


def monodromy(coefficients, l, lam, steps: int):
    """Delta = tr M and the Pruefer angles theta_d and theta_n at pi/2 of
    each (l, lambda).

    ``l`` and ``lam`` are equal-length sequences of pairs, and ``steps``
    the Magnus steps per cell, of which the half cell [0, pi/2] takes
    steps/2.  With N = Phi(pi/2) and R = diag(1, -1), M = R N^-1 R N
    and Delta = 2 (n11 n22 + n12 n21).  The solutions with (h, P h')(0)
    = (0, 1) and (1, 0) are the second and first columns of every prefix
    product; theta_d starts from 0 and theta_n from pi/2, and each is
    its start plus the principal differences of its angles at the step
    points, taken as its last angle less 2 pi for every step whose angle
    wrapped; the angles of neighbouring step points differ by less than
    pi at any resolved step count (``count`` checks both angles against
    twice the steps).
    DomainError if P, S or W is not even about pi/2, or ``steps`` is odd.
    """
    return tuple(v[0] for v in _monodromies(coefficients, l, lam, (steps,)))


def _monodromies(coefficients, l, lam, sizes):
    """``monodromy`` at every step count per cell of ``sizes``, in one
    pass: Delta, theta_d and theta_n, of shape (3, sizes, pairs).  A size's
    leading identity steps add no turn, so each value is the one that size
    alone gives."""
    m = _prefix_products(_steps(coefficients, l, lam, sizes))
    return _half_cell(m)[:3].reshape(3, len(sizes), -1)


def _half_cell(m):
    """Delta, theta_d, theta_n, n11 n22 = (Delta + 2)/4 and n12 n21 =
    (Delta - 2)/4 of every column of the prefix products m."""
    out = np.empty((5, m.shape[2]))
    n11, n12, n21, n22 = m[:, -1]
    np.multiply(n11, n22, out=out[3])
    np.multiply(n12, n21, out=out[4])
    np.multiply(2.0, out[3] + out[4], out=out[0])
    # (h, P h') of the solutions from (0, 1) and from (1, 0), at every
    # step point: theta at pi/2 is the last angle, less 2 pi for each
    # step whose angle wrapped.
    angle = np.arctan2(m[1::-1], m[3:1:-1])
    turn = np.empty_like(angle)
    np.subtract(angle[:, 0], np.array((0.0, 0.5 * math.pi))[:, None],
                out=turn[:, 0])
    np.subtract(angle[:, 1:], angle[:, :-1], out=turn[:, 1:])
    wraps = np.round(turn / (2.0 * math.pi))
    np.subtract(angle[:, -1], 2.0 * math.pi * wraps.sum(axis=1),
                out=out[1:3])
    return out


def level_counts(kappa, delta, theta_d, theta_n) -> np.ndarray:
    """Levels below lambda in each Bloch sector kappa (in [0, 2)), where
    Delta(lambda) = ``delta`` and the Pruefer angles at pi/2 are
    ``theta_d`` and ``theta_n`` (``monodromy``).  All four broadcast
    against each other, so one call counts every (l, lambda) and sector
    of a pass."""
    kappa = np.asarray(kappa, dtype=float)
    folded = np.minimum(kappa, 2.0 - kappa)
    a, b, turn = _edges(delta, theta_d, theta_n)
    bands, inside = np.divmod(a + b, 2)
    passed = np.where(bands % 2, folded > turn, folded < turn)
    return np.where(folded == 0.0, (b + 1) // 2 + a // 2,
                    np.where(folded == 1.0, b // 2 + (a + 1) // 2,
                             bands + (inside & passed)))


def rotation(delta, theta_d, theta_n) -> np.ndarray:
    """Zeros per cell of the real solutions at lambda, the rotation number
    alpha, from Delta(lambda) = ``delta`` and the Pruefer angles at pi/2
    (``monodromy``); the three broadcast.  With n = floor((a + b)/2)
    bands below lambda (``level_counts``' a and b), alpha is n plus the
    turn arccos(Delta/2)/pi for even n, where the turn rises across band
    n + 1, and n + 1 less it for odd n; in a gap the turn is 0 or 1, so
    alpha = n.  So alpha is continuous in lambda, and level n of sector
    kappa has alpha = n - 1 + kappa (odd n) or n - kappa (even n): each
    real row of it has 2 q alpha zeros on the 2q cells of the bipolar
    surface's period."""
    a, b, turn = _edges(delta, theta_d, theta_n)
    bands = (a + b) // 2
    return bands + np.where(bands % 2, 1.0 - turn, turn)


def _edges(delta, theta_d, theta_n):
    """a = floor(2 theta_d/pi) and b = floor(2 theta_n/pi), the D-N and D-D
    and the N-N and N-D levels below lambda, and the turn
    arccos(Delta/2)/pi, of ``level_counts`` and ``rotation``."""
    a, b = (np.floor(2.0 * np.asarray(theta) / math.pi).astype(int)
            for theta in (theta_d, theta_n))
    return a, b, np.arccos((0.5 * np.asarray(delta)).clip(-1.0, 1.0)) / math.pi


def _integrals(coefficients, m):
    """Integrals from 0 to every step end of W a^2, W a b and W b^2, a and
    b the h of the solutions from (1, 0) and (0, 1) (the first row of m,
    Phi at every step end from 0), by the trapezoid rule on them: exact to
    rounding over the half cell where the integrand is even about 0 and
    pi/2 (Trefethen & Weideman, *SIAM Rev.* 56, 2014), else second order."""
    x = np.arange(m.shape[1]) * (0.5 * math.pi / (m.shape[1] - 1))
    w = x[1] * np.asarray(coefficients(x)[2], dtype=float)[:, None]
    f = w * np.stack((m[0] * m[0], m[0] * m[1], m[1] * m[1]))
    return np.cumsum(f, axis=1) - 0.5 * (f + f[:, :1])


def _roots(coefficients, l, kappa, level, start, lam, steps: int):
    """Each level's Hill root, one Newton step from ``lam``.

    Row r is level ``level[r]`` (from 0) of the sector ``kappa[r]`` (in
    [0, 2)) at ``l[r]``, near ``lam[r]``, from ``start[r]``; the five
    broadcast.  In an edge sector (kappa folded to c = 0 or 1) level i is
    an edge of gap g = i + (i + c) mod 2: start 1 takes the D solution,
    (h, P h')(0) = (0, 1), at theta_d = g pi/2, and start 0 the N
    solution, (1, 0), at theta_n = (g + 1) pi/2 (gap 0: the lowest N-N
    level alone); ``levels`` tells which problem holds each edge level.
    Start -1 is any other level, the Floquet vector (``_rows``), at Delta
    = 2 cos(pi kappa), as n11 n22 = cos^2(pi kappa/2) or n12 n21 =
    -sin^2(pi kappa/2), whichever vanishes at the nearer band edge, to
    keep its relative precision there.  The slopes come from the same
    pass at ``steps`` per cell: dPhi/dlambda = Phi K, K the running
    integral of [[W a b, W b^2], [-W a^2, -W a b]], so theta_n' =
    I_aa/r_n^2, theta_d' = I_bb/r_d^2 and (n11 n22)' = Delta'/4 = n11 n21
    I_bb - n12 n22 I_aa (``_integrals``; even about 0 and pi/2 at a
    level, and for Delta' across a band).  Returns the roots; (Delta,
    theta_d, theta_n) at lam and the slopes, shape (2, 3, rows); and the
    pass: Phi at every step end from 0, the running integrals, and each
    row's step to its root, an interior level's Newton step itself, not
    a rounded difference.
    """
    l, kappa, level, start, lam = np.broadcast_arrays(
        l, kappa, level, start, np.asarray(lam, dtype=float))
    m = _prefix_products(_steps(coefficients, l, lam, (steps,)))
    m = np.concatenate((np.eye(2).reshape(4, 1, 1).repeat(lam.size, 2), m), 1)
    at = _half_cell(m)
    run = _integrals(coefficients, m)
    i_aa, _, i_bb = run[:, -1]
    n11, n12, n21, n22 = m[:, -1]
    slope = np.stack((n11 * n21 * i_bb - n12 * n22 * i_aa,
                      i_bb / (n12 ** 2 + n22 ** 2),
                      i_aa / (n11 ** 2 + n21 ** 2)))
    folded = np.minimum(kappa, 2.0 - kappa)
    gap = level + (level + folded.astype(int)) % 2
    miss = np.stack((np.where(folded > 0.5,
                              at[3] - np.cos(0.5 * math.pi * kappa) ** 2,
                              at[4] + np.sin(0.5 * math.pi * kappa) ** 2),
                     at[1] - 0.5 * math.pi * gap,
                     at[2] - 0.5 * math.pi * (gap + 1)))
    # The condition of each row: Delta, theta_d (D) or theta_n (N).
    rows = np.where(start < 0, 0, 2 - start), np.arange(lam.size)
    newton = (miss / slope)[rows]
    roots = lam - newton
    # In a narrow band the multiplier turns by (root - lam)/bandwidth, so an
    # interior row takes the unrounded step.
    return roots, np.stack((at[:3], slope)), (
        m, run, np.where(start < 0, -newton, roots - lam))


def _rows(coefficients, l, kappa, lam, start, pass_, x):
    """Each level's solution h at the points ``x`` of one cell [0, pi),
    and the integral of |h|^2 W over the cell.

    Row r is the solution at the root ``lam[r]`` in the sector
    ``kappa[r]`` at ``l[r]``, from ``start[r]``, with ``pass_`` as
    ``_roots`` returns them; its Phi moves to the roots at first order,
    Phi + (root - lam) Phi K.  Any level but an edge one starts from
    v = (m12, i s), M v = mu v for mu = m11 + i s, s^2 = -m12 m21 = 1 -
    m11^2, so h(0) = m12 is real.  A point in [0, pi/2] is one Magnus
    step from the step end below it, one in (pi/2, pi) the reflection
    (h, P h')(x) = mu R Phi(pi - x) R v.  |h|^2 = a^2 v1^2 + b^2 |v2|^2
    (``_integrals``) is even about 0 and pi/2, so the integral is twice
    the trapezoid rule's over the half cell.  Returns h, of shape
    (rows, x.size), and the integrals.
    """
    m, (j_aa, j_ab, j_bb), shift = pass_
    drift = np.stack((j_ab, j_bb, -j_aa, -j_ab)).reshape((2, 2) + m.shape[1:])
    phi = m + shift * np.einsum("ik...,kj...->ij...", m.reshape(drift.shape),
                                drift).reshape(m.shape)     # Phi + dlam Phi K
    step = 0.5 * math.pi / (phi.shape[1] - 1)
    n11, n12, n21, n22 = phi[:, -1]
    sine = np.copysign(2.0 * np.sqrt(np.abs(n11 * n12 * n21 * n22)),
                       np.sin(math.pi * kappa))
    mu = np.where(start < 0, n11 * n22 + n12 * n21 + 1j * sine,
                  np.cos(math.pi * kappa))
    v1 = np.where(start < 0, 2.0 * n12 * n22, start == 0)
    v2 = np.where(start < 0, 1j * sine, start == 1)
    points = np.minimum(x, math.pi - x)
    k = np.minimum(points // step, phi.shape[1] - 2).astype(int)
    length = points - k * step
    f = np.array(coefficients(k * step + np.multiply.outer(_GAUSS, length)),
                 dtype=float)
    e = _exp_omega(*f[..., None], length[:, None], l, lam)
    below = phi[:, k]                        # Phi at the step end below
    a = e[0] * below[0] + e[1] * below[2]   # h from (1, 0) and from (0, 1)
    b = e[0] * below[1] + e[1] * below[3]
    h = np.where((x > 0.5 * math.pi)[:, None], mu * (a * v1 - b * v2),
                 a * v1 + b * v2)
    i_aa, _, i_bb = _integrals(coefficients, phi)[:, -1]
    return h.T, 2.0 * (v1 ** 2 * i_aa + np.abs(v2) ** 2 * i_bb)


def surface_sectors(q: int, l: int) -> np.ndarray:
    """kappa of the Bloch sectors at l on the bipolar surface of p/q.

    The period is 2q cells, so kappa = k/q for k < 2q.  For even q the
    deck shift x -> x + q pi keeps only the sectors of character (-1)^l,
    kappa = (2k + l mod 2)/q for k < q.
    """
    if q % 2:
        return np.arange(2 * q) / q
    return (2 * np.arange(q) + l % 2) / q


@dataclass(frozen=True)
class HillCount:
    """Resolved Hill data at l = 0, 1 and every lambda of ``count``.

    ``delta[l, j]``, ``theta_d[l, j]`` and ``theta_n[l, j]`` belong to l
    and ``lams[j]`` (``monodromy``); ``totals[j]`` is N(lams[j]), each
    level at l = 1 counted twice (the cos and sin angular factors).
    ``steps`` is the finer of the two step counts per cell that agreed.
    """

    lams: tuple
    delta: np.ndarray
    theta_d: np.ndarray
    theta_n: np.ndarray
    totals: tuple
    steps: int

    def levels(self, l, j, kappa) -> np.ndarray:
        """``level_counts`` of the sectors kappa at l and lams[j]; l, j and
        kappa broadcast against each other, so one call counts several
        (l, lambda) and sectors."""
        return level_counts(kappa, self.delta[l, j], self.theta_d[l, j],
                            self.theta_n[l, j])


def count(coefficients, q: int, lams) -> HillCount:
    """Eigenvalues below each lambda of ``lams`` on the bipolar surface of
    p/q, at l = 0 and 1 over the sectors of ``surface_sectors``.

    Every lambda must be a number of at most 4, else DomainError: no level
    of l >= 2 lies below 4 (S/W >= 1), and N counts strictly below lambda.
    Each pass measures n and 2n steps per cell together, in one
    evaluation of ``coefficients`` and one Magnus step and prefix product
    over both sizes (the n-step products led by identity steps), and is
    read alone.  n starts at 64 and doubles until, in one pass, the
    totals at n and 2n agree and, at every (l, lambda), the distance of
    theta_d and of theta_n from a multiple of pi/2 exceeds ten times
    their change between n and 2n plus a rounding floor, 1e-12: on a
    level of a half-cell problem both are rounding.  ConvergenceFailure
    if that does not happen by 2n = 16384.  At 2 -+ 1e-8, every reduced
    p/q in (1/2, sqrt(2)/2) with q <= 300 resolves at 128 or 256 steps.
    """
    lams = tuple(in_interval(v, "lambda", -math.inf, 4.0, hi_closed=True)
                 for v in lams)
    pairs = ([0] * len(lams) + [1] * len(lams), lams * 2)
    # kappa of l = 0 and 1 against (size, l, lambda, kappa); the weights
    # count each level at l = 1 twice.
    sectors = np.array([surface_sectors(q, l) for l in (0, 1)])[:, None]
    weights = np.array([1, 2])[:, None]

    steps = 2 * _FIRST_STEPS                # the finer size, 2n
    quarter = 0.5 * math.pi
    while True:
        data = _monodromies(coefficients, *pairs,
                            (steps // 2, steps)).reshape(3, 2, 2, len(lams))
        levels = level_counts(sectors, *data[..., None])
        coarse_totals, fine_totals = map(
            tuple, (weights * levels.sum(axis=-1)).sum(axis=1).tolist())
        coarse, fine = data.swapaxes(0, 1)
        angles = fine[1:]
        change = np.abs(angles - coarse[1:])
        edge = np.abs(angles - quarter * np.round(angles / quarter))
        if (fine_totals == coarse_totals
                and (edge > _RESOLVED * (change + _ROUNDING)).all()):
            return HillCount(lams, *fine, fine_totals, steps)
        if steps >= _MAX_STEPS:
            raise ConvergenceFailure(
                f"Hill count at q = {q} not resolved at {steps} Magnus"
                f" steps per cell: totals {coarse_totals} and {fine_totals}")
        steps *= 2


def levels(coefficients, requests):
    """The levels of Bloch sectors at several l, each below its cut.

    A request (l, kappa, weights, least, reach) names sectors ``kappa``
    (in [0, 2)) at l and how often each one's levels count.  Its cut is
    the first rung c_0 (7/4)^j, j >= 1, c_0 = max(4, l^2), below which
    ``level_counts`` finds ``least`` weighted levels and, if ``reach``,
    more than below c_0.  One pass at n/2 and n Magnus steps per cell
    takes c_0 and two rungs (one, without ``reach``); n starts at 128 and
    doubles until the angles' sixth-order error at each cut, their change
    over 63, is at most 1e-10 (ConvergenceFailure past 16384).  One more
    pass at n takes the half-cell entries at N Chebyshev points of the
    first kind on [l^2 - 1/4, cut], below every level (S/W >= 1).  They
    are entire in lambda (Magnus & Winkler, *Hill's Equation*), so their
    interpolants converge geometrically (Trefethen, *Approximation
    Theory and Approximation Practice*, ch. 8): N starts at 16 and
    doubles until the last three coefficients of each are at most 1e-13
    of its largest (ConvergenceFailure past 256).  ``_sector_roots``
    roots them, and each sector's count must be its ``level_counts`` at
    the cut, else CountMismatch, naming l and kappa.  Returns, per
    request, the arrays (sector, level, lam, start) of every level below
    its cut, by sector (an index into its kappa) and level (from 0),
    start as ``_roots`` takes it; and n.
    """
    ls = np.array([l for l, *_ in requests])
    kappa = np.concatenate([np.atleast_1d(k) for _, k, *_ in requests]
                           ).astype(float)
    owner = np.repeat(np.arange(ls.size),
                      [np.size(k) for _, k, *_ in requests])
    weight = np.concatenate([np.broadcast_to(w, np.shape(k))
                             for _, k, w, *_ in requests])
    least, reach = (np.array(v) for v in zip(*(r[3:] for r in requests)))
    base, each = np.maximum(4.0, ls ** 2.0), np.arange(ls.size)
    steps, first = 2 * _FIRST_STEPS, np.ones(ls.size)
    # The rungs c_0, c_first, c_first+1 of each request; those that need
    # not reach c_0 take c_first alone.
    taken = np.stack((reach, np.ones(ls.size, dtype=bool), reach), axis=1)
    while True:
        rungs = base[:, None] * 1.75 ** np.stack((0 * first, first,
                                                   first + 1), axis=1)
        data = np.zeros((3, 2, ls.size, 3))
        data[:, :, taken] = _monodromies(
            coefficients, np.repeat(ls, taken.sum(axis=1)), rungs[taken],
            (steps // 2, steps)).reshape(3, 2, -1)
        counts = level_counts(kappa[:, None], *data[:, 1, owner])
        held = (owner == each[:, None]) @ (weight[:, None] * counts)
        need = np.where(reach, np.maximum(least, held[:, 0] + 1), least)
        enough = (held[:, 1:] >= need[:, None]) & taken[:, 1:]
        if not enough.any(axis=1).all():
            first += 2 * ~enough.any(axis=1)
            continue
        rung = 1 + enough.argmax(axis=1)
        cuts = rungs[each, rung]
        angles = data[1:, :, each, rung]        # (angle, size, request)
        error = np.abs(angles[:, 1] - angles[:, 0]).max(axis=0) / 63
        if error.max() <= _LEVEL_TOL:
            break
        if steps >= _MAX_STEPS:
            raise ConvergenceFailure(
                f"Hill levels at l = {ls[error.argmax()]} not resolved at"
                f" {steps} Magnus steps per cell")
        steps *= 2
    counted = counts[np.arange(kappa.size), rung[owner]]

    lo, nodes = ls ** 2 - 0.25, _NODES
    while True:
        points, transform, *_ = _chebyshev(nodes)
        lam = 0.5 * ((cuts + lo)[:, None]
                     + np.multiply.outer(cuts - lo, points))
        coef = _product(_steps(coefficients, np.repeat(ls, nodes),
                               lam.ravel(), (steps,))).reshape(
            4, ls.size, nodes) @ transform
        tail = np.abs(coef[..., -3:]).max(axis=-1)
        if (tail <= _TAIL * np.abs(coef).max(axis=-1)).all():
            break
        if nodes >= _MAX_NODES:
            raise ConvergenceFailure(
                f"Hill levels at l = {ls[tail.max(axis=0).argmax()]}: the"
                f" half-cell entries need more than {nodes} nodes in lambda")
        nodes *= 2

    sector, u, start = _sector_roots(coef, kappa, owner)
    r = owner[sector]
    lam = lo[r] + 0.5 * (cuts - lo)[r] * (u + 1.0)
    order = np.lexsort((lam, sector))
    sector, lam, start = sector[order], lam[order], start[order]
    held = np.bincount(sector, minlength=kappa.size)
    off = np.flatnonzero(held != counted)
    if off.size:
        k, r = off[0], owner[off[0]]
        raise CountMismatch(
            f"Hill levels: below {float(cuts[r])!r} at l = {ls[r]}, sector"
            f" kappa = {float(kappa[k])!r} holds {held[k]} interpolant"
            f" roots but the discriminant counts {counted[k]}")
    level = np.arange(sector.size) - np.repeat(np.cumsum(held) - held, held)
    offset = np.searchsorted(owner, each)       # each request's first sector
    bounds = np.searchsorted(sector, np.append(offset, kappa.size))
    return [(sector[i:j] - k, level[i:j], lam[i:j], start[i:j])
            for k, i, j in zip(offset, bounds[:-1], bounds[1:])], steps


def _product(m):
    """E_n ... E_1 of the steps m, entries (E11, E12, E21, E22) of shape
    (steps, columns), a power of two of steps, by halving: each pass
    multiplies every later step onto the one before it."""
    rows = m.reshape((2, 2) + m.shape[1:])
    while rows.shape[2] > 1:
        a, b = rows[:, :, 1::2], rows[:, :, ::2]    # the later, the earlier
        rows = a[:, :1] * b[0] + a[:, 1:] * b[1]
    return rows.reshape(4, -1)


@functools.lru_cache
def _chebyshev(terms: int):
    """For ``terms`` Chebyshev points of the first kind u_j: the points;
    the matrix that takes values there (a row) to the coefficients of
    their interpolant in T_0 ... T_{terms-1}; the matrix that takes those
    to the derivative's; and a grid of ``_GRID`` points per node on
    [-1, 1] with T_0 ... T_{terms-1} on it."""
    k, j = np.ogrid[:terms, :terms]
    theta = math.pi * (np.arange(terms) + 0.5) / terms
    transform = np.cos(np.outer(theta, np.arange(terms))) * (2.0 / terms)
    transform[:, 0] *= 0.5
    grid = np.linspace(-1.0, 1.0, _GRID * terms + 1)
    derivative = np.where((k > j) & ((k - j) % 2 == 1), (2.0 - (j == 0)) * k,
                          0.0)
    cached = (np.cos(theta), transform, derivative, grid,
              np.cos(k * np.arccos(grid)))
    for a in cached:
        a.flags.writeable = False
    return cached


def _polish(series, one, two, target, a, b, below, u):
    """Roots of f = ``target`` in [a, b], where f - target has the sign bit
    ``below`` at a, by Newton steps from u, each kept inside the bracket it
    narrows (else its midpoint).  f is the entry ``one`` (n11, n12, n21,
    n22), or its product with the entry ``two``, from ``series``: the
    Chebyshev coefficients of the entries and of their derivatives, shape
    (8, points, terms), with T_k(u) = cos(k arccos u).  A root is done
    once its step is at most 1e-7 in u, when the next is at rounding."""
    points, terms = np.arange(u.size), np.arange(series.shape[-1])[:, None]
    done = np.zeros(u.size, dtype=bool)
    for _ in range(30):
        v = np.einsum("epk,kp->ep", series, np.cos(terms * np.arccos(u)))
        f, df = v[one, points], v[one + 4, points]
        if two is not None:
            g, dg = v[two, points], v[two + 4, points]
            f, df = f * g, df * g + f * dg
        miss = f - target
        right = np.signbit(miss) == below       # the root lies above u
        a, b = np.where(right, u, a), np.where(right, b, u)
        step = np.where(done, 0.0, miss / df)
        u = u - step
        done |= np.abs(step) <= 1e-7
        if done.all():
            break
        stray = ~(done | ((u >= a) & (u <= b)))
        u[stray] = 0.5 * (a + b)[stray]
    return u


def _sector_roots(coef, kappa, owner):
    """(sector, u, start) of every level of the sectors ``kappa`` on [-1, 1]
    (``levels``' flat sectors: sector k belongs to request ``owner[k]``),
    from the Chebyshev coefficients ``coef[:, r]`` of (n11, n12, n21, n22)
    of each request r.  The arrays are in no order."""
    *_, derivative, grid, basis = _chebyshev(coef.shape[-1])
    series = np.concatenate((coef, coef @ derivative))
    entries = np.einsum("erk,kg->reg", coef, basis)
    p = entries[:, 0] * entries[:, 3]           # n11 n22 on the grid
    # The edges: zeros of n11 (N-D), n12 (D-D), n21 (N-N) and n22 (D-N),
    # bracketed by sign changes on the grid; each is a level of every
    # sector of its request of its kappa (``_EDGE_KAPPA``).
    req, which, i = np.nonzero(np.signbit(entries[..., :-1])
                               != np.signbit(entries[..., 1:]))
    lo, hi = entries[req, which, i], entries[req, which, i + 1]
    edges = _polish(series[:, req], which, None, 0.0, grid[i], grid[i + 1],
                    np.signbit(lo),
                    grid[i] - lo * (grid[i + 1] - grid[i]) / (hi - lo))
    folded = np.minimum(kappa, 2.0 - kappa)
    e, edge_sector = np.nonzero((req[:, None] == owner)
                                & (_EDGE_KAPPA[which][:, None] == folded))
    # The bands of each request run from each even-numbered edge to the
    # next, the last to the cut (u = 1); n11 n22 is 1 at a kappa = 0 edge
    # and 0 at a kappa = 1 one.  A sector whose target n11 n22 =
    # cos^2(pi kappa/2) lies between a band's ends has one level in it.
    order = np.lexsort((edges, req))
    req, ends, at = req[order], edges[order], 1.0 - _EDGE_KAPPA[which[order]]
    bottom = np.flatnonzero((np.arange(req.size)
                             - np.searchsorted(req, req)) % 2 == 0)
    up = np.minimum(bottom + 1, req.size - 1)
    inside = (bottom + 1 < req.size) & (req[up] == req[bottom])
    req, a, b = req[bottom], ends[bottom], np.where(inside, ends[up], 1.0)
    at_a, at_b = at[bottom], np.where(inside, at[up], p[req, -1])
    inner = np.flatnonzero((folded > 0.0) & (folded < 1.0))
    target = np.cos(0.5 * math.pi * folded[inner]) ** 2
    band, k = np.nonzero((req[:, None] == owner[inner])
                         & (np.signbit(at_a[:, None] - target)
                            != np.signbit(at_b[:, None] - target)))
    r, a, b, at_a, at_b = (v[band] for v in (req, a, b, at_a, at_b))
    sector, target = inner[k], target[k]
    # Each level's bracket narrows to the grid points either side of it.
    below = np.signbit(at_a - target)
    inside = (grid > a[:, None]) & (grid < b[:, None])
    before = np.signbit(p[r] - target[:, None]) == below[:, None]
    last = np.where(inside & before, np.arange(grid.size), -1).max(
        axis=1, initial=-1)
    after = np.where(inside & ~before, np.arange(grid.size), grid.size).min(
        axis=1, initial=grid.size)
    nearer = last >= 0
    a = np.where(nearer, grid[last], a)
    at_a = np.where(nearer, p[r, last], at_a)
    nearer, after = after < grid.size, np.minimum(after, grid.size - 1)
    b = np.where(nearer, grid[after], b)
    at_b = np.where(nearer, p[r, after], at_b)
    # n11 n22 = cos^2(pi kappa/2) near kappa = 1, else n12 n21 =
    # -sin^2(pi kappa/2), whichever vanishes at the nearer band edge.
    near_one = target < 0.5
    u = _polish(series[:, r], np.where(near_one, 0, 1),
                np.where(near_one, 3, 2),
                np.where(near_one, target, target - 1.0), a, b, below,
                a + (target - at_a) * (b - a) / (at_b - at_a))
    return (np.concatenate((edge_sector, sector)),
            np.concatenate((edges[e], u)),
            np.concatenate((_EDGE_START[which[e]], np.full(u.size, -1))))
