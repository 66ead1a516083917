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
* **Levels.**  ``_roots`` steps a level to the root of its condition,
  and ``_rows`` samples its solution from the same pass.

``count`` totals the levels of the bipolar surface's sectors
(``surface_sectors``) at l = 0 and 1, with the step count resolved from
one pass's own two sizes, n and 2n.  The coefficients come in as a
callable x -> (P, S, W), so any analytic triple that is even and of
period pi can be counted; ``monodromy`` checks the evenness
(DomainError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError, in_interval

# Gauss-Legendre nodes of one Magnus step, as fractions of the step.
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
_FIRST_STEPS = 64       # Magnus steps per cell n of the first pass, which
                        # measures n and 2n; each later pass doubles both
_MAX_STEPS = 2 ** 14    # the finer size at which an unresolved count stops
_RESOLVED = 10.0        # distance to a half-cell level, in its changes
_ROUNDING = 1e-12       # the angles' rounding, added to each change


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
    n = np.array(sizes)
    first = max(sizes) // 2 - n // 2        # the first step of each size
    k = np.arange(max(sizes) // 2)[:, None] - first
    h = np.where(k >= 0, math.pi / n, 0.0)[..., None]
    nodes = (np.maximum(k, 0) + np.array(_GAUSS)[:, None, None]) * h[..., 0]
    mirrors = math.pi - nodes[:, first, np.arange(n.size)]
    f = np.array(coefficients(np.concatenate((nodes.reshape(3, -1), mirrors),
                                             axis=1)), dtype=float)
    ends = f[:, :, :-n.size].reshape(f.shape[:2] + nodes.shape[1:])
    mismatch = abs(f[:, :, -n.size:] - ends[:, :, first, np.arange(n.size)])
    if (mismatch.max(axis=(1, 2)) > 1e-12 * abs(f).max(axis=(1, 2))).any():
        raise DomainError("the coefficients are not even about pi/2:"
                          " the half-cell monodromy needs P, S and W"
                          " even and of period pi")
    p, s, w = ends[..., None]               # (3 nodes, steps, sizes, 1)
    return _exp_omega(p, s, w, h, l, lam).reshape(4, h.shape[0], -1)


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


def _roots(coefficients, l, kappa, level, lam, steps: int):
    """Each level's Hill root, one Newton step from ``lam``.

    Row r is level ``level[r]`` (from 0) of the sector ``kappa[r]`` (in
    [0, 2)) at ``l[r]``, near ``lam[r]``; the four broadcast.  In an edge
    sector (kappa folded to c = 0 or 1) level i is an edge of gap g = i +
    (i + c) mod 2, where theta_d = g pi/2 or theta_n = (g + 1) pi/2 (gap 0:
    the lowest N-N level alone); a gap's roots are sorted onto its rows,
    each stepped from the row nearer to it (one row takes the nearer
    root).  Elsewhere Delta = 2 cos(pi kappa), as n11 n22 = cos^2(pi
    kappa/2) or n12 n21 = -sin^2(pi kappa/2), whichever vanishes at the
    nearer band edge, to keep its relative precision there.  The slopes
    come from the same pass at ``steps`` per cell: dPhi/dlambda = Phi K,
    K the running integral of [[W a b, W b^2], [-W a^2, -W a b]], so
    theta_n' = I_aa/r_n^2, theta_d' = I_bb/r_d^2 and (n11 n22)' = Delta'/4
    = n11 n21 I_bb - n12 n22 I_aa (``_integrals``; even about 0 and pi/2
    at a level, and for Delta' across a band).  Returns the roots; each
    row's start: 0 for the N solution (h, P h')(0) = (1, 0), 1 for the D
    solution (0, 1), -1 for the Floquet vector (``_rows``); (Delta,
    theta_d, theta_n) at lam and the slopes, shape (2, 3, rows); and the
    pass: Phi at every step end from 0, the running integrals, and each
    row's step to its root, an interior level's Newton step itself, not
    a rounded difference.
    """
    l, kappa, level, lam = np.broadcast_arrays(l, kappa, level,
                                               np.asarray(lam, dtype=float))
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
    newton = miss / slope
    root = lam - newton
    roots, start = root[0].copy(), np.full(lam.shape, -1)
    gaps = {}
    for r in np.flatnonzero(folded % 1.0 == 0.0):
        gaps.setdefault((l[r], folded[r], gap[r]), []).append(r)
    for rows in gaps.values():
        # (root, start) of the gap's edges: theta_d's (D) and theta_n's (N).
        near = {j: min(rows, key=lambda r: abs(root[j, r] - lam[r]))
                for j in ((1, 2) if gap[rows[0]] else (2,))}
        found = sorted((root[j, r], 2 - j) for j, r in near.items())
        if len(rows) < len(found):
            found = [min(found, key=lambda f: abs(f[0] - lam[rows[0]]))]
        rows.sort(key=lambda r: level[r])
        roots[rows], start[rows] = zip(*found)
    # In a narrow band the multiplier turns by (root - lam)/bandwidth, so an
    # interior row takes the unrounded step.
    return roots, start, np.stack((at[:3], slope)), (
        m, run, np.where(start < 0, -newton[0], roots - lam))


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
