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
  *Phys. Rep.* 470, 2009).  Every step's Omega is a traceless 2 x 2
  matrix, so its exponential is cosh(mu) I + sinh(mu)/mu Omega with
  mu^2 = -det Omega, and the steps are multiplied by a log-depth prefix
  product.  The reflection x -> pi - x gives the other half: with
  R = diag(1, -1), R Phi(pi - x) = Phi(x) R M, so for N = Phi(pi/2) the
  cell's monodromy is M = R N^-1 R N (Magnus & Winkler, *Hill's
  Equation*), and the discriminant is Delta = tr M =
  2 (n11 n22 + n12 n21).
* **Rotation number alpha(lambda).**  D, the number of zeros in (0, pi)
  of the solution with h(0) = 0, is read from its Pruefer angle theta
  (h = r sin theta, P h' = r cos theta, theta(0) = 0) as
  ceil(theta(pi)/pi) - 1.  theta crosses each multiple of pi upward
  only, so the angle counts every zero, also one inside the last step,
  which sign changes of h at the step points inside (0, pi) miss; its
  distance from a multiple of pi says how well D is resolved.  The n-th
  Dirichlet eigenvalue lies in the n-th gap (Eastham, *The Spectral
  Theory of Periodic Differential Equations*, ch. 3), so in a band
  (|Delta| < 2) the band is n = D + 1, with alpha = n - 1 +
  arccos(Delta/2)/pi for odd n and n - arccos(Delta/2)/pi for even n; in
  a gap, alpha is its index g, the one of D and D + 1 with sign
  Delta = (-1)^g.
* **Sector counts.**  With kappa folded into [0, 1], level n of a sector
  has alpha_n(kappa) = n - 1 + kappa for odd n and n - kappa for even n,
  and a sector counts the n with alpha_n(kappa) < alpha(lambda).  Inside
  gap g this misses the top edge of band g, whose alpha is g itself
  (kappa = 1 for odd g, kappa = 0 for even g), so that level is added.

``count`` totals the levels of the bipolar surface's sectors
(``surface_sectors``) at l = 0 and 1, with the step count resolved from
the run's own two sizes.  The coefficients come in as a callable
x -> (P, S, W), so any analytic triple that is even and of period pi can
be counted; ``monodromy`` checks the evenness (DomainError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError, in_interval

# Gauss-Legendre nodes of one Magnus step, as fractions of the step.
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
_FIRST_STEPS = 256      # Magnus steps per cell of the first size tried
_MAX_STEPS = 2 ** 14    # the finer size at which an unresolved count stops
_RESOLVED = 10.0        # distance to a band edge or zero, in its changes


def _commutator(x, y):
    """[X, Y] of traceless 2 x 2 matrices held as stacks (X11, X12, X21)."""
    return np.stack((x[1] * y[2] - x[2] * y[1],
                     2.0 * (x[0] * y[1] - x[1] * y[0]),
                     2.0 * (x[2] * y[0] - x[0] * y[2])))


def _even_coefficients(coefficients, x):
    """P, S and W at x, of shape (3 nodes, steps), after checking that they
    are even about pi/2 at the mirrors pi - x of the first step's nodes:
    DomainError if they are not."""
    p, s, w = (np.asarray(f, dtype=float) for f in
               coefficients(np.concatenate((x, math.pi - x[:, :1]), axis=1)))
    for f in (p, s, w):
        if np.max(np.abs(f[:, -1] - f[:, 0])) > 1e-12 * np.max(np.abs(f)):
            raise DomainError("the coefficients are not even about pi/2:"
                              " the half-cell monodromy needs P, S and W"
                              " even and of period pi")
    return p[:, :-1], s[:, :-1], w[:, :-1]


def _steps(coefficients, l, lam, steps: int):
    """exp(Omega) of every sixth-order Magnus step over the half cell
    [0, pi/2], h = pi/steps for ``steps`` (even) per cell, as entries
    (E11, E12, E21, E22), each of shape (pairs, steps/2)."""
    if steps < 2 or steps % 2:
        raise DomainError(f"Magnus steps per cell must be even, got {steps}")
    h = math.pi / steps
    x = (np.arange(steps // 2) + np.array(_GAUSS)[:, None]) * h
    p, s, w = _even_coefficients(coefficients, x)
    l2 = np.asarray(l, dtype=float)[:, None, None] ** 2
    lam = np.asarray(lam, dtype=float)[:, None, None]
    # A = [[0, 1/P], [l^2 S - lambda W, 0]] as (A11, A12, A21), at the three
    # nodes of each step: a[:, i] has shape (pairs, steps) for node i.
    lower = l2 * s - lam * w
    a = np.stack((np.zeros_like(lower), np.broadcast_to(1.0 / p, lower.shape),
                  lower)).swapaxes(1, 2)
    alpha1 = h * a[:, 1]
    alpha2 = math.sqrt(15.0) * h / 3.0 * (a[:, 2] - a[:, 0])
    alpha3 = 10.0 * h / 3.0 * (a[:, 2] - 2.0 * a[:, 1] + a[:, 0])
    c1 = _commutator(alpha1, alpha2)
    c2 = _commutator(alpha1, 2.0 * alpha3 + c1) / -60.0
    omega = (alpha1 + alpha3 / 12.0
             + _commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)
    # exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega, mu^2 = o11^2 + o12 o21.
    mu2 = omega[0] ** 2 + omega[1] * omega[2]
    mu = np.sqrt(np.abs(mu2))
    safe = np.where(mu > 0.0, mu, 1.0)
    hyper = mu2 > 0.0
    even = np.where(hyper, np.cosh(mu), np.cos(mu))
    odd = np.where(mu > 0.0, np.where(hyper, np.sinh(mu), np.sin(mu)) / safe,
                   1.0)
    return (even + odd * omega[0], odd * omega[1], odd * omega[2],
            even - odd * omega[0])


def _prefix_products(m):
    """Every prefix E_j ... E_1 of the step matrices, by log2(steps)
    passes that each multiply the products ending d apart."""
    m = [v.copy() for v in m]
    d = 1
    while d < m[0].shape[1]:
        a = [v[:, d:] for v in m]        # the later steps
        b = [v[:, :-d] for v in m]       # the earlier ones
        prod = (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])
        for v, new in zip(m, prod):
            v[:, d:] = new
        d *= 2
    return m


def monodromy(coefficients, l, lam, steps: int):
    """Delta = tr M and the Pruefer angle theta(pi) of each (l, lambda).

    ``l`` and ``lam`` are equal-length sequences of pairs, and ``steps``
    the Magnus steps per cell, of which the half cell [0, pi/2] takes
    steps/2.  With N = Phi(pi/2) and R = diag(1, -1), M = R N^-1 R N
    and Delta = 2 (n11 n22 + n12 n21).  The
    solution with h(0) = 0, P h'(0) = 1 is Phi(x) e2 on [0, pi/2], the
    second column of every prefix product, and on [pi/2, pi] it is
    y(pi - x) = R Phi(x) c with c = N^-1 R N e2 =
    (2 n12 n22, -(n11 n22 + n12 n21)), read from the same prefix
    products; so its angle is known at all ``steps`` step points of the
    cell.  Consecutive angles differ by less than pi at any resolved
    step count (``count`` checks theta against twice the steps), and
    their principal differences sum to theta(pi).  DomainError if P, S
    or W is not even about pi/2, or ``steps`` is odd.
    """
    m = _prefix_products(_steps(coefficients, l, lam, steps))
    n11, n12, n21, n22 = (v[:, -1:] for v in m)
    cross = n11 * n22 + n12 * n21
    c1, c2 = 2.0 * n12 * n22, -cross
    # (h, P h') at pi - x_j is (u, -v) for (u, v) = Phi(x_j) c: taken at
    # x_j for j = steps/2 - 1 down to 1, and at x = 0, where it is R c.
    e11, e12, e21, e22 = (v[:, -2::-1] for v in m)
    angle = np.concatenate((np.arctan2(m[1], m[3]),
                            np.arctan2(e11 * c1 + e12 * c2,
                                       -(e21 * c1 + e22 * c2)),
                            np.arctan2(c1, -c2)), axis=1)
    turn = np.diff(angle, prepend=0.0, axis=1)
    theta = np.sum(turn - 2.0 * math.pi * np.round(turn / (2.0 * math.pi)),
                   axis=1)
    return 2.0 * cross[:, 0], theta


def rotation_number(delta, theta):
    """alpha(lambda) and the gap index (-1 in a band) from Delta and theta."""
    delta, theta = np.asarray(delta, float), np.asarray(theta, float)
    dirichlet = np.ceil(theta / math.pi).astype(int) - 1
    band = dirichlet + 1
    turn = np.arccos(np.clip(0.5 * delta, -1.0, 1.0)) / math.pi
    in_band = np.abs(delta) < 2.0
    gap = np.where(np.where(dirichlet % 2, -1.0, 1.0) == np.sign(delta),
                   dirichlet, dirichlet + 1)
    alpha = np.where(in_band, np.where(band % 2, band - 1 + turn, band - turn),
                     gap)
    return alpha, np.where(in_band, -1, gap)


def level_counts(kappa, alpha: float, gap: int) -> np.ndarray:
    """Levels below lambda in each Bloch sector kappa (in [0, 2)), where
    alpha(lambda) = ``alpha`` and ``gap`` is its gap index, or -1."""
    kappa = np.asarray(kappa, dtype=float)
    folded = np.minimum(kappa, 2.0 - kappa)
    n = np.arange(1, math.floor(alpha) + 2)
    level_alpha = np.where(n % 2, n - 1 + folded[:, None], n - folded[:, None])
    counts = np.sum(level_alpha < alpha, axis=1)
    if gap >= 1:        # the top edge of band g, at alpha = g
        counts += folded == (1.0 if gap % 2 else 0.0)
    return counts


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
    """Resolved rotation numbers at l = 0, 1 and every lambda of ``count``.

    ``alpha[l, j]`` and ``gap[l, j]`` belong to l and ``lams[j]``;
    ``totals[j]`` is N(lams[j]), each level at l = 1 counted twice (the
    cos and sin angular factors).  ``steps`` is the finer of the two step
    counts per cell that agreed.
    """

    lams: tuple
    alpha: np.ndarray
    gap: np.ndarray
    totals: tuple
    steps: int

    def levels(self, l: int, j: int, kappa) -> np.ndarray:
        """``level_counts`` of the sectors kappa at l and lams[j]."""
        return level_counts(kappa, self.alpha[l, j], int(self.gap[l, j]))


def count(coefficients, q: int, lams) -> HillCount:
    """Eigenvalues below each lambda of ``lams`` on the bipolar surface of
    p/q, at l = 0 and 1 over the sectors of ``surface_sectors``.

    Every lambda must be a number of at most 4, else DomainError: no level
    of l >= 2 lies below 4 (S/W >= 1), and N counts strictly below lambda.
    Steps per cell start at 256 and double until the totals at n and 2n
    steps agree and, at every (l, lambda), both |Delta - 2| and
    |Delta + 2| and the distance of theta(pi) from a multiple of pi
    exceed ten times their change between n and 2n.  ConvergenceFailure
    if that does not happen by 2n = 16384.
    """
    lams = tuple(in_interval(v, "lambda", -math.inf, 4.0, hi_closed=True)
                 for v in lams)
    l_pairs = np.repeat((0, 1), len(lams))
    lam_pairs = np.tile(lams, 2)
    sectors = [surface_sectors(q, l) for l in (0, 1)]

    def measure(steps):
        delta, theta = monodromy(coefficients, l_pairs, lam_pairs, steps)
        alpha, gap = (v.reshape(2, len(lams))
                      for v in rotation_number(delta, theta))
        totals = tuple(
            sum((1 + l) * int(np.sum(level_counts(sectors[l], alpha[l, j],
                                                  gap[l, j])))
                for l in (0, 1))
            for j in range(len(lams)))
        return delta, theta, alpha, gap, totals

    steps = _FIRST_STEPS
    coarse = measure(steps)
    while True:
        fine = measure(2 * steps)
        delta, theta = fine[:2]
        edge = np.minimum(np.abs(delta - 2.0), np.abs(delta + 2.0))
        zero = np.abs(theta - math.pi * np.round(theta / math.pi))
        if (fine[4] == coarse[4]
                and np.all(edge > _RESOLVED * np.abs(delta - coarse[0]))
                and np.all(zero > _RESOLVED * np.abs(theta - coarse[1]))):
            return HillCount(lams=lams, alpha=fine[2], gap=fine[3],
                             totals=fine[4], steps=2 * steps)
        if 2 * steps >= _MAX_STEPS:
            raise ConvergenceFailure(
                f"Hill count at q = {q} not resolved at {2 * steps} Magnus"
                f" steps per cell: totals {coarse[4]} and {fine[4]}")
        steps, coarse = 2 * steps, fine
