"""Brute-force 2-D verification of the separated spectrum.

Discretizes the full Laplace-Beltrami operator of the bipolar surface,

    L f = -(1/cos^2 phi) f_aa - d/dt(4 pi^2 cos^2 phi f_t),

directly on the torus in the analytic chart of the profile,
sin(phi) = sin(b) cos(x), where one period t0 is x in [0, 2 q pi).
With the mass W = dt/dx the operator takes the flux form

    W L f = -(P f_x)_x - S f_aa,
    P = 2 pi sqrt(cos^2 phi + cos^2 b),
    S = 2 pi / sqrt(cos^2 phi + cos^2 b),
    W = 2 pi cos^2 phi / sqrt(cos^2 phi + cos^2 b),

whose coefficients are analytic and pi-periodic in x.  On a grid
uniform in (alpha, x) the flux discretization is a symmetric
positive-semidefinite stiffness K and W a positive diagonal, so the
discrete operator W^-1 K is self-adjoint in the W-weighted inner
product (not the uniform one).  Its spectrum below a cutoff, from
K f = lambda W f, is compared one-to-one against the assembled
separated-variable table.

For even q the parameter grid double-covers the surface.  The deck
transformation (alpha, t) -> (alpha + pi, t + t0/2) is a shift by half
the nodes on each axis (in the chart, x -> x + q pi); it commutes with
the operator, which splits exactly into a deck-even and a deck-odd
block.  Only the even block descends to the surface, mirroring the
quotient filter of the assembly.

The coefficients do not depend on alpha, so ``dense_spectrum`` solves the
operator exactly by alpha-Fourier modes: each mode leaves a cyclic
tridiagonal block in x.  The coefficients are even in x, so the
reflection x -> -x folds each block into an even and an odd symmetric
tridiagonal of about n/2 rows, each solved by Sturm-sequence bisection
below the cut (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geodesic, spectrum
from .errors import ConvergenceFailure, in_interval
from .geodesic import GeodesicProfile, radial_coefficients
from .immersion import immerse_bipolar
from .spectrum import ModeTable
from .sturm import flux_stencil


@dataclass(frozen=True)
class TorusGrid:
    """Periodic grid on [0, 2 pi) x [0, 2 q pi), uniform in (alpha, x).

    ``xs`` are the chart nodes, spaced 2 q pi / n_t.  ``ts`` are the same
    nodes in the geodesic parameter, t(x_j); they are not uniform, and
    are densest near the turning points |phi| = b, where dt/dx is
    smallest.  Unknowns are indexed row = j_x * n_alpha + i_alpha.
    """

    profile: GeodesicProfile
    n_alpha: int
    n_t: int

    def __post_init__(self):
        if self.n_alpha < 32 or self.n_t < 32:
            raise ValueError("oracle grid needs at least 32 points per axis")
        if self.n_alpha % 2 or self.n_t % 2:
            raise ValueError("oracle grid sizes must be even")

    @property
    def alphas(self) -> np.ndarray:
        return np.arange(self.n_alpha) * (2.0 * math.pi / self.n_alpha)

    @property
    def h_x(self) -> float:
        return 2 * self.profile.solution.rotation.q * math.pi / self.n_t

    @property
    def xs(self) -> np.ndarray:
        return np.arange(self.n_t) * self.h_x

    @property
    def ts(self) -> np.ndarray:
        return self.profile.t_of_x(self.xs)

    @property
    def mass(self) -> np.ndarray:
        """Diagonal mass W = dt/dx at every unknown."""
        w = radial_coefficients(self.profile.solution.b, self.xs)[2]
        return np.repeat(w, self.n_alpha)

    def points_per_half_oscillation(self) -> float:
        return self.n_t / (2 * self.profile.solution.rotation.q)


def _operator_matrix(grid: TorusGrid) -> scipy.sparse.csc_matrix:
    """Stiffness K of -(P f_x)_x - S f_aa, symmetric with constants in its kernel.

    The Kronecker sum of the flux stencil along alpha, weighted per x-row
    by S / h_a^2, and the flux stencil along x with P / h_x^2 at the half
    nodes; both axes are periodic.
    """
    import scipy.sparse

    b = grid.profile.solution.b
    h_a, h_x = 2.0 * math.pi / grid.n_alpha, grid.h_x
    s_rows = radial_coefficients(b, grid.xs)[1] / h_a ** 2
    p_half = radial_coefficients(b, grid.xs + 0.5 * h_x)[0] / h_x ** 2
    k = (scipy.sparse.kron(scipy.sparse.diags(s_rows),
                           flux_stencil(np.ones(grid.n_alpha)))
         + scipy.sparse.kron(flux_stencil(p_half),
                             scipy.sparse.identity(grid.n_alpha)))
    return k.tocsc()


@dataclass
class OracleSpectrum:
    """Eigenvalues of the 2-D operator below a cutoff.

    ``deck_characters`` is each eigenvalue's character, +1 or -1, under
    the half-period deck transformation: the block it was solved in.
    ``kept`` marks the +1 eigenvalues, whose eigenfunctions descend to
    the quotient surface (all of them for odd q, where every character
    is +1).
    """

    grid: TorusGrid
    lambda_cut: float
    eigenvalues: np.ndarray
    deck_characters: np.ndarray
    kept: np.ndarray

    def kept_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.kept]


def _folded_blocks(p_half: np.ndarray, s_over_w: np.ndarray, w: np.ndarray,
                   wrap: float):
    """The cyclic block D flux_stencil(p_half, wrap) D, D = W^-1/2, folded
    under the reflection (R f)_j = wrap^[j>0] f_{(-j) mod n}.

    Returns the even and the odd part, each as (diagonal, off-diagonal,
    S/W on the diagonal) of a symmetric tridiagonal over the orbits
    j = 0 ... n // 2 that it keeps.  A paired orbit {j, n-j} gives the
    basis vector (e_j +- wrap e_{n-j}) / sqrt 2 to each part; the fixed
    orbit j = 0 belongs to the even part and j = n/2 (even n) to the part
    of sign ``wrap``.  A coupling to a fixed orbit carries sqrt 2, and at
    odd n the middle pair's own coupling moves onto its diagonal.
    """
    n = p_half.size
    m = n // 2
    d = 1.0 / np.sqrt(w)
    diag = (p_half + np.roll(p_half, 1)) * d * d
    coupling = -p_half[:-1] * d[:-1] * d[1:]        # B[j, j+1]
    off = coupling[:m].copy()
    off[0] *= math.sqrt(2.0)
    if n % 2 == 0:
        off[m - 1] *= math.sqrt(2.0)
    parts = []
    for sign in (1.0, -1.0):
        lo = 0 if sign == 1.0 else 1
        hi = m + 1 if n % 2 or sign == wrap else m
        diag_part = diag[:m + 1].copy()
        if n % 2:
            diag_part[m] += sign * wrap * coupling[m]
        parts.append((diag_part[lo:hi], off[lo:hi - 1], s_over_w[lo:hi]))
    return parts


def _mirror_asymmetry(p_half: np.ndarray, *node_values: np.ndarray) -> float:
    """Largest relative change of sampled coefficients under x -> -x, which
    takes node j to (-j) mod n and half node j + 1/2 to n - 1 - j."""
    pairs = [(p_half, p_half[::-1])]
    pairs += [(v, np.roll(v[::-1], 1)) for v in node_values]
    return max(float(np.max(np.abs(v - r)) / np.max(np.abs(v))) for v, r in pairs)


def dense_spectrum(grid: TorusGrid, lambda_cut: float,
                   k_start: int | None = None) -> OracleSpectrum:
    """All eigenvalues of the discretized operator below ``lambda_cut``.

    The coefficients depend on x alone, so the alpha-Fourier mode l, of
    stencil eigenvalue mu_l = (2 sin(pi l / n_alpha) / h_alpha)^2, leaves the
    cyclic 1-D block D (flux_stencil(P_half / h_x^2) + mu_l diag(S)) D with
    D = W^-1/2, counted twice (cos and sin) for 0 < l < n_alpha/2.  P, S
    and W are even in x, so each block commutes with the reflection
    x -> -x and splits exactly into its even and odd parts (Magnus &
    Winkler, Hill's Equation, 1966).  In the orthonormal bases of
    ``_folded_blocks`` each part is a symmetric tridiagonal of about n/2
    rows, whose eigenvalues below the cut LAPACK's Sturm-sequence
    bisection (``scipy.linalg.eigh_tridiagonal``, ``stebz``) finds at
    O(n) per bisection step, with no band reduction and no dense array.  The
    sampled coefficients must be mirror-symmetric to 1e-9 relative, or
    ConvergenceFailure is raised rather than a wrong fold solved.  The
    stencil is PSD, so block l has none below mu_l min(S/W): the loop stops
    at the first l where that bound reaches the cut.  For even q the deck
    shift acts on mode l as (-1)^l times the half shift x -> x + q pi, so
    each block splits into the wrap +1 and wrap -1 problems on the first
    n_t/2 nodes, of deck character wrap (-1)^l.  ``k_start`` is ignored.
    A cut that is not a finite positive number raises DomainError.
    """
    import scipy.linalg

    lambda_cut = in_interval(lambda_cut, "lambda_cut", 0.0, math.inf)
    b, h_x = grid.profile.solution.b, grid.h_x
    h_a = 2.0 * math.pi / grid.n_alpha
    _, s, w = radial_coefficients(b, grid.xs)
    p_half = radial_coefficients(b, grid.xs + 0.5 * h_x)[0] / h_x ** 2
    even_q = grid.profile.solution.rotation.even_q
    n, wraps = (grid.n_t // 2, (1.0, -1.0)) if even_q else (grid.n_t, (1.0,))
    p_half, s_over_w, w = p_half[:n], s[:n] / w[:n], w[:n]
    asymmetry = _mirror_asymmetry(p_half, s_over_w, w)
    if not asymmetry <= 1e-9:
        raise ConvergenceFailure(
            f"oracle: coefficients are not even in x (relative asymmetry"
            f" {asymmetry:.3g} > 1e-9), so the reflection fold does not hold")
    blocks = [(c, part) for c in wraps
              for part in _folded_blocks(p_half, s_over_w, w, c)]

    vals, chars = [], []
    for l in range(grid.n_alpha // 2 + 1):
        mu = (2.0 * math.sin(math.pi * l / grid.n_alpha) / h_a) ** 2
        if mu * np.min(s_over_w) >= lambda_cut:
            break
        copies = 2 if 0 < l < grid.n_alpha // 2 else 1
        for c, (diag, off, sow) in blocks:
            try:
                found = scipy.linalg.eigh_tridiagonal(
                    diag + mu * sow, off, eigvals_only=True, select="v",
                    select_range=(-np.inf, lambda_cut))
            except scipy.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"oracle eigensolver failed: {exc}") from exc
            found = np.repeat(found[found < lambda_cut], copies)
            vals.append(found)
            chars.append(np.full(found.size, c * (-1) ** l if even_q else 1.0))

    vals, chars = np.concatenate(vals), np.concatenate(chars)
    order = np.argsort(vals, kind="stable")
    return OracleSpectrum(grid=grid, lambda_cut=lambda_cut,
                          eigenvalues=vals[order],
                          deck_characters=chars[order], kept=chars[order] == 1.0)


def theorem2_residual(profile: GeodesicProfile, grid: TorusGrid) -> float:
    """Worst relative residual of L f = 2 f over the immersed coordinates.

    Evaluates the five coordinate functions of the immersion at the
    grid nodes, applies the discrete operator W^-1 K, and returns
    max ||W^-1 K f - 2 f||_inf / ||f||_inf; second-order convergence in
    the grid spacing.
    """
    a = _operator_matrix(grid)
    w = grid.mass
    coords = immerse_bipolar(profile, grid.alphas[None, :],
                             grid.ts[:, None])          # (nt, na, 5)
    worst = 0.0
    for j in range(coords.shape[-1]):
        flat = coords[..., j].ravel()
        resid = (a @ flat) / w - 2.0 * flat
        worst = max(worst, float(np.max(np.abs(resid))
                                 / np.max(np.abs(flat))))
    return worst


RICHARDSON_DIVISOR = 1.25   # two-size difference over fine-grid error
WINDOW_FLOOR = 0.02         # least half-width of the threshold window
PAIR_FLOOR = 1e-3           # least pair tolerance


def _coarser(n: int) -> int:
    """Two thirds of n, rounded down to even, and at least 32."""
    return max(32, (2 * n) // 3 // 2 * 2)


def cross_check(sol, n_alpha: int, n_t: int, lambda_cut: float) -> dict:
    """The oracle at n_alpha x n_t against ``spectrum.assemble``'s table.

    The table is assembled from values-only radial spectra: one
    ``spectrum._RadialChart`` serves ``solve_radial`` at each l of
    ``spectrum._angular_indices``, with no sector sampled, since the match
    reads only eigenvalues and Bloch sectors.  Its eigenvalues are those
    of the default table up to eigensolver rounding.  The profile samples
    nothing; the oracle reads only its charts.  The oracle error is
    estimated from the kept eigenvalues on this grid and on the
    ``_coarser`` one; twice it, floored, sets the threshold window and the
    pair tolerance of ``match_table`` below 2.  The keys are those of the
    ``cross-check`` command's output without p and q.  A cut that is not
    a finite number of at least 2 raises DomainError.
    """
    prof = geodesic.profile(sol, 16)
    chart = spectrum._RadialChart(sol.b, sol.rotation.q)
    # No row is sampled, so the t-grid is moot: the least one, 8q points.
    spectra = {l: spectrum.solve_radial(sol, None, l, 0, chart=chart,
                                        sampled_sectors=())
               for l in spectrum._angular_indices(lambda_cut)}
    table = spectrum.assemble(sol, None, lambda_cut=lambda_cut, spectra=spectra)
    fine, coarse = (dense_spectrum(TorusGrid(prof, na, nt), lambda_cut) for na, nt
                    in ((n_alpha, n_t), (_coarser(n_alpha), _coarser(n_t))))
    kept_fine, kept_coarse = fine.kept_eigenvalues(), coarse.kept_eigenvalues()
    m = min(kept_fine.size, kept_coarse.size)
    eps = float(np.max(np.abs(kept_fine[:m] - kept_coarse[:m]))
                / RICHARDSON_DIVISOR)
    window, pair_tol = max(2.0 * eps, WINDOW_FLOOR), max(2.0 * eps, PAIR_FLOOR)
    ok, diff, n_oracle, n_table = match_table(fine, table, 2.0, window, pair_tol)
    return {"N2_assembled": spectrum.weyl_N(table, 2.0),
            "n_below_2_oracle": n_oracle, "n_below_2_assembled": n_table,
            "max_pairwise_difference": diff if math.isfinite(diff) else None,
            "pair_tolerance": pair_tol, "oracle_eps": eps,
            "threshold_window": window,
            "counts_agree": bool(n_oracle == n_table), "pass": bool(ok)}


def match_table(oracle: OracleSpectrum, table: ModeTable, lam: float,
                exclusion_window: float, pair_tol: float):
    """Pair oracle and assembled eigenvalues below ``lam``.

    The ``table.threshold_multiplicity()`` kept oracle eigenvalues nearest
    ``lam`` stand for the table's pinned modes and are set aside; the match
    fails if one lies farther than ``exclusion_window`` from ``lam``.  The
    rest below ``lam`` are paired on both sides.  Returns
    (match, max_pairwise_difference, n_oracle, n_table).
    """
    kept = oracle.kept_eigenvalues()
    aside = np.argsort(np.abs(kept - lam), kind="stable")[
        :table.threshold_multiplicity()]
    clustered = bool(np.all(np.abs(kept[aside] - lam) <= exclusion_window))
    rest = np.sort(np.delete(kept, aside))
    oracle_vals = rest[rest < lam]

    table_vals = np.sort([e.lam for e in table.kept_below(lam)
                          if not e.pinned_two for _ in range(e.multiplicity)])

    if oracle_vals.size != table_vals.size:
        return False, float("inf"), int(oracle_vals.size), int(table_vals.size)
    diff = float(np.max(np.abs(oracle_vals - table_vals))) if table_vals.size else 0.0
    return clustered and diff <= pair_tol, diff, int(oracle_vals.size), int(table_vals.size)
