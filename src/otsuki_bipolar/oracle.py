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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConvergenceFailure
from .geodesic import GeodesicProfile, radial_coefficients
from .immersion import _bipolar_point
from .spectrum import ModeTable
from .sturm import flux_stencil

_ORACLE_SEED = 0xFEEDFACE


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


def dense_spectrum(grid: TorusGrid, lambda_cut: float,
                   k_start: int | None = None) -> OracleSpectrum:
    """All eigenvalues of the discretized operator below ``lambda_cut``.

    Solves K f = lambda W f through its symmetric form A = D K D with
    D = W^-1/2 (same eigenvalues), by shift-invert Lanczos about a shift
    inside the window, with a deterministic start vector and no
    eigenvectors.  For even q, A splits into A[R, R] + c A[R, P(R)] for
    the deck characters c = +1 and -1, where R are the unknowns of the
    first n_t/2 x-rows and P is the deck shift: P has no fixed point and
    commutes with A.  Each block is factored once (minimum-degree
    ordering on A + A^T) and that LU is reused while k grows from its
    first request until the window provably covers the cutoff.
    ``k_start`` sizes the first request over the whole grid, a Weyl
    estimate by default; odd q asks for ``k_start`` and even q for
    ceil(k_start / 2) + 2 in each block.
    """
    if lambda_cut <= 0.0:
        raise ValueError("lambda_cut must be positive")
    d = scipy.sparse.diags(1.0 / np.sqrt(grid.mass))
    a = (d @ _operator_matrix(grid) @ d).tocsc()
    if k_start is None:
        # The parameter torus has area t0, so Weyl's law puts about
        # t0 lambda / (4 pi) eigenvalues below lambda.  The counts below the
        # cut measured on 2/3, 3/5 and 5/8 (cuts 0.05 to 2.5, grids 32x256
        # to 96x768) are at most 1.3 times that, or a handful at tiny cuts;
        # the margin covers both, so one Lanczos run holds the window.
        weyl = grid.profile.t0 * lambda_cut / (4.0 * math.pi)
        k_start = math.ceil(1.35 * weyl) + 3
    blocks = {1.0: a}
    if grid.profile.solution.rotation.even_q:
        idx = np.arange(a.shape[0]).reshape(grid.n_t, grid.n_alpha)
        deck = np.roll(idx[grid.n_t // 2:], -(grid.n_alpha // 2), axis=1).ravel()
        top = a[:deck.size]
        blocks = {c: (top[:, :deck.size] + c * top[:, deck]).tocsc()
                  for c in (1.0, -1.0)}
        k_start = math.ceil(k_start / 2) + 2

    # Each block is PSD, so with 0 < sigma < lambda_cut / 2 every eigenvalue
    # below the cut is nearer to sigma than lambda_cut - sigma, and every one
    # at or above it is at least that far away: the k eigenvalues nearest
    # sigma hold the whole window once the largest of them reaches the cut.
    sigma = 0.45 * lambda_cut
    vals, chars = [], []
    for c, block in blocks.items():
        n = block.shape[0]
        lu = scipy.sparse.linalg.splu(
            block - sigma * scipy.sparse.identity(n, format="csc"),
            permc_spec="MMD_AT_PLUS_A")
        op_inv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve,
                                                    dtype=block.dtype)
        v0 = np.random.default_rng(_ORACLE_SEED).standard_normal(n)
        k = min(k_start, n - 2)
        while True:
            try:
                found = np.sort(scipy.sparse.linalg.eigsh(
                    block, k=k, sigma=sigma, which="LM", v0=v0, OPinv=op_inv,
                    return_eigenvectors=False))
            except scipy.sparse.linalg.ArpackNoConvergence as exc:
                raise ConvergenceFailure(f"oracle eigensolver failed: {exc}") from exc
            if found[-1] >= lambda_cut or k >= n - 2:
                break
            k = min(2 * k, n - 2)
        vals.append(found[found < lambda_cut])
        chars.append(np.full(vals[-1].size, c))

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
    # phi and theta depend on t alone: evaluate them once per node row.
    ts = grid.ts[:, None]
    coords = _bipolar_point(grid.alphas[None, :], profile.phi_at(ts),
                            profile.theta_at(ts))       # (nt, na, 5)
    worst = 0.0
    for j in range(coords.shape[-1]):
        flat = coords[..., j].ravel()
        resid = (a @ flat) / w - 2.0 * flat
        worst = max(worst, float(np.max(np.abs(resid))
                                 / np.max(np.abs(flat))))
    return worst


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
