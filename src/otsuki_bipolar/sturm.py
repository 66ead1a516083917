"""Periodic and antiperiodic Sturm-Liouville eigensolver.

Solves -(p(t) h')' + V(t) h = lambda h on a circle of circumference
``period`` with h(t + period) = +h (periodic) or -h (antiperiodic),
for smooth positive p and non-negative V.

The discretization is the self-adjoint flux-form finite-difference
stencil ``flux_stencil``: p is evaluated at half-grid points and the
antiperiodic condition is realized by sign-flipped wraparound couplings,
producing a symmetric cyclic-tridiagonal matrix.  The 2-D oracle builds
both of its axes from the same stencil.  Eigenvalues converge at second
order in the grid spacing; the per-spectrum attribute ``eps_grid``
carries a Richardson estimate of the remaining discretization error.

Classical oscillation theory labels the eigenfunctions: sorted by
eigenvalue, the periodic ones have 0, 2, 2, 4, 4, ... sign changes per
period and the antiperiodic ones 1, 1, 3, 3, ...; the two families
interlace.  By the same oscillation theorem every function in a
degenerate eigenspace has that eigenvalue's zero count, so the solver
counts the zeros of the vectors it returns without rotating
near-degenerate pairs to a preferred basis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateGrid,
    SubperiodViolation,
    ZeroFunction,
)

_ARPACK_SEED = 0xC0FFEE


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    ANTIPERIODIC = "antiperiodic"


@dataclass(frozen=True)
class SLProblem:
    """One separated radial problem: -(p h')' + V h = lambda h.

    l        -- angular wave number the potential came from
    period   -- circumference of the t-circle
    p_fn     -- vectorized coefficient, strictly positive
    v_fn     -- vectorized potential, non-negative
    boundary -- periodic or antiperiodic closure
    coefficient_subperiod -- finest known period of p and V, if any
    """

    l: int
    period: float
    p_fn: Callable
    v_fn: Callable
    boundary: Boundary
    coefficient_subperiod: float | None = None


def build_problem(profile, l: int,
                  boundary: Boundary = Boundary.PERIODIC) -> SLProblem:
    """Bind the radial problem of angular index l to a geodesic profile.

    ``profile`` is anything with ``t0`` (the period), ``t_half`` (the
    half-oscillation) and a vectorized ``cos2_phi_at(t)``, such as a
    ``geodesic.GeodesicProfile`` or a ``spectrum._RadialChart``.

    p(t) = 4 pi^2 cos^2 phi(t) and V(t) = l^2 / cos^2 phi(t); both have
    period t0/(2q) because cos^2 phi repeats every half-oscillation.
    """
    if l < 0:
        raise ValueError("angular index l must be non-negative")
    four_pi2 = 4.0 * math.pi ** 2
    l2 = float(l * l)

    def p_fn(t):
        return four_pi2 * profile.cos2_phi_at(t)

    if l == 0:
        def v_fn(t):
            return np.zeros_like(np.asarray(t, dtype=float))
    else:
        def v_fn(t):
            return l2 / profile.cos2_phi_at(t)

    return SLProblem(l=l, period=profile.t0, p_fn=p_fn, v_fn=v_fn,
                     boundary=boundary,
                     coefficient_subperiod=profile.t_half)


@dataclass
class SLSpectrum:
    """Ordered eigenpairs of one problem with oscillation labels.

    Eigenfunctions are rows sampled on ``grid``, normalized to unit L2
    norm over the period; ``zero_counts[i]`` is the number of sign
    changes of eigenfunction i per period and ``labels[i] = i`` its
    position in the classical ordering.  ``sectors[i]`` is the Bloch
    sector k of eigenfunction i when the solver separates the problem
    by sectors (see ``spectrum.solve_radial``), and None otherwise.  A
    row that the solver did not sample holds NaN and zero count -1.
    """

    problem: SLProblem
    grid: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    zero_counts: np.ndarray
    labels: np.ndarray
    eps_grid: float
    sectors: np.ndarray | None = None

    @property
    def grid_size(self) -> int:
        return self.grid.size

    def expected_zero_counts(self) -> np.ndarray:
        """Oscillation-theory ladder for this boundary class."""
        idx = np.arange(self.eigenvalues.size)
        if self.problem.boundary is Boundary.PERIODIC:
            return np.where(idx == 0, 0, 2 * ((idx + 1) // 2))
        return 2 * (idx // 2) + 1


def count_sign_changes(values, antiperiodic: bool = False,
                       rel_tol: float = 1e-9) -> int | np.ndarray:
    """Sign changes of a sampled function around the circle.

    Samples within rel_tol of zero (relative to the max) are treated as
    zeros and skipped; the surviving signs are compared cyclically.  For
    antiperiodic functions the wrap pair is compared with a flipped
    sign, so the result counts zeros on one period.  A 2-D array is
    counted row by row into an integer array; a 1-D array gives an int.
    """
    v = np.asarray(values, dtype=float)
    rows = np.atleast_2d(v)
    # Sign of v where |v| >= rel_tol * max|v|, else 0; an exact zero meets
    # both tests when the floor underflows to 0 and also gets 0.
    floor = rel_tol * np.max(np.abs(rows), axis=1)[:, None]
    signs = (rows >= floor).view(np.int8) - (rows <= -floor).view(np.int8)
    nnz = np.count_nonzero(signs, axis=1)
    counts = np.zeros(rows.shape[0], dtype=int)
    ok = nnz >= 2
    kept = signs[ok]
    s = kept[kept != 0]                # the surviving signs, row after row
    last = np.cumsum(nnz[ok]) - 1
    first = last - nnz[ok] + 1
    # flips[k]: s[k] differs from s[k-1]; at each row's first sample this
    # slot holds the cyclic wrap pair instead.
    flips = np.diff(s, prepend=s[:1]) != 0
    flips[first] = s[first] * s[last] * (-1 if antiperiodic else 1) < 0
    counts[ok] = np.add.reduceat(flips, first, dtype=int)
    return counts if v.ndim == 2 else int(counts[0])


def orient_rows(rows: np.ndarray) -> np.ndarray:
    """Each row times +1 or -1, so that its first sample of magnitude at
    least 0.6 of the row's peak is positive.

    A sampled eigenfunction may reach its peak magnitude at several
    samples with both signs (the Bloch turns of one level), and then
    rounding would pick the sign; a sample at 0.6 of the peak or more is
    far from a sign change, and no |cos(r pi)|, r rational, is 0.6 (Niven:
    the cos(pi k j/q) samples of a row that peaks at x = 0 sit on 1/2).
    A zero row stays as it is.
    """
    mag = np.abs(rows)
    first = np.argmax(mag >= 0.6 * mag.max(axis=1, keepdims=True), axis=1)
    flip = rows[np.arange(rows.shape[0]), first] < 0.0
    return rows * np.where(flip, -1.0, 1.0)[:, None]


def flux_stencil(w, wrap: float = 1.0) -> scipy.sparse.csc_matrix:
    """Symmetric cyclic matrix of -(w f')' in flux form, unit spacing.

    ``w[j]`` is the flux weight between nodes j and j+1, so row j holds
    w[j-1] + w[j] on the diagonal and -w[j-1], -w[j] beside it.  The last
    node couples to the first through ``wrap * w[-1]``: +1 closes the
    circle periodically, -1 antiperiodically.  Needs at least 3 nodes.
    """
    import scipy.sparse

    w = np.asarray(w, dtype=float)
    n = w.size
    off, corner = -w[:-1], -wrap * w[-1:]
    return scipy.sparse.diags([w + np.roll(w, 1), off, off, corner, corner],
                              [0, 1, -1, n - 1, 1 - n], format="csc")


def _flux_form_matrix(prob: SLProblem, n: int):
    """Flux-form discretization of -(p h')' + V h and its grid."""
    import scipy.sparse

    h = prob.period / n
    t = np.arange(n) * h
    p_half = np.asarray(prob.p_fn(t + 0.5 * h), dtype=float)
    v = np.asarray(prob.v_fn(t), dtype=float)
    if np.any(p_half <= 0.0) or not np.all(np.isfinite(p_half)):
        raise DegenerateGrid("coefficient p(t) evaluated non-positive on the grid")
    if not np.all(np.isfinite(v)):
        raise DegenerateGrid("potential V(t) evaluated non-finite on the grid")
    wrap = -1.0 if prob.boundary is Boundary.ANTIPERIODIC else 1.0
    a = flux_stencil(p_half, wrap) * (1.0 / (h * h)) + scipy.sparse.diags(v)
    return a.tocsc(), t


def _solve_matrix(a, count: int):
    import scipy.sparse.linalg

    n = a.shape[0]
    v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(n)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            a, k=count, sigma=-1.0, which="LM", v0=v0,
            ncv=min(n, max(4 * count, 40)))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def shift_operator(n: int, shift: int, antiperiodic: bool = False):
    """Column-wise sample shift v(t) -> v(t + shift*h) on the circle.

    Rows that wrap past the seam pick up the boundary sign.
    """
    shift = shift % n

    def apply(mat):
        out = np.roll(mat, -shift, axis=0)
        if antiperiodic and shift:
            out[n - shift:, ...] = -out[n - shift:, ...]
        return out

    return apply


def symmetry_characters(vecs, apply_op, match_tol=1e-5) -> np.ndarray:
    """Character of each column of vecs under an orthogonal operator.

    +1 where ||S v - v|| <= match_tol ||v||, -1 where
    ||S v + v|| <= match_tol ||v||, and nan otherwise.  For an operator
    that commutes with the problem, S acts on a degenerate eigenspace as
    +-I or as a rotation with no real eigenvector, so the character does
    not depend on which basis of the eigenspace the solver returned.
    """
    sv = apply_op(vecs)
    tol = match_tol * np.linalg.norm(vecs, axis=0)
    chars = np.full(vecs.shape[1], np.nan)
    chars[np.linalg.norm(sv + vecs, axis=0) <= tol] = -1.0
    chars[np.linalg.norm(sv - vecs, axis=0) <= tol] = 1.0
    return chars


def eigen(prob: SLProblem, count: int, grid_size: int = 2048) -> SLSpectrum:
    """Lowest ``count`` eigenpairs of the discretized problem.

    One shift-invert Lanczos with a deterministic start vector serves
    every grid size; it needs ``count`` below ``grid_size - 1``.
    Eigenfunctions are normalized to unit L2 norm over the period, each
    with its first sample at 0.6 of its peak magnitude or more positive
    (``orient_rows``).  A degenerate pair comes back in
    whatever basis the solver returns; its zero counts do not depend on
    that basis (oscillation theorem).
    """
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    n = int(grid_size)
    if not 1 <= count < n - 1:
        raise ValueError(f"count must lie in [1, {n - 2}], got {count}")
    a, t = _flux_form_matrix(prob, n)
    vals, vecs = _solve_matrix(a, count)

    h = prob.period / n
    funcs = orient_rows(np.ascontiguousarray(vecs.T)
                        / np.sqrt(h * np.sum(vecs ** 2, axis=0))[:, None])

    zero_counts = count_sign_changes(
        funcs, antiperiodic=prob.boundary is Boundary.ANTIPERIODIC)
    eps_grid = _estimate_grid_error(prob, count, n, vals)
    return SLSpectrum(problem=prob, grid=t, eigenvalues=vals,
                      eigenfunctions=funcs, zero_counts=zero_counts,
                      labels=np.arange(count), eps_grid=eps_grid)


def _estimate_grid_error(prob, count, n, vals) -> float:
    """Richardson estimate of eigenvalue error from a half-resolution solve."""
    if n <= 64:
        return float("nan")
    half = max(n // 2, 64)
    coarse, _ = _solve_matrix(_flux_form_matrix(prob, half)[0],
                              min(count, half // 2))
    m = min(count, coarse.size)
    return float(np.max(np.abs(vals[:m] - coarse[:m])) / 3.0)


def rayleigh(prob: SLProblem, v) -> float:
    """Rayleigh quotient int(p v'^2 + V v^2) / int(v^2) by trapezoid rule.

    v is sampled uniformly over one period (endpoint excluded); its
    derivative is taken by centered differences with boundary-matched
    wraparound.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if n < 8:
        raise ValueError("need at least 8 samples")
    h = prob.period / n
    t = np.arange(n) * h
    denom = h * np.sum(v * v)
    if denom <= 1e-300:
        raise ZeroFunction("Rayleigh quotient of the zero function")
    sign = -1.0 if prob.boundary is Boundary.ANTIPERIODIC else 1.0
    v_next = np.roll(v, -1)
    v_prev = np.roll(v, 1)
    v_next[-1] = sign * v[0]
    v_prev[0] = sign * v[-1]
    dv = (v_next - v_prev) / (2.0 * h)
    p = np.asarray(prob.p_fn(t), dtype=float)
    vv = np.asarray(prob.v_fn(t), dtype=float)
    return float(h * np.sum(p * dv * dv + vv * v * v) / denom)


@dataclass(frozen=True)
class SubperiodTag:
    """Shift symmetry of one eigenfunction for a given divisor n.

    periodic_t0_over_n       -- h(t + T/n) = +h(t)
    antiperiodic_t0_over_2n  -- h(t + T/(2n)) = -h(t)

    ``tag`` is the strongest true statement ("antiperiodic" implies
    T/n-periodicity), or "neither".
    """

    tag: str
    periodic_t0_over_n: bool
    antiperiodic_t0_over_2n: bool


def _coefficient_period_holds(prob: SLProblem, grid: np.ndarray,
                              sub: float) -> bool:
    p = np.asarray(prob.p_fn(grid), dtype=float)
    ps = np.asarray(prob.p_fn(grid + sub), dtype=float)
    v = np.asarray(prob.v_fn(grid), dtype=float)
    vs = np.asarray(prob.v_fn(grid + sub), dtype=float)
    p_ok = np.max(np.abs(p - ps)) <= 1e-10 * max(float(np.max(np.abs(p))), 1.0)
    v_ok = np.max(np.abs(v - vs)) <= 1e-10 * max(float(np.max(np.abs(v))), 1.0)
    return bool(p_ok and v_ok)


def classify_subperiod(spec: SLSpectrum, n: int) -> list[SubperiodTag]:
    """Tag each row of ``spec.eigenfunctions`` by its behaviour under
    period/n shifts.

    Each row is tested as the solver returned it (``symmetry_characters``);
    a shift that rotates a degenerate pair tags both rows "neither".
    Requires the coefficients to be period/n periodic (and period/(2n)
    periodic for the antiperiodic test to be meaningful).
    """
    if n < 1:
        raise ValueError("n must be positive")
    N = spec.grid_size
    if N % (2 * n):
        raise ValueError(f"grid size {N} is not divisible by 2n = {2 * n}")
    prob = spec.problem
    if not _coefficient_period_holds(prob, spec.grid, prob.period / n):
        raise SubperiodViolation(
            f"coefficients do not have period T/{n}")
    half_ok = _coefficient_period_holds(prob, spec.grid,
                                        prob.period / (2 * n))

    vecs = spec.eigenfunctions.T
    anti_bc = prob.boundary is Boundary.ANTIPERIODIC
    full_chars = symmetry_characters(vecs, shift_operator(N, N // n, anti_bc))
    anti_chars = np.full(vecs.shape[1], np.nan)
    if half_ok:
        anti_chars = symmetry_characters(
            vecs, shift_operator(N, N // (2 * n), anti_bc))

    tags = []
    for i in range(vecs.shape[1]):
        is_anti = anti_chars[i] == -1.0
        is_per = full_chars[i] == 1.0 or anti_chars[i] == 1.0 or is_anti
        tag = "antiperiodic" if is_anti else ("periodic" if is_per else "neither")
        tags.append(SubperiodTag(tag=tag, periodic_t0_over_n=bool(is_per),
                                 antiperiodic_t0_over_2n=bool(is_anti)))
    return tags

