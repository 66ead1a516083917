"""Assembly of the Laplace-Beltrami spectrum and the counting checks.

Separation of variables turns the Laplace operator of the bipolar
surface into the family of radial problems indexed by the angular wave
number l: each radial eigenfunction contributes one Laplace
eigenfunction for l = 0 and two (cos and sin angular factors) for
l >= 1.  For even q the immersion double-covers the surface through
(alpha, t) -> (alpha + pi, t + t0/2), and only radial functions with
h(t + t0/2) = (-1)^l h(t) descend to the quotient.

Three radial eigenfunctions are known in closed form at eigenvalue 2
(the immersed coordinates): sin(phi) ~ cos x, level 2 of Bloch sector q
at l = 0 (position 2q), and cos(phi)sin(theta), cos(phi)cos(theta), level
1 of sectors p and 2q - p at l = 1 (positions 2p - 1 and 2p).  Computed
eigenvalues are Hill roots (``hill``), within 1.8e-14 of 2 at q <= 100
but not exactly 2.  ``assemble`` measures them: a row within
``_THRESHOLD_WINDOW`` of 2, the window by which ``verify_theorem3``
certifies its levels at 2, counts as exactly 2, whatever its position or
sector.  A row that moves out of the window counts by its value, above
or below 2.

The eigenvalue counting function N(lambda) is the total multiplicity of
eigenvalues strictly below lambda, the zero mode included (equivalently
the 0-based index of the first eigenvalue >= lambda).  ``assemble`` and
``weyl_N`` count it from the solved table; ``verify_theorem3``
takes it, and the multiplicity at 2, from the Hill discriminant
(``hill``) and solves only the Bloch sectors its certificates name.
The expected value at lambda = 2 is 2q + 4p - 2 for odd q and
q + 2p - 2 for even q, and the scale-invariant functional value is
lambda * Area = 2 * Area = 8 q pi i2(b) (odd q) or 4 q pi i2(b),
strictly below 4 sqrt(2) q pi^2 resp. 2 sqrt(2) q pi^2.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from . import hill
from .errors import (
    ConvergenceFailure,
    CountMismatch,
    VerificationFailed,
    in_interval,
)
from .geodesic import (
    GeodesicProfile,
    OtsukiSolution,
    RotationNumber,
    bipolar_chart,
    cos2_phi,
    i2,
    radial_coefficients,
    solve_rotation,
)
from .immersion import area
from .sturm import (
    Boundary,
    SLSpectrum,
    build_problem,
    count_sign_changes,
    orient_rows,
)

# Not called here, but kept bound in this module's namespace: tracing
# tools wrap ``spectrum.build_profile`` and ``spectrum.eigen`` by name.
from .geodesic import profile as build_profile  # noqa: F401,E402
from .sturm import eigen  # noqa: F401,E402


def pipeline_grid_size(requested: int, q: int) -> int:
    """Round a grid size up to a multiple of 8q.

    Keeps every sub-period shift (t0/(4q) and coarser) exactly
    representable on the grid, so the eigenfunction samples of one
    half-oscillation tile the whole period.
    """
    unit = 8 * q
    return ((max(requested, unit) + unit - 1) // unit) * unit


def expected_n2(r: RotationNumber) -> int:
    """Closed-form count of eigenvalues strictly below 2."""
    return (r.q + 2 * r.p - 2) if r.even_q else (2 * r.q + 4 * r.p - 2)


@dataclass(frozen=True)
class ModeEntry:
    """One radial eigenvalue in the assembled table.

    ``zero_count`` is None when the radial row was not sampled (see
    ``solve_radial``'s ``sampled_sectors``).  ``pinned_two`` marks a row
    within ``_THRESHOLD_WINDOW`` of 2, which counts as exactly 2.
    """

    l: int
    i: int
    lam: float
    multiplicity: int
    kept: bool
    reason: str
    zero_count: int | None
    pinned_two: bool = False

    @property
    def effective_lam(self) -> float:
        """Eigenvalue used for counting: exact 2 for modes at 2."""
        return 2.0 if self.pinned_two else self.lam


@dataclass
class ModeTable:
    """Assembled spectrum below a cutoff, sorted by eigenvalue."""

    rotation: RotationNumber
    lambda_cut: float
    eps_grid: float
    entries: list[ModeEntry] = field(default_factory=list)

    def kept_below(self, lam: float) -> list[ModeEntry]:
        return [e for e in self.entries if e.kept and e.effective_lam < lam]

    def threshold_multiplicity(self) -> int:
        """Total multiplicity of the kept modes at eigenvalue 2."""
        return sum(e.multiplicity for e in self.entries
                   if e.kept and e.pinned_two)


def weyl_N(table: ModeTable, lam: float) -> int:
    """Counting function: total multiplicity strictly below lam.

    The zero mode counts, so N(0+) = 1; the modes at the threshold count
    as exactly 2 and are excluded from N(2) by strictness.
    """
    if lam > table.lambda_cut:
        raise ValueError(f"lam = {lam} exceeds the table cutoff"
                         f" {table.lambda_cut}")
    return sum(e.multiplicity for e in table.kept_below(lam))


def lambda_functional(sol: OtsukiSolution) -> float:
    """Scale-invariant functional value: eigenvalue 2 times the area."""
    return 2.0 * area(sol)


def lambda_functional_bound(sol: OtsukiSolution) -> float:
    """Strict upper bound on the functional value.

    The monotone elliptic reduction gives i2(b) < i2(0) = pi/sqrt(2),
    so 8 q pi i2(b) < 4 sqrt(2) q pi^2 for odd q (half that for even q).
    """
    q = sol.rotation.q
    bound = 4.0 * math.sqrt(2.0) * q * math.pi ** 2
    return bound / 2.0 if sol.rotation.even_q else bound


def _angular_indices(lambda_cut: float) -> range:
    """Angular indices l whose radial spectrum can reach below the cut.

    Every radial eigenvalue at l is at least l^2 min(S/W) = l^2, since
    S/W = 1/cos^2 phi >= 1, so only the l with l^2 < ``lambda_cut`` can:
    l = 0, 1 for every cut up to 4.  A cut that is not a finite number of
    at least 2 raises DomainError.
    """
    cut = in_interval(lambda_cut, "lambda_cut", 2.0, math.inf, lo_closed=True)
    return range(next(l for l in itertools.count() if l * l >= cut))


def assemble(sol: OtsukiSolution, profile: GeodesicProfile | None,
             l_max: int | None = None, lambda_cut: float = 2.5,
             grid_size: int | None = None,
             spectra: dict[int, SLSpectrum] | None = None) -> ModeTable:
    """Collect all Laplace modes with eigenvalue below ``lambda_cut``.

    Only the l of ``_angular_indices`` can hold a mode below the cutoff
    (l^2 < ``lambda_cut``).  Solves the periodic radial problem for those l
    on one shared chart (or reuses the supplied spectra) and applies the
    even-q quotient filter, which reads each row's Bloch sector, so
    supplied spectra must carry ``sectors``.  A row within
    ``_THRESHOLD_WINDOW`` of 2 is at the threshold (``pinned_two``: it
    counts as exactly 2, with reason ``at-threshold-2`` if kept), by its
    value alone, on sampled and values-only rows (see ``solve_radial``)
    alike.  Raises ValueError if a radial window ends below
    the cutoff (``solve_radial``'s reaches 4), so no mode below it is
    dropped.  For even q the filter keeps the modes of Bloch sectors
    k = l (mod 2).  Rows are sampled on ``pipeline_grid_size(2048, q)``
    points; ``profile``, ``l_max`` and ``grid_size`` are ignored.  A cut
    that is not a finite number of at least 2 raises DomainError.
    """
    lambda_cut = in_interval(lambda_cut, "lambda_cut", 2.0, math.inf,
                             lo_closed=True)
    r = sol.rotation
    n = pipeline_grid_size(_SAMPLE_GRID, r.q)
    spectra = dict(spectra or {})
    chart = None

    entries = []
    for l in _angular_indices(lambda_cut):
        if l not in spectra:
            chart = chart or _RadialChart(sol.b, r.q)
            spectra[l] = solve_radial(sol, profile, l, n, chart=chart)
        spec = spectra[l]
        if spec.sectors is None:
            raise ValueError(f"radial spectrum at l = {l} carries no sectors")
        if spec.eigenvalues[-1] < lambda_cut:
            raise ValueError(
                f"radial window at l = {l} ends at {spec.eigenvalues[-1]:.6f},"
                f" below the cutoff {lambda_cut}; lower lambda_cut")
        for i, lam in enumerate(spec.eigenvalues):
            pinned_two = bool(abs(lam - 2.0) <= _THRESHOLD_WINDOW)
            if lam >= lambda_cut and not pinned_two:
                continue
            kept, reason = True, "below-cut"
            # The deck shift x -> x + q pi acts as (-1)^k on sector k.
            if r.even_q and (spec.sectors[i] - l) % 2:
                kept, reason = False, "removed-by-quotient-symmetry"
            if pinned_two and kept:
                reason = "at-threshold-2"
            entries.append(ModeEntry(
                l=l, i=i, lam=float(lam),
                multiplicity=1 if l == 0 else 2,
                kept=kept, reason=reason,
                zero_count=(int(spec.zero_counts[i])
                            if spec.zero_counts[i] >= 0 else None),
                pinned_two=pinned_two))

    eps_grid = max((s.eps_grid for s in spectra.values()
                    if math.isfinite(s.eps_grid)), default=float("nan"))
    entries.sort(key=lambda e: e.effective_lam)
    return ModeTable(rotation=r, lambda_cut=lambda_cut, eps_grid=eps_grid,
                     entries=entries)


# Fourier-Galerkin radial solve, see solve_radial.
_FFT_POINTS = 2048      # coefficient samples per half-oscillation x in [0, pi)
# Fourier modes per sector M, in the order tried; each sector has 2M + 1.
_MODE_LADDER = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256)
_MAX_MODES = _MODE_LADDER[-1]   # lags up to 2M stay below _FFT_POINTS / 2
_MODE_TOL = 1e-10       # change from the previous M that stops the ladder
_SAMPLE_GRID = 2048     # points of assemble's t-grid, before pipeline_grid_size
# Decides "at 2" on every route: verify's close_to certificates and the rows
# assemble counts at 2 (spectrum, cross-check).  Fixed, not resolved against
# the run's error; ROADMAP item 3's residual-based intervals will replace it.
_THRESHOLD_WINDOW = 1e-6


class _RadialChart:
    """Radial coefficients in the analytic chart sin(phi) = sin(b) cos(x).

    One period t0 of the bipolar geodesic is x in [0, 2 q pi), and the
    coefficients P, S and W = dt/dx of ``geodesic.radial_coefficients``
    are analytic and pi-periodic.  Each is held by its Fourier
    coefficients f_j of f(x) = sum_j f_j e^{2ijx} (real and even in j,
    since f is even in x), all three from one real FFT of their stacked
    samples, which keeps j >= 0.  ``t_half``, the t of one
    half-oscillation, is pi times the mean W_0 of W over a cell, and
    ``t0`` = 2 q ``t_half``; with ``cos2_phi_at`` they let
    ``sturm.build_problem`` bind a radial problem to the chart as it
    does to a profile.  x(t), for ``cos2_phi_at`` and ``x_samples`` only,
    comes from the bipolar geodesic's own chart (``geodesic``:
    ``geodesic.bipolar_chart``), built on first use, so a solve that
    samples no row in t never builds it; ``hill`` reads x -> (P, S, W)
    from ``coefficients``.  One chart may serve the radial solves of every
    l (see ``solve_radial``) and the one ladder of ``verify_theorem3``; it
    keeps the pencil of the reduced matrices per M (``_pencil``: four
    n x n matrices, n = 2M + 1) and the x of the sampling grid per
    ``per_half``, so each is computed once however many l it serves.
    """

    def __init__(self, b: float, q: int):
        self.b, self.q = b, q
        self._pencils: dict[int, tuple] = {}            # M -> see _pencil
        self._x_samples: dict[int, np.ndarray] = {}     # per_half -> x(t)
        x = np.arange(_FFT_POINTS) * (math.pi / _FFT_POINTS)
        self.p_hat, self.s_hat, self.w_hat = np.fft.rfft(
            np.array(radial_coefficients(b, x))).real / _FFT_POINTS
        self.t_half = math.pi * self.w_hat[0]
        self.t0 = 2 * q * self.t_half
        self.coefficients = functools.partial(radial_coefficients, b)

    @functools.cached_property
    def geodesic(self):
        return bipolar_chart(self.b)

    def cos2_phi_at(self, t):
        return cos2_phi(self.b, self.geodesic.x_of(t))

    def x_samples(self, per_half: int) -> np.ndarray:
        """x at t = j t_half / per_half, j = 0..per_half-1: the sampling grid
        of one half-oscillation, inverted once per per_half and kept."""
        x = self._x_samples.get(per_half)
        if x is None:
            x = self.geodesic.x_of(np.arange(per_half) * (self.t_half / per_half))
            self._x_samples[per_half] = x
        return x

    def _pencil(self, modes: int) -> tuple:
        """The sector-independent parts of the reduced matrices at M.

        With D = kappa I + E, E = diag(2m), G = L^-1 E and L the Cholesky
        factor of T_W, every sector's L^-1 (D T_P D + l^2 T_S) L^-T is
        kappa^2 P0 + kappa (P1 + P1^T) + P2 + l^2 S0 for P0 = L^-1 T_P L^-T,
        P1 = L^-1 T_P G^T, P2 = G T_P G^T and S0 = L^-1 T_S L^-T.  Built
        once per M and kept.
        """
        pencil = self._pencils.get(modes)
        if pencil is None:
            m = np.arange(-modes, modes + 1)
            lag = np.abs(m[:, None] - m[None, :])
            l_inv = np.linalg.inv(np.linalg.cholesky(self.w_hat[lag]))
            g = l_inv * (2.0 * m)
            t_p = self.p_hat[lag]
            lp = l_inv @ t_p
            p1 = lp @ g.T
            pencil = (lp @ l_inv.T, p1 + p1.T, g @ t_p @ g.T,
                      l_inv @ self.s_hat[lag] @ l_inv.T)
            self._pencils[modes] = pencil
        return pencil

    def sector_matrices(self, kappa: np.ndarray, l, modes: int):
        """Standard-form Galerkin matrices of every Bloch sector.

        For h = e^{i kappa x} sum_{|m|<=M} c_m e^{2imx} the problem
        -(P h')' + l^2 S h = lambda W h becomes A c = lambda T_W c with
        A = D T_P D + l^2 T_S, D = diag(kappa + 2m) and T_f the Toeplitz
        matrix of f_j.  T_W, the same for every sector and l, is reduced
        by its Cholesky factor L: returns L^-1 A L^-T per sector, whose
        eigenvalues are the problem's.  ``l`` is one angular
        index for every sector, or one per sector.  Each sector's matrix
        is (kappa P0 + (P1 + P1^T)) kappa + P2 + l^2 S0, formed element by
        element from the chart's pencil at M (``_pencil``, built on the
        first call at that M for any l), so it does not depend on which
        other sectors, or l, are formed with it.
        """
        p0, p1_sym, p2, s0 = self._pencil(modes)
        mats = np.multiply.outer(kappa, p0)
        mats += p1_sym
        mats *= kappa[:, None, None]
        lo = 0      # l^2 S0 is formed once per run of sectors of one l
        for value, run in itertools.groupby(
                [l] * len(kappa) if np.ndim(l) == 0 else list(l)):
            hi = lo + len(list(run))
            mats[lo:hi] += p2 + float(value * value) * s0
            lo = hi
        return mats


def _settle_modes(chart: _RadialChart, requests) -> list[tuple]:
    """Values-only Galerkin levels of Bloch sectors, settled in M.

    Each request (l, kappa, copies, least) names the sectors ``kappa`` at
    angular index l; ``copies`` (per sector, or one for all) is how often
    each sector's levels count, 2 where a sector stands for its conjugate
    partner too.  The Fourier modes per sector M step through
    ``_MODE_LADDER`` (8, 16, 24, 32, 48, ... 256: each power of two and
    1.5 times it); each M forms the sectors of every request still
    moving in one ``sector_matrices`` call and solves them in one stacked
    ``np.linalg.eigvalsh``.  A request stops when its lowest ``count``
    levels, copies counted, move by less than 1e-10 from the previous M:
    those below 4 and the first at or above it, or ``least`` if more.  A
    sector's matrix is the same bits whatever is formed with it, so each
    request stops where a ladder of its own would.  Returns, per request
    in order, (its stop M, its levels there, one ascending row per
    sector, ``count``).  Raises ConvergenceFailure, naming the lowest l
    still moving and M, if any still moves at M = 256.  The Galerkin
    spaces are nested, so each value falls with M, and up to rounding
    each request stops at no larger M than doubling from 8 would.
    """
    prev, change, stops = {}, {}, {}
    for modes in _MODE_LADDER:
        active = [i for i in range(len(requests)) if i not in stops]
        sizes = [requests[i][1].size for i in active]
        lam = np.linalg.eigvalsh(chart.sector_matrices(
            np.concatenate([requests[i][1] for i in active]),
            np.repeat([requests[i][0] for i in active], sizes), modes))
        lo = 0
        for i, size in zip(active, sizes):
            _, _, copies, least = requests[i]
            levels, lo = lam[lo:lo + size], lo + size
            vals = np.sort(np.repeat(levels, copies, axis=0).ravel())
            count = max(least, int(np.searchsorted(vals, 4.0)) + 1)
            if i in prev:
                change[i] = float(np.max(np.abs(vals[:count]
                                                - prev[i][:count])))
                if change[i] < _MODE_TOL:
                    stops[i] = modes, levels, count
            prev[i] = vals
        if len(stops) == len(requests):
            return [stops[i] for i in range(len(requests))]
        if modes >= _MAX_MODES:
            l, i = min((requests[i][0], i) for i in active if i not in stops)
            raise ConvergenceFailure(
                f"radial eigenvalues at l = {l} still move by"
                f" {change[i]:.1e} at M = {modes} Fourier modes per sector")


# Hill roots and rows, see solve_radial.
_HILL_STEPS = 512       # Magnus steps per cell of the pass to roots and rows
_ROOT_TOL = 1e-9        # largest distance of a Hill root from its ladder value


def _hill_roots(coefficients, l, ks, kappa, level, lam, ladder, steps):
    """``hill._roots`` of the levels named by l, sector k and level (from
    0); CountMismatch (exit 3), naming the first, if a root lies more than
    1e-9 from its Galerkin ladder value."""
    found = hill._roots(coefficients, l, kappa, level, lam, steps)
    off = np.flatnonzero(np.abs(found[0] - ladder) > _ROOT_TOL)
    if off.size:
        l, k, n, root, value = (float(v[off[0]])
                                for v in (l, ks, level, found[0], ladder))
        raise CountMismatch(
            f"Hill levels: level {n + 1:g} of sector {k:g} at l = {l:g} is"
            f" {root!r} by the Hill pass but {value!r} by the Galerkin ladder")
    return found


def _sample_rows(chart: _RadialChart, l: int, kappa: np.ndarray,
                 lam: np.ndarray, start: np.ndarray, pass_: list,
                 copy: np.ndarray, imag: np.ndarray, x_loc: np.ndarray,
                 anti: bool) -> tuple[np.ndarray, np.ndarray]:
    """Hill rows sampled on the caller's grid, and their zero counts.

    Level j is the solution at the root ``lam[j]`` of the sector
    ``kappa[j]`` at l, from ``start[j]`` and its columns of ``pass_``
    (``hill._roots``); row r is level ``copy[r]``, Im h where ``imag[r]``,
    else Re h.  ``x_loc`` holds the x in [0, pi) of one cell's samples:
    ``chart.x_samples`` for the uniform t-grid, or the uniform x-grid.
    Cell j is turned by e^{i pi kappa j}.  Each row has unit norm in t
    and is signed by ``sturm.orient_rows``; its zeros are its sign
    changes around the period (antiperiodic when ``anti``).
    """
    h, integral = hill._rows(chart.coefficients, np.full(lam.size, l), kappa,
                             lam, start, pass_, x_loc)
    # Row r of cell j is Re(turn h) or Im(turn h) = Re(-i turn h), for the
    # cell's turn e^{i pi kappa j}.  |h|^2 W integrates to 2q times the
    # cell's over the period: all of it in h of an edge level, half in
    # each of Re h and Im h of the others.
    turn = (np.exp(1j * math.pi * np.multiply.outer(kappa,
                                                    np.arange(2 * chart.q)))
            / np.sqrt(np.where(start < 0, 1.0, 2.0) * chart.q * integral
                      )[:, None])[copy] * np.where(imag, -1j, 1.0)[:, None]
    sampled = orient_rows((np.stack((turn.real, -turn.imag), axis=2)
                           @ np.stack((h.real, h.imag), axis=1)[copy]
                           ).reshape(copy.size, -1))
    return sampled, count_sign_changes(sampled, antiperiodic=anti)


def solve_radial(sol: OtsukiSolution, profile: GeodesicProfile | None,
                 l: int, grid_size: int,
                 boundary: Boundary = Boundary.PERIODIC, *,
                 chart: _RadialChart | None = None,
                 sampled_sectors: Collection[int] | None = None
                 ) -> SLSpectrum:
    """Radial spectrum of angular index l by Bloch sectors in the chart.

    Solves -(P h')' + l^2 S h = lambda W h on x in [0, 2 q pi) (see
    ``_RadialChart``).  The coefficients are pi-periodic, so the problem
    splits into 2q Bloch sectors h(x + pi) = e^{i pi kappa} h(x) with
    kappa = k/q (periodic) or (k + 1/2)/q (antiperiodic),
    k = 0..2q-1; sector 2q-k (periodic) or 2q-1-k (antiperiodic) is the
    complex conjugate of sector k, so only half of them are solved.  A
    values-only Fourier-Galerkin ladder (``_settle_modes``) gives the
    levels: M modes per sector step through ``_MODE_LADDER`` (8, 16, 24,
    32, 48, ... 256) until the lowest, each pair's counted twice, move by
    less than 1e-10 from the previous M, and ``eps_grid`` is that stop
    tolerance.  The window holds at least 2 max(p, q) + 8 eigenvalues and
    reaches 4.

    Unless ``sampled_sectors`` is empty, each window level becomes the
    root of its Hill condition, one Newton step from its ladder value in
    one pass at 512 Magnus steps per cell (``hill._roots``; CountMismatch,
    exit 3, naming l, the sector and the level, if more than 1e-9 from
    it), and its rows come from the same pass (``_sample_rows``): the
    real half-cell solution of an edge level (kappa = 0 or 1), the
    Floquet solution of any other, on the uniform t-grid of
    ``pipeline_grid_size(grid_size, q)`` points, which only sets the
    sampling: Re h and Im h for a conjugate pair, h for an edge sector,
    each of unit norm in t and with its first sample at 0.6 of its peak
    magnitude or more positive (``sturm.orient_rows``).  ``sectors``
    holds each row's k.  ``profile`` is ignored.

    By default every row is sampled; ``sampled_sectors`` names the
    sectors whose rows are, and every other row gets NaN samples and zero
    count -1.  A row's value and samples come from its own columns of
    the pass, the same bits whichever sectors are sampled.  With
    ``sampled_sectors`` empty no Hill pass runs, and each row reports the
    ladder's reduced eigenvalue, which differs from the Hill root by that
    eigensolve's rounding (up to ~1.4e-11 at q <= 251).  The window is
    sorted by the reported values.  ``chart`` is the ``_RadialChart`` of
    b and q, built here when None; one chart shared across l shares its
    coefficients and its pencil per M.
    """
    if l < 0:
        raise ValueError("angular index l must be non-negative")
    r = sol.rotation
    q = r.q
    if chart is None:
        chart = _RadialChart(sol.b, q)
    elif (chart.b, chart.q) != (sol.b, q):
        raise ValueError("the radial chart belongs to another b or q")
    anti = boundary is Boundary.ANTIPERIODIC
    ks = np.arange(q if anti else q + 1)
    kappa = (ks + (0.5 if anti else 0.0)) / q
    partner = (2 * q - 1 - ks) if anti else (2 * q - ks) % (2 * q)
    paired = partner != ks
    ((_, lam, count),) = _settle_modes(
        chart, ((l, kappa, np.where(paired, 2, 1), 2 * max(q, r.p) + 8),))

    # Every level with its multiplicity; the second copy of a conjugate
    # pair becomes the imaginary part of h and carries the partner sector.
    width = lam.shape[1]
    flat = np.concatenate([np.arange(lam.size),
                           np.flatnonzero(np.repeat(paired, width))])
    imag = np.arange(flat.size) >= lam.size
    order = np.lexsort((imag, lam.ravel()[flat]))[:count]
    flat, imag = flat[order], imag[order]
    values = lam.ravel()[flat]
    if sampled_sectors is None or len(sampled_sectors) > 0:
        # Each window level becomes its Hill root, with the levels next to
        # each edge level, among them the other edge of its gap.
        levels = np.unique(flat)
        edge = levels[np.isin(kappa[levels // width], (0.0, 1.0))]
        levels = np.union1d(levels, np.concatenate((edge[edge % width > 0] - 1,
                                                    edge + 1)))
        sector, level = np.divmod(levels, width)
        roots, start, _, found = _hill_roots(
            chart.coefficients, np.full(level.size, l), ks[sector],
            kappa[sector], level, lam.ravel()[levels], lam.ravel()[levels],
            _HILL_STEPS)
        values = roots[np.searchsorted(levels, flat)]
    # The operator is positive semidefinite: a negative value (the
    # constant mode at l = 0) is rounding.
    values = np.maximum(values, 0.0)
    resort = np.lexsort((imag, values))
    values, flat, imag = values[resort], flat[resort], imag[resort]
    sectors = np.where(imag, partner[flat // width], ks[flat // width])

    size = pipeline_grid_size(grid_size, q)
    funcs = np.full((count, size), np.nan)
    zero_counts = np.full(count, -1)
    rows = (np.arange(count) if sampled_sectors is None
            else np.flatnonzero(np.isin(sectors, list(sampled_sectors))))
    if rows.size:
        # The two rows of a conjugate pair share one Hill solution.
        use, copy = np.unique(np.searchsorted(levels, flat[rows]),
                              return_inverse=True)
        funcs[rows], zero_counts[rows] = _sample_rows(
            chart, l, kappa[sector[use]], roots[use], start[use],
            [v[..., use] for v in found], copy, imag[rows],
            chart.x_samples(size // (2 * q)), anti)
    return SLSpectrum(problem=build_problem(chart, l, boundary),
                      grid=np.arange(size) * (chart.t0 / size),
                      eigenvalues=values, eigenfunctions=funcs,
                      zero_counts=zero_counts, labels=np.arange(count),
                      eps_grid=_MODE_TOL, sectors=sectors)


@dataclass(frozen=True)
class Certificate:
    """One named inequality of the verification report."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool

    @staticmethod
    def less_than(name: str, lhs: float, rhs: float,
                  slack: float = 0.0) -> "Certificate":
        return Certificate(name=name, lhs=float(lhs), rhs=float(rhs),
                           margin=float(rhs - lhs),
                           passed=bool(lhs < rhs + slack))

    @staticmethod
    def close_to(name: str, lhs: float, rhs: float, tol: float) -> "Certificate":
        return Certificate(name=name, lhs=float(lhs), rhs=float(rhs),
                           margin=float(tol - abs(lhs - rhs)),
                           passed=bool(abs(lhs - rhs) <= tol))

    @staticmethod
    def integer_equal(name: str, lhs: int, rhs: int) -> "Certificate":
        return Certificate(name=name, lhs=float(lhs), rhs=float(rhs),
                           margin=0.0, passed=bool(lhs == rhs))


@dataclass
class VerificationReport:
    """Counting-theorem verification for one rotation number."""

    rotation: RotationNumber
    a: float
    b: float
    t0: float
    n2_computed: int
    n2_expected: int
    lambda_value: float
    upper_bound: float
    threshold_multiplicity: int
    eps_grid: float
    certificates: list[Certificate]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def first_failure(self) -> Certificate | None:
        for c in self.certificates:
            if not c.passed:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "p": self.rotation.p,
            "q": self.rotation.q,
            "a": self.a,
            "b": self.b,
            "t0": self.t0,
            "N2": self.n2_computed,
            "N2_expected": self.n2_expected,
            "lambda_functional": self.lambda_value,
            "upper_bound": self.upper_bound,
            "threshold_multiplicity": self.threshold_multiplicity,
            "eps_grid": self.eps_grid,
            "certificates": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                 "margin": c.margin, "pass": c.passed}
                for c in self.certificates
            ],
        }

    def to_json(self) -> str:
        return json.dumps(json_ready(self.to_dict()), indent=2)


def json_ready(obj):
    """Round floats to 15 significant digits for stable diffable output.

    Non-finite values map to null so the emitted JSON stays strict;
    numpy scalars become Python numbers and tuples become lists.
    """
    if isinstance(obj, float):
        return float(f"{obj:.15g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.floating):
        return json_ready(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def verify_theorem3(r: RotationNumber, *, grid_size: int | None = None,
                    l_max: int | None = None, lambda_cut: float = 2.5,
                    samples_per_half_period: int = 512,
                    functional_tol: float = 1e-8,
                    omega_tol: float = 1e-11,
                    raise_on_failure: bool = True) -> VerificationReport:
    """Run the counting pipeline and certify every named inequality.

    Certificates: the count N(2) equals the closed form, and the
    multiplicity at 2 is five; the last sub-threshold radial eigenvalue
    at l = 0 sits strictly below 2 with measured margin; the known
    eigenvalue-2 modes appear at their closed-form positions, with their
    zero counts, and the l = 0 one is even (sin(phi) ~ cos x, where its
    band partner, with the same zero count, is odd); the ground
    eigenvalue at l = 2 clears 2 (and the pointwise potential bound 4);
    the functional value computed from the period agrees with the closed
    elliptic form and respects its strict upper bound; the geodesic
    closes, |omega(a) - p pi/q| <= ``omega_tol``.

    The route, on one ``_RadialChart``:

    * **Named sectors.**  Band theory names the periodic Bloch sectors
      that hold the certified levels, and each l is solved in those
      alone: q - 1 and q at l = 0 (positions 2q - 1 and 2q are levels 1
      and 2 of sector q; level 2 of sector q - 1 is the next above 2),
      p - 1, p and p + 1 at l = 1 (level 1 of each; sector p holds
      positions 2p - 1 and 2p), and sector 0 at l = 2, which holds the
      positive, unique ground state (Eastham, *The Spectral Theory of
      Periodic Differential Equations*).  One ladder (``_settle_modes``,
      one request per l) serves all three l, each M in one stacked
      eigensolve, and each l stops by the 1e-10 rule of ``solve_radial``
      (at l = 2, where every level is at least 4, the ground alone).  Its
      values-only levels set delta and seed the Hill pass.
    * **Count.**  ``hill.count`` takes N(2 - delta) and N(2 + delta) from
      the Hill discriminant at l = 0 and 1 over every sector of the
      surface (l >= 2 has no level below 4), integrating half a cell and
      taking the other half by the reflection x -> pi - x: N2 is the
      first, and ``threshold_multiplicity`` the difference.  delta is
      half the smallest of the five gaps at 2 that the named sectors
      measure (the levels either side of 2 at l = 0 and 1, and the l = 2
      ground).  It counts the band edges below lambda, the levels of the
      four Dirichlet/Neumann problems on [0, pi/2], by Pruefer angles
      (``hill``).
    * **Hill pass.**  One more pass, ``hill._roots`` at four times the
      count's steps (sixth-order steps: ~4096 times below the count's
      own change), makes each certified level one Newton step, by the
      rule ``solve_radial`` roots its rows with.  sin(phi), the first
      N-D level at l = 0 (theta_n = pi), and the l = 1 pair
      (Delta = 2 cos(pi p/q)) step from 2; below0, the first D-N level
      (theta_d = pi/2), and the l = 2 ground, the first N-N level
      (theta_n = pi/2), step from their ladder values.  The zero counts
      are 2q times the rotation at 2 (``hill.rotation``).
      ``sin_phi_row_is_even``: the N-D problem, whose levels are even
      about 0, holds the l = 0 level at 2 within the window (scaled by
      the pass's slope of theta_n at 2), and the D-N one, whose levels
      are odd, does not.
    * **Consistency.**  Each named sector's Galerkin count below 2 - delta
      and below 2 + delta must equal the Hill count of its kappa, and
      each certified level's Hill root must lie within 1e-9 of its
      ladder value, else CountMismatch (exit 3).

    No row is sampled (nor the geodesic's t-chart built), no other
    sector is solved and ``assemble`` is not called, so ``grid_size``,
    ``l_max``, ``samples_per_half_period`` and ``lambda_cut`` are
    ignored.  ``r`` may be any (p, q) pair.  The cost no longer grows as
    q (2M + 1)^2 (README, "Cost").  1000/1999 stops with
    ConvergenceFailure at l = 0: its named sectors still move at M = 256.
    """
    if not isinstance(r, RotationNumber):
        r = RotationNumber(*r)
    sol = solve_rotation(r)
    p, q = r.p, r.q
    named = {0: (q - 1, q), 1: (p - 1, p, p + 1), 2: (0,)}
    chart = _RadialChart(sol.b, q)
    levels0, levels1, levels2 = (lam for _, lam, _ in _settle_modes(
        chart, [(l, np.array(ks) / q, 1, 0) for l, ks in named.items()]))
    below0, two0, above0 = levels0[1, 0], levels0[1, 1], levels0[0, 1]
    below1, two1, above1 = levels1[0, 0], levels1[1, 0], levels1[2, 0]
    ground_l2 = levels2[0, 0]
    delta = 0.5 * min(abs(v - 2.0) for v in (below0, above0, below1, above1,
                                             ground_l2))
    counted = hill.count(chart.coefficients, q, (2.0 - delta, 2.0 + delta))
    # Levels below each lambda (rows) in every named sector (columns, l = 0's
    # then l = 1's), by the discriminant and by Galerkin, in one comparison.
    ls = np.repeat((0, 1), (len(named[0]), len(named[1])))
    hill_levels = counted.levels(ls, np.arange(len(counted.lams))[:, None],
                                 np.array(named[0] + named[1]) / q)
    lams = np.array(counted.lams)[:, None, None]
    galerkin = np.hstack([np.sum(levels < lams, axis=-1)
                          for levels in (levels0, levels1)])
    if not np.array_equal(galerkin, hill_levels):
        l, j = next((l, j) for l in (0, 1) for j in range(len(counted.lams))
                    if np.any(galerkin[j, ls == l] != hill_levels[j, ls == l]))
        raise CountMismatch(
            f"Hill count: below {counted.lams[j]!r} at l = {l}, sectors"
            f" {list(named[l])} hold {galerkin[j, ls == l].tolist()} Galerkin"
            f" levels but the discriminant counts"
            f" {hill_levels[j, ls == l].tolist()}")
    # The Hill pass: sin(phi) and the l = 1 pair from 2, below0 and the l = 2
    # ground from their ladder values; one Newton step each.
    roots, _, ((trace, theta_d, theta_n), (_, slope_d, slope_n)), _ = (
        _hill_roots(chart.coefficients, (0, 1, 0, 2), (q, p, q, 0),
                    (1.0, p / q, 1.0, 0.0), (1, 0, 0, 0),
                    (2.0, 2.0, below0, ground_l2),
                    (two0, two1, below0, ground_l2), 4 * counted.steps))
    two0, two1, below0, ground_l2 = roots.tolist()
    zeros0, zeros1 = (int(v) for v in np.rint(
        2 * q * hill.rotation(trace[:2], theta_d[:2], theta_n[:2])))
    # Does the N-D problem (theta_n^0 at a multiple of pi) hold the level at
    # 2, within the window, and does the D-N one (theta_d^0 at pi/2 mod pi)?
    nd, dn = (abs(math.remainder(angle, math.pi))
              <= _THRESHOLD_WINDOW * abs(slope)
              for angle, slope in ((theta_n[0], slope_n[0]),
                                   (theta_d[0] - 0.5 * math.pi, slope_d[0])))
    even0 = int(nd) - int(dn)
    n2 = counted.totals[0]
    multiplicity = counted.totals[1] - counted.totals[0]
    n2_expected = expected_n2(r)
    eps = _MODE_TOL

    certs = [
        Certificate.integer_equal("mode_count_matches_closed_form",
                                  n2, n2_expected),
        Certificate.integer_equal("multiplicity_at_two_is_five",
                                  multiplicity, 5),
        Certificate.less_than("subcritical_radial_mode_below_two",
                              below0, 2.0),
        Certificate.close_to("radial_eigenvalue_two_at_l0_position_2q",
                             two0, 2.0, _THRESHOLD_WINDOW),
        Certificate.integer_equal("sin_phi_zero_count", zeros0, 2 * q),
        Certificate.integer_equal("sin_phi_row_is_even", even0, 1),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p_minus_1",
                             two1, 2.0, _THRESHOLD_WINDOW),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p",
                             two1, 2.0, _THRESHOLD_WINDOW),
        Certificate.integer_equal("l1_pair_zero_count", zeros1, 2 * p),
        Certificate.less_than("l1_predecessor_below_two", below1, 2.0),
        Certificate.less_than("ground_l2_above_two", 2.0, ground_l2),
        Certificate.less_than("ground_l2_above_potential_floor",
                              4.0 - eps, ground_l2),
    ]

    lam_from_period = lambda_functional(sol)
    factor = 4.0 if r.even_q else 8.0
    lam_closed = factor * q * math.pi * i2(sol.b)
    bound = lambda_functional_bound(sol)
    certs.append(Certificate.close_to("functional_two_routes_agree",
                                      lam_from_period, lam_closed,
                                      functional_tol))
    certs.append(Certificate.less_than("functional_below_upper_bound",
                                       lam_from_period, bound))
    certs.append(Certificate.close_to("closed_geodesic_residual",
                                      r.target_angle + sol.omega_residual,
                                      r.target_angle, omega_tol))

    report = VerificationReport(
        rotation=r, a=sol.a, b=sol.b, t0=sol.t0,
        n2_computed=n2, n2_expected=n2_expected,
        lambda_value=lam_from_period, upper_bound=bound,
        threshold_multiplicity=multiplicity,
        eps_grid=eps, certificates=certs)

    if raise_on_failure and not report.passed:
        bad = report.first_failure()
        raise VerificationFailed(
            f"certificate {bad.name} failed: lhs={bad.lhs!r} rhs={bad.rhs!r}",
            report=report)
    return report
