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
eigenvalues are Rayleigh quotients, within about 3e-12 of 2 at q <= 100
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
import random
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
    samples no row in t never builds it.  One chart may serve the radial
    solves of every l (see ``solve_radial``) and the one ladder of
    ``verify_theorem3``; it keeps the pencil of the reduced matrices per
    M (``_pencil``: four n x n matrices and L^-1, for n = 2M + 1) and the
    x of the sampling grid per ``per_half``, so each is computed once
    however many l it serves.
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

    def rayleigh(self, kappa: np.ndarray, l: int, coef: np.ndarray
                 ) -> np.ndarray:
        """Rayleigh quotients c^T A c / c^T T_W c of Galerkin vectors.

        Row r of ``coef`` is the coefficient vector c (2M + 1 entries) of
        a level of the sector ``kappa[r]``; the forms are taken in the
        unreduced problem (see ``sector_matrices``), with c^T D T_P D c
        as u^T T_P u for u = D c.  Each row is its own matrix-vector
        products, so its quotient does not depend on the other rows.  The
        error of the quotient is second order in that of c (Parlett, *The
        Symmetric Eigenvalue Problem*, ch. 4), so it drops the rounding
        of the reduced eigensolve.
        """
        modes = (coef.shape[1] - 1) // 2
        m = np.arange(-modes, modes + 1)
        lag = np.abs(m[:, None] - m[None, :])
        t_p, t_s, t_w = self.p_hat[lag], self.s_hat[lag], self.w_hat[lag]
        u = (kappa[:, None] + 2.0 * m) * coef
        return np.array([(du @ t_p @ du + float(l * l) * (c @ t_s @ c))
                         / (c @ t_w @ c) for c, du in zip(coef, u)])

    def _pencil(self, modes: int) -> tuple:
        """The sector-independent parts of the reduced matrices at M.

        With D = kappa I + E, E = diag(2m), G = L^-1 E and L the Cholesky
        factor of T_W, every sector's L^-1 (D T_P D + l^2 T_S) L^-T is
        kappa^2 P0 + kappa (P1 + P1^T) + P2 + l^2 S0 for P0 = L^-1 T_P L^-T,
        P1 = L^-1 T_P G^T, P2 = G T_P G^T and S0 = L^-1 T_S L^-T.  Built
        once per M and kept with L^-1.
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
                      l_inv @ self.s_hat[lag] @ l_inv.T, l_inv)
            self._pencils[modes] = pencil
        return pencil

    def sector_matrices(self, kappa: np.ndarray, l, modes: int):
        """Standard-form Galerkin matrices of every Bloch sector.

        For h = e^{i kappa x} sum_{|m|<=M} c_m e^{2imx} the problem
        -(P h')' + l^2 S h = lambda W h becomes A c = lambda T_W c with
        A = D T_P D + l^2 T_S, D = diag(kappa + 2m) and T_f the Toeplitz
        matrix of f_j.  T_W, the same for every sector and l, is reduced
        by its Cholesky factor L: returns (L^-1 A L^-T per sector, L^-1),
        and the coefficient vectors are c = L^-T y.  ``l`` is one angular
        index for every sector, or one per sector.  Each sector's matrix
        is (kappa P0 + (P1 + P1^T)) kappa + P2 + l^2 S0, formed element by
        element from the chart's pencil at M (``_pencil``, built on the
        first call at that M for any l), so it does not depend on which
        other sectors, or l, are formed with it.
        """
        p0, p1_sym, p2, s0, l_inv = self._pencil(modes)
        mats = np.multiply.outer(kappa, p0)
        mats += p1_sym
        mats *= kappa[:, None, None]
        lo = 0      # l^2 S0 is formed once per run of sectors of one l
        for value, run in itertools.groupby(
                [l] * len(kappa) if np.ndim(l) == 0 else list(l)):
            hi = lo + len(list(run))
            mats[lo:hi] += p2 + float(value * value) * s0
            lo = hi
        return mats, l_inv


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
            np.repeat([requests[i][0] for i in active], sizes), modes)[0])
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


# Inverse iteration, see _inverse_vectors.
_EPS = np.finfo(float).eps
_CLUSTER = 1e3          # shifts this many residuals apart share an eigenspace
# Start vectors: row r starts from entries rank..rank + n - 1, rank its place
# in its cluster; uniform in [-1, 1), fixed by a seed, with no symmetry.  The
# standard library draws them: importing numpy.random costs ~15 ms a start.
_START = np.frombuffer(
    random.Random(20120528).randbytes(8 * (4 * _MAX_MODES + 2)), "<u8"
) / 2.0 ** 63 - 1.0


def _inverse_vectors(mats: np.ndarray, sector: np.ndarray,
                     shifts: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of symmetric matrices by inverse iteration.

    Row r is the eigenvector y of ``mats[r]`` at its eigenvalue
    ``shifts[r]``, a value the caller took from ``np.linalg.eigvalsh`` of
    that matrix (Parlett, *The Symmetric Eigenvalue Problem*, ch. 4).
    ``sector[r]`` names the matrix that ``mats[r]`` is a copy of, and the
    rows come grouped per sector, in ascending shifts.  Each matrix is
    shifted in place, so ``mats`` is spent.

    One step solves (A - sigma I) z = b for every row in one batched
    ``np.linalg.solve`` and takes y = z / |z|.  The start b is fixed by a
    seed and has no symmetry (a symmetric start is orthogonal to every
    odd level); its entry for mode m is scaled by 1/(1 + |m|), since the
    levels asked for are smooth and their coefficients fall off with
    |m|.  The residual |(A - sigma I) y| is then |b| / |z|, up to the
    solve's rounding; a row whose residual exceeds n eps times the
    largest entry of its n x n matrix, the scale of that rounding, takes
    a second step from y.  A shift that leaves a matrix exactly singular
    is moved up by that much.  Rows of one matrix whose shifts lie
    within 1000 such residuals of each other span one eigenspace: each
    starts from its own vector, and they are orthonormalized in the
    order of their shifts (QR), so no vector is returned twice;
    ConvergenceFailure if one keeps less than 1e-3 of its norm.  Every
    row is its own solve, so its vector does not depend on the others.
    """
    rows, n = mats.shape[:2]
    diag = mats.reshape(rows, n * n)[:, ::n + 1]
    tol = n * _EPS * diag.max(axis=1)
    diag -= shifts[:, None]
    # rank: a row's place in its cluster, a run of rows of one matrix whose
    # shifts are closer than _CLUSTER residuals.
    rank, clusters = np.zeros(rows, int), []
    if rows > 1:
        for r in np.flatnonzero((sector[1:] == sector[:-1]) & (
                shifts[1:] - shifts[:-1] <= _CLUSTER * tol[1:])) + 1:
            rank[r] = rank[r - 1] + 1
            if rank[r] == 1:
                clusters.append([r - 1])
            clusters[-1].append(r)

    m = np.arange(n)
    start = _START[rank[:, None] + m] / (1.0 + np.abs(m - n // 2))
    y, residual = _inverse_step(mats, start, tol)
    again = np.flatnonzero(residual > tol)
    if again.size:
        y[again] = _inverse_step(mats[again], y[again], tol[again])[0]
    for cluster in clusters:
        basis, tri = np.linalg.qr(y[cluster].T)
        if np.min(np.abs(np.diag(tri))) < 1e-3:
            raise ConvergenceFailure("inverse iteration found dependent"
                                     " vectors in one eigenspace")
        y[cluster] = basis.T
    return y


def _inverse_step(a, rhs, nudge):
    """One step of inverse iteration: z = a[r]^-1 rhs[r] for every row in
    one batched solve, returned as (z / |z|, the residuals |rhs| / |z|).
    A matrix that is exactly singular has its shift moved up by
    ``nudge[r]``, in place, and is solved again alone."""
    try:
        z = np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        z = np.empty_like(rhs)
        for r in range(len(a)):
            try:
                z[r] = np.linalg.solve(a[r], rhs[r])
            except np.linalg.LinAlgError:
                a[r].flat[::a.shape[-1] + 1] -= nudge[r]
                z[r] = np.linalg.solve(a[r], rhs[r])
    size = np.sqrt(np.einsum("ij,ij->i", z, z))
    return z / size[:, None], np.sqrt(np.einsum("ij,ij->i", rhs, rhs)) / size


def _galerkin_vectors(chart: _RadialChart, l: int, kappa: np.ndarray,
                      modes: int, sector: np.ndarray, shifts: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin vectors of settled levels, and their Rayleigh quotients.

    Row r is the level of sector ``kappa[sector[r]]`` at angular index l
    whose ``np.linalg.eigvalsh`` value at M = ``modes`` is ``shifts[r]``,
    as ``_settle_modes`` returns it; the rows come grouped per sector, in
    ascending shifts.  Each row's sector matrix is formed at that M, the
    same bits as the ladder's (``sector_matrices``), and its vector y
    comes by inverse iteration (``_inverse_vectors``).  Returns the
    coefficient vectors c = L^-T y, one row each, and the Rayleigh
    quotients of c in the unreduced problem (``_RadialChart.rayleigh``),
    which are free of the reduced eigensolve's rounding.
    """
    mats, l_inv = chart.sector_matrices(kappa[sector], l, modes)
    y = _inverse_vectors(mats, sector, shifts)
    coef = np.array([l_inv.T @ v for v in y])
    return coef, chart.rayleigh(kappa[sector], l, coef)


def _sample_rows(chart: _RadialChart, kappa: np.ndarray, coef: np.ndarray,
                 imag: np.ndarray, real: np.ndarray, x_loc: np.ndarray,
                 anti: bool) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin levels sampled on the caller's grid, and their zero counts.

    Row r is the level of sector ``kappa[r]`` with coefficient vector
    ``coef[r]`` (2M + 1 entries): Im h where ``imag[r]``, else Re h, and
    h turned real by half the phase of sum h^2 where ``real[r]`` (a
    self-conjugate sector).  ``x_loc`` holds the x in [0, pi) of one
    half-oscillation's samples, and its shifts by j pi, j = 0..2q-1, make
    the grid of the period: ``chart.x_samples`` for the uniform t-grid,
    or the uniform x-grid, which needs no x(t).  Each row has unit norm
    in t by its Galerkin coefficients and is signed by
    ``sturm.orient_rows``; its zeros are its sign changes around the
    period (antiperiodic when ``anti``), the same on any grid that
    resolves them.
    """
    q = chart.q
    rows, modes = coef.shape[0], (coef.shape[1] - 1) // 2
    # h(x + j pi) = e^{i kappa (x + j pi)} sum_m c_m e^{2imx}, c real, on the
    # x of one half-oscillation and j = 0..2q-1: rows of re h and im h.  The
    # sum is taken over m >= 0, with c_m + c_-m on cos 2mx, c_m - c_-m on sin.
    c_cos = coef[:, modes:].copy()
    c_cos[:, 1:] += coef[:, modes - 1::-1]
    mx = np.multiply.outer(2.0 * np.arange(modes + 1), x_loc)
    sum_cos = c_cos @ np.cos(mx)
    sum_sin = (coef[:, modes + 1:] - coef[:, modes - 1::-1]) @ np.sin(mx[1:])
    kx = np.multiply.outer(kappa, x_loc)
    cos_kx, sin_kx = np.cos(kx), np.sin(kx)
    re_loc = cos_kx * sum_cos - sin_kx * sum_sin
    im_loc = sin_kx * sum_cos + cos_kx * sum_sin
    turn = math.pi * np.multiply.outer(kappa, np.arange(2 * q))[:, :, None]
    cos_t, sin_t = np.cos(turn), np.sin(turn)
    re = (cos_t * re_loc[:, None] - sin_t * im_loc[:, None]).reshape(rows, -1)
    im = (sin_t * re_loc[:, None] + cos_t * im_loc[:, None]).reshape(rows, -1)
    sampled = np.where(imag[:, None], im, re)
    # h of a self-conjugate sector is turned real by half the phase of sum h^2.
    half = 0.5 * np.arctan2(2.0 * np.sum(re[real] * im[real], axis=1),
                            np.sum(re[real] ** 2 - im[real] ** 2, axis=1))
    sampled[real] = (re[real] * np.cos(half)[:, None]
                     + im[real] * np.sin(half)[:, None])

    # c^H T_W c = 1: |h|^2 integrates to 2 q pi in t, q pi in Re h and Im h.
    sampled /= np.sqrt(np.where(real, 2.0, 1.0) * q * math.pi)[:, None]
    sampled = orient_rows(sampled)
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
    complex conjugate of sector k, so only half of them are solved, in
    one batched Hermitian eigensolve.  Each sector is a Fourier-Galerkin
    problem with 2M + 1 modes; M steps through ``_MODE_LADDER`` (8, 16,
    24, 32, 48, ... 256) until the lowest eigenvalues, each pair's
    counted twice, move by less than 1e-10 from the previous M
    (``_settle_modes``, one request of every solved sector), and
    ``eps_grid`` is that stop tolerance, 1e-10.  The returned window
    holds at least 2 max(p, q) + 8 eigenvalues and reaches 4.

    Eigenfunctions are sampled on the uniform t-grid of
    ``pipeline_grid_size(grid_size, q)`` points, which only sets the
    sampling: the real and imaginary parts of h for a conjugate pair, h
    turned real for a self-conjugate sector, each of unit norm in t by
    its Galerkin coefficients and with its first sample at half its peak
    magnitude or more positive (``sturm.orient_rows``).  ``sectors``
    holds each row's k.
    ``profile`` is ignored; the chart needs only b and q.

    By default every row is sampled.  ``sampled_sectors`` names the
    sectors whose rows are sampled instead; every other row gets NaN
    samples and zero count -1.  Every M of the ladder solves all sectors
    values-only (``np.linalg.eigvalsh``).  Unless ``sampled_sectors`` is
    empty, each level of the window gets its vector by inverse iteration
    at the M where the ladder stops, shifted by its ``eigvalsh`` value
    (``_galerkin_vectors``), and each window row reports the Rayleigh
    quotient of its Galerkin vector in the unreduced form
    (``_RadialChart.rayleigh``), which is free of the reduced
    eigensolve's rounding: the values are the same bits whichever
    sectors are sampled.  With ``sampled_sectors`` empty no eigenvector
    is taken, and each row is values-only: it reports the reduced
    eigenvalue, which may differ from the Rayleigh quotient by that
    rounding (up to ~1e-11 at q <= 100).  The window is
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
    vectors = sampled_sectors is None or len(sampled_sectors) > 0
    ((modes, lam, count),) = _settle_modes(
        chart, ((l, kappa, np.where(paired, 2, 1), 2 * max(q, r.p) + 8),))

    # Every level with its multiplicity; the second copy of a conjugate
    # pair becomes the imaginary part of h and carries the partner sector.
    flat = np.concatenate([np.arange(lam.size),
                           np.flatnonzero(np.repeat(paired, lam.shape[1]))])
    src = flat // lam.shape[1]
    level_lam = lam.ravel()[flat]
    imag = np.arange(flat.size) >= lam.size
    order = np.lexsort((imag, level_lam))[:count]
    src, imag = src[order], imag[order]
    values = level_lam[order]
    if vectors:
        # Each window level reports the Rayleigh quotient of its Galerkin
        # vector; the two copies of a conjugate pair share one vector.
        levels, copy = np.unique(flat[order], return_inverse=True)
        coef, values = _galerkin_vectors(chart, l, kappa, modes,
                                         levels // lam.shape[1],
                                         lam.ravel()[levels])
        values, coef = values[copy], coef[copy]
    # The operator is positive semidefinite: a negative value (the
    # constant mode at l = 0) is rounding.
    values = np.maximum(values, 0.0)
    resort = np.lexsort((imag, values))
    values, src, imag = values[resort], src[resort], imag[resort]
    sectors = np.where(imag, partner[src], ks[src])

    size = pipeline_grid_size(grid_size, q)
    funcs = np.full((count, size), np.nan)
    zero_counts = np.full(count, -1)
    rows = (np.arange(count) if sampled_sectors is None
            else np.flatnonzero(np.isin(sectors, list(sampled_sectors))))
    if rows.size:
        funcs[rows], zero_counts[rows] = _sample_rows(
            chart, kappa[src[rows]], coef[resort[rows]], imag[rows],
            ~paired[src[rows]], chart.x_samples(size // (2 * q)), anti)
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
    * **Hill pass.**  One more ``hill.monodromy`` call, at four times
      the count's steps (sixth-order steps: ~4096 times below the
      count's own change), makes each certified level one Newton step.
      sin(phi), the first N-D level at l = 0 (theta_n = pi), and the l = 1
      pair (Delta = 2 cos(pi p/q)) step from 2 by the slopes of the
      count's columns at 2 -+ delta; below0, the first D-N level
      (theta_d = pi/2), and the l = 2 ground, the first N-N level
      (theta_n = pi/2), step from their ladder values by a secant over
      1e-7.  The zero counts are 2q times the rotation at 2
      (``hill.rotation``).  ``sin_phi_row_is_even``: the N-D problem,
      whose levels are even about 0, holds the l = 0 level at 2 within
      the window, and the D-N one, whose levels are odd, does not.
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
    levels0, levels1, levels2 = (lam for _, lam, _ in _settle_modes(
        _RadialChart(sol.b, q),
        [(l, np.array(ks) / q, 1, 0) for l, ks in named.items()]))
    below0, two0, above0 = levels0[1, 0], levels0[1, 1], levels0[0, 1]
    below1, two1, above1 = levels1[0, 0], levels1[1, 0], levels1[2, 0]
    ground_l2 = levels2[0, 0]
    delta = 0.5 * min(abs(v - 2.0) for v in (below0, above0, below1, above1,
                                             ground_l2))
    coefficients = functools.partial(radial_coefficients, sol.b)
    counted = hill.count(coefficients, q, (2.0 - delta, 2.0 + delta))
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
    # The Hill pass: sin(phi) and the l = 1 pair at 2, below0 and the l = 2
    # ground at their ladder values and 1e-7 above; one Newton step each.
    trace, theta_d, theta_n = hill.monodromy(
        coefficients, (0, 1, 0, 0, 2, 2),
        (2.0, 2.0, below0, below0 + 1e-7, ground_l2, ground_l2 + 1e-7),
        4 * counted.steps)
    ladder = np.array([two0, two1, below0, ground_l2])
    miss = np.array([theta_n[0] - math.pi,
                     trace[1] - 2.0 * math.cos(math.pi * p / q),
                     theta_d[2] - 0.5 * math.pi, theta_n[4] - 0.5 * math.pi])
    run = np.array([2.0 * delta, 2.0 * delta, 1e-7, 1e-7])
    rise = np.array([counted.theta_n[0, 1] - counted.theta_n[0, 0],
                     counted.delta[1, 1] - counted.delta[1, 0],
                     theta_d[3] - theta_d[2], theta_n[5] - theta_n[4]])
    roots = np.array([2.0, 2.0, below0, ground_l2]) - miss * run / rise
    off = np.flatnonzero(np.abs(roots - ladder) > 1e-9)
    if off.size:
        i = off[0]
        l, k, n = ((0, q, 2), (1, p, 1), (0, q, 1), (2, 0, 1))[i]
        raise CountMismatch(
            f"Hill levels: level {n} of sector {k} at l = {l} is"
            f" {float(roots[i])!r} by the Hill pass but"
            f" {float(ladder[i])!r} by the Galerkin ladder")
    two0, two1, below0, ground_l2 = roots.tolist()
    zeros0, zeros1 = (int(v) for v in np.rint(
        2 * q * hill.rotation(trace[:2], theta_d[:2], theta_n[:2])))
    # Does the N-D problem (theta_n^0 at a multiple of pi) hold the level at
    # 2, within the window, and does the D-N one (theta_d^0 at pi/2 mod pi)?
    nd, dn = (abs(math.remainder(angle, math.pi))
              <= _THRESHOLD_WINDOW * abs(column[1] - column[0]) / run[0]
              for angle, column in ((theta_n[0], counted.theta_n[0]),
                                    (theta_d[0] - 0.5 * math.pi,
                                     counted.theta_d[0])))
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
