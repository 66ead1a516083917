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
eigenvalues are Rayleigh quotients, within about 1e-14 of 2 but not
exactly 2, so the modes at those positions and sectors are pinned to 2
instead of compared numerically.

The eigenvalue counting function N(lambda) is the total multiplicity of
eigenvalues strictly below lambda, the zero mode included (equivalently
the 0-based index of the first eigenvalue >= lambda).  The expected
value at lambda = 2 is 2q + 4p - 2 for odd q and q + 2p - 2 for even q,
and the scale-invariant functional value is
lambda * Area = 2 * Area = 8 q pi i2(b) (odd q) or 4 q pi i2(b),
strictly below 4 sqrt(2) q pi^2 resp. 2 sqrt(2) q pi^2.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, VerificationFailed, in_interval
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
    ``solve_radial``'s ``sampled_sectors``).
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
        """Eigenvalue used for counting: exact 2 for pinned modes."""
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
        """Total multiplicity pinned exactly at eigenvalue 2."""
        return sum(e.multiplicity for e in self.entries
                   if e.kept and e.pinned_two)


def weyl_N(table: ModeTable, lam: float) -> int:
    """Counting function: total multiplicity strictly below lam.

    The zero mode counts, so N(0+) = 1; eigenvalues pinned at the
    threshold are excluded from N(2) by strictness.
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


def _threshold_sectors(r: RotationNumber, l: int) -> dict[int, set[int]]:
    """Positions of the closed-form eigenvalue-2 modes in the radial
    spectrum at l, each with the Bloch sectors its row may carry."""
    if l == 0:
        return {2 * r.q: {r.q}}
    if l == 1:
        return dict.fromkeys((2 * r.p - 1, 2 * r.p), {r.p, 2 * r.q - r.p})
    return {}


def _pin_threshold_modes(r: RotationNumber, l: int,
                         spec: SLSpectrum) -> set[int]:
    """Indices of the modes identified with the closed-form eigenvalue-2
    eigenfunctions: their positions, where the row carries their sector."""
    return {i for i, ks in _threshold_sectors(r, l).items()
            if i < spec.eigenvalues.size and spec.sectors[i] in ks}


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
    on one shared chart (or reuses the supplied spectra), applies the
    even-q quotient filter, and pins the known eigenvalue-2 modes to the
    threshold by position and Bloch sector, so supplied spectra must
    carry ``sectors``.  Raises ValueError if a radial window ends below
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
        pinned = _pin_threshold_modes(r, l, spec)
        for i, lam in enumerate(spec.eigenvalues):
            pinned_two = i in pinned
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
_SAMPLE_GRID = 2048     # t-grid of assemble's rows, before pipeline_grid_size
# Fixed tolerance of verify's close_to certificates at 2, not resolved against
# the run's error; ROADMAP item 3's residual-based intervals will replace it.
_THRESHOLD_WINDOW = 1e-6


class _RadialChart:
    """Radial coefficients in the analytic chart sin(phi) = sin(b) cos(x).

    One period t0 of the bipolar geodesic is x in [0, 2 q pi), and the
    coefficients P, S and W = dt/dx of ``geodesic.radial_coefficients``
    are analytic and pi-periodic.  Each is held by its Fourier
    coefficients f_j of f(x) = sum_j f_j e^{2ijx} (real and even in j,
    since f is even in x), from one FFT.  t(x) and x(t) come from the
    bipolar geodesic's own chart, ``geodesic.bipolar_chart``.  ``t0``,
    ``t_half`` and ``cos2_phi_at`` let ``sturm.build_problem`` bind a
    radial problem to the chart as it does to a profile.  One chart may
    serve the radial solves of every l (see ``solve_radial``) and the
    ground levels of ``ground``; it keeps the pencil of the reduced
    matrices per M (``_pencil``: four n x n matrices and L^-1, for
    n = 2M + 1) and the x of the sampling grid per ``per_half``, so each
    is computed once however many l it serves.
    """

    def __init__(self, b: float, q: int):
        self.b, self.q = b, q
        self._pencils: dict[int, tuple] = {}            # M -> see _pencil
        self._x_samples: dict[int, np.ndarray] = {}     # per_half -> x(t)
        x = np.arange(_FFT_POINTS) * (math.pi / _FFT_POINTS)
        self.p_hat, self.s_hat, self.w_hat = (
            np.fft.fft(f).real / _FFT_POINTS for f in radial_coefficients(b, x))
        self.geodesic = bipolar_chart(b)
        self.t_half = self.geodesic.length
        self.t0 = 2 * q * self.t_half

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

    def ground(self, l: int) -> float:
        """Lowest radial eigenvalue at angular index l, values-only.

        The ground state is positive and unique, so the half-period shift
        x -> x + pi, which commutes with the operator, fixes it: it lies
        in Bloch sector kappa = 0 (Eastham, *The Spectral Theory of
        Periodic Differential Equations*), and only that sector is
        solved.  M steps up ``_MODE_LADDER`` (8, 16, 24, 32, ...) until
        the value moves by less than 1e-10 from the previous M
        (``solve_radial``'s stop rule, applied to this one value);
        ConvergenceFailure, naming l and M, if it still moves at M = 256.
        The value is the reduced matrix's, not a Rayleigh quotient.
        """
        kappa = np.zeros(1)

        def solve(modes):
            vals = np.linalg.eigvalsh(self.sector_matrices(kappa, l, modes)[0])
            return vals[0], 1, vals[0, 0]

        return float(_settle_modes(l, solve)[1])

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

    def sector_matrices(self, kappa: np.ndarray, l: int, modes: int):
        """Standard-form Galerkin matrices of every Bloch sector.

        For h = e^{i kappa x} sum_{|m|<=M} c_m e^{2imx} the problem
        -(P h')' + l^2 S h = lambda W h becomes A c = lambda T_W c with
        A = D T_P D + l^2 T_S, D = diag(kappa + 2m) and T_f the Toeplitz
        matrix of f_j.  T_W, the same for every sector and l, is reduced
        by its Cholesky factor L: returns (L^-1 A L^-T per sector, L^-1),
        and the coefficient vectors are c = L^-T y.  Each sector's matrix
        is (kappa P0 + (P1 + P1^T)) kappa + P2 + l^2 S0, formed element by
        element from the chart's pencil at M (``_pencil``, built on the
        first call at that M for any l), so it does not depend on which
        other sectors are formed with it.
        """
        p0, p1_sym, p2, s0, l_inv = self._pencil(modes)
        mats = np.multiply.outer(kappa, p0)
        mats += p1_sym
        mats *= kappa[:, None, None]
        mats += p2 + float(l * l) * s0
        return mats, l_inv


def _settle_modes(l: int, solve):
    """Step the Fourier modes per sector M through ``_MODE_LADDER`` (8,
    16, 24, 32, 48, ... 256: each power of two and 1.5 times it) until the
    leading eigenvalues move by less than 1e-10 from the previous M.

    ``solve(M)`` returns (sorted eigenvalues, how many of the lowest must
    settle, whatever the caller keeps of that solve).  Returns the last M
    and what its solve kept.  Raises ConvergenceFailure, naming l and M,
    if they still move at M = 256.  The Galerkin spaces are nested, so
    each value falls with M, and up to rounding the ladder stops at no
    larger M than doubling from 8 would.
    """
    prev = None
    for modes in _MODE_LADDER:
        vals, count, kept = solve(modes)
        if prev is not None:
            change = float(np.max(np.abs(vals[:count] - prev[:count])))
            if change < _MODE_TOL:
                return modes, kept
        if modes >= _MAX_MODES:
            raise ConvergenceFailure(
                f"radial eigenvalues at l = {l} still move by {change:.1e}"
                f" at M = {modes} Fourier modes per sector")
        prev = vals


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
    24, 32, 48, ... 256) until the lowest eigenvalues move by less than
    1e-10 from the previous M (``_settle_modes``), and ``eps_grid`` is
    that stop tolerance, 1e-10.  The returned window holds at least
    2 max(p, q) + 8 eigenvalues and reaches 4.

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
    values-only (``np.linalg.eigvalsh``); at the M where it stops, the
    sectors with a sampled row are formed again and solved once more by
    ``np.linalg.eigh``.  A window row of a sector solved with
    eigenvectors reports the Rayleigh quotient of its Galerkin vector in
    the unreduced form (``_RadialChart.rayleigh``), which is free of the
    reduced eigensolve's rounding and is bit for bit that of a full
    solve; a values-only row reports the reduced eigenvalue, which may
    differ from it by that rounding (up to ~1e-11 at q <= 100).  The
    window is sorted by the reported values.  ``chart`` is the
    ``_RadialChart`` of b and q, built here when None; one chart shared
    across l shares its coefficients and its pencil per M.
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
    base = 2 * max(q, r.p) + 8
    if sampled_sectors is None:
        vectors = np.ones(ks.size, bool)
    else:
        wanted = list(sampled_sectors)
        vectors = np.isin(ks, wanted) | np.isin(partner, wanted)

    def solve(modes):
        lam = np.linalg.eigvalsh(chart.sector_matrices(kappa, l, modes)[0])
        vals = np.sort(np.concatenate([lam.ravel(), lam[paired].ravel()]))
        count = max(base, int(np.searchsorted(vals, 4.0)) + 1)
        return vals, count, (lam, count)

    modes, (lam, count) = _settle_modes(l, solve)
    # Eigenvectors at the stop M only, of the sectors with a sampled row.
    mats, l_inv = chart.sector_matrices(kappa[vectors], l, modes)
    lam[vectors], y = np.linalg.eigh(mats)
    del mats        # as large as y in a full solve; sampling needs neither

    slot = np.cumsum(vectors) - 1        # each vector sector's place in y
    # Every level with its multiplicity; the second copy of a conjugate
    # pair becomes the imaginary part of h and carries the partner sector.
    n = lam.shape[1]
    src = np.repeat(np.arange(ks.size), n)
    idx = np.tile(np.arange(n), ks.size)
    dup = paired[src]
    level_lam = np.concatenate([lam.ravel(), lam.ravel()[dup]])
    src = np.concatenate([src, src[dup]])
    idx = np.concatenate([idx, idx[dup]])
    imag = np.concatenate([np.zeros(dup.size, bool), np.ones(dup.sum(), bool)])
    order = np.lexsort((imag, level_lam))[:count]
    src, idx, imag = src[order], idx[order], imag[order]
    # A window row of a vector sector reports the Rayleigh quotient of its
    # Galerkin vector c = L^-T y, one matrix-vector product per row.
    has_c = vectors[src]
    coef = np.array([l_inv.T @ y[slot[k], :, i]
                     for k, i in zip(src[has_c], idx[has_c])])
    coef = coef.reshape(-1, 2 * modes + 1)     # 2-D when no row has a vector
    values = level_lam[order]
    values[has_c] = chart.rayleigh(kappa[src[has_c]], l, coef)
    # The operator is positive semidefinite: a negative value (the
    # constant mode at l = 0) is rounding.
    values = np.maximum(values, 0.0)
    coef_row = np.cumsum(has_c) - 1          # each row's place in coef
    resort = np.lexsort((imag, values))
    values, src, imag, coef_row = (a[resort]
                                   for a in (values, src, imag, coef_row))
    sectors = np.where(imag, partner[src], ks[src])
    rows = (np.arange(count) if sampled_sectors is None
            else np.flatnonzero(np.isin(sectors, wanted)))
    src, imag, coef_row = src[rows], imag[rows], coef_row[rows]

    size = pipeline_grid_size(grid_size, q)
    per_half = size // (2 * q)
    x_loc = chart.x_samples(per_half)
    kap = kappa[src]
    # h(x + j pi) = e^{i kappa (x + j pi)} sum_m c_m e^{2imx}, c real, on the
    # x of one half-oscillation and j = 0..2q-1: rows of re h and im h.  The
    # sum is taken over m >= 0, with c_m + c_-m on cos 2mx, c_m - c_-m on sin.
    c = coef[coef_row]
    c_cos = c[:, modes:].copy()
    c_cos[:, 1:] += c[:, modes - 1::-1]
    mx = np.multiply.outer(2.0 * np.arange(modes + 1), x_loc)
    sum_cos = c_cos @ np.cos(mx)
    sum_sin = (c[:, modes + 1:] - c[:, modes - 1::-1]) @ np.sin(mx[1:])
    kx = np.multiply.outer(kap, x_loc)
    cos_kx, sin_kx = np.cos(kx), np.sin(kx)
    re_loc = cos_kx * sum_cos - sin_kx * sum_sin
    im_loc = sin_kx * sum_cos + cos_kx * sum_sin
    turn = math.pi * np.multiply.outer(kap, np.arange(2 * q))[:, :, None]
    cos_t, sin_t = np.cos(turn), np.sin(turn)
    re = (cos_t * re_loc[:, None] - sin_t * im_loc[:, None]).reshape(-1, size)
    im = (sin_t * re_loc[:, None] + cos_t * im_loc[:, None]).reshape(-1, size)
    sampled = np.where(imag[:, None], im, re)
    # h of a self-conjugate sector is turned real by half the phase of sum h^2.
    real = ~paired[src]
    half = 0.5 * np.arctan2(2.0 * np.sum(re[real] * im[real], axis=1),
                            np.sum(re[real] ** 2 - im[real] ** 2, axis=1))
    sampled[real] = (re[real] * np.cos(half)[:, None]
                     + im[real] * np.sin(half)[:, None])

    # c^H T_W c = 1: |h|^2 integrates to 2 q pi in t, q pi in Re h and Im h.
    sampled /= np.sqrt(np.where(real, 2.0, 1.0) * q * math.pi)[:, None]
    sampled = orient_rows(sampled)
    funcs = np.full((count, size), np.nan)
    funcs[rows] = sampled
    zero_counts = np.full(count, -1)
    zero_counts[rows] = count_sign_changes(sampled, antiperiodic=anti)
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
    """Run the full counting pipeline and certify every named inequality.

    Certificates: the mode count N(2) equals the closed form; the last
    sub-threshold radial eigenvalue at l = 0 sits strictly below 2 with
    measured margin; the known eigenvalue-2 modes appear at their
    closed-form positions; the ground eigenvalue at l = 2 clears 2 (and
    the pointwise potential bound 4); the functional value computed from
    the period agrees with the closed elliptic form and respects its
    strict upper bound; the geodesic closes, |omega(a) - p pi/q| <=
    ``omega_tol``.  The radial spectra come from the analytic chart, so
    no sampled profile is built and ``samples_per_half_period`` is
    ignored.  One chart serves every solve: ``solve_radial`` at l = 0, 1,
    the only l below ``assemble``'s default cut 2.5 (by the floor
    lambda >= l^2), and ``_RadialChart.ground(2)``, which solves
    only Bloch sector 0, where the ground state lies, for the two l = 2
    certificates; ``l_max`` is ignored.  Only the threshold sectors (q at
    l = 0, p and 2q - p at l = 1) are solved with eigenvectors and
    sampled, so the three eigenvalue-2 levels are Rayleigh quotients of
    their Galerkin vectors, within ~1e-14 of 2 whichever M the ladder
    ends on; every other sector is solved values-only; ``grid_size`` is
    ignored.  The report counts below 2 only, so ``lambda_cut`` is
    ignored too.  ``r`` may be any (p, q) pair.
    """
    if not isinstance(r, RotationNumber):
        r = RotationNumber(*r)
    sol = solve_rotation(r)
    n = pipeline_grid_size(_SAMPLE_GRID, r.q)

    # Eigenvectors only for the threshold sectors, whose rows the zero-count
    # certificates read; every other sector is solved values-only.
    chart = _RadialChart(sol.b, r.q)
    spectra = {l: solve_radial(sol, None, l, n, chart=chart,
                               sampled_sectors=set().union(
                                   *_threshold_sectors(r, l).values()))
               for l in range(2)}
    ground_l2 = chart.ground(2)
    table = assemble(sol, None, spectra=spectra)
    n2 = weyl_N(table, 2.0)
    n2_expected = expected_n2(r)

    sp0, sp1 = spectra[0], spectra[1]
    eps = table.eps_grid
    p, q = r.p, r.q
    [i0], (i1, i1b) = _threshold_sectors(r, 0), _threshold_sectors(r, 1)

    certs = [
        Certificate.integer_equal("mode_count_matches_closed_form",
                                  n2, n2_expected),
        Certificate.less_than("subcritical_radial_mode_below_two",
                              sp0.eigenvalues[i0 - 1], 2.0),
        Certificate.close_to("radial_eigenvalue_two_at_l0_position_2q",
                             sp0.eigenvalues[i0], 2.0, _THRESHOLD_WINDOW),
        Certificate.integer_equal("sin_phi_zero_count",
                                  int(sp0.zero_counts[i0]), 2 * q),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p_minus_1",
                             sp1.eigenvalues[i1], 2.0, _THRESHOLD_WINDOW),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p",
                             sp1.eigenvalues[i1b], 2.0, _THRESHOLD_WINDOW),
        Certificate.integer_equal("l1_pair_zero_count",
                                  int(sp1.zero_counts[i1]), 2 * p),
        Certificate.less_than("l1_predecessor_below_two",
                              sp1.eigenvalues[i1 - 1], 2.0),
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
        threshold_multiplicity=table.threshold_multiplicity(),
        eps_grid=eps, certificates=certs)

    if raise_on_failure and not report.passed:
        bad = report.first_failure()
        raise VerificationFailed(
            f"certificate {bad.name} failed: lhs={bad.lhs!r} rhs={bad.rhs!r}",
            report=report)
    return report
