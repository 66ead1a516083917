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
eigenvalues straddle 2 by the solver error, so the modes at those
positions and sectors are pinned to 2 instead of compared numerically.

The eigenvalue counting function N(lambda) is the total multiplicity of
eigenvalues strictly below lambda, the zero mode included (equivalently
the 0-based index of the first eigenvalue >= lambda).  The expected
value at lambda = 2 is 2q + 4p - 2 for odd q and q + 2p - 2 for even q,
and the scale-invariant functional value is
lambda * Area = 2 * Area = 8 q pi i2(b) (odd q) or 4 q pi i2(b),
strictly below 4 sqrt(2) q pi^2 resp. 2 sqrt(2) q pi^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, InsufficientLMax, VerificationFailed
from .geodesic import (
    GeodesicProfile,
    OtsukiSolution,
    RotationNumber,
    bipolar_chart,
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
    """One radial eigenvalue in the assembled table."""

    l: int
    i: int
    lam: float
    multiplicity: int
    kept: bool
    reason: str
    zero_count: int
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


def assemble(sol: OtsukiSolution, profile: GeodesicProfile | None,
             l_max: int = 3, lambda_cut: float = 2.5,
             grid_size: int = 2048,
             spectra: dict[int, SLSpectrum] | None = None) -> ModeTable:
    """Collect all Laplace modes with eigenvalue below ``lambda_cut``.

    Solves the periodic radial problem for l = 0..l_max (or reuses the
    supplied spectra), applies the even-q quotient filter, and pins the
    known eigenvalue-2 modes to the threshold by position and Bloch
    sector, so supplied spectra must carry ``sectors``.  Raises
    InsufficientLMax unless the ground eigenvalue at l_max already clears
    the cutoff, so "no l >= 2 modes below 2" is measured rather than
    assumed.  For even q the filter keeps the modes of Bloch sectors
    k = l (mod 2).  ``profile`` is ignored.
    """
    if lambda_cut < 2.0:
        raise ValueError("lambda_cut must be at least 2")
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    r = sol.rotation
    n = pipeline_grid_size(grid_size, r.q)

    spectra = dict(spectra or {})
    for l in range(l_max + 1):
        if l not in spectra:
            spectra[l] = solve_radial(sol, profile, l, n)

    ground_top = spectra[l_max].eigenvalues[0]
    if ground_top < lambda_cut:
        raise InsufficientLMax(
            f"ground eigenvalue {ground_top:.6f} at l = {l_max} is below the"
            f" cutoff {lambda_cut}; raise l_max")

    eps_grid = max((s.eps_grid for s in spectra.values()
                    if math.isfinite(s.eps_grid)), default=float("nan"))

    entries = []
    for l in range(l_max + 1):
        spec = spectra[l]
        if spec.sectors is None:
            raise ValueError(f"radial spectrum at l = {l} carries no sectors")
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
                zero_count=int(spec.zero_counts[i]),
                pinned_two=pinned_two))

    entries.sort(key=lambda e: e.effective_lam)
    return ModeTable(rotation=r, lambda_cut=lambda_cut, eps_grid=eps_grid,
                     entries=entries)


# Fourier-Galerkin radial solve, see solve_radial.
_FFT_POINTS = 2048      # coefficient samples per half-oscillation x in [0, pi)
_FIRST_MODES = 8        # M of the first solve; each sector has 2M + 1 modes
_MAX_MODES = 256        # lags up to 2M stay below _FFT_POINTS / 2
_MODE_TOL = 1e-10       # M-versus-M/2 change that stops the doubling


class _RadialChart:
    """Radial coefficients in the analytic chart sin(phi) = sin(b) cos(x).

    One period t0 of the bipolar geodesic is x in [0, 2 q pi), and the
    coefficients P, S and W = dt/dx of ``geodesic.radial_coefficients``
    are analytic and pi-periodic.  Each is held by its Fourier
    coefficients f_j of f(x) = sum_j f_j e^{2ijx} (real and even in j,
    since f is even in x), from one FFT.  t(x) and x(t) come from the
    bipolar geodesic's own chart, ``geodesic.bipolar_chart``.  ``t0``,
    ``t_half`` and ``cos2_phi_at`` let ``sturm.build_problem`` bind a
    radial problem to the chart as it does to a profile.
    """

    def __init__(self, b: float, q: int):
        self.b = b
        x = np.arange(_FFT_POINTS) * (math.pi / _FFT_POINTS)
        self.p_hat, self.s_hat, self.w_hat = (
            np.fft.fft(f).real / _FFT_POINTS for f in radial_coefficients(b, x))
        self.geodesic = bipolar_chart(b)
        self.t_half = self.geodesic.length
        self.t0 = 2 * q * self.t_half

    def cos2_phi_at(self, t):
        return 1.0 - (math.sin(self.b) * np.cos(self.geodesic.x_of(t))) ** 2

    def sector_matrices(self, kappa: np.ndarray, l: int, modes: int):
        """Standard-form Galerkin matrices of every Bloch sector.

        For h = e^{i kappa x} sum_{|m|<=M} c_m e^{2imx} the problem
        -(P h')' + l^2 S h = lambda W h becomes A c = lambda T_W c with
        A = D T_P D + l^2 T_S, D = diag(kappa + 2m) and T_f the Toeplitz
        matrix of f_j.  T_W, the same for every sector and l, is reduced
        once by its Cholesky factor L: returns (L^-1 A L^-T per sector,
        L^-1).  The coefficient vectors are c = L^-T y.
        """
        m = np.arange(-modes, modes + 1)
        lag = np.abs(m[:, None] - m[None, :])
        d = kappa[:, None] + 2.0 * m
        a = (d[:, :, None] * self.p_hat[lag] * d[:, None, :]
             + float(l * l) * self.s_hat[lag])
        l_inv = np.linalg.inv(np.linalg.cholesky(self.w_hat[lag]))
        return l_inv @ a @ l_inv.T, l_inv


def solve_radial(sol: OtsukiSolution, profile: GeodesicProfile | None,
                 l: int, grid_size: int,
                 boundary: Boundary = Boundary.PERIODIC) -> SLSpectrum:
    """Radial spectrum of angular index l by Bloch sectors in the chart.

    Solves -(P h')' + l^2 S h = lambda W h on x in [0, 2 q pi) (see
    ``_RadialChart``).  The coefficients are pi-periodic, so the problem
    splits into 2q Bloch sectors h(x + pi) = e^{i pi kappa} h(x) with
    kappa = k/q (periodic) or (k + 1/2)/q (antiperiodic),
    k = 0..2q-1; sector 2q-k (periodic) or 2q-1-k (antiperiodic) is the
    complex conjugate of sector k, so only half of them are solved, in
    one batched Hermitian eigensolve.  Each sector is a Fourier-Galerkin
    problem with 2M + 1 modes; M doubles from 8 until the lowest
    eigenvalues move by less than 1e-10, and ``eps_grid`` is that
    M-versus-M/2 change, floored at 1e-10.  The returned window holds at
    least 2 max(p, q) + 8 eigenvalues and reaches 4.

    Eigenfunctions are sampled on the uniform t-grid of
    ``pipeline_grid_size(grid_size, q)`` points, which only sets the
    sampling: the real and imaginary parts of h for a conjugate pair, h
    turned real for a self-conjugate sector, each of unit norm in t by
    its Galerkin coefficients.  ``sectors`` holds each row's k.
    ``profile`` is ignored; the chart needs only b and q.
    """
    if l < 0:
        raise ValueError("angular index l must be non-negative")
    r = sol.rotation
    q = r.q
    chart = _RadialChart(sol.b, q)
    anti = boundary is Boundary.ANTIPERIODIC
    ks = np.arange(q if anti else q + 1)
    kappa = (ks + (0.5 if anti else 0.0)) / q
    partner = (2 * q - 1 - ks) if anti else (2 * q - ks) % (2 * q)
    paired = partner != ks
    base = 2 * max(q, r.p) + 8

    modes, prev = _FIRST_MODES, None
    while True:
        mats, l_inv = chart.sector_matrices(kappa, l, modes)
        lam = np.linalg.eigvalsh(mats)
        vals = np.sort(np.concatenate([lam.ravel(), lam[paired].ravel()]))
        count = max(base, int(np.searchsorted(vals, 4.0)) + 1)
        if prev is not None:
            change = float(np.max(np.abs(vals[:count] - prev[:count])))
            if change < _MODE_TOL:
                break
        if modes >= _MAX_MODES:
            raise ConvergenceFailure(
                f"radial eigenvalues at l = {l} still move by {change:.1e}"
                f" at M = {modes} Fourier modes per sector")
        prev, modes = vals, 2 * modes

    lam, y = np.linalg.eigh(mats)
    # The operator is positive semidefinite: a negative value (the
    # constant mode at l = 0) is rounding.
    lam = np.maximum(lam, 0.0)
    coef = l_inv.T @ y                   # columns: c of each sector level
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

    size = pipeline_grid_size(grid_size, q)
    per_half = size // (2 * q)
    x_loc = chart.geodesic.x_of(np.arange(per_half) * (chart.t_half / per_half))
    kap = kappa[src]
    m = np.arange(-modes, modes + 1)
    local = (np.exp(1j * np.multiply.outer(x_loc, kap))
             * (np.exp(2j * np.multiply.outer(x_loc, m)) @ coef[src, :, idx].T))
    turns = np.exp(1j * math.pi * np.multiply.outer(np.arange(2 * q), kap))
    h = (turns[:, None, :] * local[None, :, :]).reshape(size, count).T
    real = ~paired[src]
    h[real] *= np.exp(-0.5j * np.angle(np.sum(h[real] ** 2, axis=1)))[:, None]
    funcs = np.where(imag[:, None], h.imag, h.real)

    # c^H T_W c = 1: |h|^2 integrates to 2 q pi in t, q pi in Re h and Im h.
    funcs /= np.sqrt(np.where(real, 2.0, 1.0) * q * math.pi)[:, None]
    peak = np.argmax(np.abs(funcs), axis=1)
    signs = np.sign(funcs[np.arange(count), peak])
    signs[signs == 0] = 1.0
    funcs *= signs[:, None]
    zero_counts = count_sign_changes(funcs, antiperiodic=anti)
    return SLSpectrum(problem=build_problem(chart, l, boundary),
                      grid=np.arange(size) * (chart.t0 / size),
                      eigenvalues=level_lam[order],
                      eigenfunctions=np.ascontiguousarray(funcs),
                      zero_counts=zero_counts, labels=np.arange(count),
                      eps_grid=max(change, _MODE_TOL),
                      sectors=np.where(imag, partner[src], ks[src]))


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


def verify_theorem3(r: RotationNumber, *, grid_size: int = 2048,
                    l_max: int = 3, lambda_cut: float = 2.5,
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
    ignored.
    """
    if isinstance(r, tuple):
        r = RotationNumber(*r)
    sol = solve_rotation(r)
    n = pipeline_grid_size(grid_size, r.q)

    spectra = {l: solve_radial(sol, None, l, n) for l in range(l_max + 1)}
    table = assemble(sol, None, l_max=l_max, lambda_cut=lambda_cut,
                     grid_size=n, spectra=spectra)
    n2 = weyl_N(table, 2.0)
    n2_expected = expected_n2(r)

    sp0, sp1, sp2 = spectra[0], spectra[1], spectra[2]
    eps = table.eps_grid
    window = max(50.0 * eps, 1e-6)
    p, q = r.p, r.q
    [i0], (i1, i1b) = _threshold_sectors(r, 0), _threshold_sectors(r, 1)

    certs = [
        Certificate.integer_equal("mode_count_matches_closed_form",
                                  n2, n2_expected),
        Certificate.less_than("subcritical_radial_mode_below_two",
                              sp0.eigenvalues[i0 - 1], 2.0),
        Certificate.close_to("radial_eigenvalue_two_at_l0_position_2q",
                             sp0.eigenvalues[i0], 2.0, window),
        Certificate.integer_equal("sin_phi_zero_count",
                                  int(sp0.zero_counts[i0]), 2 * q),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p_minus_1",
                             sp1.eigenvalues[i1], 2.0, window),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p",
                             sp1.eigenvalues[i1b], 2.0, window),
        Certificate.integer_equal("l1_pair_zero_count",
                                  int(sp1.zero_counts[i1]), 2 * p),
        Certificate.less_than("l1_predecessor_below_two",
                              sp1.eigenvalues[i1 - 1], 2.0),
        Certificate.less_than("ground_l2_above_two", 2.0,
                              sp2.eigenvalues[0]),
        Certificate.less_than("ground_l2_above_potential_floor",
                              4.0 - eps, sp2.eigenvalues[0]),
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
