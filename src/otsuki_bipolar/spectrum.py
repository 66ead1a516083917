"""Assembly of the Laplace-Beltrami spectrum and the counting checks.

Separation of variables turns the Laplace operator of the bipolar
surface into the family of radial problems indexed by the angular wave
number l: each radial eigenfunction contributes one Laplace
eigenfunction for l = 0 and two (cos and sin angular factors) for
l >= 1.  For even q the immersion double-covers the surface through
(alpha, t) -> (alpha + pi, t + t0/2), and only radial functions with
h(t + t0/2) = (-1)^l h(t) descend to the quotient.

Three radial eigenfunctions are known in closed form at eigenvalue 2
(the immersed coordinates): sin(phi) at l = 0 with 2q sign changes, and
cos(phi)sin(theta), cos(phi)cos(theta) at l = 1 with 2p sign changes.
Discretized eigenvalues straddle 2 by the grid error, so modes matching
those zero counts and positions are pinned to the threshold instead of
being compared against 2 numerically.

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

from .errors import InsufficientLMax, VerificationFailed
from .geodesic import (
    GeodesicProfile,
    OtsukiSolution,
    RotationNumber,
    i2,
    profile as build_profile,
    solve_rotation,
)
from .immersion import area
from .sturm import (
    Boundary,
    SLSpectrum,
    build_problem,
    eigen,
    half_period_characters,
)


def pipeline_grid_size(requested: int, q: int) -> int:
    """Round a grid size up to a multiple of 8q.

    Keeps every sub-period shift (t0/(4q) and coarser) and the
    half-resolution Richardson solve exactly representable on the grid.
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


def _pin_threshold_modes(r: RotationNumber, l: int, spec: SLSpectrum,
                         window: float) -> set[int]:
    """Indices of modes identified with the closed-form eigenvalue-2
    eigenfunctions (by position and zero count within the window)."""
    pinned = set()
    vals = spec.eigenvalues
    zeros = spec.zero_counts
    if l == 0:
        i = 2 * r.q
        if i < vals.size and abs(vals[i] - 2.0) <= window and zeros[i] == 2 * r.q:
            pinned.add(i)
    elif l == 1:
        for i in (2 * r.p - 1, 2 * r.p):
            if i < vals.size and abs(vals[i] - 2.0) <= window and zeros[i] == 2 * r.p:
                pinned.add(i)
    return pinned


def assemble(sol: OtsukiSolution, profile: GeodesicProfile,
             l_max: int = 3, lambda_cut: float = 2.5,
             grid_size: int = 2048,
             spectra: dict[int, SLSpectrum] | None = None) -> ModeTable:
    """Collect all Laplace modes with eigenvalue below ``lambda_cut``.

    Solves the periodic radial problem for l = 0..l_max (or reuses the
    supplied spectra), applies the even-q quotient filter, and pins the
    known eigenvalue-2 modes to the threshold.  Raises InsufficientLMax
    unless the ground eigenvalue at l_max already clears the cutoff, so
    "no l >= 2 modes below 2" is measured rather than assumed.
    """
    if lambda_cut < 2.0:
        raise ValueError("lambda_cut must be at least 2")
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    r = sol.rotation
    n = pipeline_grid_size(grid_size, r.q)

    if spectra is None:
        spectra = {}
    spectra = dict(spectra)
    for l in range(l_max + 1):
        if l not in spectra:
            spectra[l] = solve_radial(sol, profile, l, n)

    ground_top = spectra[l_max].eigenvalues[0]
    if ground_top < lambda_cut:
        raise InsufficientLMax(
            f"ground eigenvalue {ground_top:.6f} at l = {l_max} is below the"
            f" cutoff {lambda_cut}; raise l_max")

    finite_eps = [s.eps_grid for s in spectra.values()
                  if math.isfinite(s.eps_grid)]
    eps_grid = max(finite_eps) if finite_eps else float("nan")
    pin_window = max(50.0 * eps_grid, 1e-6) if finite_eps else 1e-6

    entries = []
    for l in range(l_max + 1):
        spec = spectra[l]
        vals = spec.eigenvalues
        pinned = _pin_threshold_modes(r, l, spec, pin_window)
        if r.even_q:
            chars = half_period_characters(spec)
            want = 1.0 if l % 2 == 0 else -1.0
        for i, lam in enumerate(vals):
            pinned_two = i in pinned
            if lam >= lambda_cut and not pinned_two:
                continue
            kept, reason = True, "below-cut"
            if r.even_q:
                if not chars[i] == want:
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


def solve_radial(sol: OtsukiSolution, profile: GeodesicProfile, l: int,
                 grid_size: int,
                 boundary: Boundary = Boundary.PERIODIC) -> SLSpectrum:
    """Solve one radial problem with enough modes to clear lambda_cut + 2."""
    r = sol.rotation
    count = 2 * max(r.q, r.p) + 8
    prob = build_problem(profile, l, boundary)
    spec = eigen(prob, count, grid_size)
    # Ensure the returned window truly covers the cutoff region.
    while spec.eigenvalues[-1] < 4.0 and count < grid_size // 4:
        count *= 2
        spec = eigen(prob, count, grid_size)
    return spec


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
                    raise_on_failure: bool = True) -> VerificationReport:
    """Run the full counting pipeline and certify every named inequality.

    Certificates: the mode count N(2) equals the closed form; the last
    sub-threshold radial eigenvalue at l = 0 sits strictly below 2 with
    measured margin; the known eigenvalue-2 modes appear at their
    oscillation positions; the ground eigenvalue at l = 2 clears 2 (and
    the pointwise potential bound 4); the functional value computed from
    the period agrees with the closed elliptic form and respects its
    strict upper bound.
    """
    if isinstance(r, tuple):
        r = RotationNumber(*r)
    sol = solve_rotation(r)
    prof = build_profile(sol, samples_per_half_period)
    n = pipeline_grid_size(grid_size, r.q)

    spectra = {l: solve_radial(sol, prof, l, n) for l in range(l_max + 1)}
    table = assemble(sol, prof, l_max=l_max, lambda_cut=lambda_cut,
                     grid_size=n, spectra=spectra)
    n2 = weyl_N(table, 2.0)
    n2_expected = expected_n2(r)

    sp0, sp1, sp2 = spectra[0], spectra[1], spectra[2]
    eps = table.eps_grid
    window = max(50.0 * eps, 1e-6)
    p, q = r.p, r.q

    certs = [
        Certificate.integer_equal("mode_count_matches_closed_form",
                                  n2, n2_expected),
        Certificate.less_than("subcritical_radial_mode_below_two",
                              sp0.eigenvalues[2 * q - 1], 2.0),
        Certificate.close_to("radial_eigenvalue_two_at_l0_position_2q",
                             sp0.eigenvalues[2 * q], 2.0, window),
        Certificate.integer_equal("sin_phi_zero_count",
                                  int(sp0.zero_counts[2 * q]), 2 * q),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p_minus_1",
                             sp1.eigenvalues[2 * p - 1], 2.0, window),
        Certificate.close_to("radial_eigenvalue_two_at_l1_position_2p",
                             sp1.eigenvalues[2 * p], 2.0, window),
        Certificate.integer_equal("l1_pair_zero_count",
                                  int(sp1.zero_counts[2 * p - 1]), 2 * p),
        Certificate.less_than("l1_predecessor_below_two",
                              sp1.eigenvalues[2 * p - 2], 2.0),
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
