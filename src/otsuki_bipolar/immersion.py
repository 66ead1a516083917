"""Explicit immersions of the torus, its bipolar surface, and mesh export.

Three parametrized maps share one geodesic profile:

  * ``immerse_otsuki``: the torus in the 3-sphere,
    (cos(a)sin(nu), sin(a)sin(nu), cos(nu)cos(lam), cos(nu)sin(lam));

  * ``bipolar_wedge``: the exterior product of the torus immersion and
    its unit normal, landing in the equator 4-sphere of the 5-sphere
    (first coordinate identically zero);

  * ``immerse_bipolar``: the direct 5-coordinate chart
    (cos(a)cos(phi)sin(th), sin(a)cos(phi)sin(th),
     cos(a)cos(phi)cos(th), sin(a)cos(phi)cos(th), sin(phi)).

The wedge and the direct chart trace the same surface; matching their
coordinates shows the wedge's five nonzero coordinates are (x, z, y, u, v)
of the direct chart evaluated on a reparametrized and phase-rotated
geodesic.  ``verify_bipolar_correspondence`` integrates the time-change
ODE between the two natural parameters, checks the pointwise transfer
identities, and compares the two sampled images as point sets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

from .errors import IntegrationFailure
from .geodesic import GeodesicProfile, OtsukiSolution

_TWO_PI = 2.0 * math.pi
_CSV_COLUMNS = ["alpha", "t", "x", "y", "z", "u", "v"]


def immerse_otsuki(profile: GeodesicProfile, alpha, s) -> np.ndarray:
    """Point of the torus in S^3 at orbit angle alpha, geodesic parameter s."""
    alpha, s = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(s, float))
    nu = profile.nu_at(s)
    lam = profile.lambda_at(s)
    return np.stack([
        np.cos(alpha) * np.sin(nu),
        np.sin(alpha) * np.sin(nu),
        np.cos(nu) * np.cos(lam),
        np.cos(nu) * np.sin(lam),
    ], axis=-1)


def bipolar_wedge(profile: GeodesicProfile, alpha, s) -> np.ndarray:
    """Exterior product of the torus immersion with its unit normal.

    A unit vector of R^6 whose first coordinate vanishes identically;
    its last coordinate 2 pi nu' sin(nu) cos(nu) vanishes exactly at the
    turning points of nu.
    """
    alpha, s = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(s, float))
    nu = profile.nu_at(s)
    lam = profile.lambda_at(s)
    nu_dot = profile.nu_dot_at(s)
    lam_dot = profile.lambda_dot_at(s)
    sn, cn = np.sin(nu), np.cos(nu)
    sl, cl = np.sin(lam), np.cos(lam)
    a_comp = lam_dot * cl * cn - nu_dot * sl * sn
    b_comp = lam_dot * sl * cn + nu_dot * cl * sn
    pref = _TWO_PI * sn
    return np.stack([
        np.zeros_like(pref),
        pref * np.cos(alpha) * a_comp,
        pref * np.cos(alpha) * b_comp,
        pref * np.sin(alpha) * a_comp,
        pref * np.sin(alpha) * b_comp,
        pref * nu_dot * cn,
    ], axis=-1)


def immerse_bipolar(profile: GeodesicProfile, alpha, t) -> np.ndarray:
    """Point of the bipolar surface in S^4 at orbit angle alpha, parameter t.

    The phase convention has theta(0) = 0 at the turning point
    phi(0) = b.
    """
    alpha, t = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(t, float))
    phi = profile.phi_at(t)
    theta = profile.theta_at(t)
    return _bipolar_point(alpha, phi, theta)


def _bipolar_point(alpha, phi, theta) -> np.ndarray:
    cp = np.cos(phi)
    return np.stack(np.broadcast_arrays(
        np.cos(alpha) * cp * np.sin(theta),
        np.sin(alpha) * cp * np.sin(theta),
        np.cos(alpha) * cp * np.cos(theta),
        np.sin(alpha) * cp * np.cos(theta),
        np.sin(phi),
    ), axis=-1)


@dataclass(frozen=True)
class InducedMetric:
    """First fundamental form of the bipolar immersion.

    Diagonal in the (alpha, t) chart with constant determinant
    1/(4 pi^2) (the t-direction is unit speed in the conformal factor).
    """

    profile: GeodesicProfile

    def g_alpha_alpha(self, t):
        return self.profile.cos2_phi_at(t)

    def g_tt(self, t):
        return 1.0 / (4.0 * math.pi ** 2 * self.profile.cos2_phi_at(t))

    @property
    def det(self) -> float:
        return 1.0 / (4.0 * math.pi ** 2)


def induced_metric(profile: GeodesicProfile) -> InducedMetric:
    return InducedMetric(profile)


def area(sol: OtsukiSolution) -> float:
    """Area of the immersed bipolar surface.

    The (alpha, t) chart has area element dt dalpha / (2 pi) over
    [0, 2 pi) x [0, t0), giving t0; for even q the chart double-covers
    the surface through (alpha, t) -> (alpha + pi, t + t0/2), so the
    area is t0/2.
    """
    return sol.t0 / 2.0 if sol.rotation.even_q else sol.t0


@dataclass(frozen=True)
class CorrespondenceReport:
    """Residuals of the wedge <-> direct-chart identification."""

    rotation: str
    transfer_residual: float        # sin(phi) = 2 pi nu' cos(nu) sin(nu)
    angle_residual: float           # the two theta-transfer identities
    hausdorff_distance: float       # image-vs-image point-set distance
    period_closure_error: float     # time-change ODE over one full period
    theta_offset: float
    tolerance: float
    passed: bool


def verify_bipolar_correspondence(sol: OtsukiSolution, tol: float = 1e-6,
                                  profile: GeodesicProfile | None = None,
                                  n_alpha: int = 32,
                                  samples_per_half: int = 12) -> CorrespondenceReport:
    """Check that the wedge and the direct chart trace the same surface.

    Integrates the time change tau(t) between the two natural
    parameters,

        dtau/dt = sin^4(nu(tau)) / (sin^4(nu(tau)) + c^2),

    anchored at the ascending zero of phi (tau = 0, where nu = a), then
    evaluates the pointwise transfer identities and the point-set
    (nearest-neighbour Hausdorff) distance between the two sampled
    images.  The wedge traces the generating geodesic with the swept
    angle running backward (it crosses phi = 0 upward at swept angle
    pi/2, decreasing), so the direct chart is aligned through the rigid
    motion theta -> (pi/2 - xi/2) - theta before comparison.
    """
    from .geodesic import profile as build_profile

    prof = profile if profile is not None else build_profile(sol)
    q = sol.rotation.q
    c2 = sol.c ** 2
    t_half = prof.t_half
    s_total = prof.s_total

    def rhs(_, tau):
        # Differentiating the transfer identity sin(phi(t)) =
        # 2 pi nu' cos(nu) sin(nu) and eliminating phi through
        # cos^2(phi) = (sin^4(nu) + c^2)/sin^2(nu) gives this time
        # change on every branch.
        nu = prof.nu_at(np.mod(tau, s_total))
        s4 = np.sin(nu) ** 4
        return s4 / (s4 + c2)

    t_start = -0.5 * t_half          # phi = 0 ascending, maps to tau = 0
    t_end = t_start + prof.t0
    result = solve_ivp(rhs, (t_start, t_end), [0.0], method="DOP853",
                       rtol=1e-11, atol=1e-12, dense_output=True)
    if not result.success:
        raise IntegrationFailure(result.message)
    closure = abs(result.y[0, -1] - s_total)

    # Direct chart crosses phi = 0 upward at theta = -xi/2 increasing;
    # the wedge crosses it at swept angle pi/2 decreasing.
    theta_offset = 0.5 * math.pi - 0.5 * prof.xi_half

    ts = np.linspace(t_start, t_end, 2 * q * samples_per_half, endpoint=False)
    taus = result.sol(ts)[0]

    phi = prof.phi_at(ts)
    nu = prof.nu_at(np.mod(taus, s_total))
    nu_dot = prof.nu_dot_at(np.mod(taus, s_total))
    lam = prof.lambda_at(np.mod(taus, s_total))
    lam_dot = prof.lambda_dot_at(np.mod(taus, s_total))
    transfer = np.sin(phi) - _TWO_PI * nu_dot * np.cos(nu) * np.sin(nu)
    transfer_residual = float(np.max(np.abs(transfer)))

    theta = theta_offset - prof.theta_at(ts)
    cp = np.cos(phi)
    sn, cn = np.sin(nu), np.cos(nu)
    sl, cl = np.sin(lam), np.cos(lam)
    a_comp = _TWO_PI * sn * (lam_dot * cl * cn - nu_dot * sl * sn)
    b_comp = _TWO_PI * sn * (lam_dot * sl * cn + nu_dot * cl * sn)
    angle_residual = float(max(np.max(np.abs(cp * np.sin(theta) - a_comp)),
                               np.max(np.abs(cp * np.cos(theta) - b_comp))))

    alphas = np.linspace(0.0, _TWO_PI, n_alpha, endpoint=False)
    aa, tt = np.meshgrid(alphas, ts, indexing="ij")
    _, uu = np.meshgrid(alphas, taus, indexing="ij")
    direct = _bipolar_point(aa, prof.phi_at(tt), theta_offset - prof.theta_at(tt))
    wedge = bipolar_wedge(prof, aa, np.mod(uu, s_total))
    # wedge coordinates 2..6 are (x, z, y, u, v) of the direct chart
    wedge_xyzuv = wedge[..., [1, 3, 2, 4, 5]]
    cloud_a = direct.reshape(-1, 5)
    cloud_b = wedge_xyzuv.reshape(-1, 5)
    d_ab = np.max(cKDTree(cloud_b).query(cloud_a)[0])
    d_ba = np.max(cKDTree(cloud_a).query(cloud_b)[0])
    hausdorff = float(max(d_ab, d_ba))

    worst = max(transfer_residual, angle_residual, hausdorff)
    return CorrespondenceReport(
        rotation=str(sol.rotation),
        transfer_residual=transfer_residual,
        angle_residual=angle_residual,
        hausdorff_distance=hausdorff,
        period_closure_error=float(closure),
        theta_offset=theta_offset,
        tolerance=float(tol),
        passed=bool(worst < tol),
    )


@dataclass(frozen=True)
class SurfaceMesh:
    """Vertex grid of the bipolar immersion, row-major in (alpha, t)."""

    n_alpha: int
    n_t: int
    alphas: np.ndarray      # (n_alpha,)
    ts: np.ndarray          # (n_t,)
    vertices: np.ndarray    # (n_alpha * n_t, 5), row = i_alpha * n_t + i_t


def build_mesh(profile: GeodesicProfile, n_alpha: int, n_t: int) -> SurfaceMesh:
    if n_alpha < 8 or n_t < 8:
        raise ValueError("mesh resolutions must be at least 8")
    alphas = np.linspace(0.0, _TWO_PI, n_alpha, endpoint=False)
    ts = np.linspace(0.0, profile.t0, n_t, endpoint=False)
    # phi and theta depend on t alone: evaluate them once per t and
    # broadcast over the alpha rows.
    verts = _bipolar_point(alphas[:, None], profile.phi_at(ts),
                           profile.theta_at(ts)).reshape(-1, 5)
    return SurfaceMesh(n_alpha=n_alpha, n_t=n_t, alphas=alphas, ts=ts,
                       vertices=verts)


def export_mesh(profile: GeodesicProfile, n_alpha: int, n_t: int,
                fmt: str, path: str) -> SurfaceMesh:
    """Write a vertex grid to ``path`` as CSV or OBJ.

    CSV is the fidelity format (header alpha,t,x,y,z,u,v, one vertex per
    row).  OBJ projects orthogonally to the three coordinate axes of
    largest variance, which is lossy by construction.
    """
    mesh = build_mesh(profile, n_alpha, n_t)
    rows = mesh.vertices.reshape(n_alpha, n_t, 5)
    if fmt == "csv":
        header = ",".join(_CSV_COLUMNS) + "\n"
        line = ",".join(["%.15g"] * len(_CSV_COLUMNS)) + "\n"
        blocks = (np.column_stack((np.full(n_t, alpha), mesh.ts, verts))
                  for alpha, verts in zip(mesh.alphas, rows))
    elif fmt == "obj":
        variances = np.var(mesh.vertices, axis=0)
        keep = np.sort(np.argsort(variances)[-3:])
        header = f"# bipolar surface mesh, axes kept: {keep.tolist()}\n"
        line = "v %.15g %.15g %.15g\n"
        blocks = (verts[:, keep] for verts in rows)
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (use csv or obj)")
    # One %-format per alpha row of the grid; "%.15g" on a float gives the
    # same text as f"{x:.15g}".
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for block in blocks:
            fh.write(line * n_t % tuple(block.ravel().tolist()))
    return mesh


def read_mesh_csv(path: str) -> np.ndarray:
    """Vertices of a CSV mesh written by ``export_mesh``, shape (n, 7)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _CSV_COLUMNS:
            raise ValueError(f"unexpected mesh header {header!r}")
        return np.array([[float(x) for x in row] for row in reader])
