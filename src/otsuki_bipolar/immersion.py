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
geodesic.  ``verify_bipolar_correspondence`` samples both on one grid
of the torus chart, which carries the time change between the two
natural parameters, checks the pointwise transfer identities, and
compares the two sampled images as point sets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geodesic import GeodesicProfile, OtsukiSolution

_TWO_PI = 2.0 * math.pi
_CSV_COLUMNS = ["alpha", "t", "x", "y", "z", "u", "v"]


def immerse_otsuki(profile: GeodesicProfile, alpha, s) -> np.ndarray:
    """Point of the torus in S^3 at orbit angle alpha, geodesic parameter s.

    nu and lambda are evaluated on s as given and broadcast against
    alpha afterwards, as in ``immerse_bipolar``.
    """
    nu, lam = profile.torus_at(np.asarray(s, float))[:2]
    sn, cn = np.sin(nu), np.cos(nu)
    return np.stack(np.broadcast_arrays(
        np.cos(alpha) * sn,
        np.sin(alpha) * sn,
        cn * np.cos(lam),
        cn * np.sin(lam),
    ), axis=-1)


def bipolar_wedge(profile: GeodesicProfile, alpha, s) -> np.ndarray:
    """Exterior product of the torus immersion with its unit normal.

    A unit vector of R^6 whose first coordinate vanishes identically;
    its last coordinate 2 pi nu' sin(nu) cos(nu) vanishes exactly at the
    turning points of nu.  The geodesic is evaluated on s as given and
    broadcast against alpha afterwards.
    """
    return _wedge(alpha, *profile.torus_at(np.asarray(s, float)))


def _wedge(alpha, nu, lam, nu_dot, lam_dot) -> np.ndarray:
    sn, cn = np.sin(nu), np.cos(nu)
    sl, cl = np.sin(lam), np.cos(lam)
    a_comp = lam_dot * cl * cn - nu_dot * sl * sn
    b_comp = lam_dot * sl * cn + nu_dot * cl * sn
    pref = _TWO_PI * sn
    return np.stack(np.broadcast_arrays(
        np.zeros_like(pref),
        pref * np.cos(alpha) * a_comp,
        pref * np.cos(alpha) * b_comp,
        pref * np.sin(alpha) * a_comp,
        pref * np.sin(alpha) * b_comp,
        pref * nu_dot * cn,
    ), axis=-1)


def immerse_bipolar(profile: GeodesicProfile, alpha, t) -> np.ndarray:
    """Point of the bipolar surface in S^4 at orbit angle alpha, parameter t.

    The phase convention has theta(0) = 0 at the turning point
    phi(0) = b.  phi and theta depend on t alone, so they are evaluated
    on t as given and broadcast against alpha afterwards: a row of t
    under a column of alpha costs one evaluation per t.
    """
    return _bipolar_point(alpha, *profile.bipolar_at(np.asarray(t, float))[:2])


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
    period_closure_error: float     # |s(t_start + t0) - s_total|
    theta_offset: float
    tolerance: float
    passed: bool


def verify_bipolar_correspondence(sol: OtsukiSolution, tol: float = 1e-6,
                                  profile: GeodesicProfile | None = None,
                                  n_alpha: int = 32,
                                  samples_per_half: int = 12) -> CorrespondenceReport:
    """Check that the wedge and the direct chart trace the same surface.

    Both are sampled on ``samples_per_half`` steps of chi per
    half-oscillation of the torus chart, at t = t_start + t(chi) from
    its third integral, anchored at the ascending zero of phi,
    t_start = -t_half/2, where chi = 0 and nu = a.  Only t is inverted,
    once; the wedge takes nu, lambda and their velocities at chi.  The
    wedge runs the swept angle backward (it crosses phi = 0 upward at
    swept angle pi/2, decreasing), so the direct chart is aligned by
    theta -> (pi/2 - xi/2) - theta.
    The alpha = 0 row gives the transfer residual sin(phi) - 2 pi nu'
    cos(nu) sin(nu) and the angle residuals of cos(phi) sin(theta) and
    cos(phi) cos(theta); the whole grid gives the point-set
    (nearest-neighbour Hausdorff) distance.  The closure takes one Newton
    step in t from chi = 2 q pi.
    """
    prof = profile if profile is not None else GeodesicProfile(sol)
    chart = prof.torus_chart
    t_start = -0.5 * prof.t_half
    chi = np.arange(2 * sol.rotation.q * samples_per_half) * (
        math.pi / samples_per_half)
    ts = t_start + chart.integral(chi, 2)
    chi_end = 2 * sol.rotation.q * math.pi
    chi_end -= (chart.integral(chi_end, 2) - prof.t0) / chart.rates(chi_end)[2]
    closure = abs(float(chart.u(chi_end)) - prof.s_total)

    theta_offset = 0.5 * math.pi - 0.5 * prof.xi_half
    alphas = np.linspace(0.0, _TWO_PI, n_alpha, endpoint=False)[:, None]
    phi, theta = prof.bipolar_at(ts)[:2]
    direct = _bipolar_point(alphas, phi, theta_offset - theta)
    # wedge coordinates 2..6 are (x, z, y, u, v) of the direct chart
    wedge = _wedge(alphas, *chart.at(chi))[..., [1, 3, 2, 4, 5]]
    gap = np.abs(direct[0] - wedge[0])
    transfer_residual = float(np.max(gap[:, 4]))
    angle_residual = float(np.max(gap[:, [0, 2]]))

    cloud_a = direct.reshape(-1, 5)
    cloud_b = wedge.reshape(-1, 5)
    d_ab = np.max(cKDTree(cloud_b).query(cloud_a)[0])
    d_ba = np.max(cKDTree(cloud_a).query(cloud_b)[0])
    hausdorff = float(max(d_ab, d_ba))

    worst = max(transfer_residual, angle_residual, hausdorff)
    return CorrespondenceReport(
        rotation=str(sol.rotation),
        transfer_residual=transfer_residual,
        angle_residual=angle_residual,
        hausdorff_distance=hausdorff,
        period_closure_error=closure,
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
    verts = immerse_bipolar(profile, alphas[:, None], ts).reshape(-1, 5)
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
