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


# Mesh text.  A "%.15g" field is at most 22 bytes (-1.23456789012345e-308).
_FIELD = 22
# Vertices per block: the text buffers stay ~2 MB at any n_t.
_BLOCK_VERTICES = 6144
_PADDED = f"%-{_FIELD}.15g"
# 10^(14 - e) for e = floor(log10|x|) = -4 ... -1: exact doubles, split in
# 26-bit halves for Dekker's two-product.
_SPLITTER = 134217729.0     # 2^27 + 1
_SCALE = np.array([1e18, 1e17, 1e16, 1e15])
_SCALE_HI = _SPLITTER * _SCALE - (_SPLITTER * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI


def _words(byte_rows) -> np.ndarray:
    """Rows of 4 bytes as one uint32 each, in memory order."""
    return np.ascontiguousarray(byte_rows, np.uint8).view(np.uint32)[:, 0]


# The text of 0 ... 9999 as 4 digits, and the keep-mask of each without its
# trailing zeros (none kept for 0): a digit is kept if it or a later one is
# nonzero.
_QUAD_VALUES = np.arange(10000, dtype=np.uint16)[:, None]
_QUADS = _words(_QUAD_VALUES // np.array([1000, 100, 10, 1], np.uint16) % 10
                + ord("0"))
_QUAD_TRIM = _words(
    _QUAD_VALUES % np.array([10000, 1000, 100, 10], np.uint16) != 0)
_QUAD_ALL = _words([[1, 1, 1, 1]])[0]
# A fast-path field is built in 24 bytes: bytes 0-2 are never kept, 3 is
# '-', 4-7 are "0.00", and 8-23 are m's 15 digits as four quads, the first
# of them '0' and m's 3 leading digits.  So bytes 6, 7 and 8 are the zeros
# after the point: _ZEROS_KEEP[z] keeps "0." and bytes 6 and 7 for z zeros,
# and byte 8 is kept when z >= 1.  The field is its last 22 bytes.
_LEAD = _words([[0, 0, 0, ord("-")], list(b"0.00")])
_ZEROS_KEEP = _words([[1, 1, z >= 3, z >= 2] for z in range(4)])


def _percent_g(values) -> tuple[np.ndarray, np.ndarray]:
    """``"%.15g" % v`` of each value, as rows of _FIELD bytes and a keep-mask."""
    padded = "".join([_PADDED % v for v in np.asarray(values).tolist()])
    chars = np.frombuffer(padded.encode(), np.uint8).reshape(-1, _FIELD)
    return chars, chars != ord(" ")


def _write_g15(x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write ``"%.15g" % v`` of every value of ``x`` into ``chars``.

    ``chars`` and ``keep`` have the shape of ``x`` plus a last axis of
    _FIELD bytes; the kept bytes of each field are its text.  A value with
    1e-4 <= |v| < 1 is printed here: with e = floor(log10|v|), the product
    |v| 10^(14 - e) is formed exactly as a double-double and rounded to
    the 15-digit integer m, and the text is [-]0., -e-1 zeros and the
    digits of m without trailing zeros.  Every other value, a product
    within 1e-6 of a rounding tie and one that rounds up to 10^15 go
    through ``"%.15g"`` itself.
    """
    v = x.ravel()
    a = np.abs(v)
    # The double nearest 10^-k lies above it (k = 1 ... 4), so these
    # comparisons against the literals are exact.
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    e4 = (a >= 1e-3).astype(np.intp) + (a >= 1e-2) + (a >= 1e-1)  # e + 4
    hi = a * _SCALE[e4]
    split = _SPLITTER * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    s_hi, s_lo = _SCALE_HI[e4], _SCALE_LO[e4]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    m = np.rint(hi)
    frac = (hi - m) + lo            # hi - m is exact; |frac| < 9/16
    m += frac > 0.5
    m -= frac < -0.5
    fast &= (np.abs(np.abs(frac) - 0.5) > 1e-6) & (m < 1e15)

    rest, d3 = np.divmod(m.astype(np.int64), 10000)
    rest, d2 = np.divmod(rest, 10000)
    d0, d1 = np.divmod(rest, 10000)
    text = np.empty((v.size, 6), np.uint32)
    mask = np.empty_like(text)
    text[:, :2] = _LEAD
    text[:, 2], text[:, 3], text[:, 4], text[:, 5] = (
        _QUADS[d0], _QUADS[d1], _QUADS[d2], _QUADS[d3])
    mask[:, 0] = 0
    mask[:, 1] = _ZEROS_KEEP[3 - e4]
    tail = d3 > 0           # a nonzero digit follows the next quad
    mask[:, 5] = _QUAD_TRIM[d3]
    mask[:, 4] = np.where(tail, _QUAD_ALL, _QUAD_TRIM[d2])
    tail |= d2 > 0
    mask[:, 3] = np.where(tail, _QUAD_ALL, _QUAD_TRIM[d1])
    tail |= d1 > 0
    mask[:, 2] = np.where(tail, _QUAD_ALL, _QUAD_TRIM[d0])
    text, mask = text.view(np.uint8), mask.view(np.bool_)
    mask[:, 3] = v < 0.0
    mask[:, 8] = e4 < 3

    slow = np.flatnonzero(~fast)
    text[slow, 2:], mask[slow, 2:] = _percent_g(v[slow])
    chars[...] = text[:, 2:].reshape(chars.shape)
    keep[...] = mask[:, 2:].reshape(keep.shape)


def export_mesh(profile: GeodesicProfile, n_alpha: int, n_t: int,
                fmt: str, path: str) -> SurfaceMesh:
    """Write a vertex grid to ``path`` as CSV or OBJ.

    CSV is the fidelity format (header alpha,t,x,y,z,u,v, one vertex per
    row).  OBJ projects orthogonally to the three coordinate axes of
    largest variance, which is lossy by construction.  Every value is
    written as ``"%.15g" % value`` would write it, byte for byte.  The
    text is assembled in blocks of at most ``_BLOCK_VERTICES`` vertices:
    whole alpha rows while n_t fits, else one row cut into t-chunks.  The
    grid axes are formatted once per distinct value, and the vertex values
    by ``_write_g15``, which formats those in [1e-4, 1) in numpy and hands
    the rest to ``"%.15g"``.
    """
    mesh = build_mesh(profile, n_alpha, n_t)
    values = mesh.vertices.reshape(n_alpha, n_t, 5)
    if fmt == "csv":
        header = ",".join(_CSV_COLUMNS) + "\n"
        sep, n_lead = ",", 2
    elif fmt == "obj":
        variances = np.var(mesh.vertices, axis=0)
        keep = np.sort(np.argsort(variances)[-3:])
        header = f"# bipolar surface mesh, axes kept: {keep.tolist()}\n"
        values = values[..., keep]
        sep, n_lead = " ", 1
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (use csv or obj)")
    # One line is n_fields slots of a _FIELD-byte text and its separator:
    # alpha and t (CSV) or "v" (OBJ), then the vertex values.
    n_fields = n_lead + values.shape[-1]
    rows, cols = max(1, _BLOCK_VERTICES // n_t), min(n_t, _BLOCK_VERTICES)
    text = np.zeros((rows, cols, n_fields, _FIELD + 1), np.uint8)
    kept = np.zeros(text.shape, bool)
    text[..., _FIELD] = ord(sep)
    text[..., -1, _FIELD] = ord("\n")
    kept[..., _FIELD] = True
    if fmt == "csv":
        alpha_text, alpha_kept = _percent_g(mesh.alphas)
        t_text, t_kept = _percent_g(mesh.ts)
        text[..., 1, :_FIELD], kept[..., 1, :_FIELD] = t_text[:cols], t_kept[:cols]
    else:
        text[..., 0, 0], kept[..., 0, 0] = ord("v"), True
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for i in range(0, n_alpha, rows):
            for j in range(0, n_t, cols):
                block = values[i:i + rows, j:j + cols]
                r, c = block.shape[:2]
                if fmt == "csv":
                    text[:r, :c, 0, :_FIELD] = alpha_text[i:i + r, None]
                    kept[:r, :c, 0, :_FIELD] = alpha_kept[i:i + r, None]
                    if cols < n_t:      # one row per block: its own t-chunk
                        text[0, :c, 1, :_FIELD] = t_text[j:j + c]
                        kept[0, :c, 1, :_FIELD] = t_kept[j:j + c]
                _write_g15(block, text[:r, :c, n_lead:, :_FIELD],
                           kept[:r, :c, n_lead:, :_FIELD])
                fh.write(text[:r, :c][kept[:r, :c]])
    return mesh


def read_mesh_csv(path: str) -> np.ndarray:
    """Vertices of a CSV mesh written by ``export_mesh``, shape (n, 7)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _CSV_COLUMNS:
            raise ValueError(f"unexpected mesh header {header!r}")
        return np.array([[float(x) for x in row] for row in reader])
