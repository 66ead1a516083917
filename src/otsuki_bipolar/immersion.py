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

import math
from dataclasses import dataclass

import numpy as np

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

    from scipy.spatial import cKDTree

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
_SPLITTER = 134217729.0     # 2^27 + 1


def _scales(powers):
    """10^n for each n: the nearest double, its 26-bit halves for Dekker's
    two-product, and the double nearest 10^n minus that double, from exact
    integers (None when every 10^n is a double)."""
    scale = np.array([float(10 ** n) for n in powers])
    hi = _SPLITTER * scale - (_SPLITTER * scale - scale)
    tail = np.array([float(10 ** n - int(float(10 ** n))) for n in powers])
    return scale, hi, scale - hi, tail if tail.any() else None


def _double_at_or_above_power(k: int) -> float:
    """The least double >= 10^-k: 1 / 10^k is rounded correctly, and its
    exact ratio n / d is compared with 10^-k in integers."""
    f = 1 / 10 ** k
    n, d = f.as_integer_ratio()
    return f if n * 10 ** k >= d else float(np.nextafter(f, math.inf))


# The fixed-point layout is indexed by k = e + 5 for e = floor(log10|v|) =
# -4 ... -1 and by k = 0 for an exact zero; 10^(14 - e) is an exact double
# there.  The exponent layout takes e = -30 ... -5, indexed by e + 30, with
# 10^(14 - e) as a double-double.  _EXP_FLOORS[i] is the least double
# >= 10^(i - 30), so e + 30 is the number of floors at or below |v|, less 1.
_FIXED_SCALES = _scales([19, 18, 17, 16, 15])
_EXP_SCALES = _scales(range(44, 18, -1))
_EXP_FLOORS = np.array([_double_at_or_above_power(k)
                        for k in range(30, 4, -1)])


def _words(byte_rows) -> np.ndarray:
    """Rows of 4 bytes as one uint32 each, in memory order."""
    return np.ascontiguousarray(byte_rows, np.uint8).view(np.uint32)[:, 0]


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """_QUADS and _HEAD: the words of their texts with the bytes not kept
    as NUL, then in full.  A digit is kept if it or a later one is nonzero,
    and a point with the digit after it; "D.dd" of 100 <= d < 1000 is its
    quad "0Ddd" rearranged."""
    values = np.arange(10000, dtype=np.uint16)[:, None]
    quads = (values // np.array([1000, 100, 10, 1], np.uint16) % 10
             + ord("0")).astype(np.uint8)
    kept = values % np.array([10000, 1000, 100, 10], np.uint16) > 0
    heads, heads_kept = quads[:1000, [1, 0, 2, 3]], kept[:1000, [1, 2, 2, 3]]
    heads[:, 1] = ord(".")
    return tuple(_words(np.concatenate([np.where(k, t, 0), t]))
                 for t, k in ((quads, kept), (heads, heads_kept)))


# A field is built in 24 bytes, of which it is the last 22, and every byte
# not in its text is NUL.  Bytes 0-2 are never text and byte 3 is the
# sign.  The digits of m are set by _digit_words: _QUADS[d] is the quad of
# 0 <= d < 10^4, trimmed, and _QUADS[d + 10^4] is the quad in full, for
# when a nonzero digit follows.  The fixed-point layout has _POINT[k] in
# bytes 4-7 ("0.00" with -e - 1 zeros after the point, "0" for a zero) and
# m's 15 digits in bytes 9-23, after a '0' in byte 8 that is one more zero
# after the point for e <= -2 (_ZERO8[k]).  The exponent layout has
# _HEAD[d] in bytes 4-7 ("D.dd" of m's 3 leading digits d, trimmed by the
# same rule), the other 12 digits in bytes 8-19 and "e-XX" in 20-23.
_QUADS, _HEAD = _digit_tables()
_MINUS = _words([[0, 0, 0, ord("-")]])[0]
_POINT = _words([[ord("0"), 0, 0, 0]] + [
    list(b"0.") + [ord("0") * (z >= 3), ord("0") * (z >= 2)]
    for z in (3, 2, 1, 0)])
_ZERO8 = np.array([0, ord("0"), ord("0"), ord("0"), 0], np.uint8)
_EXP_TEXT = _words([list(b"e-%02d" % -e) for e in range(-30, -4)])


def _percent_g(values) -> np.ndarray:
    """``"%.15g" % v`` of each value, as rows of _FIELD bytes, NUL-padded."""
    padded = "".join([_PADDED % v for v in np.asarray(values).tolist()])
    chars = np.frombuffer(padded.encode().replace(b" ", b"\0"), np.uint8)
    return chars.reshape(-1, _FIELD)


def _round15(a: np.ndarray, k: np.ndarray, scales) -> tuple:
    """m = a 10^(14 - e) rounded to an integer, and where that is safe.

    ``scales[...][k]`` is 10^(14 - e).  The product is formed exactly as a
    double-double by Dekker's two-product (plus the product with the
    scale's tail, if any), so m is the correct rounding except within 1e-6
    of a tie, and except when it rounds up to 10^15; both are not safe.
    """
    scale, s_hi, s_lo, tail = scales
    hi = a * scale[k]
    split = _SPLITTER * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    s_hi, s_lo = s_hi[k], s_lo[k]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    if tail is not None:
        lo += a * tail[k]
    m = np.rint(hi)
    frac = (hi - m) + lo            # hi - m is exact; |frac| < 9/16
    m += frac > 0.5
    m -= frac < -0.5
    return m, (np.abs(np.abs(frac) - 0.5) > 1e-6) & (m < 1e15)


def _digit_words(m: np.ndarray, first: np.ndarray, text: np.ndarray) -> None:
    """The 15 digits of each m into 4 words of ``text``: m's 3 leading
    digits from the ``first`` table, then three quads, trailing zeros NUL."""
    rest, d3 = np.divmod(m.astype(np.int64), 10000)
    rest, d2 = np.divmod(rest, 10000)
    d0, d1 = np.divmod(rest, 10000)
    text[:, 3] = _QUADS[d3]
    tail = d3 > 0           # a nonzero digit follows the next quad
    text[:, 2] = _QUADS[d2 + 10000 * tail]
    tail |= d2 > 0
    text[:, 1] = _QUADS[d1 + 10000 * tail]
    tail |= d1 > 0
    text[:, 0] = first[d0 + len(first) // 2 * tail]


def _write_g15(x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write ``"%.15g" % v`` of every value of ``x`` into ``chars``.

    ``chars`` has the shape of ``x`` plus a last axis of _FIELD bytes:
    each field is its text with NULs among and after it.  ``keep``, of the
    same shape, is set to the bytes that are text, unless it is None.
    Values are printed here in three layouts: an exact zero as [-]0; with
    e = floor(log10|v|), 1e-4 <= |v| < 1 as [-]0., -e-1 zeros and the
    digits of the 15-digit integer m = |v| 10^(14 - e) rounded (see
    ``_round15``); and 1e-30 <= |v| < 1e-4 as [-]d.ddd...e-XX from the
    digits of m.  Trailing zeros of m are dropped, with the point if
    nothing follows it.  Every other value and every unsafe rounding go
    through ``"%.15g"``.
    """
    v = x.ravel()
    a = np.abs(v)
    # The double nearest 10^-k lies above it (k = 1 ... 4), so these
    # comparisons against the literals are exact.
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.0)
    k = fast.astype(np.intp) + (a >= 1e-3) + (a >= 1e-2) + (a >= 1e-1)
    m, safe = _round15(a, k, _FIXED_SCALES)
    fast &= safe

    words = np.empty((v.size, 6), np.uint32)
    words[:, 0] = np.where(np.signbit(v), _MINUS, 0)
    words[:, 1] = _POINT[k]
    _digit_words(m, _QUADS, words[:, 2:])
    text = words.view(np.uint8)
    text[:, 8] = _ZERO8[k]

    rest = np.flatnonzero(~fast)
    a = np.abs(v[rest])
    slow = a != 0.0             # the zeros are done
    tiny = np.flatnonzero((a >= _EXP_FLOORS[0]) & (a < 1e-4))
    i = np.searchsorted(_EXP_FLOORS, a[tiny], side="right") - 1
    m, safe = _round15(a[tiny], i, _EXP_SCALES)
    tiny, i, m = tiny[safe], i[safe], m[safe]
    tiny_words = np.empty((tiny.size, 5), np.uint32)
    _digit_words(m, _HEAD, tiny_words)
    tiny_words[:, 4] = _EXP_TEXT[i]
    words[rest[tiny], 1:] = tiny_words
    slow[tiny] = False
    slow = rest[slow]
    text[slow, 2:] = _percent_g(v[slow])
    chars[...] = text[:, 2:].reshape(chars.shape)
    if keep is not None:
        np.not_equal(chars, 0, out=keep)


def export_mesh(profile: GeodesicProfile, n_alpha: int, n_t: int,
                fmt: str, path: str) -> SurfaceMesh:
    """Write a vertex grid to ``path`` as CSV or OBJ.

    CSV is the fidelity format (header alpha,t,x,y,z,u,v, one vertex per
    row).  OBJ projects orthogonally to the three coordinate axes of
    largest variance, which is lossy by construction.  Every value is
    written as ``"%.15g" % value`` would write it, byte for byte.  The
    text is assembled in blocks of at most ``_BLOCK_VERTICES`` vertices:
    whole alpha rows while n_t fits, else one row cut into t-chunks.  Each
    distinct value is formatted once: the grid axes and v = sin(phi),
    which depends on t alone, once per grid value, and the other vertex
    values by ``_write_g15`` block by block.
    """
    mesh = build_mesh(profile, n_alpha, n_t)
    axes = np.arange(5)
    if fmt == "csv":
        header = ",".join(_CSV_COLUMNS) + "\n"
        sep, n_lead = ",", 2
    elif fmt == "obj":
        variances = np.var(mesh.vertices, axis=0)
        axes = np.sort(np.argsort(variances)[-3:])
        header = f"# bipolar surface mesh, axes kept: {axes.tolist()}\n"
        sep, n_lead = " ", 1
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (use csv or obj)")
    values = mesh.vertices.reshape(n_alpha, n_t, 5)
    # One line is n_fields slots of a _FIELD-byte text and its separator:
    # alpha and t (CSV) or "v" (OBJ), the alpha-dependent axes, then v if
    # kept.  A slot's bytes past its text are NUL, and NULs are dropped on
    # writing.  The t-only fields are placed per t, the rest block by block.
    n_fields = n_lead + len(axes)
    alpha_axes = axes[axes != 4]
    per_t = []
    if fmt == "csv":
        per_t.append((1, _percent_g(mesh.ts)))
    if len(alpha_axes) < len(axes):
        v_text = np.empty((n_t, _FIELD), np.uint8)
        _write_g15(values[0, :, 4], v_text, None)
        per_t.append((n_fields - 1, v_text))
    alpha_fields = slice(n_lead, n_lead + len(alpha_axes))
    rows, cols = max(1, _BLOCK_VERTICES // n_t), min(n_t, _BLOCK_VERTICES)
    text = np.zeros((rows, cols, n_fields, _FIELD + 1), np.uint8)
    text[..., _FIELD] = ord(sep)
    text[..., -1, _FIELD] = ord("\n")
    if fmt == "csv":
        alpha_text = _percent_g(mesh.alphas)
    else:
        text[..., 0, 0] = ord("v")
    for f, t_text in per_t:
        text[..., f, :_FIELD] = t_text[:cols]
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for i in range(0, n_alpha, rows):
            for j in range(0, n_t, cols):
                block = values[i:i + rows, j:j + cols, alpha_axes]
                r, c = block.shape[:2]
                if fmt == "csv":
                    text[:r, :c, 0, :_FIELD] = alpha_text[i:i + r, None]
                if cols < n_t:      # one row per block: its own t-chunk
                    for f, t_text in per_t:
                        text[0, :c, f, :_FIELD] = t_text[j:j + c]
                _write_g15(block, text[:r, :c, alpha_fields, :_FIELD], None)
                fh.write(text[:r, :c].tobytes().translate(None, b"\0"))
    return mesh


def read_mesh_csv(path: str) -> np.ndarray:
    """Vertices of a CSV mesh written by ``export_mesh``, shape (n, 7).

    Raises ValueError on a header other than ``export_mesh``'s, and on a
    body whose rows are not all 7 fields wide."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != _CSV_COLUMNS:
            raise ValueError(f"unexpected mesh header {header!r}")
        lines = fh.readlines()
    if not lines:
        return np.empty((0, len(_CSV_COLUMNS)))
    rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    if rows.shape[1] != len(_CSV_COLUMNS):
        raise ValueError(f"mesh rows have {rows.shape[1]} fields,"
                         f" not {len(_CSV_COLUMNS)}")
    return rows
