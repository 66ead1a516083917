"""Immersions, the wedge identification, induced metric, and mesh export."""

import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsuki_bipolar import geodesic, immersion
from otsuki_bipolar.geodesic import (
    GeodesicProfile,
    RotationNumber,
    _HalfChart,
    solve_rotation,
)
from otsuki_bipolar.immersion import (
    _FIELD,
    _write_g15,
    area,
    bipolar_wedge,
    build_mesh,
    export_mesh,
    immerse_bipolar,
    immerse_otsuki,
    induced_metric,
    read_mesh_csv,
    verify_bipolar_correspondence,
)
from otsuki_bipolar.sturm import count_sign_changes

RNG = np.random.default_rng(7)


def random_params(sol, n=256):
    return (RNG.uniform(0, 2 * math.pi, n),
            RNG.uniform(0, sol.s_total, n),
            RNG.uniform(0, sol.t0, n))


def test_otsuki_immersion_points(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    start = immerse_otsuki(prof, 0.0, 0.0)
    assert start == pytest.approx(
        [math.sin(sol.a), 0.0, math.cos(sol.a), 0.0], abs=1e-12)

    alphas, ss, _ = random_params(sol)
    pts = immerse_otsuki(prof, alphas, ss)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-10

    flipped = immerse_otsuki(prof, alphas + math.pi, ss)
    assert np.allclose(flipped[..., :2], -pts[..., :2], atol=1e-12)
    assert np.allclose(flipped[..., 2:], pts[..., 2:], atol=1e-12)


def test_wedge_unit_norm_and_equator(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    alphas, ss, _ = random_params(sol)
    w = bipolar_wedge(prof, alphas, ss)
    assert np.max(np.abs(w[..., 0])) == 0.0
    assert np.max(np.abs(np.linalg.norm(w, axis=-1) - 1.0)) < 1e-8


def test_wedge_last_coordinate_vanishes_at_turning_points(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    q = 5
    s_turn = np.arange(2 * q) * prof.s_half
    w = bipolar_wedge(prof, 0.3, s_turn)
    # sqrt of the turning-point defect amplifies roundoff to ~1e-8
    assert np.max(np.abs(w[..., 5])) < 1e-7
    # and nowhere else: sample midpoints
    w_mid = bipolar_wedge(prof, 0.3, s_turn + 0.5 * prof.s_half)
    assert np.min(np.abs(w_mid[..., 5])) > 1e-3


def test_bipolar_immersion_points(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    start = immerse_bipolar(prof, 0.0, 0.0)
    assert start == pytest.approx(
        [0.0, 0.0, math.cos(sol.b), 0.0, math.sin(sol.b)], abs=1e-12)

    alphas, _, ts = random_params(sol)
    pts = immerse_bipolar(prof, alphas, ts)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-10

    # the last coordinate is sin(phi), with 2q sign changes per period
    grid = prof.t_grid
    v = immerse_bipolar(prof, 0.0, grid)[..., 4]
    assert count_sign_changes(v) == 2 * 5


def test_induced_metric_against_finite_differences(cases):
    prof = cases.profile((3, 5))
    met = induced_metric(prof)
    assert met.det == pytest.approx(1.0 / (4 * math.pi ** 2), rel=1e-15)
    d = 1e-5
    for t in np.linspace(0.05, prof.t0 - 0.05, 40):
        ja = (immerse_bipolar(prof, d, t) - immerse_bipolar(prof, -d, t)) / (2 * d)
        jt = (immerse_bipolar(prof, 0.0, t + d)
              - immerse_bipolar(prof, 0.0, t - d)) / (2 * d)
        assert float(ja @ ja) == pytest.approx(met.g_alpha_alpha(t), abs=1e-4)
        assert float(jt @ jt) == pytest.approx(met.g_tt(t), abs=1e-4)
        assert abs(float(ja @ jt)) < 1e-8


def test_area(cases):
    sol_odd = cases.solution((3, 5))
    assert area(sol_odd) == pytest.approx(sol_odd.t0)
    sol_even = cases.solution((5, 8))
    assert area(sol_even) == pytest.approx(sol_even.t0 / 2.0)


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (26, 51)])
def test_bipolar_correspondence(pq, cases):
    """The time change from the torus chart is exact to rounding, so
    every residual and the closure over one period sit near 1e-14 at 3/5
    and 5/8.  At 26/51 (a ~ 0.0055) the residuals stay below 1e-10,
    because the wedge takes nu and lambda at the chart's own chi and no
    inversion of s loses digits near the turning points."""
    tol = 1e-10 if pq == (26, 51) else 1e-12
    rep = verify_bipolar_correspondence(cases.solution(pq), 1e-6,
                                        profile=cases.profile(pq))
    assert rep.passed
    assert rep.transfer_residual <= tol
    assert rep.angle_residual <= tol
    assert rep.hausdorff_distance <= tol
    assert rep.period_closure_error <= 1e-12


@pytest.mark.sweep
@pytest.mark.parametrize("pq, tol, closure", [
    ((p, q), 1e-10, 1e-12) for q in range(3, 41) for p in range(1, q)
    if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q] + [
    ((51, 101), 1e-10, 1e-12), ((101, 201), 2e-9, 5e-12),
    ((201, 401), 2e-9, 5e-12)])
def test_bipolar_correspondence_sweep_q_up_to_40(pq, tol, closure):
    """All 100 reduced p/q with q <= 40, 51/101, 101/201 and 201/401,
    down to a ~ 5e-4; the speed identity holds at 16 and 512 samples per
    half-oscillation."""
    sol = solve_rotation(RotationNumber(*pq))
    prof = GeodesicProfile(sol, 512)
    rep = verify_bipolar_correspondence(sol, 1e-6, profile=prof)
    assert rep.passed, rep
    assert max(rep.transfer_residual, rep.angle_residual,
               rep.hausdorff_distance) <= tol, rep
    assert rep.period_closure_error <= closure, rep
    assert prof.unit_speed_residual <= 1e-13
    assert GeodesicProfile(sol, 16).unit_speed_residual <= 1e-13


def test_correspondence_inverts_no_torus_series(cases, monkeypatch):
    """Only the bipolar chart is inverted over the sample grid: t, nu,
    lambda and their velocities come from the torus chart at chi."""
    sol, prof = cases.solution((5, 8)), cases.profile((5, 8))
    charts, x_of = [], _HalfChart.x_of
    monkeypatch.setattr(_HalfChart, "x_of",
                        lambda chart, u: charts.append(chart) or x_of(chart, u))
    assert verify_bipolar_correspondence(sol, profile=prof).passed
    assert charts and prof.torus_chart not in charts


def test_bipolar_evaluations_invert_t_once(cases, monkeypatch):
    """A mesh build and a correspondence check each invert the bipolar
    chart once: phi, theta and their velocities share one t -> x."""
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    charts, x_of = [], _HalfChart.x_of
    monkeypatch.setattr(_HalfChart, "x_of",
                        lambda chart, u: charts.append(chart) or x_of(chart, u))
    build_mesh(prof, 16, 64)
    assert len(charts) == 1 and charts[0] is not prof.torus_chart
    verify_bipolar_correspondence(sol, profile=prof)
    assert charts == [charts[0]] * 2


def test_wedge_and_torus_evaluate_the_geodesic_once_per_parameter(cases):
    """A column of alpha over a row of s gives, bit for bit, the values
    of the formulas evaluated on the broadcast grid."""
    sol, prof = cases.solution((5, 8)), cases.profile((5, 8))
    alphas = np.linspace(0.0, 2 * math.pi, 7, endpoint=False)
    s = RNG.uniform(-sol.s_total, 2 * sol.s_total, 64)
    aa, ss = np.broadcast_arrays(alphas[:, None], s)
    nu, lam = prof.nu_at(ss), prof.lambda_at(ss)
    nu_dot, lam_dot = prof.nu_dot_at(ss), prof.lambda_dot_at(ss)
    sn, cn, sl, cl = np.sin(nu), np.cos(nu), np.sin(lam), np.cos(lam)
    a_comp = lam_dot * cl * cn - nu_dot * sl * sn
    b_comp = lam_dot * sl * cn + nu_dot * cl * sn
    pref = 2 * math.pi * sn
    wedge = np.stack([np.zeros_like(pref),
                      pref * np.cos(aa) * a_comp, pref * np.cos(aa) * b_comp,
                      pref * np.sin(aa) * a_comp, pref * np.sin(aa) * b_comp,
                      pref * nu_dot * cn], axis=-1)
    torus = np.stack([np.cos(aa) * sn, np.sin(aa) * sn,
                      cn * np.cos(lam), cn * np.sin(lam)], axis=-1)
    assert np.array_equal(bipolar_wedge(prof, alphas[:, None], s), wedge)
    assert np.array_equal(immerse_otsuki(prof, alphas[:, None], s), torus)


def test_wedge_and_torus_invert_the_chart_once(cases, monkeypatch):
    """nu, lambda and their velocities share one inversion s -> chi."""
    prof, calls = cases.profile((5, 8)), []
    x_of = _HalfChart.x_of
    monkeypatch.setattr(_HalfChart, "x_of",
                        lambda chart, u: calls.append(u) or x_of(chart, u))
    bipolar_wedge(prof, 0.3, np.linspace(0.0, 1.0, 5))
    assert len(calls) == 1
    immerse_otsuki(prof, 0.3, np.linspace(0.0, 1.0, 5))
    assert len(calls) == 2


def test_even_q_double_cover_identity(cases):
    sol, prof = cases.solution((5, 8)), cases.profile((5, 8))
    alphas, _, ts = random_params(sol, 128)
    a_side = immerse_bipolar(prof, alphas, ts)
    b_side = immerse_bipolar(prof, alphas + math.pi, ts + sol.t0 / 2)
    assert np.max(np.abs(a_side - b_side)) < 1e-8


def test_odd_q_has_no_smaller_identification(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    ts = np.linspace(0, sol.t0, 64, endpoint=False)
    alphas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    aa, tt = np.meshgrid(alphas, ts, indexing="ij")
    base = immerse_bipolar(prof, aa, tt)
    for k in range(2, 2 * 5 + 1):
        shift = sol.t0 / k
        dev_rot = np.max(np.abs(base - immerse_bipolar(prof, aa + math.pi,
                                                       tt + shift)))
        dev_plain = np.max(np.abs(base - immerse_bipolar(prof, aa, tt + shift)))
        assert min(dev_rot, dev_plain) > 0.1


def test_even_q_generating_geodesic_sigma_invariant(cases):
    # theta -> theta + pi maps the sampled geodesic to itself (via the
    # half-period shift) exactly when q is even
    sol, prof = cases.solution((5, 8)), cases.profile((5, 8))
    ts = np.linspace(0, sol.t0, 257)
    assert np.max(np.abs(prof.phi_at(ts + sol.t0 / 2) - prof.phi_at(ts))) < 1e-10
    dtheta = prof.theta_at(ts + sol.t0 / 2) - prof.theta_at(ts)
    assert np.max(np.abs(dtheta - 5 * math.pi)) < 1e-10   # p pi = pi mod 2 pi


def test_periodic_closure_of_parameter_grid(cases):
    prof = cases.profile((3, 5))
    alphas = np.linspace(0, 2 * math.pi, 8)
    a_row = immerse_bipolar(prof, alphas, np.zeros_like(alphas))
    b_row = immerse_bipolar(prof, alphas, np.full_like(alphas, prof.t0))
    assert np.max(np.abs(a_row - b_row)) < 1e-10


def reference_mesh_text(mesh, fmt):
    """The mesh file written one vertex and one f-string at a time."""
    if fmt == "csv":
        lines = ["alpha,t,x,y,z,u,v"]
        for k, vert in enumerate(mesh.vertices):
            row = [mesh.alphas[k // mesh.n_t], mesh.ts[k % mesh.n_t], *vert]
            lines.append(",".join(f"{x:.15g}" for x in row))
    else:
        keep = np.sort(np.argsort(np.var(mesh.vertices, axis=0))[-3:])
        lines = [f"# bipolar surface mesh, axes kept: {keep.tolist()}"]
        for vert in mesh.vertices[:, keep]:
            lines.append("v " + " ".join(f"{x:.15g}" for x in vert))
    return "\n".join(lines) + "\n"


def test_mesh_export_csv_roundtrip(tmp_path, cases):
    prof = cases.profile((3, 5))
    path = tmp_path / "mesh.csv"
    mesh = export_mesh(prof, 16, 64, "csv", str(path))
    assert mesh.vertices.shape == (16 * 64, 5)
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) < 1e-10
    aa, tt = np.meshgrid(mesh.alphas, mesh.ts, indexing="ij")
    assert np.array_equal(mesh.vertices,
                          immerse_bipolar(prof, aa, tt).reshape(-1, 5))
    assert path.read_bytes() == reference_mesh_text(mesh, "csv").encode()
    data = read_mesh_csv(str(path))
    assert data.shape == (16 * 64, 7)
    assert np.max(np.abs(data[:, 2:] - mesh.vertices)) < 1e-12
    # row-major in (alpha, t): row i_alpha * n_t + i_t
    assert data[1, 0] == 0.0 and data[1, 1] == pytest.approx(mesh.ts[1])


@pytest.mark.parametrize("header", ["alpha,t,x,y,z", "t,alpha,x,y,z,u,v",
                                    "alpha,t,x,y,z,u,v,w"])
def test_read_mesh_csv_rejects_another_header(header, tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text(header + "\n" + ",".join(["0"] * 7) + "\n")
    with pytest.raises(ValueError, match="unexpected mesh header"):
        read_mesh_csv(str(path))


def test_read_mesh_csv_parses_each_field_as_float(tmp_path, cases):
    """Bit for bit the values float() gives, -0 signs included."""
    path = tmp_path / "mesh.csv"
    export_mesh(cases.profile((3, 5)), 12, 64, "csv", str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    want = np.array([[float(x) for x in row] for row in rows])
    got = read_mesh_csv(str(path))
    assert got.shape == (12 * 64, 7)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(got[got == 0.0]).any()


def test_read_mesh_csv_of_a_header_alone_is_empty(tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text("alpha,t,x,y,z,u,v\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = read_mesh_csv(str(path))
    assert data.shape == (0, 7)


def test_read_mesh_csv_rejects_a_ragged_row(tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text("alpha,t,x,y,z,u,v\n" + ",".join(["0"] * 7) + "\n"
                    + ",".join(["0"] * 6) + "\n")
    with pytest.raises(ValueError):
        read_mesh_csv(str(path))


@pytest.mark.parametrize("width, rows", [(6, 2), (8, 1)])
def test_read_mesh_csv_rejects_rows_of_another_width(width, rows, tmp_path):
    """Rows of one width under the right header, but not 7 wide."""
    path = tmp_path / "mesh.csv"
    path.write_text("alpha,t,x,y,z,u,v\n"
                    + (",".join(["0"] * width) + "\n") * rows)
    with pytest.raises(ValueError, match=f"{width} fields"):
        read_mesh_csv(str(path))


@pytest.mark.parametrize("pq", [(3, 5), (11, 17), (13, 20), (7, 13)])
def test_mesh_of_a_16_sample_profile_is_the_default_mesh(pq, cases):
    """The mesh reads only the chart, not the profile's sampled arrays."""
    sol = cases.solution(pq)
    coarse = build_mesh(geodesic.profile(sol, 16), 64, 768)
    assert np.array_equal(coarse.vertices, build_mesh(
        geodesic.profile(sol), 64, 768).vertices)


def test_mesh_export_even_q_cover(tmp_path, cases):
    prof = cases.profile((5, 8))
    mesh = build_mesh(prof, 16, 64)
    verts = mesh.vertices.reshape(16, 64, 5)
    rolled = np.roll(np.roll(verts, -8, axis=0), -32, axis=1)
    assert np.max(np.abs(verts - rolled)) < 1e-8


def test_mesh_export_obj(tmp_path, cases):
    prof = cases.profile((3, 5))
    path = tmp_path / "mesh.obj"
    mesh = export_mesh(prof, 8, 16, "obj", str(path))
    lines = [l for l in path.read_text().splitlines() if l.startswith("v ")]
    assert len(lines) == 8 * 16
    assert all(len(l.split()) == 4 for l in lines)
    assert path.read_bytes() == reference_mesh_text(mesh, "obj").encode()


@pytest.mark.parametrize("fmt", ["csv", "obj"])
@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (7, 13), (51, 101), (2, 3),
                                (41, 58)])
def test_mesh_export_is_percent_g_text(pq, fmt, tmp_path, cases):
    """Byte identity with the one-value-at-a-time text, for both parities
    of q and near the 1/2 end.  With 12 alpha rows, not a whole number of
    blocks, alpha = 0 and pi give zeros and -0, and alpha = pi/2 and 3pi/2
    give values near 1e-17 that print in exponent form.  The OBJ files of
    2/3 and 41/58 drop v; the others keep it."""
    path = tmp_path / f"mesh.{fmt}"
    mesh = export_mesh(cases.profile(pq), 12, 64, fmt, str(path))
    text = path.read_bytes()
    assert text == reference_mesh_text(mesh, fmt).encode()
    fields = set(re.split(rb"[ ,\n]", text))
    assert {b"0", b"-0"} <= fields
    assert any(b"e-" in field for field in fields)


@pytest.mark.parametrize("fmt", ["csv", "obj"])
@pytest.mark.parametrize("n_alpha, n_t", [(8, 7001), (9, 700)])
def test_mesh_export_blocks_are_percent_g_text(n_alpha, n_t, fmt, tmp_path,
                                               cases):
    """Byte identity where each row is cut into t-chunks (n_t = 7001 is
    past the 6144-vertex block) and where 8-row blocks leave one row
    over (9 x 700)."""
    path = tmp_path / f"mesh.{fmt}"
    mesh = export_mesh(cases.profile((3, 5)), n_alpha, n_t, fmt, str(path))
    assert path.read_bytes() == reference_mesh_text(mesh, fmt).encode()


def test_mesh_export_block_is_at_most_6144_vertices(tmp_path, cases,
                                                    monkeypatch):
    """At 8 x 20000 no block handed to the formatter holds more than 6144
    vertices, so its buffers do not grow with n_t, and every value is
    formatted once: x, y, z and u per vertex, v = sin(phi) per t."""
    write, sizes = immersion._write_g15, []

    def spy(x, chars):
        sizes.append(x.size)
        write(x, chars)

    monkeypatch.setattr(immersion, "_write_g15", spy)
    export_mesh(cases.profile((3, 5)), 8, 20000, "csv",
                str(tmp_path / "mesh.csv"))
    assert max(sizes) <= 6144 * 5
    assert sum(sizes) == 8 * 20000 * 4 + 20000


def test_mesh_export_formats_no_zero_through_percent_g(tmp_path, cases,
                                                     monkeypatch):
    """Exact zeros and -0 among the vertex values (the alpha = 0 and pi
    rows) take the fast path: the only zeros that reach ``"%.15g"`` are
    the CSV grid axes' alpha = 0 and t = 0."""
    percent_g, seen = immersion._percent_g, []

    def spy(values):
        seen.append(np.asarray(values))
        return percent_g(values)

    monkeypatch.setattr(immersion, "_percent_g", spy)
    for fmt, grid_zeros in (("csv", 2), ("obj", 0)):
        seen.clear()
        export_mesh(cases.profile((3, 5)), 64, 768, fmt,
                    str(tmp_path / f"mesh.{fmt}"))
        assert np.count_nonzero(np.concatenate(seen) == 0.0) == grid_zeros


def block_text(values):
    """Each value's text from ``_write_g15`` on all of them at once."""
    x = np.array(values, dtype=float)
    chars = np.empty(x.shape + (_FIELD,), np.uint8)
    _write_g15(x, chars)
    return [bytes(c[c != 0]).decode() for c in chars]


SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, 1e-4, -1e-4,
                  float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
                  float(np.nextafter(1.0, 0.0)), 0.99999999999999951,
                  math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308]
# 10^-k and its neighbours one ulp away
NEAR_POWERS = st.builds(
    lambda k, step: float(np.nextafter(10.0 ** -k, math.inf * step))
    if step else 10.0 ** -k,
    st.integers(0, 20), st.sampled_from([-1, 0, 1]))
# 0.<15 digits>5<tail> x 10^e: the 16th significant digit is 5
DIGIT_FIVE = st.builds(
    lambda sign, m, tail, e: float(f"{sign}0.{m}5{tail}e{e}"),
    st.sampled_from(["", "-"]), st.integers(10 ** 14, 10 ** 15 - 1),
    st.sampled_from(["", "0", "00001", "4999", "9"]), st.integers(-5, 2))
# (2j + 1) / 2^n: for n = 16 ... 19 in [10^(15 - n), 10^(16 - n)) these lie
# exactly halfway between two 15-digit decimals
TIES = st.builds(lambda j, n: (2 * j + 1) / 2.0 ** n,
                 st.integers(0, 2 ** 19), st.integers(16, 19))


@settings(deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES),
                          NEAR_POWERS, DIGIT_FIVE, TIES),
                min_size=1, max_size=64))
def test_block_formatter_is_percent_g(values):
    assert block_text(values) == ["%.15g" % v for v in values]


# The exponent layout's range, 1e-30 <= |v| < 1e-4, and a decade past each
# end: any values, 10^-k and its neighbours, and 16th significant digit 5
EXPONENT_FORM = st.one_of(
    st.floats(1e-31, 1e-3), st.floats(-1e-3, -1e-31),
    st.builds(lambda x: 10.0 ** x, st.floats(-31.0, -3.0)),
    st.builds(lambda k, step: float(np.nextafter(10.0 ** -k, math.inf * step))
              if step else 10.0 ** -k,
              st.integers(3, 31), st.sampled_from([-1, 0, 1])),
    st.builds(lambda sign, m, tail, e: float(f"{sign}0.{m}5{tail}e{e}"),
              st.sampled_from(["", "-"]), st.integers(10 ** 14, 10 ** 15 - 1),
              st.sampled_from(["", "0", "00001", "4999", "9"]),
              st.integers(-30, -3)))


@settings(deadline=None)
@given(st.lists(EXPONENT_FORM, min_size=1, max_size=64))
def test_block_formatter_is_percent_g_in_exponent_form(values):
    assert block_text(values) == ["%.15g" % v for v in values]


def test_mesh_rejects_coarse_resolutions(cases):
    with pytest.raises(ValueError):
        build_mesh(cases.profile((3, 5)), 4, 64)
    with pytest.raises(ValueError):
        export_mesh(cases.profile((3, 5)), 16, 64, "vtk", "/tmp/x")
