"""Immersions, the wedge identification, induced metric, and mesh export."""

import math

import numpy as np
import pytest

from otsuki_bipolar.immersion import (
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


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
def test_bipolar_correspondence(pq, cases):
    rep = verify_bipolar_correspondence(cases.solution(pq), 1e-6,
                                        profile=cases.profile(pq))
    assert rep.passed
    assert rep.transfer_residual < 1e-6
    assert rep.angle_residual < 1e-6
    assert rep.hausdorff_distance < 1e-5
    assert rep.period_closure_error < 1e-8


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


def test_mesh_rejects_coarse_resolutions(cases):
    with pytest.raises(ValueError):
        build_mesh(cases.profile((3, 5)), 4, 64)
    with pytest.raises(ValueError):
        export_mesh(cases.profile((3, 5)), 16, 64, "vtk", "/tmp/x")
