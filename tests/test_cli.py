"""Command-line interface: formats, exit codes, config precedence."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import otsuki_bipolar
from otsuki_bipolar import cli, geodesic, oracle, spectrum
from otsuki_bipolar.cli import main
from otsuki_bipolar.errors import ConvergenceFailure
from otsuki_bipolar.immersion import read_mesh_csv


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_text(capsys):
    code, out, _ = run(["solve", "--p", "3", "--q", "5"], capsys)
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["a"]) == pytest.approx(0.127382151374944, rel=1e-12)
    assert abs(float(values["omega_residual"])) < 1e-11
    assert float(values["lambda_functional"]) < float(values["upper_bound"])


def test_solve_json_precision(capsys):
    code, out, _ = run(["solve", "--p", "3", "--q", "5", "--format", "json"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    # 15 significant digits survive the round trip
    assert payload["t0"] == pytest.approx(127.667568625331, rel=1e-14)


def test_solve_rejects_boundary_fraction(capsys):
    code, _, err = run(["solve", "--p", "1", "--q", "2"], capsys)
    assert code == 2
    assert "1/2" in err


def test_solve_rejects_unreduced_fraction(capsys):
    code, _, err = run(["solve", "--p", "2", "--q", "4"], capsys)
    assert code == 2
    assert "gcd" in err


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--p", "3", "--q", "5",
                        "--grid-size", "1040", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["N2"] == payload["N2_expected"] == 20
    assert all(c["pass"] for c in payload["certificates"])


def test_verify_csv_is_one_row_per_certificate(capsys):
    """--format csv gives the header name,lhs,rhs,margin,pass and the JSON
    certificates, in order, with 15-digit floats."""
    args = ["verify", "--p", "3", "--q", "5", "--grid-size", "1040"]
    code, out, _ = run(args + ["--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    _, out_json, _ = run(args + ["--format", "json"], capsys)
    certs = json.loads(out_json)["certificates"]
    assert out.splitlines()[0] == "name,lhs,rhs,margin,pass"
    assert len(rows) == len(certs) > 0
    for row, cert in zip(rows, certs):
        assert row["name"] == cert["name"]
        assert row["pass"] == str(cert["pass"])
        for key in ("lhs", "rhs", "margin"):
            assert float(row[key]) == cert[key], (cert["name"], key)


def test_spectrum_csv(capsys):
    code, out, _ = run(["spectrum", "--p", "3", "--q", "5",
                        "--grid-size", "1040", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[0]["l"] == "0" and rows[0]["zero_count"] == "0"
    assert float(rows[0]["lambda"]) == pytest.approx(0.0, abs=1e-9)


def test_table_batch_and_dedup(capsys):
    code, out, err = run(["table", "--pairs", "3/5,3/5,5/8",
                          "--grid-size", "1040"], capsys)
    assert code == 0
    assert "duplicate" in err
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["p"], r["q"]) for r in rows] == [("3", "5"), ("5", "8")]
    for r in rows:
        assert float(r["lambda_functional"]) < float(r["upper_bound"])


def test_table_json_is_a_list_of_row_objects(capsys):
    code, out, _ = run(["table", "--pairs", "3/5,5/8", "--format", "json"],
                       capsys)
    assert code == 0
    code, csv_out, _ = run(["table", "--pairs", "3/5,5/8"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows == [{k: v if k == "status" else json.loads(v)
                     for k, v in row.items()}
                    for row in csv.DictReader(csv_out.splitlines())]
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_table_empty_batch(capsys):
    code, out, _ = run(["table", "--pairs", ","], capsys)
    assert code == 0
    assert out.strip() == "p,q,a,b,t0,N2,lambda_functional,upper_bound,status"


def test_table_keeps_every_row_when_one_fails(monkeypatch, capsys):
    """A row that fails numerically leaves the rows before and after it
    as they print alone; its values are empty, its status names the
    failure's class, and the batch is exit 1 with one line on stderr."""
    verify = spectrum.verify_theorem3

    def failing_at_5_8(r, **kwargs):
        if (r.p, r.q) == (5, 8):
            raise ConvergenceFailure("forced")
        return verify(r, **kwargs)

    alone = {pq: run(["table", "--pairs", pq], capsys)[1].splitlines()[1]
             for pq in ("3/5", "4/7")}
    monkeypatch.setattr(spectrum, "verify_theorem3", failing_at_5_8)
    code, out, err = run(["table", "--pairs", "3/5,5/8,4/7"], capsys)
    assert code == 1
    assert err == ("error: 1 of 3 table rows not ok:"
                   " 5/8 (ConvergenceFailure)\n")
    lines = out.splitlines()
    assert lines[1:] == [alone["3/5"], "5,8,,,,,,,ConvergenceFailure",
                         alone["4/7"]]
    assert alone["3/5"].endswith(",ok")
    code, out, _ = run(["table", "--pairs", "3/5,5/8,4/7", "--format", "json"],
                       capsys)
    rows = json.loads(out)
    assert code == 1 and [r["status"] for r in rows] == [
        "ok", "ConvergenceFailure", "ok"]
    assert rows[1] == {**dict.fromkeys(rows[1], None), "p": 5, "q": 8,
                       "status": "ConvergenceFailure"}


def test_export_mesh_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, out, _ = run(["export-mesh", "--p", "3", "--q", "5",
                        "--n-alpha", "16", "--n-t", "32",
                        "--mesh-out", str(path)], capsys)
    assert code == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "alpha,t,x,y,z,u,v"
    assert len(rows) == 1 + 16 * 32
    x = [float(v) for v in rows[1].split(",")]
    assert sum(v * v for v in x[2:]) == pytest.approx(1.0, abs=1e-12)


def test_export_mesh_builds_one_16_sample_profile(tmp_path, monkeypatch,
                                                  capsys):
    """The mesh reads only the chart: one profile at the least 16 samples,
    looked up on its module, so a wrapper installed there (as the
    benchmark's span is) sees it."""
    profile, calls = geodesic.profile, []

    def spy(sol, *args):
        calls.append(args)
        return profile(sol, *args)

    monkeypatch.setattr(geodesic, "profile", spy)
    code, _, _ = run(["export-mesh", "--p", "3", "--q", "5", "--n-alpha", "8",
                      "--n-t", "16", "--mesh-out", str(tmp_path / "m.csv")],
                     capsys)
    assert code == 0
    assert calls == [(16,)]


def test_export_mesh_out_takes_the_summary_line(tmp_path, capsys):
    mesh, log = tmp_path / "m.obj", tmp_path / "log.txt"
    code, out, _ = run(["export-mesh", "--p", "3", "--q", "5",
                        "--n-alpha", "8", "--n-t", "8", "--mesh-format", "obj",
                        "--mesh-out", str(mesh), "--out", str(log)], capsys)
    assert code == 0
    assert out == ""
    assert log.read_text() == f"wrote 64 vertices to {mesh}\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_export_mesh_summary_follows_format(fmt, tmp_path, capsys):
    """json and csv print the flat summary {p, q, vertices, mesh_format,
    path}; text prints the wrote line."""
    mesh = tmp_path / "m.obj"
    code, out, _ = run(["export-mesh", "--p", "3", "--q", "5",
                        "--n-alpha", "8", "--n-t", "8", "--mesh-format", "obj",
                        "--mesh-out", str(mesh), "--format", fmt], capsys)
    assert code == 0
    summary = {"p": 3, "q": 5, "vertices": 64, "mesh_format": "obj",
               "path": str(mesh)}
    if fmt == "json":
        assert json.loads(out) == summary
    elif fmt == "csv":
        assert list(csv.DictReader(out.splitlines())) == [
            {k: str(v) for k, v in summary.items()}]
    else:
        assert out == f"wrote 64 vertices to {mesh}\n"


def test_export_mesh_covers_the_admissible_range(tmp_path, capsys):
    fractions = [(p, q) for q in range(3, 41) for p in range(1, q)
                 if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]
    assert len(fractions) == 100
    path = tmp_path / "m.csv"
    for p, q in fractions + [(51, 101)]:
        code, _, err = run(["export-mesh", "--p", str(p), "--q", str(q),
                            "--n-alpha", "9", "--n-t", "13",
                            "--mesh-out", str(path)], capsys)
        assert code == 0, (p, q, err)
        verts = read_mesh_csv(str(path))[:, 2:]
        assert len(verts) == 9 * 13
        assert np.max(np.abs(np.sum(verts ** 2, axis=1) - 1.0)) <= 1e-12, (p, q)


def test_cross_check_coarse_grid_warns(capsys):
    code, out, err = run(["cross-check", "--p", "3", "--q", "5",
                          "--grid-size", "1040",
                          "--oracle-n-alpha", "32", "--oracle-n-t", "64",
                          "--format", "json"], capsys)
    assert "points per half-oscillation" in err
    assert code in (0, 1)     # warned, not silent


def test_cross_check_resolved_grid_does_not_warn(capsys):
    """At 20 points per half-oscillation the measured oracle error of 3/5
    (6.7e-3) leaves the threshold window at its 0.02 floor: no warning."""
    code, out, err = run(["cross-check", "--p", "3", "--q", "5",
                          "--grid-size", "1040",
                          "--oracle-n-alpha", "32", "--oracle-n-t", "200",
                          "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    assert payload["threshold_window"] == 0.02
    assert "warning" not in err


def test_cross_check_csv_is_one_row(capsys):
    """--format csv gives a header and one row with the JSON keys."""
    args = ["cross-check", "--p", "3", "--q", "5", "--grid-size", "1040",
            "--oracle-n-alpha", "32", "--oracle-n-t", "200"]
    code, out, _ = run(args + ["--format", "csv"], capsys)
    rows = list(csv.DictReader(out.splitlines()))
    assert code == 0 and len(rows) == 1
    _, out_json, _ = run(args + ["--format", "json"], capsys)
    payload = json.loads(out_json)
    assert list(rows[0]) == list(payload)
    assert rows[0]["pass"] == "True" and rows[0]["counts_agree"] == "True"
    assert int(rows[0]["n_below_2_oracle"]) == payload["n_below_2_oracle"]
    assert float(rows[0]["oracle_eps"]) == pytest.approx(
        payload["oracle_eps"], rel=1e-14)


@pytest.mark.parametrize("pq, grid, warns", [
    ((8, 15), [], False),
    ((3, 5), ["--oracle-n-alpha", "32", "--oracle-n-t", "64"], True)])
def test_cross_check_prints_the_library_payload(pq, grid, warns, capsys):
    """The command's JSON is oracle.cross_check's payload after p and q:
    on 8/15 (even q, a genuine l = 1 mode at 1.98390 inside the window)
    and on 3/5 at a grid coarse enough to warn."""
    p, q = pq
    code, out, err = run(["cross-check", "--p", str(p), "--q", str(q),
                          *grid, "--format", "json"], capsys)
    printed = json.loads(out)
    n_alpha, n_t = (32, 64) if grid else (96, 768)
    payload = oracle.cross_check(
        geodesic.solve_rotation(geodesic.RotationNumber(p, q)),
        n_alpha, n_t, 2.5)
    assert list(printed) == ["p", "q", *payload]
    assert printed == {"p": p, "q": q, **json.loads(
        json.dumps(spectrum.json_ready(payload)))}
    assert code == (0 if payload["pass"] else 1)
    assert ("points per half-oscillation" in err) == warns


def test_cross_check_odd_coarse_alpha_grid(capsys):
    """--oracle-n-alpha 50 gives a coarse grid of 2*50//3 = 33 columns,
    rounded down to an even 32."""
    code, _, err = run(["cross-check", "--p", "2", "--q", "3",
                        "--oracle-n-alpha", "50", "--oracle-n-t", "96",
                        "--format", "json"], capsys)
    assert code in (0, 1), err


@pytest.mark.parametrize("pq", [(p, q) for q in range(3, 21)
                                for p in range(1, q) if math.gcd(p, q) == 1
                                and q < 2 * p and 2 * p * p < q * q])
def test_cross_check_q_up_to_20(pq, capsys):
    """cross-check at the default oracle grid on all 27 reduced p/q with
    q <= 20 (~6 s on 2 cores)."""
    code, out, _ = run(["cross-check", "--p", str(pq[0]), "--q", str(pq[1]),
                        "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["counts_agree"] and payload["pass"]


@pytest.mark.sweep
@pytest.mark.parametrize("pq", [(14, 25), (19, 37), (21, 40)])
def test_cross_check_at_48_points_per_half_oscillation(pq, capsys):
    """Beyond q = 20 the default 96x768 grid is too coarse for these p/q;
    at 96q x-nodes (48 per half-oscillation) cross-check passes."""
    code, out, _ = run(["cross-check", "--p", str(pq[0]), "--q", str(pq[1]),
                        "--oracle-n-t", str(96 * pq[1]), "--format", "json"],
                       capsys)
    payload = json.loads(out)
    assert code == 0 and payload["counts_agree"] and payload["pass"]


# Each command on a small grid, with the JSON keys its CSV header repeats:
# a flat payload's own keys, else those of its rows.
_FORMAT_MATRIX = {
    "solve": (["--p", "3", "--q", "5"], lambda js: js),
    "verify": (["--p", "3", "--q", "5", "--grid-size", "1040"],
               lambda js: js["certificates"][0]),
    "spectrum": (["--p", "3", "--q", "5", "--grid-size", "1040"],
                 lambda js: js["entries"][0]),
    "table": (["--pairs", "3/5", "--grid-size", "1040"], lambda js: js[0]),
    "cross-check": (["--p", "3", "--q", "5", "--grid-size", "1040",
                     "--oracle-n-alpha", "32", "--oracle-n-t", "200"],
                    lambda js: js),
    "export-mesh": (["--p", "3", "--q", "5", "--n-alpha", "8", "--n-t", "8",
                     "--mesh-out", "{tmp}/m.csv"], lambda js: js),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", list(_FORMAT_MATRIX))
def test_every_command_prints_every_format(command, fmt, tmp_path, capsys):
    """Every command exits 0 in every format; its json parses, and its
    csv parses with a header equal to the JSON keys."""
    args, keyed = _FORMAT_MATRIX[command]
    argv = [command] + [a.replace("{tmp}", str(tmp_path)) for a in args]
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert code == 0, err
    assert out.strip()
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        _, out_json, _ = run(argv + ["--format", "json"], capsys)
        rows = list(csv.DictReader(out.splitlines()))
        assert rows and list(rows[0]) == list(keyed(json.loads(out_json)))


def test_config_file_and_flag_precedence(tmp_path, capsys):
    """The file's cut overrides the default and admits the rows between
    2.5 and 4.04; the flag's cut overrides the file's."""
    argv = ["spectrum", "--p", "3", "--q", "5", "--format", "json"]
    code, default, _ = run(argv, capsys)
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nlambda_cut = 4.04\n")
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert code == 0 and err == ""
    top = [max(e["lambda"] for e in json.loads(o)["entries"])
           for o in (default, out)]
    assert top[0] < 2.5 < top[1] < 4.04
    code, out, _ = run(argv + ["--config", str(cfg), "--lambda-cut", "2.5"],
                       capsys)
    assert (code, out) == (0, default)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", [["verify", "--p", "3", "--q", "5"],
                                     ["table", "--pairs", "3/5,5/8"]],
                         ids=["verify", "table"])
def test_verify_and_table_read_only_p_q(command, fmt, tmp_path, capsys):
    """verify and table print the same bytes at any --lambda-cut, even
    one above a radial window, and under any value of the tol.* keys,
    which only draw the unread-key warning."""
    argv = command + ["--format", fmt]
    base = run(argv, capsys)
    assert base[0] == 0 and base[2] == ""
    for cut in ("2.01", "8"):
        assert run(argv + ["--lambda-cut", cut], capsys) == base
    cfg = tmp_path / "run.cfg"
    for text, keys in [
            ("tol.omega_residual = 0.5\ntol.functional_agreement = 0.5\n",
             "tol.omega_residual, tol.functional_agreement"),
            ("tol.omega_residual = 1e-30\n", "tol.omega_residual"),
            ("tol.functional_agreement = tiny\n", "tol.functional_agreement")]:
        cfg.write_text(text)
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == base[:2]
        assert err == f"warning: {cfg}: {keys} read by no command; ignored\n"


def test_config_warns_about_unread_tolerances(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol.correspondence = 1e-5\ntol.hausdorff = 1e-4\n")
    code, _, err = run(["solve", "--p", "3", "--q", "5",
                        "--config", str(cfg)], capsys)
    assert code == 0
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "tol.correspondence" in lines[0] and "tol.hausdorff" in lines[0]
    assert "read by no command" in lines[0]


def test_config_warns_about_the_unread_sampling_key(tmp_path, capsys):
    """samples_per_half_period changes no output; a value the profile
    would reject (8 < 16) is ignored with a warning, not an error."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples_per_half_period = 8\n")
    code, _, err = run(["export-mesh", "--p", "3", "--q", "5",
                        "--n-alpha", "16", "--n-t", "32", "--config", str(cfg),
                        "--mesh-out", str(tmp_path / "m.csv")], capsys)
    assert code == 0
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "samples_per_half_period" in lines[0]
    assert "read by no command" in lines[0]


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gridsize = 10\n")
    code, _, err = run(["verify", "--p", "3", "--q", "5",
                        "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown key" in err


def test_config_file_rejects_unknown_tolerance_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# typo below\ntol.functional_agreemnt = 1e-7\n")
    code, _, err = run(["verify", "--p", "3", "--q", "5",
                        "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown key" in err and f"{cfg}:2" in err


@pytest.mark.parametrize("line", ["n_t = 1e3", "lambda_cut = two",
                                  "oracle_n_t = 96q"])
def test_config_file_bad_value_names_its_line(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# bad value below\n" + line + "\n")
    code, _, err = run(["verify", "--p", "3", "--q", "5",
                        "--config", str(cfg)], capsys)
    assert code == 2
    assert f"{cfg}:2" in err and repr(line.split(" = ")[0]) in err


_NONFINITE_CUTS = [(command, cut) for command in ("solve", "verify", "spectrum")
                   for cut in ("nan", "inf")]


@pytest.mark.parametrize("argv, code, needle", [
    (["solve", "--p", "3", "--q", "5", "--config", "{tmp}/missing.cfg"],
     2, "missing.cfg"),
    (["solve", "--p", "3", "--q", "5", "--out", "{tmp}/no/dir/sol.txt"],
     2, "sol.txt"),
    (["export-mesh", "--p", "3", "--q", "5", "--n-alpha", "8", "--n-t", "8",
      "--mesh-out", "{tmp}/no/dir/m.csv"], 2, "m.csv"),
    (["export-mesh", "--p", "3", "--q", "5", "--n-alpha", "8", "--n-t", "8",
      "--mesh-out", "{tmp}/m.csv", "--out", "{tmp}/no/dir/log.txt"],
     2, "log.txt"),
    (["spectrum", "--p", "3", "--q", "5", "--l-max", "5", "--lambda-cut", "6"],
     2, "radial window at l = 0"),
    (["table", "--pairs", "3/5"],
     1, "1 of 1 table rows not ok: 3/5"
        " (radial_eigenvalue_two_at_l0_position_2q)"),
    (["table", "--pairs", "3/5", "--out", "{tmp}/no/dir/table.csv"],
     2, "table.csv"),
    (["solve", "--p", "3", "--q", "5", "--config", "{tmp}/pq.cfg"],
     0, "p, q read by no command; ignored"),
    (["verify", "--p", "3", "--q", "5", "--config", "{tmp}/ply.cfg"],
     2, "unknown mesh format"),
    *(([command, "--p", "3", "--q", "5", "--lambda-cut", cut],
       2, f"lambda_cut must lie in (2, inf), got {cut}")
      for command, cut in _NONFINITE_CUTS),
], ids=["missing-config", "out-in-missing-dir",
        "mesh-out-in-missing-dir", "mesh-log-out-in-missing-dir",
        "spectrum-cut-above-window",
        "table-row-fails", "table-row-fails-out-in-missing-dir",
        "config-p-q-unread", "config-mesh-format-unknown",
        *(f"{command}-cut-{cut}" for command, cut in _NONFINITE_CUTS)])
def test_failure_exit_codes(argv, code, needle, tmp_path, monkeypatch,
                            capsys):
    """Each failure maps to its exit code by class, with a one-line
    message and no traceback; config p and q only draw a warning."""
    if argv[0] == "table":  # no |lambda - 2| lies within a negative window
        monkeypatch.setattr(spectrum, "_THRESHOLD_WINDOW", -1.0)
    (tmp_path / "pq.cfg").write_text("p = 5\nq = 8\n")
    (tmp_path / "ply.cfg").write_text("mesh_format = ply\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    got, out, err = run(argv, capsys)
    assert got == code, err
    assert needle in err and len(err.strip().splitlines()) == 1
    if code == 0:
        assert "p = 3\nq = 5\n" in out


def test_table_checks_every_fraction_before_solving(monkeypatch, capsys):
    """A bad fraction anywhere in --pairs is exit 2 before any p/q is
    solved, with one line on stderr and nothing on stdout."""
    calls = []
    monkeypatch.setattr(spectrum, "verify_theorem3",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = run(["table", "--pairs", "3/5,26/51,5/3"], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == "error: p/q = 5/3 outside (1/2, sqrt(2)/2)\n"


def test_numerical_failure_exit_code(monkeypatch, capsys):
    """A radial solve that does not converge within its Fourier-mode cap
    is exit 3, with one line naming the class."""
    monkeypatch.setattr(spectrum, "_MAX_MODES", 16)
    code, _, err = run(["verify", "--p", "9", "--q", "17"], capsys)
    assert code == 3
    assert err.startswith("error: ConvergenceFailure: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("p, q", [(250, 499), (500, 999)])
def test_verify_near_one_half(p, q, capsys):
    """verify solves seven named sectors, not q + 1 per l, so 250/499 and
    500/999 pass with the closed-form count and five modes at 2."""
    code, out, err = run(["verify", "--p", str(p), "--q", str(q),
                          "--format", "json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["N2"] == report["N2_expected"] == 2 * q + 4 * p - 2
    assert report["threshold_multiplicity"] == 5


def test_verify_beyond_the_mode_cap_names_l0(capsys):
    """At 1000/1999 the l = 0 named sectors still move at M = 256: exit 3,
    ConvergenceFailure naming l = 0, before any other stage."""
    code, _, err = run(["verify", "--p", "1000", "--q", "1999"], capsys)
    assert code == 3
    assert err.startswith("error: ConvergenceFailure: radial eigenvalues at"
                          " l = 0 ")
    assert len(err.strip().splitlines()) == 1


def test_quadrature_failure_exit_code(monkeypatch, capsys):
    """A period quadrature that reaches its last level above tolerance
    raises IntegrationFailure, which is exit 3: the run stops rather than
    go on with a result short of its tolerance.  Capped at level 2, the
    rule never reaches level 3, the first at which it may stop."""
    monkeypatch.setattr(geodesic, "_TANH_SINH", geodesic._TANH_SINH[:3])
    code, _, err = run(["verify", "--p", "3", "--q", "5"], capsys)
    assert code == 3
    assert err.startswith("error: IntegrationFailure: ")
    assert len(err.strip().splitlines()) == 1


def test_l_max_flag_and_key_are_ignored(tmp_path, capsys):
    """--l-max still parses and changes no output; the config key only
    draws the unread-key warning."""
    base = run(["verify", "--p", "3", "--q", "5"], capsys)
    assert base[0] == 0
    assert run(["verify", "--p", "3", "--q", "5", "--l-max", "7"],
               capsys) == base
    cfg = tmp_path / "run.cfg"
    cfg.write_text("l_max = 1\n")
    code, out, err = run(["verify", "--p", "3", "--q", "5",
                          "--config", str(cfg)], capsys)
    assert (code, out) == base[:2]
    assert err == f"warning: {cfg}: l_max read by no command; ignored\n"


def test_grid_size_flag_and_key_are_ignored(tmp_path, capsys):
    """--grid-size still parses, even at 0, and changes no output; the
    config key only draws the unread-key warning."""
    for command in ("verify", "spectrum"):
        argv = [command, "--p", "3", "--q", "5", "--format", "json"]
        base = run(argv, capsys)
        assert base[0] == 0
        for size in ("0", "8", "8192"):
            assert run(argv + ["--grid-size", size], capsys) == base
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_size = 4096\n")
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert (code, out) == base[:2]
    assert err == f"warning: {cfg}: grid_size read by no command; ignored\n"


@pytest.mark.parametrize("argv, ls", [
    (["spectrum", "--p", "3", "--q", "5"], [0, 1]),
    (["cross-check", "--p", "3", "--q", "5", "--grid-size", "1040",
      "--oracle-n-alpha", "32", "--oracle-n-t", "200"], [0, 1]),
    (["spectrum", "--p", "12", "--q", "17", "--lambda-cut", "4.04"],
     [0, 1, 2]),
    (["verify", "--p", "3", "--q", "5"], [0, 1, 2]),
], ids=["spectrum", "cross-check", "spectrum-cut-4.04", "verify"])
def test_radial_solves_follow_the_cut(argv, ls, monkeypatch, capsys):
    """Each command solves each l with l^2 below the cut once, all on one
    chart: spectrum and cross-check by the all-sector solve, one ladder
    per l, verify in its named sectors alone, in one ladder over every
    l, where it adds the ground sector at l = 2 for its ground-state
    certificates."""
    solve, seen, charts = spectrum.solve_radial, [], set()
    settle, ladders = spectrum._settle_modes, []

    def spy(sol, profile, l, *args, **kwargs):
        seen.append(l)
        charts.add(id(kwargs["chart"]))
        return solve(sol, profile, l, *args, **kwargs)

    def settle_spy(chart, requests):
        ladders.append([l for l, *_ in requests])
        charts.add(id(chart))
        return settle(chart, requests)

    monkeypatch.setattr(spectrum, "solve_radial", spy)
    monkeypatch.setattr(spectrum, "_settle_modes", settle_spy)
    code, out, err = run(argv, capsys)
    assert code == 0, err
    verify = argv[0] == "verify"
    assert seen == ([] if verify else ls) and len(charts) == 1
    assert ladders == ([ls] if verify else [[l] for l in ls])
    if "4.04" in argv:
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert {row["l"] for row in rows} == {"0", "1", "2"}


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """``main`` builds its parser once per process: two calls construct
    one top-level ArgumentParser, and a mixed sequence of calls (success,
    usage error, another command, a repeat) prints and exits as the same
    calls do on a fresh parser each."""
    init, built = argparse.ArgumentParser.__init__, []

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    calls = [["verify", "--p", "3", "--q", "5", "--format", "json"],
             ["export-mesh", "--p", "3", "--q", "5"],
             ["spectrum", "--p", "3", "--q", "5", "--format", "text"],
             ["verify", "--p", "3", "--q", "5", "--format", "json"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._build_parser.cache_clear()
    try:
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in calls[:2]:
            outcome(argv)
        assert built.count("otsuki-bipolar") == 1
        monkeypatch.undo()

        cli._build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
    finally:
        cli._build_parser.cache_clear()
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert "--mesh-out" in shared[1][2]
    assert shared == fresh


def test_out_file(tmp_path, capsys):
    path = tmp_path / "sol.json"
    code, out, _ = run(["solve", "--p", "3", "--q", "5", "--format", "json",
                        "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["p"] == 3


def test_console_script_entrypoint():
    # The child process imports the same package as this one.
    src = os.path.dirname(os.path.dirname(otsuki_bipolar.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "otsuki_bipolar.cli", "solve",
         "--p", "5", "--q", "8", "--format", "json"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["q"] == 8
    assert payload["lambda_functional"] == pytest.approx(
        payload["t0"], rel=1e-12)   # even q: functional = 2 * (t0 / 2)


_STARTUP_SCRIPT = """
import contextlib, io, json, sys
from otsuki_bipolar import cli

heavy = ("scipy.special", "scipy.integrate", "scipy.optimize",
         "scipy.sparse", "scipy.linalg", "scipy.spatial")
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["solve", "--p", "3", "--q", "5"],
                 ["verify", "--p", "3", "--q", "5"],
                 ["table", "--pairs", "3/5,5/8"],
                 ["spectrum", "--p", "3", "--q", "5"],
                 ["export-mesh", "--p", "3", "--q", "5", "--n-alpha", "8",
                  "--n-t", "32", "--mesh-out", sys.argv[1]]):
        codes.append(cli.main(argv))
    loaded = sorted(m for m in sys.modules if m.startswith(heavy))
    codes.append(cli.main(["cross-check", "--p", "3", "--q", "5"]))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "after": "scipy.linalg" in sys.modules}))
"""


def test_numpy_only_commands_do_not_import_scipy(tmp_path):
    """In a fresh interpreter, solve, verify, table, spectrum and
    export-mesh leave every scipy subpackage unloaded: the library's own
    Carlson forms, tanh-sinh rule and Brent root serve them.
    cross-check still runs, and loads scipy.linalg then."""
    src = os.path.dirname(os.path.dirname(otsuki_bipolar.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path / "mesh.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"codes": [0] * 6, "loaded": [], "after": True}
