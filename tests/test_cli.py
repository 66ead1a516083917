"""Command-line interface: formats, exit codes, config precedence."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import otsuki_bipolar
from otsuki_bipolar.cli import main
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


def test_table_empty_batch(capsys):
    code, out, _ = run(["table", "--pairs", ","], capsys)
    assert code == 0
    assert out.strip() == "p,q,a,b,t0,N2,lambda_functional,upper_bound"


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


def test_cross_check_odd_coarse_alpha_grid(capsys):
    """--oracle-n-alpha 50 gives a coarse grid of 2*50//3 = 33 columns,
    rounded down to an even 32."""
    code, _, err = run(["cross-check", "--p", "2", "--q", "3",
                        "--oracle-n-alpha", "50", "--oracle-n-t", "96",
                        "--format", "json"], capsys)
    assert code in (0, 1), err


@pytest.mark.sweep
@pytest.mark.parametrize("pq", [(p, q) for q in range(4, 21, 2)
                                for p in range(1, q) if math.gcd(p, q) == 1
                                and q < 2 * p and 2 * p * p < q * q])
def test_cross_check_even_q_sweep(pq, capsys):
    """cross-check at the default oracle grid on the 9 even-q reduced p/q
    with q <= 20.  Deselected by default; run with ``pytest -m sweep``
    (~43 s on 2 cores)."""
    code, out, _ = run(["cross-check", "--p", str(pq[0]), "--q", str(pq[1]),
                        "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["counts_agree"] and payload["pass"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ngrid_size = 1040\nlambda_cut = 2.4\n"
                   "tol.functional_agreement = 1e-7\n")
    code, out, _ = run(["verify", "--p", "3", "--q", "5",
                        "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["N2"] == 20


def test_config_omega_tolerance_reaches_verify(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol.omega_residual = 0.5\n")
    code, out, err = run(["verify", "--p", "3", "--q", "5",
                          "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0 and err == ""
    certs = {c["name"]: c for c in json.loads(out)["certificates"]}
    assert certs["closed_geodesic_residual"]["pass"]
    assert certs["closed_geodesic_residual"]["margin"] == pytest.approx(
        0.5, abs=1e-12)


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


@pytest.mark.parametrize("line", ["grid_size = 1e3", "lambda_cut = two",
                                  "tol.omega_residual = tiny"])
def test_config_file_bad_value_names_its_line(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# bad value below\n" + line + "\n")
    code, _, err = run(["verify", "--p", "3", "--q", "5",
                        "--config", str(cfg)], capsys)
    assert code == 2
    assert f"{cfg}:2" in err and repr(line.split(" = ")[0]) in err


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
