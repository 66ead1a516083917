"""Print a SHA-256 digest of every command output a refactor must keep.

Runs ``otsuki_bipolar.cli.main`` in-process from the ``src`` tree next to
this file and prints one ``sha256 command input`` line per output:

  * ``verify`` and ``spectrum --format json`` on every reduced p/q in
    (1/2, sqrt(2)/2) with q <= 40, and on 51/101;
  * ``verify --format json`` on 101/201, 126/251, 250/499, 500/999 and
    1000/1999, near 1/2, where the named sectors' levels take 128 or 256
    Magnus steps per cell (``hill.levels``);
  * ``spectrum --format json`` on 101/201, where a row other than the
    five at 2 lies 5.1e-5 from 2, the nearest any fraction here comes to
    the threshold window that decides which rows are at 2;
  * one ``table --pairs`` run over the p/q with q <= 40;
  * ``export-mesh`` CSV and OBJ at 64x768 vertices with q <= 20, at
    16x128 vertices with q <= 40 and on 51/101, at 8x7001 vertices on
    3/5, 51/101 and 2/3 (a row split into vertex blocks; the OBJ of 2/3
    drops v) and at 9x700 vertices on 3/5 and 51/101 (blocks that do not
    divide the rows);
  * ``cross-check --format json`` at the default oracle grid with q <= 20;
  * ``solve`` in every format, ``verify`` and ``spectrum`` in csv and
    text, and both in json at ``--lambda-cut 4.04`` (which admits the
    l = 2 modes) and at ``--grid-size 8`` (which changes no output),
    with q <= 20;
  * ``solve --format json`` on 101/201, 126/251, 201/401, 250/499,
    500/999 and 1000/1999, near 1/2, where xi is flat and the solve's
    bracket widens below a = 1e-4 (1000/1999);
  * ``cross-check`` in csv and text at a 32x128 oracle grid with q <= 8;
  * ``verify --format json`` at ``--lambda-cut 2.01`` and under a config
    file that sets ``tol.omega_residual`` and ``tol.functional_agreement``
    to the defaults of ``spectrum.verify_theorem3``, with q <= 8, and one
    ``table --format json`` run over the same p/q under that file: verify
    and table read neither setting, so these match the default bytes;
  * the empty ``table --pairs ,`` in every format;
  * export-mesh's stdout and stderr: the ``wrote`` line of each mesh
    run above (label ``-stdout``), and its json and csv summaries at 8x8
    vertices with q <= 20.

Each digest covers the exit code and the bytes written: stdout and
stderr, or the mesh file for ``export-mesh``.  So a changed error or
warning line shows, such as an exit-3 message.  Meshes are
written to relative paths in a temporary working directory, so the paths
that export-mesh prints do not change between runs.  Two trees produce
the same outputs when their listings are identical:

    python3 tools/output_digest.py > after.txt
    diff before.txt after.txt

BLAS runs on one thread, so a listing does not depend on the core count.
The 1,145 lines take about 20 s on a 2-core host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is first imported
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otsuki_bipolar import cli  # noqa: E402

TOL_CONFIG = "tol.omega_residual = 1e-11\ntol.functional_agreement = 1e-8\n"


def fractions(q_max: int) -> list[tuple[int, int]]:
    """Reduced p/q in (1/2, sqrt(2)/2) with q <= q_max, by q then p."""
    return [(p, q) for q in range(3, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


def digest(argv: list[str], out_file: Path | None = None):
    """SHA-256 of the exit code with ``out_file`` if given, then with
    stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    bodies = [f"{stdout.getvalue()}\nstderr\n{stderr.getvalue()}".encode()]
    if out_file:
        bodies.insert(0, out_file.read_bytes())
    return [hashlib.sha256(f"exit {rc}\n".encode() + body).hexdigest()
            for body in bodies]


def runs():
    """(command label, input, argv, mesh file or None) of every run."""
    for p, q in fractions(40) + [(51, 101)]:
        pq = ["--p", str(p), "--q", str(q), "--format", "json"]
        yield "verify", f"{p}/{q}", ["verify", *pq], None
        yield "spectrum", f"{p}/{q}", ["spectrum", *pq], None
    for p, q in ((101, 201), (126, 251), (250, 499), (500, 999), (1000, 1999)):
        yield ("verify", f"{p}/{q}",
               ["verify", "--p", str(p), "--q", str(q), "--format", "json"],
               None)
    yield ("spectrum", "101/201",
           ["spectrum", "--p", "101", "--q", "201", "--format", "json"], None)
    pairs = ",".join(f"{p}/{q}" for p, q in fractions(40))
    yield "table", "q<=40", ["table", "--pairs", pairs], None
    for grid, n_alpha, n_t, pqs in (
            ("", "64", "768", fractions(20)),
            ("-16x128", "16", "128", fractions(40) + [(51, 101)]),
            ("-8x7001", "8", "7001", [(3, 5), (51, 101), (2, 3)]),
            ("-9x700", "9", "700", [(3, 5), (51, 101)])):
        for p, q in pqs:
            for fmt in ("csv", "obj"):
                path = Path(f"mesh.{fmt}")
                yield (f"export-mesh{grid}-{fmt}", f"{p}/{q}",
                       ["export-mesh", "--p", str(p), "--q", str(q),
                        "--n-alpha", n_alpha, "--n-t", n_t,
                        "--mesh-format", fmt, "--mesh-out", str(path)], path)
    for p, q in fractions(20):
        yield ("cross-check", f"{p}/{q}",
               ["cross-check", "--p", str(p), "--q", str(q), "--format", "json"],
               None)
    for p, q in fractions(20):
        pq = ["--p", str(p), "--q", str(q)]
        for command, fmts in (("solve", ("json", "csv", "text")),
                              ("verify", ("csv", "text")),
                              ("spectrum", ("csv", "text"))):
            for fmt in fmts:
                yield (f"{command}-{fmt}", f"{p}/{q}",
                       [command, *pq, "--format", fmt], None)
        for command in ("verify", "spectrum"):
            yield (f"{command}-cut-4.04", f"{p}/{q}",
                   [command, *pq, "--format", "json", "--lambda-cut", "4.04"],
                   None)
            yield (f"{command}-grid-size-8", f"{p}/{q}",
                   [command, *pq, "--format", "json", "--grid-size", "8"],
                   None)
        for fmt in ("json", "csv"):
            yield (f"export-mesh-summary-{fmt}", f"{p}/{q}",
                   ["export-mesh", *pq, "--n-alpha", "8", "--n-t", "8",
                    "--mesh-out", "summary.csv", "--format", fmt], None)
    for p, q in ((101, 201), (126, 251), (201, 401), (250, 499), (500, 999),
                 (1000, 1999)):
        yield ("solve-json", f"{p}/{q}",
               ["solve", "--p", str(p), "--q", str(q), "--format", "json"], None)
    for p, q in fractions(8):
        for fmt in ("csv", "text"):
            yield (f"cross-check-{fmt}", f"{p}/{q}",
                   ["cross-check", "--p", str(p), "--q", str(q),
                    "--oracle-n-alpha", "32", "--oracle-n-t", "128",
                    "--format", fmt], None)
    for p, q in fractions(8):
        argv = ["verify", "--p", str(p), "--q", str(q), "--format", "json"]
        yield ("verify-cut-2.01", f"{p}/{q}",
               argv + ["--lambda-cut", "2.01"], None)
        yield ("verify-tol-config", f"{p}/{q}",
               argv + ["--config", "tol.cfg"], None)
    pairs = ",".join(f"{p}/{q}" for p, q in fractions(8))
    yield ("table-tol-config", "q<=8", ["table", "--pairs", pairs, "--format",
                                        "json", "--config", "tol.cfg"], None)
    for fmt in ("json", "csv", "text"):
        yield (f"table-{fmt}", "empty",
               ["table", "--pairs", ",", "--format", fmt], None)


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("tol.cfg").write_text(TOL_CONFIG)
        try:
            for label, name, argv, out_file in runs():
                labels = [label, f"{label}-stdout"] if out_file else [label]
                for sha, tag in zip(digest(argv, out_file), labels):
                    print(f"{sha} {tag} {name}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
