"""Print a SHA-256 digest of every command output a refactor must keep.

Runs ``otsuki_bipolar.cli.main`` in-process from the ``src`` tree next to
this file and prints one ``sha256 command input`` line per run:

  * ``verify`` and ``spectrum --format json`` on every reduced p/q in
    (1/2, sqrt(2)/2) with q <= 40, and on 51/101;
  * one ``table --pairs`` run over the p/q with q <= 40;
  * ``export-mesh`` CSV and OBJ at 64x768 vertices with q <= 20;
  * ``cross-check --format json`` at the default oracle grid with q <= 20.

Each digest covers the exit code and the bytes written: stdout, or the
mesh file for ``export-mesh``.  Two trees produce the same outputs when
their listings are identical:

    python3 tools/output_digest.py > after.txt
    diff before.txt after.txt

BLAS runs on one thread, so a listing does not depend on the core count.
The 284 runs take about a minute on a 2-core host.
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


def fractions(q_max: int) -> list[tuple[int, int]]:
    """Reduced p/q in (1/2, sqrt(2)/2) with q <= q_max, by q then p."""
    return [(p, q) for q in range(3, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


def digest(argv: list[str], out_file: Path | None = None) -> str:
    """SHA-256 of the exit code and of stdout, or of ``out_file`` if given."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    body = out_file.read_bytes() if out_file else stdout.getvalue().encode()
    return hashlib.sha256(f"exit {rc}\n".encode() + body).hexdigest()


def runs(tmp: Path):
    """(command label, input, argv, output file or None) of every run."""
    for p, q in fractions(40) + [(51, 101)]:
        pq = ["--p", str(p), "--q", str(q), "--format", "json"]
        yield "verify", f"{p}/{q}", ["verify", *pq], None
        yield "spectrum", f"{p}/{q}", ["spectrum", *pq], None
    pairs = ",".join(f"{p}/{q}" for p, q in fractions(40))
    yield "table", "q<=40", ["table", "--pairs", pairs], None
    for p, q in fractions(20):
        for fmt in ("csv", "obj"):
            path = tmp / f"mesh.{fmt}"
            yield (f"export-mesh-{fmt}", f"{p}/{q}",
                   ["export-mesh", "--p", str(p), "--q", str(q),
                    "--n-alpha", "64", "--n-t", "768", "--mesh-format", fmt,
                    "--mesh-out", str(path)], path)
    for p, q in fractions(20):
        yield ("cross-check", f"{p}/{q}",
               ["cross-check", "--p", str(p), "--q", str(q), "--format", "json"],
               None)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, name, argv, out_file in runs(Path(tmp)):
            print(f"{digest(argv, out_file)} {label} {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
