"""Cold-start wall time of the command-line front end, and the scipy
subpackages each command loads.

    python3 tools/cold_start.py [--runs 7]

For ``verify`` and ``cross-check`` on 3/5, and ``export-mesh`` of 3/5 at
64x768 vertices (CSV, into a temporary directory), it times ``--runs``
fresh ``python -m otsuki_bipolar.cli`` processes, importing the package
from src/ with BLAS on one thread, and prints their median wall time.
One more fresh interpreter per command runs it through ``runpy`` and
lists the scipy subpackages in ``sys.modules`` at its end.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

_LOADED = """
import runpy, sys
sys.argv = ["otsuki-bipolar"] + sys.argv[1:]
try:
    runpy.run_module("otsuki_bipolar.cli", run_name="__main__")
except SystemExit:
    pass
print(" ".join(sorted({".".join(m.split(".")[:2]) for m in sys.modules
                       if m.startswith("scipy.") and not m.startswith("scipy._")})),
      file=sys.stderr)
"""


def commands(out_dir: str) -> dict[str, list[str]]:
    mesh = os.path.join(out_dir, "mesh.csv")
    return {
        "verify 3/5": ["verify", "--p", "3", "--q", "5"],
        "export-mesh 3/5": ["export-mesh", "--p", "3", "--q", "5",
                            "--n-alpha", "64", "--n-t", "768",
                            "--mesh-out", mesh],
        "cross-check 3/5": ["cross-check", "--p", "3", "--q", "5"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=7)
    args = ap.parse_args(argv)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as out_dir:
        for name, cmd in commands(out_dir).items():
            walls = []
            for _ in range(args.runs):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "otsuki_bipolar.cli",
                                *cmd], env=env, check=True,
                               stdout=subprocess.DEVNULL)
                walls.append(time.perf_counter() - start)
            loaded = subprocess.run(
                [sys.executable, "-c", _LOADED, *cmd], env=env, check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True).stderr.strip()
            print(f"{name:16s} median {statistics.median(walls):.3f} s over"
                  f" {args.runs} runs (min {min(walls):.3f}, max"
                  f" {max(walls):.3f}); scipy loaded: {loaded or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
