"""Run the committed mutants: each must make its named tests fail.

    python3 tools/mutants.py

Runs every entry of ``tools/mutants.json``, the JSON list next to this
file.  Each entry has a ``name``, a line ``what`` saying what the
mutant breaks, a ``file`` relative to the repository root, the exact
``old`` text, which must occur once in that file, the ``new`` text that
replaces it, and the pytest node ids in ``tests`` that the replacement
must make fail.

The tree (without ``.git`` and caches) is copied once into a temporary
directory, and the working tree is never written.  The union of the named
tests first runs there unmutated and must pass.  Then, for each entry,
the copy's file is mutated, each named test runs on its own (``pytest -q
-x``, ``PYTHONPATH=src``, one BLAS thread), and the file is restored.
A mutant is caught when every one of its tests fails (pytest exit code
1); a test that passes lets it survive, and any other exit code (no such
test, a collection error) is an error.  One line per entry reports
caught, SURVIVED or an error, with the tests that passed or erred.

Exits 1 if a mutant survives, an old text is missing or not unique, a
test errs, or an unmutated test fails; 0 otherwise.  The committed list
(15 mutants) takes ~90 s on a 2-core host; the ``sweep`` test
``tests/test_mutants.py`` runs it and requires exit 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "tools", "mutants.json")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".bench_out", "*.egg-info")


def run_tests(tree: str, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` run in ``tree``."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def try_mutant(entry: dict, tree: str) -> tuple[str, list[str]]:
    """Mutate, test and restore one entry: its status and the tests that
    did not fail as they should."""
    path = os.path.join(tree, entry["file"])
    with open(path, encoding="utf-8") as f:
        text = f.read()
    found = text.count(entry["old"])
    if found != 1:
        return f"old text found {found} times", []
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(entry["old"], entry["new"]))
        codes = {test: run_tests(tree, [test]) for test in entry["tests"]}
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    passed = [t for t, code in codes.items() if code == 0]
    erred = [t for t, code in codes.items() if code not in (0, 1)]
    if erred:
        return "error", erred
    return ("SURVIVED", passed) if passed else ("caught", [])


def main() -> int:
    with open(MUTANTS, encoding="utf-8") as f:
        entries = json.load(f)
    failed = False
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        tests = sorted({t for e in entries for t in e["tests"]})
        code = run_tests(tree, tests)
        if code != 0:
            print(f"the unmutated tree fails its tests (pytest exit {code})")
            return 1
        for entry in entries:
            start = time.perf_counter()
            status, bad = try_mutant(entry, tree)
            failed |= status != "caught"
            print(f"{status:9} {entry['name']} ({entry['file']},"
                  f" {time.perf_counter() - start:.1f} s)"
                  + "".join(f"\n          not failed: {t}" for t in bad))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
