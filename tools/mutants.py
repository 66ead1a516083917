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
the copy's file is mutated, its named tests run in one pytest process
(``PYTHONPATH=src``, one BLAS thread, and ``-o addopts=``, so that
``pyproject.toml``'s ``-m 'not sweep'`` does not deselect a ``sweep``
test named by its node id), each test's outcome is read from
that run's ``--junitxml`` report, and the file is restored.  A mutant is
caught when every one of its tests fails (a failure or an error in the
report); a test that passes or is skipped lets it survive, and a test
missing from the report (no such test, a collection error) is an error.
One line per entry reports caught, SURVIVED or an error, with the tests
that did not fail.

Exits 1 if a mutant survives, an old text is missing or not unique, a
test errs, or an unmutated test fails; 0 otherwise.  The committed list
(21 mutants) takes ~80 s on a 2-core host; the ``sweep`` test
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
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "tools", "mutants.json")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".bench_out", "*.egg-info")


def run_tests(tree: str, tests: list[str], report: str | None = None) -> int:
    """pytest's exit code for ``tests`` run in ``tree``, in one process;
    with ``report``, the run's junit XML is written there."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    xml = [f"--junitxml={report}"] if report else []
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "addopts=", *xml, *tests], cwd=tree, env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def failed_tests(report: str, tests: list[str]) -> dict[str, bool | None]:
    """Whether each node id of ``tests`` failed in a junit XML report, or
    None if the report has no case of it.  pytest names a case by its node
    id: the file's path with dots for slashes and without ``.py``, then
    any class, as ``classname``, and the function with its parameters as
    ``name``.  A node id without parameters stands for every case of its
    function, and it failed if one of them did (a failure or an error), as
    pytest's exit code would say for that id alone."""
    cases = {}
    if os.path.exists(report):
        for case in ET.parse(report).getroot().iter("testcase"):
            cases.setdefault(case.get("classname"), []).append((
                case.get("name"),
                any(child.tag in ("failure", "error") for child in case)))
    found = {}
    for test in tests:
        path, *parts = test.split("::")
        module = path.removesuffix(".py").replace("/", ".")
        name = parts[-1]
        outcomes = [bad for case, bad in cases.get(
                        ".".join([module, *parts[:-1]]), [])
                    if case == name or case.startswith(name + "[")]
        found[test] = any(outcomes) if outcomes else None
    return found


def try_mutant(entry: dict, tree: str) -> tuple[str, list[str]]:
    """Mutate, test and restore one entry: its status and the tests that
    did not fail as they should."""
    path = os.path.join(tree, entry["file"])
    report = os.path.join(os.path.dirname(tree), "report.xml")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    found = text.count(entry["old"])
    if found != 1:
        return f"old text found {found} times", []
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(entry["old"], entry["new"]))
        if os.path.exists(report):
            os.remove(report)
        run_tests(tree, entry["tests"], report)
        failed = failed_tests(report, entry["tests"])
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    missing = [t for t, bad in failed.items() if bad is None]
    if missing:
        return "error", missing
    passed = [t for t, bad in failed.items() if not bad]
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
            label = "not run" if status == "error" else "not failed"
            print(f"{status:9} {entry['name']} ({entry['file']},"
                  f" {time.perf_counter() - start:.1f} s)"
                  + "".join(f"\n          {label}: {t}" for t in bad))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
