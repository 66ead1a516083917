"""Dump ``verify`` and ``solve`` values of one tree, or compare two dumps.

    cd TREE && python3 /path/to/tools/compare_verify.py --dump FILE
    python3 tools/compare_verify.py --compare OLD NEW

``--dump`` imports ``otsuki_bipolar`` from ``src`` under the current
directory, so one copy of this script measures any checkout, and writes
a JSON object keyed by ``p/q`` for the 630 reduced p/q in
(1/2, sqrt(2)/2) with q <= 100 and for 101/201, 126/251, 250/499 and
500/999.  Each entry holds ``solve``, the fields a, b, t0, s_total and
omega_residual of ``geodesic.solve_rotation``, and ``verify``,
``spectrum.verify_theorem3(...).to_dict()``; a stage that raises a
NumericalFailure is recorded as its class and message instead.  Where
``verify`` reached its Hill count, the entry also holds ``hill``: the
resolved Magnus ``steps`` per cell and delta (the count's lambdas are
2 -+ delta), taken by wrapping ``hill.count`` while the dump runs; and
``levels``: the Chebyshev ``nodes`` in lambda and the Magnus ``steps``
per cell of the ``hill.levels`` call that gives the named sectors'
levels at l = 0, 1 and 2 (one call serves all three l).  Where
``verify`` reached the Hill pass that follows its count, the entry holds
``pass``: that ``hill._roots`` call's ``steps`` per cell and the two
identity residuals at lambda = 2 of its first two rows,
``theta_n0_minus_pi`` (l = 0, theta_n(2) - pi) and ``delta1_minus_2cos``
(l = 1, Delta(2) - 2 cos(pi p/q)).  Floats are written with all their
digits.  A tree from before ``hill.levels`` (whose verify took its
levels from a Galerkin ladder) is dumped with that tree's copy of this
tool; its dump holds ``ladder`` (the stop M of each l) where this one
holds ``levels``, and each counts as not recorded in the other.

``--compare`` prints, for every key and every certificate field, how many
fractions changed, the largest relative change and the largest absolute
change, and lists each fraction whose stage raised in one dump but not the
other, or whose certificates differ by name.  It exits 1 if any of these,
or any N2, N2_expected, threshold_multiplicity, Hill step count or pass
flag, or any levels node or step count or Hill pass step count,
differs.  A fraction whose ``hill``, ``ladder``, ``levels`` or ``pass``
field one dump lacks (a dump made before or after the field existed) is
counted as not recorded, not as a difference.  A dump takes about 5 s
on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is first imported

EXACT = ("N2", "N2_expected", "threshold_multiplicity", "hill.steps",
         "ladder.l0", "ladder.l1", "ladder.l2", "levels.nodes",
         "levels.steps", "pass.steps")
STAGES = ("solve", "verify")
RECORDED = ("hill", "ladder", "levels", "pass")   # fields a dump may lack
SOLVE_FIELDS = ("a", "b", "t0", "s_total", "omega_residual")
NEAR_ONE_HALF = ((101, 201), (126, 251), (250, 499), (500, 999))


def fractions(q_max: int) -> list[tuple[int, int]]:
    """Reduced p/q in (1/2, sqrt(2)/2) with q <= q_max, by q then p."""
    return [(p, q) for q in range(3, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


def dump(path: str) -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from otsuki_bipolar import geodesic, hill, spectrum
    from otsuki_bipolar.errors import NumericalFailure

    print(f"measuring {geodesic.__file__}", file=sys.stderr)
    counts = []
    count = hill.count

    def recording(*args, **kwargs):
        counts.append(count(*args, **kwargs))
        return counts[-1]

    levels, sector_roots, grids = hill.levels, hill._sector_roots, {}

    def recording_levels(coefficients, requests):
        found, steps = levels(coefficients, requests)
        grids["steps"] = steps
        return found, steps

    def recording_roots(coef, *args):
        grids["nodes"] = coef.shape[-1]
        return sector_roots(coef, *args)

    roots, passes = hill._roots, []

    def recording_pass(coefficients, l, kappa, level, start, lam, steps):
        found = roots(coefficients, l, kappa, level, start, lam, steps)
        passes.append((steps, found[1][0]))
        return found

    hill.count = recording
    hill.levels = recording_levels
    hill._sector_roots = recording_roots
    hill._roots = recording_pass
    out = {}
    for p, q in fractions(100) + list(NEAR_ONE_HALF):
        r = geodesic.RotationNumber(p, q)
        entry = {}
        counts.clear()
        grids.clear()
        passes.clear()
        for stage, run in (
                ("solve", lambda: {k: getattr(geodesic.solve_rotation(r), k)
                                   for k in SOLVE_FIELDS}),
                ("verify", lambda: spectrum.verify_theorem3(
                    r, raise_on_failure=False).to_dict())):
            try:
                entry[stage] = run()
            except NumericalFailure as exc:
                entry[stage] = {"error": f"{type(exc).__name__}: {exc}"}
        if counts:
            below, above = counts[-1].lams
            entry["hill"] = {"steps": counts[-1].steps,
                             "delta": 0.5 * (above - below)}
            entry["levels"] = dict(sorted(grids.items()))
        if passes:
            steps, (trace, _, theta_n) = passes[-1]
            entry["pass"] = {
                "steps": steps,
                "theta_n0_minus_pi": theta_n[0] - math.pi,
                "delta1_minus_2cos": trace[1] - 2.0 * math.cos(math.pi * p / q)}
        out[f"{p}/{q}"] = entry
    with open(path, "w") as fh:
        json.dump(out, fh)


def _flatten(entry: dict) -> dict:
    """Every compared value of one fraction under a flat key."""
    flat = {f"solve.{k}": v for k, v in entry["solve"].items()}
    for field in RECORDED:
        flat.update({f"{field}.{k}": v
                     for k, v in entry.get(field, {}).items()})
    for k, v in entry["verify"].items():
        if k == "certificates":
            for c in v:
                for field in ("lhs", "rhs", "margin", "pass"):
                    flat[f"{c['name']}.{field}"] = c[field]
        else:
            flat[k] = v
    return flat


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    bad = [f"fraction sets differ: {sorted(set(old) ^ set(new))}"] if (
        set(old) != set(new)) else []
    stats = {}      # key -> [changed, compared, max relative, max absolute]
    unrecorded = {(path, field): 0 for path in (old_path, new_path)
                  for field in RECORDED}
    for pq in (pq for pq in old if pq in new):
        a, b = old[pq], new[pq]
        for path, entry in ((old_path, a), (new_path, b)):
            for field in RECORDED:
                unrecorded[path, field] += field not in entry
        raised = [s for s in STAGES if "error" in a[s] or "error" in b[s]]
        for s in raised:
            if a[s] != b[s]:
                bad.append(f"{pq}: {s} {a[s].get('error', 'ran')}"
                           f" -> {b[s].get('error', 'ran')}")
        if raised:
            continue
        fa, fb = _flatten(a), _flatten(b)
        for field in RECORDED:
            if field not in a or field not in b:
                for flat in (fa, fb):
                    for key in [k for k in flat if k.startswith(field + ".")]:
                        del flat[key]
        if fa.keys() != fb.keys():
            bad.append(f"{pq}: keys differ: {sorted(fa.keys() ^ fb.keys())}")
        for key in (key for key in fa if key in fb):
            x, y = fa[key], fb[key]
            s = stats.setdefault(key, [0, 0, 0.0, 0.0])
            s[1] += 1
            if x == y:
                continue
            s[0] += 1
            if key in EXACT or key.endswith(".pass"):
                bad.append(f"{pq}: {key} {x} -> {y}")
            if isinstance(x, (int, float)) and isinstance(y, (int, float)):
                diff = abs(y - x)
                s[2] = max(s[2], diff / abs(x) if x else math.inf)
                s[3] = max(s[3], diff)
    width = max(map(len, stats), default=3)
    print(f"{'key':<{width}}  changed  max_rel   max_abs")
    for key in sorted(stats):
        changed, n, rel, absolute = stats[key]
        print(f"{key:<{width}}  {changed:>3}/{n:<3}  {rel:.1e}  {absolute:.1e}")
    for (path, field), n in unrecorded.items():
        if n:
            print(f"{field} not recorded for {n} fractions in {path}")
    for line in bad:
        print(f"DIFFERS {line}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", metavar="FILE")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.dump:
        dump(args.dump)
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
