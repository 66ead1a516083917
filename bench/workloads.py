"""Workload inputs and output checks.

Every workload is one pass over a fixed set of rotation numbers p/q.  A
pass is a fixed number of rounds; a round visits each fraction once, with
all of its ops together, in an order drawn from the seed.  Any two runs
of one workload therefore do the same work, and differ only in its order
and in timing noise.

Each check returns ``(ok, err, reason)``: ``err`` is the op's accuracy
figure (None when the op produced nothing to measure) and ``reason`` says
why a failed op failed.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from otsuki_bipolar import geodesic, immersion

# Largest q in the mesh-export fraction set: 27 fractions, both parities
# of q, four of them (7/13, 8/15, 9/17, 10/19) below p/q = 0.545 where the
# profile stage fails today.
MESH_Q_MAX = 20
# The verify-sweep set stops at q = 16: 16 fractions, two of them (7/13,
# 8/15) failing today.  A verify op costs 0.15-1.3 s, rising with q, so
# the median op is one of a few fractions; three rounds give each fraction
# three latencies taken at different times, and a pass of 25-30 s.
VERIFY_Q_MAX = 16
VERIFY_ROUNDS = 3
# cross-check ops cost 7-13 s each at the default oracle grid, so its set
# is the two fractions with q <= 5.
CROSS_CHECK_Q_MAX = 5
ORACLE_GRID = (96, 768)
# A 64x768 export writes 4.3 MB of CSV in 0.6-0.9 s.  The mesh-export pass
# of 27 CSV and 13 OBJ exports then takes 30-40 s, long enough to average
# over the seconds-long swings in speed of a shared host.  Warm-ups export
# at 16x128.
MESH_GRID = (64, 768)
WARMUP_MESH_GRID = (16, 128)

# The three closed-form eigenvalue-2 modes, by certificate name.
THRESHOLD_CERTIFICATES = (
    "radial_eigenvalue_two_at_l0_position_2q",
    "radial_eigenvalue_two_at_l1_position_2p_minus_1",
    "radial_eigenvalue_two_at_l1_position_2p",
)
# Exported values carry 15 significant digits: the relative rounding
# error is at most 5e-15, plus the error of parsing them back.  The mesh
# workload's err_max is the worst relative deviation, or the worst
# distance of a vertex from the unit 4-sphere if that is larger.
DIGITS15_RTOL = 5.5e-15
SPHERE_TOL = 1e-12


def fractions(q_max: int) -> list[tuple[int, int]]:
    """Every reduced p/q in (1/2, sqrt(2)/2) with q <= q_max, by q then p."""
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


def closed_form_n2(p: int, q: int) -> int:
    """Eigenvalues strictly below 2: 2q + 4p - 2 (odd q), q + 2p - 2 (even q)."""
    return q + 2 * p - 2 if q % 2 == 0 else 2 * q + 4 * p - 2


def functional_bound(q: int) -> float:
    """Strict upper bound 4 sqrt(2) q pi^2 (odd q), half that for even q."""
    bound = 4.0 * math.sqrt(2.0) * q * math.pi ** 2
    return bound / 2.0 if q % 2 == 0 else bound


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    p: int
    q: int
    mesh_format: str | None = None
    mesh_path: str | None = None
    mesh_grid: tuple = MESH_GRID

    @property
    def label(self) -> str:
        suffix = f" {self.mesh_format}" if self.mesh_format else ""
        return f"{self.p}/{self.q}{suffix}"


@dataclass(frozen=True)
class Workload:
    """A fraction set with the ops to run and check for each fraction."""

    groups: list            # per fraction, the list of its ops
    argv: Callable[[Op], list]
    check: Callable[[Op, int, str], tuple]
    corrupt: Callable[[Op, str], tuple]
    # (op, argv) pairs run and self-checked before the pass; the first is
    # also the op of the set-up measurement.
    warmups: list
    rounds: int = 1
    # Whether the metrics use host-adjusted op times (see hostspeed.py).
    host_adjusted: bool = True

    def pass_ops(self, rng: random.Random) -> list[Op]:
        """The ops of one seeded pass: each round in its own order."""
        ops = []
        for _ in range(self.rounds):
            order = list(self.groups)
            rng.shuffle(order)
            ops += [op for group in order for op in group]
        return ops

    @property
    def pass_length(self) -> int:
        return self.rounds * sum(map(len, self.groups))


def _pq(op: Op) -> list:
    return ["--p", str(op.p), "--q", str(op.q)]


# -- verify-sweep ----------------------------------------------------------

def verify_argv(op: Op) -> list:
    return ["verify", *_pq(op), "--format", "json"]


def check_verify(op: Op, rc: int, stdout: str) -> tuple:
    if rc != 0:
        return False, None, f"exit {rc}"
    d = json.loads(stdout)
    n2 = closed_form_n2(op.p, op.q)
    certs = {c["name"]: c for c in d["certificates"]}
    lhs = [certs[name]["lhs"] for name in THRESHOLD_CERTIFICATES
           if name in certs]
    err = max(abs(x - 2.0) for x in lhs) if len(lhs) == 3 else None
    problems = []
    if (d["p"], d["q"]) != (op.p, op.q):
        problems.append(f"report is for {d['p']}/{d['q']}")
    if d["N2"] != n2 or d["N2_expected"] != n2:
        problems.append(f"N2 {d['N2']} (expected {d['N2_expected']}),"
                        f" closed form {n2}")
    if d["threshold_multiplicity"] != 5:
        problems.append(f"threshold multiplicity {d['threshold_multiplicity']}")
    if not d["lambda_functional"] < functional_bound(op.q):
        problems.append(f"functional {d['lambda_functional']} not below"
                        f" {functional_bound(op.q)}")
    if err is None:
        problems.append("threshold certificates missing")
    problems += [f"certificate {c['name']} failed"
                 for c in d["certificates"] if not c["pass"]]
    return not problems, err, "; ".join(problems)


def corrupt_verify(op: Op, stdout: str) -> tuple:
    d = json.loads(stdout)
    d["N2"] += 1
    return op, json.dumps(d)


# -- cross-check -------------------------------------------------------------

def cross_check_argv(op: Op, grid: tuple = ORACLE_GRID) -> list:
    na, nt = grid
    return ["cross-check", *_pq(op), "--format", "json",
            "--oracle-n-alpha", str(na), "--oracle-n-t", str(nt)]


def check_cross_check(op: Op, rc: int, stdout: str) -> tuple:
    if rc != 0:
        return False, None, f"exit {rc}"
    d = json.loads(stdout)
    diff = d["max_pairwise_difference"]
    problems = []
    if (d["p"], d["q"]) != (op.p, op.q):
        problems.append(f"report is for {d['p']}/{d['q']}")
    if not (d["counts_agree"] and d["pass"]):
        problems.append(f"counts_agree={d['counts_agree']} pass={d['pass']}")
    if d["n_below_2_oracle"] != d["n_below_2_assembled"]:
        problems.append(f"oracle counts {d['n_below_2_oracle']},"
                        f" assembly {d['n_below_2_assembled']}")
    if d["N2_assembled"] != closed_form_n2(op.p, op.q):
        problems.append(f"N2 {d['N2_assembled']}, closed form"
                        f" {closed_form_n2(op.p, op.q)}")
    if diff is None or not diff <= d["pair_tolerance"]:
        problems.append(f"pairwise difference {diff} above"
                        f" {d['pair_tolerance']}")
    return not problems, diff, "; ".join(problems)


def corrupt_cross_check(op: Op, stdout: str) -> tuple:
    d = json.loads(stdout)
    d["n_below_2_oracle"] += 1
    return op, json.dumps(d)


# -- mesh-export -------------------------------------------------------------

def mesh_argv(op: Op) -> list:
    na, nt = op.mesh_grid
    return ["export-mesh", *_pq(op), "--n-alpha", str(na), "--n-t", str(nt),
            "--mesh-format", op.mesh_format, "--mesh-out", op.mesh_path]


@lru_cache(maxsize=1)
def _reference_mesh(p: int, q: int, grid: tuple):
    sol = geodesic.solve_rotation(geodesic.RotationNumber(p, q))
    return immersion.build_mesh(geodesic.profile(sol), *grid)


def _digits15_deviation(got: np.ndarray, want: np.ndarray) -> tuple:
    """(max relative deviation, whether every value agrees to 15 digits)."""
    dev = np.abs(got - want)
    scale = np.abs(want)
    rel = np.divide(dev, scale, out=np.where(dev > 0, np.inf, 0.0),
                    where=scale > 0)
    worst = float(rel.max())
    return worst, worst <= DIGITS15_RTOL


def check_mesh(op: Op, rc: int, stdout: str) -> tuple:
    if rc != 0:
        return False, None, f"exit {rc}"
    ref = _reference_mesh(op.p, op.q, op.mesh_grid)
    n = ref.n_alpha * ref.n_t
    if f"wrote {n} vertices" not in stdout:
        return False, None, f"unexpected output {stdout.strip()!r}"
    if op.mesh_format == "csv":
        got = immersion.read_mesh_csv(op.mesh_path)
        if got.shape != (n, 7):
            return False, None, f"csv shape {got.shape}"
        aa, tt = np.meshgrid(ref.alphas, ref.ts, indexing="ij")
        want = np.column_stack([aa.ravel(), tt.ravel(), ref.vertices])
        dev, agree = _digits15_deviation(got, want)
        sphere = float(np.max(np.abs(np.linalg.norm(got[:, 2:], axis=1) - 1.0)))
        problems = [] if agree else ["csv differs from build_mesh beyond"
                                     " 15 significant digits"]
        if sphere > SPHERE_TOL:
            problems.append(f"vertex off the unit 4-sphere by {sphere:.3g}")
        return not problems, max(dev, sphere), "; ".join(problems)
    with open(op.mesh_path) as fh:
        header = fh.readline()
    found = re.search(r"axes kept: \[([0-9, ]+)\]", header)
    keep = np.sort(np.argsort(np.var(ref.vertices, axis=0))[-3:])
    if not found or [int(x) for x in found.group(1).split(",")] != keep.tolist():
        return False, None, f"unexpected obj header {header.strip()!r}"
    got = np.loadtxt(op.mesh_path, comments="#", usecols=(1, 2, 3), ndmin=2)
    if got.shape != (n, 3):
        return False, None, f"obj shape {got.shape}"
    dev, agree = _digits15_deviation(got, ref.vertices[:, keep])
    return agree, dev, "" if agree else ("obj differs from build_mesh beyond"
                                         " 15 significant digits")


def corrupt_mesh(op: Op, stdout: str) -> tuple:
    """Copy of the mesh file whose first vertex row does not round-trip."""
    bad = Op(op.p, op.q, op.mesh_format,
             op.mesh_path.replace("mesh.", "mesh-corrupt."), op.mesh_grid)
    with open(op.mesh_path) as fh:
        lines = fh.readlines()
    sep = "," if op.mesh_format == "csv" else " "
    fields = lines[1].rstrip("\n").split(sep)
    fields[-1] = repr(float(fields[-1]) + 1e-9)
    lines[1] = sep.join(fields) + "\n"
    with open(bad.mesh_path, "w") as fh:
        fh.writelines(lines)
    return bad, stdout


def make_workloads(work_dir: str) -> dict[str, Workload]:
    mesh_set = fractions(MESH_Q_MAX)
    warm = Op(3, 5)
    warm_csv = Op(3, 5, "csv", f"{work_dir}/mesh.csv", WARMUP_MESH_GRID)
    warm_obj = Op(3, 5, "obj", f"{work_dir}/mesh.obj", WARMUP_MESH_GRID)
    # Every fraction exports CSV and every second one (in q order) also
    # OBJ, so the formats alternate.  An OBJ export takes half as long as a
    # CSV one; with equal counts the median would fall in the gap between
    # the two and swing with the slowest OBJ op.
    mesh_groups = [[Op(p, q, "csv", f"{work_dir}/mesh.csv")]
                   + ([Op(p, q, "obj", f"{work_dir}/mesh.obj")] if i % 2 else [])
                   for i, (p, q) in enumerate(mesh_set)]
    return {
        "verify-sweep": Workload(
            [[Op(p, q)] for p, q in fractions(VERIFY_Q_MAX)], verify_argv,
            check_verify, corrupt_verify, [(warm, verify_argv(warm))],
            VERIFY_ROUNDS),
        # The warm-up cuts the oracle grid to 32x256: it loads every code
        # path of the op in about a second.  The op's large sparse
        # eigensolves do not slow down with the host the way the probe
        # does, so this workload reports wall times.
        "cross-check": Workload(
            [[Op(p, q)] for p, q in fractions(CROSS_CHECK_Q_MAX)],
            cross_check_argv, check_cross_check, corrupt_cross_check,
            [(warm, cross_check_argv(warm, (32, 256)))],
            host_adjusted=False),
        "mesh-export": Workload(
            mesh_groups, mesh_argv, check_mesh, corrupt_mesh,
            [(warm_csv, mesh_argv(warm_csv)), (warm_obj, mesh_argv(warm_obj))]),
    }
