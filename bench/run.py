"""Closed-loop benchmark of the otsuki-bipolar command-line front end.

Run from the root of a checkout (the library is imported from src/):

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 10 --trace 0

One client drives ``cli.main([...])`` in-process; each op starts only
after the previous one has returned and its output has been checked.
Every run makes exactly one pass over the workload's fraction set (see
``workloads.py``); the sets are sized so that at this commit a pass
outlasts ``--seconds``, and the output notes a pass that ends sooner.
Set-up times, and op times on verify-sweep and mesh-export, are
host-adjusted: each wall time is divided by the host's slowness, sampled
just before and just after it (see ``hostspeed.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer boundary (see ``spans.py``) and prints the per-layer metrics
instead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Exit codes: 0 with a result, 1 when the output checks fail their own
self-check or no op succeeds, 2 when the library is missing or the set-up
op fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
WORKLOADS = ("verify-sweep", "cross-check", "mesh-export")
SETUP_REPEATS = 5
BLAS_THREADS = 1
# Stop mid-pass after this much pass time so a run always exits within
# the 180 s a run may take, however slow the program under test is.
LOOP_CAP_S = 140.0
# The traced cross-check run also reports the theorem-2 residual of the
# immersed coordinates for 3/5 on a 128x1024 oracle grid.
RESIDUAL_CASE = (3, 5, 128, 1024)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def limit_blas_threads() -> tuple[int, int]:
    """Run BLAS on one thread; returns (nproc, BLAS threads).

    One client process on one BLAS thread leaves the other cores to the
    rest of the machine, which keeps timings steadier on a small shared
    host.  Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0)), BLAS_THREADS


def environment_stamp(seed: int, nproc: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": vendor, "nproc": nproc, "blas_threads": threads}


def measure_setup(argv: list, probe) -> list[tuple]:
    """(wall, host-adjusted) times of fresh interpreters that import the
    CLI, build its parser and run one warm-up op (``python -m
    otsuki_bipolar.cli``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times, before = [], probe.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "otsuki_bipolar.cli", *argv], cwd=ROOT,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=60)
        wall = time.perf_counter() - start
        after = probe.sample()
        times.append((wall, probe.adjust(wall, before, after)))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up op {' '.join(argv)} exited"
                               f" {proc.returncode}: {proc.stderr.strip()}")
    return times


def run_op(cli, argv: list) -> tuple:
    """(exit code or None, latency s, stdout, stderr, crash or None)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:     # a crash is a failed op, never the run's end
        rc, crash = None, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue(), crash


def checked(workload, op, rc, stdout) -> tuple:
    """The workload's check, with a malformed output counted as failed."""
    try:
        return workload.check(op, rc, stdout)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return False, None, f"unreadable output: {type(exc).__name__}: {exc}"


def self_check(cli, workload) -> str | None:
    """Run the warm-up ops and prove the check tells right from wrong.

    Each warm-up output must pass its check, and a copy corrupted by the
    workload (an N(2) off by one, an oracle count off by one, a CSV or OBJ
    mesh row that does not round-trip) must fail it.  Returns a problem or
    None.
    """
    for op, argv in workload.warmups:
        rc, _, stdout, _, crash = run_op(cli, argv)
        if crash:
            return f"warm-up op {op.label} crashed: {crash}"
        ok, _, reason = checked(workload, op, rc, stdout)
        if not ok:
            return f"warm-up op {op.label} failed its check: {reason}"
        bad_op, bad_out = workload.corrupt(op, stdout)
        if checked(workload, bad_op, rc, bad_out)[0]:
            return f"the output check accepted a corrupted {op.label} output"
    return None


def run_pass(cli, workload, seed: int, probe, tracer=None) -> list:
    """One seeded pass over the workload's fraction set.

    Every run makes exactly one pass, so two runs do the same ops however
    fast the program is.  Only verify-sweep repeats a fraction within a
    run (one op per round); the per-round medians printed after the pass
    would show a cache inside the library serving the later rounds.
    """
    ops, start = [], time.perf_counter()
    before = probe.sample()
    for op in workload.pass_ops(random.Random(seed)):
        if time.perf_counter() - start > LOOP_CAP_S:
            break
        if tracer is not None:
            tracer.op_id = len(ops)
        rc, latency, stdout, stderr, crash = run_op(cli, workload.argv(op))
        if tracer is not None:
            tracer.op_id = None
        after = probe.sample()
        adjusted = probe.adjust(latency, before, after)
        slowness, before = (before, after), after
        if crash:
            ok, err, reason = False, None, crash
        else:
            ok, err, reason = checked(workload, op, rc, stdout)
            if rc and stderr.strip():
                reason += ": " + stderr.strip().splitlines()[-1]
        ops.append({"op": len(ops), "label": op.label, "rc": rc,
                    "latency": latency, "adjusted": adjusted,
                    "op_s": adjusted if workload.host_adjusted else latency,
                    "slowness": slowness, "ok": ok,
                    "err": err, "reason": reason, "crash": crash is not None,
                    "stdout": stdout})
    return ops


def timing(ops: list, key: str) -> dict:
    """ops_per_s, op_p50_s and op_tail_s from the op times under ``key``
    (the metrics' "op_s" or the wall "latency"), and the tail percentile."""
    lat = sorted(o[key] for o in ops if o["ok"])
    n = len(lat)
    # Highest percentile with at least ten ops beyond it; with fewer than
    # eleven successful ops there is none and the slowest op stands in.
    tail, pct = (lat[n - 11], 100.0 * (n - 10) / n) if n >= 11 else (lat[-1], 100.0)
    return {"ops_per_s": n / sum(o[key] for o in ops),
            "op_p50_s": statistics.median(lat), "op_tail_s": tail,
            "tail_note": f"p{pct:.1f} of {n} successful ops"}


def end_to_end(ops: list, setup: list[tuple]) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes that give the wall times beside
    the op times they use."""
    op, wall = timing(ops, "op_s"), timing(ops, "latency")
    failed = sum(not o["ok"] for o in ops)
    metrics = {
        "setup_s": (statistics.median(a for _, a in setup), "s"),
        "ops_per_s": (op["ops_per_s"], "1/s"),
        "op_p50_s": (op["op_p50_s"], "s"),
        "op_tail_s": (op["op_tail_s"], "s"),
        "ok_ratio": (1.0 - failed / len(ops), "ratio"),
        "err_max": (max(o["err"] for o in ops if o["err"] is not None), "abs"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{a:.3f}" for _, a in setup)
                   + "; wall " + ", ".join(f"{w:.3f}" for w, _ in setup),
        "ops_per_s": f"wall {wall['ops_per_s']:.6g}",
        "op_p50_s": f"wall {wall['op_p50_s']:.6g}",
        "op_tail_s": f"{op['tail_note']}, wall {wall['op_tail_s']:.6g}",
        "ok_ratio": f"failed_ratio {failed / len(ops):.6g}"
                    f" = {failed}/{len(ops)}",
    }
    return metrics, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def theorem2_residual(geodesic, oracle) -> float:
    p, q, na, nt = RESIDUAL_CASE
    prof = geodesic.profile(geodesic.solve_rotation(geodesic.RotationNumber(p, q)))
    return oracle.theorem2_residual(prof, oracle.TorusGrid(prof, na, nt))


def print_metrics(metrics: dict, notes: dict):
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {value:.6g} {unit}{extra}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otsuki_bipolar" / "cli.py").is_file():
        print(f"error: no otsuki_bipolar sources under {SRC}; run from the"
              " root of a checkout", file=sys.stderr)
        return 2
    nproc, threads = limit_blas_threads()
    sys.path.insert(0, str(SRC))

    from otsuki_bipolar import cli, geodesic, immersion, oracle, spectrum

    import hostspeed
    import spans
    import workloads

    WORK.mkdir(exist_ok=True)
    workload = workloads.make_workloads(str(WORK))[args.workload]
    stamp = environment_stamp(args.seed, nproc, threads)
    stamp.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(stamp), flush=True)

    probe = hostspeed.HostProbe()
    setup = []
    if not args.trace:
        try:
            setup = measure_setup(workload.warmups[0][1], probe)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    problem = self_check(cli, workload)
    if problem:
        print(f"error: self-check: {problem}", file=sys.stderr)
        return 1
    print("self-check: every warm-up output passes its check and a corrupted"
          " copy fails it")

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, cli, geodesic, immersion, oracle, spectrum)
    started = time.perf_counter()
    ops = run_pass(cli, workload, args.seed, probe, tracer)
    wall = time.perf_counter() - started
    for path in WORK.glob("mesh*"):
        path.unlink()

    failed = [o for o in ops if not o["ok"]]
    correct = not any(o["crash"] or (o["rc"] == 0 and not o["ok"]) for o in ops)
    if len(failed) == len(ops):
        print(f"error: all {len(ops)} ops failed, first: {failed[0]['label']}:"
              f" {failed[0]['reason']}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {len(ops)} of {workload.pass_length}"
          f" ops of one pass in {wall:.1f} s, {len(failed)} failed")
    if wall < args.seconds:
        print(f"note: the pass took less than --seconds {args.seconds:g}")
    for o in failed:
        print(f"  failed {o['label']}: {o['reason']}")
    if workload.rounds > 1:
        size = workload.pass_length // workload.rounds
        rounds = [[o["adjusted"] for o in ops[i:i + size] if o["ok"]]
                  for i in range(0, len(ops), size)]
        print("median host-adjusted op time by round: "
              + ", ".join(f"{statistics.median(r):.3f} s" for r in rounds if r))

    if args.trace:
        tracer.unwrap()
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        residual = (theorem2_residual(geodesic, oracle)
                    if args.workload == "cross-check" else 0.0)
        metrics = spans.layer_metrics(tracer.spans, ops, residual)
        print(f"per-layer metrics (spans in {spans_path.relative_to(ROOT)}):")
        print_metrics(metrics, {})
    else:
        metrics, notes = end_to_end(ops, setup)
        slowness = [o["latency"] / o["adjusted"] for o in ops]
        print(f"host slowness over the pass: median"
              f" {statistics.median(slowness):.3f}, range"
              f" {min(slowness):.3f}-{max(slowness):.3f}")
        print("end-to-end metrics:")
        print_metrics(metrics, notes)

    record = {"env": stamp, "ops": [{k: v for k, v in o.items() if k != "stdout"}
                                    for o in ops],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(WORK / f"result-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
