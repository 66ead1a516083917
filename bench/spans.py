"""Span tracing for the benchmark's traced run.

The tracer wraps the public names that each calling module looks up at
call time (``cli`` calls ``spectrum.verify_theorem3``, ``spectrum`` calls
its own ``eigen`` binding, and so on), so the library under ``src/`` is
measured unmodified.  A span records its name, start, end, parent span
and op id; spans are kept in memory and written out once, at the end of
the run.  Outside an op (set-up, reference computations of the output
checks) the wrappers pass straight through.
"""

from __future__ import annotations

import functools
import json
import os
import re
import statistics
import time
from collections import defaultdict

_RESIDUAL = re.compile(r"unit-speed residual ([0-9.eE+-]+)")


class Tracer:
    """In-memory span recorder with module-attribute wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def wrap(self, module, attr: str, name: str, note=None):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``note(args, kwargs, result, exc)`` returns extra span attributes;
        ``result`` is None when the call raised ``exc``.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return original(*args, **kwargs)
            span = {"id": len(tracer.spans), "name": name, "op": tracer.op_id,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "start": time.perf_counter(), "end": None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            result, error = None, None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if note is not None:
                    span.update(note(args, kwargs, result, error))

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def unwrap(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, cli, geodesic, immersion, oracle, spectrum):
    """Wrap every layer boundary the benchmark reports on."""
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(spectrum, "verify_theorem3", "spectrum.verify_theorem3",
                _note_report)
    for module, attr in ((geodesic, "solve_rotation"),
                         (spectrum, "solve_rotation")):
        tracer.wrap(module, attr, "geodesic.solve_rotation")
    for module, attr in ((geodesic, "profile"), (spectrum, "build_profile")):
        tracer.wrap(module, attr, "geodesic.profile", _note_profile)
    tracer.wrap(spectrum, "i2", "elliptic.i2")
    tracer.wrap(spectrum, "solve_radial", "spectrum.solve_radial",
                lambda a, k, r, e: {"l": int(a[2] if len(a) > 2 else k["l"])})
    tracer.wrap(spectrum, "eigen", "sturm.eigen", _note_eigen)
    tracer.wrap(spectrum, "assemble", "spectrum.assemble", _note_assemble)
    tracer.wrap(oracle, "dense_spectrum", "oracle.dense_spectrum", _note_oracle)
    tracer.wrap(oracle, "match_table", "oracle.match_table")
    tracer.wrap(immersion, "export_mesh", "immersion.export_mesh",
                _note_export)
    tracer.wrap(immersion, "build_mesh", "immersion.build_mesh")


def _note_profile(args, kwargs, result, exc):
    if result is not None:
        return {"residual": float(result.unit_speed_residual)}
    found = _RESIDUAL.search(str(exc))
    return {"residual": float(found.group(1))} if found else {}


def _note_eigen(args, kwargs, result, exc):
    count = args[1] if len(args) > 1 else kwargs["count"]
    grid = args[2] if len(args) > 2 else kwargs.get("grid_size", 2048)
    return {"count": int(count), "grid": int(grid)}


def _note_assemble(args, kwargs, result, exc):
    if result is None:
        return {}
    cut = result.lambda_cut
    return {"kept_below_cut": sum(1 for e in result.entries
                                  if e.kept and e.effective_lam < cut)}


def _note_report(args, kwargs, result, exc):
    """Pin window against the smallest sub-threshold margin."""
    if result is None:
        return {}
    margins = [c.margin for c in result.certificates
               if c.name in ("subcritical_radial_mode_below_two",
                             "l1_predecessor_below_two")]
    return {"passed": bool(result.passed), "eps_grid": float(result.eps_grid),
            "pin_window": max(50.0 * result.eps_grid, 1e-6),
            "min_margin": float(min(margins))}


def _note_oracle(args, kwargs, result, exc):
    grid = args[0] if args else kwargs["grid"]
    note = {"unknowns": int(grid.n_alpha * grid.n_t)}
    if result is not None:
        note["below_cut"] = int(result.eigenvalues.size)
    return note


def _note_export(args, kwargs, result, exc):
    path = args[4] if len(args) > 4 else kwargs["path"]
    return {"bytes": os.path.getsize(path)} if result is not None else {}


def layer_metrics(spans: list[dict], ops: list[dict],
                  theorem2_residual: float) -> dict:
    """Per-layer metrics of a traced run as {name: (value, unit)}.

    Times are seconds per attempted op; self time is a span's duration
    minus the durations of its child spans.  Layers a workload does not
    reach report 0.
    """
    n_ops = len(ops)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    self_time = dict(dur)
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= dur[s["id"]]

    def named(name, where=lambda s: True):
        return [s for s in spans if s["name"] == name and where(s)]

    def per_op(name, times=dur, where=lambda s: True):
        return sum(times[s["id"]] for s in named(name, where)) / n_ops, "s/op"

    eigen = named("sturm.eigen")
    profiles = named("geodesic.profile")
    reports = [s for s in named("spectrum.verify_theorem3") if "passed" in s]
    passes = [s for s in reports if s["passed"]]
    verify_ops = {s["op"] for s in reports}

    # The larger of an op's two oracle grids is the fine one.
    fine_ids = set()
    by_op = defaultdict(list)
    for s in named("oracle.dense_spectrum"):
        by_op[s["op"]].append(s)
    for group in by_op.values():
        fine_ids.add(max(group, key=lambda s: s["unknowns"])["id"])
    fine = [s for s in named("oracle.dense_spectrum") if s["id"] in fine_ids]

    oracle_eps = [json.loads(o["stdout"])["oracle_eps"] for o in ops
                  if o["ok"] and "oracle_eps" in o["stdout"]]
    verify_s = sum(dur[s["id"]] for s in named("spectrum.verify_theorem3"))
    radial_in_verify = sum(dur[s["id"]] for s in named("spectrum.solve_radial")
                           if s["op"] in verify_ops)
    pairs = sum(s["count"] for s in eigen)
    kept = sum(s.get("kept_below_cut", 0) for s in named("spectrum.assemble"))
    export_self = sum(self_time[s["id"]] for s in named("immersion.export_mesh"))
    written = sum(s.get("bytes", 0) for s in named("immersion.export_mesh"))
    busy = sum(o["op_s"] for o in ops)

    metrics = {
        "cli.self_s": per_op("cli.main", self_time),
        "geodesic.solve_rotation_s": per_op("geodesic.solve_rotation"),
        "geodesic.profile_s": per_op("geodesic.profile"),
        "geodesic.profile_failures": (sum("error" in s for s in profiles),
                                      "count"),
        "geodesic.unit_speed_residual_max": (
            max((s.get("residual", 0.0) for s in profiles), default=0.0), "1"),
        "elliptic.i2_s": per_op("elliptic.i2"),
    }
    for l in range(4):
        metrics[f"spectrum.solve_radial_s.l{l}"] = per_op(
            "spectrum.solve_radial", where=lambda s, l=l: s["l"] == l)
    metrics.update({
        "sturm.eigen_s": per_op("sturm.eigen"),
        "sturm.eigen_calls": (len(eigen) / n_ops, "count/op"),
        "sturm.pairs_requested": (pairs / n_ops, "count/op"),
        "spectrum.useful_pair_ratio": (kept / pairs if pairs else 0.0, "ratio"),
        "spectrum.grid_n": (statistics.median(s["grid"] for s in eigen)
                            if eigen else 0, "count"),
        "spectrum.assemble_s": per_op("spectrum.assemble", self_time),
        "spectrum.verify_self_s": per_op("spectrum.verify_theorem3", self_time),
        "spectrum.solve_radial_share": (
            radial_in_verify / verify_s if verify_s else 0.0, "ratio"),
        "spectrum.eps_grid_max": (
            max((s["eps_grid"] for s in reports), default=0.0), "1"),
        "spectrum.unresolved_ratio": (
            sum(s["pin_window"] > s["min_margin"] for s in passes) / len(passes)
            if passes else 0.0, "ratio"),
        "oracle.dense_spectrum_s.fine": per_op(
            "oracle.dense_spectrum", where=lambda s: s["id"] in fine_ids),
        "oracle.dense_spectrum_s.coarse": per_op(
            "oracle.dense_spectrum", where=lambda s: s["id"] not in fine_ids),
        "oracle.unknowns": (max((s["unknowns"] for s in fine), default=0),
                            "count"),
        "oracle.eigs_below_cut": (
            statistics.mean(s["below_cut"] for s in fine if "below_cut" in s)
            if fine else 0.0, "count"),
        "oracle.match_table_s": per_op("oracle.match_table"),
        "oracle.eps": (max(oracle_eps, default=0.0), "1"),
        "oracle.theorem2_residual": (theorem2_residual, "1"),
        "immersion.build_mesh_s": per_op("immersion.build_mesh"),
        "immersion.write_s": (export_self / n_ops, "s/op"),
        "immersion.bytes_written": (written / n_ops, "B/op"),
        "immersion.write_MBps": (
            written / export_self / 1e6 if export_self else 0.0, "MB/s"),
        "bench.ops_per_s_traced": (sum(o["ok"] for o in ops) / busy, "1/s"),
        "bench.spans_per_op": (len(spans) / n_ops, "count/op"),
    })
    return metrics
