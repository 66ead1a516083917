"""Command-line front end.

Commands:

  solve        geometric data (a, b, c, t0, residual, functional) for one p/q
  verify       full counting verification with named certificates
  spectrum     assembled mode table below the cutoff
  table        batch CSV over a list of p/q values
  cross-check  2-D brute-force spectrum vs the separated assembly
  export-mesh  vertex grid of the immersed surface (CSV or OBJ)

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical failure.  All floating-point output is printed with 15
significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import geodesic, immersion, oracle, spectrum
from .config import RunConfig, make_config
from .errors import (
    ConvergenceFailure,
    DegenerateGrid,
    DomainError,
    IntegrationFailure,
    InsufficientLMax,
    NoRoot,
    ResolutionTooCoarse,
    SubperiodViolation,
    VerificationFailed,
)

_USAGE_ERROR = 2
_NUMERICAL_ERROR = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_flat(payload: dict, cfg):
    """One flat payload as indented JSON, a one-row CSV or key = value text."""
    if cfg.output_format == "json":
        text = json.dumps(spectrum.json_ready(payload), indent=2)
    elif cfg.output_format == "csv":
        text = (",".join(payload) + "\n"
                + ",".join(_fmt(v) for v in payload.values()))
    else:
        text = "\n".join(f"{k} = {_fmt(v)}" for k, v in payload.items())
    _emit(text, cfg.output_path)


def _rotation(cfg) -> geodesic.RotationNumber:
    if cfg.p is None or cfg.q is None:
        raise argparse.ArgumentTypeError("--p and --q are required")
    try:
        return geodesic.RotationNumber(cfg.p, cfg.q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_pairs(spec_str: str) -> list[tuple[int, int]]:
    pairs = []
    for token in spec_str.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            p_str, q_str = token.split("/")
            pairs.append((int(p_str), int(q_str)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad rotation number {token!r}, expected p/q") from exc
    return pairs


def cmd_solve(cfg) -> int:
    r = _rotation(cfg)
    sol = geodesic.solve_rotation(r)
    lam = spectrum.lambda_functional(sol)
    payload = {
        "p": r.p, "q": r.q,
        "a": sol.a, "b": sol.b, "c": sol.c,
        "t0": sol.t0, "s_total": sol.s_total,
        "omega_residual": sol.omega_residual,
        "lambda_functional": lam,
        "upper_bound": spectrum.lambda_functional_bound(sol),
    }
    _emit_flat(payload, cfg)
    return 0


def cmd_verify(cfg) -> int:
    r = _rotation(cfg)
    try:
        report = spectrum.verify_theorem3(
            r, grid_size=cfg.grid_size, l_max=cfg.l_max,
            lambda_cut=cfg.lambda_cut,
            functional_tol=cfg.tolerances["functional_agreement"],
            omega_tol=cfg.tolerances["omega_residual"],
            raise_on_failure=False)
    except InsufficientLMax as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    _emit_report(report, cfg)
    return 0 if report.passed else 1


def _emit_report(report, cfg):
    if cfg.output_format == "json":
        _emit(report.to_json(), cfg.output_path)
        return
    lines = [
        f"rotation = {report.rotation}",
        f"a = {_fmt(report.a)}",
        f"b = {_fmt(report.b)}",
        f"t0 = {_fmt(report.t0)}",
        f"N2 = {report.n2_computed} (expected {report.n2_expected})",
        f"lambda_functional = {_fmt(report.lambda_value)}"
        f" (< {_fmt(report.upper_bound)})",
        f"threshold_multiplicity = {report.threshold_multiplicity}",
        f"eps_grid = {_fmt(report.eps_grid)}",
    ]
    for c in report.certificates:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name}: lhs={_fmt(c.lhs)}"
                     f" rhs={_fmt(c.rhs)} margin={_fmt(c.margin)}")
    lines.append("result = " + ("PASS" if report.passed else "FAIL"))
    _emit("\n".join(lines), cfg.output_path)


def cmd_spectrum(cfg) -> int:
    r = _rotation(cfg)
    sol = geodesic.solve_rotation(r)
    table = spectrum.assemble(sol, None, l_max=cfg.l_max,
                              lambda_cut=cfg.lambda_cut,
                              grid_size=cfg.grid_size)
    n2 = spectrum.weyl_N(table, 2.0)
    rows = [(e.l, e.i, e.lam, e.multiplicity, e.kept, e.reason, e.zero_count,
             e.pinned_two) for e in table.entries]
    if cfg.output_format == "json":
        payload = {
            "p": r.p, "q": r.q, "N2": n2,
            "entries": [
                {"l": l, "i": i, "lambda": lam, "multiplicity": m,
                 "kept": kept, "reason": reason, "zero_count": z,
                 "at_threshold": pin}
                for (l, i, lam, m, kept, reason, z, pin) in rows],
        }
        _emit(json.dumps(spectrum.json_ready(payload), indent=2),
              cfg.output_path)
    else:
        header = "l,i,lambda,multiplicity,kept,reason,zero_count,at_threshold"
        body = "\n".join(
            f"{l},{i},{_fmt(lam)},{m},{kept},{reason},{z},{pin}"
            for (l, i, lam, m, kept, reason, z, pin) in rows)
        if cfg.output_format == "csv":
            _emit(header + "\n" + body, cfg.output_path)
        else:
            _emit(f"N2 = {n2}\n" + header + "\n" + body, cfg.output_path)
    return 0


def cmd_table(cfg, pairs) -> int:
    seen, unique = set(), []
    for pair in pairs:
        if pair in seen:
            print(f"warning: duplicate rotation number {pair[0]}/{pair[1]}"
                  " dropped", file=sys.stderr)
            continue
        seen.add(pair)
        unique.append(pair)

    rows = []
    for p, q in unique:
        r = geodesic.RotationNumber(p, q)
        report = spectrum.verify_theorem3(
            r, grid_size=cfg.grid_size, l_max=cfg.l_max,
            lambda_cut=cfg.lambda_cut,
            functional_tol=cfg.tolerances["functional_agreement"],
            omega_tol=cfg.tolerances["omega_residual"],
            raise_on_failure=True)
        rows.append((p, q, report.a, report.b, report.t0,
                     report.n2_computed, report.lambda_value,
                     report.upper_bound))
    header = "p,q,a,b,t0,N2,lambda_functional,upper_bound"
    body = "\n".join(",".join(_fmt(x) for x in row) for row in rows)
    _emit(header + ("\n" + body if body else ""), cfg.output_path)
    return 0


def cmd_cross_check(cfg) -> int:
    r = _rotation(cfg)
    sol = geodesic.solve_rotation(r)
    prof = geodesic.profile(sol)

    table = spectrum.assemble(sol, prof, l_max=cfg.l_max,
                              lambda_cut=cfg.lambda_cut,
                              grid_size=cfg.grid_size)
    # The table's multiplicity below the cut, removed modes included
    # (the oracle grid double-covers the surface for even q), sizes the
    # oracle's first Lanczos request; the oracle grows k on its own if
    # this is short, so its count stays independent of the table.
    k_start = sum(e.multiplicity for e in table.entries) + 2
    fine = oracle.dense_spectrum(
        oracle.TorusGrid(prof, cfg.oracle_n_alpha, cfg.oracle_n_t),
        cfg.lambda_cut, k_start=k_start)

    def coarser(n):         # two thirds of n, rounded down to even
        return max(32, (2 * n) // 3 // 2 * 2)

    coarse = oracle.dense_spectrum(
        oracle.TorusGrid(prof, coarser(cfg.oracle_n_alpha),
                         coarser(cfg.oracle_n_t)),
        cfg.lambda_cut, k_start=k_start)

    kept_fine = np.sort(fine.kept_eigenvalues())
    kept_coarse = np.sort(coarse.kept_eigenvalues())
    m = min(kept_fine.size, kept_coarse.size)
    eps_oracle = float(np.max(np.abs(kept_fine[:m] - kept_coarse[:m])) / 1.25)

    window = max(2.0 * eps_oracle, 0.02)
    if window > 0.02:
        print(f"warning: oracle error {eps_oracle:.3g} widens the threshold"
              f" window to {window:.3g} at"
              f" {fine.grid.points_per_half_oscillation():.1f} points per"
              " half-oscillation; modes near the threshold may be"
              " unresolved", file=sys.stderr)
    pair_tol = max(2.0 * eps_oracle, 1e-3)
    ok, diff, n_oracle, n_table = oracle.match_table(
        fine, table, 2.0, window, pair_tol)
    n2 = spectrum.weyl_N(table, 2.0)
    payload = {
        "p": r.p, "q": r.q,
        "N2_assembled": n2,
        "n_below_2_oracle": n_oracle,
        "n_below_2_assembled": n_table,
        "max_pairwise_difference": diff if math.isfinite(diff) else None,
        "pair_tolerance": pair_tol,
        "oracle_eps": eps_oracle,
        "threshold_window": window,
        "counts_agree": bool(n_oracle == n_table),
        "pass": bool(ok),
    }
    _emit_flat(payload, cfg)
    return 0 if ok else 1


def cmd_export_mesh(cfg, path: str) -> int:
    r = _rotation(cfg)
    sol = geodesic.solve_rotation(r)
    prof = geodesic.profile(sol)
    immersion.export_mesh(prof, cfg.n_alpha, cfg.n_t, cfg.mesh_format, path)
    print(f"wrote {cfg.n_alpha * cfg.n_t} vertices to {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otsuki-bipolar",
        description="Bipolar surfaces of Otsuki tori: spectra and counting checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_pq=True):
        if with_pq:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--grid-size", type=int, dest="grid_size")
        sp.add_argument("--l-max", type=int, dest="l_max")
        sp.add_argument("--lambda-cut", type=float, dest="lambda_cut")
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        dest="output_format")
        sp.add_argument("--out", dest="output_path")
        sp.add_argument("--config", dest="config_path")

    add_common(sub.add_parser("solve", help="solve one rotation number"))
    add_common(sub.add_parser("verify", help="verify the counting theorem"))
    add_common(sub.add_parser("spectrum", help="print the mode table"))

    sp = sub.add_parser("table", help="batch table over rotation numbers")
    sp.add_argument("--pairs", required=True,
                    help="comma-separated list like 3/5,5/8")
    add_common(sp, with_pq=False)

    sp = sub.add_parser("cross-check", help="2-D oracle vs assembled table")
    add_common(sp)
    sp.add_argument("--oracle-n-alpha", type=int, dest="oracle_n_alpha")
    sp.add_argument("--oracle-n-t", type=int, dest="oracle_n_t")

    sp = sub.add_parser("export-mesh", help="write an immersed vertex grid")
    add_common(sp)
    sp.add_argument("--n-alpha", type=int, dest="n_alpha")
    sp.add_argument("--n-t", type=int, dest="n_t")
    sp.add_argument("--mesh-format", choices=("csv", "obj"),
                    dest="mesh_format")
    sp.add_argument("--mesh-out", dest="mesh_out", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {f.name: getattr(args, f.name)
                     for f in dataclasses.fields(RunConfig)
                     if hasattr(args, f.name)}
        cfg = make_config(getattr(args, "config_path", None), **overrides)

        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "table":
            return cmd_table(cfg, _parse_pairs(args.pairs))
        if args.command == "cross-check":
            return cmd_cross_check(cfg)
        if args.command == "export-mesh":
            return cmd_export_mesh(cfg, args.mesh_out)
        parser.error(f"unknown command {args.command!r}")
    except (argparse.ArgumentTypeError, ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except VerificationFailed as exc:
        if exc.report is not None:
            _emit_report(exc.report, cfg)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoRoot, ResolutionTooCoarse, IntegrationFailure,
            ConvergenceFailure, DegenerateGrid, SubperiodViolation,
            InsufficientLMax) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
