"""Command-line front end.

Commands:

  solve        geometric data (a, b, c, t0, residual, functional) for one p/q
  verify       full counting verification with named certificates
  spectrum     assembled mode table below the cutoff
  table        batch rows over p/q values, each with its verification status
  cross-check  2-D brute-force spectrum vs the separated assembly
  export-mesh  vertex grid of the immersed surface (CSV or OBJ)

Every result goes through one emitter, ``_emit``, as JSON, as CSV (a
flat payload is one row; verify's certificates, spectrum's entries and
table's rows are rows) or as text: the command's own, else ``key =
value`` lines of a flat payload or the CSV of rows.

Exit codes: 0 success, 1 verification failure, 2 usage error (a bad
argument or config value, an unreadable config file, an unwritable
output path), 3 numerical failure (stderr names its class).  All
floating-point output is printed with 15 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import geodesic, immersion, oracle, spectrum
from .config import RunConfig, make_config
from .errors import NumericalFailure, VerificationFailed

_USAGE_ERROR = 2
_NUMERICAL_ERROR = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _csv(header, rows) -> str:
    """A header line over one comma-separated line per row of values."""
    return "\n".join([",".join(header),
                      *(",".join(_fmt(v) for v in row) for row in rows)])


def _emit(cfg, payload, rows=None, text=None):
    """Write one command's result to stdout, or to ``--out``, in its format.

    ``payload`` is the JSON value.  ``rows`` is the CSV body as a header
    and rows of values; by default the flat ``payload`` is one row.
    ``text`` is the command's own text; by default text is ``key =
    value`` lines of a flat payload, or the CSV of a row result.
    """
    if cfg.output_format == "json":
        out = json.dumps(spectrum.json_ready(payload), indent=2)
    elif cfg.output_format == "text" and text is not None:
        out = text
    elif cfg.output_format == "text" and rows is None:
        out = "\n".join(f"{k} = {_fmt(v)}" for k, v in payload.items())
    else:
        out = _csv(*(rows or (payload, [payload.values()])))
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _parse_pairs(spec_str: str) -> list[geodesic.RotationNumber]:
    """The rotation numbers of ``--pairs``, each checked before any solve."""
    pairs = []
    for token in spec_str.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            p_str, q_str = token.split("/")
            p, q = int(p_str), int(q_str)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad rotation number {token!r}, expected p/q") from exc
        pairs.append(geodesic.RotationNumber(p, q))
    return pairs


def _solve(cfg):
    """The closed geodesic of the run's p/q."""
    return geodesic.solve_rotation(geodesic.RotationNumber(cfg.p, cfg.q))


def cmd_solve(cfg) -> int:
    sol = _solve(cfg)
    _emit(cfg, {
        "p": cfg.p, "q": cfg.q,
        "a": sol.a, "b": sol.b, "c": sol.c,
        "t0": sol.t0, "s_total": sol.s_total,
        "omega_residual": sol.omega_residual,
        "lambda_functional": spectrum.lambda_functional(sol),
        "upper_bound": spectrum.lambda_functional_bound(sol),
    })
    return 0


def cmd_verify(cfg) -> int:
    report = spectrum.verify_theorem3(geodesic.RotationNumber(cfg.p, cfg.q),
                                      raise_on_failure=False)
    _emit_report(cfg, report)
    return 0 if report.passed else 1


def _emit_report(cfg, report):
    """A verification report: its certificates are the CSV rows, and its
    text lines are built only for ``--format text``."""
    payload = report.to_dict()
    certs = payload["certificates"]
    _emit(cfg, payload, rows=(certs[0], [c.values() for c in certs]),
          text=_report_text(report) if cfg.output_format == "text" else None)


def _report_text(report) -> str:
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
    return "\n".join(lines)


def cmd_spectrum(cfg) -> int:
    sol = _solve(cfg)
    table = spectrum.assemble(sol, None, lambda_cut=cfg.lambda_cut)
    n2 = spectrum.weyl_N(table, 2.0)
    header = ("l", "i", "lambda", "multiplicity", "kept", "reason",
              "zero_count", "at_threshold")
    rows = [(e.l, e.i, e.lam, e.multiplicity, e.kept, e.reason, e.zero_count,
             e.pinned_two) for e in table.entries]
    payload = {"p": cfg.p, "q": cfg.q, "N2": n2,
               "entries": [dict(zip(header, row)) for row in rows]}
    _emit(cfg, payload, rows=(header, rows),
          text=f"N2 = {n2}\n" + _csv(header, rows))
    return 0


def cmd_table(cfg, pairs) -> int:
    seen, unique = set(), []
    for r in pairs:
        if r in seen:
            print(f"warning: duplicate rotation number {r} dropped",
                  file=sys.stderr)
            continue
        seen.add(r)
        unique.append(r)

    header = ("p", "q", "a", "b", "t0", "N2", "lambda_functional",
              "upper_bound", "status")
    rows = []
    for r in unique:
        try:
            report = spectrum.verify_theorem3(r, raise_on_failure=False)
        except NumericalFailure as exc:
            rows.append((r.p, r.q, *[None] * 6, type(exc).__name__))
            continue
        bad = report.first_failure()
        rows.append((r.p, r.q, report.a, report.b, report.t0,
                     report.n2_computed, report.lambda_value,
                     report.upper_bound, "ok" if bad is None else bad.name))
    # A failed row's missing values are null in JSON and empty in CSV.
    _emit(cfg, [dict(zip(header, row)) for row in rows],
          rows=(header, [["" if v is None else v for v in row]
                         for row in rows]))
    failed = [f"{p}/{q} ({status})" for p, q, *_, status in rows
              if status != "ok"]
    if failed:
        raise VerificationFailed(f"{len(failed)} of {len(rows)} table rows"
                                 f" not ok: {', '.join(failed)}")
    return 0


def cmd_cross_check(cfg) -> int:
    payload = oracle.cross_check(_solve(cfg), cfg.oracle_n_alpha,
                                 cfg.oracle_n_t, cfg.lambda_cut)
    if payload["threshold_window"] > oracle.WINDOW_FLOOR:
        print(f"warning: oracle error {payload['oracle_eps']:.3g} widens the"
              f" threshold window to {payload['threshold_window']:.3g} at"
              f" {cfg.oracle_n_t / (2 * cfg.q):.1f} points per"
              " half-oscillation; modes near the threshold may be"
              " unresolved", file=sys.stderr)
    _emit(cfg, {"p": cfg.p, "q": cfg.q, **payload})
    return 0 if payload["pass"] else 1


def cmd_export_mesh(cfg, path: str) -> int:
    # The mesh reads the chart, never the sampled arrays: take the least, 16.
    immersion.export_mesh(geodesic.profile(_solve(cfg), 16), cfg.n_alpha,
                          cfg.n_t, cfg.mesh_format, path)
    n = cfg.n_alpha * cfg.n_t
    _emit(cfg, {"p": cfg.p, "q": cfg.q, "vertices": n,
                "mesh_format": cfg.mesh_format, "path": path},
          text=f"wrote {n} vertices to {path}")
    return 0


_COMMANDS = {
    "solve": lambda cfg, args: cmd_solve(cfg),
    "verify": lambda cfg, args: cmd_verify(cfg),
    "spectrum": lambda cfg, args: cmd_spectrum(cfg),
    "table": lambda cfg, args: cmd_table(cfg, _parse_pairs(args.pairs)),
    "cross-check": lambda cfg, args: cmd_cross_check(cfg),
    "export-mesh": lambda cfg, args: cmd_export_mesh(cfg, args.mesh_out),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves it unchanged,
    so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="otsuki-bipolar",
        description="Bipolar surfaces of Otsuki tori: spectra and counting checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_pq=True):
        if with_pq:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--grid-size", type=int,
                        help="ignored: the radial sampling is fixed")
        sp.add_argument("--l-max", type=int,
                        help="ignored: --lambda-cut sets the l solved")
        sp.add_argument("--lambda-cut", type=float, dest="lambda_cut",
                        help="eigenvalue cutoff; read by spectrum and"
                        " cross-check only")
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
    args = _build_parser().parse_args(argv)
    try:
        overrides = {f.name: getattr(args, f.name)
                     for f in dataclasses.fields(RunConfig)
                     if hasattr(args, f.name)}
        cfg = make_config(getattr(args, "config_path", None), **overrides)
        return _COMMANDS[args.command](cfg, args)
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    except (argparse.ArgumentTypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
