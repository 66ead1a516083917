"""Run configuration shared by the command-line front end."""

from __future__ import annotations

import math
import sys
import typing
from dataclasses import dataclass

from .errors import in_interval

# Accepted in config files, but no command reads them (p and q come
# only from the --p/--q flags; the angular indices from lambda_cut; the
# radial sampling and verify's certificate tolerances are fixed).
UNREAD_KEYS = ("p", "q", "l_max", "grid_size", "samples_per_half_period",
               "tol.correspondence", "tol.hausdorff", "tol.omega_residual",
               "tol.functional_agreement")


@dataclass
class RunConfig:
    """Resolved options for one command invocation.

    Precedence is flags > config file > defaults; the config file is a
    flat ``key = value`` text format (# comments allowed).  Each field
    is set in a file under its name and parsed with its type; every
    ``int`` field must be positive, and ``lambda_cut`` must be a finite
    number above 2.
    """

    p: int | None = None
    q: int | None = None
    oracle_n_alpha: int = 96
    oracle_n_t: int = 768
    lambda_cut: float = 2.5
    n_alpha: int = 64
    n_t: int = 256
    mesh_format: str = "csv"
    output_format: str = "text"
    output_path: str | None = None

    def __post_init__(self):
        for name, tp in _TYPES.items():
            if tp is int and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        in_interval(self.lambda_cut, "lambda_cut", 2.0, math.inf)
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.mesh_format not in ("csv", "obj"):
            raise ValueError(f"unknown mesh format {self.mesh_format!r}")


_TYPES = typing.get_type_hints(RunConfig)
# config-file key -> type: each field's own, and raw text for unread keys
_FILE_KEYS = _TYPES | dict.fromkeys(UNREAD_KEYS, str)


def parse_config_file(path: str) -> dict:
    """Parse the flat key-value config format into an override dict.

    Keys in ``UNREAD_KEYS`` are kept as their raw text for the caller
    to warn about.
    """
    overrides: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _FILE_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            tp = _FILE_KEYS[key]
            parse = (typing.get_args(tp) or (tp,))[0]    # str | None -> str
            try:
                overrides[key] = parse(value)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return overrides


def make_config(file_path: str | None = None, **flag_overrides) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and flags."""
    merged: dict = {}
    if file_path:
        merged.update(parse_config_file(file_path))
        unread = [k for k in UNREAD_KEYS if k in merged]
        for key in unread:
            del merged[key]
        if unread:
            print(f"warning: {file_path}: {', '.join(unread)} read by no"
                  " command; ignored", file=sys.stderr)
    for key, value in flag_overrides.items():
        if value is not None:
            merged[key] = value
    return RunConfig(**merged)
