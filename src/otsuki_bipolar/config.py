"""Run configuration shared by the command-line front end."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


DEFAULT_TOLERANCES = {
    "omega_residual": 1e-11,
    "functional_agreement": 1e-8,
    "correspondence": 1e-6,
    "hausdorff": 1e-5,
}
# Accepted in config files, but no command reads them.
UNREAD_TOLERANCES = ("correspondence", "hausdorff")
UNREAD_KEYS = ("samples_per_half_period",)

_INT_KEYS = {"p", "q", "grid_size", "oracle_n_alpha", "oracle_n_t", "l_max",
             "n_alpha", "n_t"}
_FLOAT_KEYS = {"lambda_cut"}
_STR_KEYS = {"output_format", "output_path", "mesh_format"}


@dataclass
class RunConfig:
    """Resolved options for one command invocation.

    Precedence is flags > config file > defaults; the config file is a
    flat ``key = value`` text format (# comments allowed).
    """

    p: int | None = None
    q: int | None = None
    grid_size: int = 2048
    oracle_n_alpha: int = 96
    oracle_n_t: int = 768
    l_max: int = 3
    lambda_cut: float = 2.5
    n_alpha: int = 64
    n_t: int = 256
    mesh_format: str = "csv"
    output_format: str = "text"
    output_path: str | None = None
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        for name in ("grid_size", "oracle_n_alpha", "oracle_n_t", "l_max",
                     "n_alpha", "n_t"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lambda_cut <= 2.0:
            raise ValueError("lambda_cut must exceed 2")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")


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
            tol = key[4:] if key.startswith("tol.") else None
            if tol in DEFAULT_TOLERANCES or key in _FLOAT_KEYS:
                parse = float
            elif key in _INT_KEYS:
                parse = int
            elif key in _STR_KEYS or key in UNREAD_KEYS:
                parse = str
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                parsed = parse(value)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
            if tol in DEFAULT_TOLERANCES:
                overrides.setdefault("tolerances", {})[tol] = parsed
            else:
                overrides[key] = parsed
    return overrides


def make_config(file_path: str | None = None, **flag_overrides) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and flags."""
    merged: dict = {}
    if file_path:
        merged.update(parse_config_file(file_path))
        unread = [k for k in UNREAD_KEYS if k in merged]
        for key in unread:
            del merged[key]
        unread += [f"tol.{k}" for k in UNREAD_TOLERANCES
                   if k in merged.get("tolerances", {})]
        if unread:
            print(f"warning: {file_path}: {', '.join(unread)} read by no"
                  " command; ignored", file=sys.stderr)
    for key, value in flag_overrides.items():
        if value is not None:
            merged[key] = value
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(merged.pop("tolerances", {}))
    return RunConfig(tolerances=tol, **merged)
