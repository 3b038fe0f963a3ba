"""Line-oriented ``key = value`` run configuration.

A config file is plain text: one assignment per line, ``#`` starts a comment,
blank lines are ignored.  Unknown keys, malformed lines and out-of-range
values are rejected with the offending line number so reproduction scripts
fail loudly.  An empty ``mesh`` path selects the built-in circle-in-tunnel
benchmark mesh generated from the ``mesh_*`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .lagrangian import KktParams
from .optimize import ContinuationSchedule

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_items"]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """All run-level constants of one optimization or flow solve."""

    mesh: str = ""
    mode: str = "fluid-only"
    nu: float = 0.01
    mu: float = 0.1
    delta: float = 6.0
    inflow: str = "paper-cosine"
    alpha_init: float = 1e-4
    alpha_dec: float = 0.1
    alpha_target: float = 1e-10
    beta: float = 100.0
    eta_det: float = 5e-2
    eta_ext: float = 3.0
    eps: float = 1e-2
    newton_tol: float = 1e-9
    algorithm: str = "direct"
    output: str = "out"
    seed: int = 0
    mesh_h: float = 0.35
    mesh_n_obstacle: int = 48
    mesh_n_rings: int = 3

    def schedule(self) -> ContinuationSchedule:
        """The run's alpha continuation schedule."""
        return ContinuationSchedule(self.alpha_init, self.alpha_dec,
                                    self.alpha_target)

    def kkt_params(self) -> KktParams:
        """The run's parameters, at the first alpha level."""
        return KktParams(alpha=self.alpha_init, beta=self.beta,
                         eta_det=self.eta_det, eta_ext=self.eta_ext,
                         nu=self.nu, mu=self.mu, delta=self.delta,
                         inflow=self.inflow, newton_tol=self.newton_tol)

    def validate(self) -> None:
        """Raise a :class:`ConfigError` naming the first out-of-range key."""
        try:  # the schedule first, so that it names a bad alpha_init
            self.schedule()
            self.kkt_params()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        checks = [
            (self.eps > 0.0, "eps", "must be positive"),
            (self.mode in ("fluid-only", "holdall"), "mode",
             "must be 'fluid-only' or 'holdall'"),
            (self.inflow in ("paper-cosine", "parabolic"), "inflow",
             "must be 'paper-cosine' or 'parabolic'"),
            (self.algorithm in ("direct", "iterative"), "algorithm",
             "must be 'direct' or 'iterative'"),
            (self.mesh_h > 0.0, "mesh_h", "must be positive"),
            (self.mesh_n_obstacle >= 8, "mesh_n_obstacle", "must be >= 8"),
            (self.mesh_n_rings >= 1, "mesh_n_rings", "must be >= 1"),
        ]
        for ok, key, msg in checks:
            if not ok:
                raise ConfigError(f"config key '{key}' {msg}")
        if self.mesh and not Path(self.mesh).exists():
            raise ConfigError(f"mesh file not found: {self.mesh}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str, lineno: int):
    ftype = _FIELD_TYPES[key]
    try:
        if ftype in ("int", int):
            return int(raw)
        if ftype in ("float", float):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: invalid value {raw!r} for key '{key}'")


def parse_items(lines, source: str = "<config>") -> RunConfig:
    """Parse an iterable of config lines into a validated RunConfig."""
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}: line {lineno}: expected "
                              f"'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}: line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{source}: line {lineno}: duplicate key "
                              f"'{key}'")
        values[key] = _convert(key, raw, lineno)
    cfg = RunConfig(**values)
    try:
        cfg.validate()
    except ConfigError as err:
        raise ConfigError(f"{source}: {err}")
    return cfg


def parse_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_items(path.read_text().splitlines(), source=str(path))
