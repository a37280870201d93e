"""Run configuration: validation, config-file loading, and object builders.

`PARAMETERS` is the one declaration of the run parameters: each row names a
`RunConfig` field, its INI section and key, the parser of its text and the
help of its `--flag`.  Config files use INI sections with key=value pairs;
command-line flags override file values, which override defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import Hamiltonian, builtin_hamiltonian
from .errors import ConfigError, check_bytes
from .frames import FRAME_FLOOR, GaborSystem, default_radius
from .gaussians import GaussianState
from .symplectic import Lattice, enumeration_bytes, separable_lattice

BUILTIN_HAMILTONIANS = ("harmonic", "free", "shear", "anharmonic", "driven")


@dataclass(frozen=True)
class RunConfig:
    """Merged run parameters; seed is always explicit for reproducibility."""

    seed: int = 0
    hbar: float = 1.0 / (2.0 * np.pi)
    dimension: int = 1
    alpha: tuple | None = None
    beta: tuple | None = None
    generator: tuple | None = None
    radius: float | None = None
    window_m: tuple | None = None
    window_center: tuple | None = None
    hamiltonian: str = "harmonic"
    method: str = "auto"
    steps: int | None = None
    t: float = 1.0
    frame_floor: float = FRAME_FLOOR

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, (float, complex)) and not np.isfinite(v) for v in entries):
                raise ConfigError(f.name, "must be finite")
        # positivity is tested as `not v > 0` throughout, which NaN also fails
        if not self.hbar > 0:
            raise ConfigError("hbar", "must be positive")
        if self.dimension < 1:
            raise ConfigError("dimension", "must be >= 1")
        n = self.dimension
        # before any array that n sizes: the window's and S_t's are 2n x 2n
        check_bytes(64 * n**2, f"a 2n x 2n complex matrix at dimension {n}", "reduce --dimension")
        for name in ("alpha", "beta"):
            vec = getattr(self, name)
            if vec is not None:
                if len(vec) not in (1, n):
                    raise ConfigError(name, f"needs 1 or {n} entries")
                if any(not v > 0 for v in vec):
                    raise ConfigError(name, "entries must be positive")
        if self.generator is not None and len(self.generator) != (2 * n) ** 2:
            raise ConfigError("generator", f"needs {(2 * n) ** 2} entries (flattened 2n x 2n)")
        if self.radius is not None and not self.radius > 0:
            raise ConfigError("radius", "must be positive")
        if self.window_m is not None:
            if len(self.window_m) not in (1, n):
                raise ConfigError("window_m", f"needs 1 or {n} diagonal entries")
            if any(not complex(v).imag > 0 for v in self.window_m):
                raise ConfigError("window_m", "imaginary parts must be positive")
        if self.window_center is not None and len(self.window_center) != 2 * n:
            raise ConfigError("window_center", f"needs {2 * n} entries")
        if self.steps is not None and self.steps < 1:
            raise ConfigError("steps", "must be >= 1")
        if not self.frame_floor > 0:
            raise ConfigError("frame_floor", "must be positive")
        return self


def _broadcast(vec, n):
    return tuple(vec) * n if len(vec) == 1 and n > 1 else tuple(vec)


def lattice_spacings(cfg: RunConfig) -> tuple[tuple, tuple]:
    """alpha and beta, each with n entries: a single entry is repeated, and
    an unset one is n ones."""
    n = cfg.dimension
    return _broadcast(cfg.alpha or (1.0,), n), _broadcast(cfg.beta or (1.0,), n)


def build_lattice(cfg: RunConfig) -> Lattice:
    n = cfg.dimension
    radius = cfg.radius if cfg.radius is not None else default_radius(cfg.hbar)
    if cfg.generator is not None:
        gen = np.array(cfg.generator, dtype=float).reshape(2 * n, 2 * n)
        return Lattice(gen, radius)
    return separable_lattice(*lattice_spacings(cfg), radius)


def build_window(cfg: RunConfig) -> GaussianState:
    n = cfg.dimension
    if cfg.window_m is None:
        M = 1j * np.eye(n)
    else:
        diag = _broadcast(tuple(complex(v) for v in cfg.window_m), n)
        M = np.diag(diag)
    center = np.zeros(2 * n) if cfg.window_center is None else np.array(cfg.window_center, float)
    return GaussianState(M, center, 0.0, cfg.hbar)


def build_system(cfg: RunConfig) -> GaborSystem:
    # every use of the system enumerates a lattice of dimension 2n: refuse a
    # too large smallest index box before any O(n^3) work on window or generator
    n = cfg.dimension
    check_bytes(enumeration_bytes([1] * (2 * n)), f"lattice enumeration at dimension {n}",
                "reduce --dimension")
    return GaborSystem(build_window(cfg), build_lattice(cfg), cfg.hbar)


def build_hamiltonian(cfg: RunConfig) -> Hamiltonian:
    name = cfg.hamiltonian.strip()
    if name in BUILTIN_HAMILTONIANS:
        return builtin_hamiltonian(name, cfg.dimension)
    # the expression parser loads only for a call that has an expression
    from .expressions import expression_hamiltonian

    return expression_hamiltonian(name, cfg.dimension)


def config_dict(cfg: RunConfig) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = [str(v) if isinstance(v, complex) else v for v in value]
        out[f.name] = value
    return out


def config_hash(cfg: RunConfig) -> str:
    payload = json.dumps(config_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config file (INI sections) and flag merging
# ---------------------------------------------------------------------------

def parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError("list", f"malformed float list {text!r}") from exc


def parse_complex_list(text: str) -> tuple:
    try:
        return tuple(complex(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError("list", f"malformed complex list {text!r}") from exc


class Parameter(NamedTuple):
    """One run parameter: the RunConfig field that both the INI key
    `[section] key` and the flag (the field, - for _) set from text by parse."""

    field: str
    section: str
    key: str
    parse: Callable
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.field.replace("_", "-")


PARAMETERS = (
    Parameter("seed", "system", "seed", int, "RNG seed (default 0)"),
    Parameter("hbar", "system", "hbar", float, "Planck constant (default 1/2pi)"),
    Parameter("dimension", "system", "dimension", int, "degrees of freedom n"),
    Parameter("alpha", "lattice", "alpha", parse_float_list, "position spacings, comma list"),
    Parameter("beta", "lattice", "beta", parse_float_list, "momentum spacings, comma list"),
    Parameter("generator", "lattice", "generator", parse_float_list,
              "flattened 2n x 2n lattice generator, comma list"),
    Parameter("radius", "lattice", "radius", float, "lattice truncation radius"),
    Parameter("window_m", "window", "m", parse_complex_list,
              "diagonal window matrix entries, e.g. '0.5+2j'"),
    Parameter("window_center", "window", "center", parse_float_list,
              "window center, 2n floats"),
    Parameter("hamiltonian", "hamiltonian", "expression", str,
              "builtin name or expression in x1..xn, p1..pn, t"),
    Parameter("method", "integrator", "method", str,
              "integrator: auto, euler, verlet, rk4, exact"),
    Parameter("steps", "integrator", "steps", int, "integrator steps"),
    Parameter("t", "integrator", "t", float, "evolution time"),
    Parameter("frame_floor", "estimation", "frame_floor", float,
              f"a/b verdict threshold (default {FRAME_FLOOR:g})"),
)


def load_config_file(path: str) -> dict:
    """Read an INI-style config file into a RunConfig field dict."""
    import configparser  # only a call with --config pays for its import

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        items = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError("config", _ini_fault(path, exc)) from None
    if not read:
        raise ConfigError("config", f"cannot read config file {path!r}")
    by_key = {(p.section, p.key): p for p in PARAMETERS}
    out = {}
    for section, pairs in items.items():
        for key, raw in pairs:
            p = by_key.get((section, key))
            if p is None:
                raise ConfigError(f"{section}.{key}", "unknown config key")
            try:
                out[p.field] = p.parse(raw)
            except ValueError as exc:
                raise ConfigError(p.field, f"cannot parse {raw!r}") from exc
    return out


def _ini_fault(path: str, exc) -> str:
    """A configparser error as one line naming the file and, when the parser
    knows it, the line."""
    import configparser

    where = f"config file {path!r}"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"{where} line {exc.lineno}: a key before any [section] header"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{where} line {exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"{where} line {exc.lineno}: duplicate section [{exc.section}]"
    if isinstance(exc, configparser.ParsingError):
        return f"{where} line {exc.errors[0][0]}: not a key = value line"
    return f"{where}: " + " ".join(str(exc).split())


def merge_config(file_values: dict | None, flag_values: dict) -> RunConfig:
    """defaults < config file < explicitly set flags."""
    merged = dict(file_values or {})
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    cfg = replace(RunConfig(), **merged)
    return cfg.validate()
