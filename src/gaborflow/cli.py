"""Command-line interface.

Exit codes: 0 success / positive verdict, 3 negative verdict (not a frame,
invariance deviation over tolerance), 1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import __version__
from .config import (
    PARAMETERS,
    RunConfig,
    build_hamiltonian,
    build_system,
    config_hash,
    lattice_spacings,
    load_config_file,
    merge_config,
    parse_float_list,
)
from .deformation import DeformationConfig, deform_sweep, invariance_check, weak_deform
from .dynamics import (
    auto_method,
    default_steps,
    hamiltonian_from_isotopy,
    hamiltonian_from_linear_path,
    integrate,
)
from .errors import GaborflowError, check_bytes
from .frames import check_frame_vectors, frame_bounds, gaussian_frame_criterion
from .gaussians import GaussianState
from .symplectic import rotation, make_generator

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _report_dict(report) -> dict:
    # JSON has no infinity: a report with a_est = 0 has no ratio
    return {
        "a_est": report.a_est,
        "b_est": report.b_est,
        "ratio": report.ratio if math.isfinite(report.ratio) else None,
        "is_frame": report.is_frame,
        "method": report.method,
        "truncation": {"radius": report.truncation},
        "residual_estimate": report.residual_estimate,
    }


# Floats formatted into one block of output text: JSON arrays and CSV rows are
# written a block at a time, so the output never holds much more than a block
OUTPUT_BLOCK = 4096


def _json_parts(obj, level: int):
    """The text of json.dumps(obj, sort_keys=True, indent=2) nested `level`
    deep (str keys), in parts.  A finite float ndarray is formatted by "%r"
    templates a block of rows at a time, any other ndarray item by item along
    its leading axis, and a numpy scalar as its Python value."""
    if isinstance(obj, np.generic) or isinstance(obj, np.ndarray) and obj.ndim == 0:
        yield json.dumps(obj.item())
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and np.isfinite(obj).all():
        yield from _array_parts(obj, level)
    elif isinstance(obj, dict):
        yield from _block_parts("{}", (chain((f"{json.dumps(k)}: ",), _json_parts(v, level + 1))
                                       for k, v in sorted(obj.items())), level)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        yield from _block_parts("[]", (_json_parts(v, level + 1) for v in obj), level)
    else:
        yield json.dumps(obj)


def _block_parts(ends: str, items, level: int):
    """A JSON array or object, indented `level` deep, of items given as
    iterables of parts."""
    pad = "\n" + "  " * level
    first = True
    for item in items:
        yield f"{ends[0]}{pad}  " if first else f",{pad}  "
        first = False
        yield from item
    yield ends if first else pad + ends[1]


def _array_parts(a: np.ndarray, level: int):
    """_json_parts of a finite float array with a leading axis: each block of
    rows, about OUTPUT_BLOCK floats, fills the "%r" template of one row
    repeated, and the separator between rows also separates the blocks."""
    row = "%r"
    for depth in range(a.ndim - 1, 0, -1):  # innermost axis first
        row = "".join(_block_parts("[]", [(row,)] * a.shape[depth], level + depth))
    sep = ",\n" + "  " * (level + 1)
    count = max(1, OUTPUT_BLOCK // max(1, math.prod(a.shape[1:])))
    blocks = (a[start:start + count] for start in range(0, len(a), count))
    return _block_parts("[]", ((sep.join([row] * len(b)) % tuple(b.ravel().tolist()),)
                               for b in blocks), level)


def _csv_parts(rows, header):
    """The CSV text of a header and rows, a block of rows per part."""
    yield ",".join(header) + "\n"
    count = max(1, OUTPUT_BLOCK // max(1, len(header)))
    for start in range(0, len(rows), count):
        yield "".join(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                      for row in rows[start:start + count])


def _write_output(payload: dict, rows, header, args, cfg: RunConfig):
    """Emit JSON (nested payload) or CSV (tabular rows) to --out or stdout,
    each part as soon as it is formatted.  Every value is computed before the
    first byte is written."""
    if args.format == "csv":
        parts = _csv_parts(rows, header)
    else:
        meta = {"version": __version__, "seed": cfg.seed, "config_hash": config_hash(cfg)}
        parts = chain(_json_parts({"meta": meta, "result": payload}, 0), ("\n",))
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _random_test_state(rng, n: int, hbar: float) -> GaussianState:
    M = np.diag([complex(rng.normal(0.0, 0.4), np.exp(rng.normal(0.0, 0.4))) for _ in range(n)])
    return GaussianState(M, rng.normal(0.0, 1.0, 2 * n), rng.normal(), hbar)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_criterion(args, cfg: RunConfig) -> int:
    alpha, beta = (np.asarray(v, dtype=float) for v in lattice_spacings(cfg))
    verdicts = gaussian_frame_criterion(alpha, beta, cfg.hbar)
    payload = {
        "per_axis": [bool(v) for v in verdicts],
        "all_axes": bool(np.all(verdicts)),
        "threshold": 2.0 * np.pi * cfg.hbar,
    }
    rows = [(j, float(alpha[j]), float(beta[j]), bool(verdicts[j])) for j in range(verdicts.size)]
    _write_output(payload, rows, ("axis", "alpha", "beta", "is_frame"), args, cfg)
    return EXIT_OK if payload["all_axes"] else EXIT_NEGATIVE


def cmd_frame_check(args, cfg: RunConfig) -> int:
    sys_ = build_system(cfg)
    report = frame_bounds(sys_, cfg.frame_floor)
    payload = _report_dict(report)
    rows = [(report.a_est, report.b_est, report.ratio, report.is_frame)]
    _write_output(payload, rows, ("a_est", "b_est", "ratio", "is_frame"), args, cfg)
    return EXIT_OK if report.is_frame else EXIT_NEGATIVE


def cmd_deform(args, cfg: RunConfig) -> int:
    sys_ = build_system(cfg)
    H = build_hamiltonian(cfg)
    result = weak_deform(sys_, H, cfg.t,
                         DeformationConfig(cfg.steps, cfg.method, args.lattice_mode))
    payload = {
        "t": cfg.t,
        "trajectory_end": result.trajectory_end.tolist(),
        "linear_flow": result.linear_flow,
        "action_phase": result.action_phase,
        "lattice_mode": result.lattice_mode,
        "lattice_size": int(result.lattice.shape[0]),
        "window": {
            "matrix": [[str(v) for v in row] for row in result.window.M.tolist()],
            "center": result.window.center.tolist(),
            "phase": result.window.phase,
        },
    }
    if args.dump_lattice:
        payload["lattice_points"] = result.lattice
    zt = result.trajectory_end
    rows = [tuple(float(v) for v in zt) + (result.action_phase,)]
    header = tuple(f"z{i}" for i in range(zt.size)) + ("action_phase",)
    _write_output(payload, rows, header, args, cfg)
    return EXIT_OK


def cmd_invariance(args, cfg: RunConfig) -> int:
    if args.trials < 1:
        raise GaborflowError("--trials must be at least 1")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise GaborflowError("--tol must be finite and >= 0")
    sys_ = build_system(cfg)
    # before any state is built: the frame terms of the trials' one-component
    # states outweigh the states themselves
    check_frame_vectors(sys_, args.trials, args.trials, 0, "reduce --trials")
    H = build_hamiltonian(cfg)
    rng = np.random.default_rng(cfg.seed)
    psis = [_random_test_state(rng, cfg.dimension, cfg.hbar) for _ in range(args.trials)]
    t1, t2 = invariance_check(sys_, H, cfg.t, psis, DeformationConfig(cfg.steps, cfg.method))
    deviations = np.abs(t1.sum(-1) - t2.sum(-1)).tolist()
    payload = {
        "max_deviation": max(deviations),
        "tolerance": args.tol,
        "trials": args.trials,
        "deviations": deviations,
    }
    rows = [(i, d) for i, d in enumerate(deviations)]
    _write_output(payload, rows, ("trial", "deviation"), args, cfg)
    return EXIT_OK if max(deviations) <= args.tol else EXIT_NEGATIVE


def cmd_integrate(args, cfg: RunConfig) -> int:
    H = build_hamiltonian(cfg)
    z0 = parse_float_list(args.z0)
    method = auto_method(H, symplectic=True) if cfg.method == "auto" else cfg.method
    steps = default_steps(cfg.t) if cfg.steps is None else cfg.steps
    # CSV has no column for S_t, so only JSON output pays for the tangent pass
    dump = args.dump_matrices and args.format == "json"
    traj = integrate(H, z0, cfg.t, steps, method=method, variational=dump)
    payload = {
        "method": method,
        "steps": steps,
        "times": traj.times,
        "points": traj.points,
        "action": traj.action,
    }
    if dump:
        payload["linear_flow"] = traj.matrices
    dim = traj.points.shape[1]
    header = ("time",) + tuple(f"z{i}" for i in range(dim)) + ("action",)
    rows = (np.column_stack([traj.times, traj.points, traj.action])
            if args.format == "csv" else ())
    _write_output(payload, rows, header, args, cfg)
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    """A non-empty grid of finite values from start:stop:count or a comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise GaborflowError(f"grid spec {spec!r} must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        check_bytes(8 * count, f"grid spec {spec!r}", "reduce its count")
        grid = np.linspace(start, stop, count)
    else:
        grid = np.asarray(parse_float_list(spec))
    if grid.size == 0:
        raise GaborflowError(f"grid spec {spec!r} is empty")
    if not np.all(np.isfinite(grid)):
        raise GaborflowError(f"grid spec {spec!r} must be finite")
    return grid


def cmd_sweep(args, cfg: RunConfig) -> int:
    if (args.ab_grid is None) == (args.t_grid is None):
        raise GaborflowError("sweep takes exactly one of --ab-grid and --t-grid")
    if args.ab_grid is not None:
        grid = _parse_grid(args.ab_grid)
        if not np.all(grid > 0):
            raise GaborflowError("alpha*beta grid values must be positive")
        results = []
        for ab in grid:
            side = (float(np.sqrt(ab)),)
            square = build_system(replace(cfg, alpha=side, beta=side, generator=None))
            results.append((float(ab), frame_bounds(square, cfg.frame_floor)))
        label = "alpha_beta"
    else:
        grid = _parse_grid(args.t_grid)
        results = deform_sweep(build_system(cfg), build_hamiltonian(cfg), grid,
                               DeformationConfig(cfg.steps, cfg.method), cfg.frame_floor)
        label = "t"
    payload = {
        "grid_label": label,
        "rows": [
            {label: g, **_report_dict(rep)} for g, rep in results
        ],
    }
    rows = [(g, rep.a_est, rep.b_est, rep.ratio, rep.is_frame) for g, rep in results]
    _write_output(payload, rows, (label, "a_est", "b_est", "ratio", "is_frame"), args, cfg)
    return EXIT_OK


def _dilation_path(t):
    # exp(t) is inf past t = 709.78, which make_generator refuses as not finite
    with np.errstate(over="ignore"):
        return make_generator("dilation", L=[[np.exp(t)]])


_BUILTIN_PATHS = {
    "rotation": lambda t: rotation(t),
    "shear": lambda t: make_generator("shear", P=[[t]]),
    "dilation": _dilation_path,
}


def cmd_path_hamiltonian(args, cfg: RunConfig) -> int:
    t = cfg.t
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.7, -0.4]),
              np.array([-1.2, 0.5])]
    if args.path_name == "translation":
        shift = np.array([0.4, -0.3])
        Q = None

        def iso(tt, z):
            return np.asarray(z, dtype=float) + tt * shift
    else:
        path = _BUILTIN_PATHS[args.path_name]
        Q = hamiltonian_from_linear_path(path, t).tolist()

        def iso(tt, z):
            return path(tt) @ np.asarray(z, dtype=float)

    values = [hamiltonian_from_isotopy(iso, t, z) for z in probes]
    payload = {
        "path": args.path_name,
        "t": t,
        "quadratic_form": Q,
        "isotopy_values": [
            {"z": z.tolist(), "value": v} for z, v in zip(probes, values)
        ],
    }
    rows = [tuple(z.tolist()) + (v,) for z, v in zip(probes, values)]
    _write_output(payload, rows, ("z0", "z1", "value"), args, cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _add_system_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=str, default=None, help="INI config file")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    for p in PARAMETERS:
        # lists are parsed after argparse, so a malformed one exits 1, not 2
        scalar = p.parse in (int, float)
        parser.add_argument(p.flag, type=p.parse if scalar else str, default=None, help=p.help)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborflow",
        description="Symplectic and Hamiltonian deformations of Gaussian Gabor frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("criterion", help="Gaussian frame criterion per axis")
    _add_system_flags(p)
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("frame-check", help="estimate frame bounds and verdict")
    _add_system_flags(p)
    p.set_defaults(func=cmd_frame_check)

    p = sub.add_parser("deform", help="weak-deform a Gaussian Gabor system")
    _add_system_flags(p)
    p.add_argument("--lattice-mode", choices=("affine", "exact-nonlinear"), default="affine")
    p.add_argument("--dump-lattice", action="store_true")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("invariance", help="check the deformation invariance identity")
    _add_system_flags(p)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("integrate", help="integrate a Hamiltonian trajectory")
    _add_system_flags(p)
    p.add_argument("--z0", type=str, required=True, help="initial phase point, 2n floats")
    p.add_argument("--dump-matrices", action="store_true",
                   help="also write the linearized flow S_t at every node (JSON output only)")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("sweep", help="frame reports over a deformation or density grid")
    _add_system_flags(p)
    p.add_argument("--t-grid", type=str, default=None, help="start:stop:count or comma list")
    p.add_argument("--ab-grid", type=str, default=None,
                   help="alpha*beta products (square lattices), start:stop:count or comma list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("path-hamiltonian", help="reconstruct generating Hamiltonians of paths")
    _add_system_flags(p)
    p.add_argument("--path-name", choices=("rotation", "shear", "dilation", "translation"),
                   default="rotation")
    p.set_defaults(func=cmd_path_hamiltonian)
    return parser


def _config_from_args(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    flag_values = {}
    for p in PARAMETERS:
        value = getattr(args, p.field)
        flag_values[p.field] = p.parse(value) if isinstance(value, str) else value
    return merge_config(file_values, flag_values)


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code = args.func(args, cfg)
    except GaborflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
