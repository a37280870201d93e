"""Command-line interface.

Exit codes: 0 success / positive verdict, 3 negative verdict (not a frame,
invariance deviation over tolerance), 1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    build_hamiltonian,
    build_system,
    build_window,
    config_hash,
    estimation_config,
    load_config_file,
    merge_config,
    parse_float_list,
    parse_complex_list,
)
from .deformation import DeformationConfig, deform_sweep, invariance_check, weak_deform
from .dynamics import (
    auto_method,
    default_steps,
    hamiltonian_from_isotopy,
    hamiltonian_from_linear_path,
    integrate,
)
from .errors import GaborflowError
from .frames import GaborSystem, default_radius, frame_bounds, gaussian_frame_criterion
from .gaussians import GaussianState
from .symplectic import rotation, make_generator, separable_lattice

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _report_dict(report) -> dict:
    return {
        "a_est": report.a_est,
        "b_est": report.b_est,
        "ratio": report.ratio,
        "is_frame": report.is_frame,
        "method": report.method,
        "truncation": {
            "radius": report.truncation[0],
            "grid_extent": report.truncation[1],
            "grid_points": report.truncation[2],
        },
        "residual_estimate": report.residual_estimate,
    }


def _write_output(payload: dict, rows, header, args, cfg: RunConfig):
    """Emit JSON (nested payload) or CSV (tabular rows) to --out or stdout."""
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "meta": {"version": __version__, "seed": cfg.seed, "config_hash": config_hash(cfg)},
            "result": payload,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _random_test_state(rng, n: int, hbar: float) -> GaussianState:
    M = np.diag([complex(rng.normal(0.0, 0.4), np.exp(rng.normal(0.0, 0.4))) for _ in range(n)])
    return GaussianState(M, rng.normal(0.0, 1.0, 2 * n), rng.normal(), hbar)


def _deform_config(cfg: RunConfig, lattice_mode: str = "affine") -> DeformationConfig:
    return DeformationConfig(steps=cfg.steps, method=cfg.method, lattice_mode=lattice_mode)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_criterion(args, cfg: RunConfig) -> int:
    n = cfg.dimension
    alpha = np.asarray(cfg.alpha or (1.0,) * n, dtype=float)
    beta = np.asarray(cfg.beta or (1.0,) * n, dtype=float)
    verdicts = gaussian_frame_criterion(alpha, beta, cfg.hbar)
    payload = {
        "per_axis": [bool(v) for v in verdicts],
        "all_axes": bool(np.all(verdicts)),
        "threshold": 2.0 * np.pi * cfg.hbar,
    }
    rows = [(j, float(alpha[j % alpha.size]), float(beta[j % beta.size]), bool(verdicts[j]))
            for j in range(verdicts.size)]
    _write_output(payload, rows, ("axis", "alpha", "beta", "is_frame"), args, cfg)
    return EXIT_OK if payload["all_axes"] else EXIT_NEGATIVE


def cmd_frame_check(args, cfg: RunConfig) -> int:
    sys_ = build_system(cfg)
    report = frame_bounds(sys_, estimation_config(cfg))
    payload = _report_dict(report)
    rows = [(report.a_est, report.b_est, report.ratio, report.is_frame)]
    _write_output(payload, rows, ("a_est", "b_est", "ratio", "is_frame"), args, cfg)
    return EXIT_OK if report.is_frame else EXIT_NEGATIVE


def cmd_deform(args, cfg: RunConfig) -> int:
    sys_ = build_system(cfg)
    H = build_hamiltonian(cfg)
    result = weak_deform(sys_, H, cfg.t, _deform_config(cfg, args.lattice_mode))
    payload = {
        "t": cfg.t,
        "trajectory_end": result.trajectory_end.tolist(),
        "linear_flow": result.linear_flow.tolist(),
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
        payload["lattice_points"] = result.lattice.tolist()
    zt = result.trajectory_end
    rows = [tuple(float(v) for v in zt) + (result.action_phase,)]
    header = tuple(f"z{i}" for i in range(zt.size)) + ("action_phase",)
    _write_output(payload, rows, header, args, cfg)
    return EXIT_OK


def cmd_invariance(args, cfg: RunConfig) -> int:
    sys_ = build_system(cfg)
    H = build_hamiltonian(cfg)
    rng = np.random.default_rng(cfg.seed)
    deviations = []
    dcfg = _deform_config(cfg)
    for _ in range(args.trials):
        psi = _random_test_state(rng, cfg.dimension, cfg.hbar)
        s1, s2 = invariance_check(sys_, H, cfg.t, psi, dcfg)
        deviations.append(abs(s1 - s2))
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
    traj = integrate(H, z0, cfg.t, steps, method=method, variational=args.dump_matrices)
    payload = {
        "method": method,
        "steps": steps,
        "times": traj.times.tolist(),
        "points": traj.points.tolist(),
        "action": traj.action.tolist(),
    }
    if args.dump_matrices:
        payload["linear_flow"] = traj.matrices.tolist()
    dim = traj.points.shape[1]
    header = ("time",) + tuple(f"z{i}" for i in range(dim)) + ("action",)
    rows = [
        (float(traj.times[k]),) + tuple(float(v) for v in traj.points[k]) + (float(traj.action[k]),)
        for k in range(traj.times.size)
    ]
    _write_output(payload, rows, header, args, cfg)
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    """A non-empty grid of finite values from start:stop:count or a comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise GaborflowError(f"grid spec {spec!r} must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
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
    est = estimation_config(cfg)
    if args.ab_grid is not None:
        grid = _parse_grid(args.ab_grid)
        if not np.all(grid > 0):
            raise GaborflowError("alpha*beta grid values must be positive")
        window = build_window(cfg)
        radius = cfg.radius if cfg.radius is not None else default_radius(cfg.hbar)
        results = []
        for ab in grid:
            side = float(np.sqrt(ab))
            lat = separable_lattice([side] * cfg.dimension, [side] * cfg.dimension, radius)
            results.append((float(ab), frame_bounds(GaborSystem(window, lat, cfg.hbar), est)))
        label = "alpha_beta"
    else:
        grid = _parse_grid(args.t_grid)
        results = deform_sweep(build_system(cfg), build_hamiltonian(cfg), grid,
                               _deform_config(cfg), est)
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


_BUILTIN_PATHS = {
    "rotation": lambda t: rotation(t),
    "shear": lambda t: make_generator("shear", P=[[t]]),
    "dilation": lambda t: make_generator("dilation", L=[[np.exp(t)]]),
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
        if args.path_name not in _BUILTIN_PATHS:
            raise GaborflowError(f"unknown path {args.path_name!r}; "
                                 f"choose rotation, shear, dilation, translation")
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
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--hbar", type=float, default=None, help="Planck constant (default 1/2pi)")
    parser.add_argument("--dimension", type=int, default=None, help="degrees of freedom n")
    parser.add_argument("--alpha", type=str, default=None, help="position spacings, comma list")
    parser.add_argument("--beta", type=str, default=None, help="momentum spacings, comma list")
    parser.add_argument("--generator", type=str, default=None,
                        help="flattened 2n x 2n lattice generator, comma list")
    parser.add_argument("--radius", type=float, default=None, help="lattice truncation radius")
    parser.add_argument("--window-m", type=str, default=None,
                        help="diagonal window matrix entries, e.g. '0.5+2j'")
    parser.add_argument("--window-center", type=str, default=None, help="window center, 2n floats")
    parser.add_argument("--hamiltonian", type=str, default=None,
                        help="builtin name or expression in x1..xn, p1..pn, t")
    parser.add_argument("--method", type=str, default=None,
                        help="integrator: auto, euler, verlet, rk4, exact")
    parser.add_argument("--steps", type=int, default=None, help="integrator steps")
    parser.add_argument("--t", type=float, default=None, help="evolution time")
    parser.add_argument("--grid-extent", type=float, default=None, help="quadrature half-width")
    parser.add_argument("--grid-points", type=int, default=None, help="quadrature points per axis")
    parser.add_argument("--family-size", type=int, default=None, help="test states for bounds")
    parser.add_argument("--frame-floor", type=float, default=None,
                        help="a/b verdict threshold (default 1e-3)")


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
    p.add_argument("--dump-matrices", action="store_true")
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


_FLAG_FIELDS = (
    "seed", "hbar", "dimension", "radius", "hamiltonian", "method", "steps", "t",
    "grid_extent", "grid_points", "family_size", "frame_floor",
)


def _config_from_args(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    flag_values = {}
    for name in _FLAG_FIELDS:
        flag_values[name] = getattr(args, name, None)
    for name, parser_fn in (("alpha", parse_float_list), ("beta", parse_float_list),
                            ("generator", parse_float_list),
                            ("window_center", parse_float_list),
                            ("window_m", parse_complex_list)):
        raw = getattr(args, name, None)
        flag_values[name] = parser_fn(raw) if raw is not None else None
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
