"""The four workloads, as one round of CLI calls each, generated from a seed.

Every round holds fixed reference members (standard window, alpha*beta = 1/2
and 1/3, one reference flow) that do not depend on the seed and feed the
accuracy metrics, plus seeded members whose inputs vary within narrow bands
so the work per round stays nearly constant from seed to seed.  Every flow
call passes --steps, so its point-steps follow from its arguments.  Values
that can be negative are passed as --flag=value, so argparse cannot read
them as options.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from reference import (ANHARMONIC, Poly, gaussian_frame_verdict, radius_for_count,
                       separable_points)

WORKLOADS = ("startup-bound", "dense-bounds", "nonlinear-flow", "long-trajectory")

HALF = math.sqrt(0.5)
THIRD = math.sqrt(1.0 / 3.0)
THIRD_AB = 1.0 / 3.0
REF_AB = (0.5, THIRD_AB)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the benchmark knows about its result."""

    label: str
    argv: tuple
    kind: str
    expect_code: int = 0
    reports: int = 0
    point_steps: int = 0
    ref: bool = False
    spec: dict = field(default_factory=dict, hash=False, compare=False)


def _r(x) -> float:
    """A seeded value rounded to 4 decimals, so argv and references agree."""
    return round(float(x), 4)


def _poly(rng) -> tuple[Poly, str]:
    """A confining single-well quartic; c3^2 < 4 c2 c4 keeps V' = 0 only at 0."""
    poly = Poly(_r(rng.uniform(0.5, 1.5)), _r(rng.uniform(-0.3, 0.3)), _r(rng.uniform(0.15, 0.35)))
    sign = "-" if poly.c3 < 0 else "+"
    expr = f"p1^2/2 + {poly.c2!r}*x1^2/2 {sign} {abs(poly.c3)!r}*x1^3/3 + {poly.c4!r}*x1^4/4"
    return poly, expr


def _verdict_code(alpha, beta) -> int:
    return 0 if all(gaussian_frame_verdict([alpha], [beta])) else 3


def _criterion(label, alpha, beta):
    return Call(label, ("criterion", "--alpha", repr(alpha), "--beta", repr(beta)), "criterion",
                _verdict_code(alpha, beta), spec={"alpha": [alpha], "beta": [beta]})


def _frame_check(label, alpha, beta, radius=None, extra=(), ref=False):
    argv = ["frame-check", "--alpha", repr(alpha), "--beta", repr(beta)]
    if radius is not None:
        argv += ["--radius", repr(radius)]
    return Call(label, tuple(argv + list(extra)), "frame-check", _verdict_code(alpha, beta),
                reports=1, ref=ref, spec={"alpha": alpha, "beta": beta})


def _ab_sweep(label, grid, radius=None, ref=False):
    argv = ["sweep", "--ab-grid", ",".join(map(repr, grid))]
    if radius is not None:
        argv += ["--radius", repr(radius)]
    return Call(label, tuple(argv), "sweep-ab", 0, reports=len(grid), ref=ref,
                spec={"grid": grid, "ref_rows": [g in REF_AB for g in grid]})


def _t_sweep(label, t_end, count, alpha, beta, steps):
    argv = ("sweep", "--t-grid", f"0:{t_end!r}:{count}", "--hamiltonian", "anharmonic",
            "--alpha", repr(alpha), "--beta", repr(beta), "--steps", str(steps))
    return Call(label, argv, "sweep-t", 0, reports=count,
                spec={"count": count, "t_end": t_end, "alpha": alpha, "beta": beta})


def _deform(label, poly, ham, t, steps, mode="affine", alpha=1.0, beta=1.0, radius=8.0,
            center=(0.0, 0.0), dump=False, ref=False):
    argv = ["deform", "--hamiltonian", ham, "--t", repr(t), "--steps", str(steps),
            "--alpha", repr(alpha), "--beta", repr(beta), "--radius", repr(radius),
            "--window-center=" + ",".join(map(repr, center))]
    if mode != "affine":
        argv += ["--lattice-mode", mode]
    if dump:
        argv.append("--dump-lattice")
    size = separable_points(alpha, beta, radius).shape[0]
    moved = 1 + (size if mode == "exact-nonlinear" else 0)
    return Call(label, tuple(argv), "deform", 0, point_steps=moved * steps, ref=ref,
                spec={"poly": poly, "t": t, "steps": steps, "mode": mode, "alpha": alpha,
                      "beta": beta, "radius": radius, "center": center, "size": size,
                      "dump": dump})


def _invariance(label, ham, t, steps, seed, trials=8):
    argv = ("invariance", "--hamiltonian", ham, "--t", repr(t), "--steps", str(steps),
            "--trials", str(trials), "--seed", str(seed))
    return Call(label, argv, "invariance", 0, point_steps=trials * steps,
                spec={"trials": trials})


def _integrate(label, poly, ham, z0, t, steps, method, fmt="json", dump=False, ref=False):
    argv = ["integrate", "--hamiltonian", ham, "--z0=" + ",".join(map(repr, z0)),
            "--t", repr(t), "--steps", str(steps), "--method", method]
    if fmt != "json":
        argv += ["--format", fmt]
    if dump:
        argv.append("--dump-matrices")
    return Call(label, tuple(argv), "integrate", 0, point_steps=steps, ref=ref,
                spec={"poly": poly, "z0": z0, "t": t, "steps": steps, "method": method,
                      "format": fmt, "dump": dump})


def _reference_deform():
    # off-centre window and a coarse step so the error is truncation, not rounding
    return _deform("deform/ref-affine", ANHARMONIC, "anharmonic", 1.0, 128,
                   center=(1.0, 0.5), dump=True, ref=True)


def _reference_pair_sweep():
    return _ab_sweep("sweep-ab/ref-1/2+1/3", [0.5, THIRD_AB], ref=True)


def build(workload: str, seed: int) -> list[Call]:
    """The round of calls for a workload; the same seed gives the same round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    cli_seed = int(rng.integers(1, 10_000))
    poly, expr = _poly(rng)

    def u(lo, hi):
        return _r(rng.uniform(lo, hi))

    def split(ab):
        """(alpha, beta) with product ab and a seeded aspect ratio."""
        a = math.sqrt(ab) * rng.uniform(0.85, 1.15)
        return _r(a), _r(ab / a)

    if workload == "startup-bound":
        crit = split(rng.uniform(0.4, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.6))
        (a, b), width = split(rng.uniform(0.3, 0.85)), u(0.7, 1.4)
        return [
            _criterion("criterion/seeded", *crit),
            _frame_check("frame-check/ref-1/2", HALF, HALF, ref=True),
            _frame_check("frame-check/ref-1/3", THIRD, THIRD, ref=True),
            _frame_check("frame-check/seeded", a, b,
                         extra=("--window-m", f"0+{width!r}j", "--seed", str(cli_seed))),
            _invariance("invariance/harmonic", "harmonic", u(0.5, 1.5), 512, cli_seed),
            _invariance("invariance/anharmonic", "anharmonic", u(0.3, 0.7), 256, cli_seed),
            _reference_deform(),
            _deform("deform/seeded-affine", poly, expr, u(0.3, 0.7), 256,
                    center=(u(-1.5, 1.5), u(-1.5, 1.5))),
        ]
    if workload == "dense-bounds":
        grid = [u(lo, lo + 0.05) for lo in (0.55, 0.65, 0.75)]
        return [
            _frame_check("frame-check/ref-1/2-R16", HALF, HALF, radius=16.0, ref=True),
            _frame_check("frame-check/n2-R3.2", 0.9, 0.9, radius=3.2, extra=("--dimension", "2")),
            _ab_sweep("sweep-ab/ref-1/3+seeded-R10", [THIRD_AB] + grid, radius=10.0, ref=True),
            _reference_deform(),
        ]
    if workload == "nonlinear-flow":
        a, b = split(rng.uniform(1.2, 1.5))
        return [
            _deform("deform/ref-exact-nonlinear", ANHARMONIC, "anharmonic", 0.5, 128,
                    mode="exact-nonlinear", alpha=1.2, beta=1.2, dump=True, ref=True),
            _deform("deform/seeded-exact-nonlinear", poly, expr, u(0.4, 0.6), 64,
                    mode="exact-nonlinear", alpha=a, beta=b, radius=radius_for_count(a, b, 15),
                    dump=True),
            _t_sweep("sweep-t/anharmonic", u(0.8, 1.2), 3, *split(rng.uniform(0.6, 0.85)), 256),
            _invariance("invariance/expression", expr, u(0.4, 0.6), 128, cli_seed, trials=3),
            _reference_pair_sweep(),
        ]
    return [
        _integrate("integrate/ref-verlet", ANHARMONIC, "anharmonic", (1.0, 0.0), 10.0, 10_000,
                   "verlet", dump=True, ref=True),
        _integrate("integrate/seeded-verlet", ANHARMONIC, "anharmonic",
                   (u(0.8, 1.2), u(-0.3, 0.3)), u(9.0, 11.0), 10_000, "verlet", dump=True),
        _integrate("integrate/seeded-rk4-expression", poly, expr, (u(-1.2, 1.2), u(-1.2, 1.2)),
                   u(1.6, 2.4), 1_000, "rk4", fmt="csv"),
        _reference_pair_sweep(),
    ]
