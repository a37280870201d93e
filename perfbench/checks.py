"""Per-call output checks.

check() returns the problems found in one call's output (any problem makes
the call count as failed) and, for reference members, the accuracy samples
behind bound_err.a, bound_err.b and flow_err.  Reference flows are computed
once per distinct argv and cached.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from reference import (
    exact_bounds,
    gaussian_frame_verdict,
    match_points,
    reference_flow,
    reference_variational,
    separable_points,
    symplectic_defect,
)

# Allowed distance from the reference flow, relative to max(1, |z|): about
# 100x (RK4) and 10x (Verlet) the largest error seen on the seeded members.
FLOW_TOL = {"rk4": 1e-6, "verlet": 2e-5}
SYMPLECTIC_TOL = 1e-6


@dataclass
class Accuracy:
    """Signed relative bound errors and flow distances of reference members."""

    a: list = field(default_factory=list)
    b: list = field(default_factory=list)
    flow: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _result(out: bytes):
    doc = json.loads(out)
    return doc["result"]


def _check_report(rep, frame: bool, where: str, problems: list):
    a, b = rep["a_est"], rep["b_est"]
    if not (0.0 < a <= b and math.isfinite(b)):
        problems.append(f"{where}: bounds a={a} b={b} violate 0 < a <= b")
    if rep["is_frame"] is not frame:
        problems.append(f"{where}: verdict {rep['is_frame']} but the criterion says {frame}")


def _score_bounds(rep, side: float, where: str, acc: Accuracy):
    A, B = exact_bounds(side, side)
    ea, eb = rep["a_est"] / A - 1.0, rep["b_est"] / B - 1.0
    acc.a.append(ea)
    acc.b.append(eb)
    acc.notes.append(f"{where}: a_est {ea:+.4%} b_est {eb:+.4%} vs exact {A:.6f}/{B:.6f}")


class Checker:
    def __init__(self):
        self._flows = {}

    def check(self, call, code: int, out: bytes) -> tuple[list[str], Accuracy]:
        problems: list[str] = []
        acc = Accuracy()
        if code != call.expect_code:
            problems.append(f"exit code {code}, expected {call.expect_code}")
            return problems, acc
        try:
            getattr(self, "_" + call.kind.replace("-", "_"))(call, out, problems, acc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"output did not parse: {type(exc).__name__}: {exc}")
        return problems, acc

    # -- frame bounds -------------------------------------------------------

    def _criterion(self, call, out, problems, acc):
        res = _result(out)
        want = gaussian_frame_verdict(call.spec["alpha"], call.spec["beta"])
        if res["per_axis"] != want or res["all_axes"] is not all(want):
            problems.append(f"criterion {res['per_axis']} differs from {want}")

    def _frame_check(self, call, out, problems, acc):
        rep = _result(out)
        frame = all(gaussian_frame_verdict([call.spec["alpha"]], [call.spec["beta"]]))
        _check_report(rep, frame, call.label, problems)
        if call.ref:
            _score_bounds(rep, call.spec["alpha"], call.label, acc)

    def _sweep_ab(self, call, out, problems, acc):
        rows = _result(out)["rows"]
        grid = call.spec["grid"]
        if len(rows) != len(grid):
            problems.append(f"{len(rows)} sweep rows for a grid of {len(grid)}")
            return
        for row, ab, ref in zip(rows, grid, call.spec["ref_rows"]):
            if row["alpha_beta"] != ab:
                problems.append(f"row alpha_beta {row['alpha_beta']} != {ab}")
            side = math.sqrt(ab)
            _check_report(row, all(gaussian_frame_verdict([side], [side])),
                          f"{call.label} ab={ab}", problems)
            if ref:
                _score_bounds(row, side, f"{call.label} ab={ab:.6f}", acc)

    def _sweep_t(self, call, out, problems, acc):
        rows = _result(out)["rows"]
        spec = call.spec
        want = np.linspace(0.0, spec["t_end"], spec["count"])
        if len(rows) != spec["count"]:
            problems.append(f"{len(rows)} sweep rows for a grid of {spec['count']}")
            return
        if np.max(np.abs(np.array([r["t"] for r in rows]) - want)) > 1e-12:
            problems.append("sweep t values differ from the grid")
        # affine deformation keeps the frame property of the source system
        frame = all(gaussian_frame_verdict([spec["alpha"]], [spec["beta"]]))
        for row in rows:
            _check_report(row, frame, f"{call.label} t={row['t']:.4f}", problems)

    # -- flows --------------------------------------------------------------

    def _invariance(self, call, out, problems, acc):
        res = _result(out)
        if len(res["deviations"]) != call.spec["trials"]:
            problems.append(f"{len(res['deviations'])} deviations for {call.spec['trials']} trials")
        if not res["max_deviation"] <= res["tolerance"]:
            problems.append(f"max deviation {res['max_deviation']} over tolerance")

    def _reference(self, call):
        if call.argv in self._flows:
            return self._flows[call.argv]
        s = call.spec
        # RK4 references: 8x finer for reference members (their error is the
        # metric), 2x for seeded ones (checked against a tolerance); a quarter
        # of the steps already makes RK4 far more accurate than Verlet
        if s.get("method") == "verlet":
            steps = max(64, s["steps"] // 4)
        else:
            steps = s["steps"] * (8 if call.ref else 2)
        poly = s["poly"]
        z0 = np.asarray(s["center"] if call.kind == "deform" else s["z0"], dtype=float)
        zt, S, err = reference_variational(poly, z0, s["t"], steps)
        h0 = float(poly.value(z0))
        drift = abs(float(poly.value(zt)) - h0) / max(1.0, abs(h0))
        ref = {"end": zt, "S": S, "step_error": err, "energy_drift": drift}
        if call.kind == "deform":
            src = separable_points(s["alpha"], s["beta"], s["radius"])
            if s["mode"] == "affine":
                ref["points"] = zt + (src - z0) @ S.T
            else:
                flow = reference_flow(poly, src, s["t"], steps)
                ref["points"] = flow.end
                ref["step_error"] = max(err, flow.step_error)
                ref["energy_drift"] = max(drift, flow.energy_drift)
        self._flows[call.argv] = ref
        return ref

    def _flow_problems(self, call, ref, dist: float, scale: float, S, problems, acc):
        """Check a flow distance and the final S_t against the reference; only
        the distance of reference members feeds flow_err."""
        tol = FLOW_TOL[call.spec.get("method", "rk4")]
        if not dist <= tol * max(1.0, scale):
            problems.append(f"{call.label}: flow distance {dist:.3e} over tolerance")
        if S is not None:
            off = float(np.max(np.abs(S - ref["S"])))
            if not off <= tol * max(1.0, float(np.max(np.abs(ref["S"])))):
                problems.append(f"{call.label}: final S_t off the reference by {off:.2e}")
        if ref["step_error"] > 1e-3 * tol * max(1.0, scale) or ref["energy_drift"] > 1e-9:
            problems.append(f"{call.label}: reference step error {ref['step_error']:.2e}, "
                            f"energy drift {ref['energy_drift']:.2e}")
        if call.ref:
            acc.flow.append(dist)
            acc.notes.append(f"{call.label}: flow distance {dist:.3e} "
                             f"(reference step error {ref['step_error']:.1e})")

    def _deform(self, call, out, problems, acc):
        res = _result(out)
        s = call.spec
        ref = self._reference(call)
        if res["lattice_size"] != s["size"]:
            problems.append(f"lattice size {res['lattice_size']}, expected {s['size']}")
        if res["lattice_mode"] != s["mode"]:
            problems.append(f"lattice mode {res['lattice_mode']}")
        S = np.array(res["linear_flow"], dtype=float)
        if symplectic_defect(S) > SYMPLECTIC_TOL:
            problems.append(f"linear flow not symplectic ({symplectic_defect(S):.2e})")
        M = np.array([[complex(v) for v in row] for row in res["window"]["matrix"]])
        if not np.all(np.linalg.eigvalsh(M.imag) > 0):
            problems.append("deformed window left the Siegel half-space")
        end = np.array(res["trajectory_end"], dtype=float)
        dist = float(np.linalg.norm(end - ref["end"]))
        scale = float(np.linalg.norm(ref["end"]))
        if s["dump"]:
            dist = max(dist, match_points(res["lattice_points"], ref["points"]))
            scale = max(scale, float(np.max(np.linalg.norm(ref["points"], axis=1))))
        self._flow_problems(call, ref, dist, scale, S, problems, acc)

    def _integrate(self, call, out, problems, acc):
        s = call.spec
        ref = self._reference(call)
        S = None
        if s["format"] == "csv":
            rows = list(csv.reader(io.StringIO(out.decode())))
            if rows[0] != ["time", "z0", "z1", "action"] or len(rows) != s["steps"] + 2:
                problems.append(f"csv header {rows[0]} with {len(rows) - 1} rows")
                return
            end = np.array([float(v) for v in rows[-1][1:3]])
        else:
            res = _result(out)
            if res["steps"] != s["steps"] or len(res["times"]) != s["steps"] + 1:
                problems.append(f"{res['steps']} steps and {len(res['times'])} samples")
            end = np.array(res["points"][-1], dtype=float)
            if s["dump"]:
                mats = np.array(res["linear_flow"], dtype=float)
                defect = symplectic_defect(mats)
                if mats.shape != (s["steps"] + 1, 2, 2) or defect > SYMPLECTIC_TOL:
                    problems.append(f"S_t stack {mats.shape}, symplectic defect {defect:.2e}")
                    return
                S = mats[-1]
        dist = float(np.linalg.norm(end - ref["end"]))
        self._flow_problems(call, ref, dist, float(np.linalg.norm(ref["end"])), S, problems, acc)
