"""Weak (nearby-orbit) Hamiltonian deformation of Gaussian Gabor systems and
executable checks of the frame-invariance theorem.

The deformation transports the window by the metaplectic lift of the
linearized flow along the trajectory of the window's own center, advances the
global phase by the symmetrized action, and moves the lattice either by the
induced affine map (the reading under which the invariance identity is exact)
or by the full nonlinear flow, applied to the whole lattice as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Hamiltonian, auto_method, default_steps, flow_map, integrate
from .errors import InvalidMatrix
from .frames import EstimationConfig, FrameReport, GaborSystem, frame_bounds, matched_pair
from .gaussians import (
    GaussianState,
    check_siegel,
    heisenberg_weyl_apply,
    metaplectic_apply,
    siegel_action,
)


@dataclass(frozen=True)
class DeformationConfig:
    """Integration and lattice-transport options for weak deformations."""

    steps: int | None = None
    method: str = "auto"
    lattice_mode: str = "affine"


@dataclass(frozen=True, eq=False)
class DeformationResult:
    """Deformed window and lattice together with the transport data."""

    window: GaussianState
    lattice: np.ndarray
    linear_flow: np.ndarray
    trajectory_end: np.ndarray
    action_phase: float
    lattice_mode: str
    source_center: np.ndarray


def weak_deform(sys: GaborSystem, H: Hamiltonian, t: float,
                cfg: DeformationConfig | None = None) -> DeformationResult:
    """Deform a Gaussian Gabor system along the flow of H up to time t.

    Window: matrix transported through the Siegel action of the linearized
    flow, center along the trajectory of the window center, phase advanced by
    the symmetrized action.  Lattice: affine nearby-orbit map
    z -> z_t + S_t (z - z_c), or the exact flow of all points in one batch.
    """
    cfg = cfg or DeformationConfig()
    window = sys.window
    if not isinstance(window, GaussianState):
        raise InvalidMatrix("weak deformation requires a Gaussian window")
    if cfg.lattice_mode not in ("affine", "exact-nonlinear"):
        raise InvalidMatrix(f"unknown lattice mode {cfg.lattice_mode!r}")
    method = auto_method(H, symplectic=False) if cfg.method == "auto" else cfg.method
    steps = default_steps(t) if cfg.steps is None else cfg.steps
    zc = window.center
    traj = integrate(H, zc, t, steps, method=method)
    S = traj.final_matrix
    zt = traj.final_point
    gamma = float(traj.final_action)
    new_window = GaussianState(
        siegel_action(S, window.M), zt, window.phase + gamma, window.hbar
    )
    pts = sys.points
    if cfg.lattice_mode == "affine":
        new_pts = zt + (pts - zc) @ S.T
    else:
        new_pts = flow_map(H, pts, 0.0, t, steps=steps, method=method)
    return DeformationResult(
        window=new_window,
        lattice=new_pts,
        linear_flow=S,
        trajectory_end=zt,
        action_phase=gamma,
        lattice_mode=cfg.lattice_mode,
        source_center=zc.copy(),
    )


def deformed_system(sys: GaborSystem, result: DeformationResult) -> GaborSystem:
    return GaborSystem(result.window, result.lattice, sys.hbar)


def matched_test_state(result: DeformationResult, psi):
    """The unitary image of psi under which the original system reproduces the
    deformed frame sum term by term:

        psi' = T(z_c) S_t^{-1} T(S_t z_c - 2 z_t) psi

    (z_c the source window center).  Derived by composing the commutation
    moves of the invariance proof; reduces to S_t^{-1} T(-2 z_t) psi for a
    centered window and to the identity at t = 0.
    """
    S = result.linear_flow
    zc = result.source_center
    zt = result.trajectory_end
    out = heisenberg_weyl_apply(S @ zc - 2.0 * zt, psi)
    out = metaplectic_apply(np.linalg.inv(S), out)
    return heisenberg_weyl_apply(zc, out)


def invariance_check(sys: GaborSystem, H: Hamiltonian, t: float, psi,
                     cfg: DeformationConfig | None = None, return_terms: bool = False):
    """Frame sum of the deformed system at psi against the frame sum of the
    original system at the matched test state.  Exact identity in the affine
    lattice mode."""
    cfg = cfg or DeformationConfig()
    if cfg.lattice_mode != "affine":
        raise InvalidMatrix("the invariance identity holds in the affine lattice mode")
    result = weak_deform(sys, H, t, cfg)
    return matched_pair(deformed_system(sys, result), psi, sys,
                        matched_test_state(result, psi), return_terms)


def gaussian_corollary_check(M, sys: GaborSystem, H: Hamiltonian, t: float, psi,
                             cfg: DeformationConfig | None = None):
    """The invariance identity for an arbitrary Siegel-matrix Gaussian window
    placed on the template system's lattice."""
    M = check_siegel(M)
    window = GaussianState(M, np.zeros(2 * M.shape[0]), 0.0, sys.hbar)
    general = GaborSystem(window, sys.lattice, sys.hbar)
    return invariance_check(general, H, t, psi, cfg)


def deform_sweep(sys: GaborSystem, H: Hamiltonian, t_grid,
                 cfg: DeformationConfig | None = None,
                 estimation: EstimationConfig | None = None):
    """Frame reports of the deformed system along a monotone time grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise InvalidMatrix("t grid must be a non-empty vector")
    if np.any(np.diff(t_grid) <= 0) and t_grid.size > 1:
        raise InvalidMatrix("t grid must be strictly increasing")
    out: list[tuple[float, FrameReport]] = []
    for t in t_grid:
        result = weak_deform(sys, H, float(t), cfg)
        report = frame_bounds(deformed_system(sys, result), estimation)
        out.append((float(t), report))
    return out
