"""Gaussian windows and their phase-space operations.

A window is stored as (M, center, phase, hbar) and represents the normalized
Gaussian  exp(i*phase/hbar) * T(center) * g_M  where g_M has the complex
symmetric matrix M (positive-definite imaginary part) and T is the
Heisenberg-Weyl shift

    T(z0) f(x) = exp(i (p0.x - p0.x0/2) / hbar) f(x - x0).

Internally a Gaussian state is a flat component stack: coefficients (K,),
matrices (K, n, n), centers (K, 2n) and phases (K,), with K = 1 for a
GaussianState; mixtures hold GaussianState components only.  Every
closed-form overlap goes through _overlap_core on component stacks,
broadcast over both sides.  Uniform grids (SampledWindow) provide the
independent quadrature route used by the tests and by non-Gaussian states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    GridDomainError,
    InvalidMatrix,
    NumericalDegeneracy,
    ResolutionError,
)
from .symplectic import (
    GeneratingFunctionData,
    as_phase_vector,
    blocks,
    check_symplectic,
)

SIEGEL_CONDITION_CAP = 1e12


def check_siegel(M) -> np.ndarray:
    """Validate a complex symmetric matrix with positive-definite imaginary part."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] != M.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > 1e-12 * scale:
        raise InvalidMatrix("matrix must be symmetric")
    M = 0.5 * (M + M.T)
    if np.min(np.linalg.eigvalsh(M.imag)) <= 0:
        raise InvalidMatrix("imaginary part must be positive definite")
    return M


class _Stack(NamedTuple):
    """K Gaussian components: coefficients (K,), matrices (K, n, n), centers
    (K, 2n) and phases (K,)."""

    coefficients: np.ndarray
    M: np.ndarray
    centers: np.ndarray
    phases: np.ndarray

    def column(self) -> "_Stack":
        """The stack along a new leading axis, to broadcast against a row stack."""
        return _Stack(self.coefficients, self.M[:, None], self.centers[:, None],
                      self.phases[:, None])


def _stack_states(states) -> tuple[_Stack, np.ndarray]:
    """One flat stack of the components of all states, and the state-by-
    component coefficient block B, so that <states_j | f> = B @ <components | f>."""
    stacks = [g._stack for g in states]
    stack = _Stack(*map(np.concatenate, zip(*stacks)))
    owner = np.repeat(np.arange(len(stacks)), [len(s.coefficients) for s in stacks])
    return stack, (owner == np.arange(len(stacks))[:, None]) * stack.coefficients


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A normalized Gaussian window exp(i*phase/hbar) T(center) g_M."""

    M: np.ndarray
    center: np.ndarray
    phase: float
    hbar: float

    def __post_init__(self):
        M = check_siegel(self.M)
        center = as_phase_vector(self.center, M.shape[0])
        if self.hbar <= 0:
            raise InvalidMatrix("hbar must be positive")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "phase", float(self.phase))
        object.__setattr__(self, "hbar", float(self.hbar))
        object.__setattr__(self, "_stack", _Stack(np.ones(1, dtype=complex), M[None],
                                                  center[None], np.array([self.phase])))

    @property
    def n(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """A finite linear combination of GaussianState components (flat)."""

    coefficients: np.ndarray
    components: tuple

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex).ravel()
        comps = tuple(self.components)
        if coeff.size != len(comps) or coeff.size == 0:
            raise DimensionMismatch("one coefficient per component required")
        if not all(isinstance(g, GaussianState) for g in comps):
            raise DimensionMismatch("mixture components must be GaussianState instances")
        n, hbar = comps[0].n, comps[0].hbar
        if any(g.n != n or abs(g.hbar - hbar) > 1e-15 for g in comps):
            raise DimensionMismatch("mixture components must share n and hbar")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "components", comps)
        stack = _stack_states(comps)[0]._replace(coefficients=coeff)
        object.__setattr__(self, "_stack", stack)

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def hbar(self) -> float:
        return self.components[0].hbar

    def _map(self, f) -> "GaussianMixture":
        """The mixture of f(component) with the same coefficients."""
        return GaussianMixture(self.coefficients, tuple(map(f, self.components)))


def standard_gaussian(n: int, hbar: float) -> GaussianState:
    """The standard centered Gaussian (M = iI, center 0, phase 0)."""
    return GaussianState(1j * np.eye(n), np.zeros(2 * n), 0.0, hbar)


def mixture_norm(psi: GaussianMixture) -> float:
    return float(np.sqrt(max(inner_product(psi, psi).real, 0.0)))


# ---------------------------------------------------------------------------
# Siegel half-space action and metaplectic transport of Gaussians
# ---------------------------------------------------------------------------

def siegel_action(S, M) -> np.ndarray:
    """(C + D M)(A + B M)^-1 for the block decomposition S = (A B; C D)."""
    S = check_symplectic(S)
    M = check_siegel(M)
    A, B, C, D = blocks(S)
    denom = A + B @ M
    singular_values = np.linalg.svd(denom, compute_uv=False)
    scale = max(1.0, float(singular_values[0]), float(np.max(np.abs(M))))
    if singular_values[-1] * SIEGEL_CONDITION_CAP < scale:
        raise NumericalDegeneracy("A + B M is numerically singular")
    out = (C + D @ M) @ np.linalg.inv(denom)
    return check_siegel(out)


def metaplectic_apply(S, g):
    """Transport a Gaussian along a symplectic matrix: M -> action(S)M,
    center -> S center.  The global phase is carried unchanged."""
    if isinstance(g, GaussianMixture):
        return g._map(lambda comp: metaplectic_apply(S, comp))
    S = check_symplectic(S)
    return GaussianState(siegel_action(S, g.M), S @ g.center, g.phase, g.hbar)


def heisenberg_weyl_apply(z0, g):
    """Apply the phase-space shift T(z0).

    GaussianState/GaussianMixture: exact center and phase update.
    SampledWindow: pointwise multiplier with the position shift snapped to the
    nearest grid multiple (the residual is recorded on the window).
    """
    if isinstance(g, GaussianMixture):
        return g._map(lambda comp: heisenberg_weyl_apply(z0, comp))
    if isinstance(g, SampledWindow):
        return _shift_sampled(z0, g)
    centers, phases = _shifted(g, as_phase_vector(z0, g.n))
    return GaussianState(g.M, centers[0], phases[0], g.hbar)


def rescale_window(g, hbar_new: float):
    """Unitary dilation moving a window from its hbar to hbar_new.

    In (M, center, phase) coordinates the matrix is unchanged while center and
    phase scale by sqrt(hbar_new/hbar) and hbar_new/hbar respectively.
    """
    if hbar_new <= 0:
        raise InvalidMatrix("hbar must be positive")
    if isinstance(g, GaussianMixture):
        return g._map(lambda comp: rescale_window(comp, hbar_new))
    mu = np.sqrt(hbar_new / g.hbar)
    return GaussianState(g.M, mu * g.center, mu * mu * g.phase, hbar_new)


# ---------------------------------------------------------------------------
# Closed-form inner products
# ---------------------------------------------------------------------------

def _normalization(M: np.ndarray, hbar: float) -> np.ndarray:
    n = M.shape[-1]
    return (np.linalg.det(M.imag) / (np.pi * hbar) ** n) ** 0.25


def _det_power(A: np.ndarray, power: float) -> np.ndarray:
    """det(A)^power via principal-branch eigenvalue logs (eigenvalues must
    avoid the negative real axis; holds when the Hermitian part of A is PD)."""
    eig = np.linalg.eigvals(A)
    return np.exp(power * np.sum(np.log(eig), axis=-1))


def _overlap_core(left: _Stack, M2, Z2, gamma2, hbar: float):
    """<g(M1, z1, gamma1) | g(M2, z2, gamma2)>, the left side read from a
    stack, broadcast over the leading axes of matrices (..., n, n), centers
    (..., 2n) and phases (...); matrix terms use the matrix axes only."""
    M1 = left.M
    n = M1.shape[-1]
    M2c = np.conj(M2)
    A = M1 - M2c
    Ainv = np.linalg.inv(A)
    pref = (
        _normalization(M1, hbar)
        * _normalization(M2, hbar)
        * (2.0 * np.pi * hbar) ** (n / 2.0)
        * _det_power(-1j * A, -0.5)
    )
    X1, P1 = left.centers[..., :n], left.centers[..., n:]
    Z2 = np.asarray(Z2, dtype=float)
    X2, P2 = Z2[..., :n], Z2[..., n:]
    b = (-np.einsum("...ij,...j->...i", M1, X1) + np.einsum("...ij,...j->...i", M2c, X2)
         + (P1 - P2))
    c = (
        0.5 * np.einsum("...i,...ij,...j->...", X1, M1, X1)
        - 0.5 * np.einsum("...i,...ij,...j->...", X2, M2c, X2)
        - 0.5 * np.einsum("...i,...i->...", P1, X1)
        + 0.5 * np.einsum("...i,...i->...", P2, X2)
        + (left.phases - gamma2)
    )
    quad = 0.5 * np.einsum("...i,...ij,...j->...", b, Ainv, b)
    return pref * np.exp(1j / hbar * (c - quad))


def _state_gram(states1, states2) -> np.ndarray:
    """<states1_i | states2_j> of Gaussian states and mixtures in one kernel
    call: B1 K B2^H, with K the overlaps of all their components."""
    s, B1 = _stack_states(states1)
    t, B2 = _stack_states(states2)
    K = _overlap_core(s.column(), t.M, t.centers, t.phases, states1[0].hbar)
    return B1 @ K @ B2.conj().T


def inner_product(g1, g2) -> complex:
    """L2 inner product (g1|g2) = integral g1 conj(g2), closed form."""
    if g1.n != g2.n:
        raise DimensionMismatch("states of different dimension")
    if abs(g1.hbar - g2.hbar) > 1e-15:
        raise DimensionMismatch("states with different hbar")
    return complex(_state_gram([g1], [g2])[0, 0])


def _shifted(phi: GaussianState, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Centers c + z and phases gamma + sigma(z, c)/2 of T(z) phi, per shift row z."""
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if shifts.shape[1] != 2 * phi.n:
        raise DimensionMismatch("shift rows must have length 2n")
    n = phi.n
    sig = shifts[:, n:] @ phi.center[:n] - phi.center[n:] @ shifts[:, :n].T
    return phi.center + shifts, phi.phase + 0.5 * sig


def _shift_overlaps(states, phi: GaussianState, shifts) -> np.ndarray:
    """<states_j | T(z_p) phi> for all states and shift rows, in one kernel call."""
    stack, B = _stack_states(states)
    centers, gammas = _shifted(phi, shifts)
    return B @ _overlap_core(stack.column(), phi.M, centers, gammas, phi.hbar)


def overlaps_with_shifts(psi, phi: GaussianState, shifts) -> np.ndarray:
    """<psi | T(z) phi> for every row z of shifts, shape (num_shifts,).

    psi may be a GaussianState or a GaussianMixture; phi must be Gaussian.
    """
    return _shift_overlaps([psi], phi, shifts)[0]


def shifted_gram(phi: GaussianState, shifts) -> np.ndarray:
    """Gram matrix G_ij = <T(z_i) phi | T(z_j) phi> over the given shifts.

    Filled row by row in place: a one-shot broadcast would hold several
    N x N complex temporaries at once."""
    centers, gammas = _shifted(phi, shifts)
    out = np.empty((centers.shape[0], centers.shape[0]), dtype=complex)
    for i in range(centers.shape[0]):
        row = _Stack(1.0, phi.M, centers[i], gammas[i])
        out[i] = _overlap_core(row, phi.M, centers, gammas, phi.hbar)
    return out


# ---------------------------------------------------------------------------
# Sampled windows (quadrature oracle representation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledWindow:
    """Complex samples on the uniform grid x_k = -extent + k*(2*extent/N) per
    axis; rectangle-rule quadrature weight (2*extent/N)^n."""

    extent: float
    values: np.ndarray
    hbar: float
    shift_residual: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim < 1 or values.shape[0] < 2:
            raise InvalidMatrix("need at least 2 samples per axis")
        if any(s != values.shape[0] for s in values.shape):
            raise InvalidMatrix("tensor grid must be square")
        if self.extent <= 0 or self.hbar <= 0:
            raise InvalidMatrix("extent and hbar must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "extent", float(self.extent))
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def n(self) -> int:
        return self.values.ndim

    @property
    def npoints(self) -> int:
        return self.values.shape[0]

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.npoints

    @property
    def axis(self) -> np.ndarray:
        return -self.extent + self.step * np.arange(self.npoints)

    @property
    def weight(self) -> float:
        return self.step ** self.n


def sampled_norm(w: SampledWindow) -> float:
    return float(np.sqrt(np.sum(np.abs(w.values) ** 2) * w.weight))


def sampled_inner_product(w1: SampledWindow, w2: SampledWindow) -> complex:
    """Quadrature inner product (w1|w2) on a common grid."""
    if w1.values.shape != w2.values.shape or abs(w1.extent - w2.extent) > 1e-12:
        raise DimensionMismatch("windows must share the grid")
    return complex(np.sum(w1.values * np.conj(w2.values)) * w1.weight)


def evaluate_state(g, x) -> np.ndarray:
    """Pointwise values of a GaussianState or GaussianMixture.

    x has shape (...,) for n=1 or (..., n) in general.
    """
    n, hbar = g.n, g.hbar
    x = np.asarray(x, dtype=float)
    if n == 1:
        pts = x[..., None]
    else:
        if x.shape[-1] != n:
            raise DimensionMismatch(f"points must have last axis {n}")
        pts = x
    s = g._stack
    return np.sum(s.coefficients * _component_values(s.M, s.centers, s.phases, hbar, pts), axis=-1)


def _component_values(M, centers, phases, hbar: float, pts) -> np.ndarray:
    """Values at pts (..., n) of the normalized Gaussian components with
    matrices M (K, n, n), centers (K, 2n) and phases (K,); shape (..., K)."""
    n = M.shape[-1]
    x0, p0 = centers[:, :n], centers[:, n:]
    # component axis last: dx has shape (..., K, n)
    dx = pts[..., None, :] - x0
    expo = np.einsum("...ki,kij,...kj->...k", dx, M, dx)
    # in place, so the (points x components) temporaries stay few
    expo *= 0.5
    expo += phases + (pts @ p0.T - 0.5 * np.einsum("ki,ki->k", p0, x0))
    expo *= 1j / hbar
    np.exp(expo, out=expo)
    expo *= _normalization(M, hbar)
    return expo


def sample_state(g, extent: float, npoints: int) -> SampledWindow:
    """Sample a Gaussian state or mixture on the uniform grid."""
    step = 2.0 * extent / npoints
    axis = -extent + step * np.arange(npoints)
    if g.n == 1:
        values = evaluate_state(g, axis)
    else:
        grids = np.meshgrid(*([axis] * g.n), indexing="ij")
        pts = np.stack(grids, axis=-1)
        values = evaluate_state(g, pts)
    return SampledWindow(extent, values, g.hbar)


def _shift_sampled(z0, w: SampledWindow) -> SampledWindow:
    z0 = as_phase_vector(z0, w.n)
    n = w.n
    x0, p0 = z0[:n], z0[n:]
    if np.max(np.abs(x0)) > w.extent:
        raise GridDomainError("position shift exceeds the grid half-width")
    steps = np.round(x0 / w.step).astype(int)
    snapped = steps * w.step
    residual = float(np.max(np.abs(x0 - snapped)))
    values = w.values
    for ax, k in enumerate(steps):
        values = np.roll(values, k, axis=ax)
    # multiplier exp(i (p0.x - p0.x0/2)/hbar) on the grid, using the snapped x0
    axis = w.axis
    if n == 1:
        lin = p0[0] * axis
    else:
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        lin = sum(p0[i] * grids[i] for i in range(n))
    values = values * np.exp(1j / w.hbar * (lin - 0.5 * (p0 @ snapped)))
    return SampledWindow(w.extent, values, w.hbar, w.shift_residual + residual)


# ---------------------------------------------------------------------------
# Quadratic Fourier transform (direct quadrature oracle, n = 1)
# ---------------------------------------------------------------------------

def quadratic_fourier_apply(
    data: GeneratingFunctionData, w: SampledWindow, hbar: float
) -> SampledWindow:
    """Apply the quadratic Fourier transform with generating data (P, L, Q, m)
    by direct O(N^2) quadrature of

        (2*pi*i*hbar)^(-1/2) i^m sqrt|L| * integral exp(i W(x,x')/hbar) f(x') dx'

    with W(x,x') = P x^2/2 - L x x' + Q x'^2/2.  Supported for n = 1 on grids
    that resolve the kernel oscillation.
    """
    if w.n != 1 or data.n != 1:
        raise DimensionMismatch("direct quadrature supports n = 1 only")
    P, L, Q = float(data.P[0, 0]), float(data.L[0, 0]), float(data.Q[0, 0])
    coef = max(abs(P), abs(L), abs(Q))
    required = 4.0 * w.extent**2 * coef / (np.pi * hbar)
    if w.npoints < required:
        raise ResolutionError(
            f"grid of {w.npoints} points cannot resolve the kernel; need >= {int(np.ceil(required))}"
        )
    x = w.axis
    W = 0.5 * P * x[:, None] ** 2 - L * np.outer(x, x) + 0.5 * Q * x[None, :] ** 2
    pref = (2.0 * np.pi * hbar) ** -0.5 * np.exp(-0.25j * np.pi) * (1j**data.m) * np.sqrt(abs(L))
    values = pref * (np.exp(1j * W / hbar) @ w.values) * w.step
    return SampledWindow(w.extent, values, hbar)


def stft(w: SampledWindow, window: SampledWindow, z) -> complex:
    """Short-time Fourier transform sample

        V(z) = integral exp(-2*pi*i p x') psi(x') conj(phi(x' - x)) dx'

    at z = (x, p), by quadrature on the common grid with the window shift
    snapped to the nearest grid multiple.  For hbar = 1/(2*pi) it relates to
    the shift overlap by <psi|T(z)phi> = exp(i*pi*p*x) V(z).
    """
    if w.n != 1 or window.n != 1:
        raise DimensionMismatch("stft quadrature supports n = 1 only")
    if w.values.shape != window.values.shape or abs(w.extent - window.extent) > 1e-12:
        raise DimensionMismatch("windows must share the grid")
    z = as_phase_vector(z, 1)
    x0, p0 = z[0], z[1]
    if abs(x0) > w.extent:
        raise GridDomainError("position shift exceeds the grid half-width")
    k = int(np.round(x0 / w.step))
    shifted = np.roll(window.values, k)
    axis = w.axis
    return complex(
        np.sum(np.exp(-2j * np.pi * p0 * axis) * w.values * np.conj(shifted)) * w.weight
    )
