"""Frame sums, numerical frame-bound estimation, the Gaussian frame
criterion, and the matched-pair covariance checks.

The upper bound is estimated from the largest eigenvalue of the Gram matrix
of the (truncated) Gabor system.  The lower bound is the smallest Rayleigh
quotient of the frame quadratic form over the span of a seeded family of
centrally supported test states; restricting to central states keeps the
estimate meaningful although the truncated frame operator itself has finite
rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaincc

from .errors import DimensionMismatch, InvalidMatrix, ResolutionError
from .gaussians import (
    GaussianMixture,
    GaussianState,
    SampledWindow,
    evaluate_state,
    heisenberg_weyl_apply,
    metaplectic_apply,
    mixture_norm,
    rescale_window,
    sample_state,
    sampled_norm,
    shifted_gram,
    _component_values,
    _shift_overlaps,
    _shift_sampled,
    _shifted,
    _state_gram,
)
from .symplectic import (
    Lattice,
    as_phase_vector,
    check_symplectic,
    lattice_points,
)


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """A window paired with a truncated lattice (or explicit point list)."""

    window: object
    lattice: object
    hbar: float

    def __post_init__(self):
        if abs(self.window.hbar - self.hbar) > 1e-15:
            raise DimensionMismatch("window hbar differs from system hbar")
        pts = self.points
        if pts.size and pts.shape[1] != 2 * self.window.n:
            raise DimensionMismatch("lattice dimension differs from window dimension")
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def n(self) -> int:
        return self.window.n

    @cached_property
    def points(self) -> np.ndarray:
        if isinstance(self.lattice, Lattice):
            return lattice_points(self.lattice)
        pts = np.asarray(self.lattice, dtype=float)
        if pts.size == 0:
            return pts.reshape(0, 2 * self.window.n)
        return np.atleast_2d(pts)

    @property
    def truncation_radius(self) -> float:
        if isinstance(self.lattice, Lattice):
            return self.lattice.radius
        pts = self.points
        return float(np.max(np.linalg.norm(pts, axis=1))) if pts.size else 0.0


@dataclass(frozen=True)
class EstimationConfig:
    """Parameters of frame-bound estimation.

    grid_extent/grid_points define the quadrature grid for sampled test
    states; family_size test states are generated deterministically from the
    seed (prefix-stable: smaller families are prefixes of larger ones).
    mode_degree bounds the oscillator-mode space scanned for deficiency
    witnesses (None: as large as fits the central region).
    """

    grid_extent: float = 10.0
    grid_points: int = 1024
    family_size: int = 64
    seed: int = 0
    frame_floor: float = 1e-3
    mode_degree: int | None = None


@dataclass(frozen=True)
class FrameReport:
    a_est: float
    b_est: float
    ratio: float
    is_frame: bool
    method: str
    truncation: tuple
    residual_estimate: float


def default_radius(hbar: float) -> float:
    """Truncation radius 8 * sqrt(2*pi*hbar), i.e. 8 at hbar = 1/(2*pi)."""
    return 8.0 * np.sqrt(2.0 * np.pi * hbar)


def gaussian_frame_criterion(alpha, beta, hbar: float) -> np.ndarray:
    """Per-axis strict inequality alpha_j * beta_j < 2*pi*hbar for the
    standard-Gaussian separable system."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if alpha.shape != beta.shape:
        raise DimensionMismatch("alpha and beta must have equal length")
    if not (np.all(alpha > 0) and np.all(beta > 0)):
        raise InvalidMatrix("alpha and beta must be positive")
    return alpha * beta < 2.0 * np.pi * hbar


# ---------------------------------------------------------------------------
# Frame sums
# ---------------------------------------------------------------------------

def frame_terms(sys: GaborSystem, psi) -> np.ndarray:
    """Per-lattice-point terms |<psi | T(z) phi>|^2 in enumeration order."""
    return np.abs(_frame_vectors(sys, [psi])[0]) ** 2


def frame_sum(sys: GaborSystem, psi) -> float:
    """Sum over the enumerated lattice of |<psi | T(z) phi>|^2.

    Terms are accumulated in sorted order, so the value is exactly invariant
    under re-enumeration of the same point set.
    """
    return float(np.sum(np.sort(frame_terms(sys, psi))))


# ---------------------------------------------------------------------------
# Test family for the lower bound
# ---------------------------------------------------------------------------

def _random_siegel_scalar(rng) -> complex:
    return complex(rng.normal(0.0, 0.3), np.exp(rng.normal(0.0, 0.3)))


def hermite_functions(axis: np.ndarray, hbar: float, degree_max: int) -> np.ndarray:
    """Orthonormal oscillator modes on the grid, shape (degree_max + 1, N).

    Stable normalized recurrence; mode d is the degree-d polynomial excitation
    of the standard width-sqrt(hbar) Gaussian.
    """
    u = axis / np.sqrt(hbar)
    out = np.zeros((degree_max + 1, axis.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * u**2) * hbar**-0.25
    if degree_max >= 1:
        out[1] = np.sqrt(2.0) * u * out[0]
    for d in range(2, degree_max + 1):
        out[d] = np.sqrt(2.0 / d) * u * out[d - 1] - np.sqrt((d - 1) / d) * out[d - 2]
    return out


def _auto_mode_degree(cfg: EstimationConfig, hbar: float) -> int:
    # largest oscillator mode whose turning radius fits the central region
    support = cfg.grid_extent / 2.0
    return max(8, min(int((support**2 / hbar - 1.0) / 2.0), 256))


def _family_member(index: int, n: int, hbar: float, cfg: EstimationConfig):
    """Deterministic test state number `index`.

    Even indices are random Gaussian mixtures with centers inside the central
    region; odd indices (for n = 1) climb the oscillator-mode ladder on the
    standard window width.  Both branches are prefix-stable in the family
    size.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    box = cfg.grid_extent / 4.0
    if index % 2 == 0 or n > 1:
        num = int(rng.integers(1, 4))
        comps = []
        for _ in range(num):
            center = rng.uniform(-box, box, size=2 * n)
            M = np.diag([_random_siegel_scalar(rng) for _ in range(n)])
            comps.append(GaussianState(M, center, rng.normal(), hbar))
        coeff = rng.normal(size=num) + 1j * rng.normal(size=num)
        mix = GaussianMixture(coeff, tuple(comps))
        return GaussianMixture(mix.coefficients / mixture_norm(mix), mix.components)
    return ("mode", (index + 1) // 2)


def _realize_family_sampled(members, extent: float, npoints: int, hbar: float):
    """Realize family members as normalized sampled windows on the grid."""
    step = 2.0 * extent / npoints
    axis = -extent + step * np.arange(npoints)
    degrees = [m[1] for m in members if isinstance(m, tuple) and m[0] == "mode"]
    modes = hermite_functions(axis, hbar, max(degrees)) if degrees else None
    out = []
    for member in members:
        if isinstance(member, tuple) and member[0] == "mode":
            values = modes[member[1]].astype(complex)
        else:
            values = evaluate_state(member, axis)
        w = SampledWindow(extent, values, hbar)
        out.append(SampledWindow(extent, w.values / sampled_norm(w), hbar))
    return out


def build_test_family(n: int, hbar: float, cfg: EstimationConfig, witnesses=()):
    """The seeded test family: sampled windows for n = 1, Gaussian mixtures
    otherwise.  Any witness states are appended after the standard members."""
    num_standard = max(cfg.family_size - len(witnesses), 1)
    members = [_family_member(k, n, hbar, cfg) for k in range(num_standard)]
    if n == 1:
        return _realize_family_sampled(members, cfg.grid_extent, cfg.grid_points, hbar) + list(witnesses)
    return members + list(witnesses)


def deficiency_witnesses(sys: GaborSystem, cfg: EstimationConfig):
    """Scan the oscillator-mode space that fits the central region and return
    the eight states minimizing the frame Rayleigh quotient there.

    These witnesses sharpen the lower-bound estimate near the critical
    density, where the near-deficient directions are high-order mode
    combinations that a small random family misses.
    """
    if sys.n != 1:
        return []
    degree = cfg.mode_degree if cfg.mode_degree is not None else _auto_mode_degree(cfg, sys.hbar)
    step = 2.0 * cfg.grid_extent / cfg.grid_points
    # top mode must stay below the grid Nyquist wavenumber
    if np.sqrt((2.0 * degree + 1.0) / sys.hbar) > 0.8 * np.pi / step:
        raise ResolutionError(
            f"grid of {cfg.grid_points} points cannot resolve oscillator mode {degree}; "
            "increase grid_points or reduce mode_degree"
        )
    axis = -cfg.grid_extent + step * np.arange(cfg.grid_points)
    modes = hermite_functions(axis, sys.hbar, degree)
    family = [SampledWindow(cfg.grid_extent, row.astype(complex), sys.hbar) for row in modes]
    m = _frame_vectors(sys, family)
    A = (m @ m.conj().T).real
    # modes are orthonormal up to grid quadrature error; no whitening needed
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    count = min(8, len(family))
    out = []
    for j in range(count):
        values = (modes.T @ V[:, j]).astype(complex)
        win = SampledWindow(cfg.grid_extent, values, sys.hbar)
        out.append(SampledWindow(cfg.grid_extent, win.values / sampled_norm(win), sys.hbar))
    return out


# ---------------------------------------------------------------------------
# Frame bounds
# ---------------------------------------------------------------------------

def _shifted_samples(window: SampledWindow, pts) -> np.ndarray:
    """Samples of T(z) window on its grid, one flattened row per point z."""
    rows = [_shift_sampled(z, window).values.ravel() for z in pts]
    return np.array(rows).reshape(len(pts), window.values.size)


def _gram_matrix(sys: GaborSystem) -> np.ndarray:
    pts = sys.points
    window = sys.window
    if isinstance(window, GaussianState):
        return shifted_gram(window, pts)
    W = _shifted_samples(window, pts)
    return (W @ W.conj().T) * window.weight


def _on_window_grid(psi, window: SampledWindow) -> SampledWindow:
    """A test state as samples on the grid of a sampled window."""
    if isinstance(psi, (GaussianState, GaussianMixture)):
        psi = sample_state(psi, window.extent, window.npoints)
    elif not isinstance(psi, SampledWindow):
        raise DimensionMismatch(f"unsupported test state type {type(psi).__name__}")
    if psi.values.shape != window.values.shape:
        raise DimensionMismatch("test state grid differs from window grid")
    return psi


def _frame_vectors(sys: GaborSystem, family) -> np.ndarray:
    """Matrix m[j, p] = <psi_j | T(z_p) phi>.

    A Gaussian window takes Gaussian test states (closed-form overlaps) or
    one-dimensional sampled ones on a shared grid; a sampled window takes
    either, Gaussian states being sampled onto its grid.
    """
    pts = sys.points
    window = sys.window
    if isinstance(window, SampledWindow):
        vals = np.array([_on_window_grid(s, window).values.ravel() for s in family])
        return vals @ _shifted_samples(window, pts).conj().T * window.weight
    if not isinstance(window, GaussianState):
        raise DimensionMismatch(f"unsupported window type {type(window).__name__}")
    if all(isinstance(s, (GaussianState, GaussianMixture)) for s in family):
        return _shift_overlaps(family, window, pts)
    for s in family:
        if not isinstance(s, SampledWindow):
            raise DimensionMismatch(f"unsupported test state type {type(s).__name__}; "
                                    "a test family is all Gaussian or all sampled")
        if s.n != 1:
            raise DimensionMismatch("sampled test states are one-dimensional")
    grid = family[0]
    centers, phases = _shifted(window, pts)
    M = np.broadcast_to(window.M, (len(phases),) + window.M.shape)
    shifted = _component_values(M, centers, phases, window.hbar, grid.axis[:, None])
    vals = np.array([s.values for s in family])
    return vals @ shifted.conj() * grid.weight


def _family_gram(family) -> np.ndarray:
    if isinstance(family[0], SampledWindow):
        vals = np.array([s.values.ravel() for s in family])
        return (vals @ vals.conj().T) * family[0].weight
    return _state_gram(family, family)


def residual_tail_estimate(sys: GaborSystem) -> float:
    """Order-of-magnitude bound on the frame-sum mass discarded by the radial
    truncation, from the Gaussian decay of the shift overlaps."""
    n, hbar = sys.n, sys.hbar
    R = sys.truncation_radius
    window = sys.window
    spread = 1.0
    if isinstance(window, GaussianState):
        eigs = np.linalg.eigvalsh(window.M.imag)
        spread = max(float(eigs.max()), 1.0 / float(eigs.min()))
    s = hbar * spread
    if isinstance(sys.lattice, Lattice):
        density = 1.0 / abs(np.linalg.det(sys.lattice.generator))
    else:
        pts = sys.points
        volume = np.pi**n * max(R, 1e-9) ** (2 * n) / math.factorial(n)
        density = pts.shape[0] / volume if pts.size else 0.0
    return float(density * (2.0 * np.pi * s) ** n * gammaincc(n, R**2 / (2.0 * s)))


def frame_bounds(sys: GaborSystem, cfg: EstimationConfig | None = None) -> FrameReport:
    """Estimate frame bounds of a truncated Gabor system (reported as method
    "eig").

    The upper bound is the largest eigenvalue of the Gram matrix of the
    truncated system.  The lower bound is the minimal Rayleigh quotient of the
    frame form over the span of the test family (whitened generalized
    eigenvalue problem).
    """
    cfg = cfg or EstimationConfig()
    if cfg.family_size < 1:
        raise InvalidMatrix("test family is empty")
    witnesses = deficiency_witnesses(sys, cfg)
    family = build_test_family(sys.n, sys.hbar, cfg, witnesses=witnesses)
    m = _frame_vectors(sys, family)
    A = m @ m.conj().T
    G = _family_gram(family)
    gram = _gram_matrix(sys)
    b_est = float(np.max(np.linalg.eigvalsh(gram))) if gram.size else 0.0
    w, V = np.linalg.eigh(G)
    keep = w > 1e-8 * max(float(w[-1]), 1e-300)
    T = V[:, keep] / np.sqrt(w[keep])
    compressed = T.conj().T @ A @ T
    a_est = float(max(np.min(np.linalg.eigvalsh(compressed)), 0.0)) if compressed.size else 0.0
    a_est = min(a_est, b_est)
    ratio = float("inf") if a_est == 0 else b_est / a_est
    return FrameReport(
        a_est=a_est,
        b_est=b_est,
        ratio=ratio,
        is_frame=bool(a_est > cfg.frame_floor * b_est),
        method="eig",
        truncation=(sys.truncation_radius, cfg.grid_extent, cfg.grid_points),
        residual_estimate=residual_tail_estimate(sys),
    )


# ---------------------------------------------------------------------------
# Matched-pair identities (symplectic covariance, translations, rescaling)
# ---------------------------------------------------------------------------

def matched_pair(mapped: GaborSystem, psi, sys: GaborSystem, matched, return_terms: bool):
    """Frame terms of the mapped system at psi against those of the original
    system at the matched state: per-point arrays when return_terms is set,
    else the two frame sums."""
    t1 = frame_terms(mapped, psi)
    t2 = frame_terms(sys, matched)
    if return_terms:
        return t1, t2
    return float(np.sum(t1)), float(np.sum(t2))


def covariance_check(sys: GaborSystem, S, psi, return_terms: bool = False):
    """Frame sum of (S.phi-window, S.Lattice) at psi against the frame sum of
    the original system at the matched state S^{-1}psi.  Exact identity."""
    S = check_symplectic(S)
    window = sys.window
    if not isinstance(window, GaussianState):
        raise InvalidMatrix("covariance check requires a Gaussian window")
    pts = sys.points
    mapped = GaborSystem(metaplectic_apply(S, window), pts @ S.T, sys.hbar)
    return matched_pair(mapped, psi, sys, metaplectic_apply(np.linalg.inv(S), psi), return_terms)


def translation_check(sys: GaborSystem, z0, z1, psi, return_terms: bool = False):
    """Window shifted by z0 and lattice translated by z1 against the original
    system at the matched state T(-z0-z1)psi.  Exact identity."""
    window = sys.window
    z0 = as_phase_vector(z0, sys.n)
    z1 = as_phase_vector(z1, sys.n)
    pts = sys.points
    shifted_sys = GaborSystem(heisenberg_weyl_apply(z0, window), pts + z1, sys.hbar)
    return matched_pair(shifted_sys, psi, sys, heisenberg_weyl_apply(-(z0 + z1), psi),
                        return_terms)


def rescaling_check(sys: GaborSystem, hbar_new: float, psi, return_terms: bool = False):
    """Planck-constant change: the system (dilated window, mu*Lattice) at
    hbar_new against the original at the back-dilated test state, with
    mu = sqrt(hbar_new/hbar).  Exact identity."""
    if hbar_new <= 0:
        raise InvalidMatrix("hbar must be positive")
    window = sys.window
    mu = np.sqrt(hbar_new / sys.hbar)
    if isinstance(sys.lattice, Lattice):
        lat = sys.lattice
        scaled = Lattice(mu * lat.generator, mu * lat.radius, shift=mu * lat.shift,
                         point_cap=lat.point_cap)
    else:
        scaled = sys.points * mu
    rescaled_sys = GaborSystem(rescale_window(window, hbar_new), scaled, hbar_new)
    return matched_pair(rescaled_sys, psi, sys, rescale_window(psi, sys.hbar), return_terms)
