"""Frame sums, numerical frame-bound estimation, the Gaussian frame
criterion, and the matched-pair covariance checks.

The upper bound is estimated from the largest eigenvalue of the Gram matrix
of the (truncated) Gabor system.  When the points are centred (z -> -z maps
the point set onto itself, as for every centred lattice) and the window is a
Gaussian, the parity operator commutes with the Gram, which is then solved as
its even and odd blocks from half its rows.  The lower bound is the smallest
Rayleigh quotient of the frame quadratic form over the span of a seeded family
of centrally supported test states; restricting to central states keeps the
estimate meaningful although the truncated frame operator itself has finite
rank.

For n = 1 and for sampled windows, frame_bounds samples T(z_p) phi once into a
table that the witness scan, the family product and a sampled window's Gram
share; a Gaussian window's table is dropped before its closed-form Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import blas_threads
from .errors import DimensionMismatch, InvalidMatrix, ResolutionError, ResourceLimit
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
    _gram_rows,
    _grid_axis,
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
        if not isinstance(self.window, (GaussianState, SampledWindow)):
            raise DimensionMismatch(f"unsupported window type {type(self.window).__name__}")
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
    """

    grid_extent: float = 10.0
    grid_points: int = 1024
    family_size: int = 64
    seed: int = 0
    frame_floor: float = 1e-3


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

def frame_terms(sys: GaborSystem, family) -> np.ndarray:
    """Terms |<psi_j | T(z_p) phi>|^2 of a test family, shape (states, points),
    points in enumeration order; the row sums are the frame sums."""
    return np.abs(_frame_vectors(sys, family)) ** 2


def frame_sum(sys: GaborSystem, psi) -> float:
    """Sum over the enumerated lattice of |<psi | T(z) phi>|^2.

    Terms are accumulated in sorted order, so the value is exactly invariant
    under re-enumeration of the same point set.
    """
    return float(np.sum(np.sort(frame_terms(sys, [psi])[0])))


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
    axis = _grid_axis(extent, npoints)
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


def deficiency_witnesses(sys: GaborSystem, cfg: EstimationConfig, table=None):
    """Scan the oscillator-mode space that fits the central region and return
    the eight states minimizing the frame Rayleigh quotient there.

    These witnesses sharpen the lower-bound estimate near the critical
    density, where the near-deficient directions are high-order mode
    combinations that a small random family misses.  table, when given, holds
    the window samples of _window_table on the grid of cfg.
    """
    if sys.n != 1:
        return []
    degree = _auto_mode_degree(cfg, sys.hbar)
    step = 2.0 * cfg.grid_extent / cfg.grid_points
    # top mode must stay below the grid Nyquist wavenumber
    if np.sqrt((2.0 * degree + 1.0) / sys.hbar) > 0.8 * np.pi / step:
        raise ResolutionError(f"grid of {cfg.grid_points} points cannot resolve oscillator "
                              f"mode {degree}; increase grid_points")
    axis = _grid_axis(cfg.grid_extent, cfg.grid_points)
    modes = hermite_functions(axis, sys.hbar, degree)
    family = [SampledWindow(cfg.grid_extent, row.astype(complex), sys.hbar) for row in modes]
    m = _frame_vectors(sys, family, table)
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


def _window_table(sys: GaborSystem, extent: float, npoints: int) -> np.ndarray:
    """Samples of T(z_p) phi, one row per point: a sampled window shifted on
    its own grid, a one-dimensional Gaussian window on the grid (extent, npoints)."""
    window = sys.window
    if isinstance(window, SampledWindow):
        return _shifted_samples(window, sys.points)
    centers, phases = _shifted(window, sys.points)
    M = np.broadcast_to(window.M, (len(phases),) + window.M.shape)
    axis = _grid_axis(extent, npoints)
    return _component_values(M, centers, phases, window.hbar, axis[:, None]).T


def _parity_split(sys: GaborSystem) -> bool:
    """Whether the Gram commutes with the flip i -> N-1-i of the point order.

    It does for a Gaussian window on points with pts[::-1] == -pts exactly,
    which every centred Lattice enumerates: the Gram of T(c)phi is D* G0 D,
    with D the diagonal of phases exp(i sigma(z_i, c)/hbar) and G0 the Gram of
    the window moved to the origin, and the parity operator fixes that window
    and maps T(z) to T(-z).
    """
    pts = sys.points
    return isinstance(sys.window, GaussianState) and np.array_equal(pts[::-1], -pts)


def _gram_matrix(sys: GaborSystem, table=None) -> np.ndarray:
    """Rows of the Gram G_ij = <T(z_i) phi | T(z_j) phi>: all N of them, or
    under _parity_split the first ceil(N/2) rows of the Gram of the window
    moved to the origin, which has the same spectrum.  A sampled window's
    Gram is the product of its _window_table, taken from table when given."""
    pts = sys.points
    window = sys.window
    if _parity_split(sys):
        centred = GaussianState(window.M, np.zeros(2 * sys.n), 0.0, window.hbar)
        return _gram_rows(centred, pts, pts.shape[0] - pts.shape[0] // 2)
    if isinstance(window, GaussianState):
        return shifted_gram(window, pts)
    if table is None:
        table = _shifted_samples(window, pts)
    return (table @ table.conj().T) * window.weight


def _largest_eigenvalue(rows: np.ndarray) -> float:
    """Largest eigenvalue of the Gram whose rows _gram_matrix built.

    A full Gram takes one dense solve.  Half the rows of a Gram G that commutes
    with the flip J: i -> N-1-i split it into the block of the even vectors
    (e_i + e_Ji)/sqrt2, bordered by e_h for the middle point of an odd N, and
    the block of the odd vectors (e_i - e_Ji)/sqrt2; with h = N // 2 and
    C_ij = G_i,Jj these are G[:h, :h] +- C plus the border.
    """
    N = rows.shape[1]
    if N == 0:
        return 0.0
    if rows.shape[0] == N:
        return float(np.max(np.linalg.eigvalsh(rows)))
    h = N // 2
    top = rows[:h, :h]
    cross = rows[:h, N - h:][:, ::-1]
    even = np.empty((N - h, N - h), dtype=complex)
    even[:h, :h] = top + cross
    if N % 2:
        even[:h, h] = np.sqrt(2.0) * rows[:h, h]
        even[h, :h] = np.sqrt(2.0) * rows[h, :h]
        even[h, h] = rows[h, h]
    return float(max(np.linalg.eigvalsh(even)[-1], np.linalg.eigvalsh(top - cross)[-1]))


def _frame_vectors(sys: GaborSystem, family, table=None) -> np.ndarray:
    """Matrix m[j, p] = <psi_j | T(z_p) phi>.

    A Gaussian window takes Gaussian test states (closed-form overlaps) or 1-D
    sampled ones on the grid of the first; a sampled window takes either,
    sampling Gaussian ones onto its grid.  table: the _window_table of the grid.
    """
    if len(family) == 0:
        raise InvalidMatrix("test family is empty")
    window = sys.window
    gaussian = (GaussianState, GaussianMixture)
    if isinstance(window, SampledWindow):
        grid = window
    elif all(isinstance(s, gaussian) for s in family):
        return _shift_overlaps(family, window, sys.points)
    elif isinstance(family[0], SampledWindow) and family[0].n == sys.n == 1:
        grid = family[0]
    else:
        raise DimensionMismatch("a Gaussian window takes Gaussian states, or sampled ones in 1-D")
    vals = []
    for s in family:
        if grid is window and isinstance(s, gaussian):
            s = sample_state(s, grid.extent, grid.npoints)
        if not isinstance(s, SampledWindow):
            raise DimensionMismatch(f"unsupported test state type {type(s).__name__}")
        if s.values.shape != grid.values.shape or abs(s.extent - grid.extent) > 1e-12:
            raise DimensionMismatch("test state grid differs from the grid of the window samples")
        vals.append(s.values.ravel())
    if table is None:
        table = _window_table(sys, grid.extent, grid.npoints)
    return np.array(vals) @ table.conj().T * grid.weight


def _family_gram(family) -> np.ndarray:
    if isinstance(family[0], SampledWindow):
        vals = np.array([s.values.ravel() for s in family])
        return (vals @ vals.conj().T) * family[0].weight
    return _state_gram(family, family)


def _upper_gamma_q(n: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(n, x) for an integer n >= 1, in
    closed form: e^-x sum_{k<n} x^k / k!, and 0 once e^-x underflows."""
    weight = math.exp(-x)
    if weight == 0.0:
        return 0.0
    term = total = 1.0
    for k in range(1, n):
        term *= x / k
        total += term
    return weight * total


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
    return float(density * (2.0 * np.pi * s) ** n * _upper_gamma_q(n, R**2 / (2.0 * s)))


# Below this many lattice points the frame-bound solves run on one BLAS thread:
# there a second thread saves at most a few percent of the call on an idle
# 2-core host, and costs a third or more of it while the other core is busy.
PARALLEL_BLAS_MIN_POINTS = 700

# Bytes frame_bounds may allocate for its Gram rows, parity blocks and window
# samples, checked before any of them is built.  The 1609 points of the
# largest benchmark system (alpha*beta = 1/2, R = 16) need about 70 MB.
FRAME_BOUNDS_BYTE_BUDGET = 1 << 30


def _frame_bounds_bytes(sys: GaborSystem, cfg: EstimationConfig) -> int:
    """Bytes of the largest arrays of frame_bounds: the Gram rows, the parity
    blocks and the shifted window sampled on the grid."""
    N = sys.points.shape[0]
    if _parity_split(sys):
        half = N // 2
        rows, blocks = (N - half) * N, (N - half) ** 2 + half**2
    else:
        rows, blocks = N * N, 0
    if isinstance(sys.window, SampledWindow):
        samples = N * sys.window.values.size
    else:
        samples = N * cfg.grid_points if sys.n == 1 else 0
    return 16 * (rows + blocks + samples)


def frame_bounds(sys: GaborSystem, cfg: EstimationConfig | None = None) -> FrameReport:
    """Estimate frame bounds of a truncated Gabor system (reported as method
    "eig").

    The upper bound is the largest eigenvalue of the Gram matrix of the
    truncated system, solved in parity blocks from half its rows whenever a
    Gaussian window sits on centred points (see _parity_split).  The lower
    bound is the minimal Rayleigh quotient of the frame form over the span of
    the test family (whitened generalized eigenvalue problem).  For n = 1 and
    sampled windows (on their own grid, at n = 1 that of cfg), T(z_p) phi is
    sampled once for the witness scan, the family product and a sampled
    window's Gram; a Gaussian window's samples are freed before its Gram.
    Raises ResourceLimit when the arrays would exceed FRAME_BOUNDS_BYTE_BUDGET.
    """
    cfg = cfg or EstimationConfig()
    if cfg.family_size < 1:
        raise InvalidMatrix("test family is empty")
    need = _frame_bounds_bytes(sys, cfg)
    if need > FRAME_BOUNDS_BYTE_BUDGET:
        raise ResourceLimit(f"frame bounds of {sys.points.shape[0]} points need {need} bytes "
                            f"(budget {FRAME_BOUNDS_BYTE_BUDGET}); reduce radius")
    with blas_threads(1 if sys.points.shape[0] < PARALLEL_BLAS_MIN_POINTS else None):
        sampled = isinstance(sys.window, SampledWindow)
        table = (_window_table(sys, cfg.grid_extent, cfg.grid_points)
                 if sys.n == 1 or sampled else None)
        witnesses = deficiency_witnesses(sys, cfg, table)
        family = build_test_family(sys.n, sys.hbar, cfg, witnesses=witnesses)
        m = _frame_vectors(sys, family, table)
        if not sampled:
            table = None  # the closed-form Gram needs no samples: free them first
        b_est = _largest_eigenvalue(_gram_matrix(sys, table))
        A = m @ m.conj().T
        G = _family_gram(family)
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

def matched_pair(mapped: GaborSystem, psis, sys: GaborSystem, matched):
    """Frame terms of the mapped system at psis against those of the original
    system at the matched states: two (states, points) arrays."""
    return frame_terms(mapped, psis), frame_terms(sys, matched)


def covariance_check(sys: GaborSystem, S, psis):
    """(S.phi-window, S.Lattice) at each test state psi against the original
    system at the matched state S^{-1}psi.  Exact identity."""
    S = check_symplectic(S)
    window = sys.window
    if not isinstance(window, GaussianState):
        raise InvalidMatrix("covariance check requires a Gaussian window")
    mapped = GaborSystem(metaplectic_apply(S, window), sys.points @ S.T, sys.hbar)
    S_inv = np.linalg.inv(S)
    return matched_pair(mapped, psis, sys, [metaplectic_apply(S_inv, psi) for psi in psis])


def translation_check(sys: GaborSystem, z0, z1, psis):
    """Window shifted by z0 and lattice translated by z1, at each test state
    psi, against the original system at the matched state T(-z0-z1)psi."""
    z0 = as_phase_vector(z0, sys.n)
    z1 = as_phase_vector(z1, sys.n)
    shifted_sys = GaborSystem(heisenberg_weyl_apply(z0, sys.window), sys.points + z1, sys.hbar)
    return matched_pair(shifted_sys, psis, sys,
                        [heisenberg_weyl_apply(-(z0 + z1), psi) for psi in psis])


def rescaling_check(sys: GaborSystem, hbar_new: float, psis):
    """Planck-constant change: the system (dilated window, mu*Lattice) at
    hbar_new at each test state psi against the original at the back-dilated
    state, with mu = sqrt(hbar_new/hbar).  Exact identity."""
    if hbar_new <= 0:
        raise InvalidMatrix("hbar must be positive")
    mu = np.sqrt(hbar_new / sys.hbar)
    if isinstance(sys.lattice, Lattice):
        lat = sys.lattice
        scaled = Lattice(mu * lat.generator, mu * lat.radius, shift=mu * lat.shift,
                         point_cap=lat.point_cap)
    else:
        scaled = sys.points * mu
    rescaled_sys = GaborSystem(rescale_window(sys.window, hbar_new), scaled, hbar_new)
    return matched_pair(rescaled_sys, psis, sys, [rescale_window(psi, sys.hbar) for psi in psis])
