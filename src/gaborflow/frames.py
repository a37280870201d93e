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

Test states are analytic: Gaussian mixtures and, for n = 1, HermiteStates
(the oscillator-mode ladder and the witnesses of the mode scan), so against a
Gaussian window every overlap and the family Gram are closed-form at any n.
Only a sampled window uses a grid, its own: it samples a family of analytic
test states there in one pass, takes sampled test states on that grid only,
and frame_bounds shifts it once into a table that the witness scan, the
family product and its Gram share.
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
    HermiteState,
    SampledWindow,
    heisenberg_weyl_apply,
    metaplectic_apply,
    mixture_norm,
    rescale_window,
    shifted_gram,
    _grid_nodes,
    _shift_overlaps,
    _shift_sampled,
    _state_gram,
    _state_values,
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

    grid_extent sets the central region of the test states (the highest
    oscillator mode and the box of mixture centers); a one-dimensional
    sampled window must have a grid of that half-width, sampled finely enough
    for the highest mode.  family_size test states are generated
    deterministically from the seed (prefix-stable: smaller families are
    prefixes of larger ones).
    """

    grid_extent: float = 10.0
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


def _auto_mode_degree(cfg: EstimationConfig, hbar: float) -> int:
    # largest oscillator mode whose turning radius fits the central region
    support = cfg.grid_extent / 2.0
    return max(8, min(int((support**2 / hbar - 1.0) / 2.0), 256))


def _mode(degree: int, hbar: float) -> HermiteState:
    """The oscillator mode h_degree as a HermiteState."""
    return HermiteState(np.eye(degree + 1)[degree], hbar)


def _family_member(index: int, n: int, hbar: float, cfg: EstimationConfig):
    """Deterministic test state number `index`.

    Even indices are random Gaussian mixtures with centers inside the central
    region; odd indices (for n = 1) climb the oscillator-mode ladder on the
    standard window width as HermiteStates.  Both branches are prefix-stable
    in the family size.
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
    return _mode((index + 1) // 2, hbar)


def build_test_family(n: int, hbar: float, cfg: EstimationConfig, witnesses=()):
    """The seeded test family: Gaussian mixtures, and for n = 1 HermiteStates
    at odd indices.  Any witness states are appended after the standard
    members."""
    num_standard = max(cfg.family_size - len(witnesses), 1)
    return [_family_member(k, n, hbar, cfg) for k in range(num_standard)] + list(witnesses)


def deficiency_witnesses(sys: GaborSystem, cfg: EstimationConfig, table=None):
    """Scan the oscillator-mode space that fits the central region and return
    the eight states minimizing the frame Rayleigh quotient there.

    These witnesses sharpen the lower-bound estimate near the critical
    density, where the near-deficient directions are high-order mode
    combinations that a small random family misses.  They are HermiteStates,
    and the scan runs in closed form for a Gaussian window.  A sampled window
    must have the half-width grid_extent of cfg and resolve the top mode on
    its grid; table, when given, holds its shifted samples (_shifted_samples).
    """
    if sys.n != 1:
        return []
    degree = _auto_mode_degree(cfg, sys.hbar)
    window = sys.window
    if isinstance(window, SampledWindow):
        if abs(window.extent - cfg.grid_extent) > 1e-12:
            raise DimensionMismatch("the half-width of the window grid differs from grid_extent")
        # top mode must stay below the grid Nyquist wavenumber
        if np.sqrt((2.0 * degree + 1.0) / sys.hbar) > 0.8 * np.pi / window.step:
            raise ResolutionError(f"grid of {window.npoints} points cannot resolve oscillator "
                                  f"mode {degree}; sample the window on more points")
    modes = [_mode(k, sys.hbar) for k in range(degree + 1)]
    m = _frame_vectors(sys, modes, table)
    A = (m @ m.conj().T).real
    # the modes are orthonormal: no whitening needed
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    return [HermiteState(V[:, j], sys.hbar) for j in range(min(8, len(modes)))]


# ---------------------------------------------------------------------------
# Frame bounds
# ---------------------------------------------------------------------------

def _shifted_samples(window: SampledWindow, pts) -> np.ndarray:
    """Samples of T(z) window on its grid, one flattened row per point z."""
    rows = [_shift_sampled(z, window).values.ravel() for z in pts]
    return np.array(rows).reshape(len(pts), window.values.size)


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
    Gram is the product of its _shifted_samples, taken from table when given."""
    pts = sys.points
    window = sys.window
    if _parity_split(sys):
        centred = GaussianState(window.M, np.zeros(2 * sys.n), 0.0, window.hbar)
        return shifted_gram(centred, pts, pts.shape[0] - pts.shape[0] // 2)
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

    A Gaussian window takes analytic test states (Gaussian, mixture and
    Hermite states), in closed form.  A sampled window takes analytic states,
    all sampled onto its grid in one pass, and sampled states on that same
    grid.  table: the _shifted_samples of a sampled window.
    """
    if len(family) == 0:
        raise InvalidMatrix("test family is empty")
    window = sys.window
    analytic = (GaussianState, GaussianMixture, HermiteState)
    if not all(isinstance(s, analytic + (SampledWindow,)) and s.n == sys.n for s in family):
        raise DimensionMismatch("test states must be analytic or sampled states of the "
                                "window's dimension")
    on_grid = np.array([isinstance(s, SampledWindow) for s in family])
    if isinstance(window, GaussianState):
        if on_grid.any():
            raise DimensionMismatch("a Gaussian window takes analytic test states only")
        return _shift_overlaps(family, window, sys.points)
    sampled = [s for s in family if isinstance(s, SampledWindow)]
    if any(s.values.shape != window.values.shape or abs(s.extent - window.extent) > 1e-12
           for s in sampled):
        raise DimensionMismatch("test state grid differs from the grid of the window samples")
    vals = np.empty((len(family), window.values.size), dtype=complex)
    if sampled:
        vals[on_grid] = [s.values.ravel() for s in sampled]
    if not on_grid.all():
        states = [s for s in family if not isinstance(s, SampledWindow)]
        vals[~on_grid] = _state_values(states, _grid_nodes(window.extent, window.npoints, sys.n))
    if table is None:
        table = _shifted_samples(window, sys.points)
    return vals @ table.conj().T * window.weight


def _family_gram(family) -> np.ndarray:
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

# Bytes frame_bounds may allocate for its Gram rows, parity blocks, window
# samples and test family, checked before any of them is built.  The 1609
# points of the largest benchmark system (alpha*beta = 1/2, R = 16) need about
# 51 MB.
FRAME_BOUNDS_BYTE_BUDGET = 1 << 30


def _frame_bounds_bytes(sys: GaborSystem, cfg: EstimationConfig) -> int:
    """Bytes of the largest arrays of frame_bounds: the Gram rows, the parity
    blocks, and the test family's frame vectors (with the mode columns of the
    witness scan at n = 1), their component overlaps and the component block
    of the family Gram, at most 3 components per mixture.  A sampled window
    adds, per node of its grid, its shifted samples and the family's samples,
    their component values and mode table included."""
    N = sys.points.shape[0]
    if _parity_split(sys):
        half = N // 2
        rows, blocks = (N - half) * N, (N - half) ** 2 + half**2
    else:
        rows, blocks = N * N, 0
    components = 3 * cfg.family_size
    modes = _auto_mode_degree(cfg, sys.hbar) + 1 if sys.n == 1 else 0
    family = cfg.family_size + components + modes
    nodes = sys.window.values.size if isinstance(sys.window, SampledWindow) else 0
    return 16 * (rows + blocks + family * N + components**2 + (N + family) * nodes)


def frame_bounds(sys: GaborSystem, cfg: EstimationConfig | None = None) -> FrameReport:
    """Estimate frame bounds of a truncated Gabor system (reported as method
    "eig").

    The upper bound is the largest eigenvalue of the Gram matrix of the
    truncated system, solved in parity blocks from half its rows whenever a
    Gaussian window sits on centred points (see _parity_split).  The lower
    bound is the minimal Rayleigh quotient of the frame form over the span of
    the test family (whitened generalized eigenvalue problem).  A Gaussian
    window uses no grid; a sampled window is shifted on its grid once for the
    witness scan, the family product and its Gram.  Raises ResourceLimit when
    the arrays would exceed FRAME_BOUNDS_BYTE_BUDGET.
    """
    cfg = cfg or EstimationConfig()
    if cfg.family_size < 1:
        raise InvalidMatrix("test family is empty")
    need = _frame_bounds_bytes(sys, cfg)
    if need > FRAME_BOUNDS_BYTE_BUDGET:
        raise ResourceLimit(f"frame bounds of {sys.points.shape[0]} points need {need} bytes "
                            f"(budget {FRAME_BOUNDS_BYTE_BUDGET}); reduce radius or family size")
    with blas_threads(1 if sys.points.shape[0] < PARALLEL_BLAS_MIN_POINTS else None):
        table = (_shifted_samples(sys.window, sys.points)
                 if isinstance(sys.window, SampledWindow) else None)
        witnesses = deficiency_witnesses(sys, cfg, table)
        family = build_test_family(sys.n, sys.hbar, cfg, witnesses=witnesses)
        m = _frame_vectors(sys, family, table)
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
        truncation=(sys.truncation_radius, cfg.grid_extent),
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
        scaled = Lattice(mu * lat.generator, mu * lat.radius, shift=mu * lat.shift)
    else:
        scaled = sys.points * mu
    rescaled_sys = GaborSystem(rescale_window(sys.window, hbar_new), scaled, hbar_new)
    return matched_pair(rescaled_sys, psis, sys, [rescale_window(psi, sys.hbar) for psi in psis])
