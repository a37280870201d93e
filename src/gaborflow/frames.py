"""Frame sums, numerical frame-bound estimation, the Gaussian frame
criterion, and the matched-pair covariance checks.

A lattice system G(phi, Lambda) gets both bounds from the Gram of its adjoint
lattice Lambda^o (symplectic.adjoint_lattice), by the duality principle (Ron &
Shen, J. Funct. Anal. 148, 1997; Janssen, J. Fourier Anal. Appl. 1, 1995):
G(phi, Lambda) is a frame with bounds A, B iff G(phi, Lambda^o) is a Riesz
sequence with bounds vol(Lambda) A/(2 pi hbar)^n and vol(Lambda) B/(2 pi hbar)^n,
and those are the extreme eigenvalues of the Gram of Lambda^o.  The Gram of
Lambda^o truncated at the system's own radius is a compression of that
operator, so its least eigenvalue lies above the Riesz bound and its largest
below: a_est >= A and b_est <= B.  A lattice of volume (2 pi hbar)^n or more
carries no frame (the density theorem; at equality, Balian-Low for Gaussian
windows), so there a_est is 0 without a solve and b_est comes from the Gram of
Lambda without its shift.  The same rule holds plane by plane: when the
generator couples no two (x_k, p_k) planes and the window matrix is diagonal,
the frame operator is the tensor product of the planes' ones, A = A_1 ... A_n,
so a plane at or past its critical density 2 pi hbar gives a_est 0, and b_est
still comes from the Gram of Lambda^o.  No lattice report enumerates Lambda,
and a shift of Lambda or of the window, a unitary, enters neither Gram, not
even by rounding.

An explicit point set (an exact-nonlinear image, say) has no adjoint lattice.
Its upper bound is the largest eigenvalue of the Gram matrix of the points,
and its lower bound the smallest Rayleigh quotient of the frame quadratic form
over the span of a seeded family of centrally supported test states;
restricting to central states keeps the estimate meaningful although the
truncated frame operator itself has finite rank.  The family is fixed
(FAMILY_SIZE, FAMILY_EXTENT, FAMILY_SEED) and no CLI command reaches it.

Every Gram is solved in symmetry sectors.  For a Gaussian window, symplectic
covariance mu(S) T(z) = T(Sz) mu(S) turns every point map z -> Sz whose
metaplectic operator fixes the window into a unitary symmetry of the Gram:
the parity z -> -z on centred points, and the quarter turn z -> Jz as well
when the window is the standard Gaussian and J maps the points onto
themselves (a square lattice).  The Gram is then built from the rows of
orbit representatives only and solved as one complex Hermitian block per
character of the turn or the parity: four blocks of about N/4 on a square
lattice, two of about N/2 on other centred points.

The window is a GaussianState.  Test states are analytic: Gaussian mixtures
and, for n = 1, HermiteStates (the oscillator-mode ladder and the witnesses of
the mode scan), so every overlap and the family Gram are closed-form at any n
and no quadrature grid is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._blas import blas_threads
from .errors import DimensionMismatch, InvalidMatrix, check_bytes
from .gaussians import (
    GaussianMixture,
    GaussianState,
    HermiteState,
    heisenberg_weyl_apply,
    metaplectic_apply,
    mixture_norm,
    rescale_window,
    shifted_gram,
    _gram_chunk_rows,
    _overlap_bytes,
    _shift_overlaps,
    _state_gram,
)
from .symplectic import (
    Lattice,
    adjoint_lattice,
    as_phase_vector,
    check_symplectic,
    lattice_points,
)


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """A Gaussian window paired with a truncated lattice (or explicit point
    list); a Lattice is enumerated on the first read of points, not before."""

    window: GaussianState
    lattice: object
    hbar: float

    def __post_init__(self):
        if not isinstance(self.window, GaussianState):
            raise DimensionMismatch(f"a Gabor system takes a GaussianState window, not "
                                    f"{type(self.window).__name__}")
        if abs(self.window.hbar - self.hbar) > 1e-15:
            raise DimensionMismatch("window hbar differs from system hbar")
        lat = self.lattice
        dim = 2 * lat.n if isinstance(lat, Lattice) else self.points.shape[1]
        if dim != 2 * self.window.n:
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
        return np.atleast_2d(pts) if pts.size else pts.reshape(0, 2 * self.window.n)

    @property
    def truncation_radius(self) -> float:
        if isinstance(self.lattice, Lattice):
            return self.lattice.radius
        pts = self.points
        return float(np.max(np.linalg.norm(pts, axis=1))) if pts.size else 0.0


# the default verdict threshold: a report is a frame when a_est > frame_floor * b_est
FRAME_FLOOR = 1e-3


@dataclass(frozen=True)
class FrameReport:
    """truncation is the radius R.  residual_estimate is the frame-sum tail
    beyond R (residual_tail_estimate); for a "dual" report that is the tail of
    Lambda, not the error of truncating Lambda^o, which sets the bound gaps."""

    a_est: float
    b_est: float
    ratio: float
    is_frame: bool
    method: str
    truncation: float
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
# Test family for the lower bound of a point set
# ---------------------------------------------------------------------------

# FAMILY_SIZE states drawn from FAMILY_SEED, whose mixture centres and highest
# oscillator mode fit the central region of width FAMILY_EXTENT
FAMILY_SIZE = 64
FAMILY_EXTENT = 10.0
FAMILY_SEED = 0


def _random_siegel_scalar(rng) -> complex:
    return complex(rng.normal(0.0, 0.3), np.exp(rng.normal(0.0, 0.3)))


def _auto_mode_degree(hbar: float) -> int:
    # largest oscillator mode whose turning radius fits the central region
    support = FAMILY_EXTENT / 2.0
    return max(8, min(int((support**2 / hbar - 1.0) / 2.0), 256))


def _mode(degree: int, hbar: float) -> HermiteState:
    """The oscillator mode h_degree as a HermiteState."""
    return HermiteState(np.eye(degree + 1)[degree], hbar)


def _family_member(index: int, n: int, hbar: float):
    """Deterministic test state number `index`.

    Even indices are random Gaussian mixtures with centers inside the central
    region; odd indices (for n = 1) climb the oscillator-mode ladder on the
    standard window width as HermiteStates.  Both branches are prefix-stable
    in the family size.
    """
    rng = np.random.default_rng(np.random.SeedSequence([FAMILY_SEED, index]))
    box = FAMILY_EXTENT / 4.0
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


def build_test_family(n: int, hbar: float, size: int, witnesses=()):
    """The seeded test family of size states: Gaussian mixtures, and for n = 1
    HermiteStates at odd indices.  Any witness states are appended after the
    standard members, which are prefix-stable in size."""
    if size < 1:
        raise InvalidMatrix("test family is empty")
    num_standard = max(size - len(witnesses), 1)
    return [_family_member(k, n, hbar) for k in range(num_standard)] + list(witnesses)


def deficiency_witnesses(sys: GaborSystem):
    """Scan the oscillator-mode space that fits the central region and return
    the eight states minimizing the frame Rayleigh quotient there.

    These witnesses sharpen the lower-bound estimate near the critical
    density, where the near-deficient directions are high-order mode
    combinations that a small random family misses.  They are HermiteStates,
    and the scan runs in closed form.
    """
    if sys.n != 1:
        return []
    degree = _auto_mode_degree(sys.hbar)
    modes = [_mode(k, sys.hbar) for k in range(degree + 1)]
    m = _frame_vectors(sys, modes)
    A = (m @ m.conj().T).real
    # the modes are orthonormal: no whitening needed
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    return [HermiteState(V[:, j], sys.hbar) for j in range(min(8, len(modes)))]


# ---------------------------------------------------------------------------
# Frame bounds
# ---------------------------------------------------------------------------

class _Sectors(NamedTuple):
    """The unitary point symmetry of a Gram that its sector solve uses.

    r is a point permutation of order m: the quarter turn z -> Jz for m = 4,
    the parity z -> -z for m = 2, none for m = 1.  It acts on the Gram of the
    system's window moved to the origin as G[r i, r j] = G[i, j].  turns[d, o]
    is the point index of r^d z_o for each orbit representative o (turns[0]
    are the representatives).  Every orbit has length m but that of the
    origin, which r fixes and which comes last; it carries only the character
    1, so sizes, the side of the block of each character w^j
    (w = exp(2 pi i/m)), is all representatives for j = 0 and all but the
    origin for j > 0.
    """

    turns: np.ndarray
    sizes: tuple


def _index_map(pts: np.ndarray, order: np.ndarray, image: np.ndarray):
    """The permutation q with pts[q[i]] == image[i] exactly, or None when the
    image rows are not a reordering of pts; order is np.lexsort(pts.T)."""
    back = np.lexsort(image.T)
    if not np.array_equal(pts[order], image[back]):
        return None
    q = np.empty(len(pts), dtype=int)
    q[back] = order
    return q


def _symmetry(sys: GaborSystem) -> _Sectors:
    """The unitary symmetry of the Gram of a Gaussian window, found from exact
    data: the window matrix and an exact index permutation of the points,
    never the Gram entries, which hold it only to rounding.

    The Gram of T(z_i)phi is D* G0 D, with D the diagonal of phases
    exp(i sigma(z_i, c)/hbar) and G0 the Gram of the window moved to the
    origin, so G0 has the same spectrum.  A point map z -> Sz is a symmetry of
    G0 when the metaplectic operator mu(S), with mu(S) T(z) = T(Sz) mu(S),
    fixes that window up to a phase: the parity always; the quarter turn J
    when M = iI, the one point M = -M^-1 of the Siegel space on which J acts
    as M -> -M^-1 (testing M @ M == -I instead would overflow on a large M).
    Point lists with repeated points take no symmetry.
    """
    pts = sys.points
    N, n = pts.shape[0], sys.n
    none = _Sectors(np.arange(N)[None], (N,))
    if N == 0:
        return none
    order = np.lexsort(pts.T)
    ordered = pts[order]
    if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
        return none
    turn, m = None, 4
    if np.array_equal(sys.window.M, 1j * np.eye(n)):
        turn = _index_map(pts, order, np.hstack([pts[:, n:], -pts[:, :n]]))
    if turn is None:
        turn, m = _index_map(pts, order, -pts), 2
    if turn is None:
        return none
    turns = [np.arange(N)]
    for _ in range(m - 1):
        turns.append(turn[turns[-1]])
    turns = np.array(turns)
    # each orbit is represented by its smallest point index; J and -I fix
    # only the origin, which goes last
    turns = turns[:, turns.min(axis=0) == turns[0]]
    fixed = turns[-1] == turns[0]
    turns = turns[:, np.argsort(fixed, kind="stable")]
    reps = turns.shape[1]
    return _Sectors(turns, (reps,) + (reps - int(fixed.sum()),) * (m - 1))


def _gram_matrix(sys: GaborSystem, sym: _Sectors) -> np.ndarray:
    """The Gram rows G_ij = <T(z_i) phi | T(z_j) phi> that the sector solve
    of sym needs, those of the orbit representatives sym.turns[0], with the
    window phi moved to the origin."""
    window = sys.window
    centred = GaussianState(window.M, np.zeros(2 * sys.n), 0.0, window.hbar)
    return shifted_gram(centred, sys.points, sym.turns[0])


def _sector_blocks(rows: np.ndarray, sym: _Sectors):
    """The complex Hermitian blocks of the Gram whose representative rows
    _gram_matrix built, one per character of r.

    The orbit of a representative o under r of order m spans, for each
    character w^j with w^(jL) = 1 (L the orbit length), the vector
    v_oj = L^(-1/2) sum_{k<L} w^(-jk) e_(r^k o) with r v = w^j v.  In these the
    Gram splits into the m blocks
    B_j[o, o'] = sqrt(L L')/m sum_{d<m} w^(-jd) G[o, r^d o'], one FFT over d
    of the gathered columns G[o, r^d o'].
    """
    m = sym.turns.shape[0]
    sums = rows[:, None, :] if m == 1 else np.fft.fft(rows[:, sym.turns], axis=1)
    for j, k in enumerate(sym.sizes):
        if k == 0:
            continue
        block = sums[:k, j, :k]
        if k > sym.sizes[-1]:
            # block 0 holds the origin, of orbit length 1
            lengths = np.where(np.arange(k) < sym.sizes[-1], m, 1)
            block = block * (np.sqrt(np.outer(lengths, lengths)) / m)
        yield block


def _eigenvalue_range(rows: np.ndarray, sym: _Sectors) -> tuple[float, float]:
    """Least and largest eigenvalue of the Gram whose representative rows
    _gram_matrix built, over its _sector_blocks; (0, 0) for no points."""
    ends = [np.linalg.eigvalsh(b)[[0, -1]] for b in _sector_blocks(rows, sym)]
    if not ends:
        return 0.0, 0.0
    ends = np.array(ends)
    return float(ends[:, 0].min()), float(ends[:, 1].max())


def _frame_vectors(sys: GaborSystem, family) -> np.ndarray:
    """Matrix m[j, p] = <psi_j | T(z_p) phi> of Gaussian, mixture and Hermite
    states, each summed over its own components and modes.  Raises
    ResourceLimit before the kernel runs when its arrays would exceed
    errors.BYTE_BUDGET (check_frame_vectors)."""
    if len(family) == 0:
        raise InvalidMatrix("test family is empty")
    analytic = (GaussianState, GaussianMixture, HermiteState)
    if not all(isinstance(s, analytic) and s.n == sys.n for s in family):
        raise DimensionMismatch("test states must be Gaussian, mixture or Hermite states of "
                                "the window's dimension")
    components = sum(len(s._stack.coefficients) for s in family)
    modes = max((len(s.coefficients) for s in family if isinstance(s, HermiteState)), default=0)
    check_frame_vectors(sys, len(family), components, modes, "reduce radius")
    return _shift_overlaps(family, sys.window, sys.points)


def check_frame_vectors(sys: GaborSystem, states: int, components: int, modes: int,
                        remedy: str):
    """Raise ResourceLimit when _frame_vectors of `states` states with
    `components` Gaussian components in all and `modes` oscillator modes would
    exceed the budget: at every point, the overlaps of the states and of the
    modes, and those of the components with the kernel's temporaries and
    their coefficient-scaled copy.  Every term is linear in the state count."""
    N = sys.points.shape[0]
    need = N * (16 * (states + modes) + components * (_overlap_bytes(sys.n) + 16))
    check_bytes(need, f"frame terms of {states} states at {N} points", remedy)


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
    eigs = np.linalg.eigvalsh(sys.window.M.imag)
    s = hbar * max(float(eigs.max()), 1.0 / float(eigs.min()))
    if isinstance(sys.lattice, Lattice):
        density = 1.0 / abs(np.linalg.det(sys.lattice.generator))
    else:
        pts = sys.points
        volume = np.pi**n * max(R, 1e-9) ** (2 * n) / math.factorial(n)
        density = pts.shape[0] / volume if pts.size else 0.0
    return float(density * (2.0 * np.pi * s) ** n * _upper_gamma_q(n, R**2 / (2.0 * s)))


def _gram_bytes(sys: GaborSystem, sym: _Sectors) -> int:
    """Bytes of the largest arrays of a sector solve of the Gram of sys: the
    Gram rows of sym's representatives, one row chunk of kernel temporaries,
    and under a symmetry the gathered orbit columns, their m character sums
    and the m complex sector blocks."""
    N = sys.points.shape[0]
    m, reps = sym.turns.shape
    gram = 16 * reps * N + min(_gram_chunk_rows(sys.n, N), reps) * N * _overlap_bytes(sys.n)
    if m > 1:
        gram += 2 * 16 * m * reps**2 + 16 * sum(k**2 for k in sym.sizes)
    return gram


def _frame_bounds_bytes(sys: GaborSystem, sym: _Sectors) -> int:
    """Bytes of the largest arrays of frame_bounds on a point set: those of
    the sector solve of its Gram (_gram_bytes), and the test family's frame
    vectors (with the mode columns of the witness scan at n = 1), their
    component overlaps and the component block of the family Gram, at most 3
    components per mixture."""
    N = sys.points.shape[0]
    components = 3 * FAMILY_SIZE
    modes = _auto_mode_degree(sys.hbar) + 1 if sys.n == 1 else 0
    family = FAMILY_SIZE + components + modes
    return _gram_bytes(sys, sym) + 16 * (family * N + components**2)


def frame_bounds(sys: GaborSystem, frame_floor: float = FRAME_FLOOR) -> FrameReport:
    """Estimate the frame bounds of a truncated Gabor system; the verdict
    is_frame is a_est > frame_floor * b_est.

    A system on a Lattice takes the dual route (method "dual") and never reads
    sys.points: a_est and b_est are (2 pi hbar)^n/vol(Lambda) times the least
    and the largest eigenvalue of the Gram of the adjoint lattice, truncated at
    the system's own radius, so a_est >= A and b_est <= B.  When
    vol(Lambda) >= (2 pi hbar)^n (to relative 1e-12) no Gabor system on the
    lattice is a frame: a_est is 0 without a solve, and b_est is the largest
    eigenvalue of the Gram of the truncated lattice without its shift, again
    <= B.  When the system is a product over its (x_k, p_k) planes (no
    generator entry couples two planes, and the window matrix is diagonal)
    and one plane's cell |det L_k| is at or past 2 pi hbar (to the same
    relative 1e-12), a_est is 0 as well, since A is the product of the
    planes' bounds; b_est still comes from the Gram of the adjoint lattice.
    At n = 1 this is the density rule itself.  Both Grams are of unshifted
    lattices, so the report depends on the window matrix, the generator, the
    radius and hbar only.

    An explicit point set takes the test-family route (method "eig"): b_est
    is the largest eigenvalue of the Gram of the points, and a_est the
    minimal Rayleigh quotient of the frame form over the span of the test
    family (whitened generalized eigenvalue problem), an estimate of the
    truncated system's A from above.

    Either Gram is solved in the complex blocks of its quarter turn or
    parity, from the rows of orbit representatives only (see _symmetry and
    _sector_blocks).  Every solve runs on one BLAS thread, so the output
    does not depend on the core count.  Raises ResourceLimit when the arrays
    would exceed errors.BYTE_BUDGET; the largest benchmark system (alpha*beta =
    1/2, R = 16: 405 adjoint points) needs about 6.0 MB.
    """
    if isinstance(sys.lattice, Lattice):
        return _dual_bounds(sys, frame_floor)
    sym = _symmetry(sys)
    check_bytes(_frame_bounds_bytes(sys, sym), f"frame bounds of {sys.points.shape[0]} points",
                "reduce radius")
    with blas_threads(1):
        witnesses = deficiency_witnesses(sys)
        family = build_test_family(sys.n, sys.hbar, FAMILY_SIZE, witnesses=witnesses)
        m = _frame_vectors(sys, family)
        b_est = _eigenvalue_range(_gram_matrix(sys, sym), sym)[1]
        A = m @ m.conj().T
        G = _family_gram(family)
        w, V = np.linalg.eigh(G)
        keep = w > 1e-8 * max(float(w[-1]), 1e-300)
        T = V[:, keep] / np.sqrt(w[keep])
        compressed = T.conj().T @ A @ T
        a_est = float(max(np.min(np.linalg.eigvalsh(compressed)), 0.0)) if compressed.size else 0.0
    return _report(sys, frame_floor, min(a_est, b_est), b_est, "eig")


def _plane_past_critical(sys: GaborSystem) -> bool:
    """Whether the lattice system sys is a product over its (x_k, p_k) planes
    (no generator entry couples two planes, and the window matrix is
    diagonal) with a plane whose cell |det L_k| is at or past 2 pi hbar, to
    relative 1e-12.  That plane's Gaussian system, and so sys, then has
    lower bound 0."""
    n, L = sys.n, sys.lattice.generator
    plane = np.arange(2 * n) % n
    if np.any(L[plane[:, None] != plane]) or np.any(sys.window.M[~np.eye(n, dtype=bool)]):
        return False
    axes = np.stack([np.arange(n), np.arange(n) + n], axis=1)
    cells = np.abs(np.linalg.det(L[axes[:, :, None], axes[:, None, :]]))
    return bool(np.any(cells >= 2.0 * np.pi * sys.hbar * (1.0 - 1e-12)))


def _dual_bounds(sys: GaborSystem, frame_floor: float) -> FrameReport:
    """frame_bounds of a lattice system, from the Gram of an unshifted lattice."""
    lat = sys.lattice
    cell = (2.0 * np.pi * sys.hbar) ** sys.n
    volume = abs(float(np.linalg.det(lat.generator)))
    frame_density = volume < cell * (1.0 - 1e-12)
    gram_lat = (adjoint_lattice(lat, sys.hbar) if frame_density
                else Lattice(lat.generator, lat.radius))
    gram_sys = GaborSystem(sys.window, gram_lat, sys.hbar)
    sym = _symmetry(gram_sys)
    check_bytes(_gram_bytes(gram_sys, sym), f"frame bounds of {gram_sys.points.shape[0]} points",
                "reduce radius")
    with blas_threads(1):
        least, largest = _eigenvalue_range(_gram_matrix(gram_sys, sym), sym)
    if not frame_density:
        a_est, b_est = 0.0, largest
    elif _plane_past_critical(sys):
        a_est, b_est = 0.0, cell / volume * largest
    else:
        # rounding may take the least eigenvalue of a Gram near the critical
        # density below 0, which no Gram reaches
        a_est, b_est = cell / volume * max(least, 0.0), cell / volume * largest
    return _report(sys, frame_floor, a_est, b_est, "dual")


def _report(sys: GaborSystem, frame_floor: float, a_est: float, b_est: float,
            method: str) -> FrameReport:
    return FrameReport(
        a_est=a_est,
        b_est=b_est,
        ratio=float("inf") if a_est == 0 else b_est / a_est,
        is_frame=bool(a_est > frame_floor * b_est),
        method=method,
        truncation=sys.truncation_radius,
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
    mapped = GaborSystem(metaplectic_apply(S, sys.window), sys.points @ S.T, sys.hbar)
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
    rescaled_sys = GaborSystem(rescale_window(sys.window, hbar_new), sys.points * mu, hbar_new)
    return matched_pair(rescaled_sys, psis, sys, [rescale_window(psi, sys.hbar) for psi in psis])
