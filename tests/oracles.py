"""Independent oracles that the tests compare the closed forms against.

* Quadrature: states sampled on uniform grids (SampledWindow), their norms and
  inner products by the rectangle rule, a direct quadratic-Fourier transform
  and an STFT sampler.  Every Gaussian component and every oscillator mode is
  evaluated here from the public fields of its state, so no check shares a
  helper with the closed forms it checks.
* Exact frame bounds of a one-dimensional Gaussian window on alpha Z x beta Z
  at rational density, from the Zibulski-Zeevi fiber matrices (Zibulski &
  Zeevi, ACHA 4, 1997; Ron & Shen, J. Funct. Anal. 148, 1997).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gaborflow.errors import DimensionMismatch, GaborflowError, InvalidMatrix, ResolutionError
from gaborflow.gaussians import GaussianMixture, HermiteState
from gaborflow.symplectic import GeneratingFunctionData, as_phase_vector


class GridDomainError(GaborflowError, ValueError):
    """A sampled-window operation left the grid domain (shift beyond half-width)."""


# ---------------------------------------------------------------------------
# Sampled windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledWindow:
    """Complex samples on the uniform grid x_k = -extent + k*(2*extent/N) per
    axis; rectangle-rule quadrature weight (2*extent/N)^n."""

    extent: float
    values: np.ndarray
    hbar: float

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
        return _grid_axis(self.extent, self.npoints)

    @property
    def weight(self) -> float:
        return self.step ** self.n


def _grid_axis(extent: float, npoints: int) -> np.ndarray:
    return -extent + 2.0 * extent / npoints * np.arange(npoints)


def _grid_nodes(extent: float, npoints: int, n: int) -> np.ndarray:
    """The nodes of the n-dimensional grid, shape (npoints**n, n), in the
    order of the flattened samples of a SampledWindow on it."""
    axes = np.meshgrid(*([_grid_axis(extent, npoints)] * n), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, n)


def sampled_norm(w: SampledWindow) -> float:
    return float(np.sqrt(np.sum(np.abs(w.values) ** 2) * w.weight))


def sampled_inner_product(w1: SampledWindow, w2: SampledWindow) -> complex:
    """Quadrature inner product (w1|w2) on a common grid."""
    if w1.values.shape != w2.values.shape or abs(w1.extent - w2.extent) > 1e-12:
        raise DimensionMismatch("windows must share the grid")
    return complex(np.sum(w1.values * np.conj(w2.values)) * w1.weight)


def hermite_functions(axis: np.ndarray, hbar: float, degree_max: int) -> np.ndarray:
    """Orthonormal oscillator modes on the grid, shape (degree_max + 1, N).

    Stable normalized recurrence; mode d is the degree-d polynomial excitation
    of the standard width-sqrt(hbar) Gaussian.
    """
    u = axis / np.sqrt(hbar)
    out = np.zeros((degree_max + 1, axis.size))
    out[:1] = np.pi**-0.25 * np.exp(-0.5 * u**2) * hbar**-0.25
    if degree_max >= 1:
        out[1] = np.sqrt(2.0) * u * out[0]
    for d in range(2, degree_max + 1):
        out[d] = np.sqrt(2.0 / d) * u * out[d - 1] - np.sqrt((d - 1) / d) * out[d - 2]
    return out


def evaluate_state(g, x) -> np.ndarray:
    """Pointwise values of a GaussianState, GaussianMixture or HermiteState.

    x has shape (...,) for n=1 or (..., n) in general.
    """
    n = g.n
    x = np.asarray(x, dtype=float)
    if n > 1 and x.shape[-1:] != (n,):
        raise DimensionMismatch(f"points must have last axis {n}")
    shape = x.shape if n == 1 else x.shape[:-1]
    return _state_values(g, x.reshape(-1, n)).reshape(shape)


def _state_values(g, pts) -> np.ndarray:
    """Values of one Gaussian, mixture or Hermite state at the points pts (P, n)."""
    if isinstance(g, HermiteState):
        return g.coefficients @ hermite_functions(pts[:, 0], g.hbar, len(g.coefficients) - 1)
    if isinstance(g, GaussianMixture):
        return sum(c * _gaussian_values(comp, pts)
                   for c, comp in zip(g.coefficients, g.components))
    return _gaussian_values(g, pts)


def _gaussian_values(g, pts) -> np.ndarray:
    """exp(i*phase/hbar) T(center) g_M at the points pts (P, n):
    (det Im M/(pi hbar)^n)^(1/4) exp(i/hbar ((x - x0).M(x - x0)/2 + p0.x - p0.x0/2 + phase))."""
    n = g.n
    x0, p0 = g.center[:n], g.center[n:]
    dx = pts - x0
    expo = 0.5 * np.einsum("ki,ij,kj->k", dx, g.M, dx) + pts @ p0 - 0.5 * p0 @ x0 + g.phase
    norm = (np.linalg.det(g.M.imag) / (np.pi * g.hbar) ** n) ** 0.25
    return norm * np.exp(1j / g.hbar * expo)


def sample_state(g, extent: float, npoints: int) -> SampledWindow:
    """Sample a Gaussian state, mixture or HermiteState on the uniform grid."""
    values = _state_values(g, _grid_nodes(extent, npoints, g.n))
    return SampledWindow(extent, values.reshape((npoints,) * g.n), g.hbar)


# ---------------------------------------------------------------------------
# Quadratic Fourier transform (direct quadrature, n = 1)
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


# ---------------------------------------------------------------------------
# Exact frame bounds at rational density (n = 1)
# ---------------------------------------------------------------------------

# largest denominator q of the density alpha*beta/(2 pi hbar) = p/q
MAX_DENOMINATOR = 6


class _FiberSymbol:
    """The Zibulski-Zeevi p x p matrices of the window g_M (center 0, phase 0)
    on alpha Z x beta Z, where alpha*beta/(2 pi hbar) = p/q < 1.

    With the shift s = 2 pi hbar/beta between the copies that a modulation by
    beta mixes, Walnut's representation writes the frame operator as
    S f(x) = s sum_k G_k(x) f(x - k s), G_k(x) = sum_j g(x - j alpha)
    conj g(x - j alpha - k s), and G_k has period alpha.  On the samples
    f(x + l s), l in Z, S acts as a Laurent operator whose coefficients have
    period p in l (s = q alpha/p), so its spectrum is that of the p x p
    symbols P(x, theta)_uv = s sum_m G_(u - v - p m)(x + u s) e^(2 pi i m theta)
    over theta in [0, 1).  Shifts of x by alpha and by s give unitarily
    equivalent operators, and so x in [0, alpha/p) is a fundamental domain.
    """

    def __init__(self, alpha: float, beta: float, m: complex, hbar: float):
        density = Fraction(alpha * beta / (2.0 * math.pi * hbar)).limit_denominator(
            MAX_DENOMINATOR)
        if abs(density - alpha * beta / (2.0 * math.pi * hbar)) > 1e-12 or not 0 < density < 1:
            raise ValueError(f"alpha*beta/(2 pi hbar) = {alpha * beta / (2 * math.pi * hbar)} "
                             f"is not p/q < 1 with q <= {MAX_DENOMINATOR}")
        if not m.imag > 0:
            raise ValueError("the window matrix needs a positive imaginary part")
        self.p = density.numerator
        self.alpha, self.shift, self.m, self.hbar = alpha, 2.0 * math.pi * hbar / beta, m, hbar
        # |g(t)| = (Im m/(pi hbar))^(1/4) exp(-(t/width)^2): below 1e-19 of its
        # peak past 6.6 widths, so products of two copies vanish past 13.2
        self.width = math.sqrt(2.0 * hbar / m.imag)
        reach = math.ceil(13.2 * self.width / self.shift) + self.p
        self.ks = np.arange(-reach, reach + 1)

    def _window(self, t):
        m, hbar = self.m, self.hbar
        return (m.imag / (math.pi * hbar)) ** 0.25 * np.exp(0.5j * m / hbar * t * t)

    def matrices(self, x, theta) -> np.ndarray:
        """P(x, theta) over the grid x (X,) by theta (T,), shape (X, T, p, p)."""
        p, alpha, shift = self.p, self.alpha, self.shift
        y = np.asarray(x, dtype=float)[:, None] + shift * np.arange(p)   # (X, p)
        edge = 6.6 * self.width
        j = np.arange(math.floor((y.min() - edge) / alpha) - 1,
                      math.ceil((y.max() + edge) / alpha) + 2)
        u = y[..., None] - alpha * j                                     # (X, p, J)
        G = np.einsum("xuj,xujk->xuk", self._window(u),
                      np.conj(self._window(u[..., None] - shift * self.ks)))
        phases = np.exp(2j * np.pi * np.asarray(theta, dtype=float))     # (T,)
        out = np.zeros((y.shape[0], len(phases), p, p), dtype=complex)
        for a in range(p):
            for b in range(p):
                take = (a - b - self.ks) % p == 0
                powers = phases[:, None] ** ((a - b - self.ks[take]) // p)   # (T, K)
                out[:, :, a, b] = shift * G[:, a, take] @ powers.T
        return out

    def eigenvalue(self, x: float, theta: float, end: int) -> float:
        return float(np.linalg.eigvalsh(self.matrices([x], [theta])[0, 0])[end])


@lru_cache(maxsize=None)
def exact_frame_bounds(alpha: float, beta: float, m: complex = 1j,
                       hbar: float = 1.0 / (2.0 * np.pi)) -> tuple[float, float]:
    """(A, B) of the window g_m on alpha Z x beta Z, for alpha*beta/(2 pi hbar)
    = p/q < 1 with q <= MAX_DENOMINATOR: the least and the largest eigenvalue
    of the fiber matrices, taken on a 97 x 97 grid of the fundamental domain
    and refined by Nelder-Mead from the best grid point."""
    from scipy.optimize import minimize

    symbol = _FiberSymbol(alpha, beta, complex(m), hbar)
    xs = np.linspace(0.0, alpha / symbol.p, 97)
    thetas = np.linspace(0.0, 1.0, 97)
    ends = np.linalg.eigvalsh(symbol.matrices(xs, thetas))[..., [0, -1]]
    out = []
    for end, sign in ((0, 1.0), (-1, -1.0)):
        values = ends[..., end]
        i = np.unravel_index(np.argmin(sign * values), values.shape)
        res = minimize(lambda v: sign * symbol.eigenvalue(v[0], v[1], end),
                       [xs[i[0]], thetas[i[1]]], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
        out.append(float(min(sign * values[i], res.fun) * sign))
    return out[0], out[1]
