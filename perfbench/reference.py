"""Independent references the benchmark scores the CLI against.

* Exact frame bounds of the standard Gaussian on separable lattices with
  alpha * beta = 1/q at hbar = 1/(2 pi), from the Ron-Shen fiber matrices,
  which collapse to a scalar Toeplitz symbol at these densities (Ron & Shen,
  J. Funct. Anal. 148, 1997).
* One-degree-of-freedom polynomial Hamiltonians
  H = p^2/2 + c2 x^2/2 + c3 x^3/3 + c4 x^4/4, differentiated here, and a
  vectorised classical RK4 over a batch of phase points (plus the variational
  flow of one point), checked by step doubling and energy conservation.

Nothing here imports gaborflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

# Exact bounds quoted in ROADMAP.md for the standard Gaussian, alpha = beta.
ROADMAP_BOUNDS = {2: (1.669254, 2.360681), 3: (2.891232, 3.106831)}


# ---------------------------------------------------------------------------
# Exact frame bounds
# ---------------------------------------------------------------------------

def _gauss(u):
    # standard Gaussian window at hbar = 1/(2 pi), unit L2 norm
    return 2.0 ** 0.25 * np.exp(-np.pi * u * u)


def ron_shen_symbol(x, w, alpha: float, beta: float, q: int):
    """(1/beta) sum_d e^{2 pi i d w} sum_n g(x - n alpha) g(x - (n + d q) alpha).

    Real because the d and -d terms are equal for a real window.
    """
    x = np.asarray(x, dtype=float)[..., None]
    w = np.asarray(w, dtype=float)
    n = np.arange(-int(math.ceil(8.0 / alpha)) - q, int(math.ceil(8.0 / alpha)) + q + 1)
    dmax = int(math.ceil(8.0 / (q * alpha))) + 1
    total = np.sum(_gauss(x - n * alpha) ** 2, axis=-1)
    for d in range(1, dmax + 1):
        gd = np.sum(_gauss(x - n * alpha) * _gauss(x - (n + d * q) * alpha), axis=-1)
        total = total + 2.0 * np.cos(2.0 * np.pi * d * w) * gd
    return total / beta


@lru_cache(maxsize=None)
def exact_bounds(alpha: float, beta: float) -> tuple[float, float]:
    """(A, B) as the inf and sup of the symbol over [0, alpha) x [0, 1)."""
    q = round(1.0 / (alpha * beta))
    if q < 1 or abs(alpha * beta * q - 1.0) > 1e-12:
        raise ValueError(f"alpha*beta = {alpha * beta} is not 1/q")
    xs = np.linspace(0.0, alpha, 97)
    ws = np.linspace(0.0, 1.0, 97)
    X, W = np.meshgrid(xs, ws, indexing="ij")
    values = ron_shen_symbol(X, W, alpha, beta, q)
    out = []
    for sign in (1.0, -1.0):
        i = np.unravel_index(np.argmin(sign * values), values.shape)
        res = minimize(lambda v: sign * float(ron_shen_symbol(v[0], v[1], alpha, beta, q)),
                       [X[i], W[i]], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
        out.append(float(min(sign * values[i], res.fun) * sign))
    return out[0], out[1]


def check_oracle() -> list[str]:
    """The oracle must reproduce the ROADMAP table to 1e-6."""
    problems = []
    for q, (a_tab, b_tab) in ROADMAP_BOUNDS.items():
        side = math.sqrt(1.0 / q)
        a, b = exact_bounds(side, side)
        if abs(a - a_tab) > 1e-6 or abs(b - b_tab) > 1e-6:
            problems.append(f"oracle at alpha*beta=1/{q} gives {a:.7f}/{b:.7f}, "
                            f"table {a_tab}/{b_tab}")
    return problems


# ---------------------------------------------------------------------------
# Polynomial Hamiltonians and reference flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """H = p^2/2 + c2 x^2/2 + c3 x^3/3 + c4 x^4/4 (one degree of freedom)."""

    c2: float
    c3: float
    c4: float

    def value(self, Z):
        x, p = Z[..., 0], Z[..., 1]
        return 0.5 * p * p + x * x * (self.c2 / 2 + x * (self.c3 / 3 + x * self.c4 / 4))

    def velocity(self, Z):
        x, p = Z[..., 0], Z[..., 1]
        return np.stack([p, -x * (self.c2 + x * (self.c3 + x * self.c4))], axis=-1)

    def jacobian(self, z):
        """J Hess H at one point."""
        vpp = self.c2 + z[0] * (2 * self.c3 + 3 * self.c4 * z[0])
        return np.array([[0.0, 1.0], [-vpp, 0.0]])


ANHARMONIC = Poly(0.0, 0.0, 1.0)


def _rk4(poly: Poly, Z, t: float, steps: int):
    h = t / steps
    f = poly.velocity
    for _ in range(steps):
        k1 = f(Z)
        k2 = f(Z + 0.5 * h * k1)
        k3 = f(Z + 0.5 * h * k2)
        k4 = f(Z + h * k3)
        Z = Z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return Z


def _rk4_variational(poly: Poly, z, t: float, steps: int):
    """One point together with its linearized flow S_t."""
    h = t / steps
    S = np.eye(2)

    def f(zz, SS):
        return poly.velocity(zz), poly.jacobian(zz) @ SS

    for _ in range(steps):
        k1, m1 = f(z, S)
        k2, m2 = f(z + 0.5 * h * k1, S + 0.5 * h * m1)
        k3, m3 = f(z + 0.5 * h * k2, S + 0.5 * h * m2)
        k4, m4 = f(z + h * k3, S + h * m3)
        z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        S = S + h / 6.0 * (m1 + 2 * m2 + 2 * m3 + m4)
    return z, S


@dataclass(frozen=True)
class Flow:
    """Reference images of a batch of points, with error estimates."""

    end: np.ndarray          # (N, 2)
    step_error: float        # max |flow(steps) - flow(2 steps)|
    energy_drift: float      # max relative |H(end) - H(start)|


def reference_flow(poly: Poly, Z0, t: float, steps: int) -> Flow:
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=float))
    end = _rk4(poly, Z0, t, 2 * steps)
    coarse = _rk4(poly, Z0, t, steps)
    h0 = poly.value(Z0)
    drift = np.abs(poly.value(end) - h0) / np.maximum(1.0, np.abs(h0))
    return Flow(end, float(np.max(np.abs(end - coarse))), float(np.max(drift)))


def reference_variational(poly: Poly, z0, t: float, steps: int):
    """(z_t, S_t, step_error) for one point."""
    z0 = np.asarray(z0, dtype=float)
    z, S = _rk4_variational(poly, z0, t, 2 * steps)
    zc, Sc = _rk4_variational(poly, z0, t, steps)
    err = max(float(np.max(np.abs(z - zc))), float(np.max(np.abs(S - Sc))))
    return z, S, err


def symplectic_defect(S) -> float:
    """max |S^T J S - J| over a stack of 2x2 matrices."""
    S = np.asarray(S, dtype=float).reshape(-1, 2, 2)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return float(np.max(np.abs(np.einsum("kji,jl,klm->kim", S, J, S) - J)))


# ---------------------------------------------------------------------------
# Lattices and the Gaussian frame criterion
# ---------------------------------------------------------------------------

def separable_points(alpha: float, beta: float, radius: float) -> np.ndarray:
    """Points of alpha Z x beta Z with |z| <= radius (same inclusive rule as
    the library, any order)."""
    ka = int(math.ceil(radius / alpha + 1e-9))
    kb = int(math.ceil(radius / beta + 1e-9))
    K1, K2 = np.meshgrid(np.arange(-ka, ka + 1), np.arange(-kb, kb + 1), indexing="ij")
    pts = np.stack([alpha * K1.ravel(), beta * K2.ravel()], axis=-1)
    keep = np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-12) + 1e-12
    return pts[keep]


def radius_for_count(alpha: float, beta: float, target: int) -> float:
    """A radius midway between two lattice shells whose disc holds the shell
    count closest to target, so the point count does not hinge on rounding."""
    guess = math.sqrt(target * alpha * beta / math.pi)
    r = np.sort(np.linalg.norm(separable_points(alpha, beta, 2.0 * guess + 1.0), axis=1))
    shells = np.unique(np.round(r, 12))
    counts = np.searchsorted(r, shells + 1e-9)
    best = int(np.argmin(np.abs(counts - target)))
    upper = shells[best + 1] if best + 1 < shells.size else shells[best] + 1.0
    return float(0.5 * (shells[best] + upper))


def gaussian_frame_verdict(alpha, beta, hbar: float = 1.0 / (2.0 * np.pi)):
    """Lyubarskii-Seip: a Gaussian on alpha Z x beta Z is a frame iff
    alpha * beta < 2 pi hbar, per axis, for every Gaussian width."""
    return [bool(a * b < 2.0 * np.pi * hbar) for a, b in zip(alpha, beta)]


def match_points(out, ref) -> float:
    """Largest distance after pairing each output point with its nearest
    reference point; inf when the pairing is not one to one."""
    out = np.asarray(out, dtype=float).reshape(-1, 2)
    ref = np.asarray(ref, dtype=float).reshape(-1, 2)
    if out.shape != ref.shape:
        return math.inf
    if out.size == 0:
        return 0.0
    d = np.linalg.norm(out[:, None, :] - ref[None, :, :], axis=-1)
    nearest = np.argmin(d, axis=1)
    if np.unique(nearest).size != nearest.size:
        return math.inf
    return float(np.max(d[np.arange(nearest.size), nearest]))
