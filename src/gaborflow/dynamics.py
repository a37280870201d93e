"""Hamiltonian functions, exact affine flows, symplectic integrators, the
linearized flow S_t (the derivative of the numerical flow, so symplectic to
rounding for the exact, euler and verlet methods), action phases, and
reconstruction of Hamiltonians from symplectic paths and isotopies.

Sign conventions: the equations of motion are dz/dt = J grad H(z, t) with the
standard J, i.e. dx/dt = dH/dp and dp/dt = -dH/dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (DimensionMismatch, DivergenceError, InvalidMatrix, InverseIterationError,
                     ResolutionError, check_bytes)
from .symplectic import AffineSymplectic, as_phase_vector, is_symplectic, standard_j

OVERFLOW_GUARD = 1e8
GUARD_BLOCK = 256       # integrator steps between two overflow-guard checks
FD_STEP = 1e-6          # gradient / Jacobian central differences
FD_HESSIAN_STEP = 1e-4  # second differences need a larger step
# constant Hessians of the builtin family, shared by every evaluation
_EYE1, _EYE2 = np.eye(1), np.eye(2)
_EYE1.setflags(write=False)
_EYE2.setflags(write=False)


def _points(z, n: int) -> np.ndarray:
    """z as phase points: an array whose last axis has length 2n."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 0 or z.shape[-1] != 2 * n:
        raise DimensionMismatch(f"expected phase points with last axis {2 * n}, got shape {z.shape}")
    return z


def _coordinate(z, i: int):
    """z[..., i], as a numpy scalar for a single point.  Powers of numpy
    scalars round as libm pow does; powers of arrays, even 0-d ones, take
    numpy's SIMD loop, which can differ in the last bit."""
    return z[..., i][()]


# Row-wise a.b, z.Mz and Az over a batch.  The matmul forms round every row
# as the 1-D products a @ b, z @ M @ z and A @ z do, so a batch and its
# single points agree bit for bit.

def _dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _quad(z, M):
    return (z[..., None, :] @ M @ z[..., None])[..., 0, 0]


def _matvec(A, z):
    return (A @ z[..., None])[..., 0]


def _fd_step(z: np.ndarray, step: float) -> np.ndarray:
    return step * np.maximum(1.0, np.abs(z).max(axis=-1, keepdims=True))


def fd_gradient(fn: Callable, z, t: float, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of fn(., t) at each point of a (..., m)
    batch; for a vector-valued fn, its Jacobian.  fn is called once, on the
    2m perturbed copies of the batch stacked along a new leading axis, so it
    must take any leading shape (as Hamiltonian callables do)."""
    z = np.asarray(z, dtype=float)
    m = z.shape[-1]
    h = _fd_step(z, step)
    e = np.eye(m).reshape((m,) + (1,) * (z.ndim - 1) + (m,))
    values = np.asarray(fn(np.concatenate([z + h * e, z - h * e]), t))
    grad = np.stack(list(values[:m] - values[m:]), axis=-1)
    return grad / (2 * h[..., None] if grad.ndim > z.ndim else 2 * h)


def finite_difference_jacobian(fn: Callable, z: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a map R^m -> R^m at a point or each
    point of a batch, calling fn once per perturbation: maps such as
    isotopies take single points only."""
    z = np.asarray(z, dtype=float)
    h = _fd_step(z, step)
    cols = [np.asarray(fn(z + h * e)) - fn(z - h * e) for e in np.eye(z.shape[-1])]
    return np.stack(cols, axis=-1) / (2 * h[..., None])


def fd_hessian(fn: Callable, z, t: float, step: float = FD_HESSIAN_STEP) -> np.ndarray:
    """Central-difference Hessian of fn(., t) at each point of a (..., m)
    batch: the symmetrized Jacobian of its central-difference gradient."""
    return _symmetrized(fd_gradient(lambda w, s: fd_gradient(fn, w, s, step), z, t, step))


def _symmetrized(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass(frozen=True)
class SeparableParts:
    """H(x, p) = U(p) + V(x) with gradients and Hessians."""

    u: Callable
    du: Callable
    v: Callable
    dv: Callable
    d2u: Callable
    d2v: Callable


@dataclass(frozen=True)
class QuadraticParts:
    """H(z, t) = z.M(t)z/2 + m(t).z."""

    matrix: Callable
    vector: Callable


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """A Hamiltonian with value, gradient, and Hessian access.

    Each callable takes phase points z of shape (..., 2n), indexed as
    z[..., i], and a scalar time t, and returns shape (...), (..., 2n) and
    (..., 2n, 2n) (or a shape that broadcasts to it); a single (2n,) point
    gives a scalar, a vector and a matrix.
    """

    n: int
    value: Callable
    gradient: Callable
    hessian: Callable
    separable: SeparableParts | None = None
    quadratic: QuadraticParts | None = None
    autonomous: bool = True
    name: str = ""

    def velocity(self, z, t: float) -> np.ndarray:
        """Right-hand side J grad H of the equations of motion."""
        g = self.gradient(z, t)
        n = self.n
        return np.concatenate([g[..., n:], -g[..., :n]], axis=-1)


def hamiltonian_from_callables(
    n: int, value: Callable, gradient=None, hessian=None, autonomous=True, name=""
) -> Hamiltonian:
    gradient = gradient or (lambda z, t: fd_gradient(value, z, t))
    hessian = hessian or (lambda z, t: fd_hessian(value, z, t))
    return Hamiltonian(n, value, gradient, hessian, autonomous=autonomous, name=name)


def _quadratic(n: int, matrix_fn: Callable, vector_fn: Callable, **fields) -> Hamiltonian:
    """H(z, t) = z.M(t)z/2 + m(t).z."""
    return Hamiltonian(
        n,
        value=lambda z, t: 0.5 * _quad(z, matrix_fn(t)) + _dot(vector_fn(t), z),
        gradient=lambda z, t: _matvec(matrix_fn(t), z) + vector_fn(t),
        hessian=lambda z, t: matrix_fn(t),
        quadratic=QuadraticParts(matrix_fn, vector_fn),
        **fields,
    )


def quadratic_hamiltonian(M, m=None, name="quadratic") -> Hamiltonian:
    """Autonomous quadratic H(z) = z.Mz/2 + m.z, separable when the x-p block
    of M vanishes."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    dim = M.shape[0]
    if dim % 2 != 0 or M.shape[1] != dim:
        raise DimensionMismatch("M must be 2n x 2n")
    if np.max(np.abs(M - M.T)) > 1e-9 * max(1.0, np.max(np.abs(M))):
        raise InvalidMatrix("M must be symmetric")
    M = 0.5 * (M + M.T)
    m = np.zeros(dim) if m is None else as_phase_vector(m, dim // 2)
    return _quadratic(dim // 2, lambda t: M, lambda t: m,
                      separable=_quadratic_separable_parts(M, m), name=name)


def _quadratic_separable_parts(M: np.ndarray, m: np.ndarray) -> SeparableParts | None:
    """U(p) = p.Mpp p/2 + mp.p and V(x) = x.Mxx x/2 + mx.x, or None when the
    x-p block of M couples positions and momenta."""
    n = M.shape[0] // 2
    if np.any(M[:n, n:] != 0.0):
        return None
    Mxx, Mpp, mx, mp = M[:n, :n], M[n:, n:], m[:n], m[n:]
    return SeparableParts(
        u=lambda p: 0.5 * _quad(p, Mpp) + _dot(mp, p),
        du=lambda p: _matvec(Mpp, p) + mp,
        v=lambda x: 0.5 * _quad(x, Mxx) + _dot(mx, x),
        dv=lambda x: _matvec(Mxx, x) + mx,
        d2u=lambda p: Mpp,
        d2v=lambda x: Mxx,
    )


def time_dependent_quadratic(n: int, matrix_fn: Callable, vector_fn=None, name="quadratic") -> Hamiltonian:
    vector_fn = vector_fn or (lambda t: np.zeros(2 * n))
    return _quadratic(n, matrix_fn, vector_fn, autonomous=False, name=name)


def separable_hamiltonian(n: int, u, du, v, dv, d2u=None, d2v=None, name="separable") -> Hamiltonian:
    """H = U(p) + V(x); U, V and their derivatives take (..., n) arrays."""
    d2u = d2u or (lambda q: _symmetrized(finite_difference_jacobian(du, q)))
    d2v = d2v or (lambda q: _symmetrized(finite_difference_jacobian(dv, q)))
    parts = SeparableParts(u, du, v, dv, d2u, d2v)

    def value(z, t):
        return u(z[..., n:]) + v(z[..., :n])

    def gradient(z, t):
        return np.concatenate([dv(z[..., :n]), du(z[..., n:])], axis=-1)

    def hessian(z, t):
        out = np.zeros(z.shape + (2 * n,))
        out[..., :n, :n] = d2v(z[..., :n])
        out[..., n:, n:] = d2u(z[..., n:])
        return out

    return Hamiltonian(n, value, gradient, hessian, separable=parts, name=name)


def builtin_hamiltonian(name: str, n: int = 1, shear_matrix=None) -> Hamiltonian:
    """The built-in test family: harmonic, free, shear, anharmonic, driven."""
    if name == "harmonic":
        return quadratic_hamiltonian(np.eye(2 * n), name="harmonic")
    if name == "free":
        M = np.zeros((2 * n, 2 * n))
        M[n:, n:] = np.eye(n)
        return quadratic_hamiltonian(M, name="free")
    if name == "shear":
        P = np.eye(n) if shear_matrix is None else np.atleast_2d(np.asarray(shear_matrix, dtype=float))
        M = np.zeros((2 * n, 2 * n))
        M[:n, :n] = P
        return quadratic_hamiltonian(M, name="shear")
    if name == "anharmonic":
        if n != 1:
            raise DimensionMismatch("anharmonic oscillator is one-dimensional")
        return separable_hamiltonian(
            1,
            u=lambda p: 0.5 * _dot(p, p),
            du=lambda p: p,
            v=lambda x: 0.25 * _coordinate(x, 0) ** 4,
            dv=lambda x: (_coordinate(x, 0) ** 3)[..., None],
            d2u=lambda p: _EYE1,
            d2v=lambda x: (3.0 * _coordinate(x, 0) ** 2)[..., None, None],
            name="anharmonic",
        )
    if name == "driven":
        if n != 1:
            raise DimensionMismatch("driven oscillator is one-dimensional")
        return time_dependent_quadratic(
            1,
            matrix_fn=lambda t: _EYE2,
            vector_fn=lambda t: np.array([0.3 * np.sin(t), 0.0]),
            name="driven",
        )
    raise InvalidMatrix(f"unknown builtin Hamiltonian {name!r}")


# ---------------------------------------------------------------------------
# Exact affine flow of quadratic Hamiltonians
# ---------------------------------------------------------------------------

def quadratic_flow(M, m=None, t: float = 1.0) -> AffineSymplectic:
    """Exact flow at time t of H(z) = z.Mz/2 + m.z as an affine map.

    Computed as the exponential of the augmented matrix ((JM, Jm), (0, 0)),
    which stays valid when M is singular.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    dim = M.shape[0]
    n = dim // 2
    if dim % 2 != 0:
        raise DimensionMismatch("M must be 2n x 2n")
    m = np.zeros(dim) if m is None else as_phase_vector(m, n)
    J = standard_j(n)
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = J @ M
    aug[:dim, dim] = J @ m
    full = _expm(aug, t)
    return AffineSymplectic(full[:dim, :dim], full[:dim, dim])


# Higham's Pade degrees with the largest 1-norm each approximates to double
# precision, and the numerator coefficients b_0..b_m of each degree's
# approximant (the denominator's are the same with alternating signs).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# Each squaring can double the relative rounding of the scaled exponential, so
# after s squarings a rounding of eps has grown like (1 + eps)^(2^s) ~ e^(eps 2^s).
# Past s = floor(log2(log(float max) / eps)) = floor(log2(709.78 / 2.22e-16))
# that factor alone leaves the float range.
_MAX_SQUARINGS = 61


def _expm(A: np.ndarray, t: float) -> np.ndarray:
    """exp(tA) of a small square matrix by scaling and squaring with a Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Algorithm 2.3).
    Raises DivergenceError, naming the exact quadratic flow at t, when tA or
    its exponential leaves the float range."""
    overflow = DivergenceError(f"exact quadratic flow at t = {t:g} leaves the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        A = t * A
        norm = np.abs(A).sum(axis=0).max()
    if not np.isfinite(norm):
        raise overflow
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13])))) if m == 13 else 0
    if s > _MAX_SQUARINGS:
        raise overflow
    A = 2.0 ** -s * A
    b, eye, A2 = _PADE_B[m], np.eye(len(A)), A @ A
    if m < 13:
        powers = [eye, A2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
        V = sum(b[2 * j] * P for j, P in enumerate(powers))
    else:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    with np.errstate(over="ignore", invalid="ignore"):
        # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: the solve rounds only the
        # correction, so a short step's exponential near I is rounded once
        X = eye + 2.0 * np.linalg.solve(V - U, U)
        for _ in range(s):
            X = X @ X
    if not np.isfinite(X).all():
        raise overflow
    return X


# ---------------------------------------------------------------------------
# One-step integrators (separable Hamiltonians)
# ---------------------------------------------------------------------------

# The kick ("k") and drift ("d") stages of each splitting, with their fractions of h
_SPLITTINGS = {"euler": (("k", 1.0), ("d", 1.0)),
               "verlet": (("d", 0.5), ("k", 1.0), ("d", 0.5))}
# The same stages, each with whether it is the last of its kind, which writes
# its half of the step's output
_STAGES = {method: tuple((kind, frac, all(later != kind for later, _ in stages[i + 1:]))
                         for i, (kind, frac) in enumerate(stages))
           for method, stages in _SPLITTINGS.items()}


def _split_step(H: Hamiltonian, method: str, z: np.ndarray, h: float, stages=None,
                out=None) -> np.ndarray:
    """One kick/drift step z -> z' of a separable H: a kick p -= c V'(x), a
    drift x += c U'(p).  The last stage of each kind writes its half of z'
    straight into `out` (a new array when None), which is returned; no stage
    writes over an array it reads.  A list `stages` collects each stage's
    (kind, c, x or p that it reads), from which _split_jacobians builds the
    step's derivative."""
    if H.separable is None:
        raise InvalidMatrix("this integrator requires a separable Hamiltonian U(p) + V(x)")
    sep, n = H.separable, H.n
    if out is None:
        out = np.empty_like(z)
    x, p = z[..., :n], z[..., n:]
    for stage, frac, last in _STAGES[method]:
        c = frac * h
        if stages is not None:
            stages.append((stage, c, x if stage == "k" else p))
        if stage == "k":
            p = np.subtract(p, c * sep.dv(x), out=out[..., n:] if last else None)
        else:
            x = np.add(x, c * sep.du(p), out=out[..., :n] if last else None)
    return out


def _split_jacobians(H: Hamiltonian, method: str, z: np.ndarray, h: float) -> np.ndarray:
    """DPhi_h of a kick/drift step at each point of z, in one pass over the
    batch: the product of the stage shears, Dp -= c V''(x) Dx for a kick and
    Dx += c U''(p) Dp for a drift.  Each shear is symplectic, so DPhi_h is
    symplectic to rounding at any h."""
    stages = []
    _split_step(H, method, z, h, stages)
    n = H.n
    eye = np.eye(2 * n)
    Dx, Dp = eye[:n], eye[n:]
    for stage, c, arg in stages:
        if stage == "k":
            Dp = Dp - c * (H.separable.d2v(arg) @ Dx)
        else:
            Dx = Dx + c * (H.separable.d2u(arg) @ Dp)
    return np.concatenate(np.broadcast_arrays(Dx, Dp), axis=-2)


def symplectic_euler_step(H: Hamiltonian, z, dt: float) -> np.ndarray:
    """First-order kick-drift step: p1 = p - V'(x) dt, x1 = x + U'(p1) dt."""
    return _split_step(H, "euler", _points(z, H.n), dt)


def verlet_step(H: Hamiltonian, z, dt: float) -> np.ndarray:
    """Second-order position-Verlet step (drift, kick, drift)."""
    return _split_step(H, "verlet", _points(z, H.n), dt)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def has_exact_flow(H: Hamiltonian) -> bool:
    """Whether H is autonomous quadratic, so its flow is an exact affine map."""
    return H.quadratic is not None and H.autonomous


def auto_method(H: Hamiltonian, symplectic: bool) -> str:
    """The integrator that method "auto" selects: the exact flow where H has
    one, else position Verlet for separable H when a symplectic scheme is
    wanted, else RK4."""
    if has_exact_flow(H):
        return "exact"
    if symplectic and H.separable is not None:
        return "verlet"
    return "rk4"


def default_steps(t: float) -> int:
    """Step count used when none is given: 512 per unit time, at least 256."""
    return max(256, int(np.ceil(abs(t) * 512)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled flow data: points z_t, linearized flow S_t, action gamma_t.

    S_t is the derivative of the numerical flow that moved the points.  The
    leading axis runs over the time nodes; the rest is the shape of the
    initial points, so points is (steps+1, ..., 2n) and matrices is
    (steps+1, ..., 2n, 2n).  The action is computed from H on first read, so
    callers that only need the points never evaluate H on the time nodes.
    """

    times: np.ndarray
    points: np.ndarray
    matrices: np.ndarray | None
    method: str
    dt: float
    hamiltonian: Hamiltonian

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def final_matrix(self) -> np.ndarray:
        if self.matrices is None:
            raise InvalidMatrix("trajectory was integrated without the variational flow")
        return self.matrices[-1]

    @cached_property
    def action(self) -> np.ndarray:
        """Symmetrized action gamma_t by cumulative Simpson on the time nodes,
        reproducing scipy's equal-interval `cumulative_simpson` bit for bit.  An
        autonomous H is evaluated once on all nodes, any other once per node."""
        H = self.hamiltonian
        n = H.n
        integrand = np.zeros(self.points.shape[:-1])
        nodes = ([(..., (self.points, self.times[0]))] if H.autonomous
                 else enumerate(zip(self.points, self.times)))
        for k, (zk, tk) in nodes:
            vk = H.velocity(zk, tk)
            sig = _dot(zk[..., n:], vk[..., :n]) - _dot(vk[..., n:], zk[..., :n])
            integrand[k] = 0.5 * sig - H.value(zk, tk)
        return _cumulative_simpson(integrand, self.dt)

    @property
    def final_action(self):
        return self.action[-1]


def _cumulative_simpson(y, dx: float) -> np.ndarray:
    """Integral of y from node 0 to each node, along axis 0 on nodes dx apart:
    scipy.integrate.cumulative_simpson(y, dx=dx, axis=0, initial=0.0),
    operation for operation."""
    if len(y) < 3:  # scipy falls back to the trapezoid rule
        sub = dx * (y[1:] + y[:-1]) / 2.0
    else:
        def first_interval(f):  # Simpson over the first interval of each node triple
            return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)
        h1, h2 = first_interval(y), first_interval(y[::-1])[::-1]
        sub = np.empty((len(y) - 1,) + y.shape[1:])
        sub[:-1:2] = h1[::2]
        sub[1::2] = h2[::2]
        sub[-1] = h2[-1]
    # scipy adds `initial` to the sums, which turns -0.0 into 0.0
    return np.concatenate([np.zeros((1,) + y.shape[1:]), np.cumsum(sub, axis=0) + 0.0])


def _check_overflow(z):
    # one reduction: NaN fails the comparison and inf exceeds the guard
    if not np.abs(z).max() <= OVERFLOW_GUARD:
        raise DivergenceError("trajectory exceeded the overflow guard")


def _variational_rk4_step(S, h, A1, A2, A3, A4):
    """RK4's tangent map applied to S: one RK4 step of dS/dt = A(t) S, given
    A = J Hess H at the four RK4 stages.  Like RK4, it is not symplectic."""
    m1 = A1 @ S
    m2 = A2 @ (S + 0.5 * h * m1)
    m3 = A3 @ (S + 0.5 * h * m2)
    m4 = A4 @ (S + h * m3)
    return S + h / 6.0 * (m1 + 2 * m2 + 2 * m3 + m4)


def _rk4_step(H: Hamiltonian, z, t, h, inner=None):
    """One RK4 step z -> z'.  An array `inner` of shape (3,) + z.shape
    receives the inner stage points z2, z3, z4."""
    k1 = H.velocity(z, t)
    z2 = z + 0.5 * h * k1
    k2 = H.velocity(z2, t + 0.5 * h)
    z3 = z + 0.5 * h * k2
    k3 = H.velocity(z3, t + 0.5 * h)
    z4 = z + h * k3
    k4 = H.velocity(z4, t + h)
    if inner is not None:
        inner[0], inner[1], inner[2] = z2, z3, z4
    return z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_jacobians(H: Hamiltonian, z: np.ndarray, inner: np.ndarray, times: np.ndarray,
                   h: float) -> np.ndarray:
    """DPhi_h of RK4 at each node z_k (the leading axis of z), given the
    inner stage points inner[k] of its step: RK4's tangent map of the
    identity, with A = J Hess H at the four stages.  An autonomous H is
    evaluated once per stage on all steps, a time-dependent one once per
    stage node, since its callables take a scalar t."""
    stages = (z, inner[:, 0], inner[:, 1], inner[:, 2])
    if H.autonomous:
        hessians = [H.hessian(zs, times[0]) for zs in stages]
    else:
        offsets = (0.0, 0.5 * h, 0.5 * h, h)
        hessians = [np.stack([H.hessian(zk, tk + dt) for zk, tk in zip(zs, times)])
                    for zs, dt in zip(stages, offsets)]
        # a Hessian without the batch axes (one that z does not change) gets
        # unit axes after the step axis, so it broadcasts over the batch
        hessians = [a.reshape(a.shape[:1] + (1,) * (z.ndim + 1 - a.ndim) + a.shape[1:])
                    for a in hessians]
    J = standard_j(H.n)
    return _variational_rk4_step(np.eye(2 * H.n), h, *(J @ a for a in hessians))


def _step_map(H: Hamiltonian, method: str, times: np.ndarray, h: float, points: np.ndarray,
              inner=None):
    """The step k -> node k of a method with step h, which reads node k - 1
    of `points` and writes node k in place into points[k], and the map from
    the nodes z_k (k < steps) to the derivatives DPhi_h(z_k) of their steps,
    batched over the leading axis.  For rk4 the derivatives need `inner`, a
    (steps, 3, ..., 2n) array that the steps fill with their inner stage
    points."""
    if method == "exact":
        if not has_exact_flow(H):
            raise InvalidMatrix("exact integration requires an autonomous quadratic Hamiltonian")
        flow = quadratic_flow(H.quadratic.matrix(times[0]), H.quadratic.vector(times[0]), h)

        def step(k):
            points[k] = _matvec(flow.linear, points[k - 1]) + flow.shift

        def jacobians(z):
            return flow.linear
    elif method in _SPLITTINGS:
        def step(k):
            _split_step(H, method, points[k - 1], h, out=points[k])

        def jacobians(z):
            return _split_jacobians(H, method, z, h)
    elif method == "rk4":
        def step(k):
            points[k] = _rk4_step(H, points[k - 1], times[k - 1], h,
                                  None if inner is None else inner[k - 1])

        def jacobians(z):
            return _rk4_jacobians(H, z, inner, times[:-1], h)
    else:
        raise InvalidMatrix(f"unknown method {method!r}")
    return step, jacobians


def _prefix_products(M: np.ndarray) -> None:
    """M[k] <- M[k] M[k-1] ... M[0] in place along the leading axis, in
    ceil(log2 len(M)) batched matmuls (a Hillis-Steele scan): after the
    pass with stride d, M[k] is the product of its last 2d factors."""
    d = 1
    while d < len(M):
        M[d:] = M[d:] @ M[:-d]
        d *= 2


def integrate(
    H: Hamiltonian,
    z0,
    t_final: float,
    steps: int,
    method: str = "verlet",
    t0: float = 0.0,
    variational: bool = True,
) -> Trajectory:
    """Integrate the flow from t0 to t0 + t_final in the given number of steps,
    for one (2n,) point or a (..., 2n) batch of points in one loop.

    Methods: "euler" and "verlet" (symplectic, separable H only), "rk4"
    (non-symplectic reference, any H), "exact" (autonomous quadratic H only).
    The loop moves the points only, each step writing its node in place into
    the trajectory's points array; the overflow guard checks them a block of
    GUARD_BLOCK steps at a time.  With variational, the derivatives DPhi_h of
    all steps are built afterwards in one batched pass over the nodes, and
    S_t = DPhi_h(z_{k-1}) ... DPhi_h(z_0) is their prefix product, so it is
    the Jacobian of the computed z_t in z0: symplectic to rounding but for
    rk4.  The symmetrized action gamma_t, by cumulative Simpson on the same
    nodes, is computed on the first read of Trajectory.action.  Raises
    ResourceLimit when the times, points and S_t, with the stack of step
    derivatives (and RK4's inner stage points and four stage Hessians), would
    exceed errors.BYTE_BUDGET.
    """
    if steps < 1:
        raise InvalidMatrix("steps must be >= 1")
    z0 = _points(z0, H.n)
    _check_overflow(z0)  # before the first step sees a diverged point
    dim = 2 * H.n
    tangent = z0.size * dim  # floats of one node's S_t
    need = 8 * (int(steps) + 1) * (1 + z0.size + (tangent if variational else 0))
    if variational:  # the step derivatives, and RK4's inner stage points and stage Hessians
        need += 8 * int(steps) * (tangent + (3 * z0.size + 4 * tangent if method == "rk4" else 0))
    check_bytes(need, f"{steps} steps of {z0.size // dim} points", "reduce steps or points")
    h = t_final / steps
    times = t0 + h * np.arange(steps + 1)
    points = np.zeros((steps + 1,) + z0.shape)
    points[0] = z0

    inner = np.empty((steps, 3) + z0.shape) if variational and method == "rk4" else None
    step, jacobians = _step_map(H, method, times, h, points, inner)
    # steps past a diverged point may overflow; the guard reports them
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, steps + 1, GUARD_BLOCK):
            stop = min(start + GUARD_BLOCK, steps + 1)
            try:
                for k in range(start, stop):
                    step(k)
            except Exception:
                if k > start:  # a diverged point can make the step itself fail
                    _check_overflow(points[start:k])
                raise
            _check_overflow(points[start:stop])

    matrices = None
    if variational:
        matrices = np.empty((steps + 1,) + z0.shape + (dim,))
        matrices[0] = np.eye(dim)
        matrices[1:] = jacobians(points[:-1])
        _prefix_products(matrices[1:])
    return Trajectory(times, points, matrices, method, h, H)


def flow_map(H: Hamiltonian, z, t_from: float, t_to: float, steps: int | None = None,
             method: str = "rk4") -> np.ndarray:
    """The time-dependent flow f_{t_to, t_from} applied to a point or a
    (..., 2n) batch z, in one exact step or default_steps(t_to - t_from)
    steps when none are given."""
    if abs(t_to - t_from) < 1e-300:
        return _points(z, H.n).copy()
    if method == "exact":
        steps = 1
    elif steps is None:
        steps = default_steps(t_to - t_from)
    traj = integrate(H, z, t_to - t_from, steps, method=method, t0=t_from, variational=False)
    return traj.final_point


def groupoid_check(H: Hamiltonian, t: float, t1: float, t2: float, z,
                   steps: int | None = None, method: str = "rk4") -> float:
    """Composition defect || f_{t,t1}(f_{t1,t2}(z)) - f_{t,t2}(z) ||.

    Each two-time flow is composed as f_{a,b} = f_{a,0} o (f_{b,0})^{-1}.
    """
    z = as_phase_vector(z, H.n)

    def two_time(a, b, w):
        if a == b:
            return w
        back = flow_map(H, w, b, 0.0, steps=steps, method=method)
        return flow_map(H, back, 0.0, a, steps=steps, method=method)

    lhs = two_time(t, t1, two_time(t1, t2, z))
    rhs = two_time(t, t2, z)
    return float(np.linalg.norm(lhs - rhs))


def suspended_flow(H: Hamiltonian, t: float, state, steps: int | None = None,
                   method: str = "rk4"):
    """Extended phase-space map (z', t') -> (f_{t+t',t'}(z'), t+t')."""
    z, t_prime = state
    return flow_map(H, z, t_prime, t_prime + t, steps=steps, method=method), t_prime + t


# ---------------------------------------------------------------------------
# Hamiltonians from paths and isotopies
# ---------------------------------------------------------------------------

def _time_derivative(fn: Callable, t: float, step: float) -> np.ndarray:
    """The central difference (fn(t + step) - fn(t - step)), divided by the
    distance (t + step) - (t - step) of the times as floats, not by 2 step.
    Raises ResolutionError when t + step or t - step rounds to t, where the
    difference would read 0 (from |t| of about 2^53 step on)."""
    hi, lo = t + step, t - step
    if hi == t or lo == t:
        raise ResolutionError(f"time step {step} does not resolve t = {t}")
    return (np.asarray(fn(hi), dtype=float) - np.asarray(fn(lo), dtype=float)) / (hi - lo)


def hamiltonian_from_linear_path(path: Callable, t: float, derivative=None,
                                 fd_step: float = 1e-5) -> np.ndarray:
    """Quadratic-form matrix Q (so H(z) = z.Qz/2) generating a symplectic path.

    The path must satisfy path(0) = I; the generator at time t is recovered
    from Q = -sym(J dS/dt S^{-1}).  Without a derivative, dS/dt is the central
    difference of step fd_step (_time_derivative), which raises
    ResolutionError when t +- fd_step rounds to t.
    """
    S = np.asarray(path(t), dtype=float)
    if not is_symplectic(S, 1e-6):
        raise InvalidMatrix("path value is not symplectic")
    if derivative is not None:
        Sdot = np.asarray(derivative(t), dtype=float)
    else:
        Sdot = _time_derivative(path, t, fd_step)
    n = S.shape[0] // 2
    M = standard_j(n) @ Sdot @ np.linalg.inv(S)
    Q = -0.5 * (M + M.T)
    return Q


def quadratic_form_blocks(path: Callable, t: float, fd_step: float = 1e-5):
    """The (xx, px, pp) coefficient blocks of the reconstructed quadratic
    Hamiltonian, evaluated from the block derivative formula.  Returns
    (Dd Ct - Cd Dt, Dd At - Cd Bt, Bd At - Ad Bt) where Xd are the block
    derivatives, from the same central difference of step fd_step;
    cross-checks hamiltonian_from_linear_path."""
    S = np.asarray(path(t), dtype=float)
    Sdot = _time_derivative(path, t, fd_step)
    n = S.shape[0] // 2
    A, B = S[:n, :n], S[:n, n:]
    C, D = S[n:, :n], S[n:, n:]
    Ad, Bd = Sdot[:n, :n], Sdot[:n, n:]
    Cd, Dd = Sdot[n:, :n], Sdot[n:, n:]
    return (Dd @ C.T - Cd @ D.T, Dd @ A.T - Cd @ B.T, Bd @ A.T - Ad @ B.T)


def _local_inverse(fn: Callable, y: np.ndarray, tol: float = 1e-12,
                   max_iter: int = 60) -> np.ndarray:
    """Solve fn(w) = y by damped Newton iteration starting from w = y.  fn is
    evaluated with overflow ignored; a step whose residual is not finite is
    never taken, and InverseIterationError is raised when the start's is not."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        w = y.copy()
        scale = max(1.0, float(np.max(np.abs(y))))
        res = np.asarray(fn(w)) - y
        if not np.all(np.isfinite(res)):
            raise InverseIterationError("inverse iteration left the float range")
        for _ in range(max_iter):
            if np.max(np.abs(res)) <= tol * scale:
                return w
            Jac = finite_difference_jacobian(fn, w)
            try:
                delta = np.linalg.solve(Jac, res)
            except np.linalg.LinAlgError as exc:
                raise InverseIterationError("singular Jacobian in inverse iteration",
                                            residual=float(np.max(np.abs(res)))) from exc
            damp = 1.0
            for _ in range(30):
                w_try = w - damp * delta
                res_try = np.asarray(fn(w_try)) - y
                if np.max(np.abs(res_try)) < np.max(np.abs(res)):
                    w, res = w_try, res_try
                    break
                damp *= 0.5
            else:
                break
        if np.max(np.abs(res)) <= 1e-9 * scale:
            return w
        raise InverseIterationError("inverse iteration did not converge",
                                    residual=float(np.max(np.abs(res))))


def hamiltonian_from_isotopy(f: Callable, t: float, z, nodes: int = 65,
                             fd_step: float = 1e-5, refine_tol: float = 1e-8,
                             max_nodes: int = 2**14 + 1) -> float:
    """Generating Hamiltonian of a smooth isotopy f(t, .) with f(0, .) = id:

        H(z, t) = -int_0^1 z.J (df/dt o f_t^{-1})(lambda z) dlambda

    by composite Simpson with node doubling until the value settles.  df/dt
    is the central difference of step fd_step, which raises ResolutionError
    when t +- fd_step rounds to t.
    """
    z = as_phase_vector(z)
    n = z.size // 2
    J = standard_j(n)

    def velocity(w):
        back = _local_inverse(lambda u: np.asarray(f(t, u), dtype=float), w)
        with np.errstate(over="ignore", invalid="ignore"):
            return _time_derivative(lambda s: f(s, back), t, fd_step)

    def integrand(lam):
        return -float(z @ (J @ velocity(lam * z)))

    def simpson(num):
        lams = np.linspace(0.0, 1.0, num)
        vals = np.array([integrand(l) for l in lams])
        h = lams[1] - lams[0]
        return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()))

    if nodes % 2 == 0:
        nodes += 1
    est = simpson(nodes)
    while nodes < max_nodes:
        nodes = 2 * (nodes - 1) + 1
        new = simpson(nodes)
        if abs(new - est) < refine_tol:
            return new
        est = new
    return est


# ---------------------------------------------------------------------------
# Composition / inversion / backward-error Hamiltonians
# ---------------------------------------------------------------------------

def compose_hamiltonians(H: Hamiltonian, K: Hamiltonian, t: float, z,
                         steps: int | None = None) -> float:
    """Value of (H#K)(z, t) = H(z, t) + K((f_t^H)^{-1}(z), t); the flow of H#K
    is f_t^H o f_t^K."""
    z = _points(z, H.n)
    back = flow_map(H, z, t, 0.0, steps, method=auto_method(H, symplectic=False))
    return H.value(z, t) + K.value(back, t)


def composed_hamiltonian(H: Hamiltonian, K: Hamiltonian, steps: int | None = None) -> Hamiltonian:
    def value(z, t):
        return compose_hamiltonians(H, K, t, z, steps)

    return hamiltonian_from_callables(H.n, value, autonomous=False, name="composed")


def invert_hamiltonian(H: Hamiltonian, t: float, z, steps: int | None = None) -> float:
    """Value of Hbar(z, t) = -H(f_t^H(z), t); the flow of Hbar inverts f_t^H."""
    fwd = flow_map(H, z, 0.0, t, steps=steps, method=auto_method(H, symplectic=False))
    return -H.value(fwd, t)


def inverted_hamiltonian(H: Hamiltonian, steps: int | None = None) -> Hamiltonian:
    def value(z, t):
        return invert_hamiltonian(H, t, z, steps)

    return hamiltonian_from_callables(H.n, value, autonomous=False, name="inverted")


def modified_hamiltonian_value(sep: SeparableParts, x, p, t: float) -> float:
    """Backward-error Hamiltonian of the first-order step:
    K(x, p, t) = U(p) + V(x - U'(p) t)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return sep.u(p) + sep.v(x - sep.du(p) * t)


def modified_hamiltonian(sep: SeparableParts, n: int) -> Hamiltonian:
    """The backward-error Hamiltonian as an integrable Hamiltonian object."""

    def value(z, t):
        return modified_hamiltonian_value(sep, z[..., :n], z[..., n:], t)

    def gradient(z, t):
        x, p = z[..., :n], z[..., n:]
        gu = sep.du(p)
        gv = sep.dv(x - gu * t)
        return np.concatenate([gv, gu - t * _matvec(np.swapaxes(sep.d2u(p), -1, -2), gv)], axis=-1)

    return hamiltonian_from_callables(n, value, gradient=gradient, autonomous=False,
                                      name="modified")
