"""Hamiltonian functions, exact affine flows, symplectic integrators, the
linearized (variational) flow, action phases, and reconstruction of
Hamiltonians from symplectic paths and isotopies.

Sign conventions: the equations of motion are dz/dt = J grad H(z, t) with the
standard J, i.e. dx/dt = dH/dp and dp/dt = -dH/dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm

from .errors import DimensionMismatch, DivergenceError, InvalidMatrix, InverseIterationError
from .symplectic import AffineSymplectic, as_phase_vector, is_symplectic, standard_j

OVERFLOW_GUARD = 1e8
FD_STEP = 1e-6          # gradient / Jacobian central differences
FD_HESSIAN_STEP = 1e-4  # second differences need a larger step


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


def fd_gradient(fn: Callable, z, t: float, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of fn(., t) at each point of a (..., m)
    batch; for a vector-valued fn, its Jacobian."""
    z = np.asarray(z, dtype=float)
    h = step * np.maximum(1.0, np.abs(z).max(axis=-1, keepdims=True))
    cols = [np.asarray(fn(z + h * e, t)) - fn(z - h * e, t) for e in np.eye(z.shape[-1])]
    return np.stack(cols, axis=-1) / (2 * h)


def finite_difference_jacobian(fn: Callable, z: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a map R^m -> R^m."""
    return fd_gradient(lambda w, t: fn(w), z, 0.0, step)


def fd_hessian(fn: Callable, z, t: float, step: float = FD_HESSIAN_STEP) -> np.ndarray:
    """Central-difference Hessian of fn(., t) at each point of a (..., m)
    batch: the symmetrized Jacobian of its central-difference gradient."""
    z = np.asarray(z, dtype=float)
    h = step * np.maximum(1.0, np.abs(z).max(axis=-1, keepdims=True))
    rows = [fd_gradient(fn, z + h * e, t, step) - fd_gradient(fn, z - h * e, t, step)
            for e in np.eye(z.shape[-1])]
    jac = np.stack(rows, axis=-2) / (2 * h[..., None])
    return 0.5 * (jac + np.swapaxes(jac, -1, -2))


@dataclass(frozen=True)
class SeparableParts:
    """H(x, p) = U(p) + V(x) with gradients (and optional Hessians)."""

    u: Callable
    du: Callable
    v: Callable
    dv: Callable
    d2u: Callable | None = None
    d2v: Callable | None = None


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
    parts = SeparableParts(u, du, v, dv, d2u, d2v)

    def value(z, t):
        return u(z[..., n:]) + v(z[..., :n])

    def gradient(z, t):
        return np.concatenate([dv(z[..., :n]), du(z[..., n:])], axis=-1)

    if d2u is not None and d2v is not None:
        def hessian(z, t):
            out = np.zeros(z.shape + (2 * n,))
            out[..., :n, :n] = d2v(z[..., :n])
            out[..., n:, n:] = d2u(z[..., n:])
            return out
    else:
        def hessian(z, t):
            return fd_hessian(value, z, t)

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
            d2u=lambda p: np.eye(1),
            d2v=lambda x: (3.0 * _coordinate(x, 0) ** 2)[..., None, None],
            name="anharmonic",
        )
    if name == "driven":
        if n != 1:
            raise DimensionMismatch("driven oscillator is one-dimensional")
        return time_dependent_quadratic(
            1,
            matrix_fn=lambda t: np.eye(2),
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
    full = expm(t * aug)
    return AffineSymplectic(full[:dim, :dim], full[:dim, dim])


# ---------------------------------------------------------------------------
# One-step integrators (separable Hamiltonians)
# ---------------------------------------------------------------------------

def _separable(H: Hamiltonian) -> SeparableParts:
    if H.separable is None:
        raise InvalidMatrix("this integrator requires a separable Hamiltonian U(p) + V(x)")
    return H.separable


def symplectic_euler_step(H: Hamiltonian, z, dt: float) -> np.ndarray:
    """First-order kick-drift step: p1 = p - V'(x) dt, x1 = x + U'(p1) dt."""
    sep = _separable(H)
    z = _points(z, H.n)
    n = H.n
    p1 = z[..., n:] - sep.dv(z[..., :n]) * dt
    x1 = z[..., :n] + sep.du(p1) * dt
    return np.concatenate([x1, p1], axis=-1)


def verlet_step(H: Hamiltonian, z, dt: float) -> np.ndarray:
    """Second-order position-Verlet step."""
    sep = _separable(H)
    z = _points(z, H.n)
    n = H.n
    xh = z[..., :n] + 0.5 * dt * sep.du(z[..., n:])
    p1 = z[..., n:] - dt * sep.dv(xh)
    x1 = xh + 0.5 * dt * sep.du(p1)
    return np.concatenate([x1, p1], axis=-1)


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

    The leading axis runs over the time nodes; the rest is the shape of the
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
        """Symmetrized action gamma_t by cumulative Simpson on the time nodes."""
        H = self.hamiltonian
        n = H.n
        integrand = np.zeros(self.points.shape[:-1])
        for k, (zk, tk) in enumerate(zip(self.points, self.times)):
            vk = H.velocity(zk, tk)
            sig = _dot(zk[..., n:], vk[..., :n]) - _dot(vk[..., n:], zk[..., :n])
            integrand[k] = 0.5 * sig - H.value(zk, tk)
        return cumulative_simpson(integrand, dx=self.dt, axis=0, initial=0.0)

    @property
    def final_action(self):
        return self.action[-1]


def _check_overflow(z):
    # one reduction: NaN fails the comparison and inf exceeds the guard
    if not np.abs(z).max() <= OVERFLOW_GUARD:
        raise DivergenceError("trajectory exceeded the overflow guard")


def _variational_rk4_step(S, h, A1, A2, A3, A4):
    """One RK4 step of the variational equation dS/dt = A(t) S, given the
    matrices A = J Hess H at the four RK4 stages."""
    m1 = A1 @ S
    m2 = A2 @ (S + 0.5 * h * m1)
    m3 = A3 @ (S + 0.5 * h * m2)
    m4 = A4 @ (S + h * m3)
    return S + h / 6.0 * (m1 + 2 * m2 + 2 * m3 + m4)


def _rk4_state_step(H: Hamiltonian, J, z, S, t, h):
    """One RK4 step of the coupled system (z, S); S is None when the
    variational flow is not carried."""
    k1 = H.velocity(z, t)
    z2 = z + 0.5 * h * k1
    k2 = H.velocity(z2, t + 0.5 * h)
    z3 = z + 0.5 * h * k2
    k3 = H.velocity(z3, t + 0.5 * h)
    z4 = z + h * k3
    k4 = H.velocity(z4, t + h)
    z_new = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    if S is None:
        return z_new, None
    stages = ((z, t), (z2, t + 0.5 * h), (z3, t + 0.5 * h), (z4, t + h))
    return z_new, _variational_rk4_step(S, h, *(J @ H.hessian(zz, tt) for zz, tt in stages))


def _step_map(H: Hamiltonian, method: str, t0: float, h: float):
    """The one-step map (z, S, t) -> (z', S') of a method with step h; S is
    None when the variational flow is not carried."""
    J = standard_j(H.n)
    if method == "exact":
        if not has_exact_flow(H):
            raise InvalidMatrix("exact integration requires an autonomous quadratic Hamiltonian")
        flow = quadratic_flow(H.quadratic.matrix(t0), H.quadratic.vector(t0), h)

        def step(z, S, t):
            return _matvec(flow.linear, z) + flow.shift, None if S is None else flow.linear @ S
    elif method in ("euler", "verlet"):
        stepper = symplectic_euler_step if method == "euler" else verlet_step

        def step(z, S, t):
            z_new = stepper(H, z, h)
            if S is None:
                return z_new, None
            _check_overflow(z_new)  # before the Hessians see a diverged point
            # both midpoint stages take z at the average of the step
            # endpoints, which is order-consistent with euler and verlet
            A0 = J @ H.hessian(z, t)
            Am = J @ H.hessian(0.5 * (z + z_new), t + 0.5 * h)
            A1 = J @ H.hessian(z_new, t + h)
            return z_new, _variational_rk4_step(S, h, A0, Am, Am, A1)
    elif method == "rk4":
        def step(z, S, t):
            return _rk4_state_step(H, J, z, S, t, h)
    else:
        raise InvalidMatrix(f"unknown method {method!r}")
    return step


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
    The linearized flow S_t is carried by RK4 on the variational equation.
    The symmetrized action gamma_t, by cumulative Simpson on the same nodes,
    is computed on the first read of Trajectory.action.
    """
    if steps < 1:
        raise InvalidMatrix("steps must be >= 1")
    z0 = _points(z0, H.n)
    _check_overflow(z0)  # before the first step sees a diverged point
    dim = 2 * H.n
    h = t_final / steps
    times = t0 + h * np.arange(steps + 1)
    points = np.zeros((steps + 1,) + z0.shape)
    points[0] = z0
    S = np.broadcast_to(np.eye(dim), z0.shape + (dim,)) if variational else None
    matrices = np.zeros((steps + 1,) + S.shape) if variational else None
    if variational:
        matrices[0] = S

    step = _step_map(H, method, t0, h)
    z = z0
    for k in range(1, steps + 1):
        z, S = step(z, S, times[k - 1])
        _check_overflow(z)
        points[k] = z
        if variational:
            matrices[k] = S
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

def hamiltonian_from_linear_path(path: Callable, t: float, derivative=None,
                                 fd_step: float = 1e-5) -> np.ndarray:
    """Quadratic-form matrix Q (so H(z) = z.Qz/2) generating a symplectic path.

    The path must satisfy path(0) = I; the generator at time t is recovered
    from Q = -sym(J dS/dt S^{-1}).
    """
    S = np.asarray(path(t), dtype=float)
    if not is_symplectic(S, 1e-6):
        raise InvalidMatrix("path value is not symplectic")
    if derivative is not None:
        Sdot = np.asarray(derivative(t), dtype=float)
    else:
        Sdot = (np.asarray(path(t + fd_step), dtype=float)
                - np.asarray(path(t - fd_step), dtype=float)) / (2 * fd_step)
    n = S.shape[0] // 2
    M = standard_j(n) @ Sdot @ np.linalg.inv(S)
    Q = -0.5 * (M + M.T)
    return Q


def quadratic_form_blocks(path: Callable, t: float, fd_step: float = 1e-5):
    """The (xx, px, pp) coefficient blocks of the reconstructed quadratic
    Hamiltonian, evaluated from the block derivative formula.  Returns
    (Dd Ct - Cd Dt, Dd At - Cd Bt, Bd At - Ad Bt) where Xd are the block
    derivatives; cross-checks hamiltonian_from_linear_path."""
    S = np.asarray(path(t), dtype=float)
    Sdot = (np.asarray(path(t + fd_step), dtype=float)
            - np.asarray(path(t - fd_step), dtype=float)) / (2 * fd_step)
    n = S.shape[0] // 2
    A, B = S[:n, :n], S[:n, n:]
    C, D = S[n:, :n], S[n:, n:]
    Ad, Bd = Sdot[:n, :n], Sdot[:n, n:]
    Cd, Dd = Sdot[n:, :n], Sdot[n:, n:]
    return (Dd @ C.T - Cd @ D.T, Dd @ A.T - Cd @ B.T, Bd @ A.T - Ad @ B.T)


def _local_inverse(fn: Callable, y: np.ndarray, tol: float = 1e-12,
                   max_iter: int = 60) -> np.ndarray:
    """Solve fn(w) = y by damped Newton iteration starting from w = y."""
    y = np.asarray(y, dtype=float)
    w = y.copy()
    scale = max(1.0, float(np.max(np.abs(y))))
    res = np.asarray(fn(w)) - y
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

    by composite Simpson with node doubling until the value settles.
    """
    z = as_phase_vector(z)
    n = z.size // 2
    J = standard_j(n)

    def velocity(w):
        back = _local_inverse(lambda u: np.asarray(f(t, u), dtype=float), w)
        wdot = (np.asarray(f(t + fd_step, back), dtype=float)
                - np.asarray(f(t - fd_step, back), dtype=float)) / (2 * fd_step)
        return wdot

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

    if sep.d2u is not None:
        def gradient(z, t):
            x, p = z[..., :n], z[..., n:]
            gu = sep.du(p)
            gv = sep.dv(x - gu * t)
            return np.concatenate([gv, gu - t * _matvec(np.swapaxes(sep.d2u(p), -1, -2), gv)],
                                  axis=-1)
    else:
        gradient = None

    return hamiltonian_from_callables(n, value, gradient=gradient, autonomous=False,
                                      name="modified")
