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


def fd_hessian(fn: Callable, z: np.ndarray, t: float, step: float = FD_HESSIAN_STEP) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    m = z.size
    h = step * max(1.0, float(np.max(np.abs(z))))
    out = np.zeros((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        out[i, i] = (fn(z + ei, t) - 2 * fn(z, t) + fn(z - ei, t)) / h**2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            val = (
                fn(z + ei + ej, t) - fn(z + ei - ej, t) - fn(z - ei + ej, t) + fn(z - ei - ej, t)
            ) / (4 * h**2)
            out[i, j] = out[j, i] = val
    return out


def finite_difference_jacobian(fn: Callable, z: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a map R^m -> R^m."""
    z = np.asarray(z, dtype=float)
    h = step * max(1.0, float(np.max(np.abs(z))))
    cols = []
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = h
        cols.append((np.asarray(fn(z + e)) - np.asarray(fn(z - e))) / (2 * h))
    return np.array(cols).T


def fd_gradient(fn: Callable, z: np.ndarray, t: float, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of fn(., t): the single row of its Jacobian."""
    return finite_difference_jacobian(lambda w: [fn(w, t)], z, step)[0]


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
    """A Hamiltonian with value, gradient, and Hessian access."""

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
        return np.concatenate([g[n:], -g[:n]])


def hamiltonian_from_callables(
    n: int, value: Callable, gradient=None, hessian=None, autonomous=True, name=""
) -> Hamiltonian:
    gradient = gradient or (lambda z, t: fd_gradient(value, z, t))
    hessian = hessian or (lambda z, t: fd_hessian(value, z, t))
    return Hamiltonian(n, value, gradient, hessian, autonomous=autonomous, name=name)


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
    return Hamiltonian(
        dim // 2,
        value=lambda z, t: 0.5 * float(z @ M @ z) + float(m @ z),
        gradient=lambda z, t: M @ z + m,
        hessian=lambda z, t: M,
        separable=_quadratic_separable_parts(M, m),
        quadratic=QuadraticParts(lambda t: M, lambda t: m),
        autonomous=True,
        name=name,
    )


def _quadratic_separable_parts(M: np.ndarray, m: np.ndarray) -> SeparableParts | None:
    """U(p) = p.Mpp p/2 + mp.p and V(x) = x.Mxx x/2 + mx.x, or None when the
    x-p block of M couples positions and momenta."""
    n = M.shape[0] // 2
    if np.any(M[:n, n:] != 0.0):
        return None
    Mxx, Mpp, mx, mp = M[:n, :n], M[n:, n:], m[:n], m[n:]
    return SeparableParts(
        u=lambda p: 0.5 * float(p @ Mpp @ p) + float(mp @ p),
        du=lambda p: Mpp @ p + mp,
        v=lambda x: 0.5 * float(x @ Mxx @ x) + float(mx @ x),
        dv=lambda x: Mxx @ x + mx,
        d2u=lambda p: Mpp,
        d2v=lambda x: Mxx,
    )


def time_dependent_quadratic(n: int, matrix_fn: Callable, vector_fn=None, name="quadratic") -> Hamiltonian:
    vector_fn = vector_fn or (lambda t: np.zeros(2 * n))

    def value(z, t):
        return 0.5 * float(z @ matrix_fn(t) @ z) + float(vector_fn(t) @ z)

    return Hamiltonian(
        n,
        value=value,
        gradient=lambda z, t: matrix_fn(t) @ z + vector_fn(t),
        hessian=lambda z, t: matrix_fn(t),
        quadratic=QuadraticParts(matrix_fn, vector_fn),
        autonomous=False,
        name=name,
    )


def separable_hamiltonian(n: int, u, du, v, dv, d2u=None, d2v=None, name="separable") -> Hamiltonian:
    parts = SeparableParts(u, du, v, dv, d2u, d2v)

    def value(z, t):
        return float(u(z[n:]) + v(z[:n]))

    def gradient(z, t):
        return np.concatenate([np.atleast_1d(dv(z[:n])), np.atleast_1d(du(z[n:]))])

    if d2u is not None and d2v is not None:
        def hessian(z, t):
            out = np.zeros((2 * n, 2 * n))
            out[:n, :n] = np.atleast_2d(d2v(z[:n]))
            out[n:, n:] = np.atleast_2d(d2u(z[n:]))
            return out
    else:
        def hessian(z, t):
            return fd_hessian(value, np.asarray(z, dtype=float), t)

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
            u=lambda p: 0.5 * float(p @ p),
            du=lambda p: np.asarray(p, dtype=float),
            v=lambda x: 0.25 * float(x[0] ** 4),
            dv=lambda x: np.array([x[0] ** 3]),
            d2u=lambda p: np.eye(1),
            d2v=lambda x: np.array([[3.0 * x[0] ** 2]]),
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
    z = as_phase_vector(z, H.n)
    n = H.n
    p1 = z[n:] - np.atleast_1d(sep.dv(z[:n])) * dt
    x1 = z[:n] + np.atleast_1d(sep.du(p1)) * dt
    return np.concatenate([x1, p1])


def verlet_step(H: Hamiltonian, z, dt: float) -> np.ndarray:
    """Second-order position-Verlet step."""
    sep = _separable(H)
    z = as_phase_vector(z, H.n)
    n = H.n
    xh = z[:n] + 0.5 * dt * np.atleast_1d(sep.du(z[n:]))
    p1 = z[n:] - dt * np.atleast_1d(sep.dv(xh))
    x1 = xh + 0.5 * dt * np.atleast_1d(sep.du(p1))
    return np.concatenate([x1, p1])


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

    The action is computed from H on first read, so callers that only need
    the points never evaluate H on the time nodes.
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
        integrand = np.zeros(self.times.size)
        for k, (zk, tk) in enumerate(zip(self.points, self.times)):
            vk = H.velocity(zk, tk)
            sig = zk[n:] @ vk[:n] - vk[n:] @ zk[:n]
            integrand[k] = 0.5 * sig - H.value(zk, tk)
        if integrand.size == 2:
            return np.array([0.0, 0.5 * self.dt * (integrand[0] + integrand[1])])
        return cumulative_simpson(integrand, dx=self.dt, initial=0.0)

    @property
    def final_action(self) -> float:
        return float(self.action[-1])


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
            return flow.linear @ z + flow.shift, None if S is None else flow.linear @ S
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
    """Integrate the flow from t0 to t0 + t_final in the given number of steps.

    Methods: "euler" and "verlet" (symplectic, separable H only), "rk4"
    (non-symplectic reference, any H), "exact" (autonomous quadratic H only).
    The linearized flow S_t is carried by RK4 on the variational equation.
    The symmetrized action gamma_t, by cumulative Simpson on the same nodes,
    is computed on the first read of Trajectory.action.
    """
    if steps < 1:
        raise InvalidMatrix("steps must be >= 1")
    z0 = as_phase_vector(z0, H.n)
    _check_overflow(z0)  # before the first step sees a diverged point
    dim = 2 * H.n
    h = t_final / steps
    times = t0 + h * np.arange(steps + 1)
    points = np.zeros((steps + 1, dim))
    points[0] = z0
    matrices = np.zeros((steps + 1, dim, dim)) if variational else None
    if variational:
        matrices[0] = np.eye(dim)

    step = _step_map(H, method, t0, h)
    z, S = z0, (np.eye(dim) if variational else None)
    for k in range(1, steps + 1):
        z, S = step(z, S, times[k - 1])
        _check_overflow(z)
        points[k] = z
        if variational:
            matrices[k] = S
    return Trajectory(times, points, matrices, method, h, H)


def flow_map(H: Hamiltonian, z, t_from: float, t_to: float, steps: int | None = None,
             method: str = "rk4") -> np.ndarray:
    """The time-dependent flow f_{t_to, t_from} applied to z, in
    default_steps(t_to - t_from) steps when none are given."""
    if abs(t_to - t_from) < 1e-300:
        return as_phase_vector(z, H.n).copy()
    if method == "exact":
        if not has_exact_flow(H):
            raise InvalidMatrix("exact flow requires an autonomous quadratic Hamiltonian")
        aff = quadratic_flow(H.quadratic.matrix(0.0), H.quadratic.vector(0.0), t_to - t_from)
        return aff(z)
    steps = default_steps(t_to - t_from) if steps is None else steps
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
    z = as_phase_vector(z, H.n)
    if abs(t) < 1e-300:
        return z.copy(), t_prime
    z_new = flow_map(H, z, t_prime, t_prime + t, steps=steps, method=method)
    return z_new, t_prime + t


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
    z = as_phase_vector(z, H.n)
    back = flow_map(H, z, t, 0.0, steps, method=auto_method(H, symplectic=False))
    return float(H.value(z, t) + K.value(back, t))


def composed_hamiltonian(H: Hamiltonian, K: Hamiltonian, steps: int | None = None) -> Hamiltonian:
    def value(z, t):
        return compose_hamiltonians(H, K, t, z, steps)

    return hamiltonian_from_callables(H.n, value, autonomous=False, name="composed")


def invert_hamiltonian(H: Hamiltonian, t: float, z, steps: int | None = None) -> float:
    """Value of Hbar(z, t) = -H(f_t^H(z), t); the flow of Hbar inverts f_t^H."""
    z = as_phase_vector(z, H.n)
    fwd = flow_map(H, z, 0.0, t, steps=steps, method=auto_method(H, symplectic=False))
    return float(-H.value(fwd, t))


def inverted_hamiltonian(H: Hamiltonian, steps: int | None = None) -> Hamiltonian:
    def value(z, t):
        return invert_hamiltonian(H, t, z, steps)

    return hamiltonian_from_callables(H.n, value, autonomous=False, name="inverted")


def modified_hamiltonian_value(sep: SeparableParts, x, p, t: float) -> float:
    """Backward-error Hamiltonian of the first-order step:
    K(x, p, t) = U(p) + V(x - U'(p) t)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return float(sep.u(p) + sep.v(x - np.atleast_1d(sep.du(p)) * t))


def modified_hamiltonian(sep: SeparableParts, n: int) -> Hamiltonian:
    """The backward-error Hamiltonian as an integrable Hamiltonian object."""

    def value(z, t):
        return modified_hamiltonian_value(sep, z[:n], z[n:], t)

    if sep.d2u is not None:
        def gradient(z, t):
            x, p = z[:n], z[n:]
            y = x - np.atleast_1d(sep.du(p)) * t
            gv = np.atleast_1d(sep.dv(y))
            gu = np.atleast_1d(sep.du(p))
            d2u = np.atleast_2d(sep.d2u(p))
            return np.concatenate([gv, gu - t * (d2u.T @ gv)])
    else:
        gradient = None

    return hamiltonian_from_callables(n, value, gradient=gradient, autonomous=False,
                                      name="modified")
