import dataclasses
import warnings

import numpy as np
import pytest

from gaborflow import errors
from gaborflow.dynamics import (
    Hamiltonian,
    SeparableParts,
    auto_method,
    builtin_hamiltonian,
    compose_hamiltonians,
    composed_hamiltonian,
    default_steps,
    fd_gradient,
    finite_difference_jacobian,
    flow_map,
    groupoid_check,
    hamiltonian_from_callables,
    hamiltonian_from_isotopy,
    hamiltonian_from_linear_path,
    integrate,
    inverted_hamiltonian,
    invert_hamiltonian,
    modified_hamiltonian,
    modified_hamiltonian_value,
    quadratic_flow,
    quadratic_form_blocks,
    quadratic_hamiltonian,
    separable_hamiltonian,
    suspended_flow,
    symplectic_euler_step,
    time_dependent_quadratic,
    verlet_step,
    _cumulative_simpson,
    _dot,
    _expm,
)
from gaborflow.errors import DivergenceError, InvalidMatrix, ResolutionError, ResourceLimit
from gaborflow.expressions import expression_hamiltonian
from gaborflow.symplectic import is_symplectic, rotation, standard_j, symplectic_form


def harmonic():
    return builtin_hamiltonian("harmonic")


def random_polynomial_separable(rng):
    """Random separable Hamiltonian with polynomial U, V up to degree 4."""
    cu = rng.normal(0.0, 0.5, 5)
    cv = rng.normal(0.0, 0.5, 5)
    cu[2] += 0.5  # keep a kinetic-like term
    du = np.polynomial.polynomial.polyder(cu)
    dv = np.polynomial.polynomial.polyder(cv)
    d2u = np.polynomial.polynomial.polyder(du)
    d2v = np.polynomial.polynomial.polyder(dv)
    P = np.polynomial.polynomial.polyval
    return separable_hamiltonian(
        1,
        u=lambda p: float(P(p[0], cu)),
        du=lambda p: np.array([P(p[0], du)]),
        v=lambda x: float(P(x[0], cv)),
        dv=lambda x: np.array([P(x[0], dv)]),
        d2u=lambda p: np.array([[P(p[0], d2u)]]),
        d2v=lambda x: np.array([[P(x[0], d2v)]]),
    )


# ---------------------------------------------------------------------------
# Exact affine flows
# ---------------------------------------------------------------------------

def test_quadratic_flow_is_rotation():
    for t in (0.3, 1.0, 4.0):
        aff = quadratic_flow(np.eye(2), t=t)
        assert np.allclose(aff.linear, rotation(t), atol=1e-12)
        assert np.allclose(aff.shift, 0.0)


def test_quadratic_flow_pure_drift():
    aff = quadratic_flow(np.zeros((2, 2)), m=[2.0, 3.0], t=1.0)
    assert np.allclose(aff.linear, np.eye(2))
    assert np.allclose(aff.shift, standard_j(1) @ [2.0, 3.0])


def test_quadratic_flow_quarter_period():
    aff = quadratic_flow(np.eye(2), t=np.pi / 2.0)
    assert np.allclose(aff([1.0, 0.0]), [0.0, -1.0], atol=1e-12)


def test_quadratic_flow_singular_mass():
    # free particle: M = diag(0, 1), exact flow x -> x + t p
    M = np.diag([0.0, 1.0])
    aff = quadratic_flow(M, t=0.7)
    assert np.allclose(aff([1.0, 2.0]), [1.0 + 0.7 * 2.0, 2.0], atol=1e-12)


def random_generator(rng, n, norm):
    """A Hamiltonian generator J M, with M symmetric, scaled to 1-norm `norm`."""
    M = rng.normal(size=(2 * n, 2 * n))
    A = standard_j(n) @ (M + M.T)
    return A * (norm / np.abs(A).sum(axis=0).max())


# 1-norms on both sides of the thresholds of Pade degrees 3, 5, 7 and 9; the
# large ones take degree 13 with 0 to 4 squarings
EXPM_NORMS = [1e-3, 0.0149, 0.016, 0.25, 0.26, 0.95, 0.96, 1.5, 2.0]
EXPM_LARGE_NORMS = [2.1, 5.3, 5.4, 11.0, 25.0, 50.0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expm_matches_scipy_on_hamiltonian_generators(n, rng):
    from scipy.linalg import expm

    for norms, tol in ((EXPM_NORMS, 1e-14), (EXPM_LARGE_NORMS, 1e-11)):
        for norm in norms:
            for _ in range(10):
                A = random_generator(rng, n, norm)
                S, expected = _expm(A, 1.0), expm(A)
                scale = np.abs(expected).max()
                assert np.abs(S - expected).max() <= tol * scale, norm
                defect = np.abs(S.T @ standard_j(n) @ S - standard_j(n)).max()
                assert defect <= 1e-13 * max(1.0, scale ** 2), norm


def test_expm_of_zero_is_the_identity():
    assert np.array_equal(_expm(np.zeros((5, 5)), 1.0), np.eye(5))


@pytest.mark.parametrize("t", [1e-3, 0.5, 3.0, 40.0, 1e4])
def test_expm_of_the_free_generator_is_its_first_order_term(t):
    # A = J M for H = p^2/2 is nilpotent, so exp(tA) = I + tA
    A = standard_j(1) @ np.diag([0.0, 1.0])
    assert np.abs(_expm(A, t) - (np.eye(2) + t * A)).max() <= 1e-15 * max(1.0, t)


def test_expm_of_the_harmonic_generator_is_the_rotation():
    # the scaled angle's rounding doubles with each squaring, so past the
    # squaring-free range the error grows like t eps
    for t in np.linspace(0.0, 50.0, 501):
        err = np.abs(_expm(standard_j(1), t) - rotation(t)).max()
        assert err <= 2e-15 + t * np.finfo(float).eps, t


@pytest.mark.parametrize("t", [np.nan, np.inf, 1e300])
def test_expm_outside_the_float_range_raises(t):
    with pytest.raises(DivergenceError, match="exact quadratic flow at t = "):
        _expm(standard_j(1), t)


# ---------------------------------------------------------------------------
# One-step integrators
# ---------------------------------------------------------------------------

def test_euler_step_hand_example():
    z1 = symplectic_euler_step(harmonic(), [1.0, 0.0], 0.1)
    assert z1[1] == pytest.approx(-0.1, abs=1e-15)
    assert z1[0] == pytest.approx(0.99, abs=1e-15)


def test_steps_at_zero_dt_are_identity():
    z = np.array([0.4, -0.7])
    assert np.allclose(symplectic_euler_step(harmonic(), z, 0.0), z)
    assert np.allclose(verlet_step(harmonic(), z, 0.0), z)


def test_step_jacobians_symplectic():
    J = standard_j(1)
    z = np.array([0.7, -0.3])
    for stepper in (symplectic_euler_step, verlet_step):
        Df = finite_difference_jacobian(lambda w: stepper(harmonic(), w, 0.05), z)
        assert np.max(np.abs(Df.T @ J @ Df - J)) < 1e-8


def test_step_jacobians_symplectic_random_polynomials(rng):
    J = standard_j(1)
    for _ in range(8):
        H = random_polynomial_separable(rng)
        z = rng.normal(0.0, 0.8, 2)
        for stepper in (symplectic_euler_step, verlet_step):
            Df = finite_difference_jacobian(lambda w: stepper(H, w, 0.03), z)
            assert np.max(np.abs(Df.T @ J @ Df - J)) < 1e-7


def test_integrators_require_separable():
    nonsep = hamiltonian_from_callables(1, lambda z, t: z[0] * z[1])
    with pytest.raises(InvalidMatrix):
        symplectic_euler_step(nonsep, [1.0, 0.0], 0.1)


def test_separable_quadratic_runs_verlet_at_second_order():
    # U and V come from the diagonal blocks of M, so verlet applies
    M = np.diag([0.5, 2.0])
    H = quadratic_hamiltonian(M)
    z0 = np.array([0.8, -0.3])
    exact = quadratic_flow(M, t=1.0)(z0)
    errs = []
    for steps in (100, 200):
        z = z0
        for _ in range(steps):
            z = verlet_step(H, z, 1.0 / steps)
        errs.append(np.linalg.norm(z - exact))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_coupled_quadratic_is_not_separable():
    assert quadratic_hamiltonian([[1.0, 0.3], [0.3, 1.0]]).separable is None


@pytest.mark.parametrize("name, symplectic, expected", [
    ("harmonic", True, "exact"),
    ("harmonic", False, "exact"),
    ("anharmonic", True, "verlet"),
    ("anharmonic", False, "rk4"),
    ("driven", True, "rk4"),
])
def test_auto_method(name, symplectic, expected):
    assert auto_method(builtin_hamiltonian(name), symplectic) == expected


def test_default_steps():
    assert default_steps(0.0) == 256
    assert default_steps(0.1) == 256
    assert default_steps(-2.0) == 1024
    assert default_steps(1.001) == 513


def test_integrate_checks_its_bytes_before_allocating(monkeypatch):
    H = builtin_hamiltonian("anharmonic", 1)
    z0 = np.zeros((3, 2))
    # times, then 3 points and 3 S_t of 2 x 2 per node, and the 10 steps'
    # derivatives of 3 x 2 x 2
    need = 8 * 11 * (1 + 6 + 12) + 8 * 10 * 12
    monkeypatch.setattr(errors, "BYTE_BUDGET", need)
    assert integrate(H, z0, 1.0, 10).points.shape == (11, 3, 2)
    monkeypatch.setattr(errors, "BYTE_BUDGET", need - 1)
    with pytest.raises(ResourceLimit, match=f"need {need} bytes"):
        integrate(H, z0, 1.0, 10)
    # RK4 adds its three inner stage points of 3 x 2 and four stage Hessians
    # of 3 x 2 x 2 per step
    need_rk4 = need + 8 * 10 * (3 * 6 + 4 * 12)
    monkeypatch.setattr(errors, "BYTE_BUDGET", need_rk4)
    integrate(H, z0, 1.0, 10, method="rk4")
    monkeypatch.setattr(errors, "BYTE_BUDGET", need_rk4 - 1)
    with pytest.raises(ResourceLimit, match=f"need {need_rk4} bytes"):
        integrate(H, z0, 1.0, 10, method="rk4")
    # without S_t only the times and points count
    integrate(H, z0, 1.0, 10, variational=False)
    monkeypatch.undo()
    with pytest.raises(ResourceLimit):
        integrate(H, z0, 1.0, 10**13, variational=False)


def test_flow_map_uses_default_steps():
    H = builtin_hamiltonian("anharmonic")
    z = np.array([0.6, -0.2])
    for t_from, t_to in ((0.0, 0.3), (0.7, -0.5)):
        assert np.array_equal(flow_map(H, z, t_from, t_to),
                              flow_map(H, z, t_from, t_to, steps=default_steps(t_to - t_from)))


def test_flow_map_never_evaluates_h():
    # the action, the only reader of H.value, is not computed for flow_map
    H = builtin_hamiltonian("anharmonic")
    calls = []

    def value(z, t):
        calls.append(t)
        return H.value(z, t)

    counting = dataclasses.replace(H, value=value)
    for method in ("verlet", "rk4"):
        flow_map(counting, [0.5, 0.2], 0.0, 0.4, steps=32, method=method)
    assert calls == []
    # the action of an autonomous H evaluates it once, on all 33 nodes at once
    integrate(counting, [0.5, 0.2], 0.4, 32).action
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Batches of phase points
# ---------------------------------------------------------------------------

BATCH_HAMILTONIANS = {
    "harmonic": lambda: builtin_hamiltonian("harmonic"),
    "coupled": lambda: quadratic_hamiltonian([[1.0, 0.3], [0.3, 0.7]]),
    "anharmonic": lambda: builtin_hamiltonian("anharmonic"),
    "driven": lambda: builtin_hamiltonian("driven"),
    "expression": lambda: expression_hamiltonian(
        "p1^2/2 + 0.7*x1^2/2 - 0.2*x1^3/3 + x1^4/4 + 0.1*sin(t)*x1", 1),
    # finite-difference gradient and Hessian
    "callables": lambda: hamiltonian_from_callables(
        1, lambda z, t: 0.5 * (z[..., 0] * z[..., 0] + z[..., 1] * z[..., 1])
        + 0.1 * z[..., 0] * z[..., 0] * z[..., 1]),
}


@pytest.mark.parametrize("variational", [False, True])
@pytest.mark.parametrize("name, method", [
    ("harmonic", "exact"), ("harmonic", "euler"), ("harmonic", "verlet"), ("harmonic", "rk4"),
    ("coupled", "exact"), ("coupled", "rk4"),
    ("anharmonic", "euler"), ("anharmonic", "verlet"), ("anharmonic", "rk4"),
    ("driven", "rk4"), ("expression", "rk4"), ("callables", "rk4"),
])
def test_batch_integrate_equals_single_point_runs(name, method, variational):
    H = BATCH_HAMILTONIANS[name]()
    Z = np.random.default_rng(1).normal(0.0, 0.8, (3, 4, 2))
    batch = integrate(H, Z, 0.6, 24, method=method, variational=variational)
    singles = [integrate(H, z, 0.6, 24, method=method, variational=variational)
               for z in Z.reshape(-1, 2)]
    # a power of an array takes numpy's SIMD loop and a power of a single
    # point's scalar takes libm pow, which can differ in the last bit; every
    # other operation rounds the same on a batch and on its rows
    tol = 1e-13 if name in ("anharmonic", "expression") else 0.0

    def check(got, per_point):
        expect = np.stack(per_point, axis=1).reshape(got.shape)
        np.testing.assert_allclose(got, expect, rtol=tol, atol=tol * 1e-2)

    assert batch.points.shape == (25, 3, 4, 2)
    check(batch.points, [s.points for s in singles])
    check(batch.action, [s.action for s in singles])
    if variational:
        assert batch.matrices.shape == (25, 3, 4, 2, 2)
        check(batch.matrices, [s.matrices for s in singles])
    else:
        assert batch.matrices is None


def test_batch_flow_map_and_single_point_shapes():
    H = builtin_hamiltonian("driven")
    Z = np.array([[0.5, 0.2], [-0.3, 0.7]])
    out = flow_map(H, Z, 0.0, 0.4, steps=32)
    assert out.shape == (2, 2)
    assert np.array_equal(out[1], flow_map(H, Z[1], 0.0, 0.4, steps=32))
    traj = integrate(H, Z[0], 0.4, 32, method="rk4")
    assert traj.points.shape == (33, 2) and traj.matrices.shape == (33, 2, 2)
    assert isinstance(traj.final_action, float)


def per_node_action(traj):
    """The action with H evaluated on one time node at a time, and its integrand."""
    H, n = traj.hamiltonian, traj.hamiltonian.n
    integrand = np.zeros(traj.points.shape[:-1])
    for k, (z, t) in enumerate(zip(traj.points, traj.times)):
        v = H.velocity(z, t)
        sig = _dot(z[..., n:], v[..., :n]) - _dot(v[..., n:], z[..., :n])
        integrand[k] = 0.5 * sig - H.value(z, t)
    return _cumulative_simpson(integrand, traj.dt), integrand


ACTION_CASES = [
    ("anharmonic", "verlet", [0.9, -0.3], False),
    ("anharmonic", "rk4", [[0.9, -0.3], [-1.4, 0.6]], False),
    ("harmonic", "verlet", [[1.0, 0.2], [-0.5, 0.7]], True),
    ("harmonic", "exact", [1.0, 0.2], True),
    ("free", "rk4", [0.3, -1.1], True),
    ("p1^2/2 + x1^4/4 - x1*p1/3", "rk4", [[0.8, 0.1], [-0.6, 0.4]], False),
]


@pytest.mark.parametrize("name, method, z0, exact", ACTION_CASES)
def test_batched_action_matches_the_per_node_action(name, method, z0, exact):
    H = builtin_hamiltonian(name) if name.isalpha() else expression_hamiltonian(name, 1)
    assert H.autonomous
    traj = integrate(H, z0, 1.0, 64, method=method)
    ref, integrand = per_node_action(traj)
    assert traj.action.shape == ref.shape == traj.points.shape[:-1]
    if exact:  # the quadratic forms round the same on a batch as on one node
        assert np.array_equal(traj.action, ref)
    else:  # powers of arrays and of scalars may differ in the last bit
        assert np.max(np.abs(traj.action - ref)) <= 1e-15 * np.max(np.abs(integrand))


def test_time_dependent_action_stays_per_node():
    H = builtin_hamiltonian("driven")
    calls = []

    def value(z, t):
        calls.append(np.shape(z))
        return H.value(z, t)

    counting = dataclasses.replace(H, value=value)
    for z0 in ([0.5, 0.2], [[0.5, 0.2], [-0.3, 0.7]]):
        calls.clear()
        traj = integrate(counting, z0, 0.4, 32, method="rk4")
        traj.action
        assert calls == [np.shape(z0)] * 33
        assert np.array_equal(traj.action, per_node_action(traj)[0])


def test_autonomous_final_action_is_a_float():
    traj = integrate(builtin_hamiltonian("anharmonic"), [0.5, 0.2], 0.4, 32)
    assert isinstance(traj.final_action, float)


def _order_ratio(method: str, steps: int) -> float:
    H = harmonic()
    exact = np.array([np.cos(10.0), -np.sin(10.0)])
    errs = []
    for s in (steps, 2 * steps):
        traj = integrate(H, [1.0, 0.0], 10.0, s, method=method, variational=False)
        errs.append(np.linalg.norm(traj.final_point - exact))
    return errs[0] / errs[1]


def test_euler_is_first_order():
    assert _order_ratio("euler", 2000) == pytest.approx(2.0, rel=0.2)


def test_verlet_is_second_order():
    assert _order_ratio("verlet", 500) == pytest.approx(4.0, rel=0.2)


def test_energy_drift_scales_with_dt_squared():
    H = harmonic()

    def max_drift(steps):
        traj = integrate(H, [1.0, 0.0], 100.0, steps, method="verlet", variational=False)
        e0 = H.value(traj.points[0], 0.0)
        return max(abs(H.value(z, 0.0) - e0) for z in traj.points)

    d1, d2 = max_drift(2000), max_drift(4000)
    c = 1.5 * max(d1 * (2000 / 100) ** 2, d2 * (4000 / 100) ** 2)
    d3 = max_drift(8000)
    assert d3 <= c * (100 / 8000) ** 2


# ---------------------------------------------------------------------------
# Trajectories: points, variational flow, action
# ---------------------------------------------------------------------------

def test_trajectory_matches_closed_form():
    traj = integrate(harmonic(), [1.0, 0.0], 10.0, 4000, method="verlet")
    exact = np.array([np.cos(10.0), -np.sin(10.0)])
    assert np.linalg.norm(traj.final_point - exact) < 5e-6


def test_action_phase_vanishes_on_harmonic_circle():
    traj = integrate(harmonic(), [1.0, 0.0], 5.0, 2000, method="verlet")
    assert abs(traj.final_action) < 1e-8


def test_action_phase_free_particle():
    # gamma = integral (sigma(z, zdot)/2 - H) = t p^2/2 - t p^2/2 ... for free
    # flow sigma(z, zdot)/2 = p^2 t-term/2; direct value: p^2/2 * t - p^2/2 * t = ...
    # computed against explicit quadrature of the closed-form trajectory
    H = builtin_hamiltonian("free")
    p0 = 0.8
    traj = integrate(H, [0.3, p0], 2.0, 1000, method="verlet")
    # z_t = (x + t p, p), integrand = p^2/2 - p^2/2 ... evaluate directly:
    # sigma(z, zdot) = p * xdot - pdot * x = p^2, so integrand = p^2/2 - p^2/2 = 0
    assert abs(traj.final_action - 0.0) < 1e-10


@pytest.mark.parametrize("nodes", [*range(2, 13), 129])
def test_cumulative_simpson_equals_scipy_bit_for_bit(nodes, rng):
    from scipy.integrate import cumulative_simpson

    for y in (rng.normal(size=nodes), rng.normal(size=(nodes, 7))):
        expected = cumulative_simpson(y, dx=0.013, axis=0, initial=0.0)
        assert np.array_equal(_cumulative_simpson(y, 0.013), expected)


def test_variational_flow_matches_exact_quadratic():
    traj = integrate(harmonic(), [0.3, -0.2], 1.0, 400, method="rk4")
    aff = quadratic_flow(np.eye(2), t=1.0)
    assert np.max(np.abs(traj.final_matrix - aff.linear)) < 1e-8


@pytest.mark.parametrize("method", ["euler", "verlet"])
@pytest.mark.parametrize("steps", [8, 64, 3000])
def test_variational_flow_symplectic_along_trajectory(method, steps):
    # S_t is the derivative of a symplectic step map, so it is symplectic to
    # rounding even at coarse steps
    H = builtin_hamiltonian("anharmonic")
    traj = integrate(H, [0.9, 0.4], 3.0, steps, method=method)
    S, J = traj.matrices, standard_j(1)
    assert np.max(np.abs(np.swapaxes(S, -1, -2) @ J @ S - J)) <= 1e-12


@pytest.mark.parametrize("method", ["euler", "verlet"])
@pytest.mark.parametrize("steps", [8, 64, 3000])
def test_variational_flow_matches_fd_sensitivities(method, steps):
    # S_t is the Jacobian of the numerical flow at every step size
    H = builtin_hamiltonian("anharmonic")
    z0 = np.array([0.8, -0.1])
    t = 1.5
    traj = integrate(H, z0, t, steps, method=method)
    eps = 1e-6
    approx = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        plus = integrate(H, z0 + e, t, steps, method=method, variational=False).final_point
        minus = integrate(H, z0 - e, t, steps, method=method, variational=False).final_point
        approx[:, i] = (plus - minus) / (2 * eps)
    assert np.max(np.abs(traj.final_matrix - approx)) < 1e-8


def test_splitting_tangent_needs_no_full_hessian_and_no_rk4(monkeypatch):
    import gaborflow.dynamics as dynamics

    def fail(*args):
        raise AssertionError("the splitting tangent map must not call this")

    H = dataclasses.replace(builtin_hamiltonian("anharmonic"), hessian=fail)
    monkeypatch.setattr(dynamics, "_variational_rk4_step", fail)
    for method in ("euler", "verlet"):
        traj = integrate(H, [1.0, 0.0], 1.0, 8, method=method)
        assert traj.matrices.shape == (9, 2, 2)


def test_separable_hessians_default_to_symmetric_jacobians_of_the_gradients():
    def dv(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([x1 * x2 ** 2 + np.cos(x1), x1 ** 2 * x2], axis=-1)

    H = separable_hamiltonian(2, u=lambda p: 0.5 * np.sum(p * p, axis=-1), du=lambda p: p,
                              v=lambda x: 0.5 * (x[..., 0] * x[..., 1]) ** 2 + np.sin(x[..., 0]),
                              dv=dv)
    X = np.random.default_rng(3).normal(size=(5, 2))
    d2v = H.separable.d2v(X)
    assert np.array_equal(d2v, np.swapaxes(d2v, -1, -2))
    assert all(np.array_equal(d2v[i], H.separable.d2v(X[i])) for i in range(5))
    x1, x2 = X[:, 0], X[:, 1]
    exact = np.stack([np.stack([x2 ** 2 - np.sin(x1), 2 * x1 * x2], -1),
                      np.stack([2 * x1 * x2, x1 ** 2], -1)], -2)
    assert np.max(np.abs(d2v - exact)) < 1e-8
    assert np.max(np.abs(H.separable.d2u(X) - np.eye(2))) < 1e-8
    # the shears built from them keep S_t symplectic to rounding
    S, J = integrate(H, [0.5, -0.3, 0.2, 0.4], 2.0, 16).matrices, standard_j(2)
    assert np.max(np.abs(np.swapaxes(S, -1, -2) @ J @ S - J)) <= 1e-12


def test_fd_gradient_jacobian_of_a_batch_equals_per_point_jacobians():
    def g(z, t):
        return np.stack([z[..., 0] ** 2 * z[..., 1], np.sin(z[..., 1]) + t], axis=-1)

    Z = np.random.default_rng(4).normal(size=(3, 2))
    jac = fd_gradient(g, Z, 0.5)
    assert jac.shape == (3, 2, 2)
    for i in range(3):
        assert np.array_equal(jac[i], fd_gradient(g, Z[i], 0.5))
        assert np.allclose(jac[i], [[2 * Z[i, 0] * Z[i, 1], Z[i, 0] ** 2],
                                    [0.0, np.cos(Z[i, 1])]], atol=1e-8)


def test_exact_flow_jacobian_symplectic():
    H = builtin_hamiltonian("anharmonic")
    J = standard_j(1)

    def fine_flow(z):
        return integrate(H, z, 1.0, 2000, method="verlet", variational=False).final_point

    Df = finite_difference_jacobian(fine_flow, np.array([0.6, 0.3]))
    assert np.max(np.abs(Df.T @ J @ Df - J)) < 1e-5


def test_exact_method_requires_autonomous_quadratic():
    with pytest.raises(InvalidMatrix):
        integrate(builtin_hamiltonian("anharmonic"), [1.0, 0.0], 1.0, 10, method="exact")
    with pytest.raises(InvalidMatrix):
        integrate(builtin_hamiltonian("driven"), [1.0, 0.0], 1.0, 10, method="exact")


def test_divergence_guard():
    H = separable_hamiltonian(
        1,
        u=lambda p: 0.5 * float(p @ p),
        du=lambda p: np.asarray(p, dtype=float),
        v=lambda x: -float(x[0] ** 4),
        dv=lambda x: np.array([-4.0 * x[0] ** 3]),
    )
    with pytest.raises(DivergenceError):
        integrate(H, [2.0, 0.0], 50.0, 200, method="euler", variational=False)


@pytest.mark.parametrize("method", ["verlet", "rk4"])
def test_initial_point_checked_before_first_step(method):
    # with warnings as errors, an overflow inside the first step would raise a
    # RuntimeWarning ahead of the guard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            integrate(builtin_hamiltonian("anharmonic"), [1e120, 0.0], 10.0, 10, method=method)


@pytest.mark.parametrize("block", [256, 2])
def test_divergence_mid_block_raises_without_a_warning(monkeypatch, block):
    # Verlet from (20, 0) at h = 0.1 first leaves the guard at step 3, and the
    # steps after it in the same block overflow to inf and nan; with a block
    # of 2 it is the first row of the second block
    import gaborflow.dynamics as dynamics

    monkeypatch.setattr(dynamics, "GUARD_BLOCK", block)
    # recorded, not raised: the guard would turn a raised warning into its own error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match="overflow guard"):
            integrate(builtin_hamiltonian("anharmonic"), [20.0, 0.0], 10.0, 100,
                      method="verlet")
    assert caught == []


def test_a_step_that_raises_with_every_row_inside_the_guard_reraises(monkeypatch):
    # the guard runs over the block's finished rows first, and none diverged
    import gaborflow.dynamics as dynamics

    calls = []

    def failing(k):  # leaves node k at its zeros, inside the guard
        calls.append(k)
        if len(calls) == 5:
            raise ValueError("step failed")

    monkeypatch.setattr(dynamics, "_step_map", lambda *a: (failing, None))
    with pytest.raises(ValueError, match="step failed"):
        integrate(builtin_hamiltonian("anharmonic"), [2.0, 2.0], 1.0, 10, method="verlet",
                  variational=False)


# ---------------------------------------------------------------------------
# Step derivatives and their prefix product
# ---------------------------------------------------------------------------

def quartic_separable(n):
    """U = |p|^2/2 and V = sum x_i^4/4 + x_1^2 x_n^2/2, with exact Hessians."""
    def dv(x):
        first, last = x[..., :1], x[..., -1:]
        coupling = np.zeros_like(x)
        coupling[..., :1] += first * last ** 2
        coupling[..., -1:] += first ** 2 * last
        return x ** 3 + coupling

    def d2v(x):
        out = np.zeros(x.shape + (n,))
        out[..., range(n), range(n)] = 3 * x ** 2
        first, last = x[..., 0], x[..., -1]
        out[..., 0, 0] += last ** 2
        out[..., -1, -1] += first ** 2
        out[..., 0, -1] += 2 * first * last
        out[..., -1, 0] += 2 * first * last
        return out

    return separable_hamiltonian(
        n, u=lambda p: 0.5 * np.sum(p * p, axis=-1), du=lambda p: p,
        v=lambda x: np.sum(x ** 4, axis=-1) / 4 + (x[..., 0] * x[..., -1]) ** 2 / 2, dv=dv,
        d2u=lambda p: np.eye(n), d2v=d2v)


def prefix_case(method, n):
    if method == "exact":
        M = np.eye(2 * n) if n == 1 else np.array([[1.0, 0.2, 0.0, 0.1], [0.2, 0.8, 0.3, 0.0],
                                                     [0.0, 0.3, 1.2, 0.0], [0.1, 0.0, 0.0, 0.9]])
        return quadratic_hamiltonian(M)
    if method == "rk4":
        return expression_hamiltonian("p1^2/2 + x1^4/4 + 0.1*sin(t)*x1" if n == 1 else
                                      "p1^2/2 + p2^2/2 + x1^4/4 + x2^2/2 + 0.3*x1*p2", n)
    return quartic_separable(n)


@pytest.mark.parametrize("method", ["euler", "verlet", "rk4", "exact"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("steps", [1, 2, 7, 1000])
def test_prefix_product_equals_the_sequential_product(monkeypatch, method, n, steps):
    import gaborflow.dynamics as dynamics

    scan, stacks = dynamics._prefix_products, []

    def keeping(M):  # keeps the step derivatives that integrate built
        stacks.append(M.copy())
        scan(M)

    monkeypatch.setattr(dynamics, "_prefix_products", keeping)
    H = prefix_case(method, n)
    Z = np.random.default_rng(steps + n).normal(0.0, 0.6, (3, 2 * n))
    dim = 2 * n
    traj = integrate(H, Z, 0.8, steps, method=method, t0=0.1)
    D = stacks[0]
    assert D.shape == (steps,) + Z.shape + (dim,)
    S = np.broadcast_to(np.eye(dim), Z.shape + (dim,))
    for k in range(steps):
        S = D[k] @ S
        got = traj.matrices[k + 1]
        assert np.max(np.abs(got - S)) <= 1e-12 * np.max(np.abs(S))
    # the batch's prefix product is each row's, bit for bit
    for row in range(len(Z)):
        single = D[:, row].copy()
        scan(single)
        assert np.array_equal(single, traj.matrices[1:, row])


def test_long_verlet_linear_flow_stays_symplectic():
    traj = integrate(builtin_hamiltonian("anharmonic"), [1.0, 0.5], 10.0, 10**4, method="verlet")
    S, J = traj.matrices, standard_j(1)
    assert np.max(np.abs(np.swapaxes(S, -1, -2) @ J @ S - J)) <= 1e-13


# ---------------------------------------------------------------------------
# Groupoid property and suspended flow
# ---------------------------------------------------------------------------

def test_groupoid_identity_law():
    assert groupoid_check(harmonic(), 0.4, 0.4, 0.4, [1.0, 0.2], steps=64) == 0.0


def test_groupoid_harmonic_verlet():
    defect = groupoid_check(harmonic(), 1.0, 0.5, 0.0, [0.7, -0.2],
                            steps=10_000, method="verlet")
    assert defect <= 1e-6


def test_groupoid_time_dependent(rng):
    H = time_dependent_quadratic(1, lambda t: (1.0 + t) * np.eye(2))
    for _ in range(3):
        t, t1, t2 = sorted(rng.uniform(0.0, 1.2, 3), reverse=True)
        defect = groupoid_check(H, t, t1, t2, rng.normal(0.0, 0.7, 2), steps=1500)
        assert defect <= 1e-5


def test_suspended_flow_identity():
    z = np.array([0.5, -0.4])
    out, t_out = suspended_flow(harmonic(), 0.0, (z, 0.3))
    assert np.allclose(out, z)
    assert t_out == 0.3


def test_suspended_flow_group_law():
    H = builtin_hamiltonian("driven")
    z = np.array([0.8, -0.1])
    s1 = suspended_flow(H, 0.3, (z, 0.2), steps=1200)
    s2 = suspended_flow(H, 0.4, s1, steps=1200)
    s12 = suspended_flow(H, 0.7, (z, 0.2), steps=2400)
    assert np.linalg.norm(s2[0] - s12[0]) <= 1e-6
    assert s2[1] == pytest.approx(s12[1], abs=1e-12)


def test_suspended_flow_autonomous_projection():
    H = harmonic()
    z = np.array([0.4, 0.9])
    for t0 in (0.0, 1.7):
        out, _ = suspended_flow(H, 0.8, (z, t0), steps=1600)
        ref = integrate(H, z, 0.8, 1600, method="rk4", variational=False).final_point
        assert np.linalg.norm(out - ref) <= 1e-9


# ---------------------------------------------------------------------------
# Hamiltonians from paths and isotopies
# ---------------------------------------------------------------------------

def test_linear_path_rotation_recovers_harmonic():
    for t in (0.0, 0.6, 2.0):
        Q = hamiltonian_from_linear_path(rotation, t)
        assert np.max(np.abs(Q - np.eye(2))) < 1e-6


def test_linear_path_block_formula_agrees():
    xx, px, pp = quadratic_form_blocks(rotation, 0.6)
    assert xx[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert px[0, 0] == pytest.approx(0.0, abs=1e-6)
    assert pp[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_linear_path_identity_gives_zero():
    Q = hamiltonian_from_linear_path(lambda t: np.eye(2), 0.5)
    assert np.max(np.abs(Q)) < 1e-9


def test_linear_path_shear_family():
    P = 0.8

    def path(t):
        out = np.eye(2)
        out[1, 0] = -P * t
        return out

    Q = hamiltonian_from_linear_path(path, 0.7)
    assert np.allclose(Q, [[P, 0.0], [0.0, 0.0]], atol=1e-9)


def test_linear_path_rejects_nonsymplectic():
    with pytest.raises(InvalidMatrix):
        hamiltonian_from_linear_path(lambda t: np.diag([1.0 + t, 1.0 + t]), 0.5)


def test_isotopy_rotation_flow():
    def iso(t, z):
        return rotation(t) @ np.asarray(z, dtype=float)

    for z in ([0.7, -0.2], [1.0, 1.0]):
        val = hamiltonian_from_isotopy(iso, 0.3, z)
        assert val == pytest.approx(0.5 * float(np.dot(z, z)), abs=1e-6)


def test_isotopy_translation_flow(rng):
    z0 = np.array([0.5, -0.3])

    def iso(t, z):
        return np.asarray(z, dtype=float) + t * z0

    for _ in range(5):
        z = rng.normal(0.0, 1.0, 2)
        val = hamiltonian_from_isotopy(iso, 0.4, z)
        assert val == pytest.approx(symplectic_form(z, z0), abs=1e-6)


def test_isotopy_identity_flow():
    val = hamiltonian_from_isotopy(lambda t, z: np.asarray(z, dtype=float), 0.5, [1.0, 2.0])
    assert abs(val) < 1e-9


def test_time_differences_that_cannot_resolve_t_raise():
    # t +- 1e-5 rounds to t = 1e17, so the central difference would read 0
    # and the rotation's Q = I and values |z|^2/2 would come out as zeros
    def iso(t, z):
        return rotation(t) @ np.asarray(z, dtype=float)

    for call in (lambda: hamiltonian_from_linear_path(rotation, 1e17),
                 lambda: quadratic_form_blocks(rotation, 1e17),
                 lambda: hamiltonian_from_isotopy(iso, 1e17, [0.7, -0.4])):
        with pytest.raises(ResolutionError, match="does not resolve t = 1e\\+17"):
            call()
    # the step still resolves t = 1e10 (ulp 1.9e-6), where t +- 1e-5 are
    # 5 ulp = 1.9e-5 apart: divided by 2e-5 instead, Q read 0.9537 I
    Q = hamiltonian_from_linear_path(rotation, 1e10)
    assert np.max(np.abs(Q - np.eye(2))) < 1e-9
    assert hamiltonian_from_isotopy(iso, 1e10, [0.7, -0.4]) == pytest.approx(0.325, abs=1e-9)


# ---------------------------------------------------------------------------
# Composition, inversion, backward-error Hamiltonian
# ---------------------------------------------------------------------------

def test_compose_with_zero():
    H = harmonic()
    K0 = quadratic_hamiltonian(np.zeros((2, 2)))
    z = np.array([0.7, 0.1])
    assert compose_hamiltonians(H, K0, 0.8, z) == pytest.approx(H.value(z, 0.8), abs=1e-12)


def test_compose_doubles_harmonic_flow():
    H = harmonic()
    HK = composed_hamiltonian(H, H)
    probe = np.array([0.8, -0.1])
    out = flow_map(HK, probe, 0.0, 0.7, steps=500, method="rk4")
    assert np.linalg.norm(out - rotation(1.4) @ probe) < 1e-6


@pytest.mark.parametrize("build", [lambda H: composed_hamiltonian(H, H), inverted_hamiltonian],
                         ids=["composed", "inverted"])
def test_fd_gradient_builds_the_exact_flow_once_per_gradient(monkeypatch, build):
    import gaborflow.dynamics as dynamics

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return quadratic_flow(*args, **kwargs)

    monkeypatch.setattr(dynamics, "quadratic_flow", counting)
    H = build(harmonic())
    H.gradient(np.array([0.8, -0.1]), 0.7)
    assert len(calls) == 1
    H.gradient(np.random.default_rng(2).normal(size=(5, 2)), 0.7)
    assert len(calls) == 2


def test_inversion_reverses_flow():
    H = harmonic()
    Hbar = inverted_hamiltonian(H)
    probe = np.array([0.4, 0.6])
    fwd = rotation(0.9) @ probe
    back = flow_map(Hbar, fwd, 0.0, 0.9, steps=500, method="rk4")
    assert np.linalg.norm(back - probe) < 1e-6


def test_inverted_value():
    H = harmonic()
    z = np.array([1.0, 0.0])
    # energy is conserved, so Hbar = -H for the harmonic oscillator
    assert invert_hamiltonian(H, 0.7, z) == pytest.approx(-0.5, abs=1e-9)


def test_modified_hamiltonian_at_zero_time():
    H = harmonic()
    sep = H.separable
    z = np.array([0.3, 0.8])
    assert modified_hamiltonian_value(sep, z[:1], z[1:], 0.0) == pytest.approx(
        H.value(z, 0.0), abs=1e-14
    )


def test_modified_hamiltonian_hand_formula():
    sep = harmonic().separable
    assert modified_hamiltonian_value(sep, [1.0], [2.0], 0.3) == pytest.approx(
        2.0 + (1.0 - 0.6) ** 2 / 2.0, abs=1e-12
    )


def test_backward_error_of_euler_step():
    H = harmonic()
    K = modified_hamiltonian(H.separable, 1)
    z = np.array([0.8, -0.1])
    dt = 0.1
    euler = symplectic_euler_step(H, z, dt)
    fine = flow_map(K, z, 0.0, dt, steps=10_000, method="rk4")
    assert np.linalg.norm(euler - fine) < 1e-6


def test_isotopy_inverse_that_leaves_the_float_range_raises():
    from gaborflow.errors import InverseIterationError

    # exp(700) = 1.0e304, so a Newton step that grows w past about 1e4
    # overflows; the overflow is no warning, and the step is not taken
    def dilation(t, z):
        return np.diag([np.exp(t), np.exp(-t)]) @ np.asarray(z, dtype=float)

    with pytest.raises(InverseIterationError):
        hamiltonian_from_isotopy(dilation, 700.0, [0.7, -0.4], nodes=5)
    with pytest.raises(InverseIterationError, match="left the float range"):
        hamiltonian_from_isotopy(dilation, 700.0, [1e5, 0.0], nodes=5)


def test_isotopy_inverse_failure_reports_residual():
    from gaborflow.errors import InverseIterationError

    def collapsing(t, z):
        z = np.asarray(z, dtype=float)
        return np.array([z[0], 0.0])  # singular Jacobian, no inverse

    with pytest.raises(InverseIterationError) as err:
        hamiltonian_from_isotopy(collapsing, 0.5, [1.0, 2.0], nodes=5)
    assert err.value.residual is None or err.value.residual >= 0.0
