import dataclasses
import warnings

import numpy as np
import pytest

from gaborflow.dynamics import (
    Hamiltonian,
    SeparableParts,
    auto_method,
    builtin_hamiltonian,
    compose_hamiltonians,
    composed_hamiltonian,
    default_steps,
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
)
from gaborflow.errors import DivergenceError, InvalidMatrix
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
    integrate(counting, [0.5, 0.2], 0.4, 32).action
    assert len(calls) == 33


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


def test_variational_flow_matches_exact_quadratic():
    traj = integrate(harmonic(), [0.3, -0.2], 1.0, 400, method="rk4")
    aff = quadratic_flow(np.eye(2), t=1.0)
    assert np.max(np.abs(traj.final_matrix - aff.linear)) < 1e-8


def test_variational_flow_symplectic_along_trajectory(rng):
    H = builtin_hamiltonian("anharmonic")
    traj = integrate(H, [0.9, 0.4], 3.0, 3000, method="verlet")
    for S in traj.matrices[:: len(traj.matrices) // 7]:
        assert is_symplectic(S, 1e-6)


def test_variational_flow_matches_fd_sensitivities():
    H = builtin_hamiltonian("anharmonic")
    z0 = np.array([0.8, -0.1])
    t, steps = 1.5, 3000
    traj = integrate(H, z0, t, steps, method="verlet")
    eps = 1e-6
    approx = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        plus = integrate(H, z0 + e, t, steps, method="verlet", variational=False).final_point
        minus = integrate(H, z0 - e, t, steps, method="verlet", variational=False).final_point
        approx[:, i] = (plus - minus) / (2 * eps)
    assert np.max(np.abs(traj.final_matrix - approx)) < 1e-5


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


def test_isotopy_inverse_failure_reports_residual():
    from gaborflow.errors import InverseIterationError

    def collapsing(t, z):
        z = np.asarray(z, dtype=float)
        return np.array([z[0], 0.0])  # singular Jacobian, no inverse

    with pytest.raises(InverseIterationError) as err:
        hamiltonian_from_isotopy(collapsing, 0.5, [1.0, 2.0], nodes=5)
    assert err.value.residual is None or err.value.residual >= 0.0
