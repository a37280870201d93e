"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass/fail line per criterion (visible with -s)."""

from contextlib import contextmanager

import numpy as np
import pytest

from gaborflow.deformation import deform_sweep, invariance_check
from gaborflow.dynamics import (
    builtin_hamiltonian,
    finite_difference_jacobian,
    flow_map,
    hamiltonian_from_isotopy,
    hamiltonian_from_linear_path,
    integrate,
    modified_hamiltonian,
    symplectic_euler_step,
    verlet_step,
)
from gaborflow.expressions import eval_with_derivatives, parse_hamiltonian, to_source
from gaborflow.dynamics import fd_gradient
from gaborflow.frames import (
    GaborSystem,
    covariance_check,
    frame_bounds,
    gaussian_frame_criterion,
    rescaling_check,
    translation_check,
)
from gaborflow.gaussians import (
    GaussianState,
    metaplectic_apply,
    siegel_action,
    standard_gaussian,
)
from gaborflow.symplectic import (
    GeneratingFunctionData,
    fractional_fourier_data,
    from_generating_function,
    make_generator,
    rotation,
    separable_lattice,
    standard_j,
    symplectic_form,
)

from conftest import HBAR, random_symplectic
from oracles import quadratic_fourier_apply, sample_state, sampled_inner_product
from test_expressions import expression_corpus


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({label}): PASS")


def _random_gaussian(rng, n=1, hbar=HBAR):
    M = np.diag([complex(rng.normal(0.0, 0.4), np.exp(rng.normal(0.0, 0.4))) for _ in range(n)])
    return GaussianState(M, rng.normal(0.0, 1.0, 2 * n), rng.normal(), hbar)


def _standard_system(side=0.9, radius=8.0):
    return GaborSystem(standard_gaussian(1, HBAR),
                       separable_lattice([side], [side], radius), HBAR)


def test_criterion_1_gaussian_frame_threshold():
    with criterion(1, "gaussian frame threshold"):
        ratios = {}
        for ab in (0.36, 0.64, 0.81, 0.9025, 1.0, 1.1025, 1.44):
            side = float(np.sqrt(ab))
            sys = GaborSystem(standard_gaussian(1, HBAR),
                              separable_lattice([side], [side], 8.0), HBAR)
            report = frame_bounds(sys)
            expected = bool(gaussian_frame_criterion([side], [side], HBAR)[0])
            assert report.is_frame == expected, f"verdict mismatch at alpha*beta={ab}"
            ratios[ab] = report.a_est / report.b_est
        assert ratios[0.81] > 10.0 * ratios[1.1025]


def test_criterion_2_symplectic_covariance():
    with criterion(2, "symplectic covariance"):
        rng = np.random.default_rng(2)
        sys = _standard_system()
        mats = [standard_j(1), make_generator("shear", P=[[0.8]]),
                make_generator("dilation", L=[[1.4]]), rotation(0.7)]
        mats += [random_symplectic(rng) for _ in range(16)]
        assert len(mats) == 20
        for S in mats:
            t1, t2 = covariance_check(sys, S, [_random_gaussian(rng)])
            assert abs(t1.sum() - t2.sum()) <= 1e-9


def test_criterion_3_translation_theorem():
    with criterion(3, "translation theorem"):
        rng = np.random.default_rng(3)
        sys = _standard_system()
        for _ in range(20):
            z0, z1 = rng.normal(0.0, 1.0, 2), rng.normal(0.0, 1.0, 2)
            t1, t2 = translation_check(sys, z0, z1, [_random_gaussian(rng)])
            assert abs(t1.sum() - t2.sum()) <= 1e-9


def test_criterion_4_rescaling():
    with criterion(4, "Planck rescaling"):
        rng = np.random.default_rng(4)
        sys = _standard_system(side=0.5)
        for hbar_new in (1.0, 0.05, HBAR):
            psi = _random_gaussian(rng, hbar=hbar_new)
            t1, t2 = rescaling_check(sys, hbar_new, [psi])
            assert abs(t1.sum() - t2.sum()) <= 1e-9


def test_criterion_5_integrator_contracts():
    with criterion(5, "integrator contracts"):
        rng = np.random.default_rng(5)
        H = builtin_hamiltonian("harmonic")
        J = standard_j(1)
        # per-step symplecticity
        for stepper in (symplectic_euler_step, verlet_step):
            for _ in range(5):
                z = rng.normal(0.0, 1.0, 2)
                Df = finite_difference_jacobian(lambda w: stepper(H, w, 0.05), z)
                assert np.max(np.abs(Df.T @ J @ Df - J)) <= 1e-7
        # Richardson order ratios on the harmonic oscillator
        exact = np.array([np.cos(10.0), -np.sin(10.0)])

        def global_error(method, steps):
            traj = integrate(H, [1.0, 0.0], 10.0, steps, method=method, variational=False)
            return np.linalg.norm(traj.final_point - exact)

        ratio_euler = global_error("euler", 2000) / global_error("euler", 4000)
        ratio_verlet = global_error("verlet", 500) / global_error("verlet", 1000)
        assert ratio_euler == pytest.approx(2.0, rel=0.2)
        assert ratio_verlet == pytest.approx(4.0, rel=0.2)
        # backward-error Hamiltonian of one first-order step
        K = modified_hamiltonian(H.separable, 1)
        z = np.array([0.8, -0.1])
        dt = 0.1
        euler = symplectic_euler_step(H, z, dt)
        fine = flow_map(K, z, 0.0, dt, steps=10_000, method="rk4")
        assert np.linalg.norm(euler - fine) <= 1e-6


def test_criterion_6_hamiltonian_reconstruction():
    with criterion(6, "hamiltonian reconstruction"):
        rng = np.random.default_rng(6)
        # quadratic form from the rotation path (finite-difference derivatives)
        for t in (0.0, 0.7, 1.9):
            Q = hamiltonian_from_linear_path(rotation, t)
            assert np.max(np.abs(Q - np.eye(2))) <= 1e-6
        # isotopy quadrature at 20 probe points
        z0 = np.array([0.5, -0.3])

        def rot_iso(t, z):
            return rotation(t) @ np.asarray(z, dtype=float)

        def trans_iso(t, z):
            return np.asarray(z, dtype=float) + t * z0

        for _ in range(20):
            z = rng.normal(0.0, 1.0, 2)
            v_rot = hamiltonian_from_isotopy(rot_iso, 0.4, z)
            assert abs(v_rot - 0.5 * float(z @ z)) <= 1e-6
            v_tr = hamiltonian_from_isotopy(trans_iso, 0.4, z)
            assert abs(v_tr - symplectic_form(z, z0)) <= 1e-6


def test_criterion_7_main_invariance_theorem():
    with criterion(7, "main invariance theorem"):
        rng = np.random.default_rng(7)
        sys = _standard_system()
        H = builtin_hamiltonian("anharmonic")
        states = [_random_gaussian(rng) for _ in range(32)]
        for t in (0.25, 0.5, 1.0):
            t1, t2 = invariance_check(sys, H, t, states)
            assert np.max(np.abs(t1.sum(-1) - t2.sum(-1))) <= 1e-8
        # by symplectic covariance, every affine image has the source's bounds
        reports = deform_sweep(sys, builtin_hamiltonian("harmonic"),
                               np.linspace(0.0, 2.0 * np.pi, 9))
        assert all(rep == frame_bounds(sys) for _, rep in reports)


def test_criterion_8_metaplectic_cross_validation():
    with criterion(8, "metaplectic cross-validation"):
        g0 = standard_gaussian(1, HBAR)
        w0 = sample_state(g0, 8.0, 2048)
        inputs = [
            fractional_fourier_data(np.pi / 4.0),
            GeneratingFunctionData([[0.0]], [[1.0]], [[0.0]], 0),
            GeneratingFunctionData([[0.4]], [[1.2]], [[-0.3]], 0),
            GeneratingFunctionData([[-0.5]], [[0.8]], [[0.5]], 1),
            GeneratingFunctionData([[0.3]], [[1.5]], [[0.0]], 2),
        ]
        for data in inputs:
            out = quadratic_fourier_apply(data, w0, HBAR)
            ref = metaplectic_apply(from_generating_function(data), g0)
            ref_w = sample_state(ref, 8.0, 2048)
            overlap = abs(sampled_inner_product(out, ref_w))
            assert overlap == pytest.approx(1.0, abs=1e-4)


def test_criterion_9_siegel_action_properties():
    with criterion(9, "Siegel action properties"):
        rng = np.random.default_rng(9)
        for _ in range(100):
            S1 = random_symplectic(rng)
            S2 = random_symplectic(rng)
            M = _random_gaussian(rng).M
            lhs = siegel_action(S1 @ S2, M)
            rhs = siegel_action(S1, siegel_action(S2, M))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9
            assert np.min(np.linalg.eigvalsh(lhs.imag)) > 0.0


def test_criterion_10_parser_component():
    with criterion(10, "parser component"):
        rng = np.random.default_rng(10)
        corpus = expression_corpus(200, n=1, seed=42)
        probes = [(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.0, 1.0)) for _ in range(4)]
        for src in corpus:
            ast = parse_hamiltonian(src, 1)
            reparsed = parse_hamiltonian(to_source(ast), 1)
            for z, t in probes:
                va = eval_with_derivatives(ast, z, t, 1)[0]
                vb = eval_with_derivatives(reparsed, z, t, 1)[0]
                assert abs(va - vb) <= 1e-12 * max(1.0, abs(va))
            z, t = probes[0]
            _, grad, _ = eval_with_derivatives(ast, z, t, 1)
            fd = fd_gradient(lambda zz, tt: eval_with_derivatives(ast, zz, tt, 1)[0], z, t)
            assert np.max(np.abs(grad - fd)) <= 1e-7 * max(1.0, np.max(np.abs(grad)))
