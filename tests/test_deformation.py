import dataclasses

import numpy as np
import pytest

from gaborflow.deformation import (
    DeformationConfig,
    deform_sweep,
    deformed_system,
    gaussian_corollary_check,
    invariance_check,
    matched_test_state,
    weak_deform,
)
from gaborflow.dynamics import builtin_hamiltonian, quadratic_hamiltonian
from gaborflow.errors import DimensionMismatch, InvalidMatrix
from gaborflow.frames import (
    GaborSystem,
    covariance_check,
    frame_bounds,
    frame_sum,
    rescaling_check,
    translation_check,
)
from gaborflow.gaussians import GaussianMixture, GaussianState, standard_gaussian
from gaborflow.symplectic import rotation, separable_lattice

from conftest import HBAR, counting_calls, random_symplectic
from oracles import sample_state


def standard_system(side=0.9, radius=8.0):
    return GaborSystem(standard_gaussian(1, HBAR),
                       separable_lattice([side], [side], radius), HBAR)


def random_gaussian(rng, n=1, hbar=HBAR):
    M = np.diag([complex(rng.normal(0.0, 0.4), np.exp(rng.normal(0.0, 0.4))) for _ in range(n)])
    return GaussianState(M, rng.normal(0.0, 1.0, 2 * n), rng.normal(), hbar)


# ---------------------------------------------------------------------------
# Deformation transport
# ---------------------------------------------------------------------------

def test_zero_hamiltonian_is_identity():
    sys = standard_system()
    result = weak_deform(sys, quadratic_hamiltonian(np.zeros((2, 2))), 0.7)
    assert np.allclose(result.window.M, sys.window.M)
    assert np.allclose(result.window.center, sys.window.center)
    assert result.action_phase == 0.0
    assert np.array_equal(result.lattice, sys.points)


def test_time_zero_is_identity():
    sys = standard_system()
    result = weak_deform(sys, builtin_hamiltonian("anharmonic"), 0.0, DeformationConfig(steps=16))
    assert np.allclose(result.window.M, sys.window.M)
    assert np.allclose(result.lattice, sys.points)
    assert result.action_phase == 0.0


def test_harmonic_leaves_window_invariant():
    sys = standard_system()
    result = weak_deform(sys, builtin_hamiltonian("harmonic"), 1.3)
    assert np.allclose(result.window.M, 1j * np.eye(1), atol=1e-12)
    assert np.allclose(result.window.center, 0.0, atol=1e-12)
    assert abs(result.action_phase) < 1e-12
    assert np.allclose(result.lattice, sys.points @ rotation(1.3).T, atol=1e-10)


def test_affine_equals_exact_for_affine_flows():
    sys = standard_system()
    H = quadratic_hamiltonian(np.diag([0.5, 1.0]), m=[0.3, -0.2])
    aff = weak_deform(sys, H, 0.8, DeformationConfig(lattice_mode="affine"))
    non = weak_deform(sys, H, 0.8, DeformationConfig(lattice_mode="exact-nonlinear"))
    assert np.max(np.abs(aff.lattice - non.lattice)) < 1e-8
    assert np.allclose(aff.trajectory_end, non.trajectory_end)


def test_nonlinear_divergence_reported_not_hidden():
    H = builtin_hamiltonian("anharmonic")
    cfg_a = DeformationConfig(lattice_mode="affine", steps=800)
    cfg_n = DeformationConfig(lattice_mode="exact-nonlinear", steps=800)

    def gap(t, radius):
        sys = standard_system(radius=radius)
        aff = weak_deform(sys, H, t, cfg_a)
        non = weak_deform(sys, H, t, cfg_n)
        return np.max(np.abs(aff.lattice - non.lattice))

    # grows with |t| (short-time regime) and with the lattice radius
    assert 0.0 < gap(0.05, 2.0) < gap(0.2, 2.0)
    assert gap(0.2, 2.0) < gap(0.2, 4.0)


def test_auto_method_matches_rk4_for_separable():
    sys = GaborSystem(GaussianState(1j * np.eye(1), [0.3, 0.2], 0.0, HBAR),
                      separable_lattice([1.2], [1.2], 3.0), HBAR)
    H = builtin_hamiltonian("anharmonic")
    auto = weak_deform(sys, H, 0.4, DeformationConfig(steps=32))
    rk4 = weak_deform(sys, H, 0.4, DeformationConfig(steps=32, method="rk4"))
    assert np.array_equal(auto.window.M, rk4.window.M)
    assert np.array_equal(auto.lattice, rk4.lattice)
    assert np.array_equal(auto.linear_flow, rk4.linear_flow)
    assert np.array_equal(auto.trajectory_end, rk4.trajectory_end)
    assert auto.action_phase == rk4.action_phase


def test_exact_nonlinear_moves_the_lattice_in_one_flow_map_call(monkeypatch):
    import gaborflow.deformation as deformation

    calls = []
    flow = deformation.flow_map

    def counting(H, z, *args, **kwargs):
        calls.append(np.shape(z))
        return flow(H, z, *args, **kwargs)

    monkeypatch.setattr(deformation, "flow_map", counting)
    sys = standard_system(radius=3.0)
    H = builtin_hamiltonian("anharmonic")
    result = weak_deform(sys, H, 0.3, DeformationConfig(steps=16, lattice_mode="exact-nonlinear"))
    assert calls == [sys.points.shape]
    # numpy's SIMD power may round the batch's powers unlike libm pow
    per_point = np.array([flow(H, z, 0.0, 0.3, steps=16) for z in sys.points])
    np.testing.assert_allclose(result.lattice, per_point, rtol=1e-13, atol=1e-15)


def test_requires_gaussian_window():
    # a sampled window cannot reach weak_deform: the system it takes refuses
    # to be built around one
    window = sample_state(standard_gaussian(1, HBAR), 10.0, 256)
    with pytest.raises(DimensionMismatch, match="takes a GaussianState window"):
        weak_deform(GaborSystem(window, np.array([[0.0, 0.0]]), HBAR),
                    builtin_hamiltonian("harmonic"), 0.5)


def test_group_compatibility_autonomous_quadratic():
    sys = standard_system(radius=5.0)
    H = quadratic_hamiltonian(np.diag([0.8, 1.2]), m=[0.1, 0.2])
    t1, t2 = 0.4, 0.9
    direct = weak_deform(sys, H, t1 + t2)
    first = weak_deform(sys, H, t1)
    second = weak_deform(deformed_system(sys, first), H, t2)
    assert np.max(np.abs(second.window.M - direct.window.M)) < 1e-6
    assert np.max(np.abs(second.window.center - direct.window.center)) < 1e-6
    assert second.window.phase == pytest.approx(direct.window.phase, abs=1e-6)
    assert np.max(np.abs(second.lattice - direct.lattice)) < 1e-6


# ---------------------------------------------------------------------------
# Invariance identity
# ---------------------------------------------------------------------------

def test_invariance_at_time_zero(rng):
    sys = standard_system()
    psi = random_gaussian(rng)
    t1, t2 = invariance_check(sys, builtin_hamiltonian("anharmonic"), 0.0, [psi],
                              DeformationConfig(steps=16))
    assert t1.sum() == pytest.approx(t2.sum(), abs=1e-12)


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
def test_invariance_anharmonic(rng, t):
    sys = standard_system()
    H = builtin_hamiltonian("anharmonic")
    t1, t2 = invariance_check(sys, H, t, [random_gaussian(rng) for _ in range(4)])
    assert np.max(np.abs(t1.sum(-1) - t2.sum(-1))) < 1e-8


@pytest.mark.parametrize("name", ["harmonic", "free", "shear", "anharmonic", "driven"])
def test_invariance_across_builtin_family(rng, name):
    sys = standard_system()
    H = builtin_hamiltonian(name)
    t1, t2 = invariance_check(sys, H, 0.7, [random_gaussian(rng)],
                              DeformationConfig(steps=2000))
    assert abs(t1.sum() - t2.sum()) < 1e-8


def test_invariance_translation_flow(rng):
    # drift Hamiltonian: trajectory leaves the origin, exercising the full
    # matched-state composition (the shift enters twice)
    sys = standard_system()
    H = quadratic_hamiltonian(np.zeros((2, 2)), m=[0.4, -0.3])
    for t in (0.5, 1.0):
        t1, t2 = invariance_check(sys, H, t, [random_gaussian(rng)])
        assert abs(t1.sum() - t2.sum()) < 1e-9


def test_invariance_off_center_window(rng):
    window = GaussianState([[0.2 + 1.5j]], [0.7, -0.4], 0.1, HBAR)
    sys = GaborSystem(window, separable_lattice([0.9], [0.9], 8.0), HBAR)
    for H in (builtin_hamiltonian("harmonic"), builtin_hamiltonian("anharmonic")):
        t1, t2 = invariance_check(sys, H, 0.6, [random_gaussian(rng)],
                                  DeformationConfig(steps=2000))
        assert abs(t1.sum() - t2.sum()) < 1e-8


def test_invariance_terms_match_after_reindexing(rng):
    sys = standard_system()
    (t1,), (t2,) = invariance_check(sys, builtin_hamiltonian("anharmonic"), 0.5,
                                    [random_gaussian(rng)])
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-9


def test_invariance_quadratic_equals_covariance(rng):
    # for the harmonic flow at time t the deformed system equals the
    # metaplectic image under the rotation, so both checks see the same sums
    sys = standard_system()
    psi = random_gaussian(rng)
    t = 1.0
    s1, s2 = invariance_check(sys, builtin_hamiltonian("harmonic"), t, [psi])
    c1, c2 = covariance_check(sys, rotation(t), [psi])
    assert abs(s1.sum() - s2.sum()) < 1e-9
    assert abs(c1.sum() - c2.sum()) < 1e-9
    assert s1.sum() == pytest.approx(c1.sum(), rel=1e-9)


def test_invariance_rejects_nonlinear_mode(rng):
    sys = standard_system()
    with pytest.raises(InvalidMatrix):
        invariance_check(sys, builtin_hamiltonian("harmonic"), 0.5, [random_gaussian(rng)],
                         DeformationConfig(lattice_mode="exact-nonlinear"))


def test_matched_state_is_identity_at_time_zero(rng):
    sys = standard_system()
    result = weak_deform(sys, builtin_hamiltonian("anharmonic"), 0.0,
                         DeformationConfig(steps=16))
    psi = random_gaussian(rng)
    mapped = matched_test_state(result, psi)
    assert np.allclose(mapped.center, psi.center, atol=1e-12)
    assert np.allclose(mapped.M, psi.M, atol=1e-12)
    assert mapped.phase == pytest.approx(psi.phase, abs=1e-12)


# ---------------------------------------------------------------------------
# Corollary for general Siegel windows
# ---------------------------------------------------------------------------

def test_corollary_reduces_to_invariance(rng):
    sys = standard_system()
    psi = random_gaussian(rng)
    H = builtin_hamiltonian("anharmonic")
    s1, s2 = gaussian_corollary_check(1j * np.eye(1), sys, H, 0.5, [psi])
    r1, r2 = invariance_check(sys, H, 0.5, [psi])
    assert s1.sum() == pytest.approx(r1.sum(), rel=1e-12)
    assert abs(s1.sum() - s2.sum()) < 1e-8


def test_corollary_skew_window(rng):
    sys = standard_system()
    t1, t2 = gaussian_corollary_check([[0.5 + 2.0j]], sys, builtin_hamiltonian("anharmonic"),
                                      0.3, [random_gaussian(rng)])
    assert abs(t1.sum() - t2.sum()) < 1e-8


def test_corollary_two_dimensional(rng):
    window = standard_gaussian(2, HBAR)
    sys = GaborSystem(window, separable_lattice([0.8, 0.8], [0.8, 0.8], 2.5), HBAR)
    M = np.diag([0.5j, 3.0j]) + np.array([[0.0, 0.1], [0.1, 0.0]])
    H = quadratic_hamiltonian(np.eye(4))
    t1, t2 = gaussian_corollary_check(M, sys, H, 0.6, [random_gaussian(rng, n=2)])
    assert abs(t1.sum() - t2.sum()) < 1e-8


# ---------------------------------------------------------------------------
# Test families: every matched-pair check takes a sequence of test states
# ---------------------------------------------------------------------------

CHECKS = ("covariance", "translation", "rescaling", "invariance", "corollary")


def matched_pair_check(rng, check, n):
    """One of the five matched-pair checks on an n-dimensional system, as a
    function of the test family, and a three-state family for it whose middle
    state is a two-component mixture."""
    sys = GaborSystem(standard_gaussian(n, HBAR),
                      separable_lattice([0.8] * n, [0.8] * n, 6.0 if n == 1 else 2.5), HBAR)
    H = builtin_hamiltonian("anharmonic") if n == 1 else builtin_hamiltonian("harmonic", n=2)
    S = random_symplectic(rng, n=n)
    z0, z1 = rng.normal(size=2 * n), rng.normal(size=2 * n)
    M = np.diag([0.5 + 2.0j, 3.0j][:n]) + 0.1 * (np.ones((n, n)) - np.eye(n))
    hbar = 0.7 if check == "rescaling" else HBAR
    run = {
        "covariance": lambda psis: covariance_check(sys, S, psis),
        "translation": lambda psis: translation_check(sys, z0, z1, psis),
        "rescaling": lambda psis: rescaling_check(sys, hbar, psis),
        "invariance": lambda psis: invariance_check(sys, H, 0.5, psis),
        "corollary": lambda psis: gaussian_corollary_check(M, sys, H, 0.5, psis),
    }[check]
    mixture = GaussianMixture([0.6 + 0.2j, -0.5j],
                              (random_gaussian(rng, n, hbar), random_gaussian(rng, n, hbar)))
    return run, [random_gaussian(rng, n, hbar), mixture, random_gaussian(rng, n, hbar)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("check", CHECKS)
def test_check_of_a_family_equals_the_checks_of_its_states(rng, check, n):
    run, family = matched_pair_check(rng, check, n)
    t1, t2 = run(family)
    assert t1.shape == t2.shape and t1.shape[0] == 3
    for j, psi in enumerate(family):
        (s1,), (s2,) = run([psi])
        assert np.array_equal(t1[j], s1) and np.array_equal(t2[j], s2)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("check", CHECKS)
def test_every_row_of_a_check_satisfies_its_identity(rng, check, n):
    # the mixture row holds only if the metaplectic transport keeps the
    # relative phases of the mixture's components
    run, family = matched_pair_check(rng, check, n)
    t1, t2 = run(family)
    assert np.max(np.abs(t1 - t2)) <= 1e-12


def coupled_gaussian(rng, n):
    X, Y = rng.normal(0.0, 0.5, (n, n)), rng.normal(0.0, 0.5, (n, n))
    M = 0.5 * (X + X.T) + 1j * (Y @ Y.T + 0.5 * np.eye(n))
    return GaussianState(M, rng.normal(0.0, 1.0, 2 * n), rng.normal(), HBAR)


def test_covariance_of_mixtures_on_random_sp4():
    rng = np.random.default_rng(1)
    sys = GaborSystem(standard_gaussian(2, HBAR), separable_lattice([0.8] * 2, [0.8] * 2, 2.5),
                      HBAR)
    for _ in range(40):
        S = random_symplectic(rng, n=2, factors=4)
        mix = GaussianMixture(rng.normal(size=3) + 1j * rng.normal(size=3),
                              tuple(coupled_gaussian(rng, 2) for _ in range(3)))
        t1, t2 = covariance_check(sys, S, [mix])
        assert np.max(np.abs(t1 - t2)) <= 1e-12


@pytest.mark.parametrize("check", CHECKS)
def test_check_rejects_an_empty_family(rng, check):
    run, _ = matched_pair_check(rng, check, 1)
    with pytest.raises(InvalidMatrix, match="test family is empty"):
        run([])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_zero_hamiltonian_constant():
    sys = standard_system()
    H = quadratic_hamiltonian(np.zeros((2, 2)))
    reports = deform_sweep(sys, H, [0.0, 0.5, 1.0])
    a = {rep.a_est for _, rep in reports}
    b = {rep.b_est for _, rep in reports}
    assert len(a) == 1 and len(b) == 1


def test_sweep_harmonic_bounds_stable():
    sys = standard_system()
    reports = deform_sweep(sys, builtin_hamiltonian("harmonic"),
                           np.linspace(0.0, 2.0 * np.pi, 5))
    assert all(rep == frame_bounds(sys) for _, rep in reports)


def test_sweep_affine_rows_are_the_bounds_of_the_source(monkeypatch):
    import gaborflow.deformation as deformation

    # by symplectic covariance each affine image is the source moved by a
    # unitary, whatever the lattice, the window and its centre
    window = GaussianState(np.array([[0.3 + 1.4j]]), np.array([0.5, -0.3]), 0.0, HBAR)
    sys = GaborSystem(window, separable_lattice([0.8], [0.95], 6.0), HBAR)
    source = frame_bounds(sys)
    bounds = counting_calls(monkeypatch, "frame_bounds", deformation)
    deforms = counting_calls(monkeypatch, "weak_deform", deformation)
    reports = deform_sweep(sys, builtin_hamiltonian("anharmonic"), [0.0, 0.25, 0.5])
    assert [t for t, _ in reports] == [0.0, 0.25, 0.5]
    for _, rep in reports:
        assert dataclasses.astuple(rep) == dataclasses.astuple(source)
    assert source.method == "dual" and source.is_frame
    assert len(bounds) == 1 and len(deforms) == 3


def test_sweep_exact_nonlinear_rows_bound_each_image(monkeypatch):
    import gaborflow.deformation as deformation
    import gaborflow.frames as frames

    monkeypatch.setattr(frames, "FAMILY_SIZE", 8)
    sys = standard_system(radius=4.0)
    H = builtin_hamiltonian("anharmonic")
    cfg = DeformationConfig(lattice_mode="exact-nonlinear")
    bounds = counting_calls(monkeypatch, "frame_bounds", deformation)
    reports = deform_sweep(sys, H, [0.1, 0.2], cfg)
    assert len(bounds) == 2 and all(rep.method == "eig" for _, rep in reports)
    image = deformed_system(sys, weak_deform(sys, H, 0.2, cfg))
    assert reports[1][1] == frame_bounds(image)


def test_sweep_shear_family_keeps_frame():
    sys = standard_system()
    reports = deform_sweep(sys, builtin_hamiltonian("shear"), np.linspace(0.0, 1.0, 5))
    assert all(rep.is_frame for _, rep in reports)


def test_sweep_requires_monotone_grid():
    sys = standard_system()
    with pytest.raises(InvalidMatrix):
        deform_sweep(sys, builtin_hamiltonian("harmonic"), [0.0, 0.5, 0.4])
