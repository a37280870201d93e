import numpy as np
import pytest

from gaborflow.errors import DimensionMismatch, InvalidMatrix
from gaborflow.frames import (
    EstimationConfig,
    GaborSystem,
    build_test_family,
    covariance_check,
    frame_bounds,
    frame_sum,
    frame_terms,
    gaussian_frame_criterion,
    hermite_functions,
    rescaling_check,
    residual_tail_estimate,
    translation_check,
    _family_gram,
    _frame_vectors,
)
from gaborflow.gaussians import (
    GaussianMixture,
    GaussianState,
    heisenberg_weyl_apply,
    inner_product,
    mixture_norm,
    sample_state,
    sampled_norm,
    standard_gaussian,
)
from gaborflow.symplectic import (
    lattice_points,
    make_generator,
    rotation,
    separable_lattice,
    standard_j,
)

from conftest import HBAR, counting_calls, random_symplectic

# goldens computed at first build by dense-eigenvalue brute force on the
# quadrature grid (cross-checked below at coarser tolerance)
GOLDEN_A = 0.6917549384680945
GOLDEN_B = 1.6980420678954562


def standard_system(side=0.9, radius=8.0):
    window = standard_gaussian(1, HBAR)
    return GaborSystem(window, separable_lattice([side], [side], radius), HBAR)


def shifted_window_samples(sys, L, N):
    """T(z) phi on the grid of sample_state, one row per lattice point z."""
    return np.array([sample_state(heisenberg_weyl_apply(z, sys.window), L, N).values
                     for z in sys.points])


def random_gaussian(rng, n=1, hbar=HBAR):
    M = np.diag([complex(rng.normal(0.0, 0.4), np.exp(rng.normal(0.0, 0.4))) for _ in range(n)])
    return GaussianState(M, rng.normal(0.0, 1.0, 2 * n), rng.normal(), hbar)


# ---------------------------------------------------------------------------
# Criterion
# ---------------------------------------------------------------------------

def test_criterion_below_threshold():
    assert gaussian_frame_criterion([0.5], [0.5], HBAR)[0]


def test_criterion_strict_at_equality():
    side = np.sqrt(2.0 * np.pi * HBAR)
    assert not gaussian_frame_criterion([side], [side], HBAR)[0]


def test_criterion_per_axis():
    out = gaussian_frame_criterion([0.5, 1.5], [1.0, 1.0], HBAR)
    assert list(out) == [True, False]


def test_criterion_rejects_nonpositive():
    with pytest.raises(InvalidMatrix):
        gaussian_frame_criterion([0.0], [1.0], HBAR)


# ---------------------------------------------------------------------------
# Frame sums
# ---------------------------------------------------------------------------

def test_frame_sum_empty_lattice():
    g = standard_gaussian(1, HBAR)
    sys = GaborSystem(g, np.zeros((0, 2)), HBAR)
    assert frame_sum(sys, g) == 0.0


def test_frame_sum_single_point():
    g = standard_gaussian(1, HBAR)
    sys = GaborSystem(g, np.array([[0.0, 0.0]]), HBAR)
    assert frame_sum(sys, g) == pytest.approx(1.0, abs=1e-12)


def test_frame_sum_analytic_vs_quadrature(rng):
    window = standard_gaussian(1, HBAR)
    lat = separable_lattice([1.0], [1.0], 6.0)
    sys = GaborSystem(window, lat, HBAR)
    psi = random_gaussian(rng)
    analytic = frame_sum(sys, psi)
    quad = frame_sum(sys, sample_state(psi, 10.0, 1024))
    assert analytic == pytest.approx(quad, abs=1e-6)


def test_frame_sum_order_invariance(rng):
    window = standard_gaussian(1, HBAR)
    pts = lattice_points(separable_lattice([0.9], [0.9], 5.0))
    psi = random_gaussian(rng)
    direct = frame_sum(GaborSystem(window, pts, HBAR), psi)
    shuffled = frame_sum(GaborSystem(window, pts[rng.permutation(len(pts))], HBAR), psi)
    assert direct == shuffled  # exact: canonical summation order


def test_frame_sum_monotone_in_radius(rng):
    window = standard_gaussian(1, HBAR)
    psi = random_gaussian(rng)
    values = [
        frame_sum(GaborSystem(window, separable_lattice([0.9], [0.9], R), HBAR), psi)
        for R in (2.0, 4.0, 6.0, 8.0)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_frame_sum_sampled_window_path(rng):
    # sampled window with lattice spacings on the grid: shifts are exact
    window = sample_state(standard_gaussian(1, HBAR), 10.0, 512)
    pts = lattice_points(separable_lattice([1.25], [1.25], 3.0))
    sys = GaborSystem(window, pts, HBAR)
    psi = random_gaussian(rng)
    ref = frame_sum(GaborSystem(standard_gaussian(1, HBAR), pts, HBAR), psi)
    assert frame_sum(sys, psi) == pytest.approx(ref, abs=1e-6)


def test_frame_sum_sampled_window_off_grid_is_estimate(rng):
    # off-grid spacings snap to the nearest grid multiple: coarse estimate
    window = sample_state(standard_gaussian(1, HBAR), 10.0, 512)
    pts = lattice_points(separable_lattice([1.0], [1.0], 3.0))
    sys = GaborSystem(window, pts, HBAR)
    psi = random_gaussian(rng)
    ref = frame_sum(GaborSystem(standard_gaussian(1, HBAR), pts, HBAR), psi)
    assert frame_sum(sys, psi) == pytest.approx(ref, rel=0.05)


def test_frame_sum_mixture(rng):
    window = standard_gaussian(1, HBAR)
    pts = lattice_points(separable_lattice([1.0], [1.0], 4.0))
    sys = GaborSystem(window, pts, HBAR)
    comps = (random_gaussian(rng), random_gaussian(rng))
    mix = GaussianMixture([0.8, 0.6j], comps)
    direct = frame_sum(sys, mix)
    quad = frame_sum(sys, sample_state(mix, 10.0, 1024))
    assert direct == pytest.approx(quad, abs=1e-6)


def test_frame_terms_rejects_unsupported_test_states():
    window = standard_gaussian(1, HBAR)
    sys = GaborSystem(window, lattice_points(separable_lattice([1.0], [1.0], 2.0)), HBAR)
    sampled = sample_state(window, 10.0, 256)
    with pytest.raises(DimensionMismatch):
        frame_terms(sys, "psi")
    with pytest.raises(DimensionMismatch):
        _frame_vectors(sys, [sampled, window])
    with pytest.raises(DimensionMismatch):
        frame_terms(GaborSystem(sampled, sys.points, HBAR), sample_state(window, 10.0, 128))


def test_state_norm_types(rng):
    mix = GaussianMixture([2.0], (standard_gaussian(1, HBAR),))
    assert mixture_norm(mix) == pytest.approx(2.0, abs=1e-12)
    assert sampled_norm(sample_state(mix, 10.0, 1024)) == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Frame bounds
# ---------------------------------------------------------------------------

def test_lattice_enumerated_once_per_system(monkeypatch):
    import gaborflow.frames as frames

    calls = []

    def counting(lat):
        calls.append(lat)
        return lattice_points(lat)

    monkeypatch.setattr(frames, "lattice_points", counting)
    frame_bounds(standard_system(radius=4.0), EstimationConfig(family_size=8))
    assert len(calls) == 1


def test_frame_bounds_goldens():
    report = frame_bounds(standard_system(), EstimationConfig())
    assert report.a_est == pytest.approx(GOLDEN_A, rel=1e-6)
    assert report.b_est == pytest.approx(GOLDEN_B, rel=1e-6)
    assert report.is_frame
    assert report.ratio == pytest.approx(GOLDEN_B / GOLDEN_A, rel=1e-6)


def test_upper_bound_against_dense_oracle():
    # brute force: largest eigenvalue of the grid-discretized frame operator
    sys = standard_system()
    L, N = 10.0, 1024
    step = 2 * L / N
    shifted = shifted_window_samples(sys, L, N)
    F = (shifted.conj().T @ shifted) * step**2
    dense_b = float(np.linalg.eigvalsh(F)[-1] / step)
    report = frame_bounds(sys, EstimationConfig())
    assert report.b_est == pytest.approx(dense_b, rel=1e-8)


def test_lower_bound_against_dense_mode_oracle():
    # brute force: smallest eigenvalue of the frame form compressed onto the
    # full oscillator-mode space that fits the central region
    sys = standard_system()
    L, N = 10.0, 1024
    step = 2 * L / N
    axis = -L + step * np.arange(N)
    modes = hermite_functions(axis, HBAR, 78)
    shifted = shifted_window_samples(sys, L, N)
    m = (modes @ shifted.conj().T) * step
    A = (m @ m.conj().T).real
    dense_a = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
    report = frame_bounds(sys, EstimationConfig())
    assert report.a_est <= dense_a + 1e-9
    assert report.a_est == pytest.approx(dense_a, rel=1e-3)


def test_verdicts_match_criterion_across_densities():
    cfg = EstimationConfig(grid_extent=14.0, grid_points=2048)
    for ab in (0.6, 0.8, 0.95, 1.05, 1.3):
        side = float(np.sqrt(ab))
        sys = GaborSystem(standard_gaussian(1, HBAR),
                          separable_lattice([side], [side], 11.0), HBAR)
        report = frame_bounds(sys, cfg)
        expected = bool(gaussian_frame_criterion([side], [side], HBAR)[0])
        assert report.is_frame == expected, f"verdict mismatch at alpha*beta={ab}"


def test_family_growth_never_raises_lower_bound():
    sys = standard_system()
    small = frame_bounds(sys, EstimationConfig(family_size=24))
    large = frame_bounds(sys, EstimationConfig(family_size=64))
    assert large.a_est <= small.a_est + 1e-12


def test_radius_growth_never_lowers_upper_bound():
    b_small = frame_bounds(standard_system(radius=6.0), EstimationConfig()).b_est
    b_large = frame_bounds(standard_system(radius=8.0), EstimationConfig()).b_est
    assert b_large >= b_small - 1e-12


def test_family_gram_n2_matches_elementwise_inner_products():
    family = build_test_family(2, HBAR, EstimationConfig(family_size=12))
    ref = np.array([[inner_product(a, b) for b in family] for a in family])
    assert np.max(np.abs(_family_gram(family) - ref)) <= 1e-12


def test_gaussian_family_makes_one_kernel_call(monkeypatch):
    calls = counting_calls(monkeypatch, "_overlap_core")
    family = build_test_family(2, HBAR, EstimationConfig(family_size=12))
    sys = GaborSystem(standard_gaussian(2, HBAR), separable_lattice([0.9] * 2, [0.9] * 2, 2.0),
                      HBAR)
    for run in (lambda: _family_gram(family), lambda: _frame_vectors(sys, family)):
        calls.clear()
        run()
        assert len(calls) == 1


def test_residual_estimate_is_small_at_defaults():
    assert residual_tail_estimate(standard_system()) < 1e-10


def test_report_fields_consistent():
    report = frame_bounds(standard_system(), EstimationConfig())
    assert report.a_est <= report.b_est
    assert report.truncation == (8.0, 10.0, 1024)


def test_family_prefix_stability():
    fam_small = build_test_family(1, HBAR, EstimationConfig(family_size=10))
    fam_large = build_test_family(1, HBAR, EstimationConfig(family_size=20))
    for a, b in zip(fam_small, fam_large):
        assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# Matched-pair identities
# ---------------------------------------------------------------------------

def test_covariance_identity_at_identity(rng):
    sys = standard_system()
    s1, s2 = covariance_check(sys, np.eye(2), random_gaussian(rng))
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_covariance_identity_generators(rng):
    sys = standard_system()
    mats = [standard_j(1), rotation(0.7), make_generator("shear", P=[[0.8]]),
            make_generator("dilation", L=[[1.3]])]
    for S in mats:
        s1, s2 = covariance_check(sys, S, random_gaussian(rng))
        assert abs(s1 - s2) < 1e-9


def test_covariance_term_multisets(rng):
    sys = standard_system()
    t1, t2 = covariance_check(sys, random_symplectic(rng), random_gaussian(rng),
                              return_terms=True)
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-9


def test_covariance_requires_gaussian_window():
    window = sample_state(standard_gaussian(1, HBAR), 10.0, 256)
    sys = GaborSystem(window, np.array([[0.0, 0.0]]), HBAR)
    with pytest.raises(InvalidMatrix):
        covariance_check(sys, np.eye(2), standard_gaussian(1, HBAR))


def test_translation_identity_cases(rng):
    sys = standard_system()
    cases = [
        (np.zeros(2), np.zeros(2)),
        (np.array([1.0, 0.0]), np.zeros(2)),
        (np.zeros(2), np.array([0.3, -0.2])),
        (rng.normal(size=2), rng.normal(size=2)),
    ]
    for z0, z1 in cases:
        s1, s2 = translation_check(sys, z0, z1, random_gaussian(rng))
        assert abs(s1 - s2) < 1e-9


def test_translation_term_multisets(rng):
    sys = standard_system()
    t1, t2 = translation_check(sys, rng.normal(size=2), rng.normal(size=2),
                               random_gaussian(rng), return_terms=True)
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-9


def test_rescaling_identity_trivial(rng):
    sys = standard_system(side=0.5)
    psi = random_gaussian(rng, hbar=HBAR)
    s1, s2 = rescaling_check(sys, HBAR, psi)
    assert s1 == pytest.approx(s2, abs=1e-12)


@pytest.mark.parametrize("hbar_new", [1.0, 0.05])
def test_rescaling_identity_nontrivial(rng, hbar_new):
    sys = standard_system(side=0.5)
    psi = random_gaussian(rng, hbar=hbar_new)
    s1, s2 = rescaling_check(sys, hbar_new, psi)
    assert abs(s1 - s2) < 1e-9


def test_rescaling_term_multisets(rng):
    sys = standard_system(side=0.5)
    psi = random_gaussian(rng, hbar=0.7)
    t1, t2 = rescaling_check(sys, 0.7, psi, return_terms=True)
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-9


def test_system_validates_hbar_and_dimension():
    g = standard_gaussian(1, HBAR)
    with pytest.raises(DimensionMismatch):
        GaborSystem(g, separable_lattice([1.0], [1.0], 2.0), 1.0)
    with pytest.raises(DimensionMismatch):
        GaborSystem(g, separable_lattice([1.0, 1.0], [1.0, 1.0], 2.0), HBAR)


def test_frame_bounds_unresolved_grid_rejected():
    with pytest.raises(Exception) as err:
        frame_bounds(standard_system(), EstimationConfig(grid_points=64, mode_degree=200))
    assert "resolve" in str(err.value)


def test_frame_bounds_empty_family_rejected():
    with pytest.raises(InvalidMatrix):
        frame_bounds(standard_system(), EstimationConfig(family_size=0))
