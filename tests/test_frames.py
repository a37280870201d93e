import numpy as np
import pytest

from gaborflow import errors
from gaborflow.errors import DimensionMismatch, InvalidMatrix, ResourceLimit
from gaborflow.frames import (
    GaborSystem,
    build_test_family,
    covariance_check,
    deficiency_witnesses,
    frame_bounds,
    frame_sum,
    frame_terms,
    gaussian_frame_criterion,
    rescaling_check,
    residual_tail_estimate,
    translation_check,
    _eigenvalue_range,
    _family_gram,
    _frame_bounds_bytes,
    _frame_vectors,
    _gram_bytes,
    _gram_matrix,
    _sector_blocks,
    _symmetry,
    _upper_gamma_q,
)
from gaborflow.gaussians import (
    GaussianMixture,
    GaussianState,
    HermiteState,
    heisenberg_weyl_apply,
    inner_product,
    metaplectic_apply,
    mixture_norm,
    shifted_gram,
    standard_gaussian,
)
from gaborflow.symplectic import (
    Lattice,
    adjoint_lattice,
    lattice_points,
    make_generator,
    rotation,
    separable_lattice,
    standard_j,
)

from conftest import HBAR, counting_calls, random_symplectic
from oracles import exact_frame_bounds, hermite_functions, sample_state, sampled_norm

# goldens computed at first build by dense-eigenvalue brute force on the
# quadrature grid (cross-checked below at coarser tolerance)
GOLDEN_A = 0.6917549384680945
GOLDEN_B = 1.6980420678954562


def standard_system(side=0.9, radius=8.0):
    window = standard_gaussian(1, HBAR)
    return GaborSystem(window, separable_lattice([side], [side], radius), HBAR)


def standard_points(side=0.9, radius=8.0):
    """standard_system's points as an explicit array, which frame_bounds
    bounds through the test family, not through the adjoint lattice."""
    window = standard_gaussian(1, HBAR)
    return GaborSystem(window, lattice_points(separable_lattice([side], [side], radius)), HBAR)


def shifted_window_samples(sys, L, N):
    """T(z) phi on the grid of sample_state, one row per lattice point z."""
    return np.array([sample_state(heisenberg_weyl_apply(z, sys.window), L, N).values
                     for z in sys.points])


def quadrature_frame_sum(sys, psi, L=10.0, N=1024):
    """Frame sum of psi by rectangle-rule quadrature of every shift overlap."""
    m = shifted_window_samples(sys, L, N).conj() @ sample_state(psi, L, N).values * (2 * L / N)
    return float(np.sum(np.abs(m) ** 2))


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
    quad = quadrature_frame_sum(sys, psi)
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


def test_frame_sum_mixture(rng):
    window = standard_gaussian(1, HBAR)
    pts = lattice_points(separable_lattice([1.0], [1.0], 4.0))
    sys = GaborSystem(window, pts, HBAR)
    comps = (random_gaussian(rng), random_gaussian(rng))
    mix = GaussianMixture([0.8, 0.6j], comps)
    direct = frame_sum(sys, mix)
    quad = quadrature_frame_sum(sys, mix)
    assert direct == pytest.approx(quad, abs=1e-6)


def test_frame_terms_rejects_unsupported_test_states():
    window = standard_gaussian(1, HBAR)
    sys = GaborSystem(window, lattice_points(separable_lattice([1.0], [1.0], 2.0)), HBAR)
    sampled = sample_state(window, 10.0, 256)
    with pytest.raises(DimensionMismatch):
        frame_terms(sys, ["psi"])
    # a Gaussian window takes no sampled test states, in one dimension or two
    with pytest.raises(DimensionMismatch, match="Gaussian, mixture or Hermite"):
        _frame_vectors(sys, [sampled, window])
    sys2 = GaborSystem(standard_gaussian(2, HBAR), separable_lattice([0.9] * 2, [0.9] * 2, 2.0),
                       HBAR)
    with pytest.raises(DimensionMismatch, match="Gaussian, mixture or Hermite"):
        frame_terms(sys2, [sampled])
    # and a sampled window makes no system
    with pytest.raises(DimensionMismatch, match="takes a GaussianState window"):
        GaborSystem(sampled, sys.points, HBAR)


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
    sys = standard_system(radius=4.0)
    frame_bounds(sys)
    # the adjoint lattice only: the report never reads the system's points
    dual = adjoint_lattice(sys.lattice, HBAR)
    assert len(calls) == 1 and calls[0] is not sys.lattice
    assert np.array_equal(calls[0].generator, dual.generator)
    assert (calls[0].radius, calls[0].shift.tolist()) == (dual.radius, [0.0, 0.0])
    # the system's own lattice on the first read of its points, and only then
    for _ in range(2):
        sys.points
    assert len(calls) == 2 and calls[1] is sys.lattice


@pytest.mark.parametrize("side", [0.9, 1.1])
def test_lattice_bounds_enumerate_one_unshifted_lattice(monkeypatch, side):
    # Lambda^o below the critical density, Lambda without its shift at or
    # past it; never the system's own lattice
    import gaborflow.frames as frames

    calls = []
    monkeypatch.setattr(frames, "lattice_points", lambda lat: calls.append(lat) or
                        lattice_points(lat))
    sys = GaborSystem(standard_gaussian(1, HBAR),
                      Lattice(np.diag([side, side]), 6.0, shift=[0.3, -0.45]), HBAR)
    frame_bounds(sys)
    gram = adjoint_lattice(sys.lattice, HBAR) if side < 1 else sys.lattice
    (lat,) = calls
    assert lat is not sys.lattice
    assert np.array_equal(lat.generator, gram.generator)
    assert (lat.radius, lat.shift.tolist()) == (6.0, [0.0, 0.0])


@pytest.mark.parametrize("alpha, beta", [(1.1, 1.1), (1.0, 2.0)], ids=["1.21", "2"])
def test_lattice_reports_do_not_depend_on_the_shift(alpha, beta):
    # past the critical density b_est comes from the Gram of the lattice
    # without its shift, so the shift cannot move even its last bit
    window = standard_gaussian(1, HBAR)
    plain = Lattice(np.diag([alpha, beta]), 16.0)
    shifted = Lattice(plain.generator, 16.0, shift=[0.3, -0.45])
    assert frame_bounds(GaborSystem(window, shifted, HBAR)) == frame_bounds(
        GaborSystem(window, plain, HBAR))


# a standard window on the points of a shifted lattice, given as an array (a
# Lattice would take its smaller adjoint): no symmetry, so one Gram block of
# side 933, large enough for the OpenBLAS thread split to move b_est
SHIFTED_933 = Lattice(np.diag([0.7, 0.7]), 12.0, shift=[0.1, 0.2])


def test_frame_bounds_runs_every_solve_on_one_blas_thread(monkeypatch):
    import gaborflow.frames as frames

    limits = []
    real = frames.blas_threads

    def recording(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(frames, "blas_threads", recording)
    monkeypatch.setattr(frames, "FAMILY_SIZE", 8)
    small = standard_points(radius=4.0)
    large = GaborSystem(standard_gaussian(1, HBAR), lattice_points(SHIFTED_933), HBAR)
    assert _symmetry(small).sizes[0] == (len(small.points) + 3) // 4
    assert _symmetry(large).sizes == (933,)
    for sys_ in (small, large, standard_system(radius=4.0)):
        frame_bounds(sys_)
    assert limits == [1, 1, 1]


def test_frame_bounds_do_not_depend_on_the_blas_thread_count():
    from gaborflow._blas import _openblas

    funcs = _openblas()
    if funcs is None:
        pytest.skip("numpy is not linked to OpenBLAS")
    set_threads, get_threads = funcs
    sys_ = GaborSystem(standard_gaussian(1, HBAR), lattice_points(SHIFTED_933), HBAR)
    before = get_threads()
    b_est = []
    try:
        for threads in (2, 1):
            set_threads(threads)
            b_est.append(frame_bounds(sys_).b_est)
    finally:
        set_threads(before)
    assert b_est[0] == b_est[1]


def test_blas_threads_sets_and_restores_the_openblas_count():
    from gaborflow._blas import _openblas, blas_threads

    funcs = _openblas()
    if funcs is None:
        pytest.skip("numpy is not linked to OpenBLAS")
    get_threads = funcs[1]
    before = get_threads()
    with blas_threads(1):
        assert get_threads() == 1
        # the limit is a cap: a larger one inside leaves the count as it is
        with blas_threads(2):
            assert get_threads() == 1
    assert get_threads() == before
    with blas_threads(before + 1):
        assert get_threads() == before


def test_frame_bounds_goldens():
    report = frame_bounds(standard_points())
    assert report.a_est == pytest.approx(GOLDEN_A, rel=1e-6)
    assert report.b_est == pytest.approx(GOLDEN_B, rel=1e-6)
    assert report.is_frame
    assert report.ratio == pytest.approx(GOLDEN_B / GOLDEN_A, rel=1e-6)


def test_upper_bound_against_dense_oracle():
    # brute force: largest eigenvalue of the grid-discretized frame operator
    sys = standard_points()
    L, N = 10.0, 1024
    step = 2 * L / N
    shifted = shifted_window_samples(sys, L, N)
    F = (shifted.conj().T @ shifted) * step**2
    dense_b = float(np.linalg.eigvalsh(F)[-1] / step)
    report = frame_bounds(sys)
    assert report.b_est == pytest.approx(dense_b, rel=1e-8)


def test_lower_bound_against_dense_mode_oracle():
    # brute force: smallest eigenvalue of the frame form compressed onto the
    # full oscillator-mode space that fits the central region
    sys = standard_points()
    L, N = 10.0, 1024
    step = 2 * L / N
    axis = -L + step * np.arange(N)
    modes = hermite_functions(axis, HBAR, 78)
    shifted = shifted_window_samples(sys, L, N)
    m = (modes @ shifted.conj().T) * step
    A = (m @ m.conj().T).real
    dense_a = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
    report = frame_bounds(sys)
    assert report.a_est <= dense_a + 1e-9
    assert report.a_est == pytest.approx(dense_a, rel=1e-3)


def test_verdicts_match_criterion_across_densities(monkeypatch):
    # each lattice through its adjoint lattice, and its points through the
    # test family, whose central region must reach further than the default
    # for the verdict at alpha*beta = 1.05 and R = 11
    import gaborflow.frames as frames

    monkeypatch.setattr(frames, "FAMILY_EXTENT", 14.0)
    for ab in (0.6, 0.8, 0.95, 1.05, 1.3):
        side = float(np.sqrt(ab))
        lattice = separable_lattice([side], [side], 11.0)
        expected = bool(gaussian_frame_criterion([side], [side], HBAR)[0])
        for points in (lattice, lattice_points(lattice)):
            report = frame_bounds(GaborSystem(standard_gaussian(1, HBAR), points, HBAR))
            assert report.is_frame == expected, f"verdict mismatch at alpha*beta={ab}"


def test_family_growth_never_raises_lower_bound(monkeypatch):
    import gaborflow.frames as frames

    sys = standard_points()
    monkeypatch.setattr(frames, "FAMILY_SIZE", 24)
    small = frame_bounds(sys)
    monkeypatch.setattr(frames, "FAMILY_SIZE", 64)
    large = frame_bounds(sys)
    assert large.a_est <= small.a_est + 1e-12


def test_radius_growth_never_lowers_upper_bound():
    b_small = frame_bounds(standard_system(radius=6.0)).b_est
    b_large = frame_bounds(standard_system(radius=8.0)).b_est
    assert b_large >= b_small - 1e-12


def test_family_gram_n2_matches_elementwise_inner_products():
    family = build_test_family(2, HBAR, 12)
    ref = np.array([[inner_product(a, b) for b in family] for a in family])
    assert np.max(np.abs(_family_gram(family) - ref)) <= 1e-12


def test_gaussian_family_makes_one_kernel_call(monkeypatch):
    calls = counting_calls(monkeypatch, "_overlap_core")
    family = build_test_family(2, HBAR, 12)
    sys = GaborSystem(standard_gaussian(2, HBAR), separable_lattice([0.9] * 2, [0.9] * 2, 2.0),
                      HBAR)
    for run in (lambda: _family_gram(family), lambda: _frame_vectors(sys, family)):
        calls.clear()
        run()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Symmetry sectors of the Gram, shared window samples, byte budget
# ---------------------------------------------------------------------------

SKEW_WINDOW = GaussianState(np.array([[0.3 + 1.2j]]), [1.0, 0.5], 0.7, HBAR)
SHEARED = make_generator("shear", P=[[0.7]]) @ np.diag([0.8, 1.1])
COUPLED = (make_generator("shear", n=2, P=[[0.4, 0.3], [0.3, -0.2]])
           @ make_generator("dilation", L=[[1.2, 0.3], [0.0, 0.9]]) * 0.9)
PAIRS = np.array([[0.4, -1.1], [1.3, 0.2], [-0.7, 0.9], [2.0, 1.5]])
CENTRED_SYSTEMS = {
    "separable": (standard_gaussian(1, HBAR), separable_lattice([0.9], [0.9], 6.0)),
    "sheared": (standard_gaussian(1, HBAR), Lattice(SHEARED, 6.0)),
    "sheared-skew-window": (SKEW_WINDOW, Lattice(SHEARED, 6.0)),
    "separable-skew-window": (SKEW_WINDOW, separable_lattice([0.9], [0.9], 6.0)),
    "n2-coupled": (GaussianState(np.array([[0.2 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.3 + 0.8j]]),
                                 [0.3, -0.2, 0.5, 0.1], -0.4, HBAR),
                   Lattice(COUPLED, 2.4)),
    "even-no-origin": (SKEW_WINDOW, np.concatenate([PAIRS, -PAIRS[::-1]])),
    "one-point": (SKEW_WINDOW, np.zeros((1, 2))),
    "three-points": (SKEW_WINDOW, np.array([[-0.6, 0.4], [0.0, 0.0], [0.6, -0.4]])),
}


def check_sector_solve(window, lattice, m):
    """The symmetry found, the rows built, the complex blocks, and their top
    eigenvalue and whole spectrum against the full complex solve."""
    sys = GaborSystem(window, lattice, HBAR)
    N = len(sys.points)
    sym = _symmetry(sys)
    assert sym.turns.shape[0] == m
    rows = _gram_matrix(sys, sym)
    assert rows.shape == ((N + m - 1) // m, N)
    blocks = list(_sector_blocks(rows, sym))
    assert len(blocks) == min(m, N) and all(np.iscomplexobj(b) for b in blocks)
    full = np.linalg.eigvalsh(shifted_gram(window, sys.points))
    least, largest = _eigenvalue_range(rows, sym)
    assert largest == pytest.approx(full[-1], rel=1e-13)
    assert abs(least - full[0]) < 1e-13 * full[-1]
    spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    assert np.max(np.abs(spectrum - full)) < 1e-13 * full[-1]


@pytest.mark.parametrize("name", sorted(CENTRED_SYSTEMS))
def test_parity_split_matches_the_full_solve(name):
    # the standard window on the square lattice also takes the quarter turn;
    # the other systems take the parity only
    window, lattice = CENTRED_SYSTEMS[name]
    check_sector_solve(window, lattice, 4 if name == "separable" else 2)


SQUARE = separable_lattice([0.9], [0.9], 6.0)


def without_origin(lattice):
    pts = lattice_points(lattice)
    return pts[np.any(pts != 0.0, axis=1)]


# name: (window, points, order m of the unitary symmetry); the shifted
# lattice without one is test_parity_split_falls_back_to_the_full_solve
SECTOR_SYSTEMS = {
    "square": (standard_gaussian(1, HBAR), SQUARE, 4),
    "square-no-origin": (standard_gaussian(1, HBAR), without_origin(SQUARE), 4),
    # another point order picks other representatives, and other phases
    "square-shuffled": (standard_gaussian(1, HBAR),
                        np.random.default_rng(3).permutation(lattice_points(SQUARE)), 4),
    "square-off-centre-window": (GaussianState(np.array([[1j]]), [0.3, -0.2], 0.4, HBAR),
                                 SQUARE, 4),
    "square-wide-window": (GaussianState(np.array([[2j]]), [0.0, 0.0], 0.0, HBAR), SQUARE, 2),
    "rectangular": (standard_gaussian(1, HBAR), separable_lattice([0.9], [0.7], 6.0), 2),
    "rectangular-no-origin": (standard_gaussian(1, HBAR),
                              without_origin(separable_lattice([0.9], [0.7], 6.0)), 2),
    "n2-square": (standard_gaussian(2, HBAR), separable_lattice([0.9, 0.9], [0.9, 0.9], 2.4), 4),
    "n2-squeezed": (GaussianState(np.diag([0.5j, 2j]), np.zeros(4), 0.0, HBAR),
                    separable_lattice([0.9, 0.8], [0.7, 0.9], 2.4), 2),
    "shifted-in-x": (standard_gaussian(1, HBAR),
                     Lattice(np.diag([0.9, 0.9]), 4.0, shift=[0.1, 0.0]), 1),
    "repeated-point": (standard_gaussian(1, HBAR), np.array([[0.0, 0.0], [0.0, 0.0]]), 1),
}


@pytest.mark.parametrize("name", sorted(SECTOR_SYSTEMS))
def test_sector_solve_matches_the_full_solve(name):
    check_sector_solve(*SECTOR_SYSTEMS[name])


def test_symmetries_come_from_exact_data_only():
    # one ulp off -I, or one point one ulp off the quarter turn, leaves the parity
    window = GaussianState(np.array([[np.nextafter(1.0, 2.0) * 1j]]), [0.0, 0.0], 0.0, HBAR)
    assert _symmetry(GaborSystem(window, SQUARE, HBAR)).turns.shape[0] == 2
    pts = lattice_points(SQUARE)
    on_axis = np.flatnonzero((pts[:, 1] == 0.0) & (np.abs(pts[:, 0]) == pts[:, 0].max()))
    assert len(on_axis) == 2
    pts[on_axis, 0] *= np.nextafter(1.0, 2.0)
    assert _symmetry(GaborSystem(standard_gaussian(1, HBAR), pts, HBAR)).turns.shape[0] == 2


def _record_eigvalsh(monkeypatch):
    inputs = []
    real = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        inputs.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return inputs


@pytest.mark.parametrize("lattice", [
    lattice_points(Lattice(np.diag([0.9, 0.9]), 4.0, shift=[0.1, 0.2])),
    np.array([[0.0, 0.0], [0.5, 0.3], [-0.4, 0.9], [1.1, -0.2], [-0.5, -0.3]]),
], ids=["shifted-lattice", "asymmetric-points"])
def test_parity_split_falls_back_to_the_full_solve(monkeypatch, lattice):
    import gaborflow.frames as frames

    sys = GaborSystem(standard_gaussian(1, HBAR), lattice, HBAR)
    N = len(sys.points)
    assert _gram_matrix(sys, _symmetry(sys)).shape == (N, N)
    inputs = _record_eigvalsh(monkeypatch)
    monkeypatch.setattr(frames, "FAMILY_SIZE", 8)
    report = frame_bounds(sys)
    assert N in [np.shape(a)[-1] for a in inputs]
    full = np.linalg.eigvalsh(shifted_gram(sys.window, sys.points))
    assert report.b_est == pytest.approx(float(np.max(full)), rel=1e-13)


def test_sector_solve_builds_a_quarter_of_the_rows_and_solves_quarter_blocks(monkeypatch):
    import gaborflow.frames as frames

    shapes = []
    real = frames._gram_matrix

    def recording(*args):
        rows = real(*args)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(frames, "_gram_matrix", recording)
    sys = standard_points(np.sqrt(0.5), radius=16.0)
    N = len(sys.points)
    assert N == 1609
    monkeypatch.setattr(frames, "FAMILY_SIZE", 8)
    report = frame_bounds(sys)
    quarter = -(-N // 4) + 1
    assert len(shapes) == 1 and shapes[0][0] <= quarter
    sym = _symmetry(sys)
    rows = real(sys, sym)
    inputs = _record_eigvalsh(monkeypatch)
    with frames.blas_threads(1):
        assert _eigenvalue_range(rows, sym)[1] == report.b_est
    assert len(inputs) == 4
    assert all(np.iscomplexobj(a) and a.shape[-1] <= quarter for a in inputs)


def test_gaussians_defines_no_sampling_name():
    # a Gaussian window is never sampled: the quadrature oracle lives with the
    # tests, and the package keeps one state representation
    import gaborflow
    import gaborflow.gaussians as gaussians

    sampling = ("SampledWindow", "_grid_axis", "_grid_nodes", "sampled_norm",
                "sampled_inner_product", "evaluate_state", "_state_values", "_component_values",
                "sample_state", "quadratic_fourier_apply", "stft", "hermite_functions")
    assert [name for name in sampling if hasattr(gaussians, name)] == []
    assert [name for name in sampling if hasattr(gaborflow, name)] == []
    assert not hasattr(errors, "GridDomainError")


def test_frame_bounds_leaves_no_state_on_the_system(monkeypatch):
    import gaborflow.frames as frames

    sys = GaborSystem(standard_gaussian(1, HBAR),
                      lattice_points(separable_lattice([0.9], [0.9], 4.0)), HBAR)
    monkeypatch.setattr(frames, "FAMILY_SIZE", 8)
    frame_bounds(sys)
    assert set(vars(sys)) <= {"window", "lattice", "hbar", "points"}


def test_system_rejects_unsupported_windows():
    # frame bounds, the matched-pair checks and weak deformations all take a
    # GaborSystem, so the window they see is always a GaussianState
    mix = GaussianMixture([1.0], (standard_gaussian(1, HBAR),))
    sampled = sample_state(standard_gaussian(1, HBAR), 10.0, 256)
    for window in (mix, sampled):
        with pytest.raises(DimensionMismatch, match="takes a GaussianState window"):
            GaborSystem(window, separable_lattice([1.0], [1.0], 2.0), HBAR)


def test_frame_bounds_checks_its_byte_budget_before_allocating(monkeypatch):
    import gaborflow.frames as frames

    sys = standard_points()
    F = frames.FAMILY_SIZE

    def family(N):
        # frame vectors of the family, of its <= 3 components per mixture and
        # of the 79 scanned modes, and the component block of the family Gram
        return (F + 3 * F + 79) * N + (3 * F) ** 2

    # the quarter turn: the rows of the R orbit representatives, one chunk
    # of kernel temporaries (80 bytes per overlap at n = 1; all R rows fit
    # one chunk), the gathered orbit columns and their four character sums,
    # and four complex blocks of sides R, R - 1, R - 1, R - 1
    N = len(sys.points)
    R = (N + 3) // 4
    gram = 16 * R * N + 80 * R * N + 2 * 16 * 4 * R * R + 16 * (R * R + 3 * (R - 1) ** 2)
    need = gram + 16 * family(N)
    assert _frame_bounds_bytes(sys, _symmetry(sys)) == need
    # no symmetry: all rows, solved as they are
    shifted = GaborSystem(sys.window, Lattice(np.diag([0.9, 0.9]), 4.0, shift=[0.1, 0.2]),
                          HBAR)
    M = len(shifted.points)
    assert _frame_bounds_bytes(shifted, _symmetry(shifted)) == 96 * M * M + 16 * family(M)

    built = []
    monkeypatch.setattr(frames, "deficiency_witnesses", lambda *a: built.append(a))
    calls = counting_calls(monkeypatch, "_overlap_core")
    monkeypatch.setattr(errors, "BYTE_BUDGET", need - 1)
    with pytest.raises(ResourceLimit, match=f"need {need} bytes"):
        frame_bounds(sys)
    assert built == [] and calls == []


def test_frame_bounds_counts_the_test_family_in_its_byte_budget(monkeypatch):
    import gaborflow.frames as frames

    built = []
    monkeypatch.setattr(frames, "build_test_family", lambda *a, **k: built.append(a))
    sys = standard_points(radius=4.0)
    monkeypatch.setattr(frames, "FAMILY_SIZE", 8)
    monkeypatch.setattr(errors, "BYTE_BUDGET", _frame_bounds_bytes(sys, _symmetry(sys)))
    monkeypatch.setattr(frames, "FAMILY_SIZE", 9)
    with pytest.raises(ResourceLimit):
        frame_bounds(sys)
    assert built == []


def test_frame_bounds_with_a_huge_family_raises_before_building_it(monkeypatch):
    import gaborflow.frames as frames

    def refuse(*args):
        raise AssertionError("a test state was built")

    # a budget that let the family through would fail here, not run out of
    # memory
    monkeypatch.setattr(frames, "_family_member", refuse)
    monkeypatch.setattr(frames, "FAMILY_SIZE", 100_000_000)
    with pytest.raises(ResourceLimit, match="^frame bounds of 241 points need "):
        frame_bounds(standard_points())


def test_frame_terms_checks_its_byte_budget_before_the_kernel_runs(monkeypatch):
    from gaborflow.deformation import invariance_check
    from gaborflow.dynamics import builtin_hamiltonian

    sys = standard_system(radius=4.0)
    N = len(sys.points)
    family = build_test_family(1, HBAR, 8)
    # one row of overlaps per state and per mode of the longest HermiteState,
    # and per mixture component one of kernel overlaps at 80 bytes each (n = 1)
    # and one of their coefficient-scaled copy at 16
    components = sum(len(s.components) for s in family if isinstance(s, GaussianMixture))
    modes = max(len(s.coefficients) for s in family if isinstance(s, HermiteState))
    need = N * (16 * (len(family) + modes) + 96 * components)
    monkeypatch.setattr(errors, "BYTE_BUDGET", need)
    assert frame_terms(sys, family).shape == (len(family), N)
    calls = counting_calls(monkeypatch, "_overlap_core")
    monkeypatch.setattr(errors, "BYTE_BUDGET", need - 1)
    with pytest.raises(ResourceLimit, match=f"need {need} bytes"):
        frame_terms(sys, family)
    # the matched-pair checks run on frame_terms
    mixtures = [s for s in family if isinstance(s, GaussianMixture)]
    monkeypatch.setattr(errors, "BYTE_BUDGET", 16 * N)
    for check in (lambda: covariance_check(sys, rotation(0.3), mixtures),
                  lambda: translation_check(sys, [0.1, 0.2], [0.3, 0.0], mixtures),
                  lambda: rescaling_check(sys, 0.5, mixtures),
                  lambda: invariance_check(sys, builtin_hamiltonian("harmonic"), 0.5, mixtures)):
        with pytest.raises(ResourceLimit):
            check()
    assert calls == []


# ---------------------------------------------------------------------------
# Lattice systems: bounds from the Gram of the adjoint lattice
# ---------------------------------------------------------------------------

# Exact bounds of the standard Gaussian on alpha = beta = sqrt(1/q) at
# hbar = 1/(2 pi), to 6 decimals, as ROADMAP.md quotes them from the Ron-Shen
# symbol (Ron & Shen, J. Funct. Anal. 148, 1997); the fiber-matrix oracle and
# the benchmark's independent oracle reproduce them to 1e-6
EXACT_BOUNDS = {2: (1.669254, 2.360681), 3: (2.891232, 3.106831), 4: (3.970177, 4.029935)}
ROUNDING = 5e-7


def benchmark_reference():
    """perfbench/reference.py, loaded by path: the benchmark's oracle, which
    imports nothing of gaborflow."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_exact_bound_oracle_reproduces_the_roadmap_pairs_and_the_benchmark_oracle():
    reference = benchmark_reference()
    for q, (a_table, b_table) in EXACT_BOUNDS.items():
        side = np.sqrt(1.0 / q)
        A, B = exact_frame_bounds(side, side)
        assert abs(A - a_table) <= 1e-6 and abs(B - b_table) <= 1e-6
        a_ref, b_ref = reference.exact_bounds(side, side)
        assert A == pytest.approx(a_ref, rel=1e-12) and B == pytest.approx(b_ref, rel=1e-12)


@pytest.mark.parametrize("alpha, beta", [(0.9, 0.9), (1.0, 1.0), (np.sqrt(6 / 7), np.sqrt(6 / 7))],
                         ids=["irrational", "critical", "q-7"])
def test_exact_bound_oracle_refuses_densities_outside_its_scope(alpha, beta):
    with pytest.raises(ValueError, match="is not p/q < 1"):
        exact_frame_bounds(alpha, beta)


@pytest.mark.parametrize("q, radius, a_gap, b_gap", [
    (2, 16.0, 0.0025, -0.002),
    (2, 8.0, 0.008, -0.0065),
    (3, 8.0, 0.0025, -0.002),
    (4, 16.0, 0.0002, -0.0002),
])
def test_dual_bounds_lie_inside_the_exact_bounds(q, radius, a_gap, b_gap):
    # a finite section of the adjoint Gram raises its least eigenvalue and
    # lowers its largest: a_est from above, b_est from below
    A, B = exact_frame_bounds(np.sqrt(1.0 / q), np.sqrt(1.0 / q))
    report = frame_bounds(standard_system(np.sqrt(1.0 / q), radius))
    assert report.method == "dual" and report.is_frame
    assert A - ROUNDING <= report.a_est <= A * (1.0 + a_gap)
    assert B * (1.0 + b_gap) <= report.b_est <= B + ROUNDING


# (p, q, M): the relative gaps a_est/A - 1 and 1 - b_est/B of the window M on
# alpha = beta = sqrt(p/q) at hbar = 1/(2 pi), measured against the fiber-matrix
# oracle and rounded up in the third digit, at R = 8 and at R = 16.  They fall
# about 4-fold from R = 8 to 16, as the section gap falls like 1/R^2; the
# windows 0.5i and 2i are each other's quarter turn, so their gaps agree
DUAL_GAPS = {
    (1, 2, 1j): ((7.44e-3, 6.21e-3), (2.00e-3, 1.68e-3)),
    (1, 2, 0.5j): ((2.38e-2, 1.08e-2), (6.15e-3, 2.82e-3)),
    (1, 2, 2j): ((2.38e-2, 1.08e-2), (6.15e-3, 2.82e-3)),
    (1, 2, 0.3 + 0.8j): ((4.58e-3, 6.56e-3), (1.22e-3, 1.78e-3)),
    (1, 3, 1j): ((2.09e-3, 1.88e-3), (5.77e-4, 5.18e-4)),
    (1, 3, 0.5j): ((1.15e-2, 7.84e-3), (2.90e-3, 1.99e-3)),
    (1, 3, 2j): ((1.15e-2, 7.84e-3), (2.90e-3, 1.99e-3)),
    (1, 3, 0.3 + 0.8j): ((2.11e-3, 1.42e-3), (5.81e-4, 3.86e-4)),
    (1, 4, 1j): ((5.82e-4, 5.77e-4), (1.59e-4, 1.57e-4)),
    (1, 4, 0.5j): ((4.64e-3, 3.91e-3), (1.45e-3, 1.22e-3)),
    (1, 4, 2j): ((4.64e-3, 3.91e-3), (1.45e-3, 1.22e-3)),
    (1, 4, 0.3 + 0.8j): ((4.77e-4, 5.64e-4), (1.35e-4, 1.58e-4)),
    (2, 3, 1j): ((1.05e-2, 6.06e-3), (2.83e-3, 1.65e-3)),
    (2, 3, 0.5j): ((3.44e-2, 1.05e-2), (8.70e-3, 2.68e-3)),
    (2, 3, 2j): ((3.44e-2, 1.05e-2), (8.70e-3, 2.68e-3)),
    (2, 3, 0.3 + 0.8j): ((1.06e-2, 6.18e-3), (2.89e-3, 1.70e-3)),
    (3, 4, 1j): ((9.26e-3, 5.83e-3), (2.54e-3, 1.55e-3)),
    (3, 4, 0.5j): ((4.46e-2, 1.18e-2), (1.12e-2, 2.98e-3)),
    (3, 4, 2j): ((4.46e-2, 1.18e-2), (1.12e-2, 2.98e-3)),
    (3, 4, 0.3 + 0.8j): ((8.07e-3, 6.27e-3), (2.19e-3, 1.68e-3)),
    (3, 5, 1j): ((6.49e-3, 3.90e-3), (1.78e-3, 1.07e-3)),
    (3, 5, 0.5j): ((2.68e-2, 9.34e-3), (7.75e-3, 2.73e-3)),
    (3, 5, 2j): ((2.68e-2, 9.34e-3), (7.75e-3, 2.73e-3)),
    (3, 5, 0.3 + 0.8j): ((6.75e-3, 3.48e-3), (1.91e-3, 9.92e-4)),
}


@pytest.mark.parametrize("radius", [8.0, 16.0])
@pytest.mark.parametrize("p, q, m", list(DUAL_GAPS), ids=lambda v: str(v))
def test_dual_bounds_hold_the_exact_bounds_at_rational_densities(p, q, m, radius):
    side = np.sqrt(p / q)
    A, B = exact_frame_bounds(side, side, m)
    window = GaussianState(np.array([[m]]), [0.0, 0.0], 0.0, HBAR)
    report = frame_bounds(GaborSystem(window, separable_lattice([side], [side], radius), HBAR))
    a_gap, b_gap = DUAL_GAPS[p, q, m][radius == 16.0]
    assert A <= report.a_est <= A * (1.0 + a_gap)
    assert B * (1.0 - b_gap) <= report.b_est <= B * (1.0 + 1e-12)


def test_dual_bounds_tighten_with_the_radius():
    reports = [frame_bounds(standard_system(np.sqrt(0.5), R)) for R in (4.0, 6.0, 8.0, 12.0)]
    a = [r.a_est for r in reports]
    b = [r.b_est for r in reports]
    assert all(x >= y for x, y in zip(a, a[1:]))
    assert all(x <= y for x, y in zip(b, b[1:]))


def assert_same_bounds(first: GaborSystem, second: GaborSystem):
    one, two = frame_bounds(first), frame_bounds(second)
    assert one.method == two.method == "dual"
    assert one.a_est == pytest.approx(two.a_est, rel=1e-12)
    assert one.b_est == pytest.approx(two.b_est, rel=1e-12)


def test_dual_bounds_are_the_same_at_every_hbar():
    # the same system up to a symplectic scaling, so the same bounds; the
    # lattice checks are relative to the lattice's own scale
    systems = []
    for hbar in (0.3, 0.05, 1e-20, 1e-30):
        c = np.sqrt(2.0 * np.pi * hbar)
        systems.append(GaborSystem(standard_gaussian(1, hbar),
                                   separable_lattice([0.6 * c], [0.7 * c], 16.0 * c), hbar))
    for other in systems[1:]:
        assert_same_bounds(systems[0], other)
    assert frame_bounds(systems[0]).a_est == pytest.approx(2.184360, abs=ROUNDING)


def test_dual_bounds_are_symplectically_covariant():
    # a lattice rotated together with its window keeps its bounds; a rotation
    # keeps the truncation ball as well
    window = GaussianState(np.array([[0.3 + 1.6j]]), [0.0, 0.0], 0.0, HBAR)
    S = rotation(0.7)
    assert_same_bounds(GaborSystem(window, Lattice(SHEARED, 8.0), HBAR),
                       GaborSystem(metaplectic_apply(S, window), Lattice(S @ SHEARED, 8.0), HBAR))


def test_dual_bounds_ignore_the_shift_and_the_window_centre():
    off_centre = GaussianState(SKEW_WINDOW.M, [0.8, -0.3], 1.1, HBAR)
    plain = GaussianState(SKEW_WINDOW.M, [0.0, 0.0], 0.0, HBAR)
    assert_same_bounds(GaborSystem(off_centre, Lattice(SHEARED, 8.0, shift=[0.3, -0.45]), HBAR),
                       GaborSystem(plain, Lattice(SHEARED, 8.0), HBAR))


@pytest.mark.parametrize("side", [1.0, 1.1, float(np.nextafter(1.0, 0.0))])
def test_no_lattice_at_or_past_the_critical_density_carries_a_frame(monkeypatch, side):
    # the density theorem needs no solve for a_est; b_est comes from the
    # Gram of the lattice itself, the smaller of the two there
    import gaborflow.frames as frames

    built = []
    real = frames._gram_matrix
    monkeypatch.setattr(frames, "_gram_matrix", lambda s, sym: built.append(s) or real(s, sym))
    sys = standard_system(side)
    report = frame_bounds(sys)
    assert (report.a_est, report.ratio, report.is_frame, report.method) == (
        0.0, float("inf"), False, "dual")
    (lat,) = [s.lattice for s in built]
    assert np.array_equal(lat.generator, sys.lattice.generator)
    assert (lat.radius, lat.shift.tolist()) == (sys.lattice.radius, [0.0, 0.0])
    full = np.linalg.eigvalsh(shifted_gram(sys.window, sys.points))
    assert report.b_est == pytest.approx(full[-1], rel=1e-13)


def test_plane_coupling_systems_keep_the_2n_ball_solve():
    # the planes of the lattice diag(1.1, 0.5, 1, 1) are product factors, the
    # first past the critical density; a generator entry that couples two
    # planes, or a window matrix that does, leaves a_est to the Lambda^o Gram
    base = np.diag([1.1, 0.5, 1.0, 1.0])
    coupled = make_generator("shear", n=2, P=[[0.0, 0.2], [0.2, 0.0]]) @ base
    skew = GaussianState(np.array([[1j, 0.1], [0.1, 1j]]), np.zeros(4), 0.0, HBAR)
    product = GaborSystem(standard_gaussian(2, HBAR), Lattice(base, 3.2), HBAR)
    assert frame_bounds(product).a_est == 0.0
    for window, generator in ((standard_gaussian(2, HBAR), coupled), (skew, base)):
        sys = GaborSystem(window, Lattice(generator, 3.2), HBAR)
        dual = GaborSystem(window, adjoint_lattice(sys.lattice, HBAR), HBAR)
        sym = _symmetry(dual)
        least = _eigenvalue_range(_gram_matrix(dual, sym), sym)[0]
        scale = (2.0 * np.pi * HBAR) ** 2 / abs(np.linalg.det(generator))
        report = frame_bounds(sys)
        assert report.a_est > 0.0
        assert report.a_est == pytest.approx(scale * least, rel=1e-12)


def test_dual_bounds_check_their_bytes_before_allocating(monkeypatch):
    sys = standard_system()
    dual = GaborSystem(sys.window, adjoint_lattice(sys.lattice, HBAR), HBAR)
    # the adjoint of the square lattice is square: the quarter turn, as in
    # test_frame_bounds_checks_its_byte_budget_before_allocating
    N = len(dual.points)
    R = (N + 3) // 4
    need = 16 * R * N + 80 * R * N + 2 * 16 * 4 * R * R + 16 * (R * R + 3 * (R - 1) ** 2)
    assert _gram_bytes(dual, _symmetry(dual)) == need
    calls = counting_calls(monkeypatch, "_overlap_core")
    monkeypatch.setattr(errors, "BYTE_BUDGET", need - 1)
    with pytest.raises(ResourceLimit, match=f"of {N} points need {need} bytes"):
        frame_bounds(sys)
    assert calls == []
    monkeypatch.setattr(errors, "BYTE_BUDGET", need)
    assert frame_bounds(sys).is_frame


@pytest.mark.parametrize("window, lattice, points, m", [
    (standard_gaussian(1, HBAR), separable_lattice([np.sqrt(0.5)], [np.sqrt(0.5)], 16.0), 405, 4),
    (standard_gaussian(2, HBAR), separable_lattice([0.9, 0.9], [0.9, 0.9], 3.2), 321, 4),
    (GaussianState(np.array([[0.8j]]), [0.0, 0.0], 0.0, HBAR),
     separable_lattice([0.7], [0.75], 16.0), 427, 2),
], ids=["quarter-turn", "n2-quarter-turn", "parity"])
def test_gram_bytes_cover_the_traced_peak_of_the_solve(window, lattice, points, m):
    import tracemalloc

    dual = GaborSystem(window, adjoint_lattice(lattice, HBAR), HBAR)
    sym = _symmetry(dual)
    assert (len(dual.points), sym.turns.shape[0]) == (points, m)
    tracemalloc.start()
    try:
        _eigenvalue_range(_gram_matrix(dual, sym), sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _gram_bytes(dual, sym)


def mixed_family(rng):
    """A Gaussian, a three-component mixture and two HermiteStates."""
    return [random_gaussian(rng),
            GaussianMixture([0.6, 0.8j, -0.3], tuple(random_gaussian(rng) for _ in range(3))),
            HermiteState(rng.normal(size=40) + 1j * rng.normal(size=40), HBAR),
            HermiteState([0.0, 1.0], HBAR)]


@pytest.mark.parametrize("kind", ["one-component", "mixed"])
def test_frame_terms_bytes_cover_the_traced_peak(monkeypatch, kind):
    import tracemalloc

    rng = np.random.default_rng(5)
    sys = standard_system(side=1.0)
    N = len(sys.points)
    family = ([random_gaussian(rng) for _ in range(3000)] if kind == "one-component"
              else mixed_family(rng))
    monkeypatch.setattr(errors, "BYTE_BUDGET", 0)
    with pytest.raises(ResourceLimit) as exc:
        frame_terms(sys, family)
    monkeypatch.undo()
    need = int(str(exc.value).split(" need ")[1].split(" bytes")[0])
    if kind == "one-component":
        # linear in the state count: 112 bytes a state and point, where a
        # state-by-component block would add 32 * 3000**2
        assert need == 112 * 3000 * N
    tracemalloc.start()
    try:
        frame_terms(sys, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def test_a_state_sums_only_its_own_terms():
    # each row is the state's own sum, bit for bit, whatever else the family holds
    sys = standard_system(radius=4.0)
    family = mixed_family(np.random.default_rng(6))
    together = frame_terms(sys, family)
    gram = _family_gram(family)
    for j, state in enumerate(family):
        assert np.array_equal(together[j], frame_terms(sys, [state])[0])
        assert np.array_equal(gram[j], _family_gram([state] + family)[0, 1:])
        assert np.array_equal(gram[:, j], _family_gram(family + [state])[:-1, -1])


def test_residual_estimate_is_small_at_defaults():
    assert residual_tail_estimate(standard_system()) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_upper_gamma_q_matches_scipy(n):
    from scipy.special import gammaincc

    xs = np.linspace(0.0, 200.0, 4001)[1:]
    got = np.array([_upper_gamma_q(n, x) for x in xs])
    np.testing.assert_allclose(got, gammaincc(n, xs), rtol=1e-13, atol=0.0)


def test_report_fields_consistent():
    # a lattice system is truncated at its radius, a point set at its
    # largest norm
    report = frame_bounds(standard_system())
    assert report.a_est <= report.b_est
    assert (report.method, report.truncation) == ("dual", 8.0)
    sys = standard_points()
    report = frame_bounds(sys)
    assert report.a_est <= report.b_est
    assert (report.method, report.truncation) == ("eig", sys.truncation_radius)


def test_family_prefix_stability():
    fam_small = build_test_family(1, HBAR, 10)
    fam_large = build_test_family(1, HBAR, 20)
    assert {type(a) for a in fam_small} == {GaussianMixture, HermiteState}
    for a, b in zip(fam_small, fam_large):
        assert type(a) is type(b)
        assert np.array_equal(a.coefficients, b.coefficients)
        for g, h in zip(getattr(a, "components", ()), getattr(b, "components", ())):
            assert np.array_equal(g.M, h.M) and np.array_equal(g.center, h.center)
            assert g.phase == h.phase


def test_family_gram_n1_matches_elementwise_inner_products():
    sys = standard_system(radius=4.0)
    family = build_test_family(1, HBAR, 12, witnesses=deficiency_witnesses(sys))
    assert {type(a) for a in family} == {GaussianMixture, HermiteState}
    ref = np.array([[inner_product(a, b) for b in family] for a in family])
    assert np.max(np.abs(_family_gram(family) - ref)) <= 1e-12


# ---------------------------------------------------------------------------
# Matched-pair identities
# ---------------------------------------------------------------------------

def test_covariance_identity_at_identity(rng):
    sys = standard_system()
    t1, t2 = covariance_check(sys, np.eye(2), [random_gaussian(rng)])
    assert t1.sum() == pytest.approx(t2.sum(), abs=1e-12)


def test_covariance_identity_generators(rng):
    sys = standard_system()
    mats = [standard_j(1), rotation(0.7), make_generator("shear", P=[[0.8]]),
            make_generator("dilation", L=[[1.3]])]
    for S in mats:
        t1, t2 = covariance_check(sys, S, [random_gaussian(rng)])
        assert abs(t1.sum() - t2.sum()) < 1e-9


def test_covariance_term_multisets(rng):
    sys = standard_system()
    (t1,), (t2,) = covariance_check(sys, random_symplectic(rng), [random_gaussian(rng)])
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-9


def test_covariance_requires_gaussian_window():
    # a sampled window cannot reach covariance_check: the system it takes
    # refuses to be built around one
    window = sample_state(standard_gaussian(1, HBAR), 10.0, 256)
    with pytest.raises(DimensionMismatch, match="takes a GaussianState window"):
        covariance_check(GaborSystem(window, np.array([[0.0, 0.0]]), HBAR),
                         np.eye(2), [standard_gaussian(1, HBAR)])


def test_translation_identity_cases(rng):
    sys = standard_system()
    cases = [
        (np.zeros(2), np.zeros(2)),
        (np.array([1.0, 0.0]), np.zeros(2)),
        (np.zeros(2), np.array([0.3, -0.2])),
        (rng.normal(size=2), rng.normal(size=2)),
    ]
    for z0, z1 in cases:
        t1, t2 = translation_check(sys, z0, z1, [random_gaussian(rng)])
        assert abs(t1.sum() - t2.sum()) < 1e-9


def test_translation_term_multisets(rng):
    sys = standard_system()
    (t1,), (t2,) = translation_check(sys, rng.normal(size=2), rng.normal(size=2),
                                     [random_gaussian(rng)])
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-9


def test_rescaling_identity_trivial(rng):
    sys = standard_system(side=0.5)
    psi = random_gaussian(rng, hbar=HBAR)
    t1, t2 = rescaling_check(sys, HBAR, [psi])
    assert t1.sum() == pytest.approx(t2.sum(), abs=1e-12)


@pytest.mark.parametrize("hbar_new", [1.0, 0.05])
def test_rescaling_identity_nontrivial(rng, hbar_new):
    sys = standard_system(side=0.5)
    psi = random_gaussian(rng, hbar=hbar_new)
    t1, t2 = rescaling_check(sys, hbar_new, [psi])
    assert abs(t1.sum() - t2.sum()) < 1e-9


def test_rescaling_term_multisets(rng):
    sys = standard_system(side=0.5)
    psi = random_gaussian(rng, hbar=0.7)
    (t1,), (t2,) = rescaling_check(sys, 0.7, [psi])
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-9


def test_system_validates_hbar_and_dimension():
    g = standard_gaussian(1, HBAR)
    with pytest.raises(DimensionMismatch):
        GaborSystem(g, separable_lattice([1.0], [1.0], 2.0), 1.0)
    with pytest.raises(DimensionMismatch):
        GaborSystem(g, separable_lattice([1.0, 1.0], [1.0, 1.0], 2.0), HBAR)


def test_frame_bounds_empty_family_rejected(monkeypatch):
    import gaborflow.frames as frames

    with pytest.raises(InvalidMatrix, match="test family is empty"):
        build_test_family(1, HBAR, 0)
    monkeypatch.setattr(frames, "FAMILY_SIZE", 0)
    with pytest.raises(InvalidMatrix, match="test family is empty"):
        frame_bounds(standard_points())
