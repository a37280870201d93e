import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from gaborflow.errors import (
    DimensionMismatch,
    GaborflowError,
    InvalidMatrix,
    NumericalDegeneracy,
    ResolutionError,
)
from gaborflow.gaussians import (
    GaussianMixture,
    GaussianState,
    HermiteState,
    check_siegel,
    heisenberg_weyl_apply,
    inner_product,
    metaplectic_apply,
    mixture_norm,
    overlaps_with_shifts,
    rescale_window,
    shifted_gram,
    siegel_action,
    standard_gaussian,
    _mode_core,
)
from gaborflow.symplectic import (
    GeneratingFunctionData,
    fractional_fourier_data,
    make_generator,
    rotation,
    standard_j,
    symplectic_form,
)

from conftest import HBAR, counting_calls, random_symplectic
from oracles import (
    SampledWindow,
    evaluate_state,
    hermite_functions,
    quadratic_fourier_apply,
    sample_state,
    sampled_inner_product,
    sampled_norm,
    stft,
    _grid_axis,
)


def random_gaussian(rng, n=1, hbar=HBAR):
    M = np.diag([complex(rng.normal(0.0, 0.4), np.exp(rng.normal(0.0, 0.4))) for _ in range(n)])
    return GaussianState(M, rng.normal(0.0, 1.0, 2 * n), rng.normal(), hbar)


# ---------------------------------------------------------------------------
# Construction and normalization
# ---------------------------------------------------------------------------

def test_standard_gaussian_fields():
    g = standard_gaussian(2, HBAR)
    assert np.allclose(g.M, 1j * np.eye(2))
    assert np.allclose(g.M.imag, np.eye(2))
    assert np.allclose(g.center, 0.0)


def test_standard_gaussian_prefactor_at_origin():
    # (pi*hbar)^(-1/4) = 2^(1/4) at hbar = 1/(2 pi)
    g = standard_gaussian(1, HBAR)
    assert evaluate_state(g, np.array([0.0]))[0] == pytest.approx(2.0 ** 0.25, rel=1e-12)


def test_sampled_norm_is_one():
    g = standard_gaussian(1, HBAR)
    assert sampled_norm(sample_state(g, 10.0, 1024)) == pytest.approx(1.0, abs=1e-8)


def test_check_siegel_rejects_bad_matrices():
    with pytest.raises(InvalidMatrix):
        check_siegel(np.array([[1j, 0.5], [0.0, 1j]]))  # asymmetric
    with pytest.raises(InvalidMatrix):
        check_siegel(np.array([[1.0]]))  # no positive imaginary part


def test_mixture_norm_and_inner_product(rng):
    comps = (random_gaussian(rng), random_gaussian(rng))
    mix = GaussianMixture([1.0, -0.5j], comps)
    w = sample_state(mix, 10.0, 2048)
    assert mixture_norm(mix) == pytest.approx(sampled_norm(w), abs=1e-8)


# ---------------------------------------------------------------------------
# Siegel action / metaplectic transport
# ---------------------------------------------------------------------------

def test_siegel_action_identity(rng):
    M = random_gaussian(rng).M
    assert np.allclose(siegel_action(np.eye(2), M), M)


def test_siegel_action_fourier_fixed_point():
    assert np.allclose(siegel_action(standard_j(1), [[1j]]), [[1j]])


def test_siegel_action_shear_shifts_real_part(rng):
    M = random_gaussian(rng).M
    P = np.array([[0.7]])
    out = siegel_action(make_generator("shear", P=P), M)
    assert np.allclose(out, M - P)


def test_siegel_action_degenerate_guard():
    # A + B M nearly singular: M = i*eps with J makes A + BM = i*eps
    with pytest.raises(NumericalDegeneracy):
        siegel_action(standard_j(1), [[1e-14j]])


def test_siegel_cocycle_and_positivity(rng):
    for _ in range(25):
        S1 = random_symplectic(rng)
        S2 = random_symplectic(rng)
        M = random_gaussian(rng).M
        lhs = siegel_action(S1 @ S2, M)
        rhs = siegel_action(S1, siegel_action(S2, M))
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        assert np.min(np.linalg.eigvalsh(lhs.imag)) > 0.0


def test_metaplectic_rotation_fixes_standard_window():
    g = standard_gaussian(1, HBAR)
    out = metaplectic_apply(rotation(0.9), g)
    assert np.allclose(out.M, g.M, atol=1e-12)
    assert np.allclose(out.center, 0.0)


def test_metaplectic_dilation_example():
    g = standard_gaussian(1, HBAR)
    out = metaplectic_apply(make_generator("dilation", L=[[np.sqrt(2.0)]]), g)
    assert np.allclose(out.M, [[2.0j]], atol=1e-12)


def test_metaplectic_moves_center():
    g = heisenberg_weyl_apply([1.0, 0.0], standard_gaussian(1, HBAR))
    out = metaplectic_apply(standard_j(1), g)
    assert np.allclose(out.center, [0.0, -1.0])


def test_metaplectic_covariance_modulus(rng):
    # apply(S) o T(z) = T(Sz) o apply(S) up to phase: equal moduli against a third state
    for _ in range(10):
        S = random_symplectic(rng)
        z = rng.normal(size=2)
        g = random_gaussian(rng)
        probe = random_gaussian(rng)
        a = metaplectic_apply(S, heisenberg_weyl_apply(z, g))
        b = heisenberg_weyl_apply(S @ z, metaplectic_apply(S, g))
        assert abs(inner_product(probe, a)) == pytest.approx(
            abs(inner_product(probe, b)), abs=1e-9
        )


# ---------------------------------------------------------------------------
# Heisenberg-Weyl operators
# ---------------------------------------------------------------------------

def test_commutation_phase(rng):
    # T(z) T(z') = exp(i sigma(z, z')/hbar) T(z') T(z)
    g = random_gaussian(rng)
    z, w = rng.normal(size=2), rng.normal(size=2)
    a = heisenberg_weyl_apply(z, heisenberg_weyl_apply(w, g))
    b = heisenberg_weyl_apply(w, heisenberg_weyl_apply(z, g))
    assert a.phase - b.phase == pytest.approx(symplectic_form(z, w), abs=1e-12)
    assert np.allclose(a.center, b.center)


def test_addition_phase(rng):
    # T(z+z') = exp(-i sigma(z, z')/2 hbar) T(z) T(z')
    g = random_gaussian(rng)
    z, w = rng.normal(size=2), rng.normal(size=2)
    combined = heisenberg_weyl_apply(z + w, g)
    split = heisenberg_weyl_apply(z, heisenberg_weyl_apply(w, g))
    assert split.phase - combined.phase == pytest.approx(
        0.5 * symplectic_form(z, w), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

def test_inner_product_normalization(rng):
    for _ in range(5):
        g = random_gaussian(rng)
        assert inner_product(g, g) == pytest.approx(1.0, abs=1e-12)


def test_shift_overlap_modulus():
    g = standard_gaussian(1, HBAR)
    for z in ([0.7, -0.3], [1.4, 0.9]):
        val = overlaps_with_shifts(g, g, np.array([z]))[0]
        assert abs(val) == pytest.approx(np.exp(-(np.dot(z, z)) / (4 * HBAR)), rel=1e-12)


def test_shift_overlap_against_quadrature(rng):
    g = standard_gaussian(1, HBAR)
    wg = sample_state(g, 10.0, 2048)
    z = np.array([0.6, -1.1])
    shifted = sample_state(heisenberg_weyl_apply(z, g), 10.0, 2048)
    quad = sampled_inner_product(wg, shifted)
    analytic = overlaps_with_shifts(g, g, z[None, :])[0]
    assert analytic == pytest.approx(quad, abs=1e-6)


def test_inner_product_matches_quadrature(rng):
    for _ in range(5):
        g1, g2 = random_gaussian(rng), random_gaussian(rng)
        quad = sampled_inner_product(sample_state(g1, 10.0, 2048), sample_state(g2, 10.0, 2048))
        assert inner_product(g1, g2) == pytest.approx(quad, abs=1e-6)


def test_inner_product_conjugate_symmetry(rng):
    g1, g2 = random_gaussian(rng), random_gaussian(rng)
    assert inner_product(g1, g2) == pytest.approx(np.conj(inner_product(g2, g1)), abs=1e-12)


def test_inner_product_bounded(rng):
    for _ in range(10):
        g1, g2 = random_gaussian(rng), random_gaussian(rng)
        assert abs(inner_product(g1, g2)) <= 1.0 + 1e-12


def test_inner_product_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        inner_product(random_gaussian(rng, n=1), random_gaussian(rng, n=2))


def test_inner_product_n2_against_quadrature(rng):
    g1, g2 = random_gaussian(rng, n=2), random_gaussian(rng, n=2)
    quad = sampled_inner_product(sample_state(g1, 8.0, 128), sample_state(g2, 8.0, 128))
    assert inner_product(g1, g2) == pytest.approx(quad, abs=1e-6)


def random_siegel_matrix(rng, n):
    """A full complex symmetric matrix with positive-definite imaginary part."""
    X = rng.normal(0.0, 0.3, (n, n))
    Y = rng.normal(0.0, 0.3, (n, n))
    return 0.5 * (X + X.T) + 1j * (Y @ Y.T + 0.7 * np.eye(n))


def random_mixture(rng, n, num):
    """num components, each with its own matrix, center and phase."""
    comps = tuple(
        GaussianState(random_siegel_matrix(rng, n), rng.normal(0.0, 0.7, 2 * n), rng.normal(), HBAR)
        for _ in range(num)
    )
    return GaussianMixture(rng.normal(size=num) + 1j * rng.normal(size=num), comps)


@pytest.mark.parametrize("n, npoints", [(1, 2048), (2, 256)])
def test_mixture_inner_product_against_quadrature(rng, n, npoints):
    a, b = random_mixture(rng, n, 3), random_mixture(rng, n, 2)
    wa, wb = sample_state(a, 8.0, npoints), sample_state(b, 8.0, npoints)
    assert inner_product(a, b) == pytest.approx(sampled_inner_product(wa, wb), abs=1e-9)
    assert inner_product(a, a) == pytest.approx(mixture_norm(a) ** 2, abs=1e-12)
    assert mixture_norm(a) == pytest.approx(sampled_norm(wa), abs=1e-9)


def test_mixture_overlaps_with_shifts_against_quadrature(rng):
    psi = random_mixture(rng, 1, 3)
    phi = GaussianState(random_siegel_matrix(rng, 1), rng.normal(0.0, 0.5, 2), rng.normal(), HBAR)
    shifts = rng.uniform(-1.5, 1.5, (6, 2))
    w = sample_state(psi, 10.0, 2048)
    quad = [sampled_inner_product(w, sample_state(heisenberg_weyl_apply(z, phi), 10.0, 2048))
            for z in shifts]
    assert np.max(np.abs(overlaps_with_shifts(psi, phi, shifts) - quad)) < 1e-9


def test_mixture_overlaps_make_one_kernel_call(rng, monkeypatch):
    calls = counting_calls(monkeypatch, "_overlap_core")
    a, b = random_mixture(rng, 2, 3), random_mixture(rng, 2, 2)
    phi = random_gaussian(rng, n=2)
    for run in (lambda: inner_product(a, b), lambda: inner_product(phi, a),
                lambda: mixture_norm(a),
                lambda: overlaps_with_shifts(a, phi, rng.normal(size=(5, 4)))):
        calls.clear()
        run()
        assert len(calls) == 1


def test_shifted_gram_builds_no_states(rng, monkeypatch):
    phi = random_gaussian(rng)
    shifts = rng.normal(size=(7, 2))
    rows = [overlaps_with_shifts(heisenberg_weyl_apply(z, phi), phi, shifts) for z in shifts]
    calls = counting_calls(monkeypatch, "check_siegel")
    G = shifted_gram(phi, shifts)
    assert calls == []
    assert np.max(np.abs(G - np.array(rows))) < 1e-12


def test_shifted_gram_rows_do_not_depend_on_the_chunk_size(rng, monkeypatch):
    import gaborflow.gaussians as gaussians

    phi = random_gaussian(rng, n=2)
    shifts = rng.normal(size=(9, 4))
    G = shifted_gram(phi, shifts)
    pick = [7, 0, 3, 3]
    monkeypatch.setattr(gaussians, "GRAM_CHUNK_BYTES", 1)
    assert gaussians._gram_chunk_rows(2, len(shifts)) == 1
    calls = counting_calls(monkeypatch, "_overlap_core")
    assert np.array_equal(shifted_gram(phi, shifts, pick), G[pick])
    assert len(calls) == len(pick)


MODE_WINDOWS = {
    "standard": (1j, [0.0, 0.0], 0.0),
    "squeezed": (0.25j, [0.0, 0.0], 0.3),
    "stretched": (4.0j, [0.0, 0.0], -0.2),
    "sheared": (0.3 + 0.8j, [1.0, 0.5], 0.1),
    "off-centre": (1j, [2.5, -3.0], 0.7),
    "sheared-off-centre": (-0.7 + 2.5j, [-1.2, 2.0], 1.1),
}


@pytest.mark.parametrize("name", sorted(MODE_WINDOWS))
def test_mode_kernel_matches_quadrature(name):
    # the integrands are resolved and have decayed long before the grid ends,
    # so the rectangle rule is exact to rounding here
    M, center, phase = MODE_WINDOWS[name]
    g = GaussianState([[M]], center, phase, HBAR)
    axis = _grid_axis(16.0, 4096)
    quad = hermite_functions(axis, HBAR, 256) @ np.conj(evaluate_state(g, axis)) * (axis[1] - axis[0])
    got = _mode_core(g.M, g.center, np.array(g.phase), HBAR, 256)
    assert np.max(np.abs(got - quad)) <= 1e-13


def test_mode_kernel_underflows_to_zero_far_away(rng):
    directions = rng.normal(size=(16, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    M = np.array([[0.3 + 0.8j]])
    for radius in (21.5, 30.0, 100.0, 1000.0):
        # c_0 is subnormal near radius 21.5 and underflows beyond
        out = _mode_core(M, radius * directions, np.zeros(16), HBAR, 256)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out)) <= 1e-100
        if radius >= 30.0:
            assert not np.any(out)


def test_hermite_state_inner_products_are_the_mode_coefficients(rng):
    c1, c2 = rng.normal(size=5) + 1j * rng.normal(size=5), rng.normal(size=3)
    h1, h2 = HermiteState(c1, HBAR), HermiteState(c2, HBAR)
    assert inner_product(h1, h2) == pytest.approx(np.dot(c1[:3], c2), abs=1e-15)
    g = random_gaussian(rng)
    w1, wg = sample_state(h1, 10.0, 1024), sample_state(g, 10.0, 1024)
    assert inner_product(h1, g) == pytest.approx(sampled_inner_product(w1, wg), abs=1e-12)
    assert inner_product(g, h1) == pytest.approx(sampled_inner_product(wg, w1), abs=1e-12)


@pytest.mark.parametrize("h", [HermiteState([0.0, 1.0], HBAR),
                               sample_state(standard_gaussian(1, HBAR), 10.0, 64)],
                         ids=["hermite", "sampled"])
def test_transforms_reject_a_hermite_state(h):
    with pytest.raises(DimensionMismatch):
        heisenberg_weyl_apply([0.1, 0.2], h)
    with pytest.raises(DimensionMismatch):
        metaplectic_apply(rotation(0.3), h)
    with pytest.raises(DimensionMismatch):
        rescale_window(h, 0.5)


def test_mixture_components_must_be_flat(rng):
    inner = GaussianMixture([1.0, 0.5], (random_gaussian(rng), random_gaussian(rng)))
    with pytest.raises(GaborflowError):
        GaussianMixture([1.0], (inner,))
    with pytest.raises(GaborflowError):
        GaussianMixture([1.0, 1.0], (random_gaussian(rng), inner))


# ---------------------------------------------------------------------------
# Rescaling
# ---------------------------------------------------------------------------

def test_rescale_identity():
    g = standard_gaussian(1, HBAR)
    out = rescale_window(g, HBAR)
    assert np.allclose(out.center, g.center)
    assert np.allclose(out.M, g.M)


def test_rescale_standard_stays_standard():
    g = standard_gaussian(1, HBAR)
    out = rescale_window(g, 0.05)
    ref = standard_gaussian(1, 0.05)
    assert np.allclose(out.M, ref.M)
    assert np.allclose(out.center, ref.center)


def test_rescale_preserves_norm_and_function_values(rng):
    g = random_gaussian(rng)
    hbar_new = 1.0
    out = rescale_window(g, hbar_new)
    assert inner_product(out, out) == pytest.approx(1.0, abs=1e-12)
    # function-level: g_new(x) = lambda^(1/2) g(lambda x), lambda = sqrt(old/new)
    lam = np.sqrt(g.hbar / hbar_new)
    x = np.linspace(-2.0, 2.0, 7)
    assert np.allclose(
        evaluate_state(out, x), np.sqrt(lam) * evaluate_state(g, lam * x), atol=1e-12
    )


# ---------------------------------------------------------------------------
# Quadratic Fourier transform oracle
# ---------------------------------------------------------------------------

def test_fourier_fixes_standard_gaussian():
    g = standard_gaussian(1, HBAR)
    w = sample_state(g, 8.0, 1024)
    data = GeneratingFunctionData([[0.0]], [[1.0]], [[0.0]])
    out = quadratic_fourier_apply(data, w, HBAR)
    overlap = sampled_inner_product(out, w)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-4)
    assert sampled_norm(out) == pytest.approx(1.0, abs=1e-4)


def test_fractional_fourier_fixed_point():
    g = standard_gaussian(1, HBAR)
    w = sample_state(g, 8.0, 2048)
    out = quadratic_fourier_apply(fractional_fourier_data(np.pi / 4.0), w, HBAR)
    assert abs(sampled_inner_product(out, w)) == pytest.approx(1.0, abs=1e-4)


def test_quadratic_fourier_matches_siegel_path(rng):
    g = standard_gaussian(1, HBAR)
    w = sample_state(g, 8.0, 2048)
    for data in (
        fractional_fourier_data(np.pi / 4.0),
        GeneratingFunctionData([[0.4]], [[1.2]], [[-0.3]]),
    ):
        out = quadratic_fourier_apply(data, w, HBAR)
        from gaborflow.symplectic import from_generating_function

        ref = metaplectic_apply(from_generating_function(data), g)
        ref_w = sample_state(ref, 8.0, 2048)
        assert abs(sampled_inner_product(out, ref_w)) == pytest.approx(1.0, abs=1e-4)


def test_quadratic_fourier_resolution_guard():
    w = sample_state(standard_gaussian(1, HBAR), 8.0, 64)
    with pytest.raises(ResolutionError):
        quadratic_fourier_apply(GeneratingFunctionData([[0.0]], [[1.0]], [[0.0]]), w, HBAR)


# ---------------------------------------------------------------------------
# Short-time Fourier transform
# ---------------------------------------------------------------------------

def test_stft_at_origin_is_squared_norm():
    w = sample_state(standard_gaussian(1, HBAR), 10.0, 1024)
    assert stft(w, w, [0.0, 0.0]) == pytest.approx(sampled_norm(w) ** 2, abs=1e-10)


def test_stft_gaussian_profile():
    g = standard_gaussian(1, HBAR)
    w = sample_state(g, 10.0, 1024)
    for z in ([16 * w.step, 0.4], [32 * w.step, -0.9]):
        val = stft(w, w, z)
        # |<phi, T(z) phi>| = exp(-pi |z|^2 / 2) at hbar = 1/2pi, and the
        # stft differs from the shift overlap only by a phase
        assert abs(val) == pytest.approx(np.exp(-np.pi * np.dot(z, z) / 2.0), abs=1e-5)


def test_stft_cauchy_schwarz(rng):
    g1, g2 = random_gaussian(rng), random_gaussian(rng)
    w1, w2 = sample_state(g1, 10.0, 1024), sample_state(g2, 10.0, 1024)
    val = stft(w1, w2, [10 * w1.step, 0.7])
    assert abs(val) <= sampled_norm(w1) * sampled_norm(w2) + 1e-10


def test_stft_relates_to_shift_overlap():
    # <psi | T(z) phi> = exp(i pi p x) V(z) at hbar = 1/(2 pi)
    g = standard_gaussian(1, HBAR)
    w = sample_state(g, 10.0, 1024)
    z = np.array([24 * w.step, 0.55])
    lhs = overlaps_with_shifts(g, g, z[None, :])[0]
    rhs = np.exp(1j * np.pi * z[0] * z[1]) * stft(w, w, z)
    assert lhs == pytest.approx(rhs, abs=1e-6)
