import warnings

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from gaborflow import errors
from gaborflow.errors import DimensionMismatch, InvalidMatrix, ResourceLimit
from gaborflow.symplectic import (
    AffineSymplectic,
    GeneratingFunctionData,
    Lattice,
    affine_compose,
    affine_inverse,
    adjoint_lattice,
    as_phase_vector,
    fractional_fourier_data,
    from_generating_function,
    is_symplectic,
    lattice_map,
    lattice_points,
    make_generator,
    planck_scaling,
    rotation,
    separable_lattice,
    standard_j,
    symplectic_form,
)

from conftest import random_symplectic

finite_coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_symplectic_form_definition():
    assert symplectic_form([1.0, 0.0], [0.0, 1.0]) == -1.0


def test_symplectic_form_self_vanishes():
    z = np.array([0.3, -2.0])
    assert symplectic_form(z, z) == 0.0


def test_symplectic_form_j_invariance(rng):
    J = standard_j(2)
    for _ in range(20):
        z, w = rng.normal(size=4), rng.normal(size=4)
        assert symplectic_form(J @ z, J @ w) == pytest.approx(symplectic_form(z, w), abs=1e-12)


def test_symplectic_form_matrix_expression(rng):
    # sigma(z, z') equals (z')^T J z
    for n in (1, 3):
        J = standard_j(n)
        z, w = rng.normal(size=2 * n), rng.normal(size=2 * n)
        assert symplectic_form(z, w) == pytest.approx(w @ J @ z, abs=1e-12)


@given(
    a=st.lists(finite_coords, min_size=2, max_size=2),
    b=st.lists(finite_coords, min_size=2, max_size=2),
    c=st.lists(finite_coords, min_size=2, max_size=2),
    lam=finite_coords,
)
def test_symplectic_form_antisymmetric_bilinear(a, b, c, lam):
    a, b, c = np.array(a), np.array(b), np.array(c)
    assert symplectic_form(a, b) == pytest.approx(-symplectic_form(b, a), abs=1e-9)
    assert symplectic_form(a + lam * c, b) == pytest.approx(
        symplectic_form(a, b) + lam * symplectic_form(c, b), rel=1e-9, abs=1e-9
    )


def test_standard_j_block_form():
    assert np.array_equal(standard_j(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_standard_j_squares_to_minus_identity():
    for n in (1, 2, 4):
        J = standard_j(n)
        assert np.array_equal(J @ J, -np.eye(2 * n))
        assert np.array_equal(J.T @ J, np.eye(2 * n))


def test_phase_vector_has_even_length():
    with pytest.raises(DimensionMismatch):
        as_phase_vector([1.0, 2.0, 3.0])


def test_make_generator_dilation():
    M = make_generator("dilation", L=[[2.0]])
    assert np.allclose(M, [[0.5, 0.0], [0.0, 2.0]])


def test_make_generator_shear():
    V = make_generator("shear", P=[[1.0]])
    assert np.allclose(V, [[1.0, 0.0], [-1.0, 1.0]])


def test_make_generator_outputs_symplectic(rng):
    for _ in range(10):
        S = random_symplectic(rng, n=2)
        assert is_symplectic(S)


def test_make_generator_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        make_generator("dilation", L=[[0.0]])
    with pytest.raises(InvalidMatrix):
        make_generator("shear", P=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidMatrix):
        make_generator("twist")


def test_is_symplectic_identity_and_scaling():
    assert is_symplectic(np.eye(4))
    assert not is_symplectic(np.diag([2.0, 2.0]))


def test_is_symplectic_rotations():
    for t in np.linspace(0.0, 2.0 * np.pi, 7):
        assert is_symplectic(rotation(t))


def test_is_symplectic_rejects_odd_dimension():
    with pytest.raises(DimensionMismatch):
        is_symplectic(np.eye(3))


def test_affine_translation_subgroup(rng):
    z1, z2 = rng.normal(size=2), rng.normal(size=2)
    g = affine_compose(AffineSymplectic.translation(z1), AffineSymplectic.translation(z2))
    assert np.allclose(g.linear, np.eye(2))
    assert np.allclose(g.shift, z1 + z2)


def test_affine_inverse_cancels(rng):
    for _ in range(10):
        g = AffineSymplectic(random_symplectic(rng), rng.normal(size=2))
        e = affine_compose(g, affine_inverse(g))
        assert np.allclose(e.linear, np.eye(2), atol=1e-12)
        assert np.allclose(e.shift, 0.0, atol=1e-12)


def test_affine_group_axioms(rng):
    for _ in range(5):
        g1 = AffineSymplectic(random_symplectic(rng), rng.normal(size=2))
        g2 = AffineSymplectic(random_symplectic(rng), rng.normal(size=2))
        g3 = AffineSymplectic(random_symplectic(rng), rng.normal(size=2))
        left = affine_compose(affine_compose(g1, g2), g3)
        right = affine_compose(g1, affine_compose(g2, g3))
        assert np.allclose(left.linear, right.linear, atol=1e-10)
        assert np.allclose(left.shift, right.shift, atol=1e-10)


def test_conjugation_moves_translation(rng):
    # S^-1 T(z0) S = T(S^-1 z0)
    S = random_symplectic(rng)
    z0 = rng.normal(size=2)
    gS = AffineSymplectic(S, np.zeros(2))
    conj = affine_compose(affine_compose(affine_inverse(gS), AffineSymplectic.translation(z0)), gS)
    assert np.allclose(conj.linear, np.eye(2), atol=1e-12)
    assert np.allclose(conj.shift, np.linalg.solve(S, z0), atol=1e-10)


def test_generating_function_reduces_to_j():
    data = GeneratingFunctionData([[0.0]], [[1.0]], [[0.0]])
    assert np.allclose(from_generating_function(data), standard_j(1))


def test_generating_function_and_dilation_judge_l_by_its_own_scale():
    # the test is relative, as for a lattice generator: a small L is not a
    # singular one, and a singular L is rejected at any scale
    data = GeneratingFunctionData(np.zeros((1, 1)), [[1e-15]], np.zeros((1, 1)))
    assert data.L[0, 0] == 1e-15
    assert make_generator("dilation", L=[[1e-15]])[1, 1] == 1e-15
    for scale in (1.0, 1e-20):
        L = scale * np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(InvalidMatrix, match="L must be invertible"):
            GeneratingFunctionData(np.zeros((2, 2)), L, np.zeros((2, 2)))
        with pytest.raises(InvalidMatrix, match="dilation requires invertible L"):
            make_generator("dilation", L=L)


def test_generating_function_and_dilation_reject_a_non_finite_l():
    # exp(800) is inf: refused as not finite, not as singular
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidMatrix, match="L must be finite"):
            GeneratingFunctionData(np.zeros((1, 1)), [[bad]], np.zeros((1, 1)))
        with pytest.raises(InvalidMatrix, match="dilation requires finite L"):
            make_generator("dilation", L=[[bad]])
        with pytest.raises(InvalidMatrix, match="P must be finite"):
            make_generator("shear", P=[[bad]])


def test_huge_finite_l_is_invertible():
    # the column norms of exp(700) overflow when squared; the singularity
    # test divides each column by its largest entry first
    from gaborflow import symplectic

    L = np.array([[np.exp(700.0), 0.0], [1.0, np.exp(-700.0)]])
    assert not symplectic._is_singular(L)
    M = make_generator("dilation", L=[[np.exp(700.0)]])
    assert M[1, 1] == np.exp(700.0)
    assert symplectic._is_singular(np.array([[1e300, 2e300], [1e300, 2e300]]))
    assert symplectic._is_singular(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_is_symplectic_does_not_overflow_on_a_huge_matrix():
    # ||S||^2 = 1e400 is out of float range
    assert is_symplectic(make_generator("shear", P=[[1e200]]))
    assert not is_symplectic(np.diag([1e200, 1e200]))


def test_generating_function_symplectic(rng):
    for _ in range(10):
        P = rng.normal(size=(2, 2))
        Q = rng.normal(size=(2, 2))
        L = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        data = GeneratingFunctionData(0.5 * (P + P.T), L, 0.5 * (Q + Q.T))
        assert is_symplectic(from_generating_function(data))


def test_generating_function_factorization(rng):
    # S_W = V_{-P} M_L J V_{-Q}
    for P, L, Q in [
        (0.0, 1.0 / np.sin(np.pi / 4), 0.0),
        (rng.normal(), rng.normal() + 2.0, rng.normal()),
    ]:
        data = GeneratingFunctionData([[P]], [[L]], [[Q]])
        factored = (
            make_generator("shear", P=[[-P]])
            @ make_generator("dilation", L=[[L]])
            @ standard_j(1)
            @ make_generator("shear", P=[[-Q]])
        )
        assert np.allclose(from_generating_function(data), factored, atol=1e-12)


def test_fractional_fourier_is_rotation():
    for t in (0.3, np.pi / 4, 2.0):
        S = from_generating_function(fractional_fourier_data(t))
        assert np.allclose(S, rotation(t), atol=1e-12)


def test_lattice_points_unit_grid():
    pts = lattice_points(separable_lattice([1.0], [1.0], 1.5))
    assert pts.shape == (9, 2)
    expected = {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    assert {tuple(p) for p in pts} == expected


def test_lattice_points_radius_zero():
    pts = lattice_points(separable_lattice([1.0], [1.0], 0.0))
    assert pts.shape == (1, 2)
    assert np.array_equal(pts[0], [0.0, 0.0])


def test_lattice_points_deterministic():
    lat = separable_lattice([0.7], [0.9], 5.0)
    a = lattice_points(lat)
    b = lattice_points(lat)
    assert np.array_equal(a, b)


def test_lattice_same_set_under_unimodular_regeneration():
    # J L generates the same lattice when the generator is the unit grid
    lat = separable_lattice([1.0], [1.0], 2.5)
    rotated = Lattice(standard_j(1) @ lat.generator, lat.radius)
    a = {tuple(np.round(p, 9)) for p in lattice_points(lat)}
    b = {tuple(np.round(p, 9)) for p in lattice_points(rotated)}
    assert a == b


def test_lattice_point_cap(monkeypatch):
    import gaborflow.symplectic as symplectic

    monkeypatch.setattr(symplectic, "POINT_CAP", 100)
    with pytest.raises(ResourceLimit, match=r"lattice has \d+ points \(cap 100\)"):
        lattice_points(separable_lattice([0.01], [0.01], 10.0))


def test_lattice_enumeration_checks_its_bytes_before_allocating(monkeypatch):
    # 11 x 11 index candidates at 3 arrays of 2 float64 coordinates each
    need = 24 * 2 * 11 * 11
    lat = separable_lattice([0.9], [0.9], 4.0)
    monkeypatch.setattr(errors, "BYTE_BUDGET", need)
    assert len(lattice_points(lat)) == 61
    built = []
    monkeypatch.setattr(np, "meshgrid", lambda *a, **kw: built.append(a))
    monkeypatch.setattr(errors, "BYTE_BUDGET", need - 1)
    with pytest.raises(ResourceLimit, match=f"needs {need} bytes"):
        lattice_points(lat)
    assert built == []


def test_lattice_enumeration_rejects_an_overflowing_index_box():
    # the index bounds overflow int64, and the byte count overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimit, match="needs inf bytes"):
            lattice_points(separable_lattice([1.0], [1.0], 1e300))


@pytest.mark.parametrize("make", [
    lambda: Lattice(np.eye(2), np.inf),
    lambda: Lattice(np.eye(2), np.nan),
    lambda: Lattice([[np.nan, 0.0], [0.0, 1.0]], 1.0),
    lambda: separable_lattice([np.nan], [1.0], 1.0),
    lambda: separable_lattice([1.0], [-1.0], 1.0),
])
def test_lattice_rejects_non_finite_or_non_positive_input(make):
    with pytest.raises(InvalidMatrix):
        make()


def test_lattice_map_planck_identity():
    hbar = 1.0 / (2.0 * np.pi)
    lat = separable_lattice([0.5], [0.5], 3.0)
    mapped = lattice_map(lat, planck_scaling(hbar, 1))
    assert np.allclose(mapped.generator, lat.generator)


def test_lattice_map_planck_scaling():
    hbar = 0.05
    lat = separable_lattice([0.5], [0.7], 3.0)
    mapped = lattice_map(lat, planck_scaling(hbar, 1))
    assert np.allclose(mapped.generator, np.diag([0.5, 2.0 * np.pi * hbar * 0.7]))


def test_lattice_map_rotation_same_point_set():
    lat = separable_lattice([1.0], [1.0], 2.5)
    mapped = lattice_map(lat, rotation(np.pi / 2.0))
    a = {tuple(np.round(p, 9)) for p in lattice_points(lat)}
    b = {tuple(np.round(p, 9)) for p in lattice_points(mapped)}
    assert a == b


def test_lattice_map_nonlinear_returns_points():
    lat = separable_lattice([1.0], [1.0], 1.5)
    def g(z):
        return z + z[..., 1:] ** 2 * np.array([1.0, 0.0])

    out = lattice_map(lat, g)
    assert isinstance(out, np.ndarray)
    assert out.shape == (9, 2)
    # one call on the (N, 2n) batch gives the per-point images
    assert np.array_equal(out, np.array([g(z) for z in lattice_points(lat)]))


def test_lattice_map_affine_returns_lattice(rng):
    lat = separable_lattice([0.9], [0.9], 4.0)
    g = AffineSymplectic(rotation(0.4), [0.1, -0.2])
    mapped = lattice_map(lat, g)
    assert isinstance(mapped, Lattice)
    assert np.allclose(mapped.generator, rotation(0.4) @ lat.generator)
    assert np.allclose(mapped.shift, [0.1, -0.2])


def test_lattice_rejects_singular_generator():
    # at any scale; a small generator is not a singular one
    for scale in (1.0, 1e-20):
        for gen in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])):
            with pytest.raises(InvalidMatrix, match="invertible"):
                Lattice(scale * gen, 1.0)
        assert lattice_points(Lattice(scale * np.eye(2), 1.5 * scale)).shape == (9, 2)


def test_shifted_lattice_enumeration():
    # the radial truncation selects indices before the shift is applied
    base = separable_lattice([1.0], [1.0], 1.5)
    shifted = Lattice(base.generator, base.radius, shift=[10.0, -3.0])
    a = lattice_points(base)
    b = lattice_points(shifted)
    assert np.allclose(b - a, [10.0, -3.0])


@pytest.mark.parametrize("n", [1, 2])
def test_adjoint_lattice_is_the_symplectic_dual_basis(rng, n):
    hbar = 0.3
    gen = random_symplectic(rng, n) @ np.diag(rng.uniform(0.5, 1.5, 2 * n))
    lat = Lattice(gen, 5.0, shift=rng.normal(size=2 * n))
    dual = adjoint_lattice(lat, hbar)
    sigma = np.array([[symplectic_form(mu, lam) for lam in gen.T] for mu in dual.generator.T])
    np.testing.assert_allclose(sigma, 2.0 * np.pi * hbar * np.eye(2 * n), atol=1e-12)
    assert dual.radius == 5.0 and not dual.shift.any()
    # the adjoint of the adjoint is the lattice again (generated by -L), and
    # S moves it with S
    np.testing.assert_allclose(adjoint_lattice(dual, hbar).generator, -gen, atol=1e-12)
    S = random_symplectic(rng, n)
    np.testing.assert_allclose(adjoint_lattice(Lattice(S @ gen, 5.0), hbar).generator,
                               S @ dual.generator, atol=1e-12)


def test_adjoint_of_a_separable_lattice():
    # 2 pi hbar (Z/beta x Z/alpha): at 2 pi hbar = 1, alpha Z x beta Z has
    # the adjoint Z/beta x Z/alpha
    pts = lattice_points(adjoint_lattice(separable_lattice([0.5], [0.8], 6.0), 1 / (2 * np.pi)))
    ref = lattice_points(separable_lattice([1 / 0.8], [1 / 0.5], 6.0))
    order = np.lexsort(pts.T)
    np.testing.assert_allclose(pts[order], ref[np.lexsort(ref.T)], atol=1e-14)


def test_operations_accept_phase_points():
    z = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert symplectic_form(z, w) == -1.0
    g = AffineSymplectic.translation(z)
    assert np.allclose(g(w), [1.0, 1.0])
