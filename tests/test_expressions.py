import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from gaborflow.dynamics import fd_gradient, fd_hessian, builtin_hamiltonian
from gaborflow.errors import GaborflowError
from gaborflow.expressions import (
    EvalDomainError,
    ParseError,
    eval_with_derivatives,
    expression_hamiltonian,
    parse_hamiltonian,
    to_source,
)


def random_expression(rng, n: int, depth: int) -> str:
    """Generated expression source that stays smooth and well-scaled on the
    probe box, so finite differences are a meaningful oracle."""
    if depth == 0:
        roll = rng.random()
        if roll < 0.35:
            return format(rng.uniform(0.3, 2.0), ".3f")
        if roll < 0.45:
            return "t"
        kind = "x" if rng.random() < 0.5 else "p"
        return f"{kind}{rng.integers(1, n + 1)}"
    op = rng.choice(["+", "-", "*", "/", "^int", "^frac", "sin", "cos", "exp", "sqrt"],
                    p=[0.2, 0.15, 0.2, 0.08, 0.08, 0.04, 0.08, 0.07, 0.05, 0.05])
    a = random_expression(rng, n, depth - 1)
    if op in ("+", "-", "*"):
        b = random_expression(rng, n, depth - 1)
        return f"({a}) {op} ({b})"
    if op == "/":
        b = random_expression(rng, n, depth - 1)
        return f"({a}) / (({b})^2 + 1)"
    if op == "^int":
        return f"({a})^{rng.integers(2, 4)}"
    if op == "^frac":
        return f"(({a})^2 + 1)^1.5"
    if op == "exp":
        return f"exp(0.3 * ({a}))"
    if op == "sqrt":
        return f"sqrt(({a})^2 + 1)"
    return f"{op}({a})"


def expression_corpus(count: int, n: int = 1, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [random_expression(rng, n, int(rng.integers(1, 4))) for _ in range(count)]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_and_evaluate_reference_expression():
    ast = parse_hamiltonian("p1^2/2 + x1^4/4", 1)
    value, grad, hess = eval_with_derivatives(ast, [1.0, 2.0], 0.0, 1)
    assert value == pytest.approx(2.25, abs=1e-14)
    assert np.allclose(grad, [1.0, 2.0])
    assert np.allclose(hess, [[3.0, 0.0], [0.0, 1.0]])


def test_incomplete_expression_error_offset():
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("x1 +", 1)
    assert err.value.offset == 4
    assert err.value.expected


def test_unknown_identifier_error():
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("y1 + 2", 1)
    assert err.value.offset == 0


def test_out_of_dimension_variable():
    with pytest.raises(ParseError):
        parse_hamiltonian("x3", 2)


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("sin(x1", 1)
    assert err.value.offset == len("sin(x1")


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("x1 @ 2", 1)
    assert err.value.offset == 3


def test_power_is_right_associative():
    ast = parse_hamiltonian("2^x1^2", 1)
    v, _, _ = eval_with_derivatives(ast, [1.5, 0.0], 0.0, 1)
    assert v == pytest.approx(2.0 ** (1.5**2), rel=1e-14)


def test_unary_minus_precedence():
    v, _, _ = eval_with_derivatives(parse_hamiltonian("-x1^2", 1), [2.0, 0.0], 0.0, 1)
    assert v == -4.0


def test_builtin_equivalence_on_probes(rng):
    He = expression_hamiltonian("(x1^2+p1^2)/2", 1)
    Hb = builtin_hamiltonian("harmonic")
    for _ in range(100):
        z = rng.normal(0.0, 2.0, 2)
        assert He.value(z, 0.0) == pytest.approx(Hb.value(z, 0.0), abs=1e-12)


def test_constant_expression_has_zero_derivatives():
    v, g, h = eval_with_derivatives(parse_hamiltonian("3", 1), [1.0, 2.0], 0.0, 1)
    assert v == 3.0
    assert np.all(g == 0.0)
    assert np.all(h == 0.0)


def test_time_variable_is_parameter():
    ast = parse_hamiltonian("t * x1", 1)
    v, g, _ = eval_with_derivatives(ast, [2.0, 0.0], 0.5, 1)
    assert v == 1.0
    assert np.allclose(g, [0.5, 0.0])


# ---------------------------------------------------------------------------
# Domain errors
# ---------------------------------------------------------------------------

def test_domain_error_sqrt():
    ast = parse_hamiltonian("sqrt(x1)", 1)
    with pytest.raises(EvalDomainError) as err:
        eval_with_derivatives(ast, [-1.0, 0.0], 0.0, 1)
    assert err.value.span == (0, 8)


def test_domain_error_division():
    ast = parse_hamiltonian("1/(x1 - 1)", 1)
    with pytest.raises(EvalDomainError):
        eval_with_derivatives(ast, [1.0, 0.0], 0.0, 1)


def test_domain_error_fractional_power():
    ast = parse_hamiltonian("x1^0.5", 1)
    with pytest.raises(EvalDomainError):
        eval_with_derivatives(ast, [-2.0, 0.0], 0.0, 1)


def test_integer_power_valid_at_negative_base():
    ast = parse_hamiltonian("x1^3", 1)
    v, g, h = eval_with_derivatives(ast, [-2.0, 0.0], 0.0, 1)
    assert v == -8.0
    assert g[0] == 12.0
    assert h[0, 0] == -12.0


@pytest.mark.parametrize("row", [0, 2])
def test_domain_error_in_any_batch_row(row):
    H = expression_hamiltonian("p1 + sqrt(x1)", 1)
    Z = np.array([[1.0, 0.0], [2.0, 0.5], [3.0, 1.0]])
    Z[row, 0] = -1.0
    for fn in (H.value, H.gradient, H.hessian):
        with pytest.raises(EvalDomainError) as err:
            fn(Z, 0.0)
        assert err.value.span == (5, 13)


@pytest.mark.parametrize("z", [[9e7, 0.0], [[0.5, 0.0], [9e7, 0.0]]])
def test_overflow_raises_domain_error_with_span(z):
    # an overflow raises at the node that overflowed, with no RuntimeWarning
    H = expression_hamiltonian("p1^2/2 + x1^40", 1)
    for fn in (H.value, H.gradient):
        with pytest.raises(EvalDomainError, match="overflow") as err:
            fn(np.array(z), 0.0)
        assert err.value.span == (9, 14)


def test_gradient_evaluates_no_hessian():
    # only the Hessian entry, 2.4e308, overflows
    H = expression_hamiltonian("2e307 * x1^4", 1)
    z = np.array([1.0, 0.0])
    assert H.value(z, 0.0) == 2e307
    assert np.array_equal(H.gradient(z, 0.0), [8e307, 0.0])
    with pytest.raises(EvalDomainError, match="overflow"):
        H.hessian(z, 0.0)


# ---------------------------------------------------------------------------
# Round trips and derivative oracle
# ---------------------------------------------------------------------------

def _equivalent(src_a: str, src_b: str, n: int, probes) -> bool:
    ast_a = parse_hamiltonian(src_a, n)
    ast_b = parse_hamiltonian(src_b, n)
    for z, t in probes:
        va = eval_with_derivatives(ast_a, z, t, n)[0]
        vb = eval_with_derivatives(ast_b, z, t, n)[0]
        if abs(va - vb) > 1e-12 * max(1.0, abs(va)):
            return False
    return True


def test_corpus_round_trip_and_derivatives(rng):
    corpus = expression_corpus(200, n=1, seed=7)
    probes = [(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.0, 1.0)) for _ in range(5)]
    for src in corpus:
        ast = parse_hamiltonian(src, 1)
        assert _equivalent(src, to_source(ast), 1, probes)
        z, t = probes[0]
        value, grad, hess = eval_with_derivatives(ast, z, t, 1)
        fd_g = fd_gradient(lambda zz, tt: eval_with_derivatives(ast, zz, tt, 1)[0], z, t)
        assert np.max(np.abs(grad - fd_g)) <= 1e-7 * max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(hess - hess.T)) == 0.0


def test_hessian_against_fd(rng):
    for src in expression_corpus(20, n=1, seed=11):
        ast = parse_hamiltonian(src, 1)
        z, t = rng.uniform(-1.0, 1.0, 2), 0.3
        _, _, hess = eval_with_derivatives(ast, z, t, 1)
        fd_h = fd_hessian(lambda zz, tt: eval_with_derivatives(ast, zz, tt, 1)[0], z, t)
        assert np.max(np.abs(hess - fd_h)) <= 5e-5 * max(1.0, np.max(np.abs(hess)))


@given(seed=st.integers(min_value=0, max_value=10**6))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    src = random_expression(rng, 2, int(rng.integers(1, 4)))
    ast = parse_hamiltonian(src, 2)
    printed = to_source(ast)
    probe_rng = np.random.default_rng(seed + 1)
    probes = [(probe_rng.uniform(-1.0, 1.0, 4), 0.2)]
    assert _equivalent(src, printed, 2, probes)


def test_compiled_batch_equals_per_row_calls(rng):
    Z = rng.uniform(-1.0, 1.0, (2, 3, 4))
    for src in expression_corpus(60, n=2, seed=5):
        H = expression_hamiltonian(src, 2)
        for name, tail in (("value", ()), ("gradient", (4,)), ("hessian", (4, 4))):
            batch = getattr(H, name)(Z, 0.3)
            assert batch.shape == (2, 3) + tail
            rows = np.array([getattr(H, name)(z, 0.3) for z in Z.reshape(-1, 4)])
            # numpy's SIMD power may round an array's powers unlike libm pow
            np.testing.assert_allclose(batch.reshape(rows.shape), rows, rtol=1e-12, atol=1e-14)
        hess = H.hessian(Z, 0.3)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


def test_expression_hamiltonian_time_dependence_flag():
    assert expression_hamiltonian("x1^2", 1).autonomous
    assert not expression_hamiltonian("x1 * sin(t)", 1).autonomous


def test_expression_hamiltonian_integrates():
    from gaborflow.dynamics import integrate

    H = expression_hamiltonian("(x1^2 + p1^2)/2", 1)
    traj = integrate(H, [1.0, 0.0], 1.0, 400, method="rk4")
    assert np.linalg.norm(traj.final_point - [np.cos(1.0), -np.sin(1.0)]) < 1e-8


def test_package_exports_the_expression_names_on_first_use():
    import gaborflow
    import gaborflow.expressions as expressions

    for name in ("ParseError", "eval_with_derivatives", "expression_hamiltonian",
                 "parse_hamiltonian", "to_source"):
        assert getattr(gaborflow, name) is getattr(expressions, name)
        assert name in gaborflow.__all__
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        gaborflow.not_a_name
