import math

import numpy as np
import pytest

import lyapmetric
from lyapmetric import SystemModel, parse_expression, parse_system
from lyapmetric.dynamics import lifted_system
from lyapmetric.errors import (
    DimensionMismatchError,
    DomainEvaluationError,
    LyapmetricError,
    SpecTextError,
    UnknownIdentifierError,
)
from lyapmetric.expressions import parse_spec_text

SCALAR = "dim=1; F1 = -x1/(1+x1^2)"
LINEAR = "dim=1; F1 = -x1"
PLANAR = "dim=2; e_dim=1; F1 = -(lam + x2*sin(x2))*x1; G1 = mu*x2; lam=1.0; mu=1.0"


def test_parse_scalar_example():
    m = parse_system(SCALAR)
    assert m.dim == 1
    for e in (0.0, 0.5, 1.0, -2.0):
        assert m.f(np.array([e]))[0] == pytest.approx(-e / (1 + e * e), abs=1e-15)


def test_parse_linear_baseline():
    m = parse_system(LINEAR)
    assert m.f(np.array([3.0]))[0] == -3.0
    assert m.jac(np.array([3.0]))[0, 0] == -1.0


def test_parse_planar_counterexample():
    m = parse_system(PLANAR)
    assert m.n_e == 1 and m.n_x == 1
    e, x = np.array([1.0]), np.array([2.0])
    expected = -(1.0 + 2.0 * math.sin(2.0)) * 1.0
    assert m.f_block(e, x)[0] == pytest.approx(expected, rel=1e-15)
    assert m.g_block(e, x)[0] == 2.0


def test_parse_is_deterministic():
    a = parse_system(SCALAR)
    b = parse_system(SCALAR)
    pts = np.linspace(-3, 3, 17)
    for p in pts:
        assert a.f(np.array([p]))[0] == b.f(np.array([p]))[0]


def test_jet_odd_function_at_origin():
    m = parse_system(SCALAR)
    jet = m.jet2([0.0])
    assert jet.value[0] == 0.0
    assert jet.grad[0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert jet.hess[0, 0, 0] == pytest.approx(0.0, abs=1e-15)


def test_jet_linear_field():
    m = parse_system(LINEAR)
    jet = m.jet2([3.0])
    assert jet.value[0] == -3.0
    assert jet.grad[0, 0] == -1.0
    assert jet.hess[0, 0, 0] == 0.0


def test_jet_scalar_example_at_one():
    # hand differentiation: F'(e) = (e^2-1)/(1+e^2)^2 so F'(1) = 0,
    # F''(e) = 2e(3-e^2)/(1+e^2)^3 so F''(1) = 1/2
    m = parse_system(SCALAR)
    jet = m.jet2([1.0])
    assert jet.value[0] == pytest.approx(-0.5, abs=1e-15)
    assert jet.grad[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert jet.hess[0, 0, 0] == pytest.approx(0.5, abs=1e-14)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    for text in (SCALAR, LINEAR, PLANAR):
        model = parse_system(text)
        full = getattr(model, "full", model)
        n = full.dim
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, n)
            grad = full.jet2(x).grad
            h = 1e-6
            for k in range(n):
                for j in range(n):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fd = (full.f(xp)[k] - full.f(xm)[k]) / (2 * h)
                    scale = max(1.0, abs(grad[k, j]))
                    assert abs(grad[k, j] - fd) <= 1e-6 * scale


def test_hessian_exactly_symmetric():
    model = parse_system(PLANAR).full
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, 2)
        for hess in model.jet2(x).hess:
            assert np.array_equal(hess, hess.T)


def test_hessian_matches_jacobian_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for text in (PLANAR, SCALAR):
        model = parse_system(text)
        model = getattr(model, "full", model)
        n = model.dim
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, n)
            hess = model.hess(x)
            for j in range(n):
                step = np.zeros(n)
                step[j] = h
                fd = (model.jac(x + step) - model.jac(x - step)) / (2 * h)
                assert np.allclose(hess[:, :, j], fd, rtol=1e-6, atol=1e-6)


def _chain_hessian(d1, d2):
    """Hessian of f(u) at u = x1*x2, (x1, x2) = (0.7, 0.4), from f'(u), f''(u)."""
    grad_u = np.array([0.4, 0.7])
    return d2 * np.outer(grad_u, grad_u) + d1 * np.array([[0.0, 1.0], [1.0, 0.0]])


_U = 0.7 * 0.4


@pytest.mark.parametrize("text, expected", [
    ("sin(x1*x2)", _chain_hessian(math.cos(_U), -math.sin(_U))),
    ("cos(x1*x2)", _chain_hessian(-math.sin(_U), -math.cos(_U))),
    ("exp(x1*x2)", _chain_hessian(math.exp(_U), math.exp(_U))),
    ("ln(x1*x2)", _chain_hessian(1.0 / _U, -1.0 / _U**2)),
    ("sqrt(x1*x2)", _chain_hessian(0.5 / math.sqrt(_U), -0.25 * _U**-1.5)),
    ("abs2(x1*x2)", _chain_hessian(2.0 * _U, 2.0)),
    ("(x1*x2)^1.5", _chain_hessian(1.5 * _U**0.5, 0.75 * _U**-0.5)),
    ("x1/x2", np.array([[0.0, -1.0 / 0.4**2],
                        [-1.0 / 0.4**2, 2.0 * 0.7 / 0.4**3]])),
])
def test_hessian_closed_form(text, expected):
    model = parse_system(f"dim=2; F1 = {text}; F2 = 0")
    hess = model.hess(np.array([0.7, 0.4]))
    assert np.allclose(hess[0], expected, rtol=1e-14, atol=1e-14)
    assert np.array_equal(hess[1], np.zeros((2, 2)))


def test_every_exported_name_resolves():
    for name in lyapmetric.__all__:
        assert hasattr(lyapmetric, name), name


def test_linear_model_jet_has_zero_hessians():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    x = np.array([0.5, -1.0])
    jet = SystemModel.from_linear(a).jet2(x)
    assert np.array_equal(jet.value, a @ x)
    assert np.array_equal(jet.grad, a)
    assert np.array_equal(jet.hess, np.zeros((2, 2, 2)))


def test_c1_model_jet_is_rejected():
    # a model built without Hessians is C1, whoever built it
    model = SystemModel(dim=1, f=lambda x: -x, jac=lambda x: -np.eye(1))
    with pytest.raises(LyapmetricError, match="C1"):
        model.jet2([0.5])


def test_pretty_print_round_trip():
    rng = np.random.default_rng(5)
    parsed = parse_spec_text(PLANAR)
    again = parse_spec_text(parsed.to_text())
    pts = rng.uniform(-4.0, 4.0, size=(100, 2))
    trees = parsed.f_trees + parsed.g_trees
    trees2 = again.f_trees + again.g_trees
    for x in pts:
        for t1, t2 in zip(trees, trees2):
            assert t1.eval(x, parsed.params) == t2.eval(x, again.params)


def test_reserved_constants():
    tree = parse_expression("pi + e")
    assert tree.eval((), {}) == pytest.approx(math.pi + math.e, rel=1e-16)


def test_supported_functions():
    x = np.array([0.7])
    cases = {
        "sin(x1)": math.sin(0.7),
        "cos(x1)": math.cos(0.7),
        "exp(x1)": math.exp(0.7),
        "ln(x1)": math.log(0.7),
        "sqrt(x1)": math.sqrt(0.7),
        "abs2(x1)": 0.49,
        "x1^3": 0.7 ** 3,
    }
    for text, expected in cases.items():
        assert parse_expression(text).eval(x, {}) == pytest.approx(expected, rel=1e-15)


def test_syntax_error_carries_position():
    with pytest.raises(SpecTextError) as err:
        parse_system("dim=1; F1 = -x1 + * 2")
    assert err.value.position is not None


def test_q_statement_rejected():
    # Q is set with --Q only; no metric reads a system text's Q
    with pytest.raises(SpecTextError, match="--Q"):
        parse_system("dim=1; F1=-x1; Q = 2")


def test_unknown_identifier_rejected():
    with pytest.raises(UnknownIdentifierError):
        parse_system("dim=1; F1 = -alpha*x1")


def test_variable_out_of_range_rejected():
    for text in ("dim=1; F1 = -x2", "dim=1; F1 = -x0"):
        with pytest.raises(DimensionMismatchError):
            parse_system(text)


def test_missing_component_rejected():
    with pytest.raises(DimensionMismatchError):
        parse_system("dim=2; F1 = -x1")


def test_nonconstant_exponent_rejected():
    with pytest.raises(SpecTextError):
        parse_system("dim=1; F1 = x1^x1")


def test_division_by_zero_reports_subexpression():
    m = parse_system("dim=1; F1 = 1/x1")
    with pytest.raises(DomainEvaluationError) as err:
        m.f(np.array([0.0]))
    assert "x1" in str(err.value)


def test_fractional_power_of_negative_base_is_domain_error():
    m = parse_system("dim=1; F1 = x1^0.5")
    assert m.f(np.array([4.0]))[0] == 2.0
    with pytest.raises(DomainEvaluationError):
        m.f(np.array([-2.0]))
    with pytest.raises(DomainEvaluationError):
        m.jet2([-2.0])
    # under a function the power is still typed, not a TypeError of sin
    m = parse_system("dim=1; F1 = -x1 - 0.1*sin(x1^0.5)")
    assert m.f([2.0])[0] == -2.0 - 0.1 * math.sin(2.0 ** 0.5)
    with pytest.raises(DomainEvaluationError) as err:
        m.f(np.array([-1.0]))
    assert str(err.value) == ("fractional power of a negative base in "
                              "subexpression '(x1 ^ 0.5)'")


def test_log_of_nonpositive_is_domain_error():
    m = parse_system("dim=1; F1 = ln(x1)")
    with pytest.raises(DomainEvaluationError):
        m.f(np.array([-1.0]))


def test_param_override():
    m = parse_system("dim=1; F1 = -k*x1; k=1.0", params={"k": 2.5})
    assert m.f(np.array([2.0]))[0] == -5.0


def test_compiled_lift_is_cached_and_flags_domain_exits():
    parsed = parse_spec_text("dim=1; F1 = -x1^0.5")
    lift = parsed.compiled_lift()
    assert parsed.compiled_lift() is lift
    with_q = parsed.compiled_lift(np.eye(1))
    assert with_q is not lift
    assert parsed.compiled_lift([[1.0]]) is with_q
    # [F | J Phi] at x = 4, Phi = 1, a tuple of floats as the solver
    # passes it; with Q, Phi' Q Phi follows
    assert lift(0.0, (4.0, 1.0)) == (-2.0, -0.25)
    assert with_q(0.0, (4.0, 3.0, 0.0)) == (-2.0, -0.75, 9.0)
    # off the real domain: the typed error of the generic lift
    model = SystemModel.from_parsed(parsed)
    generic = lifted_system(lambda e: (model.f(e), model.jac(e)), 1, 1)
    with pytest.raises(DomainEvaluationError) as want:
        generic.rhs(0.0, (-4.0, 1.0))
    with pytest.raises(DomainEvaluationError) as got:
        lift(0.0, (-4.0, 1.0))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, params", [
    ("dim=1; F1 = -x1^1e400", None),
    ("dim=1; F1 = -x1 + 0*x1^(1e400-1e400)", None),
    ("dim=1; F1 = -x1*1e400", None),
    ("dim=1; F1 = -k*x1; k = 1e300*1e300", None),
    ("dim=1; F1 = -x1^(1e300*1e300)", None),
    ("dim=1; F1 = -k*x1; k = 1", {"k": math.inf}),
    ("dim=1; F1 = -k*x1; k = 1", {"k": math.nan}),
], ids=["literal-exponent", "nan-exponent", "literal-factor",
        "parameter", "folded-exponent", "override-inf", "override-nan"])
def test_non_finite_constants_are_spec_errors(text, params):
    with pytest.raises(SpecTextError):
        parse_system(text, params=params)


def test_overflowing_derivative_constant_compiles():
    # finite literals can fold to a non-finite derivative constant
    m = parse_system("dim=1; F1 = x1*1e300*1e300")
    assert m.jac([0.0])[0, 0] == math.inf
    assert m.source.compiled_lift()(0.0, (0.0, 1.0)) == (0.0, math.inf)
    m = parse_system("dim=1; F1 = x1*1e300*1e300 - x1*1e300*1e300")
    assert math.isnan(m.jac([0.0])[0, 0])
