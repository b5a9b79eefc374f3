import math

import numpy as np
import pytest

from lyapmetric import parse_expression, parse_system
from lyapmetric.errors import (
    DimensionMismatchError,
    DomainEvaluationError,
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
    (jet,) = m.jet2([0.0])
    assert jet.value == 0.0
    assert jet.grad[0] == pytest.approx(-1.0, abs=1e-15)
    assert jet.hess[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_jet_linear_field():
    m = parse_system(LINEAR)
    (jet,) = m.jet2([3.0])
    assert jet.value == -3.0
    assert jet.grad[0] == -1.0
    assert jet.hess[0, 0] == 0.0


def test_jet_scalar_example_at_one():
    # hand differentiation: F'(e) = (e^2-1)/(1+e^2)^2 so F'(1) = 0,
    # F''(e) = 2e(3-e^2)/(1+e^2)^3 so F''(1) = 1/2
    m = parse_system(SCALAR)
    (jet,) = m.jet2([1.0])
    assert jet.value == pytest.approx(-0.5, abs=1e-15)
    assert jet.grad[0] == pytest.approx(0.0, abs=1e-15)
    assert jet.hess[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    for text in (SCALAR, LINEAR, PLANAR):
        model = parse_system(text)
        full = model.as_full_system() if hasattr(model, "as_full_system") else model
        n = full.dim
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, n)
            jets = full.jet2(x)
            h = 1e-6
            for k, jet in enumerate(jets):
                for j in range(n):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fd = (full.f(xp)[k] - full.f(xm)[k]) / (2 * h)
                    scale = max(1.0, abs(jet.grad[j]))
                    assert abs(jet.grad[j] - fd) <= 1e-6 * scale


def test_hessian_exactly_symmetric():
    model = parse_system(PLANAR).as_full_system()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, 2)
        for jet in model.jet2(x):
            assert np.array_equal(jet.hess, jet.hess.T)


def test_jacobian_closure_matches_jets():
    model = parse_system(PLANAR).as_full_system()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, 2)
        jac = model.jac(x)
        jets = model.jet2(x)
        grads = np.array([j.grad for j in jets])
        assert np.allclose(jac, grads, rtol=0, atol=1e-13)


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
    with pytest.raises(DimensionMismatchError):
        parse_system("dim=1; F1 = -x2")


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


def test_log_of_nonpositive_is_domain_error():
    m = parse_system("dim=1; F1 = ln(x1)")
    with pytest.raises(DomainEvaluationError):
        m.f(np.array([-1.0]))


def test_param_override():
    m = parse_system("dim=1; F1 = -k*x1; k=1.0", params={"k": 2.5})
    assert m.f(np.array([2.0]))[0] == -5.0
