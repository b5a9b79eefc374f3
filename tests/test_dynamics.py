import dataclasses
import math

import numpy as np
import pytest

from lyapmetric import catalog, expressions, integrate, parse_system
from lyapmetric.dynamics import (
    Trajectory,
    flow,
    lifted_system,
    model_lift,
    transverse_flow,
    variational_flow,
)
from lyapmetric.errors import (
    BlowUpError,
    DomainEvaluationError,
    LyapmetricError,
)
from lyapmetric.systems import SystemModel


@pytest.fixture(scope="module")
def scalar_model():
    return catalog.get("scalar-example").build()


def test_linear_flow_value():
    m = parse_system("dim=1; F1 = -x1")
    traj = flow(m, [1.0], 1.0, tol=1e-10)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_scalar_example_implicit_relation(scalar_model):
    traj = flow(scalar_model, [1.0], 2.0, tol=1e-9)
    big_e = traj.states[-1, 0]
    assert big_e**2 * math.exp(big_e**2) == pytest.approx(
        math.exp(1.0) * math.exp(-4.0), abs=1e-6)


def test_counterexample_envelope():
    # |E| <= exp((cos 1 + 1)/mu_x) exp(-lam t) |e0| for the x0 = 1 family
    lam, mu_x = 1.0, 1.0
    model = catalog.get("transverse-counterexample").build(
        {"lam": lam, "mu_x": mu_x}).full
    gain = catalog.counterexample_uniform_gain(mu_x)
    traj = flow(model, [1.0, 1.0], 3.0, tol=1e-9, blowup_norm=1e9)
    bound = gain * np.exp(-lam * traj.t)
    assert np.all(np.abs(traj.states[:, 0]) <= bound + 1e-12)


def test_variational_linear_transition():
    m = parse_system("dim=1; F1 = -x1")
    for t in (0.3, 1.0, 2.0):
        traj = variational_flow(m, [4.0], t, tol=1e-11)
        assert traj.phi[-1, 0, 0] == pytest.approx(math.exp(-t), abs=1e-9)


def test_variational_scalar_example_against_oracles(scalar_model):
    # two independent routes: the 1-D transition identity and a nested
    # quadrature of the Jacobian along the implicit-equation solution
    for t in (0.5, 1.0, 2.0):
        phi = variational_flow(scalar_model, [1.0], t,
                               tol=1e-11).phi[-1, 0, 0]
        assert phi == pytest.approx(
            catalog.scalar_example_transition_oracle(1.0, t), abs=1e-6)
        assert phi == pytest.approx(
            catalog.scalar_example_transition_oracle(1.0, t, nested=True), abs=1e-6)


def test_semigroup_property(scalar_model):
    tol = 1e-9
    rng = np.random.default_rng(23)
    for _ in range(5):
        e0 = rng.uniform(-2.0, 2.0, 1)
        s, t = rng.uniform(0.2, 1.5, 2)
        a = flow(scalar_model, e0, s, tol=tol)
        b = flow(scalar_model, a.states[-1], t, tol=tol)
        c = flow(scalar_model, e0, s + t, tol=tol)
        assert np.max(np.abs(b.states[-1] - c.states[-1])) <= 10 * tol


def test_cocycle_property():
    tol = 1e-9
    a_mat = np.array([[0.0, 1.0], [-1.0, -1.0]])
    model = SystemModel.from_linear(a_mat)
    rng = np.random.default_rng(31)
    for _ in range(4):
        e0 = rng.uniform(-1.0, 1.0, 2)
        t, r = rng.uniform(0.2, 1.2, 2)
        first = variational_flow(model, e0, t, tol=tol)
        second = variational_flow(model, first.states[-1], r, tol=tol)
        joint = variational_flow(model, e0, t + r, tol=tol)
        lhs = second.phi[-1] @ first.phi[-1]
        assert np.max(np.abs(lhs - joint.phi[-1])) <= 10 * tol


def test_cocycle_property_nonlinear(scalar_model):
    tol = 1e-10
    for e0, t, r in ((1.0, 0.7, 0.9), (-1.5, 0.4, 1.3)):
        first = variational_flow(scalar_model, [e0], t, tol=tol)
        second = variational_flow(scalar_model, first.states[-1], r, tol=tol)
        joint = variational_flow(scalar_model, [e0], t + r, tol=tol)
        lhs = second.phi[-1] @ first.phi[-1]
        assert np.max(np.abs(lhs - joint.phi[-1])) <= 10 * tol


def test_transverse_phi_against_quadrature_oracle():
    model = catalog.get("transverse-counterexample").build(
        {"lam": 0.5, "mu_x": 1.0})
    traj = transverse_flow(model, [1.0], 2.5, tol=1e-10)
    for tq in (0.8, 1.6, 2.5):
        i = int(np.argmin(np.abs(traj.t - tq)))
        ref = catalog.counterexample_transverse_phi_oracle(1.0, traj.t[i], 0.5, 1.0)
        assert traj.phi[i, 0, 0] == pytest.approx(ref, abs=1e-6)


def test_manifold_step_is_drift_and_transverse_jacobian():
    # the one object that the transverse flow and metric both lift, and
    # that the residual check reads as a model: s(x) = (s.f(x), s.jac(x))
    model = catalog.get("transverse-counterexample").build(
        {"lam": 2.0, "mu_x": 1.0})
    step = model.manifold_step()
    assert step.dim == model.n_x
    for x in (0.5, -1.3, 0.0, 2.7):
        point = np.array([x])
        drift, a = step(point)
        assert np.array_equal(drift, model.full.f([0.0, x])[1:])
        assert np.array_equal(a, model.full.jac([0.0, x])[:1, :1])
        assert np.array_equal(drift, step.f(point))
        assert np.array_equal(a, step.jac(point))
        assert a[0, 0] == pytest.approx(-(2.0 + x * math.sin(x)), rel=1e-15)


def test_transverse_decoupled_case_matches_single_system():
    # F independent of x: the transverse transition equals the plain one
    model = parse_system("dim=2; e_dim=1; F1 = -x1; G1 = x2")
    traj = transverse_flow(model, [0.5], 1.5, tol=1e-10)
    single = parse_system("dim=1; F1 = -x1")
    for tq in (0.5, 1.0, 1.5):
        i = int(np.argmin(np.abs(traj.t - tq)))
        ref = variational_flow(single, [1.0], traj.t[i], tol=1e-10)
        assert traj.phi[i, 0, 0] == pytest.approx(ref.phi[-1, 0, 0], abs=1e-9)


def test_variation_no_decay_demo():
    # slow transverse regime: the lifted response to dx0 never settles
    model = catalog.get("transverse-counterexample").build(
        {"lam": 0.5, "mu_x": 1.0}).full
    traj = variational_flow(model, [1.0, 1.0], 10.0, tol=2e-3, blowup_norm=1e9)
    de = np.abs(traj.phi[:, 0, 1])
    i01 = int(np.argmin(np.abs(traj.t - 0.1)))
    assert np.max(de) >= 10.0 * de[i01]


def test_linearity_of_variation(scalar_model):
    traj = variational_flow(scalar_model, [1.2], 1.0, tol=1e-10)
    phi = traj.phi[-1]
    delta = np.array([0.3])
    assert np.array_equal(phi @ (2.0 * delta), 2.0 * (phi @ delta))


def test_tolerance_refinement_is_monotone(scalar_model):
    # a flow is near its floor already at tol 1e-4 (errors 8.8e-9 there and
    # 1.2e-8 at 1e-6), so it is held to a tenth of tol; the monotone
    # refinement is test_integrate's exponential accuracy test
    want = catalog.scalar_example_oracle(1.0, 2.0)
    for tol in (1e-4, 1e-6, 1e-8):
        traj = flow(scalar_model, [1.0], 2.0, tol=tol)
        assert abs(traj.states[-1, 0] - want) <= 0.1 * tol


def test_blowup_reported():
    m = parse_system("dim=1; F1 = x1^2")
    with pytest.raises(BlowUpError):
        flow(m, [1.0], 2.0, tol=1e-9)


def test_tolerance_range_enforced():
    m = parse_system("dim=1; F1 = -x1")
    with pytest.raises(LyapmetricError):
        flow(m, [1.0], 1.0, tol=0.5)
    with pytest.raises(LyapmetricError):
        flow(m, [1.0], 1.0, tol=1e-15)


def test_dense_output_below_tolerance():
    m = parse_system("dim=1; F1 = -x1")
    tol = 1e-9
    for t in np.linspace(0.0, 3.0, 40):
        state = flow(m, [1.0], t, tol=tol).states[-1, 0]
        assert abs(state - math.exp(-t)) <= 20 * tol


def test_phi_at_zero_is_identity(scalar_model):
    traj = variational_flow(scalar_model, [0.7], 1.0, tol=1e-9)
    assert np.array_equal(traj.phi[0], np.eye(1))


def test_hermite_points_reproduce_cubics():
    # the cubic Hermite interpolant is exact on cubics: states t^3 - t and
    # a Phi block 2 t^3 + 1 on uneven steps, read at 1/4, 1/2, 3/4 of each
    t = np.array([0.0, 0.3, 1.0, 1.1, 2.5])
    traj = Trajectory(t=t, states=(t ** 3 - t)[:, None],
                      phi=(2 * t ** 3 + 1)[:, None, None],
                      d_states=(3 * t ** 2 - 1)[:, None],
                      d_phi=(6 * t ** 2)[:, None, None])
    inner = traj.hermite_points(3)
    want_t = np.concatenate([a + np.array([0.25, 0.5, 0.75]) * (b - a)
                             for a, b in zip(t[:-1], t[1:])])
    np.testing.assert_allclose(inner.t, want_t, rtol=0, atol=1e-15)
    np.testing.assert_allclose(inner.states[:, 0], want_t ** 3 - want_t,
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(inner.phi[:, 0, 0], 2 * want_t ** 3 + 1,
                               rtol=1e-13)
    # a plain flow carries the derivatives its points need, within the
    # cubic's own error h^4 |y^(4)| / 384 on the 8(5,3) pair's steps (h up
    # to 0.42 here: 7.9e-5 relative); one node has no step to fill
    points = flow(parse_system("dim=1; F1 = -x1"), [1.0], 2.0).hermite_points(3)
    np.testing.assert_allclose(points.states[:, 0], np.exp(-points.t),
                               rtol=1e-4)
    assert len(Trajectory(t=t[:1], states=np.ones((1, 1)))
               .hermite_points(3).t) == 0


def test_trajectory_csv_round_trip(tmp_path, scalar_model):
    traj = variational_flow(scalar_model, [1.0], 1.0, tol=1e-9)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "e_1", "phi_11"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], traj.t, rtol=0, atol=0)
    assert np.allclose(data[:, 1], traj.states[:, 0], rtol=1e-16, atol=0)


def test_trajectory_csv_matrix_columns(tmp_path):
    model = SystemModel.from_linear(np.array([[0.0, 1.0], [-1.0, -1.0]]))
    traj = variational_flow(model, [1.0, 0.0], 0.5, tol=1e-9)
    path = tmp_path / "traj2.csv"
    traj.to_csv(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "e_1", "e_2",
                      "phi_11", "phi_12", "phi_21", "phi_22"]


# -- the fused lift of a parsed model against the generic lifted_system ------

EVERY_FUNCTION_TEXT = (
    "dim = 3; a = 0.7\n"
    "F1 = sin(x1) * exp(-x2) + a * x3^3 / (2 + cos(x2))\n"
    "F2 = ln(2 + abs2(x1)) - log(3 + x3 ** 2) + pi * sqrt(1 + x2^2) - e\n"
    "F3 = -x3 + x1 * x2 - (x1 - x2)^2 / 4\n"
)


def _generic_lift(model, q=None):
    f, jac = model.f, model.jac
    return lifted_system(lambda e: (f(e), jac(e)), model.dim, model.dim, q)


def _random_spd(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T + n * np.eye(n)


@pytest.mark.parametrize("model", [
    parse_system("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2"),
    catalog.get("transverse-counterexample").build().full,
    catalog.get("scalar-example").build(),
    parse_system(EVERY_FUNCTION_TEXT),
], ids=["planar", "transverse-full", "scalar-example", "every-function"])
@pytest.mark.parametrize("with_q", [False, True], ids=["no-Q", "Q"])
def test_fused_lift_matches_generic(model, with_q):
    rng = np.random.default_rng(7)
    n = model.dim
    q = _random_spd(rng, n) if with_q else None
    fused, generic = model_lift(model, q), _generic_lift(model, q)
    assert model.source is not None
    for _ in range(200):
        y = np.concatenate([rng.uniform(-2.0, 2.0, n), rng.normal(size=n * n),
                            rng.normal(size=n * n if with_q else 0)])
        y = tuple(y.tolist())   # the state as the solver passes it
        want = np.asarray(generic.rhs(0.0, y))
        got = np.asarray(fused.rhs(0.0, y))
        assert got.shape == want.shape
        scale = float(np.max(np.abs(want)))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("text, point", [
    ("dim=2; F1 = -x1 + x2 / x1; F2 = -x2", [0.0, 1.0]),
    ("dim=2; F1 = -x1 + x2 / x1; F2 = -x2", [0.5, 1.0]),
    ("dim=2; F1 = -x1^1.5; F2 = -x2 + x1", [-0.5, 0.2]),
    ("dim=2; F1 = -x1^1.5; F2 = -x2 + x1", [0.5, 0.2]),
    ("dim=1; F1 = -sqrt(x1)", [0.0]),
    ("dim=2; F1 = -x1 + 0.1*sin(x1^0.5); F2 = -x2", [-0.5, 0.2]),
])
def test_fused_lift_domain_fallback(text, point):
    model = parse_system(text)
    q = np.eye(model.dim)
    fused, generic = model_lift(model, q), _generic_lift(model, q)
    y = tuple(fused.y0(point).tolist())   # the state as the solver passes it
    try:
        want = generic.rhs(0.0, y)
    except DomainEvaluationError as exc:
        with pytest.raises(DomainEvaluationError) as err:
            fused.rhs(0.0, y)
        assert str(err.value) == str(exc)
    else:
        np.testing.assert_array_equal(np.asarray(fused.rhs(0.0, y)), want)


def test_fused_lift_compiles_once_per_model(monkeypatch):
    compiled = []
    real = expressions._compile

    def counting(inputs, lines, outputs, *rest):
        compiled.append(len(outputs))
        return real(inputs, lines, outputs, *rest)

    monkeypatch.setattr(expressions, "_compile", counting)
    # and the generated loop of each closure the solver inlines
    loops = []
    build = integrate._build
    monkeypatch.setattr(integrate, "_build", lambda source, filename, names:
                        loops.append(filename) or build(source, filename,
                                                        names))
    monkeypatch.setattr(integrate, "_INLINE_AFTER", 0)
    model = parse_system("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2")
    runs = []
    for _ in range(2):
        model.f([0.5, 0.5])
        runs.append((flow(model, [0.5, 0.5], 1.0).states,
                     variational_flow(model, [0.5, 0.5], 1.0).phi))
    # field (2 outputs), Jacobian (4) and lift [F | J Phi] (6), once each
    assert sorted(compiled) == [2, 4, 6]
    assert loops == ["<lyapmetric dop853 field dim=2>",
                     "<lyapmetric dop853 lift dim=2>"]
    for first, second in zip(*runs):
        np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("q", [None, np.eye(2)], ids=["no-Q", "Q"])
def test_model_lift_rhs_is_the_compiled_lift(q):
    model = parse_system("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2")
    assert model_lift(model, q).rhs is model.source.compiled_lift(q)


@pytest.mark.parametrize("text", [
    "dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2",
    EVERY_FUNCTION_TEXT,
], ids=["planar", "every-function"])
def test_flow_of_parsed_model_matches_generic_bit_for_bit(text):
    # the compiled field as the rhs, against model.f through numpy
    model = parse_system(text)
    plain = dataclasses.replace(model, source=None)
    e0 = [0.4, -0.3, 0.2][:model.dim]
    fast, generic = flow(model, e0, 2.0), flow(plain, e0, 2.0)
    np.testing.assert_array_equal(fast.t, generic.t)
    np.testing.assert_array_equal(fast.states, generic.states)


def test_model_without_source_lifts_generically():
    model = SystemModel.from_linear([[-1.0, 2.0], [0.0, -3.0]])
    lift = model_lift(model)
    y = lift.y0([0.3, -0.2])
    np.testing.assert_array_equal(lift.rhs(0.0, y),
                                  _generic_lift(model).rhs(0.0, y))
