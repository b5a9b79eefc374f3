import math

import numpy as np
import pytest

from lyapmetric import catalog, parse_system
from lyapmetric.dynamics import variational_flow
from lyapmetric import integrate
from lyapmetric import metric as metric_module
from lyapmetric.errors import (
    DerivativeUnreliableError,
    FalsificationError,
    LyapmetricError,
    StepSizeUnderflowError,
    TailHorizonError,
)
from lyapmetric.estimation import (
    estimate_gain_function,
    estimate_les,
    estimate_linearized_decay,
    estimate_transverse_decay,
    jacobian_norm_majorant,
)
from lyapmetric.metric import (
    check_positive_definite,
    constant_metric,
    gramian_at_origin,
    lie_derivative,
    lie_derivative_residual,
    metric_bounds,
    rescaled_metric_field,
    residual_report,
    scalar_metric_field,
    solution_metric,
    transverse_metric_field,
)
from lyapmetric.systems import SystemModel

SCALAR_GRID = (-2.0, -1.0, 0.5, 1.0, 2.0)
CLOSED_FORM_POINTS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
PLANAR = "dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2"


def richardson_residual(field, model, e, h=None, weight=1.0):
    """L_F P(e) + weight Q by the Richardson route, symmetrized as a
    residual entry is: (residual, max eigenvalue, h, disagreement)."""
    lie, h, disagreement = lie_derivative(field, model, e, h)
    residual = lie + field.q * weight
    residual = 0.5 * (residual + residual.T)
    return (residual, float(np.max(np.linalg.eigvalsh(residual))), h,
            disagreement)


def lam2_transverse(tail_tol=1e-7):
    """The lam = 2 counterexample (demo 06's setup) with its transverse
    metric: (model, field)."""
    model = catalog.get("transverse-counterexample").build(
        {"lam": 2.0, "mu_x": 1.0})
    decay = estimate_transverse_decay(model, ([-1.0], [1.0]),
                                      n_samples=2, horizon=6.0)
    return model, transverse_metric_field(model, decay=decay,
                                          tail_tol=tail_tol)


@pytest.fixture(scope="module")
def scalar_model():
    return catalog.get("scalar-example").build()


@pytest.fixture(scope="module")
def scalar_decay(scalar_model):
    return estimate_linearized_decay(scalar_model, [0.5, 1.0, 2.0, 2.6],
                                     n_samples=2, horizon=12.0, tol=1e-9)


@pytest.fixture(scope="module")
def scalar_field(scalar_model, scalar_decay):
    return solution_metric(scalar_model, decay=scalar_decay, tail_tol=1e-7)


@pytest.mark.parametrize("q", [
    [[1.0, 5.0], [0.0, 1.0]],     # lower triangle definite, eigenvalue -1.5
    [[np.nan]],
    [[np.inf, 0.0], [0.0, 1.0]],
])
def test_check_positive_definite_rejects_indefinite_and_non_finite(q):
    with pytest.raises(LyapmetricError, match="^Q must"):
        check_positive_definite(q)


class TestGramianAtOrigin:
    def test_scalar_half(self, scalar_model):
        field = gramian_at_origin(scalar_model)
        assert field(np.zeros(1))[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_matches_direct_solve(self):
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        field = gramian_at_origin(SystemModel.from_linear(a))
        base = catalog.linear_baseline(a)
        p = field(np.zeros(2))
        assert np.max(np.abs(p - base.p)) <= 1e-10
        assert np.linalg.norm(a.T @ p + p @ a + np.eye(2), 2) <= 1e-8

    def test_random_hurwitz_lower_bound(self):
        # min eig P >= mu_min(Q) / (2 |A|) for Q = I
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            a -= (np.max(np.linalg.eigvals(a).real) + 0.8) * np.eye(n)
            field = gramian_at_origin(SystemModel.from_linear(a))
            p_min = float(np.min(np.linalg.eigvalsh(field(np.zeros(n)))))
            floor = 1.0 / (2.0 * float(np.linalg.norm(a, 2)))
            assert p_min >= floor * (1.0 - 1e-8)

    def test_non_hurwitz_rejected(self):
        m = parse_system("dim=1; F1 = x1")
        with pytest.raises(LyapmetricError):
            gramian_at_origin(m)


class TestSolutionMetric:
    def test_linear_metric_is_flat(self):
        m = parse_system("dim=1; F1 = -x1")
        decay = estimate_linearized_decay(m, [0.5, 1.0, 2.0], n_samples=2,
                                          horizon=10.0)
        field = solution_metric(m, decay=decay)
        for e in (-2.0, 0.3, 1.0):
            value = field(np.array([e]))
            assert value[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_endpoint_gramian_matches_lyapunov_solution(self):
        # a linear field: P_T(e) = P - exp(A'T) P exp(AT) at every e, with
        # P the dense Lyapunov solution, which checks the 8(5,3) endpoint
        # solve of the lift at pinned horizons
        from scipy.linalg import expm

        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        base = catalog.linear_baseline(a)
        model = parse_system("dim=2; F1 = x2; F2 = -x1 - x2")
        decay = estimate_linearized_decay(model, [0.5, 1.0], n_samples=2,
                                          horizon=10.0)
        field = solution_metric(model, decay=decay)
        e = np.array([0.3, -0.2])
        for horizon in (1.0, 7.5, 30.0, None):
            got = field(e, horizon=horizon)
            phi = expm(a * field.horizon_for(e) if horizon is None
                       else a * horizon)
            want = base.p - phi.T @ base.p @ phi
            assert np.max(np.abs(got - want)) <= 1e-12
        np.testing.assert_allclose(field.transition_for(e), phi, rtol=0,
                                   atol=1e-12)

    def test_p_solve_budget_names_variant_point_and_horizon(
            self, monkeypatch):
        # the budget counts rhs evaluations: 600 of them are 50 attempts of
        # the 8(5,3) pair, too few for this solve (about 70)
        m = parse_system("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2")
        decay = estimate_linearized_decay(m, [0.5, 1.0], n_samples=2,
                                          horizon=10.0)
        field = solution_metric(m, decay=decay)
        monkeypatch.setattr(metric_module, "_P_EVALS", 600)
        with pytest.raises(StepSizeUnderflowError) as err:
            field(np.array([0.8, -0.5]), horizon=7.5)
        assert str(err.value) == (
            "along-solutions metric at (0.8, -0.5), horizon 7.5: "
            "step budget exhausted after 50 attempts")

    def test_scalar_example_against_nested_quadrature(self, scalar_field):
        for e in SCALAR_GRID:
            oracle = catalog.scalar_example_metric_oracle(e)
            value = scalar_field(np.array([e]))[0, 0]
            assert value == pytest.approx(oracle, abs=1e-5)

    def test_scalar_example_paper_style_bounds(self, scalar_field):
        # 1/2 <= P(1) <= exp(4 e) / 2
        p1 = scalar_field(np.array([1.0]))[0, 0]
        assert 0.5 - 1e-6 <= p1 <= math.exp(4.0 * math.e) / 2.0 * 1.01

    def test_monotone_truncation(self, scalar_model, scalar_decay):
        # growing the horizon moves P by less than the claimed tail bound
        field = solution_metric(scalar_model, decay=scalar_decay,
                                tail_tol=1e-5)
        e = np.array([1.0])
        t_base = field.horizon_for(e)
        p_base = field(e, horizon=t_base)[0, 0]
        p_more = field(e, horizon=t_base + 4.0)[0, 0]
        assert abs(p_more - p_base) <= 1e-5

    def test_horizon_cap_raises(self, scalar_model, scalar_decay):
        field = solution_metric(scalar_model, decay=scalar_decay,
                                tail_tol=1e-7, horizon_cap=3.0)
        with pytest.raises(TailHorizonError):
            field(np.array([1.0]))

    def test_pinned_and_default_horizon_share_one_solve(
            self, scalar_model, scalar_decay, monkeypatch):
        # the decay-truncated field resolves T(e) before its cache lookup,
        # so P(e) and P(e, horizon=T(e)) are one entry
        field = solution_metric(scalar_model, decay=scalar_decay)
        solves = []
        real = integrate.solve
        monkeypatch.setattr(integrate, "solve",
                            lambda *a, **k: solves.append(1) or real(*a, **k))
        e = np.array([1.3])
        default = field(e)
        pinned = field(e, horizon=field.horizon_for(e))
        assert len(solves) == 1
        assert np.array_equal(default, pinned)
        field(e, horizon=field.horizon_for(e) + 1.0)
        assert len(solves) == 2

    def test_symmetry_2d(self):
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        m = SystemModel.from_linear(a)
        decay = estimate_linearized_decay(m, [1.0], n_samples=4, horizon=20.0)
        field = solution_metric(m, decay=decay)
        for p in ([0.4, -0.3], [1.0, 1.0]):
            value = field(np.array(p))
            assert np.max(np.abs(value - value.T)) <= 1e-10


class TestTransverseMetric:
    def test_decoupled_matches_single_system(self):
        model = parse_system("dim=2; e_dim=1; F1 = -x1; G1 = x2")
        decay = estimate_transverse_decay(model, ([-1.0], [1.0]),
                                          n_samples=2, horizon=8.0)
        field = transverse_metric_field(model, decay=decay)
        assert field(np.array([0.7]))[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_counterexample_against_direct_quadrature(self):
        import scipy.integrate

        lam, mu = 2.0, 1.0
        model = catalog.get("transverse-counterexample").build(
            {"lam": lam, "mu_x": mu})
        decay = estimate_transverse_decay(model, ([-1.0], [1.0]),
                                          n_samples=2, horizon=6.0)
        field = transverse_metric_field(model, decay=decay, tail_tol=1e-6)
        for x0 in (0.5, 1.0):
            oracle, _ = scipy.integrate.quad(
                lambda s: catalog.counterexample_transverse_phi_oracle(
                    x0, s, lam, mu) ** 2,
                0.0, 40.0, epsabs=1e-10, epsrel=1e-10, limit=500)
            assert field(np.array([x0]))[0, 0] == pytest.approx(
                oracle, abs=2e-5)

    def test_uniform_eigenvalue_envelope(self):
        # x-independent bounds: the transition satisfies
        # exp(-lam t - 2/mu) <= Phi <= exp(-lam t + 2/mu), so
        # exp(-4/mu)/(2 lam) <= P(x) <= min(exp(4/mu)/(2 lam), fitted cap)
        lam, mu = 2.0, 1.0
        model = catalog.get("transverse-counterexample").build(
            {"lam": lam, "mu_x": mu})
        decay = estimate_transverse_decay(model, ([-1.0], [1.0]),
                                          n_samples=2, horizon=6.0)
        field = transverse_metric_field(model, decay=decay, tail_tol=1e-6)
        p_floor = math.exp(-4.0 / mu) / (2.0 * lam)
        p_cap = min(math.exp(4.0 / mu) / (2.0 * lam),
                    decay.gain(1.0) ** 2 / (2.0 * decay.rate))
        for x0 in (-1.0, -0.3, 0.4, 1.0):
            value = field(np.array([x0]))[0, 0]
            assert p_floor * (1 - 1e-6) <= value <= p_cap * (1 + 1e-6)


class TestRescaledMetric:
    def test_linear_recovers_q(self):
        m = parse_system("dim=1; F1 = -x1")
        assert rescaled_metric_field(m)(np.array([0.7]))[0, 0] == \
            pytest.approx(1.0, abs=1e-6)

    def test_scalar_example_at_origin(self, scalar_model):
        # |dF/de(0)| = 1, so P~(0) = Q (1 + 1) / 2 = Q
        assert rescaled_metric_field(scalar_model)(np.array([0.0]))[0, 0] \
            == pytest.approx(1.0, abs=1e-6)

    def test_state_independent_floor(self, scalar_model):
        field = rescaled_metric_field(scalar_model)
        for e in SCALAR_GRID:
            value = field(np.array([e]))[0, 0]
            assert value >= 0.5 - 1e-6

    def test_pinned_horizon_runs_the_same_chunks(self, scalar_model):
        # a fresh field pinned at T(e) repeats the adaptive chunks bit for
        # bit; a horizon between chunk ends moves P~ by less than the tail
        point = np.array([1.0])
        adaptive = rescaled_metric_field(scalar_model)
        horizon = adaptive.horizon_for(point)
        assert horizon > 0.0 and horizon % 6.0 == 0.0
        pinned = rescaled_metric_field(scalar_model)(point, horizon=horizon)
        assert np.array_equal(pinned, adaptive(point))
        longer = adaptive(point, horizon=horizon + 1.0)
        assert abs(longer[0, 0] - pinned[0, 0]) <= adaptive.tail_tol


class TestScalarClosedForm:
    def test_matches_metric_oracle(self, scalar_model, scalar_decay):
        field = scalar_metric_field(scalar_model, decay=scalar_decay)
        for e in CLOSED_FORM_POINTS:
            value = field(np.array([e]))[0, 0]
            assert abs(value - catalog.scalar_example_metric_oracle(e)) \
                <= 1e-9

    def test_dominates_truncated_field_by_its_tail(self, scalar_model,
                                                   scalar_decay,
                                                   scalar_field):
        # P_inf - P_T is the tail the lifted field certified below tail_tol
        field = scalar_metric_field(scalar_model, decay=scalar_decay)
        for e in CLOSED_FORM_POINTS:
            point = np.array([e])
            tail = field(point)[0, 0] - scalar_field(point)[0, 0]
            assert 0.0 <= tail <= scalar_field.tail_tol

    def test_rescaled_matches_lifted_field(self, scalar_model):
        lifted = rescaled_metric_field(scalar_model)
        field = scalar_metric_field(scalar_model, variant="rescaled")
        for e in CLOSED_FORM_POINTS:
            point = np.array([e])
            assert abs(field(point)[0, 0] - lifted(point)[0, 0]) \
                <= lifted.tail_tol

    def test_residual_vanishes(self, scalar_model):
        # L_F P + Q = 0 exactly for the untruncated metric; what remains is
        # the Richardson error of the flow difference
        for variant in ("along-solutions", "rescaled"):
            field = scalar_metric_field(scalar_model, variant=variant)
            report = residual_report(field, scalar_model,
                                     [[e] for e in SCALAR_GRID])
            assert max(abs(e.max_eigenvalue) for e in report.entries) <= 1e-7

    def test_q_scales_the_metric(self, scalar_model):
        field = scalar_metric_field(scalar_model, q=np.array([[3.0]]))
        assert field(np.array([1.0]))[0, 0] == pytest.approx(
            3.0 * catalog.scalar_example_metric_oracle(1.0), abs=1e-9)

    def test_second_equilibrium_at_point_is_witness(self):
        m = parse_system("dim=1; F1 = -x1 + x1^3")
        field = scalar_metric_field(m)
        with pytest.raises(FalsificationError) as info:
            field(np.array([2.0]))
        assert info.value.witness == [2.0]
        assert info.value.stage == "scalar-metric"

    def test_second_equilibrium_inside_segment_is_witness(self):
        # F(3) has the right sign; the zeros at 1 and 2 do not
        m = parse_system("dim=1; F1 = -x1 * (x1 - 1) * (x1 - 2)")
        field = scalar_metric_field(m)
        with pytest.raises(FalsificationError) as info:
            field(np.array([3.0]))
        [w] = info.value.witness
        assert 1.0 < w < 2.0
        assert info.value.stage == "scalar-metric"

    @pytest.mark.parametrize("variant", ["along-solutions", "rescaled"])
    def test_quadrature_agrees_with_scipy_quad(self, scalar_model, variant):
        # the former route: QUADPACK at the same tolerance and panel limit
        from scipy.integrate import quad

        field = scalar_metric_field(scalar_model, variant=variant)

        def weight(x):
            if variant == "rescaled":
                return 1.0 + abs(float(scalar_model.jac(x)[0, 0])) ** 3
            return 1.0

        def integrand(u, e):
            x = np.array([e * u])
            return -float(scalar_model.f(x)[0]) * weight(x) / e

        for e in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
            val, _ = quad(integrand, 0.0, 1.0, args=(e,), epsabs=0.0,
                          epsrel=1e-12, limit=200)
            f_e = float(scalar_model.f(np.array([e]))[0])
            want = val / (f_e / e) ** 2
            assert field(np.array([e]))[0, 0] == pytest.approx(want,
                                                               rel=1e-13)

    def test_gauss_legendre_nodes_match_numpy(self):
        from lyapmetric.metric import _GAUSS_POINTS, _gauss_legendre

        nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
        ours = np.array(_gauss_legendre(_GAUSS_POINTS))
        np.testing.assert_allclose(ours[:, 0], 0.5 * (nodes + 1.0),
                                   rtol=0, atol=2e-16)
        np.testing.assert_allclose(ours[:, 1], 0.5 * weights, rtol=0,
                                   atol=2e-16)

    def test_quadrature_exact_on_degree_19(self):
        # the 10-point rule integrates degree <= 19 exactly on each half
        # and on the whole panel, so the first panel already converges
        from lyapmetric.metric import _adaptive_gauss

        value, panels, converged = _adaptive_gauss(
            lambda u: 20.0 * u ** 19 - 8.0 * u ** 7 + 2.0, 1e-12)
        assert converged and panels == 1
        assert value == pytest.approx(2.0, rel=1e-15)

    def test_quadrature_floor_converges_zero_integral(self):
        # int_0^1 sin(2 pi u) = 0: with no floor the error is compared with
        # a value at rounding level, and the panels run to the cap
        from lyapmetric.metric import _QUAD_PANELS, _adaptive_gauss

        def fn(u):
            return math.sin(2.0 * math.pi * u)

        value, panels, converged = _adaptive_gauss(fn, 1e-10)
        assert not converged and panels == _QUAD_PANELS
        value, panels, converged = _adaptive_gauss(fn, 1e-10, floor=1.0)
        assert converged and panels == 1
        assert abs(value) <= 1e-15

    def test_quadrature_unresolved_oscillation_hits_cap(self):
        from lyapmetric.metric import _QUAD_PANELS, _adaptive_gauss

        value, panels, converged = _adaptive_gauss(
            lambda u: math.sin(1e6 * u), 1e-10, floor=1.0)
        assert not converged and panels == _QUAD_PANELS
        assert math.isfinite(value)

    def test_quadrature_non_convergence_is_operational_error(self):
        # a field oscillating far faster than 200 panels resolve
        model = SystemModel(
            dim=1, f=lambda x: -x * (1.5 + np.sin(1e6 * x)),
            jac=lambda x: np.array([[-1.0]]))
        field = scalar_metric_field(model)
        with pytest.raises(LyapmetricError,
                           match="did not converge at e = 1.0"):
            field(np.array([1.0]))

    def test_needs_first_order_stability(self):
        with pytest.raises(LyapmetricError):
            scalar_metric_field(parse_system("dim=1; F1 = -x1^3"))

    def test_rejects_planar_and_transverse(self):
        with pytest.raises(LyapmetricError):
            scalar_metric_field(SystemModel.from_linear(-np.eye(2)))
        with pytest.raises(LyapmetricError):
            scalar_metric_field(parse_system("dim=1; F1 = -x1"),
                                variant="transverse")


class TestLieDerivativeResidual:
    def test_constant_metric_linear_system_is_algebraic(self):
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        model = SystemModel.from_linear(a)
        field = gramian_at_origin(model)
        for p in ([0.5, 0.0], [1.0, -1.0]):
            entry = lie_derivative_residual(field, model, p)
            assert abs(entry.max_eigenvalue) <= 1e-7

    def test_constant_metric_makes_no_solve(self, monkeypatch, tmp_path):
        # d_F P of a constant metric is exactly 0: lie_derivative returns
        # the bits that differencing P along two flows gives (a callable
        # P still flows), with no flow; and stabilize, whose metric is
        # constant, asks for no stepping loop
        from lyapmetric import cli, dynamics
        from lyapmetric.metric import from_callable

        p = np.array([[2.0, 0.3], [0.3, 1.0]])
        model = parse_system(PLANAR)
        e = np.array([0.8, -0.5])
        want = lie_derivative(from_callable(lambda point: p, 2), model, e)

        def no_solve(*args, **kwargs):
            raise AssertionError("a constant metric ran a solve")

        for module, name in ((dynamics, "flow"), (metric_module, "flow"),
                             (integrate, "_loop")):
            monkeypatch.setattr(module, name, no_solve)
        got = lie_derivative(constant_metric(p), model, e)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

        spec = tmp_path / "plant.txt"
        spec.write_text("dim=1; F1 = x1; g1 = 1\n")
        assert cli.main(["stabilize", "--system", str(spec),
                         "--lambda-gain", "3", "--grid=-2,-1,1,2",
                         "--out", str(tmp_path / "r")]) == 0

    def test_scalar_example_grid(self, scalar_model, scalar_field):
        report = residual_report(scalar_field, scalar_model,
                                 [[e] for e in SCALAR_GRID])
        assert report.verdict == "pass"
        assert report.max_eigenvalue <= 1e-4

    def test_rescaled_grid(self, scalar_model):
        field = rescaled_metric_field(scalar_model)
        report = residual_report(field, scalar_model,
                                 [[e] for e in SCALAR_GRID])
        assert report.verdict == "pass"
        assert report.max_eigenvalue <= 1e-4

    def test_richardson_step_halves_until_gate_passes(self, monkeypatch):
        # on the rescaled planar field the default h = sqrt(tail_tol) and
        # h / 2 fail the gate at (0.8, -0.5); h / 4 passes.  The horizon
        # is read once per derivative, not once per try
        model = parse_system(PLANAR)
        field = rescaled_metric_field(model)
        rule_calls = []
        horizon_for = field.horizon_for
        monkeypatch.setattr(field, "horizon_for",
                            lambda p: rule_calls.append(p) or horizon_for(p))
        e = np.array([0.8, -0.5])
        weight = 1.0 + np.linalg.norm(model.jac(e), 2) ** 3
        _, max_eig, h, disagreement = richardson_residual(field, model, e,
                                                          weight=weight)
        assert len(rule_calls) == 1
        assert h == pytest.approx(0.25 * math.sqrt(field.tail_tol))
        assert disagreement <= 10.0 * 1e-4
        assert max_eig <= 1e-4

    def test_transverse_entries_are_pinned(self):
        # the Richardson derivative along the transversally linear system:
        # P is differenced along the drift and congruenced with
        # dF/de(0, x).  Values recorded on the lam = 2 counterexample with
        # P and the decay samples solved by the 8(5,3) pair and the tail
        # rate fitted with trapezoid weights (horizon 3.28051); each is
        # within 4e-8 of the exact entry Phi' Q Phi of the truncated
        # Gramian
        model, field = lam2_transverse(tail_tol=1e-6)
        step = model.manifold_step()
        assert [richardson_residual(field, step, [x])[1:]
                for x in (0.5, 1.0)] == [
            (1.5376189395066575e-06, 0.001, 1.3337926180190252e-05),
            (8.19401237972528e-07, 0.001, 1.163959345573673e-05)]
        report = residual_report(field, step, [[0.5], [1.0]])
        assert report.verdict == "pass"

    def test_report_serializes(self, scalar_model, scalar_field):
        # a lifted field: identity entries, one cross-check; a closed-form
        # field: Richardson entries with their step, and no cross-check
        data = residual_report(scalar_field, scalar_model,
                               [[1.0], [2.0]]).to_dict()
        assert data["verdict"] == "pass"
        assert [sorted(e) for e in data["entries"]] == \
            [["max_eigenvalue", "point", "route"]] * 2
        assert {e["route"] for e in data["entries"]} == {"identity"}
        assert data["cross_check"]["point"] == [1.0]
        assert data["cross_check"]["h"] > 0
        assert data["cross_check"]["gap"] <= data["tolerance"]
        closed = scalar_metric_field(scalar_model)
        data = residual_report(closed, scalar_model, [[1.0]]).to_dict()
        [entry] = data["entries"]
        assert entry["route"] == "richardson"
        assert entry["h"] > 0 and entry["richardson_disagreement"] >= 0.0
        assert data["cross_check"] is None


class TestResidualIdentity:
    """A lifted field's residual entry is its transition identity,
    R = w Phi(e,T)' Q Phi(e,T), with no further solve; it agrees with the
    Richardson route (w = 1, except the rescaled variant's slowing weight)."""

    @staticmethod
    def _along_solutions():
        model = parse_system(PLANAR)
        decay = estimate_linearized_decay(model, [0.5, 1.0, 2.0],
                                          n_samples=2, horizon=10.0)
        return model, solution_metric(model, decay=decay), \
            [(0.8, -0.5), (0.5, 0.5)]

    @staticmethod
    def _rescaled():
        model = parse_system(PLANAR)
        return model, rescaled_metric_field(model), [(0.8, -0.5), (0.5, 0.5)]

    @staticmethod
    def _transverse():
        model, field = lam2_transverse()
        return model.manifold_step(), field, [(0.5,), (1.0,)]

    @pytest.mark.parametrize("build", ["_along_solutions", "_rescaled",
                                       "_transverse"])
    def test_identity_matches_richardson(self, build, monkeypatch):
        model, field, points = getattr(self, build)()
        for p in points:
            e = np.array(p)
            field(e)   # the solve that records Phi(e, T(e))
            solves = []
            real = integrate.solve
            with monkeypatch.context() as patch:
                patch.setattr(integrate, "solve", lambda *a, **k:
                              solves.append(1) or real(*a, **k))
                entry = lie_derivative_residual(field, model, e)
            assert entry.route == "identity" and entry.h is None
            assert solves == []
            weight = 1.0
            if field.variant == "rescaled":
                weight = 1.0 + np.linalg.norm(model.jac(e), 2) ** 3
            richardson = richardson_residual(field, model, e,
                                             weight=weight)[0]
            assert np.linalg.norm(entry.residual - richardson, 2) <= 1e-6

    def test_fields_without_a_lift_take_richardson(self, scalar_model):
        for field in (scalar_metric_field(scalar_model),
                      gramian_at_origin(scalar_model)):
            assert field.transition_for([1.0]) is None
            entry = lie_derivative_residual(field, scalar_model, [1.0])
            assert entry.route == "richardson" and entry.h > 0

    def test_cross_check_failure_is_unreliable_derivative(self):
        # the field's lift is the planar field's, the model is not: the
        # identity and the Richardson route along the model disagree
        model, field, points = self._along_solutions()
        other = SystemModel.from_linear(np.array([[-3.0, 1.0],
                                                  [0.0, -1.0]]))
        with pytest.raises(DerivativeUnreliableError,
                           match="residual routes disagree"):
            residual_report(field, other, points)


class TestHorizonProtocol:
    """Every lifted field records the horizon each point chose for itself:
    P(e) then P(e, horizon=T(e)) is one evaluation, and a dump of points
    already evaluated solves nothing."""

    @staticmethod
    def _along_solutions():
        model = parse_system(PLANAR)
        decay = estimate_linearized_decay(model, [0.5, 1.0, 2.0],
                                          n_samples=2, horizon=10.0)
        return solution_metric(model, decay=decay), [[0.8, -0.5], [0.5, 0.5]]

    @staticmethod
    def _transverse():
        return lam2_transverse()[1], [[0.5], [-0.3]]

    @staticmethod
    def _rescaled():
        model = parse_system(PLANAR)
        return rescaled_metric_field(model), [[0.8, -0.5], [0.5, 0.5]]

    @pytest.mark.parametrize("build", ["_along_solutions", "_transverse",
                                       "_rescaled"])
    def test_one_evaluation_per_point(self, build, monkeypatch, tmp_path):
        field, points = getattr(self, build)()
        evaluations = []
        evaluator = field._evaluator
        monkeypatch.setattr(field, "_evaluator", lambda *a: (
            evaluations.append(1), evaluator(*a))[1])
        for p in points:
            e = np.array(p)
            default = field(e)
            pinned = field(e, horizon=field.horizon_for(e))
            assert np.array_equal(default, pinned)
        assert len(evaluations) == len(points)
        solves = []
        real = integrate.solve
        monkeypatch.setattr(integrate, "solve",
                            lambda *a, **k: solves.append(1) or real(*a, **k))
        field.to_csv(points, tmp_path / "metric.csv")
        assert solves == []


class TestHorizonPinnedIdentity:
    """For P_T(e) = int_0^T Phi(e,s)' Q Phi(e,s) ds the residual is exact:
    d_F P_T + P_T J + J' P_T + Q = Phi(e,T)' Q Phi(e,T).  Phi(e,T) comes
    from SciPy DOP853 on the variational equation, not from the lifted
    core that builds P_T; both routes must meet it, the Richardson
    derivative (at step h) and the identity entry."""

    @staticmethod
    def _phi_at_horizon(model, e, horizon):
        from scipy.integrate import solve_ivp

        n = model.dim

        def rhs(t, y):
            phi = y[n:].reshape(n, n)
            return np.concatenate([model.f(y[:n]),
                                   (model.jac(y[:n]) @ phi).ravel()])

        sol = solve_ivp(rhs, (0.0, horizon),
                        np.concatenate([e, np.eye(n).ravel()]),
                        method="DOP853", rtol=1e-12, atol=1e-12)
        return sol.y[n:, -1].reshape(n, n)

    def _check(self, model, decay, points, tail_tol, h):
        field = solution_metric(model, decay=decay, tail_tol=tail_tol)
        for p in points:
            e = np.array(p, dtype=float)
            phi = self._phi_at_horizon(model, e, field.horizon_for(e))
            oracle = phi.T @ field.q @ phi
            richardson = richardson_residual(field, model, e, h=h)[0]
            entry = lie_derivative_residual(field, model, e)
            assert entry.route == "identity"
            for residual in (richardson, entry.residual):
                assert np.max(np.abs(residual - oracle)) <= 1e-7

    # tail_tol 1e3 floors the horizon at T = 1, where Phi(e,T)' Q Phi(e,T)
    # is of order 0.1 rather than of the certified tail size
    @pytest.mark.parametrize("tail_tol, h", [(1e-7, None), (1e3, 1e-4)])
    def test_planar(self, tail_tol, h):
        model = parse_system(PLANAR)
        decay = estimate_linearized_decay(model, [0.5, 1.0, 2.0],
                                          n_samples=4, horizon=10.0,
                                          tol=1e-9, seed=0)
        self._check(model, decay, [(0.8, -0.5), (0.5, 0.5), (-1.0, 0.3),
                                   (0.0, 1.0)], tail_tol, h)

    @pytest.mark.parametrize("tail_tol, h", [(1e-7, None), (1e3, 1e-4)])
    def test_scalar_example(self, scalar_model, scalar_decay, tail_tol, h):
        self._check(scalar_model, scalar_decay, [(1.0,), (-0.5,), (2.0,)],
                    tail_tol, h)


class TestQuadraticDecreaseAlongLiftedFlow:
    def test_scalar_example(self, scalar_model, scalar_field):
        # d/dt (delta' P(E) delta) = -delta' Q delta along the lifted flow
        def at(t):
            return variational_flow(scalar_model, [1.0], t, tol=1e-11)

        t1, t2 = 0.4, 1.2
        values = {}
        for t in (t1, t2):
            traj = at(t)
            values[t] = traj.phi[-1, 0, 0] ** 2 * \
                scalar_field(traj.states[-1])[0, 0]
        ts = np.linspace(t1, t2, 101)
        phis = np.array([at(t).phi[-1, 0, 0] for t in ts])
        drop = float(np.trapezoid(phis ** 2, ts))
        assert values[t2] - values[t1] == pytest.approx(-drop, rel=1e-4)


class TestFlowInvariance:
    def test_scalar_example_shift_identity(self, scalar_model, scalar_field):
        # P(E(e,h)) equals the tail-shifted quadrature conjugated by the
        # inverse transition, all evaluated from forward quantities
        e = np.array([1.0])
        h = 0.05
        horizon = scalar_field.horizon_for(e)
        def at(t):
            return variational_flow(scalar_model, e, t, tol=1e-11)

        flow_h = at(h)
        phi_h = flow_h.phi[-1]
        q = scalar_field.q
        ts = np.linspace(h, horizon + h, 4001)
        phis = np.array([at(t).phi[-1, 0, 0] for t in ts])
        shifted = np.trapezoid(phis ** 2 * q[0, 0], ts)
        inv = np.linalg.inv(phi_h)
        rhs = (inv.T @ np.array([[shifted]]) @ inv).item()
        lhs = scalar_field(flow_h.states[-1])[0, 0]
        assert lhs == pytest.approx(rhs, abs=1e-5)


class TestMetricBounds:
    def test_linear_flat_envelopes(self):
        m = parse_system("dim=1; F1 = -x1")
        decay = estimate_linearized_decay(m, [0.5, 1.0, 2.0], n_samples=2,
                                          horizon=10.0)
        field = solution_metric(m, decay=decay)
        bounds = metric_bounds(field, [0.5, 1.0, 2.0], n_samples=2)
        assert np.allclose(bounds.empirical_lower, 0.5, atol=1e-6)
        assert np.allclose(bounds.empirical_upper, 0.5, atol=1e-6)

    def test_scalar_example_analytic_vs_empirical(
            self, scalar_model, scalar_field, scalar_decay):
        les = estimate_les(scalar_model, 0.5, n_samples=2, horizon=12.0)
        gain = estimate_gain_function(scalar_model, [0.5, 1.0, 2.0, 2.6],
                                      n_samples=2, horizon=12.0, les=les)
        maj = jacobian_norm_majorant(scalar_model, [0.5, 1.0, 2.0, 2.6],
                                     n_samples=64)
        bounds = metric_bounds(scalar_field, [0.5, 1.0, 2.0], n_samples=2,
                               gain=gain, jac_majorant=maj)
        assert bounds.analytic_lower == pytest.approx([0.5, 0.5, 0.5],
                                                      rel=1e-9)
        # analytic upper at radius 1 is gain_lin(1)^2 mu_max(Q) / (2 rate)
        k1 = scalar_decay.gain(1.0)
        assert bounds.analytic_upper[1] == pytest.approx(
            k1 ** 2 / (2.0 * scalar_decay.rate), rel=1e-12)
        assert np.all(bounds.empirical_upper <= bounds.analytic_upper + 1e-9)
        assert np.all(bounds.empirical_lower >= bounds.analytic_lower - 1e-6)
        assert bounds.completeness == "pass"

    def test_attached_to_field(self, scalar_field):
        metric_bounds(scalar_field, [0.5, 1.0, 2.0], n_samples=2)
        assert scalar_field.p_lower(1.0) <= scalar_field.p_upper(1.0)


def test_constant_metric_rejects_indefinite_q():
    with pytest.raises(LyapmetricError):
        constant_metric(np.array([[1.0, 0.0], [0.0, -1.0]]))
