import math

import numpy as np
import pytest

from lyapmetric import catalog, parse_system
from lyapmetric.dynamics import variational_flow
from lyapmetric import integrate
from lyapmetric.errors import (
    FalsificationError,
    LyapmetricError,
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
        # is read once per entry, not once per try
        model = parse_system("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2")
        field = rescaled_metric_field(model)
        rule_calls = []
        horizon_for = field.horizon_for
        monkeypatch.setattr(field, "horizon_for",
                            lambda p: rule_calls.append(p) or horizon_for(p))
        entry = lie_derivative_residual(field, model, [0.8, -0.5])
        assert len(rule_calls) == 1
        assert entry.h == pytest.approx(0.25 * math.sqrt(field.tail_tol))
        assert entry.disagreement <= 10.0 * 1e-4
        assert entry.max_eigenvalue <= 1e-4

    def test_transverse_entries_are_pinned(self):
        # the residual along the transversally linear system: P is
        # differenced along the drift and congruenced with dF/de(0, x).
        # Values recorded on the lam = 2 counterexample (demo 06's setup)
        model = catalog.get("transverse-counterexample").build(
            {"lam": 2.0, "mu_x": 1.0})
        decay = estimate_transverse_decay(model, ([-1.0], [1.0]),
                                          n_samples=2, horizon=6.0)
        field = transverse_metric_field(model, decay=decay, tail_tol=1e-6)
        report = residual_report(field, model.manifold_step(),
                                 [[0.5], [1.0]])
        assert [(e.max_eigenvalue, e.h, e.disagreement)
                for e in report.entries] == [
            (2.0087836092308464e-06, 0.001, 1.3337578347316636e-05),
            (1.7455835770174843e-06, 0.001, 1.1631658025645919e-05)]
        assert report.verdict == "pass"

    def test_report_serializes(self, scalar_model, scalar_field):
        report = residual_report(scalar_field, scalar_model, [[1.0]])
        data = report.to_dict()
        assert data["verdict"] == "pass"
        assert data["entries"][0]["h"] > 0


class TestHorizonProtocol:
    """Every lifted field records the horizon each point chose for itself:
    P(e) then P(e, horizon=T(e)) is one evaluation, and a dump of points
    already evaluated solves nothing."""

    PLANAR = "dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2"

    @staticmethod
    def _along_solutions():
        model = parse_system(TestHorizonProtocol.PLANAR)
        decay = estimate_linearized_decay(model, [0.5, 1.0, 2.0],
                                          n_samples=2, horizon=10.0)
        return solution_metric(model, decay=decay), [[0.8, -0.5], [0.5, 0.5]]

    @staticmethod
    def _transverse():
        model = catalog.get("transverse-counterexample").build(
            {"lam": 2.0, "mu_x": 1.0})
        decay = estimate_transverse_decay(model, ([-1.0], [1.0]),
                                          n_samples=2, horizon=6.0)
        return transverse_metric_field(model, decay=decay), [[0.5], [-0.3]]

    @staticmethod
    def _rescaled():
        model = parse_system(TestHorizonProtocol.PLANAR)
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
    core that builds P_T."""

    PLANAR = "dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2"

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
            entry = lie_derivative_residual(field, model, e, h=h)
            assert np.max(np.abs(entry.residual - phi.T @ field.q @ phi)) \
                <= 1e-7

    # tail_tol 1e3 floors the horizon at T = 1, where Phi(e,T)' Q Phi(e,T)
    # is of order 0.1 rather than of the certified tail size
    @pytest.mark.parametrize("tail_tol, h", [(1e-7, None), (1e3, 1e-4)])
    def test_planar(self, tail_tol, h):
        model = parse_system(self.PLANAR)
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
        traj = variational_flow(scalar_model, [1.0], 2.0, tol=1e-11,
                                dense=True)
        t1, t2 = 0.4, 1.2
        values = {}
        for t in (t1, t2):
            e_t = traj.state_at(t)
            phi_t = traj.phi_at(t)[0, 0]
            values[t] = phi_t ** 2 * scalar_field(e_t)[0, 0]
        ts = np.linspace(t1, t2, 101)
        phis = np.array([traj.phi_at(t)[0, 0] for t in ts])
        drop = float(np.trapezoid(phis ** 2, ts))
        assert values[t2] - values[t1] == pytest.approx(-drop, rel=1e-4)


class TestFlowInvariance:
    def test_scalar_example_shift_identity(self, scalar_model, scalar_field):
        # P(E(e,h)) equals the tail-shifted quadrature conjugated by the
        # inverse transition, all evaluated from forward quantities
        e = np.array([1.0])
        h = 0.05
        horizon = scalar_field.horizon_for(e)
        traj = variational_flow(scalar_model, e, horizon + h, tol=1e-11,
                                dense=True)
        phi_h = traj.phi_at(h)
        q = scalar_field.q
        ts = np.linspace(h, horizon + h, 4001)
        phis = np.array([traj.phi_at(t)[0, 0] for t in ts])
        shifted = np.trapezoid(phis ** 2 * q[0, 0], ts)
        inv = np.linalg.inv(phi_h)
        rhs = (inv.T @ np.array([[shifted]]) @ inv).item()
        lhs = scalar_field(traj.state_at(h))[0, 0]
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
