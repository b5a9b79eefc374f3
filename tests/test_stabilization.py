import numpy as np
import pytest

from lyapmetric import catalog, parse_system
from lyapmetric.errors import (
    ClosednessError,
    DerivativeUnreliableError,
    FalsificationError,
)
from lyapmetric.metric import constant_metric, from_callable
from lyapmetric.stabilization import (
    closedness_residual,
    construct_U,
    export_closed_loop,
    killing_residual,
    synthesize_controller,
)

SCALAR_PLANT = "dim=1; F1 = x1; g1 = 1"


@pytest.fixture
def scalar_plant():
    return parse_system(SCALAR_PLANT)


@pytest.fixture
def unit_metric():
    return constant_metric(np.array([[1.0]]))


class TestKillingResidual:
    def test_constant_metric_constant_field(self, scalar_plant, unit_metric):
        _, norm = killing_residual(unit_metric, scalar_plant.input_field, [0.7])
        assert norm <= 1e-12

    def test_skew_compatible_linear_field(self):
        # P A + A' P = 0 for P = I and A skew: rotations preserve the metric
        sys2 = parse_system("dim=2; F1 = -x1; F2 = -x2; g1 = x2; g2 = -x1")
        field = constant_metric(np.eye(2))
        for w in ([0.4, -0.9], [1.0, 1.0]):
            _, norm = killing_residual(field, sys2.input_field, w)
            assert norm <= 1e-8

    def test_nonzero_witness(self, unit_metric):
        # P = 1, g(w) = w: L_g P = 0 + 1 + 1 = 2
        g = parse_system("dim=1; F1 = x1")
        _, norm = killing_residual(unit_metric, g, [0.5])
        assert norm == pytest.approx(2.0, abs=1e-9)

    def test_unreliable_derivative_raises(self, scalar_plant):
        # p(w) = 1 + sqrt(|w|) has no derivative at 0: the Richardson inputs
        # drift apart as h shrinks, so the checks refuse instead of reading
        # a step-sized residual (183 at h = 1e-4) as a failed condition
        kink = from_callable(
            lambda x: np.array([[1.0 + np.sqrt(abs(float(x[0])))]]), dim=1)
        with pytest.raises(DerivativeUnreliableError):
            killing_residual(kink, scalar_plant.input_field, [0.0])
        with pytest.raises(DerivativeUnreliableError):
            synthesize_controller(scalar_plant, kink, gain=3.0,
                                  sample_points=[[0.0]])


class TestConstructU:
    def test_constant_inputs_linear_potential(self):
        p = np.array([[2.0, 0.3], [0.3, 1.0]])
        field = constant_metric(p)
        sys2 = parse_system("dim=2; F1 = -x1; F2 = -x2; g1 = 1; g2 = 2")
        b = np.array([1.0, 2.0])
        for w in ([0.5, -0.5], [1.0, 2.0]):
            u = construct_U(field, sys2.input_field, w)
            assert u == pytest.approx(float(b @ p @ np.array(w)), rel=1e-9)

    def test_scalar_quadrature_oracle(self):
        import scipy.integrate

        # p(w) = 1 + w^2 (synthetic), g(w) = cos(w): U = int p g
        from lyapmetric.metric import from_callable

        field = from_callable(lambda x: np.array([[1.0 + float(x[0]) ** 2]]),
                              dim=1)
        g = parse_system("dim=1; F1 = cos(x1)")
        g_field = g  # plain model used as a vector field
        for w in (0.8, 1.7):
            u = construct_U(field, g_field, [w])
            ref, _ = scipy.integrate.quad(
                lambda s: (1.0 + s * s) * np.cos(s), 0.0, w,
                epsabs=1e-12, epsrel=1e-12)
            assert u == pytest.approx(ref, rel=1e-8)

    def test_base_point_anchoring(self, scalar_plant, unit_metric):
        assert construct_U(unit_metric, scalar_plant.input_field, [0.0]) == 0.0

    def test_path_independence_when_closed(self):
        # constant P, constant g: value along the segment equals the two-leg
        # L-path value
        p = np.array([[2.0, 0.3], [0.3, 1.0]])
        field = constant_metric(p)
        sys2 = parse_system("dim=2; F1 = -x1; F2 = -x2; g1 = 1; g2 = 2")
        from lyapmetric.stabilization import PotentialU

        pot = PotentialU(field, sys2.input_field)
        w = np.array([1.2, -0.7])
        direct = pot(w)
        corner = np.array([w[0], 0.0])
        two_leg = pot(corner) + (pot(w) - pot(corner))  # same potential
        # independent re-integration along the second leg
        import scipy.integrate

        leg2, _ = scipy.integrate.quad(
            lambda s: float(pot.gradient([w[0], s])[1]), 0.0, w[1],
            epsabs=1e-12, epsrel=1e-12)
        assert direct == pytest.approx(pot(corner) + leg2, abs=1e-6)
        assert direct == pytest.approx(two_leg, abs=1e-12)

    def test_unconverged_potential_raises(self):
        # the cusp of p at w = 1/3 keeps the Simpson refinement above its
        # tolerance up to the panel cap: no value may come back silently
        from lyapmetric.errors import LyapmetricError
        from lyapmetric.metric import from_callable
        from lyapmetric.stabilization import PotentialU

        field = from_callable(
            lambda w: [[1.0 + abs(w[0] - 1.0 / 3.0) ** 0.5]], 1)
        g = parse_system("dim=1; F1 = 1")
        with pytest.raises(LyapmetricError, match=r"w = \[1\.\]"):
            PotentialU(field, g)([1.0])

    def test_closedness_violation_raises(self):
        # rotation field with identity metric: omega = (x2, -x1) is not closed
        sys2 = parse_system("dim=2; F1 = -x1; F2 = -x2; g1 = x2; g2 = -x1")
        field = constant_metric(np.eye(2))
        pts = np.array([[0.5, 0.5], [1.0, -1.0]])
        sup, witness = closedness_residual(field, sys2.input_field, pts)
        assert sup == pytest.approx(2.0, abs=1e-6)
        with pytest.raises(ClosednessError):
            construct_U(field, sys2.input_field, [1.0, 1.0],
                        sample_points=pts)


class TestSynthesize:
    def test_scalar_plant_end_to_end(self, scalar_plant):
        pts = np.linspace(-2, 2, 9).reshape(-1, 1)
        field = constant_metric(np.array([[1.0]]), q=np.array([[1.0]]))
        closed, potential, cert = synthesize_controller(
            scalar_plant, field, gain=3.0, sample_points=pts)
        assert cert.verdict == "pass"
        assert cert.killing_sup <= 1e-8
        assert cert.integrability_sup <= 1e-8
        # 2 - 3 = -1 <= -1 with equality
        assert cert.decrease_sup == pytest.approx(0.0, abs=1e-9)
        # closed loop w' = -2w and L_F P = -4 <= -1
        assert closed.f(np.array([1.0]))[0] == pytest.approx(-2.0, abs=1e-9)
        assert cert.closed_loop_sup == pytest.approx(-3.0, abs=1e-7)
        assert potential(np.array([1.0])) == pytest.approx(1.0, rel=1e-10)

    def test_zero_gain_returns_drift(self):
        cs = parse_system("dim=1; F1 = -x1; g1 = 1")
        pts = np.linspace(-1, 1, 5).reshape(-1, 1)
        field = constant_metric(np.array([[1.0]]), q=np.array([[0.5]]))
        closed, _, cert = synthesize_controller(
            cs, field, gain=0.0, sample_points=pts)
        for w in (-1.3, 0.2, 2.0):
            assert closed.f(np.array([w]))[0] == cs.drift.f(np.array([w]))[0]
        assert cert.verdict == "pass"

    def test_2d_linear_with_solved_metric(self):
        a = np.array([[0.0, 1.0], [-1.0, -2.0]])
        base = catalog.linear_baseline(a)
        cs = parse_system("dim=2; F1 = x2; F2 = -x1 - 2*x2; g1 = 0; g2 = 1")
        field = constant_metric(base.p, q=0.9 * np.eye(2))
        pts = np.array([[0.3, -0.4], [1.0, 1.0], [-0.5, 0.2], [0.0, 0.0]])
        closed, _, cert = synthesize_controller(
            cs, field, gain=1.0, sample_points=pts)
        assert cert.verdict == "pass"
        assert cert.closed_loop_sup <= 1e-6

    def test_condition_one_failure_reported(self, scalar_plant):
        # gain too small: 2 - lam >= -1 fails for lam < 3
        pts = np.linspace(-1, 1, 5).reshape(-1, 1)
        field = constant_metric(np.array([[1.0]]), q=np.array([[1.0]]))
        with pytest.raises(FalsificationError) as err:
            synthesize_controller(scalar_plant, field, gain=1.0,
                                  sample_points=pts)
        assert "condition 1" in str(err.value)

    def test_condition_two_failure_reported(self):
        cs = parse_system("dim=1; F1 = -x1; g1 = x1")  # g = w breaks Killing
        pts = np.linspace(0.5, 1.5, 3).reshape(-1, 1)
        field = constant_metric(np.array([[1.0]]), q=np.array([[0.1]]))
        with pytest.raises(FalsificationError) as err:
            synthesize_controller(cs, field, gain=1.0, sample_points=pts)
        assert "condition 2" in str(err.value)

    def test_proof_identity_replay(self, scalar_plant):
        # with L_g P = 0 exactly the closed loop satisfies
        # L_F P = L_f P - 2 lam (Pg)(Pg)', so in one dimension
        # closed_loop_sup = decrease_sup - lam |Pg|^2 to rounding
        pts = np.linspace(-2, 2, 9).reshape(-1, 1)
        field = constant_metric(np.array([[1.0]]), q=np.array([[1.0]]))
        _, _, cert = synthesize_controller(
            scalar_plant, field, gain=3.0, sample_points=pts)
        assert abs((cert.decrease_sup - 3.0) - cert.closed_loop_sup) <= 1e-7

    def test_replayed_loop_is_the_exported_one(self, scalar_plant,
                                               unit_metric):
        # the loop the closed-loop inequality is replayed on prints as the
        # exported text; no second loop is built for certification
        pts = np.linspace(-2, 2, 9).reshape(-1, 1)
        closed, _, _ = synthesize_controller(
            scalar_plant, unit_metric, gain=3.0, sample_points=pts)
        assert closed.source is not None
        assert closed.to_spec_text() == "dim = 1\nF1 = (x1 - (3.0 * x1))\n"

    def test_quadrature_loop_without_expression_form(self):
        # P(w) = 1/cos^2(w) with g = cos(w): L_g P = 2 sin/cos^2 - 2 sin/cos^2
        # = 0 exactly, and U = ln|sec + tan| has no exported expression, so
        # the replayed loop goes through the quadrature potential
        cs = parse_system("dim=1; F1 = -x1; g1 = cos(x1)")
        field = from_callable(
            lambda w: [[1.0 / np.cos(float(w[0])) ** 2]], dim=1)
        pts = np.linspace(-0.6, 0.6, 5).reshape(-1, 1)
        closed, potential, cert = synthesize_controller(
            cs, field, gain=0.5, sample_points=pts)
        assert closed.source is None
        assert cert.verdict == "pass"
        assert cert.killing_sup <= 1e-8
        w = 0.5
        assert potential([w]) == pytest.approx(
            np.log(1.0 / np.cos(w) + np.tan(w)), rel=1e-9)
        assert closed.f([w])[0] == pytest.approx(
            -w - 0.5 * potential([w]) * np.cos(w), rel=1e-12)

    @pytest.mark.parametrize("g", ["1 + x1^2", "x1^2", "sin(x1)^2 + cos(x1)^2"])
    def test_varying_input_fails_condition_two_by_its_trees(self, g):
        # a constant P needs a constant g; the trees decide it, with no
        # sample: at w = 0 the Killing residual of 1 + w^2 is 0, and
        # sin^2 + cos^2 is constant but its derivative does not fold
        cs = parse_system(f"dim=1; F1 = x1; g1 = {g}")
        field = constant_metric(np.array([[1.0]]))
        with pytest.raises(FalsificationError) as err:
            synthesize_controller(cs, field, gain=3.0, sample_points=[[0.0]])
        assert "condition 2" in str(err.value)
        assert "dg1/dx1" in str(err.value)
        assert err.value.witness is None

    def test_base_point_shift_leaves_field_unchanged(self, unit_metric):
        # relocating the anchor shifts U by a constant; with the same anchor
        # convention the closed-loop field is reproduced exactly
        from lyapmetric.stabilization import PotentialU, _Feedback

        cs = parse_system(SCALAR_PLANT)
        pot0 = PotentialU(unit_metric, cs.input_field)
        pot1 = PotentialU(unit_metric, cs.input_field, base_point=[0.5])
        shift = pot0(np.array([0.5]))
        for w in (-1.0, 0.3, 2.0):
            assert pot0(np.array([w])) - pot1(np.array([w])) == \
                pytest.approx(shift, abs=1e-10)
        loop_a = cs.closed_loop(_Feedback(pot0, 2.0))
        loop_b = cs.closed_loop(_Feedback(pot0, 2.0))
        for w in (-1.0, 0.3, 2.0):
            assert loop_a.f(np.array([w]))[0] == loop_b.f(np.array([w]))[0]


class TestExport:
    def test_expression_route(self, scalar_plant, unit_metric):
        closed = export_closed_loop(scalar_plant, unit_metric, 3.0)
        assert closed is not None
        assert closed.f(np.array([2.0]))[0] == pytest.approx(-4.0, abs=1e-12)
        reparsed = parse_system(closed.to_spec_text())
        assert reparsed.f(np.array([2.0]))[0] == \
            pytest.approx(-4.0, abs=1e-12)

    def test_expression_route_declined_for_state_dependent_g(self, unit_metric):
        cs = parse_system("dim=1; F1 = -x1; g1 = cos(x1)")
        assert export_closed_loop(cs, unit_metric, 1.0) is None
