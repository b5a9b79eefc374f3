import math

import numpy as np
import pytest

from lyapmetric import catalog
from lyapmetric.dynamics import flow, variational_flow
from lyapmetric.errors import LyapmetricError

# frozen from the safeguarded-Newton oracle (residual < 1e-12 checked below)
E_1_1 = 0.5276973969625716
Y_FOR_EXP_MINUS_1 = 0.2784645427610738


class TestScalarExampleOracle:
    def test_zero_stays_zero(self):
        for t in (0.0, 0.7, 3.0):
            assert catalog.scalar_example_oracle(0.0, t) == 0.0

    def test_identity_at_time_zero(self):
        assert catalog.scalar_example_oracle(1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_unit_start_after_one_second(self):
        y = catalog._solve_y_exp_y(math.exp(-1.0))
        assert abs(y * math.exp(y) - math.exp(-1.0)) < 1e-12
        assert y == pytest.approx(Y_FOR_EXP_MINUS_1, abs=1e-14)
        assert catalog.scalar_example_oracle(1.0, 1.0) == pytest.approx(E_1_1, abs=1e-13)

    def test_odd_symmetry(self):
        assert catalog.scalar_example_oracle(-1.3, 0.8) == pytest.approx(
            -catalog.scalar_example_oracle(1.3, 0.8), abs=0.0)

    def test_implicit_relation_holds(self):
        for e in (0.3, 1.0, 2.5):
            for t in (0.5, 1.5, 4.0):
                big_e = catalog.scalar_example_oracle(e, t)
                lhs = big_e**2 * math.exp(big_e**2)
                rhs = e**2 * math.exp(e**2) * math.exp(-2 * t)
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_newton_solver_matches_lambert_w(self):
        import scipy.special

        for c in (0.05, math.exp(-1.0), 1.0, 7.3, 250.0):
            ref = float(scipy.special.lambertw(c).real)
            assert catalog._solve_y_exp_y(c) == pytest.approx(ref, abs=1e-14)


class TestScalarExampleTransition:
    def test_nested_quadrature_agrees_with_identity_route(self):
        for e, t in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7), (-1.5, 1.2)):
            a = catalog.scalar_example_transition_oracle(e, t)
            b = catalog.scalar_example_transition_oracle(e, t, nested=True)
            assert a == pytest.approx(b, rel=1e-9)

    def test_metric_oracle_matches_integrated_transition(self):
        # independent closed form of the same integral, via substitution
        for e in (0.5, 1.0, 2.0):
            closed = (1 + e * e) ** 2 * math.log(1 + e * e) / (2 * e * e)
            assert catalog.scalar_example_metric_oracle(e) == pytest.approx(
                closed, rel=1e-9)

    def test_metric_oracle_at_small_radius_approaches_half(self):
        assert catalog.scalar_example_metric_oracle(1e-4) == pytest.approx(0.5, abs=1e-6)


class TestCounterexampleOracle:
    def test_state_oracle_vs_direct_integration(self):
        for lam in (0.5, 2.0):
            model = catalog.get("transverse-counterexample").build(
                {"lam": lam, "mu_x": 1.0})
            traj = flow(model.full, [1.0, 1.0], 3.0, tol=1e-10)
            for tq in (0.5, 1.5, 3.0):
                i = int(np.argmin(np.abs(traj.t - tq)))
                e_num, x_num = traj.states[i]
                e_ref, x_ref = catalog.counterexample_state_oracle(
                    1.0, 1.0, traj.t[i], lam, 1.0)
                assert e_num == pytest.approx(e_ref, abs=1e-7)
                assert x_num == pytest.approx(x_ref, rel=1e-8)

    def test_variation_oracle_vs_direct_integration(self):
        for lam in (0.5, 2.0):
            model = catalog.get("transverse-counterexample").build(
                {"lam": lam, "mu_x": 1.0})
            traj = variational_flow(model.full, [1.0, 1.0], 3.0, tol=1e-10)
            delta0 = np.array([0.25, 1.0])
            for tq in (1.0, 2.0, 3.0):
                i = int(np.argmin(np.abs(traj.t - tq)))
                d_num = (traj.phi[i] @ delta0)[0]
                d_ref = catalog.counterexample_variation_oracle(
                    1.0, 1.0, delta0[0], delta0[1], traj.t[i], lam, 1.0)
                assert d_num == pytest.approx(d_ref, rel=1e-6, abs=1e-8)

    def test_pure_transverse_mode(self):
        # dx0 = 0 decouples the variation: dE(t) = Phi(x0, t) de0
        for t in (0.4, 1.1, 2.2):
            d = catalog.counterexample_variation_oracle(1.0, 1.0, 0.7, 0.0, t, 0.5, 1.0)
            phi = catalog.counterexample_transverse_phi_oracle(1.0, t, 0.5, 1.0)
            assert d == pytest.approx(0.7 * phi, rel=1e-14)

    def test_fast_transverse_regime_decays(self):
        # lam = 2, mu_x = 1: the variation dies out
        sup_late = max(
            abs(catalog.counterexample_variation_oracle(1.0, 1.0, 1.0, 1.0, t, 2.0, 1.0))
            for t in np.linspace(5.0, 10.0, 200))
        assert sup_late <= 1e-2

    def test_slow_transverse_regime_persists(self):
        vals = [
            abs(catalog.counterexample_variation_oracle(1.0, 1.0, 1.0, 1.0, t, 0.5, 1.0))
            for t in np.linspace(0.0, 10.0, 400)]
        assert max(vals[200:]) > 1.0  # still large over t in [5, 10]

    def test_transverse_phi_against_quadrature(self):
        import scipy.integrate

        for lam, x0, t in ((0.5, 1.0, 2.0), (1.0, 0.7, 1.5)):
            val, _ = scipy.integrate.quad(
                lambda s: lam + x0 * math.exp(s) * math.sin(x0 * math.exp(s)),
                0.0, t, epsabs=1e-12, epsrel=1e-12, limit=300)
            ref = math.exp(-val)
            assert catalog.counterexample_transverse_phi_oracle(
                x0, t, lam, 1.0) == pytest.approx(ref, rel=1e-10)


class TestLinearBaseline:
    def test_scalar_gramian(self):
        base = catalog.linear_baseline(np.array([[-1.0]]), np.array([[1.0]]))
        assert base.p[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_lyapunov_residual_tiny(self):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        base = catalog.linear_baseline(a)
        assert np.max(np.abs(base.residual())) <= 1e-12

    def test_transition_matches_variational_flow(self):
        from lyapmetric.systems import SystemModel

        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        base = catalog.linear_baseline(a)
        model = SystemModel.from_linear(a)
        for t in (0.5, 1.0, 2.0):
            phi = variational_flow(model, [0.3, -0.2], t, tol=1e-11).phi[-1]
            assert np.max(np.abs(phi - base.transition(t))) <= 1e-8

    def test_rejects_non_hurwitz(self):
        with pytest.raises(LyapmetricError):
            catalog.linear_baseline(np.array([[1.0]]))


def test_registry_round_trip():
    names = set(catalog.entries())
    assert {"scalar-example", "transverse-counterexample"} <= names
    model = catalog.get("scalar-example").build()
    assert model.dim == 1
    with pytest.raises(LyapmetricError):
        catalog.get("no-such-system")
