import math

import numpy as np
import pytest

from lyapmetric import catalog, parse_system, sampling
from lyapmetric.dynamics import flow, transverse_flow
from lyapmetric.errors import FalsificationError
from lyapmetric.estimation import (
    estimate_bound_constants,
    estimate_gain_function,
    estimate_les,
    estimate_linearized_decay,
    estimate_transverse_decay,
    jacobian_norm_majorant,
)
from lyapmetric.systems import SystemModel


@pytest.fixture(scope="module")
def scalar_model():
    return catalog.get("scalar-example").build()


class TestLocalEstimate:
    def test_linear_unit_rate_and_gain(self):
        m = parse_system("dim=1; F1 = -x1")
        est = estimate_les(m, 1.0, n_samples=2, horizon=10.0)
        assert est.rate == pytest.approx(1.0, rel=0.05)
        assert est.gain(1.0) == pytest.approx(1.0, rel=0.05)

    def test_scalar_example_tail_rate(self, scalar_model):
        est = estimate_les(scalar_model, 0.5, n_samples=2, horizon=10.0)
        assert est.rate >= 0.7  # local rate approaches 1 near the origin

    def test_envelope_holds_on_replayed_samples(self, scalar_model):
        est = estimate_les(scalar_model, 1.0, n_samples=2, horizon=10.0)
        for e0 in (1.0, -1.0):
            traj = flow(scalar_model, [e0], 10.0, tol=1e-9)
            envelope = est.gain(abs(e0)) * np.exp(-est.rate * traj.t) * abs(e0)
            assert np.all(np.abs(traj.states[:, 0]) <= envelope * (1 + 1e-9))

    def test_unstable_system_falsified_with_witness(self):
        m = parse_system("dim=1; F1 = x1")
        with pytest.raises(FalsificationError) as err:
            estimate_les(m, 1.0, n_samples=2, horizon=10.0)
        assert err.value.witness is not None

    def test_offset_origin_is_not_an_equilibrium(self):
        # F(0) = (0.1, 0): the decay claim is about an equilibrium at the
        # origin, so it is falsified there before any trajectory is drawn
        m = parse_system("dim=2; F1 = -2*x1 + 0.1; F2 = -x2")
        with pytest.raises(FalsificationError) as err:
            estimate_les(m, 1.0, n_samples=2, horizon=10.0)
        assert err.value.stage == "equilibrium"
        assert err.value.witness == [0.0, 0.0]

    def test_hurwitz_rate_matches_spectral_abscissa(self):
        # slowest eigenvalue -0.5; horizon 20/lambda = 40
        a = np.array([[-0.5, 0.3], [0.0, -2.0]])
        m = SystemModel.from_linear(a)
        est = estimate_les(m, 1.0, n_samples=6, horizon=40.0)
        assert est.rate == pytest.approx(0.5, rel=0.10)


class TestGainFunction:
    def test_linear_gain_is_flat(self):
        m = parse_system("dim=1; F1 = -x1")
        est = estimate_gain_function(m, [0.5, 1.0, 2.0], n_samples=2,
                                     horizon=10.0)
        for s in (0.5, 1.0, 2.0):
            assert est.gain(s) == pytest.approx(1.0, rel=0.05)

    def test_scalar_example_below_derived_envelope(self, scalar_model):
        # |E| <= |e| exp(e^2 / 2) exp(-t) follows from the implicit relation
        est = estimate_gain_function(scalar_model, [0.5, 1.0, 2.0],
                                     n_samples=2, horizon=10.0)
        for s in (0.5, 1.0, 2.0):
            assert est.gain(s) <= math.exp(0.5 * s * s) * 1.01

    def test_gain_table_nondecreasing(self, scalar_model):
        est = estimate_gain_function(scalar_model, [0.5, 1.0, 2.0, 2.5],
                                     n_samples=2, horizon=10.0)
        assert np.all(np.diff(est.gain_values) >= 0.0)

    def test_gain_table_monotone_in_sample_inclusion(self):
        # the low-discrepancy sampler is prefix-stable per seed, so adding
        # samples can only push the tabulated suprema up
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        model = SystemModel.from_linear(a)
        les = estimate_les(model, 0.5, n_samples=4, horizon=20.0)
        small = estimate_gain_function(model, [0.5, 1.0, 2.0], n_samples=2,
                                       horizon=20.0, les=les)
        big = estimate_gain_function(model, [0.5, 1.0, 2.0], n_samples=4,
                                     horizon=20.0, les=les)
        assert np.all(big.gain_values >= small.gain_values - 1e-15)

    def test_degenerate_grid_matches_les_gain(self, scalar_model):
        les = estimate_les(scalar_model, 1.0, n_samples=2, horizon=10.0)
        est = estimate_gain_function(scalar_model, [1.0], n_samples=2,
                                     horizon=10.0, les=les)
        # same sphere, lower rate: the tabulated gain reproduces the local
        # one up to the rate-shrink margin
        assert est.gain(1.0) == pytest.approx(les.gain(1.0), rel=0.05)

    def test_rate_strictly_below_local(self, scalar_model):
        les = estimate_les(scalar_model, 0.5, n_samples=2, horizon=10.0)
        est = estimate_gain_function(scalar_model, [0.5, 1.0], n_samples=2,
                                     horizon=10.0, les=les)
        assert est.rate < les.rate

    def test_unstable_growth_falsified(self):
        m = parse_system("dim=1; F1 = x1")
        with pytest.raises(FalsificationError):
            estimate_gain_function(m, [0.5, 1.0], n_samples=2, horizon=10.0,
                                   les=_fake_les())


def _fake_les():
    from lyapmetric.estimation import DecayEstimate, SampleInfo

    return DecayEstimate(rate=1.0, radius=0.5,
                         samples=SampleInfo(0, 0, 0.0, 0.0, "given"),
                         gain_const=1.0)


class TestLinearizedDecay:
    def test_linear_transition_envelope(self):
        m = parse_system("dim=1; F1 = -x1")
        est = estimate_linearized_decay(m, [0.5, 1.0], n_samples=2,
                                        horizon=10.0)
        assert est.rate == pytest.approx(1.0, rel=0.05)
        assert est.gain(1.0) == pytest.approx(1.0, rel=0.05)

    def test_scalar_example_below_quadratic_exponent_envelope(self, scalar_model):
        est = estimate_linearized_decay(scalar_model, [0.5, 1.0],
                                        n_samples=2, horizon=12.0)
        for s in (0.5, 1.0):
            cap = math.exp(2.0 * s * s * math.exp(s * s))
            assert est.gain(s) <= cap * 1.01
        assert est.rate == pytest.approx(1.0, rel=0.05)

    def test_counterexample_slow_regime_falsified(self):
        model = catalog.get("transverse-counterexample").build(
            {"lam": 0.5, "mu_x": 1.0})
        with pytest.raises(FalsificationError) as err:
            estimate_linearized_decay(model.full, [1.0],
                                      n_samples=2, horizon=6.0, tol=1e-6,
                                      row_block=1)
        assert err.value.witness is not None

    def test_counterexample_fast_regime_passes(self):
        model = catalog.get("transverse-counterexample").build(
            {"lam": 2.0, "mu_x": 1.0})
        est = estimate_linearized_decay(model.full, [1.0],
                                        n_samples=2, horizon=6.0, tol=1e-6,
                                        row_block=1)
        assert est.rate > 0.0


class TestTransverseDecay:
    def test_counterexample_uniform_envelope(self):
        model = catalog.get("transverse-counterexample").build(
            {"lam": 1.0, "mu_x": 1.0})
        est = estimate_transverse_decay(model, ([-1.0], [1.0]), n_samples=4,
                                        horizon=6.0)
        assert est.rate == pytest.approx(1.0, rel=0.1)
        # uniform gain stays below exp((cos b - cos a)/mu) <= exp(2)
        assert est.gain(1.0) <= math.exp(2.0) * 1.01

    def test_counterexample_near_unit_start_gain(self):
        # the x0 = 1 family obeys the tighter constant exp(cos 1 + 1)
        model = catalog.get("transverse-counterexample").build(
            {"lam": 1.0, "mu_x": 1.0})
        est = estimate_transverse_decay(model, ([0.9], [1.1]), n_samples=4,
                                        horizon=6.0)
        assert est.gain(1.0) <= math.exp(math.cos(1.0) + 1.0) * 1.01

    @pytest.mark.parametrize("lam", [2.0, 1.0])
    def test_gain_matches_closed_form_transition(self, lam):
        # the envelope reads the lone transverse lift: on each sample's own
        # time grid, the closed-form transition gives the same sup
        model = catalog.get("transverse-counterexample").build(
            {"lam": lam, "mu_x": 1.0})
        box = ([-1.0], [1.0])
        est = estimate_transverse_decay(model, box, n_samples=4, horizon=6.0)
        sups = []
        for x0 in sampling.box_points(*box, 4, 0):
            t = transverse_flow(model, x0, 6.0).t
            sups.append(max(
                catalog.counterexample_transverse_phi_oracle(
                    x0[0], s, lam, 1.0) * math.exp(est.rate * s) for s in t))
        assert est.gain(1.0) == pytest.approx(max([1.0] + sups), rel=1e-8)


SPHERE_POINTS = [[-1.0], [1.0]]
BOX = ([-1.0], [1.0])

# estimator name -> (system text template, estimate on the parsed model,
# the sample points it draws)
GATE_ESTIMATORS = {
    "les": ("dim=1; {F}",
            lambda m: estimate_les(m, 1.0, n_samples=2, horizon=10.0),
            SPHERE_POINTS),
    "gain": ("dim=1; {F}",
             lambda m: estimate_gain_function(m, [1.0], n_samples=2,
                                              horizon=10.0, les=_fake_les()),
             SPHERE_POINTS),
    "linearized": ("dim=1; {F}",
                   lambda m: estimate_linearized_decay(m, [1.0], n_samples=2,
                                                       horizon=10.0),
                   SPHERE_POINTS),
    "transverse": ("dim=2; e_dim=1; {F}; G1 = 0*x2",
                   lambda m: estimate_transverse_decay(m, BOX, n_samples=2,
                                                       horizon=8.0),
                   sampling.box_points(*BOX, 2, 0).tolist()),
}


@pytest.mark.parametrize("estimator, field, gate", [
    # e' = e^2 leaves every bound before t = 1 from e = 1
    ("les", "F1 = x1^2", "not forward complete"),
    ("les", "F1 = x1", "keeps growing"),
    ("les", "F1 = 0.1*x1", "no exponential tail decay"),
    ("gain", "F1 = x1^2", "not forward complete"),
    ("gain", "F1 = x1", "keeps growing"),
    ("linearized", "F1 = x1^2", "not forward complete"),
    ("linearized", "F1 = x1", "keeps growing"),
    ("linearized", "F1 = 0.1*x1", "no exponential tail decay"),
    # the transverse transition exp(5t) passes the blow-up norm by t = 8
    ("transverse", "F1 = 5*x1", "not forward complete"),
    ("transverse", "F1 = 2*x1", "keeps growing"),
    ("transverse", "F1 = 0.1*x1", "no exponential tail decay"),
])
def test_decay_gates_name_gate_and_witness(estimator, field, gate):
    text, estimate, points = GATE_ESTIMATORS[estimator]
    with pytest.raises(FalsificationError) as err:
        estimate(parse_system(text.format(F=field)))
    assert err.value.witness in points
    assert gate in str(err.value)


class TestBoundConstants:
    def test_counterexample_constants(self):
        model = catalog.get("transverse-counterexample").build(
            {"lam": 1.0, "mu_x": 1.0})
        bc = estimate_bound_constants(model, e_radius=1.0,
                                      x_box=([-2.0], [2.0]), n_samples=512)
        # 1-D grid-search oracle for sup |lam + x sin x| over [-2, 2]
        grid = np.linspace(-2.0, 2.0, 40001)
        mu_ref = float(np.max(np.abs(1.0 + grid * np.sin(grid))))
        assert bc.mu <= mu_ref + 1e-9
        assert bc.mu == pytest.approx(mu_ref, rel=0.02)
        assert bc.rho == pytest.approx(1.0, abs=1e-12)
        assert bc.parts["dG_de"] == 0.0
        assert bc.parts["d2F_dede"] == 0.0
        # mixed term: sup |sin x + x cos x| over the box
        mixed_ref = float(np.max(np.abs(np.sin(grid) + grid * np.cos(grid))))
        assert bc.parts["d2F_dxde"] == pytest.approx(mixed_ref, rel=0.05)

    def test_linear_two_block(self):
        model = parse_system("dim=2; e_dim=1; F1 = -2*x1; G1 = 3*x2")
        bc = estimate_bound_constants(model, e_radius=1.0,
                                      x_box=([-1.0], [1.0]), n_samples=64)
        assert bc.mu == pytest.approx(2.0, abs=1e-12)
        assert bc.rho == pytest.approx(3.0, abs=1e-12)
        assert bc.c == pytest.approx(0.0, abs=1e-12)


def test_jacobian_norm_majorant_scalar_example(scalar_model):
    maj = jacobian_norm_majorant(scalar_model, [0.5, 1.0, 2.0], n_samples=64)
    # |dF/de| on the line peaks at the origin with value 1
    for s in (0.5, 1.0, 2.0):
        assert maj(s) == pytest.approx(1.0, rel=0.02)
        assert maj(s) <= 1.0 + 1e-12
