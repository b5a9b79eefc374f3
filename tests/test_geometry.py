import math

import numpy as np
import pytest

from lyapmetric import catalog, geometry, parse_system
from lyapmetric.estimation import estimate_linearized_decay
from lyapmetric.metric import constant_metric, from_callable, metric_bounds, solution_metric


@pytest.fixture(scope="module")
def quadratic_1d_metric():
    # p(e) = 1 + e^2: Gamma = p'/(2p) = e / (1 + e^2) in closed form
    return from_callable(lambda x: np.array([[1.0 + float(x[0]) ** 2]]), dim=1)


@pytest.fixture(scope="module")
def scalar_setup():
    model = catalog.get("scalar-example").build()
    decay = estimate_linearized_decay(model, [0.5, 1.0, 2.0, 2.6],
                                      n_samples=2, horizon=12.0, tol=1e-9)
    field = solution_metric(model, decay=decay, tail_tol=1e-7, ode_tol=1e-10)
    tab = field.tabulate(-2.6, 2.6, 161)
    metric_bounds(tab, [0.5, 1.0, 2.0, 2.5], n_samples=2)
    return model, tab


def _shoot(field, start, target, segments):
    """geometry._shoot with the dispatcher's tolerances for `segments`."""
    scale = 1.0 + float(np.linalg.norm(target))
    [(newton_tol, accept)] = [(tol, acc) for _, k, tol, acc in geometry._SHOTS
                              if k == segments]
    return geometry._shoot(field, start, target, segments, newton_tol * scale,
                           accept * scale)


def _fail_shots(monkeypatch, *failing):
    """Make every shooting attempt with a segment count in `failing` fail."""
    shoot = geometry._shoot
    monkeypatch.setattr(
        geometry, "_shoot",
        lambda metric, start, target, segments, *tols:
        None if segments in failing
        else shoot(metric, start, target, segments, *tols))


def _u(a):
    # arc length of the x1-axis under diag(1 + x1^2, 1): the map
    # (x1, x2) -> (u(x1), x2) is an isometry onto the Euclidean plane
    return 0.5 * (a * math.sqrt(1.0 + a * a) + math.asinh(a))


PLANAR = "dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2"


class TestChristoffel:
    def test_constant_metric_vanishes(self):
        field = constant_metric(np.array([[2.0, 0.4], [0.4, 1.0]]))
        gam = geometry.christoffel(field, [0.3, -0.8])
        assert np.max(np.abs(gam)) == 0.0

    def test_quadratic_1d_closed_form(self, quadratic_1d_metric):
        for e in (0.0, 0.3, 1.0, -1.7):
            gam = geometry.christoffel(quadratic_1d_metric, [e])[0, 0, 0]
            assert gam == pytest.approx(e / (1.0 + e * e), abs=1e-5)

    def test_symmetry_in_lower_indices(self, scalar_setup):
        # 2-D symmetric check on a synthetic anisotropic metric
        def p(x):
            a, b = float(x[0]), float(x[1])
            return np.array([[1.0 + a * a, 0.2 * a * b],
                             [0.2 * a * b, 1.0 + b * b]])

        field = from_callable(p, dim=2)
        gam = geometry.christoffel(field, [0.4, -0.6])
        assert np.array_equal(gam, np.transpose(gam, (0, 2, 1)))


class TestGeodesicIvp:
    def test_constant_metric_straight_line(self):
        field = constant_metric(np.array([[2.0, 0.0], [0.0, 1.0]]))
        e, v = np.array([0.5, -0.5]), np.array([1.0, 2.0])
        path = geometry.geodesic_ivp(field, e, v, 0.8)
        expected = e + path.s[-1] * v
        assert np.max(np.abs(path.points[-1] - expected)) <= 1e-9

    def test_unit_speed_conservation(self, quadratic_1d_metric):
        v = geometry.normalize_velocity(quadratic_1d_metric, [0.0], [1.0])
        path = geometry.geodesic_ivp(quadratic_1d_metric, [0.0], v, 1.5)
        assert path.normalized
        assert path.speed_drift <= 1e-6

    def test_reversal_retraces(self, quadratic_1d_metric):
        path = geometry.geodesic_ivp(quadratic_1d_metric, [0.2], [0.9], 1.0)
        back = geometry.geodesic_ivp(quadratic_1d_metric, path.points[-1],
                                     -path.velocities[-1], path.s[-1])
        assert abs(back.points[-1, 0] - 0.2) <= 1e-5

    def test_zero_velocity_rejected(self, quadratic_1d_metric):
        from lyapmetric.errors import LyapmetricError

        with pytest.raises(LyapmetricError):
            geometry.geodesic_ivp(quadratic_1d_metric, [0.1], [0.0], 1.0)

    def test_csv_export(self, quadratic_1d_metric, tmp_path):
        path = geometry.geodesic_ivp(quadratic_1d_metric, [0.0], [1.0], 0.5)
        out = tmp_path / "geo.csv"
        path.to_csv(out)
        with open(out, encoding="utf-8") as fh:
            assert fh.readline().strip() == "s,gamma_1,speed"


class TestRiemannianLength:
    def test_constant_metric_segment(self):
        p = np.array([[2.0, 0.3], [0.3, 1.0]])
        field = constant_metric(p)
        e = np.array([0.8, -0.6])
        length = geometry.riemannian_length(field, [np.zeros(2), e])
        assert length == pytest.approx(math.sqrt(e @ p @ e), rel=1e-10)

    def test_flat_half_metric(self):
        field = constant_metric(np.array([[0.5]]))
        length = geometry.riemannian_length(field, [[0.0], [1.0]])
        assert length == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_refinement_converges(self, quadratic_1d_metric):
        a = geometry.riemannian_length(quadratic_1d_metric, [[0.0], [1.5]],
                                       rel_tol=1e-8)
        b = geometry.riemannian_length(quadratic_1d_metric, [[0.0], [1.5]],
                                       rel_tol=1e-10)
        assert abs(a - b) <= 1e-8 * abs(b)

    def test_refinement_reuses_nodes_exactly(self):
        # reusing the previous nodes must give the same value as evaluating
        # the final grid from scratch
        fn = lambda x: math.sqrt(1.0 + math.sin(3.0 * x) ** 2)  # noqa: E731
        value, panels, converged = geometry._refined_simpson(fn, 1e-10)
        assert converged
        vals = np.array([fn(x) for x in np.linspace(0.0, 1.0, panels + 1)])
        h = 1.0 / panels
        ref = h / 3.0 * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2])
                         + 2.0 * np.sum(vals[2:-1:2]))
        assert value == ref


class TestDistanceToOrigin:
    def test_constant_metric_closed_form(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            basis = rng.normal(size=(n, n))
            p = basis @ basis.T + 0.5 * np.eye(n)
            field = constant_metric(p)
            e = rng.uniform(-1.5, 1.5, n)
            d = geometry.distance_to_origin(field, e)
            assert not d.flagged
            assert d.value == pytest.approx(math.sqrt(e @ p @ e), abs=1e-8)

    def test_origin_is_zero(self, quadratic_1d_metric):
        d = geometry.distance_to_origin(quadratic_1d_metric, [0.0])
        assert d.value == 0.0

    def test_quadratic_1d_closed_form(self, quadratic_1d_metric):
        # integral of sqrt(1 + s^2) has the classic closed form
        for e in (0.7, 1.5):
            d = geometry.distance_to_origin(quadratic_1d_metric, [e])
            ref = 0.5 * (e * math.sqrt(1 + e * e) + math.asinh(e))
            assert d.value == pytest.approx(ref, abs=1e-8)

    def test_scalar_example_matches_quadrature_oracle(self, scalar_setup):
        _, tab = scalar_setup
        for e in (0.5, 1.0, 2.0, -1.0, -2.0):
            d = geometry.distance_to_origin(tab, [e])
            oracle = catalog.scalar_example_distance_oracle(tab, e)
            assert not d.flagged
            assert d.value == pytest.approx(abs(oracle), abs=1e-5)

    def test_scalar_example_sandwich(self, scalar_setup):
        _, tab = scalar_setup
        for e in (0.5, 1.0, 2.0):
            d = geometry.distance_to_origin(tab, [e])
            lo = math.sqrt(tab.p_lower(e)) * e
            hi = math.sqrt(tab.p_upper(e)) * e
            assert lo - 1e-9 <= d.value <= hi + 1e-9

    def test_positive_away_from_origin(self, scalar_setup):
        _, tab = scalar_setup
        for e in (0.1, -0.4, 1.7):
            assert geometry.distance_to_origin(tab, [e]).value > 0.0


class TestShootingFallbacks:
    def test_multiple_shooting_matches_closed_form(self, quadratic_1d_metric):
        hit = _shoot(quadratic_1d_metric, np.zeros(1), np.array([1.5]),
                     geometry._SEGMENTS)
        assert hit is not None
        ref = 0.5 * (1.5 * math.sqrt(1 + 2.25) + math.asinh(1.5))
        assert hit[1] == pytest.approx(ref, abs=1e-9)

    @staticmethod
    def _curved_metric():
        def p(x):
            a, b = float(x[0]), float(x[1])
            return np.array([[1.0 + 0.5 * a * a, 0.1 * a * b],
                             [0.1 * a * b, 1.0 + 0.5 * b * b]])

        return from_callable(p, dim=2)

    def test_multiple_matches_single_on_curved_2d(self):
        field = self._curved_metric()
        target = np.array([0.9, 0.7])
        single = _shoot(field, np.zeros(2), target, 1)
        multiple = _shoot(field, np.zeros(2), target, geometry._SEGMENTS)
        assert single is not None and multiple is not None
        assert multiple[1] == pytest.approx(single[1], abs=1e-9)

    @pytest.mark.parametrize("target, value", [
        ((0.9, 0.7), 1.2131272676547802), ((-1.2, 0.4), 1.3970206223234327)])
    def test_single_shooting_golden_values(self, target, value):
        # pinned bit for bit: single shooting is the one-segment shot, and
        # its values and Newton counts must not drift
        d = geometry.distance_to_origin(self._curved_metric(), target)
        assert d.method == "single-shooting"
        assert d.value == value
        assert d.iterations == 4

    # diag(1 + x1^2, 1): the x1-axis is a geodesic (x2 -> -x2 symmetry), so
    # the distance to (1.5, 0) has the closed form of the 1-D quadratic metric
    @staticmethod
    def _product_metric():
        return from_callable(
            lambda x: np.diag([1.0 + float(x[0]) ** 2, 1.0]), dim=2)

    def test_dispatcher_falls_back_to_multiple(self, monkeypatch):
        _fail_shots(monkeypatch, 1)
        d = geometry.distance_to_origin(self._product_metric(), [1.5, 0.0])
        assert not d.flagged
        assert d.method == "multiple-shooting"
        ref = 0.5 * (1.5 * math.sqrt(1 + 2.25) + math.asinh(1.5))
        assert d.value == pytest.approx(ref, abs=1e-8)

    def test_dispatcher_flags_straight_line_upper_bound(self, monkeypatch):
        _fail_shots(monkeypatch, 1, geometry._SEGMENTS)
        d = geometry.distance_to_origin(self._product_metric(), [1.5, 0.0])
        assert d.flagged
        assert d.method == "straight-line-upper-bound"
        # the fallback is an upper bound (here the segment is the geodesic)
        ref = 0.5 * (1.5 * math.sqrt(1 + 2.25) + math.asinh(1.5))
        assert d.value >= ref - 1e-8


class TestOneDimensionalQuadrature:
    @pytest.fixture(scope="class")
    def cusp_metric(self):
        # sqrt(p) has a cusp at 1/3, so Simpson converges only like
        # panels^-1.5 and cannot reach rel_tol = 1e-10 within the panel cap
        return from_callable(
            lambda x: np.array([[1.0 + abs(float(x[0]) - 1.0 / 3.0) ** 0.5]]),
            dim=1)

    def test_route_selected_by_dimension(self, quadratic_1d_metric):
        d = geometry.distance_to_origin(quadratic_1d_metric, [1.5])
        assert d.method == "quadrature"
        assert not d.flagged
        assert d.iterations == 0 and d.panels >= 8
        field = constant_metric(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert geometry.distance_to_origin(
            field, [0.4, -0.2]).method == "single-shooting"

    @pytest.mark.parametrize("which", ["quadratic", "tabulated"])
    def test_matches_single_shooting(self, which, quadratic_1d_metric,
                                     scalar_setup):
        field = quadratic_1d_metric if which == "quadratic" \
            else scalar_setup[1]
        for start, target in ((0.0, 0.5), (0.0, 1.5), (0.0, -2.0),
                              (0.3, 1.1)):
            start, target = np.array([start]), np.array([target])
            hit = _shoot(field, start, target, 1)
            assert hit is not None
            d = geometry._distance_between(field, start, target)
            assert d.method == "quadrature"
            assert d.value == pytest.approx(hit[1], abs=1e-9)

    def test_needs_no_christoffel_symbols(self, scalar_setup, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("1-D distances must not shoot geodesics")

        monkeypatch.setattr(geometry, "christoffel", forbidden)
        model, tab = scalar_setup
        d = geometry.distance_to_origin(tab, [1.0])
        assert not d.flagged and d.value > 0.0
        dini = geometry.dini_derivative_V(tab, model, [1.0])
        assert not dini.flagged and dini.value < 0.0

    def test_unconverged_quadrature_is_flagged(self, cusp_metric):
        length, panels, converged = geometry._segment_length(
            cusp_metric, np.zeros(1), np.ones(1), 1e-10)
        assert not converged
        assert panels == geometry._MAX_PANELS
        d = geometry.distance_to_origin(cusp_metric, [1.0])
        assert d.flagged
        assert d.method == "quadrature"
        assert d.value == length
        # a segment that avoids the cusp converges as usual
        assert not geometry.distance_to_origin(cusp_metric, [0.3]).flagged

    def test_unconverged_quadrature_flags_dini(self, cusp_metric):
        model = parse_system("dim=1; F1 = -x1")
        dini = geometry.dini_derivative_V(cusp_metric, model, [1.0])
        assert dini.flagged


class TestFirstVariation:
    """D+V = gradient . F from the distance solve, against closed forms."""

    @pytest.mark.parametrize("e", [(1.5, 0.0), (0.8, -0.5), (-1.0, 0.3),
                                   (0.5, 0.5)])
    def test_gradient_gives_dini_on_product_metric(self, e):
        # V = sqrt(u(x1)^2 + x2^2), so grad V = (u u'(x1), x2) / V
        field = TestShootingFallbacks._product_metric()
        model = parse_system(PLANAR)
        e = np.array(e)
        v = math.hypot(_u(e[0]), e[1])
        grad = np.array([_u(e[0]) * math.sqrt(1.0 + e[0] ** 2), e[1]]) / v
        exact = float(grad @ model.f(e))
        d = geometry.distance_to_origin(field, e)
        assert not d.flagged
        assert float(d.gradient @ model.f(e)) == pytest.approx(exact,
                                                               abs=1e-8)
        ladder = geometry.dini_derivative_V(field, model, e)
        assert ladder.value == pytest.approx(exact, abs=1e-4)

    def test_quadrature_gradient_is_signed_sqrt_p(self, quadratic_1d_metric):
        d = geometry._distance_between(quadratic_1d_metric, np.array([0.5]),
                                       np.array([-1.0]))
        assert d.gradient[0] == -math.sqrt(2.0)
        assert d.start_gradient[0] == math.sqrt(1.25)

    def test_flagged_and_coincident_carry_no_gradient(self,
                                                      quadratic_1d_metric,
                                                      monkeypatch):
        assert geometry.distance_to_origin(quadratic_1d_metric,
                                           [0.0]).gradient is None
        _fail_shots(monkeypatch, 1, geometry._SEGMENTS)
        d = geometry.distance_to_origin(
            TestShootingFallbacks._product_metric(), [1.5, 0.0])
        assert d.flagged and d.gradient is None and d.start_gradient is None

    def test_ladder_halves_once_on_cubic_closed_loop(self):
        # the cubic plant closed with gain 3 under P = I has F(1, 0) =
        # (-4, -4) and V = |e|, so D+V = -4; the default ladder fails its
        # gate there (extrapolants 2.76e-3 apart) and one halving passes
        from lyapmetric.stabilization import export_closed_loop

        plant = parse_system("dim=2; F1 = x2 - x1^3; F2 = -x1 + 0.5*x2; "
                             "g1 = 1; g2 = 1")
        field = constant_metric(np.eye(2))
        closed = export_closed_loop(plant, field, 3.0)
        dini = geometry.dini_derivative_V(field, closed, [1.0, 0.0])
        assert dini.h == 5e-3
        assert dini.value == pytest.approx(-4.0, abs=3e-4)


class TestDini:
    def test_linear_half_metric(self):
        # e' = -e with P = 1/2: V = |e|/sqrt(2), D+V = -V exactly
        model = parse_system("dim=1; F1 = -x1")
        field = constant_metric(np.array([[0.5]]))
        metric_bounds(field, [0.5, 1.0, 2.0], n_samples=2)
        dini = geometry.dini_derivative_V(field, model, [1.0])
        v = 1.0 / math.sqrt(2.0)
        assert dini.v_at_point == pytest.approx(v, abs=1e-9)
        # extrapolation residue of the fixed h ladder is ~h_min^2 / 3
        assert dini.value == pytest.approx(-v, abs=5e-6)
        bound = geometry.dini_decrease_bound(field, v, 1.0)
        assert dini.value <= bound + 1e-3

    def test_scalar_example_decrease(self, scalar_setup):
        model, tab = scalar_setup
        for e in (0.5, 1.0, 2.0):
            dini = geometry.dini_derivative_V(tab, model, [e])
            assert not dini.flagged
            assert dini.value < 0.0
            bound = geometry.dini_decrease_bound(tab, dini.v_at_point, e)
            assert dini.value <= bound + 1e-3
            # the sharper sqrt-envelope variant also holds on this system
            q_min = float(np.min(np.linalg.eigvalsh(tab.q)))
            sqrt_bound = -q_min * dini.v_at_point / (
                2.0 * math.sqrt(tab.p_upper(e)))
            assert dini.value <= sqrt_bound + 1e-3

    def test_dini_vanishes_at_origin(self, scalar_setup):
        model, tab = scalar_setup
        dini = geometry.dini_derivative_V(tab, model, [0.0])
        assert dini.v_at_point == 0.0
        assert dini.value == 0.0

    def test_dini_matches_1d_chain_rule(self, scalar_setup):
        # in one dimension D+V = sqrt(p(e)) F(e)
        model, tab = scalar_setup
        for e in (0.5, 1.0, 2.0):
            dini = geometry.dini_derivative_V(tab, model, [e])
            ref = math.sqrt(tab(np.array([e]))[0, 0]) * model.f(
                np.array([e]))[0]
            assert dini.value == pytest.approx(ref, abs=5e-4)


class TestPairwise:
    def test_coincident_points(self, quadratic_1d_metric):
        rep = geometry.pairwise_distance(quadratic_1d_metric, [0.7], [0.7])
        assert rep.distance == 0.0

    def test_symmetry(self, scalar_setup):
        _, tab = scalar_setup
        a = geometry.pairwise_distance(tab, [1.0], [0.5]).distance
        b = geometry.pairwise_distance(tab, [0.5], [1.0]).distance
        assert a == pytest.approx(b, abs=1e-6)

    def test_triangle_inequality(self, scalar_setup):
        _, tab = scalar_setup
        pts = ([0.3], [1.1], [2.0])
        d = {}
        for i in range(3):
            for j in range(3):
                if i != j:
                    d[i, j] = geometry.pairwise_distance(
                        tab, pts[i], pts[j]).distance
        assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-5

    def test_sandwich_and_contraction(self, scalar_setup):
        model, tab = scalar_setup
        rep = geometry.pairwise_distance(tab, [1.0], [0.5], model=model)
        assert rep.sandwich_ok
        assert rep.decrease_rate < 0.0
        assert rep.decrease_rate <= rep.decrease_bound + 1e-3

    def test_rate_is_first_variation_on_a_line(self, scalar_setup):
        # d(e1, e2) = int_e2^e1 sqrt(p) for e2 < e1
        model, tab = scalar_setup
        rep = geometry.pairwise_distance(tab, [1.0], [0.5], model=model)

        def flux(e):
            return math.sqrt(tab(np.array([e]))[0, 0]) * model.f(
                np.array([e]))[0]

        assert rep.decrease_rate == pytest.approx(flux(1.0) - flux(0.5),
                                                  abs=1e-9)

    def test_rate_on_product_metric(self):
        # d = sqrt((u(a2) - u(a1))^2 + (b2 - b1)^2) in closed form
        field = TestShootingFallbacks._product_metric()
        model = parse_system(PLANAR)
        e1, e2 = np.array([0.8, -0.5]), np.array([-0.4, 0.6])
        du, db = _u(e2[0]) - _u(e1[0]), e2[1] - e1[1]
        d = math.hypot(du, db)
        grad2 = np.array([du * math.sqrt(1.0 + e2[0] ** 2), db]) / d
        grad1 = -np.array([du * math.sqrt(1.0 + e1[0] ** 2), db]) / d
        exact = float(grad2 @ model.f(e2) + grad1 @ model.f(e1))
        rep = geometry.pairwise_distance(field, e1, e2, model=model)
        assert rep.distance == pytest.approx(d, abs=1e-8)
        assert rep.decrease_rate == pytest.approx(exact, abs=1e-8)

    def test_tabulated_metric_domain_enforced(self, scalar_setup):
        from lyapmetric.errors import GeodesicDomainError

        _, tab = scalar_setup
        with pytest.raises(GeodesicDomainError):
            tab(np.array([5.0]))

    def test_fast_nonlinear_growth_gates_dini(self):
        # near a finite-time divergence (e = 2 escapes within t = 0.144)
        # the default ladder curves too much: its extrapolants differ by
        # 5.7e-3.  Two halvings pass the gate and recover the exact
        # D+V = sqrt(p) F(2) on the constant metric p = 1/2; a gate that
        # even the floor ladder cannot meet still refuses to extrapolate
        from lyapmetric.errors import DerivativeUnreliableError
        from lyapmetric.metric import gramian_at_origin

        model = parse_system("dim=1; F1 = -x1 + x1^3")
        field = gramian_at_origin(model)
        metric_bounds(field, [0.5, 1.0, 2.0], n_samples=2)
        dini = geometry.dini_derivative_V(field, model, [2.0])
        assert dini.h == 2.5e-3
        assert dini.value == pytest.approx(math.sqrt(0.5) * 6.0, abs=2e-4)
        with pytest.raises(DerivativeUnreliableError, match="at h = 0.000156"):
            geometry.dini_derivative_V(field, model, [2.0], gate_tol=1e-7)

    def test_pair_distance_strictly_decreases_along_flows(self, scalar_setup):
        from lyapmetric.dynamics import flow

        model, tab = scalar_setup
        t1 = flow(model, [1.0], 2.0, tol=1e-10, dense=True)
        t2 = flow(model, [0.5], 2.0, tol=1e-10, dense=True)
        values = []
        for t in np.linspace(0.0, 2.0, 9):
            values.append(geometry.pairwise_distance(
                tab, t1.state_at(t), t2.state_at(t)).distance)
        diffs = np.diff(values)
        assert np.all(diffs < 0.0)
