"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is fixed; the runtime budgets are asserted.
"""

import json
import math
import time

import numpy as np
import pytest

from lyapmetric import catalog, geometry, parse_system
from lyapmetric.cli import main as cli_main
from lyapmetric.dynamics import flow, variational_flow
from lyapmetric.estimation import estimate_linearized_decay
from lyapmetric.metric import (
    constant_metric,
    gramian_at_origin,
    metric_bounds,
    rescaled_metric_field,
    residual_report,
    solution_metric,
)
from lyapmetric.systems import SystemModel

SCALAR_GRID = (-2.0, -1.0, 0.5, 1.0, 2.0)


class _Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} [{status}] {self.label} "
              f"({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its runtime budget")
        return False


@pytest.fixture(scope="module")
def scalar_model():
    return catalog.get("scalar-example").build()


@pytest.fixture(scope="module")
def scalar_field(scalar_model):
    decay = estimate_linearized_decay(scalar_model, [0.5, 1.0, 2.0, 2.6],
                                      n_samples=2, horizon=12.0, tol=1e-9)
    return solution_metric(scalar_model, decay=decay, tail_tol=1e-7)


@pytest.fixture(scope="module")
def scalar_geometry(scalar_model, scalar_field):
    tab = scalar_field.tabulate(-2.6, 2.6, 161)
    metric_bounds(tab, [0.5, 1.0, 2.0, 2.5], n_samples=2)
    return tab


def test_criterion_1_linear_lyapunov_equality():
    with _Budget(1, "linear Lyapunov equality on 10 random Hurwitz systems", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            a -= (np.max(np.linalg.eigvals(a).real) + 0.7) * np.eye(n)
            q = np.eye(n)
            field = gramian_at_origin(SystemModel.from_linear(a), q)
            p = field(np.zeros(n))
            residual = float(np.linalg.norm(a.T @ p + p @ a + q, 2))
            assert residual <= 1e-8
            oracle = catalog.linear_baseline(a, q).p
            assert np.max(np.abs(p - oracle)) <= 1e-8 * (1 + np.max(np.abs(oracle)))


def test_criterion_2_scalar_example_flow(scalar_model):
    with _Budget(2, "scalar-example flow vs implicit-equation oracle", 1.0):
        traj = flow(scalar_model, [1.0], 5.0, tol=1e-10, dense=True)
        for t in (0.5, 1.0, 2.0, 5.0):
            reference = catalog.scalar_example_oracle(1.0, t)
            assert abs(traj.state_at(t)[0] - reference) <= 1e-6


def test_criterion_3_metric_bounds(scalar_field):
    with _Budget(3, "metric bounds on the scalar example", 10.0):
        for e in SCALAR_GRID:
            assert scalar_field(np.array([e]))[0, 0] >= 0.5 - 1e-6
        p1 = scalar_field(np.array([1.0]))[0, 0]
        assert p1 <= math.exp(4.0 * math.e) / 2.0 * 1.01


def test_criterion_4_matrix_inequality(scalar_model, scalar_field):
    with _Budget(4, "Lyapunov matrix inequality along solutions", 30.0):
        report = residual_report(scalar_field, scalar_model,
                                 [[e] for e in SCALAR_GRID])
        assert report.max_eigenvalue <= 1e-4

        rescaled = rescaled_metric_field(scalar_model)
        report_r = residual_report(rescaled, scalar_model,
                                   [[e] for e in SCALAR_GRID])
        assert report_r.max_eigenvalue <= 1e-4
        for e in SCALAR_GRID:
            assert rescaled(np.array([e]))[0, 0] >= 0.5 - 1e-6


def test_criterion_5_riemannian_lyapunov(scalar_model, scalar_geometry):
    with _Budget(5, "Riemannian distance Lyapunov function", 30.0):
        # constant metrics: exact closed form
        rng = np.random.default_rng(17)
        for n in (1, 2, 3):
            basis = rng.normal(size=(n, n))
            p = basis @ basis.T + 0.4 * np.eye(n)
            field = constant_metric(p)
            e = rng.uniform(-1.0, 1.0, n)
            d = geometry.distance_to_origin(field, e)
            assert abs(d.value - math.sqrt(e @ p @ e)) <= 1e-8

        # scalar example: quadrature oracle, envelope sandwich, decrease
        for e in (0.5, 1.0, 2.0):
            d = geometry.distance_to_origin(scalar_geometry, [e])
            assert not d.flagged
            oracle = catalog.scalar_example_distance_oracle(scalar_geometry, e)
            assert abs(d.value - oracle) <= 1e-5
            lo = math.sqrt(scalar_geometry.p_lower(e)) * e
            hi = math.sqrt(scalar_geometry.p_upper(e)) * e
            assert lo - 1e-9 <= d.value <= hi + 1e-9

            dini = geometry.dini_derivative_V(scalar_geometry, scalar_model, [e])
            assert not dini.flagged
            # the sqrt(p_upper) envelope also holds on this system
            q_min = float(np.min(np.linalg.eigvalsh(scalar_geometry.q)))
            bound = -q_min * dini.v_at_point / (
                2.0 * math.sqrt(scalar_geometry.p_upper(e)))
            assert dini.value <= bound + 1e-3


def test_criterion_6_transverse_counterexample():
    with _Budget(6, "transverse counterexample reproduction", 10.0):
        gain = math.exp((math.cos(1.0) + 1.0) / 1.0)

        # slow transverse regime: the lifted response never settles
        slow = catalog.get("transverse-counterexample").build(
            {"lam": 0.5, "mu_x": 1.0}).full
        traj = variational_flow(slow, [1.0, 1.0], 10.0, tol=1e-4,
                                blowup_norm=1e9)
        # integrated states carry an absolute noise floor of ~10 x atol
        noise = 1e-6
        d_e = np.abs(traj.phi[:, 0, 1])   # response of e to dx0; dE(0) = 0
        assert float(np.max(d_e)) >= d_e[0] + 0.5
        envelope = gain * np.exp(-0.5 * traj.t)
        assert np.all(np.abs(traj.states[:, 0]) <= envelope + noise)

        # fast transverse regime: the response decays below 1e-2 by t = 10
        fast = catalog.get("transverse-counterexample").build(
            {"lam": 2.0, "mu_x": 1.0}).full
        traj_f = variational_flow(fast, [1.0, 1.0], 10.0, tol=1e-4,
                                  blowup_norm=1e9)
        assert abs(traj_f.phi[-1, 0, 1]) < 1e-2
        envelope_f = gain * np.exp(-2.0 * traj_f.t)
        assert np.all(np.abs(traj_f.states[:, 0]) <= envelope_f + noise)

        # the uniform state envelope also holds for other starts (x0 = 1)
        for e0 in (0.5, 2.0):
            short = flow(slow, [e0, 1.0], 4.0, tol=1e-8, blowup_norm=1e9)
            bound = gain * np.exp(-0.5 * short.t) * abs(e0)
            assert np.all(np.abs(short.states[:, 0]) <= bound + 1e-9)


def test_criterion_7_stabilization(tmp_path):
    with _Budget(7, "scalar plant stabilization and closed-loop certificate", 5.0):
        spec = tmp_path / "plant.txt"
        spec.write_text("dim = 1\nF1 = x1\ng1 = 1\n")
        code = cli_main(["stabilize", "--system", str(spec),
                         "--lambda-gain", "3", "--out", str(tmp_path / "r"),
                         "--samples", "2", "--grid=-2,-1,1,2"])
        assert code == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["verdict"] == "pass"
        controller = report["controller"]
        assert controller["killing_residual_sup"] <= 1e-8
        assert controller["integrability_residual_sup"] <= 1e-8
        # L_F P = -4, so the replayed residual L_F P + Q is -3
        assert controller["closed_loop_residual_sup"] == pytest.approx(
            -3.0, abs=1e-6)
        closed = parse_system((tmp_path / "r" / "closed_loop.txt").read_text())
        assert closed.f(np.array([1.0]))[0] == pytest.approx(-3.0 + 1.0,
                                                             abs=1e-12)


def test_criterion_8_property_suites(scalar_model, tmp_path):
    with _Budget(8, "property suites", 60.0):
        # semigroup and cocycle identities at 10x the integrator tolerance
        tol = 1e-9
        rng = np.random.default_rng(40)
        for _ in range(3):
            e0 = rng.uniform(-2.0, 2.0, 1)
            s, t = rng.uniform(0.2, 1.5, 2)
            ab = flow(scalar_model, flow(scalar_model, e0, s, tol=tol).states[-1],
                      t, tol=tol)
            c = flow(scalar_model, e0, s + t, tol=tol)
            assert np.max(np.abs(ab.states[-1] - c.states[-1])) <= 10 * tol
        a_mat = np.array([[0.0, 1.0], [-1.0, -1.0]])
        lin = SystemModel.from_linear(a_mat)
        for _ in range(3):
            e0 = rng.uniform(-1.0, 1.0, 2)
            t, r = rng.uniform(0.2, 1.2, 2)
            first = variational_flow(lin, e0, t, tol=tol)
            second = variational_flow(lin, first.states[-1], r, tol=tol)
            joint = variational_flow(lin, e0, t + r, tol=tol)
            assert np.max(np.abs(second.phi[-1] @ first.phi[-1]
                                 - joint.phi[-1])) <= 10 * tol

        # geodesic speed conservation at 1e-6
        from lyapmetric.metric import from_callable

        msq = from_callable(lambda x: np.array([[1.0 + float(x[0]) ** 2]]),
                            dim=1)
        v = geometry.normalize_velocity(msq, [0.0], [1.0])
        path = geometry.geodesic_ivp(msq, [0.0], v, 1.5)
        assert path.speed_drift <= 1e-6

        # metric symmetry at 1e-10
        decay = estimate_linearized_decay(lin, [1.0], n_samples=4,
                                          horizon=20.0)
        field2 = solution_metric(lin, decay=decay)
        for p in ([0.4, -0.3], [1.0, 1.0]):
            value = field2(np.array(p))
            assert np.max(np.abs(value - value.T)) <= 1e-10

        # jet gradients vs central differences at 1e-6 relative
        planar = catalog.get("transverse-counterexample").build(
            {"lam": 1.0, "mu_x": 1.0}).full
        for model in (scalar_model, planar):
            n = model.dim
            for _ in range(10):
                x = rng.uniform(-2.0, 2.0, n)
                grad = model.jet2(x).grad
                for k in range(n):
                    for j in range(n):
                        xp, xm = x.copy(), x.copy()
                        xp[j] += 1e-6
                        xm[j] -= 1e-6
                        fd = (model.f(xp)[k] - model.f(xm)[k]) / 2e-6
                        assert abs(grad[k, j] - fd) <= 1e-6 * max(
                            1.0, abs(grad[k, j]))

        # byte-identical reports under a fixed seed
        args = ["analyze", "--system", "scalar-example",
                "--out", str(tmp_path / "det"), "--samples", "2",
                "--seed", "3"]
        assert cli_main(args) == 0
        first = (tmp_path / "det" / "report.json").read_bytes()
        assert cli_main(args) == 0
        assert (tmp_path / "det" / "report.json").read_bytes() == first
