import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapmetric import catalog, integrate
from lyapmetric.dynamics import flow, transverse_flow, variational_flow
from lyapmetric.errors import (
    BlowUpError,
    DomainEvaluationError,
    StepSizeUnderflowError,
)
from lyapmetric.expressions import parse_system
from lyapmetric.integrate import solve


def test_polynomial_rhs_is_exact():
    # fifth-order scheme integrates y' = t^4 exactly up to rounding
    sol = solve(lambda t, y: [t ** 4], [0.0], 2.0, rtol=1e-6)
    assert sol.y[-1, 0] == pytest.approx(2.0 ** 5 / 5.0, rel=1e-12)


def test_exponential_accuracy_tracks_tolerance():
    errors = []
    for rtol in (1e-6, 1e-9, 1e-12):
        sol = solve(lambda t, y: [-y[0]], [1.0], 4.0, rtol=rtol)
        errors.append(abs(sol.y[-1, 0] - math.exp(-4.0)))
    assert errors[1] < errors[0] and errors[2] < errors[1]


def test_zero_horizon_returns_initial_node():
    sol = solve(lambda t, y: [-y[0]], [3.0], 0.0)
    assert len(sol.t) == 1 and sol.y[0, 0] == 3.0


def test_backward_integration_rejected():
    with pytest.raises(ValueError):
        solve(lambda t, y: [-y[0]], [1.0], -1.0)


def test_step_budget_exhaustion():
    # a fast oscillator cannot cross a long horizon in ten step attempts
    def rhs(t, y):
        return [y[1], -1e6 * y[0]]

    with pytest.raises(StepSizeUnderflowError):
        solve(rhs, [1.0, 0.0], 50.0, rtol=1e-9, max_steps=10)


def test_blowup_detection_time():
    # y' = y^2 from 1 blows up at t = 1
    with pytest.raises(BlowUpError) as err:
        solve(lambda t, y: [y[0] * y[0]], [1.0], 2.0, rtol=1e-9, blowup_norm=1e6)
    assert err.value.t == pytest.approx(1.0, abs=1e-2)


def test_dense_output_continuous_at_nodes():
    sol = solve(lambda t, y: [-y[0]], [1.0], 3.0, rtol=1e-10, dense=True)
    for i in range(1, len(sol.t) - 1):
        t = sol.t[i]
        left = sol.dense(t - 1e-13)
        right = sol.dense(t + 1e-13)
        assert abs(float(left[0]) - float(right[0])) <= 1e-9


def test_deterministic_repetition():
    a = solve(lambda t, y: [math.sin(t) - y[0]], [0.5], 5.0,
              rtol=1e-9)
    b = solve(lambda t, y: [math.sin(t) - y[0]], [0.5], 5.0,
              rtol=1e-9)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.y, b.y)


class _Counting:
    """rhs wrapper that counts its calls."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.calls = 0

    def __call__(self, t, y):
        self.calls += 1
        return self.rhs(t, y)


def test_non_finite_attempts_end_as_blowup():
    # NaN past t = 0.5: every attempt across it is rejected as non-finite,
    # and the step underflow that follows is a blow-up, not stiffness
    def rhs(t, y):
        return [math.nan] if t > 0.5 else [-y[0]]

    with pytest.raises(BlowUpError) as err:
        solve(rhs, [1.0], 2.0, rtol=1e-9)
    assert err.value.t == pytest.approx(0.5, abs=1e-9)
    assert err.value.norm == math.inf


@pytest.mark.parametrize("rhs, y0", [
    (lambda t, y: [math.nan], [1.0]),
    (lambda t, y: [-y[0]], [math.nan]),
    # an infinite field at a finite start made the initial step 0
    (lambda t, y: [y[0] * 1e300 * 1e300], [1.0]),
], ids=["nan-rhs", "nan-state", "inf-rhs"])
def test_non_finite_start_is_blowup_at_t0(rhs, y0):
    # a NaN initial step would never meet the underflow floor
    counting = _Counting(rhs)
    with pytest.raises(BlowUpError) as err:
        solve(counting, y0, 1.0, rtol=1e-9)
    assert err.value.t == 0.0
    # f(t0) only: the start is checked before the initial-step probe
    assert counting.calls == 1


def _initial_step_reference(rhs, y0, f0, t_end, rtol, atol):
    """The first-step rule as written before overflow was handled."""
    scale = [atol + rtol * abs(v) for v in y0]

    def rms(values):
        return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale))
                         / len(scale))

    d0, d1 = rms(y0), rms(f0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, tuple(v + h0 * g for v, g in zip(y0, f0)))
    d2 = rms([b - a for a, b in zip(f0, f1)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


@pytest.mark.parametrize("scale, y0", [
    (-1.0, (0.5,)), (1e140, (0.5,)), (-1e140, (-2.0,)), (1e-20, (1.0,)),
    (0.0, (0.0,)), (-3.0, (1.0, -2.0, 1e-300)),
])
def test_initial_step_unchanged_where_norms_are_finite(scale, y0):
    def rhs(t, y):
        return [scale * v + t for v in y]

    f0 = tuple(rhs(0.0, y0))
    for rtol in (1e-4, 1e-9, 1e-12):
        atol = integrate._ATOL_PER_RTOL * rtol
        want = _initial_step_reference(rhs, y0, f0, 10.0, rtol, atol)
        assert integrate._initial_step(rhs, y0, f0, 10.0, rtol, atol) == \
            (want, 1)


@pytest.mark.parametrize("scale", [1e160, -1e160, 1e300],
                         ids=["square-overflows", "stable", "ratio-is-inf"])
def test_overflowing_initial_norm_starts_at_the_floor(scale):
    # the scaled norm of F overflows: no representable step resolves it,
    # so the solve starts at its 1e-12 floor and the first attempts leave
    # the floating range, a blow-up at t = 0
    def rhs(t, y):
        return [scale * y[0]]

    f0 = tuple(rhs(0.0, (0.5,)))
    assert integrate._initial_step(rhs, (0.5,), f0, 1.0, 1e-9, 1e-12) == \
        (0.0, 0)
    with pytest.raises(BlowUpError) as err:
        solve(rhs, [0.5], 1.0, rtol=1e-9)
    assert err.value.t == 0.0


def test_step_budget_counts_exactly_max_steps_attempts():
    rhs = _Counting(lambda t, y: [y[1], -1e6 * y[0]])
    with pytest.raises(StepSizeUnderflowError, match="after 10 attempts"):
        solve(rhs, [1.0, 0.0], 50.0, rtol=1e-9, max_steps=10)
    # f(t0), the initial-step probe, then six stages per attempt
    assert rhs.calls == 2 + 6 * 10


def test_fev_counts_rhs_calls():
    rhs = _Counting(lambda t, y: [-y[0]])
    sol = solve(rhs, [1.0], 3.0, rtol=1e-9)
    assert sol.n_fev == rhs.calls
    assert sol.n_fev == 2 + 6 * (sol.n_steps + sol.n_rejected)

    rhs = _Counting(lambda t, y: [-y[0]])
    assert solve(rhs, [1.0], 0.0).n_fev == rhs.calls == 0


# -- the generated attempt kernel -------------------------------------------

def test_nan_in_one_component_of_one_stage_is_rejected():
    # a NaN in the second stage only, in a component the field does not
    # feed back: that stage has zero weight in the solution, so only the
    # error estimate sees it, and every attempt across t = 0.5 is rejected
    calls = _Counting(lambda t, y: [-y[0], math.cos(t), -y[2]])

    def rhs(t, y):
        out = calls(t, y)
        # calls 1-2 are f(t0) and the initial-step probe; then six per attempt
        if t > 0.5 and (calls.calls - 3) % 6 == 0:
            out[1] = math.nan
        return out

    with pytest.raises(BlowUpError) as err:
        solve(rhs, [1.0, 0.0, 2.0], 2.0, rtol=1e-9)
    # a step may still cross 0.5 with its second stage before it
    assert 0.5 < err.value.t < 0.6
    assert err.value.norm == math.inf


def test_domain_exit_inside_a_step_is_typed():
    # x1 decays through the subnormals to exactly 0 at some stage point:
    # x1 / x1 is 1 until then, and at 0 the compiled field's division
    # raises, so the solve ends in the typed error, not in a silent inf;
    # the lift's x1^2 underflows first, on the same path
    model = parse_system("dim=2; F1 = -10*x1; F2 = -x2 + x1/x1 - 1")
    with pytest.raises(DomainEvaluationError, match=r"\(x1 / x1\)"):
        flow(model, [5e-324, 1.0], 10.0)
    with pytest.raises(DomainEvaluationError, match=r"\(x1 \^ 2\)"):
        variational_flow(model, [1e-160, 1.0], 10.0)


@pytest.mark.parametrize("x0", [0.5, -1.0])
def test_counterexample_phi_matches_oracle(x0):
    # lam = 2: the transverse transition, through the generic lift of the
    # manifold step and through the fused lift of the full model at e = 0
    model = catalog.get("transverse-counterexample").build(
        {"lam": 2.0, "mu_x": 1.0})
    transverse = transverse_flow(model, [x0], 3.0, tol=1e-11)
    full = variational_flow(model.full, [0.0, x0], 3.0, tol=1e-11)
    for traj in (transverse, full):
        want = [catalog.counterexample_transverse_phi_oracle(x0, t, 2.0, 1.0)
                for t in traj.t]
        np.testing.assert_allclose(traj.phi[:, 0, 0], want, rtol=1e-8)


def test_kernel_is_built_once_per_state_size(monkeypatch):
    built = []
    real = integrate._attempt_source
    monkeypatch.setattr(integrate, "_attempt_source",
                        lambda m: built.append(m) or real(m))
    integrate._kernel.cache_clear()
    for y0 in ([1.0, 2.0], [3.0], [0.5, 0.5], [1.0, 1.0, 1.0], [2.0]):
        solve(lambda t, y: [-v for v in y], y0, 1.0)
    assert built == [2, 1, 3]


def test_nothing_is_compiled_at_import():
    code = ("import lyapmetric, lyapmetric.cli, lyapmetric.integrate as i; "
            "assert i._kernel.cache_info().currsize == 0")
    src = str(Path(integrate.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def _numpy_attempt(rhs, t, h, y, f):
    """One Dormand-Prince attempt with numpy tableau products: the
    reference for the generated kernel, whose sums run left to right."""
    a = np.zeros((7, 7))
    for i, row in enumerate(integrate._A):
        a[i, :len(row)] = row
    k = np.zeros((7, len(y)))
    k[0] = f
    for i in range(1, 7):
        point = np.asarray(y) + h * (a[i, :i] @ k[:i])
        k[i] = rhs(t + integrate._C[i] * h, tuple(point.tolist()))
    scale = 1e-12 + 1e-9 * np.maximum(np.abs(y), np.abs(point))
    r = h * (np.array(integrate._E) @ k) / scale
    return math.sqrt(r @ r / len(y)), point, k


@pytest.mark.parametrize("m", [1, 3, 6])
def test_attempt_matches_numpy_tableau(m):
    rng = np.random.default_rng(m)
    a = rng.normal(size=(m, m))

    def rhs(t, y):
        return (a @ np.asarray(y) + math.sin(t)).tolist()

    y = tuple(rng.normal(size=m).tolist())
    f = rhs(0.3, y)
    err, norm, y_new, stages = integrate._kernel(m)(
        rhs, 0.3, 0.05, y, f, 1e-9, 1e-12)
    want_err, want_y, want_k = _numpy_attempt(rhs, 0.3, 0.05, y, f)
    np.testing.assert_allclose(y_new, want_y, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(np.array(stages), want_k, rtol=1e-13,
                               atol=1e-14)
    # the error estimate cancels stage sums of size |k| down to about
    # h^5 |k|, so its summation order shows at a few 1e-8 relative
    assert err == pytest.approx(want_err, rel=1e-6)
    assert norm == max(abs(v) for v in y_new)


def test_generated_code_has_its_own_filenames():
    # profiles key functions by (filename, line, name): one shared
    # "<string>" would merge every kernel and closure into one entry
    source = parse_system("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2").source
    names = [integrate._kernel(2).__code__.co_filename,
             integrate._kernel(6).__code__.co_filename,
             source.field_rhs.__code__.co_filename,
             source.jacobian_rhs.__code__.co_filename,
             source.compiled_lift().__code__.co_filename,
             source.compiled_lift(np.eye(2)).__code__.co_filename]
    assert names == ["<lyapmetric dp5 m=2>", "<lyapmetric dp5 m=6>",
                     "<lyapmetric field dim=2>",
                     "<lyapmetric jacobian dim=2>",
                     "<lyapmetric lift dim=2>",
                     "<lyapmetric lift+gramian dim=2>"]
