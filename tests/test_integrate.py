import math

import numpy as np
import pytest

from lyapmetric.errors import BlowUpError, StepSizeUnderflowError
from lyapmetric.integrate import solve


def test_polynomial_rhs_is_exact():
    # fifth-order scheme integrates y' = t^4 exactly up to rounding
    sol = solve(lambda t, y: np.array([t ** 4]), [0.0], 2.0, rtol=1e-6)
    assert sol.y[-1, 0] == pytest.approx(2.0 ** 5 / 5.0, rel=1e-12)


def test_exponential_accuracy_tracks_tolerance():
    errors = []
    for rtol in (1e-6, 1e-9, 1e-12):
        sol = solve(lambda t, y: -y, [1.0], 4.0, rtol=rtol)
        errors.append(abs(sol.y[-1, 0] - math.exp(-4.0)))
    assert errors[1] < errors[0] and errors[2] < errors[1]


def test_zero_horizon_returns_initial_node():
    sol = solve(lambda t, y: -y, [3.0], 0.0)
    assert len(sol.t) == 1 and sol.y[0, 0] == 3.0


def test_backward_integration_rejected():
    with pytest.raises(ValueError):
        solve(lambda t, y: -y, [1.0], -1.0)


def test_step_budget_exhaustion():
    # a fast oscillator cannot cross a long horizon in ten step attempts
    def rhs(t, y):
        return np.array([y[1], -1e6 * y[0]])

    with pytest.raises(StepSizeUnderflowError):
        solve(rhs, [1.0, 0.0], 50.0, rtol=1e-9, max_steps=10)


def test_blowup_detection_time():
    # y' = y^2 from 1 blows up at t = 1
    with pytest.raises(BlowUpError) as err:
        solve(lambda t, y: y * y, [1.0], 2.0, rtol=1e-9, blowup_norm=1e6)
    assert err.value.t == pytest.approx(1.0, abs=1e-2)


def test_dense_output_continuous_at_nodes():
    sol = solve(lambda t, y: -y, [1.0], 3.0, rtol=1e-10, dense=True)
    for i in range(1, len(sol.t) - 1):
        t = sol.t[i]
        left = sol.dense(t - 1e-13)
        right = sol.dense(t + 1e-13)
        assert abs(float(left[0]) - float(right[0])) <= 1e-9


def test_deterministic_repetition():
    a = solve(lambda t, y: np.array([math.sin(t) - y[0]]), [0.5], 5.0,
              rtol=1e-9)
    b = solve(lambda t, y: np.array([math.sin(t) - y[0]]), [0.5], 5.0,
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
        return np.array([math.nan]) if t > 0.5 else -y

    with pytest.raises(BlowUpError) as err:
        solve(rhs, [1.0], 2.0, rtol=1e-9)
    assert err.value.t == pytest.approx(0.5, abs=1e-9)
    assert err.value.norm == math.inf


@pytest.mark.parametrize("rhs, y0", [
    (lambda t, y: np.array([math.nan]), [1.0]),
    (lambda t, y: -y, [math.nan]),
], ids=["nan-rhs", "nan-state"])
def test_non_finite_start_is_blowup_at_t0(rhs, y0):
    # a NaN initial step would never meet the underflow floor
    counting = _Counting(rhs)
    with pytest.raises(BlowUpError) as err:
        solve(counting, y0, 1.0, rtol=1e-9)
    assert err.value.t == 0.0
    assert counting.calls == 2


def test_step_budget_counts_exactly_max_steps_attempts():
    rhs = _Counting(lambda t, y: np.array([y[1], -1e6 * y[0]]))
    with pytest.raises(StepSizeUnderflowError, match="after 10 attempts"):
        solve(rhs, [1.0, 0.0], 50.0, rtol=1e-9, max_steps=10)
    # f(t0), the initial-step probe, then six stages per attempt
    assert rhs.calls == 2 + 6 * 10


def test_fev_counts_rhs_calls():
    rhs = _Counting(lambda t, y: -y)
    sol = solve(rhs, [1.0], 3.0, rtol=1e-9)
    assert sol.n_fev == rhs.calls
    assert sol.n_fev == 2 + 6 * (sol.n_steps + sol.n_rejected)

    rhs = _Counting(lambda t, y: -y)
    assert solve(rhs, [1.0], 0.0).n_fev == rhs.calls == 0
