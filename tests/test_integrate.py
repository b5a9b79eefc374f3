import dataclasses
import dis
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from lyapmetric import catalog, integrate
from lyapmetric.dynamics import (
    flow,
    model_lift,
    transverse_flow,
    variational_flow,
)
from lyapmetric.errors import (
    BlowUpError,
    DomainEvaluationError,
    StepSizeUnderflowError,
)
from lyapmetric.expressions import parse_system
from lyapmetric.integrate import solve


def test_polynomial_rhs_is_exact():
    # the eighth-order scheme integrates y' = t^7 exactly up to rounding
    sol = solve(lambda t, y: [t ** 7], [0.0], 2.0, rtol=1e-6)
    assert sol.y[-1, 0] == pytest.approx(2.0 ** 8 / 8.0, rel=1e-12)


def test_exponential_accuracy_tracks_tolerance():
    # errors 3.2e-9, 4.2e-12 and 4.5e-15 measured
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


# the solve arguments of each storage: the endpoint solve and the trajectory
RUNS = ({"trajectory": False}, {})


def test_blowup_detection_time():
    # y' = y^2 from 1 blows up at t = 1
    for run in RUNS:
        with pytest.raises(BlowUpError) as err:
            solve(lambda t, y: [y[0] * y[0]], [1.0], 2.0, rtol=1e-9,
                  blowup_norm=1e6, **run)
        assert err.value.t == pytest.approx(1.0, abs=1e-2)


def test_deterministic_repetition():
    a = solve(lambda t, y: [math.sin(t) - y[0]], [0.5], 5.0, rtol=1e-9)
    b = solve(lambda t, y: [math.sin(t) - y[0]], [0.5], 5.0, rtol=1e-9)
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
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8)   # error order 7
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
        assert integrate._initial_step(rhs, y0, f0, 10.0, rtol,
                                       atol) == (want, 1)


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
    for run in RUNS:
        with pytest.raises(BlowUpError) as err:
            solve(rhs, [0.5], 1.0, rtol=1e-9, **run)
        assert err.value.t == 0.0


def test_step_budget_counts_exactly_max_steps_attempts():
    for run in RUNS:
        rhs = _Counting(lambda t, y: [y[1], -1e6 * y[0]])
        with pytest.raises(StepSizeUnderflowError,
                           match="after 10 attempts"):
            solve(rhs, [1.0, 0.0], 50.0, rtol=1e-9, max_steps=10,
                  **run)
        # f(t0), the initial-step probe, then the stages per attempt
        assert rhs.calls == 2 + integrate.STAGES * 10


def test_fev_counts_rhs_calls():
    for run in RUNS:
        rhs = _Counting(lambda t, y: [-y[0]])
        sol = solve(rhs, [1.0], 3.0, rtol=1e-9, **run)
        assert sol.n_fev == rhs.calls
        assert sol.n_fev == \
            2 + integrate.STAGES * (sol.n_steps + sol.n_rejected)

        rhs = _Counting(lambda t, y: [-y[0]])
        assert solve(rhs, [1.0], 0.0, **run).n_fev == \
            rhs.calls == 0


# -- the generated stepping loop --------------------------------------------

def test_nan_in_one_component_of_one_stage_is_rejected():
    # a NaN in the second stage only, in a component the field does not
    # feed back: that stage has zero weight in the solution, so only the
    # error estimate sees it (a zero weight there times NaN is NaN, not 0),
    # and every attempt across t = 0.5 is rejected
    for run in RUNS:
        calls = _Counting(lambda t, y: [-y[0], math.cos(t), -y[2]])

        def rhs(t, y):
            out = calls(t, y)
            # calls 1-2 are f(t0) and the initial-step probe; then the
            # stages per attempt
            if t > 0.5 and (calls.calls - 3) % integrate.STAGES == 0:
                out[1] = math.nan
            return out

        with pytest.raises(BlowUpError) as err:
            solve(rhs, [1.0, 0.0, 2.0], 2.0, rtol=1e-9,
                  **run)
        # a step may still cross 0.5 with its second stage before it
        assert 0.5 < err.value.t < 0.7
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


def test_loop_is_built_once_per_state_size(monkeypatch):
    built = []
    real = integrate._loop_source
    monkeypatch.setattr(integrate, "_loop_source", lambda m, parts=None:
                        built.append(m) or real(m, parts))
    integrate._called_loop.cache_clear()
    for y0 in ([1.0, 2.0], [3.0], [0.5, 0.5], [1.0, 1.0, 1.0], [2.0]):
        for run in RUNS:
            solve(lambda t, y: [-v for v in y], y0, 1.0, **run)
    assert built == [2, 1, 3]


def test_nothing_is_compiled_at_import():
    code = ("import lyapmetric, lyapmetric.cli, lyapmetric.integrate as i; "
            "assert i._called_loop.cache_info().currsize == 0; "
            "assert len(i._INLINED) == 0")
    src = str(Path(integrate.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def _numpy_attempt(rhs, t, h, y, f, rtol):
    """One 8(5,3) attempt with numpy tableau products: the reference for
    the generated loop, whose sums run left to right.  Returns DOP853's
    err5/err3 norm, the eighth-order solution and the 13 stages, the last
    of them FSAL."""
    n = integrate.STAGES
    a = np.zeros((n, n))
    for i, row in enumerate(integrate._DOP853_A):
        a[i, :len(row)] = row
    k = np.zeros((n + 1, len(y)))
    k[0] = f
    for i in range(1, n):
        point = np.asarray(y) + h * (a[i, :i] @ k[:i])
        k[i] = rhs(t + integrate._DOP853_C[i] * h, tuple(point.tolist()))
    point = np.asarray(y) + h * (np.array(integrate._DOP853_B) @ k[:n])
    k[n] = rhs(t + h, tuple(point.tolist()))
    scale = integrate._ATOL_PER_RTOL * rtol + rtol * np.maximum(
        np.abs(y), np.abs(point))
    e5 = (np.array(integrate._DOP853_E5) @ k) / scale
    e3 = (np.array(integrate._DOP853_E3) @ k) / scale
    denom = e5 @ e5 + 0.01 * (e3 @ e3)
    return h * (e5 @ e5) / math.sqrt(denom * len(y)), point, k


def _one_attempt(rhs, t, h, y, f, rtol, blowup_norm=math.inf):
    """Run the called loop for one attempt of step h from (t, y), with
    t_end at t + 2h; returns its result tuple and the node buffers."""
    ts, ys, fs = array("d", (t,)), array("d", y), array("d", f)
    result = integrate._called_loop(len(y))(
        rhs, t, h, y, f, 0, 0, False, t + 2 * h, 1e-14, rtol,
        integrate._ATOL_PER_RTOL * rtol, blowup_norm, 1, ts, ys, fs)
    return result, ts, ys


@pytest.mark.parametrize("m", [1, 3, 6])
def test_attempt_matches_numpy_tableau(m):
    rng = np.random.default_rng(m)
    a = rng.normal(size=(m, m))
    calls = []

    def rhs(t, y):
        out = (a @ np.asarray(y) + math.sin(t)).tolist()
        calls.append(out)
        return out

    y = tuple(rng.normal(size=m).tolist())
    f = rhs(0.3, y)
    # a step long enough that err stands above the rounding of the
    # estimates' stage sums, at a tolerance that accepts the attempt at
    # err = 0.8: the next step 0.9 err^-1/8 h is unclamped and shorter
    # than what remains, so the step size the loop returns (out of
    # attempts) shows err
    rtol = _numpy_attempt(rhs, 0.3, 0.25, y, f, 1.0)[0] / 0.8
    want_err, want_y, want_k = _numpy_attempt(rhs, 0.3, 0.25, y, f, rtol)
    del calls[:]
    (stopped, t, h, _, f_new, n_steps, n_rejected, _), ts, ys = \
        _one_attempt(rhs, 0.3, 0.25, y, f, rtol)
    assert (stopped, t, n_steps, n_rejected) == (True, 0.3 + 0.25, 1, 0)
    y_new = ys[m:]
    stages = [f] + calls
    # the solution weighs twelve stages by weights up to 5.8 in size, so
    # its summation order shows at a few 1e-15 absolute
    np.testing.assert_allclose(y_new, want_y, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(np.array(stages), want_k, rtol=1e-13,
                               atol=1e-14)
    assert f_new == tuple(calls[-1])   # FSAL
    # the error estimates cancel stage sums of size |k| down to err, so
    # their summation order shows at up to 5e-7 relative; err is read
    # back from h = 0.25 * 0.9 err^-1/8
    assert (h / (0.25 * 0.9)) ** -8 == pytest.approx(want_err, rel=1e-6)
    with pytest.raises(BlowUpError) as err:
        _one_attempt(rhs, 0.3, 0.25, y, f, rtol, blowup_norm=0.0)
    assert err.value.norm == max(abs(v) for v in y_new)


PLANAR = "dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2"


def test_generated_code_has_its_own_filenames():
    # profiles key functions by (filename, line, name): one shared
    # "<string>" would merge every loop and closure into one entry
    source = parse_system(PLANAR).source
    closures = [source.field_rhs, source.jacobian_rhs,
                source.compiled_lift(), source.compiled_lift(np.eye(2))]
    sizes = [2, 2, 6, 10]
    names = [fn.__code__.co_filename for fn in closures]
    assert names == ["<lyapmetric field dim=2>",
                     "<lyapmetric jacobian dim=2>",
                     "<lyapmetric lift dim=2>",
                     "<lyapmetric lift+gramian dim=2>"]
    names = [integrate._called_loop(2).__code__.co_filename,
             integrate._called_loop(6).__code__.co_filename]
    # the Jacobian's four outputs are no rhs of its two inputs
    names += [integrate._loop(fn, m, integrate._INLINE_AFTER)
              .__code__.co_filename for fn, m in zip(closures, sizes)]
    assert names == ["<lyapmetric dop853 m=2>", "<lyapmetric dop853 m=6>",
                     "<lyapmetric dop853 field dim=2>",
                     "<lyapmetric dop853 m=2>",
                     "<lyapmetric dop853 lift dim=2>",
                     "<lyapmetric dop853 lift+gramian dim=2>"]


# -- the inlined loop against the called loop --------------------------------

@pytest.fixture
def inline_at_once(monkeypatch):
    """Compiled closures run inlined from their first attempt."""
    monkeypatch.setattr(integrate, "_INLINE_AFTER", 0)


def _called(closure):
    """A plain function around `closure`: the solver calls it per stage."""
    def rhs(t, y):
        return closure(t, y)

    return rhs


def _solve_both(closure, y0, t_end, **kwargs):
    """`closure` solved through its inlined loop and through the called
    loop; every field of the two solutions must be equal."""
    inlined = solve(closure, y0, t_end, **kwargs)
    assert callable(integrate._INLINED[closure])
    called = solve(_called(closure), y0, t_end, **kwargs)
    for a, b in ((inlined.t, called.t), (inlined.y, called.y),
                 (inlined.f, called.f)):
        np.testing.assert_array_equal(a, b)
    assert (inlined.n_steps, inlined.n_rejected, inlined.n_fev) == \
        (called.n_steps, called.n_rejected, called.n_fev)
    return inlined


def test_inlined_planar_gramian_lift_is_bit_identical(inline_at_once):
    model = parse_system(PLANAR)
    lift = model_lift(model, np.eye(2))
    sol = _solve_both(lift.rhs, lift.y0([0.8, -0.5]), 8.0, rtol=1e-12)
    assert sol.n_steps > 50


def test_inlined_endpoint_gramian_is_bit_identical(inline_at_once):
    # the planar lift+gramian as every P(e) solve runs it: end state only,
    # through its inlined and its called loop
    from scipy.integrate import solve_ivp

    model = parse_system(PLANAR)
    lift = model_lift(model, np.eye(2))
    y0 = lift.y0([0.8, -0.5])
    sol = _solve_both(lift.rhs, y0, 7.772, rtol=1e-12, trajectory=False)
    assert sol.n_steps > 50
    assert sol.t.tolist() == [0.0, 7.772]
    assert sol.n_fev == 2 + 12 * (sol.n_steps + sol.n_rejected)
    np.testing.assert_array_equal(sol.y[0], y0)
    # the same end state as SciPy's DOP853, to rounding (3.5e-15 measured)
    ref = solve_ivp(lambda t, y: lift.rhs(t, tuple(y)), (0.0, 7.772),
                    np.asarray(y0, dtype=float), method="DOP853",
                    rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(sol.y[-1], ref.y[:, -1], rtol=0, atol=1e-13)


def test_dop853_tableau_is_scipys():
    # the literals are SciPy's coefficients to the last bit; SciPy stays
    # off the command path, so it is read here only
    from scipy.integrate._ivp import dop853_coefficients as ref

    n = ref.N_STAGES
    assert integrate._DOP853_C == tuple(ref.C[:n].tolist())
    assert integrate._DOP853_A == tuple(tuple(ref.A[i, :i].tolist())
                                        for i in range(n))
    assert integrate._DOP853_B == tuple(ref.B.tolist())
    assert integrate._DOP853_E3 == tuple(ref.E3.tolist())
    assert integrate._DOP853_E5 == tuple(ref.E5.tolist())
    assert len(integrate._DOP853_A) == n == integrate.STAGES


def test_endpoint_solve_keeps_no_dense_output():
    sol = solve(lambda t, y: [-y[0]], [1.0], 3.0, rtol=1e-10,
                trajectory=False)
    assert sol.f is None and sol.y.shape == (2, 1)
    assert sol.y[-1, 0] == pytest.approx(math.exp(-3.0), rel=1e-10)


def test_inlined_transverse_falsify_solve_is_bit_identical(inline_at_once):
    # the transverse-falsify workload's one solve, through the storing loop
    # the sampled decay flows run: ~31k attempts of the counterexample's
    # lift, ending in a blow-up past 1e12 before t = 10
    model = catalog.get("transverse-counterexample").build({})
    lift = model_lift(model.full)
    y0 = lift.y0([-0.4021148723065759, -0.29715926616860894])
    sol = _solve_both(lift.rhs, y0, 10.0, rtol=1e-9, blowup_norm=1e12)
    assert (sol.n_steps, sol.n_rejected, sol.n_fev) == (22909, 7843, 369026)


def test_storing_changes_no_arithmetic():
    # a trajectory solve ends where the endpoint solve does, bit for bit
    # and after the same attempts, and each node carries rhs(t, y) exactly
    source = parse_system(PLANAR).source
    lift = model_lift(parse_system(PLANAR), np.eye(2))
    for rhs, y0 in ((source.field_rhs, [0.8, -0.5]),
                    (lift.rhs, lift.y0([0.8, -0.5]))):
        end = solve(rhs, y0, 7.5, rtol=1e-10, trajectory=False)
        sol = solve(rhs, y0, 7.5, rtol=1e-10)
        np.testing.assert_array_equal(sol.y[-1], end.y[-1])
        assert sol.t[-1] == end.t[-1] == 7.5
        assert (sol.n_steps, sol.n_rejected, sol.n_fev) == \
            (end.n_steps, end.n_rejected, end.n_fev)
        assert len(sol.t) == len(sol.f) == sol.n_steps + 1
        np.testing.assert_array_equal(
            sol.f, [rhs(t, tuple(y.tolist())) for t, y in zip(sol.t, sol.y)])


@pytest.mark.parametrize("q", [None, np.eye(1)], ids=["lift", "gramian"])
def test_inlined_scalar_example_lift_is_bit_identical(inline_at_once, q):
    lift = model_lift(catalog.get("scalar-example").build({}), q)
    _solve_both(lift.rhs, lift.y0([2.0]), 12.0, rtol=1e-11)


def test_unit_factors_are_not_emitted():
    # mu_x = 1 multiplies x2 in G1: the emitted lift reads x2 itself
    source = catalog.get("transverse-counterexample").build({}).full.source
    for fn in (source.field_rhs, source.compiled_lift(),
               source.compiled_lift(np.eye(2))):
        parts = fn.source_parts
        assert "1.0 *" not in " ".join(parts.lines + parts.outputs)
    # nor a power 1.0: the derivative of x2^2 reads x2 itself
    parts = parse_system(PLANAR).source.compiled_lift(np.eye(2)).source_parts
    assert "** 1.0" not in " ".join(parts.lines + parts.outputs)
    rng = np.random.default_rng(3)
    for y in rng.normal(size=(20, 2)).tolist() + [[-0.0, -0.0], [0.0, -0.0]]:
        want = [t.eval(y, source.params) for t in source.f_trees]
        got = source.field_rhs(0.0, tuple(y))
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_repeated_subtrees_are_hoisted():
    # sin(x2) once per lift call, where the trees repeat it three times
    source = catalog.get("transverse-counterexample").build({}).full.source
    parts = source.compiled_lift().source_parts
    text = "\n".join(parts.lines + parts.outputs)
    assert text.count("sin(") == 1
    generic = model_lift(dataclasses.replace(
        catalog.get("transverse-counterexample").build({}).full,
        source=None))
    for y in np.random.default_rng(4).normal(size=(20, 6)).tolist():
        np.testing.assert_allclose(source.compiled_lift()(0.0, tuple(y)),
                                   generic.rhs(0.0, y), rtol=1e-15)
    # a product by p = 1 emits its factor, which counts once: used once it
    # stays inline, and what repeats inside it is still hoisted
    parts = parse_system("dim=2; p = 1; F1 = p*(x1*x2); "
                         "F2 = p*(sin(x1)*sin(x1))").source.field_rhs.source_parts
    assert parts.lines == ("_c0 = sin(_x0)",)
    assert parts.outputs == ("(_x0 * _x1)", "(_c0 * _c0)")


def test_symmetric_gramian_entries_are_emitted_once():
    # [x | J Phi | Phi' Q Phi]: outputs 7 and 8 are G's entries (0, 1), (1, 0)
    model = parse_system(PLANAR)
    parts = model.source.compiled_lift(np.eye(2)).source_parts
    assert parts.outputs[7] == parts.outputs[8] == "_g0_1"
    # an asymmetric Q keeps both, as the generic lift computes them
    q = np.array([[2.0, 0.3], [-0.1, 1.0]])
    fused = model_lift(model, q).rhs
    assert fused.source_parts.outputs[7] != fused.source_parts.outputs[8]
    generic = model_lift(dataclasses.replace(model, source=None), q).rhs
    for y in np.random.default_rng(5).normal(size=(20, 10)).tolist():
        np.testing.assert_allclose(fused(0.0, tuple(y)), generic(0.0, y),
                                   rtol=1e-14, atol=1e-14)


def _budget_errors(closure, y0, max_steps, run):
    """The error texts of the inlined and the called solve."""
    texts = []
    for rhs in (closure, _called(closure)):
        with pytest.raises(StepSizeUnderflowError) as err:
            solve(rhs, y0, 50.0, rtol=1e-12, max_steps=max_steps, **run)
        texts.append(str(err.value))
    return texts


@pytest.mark.parametrize("chunks, extra", [(1, 0), (2, 0), (2, 1)])
def test_step_budget_at_chunk_boundaries(inline_at_once, chunks, extra):
    max_steps = chunks * integrate._CHUNK + extra
    field = parse_system("dim=2; F1 = x2; F2 = -1e6*x1").source.field_rhs
    want = f"step budget exhausted after {max_steps} attempts"
    for run in RUNS:
        assert _budget_errors(field, [1.0, 0.0], max_steps,
                              run) == [want, want]


def test_solve_ending_on_a_chunk_boundary(inline_at_once):
    # t_end at the node after 2 * _CHUNK attempts: the loop returns with
    # the solve complete, and the next call finds it done
    field = parse_system(PLANAR).source.field_rhs
    long = solve(_called(field), [0.8, -0.5], 20.0, rtol=1e-11)
    assert long.n_rejected == 0
    t_end = float(long.t[2 * integrate._CHUNK])
    sol = _solve_both(field, [0.8, -0.5], t_end, rtol=1e-11,
                      max_steps=2 * integrate._CHUNK)
    assert sol.n_steps + sol.n_rejected == 2 * integrate._CHUNK
    assert sol.t[-1] == t_end


# the tolerance whose solve first crosses the domain edge in a given
# stage: the first stage, and stage 11, at t + h (the solution stage is
# never first)
@pytest.mark.parametrize("rtol, stage", [(1.25e-7, 1), (2.5e-7, 11)])
def test_domain_exit_in_an_inlined_stage(inline_at_once, rtol, stage):
    # x1 oscillates through -1, where ln(x1 + 1) leaves the domain; these
    # tolerances make the given stage of an attempt the first to cross,
    # which the called solve's rhs calls show
    field = parse_system(
        "dim=2; F1 = x2; F2 = -20*x1 + 0*ln(x1 + 1)").source.field_rhs
    for run in RUNS:
        counted = _Counting(field)
        texts = []
        for rhs in (field, counted):
            with pytest.raises(DomainEvaluationError) as err:
                solve(rhs, [2.8, 0.5], 10.0, rtol=rtol, **run)
            texts.append(str(err.value))
        # f(t0), the initial-step probe, then the stages per attempt
        assert (counted.calls - 3) % integrate.STAGES + 1 == stage
        assert texts[0] == texts[1] == \
            "math domain error in subexpression 'ln((x1 + 1.0))'"


def test_no_inlined_loop_is_built_after_the_last_chunk(monkeypatch):
    # a count that crosses _INLINE_AFTER in a solve's last chunk builds
    # nothing; the next solve's first chunk builds and runs the loop
    monkeypatch.setattr(integrate, "_INLINE_AFTER", 60)   # evaluations
    field = parse_system("dim=2; F1 = x2; F2 = -x1").source.field_rhs
    sol = solve(field, [1.0, 0.0], 1.0, rtol=1e-8)
    attempts = sol.n_steps + sol.n_rejected
    assert 5 <= attempts <= integrate._CHUNK
    assert integrate._INLINED[field] == integrate.STAGES * attempts
    solve(field, [1.0, 0.0], 1.0, rtol=1e-8)
    assert callable(integrate._INLINED[field])


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="specializing interpreter from CPython 3.11")
def test_generated_loop_specializes_its_float_arithmetic():
    # CPython specializes a code object only after several calls, so a
    # loop that ran a whole solve in one call would stay generic
    field = parse_system("dim=2; F1 = x2; F2 = -x1").source.field_rhs
    sol = solve(field, [1.0, 0.0], 4000.0, rtol=1e-10)
    assert sol.n_steps + sol.n_rejected >= 10_000
    loop = integrate._loop(field, 2)
    assert callable(integrate._INLINED[field])
    ops = {i.opname for i in dis.get_instructions(loop, adaptive=True)}
    assert "BINARY_OP_MULTIPLY_FLOAT" in ops and "BINARY_OP_ADD_FLOAT" in ops
