"""Adaptive explicit Runge-Kutta integration (Dormand-Prince 5(4)).

One embedded pair, fifth-order propagation with a fourth-order error
estimate, FSAL, and the classic quartic continuous extension.  Everything is
deterministic given (rhs, y0, t_end, tolerances), which the certificate
machinery relies on.

The states here are small (one to a few dozen floats), where a numpy call
costs more than the arithmetic it does.  So one attempt is one generated
function over Python floats, built on the first solve of each state size
and cached: the stage combinations, the embedded error norm and the FSAL
hand-off are unrolled scalar arithmetic with the tableau constants inlined.
The right-hand side receives the state as a tuple of Python floats and
returns a sequence of floats; Python float arithmetic raises where numpy
scalars would return inf or nan with a warning, so a closure compiled from
a system text (the solver's rhs itself, see :mod:`expressions`) still
turns its domain exits into the typed error.  Accepted times and states go into
flat ``array('d')`` buffers, and the solution's arrays are views of them.

An attempt whose error estimate is not finite (a NaN or infinity in any
stage) is rejected at the smallest step factor; if the step then
underflows, the solve ends as a blow-up, not as stiffness.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BlowUpError, StepSizeUnderflowError

# Dormand-Prince tableau: stage i is evaluated at t + _C[i] h on
# y + h * sum_j _A[i][j] k_j; the fifth-order solution is stage 6's point
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((),
      (1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
      -17253 / 339200, 22 / 525, -1 / 40)   # b - b_hat
# continuous-extension weights for the deviation polynomial
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ATOL_PER_RTOL = 1e-3


def _combination(weights, stages, c, keep_zeros=False):
    """Source of sum_j weights[j] * k{stages[j]}_c, left to right; zero
    weights are dropped unless `keep_zeros` (a zero times a NaN is NaN)."""
    terms = [f"{w!r} * k{j}_{c}" for j, w in zip(stages, weights)
             if w != 0.0 or keep_zeros]
    return " + ".join(terms)


def _attempt_source(m):
    """Source of `_attempt(rhs, t, h, y, f, rtol, atol)` for states of size
    m: one Dormand-Prince attempt from (t, y) with f = rhs(t, y).  Returns
    (err, |y_new|_inf, y_new, stages); stages[6] = rhs(t + h, y_new)."""
    comps = range(m)

    def unpack(names, value):
        return f"    {', '.join(names)}, = {value}\n"

    lines = [unpack([f"y{c}" for c in comps], "y"),
             unpack([f"k0_{c}" for c in comps], "f")]
    for i in range(1, 6):
        point = ", ".join(
            f"y{c} + h * ({_combination(_A[i], range(i), c)})" for c in comps)
        lines.append(f"    k{i} = rhs(t + {_C[i]!r} * h, ({point},))\n")
        lines.append(unpack([f"k{i}_{c}" for c in comps], f"k{i}"))
    for c in comps:
        solution = _combination(_A[6], range(6), c)
        lines.append(f"    n{c} = y{c} + h * ({solution})\n")
    lines.append(f"    yn = ({', '.join(f'n{c}' for c in comps)},)\n")
    lines.append("    k6 = rhs(t + h, yn)\n")
    lines.append(unpack([f"k6_{c}" for c in comps], "k6"))
    for c in comps:
        # scale = atol + rtol max(|y|, |y_new|); a NaN in y_new is kept
        estimate = _combination(_E, range(7), c, keep_zeros=True)
        lines.append(f"    a{c} = abs(y{c}); b{c} = abs(n{c})\n"
                     f"    e{c} = h * ({estimate}) / "
                     f"(atol + rtol * (a{c} if a{c} > b{c} else b{c}))\n")
    norm = f"max({', '.join(f'b{c}' for c in comps)})" if m > 1 else "b0"
    lines.append(f"    err = sqrt({' + '.join(f'e{c} * e{c}' for c in comps)})"
                 f" / {math.sqrt(m)!r}\n")
    lines.append(f"    return err, {norm}, yn, (f, k1, k2, k3, k4, k5, k6)\n")
    return "def _attempt(rhs, t, h, y, f, rtol, atol):\n" + "".join(lines)


@functools.cache
def _kernel(m):
    """The attempt function for states of size m, compiled once under the
    filename ``<lyapmetric dp5 m=M>``, so profiles keep sizes apart."""
    namespace = {"sqrt": math.sqrt}
    exec(compile(_attempt_source(m), f"<lyapmetric dp5 m={m}>", "exec"),
         namespace)
    return namespace["_attempt"]


def _dense_coefficients(h, y, y_new, stages):
    """The five coefficient rows of the quartic continuous extension on one
    accepted step, concatenated."""
    k0, k6 = stages[0], stages[6]
    ydiff = [b - a for a, b in zip(y, y_new)]
    bspl = [h * k - d for k, d in zip(k0, ydiff)]
    last = [d - h * k - b for d, k, b in zip(ydiff, k6, bspl)]
    dev = [h * sum(w * k for w, k in zip(_D, ks)) for ks in zip(*stages)]
    return [*y, *ydiff, *bspl, *last, *dev]


class DenseOutput:
    """Piecewise-quartic interpolant collected over accepted steps."""

    def __init__(self, ts, hs, coeffs):
        self.ts = ts              # accepted nodes, len m+1
        self.hs = hs              # step sizes, len m
        self.coeffs = coeffs      # (m, 5, n): rows r1..r5 per step

    def __call__(self, t):
        t = float(t)
        idx = int(np.searchsorted(self.ts, t, side="right") - 1)
        idx = min(max(idx, 0), len(self.hs) - 1)
        r1, r2, r3, r4, r5 = self.coeffs[idx]
        theta = (t - self.ts[idx]) / self.hs[idx]
        return r1 + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))


@dataclass
class OdeSolution:
    t: np.ndarray
    y: np.ndarray
    dense: Optional[DenseOutput]
    n_steps: int
    n_rejected: int
    n_fev: int


def _rms(values, scale):
    """Scaled root mean square; inf where a square overflows."""
    try:
        return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale))
                         / len(scale))
    except OverflowError:
        return math.inf


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """First step size from t = 0 (t_end > 0) and the rhs calls its probe
    made.  The size is 0.0 when the scaled norm of f0 or of its change
    overflows, which leaves the first step to the solver's floor."""
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    if d1 == math.inf:
        return 0.0, 0
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, tuple(v + h0 * g for v, g in zip(y0, f0)))
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end), 1


def _views(ts, ys, m):
    return np.frombuffer(ts), np.frombuffer(ys).reshape(-1, m)


def solve(rhs, y0, t_end, rtol=1e-9, dense=False, blowup_norm=1e8,
          max_steps=5_000_000):
    """Integrate y' = rhs(t, y) from 0 to t_end, with the absolute
    tolerance _ATOL_PER_RTOL * rtol.

    `rhs(t, y)` receives y as a tuple of Python floats and returns a
    sequence of floats (a list or a tuple).

    Raises :class:`BlowUpError` when the max-norm of the state exceeds
    `blowup_norm`, when y0 or rhs(0, y0) is not finite, or when the step
    underflows right after an attempt with a non-finite error estimate;
    :class:`StepSizeUnderflowError` when the controller drives the step
    below the floating floor otherwise, or after `max_steps` attempts
    (accepted plus rejected).  `n_fev` counts the rhs calls made.
    """
    y = tuple(np.asarray(y0, dtype=float).ravel().tolist())
    m = len(y)
    atol = _ATOL_PER_RTOL * rtol
    if t_end < 0.0:
        raise ValueError("t_end must be >= 0 (forward integration only)")

    ts = array("d", (0.0,))
    ys = array("d", y)
    if t_end == 0.0:
        return OdeSolution(*_views(ts, ys, m), None, 0, 0, 0)

    attempt = _kernel(m)
    hs = array("d") if dense else None
    coeffs = array("d") if dense else None
    f = rhs(0.0, y)
    if not all(map(math.isfinite, (*y, *f))):
        # the first step's size would divide by zero (an infinite f0) or be
        # NaN, which never meets the underflow floor
        raise BlowUpError(0.0, float("inf"), blowup_norm)
    h, probes = _initial_step(rhs, y, f, t_end, rtol, atol)
    h = max(h, 1e-12)
    end_gap = 1e-14 * max(1.0, abs(t_end))

    t = 0.0
    n_steps = n_rejected = 0
    non_finite = False   # the last attempt's error estimate was not finite

    while t < t_end:
        remaining = t_end - t
        if remaining <= end_gap:
            break
        if n_steps + n_rejected >= max_steps:
            raise StepSizeUnderflowError(
                f"step budget exhausted after {max_steps} attempts")
        if h > remaining:
            h = remaining
        if h < 1e-14 * max(1.0, abs(t)):
            if non_finite:
                raise BlowUpError(t, float("inf"), blowup_norm)
            raise StepSizeUnderflowError(
                f"step size underflow at t = {t:.6g} (stiffness)")

        err, norm_inf, y_new, stages = attempt(rhs, t, h, y, f, rtol, atol)
        non_finite = not math.isfinite(err)

        if non_finite:
            n_rejected += 1
            h *= _MIN_FACTOR
        elif err <= 1.0:
            t_new = t + h
            if abs(t_new - t_end) <= end_gap:
                t_new = t_end
            if not math.isfinite(norm_inf):
                raise BlowUpError(t_new, float("inf"), blowup_norm)
            if norm_inf > blowup_norm:
                raise BlowUpError(t_new, norm_inf, blowup_norm)
            if dense:
                hs.append(h)
                coeffs.extend(_dense_coefficients(h, y, y_new, stages))
            ts.append(t_new)
            ys.extend(y_new)
            t, y, f = t_new, y_new, stages[6]   # FSAL
            n_steps += 1
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
            h *= max(_MIN_FACTOR, factor)
        else:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

    t_arr, y_arr = _views(ts, ys, m)
    interp = None
    if dense:
        interp = DenseOutput(t_arr, np.frombuffer(hs),
                             np.frombuffer(coeffs).reshape(-1, 5, m))
    return OdeSolution(t_arr, y_arr, interp, n_steps, n_rejected,
                       1 + probes + 6 * (n_steps + n_rejected))
