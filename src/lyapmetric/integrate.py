"""Adaptive explicit Runge-Kutta integration (Dormand-Prince 5(4)).

One embedded pair, fifth-order propagation with a fourth-order error
estimate, FSAL, and the classic quartic continuous extension.  Everything is
deterministic given (rhs, y0, t_end, tolerances), which the certificate
machinery relies on.

The step loop spends its numpy calls on whole stage vectors only: the
tableau rows are prebuilt, the stage times are Python floats, the error
norm is one dot product, and one reduction checks finiteness and the
blow-up bound of an accepted step.  An attempt whose error estimate is not
finite (a NaN or infinity in any stage) is rejected at the smallest step
factor; if the step then underflows, the solve ends as a blow-up, not as
stiffness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BlowUpError, StepSizeUnderflowError

# Dormand-Prince tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.zeros((7, 7))
_A[1, 0] = 1 / 5
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_B = _A[6].copy()                      # fifth-order weights (FSAL row)
_ROWS = tuple(_A[i, :i].copy() for i in range(7))   # stage i weights
_NODES = tuple(float(c) for c in _C)                # stage i times / h
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])   # b - b_hat
# continuous-extension weights for the deviation polynomial
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ATOL_PER_RTOL = 1e-3


class DenseOutput:
    """Piecewise-quartic interpolant collected over accepted steps."""

    def __init__(self, ts, coeffs):
        self.ts = ts              # accepted nodes, len m+1
        self.coeffs = coeffs      # list of (t0, h, r1..r5) per step

    def __call__(self, t):
        t = float(t)
        idx = int(np.searchsorted(self.ts, t, side="right") - 1)
        idx = min(max(idx, 0), len(self.coeffs) - 1)
        t0, h, r1, r2, r3, r4, r5 = self.coeffs[idx]
        theta = (t - t0) / h
        return r1 + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))


@dataclass
class OdeSolution:
    t: np.ndarray
    y: np.ndarray
    dense: Optional[DenseOutput]
    n_steps: int
    n_rejected: int
    n_fev: int


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """First step size from t = 0 (t_end > 0)."""
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.linalg.norm(y0 / scale) / np.sqrt(y0.size))
    d1 = float(np.linalg.norm(f0 / scale) / np.sqrt(y0.size))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    y1 = y0 + h0 * f0
    f1 = rhs(h0, y1)
    d2 = float(np.linalg.norm((f1 - f0) / scale) / np.sqrt(y0.size)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


def solve(rhs, y0, t_end, rtol=1e-9, dense=False, blowup_norm=1e8,
          max_steps=5_000_000):
    """Integrate y' = rhs(t, y) from 0 to t_end, with the absolute
    tolerance _ATOL_PER_RTOL * rtol.

    Raises :class:`BlowUpError` when the max-norm of the state exceeds
    `blowup_norm`, when y0 or rhs(0, y0) is not finite, or when the step
    underflows right after an attempt with a non-finite error estimate;
    :class:`StepSizeUnderflowError` when the controller drives the step
    below the floating floor otherwise, or after `max_steps` attempts
    (accepted plus rejected).  `n_fev` counts the rhs calls made.
    """
    y0 = np.asarray(y0, dtype=float).copy()
    m = y0.size
    atol = _ATOL_PER_RTOL * rtol
    if t_end < 0.0:
        raise ValueError("t_end must be >= 0 (forward integration only)")

    ts = [0.0]
    ys = [y0.copy()]
    coeffs = [] if dense else None

    if t_end == 0.0:
        return OdeSolution(np.array(ts), np.array(ys), None, 0, 0, 0)

    k = np.empty((7, m))
    heads = [k[:i] for i in range(7)]   # stage i reads k[:i]
    f0 = np.asarray(rhs(0.0, y0), dtype=float)
    n_fev = 2  # includes the probe inside _initial_step
    h = _initial_step(rhs, y0, f0, t_end, rtol, atol)
    if not math.isfinite(h):
        # a non-finite y0 or f0 makes it NaN, and a NaN step would never
        # meet the underflow floor: it would spin through max_steps
        raise BlowUpError(0.0, float("inf"), blowup_norm)
    h = max(h, 1e-12)
    root_m = math.sqrt(m)

    t, y, f = 0.0, y0, f0
    n_steps = n_rejected = 0
    non_finite = False   # the last attempt's error estimate was not finite

    while t < t_end:
        remaining = t_end - t
        if remaining <= 1e-14 * max(1.0, abs(t_end)):
            break
        if n_steps + n_rejected >= max_steps:
            raise StepSizeUnderflowError(
                f"step budget exhausted after {max_steps} attempts")
        h = min(h, remaining)
        if h < 1e-14 * max(1.0, abs(t)):
            if non_finite:
                raise BlowUpError(t, float("inf"), blowup_norm)
            raise StepSizeUnderflowError(
                f"step size underflow at t = {t:.6g} (stiffness)")

        k[0] = f
        for i in range(1, 7):
            yi = y + h * (_ROWS[i] @ heads[i])
            k[i] = rhs(t + _NODES[i] * h, yi)
        n_fev += 6
        y_new = yi                      # stage 7 evaluation point is the solution
        err_vec = h * (_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        r = err_vec / scale
        err = math.sqrt(float(r @ r)) / root_m
        non_finite = not math.isfinite(err)

        if non_finite:
            n_rejected += 1
            h *= _MIN_FACTOR
        elif err <= 1.0:
            t_new = t + h
            if abs(t_new - t_end) <= 1e-14 * max(1.0, abs(t_end)):
                t_new = t_end
            norm_inf = float(np.abs(y_new).max())
            if not math.isfinite(norm_inf):
                raise BlowUpError(t_new, float("inf"), blowup_norm)
            if norm_inf > blowup_norm:
                raise BlowUpError(t_new, norm_inf, blowup_norm)
            if dense:
                ydiff = y_new - y
                bspl = h * k[0] - ydiff
                coeffs.append((t, h, y.copy(), ydiff, bspl,
                               ydiff - h * k[6] - bspl, h * (_D @ k)))
            ts.append(t_new)
            ys.append(y_new)            # a fresh array: stage 6 built it
            t, y, f = t_new, y_new, k[6].copy()   # FSAL
            n_steps += 1
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
            h *= max(_MIN_FACTOR, factor)
        else:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

    t_arr = np.array(ts)
    y_arr = np.array(ys)
    interp = DenseOutput(t_arr, coeffs) if dense else None
    return OdeSolution(t_arr, y_arr, interp, n_steps, n_rejected, n_fev)
