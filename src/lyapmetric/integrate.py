"""Adaptive explicit Runge-Kutta integration (Dormand-Prince 5(4)).

One embedded pair, fifth-order propagation with a fourth-order error
estimate, FSAL, and the classic quartic continuous extension.  Everything is
deterministic given (rhs, y0, t_end, tolerances), which the certificate
machinery relies on.

The states here are small (one to a few dozen floats), where a numpy call
costs more than the arithmetic it does.  So the stepping loop itself is
generated source over Python floats: the stage combinations, the embedded
error norm, the step control, FSAL and the storage of accepted steps are
unrolled scalar arithmetic with the tableau constants inlined.  For any
rhs, each stage calls `rhs(t, point)`; that loop is built on the first
solve of each state size.  A closure compiled from a system text (see
:mod:`expressions`) carries its own source, and once it has run
_INLINE_AFTER attempts its unpack, local lines and outputs are emitted
into each stage of a loop of its own, with no call; a domain exit there
re-runs the attempt through the called loop, where the closure raises the
typed error.
Both loops give the same bits, so a solve may switch between them.  Each
call of a loop runs at most _CHUNK attempts and returns its state to
:func:`solve`: CPython 3.11 specializes a code object's float arithmetic
only from its ninth call on, so a loop that ran a whole solve in one call
would stay generic.

The right-hand side receives the state as a tuple of Python floats and
returns a sequence of floats; Python float arithmetic raises where numpy
scalars would return inf or nan with a warning, so a compiled closure
still turns its domain exits into the typed error.  Accepted times and
states go into flat ``array('d')`` buffers, and the solution's arrays are
views of them.

An attempt whose error estimate is not finite (a NaN or infinity in any
stage) is rejected at the smallest step factor; if the step then
underflows, the solve ends as a blow-up, not as stiffness.
"""

from __future__ import annotations

import functools
import math
import weakref
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
_CHUNK = 32           # attempts per call of a generated loop
# attempts a compiled closure runs through rhs calls before its inlined
# loop is built: about where that compile (1-3 ms) has paid for itself
_INLINE_AFTER = 1024


def _combination(weights, stages, c, keep_zeros=False):
    """Source of sum_j weights[j] * k{stages[j]}_c, left to right; zero
    weights are dropped unless `keep_zeros` (a zero times a NaN is NaN)."""
    terms = [f"{w!r} * k{j}_{c}" for j, w in zip(stages, weights)
             if w != 0.0 or keep_zeros]
    return " + ".join(terms)


def _point(i, c):
    """Source of component c of stage i's point (stage 6's is y_new)."""
    return f"y{c} + h * ({_combination(_A[i], range(i), c)})"


def _called_stages(m):
    """Source of stages 1-6 as rhs calls: k{i}_{c} is component c of the
    rhs at stage i, n{c} of the fifth-order solution."""
    comps = range(m)
    lines = []
    for i in range(1, 6):
        point = ", ".join(_point(i, c) for c in comps)
        lines.append(f"{', '.join(f'k{i}_{c}' for c in comps)}, = "
                     f"rhs(t + {_C[i]!r} * h, ({point},))")
    lines += [f"n{c} = {_point(6, c)}" for c in comps]
    lines.append(f"{', '.join(f'k6_{c}' for c in comps)}, = "
                 f"rhs(t + h, ({', '.join(f'n{c}' for c in comps)},))")
    return lines


def _inlined_stages(parts):
    """Source of stages 1-6 with a compiled closure's input names, local
    lines and outputs in place of each rhs call.  A point component whose
    input is `_` (not read) is formed only for the solution, which lands
    in the inputs it feeds; returns the lines and the solution's names."""
    solution = [f"n{c}" if name == "_" else name
                for c, name in enumerate(parts.inputs)]
    lines = []
    for i in range(1, 7):
        names = solution if i == 6 else parts.inputs
        lines += [f"{name} = {_point(i, c)}"
                  for c, name in enumerate(names) if name != "_"]
        lines += parts.lines
        lines += [f"k{i}_{c} = {out}" for c, out in enumerate(parts.outputs)]
    return lines, solution


def _blow_up(t, norm, bound):
    """The error for a state of max-norm `norm` past `bound` at time t; a
    NaN norm is reported as inf."""
    return BlowUpError(t, norm if math.isfinite(norm) else math.inf, bound)


def _loop_source(m, parts=None):
    """Source of `_loop(rhs, ...)`: up to _CHUNK Dormand-Prince attempts
    from the solver state, for states of size m.  Without `parts` each
    stage calls rhs; with a compiled closure's `parts` each stage runs its
    lines inline, and a domain exit re-runs the attempt through the called
    loop, where the closure raises its typed error.  Accepted steps are
    appended to the buffers.  Returns (stopped, t, h, y, f, n_steps,
    n_rejected, non_finite): `stopped` when the solve reached t_end, ran
    out of attempts or of step size, which :func:`solve` tells apart;
    blow-ups raise in the loop."""
    comps = range(m)
    y = ", ".join(f"y{c}" for c in comps) + ","
    k0 = ", ".join(f"k0_{c}" for c in comps) + ","
    a = ", ".join(f"a{c}" for c in comps) + ","
    state = f"t, h, ({y}), ({k0}), n_steps, n_rejected, non_finite"
    if parts is None:
        stages = [" " * 8 + line for line in _called_stages(m)]
        solution = [f"n{c}" for c in comps]
    else:
        inlined, solution = _inlined_stages(parts)
        stages = ["        try:", *(" " * 12 + line for line in inlined),
                  "        except _exits:",
                  f"            _called_loop({m})(rhs, t, h, ({y}), ({k0}), "
                  "n_steps, n_rejected, non_finite, t_end, end_gap, rtol, "
                  "atol, blowup_norm, n_steps + n_rejected + 1, ts, ys, hs, "
                  "coeffs)",
                  "            raise"]
    n = ", ".join(solution) + ","
    k = ", ".join(f"({', '.join(f'k{i}_{c}' for c in comps)},)"
                  for i in range(7))
    lines = [
        f"def _loop(rhs, t, h, y, f, n_steps, n_rejected, non_finite, t_end,"
        f" end_gap, rtol, atol, blowup_norm, max_steps, ts, ys, hs, coeffs):",
        f"    {y} = y",
        f"    {k0} = f",
        f"    {a} = {', '.join(f'abs(y{c})' for c in comps)},   # |y|",
        f"    for _ in range({_CHUNK}):",
        "        remaining = t_end - t",
        "        if h > remaining:",
        "            h = remaining",
        # the step floor 1e-14 max(1, |t|), with t >= 0
        "        if (remaining <= end_gap or n_steps + n_rejected >= "
        "max_steps or h < 1e-14 * (t if t > 1.0 else 1.0)):",
        f"            return True, {state}",
        *stages,
    ]
    for c, name in zip(comps, solution):
        # scale = atol + rtol max(|y|, |y_new|); a NaN in y_new is kept
        estimate = _combination(_E, range(7), c, keep_zeros=True)
        lines += [f"        b{c} = abs({name})",
                  f"        e{c} = h * ({estimate}) / "
                  f"(atol + rtol * (a{c} if a{c} > b{c} else b{c}))"]
    norm = f"max({', '.join(f'b{c}' for c in comps)})" if m > 1 else "b0"
    lines += [
        f"        err = sqrt({' + '.join(f'e{c} * e{c}' for c in comps)})"
        f" / {math.sqrt(m)!r}",
        # a NaN or infinite err is rejected at the smallest factor, which
        # is what max() gives it
        "        non_finite = not err < inf",
        "        if err <= 1.0:",
        "            t_new = t + h",
        "            if abs(t_new - t_end) <= end_gap:",
        "                t_new = t_end",
        f"            norm_inf = {norm}",
        "            if not norm_inf < inf or norm_inf > blowup_norm:",
        "                raise _blow_up(t_new, norm_inf, blowup_norm)",
        "            if hs is not None:",
        "                hs.append(h)",
        "                coeffs.extend(_dense_coefficients(",
        f"                    h, ({y}), ({n}), ({k})))",
        "            ts.append(t_new)",
        f"            ys.extend(({n}))",
        f"            t, {y} {a} {k0} = t_new, {n} "   # FSAL: k0 = k6
        f"{', '.join(f'b{c}' for c in comps)}, "
        f"{', '.join(f'k6_{c}' for c in comps)}",
        "            n_steps += 1",
        f"            h *= {_MAX_FACTOR!r} if err == 0.0 else max("
        f"{_MIN_FACTOR!r}, min({_MAX_FACTOR!r}, {_SAFETY!r} * err ** -0.2))",
        "        else:",
        "            n_rejected += 1",
        f"            h *= max({_MIN_FACTOR!r}, {_SAFETY!r} * err ** -0.2)",
        f"    return False, {state}",
    ]
    return "".join(line + "\n" for line in lines)


def _build(source, filename, names):
    """Compile a `_loop` source under `filename` with the globals `names`
    (those of the inlined closure's lines) plus the loop's own."""
    namespace = dict(names, abs=abs, max=max, min=min, range=range,
                     sqrt=math.sqrt, inf=math.inf, _blow_up=_blow_up,
                     _called_loop=_called_loop,
                     _dense_coefficients=_dense_coefficients)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_loop"]


@functools.cache
def _called_loop(m):
    """The loop for any rhs of state size m, compiled once under the
    filename ``<lyapmetric dp5 m=M>``, so profiles keep sizes apart."""
    return _build(_loop_source(m), f"<lyapmetric dp5 m={m}>", {})


# compiled closure -> the attempts it has run through the called loop,
# then its inlined loop
_inlined = weakref.WeakKeyDictionary()


def _loop(rhs, m, attempts=0, build=True):
    """The loop for the next chunk of a solve with `rhs`, which has just
    run `attempts` more attempts.  A closure of :mod:`expressions` runs
    through the called loop of its size until it has made _INLINE_AFTER
    attempts in all, then through its own inlined loop, compiled when a
    chunk first asks for it (`build`; a solve's last chunk only counts)
    under the filename ``<lyapmetric dp5 KIND>``; both give the same bits.
    Any other rhs, or a closure whose inputs or outputs are not of size m,
    runs through the called loop."""
    parts = getattr(rhs, "source_parts", None)
    if parts is None or not len(parts.inputs) == len(parts.outputs) == m:
        return _called_loop(m)
    made = _inlined.get(rhs, 0)
    if callable(made):
        return made
    if made + attempts < _INLINE_AFTER or not build:
        _inlined[rhs] = made + attempts
        return _called_loop(m)
    loop = _inlined[rhs] = _build(_loop_source(m, parts),
                                  f"<lyapmetric dp5 {parts.kind}>",
                                  parts.names)
    return loop


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
    sequence of floats (a list or a tuple).  The steps run in a generated
    loop, _CHUNK attempts per call; a compiled closure of
    :mod:`expressions` is inlined into its stages after _INLINE_AFTER
    attempts, with the same results (see the module docstring).

    Raises :class:`BlowUpError` when the max-norm of the state exceeds
    `blowup_norm`, when y0 or rhs(0, y0) is not finite, or when the step
    underflows right after an attempt with a non-finite error estimate;
    :class:`StepSizeUnderflowError` when the controller drives the step
    below the floating floor otherwise, or after `max_steps` attempts
    (accepted plus rejected).  `n_fev` counts the rhs evaluations made,
    inlined or called.
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

    loop = _loop(rhs, m)
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

    # one chunk of attempts per loop call; the next chunk may run inlined.
    # non_finite: the last attempt's error estimate was not finite
    t, n_steps, n_rejected, non_finite = 0.0, 0, 0, False
    while True:
        attempts = n_steps + n_rejected
        stopped, t, h, y, f, n_steps, n_rejected, non_finite = loop(
            rhs, t, h, y, f, n_steps, n_rejected, non_finite, t_end,
            end_gap, rtol, atol, blowup_norm, max_steps, ts, ys, hs, coeffs)
        loop = _loop(rhs, m, n_steps + n_rejected - attempts,
                     build=not stopped)
        if not stopped:
            continue
        if t_end - t <= end_gap:
            break
        if n_steps + n_rejected >= max_steps:
            raise StepSizeUnderflowError(
                f"step budget exhausted after {max_steps} attempts")
        if non_finite:
            raise BlowUpError(t, float("inf"), blowup_norm)
        raise StepSizeUnderflowError(
            f"step size underflow at t = {t:.6g} (stiffness)")

    t_arr, y_arr = _views(ts, ys, m)
    interp = None
    if dense:
        interp = DenseOutput(t_arr, np.frombuffer(hs),
                             np.frombuffer(coeffs).reshape(-1, 5, m))
    return OdeSolution(t_arr, y_arr, interp, n_steps, n_rejected,
                       1 + probes + 6 * (n_steps + n_rejected))
