"""Adaptive explicit Runge-Kutta integration with the embedded 8(5,3) pair
of Prince & Dormand (J. Comput. Appl. Math. 1981; Hairer, Norsett & Wanner,
Solving ODEs I, II.10), with or without storage of its accepted steps
(`trajectory`): eighth-order propagation, the err5/err3 error norm of
DOP853 and FSAL, twelve rhs evaluations per attempt.  Every flow of
:mod:`dynamics`, every metric solve and every geodesic segment of
:mod:`geometry` runs it.

A stored trajectory keeps t, y and f = rhs(t, y) at every accepted node;
f is the FSAL stage, so it costs no evaluation, and it gives the caller a
cubic Hermite interpolant between the nodes (Solving ODEs I, II.6).

Everything is deterministic given (rhs, y0, t_end, tolerances), which the
certificate machinery relies on.

The states here are small (one to a few dozen floats), where a numpy call
costs more than the arithmetic it does.  So the stepping loop itself is
generated source over Python floats: the stage combinations, the embedded
error norm, the step control, FSAL and the storage of accepted steps
(when the node buffers are given) are unrolled scalar arithmetic with the
tableau constants inlined.  For any rhs, each stage calls `rhs(t, point)`;
that loop is built on the first solve of each state size.  A closure
compiled from a system text (see :mod:`expressions`) carries its own
source, and once it has made _INLINE_AFTER rhs evaluations through the
called loop, its unpack, local lines and outputs are emitted into each
stage of a loop of its own, with no call; a domain exit there re-runs the
attempt through the called loop, where the closure raises the typed
error.  Both loops give the same bits, so a solve may switch between
them.  Each call of a loop runs at most _CHUNK attempts and returns its
state to :func:`solve`: CPython 3.11 specializes a code object's float
arithmetic only from its ninth call on, so a loop that ran a whole solve
in one call would stay generic.

The right-hand side receives the state as a tuple of Python floats and
returns a sequence of floats; Python float arithmetic raises where numpy
scalars would return inf or nan with a warning, so a compiled closure
still turns its domain exits into the typed error.  Accepted times,
states and derivatives go into flat ``array('d')`` buffers, and the
solution's arrays are views of them.

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

# Dormand-Prince 8(5,3) tableau, the twelve stages of DOP853 as doubles:
# stage i at t + _DOP853_C[i] h on y + h * sum_j _DOP853_A[i][j] k_j; the
# eighth-order solution weighs k0..k11 by _DOP853_B, and stage 12 (FSAL)
# runs at t + h on it.  _DOP853_E5 and _DOP853_E3 weigh k0..k12 into the
# fifth- and third-order error estimates.
_DOP853_C = (0.0, 0.05260015195876773, 0.0789002279381516,
             0.1183503419072274, 0.2816496580927726, 0.3333333333333333,
             0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
             0.8571428571428571, 1.0)
_DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636))
_DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
             1.8915178993145003, -5.801203960010585, 0.3111643669578199,
             -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_DOP853_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
              1.8915178993145003, -5.801203960010585, -0.4226823213237919,
              -0.1521609496625161, 0.20136540080403034, 0.02265179219836082,
              0.0)
_DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
              -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
              0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
              0.0)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ATOL_PER_RTOL = 1e-3
_CHUNK = 32           # attempts per call of a generated loop
# rhs evaluations a compiled closure makes through the called loop before
# its inlined loop is built (512 attempts): about where that compile
# (1-6 ms) has paid for itself
_INLINE_AFTER = 6144

# the rows the loop generator reads: stage i >= 1 runs at t + _ROW_C[i] h
# on y + h sum_j _ROW_A[i][j] k_j; the last row gives the solution, at
# which stage STAGES (FSAL) runs at t + h
_ROW_C = (*_DOP853_C, 1.0)
_ROW_A = (*_DOP853_A, _DOP853_B)
STAGES = 12           # rhs evaluations per attempt
_EXPONENT = -1 / 8    # of the step factor: -1 / (error order 7 + 1)
# compiled closure -> its rhs evaluations through the called loop, then its
# inlined loop
_INLINED = weakref.WeakKeyDictionary()


def _combination(weights, stages, c, keep_zeros=False):
    """Source of sum_j weights[j] * k{stages[j]}_c, left to right; zero
    weights are dropped unless `keep_zeros` (a zero times a NaN is NaN)."""
    terms = [f"{w!r} * k{j}_{c}" for j, w in zip(stages, weights)
             if w != 0.0 or keep_zeros]
    return " + ".join(terms)


def _dop853_error(comps, solution):
    """Source setting `err`: DOP853's h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) m)
    over scale = atol + rtol max(|y|, |y_new|), 0 where both estimates are.
    Every stage enters e5, zero weights included, so a NaN anywhere makes
    err NaN."""
    lines = []
    for c, name in zip(comps, solution):
        five = _combination(_DOP853_E5, range(13), c, keep_zeros=True)
        three = _combination(_DOP853_E3, range(13), c)
        lines += [f"        b{c} = abs({name})",
                  f"        s{c} = atol + rtol * "
                  f"(a{c} if a{c} > b{c} else b{c})",
                  f"        e{c} = ({five}) / s{c}",
                  f"        d{c} = ({three}) / s{c}"]
    lines += [f"        err5 = {' + '.join(f'e{c} * e{c}' for c in comps)}",
              f"        err3 = {' + '.join(f'd{c} * d{c}' for c in comps)}",
              "        denom = err5 + 0.01 * err3",
              f"        err = h * err5 / sqrt(denom * {float(len(comps))!r})"
              " if denom != 0.0 else 0.0"]
    return lines


def _point(i, c):
    """Source of component c of stage i's point (the last stage's is the
    solution)."""
    return f"y{c} + h * ({_combination(_ROW_A[i], range(i), c)})"


def _called_stages(m):
    """Source of the stages as rhs calls: k{i}_{c} is component c of the
    rhs at stage i, n{c} of the solution."""
    comps = range(m)
    lines = []
    for i in range(1, STAGES):
        point = ", ".join(_point(i, c) for c in comps)
        lines.append(f"{', '.join(f'k{i}_{c}' for c in comps)}, = "
                     f"rhs(t + {_ROW_C[i]!r} * h, ({point},))")
    lines += [f"n{c} = {_point(STAGES, c)}" for c in comps]
    lines.append(f"{', '.join(f'k{STAGES}_{c}' for c in comps)}, = "
                 f"rhs(t + h, ({', '.join(f'n{c}' for c in comps)},))")
    return lines


def _inlined_stages(parts):
    """Source of the stages with a compiled closure's input names, local
    lines and outputs in place of each rhs call.  A point component whose
    input is `_` (not read) is formed only for the solution, which lands
    in the inputs it feeds; returns the lines and the solution's names."""
    solution = [f"n{c}" if name == "_" else name
                for c, name in enumerate(parts.inputs)]
    lines = []
    for i in range(1, STAGES + 1):
        names = solution if i == STAGES else parts.inputs
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
    """Source of `_loop(rhs, ...)`: up to _CHUNK attempts from the solver
    state, for states of size m.  Without `parts` each stage calls rhs;
    with a compiled closure's `parts` each stage runs its lines inline,
    and a domain exit re-runs the attempt through the called loop, where
    the closure raises its typed error.  Given the node buffers
    (`ts` not None), each accepted step is appended to them.  Returns
    (stopped, t, h, y, f, n_steps, n_rejected, non_finite): `stopped` when
    the solve reached t_end, ran out of attempts or of step size, which
    :func:`solve` tells apart; blow-ups raise in the loop."""
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
                  "atol, blowup_norm, n_steps + n_rejected + 1, ts, ys, fs)",
                  "            raise"]
    n = ", ".join(solution) + ","
    lines = [
        f"def _loop(rhs, t, h, y, f, n_steps, n_rejected, non_finite, t_end,"
        f" end_gap, rtol, atol, blowup_norm, max_steps, ts, ys, fs):",
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
        *_dop853_error(comps, solution),
    ]
    norm = f"max({', '.join(f'b{c}' for c in comps)})" if m > 1 else "b0"
    k_last = ", ".join(f"k{STAGES}_{c}" for c in comps) + ","
    lines += [
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
        "            if ts is not None:",
        "                ts.append(t_new)",
        f"                ys.extend(({n}))",
        f"                fs.extend(({k_last}))",
        f"            t, {y} {a} {k0} = t_new, {n} "   # FSAL: k0 = k_last
        f"{', '.join(f'b{c}' for c in comps)}, "
        f"{', '.join(f'k{STAGES}_{c}' for c in comps)}",
        "            n_steps += 1",
        f"            h *= {_MAX_FACTOR!r} if err == 0.0 else max("
        f"{_MIN_FACTOR!r}, min({_MAX_FACTOR!r}, {_SAFETY!r} * err ** "
        f"{_EXPONENT!r}))",
        "        else:",
        "            n_rejected += 1",
        f"            h *= max({_MIN_FACTOR!r}, {_SAFETY!r} * err ** "
        f"{_EXPONENT!r})",
        f"    return False, {state}",
    ]
    return "".join(line + "\n" for line in lines)


def _build(source, filename, names):
    """Compile a `_loop` source under `filename` with the globals `names`
    (those of the inlined closure's lines and its re-run loop) plus the
    loop's own."""
    namespace = dict(names, abs=abs, max=max, min=min, range=range,
                     sqrt=math.sqrt, inf=math.inf, _blow_up=_blow_up)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_loop"]


@functools.cache
def _called_loop(m):
    """The loop for any rhs of state size m, compiled once under the
    filename ``<lyapmetric dop853 m=M>``, so profiles keep sizes apart."""
    return _build(_loop_source(m), f"<lyapmetric dop853 m={m}>", {})


def _loop(rhs, m, evaluations=0, build=True):
    """The loop for the next chunk of a solve with `rhs`, which has just
    made `evaluations` more rhs evaluations.  A closure of
    :mod:`expressions` runs through the called loop of its size until it
    has made _INLINE_AFTER evaluations in all through it, then through its
    own inlined loop, compiled when a chunk first asks for it (`build`; a
    solve's last chunk only counts) under the filename
    ``<lyapmetric dop853 KIND>``; both give the same bits.  Any other rhs,
    or a closure whose inputs or outputs are not of size m, runs through
    the called loop."""
    parts = getattr(rhs, "source_parts", None)
    if parts is None or not len(parts.inputs) == len(parts.outputs) == m:
        return _called_loop(m)
    made = _INLINED.get(rhs, 0)
    if callable(made):
        return made
    if made + evaluations < _INLINE_AFTER or not build:
        _INLINED[rhs] = made + evaluations
        return _called_loop(m)
    loop = _INLINED[rhs] = _build(
        _loop_source(m, parts), f"<lyapmetric dop853 {parts.kind}>",
        dict(parts.names, _called_loop=_called_loop))
    return loop


@dataclass
class OdeSolution:
    t: np.ndarray
    y: np.ndarray
    n_steps: int
    n_rejected: int
    n_fev: int
    f: Optional[np.ndarray] = None    # rhs at each node of a trajectory


def _rms(values, scale):
    """Scaled root mean square; inf where a square overflows."""
    try:
        return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale))
                         / len(scale))
    except OverflowError:
        return math.inf


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """First step size from t = 0 (t_end > 0), and the rhs calls its probe
    made.  The size is 0.0 when the scaled norm of f0 or of its change overflows,
    which leaves the first step to the solver's floor."""
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
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, t_end), 1


def _views(ts, ys, m):
    return np.frombuffer(ts), np.frombuffer(ys).reshape(-1, m)


def solve(rhs, y0, t_end, rtol=1e-9, blowup_norm=1e8,
          max_steps=5_000_000, trajectory=True):
    """Integrate y' = rhs(t, y) from 0 to t_end, with the absolute
    tolerance _ATOL_PER_RTOL * rtol.

    `rhs(t, y)` receives y as a tuple of Python floats and returns a
    sequence of floats (a list or a tuple).  The steps run in a generated
    loop, _CHUNK attempts per call; a compiled closure of
    :mod:`expressions` is inlined into its stages after _INLINE_AFTER rhs
    evaluations, with the same results (see the module docstring).

    With `trajectory` (the default) every accepted step is kept: `t`, `y`
    and `f`, the rhs at each node (the FSAL stage, no extra evaluation).
    Without it only the end state is kept: `t` is [0, t_end], `y` is
    [y0, y(t_end)] and `f` is None.  Storing changes no arithmetic, so
    both ways give the same end state and counts.

    Raises :class:`BlowUpError` when the max-norm of an accepted state
    exceeds `blowup_norm`, when y0 or rhs(0, y0) is not finite, or when
    the step underflows right after an attempt with a non-finite error
    estimate; :class:`StepSizeUnderflowError` when the controller drives
    the step below the floating floor otherwise, or after `max_steps`
    attempts (accepted plus rejected).  `n_fev` counts the rhs evaluations
    made, inlined or called: 1 + probes + 12 attempts, where probes (0 or
    1) is the initial-step probe.
    """
    y = tuple(np.asarray(y0, dtype=float).ravel().tolist())
    m = len(y)
    atol = _ATOL_PER_RTOL * rtol
    if t_end < 0.0:
        raise ValueError("t_end must be >= 0 (forward integration only)")

    ts = array("d", (0.0,))
    ys = array("d", y)
    if t_end == 0.0:
        return OdeSolution(*_views(ts, ys, m), 0, 0, 0)

    loop = _loop(rhs, m)
    f = rhs(0.0, y)
    if not all(map(math.isfinite, (*y, *f))):
        # the first step's size would divide by zero (an infinite f0) or be
        # NaN, which never meets the underflow floor
        raise BlowUpError(0.0, float("inf"), blowup_norm)
    fs = array("d", f)
    # the loop stores nothing without the node buffers
    buffers = (ts, ys, fs) if trajectory else (None, None, None)
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
            end_gap, rtol, atol, blowup_norm, max_steps, *buffers)
        loop = _loop(rhs, m, STAGES * (n_steps + n_rejected - attempts),
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

    n_fev = 1 + probes + STAGES * (n_steps + n_rejected)
    if not trajectory:
        ts.append(t)
        ys.extend(y)
        return OdeSolution(*_views(ts, ys, m), n_steps, n_rejected, n_fev)
    return OdeSolution(*_views(ts, ys, m), n_steps, n_rejected, n_fev,
                       np.frombuffer(fs).reshape(-1, m))
