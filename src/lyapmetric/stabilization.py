"""Controller synthesis from a metric with an input-direction symmetry.

For w' = f(w) + g(w) u with a metric P such that

1. L_f P(w) - lam |P(w) g(w)|^2 <= -Q   on the sampled domain,
2. L_g P(w)  = 0                        (g preserves the metric),
3. the one-form P(w) g(w) is closed, so it has a potential U,

the feedback u = -lam U(w) makes the closed loop satisfy L_F P <= -Q (Q is
the metric's `q`); that one loop is replayed, exported and certified by the
distance-to-origin machinery.  Condition numbers refer to this list.

For a constant P, condition 2 makes P Dg skew and condition 3 makes it
symmetric, so g must be constant; with an expression source that is
decided from g's derivative trees, and U is then the linear form (P g)' w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions
from .errors import ClosednessError, FalsificationError, LyapmetricError
from .geometry import _refined_simpson
from .metric import lie_derivative
from .systems import SystemModel

_CLOSEDNESS_TOL = 1e-6
_FD_STEP = 1e-5          # relative step of the closedness differences
_QUAD_TOL = 1e-10        # relative tolerance of the potential quadrature
_DECREASE_TOL = 1e-6     # conditions 1 and the closed-loop replay
_KILLING_TOL = 1e-8      # condition 2


def _varying_input(g_model):
    """The first (k, j) whose derivative tree dg_k/dw_j does not fold to
    the constant 0, or None when g is constant by its trees.  A constant
    that only cancels numerically (sin(w)^2 + cos(w)^2) does not fold."""
    return next(((k, j) for k, tree in enumerate(g_model.source.f_trees)
                 for j in range(g_model.dim)
                 if not expressions._is_zero(tree.diff(j))), None)


def killing_residual(metric, g_model, w):
    """L_g P(w) = d_g P + P dg/dw + (dg/dw)' P and its 2-norm, from the
    gated :func:`metric.lie_derivative` (an unreliable derivative raises
    :class:`DerivativeUnreliableError`)."""
    residual = lie_derivative(metric, g_model, w)[0]
    residual = 0.5 * (residual + residual.T)
    return residual, float(np.linalg.norm(residual, 2))


def closedness_residual(metric, g_model, points):
    """Max antisymmetrized spatial derivative of the one-form P(w) g(w).

    Zero (up to differencing error) exactly when a potential U exists on the
    sampled domain.  Returns (sup, witness point).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1]

    def omega(w):
        return metric(w) @ g_model.f(w)

    worst, witness = 0.0, points[0]
    if n == 1:
        return 0.0, witness  # every 1-D one-form is closed
    for w in points:
        grad = np.empty((n, n))
        for i in range(n):
            step = np.zeros(n)
            step[i] = _FD_STEP * (1.0 + abs(float(w[i])))
            grad[i] = (omega(w + step) - omega(w - step)) / (2.0 * step[i])
        anti = grad - grad.T
        value = float(np.max(np.abs(anti)))
        if value > worst:
            worst, witness = value, w
    return worst, witness


class PotentialU:
    """Scalar potential of the one-form P(w) g(w), anchored at U(w0) = 0.

    Values come from composite quadrature along the straight segment from
    the base point; the gradient is exact by construction.
    """

    def __init__(self, metric, g_model, base_point=None):
        self.metric = metric
        self.g_model = g_model
        dim = g_model.dim
        self.base_point = np.zeros(dim) if base_point is None \
            else np.atleast_1d(np.asarray(base_point, dtype=float))

    def gradient(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        return self.metric(w) @ self.g_model.f(w)

    def __call__(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        d = w - self.base_point
        if float(np.linalg.norm(d)) == 0.0:
            return 0.0

        def integrand(sigma):
            x = self.base_point + sigma * d
            return float(self.gradient(x) @ d)

        value, panels, converged = _refined_simpson(
            integrand, _QUAD_TOL, scale_floor=1.0)
        if not converged:
            raise LyapmetricError(
                f"potential U(w) at w = {w} did not converge to relative "
                f"tolerance {_QUAD_TOL:.3g} within {panels} panels")
        return value


def construct_U(metric, g_model, w, sample_points=None):
    """U(w) with dU/dw = (P g)' and U(0) = 0.

    When `sample_points` are given, the closedness of the one-form is
    checked there first; a violation means no potential exists on that
    domain and raises :class:`ClosednessError` with the witness.
    """
    if sample_points is not None:
        sup, witness = closedness_residual(metric, g_model, sample_points)
        if sup > _CLOSEDNESS_TOL:
            raise ClosednessError(
                f"the one-form P(w) g(w) is not closed (residual {sup:.3g}); "
                "no potential exists on this domain", witness=witness)
    return PotentialU(metric, g_model)(w)


@dataclass
class ControllerCertificate:
    gain: float
    killing_sup: float
    integrability_sup: float
    decrease_sup: float
    closed_loop_sup: float
    verdict: str
    samples: int
    tolerance: float

    def to_dict(self):
        return {"lambda": self.gain,
                "killing_residual_sup": self.killing_sup,
                "integrability_residual_sup": self.integrability_sup,
                "decrease_residual_sup": self.decrease_sup,
                "closed_loop_residual_sup": self.closed_loop_sup,
                "verdict": self.verdict,
                "samples": self.samples,
                "tolerance": self.tolerance}


class _Feedback:
    """u(w) = -gain * U(w) with the exact potential gradient."""

    def __init__(self, potential, gain):
        self.potential = potential
        self.gain = gain

    def __call__(self, w):
        return -self.gain * self.potential(w)

    def gradient(self, w):
        return -self.gain * self.potential.gradient(w)


def synthesize_controller(control_sys, metric, gain, sample_points):
    """Check the three hypotheses on `sample_points` (Q = metric.q), replay
    L_F P <= -Q on the closed loop (:func:`export_closed_loop`, else through
    the quadrature potential) and return it, the potential and the
    certificate.

    Raises :class:`FalsificationError` naming the failed condition when any
    residual exceeds its tolerance; no controller is emitted in that case.
    Under a constant metric, g with a source must be constant by its trees
    (condition 2, no witness); the sampled Killing residual cross-checks it.
    """
    n = control_sys.dim
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))

    g_model = control_sys.input_field

    # condition 2: the input field preserves the metric
    if metric.variant == "constant" and g_model.source is not None:
        varying = _varying_input(g_model)
        if varying is not None:
            k, j = varying
            raise FalsificationError(
                "condition 2 failed: a constant metric needs a constant g, "
                f"but dg{k + 1}/dx{j + 1} of g{k + 1} = "
                f"{g_model.source.f_trees[k].text()} does not fold to 0")
    killing_sup = max(killing_residual(metric, g_model, w)[1]
                      for w in sample_points)
    if killing_sup > _KILLING_TOL:
        raise FalsificationError(
            f"condition 2 failed: Killing residual {killing_sup:.3g} "
            f"> {_KILLING_TOL:.3g}")

    # condition 3: the one-form has a potential
    integrability_sup, witness = closedness_residual(metric, g_model,
                                                     sample_points)
    if integrability_sup > _CLOSEDNESS_TOL:
        raise FalsificationError(
            f"condition 3 failed: closedness residual {integrability_sup:.3g}"
            f" at {witness}")

    # condition 1: the damped drift inequality
    decrease_sup = -math.inf
    for w in sample_points:
        pg = metric(w) @ g_model.f(w)
        lhs = lie_derivative(metric, control_sys.drift, w)[0] \
            - gain * float(pg @ pg) * np.eye(n) + metric.q
        decrease_sup = max(decrease_sup,
                           float(np.max(np.linalg.eigvalsh(
                               0.5 * (lhs + lhs.T)))))
    if decrease_sup > _DECREASE_TOL:
        raise FalsificationError(
            f"condition 1 failed: decrease residual {decrease_sup:.3g} "
            f"> {_DECREASE_TOL:.3g}")

    potential = PotentialU(metric, g_model)
    closed_loop = export_closed_loop(control_sys, metric, gain)
    if closed_loop is None:
        closed_loop = control_sys.closed_loop(_Feedback(potential, gain))

    # Replay the closed-loop inequality L_F P <= -Q on the samples.  Under
    # the Killing condition the loop satisfies
    # L_F P = L_f P - 2 gain (Pg)(Pg)', a rank-one improvement, so the
    # scalar damped-drift condition above does not by itself imply the
    # matrix inequality in dimension >= 2; the verdict requires this replay
    # to pass as well.
    closed_sup = -math.inf
    for w in sample_points:
        lhs = lie_derivative(metric, closed_loop, w)[0] + metric.q
        closed_sup = max(closed_sup,
                         float(np.max(np.linalg.eigvalsh(
                             0.5 * (lhs + lhs.T)))))

    # conditions 1-3 raised above unless they hold
    cert = ControllerCertificate(
        gain=gain, killing_sup=killing_sup,
        integrability_sup=integrability_sup, decrease_sup=decrease_sup,
        closed_loop_sup=closed_sup,
        verdict="pass" if closed_sup <= _DECREASE_TOL else "fail",
        samples=sample_points.shape[0], tolerance=_DECREASE_TOL)
    return closed_loop, potential, cert


def export_closed_loop(control_sys, metric, gain):
    """The closed loop as a model that prints in the system-text grammar,
    when the potential has an exact expression (constant metric with an
    input field constant by its trees: U is the linear form (P b)' w).
    Returns None when the expression route does not apply; callers fall
    back to the quadrature potential.
    """
    drift = control_sys.drift
    g_model = control_sys.input_field
    if metric.variant != "constant" or drift.source is None \
            or g_model.source is None or _varying_input(g_model) is not None:
        return None
    n = control_sys.dim
    b = g_model.f(np.zeros(n))
    pb = metric(np.zeros(n)) @ b

    u_tree = expressions.Num(0.0)
    for j in range(n):
        u_tree = expressions.add(
            u_tree, expressions.mul(expressions.Num(float(pb[j])),
                                    expressions.Var(j)))
    new_trees = []
    for k, f_tree in enumerate(drift.source.f_trees):
        correction = expressions.mul(
            expressions.Num(float(gain)),
            expressions.mul(u_tree, expressions.Num(float(b[k]))))
        new_trees.append(expressions.sub(f_tree, correction))
    return SystemModel.from_parsed(expressions.ParsedSystem(
        n, None, drift.source.params, new_trees, [], []))

