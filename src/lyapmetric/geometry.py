"""Riemannian structure of a metric field: Christoffel symbols, geodesics,
lengths, the distance-to-origin Lyapunov function and its flow derivative.

Geodesics use the standard convention gamma'' + Gamma[gamma', gamma'] = 0,
under which the P-speed of a geodesic is conserved; the speed-conservation
check in the test suite is the validator for that sign choice.

In one dimension the segment between two points is the only curve joining
them, so their distance is the quadrature |int_a^b sqrt(p(s)) ds|; a
quadrature that does not reach its tolerance is returned flagged.  In two
or more dimensions distances are solved as two-point problems on the affine
parameter [0, 1] by one damped-Newton shooting solver (:func:`_shoot`),
tried with one segment (single shooting) and then with _SEGMENTS segments
(multiple shooting); as a last resort the straight-line length is returned,
only ever flagged as an upper bound.  Shooting also serves as the test
oracle for the 1-D route.

Every unflagged distance carries its gradient at both endpoints, by the
first variation of length: P(b) gamma'(1) / L at the target b and
-P(a) gamma'(0) / L at the start a (in 1-D, +-sqrt(p) with the sign of
the segment).  A flow derivative of a distance is that gradient applied to
the field, so the Lyapunov decrease and the pairwise contraction rate cost
no solve beyond the distance itself; the Dini ladder is their test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import integrate
from .dynamics import flow, write_csv
from .errors import DerivativeUnreliableError, LyapmetricError

_BVP_TOL = 1e-10
_NEWTON_MAX_ITER = 25
_MAX_PANELS = 8192
_CHRISTOFFEL_STEP = 1e-4  # relative central-difference step of christoffel
_SEGMENTS = 8  # multiple-shooting segments
# the shooting settings tried in order, before the flagged straight line:
# (method, segments, Newton tolerance, accepted |residual|), both
# tolerances relative to 1 + |target|
_SHOTS = (("single-shooting", 1, _BVP_TOL, 1e-6),
          ("multiple-shooting", _SEGMENTS, 10.0 * _BVP_TOL, 10.0 * _BVP_TOL))
_DINI_H_SEQ = (1e-2, 5e-3, 2.5e-3)  # the Dini ladder before any halving
_DINI_H_FLOOR = 1e-4  # smallest largest step of the Dini ladder
_DINI_FLOW_TOL = 1e-12


def christoffel(metric, e):
    """Connection coefficients Gamma[l, i, j] at e by central differences.

    Gamma^l_ij = 1/2 sum_m (P^-1)_lm (d_i P_mj + d_j P_mi - d_m P_ij).
    The step 1e-4 (1 + |e|) balances truncation against the noise floor of
    quadrature-defined metrics.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    n = e.size
    h_c = _CHRISTOFFEL_STEP * (1.0 + float(np.linalg.norm(e)))
    p0 = metric(e)
    dp = np.empty((n, p0.shape[0], p0.shape[1]))
    for i in range(n):
        step = np.zeros(n)
        step[i] = h_c
        dp[i] = (metric(e + step) - metric(e - step)) / (2.0 * h_c)
    try:
        p_inv = np.linalg.inv(p0)
    except np.linalg.LinAlgError:
        raise LyapmetricError(f"metric not invertible at {e}") from None
    # lowered[m, i, j] = (d_i P_mj + d_j P_mi - d_m P_ij) / 2,
    # symmetric in (i, j) by construction; raise the first index
    first = np.transpose(dp, (1, 0, 2))          # [m, i, j] = d_i P_mj
    lowered = 0.5 * (first + np.transpose(first, (0, 2, 1)) - dp)
    return np.einsum("lm,mij->lij", p_inv, lowered)


@dataclass
class GeodesicPath:
    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    speeds: np.ndarray
    length: float
    normalized: bool
    speed_drift: float

    def to_csv(self, path):
        """Rows `s, gamma_1..gamma_n, speed`."""
        n = self.points.shape[1]
        header = ["s"] + [f"gamma_{i + 1}" for i in range(n)] + ["speed"]
        write_csv(path, header, ([self.s[k], *self.points[k], self.speeds[k]]
                                 for k in range(len(self.s))))


def _geodesic_rhs(metric, n):
    def rhs(t, y):
        y = np.asarray(y)
        gamma = y[:n]
        w = y[n: 2 * n]
        gam = christoffel(metric, gamma)
        acc = -np.einsum("lij,i,j->l", gam, w, w)
        p = metric(gamma)
        speed = math.sqrt(max(float(w @ p @ w), 0.0))
        out = np.empty(2 * n + 1)
        out[:n] = w
        out[n: 2 * n] = acc
        out[2 * n] = speed
        return out.tolist()

    return rhs


def _integrate_geodesic(metric, start, velocity, s_span):
    y0 = np.concatenate([start, velocity, [0.0]])
    return integrate.solve(_geodesic_rhs(metric, start.size), y0, s_span,
                           rtol=_BVP_TOL)


def geodesic_ivp(metric, e, v, s_max):
    """Integrate the geodesic starting at (e, v) up to parameter s_max."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if float(np.linalg.norm(v)) == 0.0:
        raise LyapmetricError("geodesic needs a nonzero initial velocity")
    n = e.size
    sol = _integrate_geodesic(metric, e, v, float(s_max))
    points = sol.y[:, :n]
    velocities = sol.y[:, n: 2 * n]
    speeds = np.array([math.sqrt(max(float(w @ metric(g) @ w), 0.0))
                       for g, w in zip(points, velocities)])
    drift = float(np.max(np.abs(speeds - speeds[0])))
    normalized = abs(speeds[0] - 1.0) <= 1e-9
    return GeodesicPath(s=sol.t, points=points, velocities=velocities,
                        speeds=speeds, length=float(sol.y[-1, 2 * n]),
                        normalized=normalized, speed_drift=drift)


def normalize_velocity(metric, e, v):
    """Scale v to unit P-speed at e."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    p = metric(np.atleast_1d(np.asarray(e, dtype=float)))
    speed = math.sqrt(float(v @ p @ v))
    if speed == 0.0:
        raise LyapmetricError("cannot normalize a null velocity")
    return v / speed


def riemannian_length(metric, points, rel_tol=1e-8):
    """Length of the piecewise-linear path through `points`.

    Composite Simpson per segment, doubling the panel count until the
    relative change drops below `rel_tol` or the count reaches 8192.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        raise LyapmetricError("a path needs at least two points")
    return sum(_segment_length(metric, points[k], points[k + 1], rel_tol)[0]
               for k in range(points.shape[0] - 1))


def _segment_length(metric, a, b, rel_tol):
    """Simpson length of the segment a -> b: (length, panels, converged)."""
    d = b - a
    if float(np.linalg.norm(d)) == 0.0:
        return 0.0, 0, True

    def speed(sigma):
        x = a + sigma * d
        return math.sqrt(max(float(d @ metric(x) @ d), 0.0))

    return _refined_simpson(speed, rel_tol)


def _refined_simpson(fn, rel_tol, scale_floor=1e-300):
    """Simpson rule for fn on [0, 1], doubling the panels from 4 until two
    consecutive values differ by at most rel_tol * max(|value|,
    scale_floor): (value, panels, converged)."""
    panels = 4
    vals = np.array([fn(x) for x in np.linspace(0.0, 1.0, panels + 1)])
    prev = _simpson(vals)
    while panels < _MAX_PANELS:
        panels *= 2
        # the even nodes of the doubled grid are the previous nodes exactly
        # (power-of-two spacings), so only the midpoints are new
        xs = np.linspace(0.0, 1.0, panels + 1)
        refined = np.empty(panels + 1)
        refined[0::2] = vals
        refined[1::2] = [fn(x) for x in xs[1::2]]
        vals = refined
        cur = _simpson(vals)
        if abs(cur - prev) <= rel_tol * max(abs(cur), scale_floor):
            return cur, panels, True
        prev = cur
    return prev, panels, False


def _simpson(vals):
    panels = vals.size - 1
    h = 1.0 / panels
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2])
                      + 2.0 * np.sum(vals[2:-1:2]))


@dataclass
class DistanceValue:
    value: float
    iterations: int
    flagged: bool
    method: str
    panels: int = 0
    gradient: Optional[np.ndarray] = None        # d(distance)/d(target)
    start_gradient: Optional[np.ndarray] = None  # d(distance)/d(start)


def _damped_newton(residual, z0, tol):
    """Damped Newton iteration on residual(z) -> (r, value) from z0.

    Each step solves against a forward-difference Jacobian (step
    1e-6 (1 + |z|)) and takes the first of the fractions 1, 1/2, ..., 1/128
    of itself that lowers |r|.  Returns (z, value, |r|, iterations) at the
    first iterate with |r| <= tol, or at the last one evaluated when the
    iterations run out; None when an evaluation outside the line search
    fails, the Jacobian is singular or no fraction lowers |r|.
    """
    z = z0
    for iteration in range(_NEWTON_MAX_ITER):
        try:
            r, value = residual(z)
        except LyapmetricError:
            return None
        rnorm = float(np.linalg.norm(r))
        last = (z, value, rnorm, iteration + 1)
        if rnorm <= tol:
            return last
        jac = np.empty((r.size, z.size))
        dz = 1e-6 * (1.0 + float(np.linalg.norm(z)))
        for j in range(z.size):
            zp = z.copy()
            zp[j] += dz
            try:
                jac[:, j] = (residual(zp)[0] - r) / dz
            except LyapmetricError:
                return None
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        for _ in range(8):
            candidate = z + alpha * step
            try:
                r_c = residual(candidate)[0]
            except LyapmetricError:
                alpha *= 0.5
                continue
            if float(np.linalg.norm(r_c)) < rnorm:
                z = candidate
                break
            alpha *= 0.5
        else:
            return None
    return last


def _shoot(metric, start, target, segments, newton_tol, accept):
    """Shooting over `segments` equal pieces of [0, 1]: damped Newton to
    `newton_tol`, accepting a final |residual| <= `accept`.

    The unknowns are the initial velocity u_0, then (gamma_k, u_k) at the
    interior knots, all started on the straight line; the residuals are the
    position and velocity jumps at the interior knots plus the final
    position gap gamma(1) - target.  One segment is single shooting.
    Returns (initial velocity, length, iterations, arrival velocity) or
    None.
    """
    n = start.size
    straight = target - start
    z = np.concatenate([straight] + [
        np.concatenate([start + (k / segments) * straight, straight])
        for k in range(1, segments)])
    seg_len = 1.0 / segments

    def residual(zv):
        u0 = zv[:n]
        knots = [(start, u0)]
        for k in range(1, segments):
            base = n + (k - 1) * 2 * n
            knots.append((zv[base: base + n], zv[base + n: base + 2 * n]))
        res = np.empty((2 * segments - 1) * n)
        total_len = 0.0
        for k, (gk, uk) in enumerate(knots):
            sol = _integrate_geodesic(metric, gk, uk, seg_len)
            g_end = sol.y[-1, :n]
            u_end = sol.y[-1, n: 2 * n]
            total_len += float(sol.y[-1, 2 * n])
            if k < segments - 1:
                res[2 * n * k: 2 * n * k + n] = g_end - knots[k + 1][0]
                res[2 * n * k + n: 2 * n * (k + 1)] = u_end - knots[k + 1][1]
            else:
                res[2 * n * k: 2 * n * k + n] = g_end - target
        return res, (total_len, u_end)

    hit = _damped_newton(residual, z, newton_tol)
    if hit is None or hit[2] > accept:
        return None
    z, (total_len, arrival), _, iterations = hit
    return z[:n], total_len, iterations, arrival


def _distance_between(metric, start, target):
    start = np.atleast_1d(np.asarray(start, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    gap = float(np.linalg.norm(target - start))
    if gap == 0.0:
        return DistanceValue(0.0, 0, False, "coincident")

    if start.size == 1:
        # the segment is the only path joining two points of a line, and
        # d/db |int_a^b sqrt(p)| = sign(b - a) sqrt(p(b))
        length, panels, converged = _segment_length(metric, start, target,
                                                    _BVP_TOL)
        if not converged:
            return DistanceValue(length, 0, True, "quadrature",
                                 panels=panels)
        sign = math.copysign(1.0, target[0] - start[0])
        return DistanceValue(
            length, 0, False, "quadrature", panels=panels,
            gradient=sign * np.sqrt(metric(target)[0]),
            start_gradient=-sign * np.sqrt(metric(start)[0]))

    scale = 1.0 + float(np.linalg.norm(target))
    for method, segments, newton_tol, accept in _SHOTS:
        hit = _shoot(metric, start, target, segments, newton_tol * scale,
                     accept * scale)
        if hit is not None:
            # first variation of length along the accepted geodesic
            u, length, iters, arrival = hit
            return DistanceValue(
                length, iters, False, method,
                gradient=metric(target) @ arrival / length,
                start_gradient=-(metric(start) @ u) / length)

    length = riemannian_length(metric, np.vstack([start, target]))
    return DistanceValue(length, 0, True, "straight-line-upper-bound")


def distance_to_origin(metric, e):
    """Riemannian distance from e to the origin.

    Flagged results did not converge: an unconverged 1-D quadrature, or in
    higher dimensions a straight-line upper bound.  They carry no gradient
    and are excluded from decrease certificates.  Unflagged results carry
    `gradient` g = P(e) gamma'(1) / V(e), and g . F(e) bounds D+V(e) from
    above: bending the end of the minimizing geodesic to E(e, h) gives a
    curve of length V(e) + h g . F(e) + O(h^2), which dominates V(E(e, h))
    even where several minimizing geodesics meet.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    return _distance_between(metric, np.zeros(e.size), e)


@dataclass
class DiniEstimate:
    value: float
    v_at_point: float
    flagged: bool
    h: float


def dini_derivative_V(metric, model, e, gate_tol=1e-3):
    """Upper flow derivative of V(e) = d(e, 0) by extrapolated forward
    quotients (V(E(e, h)) - V(e)) / h over the decreasing h ladder
    (1e-2, 5e-3, 2.5e-3).

    Richardson-extrapolates consecutive quotient pairs and gates on their
    agreement.  While they disagree, the whole ladder is halved, until its
    largest step would drop below 1e-4; the estimate records the largest
    step that passed.  A flagged result means some distance solve returned
    only an upper bound.  Certificates take D+V from the distance gradient
    instead (four solves and a flow fewer); this ladder shares no code with
    that route and is its test oracle.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    h_seq = _DINI_H_SEQ
    v0 = distance_to_origin(metric, e)
    while True:
        flagged = v0.flagged
        traj = flow(model, e, h_seq[0], tol=_DINI_FLOW_TOL, dense=True)
        quotients = {}
        for h in h_seq:
            vh = distance_to_origin(metric, traj.state_at(h))
            flagged = flagged or vh.flagged
            quotients[h] = (vh.value - v0.value) / h

        r1 = 2.0 * quotients[h_seq[1]] - quotients[h_seq[0]]
        r2 = 2.0 * quotients[h_seq[2]] - quotients[h_seq[1]]
        if abs(r2 - r1) <= gate_tol:
            break
        if 0.5 * h_seq[0] < _DINI_H_FLOOR:
            raise DerivativeUnreliableError(
                f"Dini estimate unreliable at e = {e}: extrapolants differ "
                f"by {abs(r2 - r1):.3g} at h = {h_seq[0]:.3g}")
        h_seq = [0.5 * h for h in h_seq]
    return DiniEstimate(value=r2, v_at_point=v0.value, flagged=flagged,
                        h=h_seq[0])


def dini_decrease_bound(metric, v_value, e_norm):
    """Certified decrease rate for V at a point with |e| = e_norm.

    It comes out of the Cauchy-Schwarz chain
    D+V <= -mu_min(Q) |e|^2 / (2 V) <= -mu_min(Q) V / (2 p_upper(|e|))
    and is tight for linear systems (equality along the top eigendirection
    of a constant metric).
    """
    q_min = float(np.min(np.linalg.eigvalsh(metric.q)))
    return -q_min * v_value / (2.0 * metric.p_upper(e_norm))


@dataclass
class PairwiseReport:
    distance: float
    flagged: bool
    sandwich_ok: Optional[bool]
    radius_argument: float
    decrease_rate: Optional[float] = None
    decrease_bound: Optional[float] = None


def pairwise_distance(metric, e1, e2, model=None):
    """Distance between two states, its envelope check, and (with a model)
    the contraction rate d/dt d(E(e1, t), E(e2, t)) at t = 0.

    The rate is the first variation of the one distance solve,
    gradient . F(e2) + start_gradient . F(e1); like D+V it is an upper
    bound wherever several minimizing geodesics join the pair.  The
    envelope radius argument is |e1 - e2| + |e2|, which dominates the norm
    of every point on the connecting geodesic used in the bound.
    """
    e1 = np.atleast_1d(np.asarray(e1, dtype=float))
    e2 = np.atleast_1d(np.asarray(e2, dtype=float))
    d = _distance_between(metric, e1, e2)
    gap = float(np.linalg.norm(e1 - e2))
    radius = gap + float(np.linalg.norm(e2))

    sandwich_ok = None
    if metric.bounds is not None and gap > 0.0:
        lo = math.sqrt(metric.p_lower(radius)) * gap
        hi = math.sqrt(metric.p_upper(radius)) * gap
        sandwich_ok = bool(lo - 1e-9 <= d.value <= hi + 1e-9) \
            if not d.flagged else None

    rate = bound = None
    if model is not None and gap > 0.0 and not d.flagged:
        rate = float(d.gradient @ model.f(e2) + d.start_gradient @ model.f(e1))
        if metric.bounds is not None:
            bound = dini_decrease_bound(metric, d.value, radius)
    return PairwiseReport(distance=d.value, flagged=d.flagged,
                          sandwich_ok=sandwich_ok, radius_argument=radius,
                          decrease_rate=rate, decrease_bound=bound)
