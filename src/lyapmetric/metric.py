"""Metric matrix functions built from transition-matrix quadrature.

For a scalar field the metric along solutions has a closed form
(:func:`scalar_metric_field`): one quadrature of F, no lifted solve and no
truncation horizon.  In any dimension four constructions share one
augmented-integration layout,
:func:`dynamics.lifted_system`; each supplies only its `step(state) ->
(state', A)` and Q, and reads the Gramian block of the final vector.  The
metric along solutions lifts through :func:`dynamics.model_lift`, the fused
compiled rhs for a model parsed from text:

* constant Gramian at the origin        integral of exp(A's) Q exp(As)
* metric along solutions  P(e)          integral of Phi(e,s)' Q Phi(e,s)
* transverse metric       P(x)          same, with the transverse transition
* rescaled metric         P~(e)         transition of the slowed field
                                        F / (1 + |dF/de|^3), which admits a
                                        state-independent lower bound

plus the residual machinery that checks the matrix inequality
L_F P(e) <= -Q by flow-aligned differencing of P (:func:`lie_derivative`,
the one gated Lie derivative behind every such check in the package).  The
transverse inequality is checked along the transversally linear system
itself (:class:`systems.ManifoldStep`), whose field is the drift and whose
`jac` is the generator dF/de(0, x) of its transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import integrate
from .dynamics import flow, lifted_system, model_lift, write_csv
from .errors import (
    DerivativeUnreliableError,
    FalsificationError,
    GeodesicDomainError,
    LyapmetricError,
    TailHorizonError,
)

_SYMMETRY_TOL = 1e-10
_H_FLOOR = 1e-6   # smallest Richardson step before the gate gives up
_RESIDUAL_TOL = 1e-4  # residual verdict tolerance and Richardson gate
_FLOW_TOL = 1e-12  # rtol of the short flows that difference P
_SCALAR_QUAD_TOL = 1e-12  # epsrel of the closed-form scalar quadrature
_SCALAR_TAIL_TOL = 1e-7   # the lifted builders' default, for step and slack
_GRAMIAN_TOL = 1e-12      # rtol of the Gramian quadrature before the polish
_CHUNK = 6.0              # rescaled horizon growth per solve
_MAX_CHUNKS = 40          # rescaled horizon cap, in chunks


def check_positive_definite(q, name="Q"):
    """The symmetric part of `q`, which must be finite and positive
    definite (Cholesky reads one triangle only, so it factors that part).
    Errors call the matrix `name`."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise LyapmetricError(f"{name} must have finite entries")
    sym = 0.5 * (q + q.T)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise LyapmetricError(
            f"{name} must be symmetric positive definite") from None
    return sym


def _symmetrize(raw):
    drift = float(np.max(np.abs(raw - raw.T)))
    if drift > _SYMMETRY_TOL:
        raise LyapmetricError(
            f"metric evaluation lost symmetry (|P - P'| = {drift:.3g})")
    return 0.5 * (raw + raw.T)


class MetricField:
    """Evaluator point -> symmetric positive definite matrix, with the decay
    data and eigenvalue envelopes attached.

    `evaluator(point, horizon) -> (P, horizon_used)`.  A lifted evaluator
    integrates to a pinned `horizon`, or else chooses the truncation horizon
    T(point) itself; fields without truncation (constant, callable, closed
    form, tabulated) return None.  The field records the horizon each point
    chose for itself (:meth:`horizon_for`) and keys its cache on
    (point, horizon_used), so P(e) and P(e, horizon=T(e)) are one
    evaluation.

    `dim` is the matrix size; `point_dim` the dimension of evaluation points
    (these differ for the transverse variant, where P lives over the drift
    state).
    """

    def __init__(self, dim, q, variant, evaluator, point_dim=None,
                 decay=None, tail_tol=None):
        self.dim = dim
        self.point_dim = dim if point_dim is None else point_dim
        self.q = np.asarray(q, dtype=float)
        self.variant = variant
        self.decay = decay
        self.tail_tol = tail_tol
        self.bounds = None
        self._evaluator = evaluator
        self._cache = {}
        self._horizons = {}

    # -- evaluation ----------------------------------------------------------

    def __call__(self, point, horizon=None):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.size != self.point_dim:
            raise LyapmetricError(
                f"point has size {point.size}, expected {self.point_dim}")
        key = point.tobytes()
        if horizon is None:
            horizon = self._horizons.get(key)
        hit = self._cache.get((key, horizon))
        if hit is not None:
            return hit.copy()
        raw, used = self._evaluator(point, horizon)
        value = _symmetrize(np.asarray(raw, dtype=float))
        if horizon is None and used is not None:
            self._horizons[key] = used
        if len(self._cache) < 4096:
            self._cache[(key, used)] = value.copy()
        return value

    def horizon_for(self, point):
        """The truncation horizon P(point) chose for itself, or None for a
        field without truncation; evaluates P(point) once if unrecorded."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        key = point.tobytes()
        if key not in self._horizons:
            self(point)
        return self._horizons.get(key)

    # -- envelopes -----------------------------------------------------------

    def p_lower(self, s):
        if self.bounds is None:
            raise LyapmetricError("run metric_bounds first")
        return self.bounds.lower_at(s)

    def p_upper(self, s):
        if self.bounds is None:
            raise LyapmetricError("run metric_bounds first")
        return self.bounds.upper_at(s)

    # -- derived fields ------------------------------------------------------

    def tabulate(self, lo, hi, n_points=201):
        """Sample the evaluator on a grid and wrap a smooth interpolant.

        Makes the many repeated evaluations inside geodesic work affordable
        for quadrature-defined metrics.  One spatial dimension only; the
        command line needs no table there (:func:`scalar_metric_field` is
        cheaper than the spline's samples), and higher dimensional work uses
        the exact evaluator.
        """
        if self.point_dim != 1:
            raise LyapmetricError("tabulation is implemented for 1-D points")
        from scipy.interpolate import CubicSpline

        lo, hi = float(lo), float(hi)
        grid = np.linspace(lo, hi, int(n_points))
        values = np.array([self(np.array([g]))[0, 0] for g in grid])
        spline = CubicSpline(grid, values)

        def evaluator(point, horizon):
            x = float(point[0])
            if x < lo or x > hi:
                raise GeodesicDomainError(
                    f"point {point} outside certified domain [{lo}, {hi}]")
            return np.array([[float(spline(x))]]), None

        out = MetricField(
            dim=self.dim, q=self.q, variant=self.variant, evaluator=evaluator,
            point_dim=1, decay=self.decay, tail_tol=self.tail_tol)
        out.bounds = self.bounds
        return out

    def to_csv(self, points, path):
        """Rows `e_1..e_n, P_11..P_nn` over the given evaluation points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n, k = self.point_dim, self.dim
        header = [f"e_{i + 1}" for i in range(n)] + \
            [f"P_{i + 1}{j + 1}" for i in range(k) for j in range(k)]
        write_csv(path, header,
                  (np.concatenate([p, self(p).ravel()]) for p in points))


def constant_metric(p, q=None):
    """Wrap a fixed symmetric positive definite matrix as a MetricField."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    p = check_positive_definite(p, "P")
    q = np.eye(p.shape[0]) if q is None else check_positive_definite(q)
    return MetricField(dim=p.shape[0], q=q, variant="constant",
                       evaluator=lambda point, horizon: (p.copy(), None))


def from_callable(fn, dim):
    """Wrap `fn(point) -> P` as a MetricField on points of size `dim`, with
    Q = I."""
    return MetricField(dim=dim, q=np.eye(dim), variant="custom",
                       evaluator=lambda point, horizon:
                       (np.atleast_2d(fn(point)), None))


# ---------------------------------------------------------------------------
# constant Gramian at the origin
# ---------------------------------------------------------------------------

def gramian_at_origin(model, q=None):
    """Constant metric solving A'P + PA = -Q for A the Jacobian at zero.

    Quadrature over a horizon set by the spectral abscissa, then polished by
    interval doubling (M <- M + Z'MZ, Z <- Z^2) until the tail is below
    rounding; the algebraic residual is verified to 1e-8.
    """
    a = np.asarray(model.jac(np.zeros(model.dim)), dtype=float)
    n = a.shape[0]
    q = np.eye(n) if q is None else check_positive_definite(q)
    eigs = np.linalg.eigvals(a)
    abscissa = float(np.max(eigs.real))
    if abscissa >= 0.0:
        raise LyapmetricError(
            "origin not exponentially stable at first order "
            f"(spectral abscissa {abscissa:.3g})")

    t0 = 2.0 / abs(abscissa)
    no_state = np.empty(0)
    lift = lifted_system(lambda state: (no_state, a), 0, n, q)
    sol = integrate.solve(lift.rhs, lift.y0(no_state), t0, rtol=_GRAMIAN_TOL)
    _, z, m = lift.split(sol.y[-1])

    for _ in range(64):
        update = z.T @ m @ z
        m = m + update
        z = z @ z
        if np.max(np.abs(update)) <= 1e-16 * max(1.0, float(np.max(np.abs(m)))):
            break
    p = 0.5 * (m + m.T)

    residual = float(np.linalg.norm(a.T @ p + p @ a + q, 2))
    if residual > 1e-8:
        raise LyapmetricError(
            f"Gramian polish failed: algebraic residual {residual:.3g} > 1e-8")
    return constant_metric(p, q)


# ---------------------------------------------------------------------------
# decay-truncated Gramians: along solutions and transverse
# ---------------------------------------------------------------------------

def _decay_truncated_field(variant, make_lift, n_state, n_phi, q, decay,
                           tail_tol, ode_tol, horizon_cap, blowup_norm):
    """Evaluator point -> integral over [0, T(point)] of Phi' Q Phi for the
    lifted system `make_lift(q)`.

    Unless a horizon is pinned, T(point) comes from the analytic tail bound
    gain(|point|)^2 mu_max(Q) exp(-2 rate T) / (2 rate) <= tail_tol,
    so the truncation error is certified by the decay estimate.
    """
    if decay is None:
        raise LyapmetricError(f"{variant} metric needs decay data")
    q = np.eye(n_phi) if q is None else check_positive_definite(q)
    q_max = float(np.max(np.linalg.eigvalsh(q)))

    def tail_horizon(point):
        gain = decay.gain(float(np.linalg.norm(point)))
        target = gain * gain * q_max / (2.0 * decay.rate * tail_tol)
        horizon = math.log(max(target, 1.0)) / (2.0 * decay.rate)
        horizon = max(horizon, 1.0)
        if horizon > horizon_cap:
            raise TailHorizonError(
                f"decay data insufficient: tail bound needs horizon "
                f"{horizon:.1f} > cap {horizon_cap:.1f}")
        return horizon

    lift = make_lift(q)

    def evaluator(point, horizon):
        if horizon is None:
            horizon = tail_horizon(point)
        sol = integrate.solve(lift.rhs, lift.y0(point), float(horizon),
                              rtol=ode_tol, blowup_norm=blowup_norm,
                              max_steps=500_000)
        return lift.split(sol.y[-1])[2], horizon

    return MetricField(dim=n_phi, q=q, variant=variant, evaluator=evaluator,
                       point_dim=n_state, decay=decay, tail_tol=tail_tol)


def solution_metric(model, q=None, decay=None, tail_tol=1e-7, ode_tol=1e-12,
                    horizon_cap=200.0):
    """Evaluator e -> P(e) = integral over [0, T(e)] of Phi' Q Phi, with
    T(e) certified by the linearized `decay` estimate.  The lift is
    :func:`dynamics.model_lift`'s."""
    return _decay_truncated_field("along-solutions",
                                  lambda q: model_lift(model, q), model.dim,
                                  model.dim, q, decay, tail_tol, ode_tol,
                                  horizon_cap, blowup_norm=1e8)


def transverse_metric_field(model, q=None, decay=None, tail_tol=1e-7,
                            ode_tol=1e-12, horizon_cap=200.0):
    """Evaluator x -> P(x) for the transversally linear dynamics.

    The transition solves Phi' = dF/de(0, Xd) Phi along the drift
    Xd' = G(0, Xd), the lift of the transversally linear system
    :meth:`systems.TransverseModel.manifold_step`; its residual is checked
    along the same object.  `decay` must be a uniform (constant-gain)
    envelope for that transition.
    """
    step, n_e = model.manifold_step(), model.n_e
    return _decay_truncated_field("transverse",
                                  lambda q: lifted_system(step, model.n_x,
                                                          n_e, q),
                                  model.n_x, n_e, q, decay, tail_tol, ode_tol,
                                  horizon_cap, blowup_norm=1e12)


# ---------------------------------------------------------------------------
# rescaled metric (state-independent lower bound)
# ---------------------------------------------------------------------------

def _slowing_weight(j):
    """1 + |J|_2^3, the rescaled variant's slowing weight at Jacobian J; a
    1x1 J skips the SVD, whose 2-norm is |J| bit for bit."""
    norm = abs(float(j[0, 0])) if j.shape == (1, 1) else np.linalg.norm(j, 2)
    return 1.0 + float(norm) ** 3


def rescaled_metric_field(model, q=None, tail_tol=1e-7, ode_tol=1e-12):
    """Evaluator e -> P~(e) built on the slowed field F / (1 + |dF/de|^3).

    The slowed transition obeys |d/dt log Phi~| <= 1, which forces
    min eig P~ >= mu_min(Q) / 2 independently of e.  The horizon grows in
    solves of _CHUNK time units until the fitted tail of |Phi~| certifies
    the truncation.  A pinned horizon runs the same chunks and stops there,
    so P~(e, horizon=T(e)) repeats the adaptive P~(e) bit for bit and
    residual stencils share one truncation (the chunk quantization would
    otherwise leak tail-sized jumps into flow differences).
    """
    n = model.dim
    q = np.eye(n) if q is None else check_positive_definite(q)
    q_max = float(np.max(np.linalg.eigvalsh(q)))
    f, jac = model.f, model.jac

    def step(e):
        j = jac(e)
        scale = _slowing_weight(j)
        return f(e) / scale, j / scale

    lift = lifted_system(step, n, n, q)

    def evaluator(point, horizon):
        y = lift.y0(point)
        t_done = 0.0
        prev_norm = None
        for _ in range(_MAX_CHUNKS):
            t_next = t_done + _CHUNK
            if horizon is not None:
                t_next = min(t_next, float(horizon))
            y = integrate.solve(lift.rhs, y, t_next - t_done, rtol=ode_tol,
                                max_steps=500_000).y[-1]
            t_done = t_next
            if horizon is not None:
                if t_done >= horizon:
                    return lift.split(y)[2], horizon
                continue
            phi_norm = float(np.linalg.norm(lift.split(y)[1], 2))
            if prev_norm is not None and 0.0 < phi_norm < prev_norm:
                rate = math.log(prev_norm / phi_norm) / _CHUNK
                tail = phi_norm ** 2 * q_max / (2.0 * rate)
                if tail <= tail_tol:
                    return lift.split(y)[2], t_done
            prev_norm = phi_norm
        raise TailHorizonError(
            "decay data insufficient: slowed transition tail did not "
            f"certify within {_MAX_CHUNKS} chunks")

    return MetricField(dim=n, q=q, variant="rescaled", evaluator=evaluator,
                       tail_tol=tail_tol)


# ---------------------------------------------------------------------------
# closed-form scalar metric
# ---------------------------------------------------------------------------

def scalar_metric_field(model, q=None, variant="along-solutions", decay=None):
    """Evaluator e -> P(e) of a scalar field in closed form: one quadrature
    of F, no lifted solve and no truncation horizon.

    In one dimension the lifted transition is Phi(e, t) = F(E(e, t)) / F(e),
    and along a solution dt = w(s) ds / F(s), so

        P(e) = q int_0^e -F(s) w(s) ds / F(e)^2,  P(0) = -q w(0) / (2 F'(0)),

    the untruncated limit of :func:`solution_metric` (w = 1) and of
    :func:`rescaled_metric_field` (w = 1 + |F'|^3).  The rescaled lift slows
    the state and the transition by the same w, so its Phi keeps the ratio
    of the unslowed F; the slowed field F / w does not enter.  Both lifted
    builders stay as the oracles of this one and share no code with it.

    The integral runs as int_0^1 -F(e u) w(e u) / e du over (F(e) / e)^2,
    so nothing underflows near 0.  Every evaluated point s (the point
    itself, then each quadrature node) must satisfy s F(s) < 0: otherwise
    F has a zero in (0, s], a second equilibrium, which falsifies global
    decay (:class:`FalsificationError`, stage "scalar-metric", witness s).
    `decay` is attached for the analytic envelope of :func:`metric_bounds`.
    The field has no truncation; it carries the lifted builders' default
    tail_tol, so its residual step and envelope slack match theirs.
    """
    from scipy.integrate import quad

    if model.dim != 1:
        raise LyapmetricError("the closed-form metric needs a scalar field")
    if variant not in ("along-solutions", "rescaled"):
        raise LyapmetricError(f"no closed form for metric variant '{variant}'")
    q = np.eye(1) if q is None else check_positive_definite(q)
    q_scalar = float(q[0, 0])
    f, jac = model.f, model.jac

    def weight(x):
        if variant == "rescaled":
            return _slowing_weight(jac(x))
        return 1.0

    origin = np.zeros(1)
    slope = float(jac(origin)[0, 0])
    if not slope < 0.0:
        raise LyapmetricError(
            f"origin not exponentially stable at first order (F'(0) = "
            f"{slope:.3g})")
    p_origin = -q_scalar * weight(origin) / (2.0 * slope)

    def require_decay(s, fs):
        # the sign of s F(s), without the product's underflow near 0
        if not math.copysign(1.0, s) * fs < 0.0:
            raise FalsificationError(
                f"global decay falsified at s = {s:.17g}: F(s) = {fs:.3g} "
                "does not point to the origin, so a second equilibrium "
                "lies in (0, s]", witness=[s], stage="scalar-metric")

    def integrand(u, e):
        x = np.array([e * u])
        fx = float(f(x)[0])
        require_decay(float(x[0]), fx)
        return -fx * weight(x) / e

    def evaluator(point, horizon):
        e = float(point[0])
        if e == 0.0:
            return np.array([[p_origin]]), None
        f_e = float(f(point)[0])
        require_decay(e, f_e)
        out = quad(integrand, 0.0, 1.0, args=(e,), epsabs=0.0,
                   epsrel=_SCALAR_QUAD_TOL, limit=200, full_output=1)
        if len(out) > 3:
            raise LyapmetricError(
                f"closed-form metric quadrature did not converge at e = {e}")
        return np.array([[q_scalar * out[0] / (f_e / e) ** 2]]), None

    return MetricField(dim=1, q=q, variant=variant, evaluator=evaluator,
                       decay=decay, tail_tol=_SCALAR_TAIL_TOL)


# ---------------------------------------------------------------------------
# Lie-derivative residuals
# ---------------------------------------------------------------------------

@dataclass
class ResidualEntry:
    point: np.ndarray
    residual: np.ndarray
    max_eigenvalue: float
    h: float
    disagreement: float

    def to_dict(self):
        return {"point": [float(v) for v in self.point],
                "max_eigenvalue": self.max_eigenvalue,
                "h": self.h,
                "richardson_disagreement": self.disagreement}


@dataclass
class ResidualReport:
    entries: list
    tolerance: float
    variant: str

    @property
    def max_eigenvalue(self):
        return max(e.max_eigenvalue for e in self.entries)

    @property
    def verdict(self):
        return "pass" if all(e.max_eigenvalue <= self.tolerance
                             for e in self.entries) else "fail"

    def to_dict(self):
        return {"variant": self.variant,
                "tolerance": self.tolerance,
                "verdict": self.verdict,
                "max_eigenvalue": self.max_eigenvalue,
                "entries": [e.to_dict() for e in self.entries]}


def lie_derivative(metric, model, e, h=None):
    """Lie derivative L_F P(e) = d_F P(e) + P J + J' P of a metric along
    `model`: (L_F P, h, disagreement).

    `model` supplies `dim` and `f`, the flow along which P is differenced,
    and `jac`, the generator J of the transition Phi' = J Phi that enters
    the congruence P J + J' P.  For a :class:`systems.SystemModel` J is its
    Jacobian; for the transversally linear system
    (:class:`systems.ManifoldStep`) the flow is the drift G(0, x) and J is
    dF/de(0, x).

    d_F P comes from one-sided differences of P along the flow at steps h
    and h/2, combined by Richardson extrapolation; the 2-norm gap between
    the two extrapolation inputs gates reliability.  While it exceeds
    10 _RESIDUAL_TOL, h is halved (not below 1e-6); the h that passed is
    returned.  The default h is max(1e-4, sqrt(tail_tol)).  Every P is
    pinned to the horizon P(e) chose for itself
    (:meth:`MetricField.horizon_for`), so truncation does not leak into the
    differences.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    if h is None:
        base = metric.tail_tol if metric.tail_tol else 1e-8
        h = max(1e-4, math.sqrt(base))
    horizon = metric.horizon_for(e)
    p0 = metric(e, horizon)
    while True:
        traj = flow(model, e, h, tol=_FLOW_TOL, dense=True)
        p_h = metric(traj.states[-1], horizon)
        p_h2 = metric(traj.state_at(0.5 * h), horizon)
        d1 = (p_h - p0) / h
        d2 = (p_h2 - p0) / (0.5 * h)
        disagreement = float(np.linalg.norm(d2 - d1, 2))
        if disagreement <= 10.0 * _RESIDUAL_TOL:
            break
        if 0.5 * h < _H_FLOOR:
            raise DerivativeUnreliableError(
                f"derivative step unreliable at e = {e}: Richardson inputs "
                f"differ by {disagreement:.3g} at h = {h:.3g}")
        h = 0.5 * h

    j = model.jac(e)
    return (2.0 * d2 - d1) + p0 @ j + j.T @ p0, h, disagreement


def lie_derivative_residual(metric, model, e, h=None):
    """One residual entry R(e) = L_F P(e) + Q_eff (:func:`lie_derivative`).

    For the rescaled variant Q_eff = Q (1 + |dF/de(e)|^3), matching the
    inequality that construction satisfies; otherwise Q_eff = Q.  The entry
    records the Richardson step h that passed the gate.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    lie, h, disagreement = lie_derivative(metric, model, e, h)
    q_eff = metric.q
    if metric.variant == "rescaled":
        q_eff = metric.q * _slowing_weight(model.jac(e))
    residual = lie + q_eff
    residual = 0.5 * (residual + residual.T)
    max_eig = float(np.max(np.linalg.eigvalsh(residual)))
    return ResidualEntry(point=e, residual=residual, max_eigenvalue=max_eig,
                         h=h, disagreement=disagreement)


def residual_report(metric, model, points):
    """Residual entries on `points`, passing when every max eigenvalue is at
    most _RESIDUAL_TOL."""
    entries = [lie_derivative_residual(metric, model, p)
               for p in np.atleast_2d(np.asarray(points, dtype=float))]
    return ResidualReport(entries=entries, tolerance=_RESIDUAL_TOL,
                          variant=metric.variant)


# ---------------------------------------------------------------------------
# eigenvalue envelopes
# ---------------------------------------------------------------------------

@dataclass
class MetricBounds:
    radii: np.ndarray
    empirical_lower: np.ndarray
    empirical_upper: np.ndarray
    analytic_lower: Optional[np.ndarray] = None
    analytic_upper: Optional[np.ndarray] = None
    completeness: str = "unknown"
    samples: dict = field(default_factory=dict)

    def lower_at(self, s):
        return float(np.interp(abs(float(s)), self.radii,
                               self.empirical_lower))

    def upper_at(self, s):
        return float(np.interp(abs(float(s)), self.radii,
                               self.empirical_upper))

    def to_dict(self):
        out = {"radii": [float(v) for v in self.radii],
               "empirical_lower": [float(v) for v in self.empirical_lower],
               "empirical_upper": [float(v) for v in self.empirical_upper],
               "completeness": self.completeness,
               "samples": self.samples}
        if self.analytic_lower is not None:
            out["analytic_lower"] = [float(v) for v in self.analytic_lower]
        if self.analytic_upper is not None:
            out["analytic_upper"] = [float(v) for v in self.analytic_upper]
        return out


def metric_bounds(metric, radii, n_samples=8, seed=0, gain=None,
                  jac_majorant=None):
    """Empirical eigenvalue envelopes over sphere samples per radius, plus
    the analytic formulas when the inputs are available:

    upper(s) = gain_lin(s)^2 mu_max(Q) / (2 rate)
    lower(s) = mu_min(Q) / (2 c(gain(s) * s))

    Empirical must lie inside analytic; a violation is a construction bug
    and raises.  The completeness indicator reports whether lower(r) * r^2
    grows along the grid.  The result is attached to the metric.
    """
    from . import sampling

    radii = np.sort(np.asarray(radii, dtype=float))
    q_min = float(np.min(np.linalg.eigvalsh(metric.q)))
    q_max = float(np.max(np.linalg.eigvalsh(metric.q)))

    # ball envelopes, so the center value seeds both accumulations
    origin_eigs = np.linalg.eigvalsh(metric(np.zeros(metric.point_dim)))
    per_lo, per_hi = [], []
    for j, s in enumerate(radii):
        pts = sampling.sphere_points(metric.point_dim, s, n_samples,
                                     seed + 41 * j)
        pts = np.vstack([pts, sampling.ball_points(
            metric.point_dim, s, max(2, n_samples // 2), seed + 41 * j + 7)])
        pts = np.unique(pts, axis=0)
        eigs = [np.linalg.eigvalsh(metric(p)) for p in pts]
        per_lo.append(min(float(e[0]) for e in eigs))
        per_hi.append(max(float(e[-1]) for e in eigs))
    emp_lower = np.minimum.accumulate(
        np.minimum(np.array(per_lo), float(origin_eigs[0])))
    emp_upper = np.maximum.accumulate(
        np.maximum(np.array(per_hi), float(origin_eigs[-1])))

    ana_lower = ana_upper = None
    slack = metric.tail_tol or 0.0
    if metric.decay is not None:
        ana_upper = np.array([
            metric.decay.gain(s) ** 2 * q_max / (2.0 * metric.decay.rate)
            for s in radii])
        if np.any(emp_upper > ana_upper * (1.0 + 1e-6) + slack):
            raise LyapmetricError(
                "empirical upper envelope violates the analytic bound: "
                "metric construction is inconsistent with its decay data")
    if jac_majorant is not None:
        state_gain = gain if gain is not None else metric.decay
        if state_gain is None:
            raise LyapmetricError("analytic lower bound needs a gain table")
        ana_lower = np.array([
            q_min / (2.0 * jac_majorant(state_gain.gain(s) * s))
            for s in radii])
        if np.any(emp_lower < ana_lower * (1.0 - 1e-6) - slack):
            raise LyapmetricError(
                "empirical lower envelope violates the analytic bound: "
                "metric construction is inconsistent with its gain data")

    growth = emp_lower * radii**2
    completeness = "pass" if np.all(np.diff(growth) > 0.0) else "flag"

    bounds = MetricBounds(
        radii=radii, empirical_lower=emp_lower, empirical_upper=emp_upper,
        analytic_lower=ana_lower, analytic_upper=ana_upper,
        completeness=completeness,
        samples={"per_radius": int(n_samples), "seed": int(seed)})
    metric.bounds = bounds
    return bounds
