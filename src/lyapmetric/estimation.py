"""Decay-envelope and bound-constant estimation from sampled trajectories.

Everything here is a certificate over an explicitly recorded sample set, not
a proof: the returned constants make the claimed inequalities hold on every
sampled trajectory grid, and each report carries the sample metadata needed
to replay it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sampling
from .dynamics import flow, transverse_flow, variational_flow
from .errors import BlowUpError, FalsificationError, LyapmetricError
from .systems import require_equilibrium

# the proofs need a rate strictly below the fitted one; this keeps the
# envelope gains finite on increasing horizons
_RATE_SHRINK = 0.9
_GROWTH_CAP = 10.0  # running-sup growth per window doubling that falsifies


@dataclass
class SampleInfo:
    count: int
    seed: int
    horizon: float
    tol: float
    kind: str

    def to_dict(self):
        return {"count": self.count, "seed": self.seed,
                "horizon": self.horizon, "tol": self.tol, "kind": self.kind}


@dataclass
class DecayEstimate:
    """Envelope |E(e,t)| <= gain(|e|) * exp(-rate * t) * |e| over samples.

    `gain_radii`/`gain_values` hold a nondecreasing table; `gain_const` is
    used instead when the estimate carries a single constant.  `rate` is the
    rate the gains were computed against; `rate_fit` records the raw
    tail-regression value (they differ only for the gain-function estimate,
    which works strictly below the certified local rate).  `flows` maps
    (point, horizon, tol) to the sampled trajectory, for the estimates that
    keep them (:func:`estimate_les`).
    """

    rate: float
    radius: float
    samples: SampleInfo
    gain_const: Optional[float] = None
    gain_radii: Optional[np.ndarray] = None
    gain_values: Optional[np.ndarray] = None
    rate_fit: Optional[float] = None
    flows: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.rate_fit is None:
            self.rate_fit = self.rate

    def gain(self, s):
        if self.gain_radii is None:
            return float(self.gain_const)
        return float(np.interp(abs(float(s)), self.gain_radii,
                               self.gain_values))

    def to_report(self):
        out = {"lambda": self.rate, "lambda_fit": self.rate_fit,
               "radius": self.radius,
               "samples": self.samples.to_dict()}
        if self.gain_radii is None:
            out["gain"] = self.gain_const
        else:
            out["gain_table"] = [
                {"s": float(s), "k": float(k)}
                for s, k in zip(self.gain_radii, self.gain_values)]
        return out


@dataclass
class BoundConstants:
    """Suprema of the first/second-derivative norms over a sampled domain."""

    mu: float
    rho: float
    c: float
    parts: dict
    argmax: dict
    domain: str

    def to_report(self):
        return {"mu": self.mu, "rho": self.rho, "c": self.c,
                "parts": self.parts,
                "argmax": {k: list(map(float, v)) for k, v in self.argmax.items()},
                "domain": self.domain}


def _fit_tail_rate(t, values, horizon):
    """Least-squares slope of log(values) on the tail t in [horizon/2, horizon]."""
    mask = (t >= 0.5 * horizon) & (values > 0.0)
    if int(np.sum(mask)) < 4:
        return None
    tt = t[mask]
    ln = np.log(values[mask])
    slope = np.polyfit(tt, ln, 1)[0]
    return -float(slope)


def _check_window_growth(t, values, horizon):
    """True when the running sup grows by _GROWTH_CAP across each of two
    window doublings."""
    sups = []
    for frac in (0.25, 0.5, 1.0):
        mask = t <= frac * horizon
        sups.append(float(np.max(values[mask])) if np.any(mask) else 0.0)
    return sups[1] >= _GROWTH_CAP * max(sups[0], 1e-300) and \
        sups[2] >= _GROWTH_CAP * max(sups[1], 1e-300)


def _sampled_decay(points, run, norms, horizon, claim, series, at="e0",
                   fit=True):
    """Run one trajectory per sample point and gate the decay of its series.

    `run(point)` integrates the trajectory and `norms(point, traj)` returns
    the series whose decay is claimed.  A blow-up, a running sup that keeps
    growing, or (with `fit`) a tail without exponential decay raises
    :class:`FalsificationError` naming the `claim` and the gate, with the
    point as witness.  Returns the envelope rate, the slowest fitted tail
    rate (0 without `fit`, for series already normalized by a given rate),
    and per point the sup of series * exp(rate t).
    """
    rates, runs = [], []
    for p in points:
        def falsified(reason):
            return FalsificationError(
                f"{claim} falsified at {at} = {p}: {reason}",
                witness=p.tolist())

        try:
            traj = run(p)
        except BlowUpError as exc:
            raise falsified(exc) from None
        values = norms(p, traj)
        if _check_window_growth(traj.t, values, horizon):
            raise falsified(f"{series} keeps growing")
        if fit:
            rate = _fit_tail_rate(traj.t, values, horizon)
            if rate is None or rate <= 0.0:
                raise falsified(f"no exponential tail decay of {series}")
            rates.append(rate)
        runs.append((traj.t, values))
    rate = min(rates) if fit else 0.0
    return rate, [float(np.max(v * np.exp(rate * t))) for t, v in runs]


def _flow_key(point, horizon, tol):
    return tuple(point.tolist()), float(horizon), float(tol)


def estimate_les(model, radius, n_samples=8, horizon=10.0, tol=1e-9, seed=0):
    """Fit (gain, rate) with |E(e,t)| <= gain * exp(-rate t) |e| on samples
    from the sphere |e| = radius.

    Raises :class:`FalsificationError` with a witness when the origin is
    not an equilibrium or a sampled trajectory fails to decay.
    """
    if radius <= 0:
        raise LyapmetricError("radius must be positive")
    require_equilibrium(model)
    points = sampling.sphere_points(model.dim, radius, n_samples, seed)
    points = np.unique(points, axis=0)
    flows = {}

    def run(e0):
        traj = flow(model, e0, horizon, tol=tol)
        flows[_flow_key(e0, horizon, tol)] = traj
        return traj

    rate, sups = _sampled_decay(
        points, run, lambda e0, traj: np.linalg.norm(traj.states, axis=1),
        horizon, claim="LES", series="|E|")
    gain = max([1.0] + [float(s / np.linalg.norm(e0))
                        for s, e0 in zip(sups, points)])
    info = SampleInfo(len(points), seed, horizon, tol, "sphere")
    return DecayEstimate(rate=rate, radius=radius, samples=info,
                         gain_const=gain, flows=flows)


def estimate_gain_function(model, radii, n_samples=8, horizon=10.0,
                           les=None, tol=1e-9, seed=0):
    """Tabulated nondecreasing gain s -> k(s) over a radii grid.

    Implements the sup construction: c(e, t) = |E(e,t)| / (|e| exp(-rate t))
    per sample, per-radius suprema, cumulative max across radii, floored by
    the local-estimate gain.  A given `les` must be :func:`estimate_les` of
    `model`: the flows it kept are reused where a sample point, the horizon
    and tol recur (its radius-0 samples at the same seed).
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if les is None:
        les = estimate_les(model, radii[0], n_samples=n_samples,
                           horizon=horizon, tol=tol, seed=seed)
    rate = _RATE_SHRINK * les.rate  # the sup construction needs rate < les.rate

    def run(e0):
        traj = les.flows.get(_flow_key(e0, horizon, tol))
        return flow(model, e0, horizon, tol=tol) if traj is None else traj

    def decay_ratio(e0, traj):
        return (np.linalg.norm(traj.states, axis=1)
                / (np.linalg.norm(e0) * np.exp(-rate * traj.t)))

    sup_per_radius = []
    for j, s in enumerate(radii):
        points = sampling.sphere_points(model.dim, s, n_samples, seed + j)
        points = np.unique(points, axis=0)
        _, sups = _sampled_decay(
            points, run, decay_ratio, horizon, claim="global attractivity",
            series="the decay ratio", fit=False)
        sup_per_radius.append(max(sups))

    values = np.maximum.accumulate(np.maximum(np.asarray(sup_per_radius),
                                              les.gain(radii[0])))
    info = SampleInfo(int(n_samples * len(radii)), seed, horizon, tol,
                      "sphere grid")
    return DecayEstimate(rate=rate, radius=float(radii[-1]), samples=info,
                         gain_radii=radii, gain_values=values,
                         rate_fit=les.rate)


def _phi_norms(point, traj, rows=None):
    return np.linalg.norm(traj.phi[:, :rows], 2, axis=(1, 2))


def estimate_linearized_decay(model, radii, n_samples=8, horizon=10.0,
                              tol=1e-9, seed=0, row_block=None):
    """Envelope for the transition matrix: |Phi(e, t)| <= k(|e|) exp(-rate t).

    With `row_block = k`, only the first k rows of Phi enter the norm; that
    measures the decay of the first state block of the lifted solution for
    two-block systems, which is the quantity that can fail even when the
    block itself converges.

    Raises :class:`FalsificationError` with a witness on non-decaying
    transition norms.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    points, point_radii = [], []
    for j, s in enumerate(radii):
        pts = sampling.sphere_points(model.dim, s, n_samples, seed + 17 * j)
        pts = np.unique(pts, axis=0)
        points.extend(pts)
        point_radii.extend([s] * len(pts))
    rate, sups = _sampled_decay(
        points,
        lambda e0: variational_flow(model, e0, horizon, tol=tol,
                                    blowup_norm=1e12),
        lambda e0, traj: _phi_norms(e0, traj, row_block),
        horizon, claim="linearized decay", series="|Phi|")

    sup_per_radius = {}
    for s, value in zip(point_radii, sups):
        sup_per_radius[s] = max(sup_per_radius.get(s, 1.0), value)
    values = np.maximum.accumulate(np.array([sup_per_radius[s] for s in radii]))
    info = SampleInfo(int(n_samples * len(radii)), seed, horizon, tol,
                      "sphere grid (lifted)")
    return DecayEstimate(rate=rate, radius=float(radii[-1]), samples=info,
                         gain_radii=radii, gain_values=values)


def estimate_transverse_decay(model, x_box, n_samples=8, horizon=8.0,
                              tol=1e-9, seed=0):
    """Uniform envelope for the transverse transition over drift initial
    conditions sampled from `x_box` = (lo, hi).

    Each sample solves :func:`dynamics.transverse_flow`, the lift of
    :meth:`systems.TransverseModel.manifold_step` that
    :func:`metric.transverse_metric_field` integrates, so the envelope
    certifying the metric's truncation comes from the same system.
    """
    lo, hi = x_box
    points = sampling.box_points(lo, hi, n_samples, seed)
    rate, sups = _sampled_decay(
        points,
        lambda x0: transverse_flow(model, x0, horizon, tol=tol,
                                   blowup_norm=1e12),
        _phi_norms, horizon, claim="transverse linearized decay",
        series="|Phi|", at="x0")
    gain = max([1.0] + sups)
    info = SampleInfo(len(points), seed, horizon, tol, "drift box")
    return DecayEstimate(rate=rate, radius=float(np.max(np.abs([lo, hi]))),
                         samples=info, gain_const=gain)


def _tensor_block_norm(hessians, rows, cols):
    """Max over components of the 2-norm of a Hessian sub-block."""
    return max(float(np.linalg.norm(h[rows][:, cols], 2)) for h in hessians)


def estimate_bound_constants(model, e_radius, x_box, n_samples=256, seed=0):
    """Suprema of the derivative norms entering the transverse estimates:

    mu  = sup_x |dF/de(0, x)|
    rho = sup_x |dG/dx(0, x)|
    c   = sup over the (e, x) sample of the second-derivative e-blocks,
          the mixed e/x blocks of F, and |dG/de|.

    Deterministic low-discrepancy sample; argmax points are recorded.  The
    suprema are recomputed on nested half/quarter samples, and a >= 10x
    growth across the two doublings raises an error ("bound likely
    unbounded on domain").
    """
    lo, hi = x_box
    counts = [max(8, n_samples // 4), max(8, n_samples // 2), n_samples]
    history = []
    result = None
    for count in counts:
        xs = sampling.box_points(lo, hi, count, seed)
        es = sampling.ball_points(model.n_e, e_radius, count, seed + 1)
        e_slice = slice(0, model.n_e)
        x_slice = slice(model.n_e, model.n_e + model.n_x)

        mu, rho = 0.0, 0.0
        parts = {"d2F_dede": 0.0, "d2F_dxde": 0.0, "dG_de": 0.0}
        argmax = {}
        zero_e = np.zeros(model.n_e)
        for x in xs:
            m = float(np.linalg.norm(model.df_de(zero_e, x), 2))
            if m >= mu:
                mu, argmax["mu"] = m, x
            r = float(np.linalg.norm(model.dg_dx(zero_e, x), 2))
            if r >= rho:
                rho, argmax["rho"] = r, x
        for e, x in zip(es, xs):
            hess = model.hess_blocks(e, x)[: model.n_e]
            v = _tensor_block_norm(hess, e_slice, e_slice)
            if v >= parts["d2F_dede"]:
                parts["d2F_dede"], argmax["d2F_dede"] = v, np.concatenate([e, x])
            v = _tensor_block_norm(hess, x_slice, e_slice)
            if v >= parts["d2F_dxde"]:
                parts["d2F_dxde"], argmax["d2F_dxde"] = v, np.concatenate([e, x])
            v = float(np.linalg.norm(model.dg_de(e, x), 2))
            if v >= parts["dG_de"]:
                parts["dG_de"], argmax["dG_de"] = v, np.concatenate([e, x])
        c = max(parts.values())
        history.append((mu, rho, c))
        result = BoundConstants(
            mu=mu, rho=rho, c=c, parts=dict(parts), argmax=argmax,
            domain=f"|e| <= {e_radius}, x in [{lo}, {hi}], "
                   f"{count} low-discrepancy samples (seed {seed})")

    for idx, label in ((0, "mu"), (1, "rho"), (2, "c")):
        a, b, c3 = (h[idx] for h in history)
        if b >= 10.0 * max(a, 1e-300) and c3 >= 10.0 * max(b, 1e-300):
            raise LyapmetricError(
                f"bound '{label}' likely unbounded on domain "
                f"(grew {a:.3g} -> {b:.3g} -> {c3:.3g} under refinement)")
    return result


def jacobian_norm_majorant(model, radii, n_samples=64, seed=0):
    """Nondecreasing table s -> sup_{|e| <= s} |dF/de(e)| from ball samples.

    Used as the Jacobian majorant in the metric lower-bound formula.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    values = []
    for j, s in enumerate(radii):
        pts = sampling.ball_points(model.dim, s, n_samples, seed + 29 * j)
        pts = np.vstack([pts, np.zeros(model.dim)])
        values.append(max(float(np.linalg.norm(model.jac(p), 2)) for p in pts))
    values = np.maximum.accumulate(np.array(values))

    def majorant(s, _radii=radii, _values=values):
        return float(np.interp(abs(float(s)), _radii, _values))

    return majorant
