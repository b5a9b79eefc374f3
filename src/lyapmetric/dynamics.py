"""Flows, lifted (variational) flows and transverse flows.

Every first-order approximation carried along solutions is built on one
layout, :func:`lifted_system`: the state is integrated jointly with its
transition matrix Phi, Phi' = A(state) Phi, Phi(0) = I, and optionally with
the running Gramian integral of Phi' Q Phi, as a single augmented system
with the layout [state | Phi row-major | int Phi' Q Phi].  A caller supplies
only `step(state) -> (state', A)`; one integration keeps the cocycle
identity Phi(E(e,t), r) Phi(e,t) = Phi(e, t+r) tight.

A model's own lift, A = dF/de along e' = F(e), has one selector,
:func:`model_lift`: for a model parsed from text the rhs is the compiled
closure :meth:`expressions.ParsedSystem.compiled_lift` itself, as the
source's compiled field is for :func:`flow`; any other model uses the
generic `lifted_system` rhs, the compiled lift's test oracle.
:func:`variational_flow` and :func:`metric.solution_metric` lift through
it; the transverse and rescaled lifts use `lifted_system` directly.  The
transversally linear system x' = G(0, x), Phi' = dF/de(0, x) Phi is one
object, :class:`systems.ManifoldStep`, with one lift: :func:`transverse_flow`
solves it, :func:`metric.transverse_metric_field` solves it with its
Gramian block, and :func:`flow` reads the object as a model whose field is
the drift.  Both :func:`variational_flow` and :func:`transverse_flow` go
through one helper that solves a lift into a :class:`Trajectory`.  The
nonlinear pair (e, x) is a plain :func:`flow` of `model.full`.  The module
also holds the CSV writer behind every `to_csv` and the command-line
outputs.

Every flow runs the 8(5,3) pair of :func:`integrate.solve` and keeps its
accepted steps with the derivatives at its nodes, which give
:meth:`Trajectory.hermite_points` a cubic interpolant between them at no
extra rhs evaluation.  A caller that needs the state at a given time
flows to that time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import integrate
from .errors import LyapmetricError

_TOL_RANGE = (1e-14, 1e-2)


def write_csv(path, header, rows):
    """Write a header line, then one line per row with 17 significant
    digits per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class LiftedSystem(NamedTuple):
    """Augmented right-hand side plus the layout of its vector."""

    rhs: Callable      # (t, y) -> y' as floats; see integrate.solve
    y0: Callable       # state0 -> y(0): Phi(0) = I, Gramian(0) = 0
    split: Callable    # y or rows of y -> (state, Phi, Gramian or None)


def lifted_system(step, n_state, n_phi, q=None):
    """The state lifted with its transition matrix, y = [state | Phi | G].

    `step(state)` returns (state derivative, A) with Phi' = A Phi; `Phi` is
    n_phi x n_phi, stored row-major.  With `q` the block G accumulates
    int Phi' Q Phi; without it the vector ends after Phi.
    """
    k = n_phi * n_phi
    size = n_state + (k if q is None else 2 * k)
    # prebuilt slices keep this per-step closure as cheap as a hand-written one
    state, trans, gram = (slice(0, n_state), slice(n_state, n_state + k),
                          slice(n_state + k, size))
    square = (n_phi, n_phi)

    def rhs(t, y):
        y = np.asarray(y)
        phi = y[trans].reshape(square)
        out = np.empty(size)
        out[state], a = step(y[state])
        out[trans] = (a @ phi).ravel()
        if q is not None:
            out[gram] = (phi.T @ q @ phi).ravel()
        return out.tolist()

    def y0(state0):
        blocks = [np.asarray(state0, dtype=float), np.eye(n_phi).ravel()]
        if q is not None:
            blocks.append(np.zeros(k))
        return np.concatenate(blocks)

    def split(y):
        shape = y.shape[:-1] + square
        gramian = None if q is None else y[..., gram].reshape(shape)
        return y[..., state], y[..., trans].reshape(shape), gramian

    return LiftedSystem(rhs, y0, split)


def model_lift(model, q=None):
    """The lift of `model` along its own solutions: state and Phi of size
    dim, A = model.jac, and with `q` the Gramian block.

    With an expression source the rhs is the source's compiled lift, one
    Python call per evaluation; otherwise the generic :func:`lifted_system`
    rhs of (model.f, model.jac).  Both agree to rounding (the fused
    products can differ in the last bit) and raise the same typed errors.
    """
    f, jac = model.f, model.jac

    def step(e):
        return f(e), jac(e)

    generic = lifted_system(step, model.dim, model.dim, q)
    if model.source is None:
        return generic
    return generic._replace(rhs=model.source.compiled_lift(q))


def _check_tol(tol):
    if not (_TOL_RANGE[0] < tol < _TOL_RANGE[1]):
        raise LyapmetricError(
            f"tolerance {tol} outside ({_TOL_RANGE[0]}, {_TOL_RANGE[1]})")


def _hermite(values, slopes, h, theta):
    """Cubic Hermite values at the fractions `theta` of each step, from the
    node `values` and their time derivatives `slopes` (both (m, ...)) over
    the step sizes `h`, row by row: ((m - 1) * len(theta), ...)."""
    lead = (1,) * (values.ndim - 1)
    theta = theta.reshape(1, -1, *lead)
    h = h.reshape(-1, 1, *lead)
    y0, y1 = values[:-1, None], values[1:, None]
    f0, f1 = slopes[:-1, None], slopes[1:, None]
    # (1 - th) y0 + th y1 + th (th - 1) ((1 - 2 th) dy + h ((th - 1) f0 + th f1))
    out = ((1.0 - theta) * y0 + theta * y1 + theta * (theta - 1.0) * (
        (1.0 - 2.0 * theta) * (y1 - y0)
        + h * ((theta - 1.0) * f0 + theta * f1)))
    return out.reshape(-1, *values.shape[1:])


@dataclass
class Trajectory:
    """Time grid, states, and (optionally) transition matrices along a flow.

    A trajectory of stored steps also carries the time derivatives of its
    states and transitions at the nodes (`d_states`, `d_phi`), from which
    :meth:`hermite_points` reads it between the nodes."""

    t: np.ndarray                      # strictly increasing, t[0] = 0
    states: np.ndarray                 # (m, n)
    phi: Optional[np.ndarray] = None   # (m, n_e, n_e)
    d_states: Optional[np.ndarray] = None   # (m, n)
    d_phi: Optional[np.ndarray] = None      # (m, n_e, n_e)

    def hermite_points(self, per_step):
        """`per_step` equally spaced points inside each step, on the cubic
        Hermite interpolant of the values and derivatives at the step's
        two nodes (Hairer, Norsett & Wanner, Solving ODEs I, II.6), as a
        Trajectory of those points only, in time order.  It is empty for
        a single node; otherwise the derivatives must be there."""
        if self.d_states is None and len(self.t) > 1:
            raise LyapmetricError("trajectory has no derivatives at its nodes")
        theta = np.arange(1, per_step + 1) / (per_step + 1)
        h = np.diff(self.t)

        def points(values, slopes):
            if values is None or len(h) == 0:
                return None if values is None else values[:0]
            return _hermite(values, slopes, h, theta)

        return Trajectory(t=(self.t[:-1, None] + theta * h[:, None]).ravel(),
                          states=points(self.states, self.d_states),
                          phi=points(self.phi, self.d_phi))

    def to_csv(self, path):
        """Write `t, e_1..e_n[, phi_11..phi_nn]` rows, 17 significant digits."""
        n = self.states.shape[1]
        header = ["t"] + [f"e_{i + 1}" for i in range(n)]
        blocks = [self.t[:, None], self.states]
        if self.phi is not None:
            k = self.phi.shape[1]
            header += [f"phi_{i + 1}{j + 1}" for i in range(k) for j in range(k)]
            blocks.append(self.phi.reshape(len(self.t), k * k))
        write_csv(path, header, np.hstack(blocks))


def _initial_state(state0, n, tol):
    _check_tol(tol)
    state0 = np.atleast_1d(np.asarray(state0, dtype=float))
    if state0.size != n:
        raise LyapmetricError(f"initial state has size {state0.size}, expected {n}")
    return state0


def flow(model, e0, horizon, tol=1e-9, blowup_norm=1e8):
    """Integrate e' = F(e) from e0 over [0, horizon]; the rhs is the
    compiled field of `model.source` where the model has one, else
    `model.f`."""
    e0 = _initial_state(e0, model.dim, tol)
    f, source = model.f, getattr(model, "source", None)

    def numpy_rhs(t, y):
        return f(np.asarray(y)).tolist()

    sol = integrate.solve(numpy_rhs if source is None else source.field_rhs,
                          e0, horizon, rtol=tol, blowup_norm=blowup_norm)
    return Trajectory(t=sol.t, states=sol.y, d_states=sol.f)


def _lifted_flow(lift, state0, n_state, horizon, tol, blowup_norm):
    """Solve a lift from `state0` into a Trajectory with its Phi."""
    state0 = _initial_state(state0, n_state, tol)
    sol = integrate.solve(lift.rhs, lift.y0(state0), horizon, rtol=tol,
                          blowup_norm=blowup_norm)
    states, phi, _ = lift.split(sol.y)
    d_states, d_phi = (None, None) if sol.f is None else lift.split(sol.f)[:2]
    return Trajectory(t=sol.t, states=states, phi=phi, d_states=d_states,
                      d_phi=d_phi)


def variational_flow(model, e0, horizon, tol=1e-9, blowup_norm=1e8):
    """Jointly integrate the state and its transition matrix, through
    :func:`model_lift`."""
    return _lifted_flow(model_lift(model), e0, model.dim, horizon, tol,
                        blowup_norm)


def transverse_flow(model, x0, horizon, tol=1e-9, blowup_norm=1e8):
    """The drift x' = G(0, x) from x0 and the transverse transition
    Phi' = dF/de(0, x) Phi, Phi(0) = I: the lift of the transversally
    linear system :meth:`systems.TransverseModel.manifold_step`, the one
    that :func:`metric.transverse_metric_field` integrates.  `states` is
    the drift and `phi` the transition."""
    lift = lifted_system(model.manifold_step(), model.n_x, model.n_e)
    return _lifted_flow(lift, x0, model.n_x, horizon, tol, blowup_norm)
