"""Model objects: plain vector fields, two-block (invariant-manifold)
systems, and controlled systems.

All models are immutable after construction and hold plain callables, so they
are safe to evaluate concurrently; none records whether F(0) = 0, which each
claim that needs it checks (:func:`require_equilibrium`).  Models built from
specification text compile their field, Jacobian and component Hessians from
the symbolic derivatives of their expression trees, and round-trip to text.

A two-block model has one first-order object on its invariant set, the
transversally linear system x' = G(0, x), Phi' = dF/de(0, x) Phi
(:class:`ManifoldStep`, from :meth:`TransverseModel.manifold_step`): the
transverse lifts call it as a step, and the flow and residual checks read
it as a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import expressions
from .errors import DimensionMismatchError, FalsificationError, LyapmetricError

_EQUILIBRIUM_TOL = 1e-12


class Jet(NamedTuple):
    """Field value (dim,), Jacobian (dim, dim) and component Hessians
    (dim, dim, dim) at one point."""

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray


@dataclass(frozen=True)
class SystemModel:
    """Autonomous vector field with first (and optionally second) derivatives.

    f      point -> field value, shape (dim,)
    jac    point -> Jacobian, shape (dim, dim)
    hess   point -> stacked component Hessians, shape (dim, dim, dim); None
           when the model is only C1
    """

    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    source: Optional[expressions.ParsedSystem] = field(default=None, repr=False)

    @staticmethod
    def from_parsed(parsed):
        return SystemModel(
            dim=parsed.dim,
            f=parsed.compiled_field(),
            jac=parsed.compiled_jacobian(),
            hess=parsed.compiled_hessian(),
            source=parsed,
        )

    @staticmethod
    def from_linear(a):
        """Exact linear model e' = A e."""
        a = np.array(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("A must be square")
        n = a.shape[0]
        zeros = np.zeros((n, n, n))
        return SystemModel(
            dim=n,
            f=lambda x, _a=a: _a @ np.asarray(x, dtype=float),
            jac=lambda x, _a=a: _a.copy(),
            hess=lambda x, _z=zeros: _z.copy(),
        )

    def jet2(self, point):
        """Value, Jacobian and component Hessians at `point`."""
        if self.hess is None:
            raise LyapmetricError("second derivatives unavailable (C1 model)")
        x = np.asarray(point, float)
        return Jet(self.f(x), self.jac(x), self.hess(x))

    def to_spec_text(self):
        if self.source is None:
            raise LyapmetricError("model has no expression source to print")
        return self.source.to_text()


def require_equilibrium(model):
    """Raise :class:`FalsificationError` (stage "equilibrium", the origin
    as witness) unless max |F(0)| <= _EQUILIBRIUM_TOL: the premise of a
    decay estimate and of V(e) = d(e, 0) as a Lyapunov function."""
    origin = np.zeros(model.dim)
    residual = float(np.max(np.abs(model.f(origin))))
    if not residual <= _EQUILIBRIUM_TOL:
        raise FalsificationError(
            f"the origin is not an equilibrium: max |F(0)| = {residual:.3g}",
            witness=origin.tolist(), stage="equilibrium")


@dataclass(frozen=True)
class TransverseModel:
    """Coupled pair e' = F(e, x), x' = G(e, x) with F(0, x) = 0.

    The set {e = 0} is then invariant.  Implemented as a view onto the
    combined field `full` on (e, x); block slices give the partials used by
    the bound-constant estimates, and :meth:`manifold_step` the
    transversally linear system on {e = 0}.
    """

    n_e: int
    n_x: int
    full: SystemModel
    source: Optional[expressions.ParsedSystem] = field(default=None, repr=False)

    def __post_init__(self):
        # manifold invariance spot check
        rng = np.random.default_rng(20240811)
        for _ in range(8):
            x = rng.uniform(-2.0, 2.0, self.n_x)
            if float(np.max(np.abs(self.f_block(np.zeros(self.n_e), x)))) > _EQUILIBRIUM_TOL:
                raise LyapmetricError(
                    "F(0, x) must vanish: {e = 0} is not invariant")

    @staticmethod
    def from_parsed(parsed):
        n_e = parsed.e_dim
        combined = expressions.ParsedSystem(
            parsed.dim, None, parsed.params,
            parsed.f_trees + parsed.g_trees, [], [])
        return TransverseModel(n_e=n_e, n_x=parsed.dim - n_e,
                               full=SystemModel.from_parsed(combined),
                               source=parsed)

    def to_spec_text(self):
        if self.source is None:
            raise LyapmetricError("model has no expression source to print")
        return self.source.to_text()

    @property
    def dim(self):
        return self.n_e + self.n_x

    def _join(self, e, x):
        return np.concatenate([np.asarray(e, float), np.asarray(x, float)])

    def f_block(self, e, x):
        return self.full.f(self._join(e, x))[: self.n_e]

    def g_block(self, e, x):
        return self.full.f(self._join(e, x))[self.n_e:]

    def df_de(self, e, x):
        return self.full.jac(self._join(e, x))[: self.n_e, : self.n_e]

    def dg_de(self, e, x):
        return self.full.jac(self._join(e, x))[self.n_e:, : self.n_e]

    def dg_dx(self, e, x):
        return self.full.jac(self._join(e, x))[self.n_e:, self.n_e:]

    def manifold_step(self):
        """The transversally linear system on {e = 0}."""
        return ManifoldStep(self.n_e, self.n_x, self.full)

    def hess_blocks(self, e, x):
        """Component Hessians of the combined field at (e, x)."""
        if self.full.hess is None:
            raise LyapmetricError("second derivatives unavailable (C1 model)")
        return self.full.hess(self._join(e, x))


class ManifoldStep:
    """The transversally linear system of a two-block model on its
    invariant set: x' = G(0, x) with Phi' = dF/de(0, x) Phi.

    `s(x)` returns (G(0, x), dF/de(0, x)), one :func:`dynamics.lifted_system`
    step; the transverse flow and metric lift it.  `dim` (= n_x), `f` and
    `jac` are what :func:`dynamics.flow` and :func:`metric.lie_derivative`
    read from a model: the flow is the drift, and `jac` is the generator of
    Phi that enters the congruence P A + A' P, not the drift's own
    Jacobian dG/dx.  Each call evaluates the combined field at one
    on-manifold point (0, x).
    """

    __slots__ = ("dim", "_n_e", "_zeros_e", "_full_f", "_full_jac")

    def __init__(self, n_e, n_x, full):
        self.dim = n_x
        self._n_e = n_e
        self._zeros_e = np.zeros(n_e)
        self._full_f, self._full_jac = full.f, full.jac

    def __call__(self, x):
        n_e = self._n_e
        on_manifold = np.concatenate([self._zeros_e, x])
        return (self._full_f(on_manifold)[n_e:],
                self._full_jac(on_manifold)[:n_e, :n_e])

    def f(self, x):
        return self._full_f(np.concatenate([self._zeros_e, x]))[self._n_e:]

    def jac(self, x):
        n_e = self._n_e
        return self._full_jac(np.concatenate([self._zeros_e, x]))[:n_e, :n_e]


@dataclass(frozen=True)
class ControlSystem:
    """Single-input controlled system w' = f(w) + g(w) u."""

    dim: int
    drift: SystemModel
    input_field: SystemModel

    def __post_init__(self):
        if self.drift.dim != self.dim or self.input_field.dim != self.dim:
            raise DimensionMismatchError("drift/input dimensions disagree")

    @staticmethod
    def from_parsed(parsed):
        if parsed.e_dim is not None:
            raise DimensionMismatchError("controlled systems use a single block")
        drift, gfield = (SystemModel.from_parsed(expressions.ParsedSystem(
            parsed.dim, None, parsed.params, trees, [], []))
            for trees in (parsed.f_trees, parsed.input_trees))
        return ControlSystem(dim=parsed.dim, drift=drift, input_field=gfield)

    def closed_loop(self, control):
        """Plain model for w' = f(w) + g(w) * control(w).

        `control` must expose value and gradient: control(w) -> float and
        control.gradient(w) -> (dim,).
        """
        f, g = self.drift, self.input_field

        def field(w):
            return f.f(w) + g.f(w) * control(w)

        def jacobian(w):
            u = control(w)
            du = control.gradient(w)
            return f.jac(w) + u * g.jac(w) + np.outer(g.f(w), du)

        return SystemModel(dim=self.dim, f=field, jac=jacobian)
