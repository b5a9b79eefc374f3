"""Model objects: plain vector fields, two-block (invariant-manifold)
systems, and controlled systems.

All models are immutable after construction and hold plain callables, so they
are safe to evaluate concurrently.  Models built from specification text
compile their field, Jacobian and component Hessians from the symbolic
derivatives of their expression trees, and round-trip back to text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import expressions
from .errors import DimensionMismatchError, LyapmetricError

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
    smoothness: str = "C2"
    equilibrium_at_origin: bool = True
    name: str = ""
    source: Optional[expressions.ParsedSystem] = field(default=None, repr=False)

    def __post_init__(self):
        if self.equilibrium_at_origin:
            residual = float(np.max(np.abs(self.f(np.zeros(self.dim)))))
            if residual > _EQUILIBRIUM_TOL:
                raise LyapmetricError(
                    f"model declared equilibrium-at-origin but |F(0)| = {residual:.3g}")

    @staticmethod
    def from_parsed(parsed, name=""):
        trees = parsed.f_trees
        f = parsed.compiled_field(trees)
        return SystemModel(
            dim=parsed.dim,
            f=f,
            jac=parsed.compiled_jacobian(trees),
            hess=parsed.compiled_hessian(trees),
            smoothness="C4",
            equilibrium_at_origin=_looks_like_equilibrium(f, parsed.dim),
            name=name,
            source=parsed,
        )

    @staticmethod
    def from_linear(a):
        """Exact linear model e' = A e, named "linear"."""
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
            smoothness="C4",
            equilibrium_at_origin=True,
            name="linear",
        )

    def jet2(self, point):
        """Value, Jacobian and component Hessians at `point`."""
        if self.hess is None:
            raise LyapmetricError(
                f"second derivatives unavailable ({self.smoothness} model)")
        x = np.asarray(point, float)
        return Jet(self.f(x), self.jac(x), self.hess(x))

    def to_spec_text(self):
        if self.source is None:
            raise LyapmetricError("model has no expression source to print")
        return self.source.to_text()


def _looks_like_equilibrium(f, dim):
    try:
        value = f(np.zeros(dim))
    except LyapmetricError:
        return False
    return bool(np.max(np.abs(value)) <= _EQUILIBRIUM_TOL)


@dataclass(frozen=True)
class TransverseModel:
    """Coupled pair e' = F(e, x), x' = G(e, x) with F(0, x) = 0.

    The set {e = 0} is then invariant.  Implemented as a view onto the
    combined field on (e, x); block slices give the partials used by the
    bound-constant estimates and the transverse transition flow.
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
    def from_parsed(parsed, name=""):
        n_e = parsed.e_dim
        combined = expressions.ParsedSystem(
            parsed.dim, None, parsed.params,
            parsed.f_trees + parsed.g_trees, [], [])
        full = SystemModel.from_parsed(combined, name=name)
        full = _replace_equilibrium_flag(full, False)
        return TransverseModel(n_e=n_e, n_x=parsed.dim - n_e, full=full,
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
        """x -> (G(0, x), dF/de(0, x)): the drift on the invariant set and
        the transverse Jacobian there, one :func:`dynamics.lifted_system`
        step of the transversally linear dynamics."""
        n_e = self.n_e
        full_f, full_jac = self.full.f, self.full.jac
        zeros_e = np.zeros(n_e)

        def step(x):
            on_manifold = np.concatenate([zeros_e, x])
            return full_f(on_manifold)[n_e:], full_jac(on_manifold)[:n_e, :n_e]

        return step

    def hess_blocks(self, e, x):
        """Component Hessians of the combined field at (e, x)."""
        if self.full.hess is None:
            raise LyapmetricError("second derivatives unavailable (C1 model)")
        return self.full.hess(self._join(e, x))

    def as_full_system(self):
        """The combined field on (e, x) as a plain model."""
        return self.full

    def drift_field(self):
        """x' = G(0, x), the dynamics on the invariant set."""
        n_e, n_x = self.n_e, self.n_x
        full = self.full

        def f(x):
            return full.f(np.concatenate([np.zeros(n_e), np.asarray(x, float)]))[n_e:]

        def jac(x):
            return full.jac(np.concatenate([np.zeros(n_e), np.asarray(x, float)]))[n_e:, n_e:]

        return SystemModel(dim=n_x, f=f, jac=jac, hess=None, smoothness="C1",
                           equilibrium_at_origin=False, name="drift")


def _replace_equilibrium_flag(model, flag):
    return SystemModel(
        dim=model.dim, f=model.f, jac=model.jac, hess=model.hess,
        smoothness=model.smoothness, equilibrium_at_origin=flag,
        name=model.name, source=model.source)


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
    def from_parsed(parsed, name=""):
        if parsed.e_dim is not None:
            raise DimensionMismatchError("controlled systems use a single block")
        drift_parsed = expressions.ParsedSystem(
            parsed.dim, None, parsed.params, parsed.f_trees, [], [])
        input_parsed = expressions.ParsedSystem(
            parsed.dim, None, parsed.params, parsed.input_trees, [], [])
        drift = SystemModel.from_parsed(drift_parsed, name=name)
        gfield = SystemModel.from_parsed(input_parsed, name=f"{name}:g")
        gfield = _replace_equilibrium_flag(gfield, False)
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

        return SystemModel(dim=self.dim, f=field, jac=jacobian, hess=None,
                           smoothness="C1", equilibrium_at_origin=False,
                           name="closed-loop")
