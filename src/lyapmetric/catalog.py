"""Built-in example systems with independent oracles.

Each registry entry is a system text that declares its parameters; next to
it the module holds closed-form or quadrature evaluators that never touch
the Runge-Kutta code path, so integrator/metric/geometry results can be
checked against a genuinely separate route:

* ``scalar-example``              e' = -e / (1 + e^2); solutions satisfy the
                                  implicit relation y e^y = const * exp(-2t)
                                  with y = E^2, solved by safeguarded Newton.
* ``transverse-counterexample``   e' = -(lam + x sin x) e, x' = mu_x x; all
                                  oracles come from the antiderivative of
                                  u sin u along x(t) = x0 exp(mu_x t).
* linear baselines                P from a direct Lyapunov solve, flows from
                                  the scaling-and-squaring matrix exponential.

The oracles import SciPy where they run, so importing the catalog (as the
command line does, for its registry) loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LyapmetricError
from .expressions import parse_system

SCALAR_EXAMPLE_TEXT = "dim = 1\nF1 = -x1 / (1 + x1^2)\n"

COUNTEREXAMPLE_TEXT = (
    "dim = 2\n"
    "e_dim = 1\n"
    "lam = 0.5\n"
    "mu_x = 1.0\n"
    "F1 = -(lam + x2 * sin(x2)) * x1\n"
    "G1 = mu_x * x2\n"
)


# ---------------------------------------------------------------------------
# scalar example: e' = -e / (1 + e^2)
# ---------------------------------------------------------------------------

def _solve_y_exp_y(c):
    """Unique y >= 0 with y * exp(y) = c (c >= 0), by safeguarded Newton."""
    if c == 0.0:
        return 0.0
    lo, hi = 0.0, max(1.0, c)          # y <= c since exp(y) >= 1
    y = min(c, math.log1p(c))
    for _ in range(100):
        f = y * math.exp(y) - c
        if f > 0.0:
            hi = y
        else:
            lo = y
        step = f / (math.exp(y) * (1.0 + y))
        y_new = y - step
        if not (lo < y_new < hi):
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 1e-16 * (1.0 + y):
            y = y_new
            break
        y = y_new
    return y


def scalar_example_oracle(e, t):
    """E(e, t) from the implicit relation E^2 exp(E^2) = e^2 exp(e^2) exp(-2t)."""
    e = float(e)
    if e == 0.0:
        return 0.0
    y0 = e * e
    c = y0 * math.exp(y0 - 2.0 * float(t))
    y = _solve_y_exp_y(c)
    return math.copysign(math.sqrt(y), e)


def scalar_example_jacobian(e):
    """dF/de for F(e) = -e / (1 + e^2)."""
    e = float(e)
    return (e * e - 1.0) / (1.0 + e * e) ** 2


def scalar_example_transition_oracle(e, t, nested=False):
    """Transition factor of the scalar example's lifted dynamics.

    Default route uses the one-dimensional identity Phi(e, t) =
    F(E(e,t)) / F(e) (exact away from the origin).  With ``nested=True`` it
    instead exponentiates a Gauss-Kronrod quadrature of the Jacobian along
    the implicit-equation solution, which shares nothing with the identity.
    """
    e, t = float(e), float(t)
    if e == 0.0:
        return math.exp(-t)
    if not nested:
        big_e = scalar_example_oracle(e, t)
        return (big_e / (1.0 + big_e * big_e)) / (e / (1.0 + e * e))
    import scipy.integrate

    val, _ = scipy.integrate.quad(
        lambda s: scalar_example_jacobian(scalar_example_oracle(e, s)),
        0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    return math.exp(val)


def scalar_example_metric_oracle(e, q=1.0):
    """P(e) = q * integral of Phi(e, s)^2 over [0, inf), by outer quadrature."""
    import scipy.integrate

    e = float(e)
    val, _ = scipy.integrate.quad(
        lambda s: scalar_example_transition_oracle(e, s) ** 2,
        0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=400)
    return q * val


def scalar_example_distance_oracle(metric_eval, e, tol=1e-9):
    """1-D distance to the origin: direct quadrature of sqrt(p) on [0, e]."""
    e = float(e)
    if e == 0.0:
        return 0.0
    import scipy.integrate

    a, b = (0.0, e) if e > 0 else (e, 0.0)
    val, _ = scipy.integrate.quad(
        lambda s: math.sqrt(float(np.atleast_2d(metric_eval(np.array([s])))[0, 0])),
        a, b, epsabs=tol, epsrel=tol, limit=400)
    return val


# ---------------------------------------------------------------------------
# planar counterexample: e' = -(lam + x sin x) e, x' = mu_x x
# ---------------------------------------------------------------------------

def counterexample_state_oracle(e0, x0, t, lam, mu_x):
    """(E, X) at time t.

    Direct integration of the rate lam + X sin X along X(s) = x0 exp(mu_x s)
    gives E = e0 exp(-lam t + (cos X(t) - cos x0) / mu_x).
    """
    if mu_x == 0.0:
        raise LyapmetricError("closed-form branch needs mu_x != 0")
    big_x = x0 * math.exp(mu_x * t)
    big_e = e0 * math.exp(-lam * t + (math.cos(big_x) - math.cos(x0)) / mu_x)
    return big_e, big_x


def counterexample_transverse_phi_oracle(x0, t, lam, mu_x):
    """Transition of the transversally linear dynamics along the drift."""
    big_x = x0 * math.exp(mu_x * t)
    return math.exp(-lam * t + (math.cos(big_x) - math.cos(x0)) / mu_x)


def counterexample_variation_oracle(e0, x0, de0, dx0, t, lam, mu_x):
    """dE(t) of the lifted planar system, by variation of constants.

    dE(t) = Phi_e(t) * [de0 - (phi(X(t)) - phi(x0)) / (mu_x x0) * e0 dx0],
    with Phi_e the e-transition and phi(u) = lam + u sin u.
    """
    if x0 == 0.0:
        # x stays at zero; the coupling term reduces to its sin x -> x limit
        phi_e = math.exp(-lam * t)
        return phi_e * de0
    phi_e = counterexample_transverse_phi_oracle(x0, t, lam, mu_x)
    big_x = x0 * math.exp(mu_x * t)

    def rate(u):
        return lam + u * math.sin(u)

    bracket = de0 - (rate(big_x) - rate(x0)) / (mu_x * x0) * e0 * dx0
    return phi_e * bracket


def counterexample_uniform_gain(mu_x):
    """Gain constant of the sampled-initial-condition envelope
    |E| <= gain * exp(-lam t) |e0| (valid for the x0 = 1 family)."""
    return math.exp((math.cos(1.0) + 1.0) / mu_x)


# ---------------------------------------------------------------------------
# linear baselines
# ---------------------------------------------------------------------------

@dataclass
class LinearBaseline:
    """Exact metric and flow for e' = A e, all by direct linear algebra."""

    a: np.ndarray
    q: np.ndarray
    p: np.ndarray

    def flow(self, e0, t):
        return self.transition(t) @ np.asarray(e0, float)

    def transition(self, t):
        import scipy.linalg

        return scipy.linalg.expm(self.a * float(t))

    def residual(self):
        return self.a.T @ self.p + self.p @ self.a + self.q


def linear_baseline(a, q=None):
    """Solve A' P + P A = -Q directly; error for non-Hurwitz A."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    q = np.eye(n) if q is None else np.asarray(q, dtype=float)
    eigs = np.linalg.eigvals(a)
    if np.max(eigs.real) >= 0.0:
        raise LyapmetricError(
            f"A is not Hurwitz (spectral abscissa {np.max(eigs.real):.3g})")
    import scipy.linalg

    p = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
    p = 0.5 * (p + p.T)
    return LinearBaseline(a=a, q=q, p=p)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    name: str
    spec_text: str

    def build(self, params=None):
        """Parse the entry's text; `params` override the values it
        declares."""
        return parse_system(self.spec_text, params=params)


_ENTRIES = {
    "scalar-example": CatalogEntry(
        name="scalar-example",
        spec_text=SCALAR_EXAMPLE_TEXT,
    ),
    "transverse-counterexample": CatalogEntry(
        name="transverse-counterexample",
        spec_text=COUNTEREXAMPLE_TEXT,
    ),
}


def entries():
    return dict(_ENTRIES)


def get(name):
    try:
        return _ENTRIES[name]
    except KeyError:
        raise LyapmetricError(
            f"unknown catalog system '{name}' "
            f"(available: {', '.join(sorted(_ENTRIES))})") from None
