"""Two-block systems: uniform contraction to an invariant set versus the
behavior of the lifted (variational) dynamics.

The planar catalog system e' = -(lam + x sin x) e, x' = mu_x x contracts
to {e = 0} uniformly for any lam > 0.  Its lifted dynamics tell a subtler
story: the response of e to an initial x-perturbation decays only when
lam > mu_x.  Both regimes are reproduced here, along with the transverse
metric in the regime where its quadrature converges comfortably.  The
contraction is read off a plain flow of the combined field on (e, x); the
transverse decay envelope and the transverse metric both solve the one
lift of the transversally linear system x' = G(0, x),
Phi' = dF/de(0, x) Phi (`model.manifold_step()`).  The lifted response
is integrated at a loose tolerance, so its printed values are set partly by
integration error; the closed form printed next to them
(catalog.counterexample_variation_oracle) is what tells the regimes apart.
"""

import math

import numpy as np

from lyapmetric import catalog
from lyapmetric.dynamics import flow, variational_flow
from lyapmetric.errors import FalsificationError
from lyapmetric.estimation import estimate_linearized_decay, estimate_transverse_decay
from lyapmetric.metric import residual_report, transverse_metric_field

entry = catalog.get("transverse-counterexample")

print("== the state always contracts to the invariant set ==")
gain = math.exp(math.cos(1.0) + 1.0)
for lam in (0.5, 2.0):
    model = entry.build({"lam": lam, "mu_x": 1.0})
    traj = flow(model.full, [1.0, 1.0], 4.0, tol=1e-9, blowup_norm=1e9)
    ratio = np.max(np.abs(traj.states[:, 0])
                   / (gain * np.exp(-lam * traj.t)))
    print(f"  lam={lam}: sup |E| / (gain e^(-lam t)) = {ratio:.3f}  (<= 1)")

print("\n== the lifted response to an x-perturbation ==")
for lam, label in ((0.5, "slow transverse rate: no decay"),
                   (2.0, "fast transverse rate: decays")):
    model = entry.build({"lam": lam, "mu_x": 1.0}).full
    traj = variational_flow(model, [1.0, 1.0], 10.0, tol=1e-4,
                            blowup_norm=1e9)
    d_e = np.abs(traj.phi[:, 0, 1])
    print(f"  lam={lam}: sup |dE| = {np.max(d_e):9.3f}   "
          f"|dE(10)| = {d_e[-1]:.2e}   ({label})")
    # at tol 1e-4 the integrated values carry integration error (15% at
    # lam = 0.5; at lam = 2, 13x on a value of 9e-6); the regimes are told
    # apart by the closed form
    at_4, at_10 = (abs(catalog.counterexample_variation_oracle(
        1.0, 1.0, 0.0, 1.0, t, lam, 1.0)) for t in (4.0, 10.0))
    trend = "grows" if at_10 > at_4 else "decays"
    print(f"           closed form: |dE(10)| = {at_10:.2e}, "
          f"{at_10 / at_4:.2e} x |dE(4)| ({trend})")
    # the accepted step nearest t = 4, against the closed form at that time
    i = int(np.argmin(np.abs(traj.t - 4.0)))
    oracle = abs(catalog.counterexample_variation_oracle(
        1.0, 1.0, 0.0, 1.0, traj.t[i], lam, 1.0))
    print(f"           closed-form check at t={traj.t[i]:.4f}: integrated "
          f"{d_e[i]:.6f} vs oracle {oracle:.6f}")

print("\n== the block-restricted decay estimate tells the regimes apart ==")
for lam in (0.5, 2.0):
    model = entry.build({"lam": lam, "mu_x": 1.0}).full
    try:
        est = estimate_linearized_decay(model, [1.0], n_samples=2,
                                        horizon=6.0, tol=1e-6, row_block=1)
        print(f"  lam={lam}: e-row envelope holds, rate = {est.rate:.3f}")
    except FalsificationError as exc:
        print(f"  lam={lam}: falsified ({exc.witness} is the witness)")

print("\n== transverse metric in the feasible regime (lam = 2) ==")
model = entry.build({"lam": 2.0, "mu_x": 1.0})
decay = estimate_transverse_decay(model, ([-1.0], [1.0]), n_samples=2,
                                  horizon=6.0)
field = transverse_metric_field(model, decay=decay, tail_tol=1e-6)
import scipy.integrate

for x0 in (0.5, 1.0):
    value = field(np.array([x0]))[0, 0]
    oracle, _ = scipy.integrate.quad(
        lambda s: catalog.counterexample_transverse_phi_oracle(
            x0, s, 2.0, 1.0) ** 2, 0.0, 40.0, epsabs=1e-10, epsrel=1e-10,
        limit=400)
    print(f"  P(x={x0}) = {value:.8f}   direct quadrature {oracle:.8f}")

# checked along the transversally linear system: the drift carries P, and
# dF/de(0, x) generates the transition
report = residual_report(field, model.manifold_step(), [[0.5], [1.0]])
print(f"  transverse inequality verdict: {report.verdict} "
      f"(max eigenvalue {report.max_eigenvalue:.2e})")
