"""Build metric matrix functions and verify their matrix inequalities.

Four constructions, plus the closed form every scalar field admits:

* the constant Gramian at the origin (algebraic residual polished to 1e-8),
* P(e) from transition-matrix quadrature along solutions, truncated at a
  horizon certified by the decay envelope,
* the rescaled variant on the slowed field F/(1+|dF/de|^3), whose smallest
  eigenvalue never drops below mu_min(Q)/2,
* eigenvalue envelopes and the flow-aligned inequality residual
  L_F P(e) + Q <= 0,
* in one dimension, P(e) = q int_0^e -F / F(e)^2 with no lifted solve: the
  untruncated limit of the metric along solutions.
"""

import math

import numpy as np

from lyapmetric import catalog
from lyapmetric.estimation import estimate_linearized_decay
from lyapmetric.metric import (
    gramian_at_origin,
    metric_bounds,
    rescaled_metric_field,
    residual_report,
    scalar_metric_field,
    solution_metric,
)
from lyapmetric.systems import SystemModel

grid = (-2.0, -1.0, 0.5, 1.0, 2.0)
model = catalog.get("scalar-example").build()

print("== constant Gramian at the origin ==")
a = np.array([[0.0, 1.0], [-1.0, -1.0]])
field0 = gramian_at_origin(SystemModel.from_linear(a))
p0 = field0(np.zeros(2))
print("  P =", p0.tolist())
print("  algebraic residual:",
      f"{np.linalg.norm(a.T @ p0 + p0 @ a + np.eye(2), 2):.2e}")
print("  direct-solve oracle agrees to",
      f"{np.max(np.abs(p0 - catalog.linear_baseline(a).p)):.2e}")

print("\n== metric along solutions vs nested-quadrature oracle ==")
decay = estimate_linearized_decay(model, [0.5, 1.0, 2.0, 2.6], n_samples=2,
                                  horizon=12.0)
field = solution_metric(model, decay=decay, tail_tol=1e-7)
for e in grid:
    value = field(np.array([e]))[0, 0]
    oracle = catalog.scalar_example_metric_oracle(e)
    print(f"  P({e:+.1f}) = {value:.8f}  oracle {oracle:.8f}  "
          f"T = {field.horizon_for(np.array([e])):5.2f}")

print("\n== scalar closed form: the same metric without a horizon ==")
closed = scalar_metric_field(model, decay=decay)
for e in grid:
    point = np.array([e])
    tail = closed(point)[0, 0] - field(point)[0, 0]
    print(f"  P_inf({e:+.1f}) = {closed(point)[0, 0]:.8f}  "
          f"P_inf - P_T = {tail:.2e} (<= tail_tol 1e-7)")

print("\n== inequality residual L_F P + Q on the grid ==")
report = residual_report(field, model, [[e] for e in grid])
print(f"  verdict: {report.verdict}   max eigenvalue: "
      f"{report.max_eigenvalue:.2e} (tolerance 1e-4)")

print("\n== rescaled metric keeps a state-independent floor ==")
rescaled = rescaled_metric_field(model)
values = [rescaled(np.array([e]))[0, 0] for e in grid]
print("  P~ on the grid:", [f"{v:.4f}" for v in values])
print(f"  floor mu_min(Q)/2 = 0.5; min observed = {min(values):.6f}")
report_r = residual_report(rescaled, model, [[e] for e in grid])
print(f"  rescaled inequality verdict: {report_r.verdict} "
      f"(right side scales with 1 + |dF/de|^3)")

print("\n== eigenvalue envelopes ==")
bounds = metric_bounds(field, [0.5, 1.0, 2.0], n_samples=2)
print("  radius   lower    upper")
for s, lo, hi in zip(bounds.radii, bounds.empirical_lower,
                     bounds.empirical_upper):
    print(f"  {s:5.2f}  {lo:7.4f}  {hi:7.4f}")
print(f"  completeness growth check: {bounds.completeness}")
print("  upper bound via the envelope formula at s=1:",
      f"{decay.gain(1.0) ** 2 / (2 * decay.rate):.4f}",
      f"(true P(1) = {2.0 * math.log(2.0):.4f})")
