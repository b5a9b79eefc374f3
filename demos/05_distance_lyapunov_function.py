"""Turn a metric into a distance-to-origin Lyapunov function.

The metric induces lengths, geodesics and a distance; the distance to the
origin decreases along the flow at a certified rate.  In one dimension the
distance is the quadrature of sqrt(p) along the segment; in higher
dimensions geodesic two-point problems are solved by damped-Newton
shooting.  Each solve also returns the gradient of the distance (its first
variation), so D+V = gradient . F needs no further solve; the Dini ladder,
forward quotients of V along the flow, checks it.  Anything that does not
converge is returned flagged and excluded from decrease certificates (none
occurs here).
"""

import math

import numpy as np

from lyapmetric import catalog, geometry
from lyapmetric.estimation import estimate_linearized_decay
from lyapmetric.metric import constant_metric, metric_bounds, solution_metric

print("== constant metrics have closed-form distances ==")
p = np.array([[2.0, 0.3], [0.3, 1.0]])
field = constant_metric(p)
e = np.array([0.8, -0.6])
d = geometry.distance_to_origin(field, e)
print(f"  V = {d.value:.10f}   closed form = {math.sqrt(e @ p @ e):.10f}   "
      f"({d.method}, {d.iterations} iterations)")

print("\n== scalar example: build, tabulate, measure ==")
model = catalog.get("scalar-example").build()
decay = estimate_linearized_decay(model, [0.5, 1.0, 2.0, 2.6], n_samples=2,
                                  horizon=12.0)
exact = solution_metric(model, decay=decay, tail_tol=1e-7, ode_tol=1e-10)
field = exact.tabulate(-2.6, 2.6, 161)
metric_bounds(field, [0.5, 1.0, 2.0, 2.5], n_samples=2)

print("  e     V(e)       quadrature oracle   envelope sandwich")
for e1 in (0.5, 1.0, 2.0):
    d = geometry.distance_to_origin(field, [e1])
    oracle = catalog.scalar_example_distance_oracle(field, e1)
    lo = math.sqrt(field.p_lower(e1)) * e1
    hi = math.sqrt(field.p_upper(e1)) * e1
    print(f"  {e1:3.1f}  {d.value:.8f}  {oracle:.8f}        "
          f"[{lo:.4f}, {hi:.4f}]")

print("\n== decrease along the flow ==")
print("  e     D+V (gradient.F)  Dini ladder   certified bound")
for e1 in (0.5, 1.0, 2.0):
    d = geometry.distance_to_origin(field, [e1])
    first_variation = float(d.gradient @ model.f(np.array([e1])))
    dini = geometry.dini_derivative_V(field, model, [e1])
    bound = geometry.dini_decrease_bound(field, d.value, e1)
    print(f"  {e1:3.1f}  {first_variation:+.6f}         {dini.value:+.6f}"
          f"    {bound:+.6f}")

print("\n== pairwise distances contract ==")
from lyapmetric.dynamics import flow

print("  t     d(E1(t), E2(t))")
for t in np.linspace(0.0, 2.0, 5):
    e1_t = flow(model, [1.0], t, tol=1e-10).states[-1]
    e2_t = flow(model, [0.5], t, tol=1e-10).states[-1]
    rep = geometry.pairwise_distance(field, e1_t, e2_t)
    print(f"  {t:3.1f}   {rep.distance:.8f}")

print("\n== a geodesic on a curved one-dimensional metric ==")
from lyapmetric.metric import from_callable

curved = from_callable(lambda x: np.array([[1.0 + float(x[0]) ** 2]]), dim=1)
v = geometry.normalize_velocity(curved, [0.0], [1.0])
path = geometry.geodesic_ivp(curved, [0.0], v, 1.5)
print(f"  unit-speed drift over the path: {path.speed_drift:.2e} "
      "(the conserved quantity that validates the geodesic sign convention)")
