"""Integrate flows and their transition matrices, and check them against
closed-form oracles.

The scalar catalog system e' = -e/(1+e^2) has an implicit solution
E^2 exp(E^2) = e^2 exp(e^2) exp(-2t), solved independently by safeguarded
Newton; the transition matrix has the one-dimensional identity
Phi(e, t) = F(E(e,t)) / F(e).  Neither oracle touches the integrator.
"""

from lyapmetric import catalog
from lyapmetric.dynamics import flow, variational_flow

model = catalog.get("scalar-example").build()

print("== state flow vs the implicit-equation oracle ==")
for t in (0.5, 1.0, 2.0, 5.0):
    numeric = flow(model, [1.0], t, tol=1e-10).states[-1, 0]
    oracle = catalog.scalar_example_oracle(1.0, t)
    print(f"  t={t:3.1f}  E={numeric:.9f}  oracle={oracle:.9f}  "
          f"diff={abs(numeric - oracle):.2e}")

print("\n== transition matrix vs two independent oracles ==")
for t in (0.5, 1.0, 2.0):
    vtraj = variational_flow(model, [1.0], t, tol=1e-11)
    phi = vtraj.phi[-1, 0, 0]
    ident = catalog.scalar_example_transition_oracle(1.0, t)
    nested = catalog.scalar_example_transition_oracle(1.0, t, nested=True)
    print(f"  t={t:3.1f}  Phi={phi:.9f}  identity-route={ident:.9f}  "
          f"nested-quadrature={nested:.9f}")

print("\n== semigroup and cocycle identities ==")
tol = 1e-10
a = variational_flow(model, [1.2], 0.8, tol=tol)
b = variational_flow(model, a.states[-1], 0.7, tol=tol)
c = variational_flow(model, [1.2], 1.5, tol=tol)
print(f"  |E(E(e,s),t) - E(e,s+t)|         = "
      f"{abs(b.states[-1, 0] - c.states[-1, 0]):.2e}")
print(f"  |Phi(E,t) Phi(e,s) - Phi(e,s+t)| = "
      f"{abs(b.phi[-1, 0, 0] * a.phi[-1, 0, 0] - c.phi[-1, 0, 0]):.2e}")

print("\n== trajectory export ==")
out = "/tmp/lyapmetric_demo_trajectory.csv"
vtraj.to_csv(out)
with open(out, encoding="utf-8") as fh:
    lines = fh.read().splitlines()
print(f"  wrote {len(lines) - 1} rows to {out}")
print("  header:", lines[0])
print("  first row:", lines[1])
