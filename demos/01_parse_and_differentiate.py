"""Parse vector fields from text and differentiate them exactly.

The system text format is a handful of `name = value` statements.  Parsed
models evaluate the field, its Jacobian and its component Hessians through
closures compiled from symbolic derivatives, so there is no differencing
error to budget for downstream.
"""

import numpy as np

from lyapmetric import parse_system

print("== a scalar field with a rational nonlinearity ==")
model = parse_system("dim=1; F1 = -x1/(1+x1^2)")
for e in (0.0, 1.0, 2.0):
    jet = model.jet2([e])
    print(f"  e={e:4.1f}  F={jet.value[0]:+.6f}  dF/de={jet.grad[0, 0]:+.6f}  "
          f"d2F/de2={jet.hess[0, 0, 0]:+.6f}")
print("  (at e=1 the first derivative vanishes and the curvature is 1/2)")

print("\n== a coupled two-block system with parameters ==")
text = """
dim = 2
e_dim = 1
lam = 1.0
mu_x = 1.0
F1 = -(lam + x2 * sin(x2)) * x1
G1 = mu_x * x2
"""
tm = parse_system(text)
e, x = np.array([1.0]), np.array([2.0])
print("  F(e=1, x=2)      =", tm.f_block(e, x))
print("  dF/de(0, x=2)    =", tm.df_de(np.zeros(1), x))
print("  dG/dx(0, x=2)    =", tm.dg_dx(np.zeros(1), x))

print("\n== jets agree with central differences ==")
full = tm.full
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    p = rng.uniform(-2, 2, 2)
    jet = full.jet2(p)
    for k in range(2):
        for j in range(2):
            step = np.zeros(2)
            step[j] = 1e-6
            fd = (full.f(p + step)[k] - full.f(p - step)[k]) / 2e-6
            worst = max(worst, abs(jet.grad[k, j] - fd))
print(f"  max |jet - central difference| over 50 random points: {worst:.2e}")

print("\n== models round-trip through their printed form ==")
printed = tm.to_spec_text()
print(printed)
reparsed = parse_system(printed)
p = np.array([0.7, -1.3])
print("  field agreement after reparse:",
      np.array_equal(tm.full.f(p), reparsed.full.f(p)))
