"""Synthesize a stabilizing feedback from a metric with an input symmetry.

For w' = f(w) + g(w) u with a metric P, three sampled hypotheses -- the
damped drift inequality, the input field preserving the metric, and the
one-form P g having a potential U -- yield the feedback u = -gain U(w).
The closed loop that the inequality is replayed on is the exported one, and
it is the loop that gets certified end to end.
"""

import numpy as np

from lyapmetric import parse_system
from lyapmetric.errors import FalsificationError
from lyapmetric.metric import constant_metric
from lyapmetric.stabilization import (
    construct_U,
    killing_residual,
    synthesize_controller,
)

plant = parse_system("dim=1; F1 = x1; g1 = 1")
field = constant_metric(np.array([[1.0]]), q=np.array([[1.0]]))
samples = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)

print("== hypothesis checks ==")
_, killing = killing_residual(field, plant.input_field, [0.7])
print(f"  Killing residual |L_g P| at w=0.7: {killing:.2e}")
u_val = construct_U(field, plant.input_field, [1.7], sample_points=samples)
print(f"  potential U(1.7) = {u_val:.6f}  (U(w) = w here)")

print("\n== synthesis at gain 3 ==")
closed, potential, cert = synthesize_controller(
    plant, field, gain=3.0, sample_points=samples)
print(f"  verdict: {cert.verdict}")
print(f"  damped-drift residual sup:  {cert.decrease_sup:+.2e}")
print(f"  closed-loop residual sup:   {cert.closed_loop_sup:+.2e} "
      "(this is L_F P + Q; the loop achieves L_F P = -4)")
print(f"  closed-loop field at w=1:   {closed.f(np.array([1.0]))[0]:+.1f}")

print("\n== the exported closed loop re-parses ==")
text = closed.to_spec_text()
print(text)
reparsed = parse_system(text)
print("  reparsed F(2) =", reparsed.f(np.array([2.0]))[0])

print("\n== an insufficient gain is rejected with its condition number ==")
try:
    synthesize_controller(plant, field, gain=1.0, sample_points=samples)
except FalsificationError as exc:
    print(f"  {exc}")

print("\n== a field that does not preserve the metric is rejected ==")
bad = parse_system("dim=1; F1 = -x1; g1 = x1")
weak = constant_metric(np.array([[1.0]]), q=np.array([[0.1]]))
try:
    synthesize_controller(bad, weak, gain=1.0, sample_points=samples)
except FalsificationError as exc:
    print(f"  {exc}")
