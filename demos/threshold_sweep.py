"""Deform the three-band colouring and push the crossing angle down.

Shifting the polar caps by delta trades correlation at small angles for
a lower crossing against the linear law.  The sweep scans delta, finds
each crossing by bisection, and reports the best deformation.  Widening
the two-band colouring's southern band by Delta moves its exit from the
linear band the same way.  The combined threshold estimate then runs
over the catalogue and both families.
"""

import math

import numpy as np

from spherebell import estimate_theta_max, slope_at_half_pi, sweep

PI = math.pi

deltas = np.linspace(-0.05, 0.0, 11) * PI
result = sweep("3_delta", deltas, "c1", tol=1e-5)

print("crossing of the deformed three-band family against the linear law:")
def crossing(row):
    return "none" if math.isnan(row.theta_star) else f"{row.theta_star / PI:.4f} pi"


for row in result.rows:
    print(f"  delta = {row.delta / PI:+.3f} pi  ->  theta* = {crossing(row)}")
print(
    f"best: delta = {result.best_delta / PI:+.4f} pi with "
    f"theta* = {result.best_theta / PI:.4f} pi"
)

widened = sweep("2_Delta", tol=1e-5)
print()
print("exit of the widened two-band family above the negated linear law:")
for row in widened.rows:
    print(f"  Delta = {row.delta / PI:.4f} pi  ->  theta* = {crossing(row)}")

estimate = estimate_theta_max(include_two_delta=True, tol=1e-5)
print()
print(f"weak threshold bound   (beats the line):      {estimate.upper_bound_w / PI:.4f} pi")
print(f"strong threshold bound (exits the band):      {estimate.upper_bound_s / PI:.4f} pi")
print(f"weak witness: {estimate.witnesses['weak']['colouring']}")
print(f"strong witness: {estimate.witnesses['strong']['colouring']}")

slope = slope_at_half_pi("3")
print()
print(
    f"three-band slope at pi/2: {slope.slope:+.5f} "
    f"(analytic {-slope.reference:+.5f}), vs -2/pi = {-2 / PI:+.5f} for the line"
)
