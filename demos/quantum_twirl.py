"""Twirl two-qubit states onto the Werner line and compare engines.

Averaging U (x) U conjugations over Haar-random U projects any state
onto a Werner state; its singlet fidelity r is all that survives.  The
Monte Carlo engine rotates a fixed axis pair through Haar frames and
averages the quantum expectation, so for any input state it must land
on the Werner curve of its own twirl; one pass over the frames gives
the whole curve.  Chained-inequality values for
the singlet show the quantum-over-classical gap growing with N.
"""

import math

import numpy as np

from spherebell import (
    ChainCorrelations,
    SamplingPlan,
    TwoQubitState,
    braunstein_caves_value,
    mc_quantum_curve,
    random_state,
    twirl,
    werner_correlation,
)

PI = math.pi

for name in ("singlet", "phi+", "psi+", "mixed"):
    state = TwoQubitState.named(name)
    print(f"{name:8s} twirls to singlet fidelity r = {twirl(state).r:.4f}")

rng = np.random.default_rng(2)
state = random_state(rng)
r = twirl(state).r
print(f"\na random mixed state twirls to r = {r:.4f}")
plan = SamplingPlan(17, 200_000)
print(f"{'theta/pi':>9} {'MC':>9} {'Werner':>9} {'stderr':>9}")
grid = [float(t) for t in np.array([1 / 6, 1 / 3, 0.45]) * PI]
for t, (value, stderr) in zip(grid, mc_quantum_curve(state, grid, plan)):
    print(f"{t / PI:9.3f} {value:9.4f} {werner_correlation(r, t):9.4f} {stderr:9.5f}")

print("\nchained inequality at the optimal singlet settings:")
for n in (2, 3, 4, 6):
    c = -math.cos(PI / (2 * n))
    chain = ChainCorrelations((c,) * n, (c,) * (n - 1), -c)
    value = braunstein_caves_value(chain)
    print(f"  N = {n}: {value:.4f} vs classical cap {2 * n - 2}")
