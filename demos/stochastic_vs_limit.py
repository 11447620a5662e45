#!/usr/bin/env python3
"""Watching the jump process collapse onto its deterministic companion.

One exact trajectory per population scale, all started from the same smooth
density profiles, each compared in sup norm against the lattice ODE system.
The distance shrinks like one over the square root of the populations: the
law-of-large-numbers scaling, measured rather than assumed.
"""

import numpy as np

from sirb_lattice import (
    EpidemicParams,
    ReactionField,
    ScalingParams,
    SystemState,
    TransportCoefficients,
    lln_experiment,
    simulate_ssa,
    sup_distance,
)
from sirb_lattice.deterministic import DeterministicState, integrate
from sirb_lattice.lattice import project

N = 8
params = EpidemicParams(mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2,
                        p_over_w=0.8, mu_b=0.5,
                        transport=TransportCoefficients(0.5, 0.7, N))
profiles = [
    lambda x: 0.9 + 0.05 * np.sin(2 * np.pi * np.asarray(x, dtype=float)),
    lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
    lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
]

# One vivid single trajectory first.
pop = 2000
scaling = ScalingParams(N, pop, pop)
fields = [project(f, N) for f in profiles]
state0 = SystemState.from_densities(*fields, scaling=scaling)
grid = np.linspace(0.0, 1.0, 21)
traj = simulate_ssa(state0, 1.0, grid, params, scaling, seed=7)
rf = ReactionField(params, hk_ratio=1.0)
det = integrate(DeterministicState(*fields), 1.0, rf, sample_times=grid)
d = sup_distance(traj, det, scaling)
print(f"single run at H = K = {pop}: {traj.stats['n_events']} events, "
      f"sup distance to the lattice ODE = {d:.4f}")

# Now a small ladder with replicas.
print("\nladder (5 replicas each):")
report = lln_experiment(
    [(N, 100, 100), (N, 1000, 1000), (N, 10000, 10000)],
    profiles, params, horizon=1.0, replicas=5, seed=123, mode="theorem1",
)
print(f"{'H = K':>8} {'median':>9} {'q25':>9} {'q75':>9}")
for rung in report.rungs:
    print(f"{rung.h:8d} {rung.median:9.4f} {rung.q25:9.4f} {rung.q75:9.4f}")
print("\neach 10x in population buys ~sqrt(10) in accuracy.")
