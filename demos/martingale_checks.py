#!/usr/bin/env python3
"""Certifying the simulator with its own martingales.

Subtracting the drift integral from a trajectory leaves a centered
fluctuation that must average to zero across replicas; the summed squared
jumps minus their compensator integrals must do the same, compartment by
compartment and site by site.  Any bookkeeping error in rates or jump
directions shows up here as a systematic bias long before it is visible in
a density plot.
"""

import numpy as np

from sirb_lattice import (
    EpidemicParams,
    ScalingParams,
    Sweep,
    SystemState,
    TransportCoefficients,
    simulate_ssa,
    sweep_log,
)
from sirb_lattice.diagnostics import FAMILIES, pass_fractions
from sirb_lattice.stochastic import COMPARTMENTS
from sirb_lattice.lattice import project

N, POP, REPS, HORIZON = 4, 100, 150, 1.0
params = EpidemicParams(mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2,
                        p_over_w=0.8, mu_b=0.5,
                        transport=TransportCoefficients(0.5, 0.7, N))
scaling = ScalingParams(N, POP, POP)
profiles = [
    lambda x: 0.9 + 0.05 * np.sin(2 * np.pi * np.asarray(x, dtype=float)),
    lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
    lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
]
fields = [project(f, N) for f in profiles]
state0 = SystemState.from_densities(*fields, scaling=scaling)
grid = np.linspace(0.0, HORIZON, 11)

print(f"{REPS} replicas at N={N}, H=K={POP}, logging every event...")
trajs = [simulate_ssa(state0, HORIZON, grid, params, scaling, seed=31, stream=r,
                      record_events=True) for r in range(REPS)]
print(f"  ~{trajs[0].stats['n_events']} events per replica")
# one pass over each event log yields both martingales; every field of the
# stack is (replicas, times, rows, sites)
sweeps = Sweep.stack([sweep_log(t, params, scaling) for t in trajs])

print("\ncentered fluctuations (3-sigma mean-zero test, fraction of cells):")
for name, frac in pass_fractions(sweeps.z, [f"Z_{c}" for c in COMPARTMENTS]).items():
    print(f"  {name}: {frac:.3f}")

print("\ncompensated squared/crossed jumps:")
for fam, frac in pass_fractions(sweeps.observed - sweeps.predicted, FAMILIES).items():
    print(f"  {fam:>14}: {frac:.3f}")

print("\nthe cross families are negative by construction "
      "(a hop moves one unit out exactly when it moves one unit in):")
print("  mean observed cross at T:",
      f"{sweeps.observed[:, -1, FAMILIES.index('B_cross_plus')].mean():.3e}")
