"""sirb_lattice: stochastic SIRB epidemics on a periodic 1-D lattice.

A jump Markov process of four compartments (susceptible, infected and
recovered humans, plus a bacterial reservoir) on a cycle of sites, with
biased nearest-neighbour bacterial transport; its deterministic ODE/PDE
limits; and the martingale diagnostics that certify the simulator against
the limits.
"""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    TransportCoefficients,
    project,
)
from .stochastic import (  # noqa: F401
    EpidemicParams,
    EventKind,
    EventLog,
    ScalingParams,
    SystemState,
    Trajectory,
    apply_event,
    replica_rng,
    simulate_ssa,
)
from .deterministic import (  # noqa: F401
    DeterministicState,
    IntegrationError,
    ReactionField,
    homogeneous_ode,
    integrate,
    linear_oracle,
    refine_compare,
)
from .diagnostics import (  # noqa: F401
    ConvergenceReport,
    Sweep,
    lln_experiment,
    square_amplitudes,
    sup_distance,
    sweep_log,
)
