"""Quantitative verification machinery for the lattice SIRB process.

The drift and the square and cross amplitudes are contractions of the
fourteen-entry reaction table (``deterministic.table_contraction`` with
STOICHIOMETRY and with its jump products), so they are written nowhere
else; the tests check the table against the paper's closed forms.  On that
table rest two layers of checks, in increasing strength:

* pathwise residuals: the centered fluctuation Z(t) = u(t) - u(0) -
  integral of the drift, computed exactly from an event log, and the
  compensated sums of squared/crossed jumps, which are mean-zero
  martingales;
* convergence ladders: replica sup-distances between the stochastic
  process and its deterministic companion system as the renormalization
  constants grow.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .deterministic import (
    DeterministicState,
    ReactionField,
    drift_field,
    growth_constant,
    infection_stack,
    integrate,
    table_contraction,
)
from .stochastic import (
    COMPARTMENTS,
    STOICHIOMETRY,
    EpidemicParams,
    EventLog,
    ScalingParams,
    SystemState,
    Trajectory,
    _renormalization,
    log_entries,
    simulate_ssa,
    uniform_grid,
)

__all__ = [
    "FAMILIES",
    "sup_distance",
    "square_amplitudes",
    "Sweep",
    "sweep_log",
    "replica_mean_se",
    "pass_fractions",
    "starting_point",
    "LadderRung",
    "ConvergenceReport",
    "lln_experiment",
]

# The family axis of every (..., 6, n) amplitude, jump-sum or compensator
# array: the four square families, one per compartment, then the two cross
# families.
FAMILIES = COMPARTMENTS + ("B_cross_plus", "B_cross_minus")
# The compartment whose renormalization divides each family: its name's prefix.
_FAMILY_COMPARTMENT = [COMPARTMENTS.index(f.split("_")[0]) for f in FAMILIES]

# Per-state integrands of the sweep: the four densities and the infection
# field.  Every drift and amplitude integrand is affine in these five rows.
_N_INTEGRANDS = 5
# Byte budget of the sweep's per-state float buffers in one chunk: the counts
# (4 a site), the integrands and a scratch row for the infection field.
# Small enough to stay in cache and to keep the sweep's memory flat in the
# log length.
_SWEEP_CHUNK_BYTES = 1 << 16


def _sweep_chunk(n_sites: int) -> int:
    """Events per chunk of the sweep on an n_sites lattice."""
    return max(1, _SWEEP_CHUNK_BYTES // (8 * (4 + _N_INTEGRANDS + 1) * n_sites))


def _jump_products() -> np.ndarray:
    """Entry table of the jump products each kind makes, derived from
    STOICHIOMETRY.  Rows index FAMILIES: a square family gets the squared
    count jump at each touched site; a cross family gets, at site j, the
    product of the bacteria jumps at j and j + 1 (plus) or j - 1 (minus)."""
    plus, minus = FAMILIES.index("B_cross_plus"), FAMILIES.index("B_cross_minus")
    rows = []
    for row in STOICHIOMETRY.tolist():
        deltas = [(c, off, d) for c, off, d in row if d]
        entries = [(c, off, d * d) for c, off, d in deltas]
        b_deltas = [(off, d) for c, off, d in deltas if c == COMPARTMENTS.index("B")]
        for o1, d1 in b_deltas:
            for o2, d2 in b_deltas:
                if abs(o2 - o1) == 1:
                    entries.append((plus if o2 == o1 + 1 else minus, o1, d1 * d2))
        rows.append(entries)
    table = np.zeros((len(rows), max(map(len, rows)), 3), dtype=np.int64)
    for kind, entries in enumerate(rows):
        table[kind, : len(entries)] = entries
    return table


_JUMP_PRODUCTS = _jump_products()


# ---------------------------------------------------------------------------
# Distances

def sup_distance(
    traj: Trajectory,
    det_states: np.ndarray,
    scaling: ScalingParams,
    compartments: Sequence[str] = COMPARTMENTS,
) -> float:
    """Sup over sample times, compartments and sites of |u - v|.

    ``det_states`` is the deterministic solution as ``integrate`` returns
    it, one (n_samples, 4, n) array.  Both sides must live on the same
    lattice and the same sample grid.
    """
    u = traj.densities(scaling)
    if len(det_states) != len(u):
        raise ValueError(
            f"grid mismatch: {len(u)} stochastic snapshots "
            f"vs {len(det_states)} deterministic states"
        )
    if det_states.shape != u.shape:
        raise ValueError("lattice sizes differ between the two solutions")
    rows = [COMPARTMENTS.index(c) for c in compartments]
    return float(np.max(np.abs(u[:, rows] - det_states[:, rows])))


# ---------------------------------------------------------------------------
# Square amplitudes

def _amplitude_field(
    params: EpidemicParams, hk_ratio: float, n_sites: int
) -> Callable[..., np.ndarray]:
    """The map from a (..., 4, n) density stack to its square and cross
    amplitudes, (..., 6, n) on the FAMILIES axis: the contraction of
    ``_JUMP_PRODUCTS``, each family's row in the units of its compartment
    (``_FAMILY_COMPARTMENT``)."""
    rf = ReactionField(params, hk_ratio=hk_ratio)
    return table_contraction(_JUMP_PRODUCTS, _FAMILY_COMPARTMENT, rf, n_sites)


def square_amplitudes(
    state: SystemState, params: EpidemicParams, scaling: ScalingParams
) -> np.ndarray:
    """Square-amplitude fields |psi|^2 per compartment plus the two bacteria
    cross-product fields: (6, n), rows FAMILIES.

    For each compartment: renorm * sum over events of rate * (rescaled jump
    at the site)^2.  For the cross fields: K * sum over events of the
    product of the rescaled bacteria jumps at neighbouring sites.
    """
    field = _amplitude_field(params, scaling.h / scaling.k, state.n_sites)
    return field(state.rescaled(scaling))


# ---------------------------------------------------------------------------
# Pathwise residual sweep

class Sweep(NamedTuple):
    """What one pass over a replica's event log yields: every array the
    martingale and compensator reports need, on the replica's sample grid.
    ``Sweep.stack`` gives each field a leading replica axis.

    The square families' jump sums and compensators are nonnegative and
    nondecreasing in time; the cross families' are nonpositive, as the two
    jumps of a hop have opposite signs."""

    z: np.ndarray  # (n_times, 4, n) residual fields, rows COMPARTMENTS
    observed: np.ndarray  # (n_times, 6, n) jump sums, rows FAMILIES
    predicted: np.ndarray  # (n_times, 6, n) compensators, rows FAMILIES

    @classmethod
    def stack(cls, sweeps: Sequence["Sweep"]) -> "Sweep":
        """The sweeps of replicas on one sample grid as one Sweep whose
        fields are (n_replicas, n_times, ..., n), replicas in order."""
        return cls(*(np.stack(fields) for fields in zip(*sweeps)))


def _jump_sums(log: EventLog, grid: np.ndarray, n_sites: int, n_events: int) -> np.ndarray:
    """Per sample, the jump products of ``_JUMP_PRODUCTS`` summed over the
    first ``n_events`` events of the log that it sees: (n_times, families, n)
    integers as floats.  Each chunk's products are binned by (first sample
    that sees the event, cell) and the bins are cumulated over samples.

    No buffer here is n-wide; the largest per-event one is the event's
    gathered _JUMP_PRODUCTS row, and the chunk fits the sweep's budget."""
    width = len(FAMILIES) * n_sites
    jumps = np.zeros((grid.size, width))
    chunk = max(1, _SWEEP_CHUNK_BYTES // _JUMP_PRODUCTS[0].nbytes)
    for a in range(0, n_events, chunk):
        e = min(a + chunk, n_events)
        part = EventLog(log.times[a:e], log.kinds[a:e], log.sites[a:e])
        ev, cell, product = log_entries(part, n_sites, _JUMP_PRODUCTS)
        first = np.searchsorted(grid, part.times, side="left")
        lo, hi = first[0], first[-1] + 1
        jumps[lo:hi] += np.bincount(
            (first[ev] - lo) * width + cell, weights=product, minlength=(hi - lo) * width
        ).reshape(hi - lo, width)
    return np.cumsum(jumps, axis=0).reshape(grid.size, len(FAMILIES), n_sites)


def sweep_log(
    traj: Trajectory,
    params: EpidemicParams,
    scaling: ScalingParams,
) -> Sweep:
    """Prefix-sum pass over an event log.

    Returns a Sweep (z, observed, predicted):
      z: (n_times, 4, n) residual fields, rows COMPARTMENTS,
      observed: (n_times, 6, n) accumulated squared/crossed jumps,
      predicted: (n_times, 6, n) accumulated compensator integrals,
    the last two with rows FAMILIES.

    The state is constant between events, so every quantity is a prefix sum
    over the log.  State c is the initial counts plus the deltas of events
    0..c-1 and holds on [t_{c-1}, t_c) (t_{-1} = 0).  Sample k sees state
    c_k = searchsorted(times, grid[k], "right"): a sample coinciding with a
    jump records the post-jump value (right-continuous convention, same as
    the simulator), and events after the last sample time are ignored.

    Every drift and amplitude integrand is affine in the densities u and in
    the infection field beta s b/(1+b).  So the sweep integrates only those
    5n columns of each state and evaluates the table contractions once per
    sample, on the integrals, with the integrated infection field in place
    of the infection term.

    States are taken in chunks of ``_sweep_chunk(n)``, carrying the counts,
    the integrals and the time of the last event from chunk to chunk, so the
    working memory does not grow with the log.  Within a chunk:

    * the counts of every state are a cumsum of the chunk's deltas seeded
      with the carry, scattered from ``log_entries`` by one bincount;
    * the integrals up to each state's start are a cumsum of the state's
      densities and infection field times its duration, seeded with the
      carried integrals;
    * a sample that sees state c adds c's columns times the time since c
      began.

    The observed sums come from ``_jump_sums``, in chunks of their own.
    """
    if traj.event_log is None:
        raise ValueError("trajectory has no event log; rerun with record_events=True")
    grid = traj.sample_times
    n_times = grid.shape[0]
    n = traj.counts.shape[2]
    hk = scaling.h / scaling.k
    scale = _renormalization(scaling)
    family_scale = scale[_FAMILY_COMPARTMENT]

    log = traj.event_log
    seen = np.searchsorted(log.times, grid, side="right")
    n_events = int(seen[-1])

    counts = traj.counts[0].ravel().astype(float)
    u0 = counts.reshape(4, n) / scale
    integral = np.zeros((_N_INTEGRANDS, n))
    t_last = 0.0
    u_seen = np.empty((n_times, 4, n))  # the state each sample sees
    u_int = np.empty((n_times, _N_INTEGRANDS, n))  # integrals up to each sample

    chunk = _sweep_chunk(n)
    for a in range(0, n_events + 1, chunk):
        b = min(a + chunk, n_events + 1)
        m = b - a
        e = min(b, n_events)
        part = EventLog(log.times[a:e], log.kinds[a:e], log.sites[a:e])
        # state c holds from the event before it to event c; the state after
        # the last event ends where it starts
        starts = np.concatenate(([t_last], part.times))[:m]
        ends = np.append(part.times, starts[-1])[:m]
        t_last = ends[-1]
        # row c: the counts of state a + c; row m carries to the next chunk
        ev, cell, delta = log_entries(part, n)
        states = np.bincount(
            (ev + 1) * 4 * n + cell, weights=delta, minlength=(m + 1) * 4 * n
        ).reshape(m + 1, 4 * n).astype(float, copy=False)  # int when ev is empty
        states[0] += counts
        np.cumsum(states, axis=0, out=states)
        counts = states[m]

        # row c + 1: state a + c's columns, then times its duration; row 0
        # the carried integrals, so the cumsum gives the integrals up to the
        # start of each state
        cols = np.empty((m + 1, _N_INTEGRANDS, n))
        np.divide(states[:m].reshape(m, 4, n), scale, out=cols[1:, :4])
        cols[1:, 4] = infection_stack(cols[1:, :4], params)
        lo, hi = np.searchsorted(seen, (a, b))
        rows = seen[lo:hi] - a
        at_row = cols[rows + 1]
        cols[1:] *= (ends - starts)[:, None, None]
        cols[0] = integral
        if hi == lo:
            # no sample sees this chunk: only the carry is needed, and the
            # sum adds the rows in the cumsum's order
            integral = cols.sum(axis=0)
            continue
        np.cumsum(cols, axis=0, out=cols)
        integral = cols[m]
        u_seen[lo:hi] = at_row[:, :4]
        u_int[lo:hi] = cols[rows] + at_row * (grid[lo:hi] - starts[rows])[:, None, None]

    u_bar, infection = u_int[:, :4], u_int[:, 4]
    drift = drift_field(ReactionField(params, hk_ratio=hk), n)
    return Sweep(
        z=u_seen - u0 - drift(u_bar, infection),
        observed=_jump_sums(log, grid, n, n_events) * (1.0 / family_scale**2),
        predicted=_amplitude_field(params, hk, n)(u_bar, infection) / family_scale,
    )


def replica_mean_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the replica mean and its standard error.  ``samples`` has
    replicas on axis 0; remaining axes are cells."""
    n_rep = samples.shape[0]
    if n_rep < 2:
        raise ValueError("need at least two replicas for a standard error")
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(n_rep)


def pass_fractions(
    samples: np.ndarray, names: Sequence[str], sigma: float = 3.0
) -> dict[str, float]:
    """Per row of (n_replicas, n_times, rows, n) samples, the fraction of
    its cells where the replica mean is within ``sigma`` standard errors of
    zero (``replica_mean_se``), keyed by the rows' ``names``: COMPARTMENTS
    for the residuals Z, FAMILIES for the compensated jump sums.  Cells with
    zero variance pass iff their mean is exactly zero (e.g. every residual
    at t = 0)."""
    if len(names) != samples.shape[2]:
        raise ValueError(f"{len(names)} names for {samples.shape[2]} rows")
    mean, se = replica_mean_se(samples)
    ok = np.where(se > 0.0, np.abs(mean) <= sigma * np.where(se > 0, se, 1.0), mean == 0.0)
    return {name: float(ok[:, i].mean()) for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Convergence ladders

@dataclass
class LadderRung:
    """Replica distances for one (n_sites, h, k) triple."""

    n_sites: int
    h: int
    k: int
    distances: np.ndarray
    rounding_error: float  # sup |rounded counts / scale - projected density|
    ball_exits: int  # replicas leaving the a-priori sup-norm ball
    n_events: list[int] = field(default_factory=list)  # per replica
    events_by_kind: list[int] = field(default_factory=list)  # summed over the replicas
    median: float = field(init=False)
    q25: float = field(init=False)
    q75: float = field(init=False)

    def __post_init__(self):
        """The quartiles of the distances, from one sorted copy and bit for
        bit what np.median and np.quantile (default linear method) give:
        those two import numpy.ma on first use, which costs tens of ms."""
        ordered = np.sort(self.distances).tolist()
        last = len(ordered) - 1
        mid = last // 2
        self.median = ordered[mid] if last % 2 == 0 else (ordered[mid] + ordered[mid + 1]) / 2

        def quantile(q: float) -> float:
            # numpy's _lerp at the virtual index (n - 1) * q
            lo = math.floor(last * q)
            t = last * q - lo
            a, b = ordered[lo], ordered[min(lo + 1, last)]
            return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

        self.q25, self.q75 = quantile(0.25), quantile(0.75)


@dataclass
class ConvergenceReport:
    """Distances along a renormalization ladder, one rung per scaling."""

    rungs: list[LadderRung]

    @property
    def medians(self) -> np.ndarray:
        return np.array([r.median for r in self.rungs])


def _validate_ladder(ladder: Sequence[tuple[int, int, int]], mode: str):
    if mode not in ("theorem1", "theorem2"):
        raise ValueError(f"mode must be 'theorem1' or 'theorem2', got {mode!r}")
    if len(ladder) == 0:
        raise ValueError("ladder must contain at least one (n, h, k) rung")
    for n, h, k in ladder:
        ScalingParams(n, h, k)  # raises on bad values
    hs = [h for _, h, _ in ladder]
    ks = [k for _, _, k in ladder]
    if any(b < a for a, b in zip(hs, hs[1:])) or any(b < a for a, b in zip(ks, ks[1:])):
        raise ValueError("ladder must have nondecreasing H and K (growing populations)")
    if mode == "theorem1":
        h0, k0 = hs[0], ks[0]
        for h, k in zip(hs[1:], ks[1:]):
            if h * k0 != h0 * k:
                raise ValueError(
                    "constant-ratio regime violated: H/K varies along the ladder "
                    f"({h0}/{k0} vs {h}/{k}); use mode='theorem2' for a shrinking ratio"
                )
    else:
        for (h_a, k_a), (h_b, k_b) in zip(zip(hs, ks), zip(hs[1:], ks[1:])):
            # K/H must not decrease: k_b/h_b >= k_a/h_a
            if k_b * h_a < k_a * h_b:
                raise ValueError(
                    "decoupling regime violated: K/H decreases along the ladder "
                    f"({k_a}/{h_a} -> {k_b}/{h_b})"
                )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` or a container's cpuset shrinks it), else the
    machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, jobs: int) -> int:
    """Worker processes for a pool running ``jobs`` tasks: the requested
    count, capped by the task count and ``usable_cpus``.  The cap matters
    because a fork-based pool starts all its workers at the first submit."""
    return max(1, min(workers, jobs, usable_cpus()))


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported and kept here on first use (PEP
    562), so that a process that starts no pool never loads the
    ``concurrent.futures.process`` stack, about 2 MiB of resident memory."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def map_jobs(fn: Callable, jobs: Sequence, workers: int) -> list:
    """``[fn(job) for job in jobs]``, in order: serially when ``pool_size``
    gives one worker, else through one process pool's ``map``.  ``fn`` must
    be a top-level function so the pool can ship it.

    The pool class is ``diagnostics.ProcessPoolExecutor``, looked up on the
    module at each call: the module's ``__getattr__`` imports it on first
    use, and a class set on the module in its place (a stand-in pool, a
    timing wrapper) is the one used."""
    size = pool_size(workers, len(jobs))
    if size == 1:
        return [fn(job) for job in jobs]
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, jobs))


def starting_point(
    initial_fns: Sequence[Callable], scaling: ScalingParams
) -> tuple[SystemState, DeterministicState, float]:
    """Where every run starts: the four profiles projected onto the
    lattice of ``scaling``, the counts they round to, and the rounding
    error, the sup of |counts / renormalization - projection|."""
    v0 = DeterministicState.from_functions(initial_fns, scaling.n_sites)
    state0 = SystemState.from_densities(v0.s, v0.i, v0.r, v0.b, scaling=scaling)
    return state0, v0, float(np.max(np.abs(state0.rescaled(scaling) - v0.stack())))


def _replica_distance(payload) -> tuple[float, float, dict]:
    """One replica of one rung: (sup distance, sup density, run stats).  Top
    level so a process pool can ship it."""
    (state0, horizon, grid, prm, scaling, seed, stream, det_states, comps) = payload
    traj = simulate_ssa(state0, horizon, grid, prm, scaling, seed, stream=stream)
    d = sup_distance(traj, det_states, scaling, compartments=comps)
    return d, float(np.max(traj.densities(scaling))), traj.stats


def lln_experiment(
    ladder: Sequence[tuple[int, int, int]],
    initial_fns: Sequence[Callable],
    params: EpidemicParams,
    horizon: float,
    replicas: int,
    seed: int,
    mode: str = "theorem1",
    n_samples: int = 21,
    workers: int = 1,
) -> ConvergenceReport:
    """Measure sup-distance between the jump process and its deterministic
    companion along a ladder of renormalization constants.

    In ``theorem1`` mode the ratio H/K must stay constant along the ladder
    and all four compartments enter the distance; in ``theorem2`` mode K/H
    must be nondecreasing (the human population becomes negligible), the
    companion system is the one at H/K = 0, which drops the contamination
    source, and only the bacteria field enters the distance.

    Args:
        ladder: (n_sites, h, k) triples, populations nondecreasing.
        initial_fns: four 1-periodic density profiles (S, I, R, B).
        params: rate constants; transport is rebuilt per rung, preserving
            the continuum advection/diffusion coefficients.
        horizon: time horizon T of the sup.
        replicas: independent runs per rung.
        seed: master seed; replica streams derive from (seed, rung, index).
        mode: "theorem1" or "theorem2".
        n_samples: size of the uniform sample grid approximating the sup.
        workers: process count for replica-level parallelism.

    Returns:
        ConvergenceReport with one rung per ladder entry.
    """
    _validate_ladder(ladder, mode)
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    grid = uniform_grid(horizon, n_samples)
    comps = COMPARTMENTS if mode == "theorem1" else ("B",)
    # Integrate every rung first, then run all rungs' replicas through one
    # map, so a pool's workers start once.  Replica rep of rung g draws
    # stream (g << 32) + rep.
    shapes = []  # (n, h, k, rounding error, ball radius) per rung
    payloads = []
    for rung_idx, (n, h, k) in enumerate(ladder):
        scaling = ScalingParams(int(n), int(h), int(k))
        prm = params.with_lattice(int(n))
        state0, v0, rounding = starting_point(initial_fns, scaling)
        rf = ReactionField(prm, hk_ratio=h / k if mode == "theorem1" else 0.0)
        det = integrate(v0, horizon, rf, sample_times=grid)
        c0 = float(np.max(np.abs(v0.stack())))
        ball = c0 * math.exp(growth_constant(rf) * horizon)
        shapes.append((int(n), int(h), int(k), rounding, ball))
        payloads += [
            (state0, horizon, grid, prm, scaling, seed, (rung_idx << 32) + rep, det, comps)
            for rep in range(replicas)
        ]
    # Submit the longest jobs first, by n * (H + K), so that the workers
    # finish close together; the results go back in ladder order.
    costs = [n * (h + k) for n, h, k, _, _ in shapes]
    order = sorted(range(len(payloads)), key=lambda p: -costs[p // replicas])
    results = [None] * len(payloads)
    for p, result in zip(order, map_jobs(_replica_distance, [payloads[p] for p in order],
                                         workers)):
        results[p] = result
    rungs = []
    for rung_idx, (n, h, k, rounding, ball) in enumerate(shapes):
        mine = results[rung_idx * replicas: (rung_idx + 1) * replicas]
        rungs.append(
            LadderRung(
                n_sites=n, h=h, k=k, distances=np.array([d for d, _, _ in mine]),
                rounding_error=rounding, ball_exits=sum(1 for _, u, _ in mine if u > ball),
                n_events=[s["n_events"] for _, _, s in mine],
                events_by_kind=np.sum([s["events_by_kind"] for _, _, s in mine],
                                      axis=0).tolist(),
            )
        )
    return ConvergenceReport(rungs)
