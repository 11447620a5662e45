"""Quantitative verification machinery for the lattice SIRB process.

The drift and the square and cross amplitudes are contractions of the
fourteen-entry reaction table (``deterministic.table_contraction`` with
STOICHIOMETRY and with its jump products), so they are written nowhere
else; the tests check the table against the paper's closed forms.  On that
table rest two layers of checks, in increasing strength:

* pathwise residuals: the centered fluctuation Z(t) = u(t) - u(0) -
  integral of the drift, and the compensated sums of squared/crossed
  jumps, which are mean-zero martingales.  ``sweep_log`` computes them
  exactly from an event log in one chunked pass: it integrates the
  piecewise-constant path by parts, so each event adds a fixed number of
  terms whatever the lattice size;
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

# Events per chunk of the sweep.  Its working arrays hold a few dozen
# numbers per event, whatever the lattice size, so the chunk bounds the
# sweep's memory however long the log is.
_SWEEP_CHUNK = 512
# Column blocks of the sweep's per-sample bins, in units of n sites: the
# count jumps, the same times their event times t_e, t_e times the jumps of
# the infection field, and the jump products, rows FAMILIES.
_BIN_OFFSETS = np.cumsum([0, 4, 4, 1, len(FAMILIES)])


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


def _bin_events(
    bins: np.ndarray, grid: np.ndarray, part: EventLog, counts: np.ndarray,
    params: EpidemicParams, scale: np.ndarray,
):
    """Add a chunk of events to the sweep's per-sample bins, and their jumps
    to ``counts``, the (4, n) float counts just before the chunk.

    Row k of ``bins`` gets the terms of the events that sample k is the
    first to see, in the blocks of ``_BIN_OFFSETS``.  The infection field f
    after each entry that moves s or b comes from a cumsum of those entries
    in (site, event) order, restarted at each site from its counts before
    the chunk; f's jump at the entry is f there minus f after the site's
    entry before it, or minus f of the site's counts before the chunk."""
    n = counts.shape[1]
    ev, cell, delta = log_entries(part, n)
    moves = np.flatnonzero((cell < n) | (cell >= 3 * n))  # of s or b
    # stable, so that a hop's two entries on a one-site lattice, which tie,
    # keep one order and the bits do not depend on the machine's sort
    moves = moves[np.argsort(cell[moves] % n * len(part) + ev[moves], kind="stable")]
    site = cell[moves] % n
    step = np.zeros((4, moves.size))
    step[cell[moves] // n, np.arange(moves.size)] = delta[moves]
    level = np.cumsum(step, axis=1)
    head = np.flatnonzero(np.diff(site, prepend=-1))  # each site's first entry
    level += np.repeat(counts[:, site[head]] - (level - step)[:, head],
                       np.diff(head, append=moves.size), axis=1)
    f = infection_stack(level / scale, params)
    f_before = np.roll(f, 1)
    f_before[head] = infection_stack(counts / scale, params)[site[head]]
    p_ev, p_cell, product = log_entries(part, n, _JUMP_PRODUCTS)

    first = np.searchsorted(grid, part.times, side="left")
    lo, hi = first[0], first[-1] + 1
    row = (first - lo) * bins.shape[1]
    at = row[ev] + cell
    offset = _BIN_OFFSETS * n
    keys = np.concatenate((at, at + offset[1], row[ev[moves]] + offset[2] + site,
                           row[p_ev] + offset[3] + p_cell))
    t = part.times
    weights = np.concatenate((delta, t[ev] * delta, t[ev[moves]] * (f - f_before), product))
    bins[lo:hi] += np.bincount(keys, weights, (hi - lo) * bins.shape[1]).reshape(hi - lo, -1)
    counts += np.bincount(cell, delta, 4 * n).reshape(4, n)


def sweep_log(
    traj: Trajectory,
    params: EpidemicParams,
    scaling: ScalingParams,
) -> Sweep:
    """One chunked pass over an event log.

    Returns a Sweep (z, observed, predicted):
      z: (n_times, 4, n) residual fields, rows COMPARTMENTS,
      observed: (n_times, 6, n) accumulated squared/crossed jumps,
      predicted: (n_times, 6, n) accumulated compensator integrals,
    the last two with rows FAMILIES.

    Sample k sees the initial counts plus the jumps of every event at or
    before its time: a sample coinciding with a jump records the post-jump
    value (right-continuous convention, same as the simulator), and events
    after the last sample time are ignored.  Every drift and amplitude
    integrand is affine in the densities u and in the infection field
    f = beta s b/(1+b), so the table contractions are evaluated once per
    sample, on the integrals of u and f.

    Integration by parts gives those integrals.  A piecewise-constant x with
    jumps dx_e at times t_e has

        integral_0^t x ds = t x(t) - sum over t_e <= t of t_e dx_e,

    so every quantity is a sum of per-event terms: the count jumps and the
    same times t_e at each ``log_entries`` cell, t_e times the jump of f at
    each site where the event moves s or b, and the ``_JUMP_PRODUCTS``
    products.  Each term is binned by the first sample that sees its event
    and one cumsum over the samples adds them up, so an event costs the
    same work whatever the lattice size.

    Events are binned ``_SWEEP_CHUNK`` at a time (``_bin_events``), with
    the counts carried from chunk to chunk, so the working memory does not
    grow with the log.
    """
    if traj.event_log is None:
        raise ValueError("trajectory has no event log; rerun with record_events=True")
    grid = traj.sample_times
    n = traj.counts.shape[2]
    hk = scaling.h / scaling.k
    scale = _renormalization(scaling)
    family_scale = scale[_FAMILY_COMPARTMENT]
    log = traj.event_log
    n_events = int(np.searchsorted(log.times, grid[-1], side="right"))

    bins = np.zeros((grid.size, _BIN_OFFSETS[-1] * n))
    counts = traj.counts[0].astype(float)
    for a in range(0, n_events, _SWEEP_CHUNK):
        e = min(a + _SWEEP_CHUNK, n_events)
        _bin_events(bins, grid, EventLog(log.times[a:e], log.kinds[a:e], log.sites[a:e]),
                    counts, params, scale)

    jumps, t_jumps, t_f, products = np.split(np.cumsum(bins, axis=0, out=bins),
                                             _BIN_OFFSETS[1:-1] * n, axis=1)
    at = grid[:, None]
    u = (traj.counts[0] + jumps.reshape(-1, 4, n)) / scale
    u_bar = at[..., None] * u - t_jumps.reshape(-1, 4, n) / scale
    infection = at * infection_stack(u, params) - t_f
    drift = drift_field(ReactionField(params, hk_ratio=hk), n)
    return Sweep(
        z=u - traj.counts[0] / scale - drift(u_bar, infection),
        observed=products.reshape(-1, len(FAMILIES), n) * (1.0 / family_scale**2),
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
