"""Exact event-driven simulation of the lattice SIRB jump process.

The state is one (4, n) array of integer counts (susceptible, infected,
recovered humans and bacteria).  Fourteen event kinds fire with propensities
proportional to local counts; rescaled densities are counts divided by the
renormalization constants H (humans) and K (bacteria).  Counts, not rescaled
reals, are the source of truth: rescaled values then live exactly on the
grids H^-1 * N and K^-1 * N and nothing drifts over long runs.

Count-form propensities (algebraically identical to the rescaled generator
rates):

    birth_from_s      mu * s_j            s_j += 1
    birth_from_i      mu * i_j            s_j += 1
    birth_from_r      mu * r_j            s_j += 1
    death_s           mu * s_j            s_j -= 1
    infection         beta * s_j * b_j / (K + b_j)    s_j -= 1, i_j += 1
    death_i_natural   mu * i_j            i_j -= 1
    death_i_cholera   alpha * i_j         i_j -= 1
    recovery          gamma * i_j         i_j -= 1, r_j += 1
    death_r           mu * r_j            r_j -= 1
    immunity_loss     rho * r_j           r_j -= 1, s_j += 1
    bacteria_death    mu_b * b_j          b_j -= 1
    contamination     (p/W) * i_j         b_j += 1
    transport_out     ell * p_out * b_j   b_j -= 1, b_{j+1} += 1
    transport_in      ell * p_in * b_j    b_j -= 1, b_{j-1} += 1
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Iterator, Optional

import numpy as np

from .lattice import MIN_SITES, TransportCoefficients

__all__ = [
    "RNG_ALGORITHM",
    "COMPARTMENTS",
    "EventKind",
    "N_EVENT_KINDS",
    "STOICHIOMETRY",
    "SOURCES",
    "EpidemicParams",
    "ScalingParams",
    "SystemState",
    "Event",
    "EventLog",
    "SampledStates",
    "Trajectory",
    "replica_rng",
    "all_rates",
    "apply_event",
    "log_entries",
    "step_ssa",
    "simulate_ssa",
    "uniform_grid",
]

RNG_ALGORITHM = "philox4x64/site-major-2u"


class EventKind(IntEnum):
    """The fourteen jump kinds; values double as the on-disk kind byte."""

    BIRTH_FROM_S = 0
    BIRTH_FROM_I = 1
    BIRTH_FROM_R = 2
    DEATH_S = 3
    INFECTION = 4
    DEATH_I_NATURAL = 5
    DEATH_I_CHOLERA = 6
    RECOVERY = 7
    DEATH_R = 8
    IMMUNITY_LOSS = 9
    BACTERIA_DEATH = 10
    CONTAMINATION = 11
    TRANSPORT_OUT = 12
    TRANSPORT_IN = 13


N_EVENT_KINDS = len(EventKind)

# The compartment axis of every (..., 4, n) count or density array.
COMPARTMENTS = ("S", "I", "R", "B")

# The reaction table, one row per kind in EventKind order.  Compartments
# are 0-3 for S, I, R, B; offsets are relative to the event site, periodic;
# unused slots hold value 0.  STOICHIOMETRY entries are (compartment, site
# offset, count delta).  SOURCES entries are (compartment, 0, least count
# the event needs at its site): the compartments whose local count must be
# >= 1 for the event to have nonzero propensity.
STOICHIOMETRY = np.array([
    [(0, 0, +1), (0, 0, 0)],  # BIRTH_FROM_S
    [(0, 0, +1), (0, 0, 0)],  # BIRTH_FROM_I
    [(0, 0, +1), (0, 0, 0)],  # BIRTH_FROM_R
    [(0, 0, -1), (0, 0, 0)],  # DEATH_S
    [(0, 0, -1), (1, 0, +1)],  # INFECTION
    [(1, 0, -1), (0, 0, 0)],  # DEATH_I_NATURAL
    [(1, 0, -1), (0, 0, 0)],  # DEATH_I_CHOLERA
    [(1, 0, -1), (2, 0, +1)],  # RECOVERY
    [(2, 0, -1), (0, 0, 0)],  # DEATH_R
    [(2, 0, -1), (0, 0, +1)],  # IMMUNITY_LOSS
    [(3, 0, -1), (0, 0, 0)],  # BACTERIA_DEATH
    [(3, 0, +1), (0, 0, 0)],  # CONTAMINATION
    [(3, 0, -1), (3, +1, +1)],  # TRANSPORT_OUT
    [(3, 0, -1), (3, -1, +1)],  # TRANSPORT_IN
], dtype=np.int64)
SOURCES = np.array([
    [(0, 0, 1), (0, 0, 0)],  # BIRTH_FROM_S
    [(1, 0, 1), (0, 0, 0)],  # BIRTH_FROM_I
    [(2, 0, 1), (0, 0, 0)],  # BIRTH_FROM_R
    [(0, 0, 1), (0, 0, 0)],  # DEATH_S
    [(0, 0, 1), (3, 0, 1)],  # INFECTION
    [(1, 0, 1), (0, 0, 0)],  # DEATH_I_NATURAL
    [(1, 0, 1), (0, 0, 0)],  # DEATH_I_CHOLERA
    [(1, 0, 1), (0, 0, 0)],  # RECOVERY
    [(2, 0, 1), (0, 0, 0)],  # DEATH_R
    [(2, 0, 1), (0, 0, 0)],  # IMMUNITY_LOSS
    [(3, 0, 1), (0, 0, 0)],  # BACTERIA_DEATH
    [(1, 0, 1), (0, 0, 0)],  # CONTAMINATION
    [(3, 0, 1), (0, 0, 0)],  # TRANSPORT_OUT
    [(3, 0, 1), (0, 0, 0)],  # TRANSPORT_IN
], dtype=np.int64)
# The compartment each kind's rate is proportional to (its first source).
_RATE_SOURCE = tuple(SOURCES[:, 0, 0].tolist())


@dataclass(frozen=True)
class EpidemicParams:
    """All biological and transport rate constants, in 1/time units.

    ``p_over_w`` is the contamination rate of the reservoir per infected
    human; the numerator and the reservoir volume only ever appear through
    this ratio.
    """

    mu: float
    alpha: float
    gamma: float
    rho: float
    beta: float
    p_over_w: float
    mu_b: float
    transport: TransportCoefficients

    def __post_init__(self):
        for name in ("mu", "alpha", "gamma", "rho", "beta", "p_over_w", "mu_b"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"rate {name} must be finite and >= 0, got {v}")

    def with_lattice(self, n_sites: int) -> "EpidemicParams":
        """Rebuild the transport for a different resolution, preserving the
        continuum advection/diffusion coefficients."""
        tc = self.transport
        if n_sites == tc.n_sites:
            return self
        return replace(
            self,
            transport=TransportCoefficients.from_continuum(tc.diffusion, tc.nu, n_sites),
        )


@dataclass(frozen=True)
class ScalingParams:
    """Lattice size and the human/bacteria renormalization constants."""

    n_sites: int
    h: int
    k: int

    def __post_init__(self):
        for name, lo in (("n_sites", MIN_SITES), ("h", 1), ("k", 1)):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < lo:
                raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")


@dataclass(frozen=True)
class SystemState:
    """Per-site counts, a (4, n) int64 array with rows COMPARTMENTS; every
    state is checked to hold nonnegative integers on at least MIN_SITES sites."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or len(counts) != len(COMPARTMENTS) or counts.shape[1] < MIN_SITES:
            raise ValueError(f"counts must be (4, n) with n >= {MIN_SITES}, got {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts) & (counts == np.round(counts))):
                raise ValueError("counts must be integers")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))

    @classmethod
    def from_counts(cls, s, i, r, b) -> "SystemState":
        """The state of four per-site count vectors of equal length."""
        return cls(np.stack((s, i, r, b)))

    @classmethod
    def from_densities(cls, s, i, r, b, scaling: ScalingParams) -> "SystemState":
        """Round rescaled densities to the nearest integer counts."""
        v = np.stack((s, i, r, b))
        return cls(np.rint(v * _renormalization(scaling)).astype(np.int64))

    @property
    def n_sites(self) -> int:
        return self.counts.shape[1]

    def rescaled(self, scaling: ScalingParams) -> np.ndarray:
        """Densities as a (4, n) float array in the order (S, I, R, B)."""
        return self.counts / _renormalization(scaling)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemState):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)


@dataclass(frozen=True)
class Event:
    kind: EventKind
    site: int


@dataclass
class EventLog:
    """Compact columnar record of every jump in a trajectory."""

    times: np.ndarray  # float64
    kinds: np.ndarray  # uint8
    sites: np.ndarray  # uint32

    def __len__(self) -> int:
        return self.times.shape[0]

    def __iter__(self) -> Iterator[tuple[float, Event]]:
        for t, k, j in zip(self.times, self.kinds, self.sites):
            yield float(t), Event(EventKind(int(k)), int(j))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.kinds, other.kinds)
            and np.array_equal(self.sites, other.sites)
        )


def _renormalization(scaling: ScalingParams) -> np.ndarray:
    """Divisors from counts to densities, (4, 1): H for S, I, R and K for B."""
    return np.array([scaling.h, scaling.h, scaling.h, scaling.k], dtype=float)[:, None]


class SampledStates(Sequence):
    """Read-only SystemState views of the samples of an (n_samples, 4, n)
    count array, which stays the only copy of the counts."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts.view()
        self.counts.flags.writeable = False

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, sample: int) -> SystemState:
        return SystemState(self.counts[operator.index(sample)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class Trajectory:
    """Sampled counts of one realization, one (n_samples, 4, n) int64 array
    with rows (S, I, R, B), plus the optional full event log."""

    sample_times: np.ndarray
    counts: np.ndarray
    event_log: Optional[EventLog]
    seed: int
    rng_algorithm: str = RNG_ALGORITHM
    stats: dict = field(default_factory=dict)

    @property
    def states(self) -> SampledStates:
        return SampledStates(self.counts)

    @property
    def initial(self) -> SystemState:
        return self.states[0]

    @property
    def final(self) -> SystemState:
        return self.states[-1]

    def densities(self, scaling: ScalingParams) -> np.ndarray:
        """Rescaled densities as an (n_samples, 4, n) float array."""
        return self.counts / _renormalization(scaling)


def replica_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for (master seed, stream index).

    Streams are Philox 4x64 counter-based keys, so replicas never overlap and
    results are bit-identical across platforms.  Raises ValueError for a
    seed outside [0, 2**64), which no key could tell from a smaller seed.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Rates

def _rate_coefficients(params: EpidemicParams) -> tuple[float, ...]:
    """Rate coefficient of each kind, in EventKind order.  The rate of a kind
    at site j is its coefficient times the count of its source compartment
    ``_RATE_SOURCE[kind]`` at j; infection's beta * s_j is further multiplied
    by b_j / (K + b_j)."""
    p, tc = params, params.transport
    return (
        p.mu, p.mu, p.mu, p.mu, p.beta, p.mu, p.alpha, p.gamma, p.mu, p.rho,
        p.mu_b, p.p_over_w, tc.ell * tc.p_out, tc.ell * tc.p_in,
    )


def all_rates(
    state: SystemState, params: EpidemicParams, scaling: ScalingParams
) -> np.ndarray:
    """All propensities as a (14, n_sites) array indexed by EventKind."""
    _check_compatible(state.n_sites, params, scaling)
    counts = state.counts.astype(float)
    out = np.array(_rate_coefficients(params))[:, None] * counts[list(_RATE_SOURCE)]
    b = counts[COMPARTMENTS.index("B")]
    out[EventKind.INFECTION] = out[EventKind.INFECTION] * b / (scaling.k + b)
    return out


def _site_weights(params: EpidemicParams) -> tuple[tuple[float, ...], float]:
    """(A_c for each compartment c, beta).  A_c is the correctly rounded sum
    (``math.fsum``) of the coefficients of the linear kinds whose rate source
    is c, so a site's total propensity is sum_c A_c * count_c plus infection."""
    coefficients = _rate_coefficients(params)
    weights = tuple(
        math.fsum(coefficients[kind] for kind in range(N_EVENT_KINDS)
                  if _RATE_SOURCE[kind] == c and kind != EventKind.INFECTION)
        for c in range(len(COMPARTMENTS))
    )
    return weights, coefficients[EventKind.INFECTION]


def _site_total(weights, beta: float, kcap: float, s, i, r, b):
    """Total propensity of a site, A_s*s + A_i*i + A_r*r + A_b*b + beta*s*b/(K+b),
    left to right.  Count arrays give the totals of all sites elementwise,
    with the bits the same expression gives on Python ints."""
    a_s, a_i, a_r, a_b = weights
    return a_s * s + a_i * i + a_r * r + a_b * b + beta * s * b / (kcap + b)


def _check_compatible(n_sites: int, params: EpidemicParams, scaling: ScalingParams):
    if scaling.n_sites != n_sites:
        raise ValueError(f"state has {n_sites} sites but scaling expects {scaling.n_sites}")
    if params.transport.n_sites != n_sites:
        raise ValueError(
            f"transport built for n={params.transport.n_sites}, state has n={n_sites}"
        )


# ---------------------------------------------------------------------------
# State updates

def apply_event(state: SystemState, e: Event) -> SystemState:
    """Return the state after one jump.  Pure: the input is not modified.

    Raises ValueError when a source compartment is empty at the event site;
    an exact simulator never selects such an event, so hitting this signals
    an engine or replay bug.
    """
    counts = state.counts.copy()
    n = state.n_sites
    j = e.site % n
    for c, _, need in SOURCES[e.kind].tolist():
        have = int(counts[c, j])
        if have < need:
            raise ValueError(
                f"{e.kind.name} at site {j} requires {COMPARTMENTS[c].lower()}_counts "
                f">= {need} (got {have}); zero-propensity event applied"
            )
    for c, offset, delta in STOICHIOMETRY[e.kind].tolist():
        counts[c, (j + offset) % n] += delta
    return SystemState(counts)


def log_entries(
    log: EventLog, n_sites: int, table: np.ndarray = STOICHIOMETRY
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand an event log through an entry table such as STOICHIOMETRY.

    Returns int64 arrays (event index, flat cell, value) with one element
    per used slot of each event's table row, in event order.  The entry
    (row, offset, value) of an event at site j lands in flat cell
    row * n_sites + (j + offset) % n_sites of a raveled (rows, n_sites) array.

    Raises ValueError on a kind outside the table or a site outside the
    lattice.
    """
    kinds = log.kinds.astype(np.intp)
    sites = log.sites.astype(np.int64)
    if kinds.size:
        if kinds.max() >= table.shape[0]:
            bad = int(kinds[kinds >= table.shape[0]][0])
            raise ValueError(f"event kind {bad} is not one of the {table.shape[0]} kinds")
        if sites.max() >= n_sites:
            bad = int(sites[sites >= n_sites][0])
            raise ValueError(f"event site {bad} outside lattice of {n_sites} sites")
    rows = table[kinds]
    event, slot = np.nonzero(rows[:, :, 2])
    row, offset, value = rows[event, slot].T
    return event, row * n_sites + (sites[event] + offset) % n_sites, value


# ---------------------------------------------------------------------------
# Exact simulation

def step_ssa(
    state: SystemState,
    params: EpidemicParams,
    scaling: ScalingParams,
    rng: np.random.Generator,
) -> tuple[Optional[Event], float]:
    """Draw one jump of the exact chain: (event, waiting time).

    Returns (None, inf) from an absorbing state (total propensity zero),
    without drawing.  Otherwise it takes two ``random()`` draws u1, u2:
    the wait is ``-log1p(-u1) / total``, where ``total`` is the last element
    of the sequential cumsum of the site totals; the site is the right-sided
    search of ``u2 * total`` in that cumsum (past the last boundary: the
    last site with a positive total); the kind is the right-sided search
    of the residual, ``u2 * total`` minus the cumsum before the site, in the
    sequential cumsum of the site's 14 rates in EventKind order (past the
    end: the last kind with a positive rate).  ``simulate_ssa`` draws in the
    same order, so iterating this on the same stream reproduces its runs.
    """
    _check_compatible(state.n_sites, params, scaling)
    weights, beta = _site_weights(params)
    totals = _site_total(weights, beta, float(scaling.k), *state.counts)
    cum = np.cumsum(totals)
    total = float(cum[-1])
    if total <= 0.0:
        return None, math.inf
    u1, u2 = rng.random(), rng.random()
    x = u2 * total
    site = int(np.searchsorted(cum, x, side="right"))
    if site == state.n_sites:
        site = int(np.flatnonzero(totals > 0.0)[-1])
    rates = all_rates(state, params, scaling)[:, site]
    residual = x - float(cum[site - 1]) if site else x
    kind = int(np.searchsorted(np.cumsum(rates), residual, side="right"))
    if kind == N_EVENT_KINDS:
        kind = int(np.flatnonzero(rates > 0.0)[-1])
    return Event(EventKind(kind), site), -math.log1p(-u1) / total


def _resolve_grid(horizon: float, sample_times: Optional[Sequence[float]] = None) -> np.ndarray:
    """The sample grid of a run over [0, horizon] as a float array; None
    stands for the endpoints.  Raises ValueError unless the horizon is
    finite and >= 0 and the grid is a nonempty, strictly increasing 1-D
    array that starts at 0 and ends by the horizon."""
    if not np.isfinite(horizon) or horizon < 0:
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    if sample_times is None:
        grid = np.array([0.0, horizon]) if horizon > 0 else np.array([0.0])
    else:
        grid = _increasing_grid(sample_times)
    if grid[0] != 0.0:
        raise ValueError("sample grid must start at t = 0")
    if grid[-1] > horizon:
        raise ValueError("sample grid must lie within [0, horizon]")
    return grid


def _increasing_grid(sample_times: Sequence[float]) -> np.ndarray:
    """The sample times as a nonempty, strictly increasing 1-D float array."""
    grid = np.asarray(sample_times, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.isnan(grid[0]) or not np.all(np.diff(grid) > 0):
        raise ValueError("sample times must be a nonempty, strictly increasing 1-D array")
    return grid


def uniform_grid(horizon: float, n_samples: int) -> np.ndarray:
    """``n_samples`` equally spaced sample times over [0, horizon], both ends
    included.  A zero horizon, or a count of 1, gives the single time 0."""
    return np.linspace(0.0, horizon, n_samples) if horizon > 0 else np.array([0.0])


# Events per block of uniforms the simulator draws at once.
_UNIFORM_BLOCK = 256


def _uniform_pairs(rng: np.random.Generator) -> Iterator[tuple[float, float]]:
    """(u1, u2) per event, drawn in blocks: a block of ``random()`` holds the
    same doubles as that many successive ``random()`` calls."""
    while True:
        block = iter(rng.random(2 * _UNIFORM_BLOCK).tolist())
        yield from zip(block, block)


def simulate_ssa(
    initial: SystemState,
    horizon: float,
    sample_times: Sequence[float],
    params: EpidemicParams,
    scaling: ScalingParams,
    seed: int,
    stream: int = 0,
    record_events: bool = False,
) -> Trajectory:
    """Exact Gillespie simulation over [0, horizon].

    Snapshots are taken by carrying the piecewise-constant state across each
    sample time (right-continuous convention: a snapshot that coincides with
    a jump records the post-jump state).  When the total propensity hits
    zero the chain is absorbed and the clock jumps to the horizon.

    The trajectory is a deterministic function of
    (initial, seed, stream, params, scaling).  Draw order
    (``RNG_ALGORITHM``): while the total propensity is positive, each event
    takes two ``random()`` draws u1, u2.  The wait is ``-log1p(-u1) / total``,
    where ``total`` is the last element of the sequential cumsum of the n
    site totals.  The site is the right-sided search of ``u2 * total`` in
    that cumsum; a point past the last boundary takes the last site with a
    positive total.  The kind is the right-sided search of the residual,
    ``u2 * total`` minus the cumsum before the site, in the sequential
    cumsum of the site's 14 rates in EventKind order; past the end it takes
    the last kind with a positive rate.  An absorbed chain draws nothing.
    This is the order of ``step_ssa``.  The uniforms are drawn in blocks,
    which give the same doubles as single calls.

    The loop keeps the n site totals, not the 14n rates: an event rewrites
    the totals of the (at most two) sites it touches.

    Args:
        initial: starting counts; not modified.
        horizon: final time T >= 0.
        sample_times: strictly increasing grid in [0, T], starting at 0.
        params, scaling: model constants; transport lattice must match.
        seed: master seed; combined with ``stream`` into a Philox key.
        record_events: keep the full (time, kind, site) log.

    Returns:
        Trajectory with one row of counts per sample time; ``stats`` holds
        ``n_events``, ``stream`` and ``events_by_kind`` (14 counts indexed
        by EventKind).
    """
    grid = _resolve_grid(horizon, sample_times)
    _check_compatible(initial.n_sites, params, scaling)
    n = initial.n_sites
    uniforms = _uniform_pairs(replica_rng(seed, stream))
    cumulate = np.add.accumulate
    log1p = math.log1p

    weights, beta = _site_weights(params)
    kcap = float(scaling.k)
    totals = _site_total(weights, beta, kcap, *initial.counts)
    cum = np.empty_like(totals)
    site_totals, cum_view = memoryview(totals), memoryview(cum)
    # Counts as one list of 4n cells, compartment * n + site.
    counts = initial.counts.ravel().tolist()
    b_row = 3 * n

    # Each kind's coefficient and the row of its source compartment, in
    # EventKind order, and the count updates of the event at flat index
    # kind * n + site with the sites whose totals they change.
    walk = tuple(zip(range(N_EVENT_KINDS), _rate_coefficients(params),
                     (c * n for c in _RATE_SOURCE)))
    infection = int(EventKind.INFECTION)
    plans = []
    for row in STOICHIOMETRY.tolist():
        for j in range(n):
            cells = tuple((c * n + (j + off) % n, d) for c, off, d in row if d)
            plans.append((cells, tuple(dict.fromkeys(cell % n for cell, _ in cells))))

    # the snapshots, one row of 4n cells per sample time
    snapshots = np.empty((grid.size, 4, n), dtype=np.int64)
    rows = snapshots.reshape(grid.size, 4 * n)
    times, indices = array("d"), array("q")
    fired = [0] * (N_EVENT_KINDS * n)
    samples = grid.tolist() + [math.inf]
    k_sample = 0
    t = 0.0

    while True:
        cumulate(totals, out=cum)
        total = cum_view[-1]
        if total > 0.0:
            u1, u2 = next(uniforms)
            t_next = t + -log1p(-u1) / total
        else:
            t_next = math.inf
        while samples[k_sample] < t_next:
            rows[k_sample] = counts
            k_sample += 1
        if t_next > horizon:
            break
        t = t_next

        x = u2 * total
        site = bisect_right(cum_view, x)
        if site == n:  # u2 * total rounded up to total (a subnormal total)
            site = int(np.flatnonzero(totals > 0.0)[-1])
        # Walk the site's rates, as all_rates computes them, skipping zeros:
        # adding a zero rate leaves the running sum as it was.
        residual = x - cum_view[site - 1] if site else x
        acc = 0.0
        for kind, coefficient, row in walk:
            rate = coefficient * counts[row + site]
            if kind == infection:
                b = counts[b_row + site]
                rate = rate * b / (kcap + b)
            if rate > 0.0:
                acc += rate
                last = kind
                if residual < acc:
                    break
        else:  # the walk ran past the end
            kind = last

        idx = kind * n + site
        cells, touched = plans[idx]
        for cell, delta in cells:
            counts[cell] += delta
        for j in touched:
            site_totals[j] = _site_total(weights, beta, kcap, counts[j], counts[n + j],
                                         counts[2 * n + j], counts[b_row + j])
        fired[idx] += 1
        if record_events:
            times.append(t)
            indices.append(idx)

    event_log = None
    if record_events:
        kinds, sites = np.divmod(np.array(indices, dtype=np.int64), n)
        event_log = EventLog(np.array(times, dtype=np.float64),
                             kinds.astype(np.uint8), sites.astype(np.uint32))
    by_kind = np.array(fired).reshape(N_EVENT_KINDS, n).sum(axis=1).tolist()
    return Trajectory(
        sample_times=grid,
        counts=snapshots,
        event_log=event_log,
        seed=seed,
        stats={"n_events": sum(by_kind), "stream": stream, "events_by_kind": by_kind},
    )
