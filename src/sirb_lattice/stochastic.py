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

The exact simulator (``simulate_ssa``) searches the running sums of the
per-site propensity totals for the site of each event.  It keeps them in
Python lists, re-summed from the first site an event touched, on lattices
of at most ``_LIST_SITES`` sites, and in numpy arrays, re-accumulated whole,
on wider ones; both add left to right, so they give the same bits.
The tests check it, event by event, against a second implementation of
its draw-order contract that shares none of its rate code
(``tests/reference_ssa.py``).
"""

from __future__ import annotations

import math
import textwrap
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Optional

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
    "EventLog",
    "Trajectory",
    "replica_rng",
    "apply_event",
    "log_entries",
    "simulate_ssa",
    "uniform_grid",
    "EVENT_LOOP_SOURCE",
]

RNG_ALGORITHM = "philox4x64/site-major-2u"


# The compartment axis of every (..., 4, n) count or density array.
COMPARTMENTS = ("S", "I", "R", "B")

# The reaction table, one row per kind in on-disk byte order: the kind's
# name; its rate coefficient, a function of EpidemicParams; the
# compartments whose count at the event site must be >= 1 for the event to
# have nonzero propensity, rate source first; and its count changes as
# (compartment, site offset, count delta), offsets relative to the event
# site, periodic.  The rate of a kind at site j is its coefficient times the
# count of its rate source at j; infection's beta * s_j is further
# multiplied by b_j / (K + b_j).
_REACTIONS = (
    ("BIRTH_FROM_S", lambda p: p.mu, "S", [("S", 0, +1)]),
    ("BIRTH_FROM_I", lambda p: p.mu, "I", [("S", 0, +1)]),
    ("BIRTH_FROM_R", lambda p: p.mu, "R", [("S", 0, +1)]),
    ("DEATH_S", lambda p: p.mu, "S", [("S", 0, -1)]),
    ("INFECTION", lambda p: p.beta, "SB", [("S", 0, -1), ("I", 0, +1)]),
    ("DEATH_I_NATURAL", lambda p: p.mu, "I", [("I", 0, -1)]),
    ("DEATH_I_CHOLERA", lambda p: p.alpha, "I", [("I", 0, -1)]),
    ("RECOVERY", lambda p: p.gamma, "I", [("I", 0, -1), ("R", 0, +1)]),
    ("DEATH_R", lambda p: p.mu, "R", [("R", 0, -1)]),
    ("IMMUNITY_LOSS", lambda p: p.rho, "R", [("R", 0, -1), ("S", 0, +1)]),
    ("BACTERIA_DEATH", lambda p: p.mu_b, "B", [("B", 0, -1)]),
    ("CONTAMINATION", lambda p: p.p_over_w, "I", [("B", 0, +1)]),
    ("TRANSPORT_OUT", lambda p: p.transport.ell * p.transport.p_out, "B",
     [("B", 0, -1), ("B", +1, +1)]),
    ("TRANSPORT_IN", lambda p: p.transport.ell * p.transport.p_in, "B",
     [("B", 0, -1), ("B", -1, +1)]),
)

EventKind = IntEnum("EventKind", [(name, kind) for kind, (name, *_) in enumerate(_REACTIONS)],
                    module=__name__)
EventKind.__doc__ = """The fourteen jump kinds; values double as the on-disk kind byte."""
N_EVENT_KINDS = len(EventKind)


def _entry_table(rows) -> np.ndarray:
    """One (kinds, slots, 3) int64 entry table from a list per kind of
    (row, site offset, value) entries; unused slots hold value 0."""
    table = np.zeros((len(rows), max(map(len, rows)), 3), dtype=np.int64)
    for kind, entries in enumerate(rows):
        table[kind, : len(entries)] = entries
    return table


# The reaction table as entry tables in EventKind order, compartments 0-3
# for S, I, R, B.  STOICHIOMETRY entries are (compartment, site offset,
# count delta); SOURCES entries are (compartment, 0, least count the event
# needs at its site).
STOICHIOMETRY = _entry_table([[(COMPARTMENTS.index(c), off, d) for c, off, d in jumps]
                              for *_, jumps in _REACTIONS])
SOURCES = _entry_table([[(COMPARTMENTS.index(c), 0, 1) for c in sources]
                        for _, _, sources, _ in _REACTIONS])
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


@dataclass
class EventLog:
    """Compact columnar record of every jump in a trajectory."""

    times: np.ndarray  # float64
    kinds: np.ndarray  # uint8
    sites: np.ndarray  # uint32

    def __len__(self) -> int:
        return self.times.shape[0]

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


def _state_views(counts: np.ndarray) -> list[SystemState]:
    """SystemState views of the samples of an (n_samples, 4, n) count array,
    through one read-only view of it, so the array stays the only copy of
    the counts and no state can write to it."""
    view = counts.view()
    view.flags.writeable = False
    return [SystemState(row) for row in view]


@dataclass
class Trajectory:
    """Sampled counts of one realization, one (n_samples, 4, n) int64 array
    with rows (S, I, R, B), plus the optional full event log.  ``states``,
    ``initial`` and ``final`` are read-only SystemState views of its rows."""

    sample_times: np.ndarray
    counts: np.ndarray
    event_log: Optional[EventLog]
    seed: int
    rng_algorithm: str = RNG_ALGORITHM
    stats: dict = field(default_factory=dict)

    @property
    def states(self) -> list[SystemState]:
        return _state_views(self.counts)

    @property
    def initial(self) -> SystemState:
        return _state_views(self.counts[:1])[0]

    @property
    def final(self) -> SystemState:
        return _state_views(self.counts[-1:])[0]

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
    """Rate coefficient of each kind, in EventKind order, from ``_REACTIONS``.
    The rate of a kind at site j is its coefficient times the count of its
    source compartment ``_RATE_SOURCE[kind]`` at j; infection's beta * s_j
    is further multiplied by b_j / (K + b_j)."""
    return tuple([coefficient(params) for _, coefficient, _, _ in _REACTIONS])


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


def _check_compatible(n_sites: int, params: EpidemicParams, scaling: ScalingParams):
    if scaling.n_sites != n_sites:
        raise ValueError(f"state has {n_sites} sites but scaling expects {scaling.n_sites}")
    if params.transport.n_sites != n_sites:
        raise ValueError(
            f"transport built for n={params.transport.n_sites}, state has n={n_sites}"
        )


# ---------------------------------------------------------------------------
# State updates

def apply_event(state: SystemState, kind: int, site: int) -> SystemState:
    """Return the state after one jump of ``kind`` (an EventKind, or its
    value as an EventLog's ``kinds`` hold it) at ``site``.  Pure: the input
    is not modified.

    Raises ValueError when a source compartment is empty at the event site;
    an exact simulator never selects such an event, so hitting this signals
    an engine or replay bug.  Raises ValueError, as ``log_entries`` does,
    for a site outside the lattice.
    """
    counts = state.counts.copy()
    n = state.n_sites
    kind, j = EventKind(int(kind)), int(site)
    if not 0 <= j < n:
        raise ValueError(f"event site {j} outside lattice of {n} sites")
    for c, _, need in SOURCES[kind].tolist():
        have = int(counts[c, j])
        if have < need:
            raise ValueError(
                f"{kind.name} at site {j} requires {COMPARTMENTS[c].lower()}_counts "
                f">= {need} (got {have}); zero-propensity event applied"
            )
    for c, offset, delta in STOICHIOMETRY[kind].tolist():
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


# ---------------------------------------------------------------------------
# The event loop, generated from the reaction table

# Events per block of uniforms the loop draws at once: a block of
# ``random()`` holds the same doubles as that many successive calls.
_UNIFORM_BLOCK = 256

# The loop holds the counts as floats, which are whole numbers exactly, and
# give the same rates and totals as the integers, while below 2**53.  An
# event adds at most 1 to a count, and no run fires 2**52 events.
_MAX_COUNT = 2 ** 52

# Lattices of at most this many sites keep their site totals and running
# sums in Python lists and re-sum them from the first site an event
# touched; wider ones keep numpy arrays and re-accumulate them whole.  The
# value is the crossover of bench/bench.py's ``paths`` figures, which time
# both representations: over ten runs in BENCH_change.json at commit
# 73fa5c8, lists against arrays took 1.74 against 2.34 µs of CPU time per
# event at n = 8, 2.01 against 2.56 at n = 16 and 2.61 against 2.87 at
# n = 32 (lists faster in 10, 10 and 9 of the runs), but 2.94 against 3.01
# at n = 48 and 3.43 against 3.15 at n = 64 (lists faster in 3 and 0).
_LIST_SITES = 32

# A site's total propensity, the draw-order contract's left-to-right
# expression, with {0} to {3} standing for the site's S, I, R and B counts:
# every total the loop writes, first for each site and then at each site an
# event touches, is this template filled with that site's count names.
_SITE_TOTAL = "a_s * {0} + a_i * {1} + a_r * {2} + a_b * {3} + beta * {0} * {3} / (kcap + {3})"

_EVENT_LOOP_HEAD = """\
def _event_loop(S, I, R, B, weights, beta, kcap, coefficients, samples, horizon,
                snapshots, rng, record):
    n, table, rows = len(S), STOICHIOMETRY.tolist(), (S, I, R, B)
    {coefficients} = coefficients
    {counters} = (0,) * N_EVENT_KINDS
    past_end = [0] * N_EVENT_KINDS
    a_s, a_i, a_r, a_b = weights
    totals = []
    for s, i, r, b in zip(S, I, R, B):
        totals.append({site_total})
    # cum[j] is the sequential sum of totals[:j + 1]; the trailing
    # cum[n] = cum[-1] = 0.0 is the empty sum before site 0
    narrow = n <= _LIST_SITES
    if narrow:
        cum = [0.0] * (n + 1)
        suffixes = [range(j, n) for j in range(n)]
    else:
        totals_array, cum_array = np.array(totals), np.zeros(n + 1)
        cum_head, cumulate = cum_array[:n], np.add.accumulate
        totals, cum = memoryview(totals_array), memoryview(cum_array)
    search, log1p, inf = bisect_right, math.log1p, math.inf
    times, kinds, sites = array("d"), array("B"), array("I")
    pairs, k_sample, t, m = iter(()), 0, 0.0, 0
    t_sample = samples[0]
    while True:
        # re-sum from m, the first site whose total changed
        if narrow:
            partial = cum[m - 1]
            for j in suffixes[m]:
                partial += totals[j]
                cum[j] = partial
            total = partial
        else:
            cumulate(totals_array, out=cum_head)
            total = cum[n - 1]
        if total > 0.0:
            for u1, u2 in pairs:
                break
            else:
                block = iter(rng.random({block}).tolist())
                pairs = zip(block, block)
                u1, u2 = next(pairs)
            t_next = t + -log1p(-u1) / total
        else:
            t_next = inf
        while t_sample < t_next:
            snapshots[k_sample] = rows
            k_sample += 1
            t_sample = samples[k_sample]
        if t_next > horizon:
            return [f + p for f, p in zip(({counters}), past_end)], times, kinds, sites
        t = t_next
        x = u2 * total
        site = search(cum, x, 0, n)
        if site == n:  # u2 * total rounded up to total (a subnormal total)
            site = max(j for j in range(n) if totals[j] > 0.0)
        residual = x - cum[site - 1]
        s, i, r, b = S[site], I[site], R[site], B[site]
        # the walk: the site's rates in EventKind order, summed until the
        # sum passes the residual
"""
_EVENT_LOOP_RECORD = """\
f{kind} += 1
if record:
    times.append(t)
    kinds.append({kind})
    sites.append(site)
"""
_EVENT_LOOP_TAIL = """\
# the walk ran past the end: the last kind with a positive rate, updated
# through the table
m = site
rates = [{rates}]
last = max(kind for kind, rate in enumerate(rates) if rate > 0.0)
for c, offset, delta in table[last]:
    j = (site + offset) % n
    if j < m: m = j
    rows[c][j] += delta
    totals[j] = {site_total}
past_end[last] += 1
if record:
    times.append(t)
    kinds.append(last)
    sites.append(site)
"""


def _site_update(offset: int, deltas: dict) -> list[str]:
    """Lines that add ``deltas`` (compartment -> count delta) at the site
    ``offset`` from the event site, periodic, lower m to that site, and
    rewrite its total with ``_SITE_TOTAL``."""
    at, names, lines = "site", "sirb", []
    if offset:
        at, names = "j", ("s_", "i_", "r_", "b_")
        wrap = "if j >= n: j -= n" if offset > 0 else "if j < 0: j += n"
        lines = [f"j = site {'+-'[offset < 0]} {abs(offset)}", wrap, "if j < m: m = j"]
        lines += [f"{x} = {row}[j]" for x, row in zip(names, COMPARTMENTS)]
    for c, delta in deltas.items():
        lines += [f"{names[c]} {'+-'[delta < 0]}= {float(abs(delta))}",
                  f"{COMPARTMENTS[c]}[{at}] = {names[c]}"]
    return lines + [f"totals[{at}] = " + _SITE_TOTAL.format(*names)]


def _rate(kind: int) -> str:
    """A kind's rate at the event site: its coefficient times the count of
    its rate source, and for infection ``(beta * s) * b / (K + b)``."""
    rate = f"c{kind} * {'sirb'[_RATE_SOURCE[kind]]}"
    return rate + " * b / (kcap + b)" if kind == EventKind.INFECTION else rate


def _walk_step(kind: int) -> list[str]:
    """The walk's step for one kind: add its rate to the running sum (the
    first kind's rate starts it, as 0.0 plus a rate >= 0 gives a sum that
    compares the same); if the residual falls below the sum, make the
    kind's count updates and go to the next event.  Zero rates need no
    test: adding one leaves the sum, and so the comparison, as it was, and
    a residual >= 0 is never below the empty sum 0.0, so only a positive
    rate can fire."""
    by_offset: dict = {}
    for c, offset, delta in STOICHIOMETRY[kind].tolist():
        if delta:
            by_offset.setdefault(offset, {})[c] = delta
    fire = ["m = site"] + [line for offset, deltas in by_offset.items()
                           for line in _site_update(offset, deltas)]
    fire += _EVENT_LOOP_RECORD.format(kind=kind).splitlines() + ["continue"]
    add = "acc =" if kind == 0 else "acc +="
    return [f"{add} {_rate(kind)}", "if residual < acc:", *("    " + line for line in fire)]


_WALK = "".join(line + "\n" for kind in EventKind for line in _walk_step(kind))
_TAIL = _EVENT_LOOP_TAIL.format(rates=", ".join(map(_rate, EventKind)),
                                site_total=_SITE_TOTAL.format("S[j]", "I[j]", "R[j]", "B[j]"))
EVENT_LOOP_SOURCE = _EVENT_LOOP_HEAD.format(
    block=2 * _UNIFORM_BLOCK, coefficients=", ".join(f"c{k}" for k in range(N_EVENT_KINDS)),
    counters=", ".join(f"f{k}" for k in range(N_EVENT_KINDS)),
    site_total=_SITE_TOTAL.format(*"sirb"),
) + textwrap.indent(_WALK + _TAIL, " " * 8)
_scope: dict = {}
exec(compile(EVENT_LOOP_SOURCE, "<generated event loop>", "exec"), globals(), _scope)
_event_loop = _scope["_event_loop"]


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
    The uniforms are drawn in blocks of ``2 * _UNIFORM_BLOCK``, which hold
    the same doubles as that many single calls, and taken in pairs; what is
    left of the last block when the run ends is discarded.

    The floating-point expressions, which a second implementation must
    evaluate as written to draw the same run, with each kind's coefficient
    from the reaction table ``_REACTIONS`` (``ell * p_out`` and ``ell * p_in``
    for the transports, ``p_in = 1.0 - p_out``) and the counts as floats:

    * ``A_c``, for compartment c, is the ``math.fsum`` of the coefficients
      of the kinds other than infection whose rate reads c;
    * a site's total is ``A_s*s + A_i*i + A_r*r + A_b*b + beta*s*b/(K+b)``,
      evaluated left to right (``_SITE_TOTAL``);
    * a kind's rate is its coefficient times its source count, and
      infection's is ``(beta*s)*b/(K+b)``;
    * both running sums, over the site totals and over a site's rates, are
      sequential, as ``np.cumsum`` adds.

    The loop keeps the n site totals, not the 14n rates, and their running
    sums: an event rewrites the totals of the (at most two) sites it
    touches.  Up to ``_LIST_SITES`` sites, totals and sums are Python lists
    and the sums are re-summed from the first touched site on; on more
    sites they are numpy arrays and ``np.add.accumulate`` re-sums them all.
    Either way each sum is the previous one plus the site's total, left to
    right, so both paths give the same bits.  The counts are held as floats,
    which the interpreter multiplies and adds faster than mixed int and
    float operands; below 2**53 they are whole numbers exactly and give the
    same rates and totals.  The loop's Python source is
    generated once, at import, from ``STOICHIOMETRY`` and the rate sources:
    one straight-line step per kind, in EventKind order, that adds the
    kind's rate and, if it is the one selected, makes the kind's count
    updates in place.  Print it with
    ``python -c "from sirb_lattice import stochastic; print(stochastic.EVENT_LOOP_SOURCE)"``.

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

    Raises ValueError on a bad horizon or grid, a lattice that does not
    match, or an initial count of 2**52 or more.
    """
    grid = _resolve_grid(horizon, sample_times)
    _check_compatible(initial.n_sites, params, scaling)
    if initial.counts.max() >= _MAX_COUNT:
        raise ValueError(f"counts must be below 2**52 = {_MAX_COUNT}")
    weights, beta = _site_weights(params)
    kcap = float(scaling.k)
    snapshots = np.empty((grid.size, 4, initial.n_sites), dtype=np.int64)
    fired, times, kinds, sites = _event_loop(
        *initial.counts.astype(float).tolist(), weights, beta, kcap, _rate_coefficients(params),
        grid.tolist() + [math.inf], horizon, snapshots, replica_rng(seed, stream), record_events)
    event_log = None
    if record_events:
        # views of the filled arrays, not copies: the log is held once
        event_log = EventLog(np.frombuffer(times, dtype=np.float64),
                             np.frombuffer(kinds, dtype=np.uint8),
                             np.frombuffer(sites, dtype=np.uint32))
    return Trajectory(
        sample_times=grid,
        counts=snapshots,
        event_log=event_log,
        seed=seed,
        stats={"n_events": sum(fired), "stream": stream, "events_by_kind": fired},
    )
