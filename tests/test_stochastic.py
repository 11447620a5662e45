"""Event rates, jump bookkeeping, and the exact simulator."""

import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import reference_ssa
from reference_ssa import all_rates, step_ssa
from sirb_lattice import stochastic
from sirb_lattice.lattice import TransportCoefficients
from sirb_lattice.stochastic import (
    SOURCES,
    STOICHIOMETRY,
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


def make_params(n=4, **overrides):
    base = dict(mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2,
                p_over_w=0.8, mu_b=0.5)
    ell = overrides.pop("ell", 0.5)
    p_out = overrides.pop("p_out", 0.7)
    base.update(overrides)
    return EpidemicParams(transport=TransportCoefficients(ell, p_out, n), **base)


def uniform_state(n, s=10, i=5, r=3, b=8):
    return SystemState.from_counts(
        np.full(n, s), np.full(n, i), np.full(n, r), np.full(n, b)
    )


# The reaction table of the module docstring, written out by hand: kind ->
# (compartment, site offset, count delta) entries, and kind -> the
# compartments that must hold a count at the event site.
EVENT_DELTAS = {
    EventKind.BIRTH_FROM_S: (("s", 0, +1),),
    EventKind.BIRTH_FROM_I: (("s", 0, +1),),
    EventKind.BIRTH_FROM_R: (("s", 0, +1),),
    EventKind.DEATH_S: (("s", 0, -1),),
    EventKind.INFECTION: (("s", 0, -1), ("i", 0, +1)),
    EventKind.DEATH_I_NATURAL: (("i", 0, -1),),
    EventKind.DEATH_I_CHOLERA: (("i", 0, -1),),
    EventKind.RECOVERY: (("i", 0, -1), ("r", 0, +1)),
    EventKind.DEATH_R: (("r", 0, -1),),
    EventKind.IMMUNITY_LOSS: (("r", 0, -1), ("s", 0, +1)),
    EventKind.BACTERIA_DEATH: (("b", 0, -1),),
    EventKind.CONTAMINATION: (("b", 0, +1),),
    EventKind.TRANSPORT_OUT: (("b", 0, -1), ("b", +1, +1)),
    EventKind.TRANSPORT_IN: (("b", 0, -1), ("b", -1, +1)),
}
EVENT_SOURCES = {
    EventKind.BIRTH_FROM_S: "s", EventKind.BIRTH_FROM_I: "i",
    EventKind.BIRTH_FROM_R: "r", EventKind.DEATH_S: "s",
    EventKind.INFECTION: "sb", EventKind.DEATH_I_NATURAL: "i",
    EventKind.DEATH_I_CHOLERA: "i", EventKind.RECOVERY: "i",
    EventKind.DEATH_R: "r", EventKind.IMMUNITY_LOSS: "r",
    EventKind.BACTERIA_DEATH: "b", EventKind.CONTAMINATION: "i",
    EventKind.TRANSPORT_OUT: "b", EventKind.TRANSPORT_IN: "b",
}


def count_form_rate(state, params, scaling, kind, j):
    """Propensity of one event at site j, as the module docstring's table
    writes it in count form."""
    s, i, r, b = (float(row[j]) for row in state.counts)
    p, tc = params, params.transport
    return {
        EventKind.BIRTH_FROM_S: p.mu * s, EventKind.BIRTH_FROM_I: p.mu * i,
        EventKind.BIRTH_FROM_R: p.mu * r, EventKind.DEATH_S: p.mu * s,
        EventKind.INFECTION: p.beta * s * b / (scaling.k + b),
        EventKind.DEATH_I_NATURAL: p.mu * i, EventKind.DEATH_I_CHOLERA: p.alpha * i,
        EventKind.RECOVERY: p.gamma * i, EventKind.DEATH_R: p.mu * r,
        EventKind.IMMUNITY_LOSS: p.rho * r, EventKind.BACTERIA_DEATH: p.mu_b * b,
        EventKind.CONTAMINATION: p.p_over_w * i,
        EventKind.TRANSPORT_OUT: tc.ell * tc.p_out * b,
        EventKind.TRANSPORT_IN: tc.ell * tc.p_in * b,
    }[kind]


def test_reaction_table_literals_match_the_docstring_table():
    assert STOICHIOMETRY.shape == SOURCES.shape == (len(EventKind), 2, 3)
    for kind in EventKind:
        deltas = [("sirb"[c], off, d) for c, off, d in STOICHIOMETRY[kind].tolist() if d]
        assert deltas == list(EVENT_DELTAS[kind]), kind.name
        sources = [("sirb"[c], off, need) for c, off, need in SOURCES[kind].tolist() if need]
        assert sources == [(c, 0, 1) for c in EVENT_SOURCES[kind]], kind.name


# ---------------------------------------------------------------------------
# Rates

def test_empty_site_has_all_rates_zero():
    params = make_params()
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.zeros(4, int) for _ in range(4)))
    assert np.array_equal(all_rates(state, params, scaling), np.zeros((len(EventKind), 4)))


def test_infection_rate_zero_without_bacteria():
    params = make_params()
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(
        np.full(4, 100), np.zeros(4, int), np.zeros(4, int), np.zeros(4, int)
    )
    assert all_rates(state, params, scaling)[EventKind.INFECTION, 0] == 0.0


def test_infection_rate_matches_rescaled_form():
    # With s = H and b = K the count form beta*s*b/(K+b) and the rescaled
    # form H*beta*(u_B/(1+u_B))*u_S both evaluate to beta*H/2.
    h, k = 40, 70
    params = make_params()
    scaling = ScalingParams(4, h, k)
    state = SystemState.from_counts(
        np.full(4, h), np.zeros(4, int), np.zeros(4, int), np.full(4, k)
    )
    count_form = all_rates(state, params, scaling)[EventKind.INFECTION, 2]
    u_s, u_b = 1.0, 1.0
    rescaled_form = h * params.beta * (u_b / (1.0 + u_b)) * u_s
    assert count_form == pytest.approx(params.beta * h / 2)
    assert count_form == pytest.approx(rescaled_form, rel=1e-14)


def test_all_rates_matches_scalar_rates():
    rng = np.random.default_rng(3)
    params = make_params()
    scaling = ScalingParams(4, 30, 50)
    for _ in range(10):
        state = SystemState.from_counts(*(rng.integers(0, 200, 4) for _ in range(4)))
        table = all_rates(state, params, scaling)
        for kind in EventKind:
            for j in range(4):
                assert table[kind, j] == pytest.approx(
                    count_form_rate(state, params, scaling, kind, j), rel=1e-14
                )


def test_rates_reject_mismatched_lattice():
    params = make_params(n=4)
    with pytest.raises(ValueError):
        all_rates(uniform_state(6), params, ScalingParams(6, 10, 10))


# ---------------------------------------------------------------------------
# apply_event bookkeeping

def test_apply_event_deltas_for_every_kind():
    n = 5
    state = uniform_state(n)
    for kind, deltas in EVENT_DELTAS.items():
        out = apply_event(state, kind, 1)
        expected = state.counts.copy()
        for comp, off, d in deltas:
            expected["sirb".index(comp), (1 + off) % n] += d
        assert np.array_equal(out.counts, expected), kind
        # conservation: transports move bacteria, contamination/death change
        # the total by one, human events never touch bacteria
        db = out.counts[3].sum() - state.counts[3].sum()
        if kind in (EventKind.TRANSPORT_OUT, EventKind.TRANSPORT_IN):
            assert db == 0
        elif kind == EventKind.CONTAMINATION:
            assert db == 1
        elif kind == EventKind.BACTERIA_DEATH:
            assert db == -1
        else:
            assert db == 0
        # humans change by at most one individual in total
        dh = out.counts[:3].sum() - state.counts[:3].sum()
        assert dh in (-1, 0, 1)


def test_infection_preserves_site_population():
    state = uniform_state(4)
    out = apply_event(state, EventKind.INFECTION, 2)
    total_before = state.counts[:3, 2].sum()
    total_after = out.counts[:3, 2].sum()
    assert total_after == total_before


def test_transport_wraps_around():
    state = uniform_state(4)
    out = apply_event(state, EventKind.TRANSPORT_OUT, 3)
    assert out.counts[3, 3] == state.counts[3, 3] - 1
    assert out.counts[3, 0] == state.counts[3, 0] + 1
    out = apply_event(state, EventKind.TRANSPORT_IN, 0)
    assert out.counts[3, 0] == state.counts[3, 0] - 1
    assert out.counts[3, 3] == state.counts[3, 3] + 1


def test_apply_event_is_pure():
    state = uniform_state(4)
    before = state.counts.copy()
    apply_event(state, EventKind.BACTERIA_DEATH, 0)
    assert np.array_equal(state.counts, before)


def test_apply_event_rejects_empty_source():
    state = SystemState.from_counts(
        np.full(4, 5), np.zeros(4, int), np.zeros(4, int), np.zeros(4, int)
    )
    with pytest.raises(ValueError, match="BACTERIA_DEATH"):
        apply_event(state, EventKind.BACTERIA_DEATH, 1)
    with pytest.raises(ValueError, match="INFECTION"):
        apply_event(state, EventKind.INFECTION, 0)


@pytest.mark.parametrize("site", [4, -1])
def test_apply_event_rejects_a_site_off_the_lattice(site):
    # the replay refuses the same event, so no event wraps onto the lattice
    state = SystemState.from_counts(*(np.full(4, 5) for _ in range(4)))
    with pytest.raises(ValueError, match=f"event site {site} outside lattice of 4 sites"):
        apply_event(state, EventKind.DEATH_S, site)


# ---------------------------------------------------------------------------
# step_ssa

def test_step_ssa_absorbing_state():
    params = make_params()
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.zeros(4, int) for _ in range(4)))
    event, wait = step_ssa(state, params, scaling, replica_rng(1))
    assert event is None
    assert wait == math.inf


def test_step_ssa_category_frequencies():
    # One bacterium, no humans: only death and the two transports can fire,
    # with probabilities proportional to (mu_b, ell*p_out, ell*p_in).
    params = make_params(n=3, mu_b=0.9, ell=1.4, p_out=0.65)
    scaling = ScalingParams(3, 10, 10)
    state = SystemState.from_counts(
        np.zeros(3, int), np.zeros(3, int), np.zeros(3, int),
        np.array([1, 0, 0])
    )
    rates = {
        EventKind.BACTERIA_DEATH: 0.9,
        EventKind.TRANSPORT_OUT: 1.4 * 0.65,
        EventKind.TRANSPORT_IN: 1.4 * 0.35,
    }
    total = sum(rates.values())
    rng = replica_rng(202408)
    draws = 100_000
    counts = {k: 0 for k in rates}
    for _ in range(draws):
        (kind, site), _ = step_ssa(state, params, scaling, rng)
        assert site == 0
        counts[kind] += 1
    # Pearson chi-square against the exact probabilities; 13.8155 is the
    # 99.9% point of chi-square with 2 degrees of freedom.
    stat = sum(
        (counts[k] - draws * rates[k] / total) ** 2 / (draws * rates[k] / total)
        for k in rates
    )
    assert stat < 13.8155


def test_step_ssa_event_frequencies_match_all_rates():
    # Non-uniform counts, a live infection rate and empty compartments:
    # every (kind, site) pair fires in proportion to its all_rates entry,
    # and a pair whose rate is zero never fires.
    params = make_params(n=4)
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts([9, 0, 4, 2], [2, 3, 0, 1], [0, 2, 1, 0], [5, 1, 0, 7])
    rates = all_rates(state, params, scaling)
    live = rates > 0
    assert live[EventKind.INFECTION].any() and not live.all()
    rng = replica_rng(4096)
    draws = 60_000
    counts = np.zeros_like(rates)
    for _ in range(draws):
        (kind, site), _ = step_ssa(state, params, scaling, rng)
        counts[kind, site] += 1
    assert not counts[~live].any()
    expected = draws * rates[live] / rates.sum()
    assert expected.min() >= 5
    stat = float(((counts[live] - expected) ** 2 / expected).sum())
    # 99.9% point of chi-square with df degrees of freedom (Wilson-Hilferty).
    df = int(live.sum()) - 1
    bound = df * (1 - 2 / (9 * df) + 3.0902 * math.sqrt(2 / (9 * df))) ** 3
    assert stat < bound


TOP_UNIFORM = 1 - 2**-53  # the largest double random() can return


class Uniforms:
    """A generator stand-in whose random() cycles through fixed values."""

    def __init__(self, *values):
        self.values = values
        self.drawn = 0

    def random(self, size=None):
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        self.drawn += 1
        return self.values[(self.drawn - 1) % len(self.values)]


def test_step_ssa_top_uniform_selects_a_live_event():
    # The selection point at the top of the cumsum, with empty sites after
    # the last live one: the event is one with a positive rate there.
    params = make_params(n=5)
    scaling = ScalingParams(5, 10, 10)
    state = SystemState.from_counts([9, 3, 4, 0, 0], [2, 0, 1, 0, 0],
                                    [0, 2, 0, 0, 0], [5, 1, 7, 0, 0])
    (kind, site), _ = step_ssa(state, params, scaling, Uniforms(TOP_UNIFORM))
    assert site == 2
    assert all_rates(state, params, scaling)[kind, site] > 0


@pytest.mark.parametrize("engine", ["step_ssa", "simulate_ssa"])
def test_selection_fallbacks_at_a_subnormal_total(engine, monkeypatch):
    # One bacterium at site 1 dying at the least subnormal rate: the top
    # uniform times the total rounds to the total itself, so the point lies
    # past the last site boundary (site fallback) and its residual equals
    # the site's only rate (kind fallback).  The first wait is 0; a second
    # event, which a wrong selection could allow, would wait forever.
    tiny = 5e-324
    assert TOP_UNIFORM * tiny == tiny
    params = make_params(n=3, mu=0, alpha=0, gamma=0, rho=0, beta=0, p_over_w=0,
                         mu_b=tiny, ell=0.0)
    scaling = ScalingParams(3, 10, 10)
    zeros = np.zeros(3, int)
    state = SystemState.from_counts(zeros, zeros, zeros, [0, 1, 0])
    uniforms = Uniforms(0.0, TOP_UNIFORM, TOP_UNIFORM, TOP_UNIFORM)
    if engine == "step_ssa":
        event, wait = step_ssa(state, params, scaling, uniforms)
        assert wait == 0.0 and uniforms.drawn == 2
    else:
        monkeypatch.setattr(stochastic, "replica_rng", lambda seed, stream=0: uniforms)
        traj = simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling, seed=0,
                            record_events=True)
        assert len(traj.event_log) == 1 and not traj.final.counts[3].any()
        assert traj.stats["events_by_kind"] == [0] * 10 + [1] + [0] * 3
        event = next(zip(traj.event_log.kinds, traj.event_log.sites))
    assert event == (EventKind.BACTERIA_DEATH, 1)


@pytest.mark.parametrize("engine", ["step_ssa", "simulate_ssa"])
def test_transport_fallback_wraps_around(engine, monkeypatch):
    # One bacterium at site 0 hopping to site -1 at the least subnormal rate,
    # the only live kind: both fallbacks select the last kind, a transport,
    # and its hop wraps to site 2.  A second event would wait forever.
    tiny = 5e-324
    params = make_params(n=3, mu=0, alpha=0, gamma=0, rho=0, beta=0, p_over_w=0,
                         mu_b=0, ell=tiny, p_out=0.0)
    scaling = ScalingParams(3, 10, 10)
    zeros = np.zeros(3, int)
    state = SystemState.from_counts(zeros, zeros, zeros, [1, 0, 0])
    uniforms = Uniforms(0.0, TOP_UNIFORM, TOP_UNIFORM, TOP_UNIFORM)
    if engine == "step_ssa":
        event, wait = step_ssa(state, params, scaling, uniforms)
        assert wait == 0.0 and uniforms.drawn == 2
        final = apply_event(state, *event)
        assert step_ssa(final, params, scaling, uniforms)[1] == math.inf
    else:
        monkeypatch.setattr(stochastic, "replica_rng", lambda seed, stream=0: uniforms)
        traj = simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling, seed=0,
                            record_events=True)
        assert len(traj.event_log) == 1
        event = next(zip(traj.event_log.kinds, traj.event_log.sites))
        final = traj.final
    assert event == (EventKind.TRANSPORT_IN, 0)
    assert final.counts[3].tolist() == [0, 0, 1]


def test_step_ssa_mean_waiting_time():
    params = make_params()
    scaling = ScalingParams(4, 20, 20)
    state = uniform_state(4)
    total = float(all_rates(state, params, scaling).sum())
    rng = replica_rng(7)
    draws = 10_000
    waits = np.array([step_ssa(state, params, scaling, rng)[1] for _ in range(draws)])
    # exponential: sd equals the mean, so a 3-sigma band is 3 mean / sqrt(n)
    assert abs(waits.mean() - 1.0 / total) <= 3.0 / (total * math.sqrt(draws))


# ---------------------------------------------------------------------------
# simulate_ssa

def test_simulate_horizon_zero_returns_initial():
    params = make_params()
    scaling = ScalingParams(4, 10, 10)
    state = uniform_state(4)
    traj = simulate_ssa(state, 0.0, [0.0], params, scaling, seed=5)
    assert len(traj.states) == 1
    assert traj.states[0] == state


def test_simulate_all_rates_zero_is_constant():
    params = EpidemicParams(
        mu=0, alpha=0, gamma=0, rho=0, beta=0, p_over_w=0, mu_b=0,
        transport=TransportCoefficients(0.0, 0.5, 4),
    )
    scaling = ScalingParams(4, 10, 10)
    state = uniform_state(4)
    traj = simulate_ssa(state, 2.0, np.linspace(0, 2, 5), params, scaling, seed=5,
                        record_events=True)
    assert len(traj.states) == 5
    assert all(st == state for st in traj.states)
    log = traj.event_log
    assert [(a.shape, a.dtype) for a in (log.times, log.kinds, log.sites)] == [
        ((0,), np.float64), ((0,), np.uint8), ((0,), np.uint32)]


def test_simulate_pure_death_matches_exponential_decay():
    # One site loaded with K bacteria, only death active: the mean rescaled
    # density at time t is exp(-mu_b t) (linear death process).
    k = 50
    t = 0.5
    params = make_params(mu=0, alpha=0, gamma=0, rho=0, beta=0, p_over_w=0,
                         mu_b=1.0, ell=0.0, n=3)
    scaling = ScalingParams(3, 1, k)
    state = SystemState.from_counts(
        np.zeros(3, int), np.zeros(3, int), np.zeros(3, int),
        np.array([k, 0, 0]),
    )
    vals = []
    for rep in range(1000):
        traj = simulate_ssa(state, t, [0.0, t], params, scaling, seed=11, stream=rep)
        vals.append(traj.final.counts[3, 0] / k)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - math.exp(-t)) <= 3 * se


def test_simulate_reproducible_and_streams_independent():
    params = make_params()
    scaling = ScalingParams(4, 50, 50)
    state = uniform_state(4, s=40, i=5, r=2, b=25)
    a = simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling, seed=9, record_events=True)
    b = simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling, seed=9, record_events=True)
    c = simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling, seed=9, stream=1,
                     record_events=True)
    assert a.event_log == b.event_log
    assert a.final == b.final
    assert a.event_log != c.event_log


def test_replica_rng_rejects_seeds_outside_64_bits():
    # a masked seed would draw a smaller seed's stream
    for seed in (2**64, 2**64 + 5, -1):
        with pytest.raises(ValueError, match="seed"):
            replica_rng(seed)
    top = replica_rng(2**64 - 1).random(4)
    assert not np.array_equal(top, replica_rng(0).random(4))


def test_simulate_matches_manual_step_loop():
    # Iterating step_ssa + apply_event on the same stream reproduces the
    # engine's terminal state exactly.
    params = make_params()
    scaling = ScalingParams(4, 30, 30)
    state0 = uniform_state(4, s=27, i=3, r=0, b=15)
    horizon = 0.7
    traj = simulate_ssa(state0, horizon, [0.0, horizon], params, scaling,
                        seed=123, stream=4)
    rng = replica_rng(123, 4)
    state, t = state0, 0.0
    while True:
        event, wait = step_ssa(state, params, scaling, rng)
        if event is None or t + wait > horizon:
            break
        t += wait
        state = apply_event(state, *event)
    assert state == traj.final


# Pinned event logs of the two shapes below: the sha256 of times, kinds,
# sites and every snapshot's counts.  They fix the draw order (the one
# RNG_ALGORITHM names) and the floating-point operations of the engine, not
# only where it ends up.
GOLDEN_EVENT_LOG_SHA256 = (
    "96aa008774bd33a11d331951bdcc32eeb0e612449d8703c0edc2f723985c4447"
)
GOLDEN_ABSORBED_LOG_SHA256 = (
    "18c1baaffeb1579b80d980eb5431afa20aafef6739090a05dd46e387d7dbdd85"
)


def wrapping_run_args():
    """n = 16 with heavy reservoirs at sites 0 and n - 1, so transport wraps
    around both ends of the lattice."""
    n = 16
    b = np.full(n, 4)
    b[0] = b[-1] = 20
    state = SystemState.from_counts(np.full(n, 18), np.full(n, 2), np.zeros(n, int), b)
    return (state, 1.0, np.linspace(0, 1, 6), make_params(n=n, p_out=0.6),
            ScalingParams(n, 20, 20), 2024, 3)


def wide_run_args():
    """Too many sites for the simulator's list path, so the numpy path runs;
    heavy reservoirs at sites 0 and n - 1 make transport wrap around both
    ends of the lattice."""
    n = stochastic._LIST_SITES + 16
    b = np.full(n, 2)
    b[0] = b[-1] = 20
    state = SystemState.from_counts(np.full(n, 6), np.full(n, 2), np.zeros(n, int), b)
    return (state, 1.0, np.linspace(0, 1, 5), make_params(n=n, p_out=0.5),
            ScalingParams(n, 10, 10), 7, 2)


def absorbed_run_args():
    """n = 3 with H = K = 2: on this stream every count reaches zero long
    before the horizon (t = 23.6 of 40)."""
    state = SystemState.from_counts([2, 1, 0], [1, 0, 1], [0, 1, 0], [1, 0, 2])
    return (state, 40.0, np.linspace(0, 40, 9), make_params(n=3),
            ScalingParams(3, 2, 2), 0, 1)


def crowded_run_args():
    """n = 5 with hundreds per compartment and coefficients that are not
    short binary fractions: over thousands of events, evaluating a site
    total in another order changes some of its bits."""
    rng = np.random.default_rng(5)
    state = SystemState.from_counts(*(rng.integers(100, 400, 5) for _ in range(4)))
    params = make_params(n=5, mu=0.1, alpha=1 / 3, gamma=0.7, rho=0.3, beta=2.9,
                         p_over_w=0.45, mu_b=1.1, ell=0.9, p_out=0.6)
    return (state, 0.5, np.linspace(0, 0.5, 3), params, ScalingParams(5, 300, 300), 8, 0)


def event_log_digest(traj):
    log = traj.event_log
    h = hashlib.sha256()
    h.update(log.times.astype("<f8").tobytes())
    h.update(log.kinds.astype("u1").tobytes())
    h.update(log.sites.astype("<u4").tobytes())
    for st in traj.states:
        h.update(st.counts.astype("<i8").tobytes())
    return h.hexdigest()


def manual_run(state, horizon, grid, params, scaling, seed, stream):
    """Iterate step_ssa + apply_event on the run's stream: (log, snapshots)."""
    rng = replica_rng(seed, stream)
    t = 0.0
    times, kinds, sites, snapshots = [], [], [], []
    k = 0
    while True:
        event, wait = step_ssa(state, params, scaling, rng)
        t_next = t + wait
        while k < len(grid) and grid[k] < t_next:
            snapshots.append(state)
            k += 1
        if event is None or t_next > horizon:
            break
        t = t_next
        state = apply_event(state, *event)
        kind, site = event
        times.append(t)
        kinds.append(int(kind))
        sites.append(site)
    log = EventLog(np.array(times), np.array(kinds, np.uint8), np.array(sites, np.uint32))
    return log, snapshots


def test_golden_event_log_with_wrapping_transport():
    state, horizon, grid, params, scaling, seed, stream = wrapping_run_args()
    traj = simulate_ssa(state, horizon, grid, params, scaling, seed=seed,
                        stream=stream, record_events=True)
    log = traj.event_log
    n = traj.final.n_sites
    assert np.any((log.kinds == EventKind.TRANSPORT_OUT) & (log.sites == n - 1))
    assert np.any((log.kinds == EventKind.TRANSPORT_IN) & (log.sites == 0))
    assert event_log_digest(traj) == GOLDEN_EVENT_LOG_SHA256


def test_golden_event_log_reaching_absorption():
    state, horizon, grid, params, scaling, seed, stream = absorbed_run_args()
    traj = simulate_ssa(state, horizon, grid, params, scaling, seed=seed,
                        stream=stream, record_events=True)
    assert traj.event_log.times[-1] < grid[-2]
    assert not np.any(traj.final.counts)
    assert traj.states[-1] == traj.states[-2]
    assert event_log_digest(traj) == GOLDEN_ABSORBED_LOG_SHA256


def logged_run(run_args):
    state, horizon, grid, params, scaling, seed, stream = run_args()
    return simulate_ssa(state, horizon, grid, params, scaling, seed=seed,
                        stream=stream, record_events=True)


EQUIVALENCE_SHAPES = [wrapping_run_args, absorbed_run_args, crowded_run_args,
                      wide_run_args]


@pytest.mark.parametrize("run_args", EQUIVALENCE_SHAPES)
def test_simulate_matches_manual_step_loop_event_by_event(run_args):
    traj = logged_run(run_args)
    log, snapshots = manual_run(*run_args())
    assert len(log) > 0
    assert traj.event_log == log
    assert traj.states == snapshots
    # the shapes together fire every kind, so each kind's step of the
    # generated event loop is checked against step_ssa + apply_event
    fired = {int(k) for shape in EQUIVALENCE_SHAPES for k in logged_run(shape).event_log.kinds}
    assert fired == set(range(len(EventKind)))


def test_reference_catches_the_shared_weights_mutant(monkeypatch):
    # A mutant engine whose A_r leaves out DEATH_R's mu: its site totals no
    # longer add up its rates.  A reference that read the engine's weights
    # would follow it event for event; one written from the contract parts
    # from it.
    engine_weights = stochastic._site_weights

    def mutant_weights(params):
        (a_s, a_i, _, a_b), beta = engine_weights(params)
        return (a_s, a_i, math.fsum((params.mu, params.rho)), a_b), beta

    for run_args in EQUIVALENCE_SHAPES:
        assert logged_run(run_args).event_log == manual_run(*run_args())[0]
    monkeypatch.setattr(stochastic, "_site_weights", mutant_weights)
    assert logged_run(crowded_run_args).event_log != manual_run(*crowded_run_args())[0]


def test_reference_imports_only_public_names():
    # the reference shares no private rate code with the engine it checks
    tree = ast.parse(Path(reference_ssa.__file__).read_text())
    from_package = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sirb_lattice"
        for alias in node.names
    }
    assert from_package <= {"EventKind", "SystemState", "EpidemicParams", "ScalingParams",
                            "replica_rng"}
    assert not any(
        isinstance(node, ast.Import) and alias.name.split(".")[0] == "sirb_lattice"
        for node in ast.walk(tree) for alias in getattr(node, "names", ())
    )


@pytest.mark.parametrize("run_args", [wrapping_run_args, absorbed_run_args])
def test_events_by_kind_counts_the_log(run_args):
    state, horizon, grid, params, scaling, seed, stream = run_args()
    recorded, unrecorded = (
        simulate_ssa(state, horizon, grid, params, scaling, seed=seed, stream=stream,
                     record_events=record)
        for record in (True, False)
    )
    by_kind = recorded.stats["events_by_kind"]
    assert len(by_kind) == len(EventKind)
    assert sum(by_kind) == recorded.stats["n_events"] == len(recorded.event_log)
    assert by_kind == np.bincount(recorded.event_log.kinds, minlength=14).tolist()
    assert unrecorded.stats["events_by_kind"] == by_kind


def test_simulate_counts_stay_nonnegative_and_on_grid():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(3, 6))
        params = make_params(
            n=n,
            mu=rng.uniform(0, 1.5), alpha=rng.uniform(0, 1.5),
            gamma=rng.uniform(0, 1.5), rho=rng.uniform(0, 1.5),
            beta=rng.uniform(0, 1.5), p_over_w=rng.uniform(0, 1.5),
            mu_b=rng.uniform(0, 1.5), ell=rng.uniform(0, 1.5),
            p_out=rng.uniform(0, 1),
        )
        scaling = ScalingParams(n, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        state = SystemState.from_counts(*(rng.integers(0, 30, n) for _ in range(4)))
        traj = simulate_ssa(state, 0.5, np.linspace(0, 0.5, 6), params, scaling,
                            seed=trial)
        for st in traj.states:
            assert st.counts.dtype == np.int64
            assert st.counts.min() >= 0


def test_simulate_rejects_bad_sample_grid():
    params = make_params()
    scaling = ScalingParams(4, 10, 10)
    state = uniform_state(4)
    with pytest.raises(ValueError):
        simulate_ssa(state, 1.0, [0.5, 1.0], params, scaling, seed=1)
    with pytest.raises(ValueError):
        simulate_ssa(state, 1.0, [0.0, 0.4, 0.4], params, scaling, seed=1)
    with pytest.raises(ValueError):
        simulate_ssa(state, 1.0, [0.0, 2.0], params, scaling, seed=1)


def test_simulate_rejects_a_lattice_that_does_not_match():
    state = uniform_state(4)
    with pytest.raises(ValueError, match="state has 4 sites but scaling expects 5"):
        simulate_ssa(state, 1.0, [0.0, 1.0], make_params(n=4), ScalingParams(5, 10, 10), seed=1)
    with pytest.raises(ValueError, match="transport built for n=5, state has n=4"):
        simulate_ssa(state, 1.0, [0.0, 1.0], make_params(n=5), ScalingParams(4, 10, 10), seed=1)


@pytest.mark.parametrize("n, h, k, message", [
    pytest.param(2, 10, 10, "n_sites must be an integer >= 3", id="n = 2"),
    pytest.param(4, 0, 10, "h must be an integer >= 1", id="h = 0"),
    pytest.param(4, 10, 10.0, "k must be an integer >= 1", id="float k"),
])
def test_scaling_params_rejects(n, h, k, message):
    with pytest.raises(ValueError, match=message):
        ScalingParams(n, h, k)


def test_simulate_keeps_counts_floats_hold_exactly():
    """The event loop holds counts as floats: just below 2**52 a count comes
    back exact, and from 2**52 on the run is refused."""
    params = EpidemicParams(
        mu=0, alpha=0, gamma=0, rho=0, beta=0, p_over_w=0, mu_b=0,
        transport=TransportCoefficients(0.0, 0.5, 4),
    )
    scaling = ScalingParams(4, 10, 10)
    counts = uniform_state(4).counts.copy()
    counts[3, 1] = 2**52 - 1
    traj = simulate_ssa(SystemState(counts), 1.0, [0.0, 1.0], params, scaling, seed=1)
    assert traj.final == SystemState(counts)
    counts[3, 1] = 2**52
    with pytest.raises(ValueError, match="2\\*\\*52"):
        simulate_ssa(SystemState(counts), 1.0, [0.0, 1.0], params, scaling, seed=1)


def test_nonfinite_parameters_rejected():
    with pytest.raises(ValueError):
        make_params(mu=math.nan)
    with pytest.raises(ValueError):
        make_params(beta=math.inf)
    with pytest.raises(ValueError):
        make_params(gamma=-0.1)


# ---------------------------------------------------------------------------
# SystemState construction

def test_from_counts_validation():
    with pytest.raises(ValueError):
        SystemState.from_counts(np.array([1, -2, 3]), np.zeros(3, int),
                                np.zeros(3, int), np.zeros(3, int))
    with pytest.raises(ValueError):
        SystemState.from_counts(np.array([1.5, 2.0, 3.0]), np.zeros(3, int),
                                np.zeros(3, int), np.zeros(3, int))
    with pytest.raises(ValueError):
        SystemState.from_counts(np.zeros(2, int), np.zeros(2, int),
                                np.zeros(2, int), np.zeros(2, int))
    with pytest.raises(ValueError, match="same shape"):
        SystemState.from_counts(np.zeros(3, int), np.zeros(4, int),
                                np.zeros(3, int), np.zeros(3, int))


def test_state_is_one_checked_count_array():
    with pytest.raises(ValueError, match=r"\(4, n\)"):
        SystemState(np.zeros((3, 5), dtype=np.int64))
    state = SystemState(np.full((4, 3), 2.0))
    assert state.counts.dtype == np.int64
    assert np.array_equal(state.counts, np.full((4, 3), 2))
    # states built from a trajectory's rows are checked too
    counts = np.full((1, 4, 3), 5, dtype=np.int64)
    counts[0, 1, 2] = -1
    traj = Trajectory(np.zeros(1), counts, event_log=None, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        traj.states[0]


def test_from_densities_rounds_to_nearest():
    scaling = ScalingParams(4, 10, 100)
    state = SystemState.from_densities(
        np.array([0.94, 0.05, 0.0, 0.26]), np.zeros(4), np.zeros(4),
        np.array([0.503, 0.0, 0.0, 0.0]), scaling,
    )
    assert np.array_equal(state.counts[0], [9, 0, 0, 3])  # 0.5 rounds to even
    assert state.counts[3, 0] == 50
    dens = state.rescaled(scaling)
    assert np.array_equal(dens[0] * scaling.h, np.rint(dens[0] * scaling.h))
