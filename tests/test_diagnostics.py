"""Drift/amplitude identities, martingale residuals, and the LLN ladder."""

import math

import numpy as np
import pytest

import closed_forms
from sirb_lattice import diagnostics
from sirb_lattice.deterministic import ReactionField, drift_field, integrate
from sirb_lattice.diagnostics import (
    FAMILIES,
    Sweep,
    lln_experiment,
    pass_fractions,
    pool_size,
    square_amplitudes,
    starting_point,
    sup_distance,
    sweep_log,
)
from sirb_lattice.io import replay_trajectory
from sirb_lattice.lattice import TransportCoefficients
from sirb_lattice.stochastic import (
    COMPARTMENTS,
    EpidemicParams,
    EventKind,
    EventLog,
    ScalingParams,
    SystemState,
    Trajectory,
    apply_event,
    simulate_ssa,
    uniform_grid,
)


def make_params(n=4, ell=0.5, p_out=0.7, **overrides):
    base = dict(mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2,
                p_over_w=0.8, mu_b=0.5)
    base.update(overrides)
    return EpidemicParams(transport=TransportCoefficients(ell, p_out, n), **base)


def random_state(rng, n, hi=300):
    return SystemState.from_counts(*(rng.integers(0, hi, n) for _ in range(4)))


def as_trajectory(states, grid, scaling):
    return Trajectory(sample_times=np.asarray(grid, dtype=float),
                      counts=np.stack([s.counts for s in states]), event_log=None, seed=0)


def as_det(states, scaling):
    """The densities of ``states`` as one (n_samples, 4, n) solution array."""
    return np.stack([s.rescaled(scaling) for s in states])


# ---------------------------------------------------------------------------
# sup_distance

def test_sup_distance_to_self_is_zero():
    scaling = ScalingParams(4, 10, 10)
    rng = np.random.default_rng(0)
    states = [random_state(rng, 4) for _ in range(3)]
    grid = [0.0, 0.5, 1.0]
    traj = as_trajectory(states, grid, scaling)
    det = as_det(states, scaling)
    assert sup_distance(traj, det, scaling) == 0.0


def test_sup_distance_detects_constant_shift():
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.full(4, 5) for _ in range(4)))
    traj = as_trajectory([state], [0.0], scaling)
    det = as_det([state], scaling)
    det[0, 2] += 0.25  # shift the R field
    assert sup_distance(traj, det, scaling) == pytest.approx(0.25)
    # restricting to other compartments ignores the shift
    assert sup_distance(traj, det, scaling, compartments=("S", "B")) == 0.0


def test_sup_distance_rejects_mismatched_grids():
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.full(4, 5) for _ in range(4)))
    traj = as_trajectory([state, state], [0.0, 1.0], scaling)
    det = as_det([state], scaling)
    with pytest.raises(ValueError):
        sup_distance(traj, det, scaling)
    with pytest.raises(ValueError, match="lattice sizes differ"):
        sup_distance(traj, np.zeros((2, 4, 5)), scaling)


def test_sup_distance_symmetry_and_triangle():
    scaling = ScalingParams(5, 20, 20)
    rng = np.random.default_rng(42)
    grid = [0.0, 1.0]
    triples = [[random_state(rng, 5) for _ in range(2)] for _ in range(3)]
    a, b, c = triples

    def dist(x, y):
        return sup_distance(as_trajectory(x, grid, scaling), as_det(y, scaling), scaling)

    assert dist(a, b) == pytest.approx(dist(b, a))
    assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


# ---------------------------------------------------------------------------
# The reaction table against the closed forms

def test_drift_event_form_equals_operator_form():
    rng = np.random.default_rng(11)
    params = make_params(n=6)
    scaling = ScalingParams(6, 40, 70)
    rf = ReactionField(params, hk_ratio=scaling.h / scaling.k)
    table_drift = drift_field(rf, 6)
    for _ in range(100):
        u = random_state(rng, 6).rescaled(scaling)
        brute = table_drift(u)
        closed = closed_forms.drift(u, rf, params.transport)
        assert np.allclose(brute, closed, rtol=1e-12, atol=1e-12)


def test_square_amplitudes_empty_state_zero():
    params = make_params()
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.zeros(4, int) for _ in range(4)))
    amps = square_amplitudes(state, params, scaling)
    assert amps.shape == (len(FAMILIES), 4)
    assert np.all(amps == 0.0)


def test_square_amplitudes_match_event_table():
    rng = np.random.default_rng(12)
    for trial in range(50):
        n = int(rng.integers(3, 7))
        params = make_params(
            n=n, mu=rng.uniform(0.05, 2), alpha=rng.uniform(0.05, 2),
            gamma=rng.uniform(0.05, 2), rho=rng.uniform(0.05, 2),
            beta=rng.uniform(0.05, 2), p_over_w=rng.uniform(0.05, 2),
            mu_b=rng.uniform(0.05, 2), ell=rng.uniform(0.05, 2),
            p_out=rng.uniform(0, 1),
        )
        scaling = ScalingParams(n, int(rng.integers(1, 500)), int(rng.integers(1, 500)))
        state = random_state(rng, n)
        closed = closed_forms.amplitudes(state.rescaled(scaling), params,
                                         scaling.h / scaling.k)
        brute = square_amplitudes(state, params, scaling)
        assert closed.shape == brute.shape == (len(FAMILIES), n)
        for fam, got, expected in zip(FAMILIES, closed, brute):
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), fam


def test_cross_terms_are_nonpositive():
    rng = np.random.default_rng(13)
    params = make_params(n=5)
    scaling = ScalingParams(5, 10, 10)
    state = random_state(rng, 5)
    amps = square_amplitudes(state, params, scaling)
    plus, minus = (amps[FAMILIES.index(f)] for f in ("B_cross_plus", "B_cross_minus"))
    assert np.all(plus <= 0.0)
    assert np.all(minus <= 0.0)
    # the rows named by FAMILIES hold the hop pairs (j, j+1) and (j, j-1)
    tc = params.transport
    b = state.rescaled(scaling)[3]
    assert np.allclose(plus, -tc.ell * (tc.p_out * b + tc.p_in * np.roll(b, -1)))
    assert np.allclose(minus, -tc.ell * (tc.p_in * b + tc.p_out * np.roll(b, 1)))


# ---------------------------------------------------------------------------
# Martingale residuals

def stacked_sweeps(trajs, params, scaling) -> Sweep:
    return Sweep.stack([sweep_log(t, params, scaling) for t in trajs])


def test_residual_zero_rate_system_is_identically_zero():
    params = EpidemicParams(
        mu=0, alpha=0, gamma=0, rho=0, beta=0, p_over_w=0, mu_b=0,
        transport=TransportCoefficients(0.0, 0.5, 4),
    )
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.full(4, 7) for _ in range(4)))
    traj = simulate_ssa(state, 1.0, np.linspace(0, 1, 5), params, scaling,
                        seed=1, record_events=True)
    assert np.all(sweep_log(traj, params, scaling).z == 0.0)


def test_residual_requires_event_log():
    params = make_params()
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.full(4, 7) for _ in range(4)))
    traj = simulate_ssa(state, 0.5, [0.0, 0.5], params, scaling, seed=1)
    with pytest.raises(ValueError, match="event log"):
        sweep_log(traj, params, scaling)


def test_residual_single_event_hand_path():
    # One bacteria death at t1 = 0.4 with mu_b = 0.5, K = 10, u_B(0) = 2:
    # Z_B climbs at rate mu_b * u_B between events and drops by 1/K at the
    # jump (right-continuous sampling at the jump time).
    k = 10
    mu_b = 0.5
    params = make_params(n=3, mu=0, alpha=0, gamma=0, rho=0, beta=0,
                         p_over_w=0, mu_b=mu_b, ell=0.0)
    scaling = ScalingParams(3, 1, k)
    initial = SystemState.from_counts(
        np.zeros(3, int), np.zeros(3, int), np.zeros(3, int),
        np.array([20, 0, 0]),
    )
    t1 = 0.4
    log = EventLog(times=np.array([t1]),
                   kinds=np.array([int(EventKind.BACTERIA_DEATH)], dtype=np.uint8),
                   sites=np.array([0], dtype=np.uint32))
    grid = np.array([0.0, 0.2, 0.4, 0.5, 1.0])
    counts = np.stack([state.counts for state in replay_trajectory(initial, log, grid)])
    traj = Trajectory(sample_times=grid, counts=counts, event_log=log, seed=0)
    z = sweep_log(traj, params, scaling).z
    u0, u1 = 2.0, 1.9
    expected = np.array([
        0.0,
        mu_b * u0 * 0.2,                                   # drift only
        (u1 - u0) + mu_b * u0 * 0.4,                       # jump at the sample
        (u1 - u0) + mu_b * (u0 * 0.4 + u1 * 0.1),
        (u1 - u0) + mu_b * (u0 * 0.4 + u1 * 0.6),
    ])
    z_b = z[:, COMPARTMENTS.index("B")]
    assert np.allclose(z_b[:, 0], expected, rtol=1e-12, atol=1e-14)
    assert np.all(z_b[:, 1:] == 0.0)
    assert np.all(z[:, COMPARTMENTS.index("S")] == 0.0)


def test_residual_mean_zero_across_replicas():
    params = make_params(n=3)
    scaling = ScalingParams(3, 50, 50)
    state = SystemState.from_counts(
        np.full(3, 45), np.full(3, 5), np.zeros(3, int), np.full(3, 25)
    )
    grid = np.linspace(0, 0.5, 6)
    reps = 100
    trajs = [simulate_ssa(state, 0.5, grid, params, scaling, seed=77, stream=r,
                          record_events=True) for r in range(reps)]
    z = stacked_sweeps(trajs, params, scaling).z
    for frac in pass_fractions(z, COMPARTMENTS, sigma=3.0).values():
        assert frac >= 0.9


# ---------------------------------------------------------------------------
# The sweep against a per-event reference

def reference_sweep(traj, params, scaling):
    """Event-by-event sweep: apply_event for the counts, the closed forms
    of ``closed_forms`` for the integrands, and the observed jump products
    taken from each event's count change, each written to the row its name
    has in FAMILIES."""
    h, k = float(scaling.h), float(scaling.k)
    renorm = np.array([k if f.startswith("B") else h for f in FAMILIES])[:, None]
    squares = [FAMILIES.index(c) for c in COMPARTMENTS]
    plus, minus = FAMILIES.index("B_cross_plus"), FAMILIES.index("B_cross_minus")

    rf = ReactionField(params, hk_ratio=scaling.h / scaling.k)

    def integrands(state):
        u = state.rescaled(scaling)
        amp = closed_forms.amplitudes(u, params, rf.hk_ratio)
        return closed_forms.drift(u, rf, params.transport), amp / renorm

    state, t = traj.initial, 0.0
    u0 = state.rescaled(scaling)
    int_drift = np.zeros((4, state.n_sites))
    int_amp = np.zeros((6, state.n_sites))
    jumps = np.zeros((6, state.n_sites))
    log = traj.event_log
    events = list(zip(log.times, log.kinds, log.sites))
    e = 0
    z_out, obs_out, pred_out = [], [], []
    for g in traj.sample_times:
        while e < len(events) and events[e][0] <= g:
            t_event, kind, site = events[e]
            drift, amp = integrands(state)
            int_drift += drift * (t_event - t)
            int_amp += amp * (t_event - t)
            new = apply_event(state, kind, site)
            du = new.counts - state.counts
            db = du[COMPARTMENTS.index("B")]
            jumps[squares] += du**2
            jumps[plus] += db * np.roll(db, -1)
            jumps[minus] += db * np.roll(db, 1)
            state, t, e = new, t_event, e + 1
        drift, amp = integrands(state)
        z_out.append(state.rescaled(scaling) - u0 - (int_drift + drift * (g - t)))
        obs_out.append(jumps / renorm**2)
        pred_out.append(int_amp + amp * (g - t))
    return np.stack(z_out), np.stack(obs_out), np.stack(pred_out)


def test_sweep_matches_per_event_reference(monkeypatch):
    rng = np.random.default_rng(21)
    n = 3
    chunk = 7
    monkeypatch.setattr(diagnostics, "_SWEEP_CHUNK", chunk)
    for trial in range(4):
        params = make_params(
            n=n, mu=rng.uniform(0.1, 1), alpha=rng.uniform(0.1, 1),
            gamma=rng.uniform(0.1, 1), rho=rng.uniform(0.1, 1),
            beta=rng.uniform(0.5, 2), p_over_w=rng.uniform(0.1, 1),
            mu_b=rng.uniform(0.1, 1), ell=rng.uniform(0.5, 2), p_out=rng.uniform(0, 1),
        )
        scaling = ScalingParams(n, int(rng.integers(20, 60)), int(rng.integers(20, 60)))
        state = random_state(rng, n, hi=60)
        horizon = 1.5
        trajs = [simulate_ssa(state, horizon, [0.0, horizon], params, scaling,
                              seed=trial, stream=r, record_events=True) for r in range(2)]
        log = trajs[0].event_log
        assert len(log) > 2 * chunk  # spans several chunks
        # sample times include one event time exactly, and the grid stops
        # well before the horizon, so later events must be ignored
        grid = np.sort(np.append(rng.uniform(0.0, 1.0, 6), [0.0, log.times[len(log) // 3]]))
        assert log.times[-1] > grid[-1]
        empty = EventLog(np.empty(0), np.empty(0, dtype=np.uint8),
                         np.empty(0, dtype=np.uint32))
        replicas = [Trajectory(grid, t.counts[:1], t.event_log, seed=0) for t in trajs]
        replicas.append(Trajectory(grid, state.counts[None], empty, seed=0))
        sweeps = [sweep_log(traj, params, scaling) for traj in replicas]
        stacked = Sweep.stack(sweeps)
        assert stacked.observed.shape == (len(replicas), grid.size, len(FAMILIES), n)
        assert stacked.z.shape == (len(replicas), grid.size, len(COMPARTMENTS), n)
        # field by field np.stack of the replicas' sweeps, replicas first
        for name, stack in zip(Sweep._fields, stacked):
            np.testing.assert_array_equal(stack, np.stack([getattr(s, name) for s in sweeps]))
        for r, traj in enumerate(replicas):
            z_ref, obs_ref, pred_ref = reference_sweep(traj, params, scaling)
            assert np.all(stacked.z[r, 0] == 0.0)
            np.testing.assert_allclose(stacked.z[r], z_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(stacked.observed[r], obs_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(stacked.predicted[r], pred_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, ell", [(64, 3.0), (256, 12.0)], ids=["n=64", "n=256"])
def test_sweep_matches_per_event_reference_on_a_wide_lattice(monkeypatch, n, ell):
    # n = 64, and the roundtrip workload's n = 256, with a handful of
    # individuals per site: the log spans many chunks of a dozen events, and
    # bacteria hop across the periodic boundary both ways (at n = 256 at a
    # hop rate four times as high, so that the sampled log holds both ways).
    chunk = 12
    monkeypatch.setattr(diagnostics, "_SWEEP_CHUNK", chunk)
    rng = np.random.default_rng(22)
    params = make_params(n=n, ell=ell, p_out=0.6)
    scaling = ScalingParams(n, 3, 2)
    state = SystemState.from_counts(*(rng.integers(0, 4, n) for _ in range(4)))
    grid = np.array([0.0, 0.05, 0.1, 0.2, 0.3])
    traj = simulate_ssa(state, 0.4, grid, params, scaling, seed=8, record_events=True)
    log = traj.event_log
    sampled = log.times <= grid[-1]
    assert sampled.sum() > 10 * chunk
    kinds, sites = log.kinds[sampled], log.sites[sampled]
    assert np.any((kinds == EventKind.TRANSPORT_OUT) & (sites == n - 1))
    assert np.any((kinds == EventKind.TRANSPORT_IN) & (sites == 0))

    z_ref, obs_ref, pred_ref = reference_sweep(traj, params, scaling)
    sweep = diagnostics.sweep_log(traj, params, scaling)
    assert np.all(sweep.z[0] == 0.0)
    np.testing.assert_allclose(sweep.z, z_ref, rtol=1e-12, atol=1e-12)
    assert sweep.observed.shape == sweep.predicted.shape == (grid.size, len(FAMILIES), n)
    np.testing.assert_allclose(sweep.observed, obs_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sweep.predicted, pred_ref, rtol=1e-12, atol=1e-12)


def test_sweep_does_not_depend_on_the_chunk_size(monkeypatch):
    n = 5
    rng = np.random.default_rng(23)
    params = make_params(n=n)
    scaling = ScalingParams(n, 80, 100)
    state = random_state(rng, n, hi=150)
    traj = simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling, seed=9, record_events=True)
    log = traj.event_log
    assert len(log) > 2 * diagnostics._SWEEP_CHUNK
    # one sample exactly at an event, and events after the last sample
    grid = np.sort(np.append(rng.uniform(0.0, 0.9, 5), [0.0, log.times[len(log) // 2]]))
    traj = Trajectory(grid, state.counts[None], log, seed=0)
    default = diagnostics.sweep_log(traj, params, scaling)
    for chunk in (1, len(log)):  # one event per chunk, then the whole log in one
        monkeypatch.setattr(diagnostics, "_SWEEP_CHUNK", chunk)
        sweep = diagnostics.sweep_log(traj, params, scaling)
        np.testing.assert_allclose(sweep.z, default.z, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(sweep.observed, default.observed)
        np.testing.assert_allclose(sweep.predicted, default.predicted, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Compensators

def test_compensator_zero_rate_system():
    params = EpidemicParams(
        mu=0, alpha=0, gamma=0, rho=0, beta=0, p_over_w=0, mu_b=0,
        transport=TransportCoefficients(0.0, 0.5, 4),
    )
    scaling = ScalingParams(4, 10, 10)
    state = SystemState.from_counts(*(np.full(4, 7) for _ in range(4)))
    trajs = [simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling, seed=1,
                          stream=r, record_events=True) for r in range(3)]
    check = stacked_sweeps(trajs, params, scaling)
    assert np.all(check.observed == 0.0)
    assert np.all(check.predicted == 0.0)


def test_compensator_pure_death_analytic_mean():
    # Linear death: E[observed](t) = (1 - exp(-mu_b t)) / K and the
    # compensated residual is mean zero.
    k = 40
    mu_b = 1.0
    t_end = 0.5
    params = make_params(n=3, mu=0, alpha=0, gamma=0, rho=0, beta=0,
                         p_over_w=0, mu_b=mu_b, ell=0.0)
    scaling = ScalingParams(3, 1, k)
    state = SystemState.from_counts(
        np.zeros(3, int), np.zeros(3, int), np.zeros(3, int),
        np.array([k, 0, 0]),
    )
    reps = 200
    trajs = [simulate_ssa(state, t_end, [0.0, t_end], params, scaling, seed=5,
                          stream=r, record_events=True) for r in range(reps)]
    check = stacked_sweeps(trajs, params, scaling)
    observed = check.observed[:, -1, FAMILIES.index("B"), 0]
    expected_mean = (1.0 - math.exp(-mu_b * t_end)) / k
    se = observed.std(ddof=1) / math.sqrt(reps)
    assert abs(observed.mean() - expected_mean) <= 4 * se
    assert pass_fractions(check.observed - check.predicted, FAMILIES, sigma=4.0)["B"] >= 0.9


def test_compensator_pure_transport_cross_terms():
    # Only hops active: simultaneous opposite jumps make the observed cross
    # sums negative, matching the compensator in replica mean.
    k = 30
    params = make_params(n=3, mu=0, alpha=0, gamma=0, rho=0, beta=0,
                         p_over_w=0, mu_b=0.0, ell=1.5, p_out=0.7)
    scaling = ScalingParams(3, 1, k)
    state = SystemState.from_counts(
        np.zeros(3, int), np.zeros(3, int), np.zeros(3, int),
        np.full(3, k),
    )
    reps = 150
    trajs = [simulate_ssa(state, 0.4, [0.0, 0.2, 0.4], params, scaling, seed=6,
                          stream=r, record_events=True) for r in range(reps)]
    check = stacked_sweeps(trajs, params, scaling)
    fractions = pass_fractions(check.observed - check.predicted, FAMILIES, sigma=4.0)
    for fam in ("B_cross_plus", "B_cross_minus"):
        assert np.all(check.observed[:, :, FAMILIES.index(fam)] <= 0.0)
        assert np.all(check.predicted[:, :, FAMILIES.index(fam)] <= 0.0)
        assert fractions[fam] >= 0.9
    # total bacteria conserved: every event is a hop
    for traj in trajs:
        assert traj.final.counts[3].sum() == 3 * k


def test_compensator_square_families_nondecreasing_in_time():
    params = make_params(n=3)
    scaling = ScalingParams(3, 30, 30)
    state = SystemState.from_counts(
        np.full(3, 25), np.full(3, 5), np.zeros(3, int), np.full(3, 15)
    )
    trajs = [simulate_ssa(state, 1.0, np.linspace(0, 1, 6), params, scaling,
                          seed=8, stream=r, record_events=True) for r in range(5)]
    check = stacked_sweeps(trajs, params, scaling)
    squares = [FAMILIES.index(c) for c in COMPARTMENTS]
    assert np.all(np.diff(check.observed[:, :, squares], axis=1) >= 0.0)
    assert np.all(np.diff(check.predicted[:, :, squares], axis=1) >= -1e-15)


def test_mean_zero_pass_fraction_conventions():
    samples = np.zeros((10, 1, 1, 3))
    assert pass_fractions(samples, ["a"]) == {"a": 1.0}  # zero variance, zero mean
    samples = np.ones((10, 1, 1, 3))
    assert pass_fractions(samples, ["a"]) == {"a": 0.0}  # zero variance, mean off
    with pytest.raises(ValueError):
        pass_fractions(np.zeros((1, 1, 1, 3)), ["a"])

    # one fraction per row of axis 2, keyed by the names
    samples = np.zeros((10, 2, 3, 4))
    samples[:, :, 1] = 1.0  # zero spread, nonzero mean: every cell fails
    samples[:, 1, 2, :2] = 2.0  # zero spread again: half of row c fails
    assert pass_fractions(samples, ["a", "b", "c"]) == {"a": 1.0, "b": 0.0, "c": 0.75}
    samples[::2, :, 1] = -1.0  # now spread around a zero mean: every cell passes
    assert pass_fractions(samples, ("a", "b", "c"), sigma=1.0)["b"] == 1.0
    with pytest.raises(ValueError, match="3 rows"):
        pass_fractions(samples, COMPARTMENTS)


# ---------------------------------------------------------------------------
# LLN ladder

def initial_profiles():
    return [
        lambda x: 0.9 + 0.05 * np.sin(2 * np.pi * np.asarray(x, dtype=float)),
        lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
    ]


def test_lln_single_rung_report():
    params = make_params(n=4)
    report = lln_experiment([(4, 50, 50)], initial_profiles(), params,
                            horizon=0.3, replicas=3, seed=9, mode="theorem1",
                            n_samples=4)
    assert len(report.rungs) == 1
    rung = report.rungs[0]
    assert rung.distances.shape == (3,)
    assert np.all(rung.distances >= 0.0)
    assert rung.rounding_error <= 0.5 / 50 + 1e-12
    assert report.medians[0] == pytest.approx(np.median(rung.distances))


def test_lln_theorem2_measures_against_the_zero_ratio_system():
    # theorem 2's companion is the system at H/K = 0: each distance is the
    # bacteria-field sup distance of the replica on stream (rung << 32) + rep
    # to that solution
    params = make_params(n=4)
    ladder = [(4, 10, 1000), (6, 20, 4000)]
    horizon, grid = 0.3, uniform_grid(0.3, 4)
    report = lln_experiment(ladder, initial_profiles(), params, horizon=horizon,
                            replicas=2, seed=11, mode="theorem2", n_samples=4)
    for g, ((n, h, k), rung) in enumerate(zip(ladder, report.rungs)):
        scaling = ScalingParams(n, h, k)
        prm = params.with_lattice(n)
        state0, v0, _ = starting_point(initial_profiles(), scaling)
        det = integrate(v0, horizon, ReactionField(prm, 0.0), sample_times=grid)
        expected = [
            sup_distance(simulate_ssa(state0, horizon, grid, prm, scaling, 11,
                                      stream=(g << 32) + rep),
                         det, scaling, compartments=("B",))
            for rep in range(2)
        ]
        assert rung.distances.tolist() == expected


def test_ladder_quartiles_match_numpy_bit_for_bit():
    rng = np.random.default_rng(60)
    for size in range(1, 61):
        d = rng.exponential(size=size) * 10.0 ** rng.integers(-3, 3)
        d[: size // 4] = d[-1]  # ties
        rung = diagnostics.LadderRung(8, 10, 10, d, 0.0, 0)
        assert rung.median == float(np.median(d))
        assert rung.q25 == float(np.quantile(d, 0.25))
        assert rung.q75 == float(np.quantile(d, 0.75))


def test_lln_rejects_varying_ratio_in_theorem1():
    params = make_params(n=4)
    with pytest.raises(ValueError, match="H/K varies"):
        lln_experiment([(4, 50, 50), (4, 100, 200)], initial_profiles(), params,
                       horizon=0.1, replicas=1, seed=1, mode="theorem1")


def test_lln_rejects_shrinking_bacteria_dominance_in_theorem2():
    params = make_params(n=4)
    with pytest.raises(ValueError, match="K/H decreases"):
        lln_experiment([(4, 10, 1000), (4, 100, 1000)], initial_profiles(), params,
                       horizon=0.1, replicas=1, seed=1, mode="theorem2")


def test_lln_rejects_shrinking_populations():
    params = make_params(n=4)
    with pytest.raises(ValueError, match="nondecreasing"):
        lln_experiment([(4, 100, 100), (4, 50, 50)], initial_profiles(), params,
                       horizon=0.1, replicas=1, seed=1, mode="theorem1")


def test_lln_rejects_unknown_mode():
    params = make_params(n=4)
    with pytest.raises(ValueError, match="mode"):
        lln_experiment([(4, 50, 50)], initial_profiles(), params,
                       horizon=0.1, replicas=1, seed=1, mode="theorem3")


def test_lln_distance_shrinks_along_small_ladder():
    params = make_params(n=4)
    report = lln_experiment([(4, 20, 20), (4, 2000, 2000)], initial_profiles(),
                            params, horizon=0.5, replicas=6, seed=3,
                            mode="theorem1", n_samples=6)
    assert report.rungs[1].median < report.rungs[0].median


def test_pool_size_caps_workers(usable_cpus):
    usable_cpus(4)
    assert pool_size(10000, 10**6) == 4
    assert pool_size(10000, 3) == 3
    assert pool_size(2, 100) == 2
    assert pool_size(1, 100) == 1
    assert pool_size(8, 0) == 1


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(diagnostics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(diagnostics.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert diagnostics.usable_cpus() == 1
    assert pool_size(2, 10) == 1
    # without an affinity mask, the machine's CPU count; none known gives 1
    monkeypatch.delattr(diagnostics.os, "sched_getaffinity")
    assert diagnostics.usable_cpus() == 8
    monkeypatch.setattr(diagnostics.os, "cpu_count", lambda: None)
    assert diagnostics.usable_cpus() == 1


def test_lln_pool_is_capped(pool_sizes, usable_cpus):
    usable_cpus(2)
    lln_experiment([(4, 20, 20), (4, 40, 40)], initial_profiles(), make_params(n=4),
                   horizon=0.1, replicas=3, seed=2, mode="theorem1",
                   n_samples=3, workers=10000)
    assert pool_sizes == [2]


def test_lln_builds_one_pool_for_the_whole_ladder(pool_sizes, usable_cpus):
    usable_cpus(2)
    ladder = [(4, 20, 20), (4, 40, 40), (4, 80, 80)]
    kwargs = dict(horizon=0.2, replicas=3, seed=5, mode="theorem1", n_samples=3)
    pooled = lln_experiment(ladder, initial_profiles(), make_params(n=4), workers=2,
                            **kwargs)
    assert pool_sizes == [2]
    serial = lln_experiment(ladder, initial_profiles(), make_params(n=4), workers=1,
                            **kwargs)
    assert pool_sizes == [2]
    for a, b in zip(pooled.rungs, serial.rungs):
        assert np.array_equal(a.distances, b.distances)


def test_lln_submits_longest_jobs_first_and_reports_in_ladder_order(monkeypatch):
    submitted = {}  # (n, h, k, stream) -> distance, in submission order
    map_jobs = diagnostics.map_jobs

    def recording_map(fn, jobs, workers):
        results = map_jobs(fn, jobs, workers)
        for job, (distance, *_) in zip(jobs, results):
            scaling, stream = job[4], job[6]
            submitted[(scaling.n_sites, scaling.h, scaling.k, stream)] = distance
        return results

    monkeypatch.setattr(diagnostics, "map_jobs", recording_map)
    ladder = [(4, 20, 20), (4, 40, 40), (4, 80, 80)]
    report = lln_experiment(ladder, initial_profiles(), make_params(n=4), horizon=0.2,
                            replicas=2, seed=5, mode="theorem1", n_samples=3)
    order = [key[:3] for key in submitted]
    assert order == [(4, 80, 80)] * 2 + [(4, 40, 40)] * 2 + [(4, 20, 20)] * 2
    for rung_idx, (rung, (n, h, k)) in enumerate(zip(report.rungs, ladder)):
        assert (rung.n_sites, rung.h, rung.k) == (n, h, k)
        expected = [submitted[(n, h, k, (rung_idx << 32) + rep)] for rep in range(2)]
        assert rung.distances.tolist() == expected
