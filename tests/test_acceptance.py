"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a `[ACCEPTANCE n] PASS/FAIL` line (visible with
``pytest tests/test_acceptance.py -v -s``).  The two convergence ladders
dominate the runtime; the whole module finishes in a few minutes.
"""

import numpy as np

import closed_forms
from sirb_lattice.deterministic import (
    DeterministicState,
    ReactionField,
    homogeneous_ode,
    integrate,
    linear_oracle,
    refine_compare,
)
from sirb_lattice.diagnostics import (
    FAMILIES,
    Sweep,
    lln_experiment,
    pass_fractions,
    square_amplitudes,
    sweep_log,
)
from sirb_lattice.lattice import TransportCoefficients
from sirb_lattice.stochastic import (
    COMPARTMENTS,
    EpidemicParams,
    EventKind,
    ScalingParams,
    SystemState,
    apply_event,
    simulate_ssa,
)

# Generic rate set, everything in [0.1, 2].
RATES = dict(mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2,
             p_over_w=0.8, mu_b=0.5)
ELL, P_OUT = 0.5, 0.7


def params_for(n):
    return EpidemicParams(transport=TransportCoefficients(ELL, P_OUT, n), **RATES)


def smooth_profiles():
    return [
        lambda x: 0.9 + 0.05 * np.sin(2 * np.pi * np.asarray(x, dtype=float)),
        lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
    ]


def _criterion(num, desc, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {num}] {tag} {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_lln_constant_ratio_ladder():
    ladder = [(8, 100, 100), (8, 1000, 1000), (8, 10000, 10000)]
    report = lln_experiment(ladder, smooth_profiles(), params_for(8),
                            horizon=1.0, replicas=20, seed=20240801,
                            mode="theorem1", n_samples=21)
    med = report.medians
    decreasing = bool(np.all(np.diff(med) < 0))
    ratio = med[2] / med[0]
    _criterion(
        1, "constant-ratio ladder: medians strictly decreasing, last <= 25% of first",
        decreasing and ratio < 0.25,
        f"medians={np.array2string(med, precision=4)}, last/first={ratio:.3f}",
    )


def test_criterion_2_lln_decoupled_ladder():
    ladder = [(8, 10, 1000), (8, 100, 10000), (8, 1000, 100000)]
    report = lln_experiment(ladder, smooth_profiles(), params_for(8),
                            horizon=1.0, replicas=20, seed=20240802,
                            mode="theorem2", n_samples=21)
    med = report.medians
    decreasing = bool(np.all(np.diff(med) < 0))
    _criterion(
        2, "vanishing-ratio ladder: bacteria-field medians strictly decreasing",
        decreasing, f"medians={np.array2string(med, precision=4)}",
    )


def test_criterion_3_linear_oracle():
    m = 64
    tc = TransportCoefficients.from_continuum(diffusion=0.01, nu=0.05, n_sites=m)
    params = EpidemicParams(transport=tc, **{**RATES, "mu_b": 1.0})
    rf = ReactionField(params, hk_ratio=0.0)
    xc = (np.arange(m) + 0.5) / m
    zero = np.zeros(m)
    v0 = DeterministicState(zero, zero, zero,
                            1.0 + 0.5 * np.sin(2 * np.pi * xc))
    states = integrate(v0, 1.0, rf, sample_times=[0.0, 1.0])
    expected = linear_oracle(1, 0.5, tc, params.mu_b, 1.0, xc, baseline=1.0)
    rel = float(np.max(np.abs(states[-1, 3] - expected))
                / np.max(np.abs(expected)))
    _criterion(3, "bacteria-only run matches the closed-form wave at 1e-3",
               rel <= 1e-3, f"relative sup error={rel:.2e}")


def test_criterion_4_mesh_refinement():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    fns = [zero, zero, zero,
           lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x, dtype=float))]
    errors = {}
    for m in (16, 32, 64):
        tc = TransportCoefficients.from_continuum(0.01, 0.05, m)
        params = EpidemicParams(transport=tc, **{**RATES, "mu_b": 1.0})
        rf = ReactionField(params, hk_ratio=0.0)
        errors[m] = refine_compare(fns, rf, horizon=1.0)
    r1 = errors[16] / errors[32]
    r2 = errors[32] / errors[64]
    _criterion(4, "refinement error drops by >= 2x per lattice doubling",
               r1 >= 2.0 and r2 >= 2.0,
               f"ratios {r1:.2f}, {r2:.2f}")


def test_criterion_5_martingale_suite():
    n, pop, horizon, reps = 4, 100, 1.0, 200
    params = params_for(n)
    scaling = ScalingParams(n, pop, pop)
    fns = smooth_profiles()
    fields = [fn((np.arange(n) + 0.5) / n) for fn in fns]
    state0 = SystemState.from_densities(*fields, scaling=scaling)
    grid = np.linspace(0.0, horizon, 11)
    trajs = [simulate_ssa(state0, horizon, grid, params, scaling, seed=20240805,
                          stream=r, record_events=True) for r in range(reps)]
    sweeps = Sweep.stack([sweep_log(t, params, scaling) for t in trajs])
    fractions = pass_fractions(sweeps.z, [f"Z_{c}" for c in COMPARTMENTS])
    fractions.update(pass_fractions(sweeps.observed - sweeps.predicted, FAMILIES, sigma=3.0))
    worst = min(fractions.values())
    _criterion(5, "mean-zero 3-sigma test passes in >= 95% of cells for every family",
               worst >= 0.95,
               ", ".join(f"{k}={v:.3f}" for k, v in fractions.items()))


def test_criterion_6_compensator_identity():
    rng = np.random.default_rng(20240806)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 8))
        params = EpidemicParams(
            mu=rng.uniform(0.05, 2), alpha=rng.uniform(0.05, 2),
            gamma=rng.uniform(0.05, 2), rho=rng.uniform(0.05, 2),
            beta=rng.uniform(0.05, 2), p_over_w=rng.uniform(0.05, 2),
            mu_b=rng.uniform(0.05, 2),
            transport=TransportCoefficients(rng.uniform(0.05, 2), rng.uniform(0, 1), n),
        )
        scaling = ScalingParams(n, int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
        state = SystemState.from_counts(*(rng.integers(0, 500, n) for _ in range(4)))
        closed = closed_forms.amplitudes(state.rescaled(scaling), params,
                                         scaling.h / scaling.k)
        brute = square_amplitudes(state, params, scaling)
        scale = np.maximum(np.abs(brute), 1e-30)
        worst = max(worst, float(np.max(np.abs(closed - brute) / scale)))
    _criterion(6, "square amplitudes equal the event-table sums at 1e-12",
               worst <= 1e-12, f"worst relative deviation={worst:.2e}")


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(20240807)
    ok_positive = ok_grid = ok_jumps = ok_conserve = ok_bytes = True
    for trial in range(100):
        n = int(rng.integers(3, 6))
        params = EpidemicParams(
            mu=rng.uniform(0, 2), alpha=rng.uniform(0, 2),
            gamma=rng.uniform(0, 2), rho=rng.uniform(0, 2),
            beta=rng.uniform(0, 2), p_over_w=rng.uniform(0, 2),
            mu_b=rng.uniform(0, 2),
            transport=TransportCoefficients(rng.uniform(0, 2), rng.uniform(0, 1), n),
        )
        h, k = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        scaling = ScalingParams(n, h, k)
        state0 = SystemState.from_counts(*(rng.integers(0, 40, n) for _ in range(4)))
        seed = int(rng.integers(0, 2**31))
        traj = simulate_ssa(state0, 0.5, np.linspace(0, 0.5, 6), params, scaling,
                            seed=seed, record_events=True)
        twin = simulate_ssa(state0, 0.5, np.linspace(0, 0.5, 6), params, scaling,
                            seed=seed, record_events=True)
        # byte-identical logs for identical seeds
        log, log2 = traj.event_log, twin.event_log
        ok_bytes &= (log.times.tobytes() == log2.times.tobytes()
                     and log.kinds.tobytes() == log2.kinds.tobytes()
                     and log.sites.tobytes() == log2.sites.tobytes())
        # positivity; grid membership: integer backing makes each rescaled
        # value the correctly-rounded float of a grid point, so scaling back
        # recovers the integer counts to within an ulp
        for st in traj.states:
            dens = st.rescaled(scaling)
            for row, scale in enumerate((h, h, h, k)):
                counts = st.counts[row]
                ok_positive &= counts.min() >= 0
                back = dens[row] * scale
                ok_grid &= (np.array_equal(np.rint(back), counts.astype(float))
                            and float(np.max(np.abs(back - counts))) < 1e-9)
        # replay the log event by event: jump sizes and conservation laws
        state = state0
        for kind, site in zip(log.kinds, log.sites):
            nxt = apply_event(state, kind, site)
            delta = nxt.counts - state.counts
            ok_jumps &= int(np.abs(delta).max()) <= 1
            db = int(nxt.counts[3].sum() - state.counts[3].sum())
            if kind in (EventKind.TRANSPORT_OUT, EventKind.TRANSPORT_IN):
                ok_conserve &= db == 0
            else:
                ok_conserve &= db in (-1, 0, 1)
            state = nxt
        ok_conserve &= state == traj.final
    _criterion(
        7, "positivity, grid membership, jump bounds, conservation, determinism",
        ok_positive and ok_grid and ok_jumps and ok_conserve and ok_bytes,
        f"positive={ok_positive}, grid={ok_grid}, jumps={ok_jumps}, "
        f"conserve={ok_conserve}, bytes={ok_bytes}",
    )


def test_criterion_8_disease_free_fixed_point():
    n = 4
    params = params_for(n)
    rf = ReactionField(params, hk_ratio=1.0)
    series = homogeneous_ode([1.0, 0.0, 0.0, 0.0], 10.0, rf,
                             sample_times=np.linspace(0, 10, 11))
    drift_h = float(np.max(np.abs(series - np.array([1.0, 0, 0, 0]))))
    v0 = DeterministicState.constant([1.0, 0.0, 0.0, 0.0], n)
    states = integrate(v0, 10.0, rf, sample_times=np.linspace(0, 10, 11))
    drift_s = float(np.max(np.abs(states - v0.stack())))

    scaling = ScalingParams(n, 200, 200)
    state0 = SystemState.from_counts(
        np.full(n, 200), np.zeros(n, int), np.zeros(n, int), np.zeros(n, int)
    )
    traj = simulate_ssa(state0, 1.0, [0.0, 1.0], params, scaling,
                        seed=20240808, record_events=True)
    kinds = set(int(k) for k in traj.event_log.kinds)
    no_infection = int(EventKind.INFECTION) not in kinds
    demography_active = bool(
        kinds & {int(EventKind.BIRTH_FROM_S), int(EventKind.DEATH_S)}
    )
    _criterion(
        8, "disease-free state is stationary; no infection fires while beta > 0",
        drift_h < 1e-12 and drift_s < 1e-12 and no_infection and demography_active,
        f"ode drift={drift_h:.1e}, lattice drift={drift_s:.1e}, "
        f"events={len(traj.event_log)}, infection_absent={no_infection}",
    )
