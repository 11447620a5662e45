"""Reaction field, RK4 integration, and the closed-form linear oracle."""

import math

import numpy as np
import pytest

import closed_forms
from sirb_lattice.deterministic import (
    DeterministicState,
    IntegrationError,
    ReactionField,
    density_rates,
    drift_field,
    growth_constant,
    homogeneous_ode,
    integrate,
    linear_oracle,
    refine_compare,
)
from sirb_lattice.lattice import TransportCoefficients
from sirb_lattice.stochastic import (
    _RATE_SOURCE,
    EpidemicParams,
    ScalingParams,
    SystemState,
    _renormalization,
    all_rates,
)

# Decay factor of the m=1 wave with diffusion 0.01, speed 0.1, death rate 1
# after t = 0.5: exp(-(1 + 0.01 * (2 pi)^2) * 0.5).
PINNED_DECAY_FACTOR = 0.4978820447115107


def make_params(n=8, ell=0.5, p_out=0.7, **overrides):
    base = dict(mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2,
                p_over_w=0.8, mu_b=0.5)
    base.update(overrides)
    return EpidemicParams(transport=TransportCoefficients(ell, p_out, n), **base)


def bacteria_only_setup(m, diffusion=0.01, nu=0.05, mu_b=1.0):
    tc = TransportCoefficients.from_continuum(diffusion, nu, m)
    params = make_params(n=m, mu_b=mu_b)
    params = EpidemicParams(
        mu=params.mu, alpha=params.alpha, gamma=params.gamma, rho=params.rho,
        beta=params.beta, p_over_w=params.p_over_w, mu_b=mu_b, transport=tc,
    )
    rf = ReactionField(params, hk_ratio=0.0)
    return params, rf, tc


# ---------------------------------------------------------------------------
# Reaction field

def reaction(y, rf):
    """The drift at one 4-vector (S, I, R, B): the one-site lattice, where
    transport hops cancel and only the reaction field is left."""
    return drift_field(rf, 1)(np.asarray(y, dtype=float).reshape(4, 1))[:, 0]


def test_reaction_disease_free_is_fixed_point():
    rf = ReactionField(make_params(), hk_ratio=1.0)
    assert np.array_equal(reaction(np.array([1.0, 0, 0, 0]), rf), np.zeros(4))


def test_reaction_zero_state():
    rf = ReactionField(make_params(), hk_ratio=1.0)
    assert np.array_equal(reaction(np.zeros(4), rf), np.zeros(4))


def test_reaction_linear_growth_bound():
    # |F(y)|_1 <= M |y|_1 on the positive cone, with M assembled from the
    # componentwise coefficient bounds.
    rng = np.random.default_rng(5)
    for hk in (1.0, 0.01, 0.0):
        rf = ReactionField(make_params(), hk_ratio=hk)
        m_const = growth_constant(rf)
        for _ in range(10_000 // 4):
            y = rng.uniform(0, 10, size=4)
            f = reaction(y, rf)
            assert np.abs(f).sum() <= m_const * np.abs(y).sum() + 1e-12


def test_decoupled_mode_zeroes_contamination():
    # the vanishing-ratio system: H/K = 0 drops the contamination source
    rf = ReactionField(make_params(), hk_ratio=0.0)
    y = np.array([0.0, 5.0, 0.0, 2.0])
    f = reaction(y, rf)
    assert f[3] == pytest.approx(-rf.params.mu_b * 2.0)


def test_one_site_drift_matches_the_closed_form_reaction_field():
    rng = np.random.default_rng(6)
    for hk in (1.0, 0.3, 0.0):
        rf = ReactionField(make_params(), hk_ratio=hk)
        for _ in range(200):
            y = rng.uniform(0, 10, size=4)
            expected = closed_forms.reaction(y.reshape(4, 1), rf)[:, 0]
            np.testing.assert_allclose(reaction(y, rf), expected, rtol=1e-13, atol=1e-13)


def test_drift_matches_the_closed_forms_on_a_batch():
    # A (times, 4, n) stack with its own infection field, as the sweep
    # passes the time integrals, with and without the contamination source.
    rng = np.random.default_rng(7)
    for n, hk in ((3, 1.3), (8, 0.0), (64, 0.6)):
        params = make_params(n=n, ell=rng.uniform(0.1, 2), p_out=rng.uniform(0, 1))
        rf = ReactionField(params, hk_ratio=hk)
        y = rng.uniform(0, 5, size=(6, 4, n))
        infection = rng.uniform(0, 5, size=(6, n))
        got = drift_field(rf, n)(y, infection)
        expected = closed_forms.drift(y, rf, params.transport, infection)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_density_rates_are_the_simulators_rates():
    # The ODE's rates are the simulator's: the density-rate table times
    # each kind's source renormalization is all_rates of the counts.
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        params = make_params(
            n=n, mu=rng.uniform(0.05, 2), alpha=rng.uniform(0.05, 2),
            gamma=rng.uniform(0.05, 2), rho=rng.uniform(0.05, 2),
            beta=rng.uniform(0.05, 2), p_over_w=rng.uniform(0.05, 2),
            mu_b=rng.uniform(0.05, 2), ell=rng.uniform(0.05, 2), p_out=rng.uniform(0, 1),
        )
        scaling = ScalingParams(n, int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
        # about a third of the counts are zero
        state = SystemState.from_counts(
            *(rng.integers(0, 300, n) * (rng.random(n) < 0.7) for _ in range(4))
        )
        source_scale = _renormalization(scaling)[list(_RATE_SOURCE)]
        got = density_rates(state.rescaled(scaling), params) * source_scale
        np.testing.assert_allclose(got, all_rates(state, params, scaling), rtol=1e-13, atol=0)


def test_reaction_field_validation():
    with pytest.raises(ValueError):
        ReactionField(make_params(), hk_ratio=-1.0)


# ---------------------------------------------------------------------------
# Discrete right-hand side

def test_rhs_constant_disease_free_is_zero():
    params = make_params(n=6)
    rf = ReactionField(params, hk_ratio=1.0)
    v = DeterministicState.constant([1.0, 0.0, 0.0, 0.0], 6)
    out = drift_field(rf, 6)(v.stack())
    assert np.allclose(out, 0.0, atol=1e-14)


def test_rhs_decoupled_bacteria_reduces_to_linear_operator():
    m = 16
    params, rf, tc = bacteria_only_setup(m)
    b = 1.0 + 0.3 * np.sin(2 * np.pi * (np.arange(m) + 0.5) / m)
    zero = np.zeros(m)
    v = DeterministicState(zero, zero, zero, b)
    out = drift_field(rf, m)(v.stack())
    expected = closed_forms.transport(b, tc) - params.mu_b * b
    assert np.allclose(out[3], expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(out[:3], 0.0)


# ---------------------------------------------------------------------------
# Integration

def test_integrate_preserves_disease_free_fixed_point():
    params = make_params(n=6)
    rf = ReactionField(params, hk_ratio=1.0)
    v0 = DeterministicState.constant([1.0, 0.0, 0.0, 0.0], 6)
    states = integrate(v0, 10.0, rf, sample_times=np.linspace(0, 10, 6))
    drift = float(np.max(np.abs(states - v0.stack())))
    assert drift < 1e-12


def test_integrate_matches_linear_oracle():
    # Coarser sibling of the acceptance criterion: m = 32 against the exact
    # travelling-decaying wave.
    m = 32
    params, rf, tc = bacteria_only_setup(m)
    xc = (np.arange(m) + 0.5) / m
    zero = np.zeros(m)
    v0 = DeterministicState(zero, zero, zero,
                            1.0 + 0.5 * np.sin(2 * np.pi * xc))
    states = integrate(v0, 1.0, rf, sample_times=[0.0, 1.0])
    expected = linear_oracle(1, 0.5, tc, params.mu_b, 1.0, xc, baseline=1.0)
    rel = np.max(np.abs(states[-1, 3] - expected)) / np.max(np.abs(expected))
    assert rel < 5e-3


def test_integrate_matches_linear_oracle_tightly_for_gentle_transport():
    # With weak transport the m = 64 dispersion error drops below 1e-6,
    # pinning the integrator against the oracle to six digits.
    m = 64
    params, rf, tc = bacteria_only_setup(m, diffusion=1e-5, nu=1e-4)
    xc = (np.arange(m) + 0.5) / m
    zero = np.zeros(m)
    v0 = DeterministicState(zero, zero, zero,
                            1.0 + 0.5 * np.sin(2 * np.pi * xc))
    states = integrate(v0, 1.0, rf, dt=1e-3, sample_times=[0.0, 1.0])
    expected = linear_oracle(1, 0.5, tc, params.mu_b, 1.0, xc, baseline=1.0)
    rel = np.max(np.abs(states[-1, 3] - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-6


def test_integrate_self_convergence_under_dt_halving():
    m = 16
    params, rf, tc = bacteria_only_setup(m)
    xc = (np.arange(m) + 0.5) / m
    zero = np.zeros(m)
    v0 = DeterministicState(zero, zero, zero,
                            1.0 + 0.4 * np.sin(2 * np.pi * xc))
    coarse = integrate(v0, 1.0, rf, dt=2e-3, sample_times=[0.0, 1.0])
    fine = integrate(v0, 1.0, rf, dt=1e-3, sample_times=[0.0, 1.0])
    diff = np.max(np.abs(coarse[-1] - fine[-1]))
    assert diff <= 1e-8


def test_integrate_positivity_with_clamp_counters():
    params = make_params(n=8)
    rf = ReactionField(params, hk_ratio=1.0)
    x = (np.arange(8) + 0.5) / 8
    v0 = DeterministicState(
        0.9 + 0.05 * np.sin(2 * np.pi * x),
        np.full(8, 0.1), np.zeros(8),
        np.full(8, 0.5),
    )
    stats = {}
    states = integrate(v0, 5.0, rf, sample_times=np.linspace(0, 5, 11), stats=stats)
    assert states.min() >= 0.0
    assert stats["min_value_seen"] >= -1e-12
    assert stats["clamped"] <= 0.001 * stats["n_entries"]


def test_integrate_sup_norm_growth_bound():
    params = make_params(n=8)
    rf = ReactionField(params, hk_ratio=1.0)
    x = (np.arange(8) + 0.5) / 8
    v0 = DeterministicState(
        0.8 + 0.2 * np.sin(2 * np.pi * x),
        np.full(8, 0.3), np.full(8, 0.1),
        np.full(8, 0.6),
    )
    c0 = float(np.max(np.abs(v0.stack())))
    horizon = 2.0
    states = integrate(v0, horizon, rf, sample_times=np.linspace(0, horizon, 9))
    bound = c0 * math.exp(growth_constant(rf) * horizon) * 1.001
    assert float(np.max(np.abs(states))) <= bound


def test_integrate_detects_blowup():
    m = 32
    params, rf, tc = bacteria_only_setup(m, diffusion=0.05)
    xc = (np.arange(m) + 0.5) / m
    zero = np.zeros(m)
    v0 = DeterministicState(zero, zero, zero,
                            1.0 + 0.5 * np.sin(2 * np.pi * xc))
    # dt far beyond the diffusion stability limit
    with pytest.raises(IntegrationError):
        integrate(v0, 5.0, rf, dt=0.5, sample_times=[0.0, 5.0])


def test_state_rejects_fields_of_unequal_length():
    with pytest.raises(ValueError, match="same shape"):
        DeterministicState(np.zeros(4), np.zeros(4), np.zeros(5), np.zeros(4))


def test_state_equality_compares_every_field():
    v = DeterministicState.constant([1.0, 0.0, 0.0, 0.5], 4)
    assert v == DeterministicState.constant([1.0, 0.0, 0.0, 0.5], 4)
    for row in range(4):
        values = [1.0, 0.0, 0.0, 0.5]
        values[row] += 0.25
        assert v != DeterministicState.constant(values, 4)
    assert v != DeterministicState.constant([1.0, 0.0, 0.0, 0.5], 5)
    assert v.__eq__(v.stack()) is NotImplemented
    assert v != "state"


def test_integrate_rejects_negative_initial():
    params = make_params(n=4)
    rf = ReactionField(params, hk_ratio=1.0)
    v0 = DeterministicState.constant([1.0, 0.0, 0.0, -0.1], 4)
    with pytest.raises(ValueError):
        integrate(v0, 1.0, rf)


def test_decoupled_bacteria_invariant_to_human_perturbation():
    m = 8
    params, rf, tc = bacteria_only_setup(m)
    x = (np.arange(m) + 0.5) / m
    b0 = 1.0 + 0.2 * np.sin(2 * np.pi * x)
    zero = np.zeros(m)
    grid = np.linspace(0, 1, 5)
    v_zero = DeterministicState(zero, zero, zero, b0)
    v_perturbed = DeterministicState(
        np.full(m, 0.7), np.full(m, 0.3),
        np.full(m, 0.1), b0,
    )
    sol_a = integrate(v_zero, 1.0, rf, sample_times=grid)
    sol_b = integrate(v_perturbed, 1.0, rf, sample_times=grid)
    assert np.array_equal(sol_a[:, 3], sol_b[:, 3])


# ---------------------------------------------------------------------------
# Homogeneous system

def test_homogeneous_disease_free_fixed_point():
    rf = ReactionField(make_params(), hk_ratio=1.0)
    series = homogeneous_ode([1.0, 0, 0, 0], 10.0, rf,
                             sample_times=np.linspace(0, 10, 11))
    assert np.max(np.abs(series - np.array([1.0, 0, 0, 0]))) < 1e-12


def test_homogeneous_beta_zero_bacteria_decay():
    # No exposure: I stays 0, so bacteria decay as a pure exponential.
    params = make_params(beta=0.0, mu_b=0.8)
    rf = ReactionField(params, hk_ratio=1.0)
    series = homogeneous_ode([1.0, 0.0, 0.0, 0.7], 2.0, rf, dt=1e-3,
                             sample_times=np.linspace(0, 2, 9))
    expected = 0.7 * np.exp(-0.8 * np.linspace(0, 2, 9))
    assert np.allclose(series[:, 3], expected, rtol=1e-8, atol=1e-10)
    assert np.allclose(series[:, 1], 0.0)


def test_homogeneous_equals_spatial_on_constant_data():
    params = make_params(n=6)
    rf = ReactionField(params, hk_ratio=1.0)
    y0 = [0.8, 0.15, 0.05, 0.4]
    grid = np.linspace(0, 1.5, 7)
    series = homogeneous_ode(y0, 1.5, rf, dt=1e-3, sample_times=grid)
    v0 = DeterministicState.constant(y0, 6)
    states = integrate(v0, 1.5, rf, dt=1e-3, sample_times=grid)
    assert np.allclose(states, series[:, :, None], rtol=1e-10, atol=1e-10)


def test_homogeneous_rejects_bad_initial():
    rf = ReactionField(make_params(), hk_ratio=1.0)
    with pytest.raises(ValueError):
        homogeneous_ode([1.0, 0.0, -0.2, 0.0], 1.0, rf)
    with pytest.raises(ValueError):
        homogeneous_ode([1.0, 0.0, 0.0], 1.0, rf)


# ---------------------------------------------------------------------------
# Linear oracle

def test_linear_oracle_initial_profile():
    tc = TransportCoefficients.from_continuum(0.01, 0.05, 16)
    x = np.linspace(0, 1, 33)
    vals = linear_oracle(2, 0.7, tc, 1.3, 0.0, x, baseline=1.1)
    assert np.allclose(vals, 1.1 + 0.7 * np.sin(4 * np.pi * x))


def test_linear_oracle_pure_advection_translates():
    # Zero diffusion and death: the profile moves at the advection speed.
    x = np.linspace(0, 1, 65)
    t, nu = 0.3, 0.4
    vals = linear_oracle(1, 1.0, (0.0, nu), 0.0, t, x)
    assert np.allclose(vals, np.sin(2 * np.pi * (x - nu * t)))


def test_linear_oracle_pinned_decay_factor():
    vals = linear_oracle(1, 1.0, (0.01, 0.1), 1.0, 0.5, np.array([0.3]))
    expected = PINNED_DECAY_FACTOR * math.sin(2 * math.pi * (0.3 - 0.1 * 0.5))
    assert vals[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Mesh refinement

def smooth_fns():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return [zero, zero, zero,
            lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x, dtype=float))]


def test_refine_constant_data_stays_matched():
    _, rf, _ = bacteria_only_setup(16)
    const = lambda x: np.full_like(np.asarray(x, dtype=float), 0.8)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    # shared explicit dt: on constant data both resolutions march identically
    d = refine_compare([zero, zero, zero, const], rf, 1.0, dt=1e-3)
    assert d < 1e-12


def test_refine_horizon_zero_is_projection_difference():
    _, rf, _ = bacteria_only_setup(16)
    d = refine_compare(smooth_fns(), rf, 0.0, quadrature_points=128)
    assert d < 1e-5  # only the quadrature rules differ between resolutions


def test_refine_error_halves_per_doubling():
    _, rf16, _ = bacteria_only_setup(16)
    e16 = refine_compare(smooth_fns(), rf16, 1.0)
    _, rf32, _ = bacteria_only_setup(32)
    e32 = refine_compare(smooth_fns(), rf32, 1.0)
    assert e16 / e32 >= 2.0
