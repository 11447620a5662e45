"""A second implementation of the exact simulator, one event at a time.

Gillespie's direct method, written from the draw-order contract that
``simulate_ssa``'s docstring and README state (``RNG_ALGORITHM``), not from
the engine: it imports only public names of ``sirb_lattice`` and writes the
fourteen rates out by hand, as the module docstring of
``sirb_lattice.stochastic`` tables them in count form.  Iterating
``step_ssa`` and ``apply_event`` on a run's stream reproduces
``simulate_ssa``'s event log bit for bit, so a fault in the engine's rates,
totals or selection shows up as a log that differs from this one.
"""

import math

import numpy as np

from sirb_lattice.stochastic import (
    EpidemicParams,
    EventKind,
    ScalingParams,
    SystemState,
)


def _check_lattice(state: SystemState, params: EpidemicParams, scaling: ScalingParams):
    n = state.n_sites
    if scaling.n_sites != n or params.transport.n_sites != n:
        raise ValueError(
            f"state has {n} sites, scaling {scaling.n_sites} and transport "
            f"{params.transport.n_sites}"
        )


def all_rates(
    state: SystemState, params: EpidemicParams, scaling: ScalingParams
) -> np.ndarray:
    """All propensities as a (14, n_sites) array indexed by EventKind: each
    kind's coefficient times its source count, and infection's
    (beta * s) * b / (K + b)."""
    _check_lattice(state, params, scaling)
    s, i, r, b = state.counts.astype(float)
    p, tc = params, params.transport
    rates = np.empty((len(EventKind), state.n_sites))
    rates[EventKind.BIRTH_FROM_S] = p.mu * s
    rates[EventKind.BIRTH_FROM_I] = p.mu * i
    rates[EventKind.BIRTH_FROM_R] = p.mu * r
    rates[EventKind.DEATH_S] = p.mu * s
    rates[EventKind.INFECTION] = p.beta * s * b / (float(scaling.k) + b)
    rates[EventKind.DEATH_I_NATURAL] = p.mu * i
    rates[EventKind.DEATH_I_CHOLERA] = p.alpha * i
    rates[EventKind.RECOVERY] = p.gamma * i
    rates[EventKind.DEATH_R] = p.mu * r
    rates[EventKind.IMMUNITY_LOSS] = p.rho * r
    rates[EventKind.BACTERIA_DEATH] = p.mu_b * b
    rates[EventKind.CONTAMINATION] = p.p_over_w * i
    rates[EventKind.TRANSPORT_OUT] = tc.ell * tc.p_out * b
    rates[EventKind.TRANSPORT_IN] = tc.ell * tc.p_in * b
    return rates


def site_totals(
    state: SystemState, params: EpidemicParams, scaling: ScalingParams
) -> np.ndarray:
    """Each site's total propensity, A_s*s + A_i*i + A_r*r + A_b*b +
    beta*s*b/(K+b) left to right, where A_c is the ``math.fsum`` of the
    coefficients of the linear kinds whose rate reads compartment c."""
    s, i, r, b = state.counts.astype(float)
    p, tc = params, params.transport
    a_s = math.fsum((p.mu, p.mu))
    a_i = math.fsum((p.mu, p.mu, p.alpha, p.gamma, p.p_over_w))
    a_r = math.fsum((p.mu, p.mu, p.rho))
    a_b = math.fsum((p.mu_b, tc.ell * tc.p_out, tc.ell * tc.p_in))
    return a_s * s + a_i * i + a_r * r + a_b * b + p.beta * s * b / (float(scaling.k) + b)


def step_ssa(
    state: SystemState,
    params: EpidemicParams,
    scaling: ScalingParams,
    rng: np.random.Generator,
):
    """Draw one jump of the exact chain: ((kind, site), waiting time).

    Returns (None, inf) from an absorbing state (total propensity zero),
    without drawing.  Otherwise it takes two ``random()`` draws u1, u2:
    the wait is ``-log1p(-u1) / total``, where ``total`` is the last element
    of the sequential cumsum of the site totals; the site is the right-sided
    search of ``u2 * total`` in that cumsum (past the last boundary: the
    last site with a positive total); the kind is the right-sided search
    of the residual, ``u2 * total`` minus the cumsum before the site, in the
    sequential cumsum of the site's 14 rates in EventKind order (past the
    end: the last kind with a positive rate).
    """
    _check_lattice(state, params, scaling)
    totals = site_totals(state, params, scaling)
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
    if kind == len(EventKind):
        kind = int(np.flatnonzero(rates > 0.0)[-1])
    return (EventKind(kind), site), -math.log1p(-u1) / total
