"""The paper's closed forms of the drift and of the square and cross
amplitudes, written out term by term.

The package evaluates all of these as contractions of its reaction table
(``deterministic.table_contraction``).  These hand-written formulas share
no code with that path and are the independent oracle it is tested
against.  Every function takes (..., 4, n) density stacks with rows
(S, I, R, B) and an optional ``infection`` field standing in for the
infection term beta s b/(1+b), as the sweep passes its time integral.
"""

import numpy as np


def infection_term(u, params):
    s, b = u[..., 0, :], u[..., 3, :]
    return params.beta * (b / (1.0 + b)) * s


def reaction(u, rf, infection=None):
    """Reaction terms F(u), (..., 4, n).  The contamination source of the
    bacteria is (H/K)(p/W) u_I, which vanishes at H/K = 0."""
    p = rf.params
    s, i, r, b = (u[..., c, :] for c in range(4))
    if infection is None:
        infection = infection_term(u, p)
    contamination = rf.hk_ratio * p.p_over_w
    out = np.empty_like(u)
    out[..., 0, :] = p.mu * i + (p.mu + p.rho) * r - infection
    out[..., 1, :] = infection - (p.gamma + p.alpha + p.mu) * i
    out[..., 2, :] = p.gamma * i - (p.mu + p.rho) * r
    out[..., 3, :] = -p.mu_b * b + contamination * i
    return out


def transport(b, tc):
    """Advection-diffusion stencil of bacteria fields along the last axis:
    D n^2 (b[j+1] - 2 b[j] + b[j-1]) - nu (n/2) (b[j+1] - b[j-1])."""
    n = b.shape[-1]
    up = np.roll(b, -1, axis=-1)
    dn = np.roll(b, 1, axis=-1)
    return tc.diffusion * n**2 * (up - 2.0 * b + dn) - tc.nu * 0.5 * n * (up - dn)


def drift(u, rf, tc, infection=None):
    """The lattice companion system's vector field: F(u) plus transport on
    the bacteria row."""
    out = reaction(u, rf, infection)
    out[..., 3, :] += transport(u[..., 3, :], tc)
    return out


def amplitudes(u, params, hk_ratio, infection=None):
    """Square and cross amplitudes, (..., 6, n) with rows (S, I, R, B,
    B_cross_plus, B_cross_minus).

    Per site: the S amplitude is 2 mu u_S + mu u_I + (mu+rho) u_R plus the
    infection term; the B amplitude splits into the local-reaction part
    mu_b u_B + (H/K)(p/W) u_I and the transport part
    ell (p_in u_B[j+1] + u_B[j] + p_out u_B[j-1]).  The cross amplitudes of
    the simultaneous bacteria jumps on the pairs (j, j+1) and (j, j-1) are
    -ell (p_out u_B[j] + p_in u_B[j+1]) and -ell (p_in u_B[j] + p_out u_B[j-1]).
    """
    p = params
    s, i, r, b = (u[..., c, :] for c in range(4))
    if infection is None:
        infection = infection_term(u, p)
    tc = p.transport
    b_next, b_prev = np.roll(b, -1, axis=-1), np.roll(b, 1, axis=-1)
    out = np.empty(u.shape[:-2] + (6, u.shape[-1]))
    out[..., 0, :] = 2.0 * p.mu * s + p.mu * i + (p.mu + p.rho) * r + infection
    out[..., 1, :] = infection + (p.mu + p.alpha + p.gamma) * i
    out[..., 2, :] = p.gamma * i + (p.mu + p.rho) * r
    out[..., 3, :] = (
        p.mu_b * b
        + hk_ratio * p.p_over_w * i
        + tc.ell * (tc.p_in * b_next + b + tc.p_out * b_prev)
    )
    out[..., 4, :] = -tc.ell * (tc.p_out * b + tc.p_in * b_next)
    out[..., 5, :] = -tc.ell * (tc.p_in * b + tc.p_out * b_prev)
    return out
