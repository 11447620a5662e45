"""Deterministic limits of the lattice SIRB process.

Three views of the same dynamics:

* the well-mixed 4-compartment ODE (no space),
* the lattice companion system dv/dt = A_n v + F(v), where only the
  bacteria row carries the transport operator,
* the continuum reaction-advection-diffusion system, represented as a
  high-resolution instance of the lattice system (method of lines).

Every vector field here is one contraction of the reaction table: the
density-form rates of the fourteen kinds against their STOICHIOMETRY
entries (``table_contraction``), so transport is the two hop kinds and the
well-mixed system is the one-site lattice.  The paper's closed forms of the
reaction terms and of the transport stencil live in the tests, as the
independent oracle the table is checked against.

All integration is classical fixed-step RK4 with a conservative,
stability-derived step; the transport CFL is mild because the diffusion
coefficient scales like 1/n^2 by construction.  A closed-form
travelling-decaying-wave solution of the bacteria-only linear equation
serves as an independent oracle for the linear part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import MIN_SITES, TransportCoefficients, project
from .stochastic import (
    COMPARTMENTS,
    N_EVENT_KINDS,
    STOICHIOMETRY,
    EpidemicParams,
    EventKind,
    _RATE_SOURCE,
    _rate_coefficients,
    _resolve_grid,
    uniform_grid,
)

__all__ = [
    "ReactionField",
    "DeterministicState",
    "IntegrationError",
    "infection_stack",
    "density_rates",
    "table_contraction",
    "drift_field",
    "growth_constant",
    "auto_dt",
    "integrate",
    "homogeneous_ode",
    "linear_oracle",
    "refine_compare",
]

STABILITY_SAFETY = 0.5
# Negatives above this are roundoff and get clamped to zero; anything below
# signals instability (well separated from the -1e-12 roundoff budget).
NEGATIVE_ABORT = -1e-9


class IntegrationError(RuntimeError):
    """Raised when the explicit integrator detects blow-up (NaN/Inf)."""


@dataclass(frozen=True)
class ReactionField:
    """The deterministic system: the rate constants and lattice of
    ``params``, and the ratio H/K of the human and bacteria renormalization
    constants.

    ``hk_ratio`` multiplies the contamination source in the bacteria
    equation.  At a constant ratio this is the companion system of the
    first law of large numbers; at 0, the vanishing-ratio limit of the
    second, the source drops and the bacteria equation is linear and
    independent of the human compartments.
    """

    params: EpidemicParams
    hk_ratio: float

    def __post_init__(self):
        if not np.isfinite(self.hk_ratio) or self.hk_ratio < 0:
            raise ValueError(f"hk_ratio must be finite and >= 0, got {self.hk_ratio}")


@dataclass
class DeterministicState:
    """Four float density arrays on one lattice of at least MIN_SITES sites."""

    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        y = np.stack((self.s, self.i, self.r, self.b)).astype(float)
        if y.ndim != 2 or y.shape[1] < MIN_SITES:
            raise ValueError(f"fields must be 1-D on at least {MIN_SITES} sites: {y.shape}")
        self.s, self.i, self.r, self.b = y

    @property
    def n_sites(self) -> int:
        return self.s.shape[0]

    def stack(self) -> np.ndarray:
        """(4, n) array in the order (S, I, R, B)."""
        return np.stack([self.s, self.i, self.r, self.b])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeterministicState):
            return NotImplemented
        return np.array_equal(self.stack(), other.stack())

    @classmethod
    def constant(cls, values: Sequence[float], n_sites: int) -> "DeterministicState":
        return cls(*np.outer(np.asarray(values, dtype=float), np.ones(n_sites)))

    @classmethod
    def from_functions(
        cls, fns: Sequence[Callable], n_sites: int, quadrature_points: int = 16
    ) -> "DeterministicState":
        """Project four initial-profile functions (S, I, R, B) onto the lattice."""
        if len(fns) != 4:
            raise ValueError("expected four profile functions (S, I, R, B)")
        return cls(*(project(f, n_sites, quadrature_points) for f in fns))


def infection_stack(y: np.ndarray, params: EpidemicParams) -> np.ndarray:
    """The infection term beta s b/(1+b), the one nonlinear term of the
    dynamics, on a (..., 4, n) stack; shape (..., n)."""
    s, b = y[..., 0, :], y[..., 3, :]
    return params.beta * (b / (1.0 + b)) * s


def density_rates(params: EpidemicParams) -> Callable[..., np.ndarray]:
    """The map (y, infection=None) -> the rates of the fourteen kinds per
    unit of renormalization on a (..., 4, n) density stack: (..., 14, n),
    rows EventKind.  Row k is ``_rate_coefficients(params)[k]`` times the
    density of the kind's rate source; the infection row is
    ``infection_stack(y, params)`` unless given.  Times the renormalization
    (H or K) of each kind's source, this is each kind's count-form rate,
    the propensity ``simulate_ssa`` draws from.  The (14, 1) column of
    coefficients is built here, once, for every stack the map evaluates.

    No domain check: the integrator may probe infinitesimally negative
    values inside RK stages.  Every row is linear in y except infection, so
    the time integrals of y and of the infection term give the time
    integral of every rate.
    """
    coefficients = np.array(_rate_coefficients(params))[:, None]

    def rates(y: np.ndarray, infection: Optional[np.ndarray] = None) -> np.ndarray:
        out = coefficients * y[..., list(_RATE_SOURCE), :]
        out[..., EventKind.INFECTION, :] = (
            infection_stack(y, params) if infection is None else infection
        )
        return out

    return rates


def table_contraction(
    table: np.ndarray, row_compartments: Sequence[int], rf: ReactionField, n_sites: int
) -> Callable[..., np.ndarray]:
    """The map (y, infection=None) -> the sum over the kinds' entries of an
    entry table such as STOICHIOMETRY of rate times value times weight, on
    a (..., 4, n_sites) density stack: (..., rows, n_sites).

    The rates are ``density_rates(rf.params)(y, infection)``.  The entry
    (row, offset, value) of a kind firing at site j adds to ``row`` at site
    j + offset, periodic; ``row_compartments[row]`` is the compartment
    whose renormalization divides that row.  An entry that carries a
    human-sourced kind onto a bacteria row is weighted by ``rf.hk_ratio``;
    every other weight is 1.  STOICHIOMETRY gives the drift, the
    jump-product table of ``diagnostics`` the square and cross amplitudes.

    Offsets are taken modulo n_sites, so on one site a hop lands where it
    leaves and its entries cancel in the weights.  The weights and, through
    ``density_rates``, the rate coefficients are built here, once; each
    call is one gather of the rates over the table's site shifts and one
    matrix product.
    """
    b = COMPARTMENTS.index("B")
    entries = [
        (kind, row, off % n_sites, value)
        for kind, kind_entries in enumerate(table.tolist())
        for row, off, value in kind_entries if value
    ]
    shifts = sorted({shift for _, _, shift, _ in entries})
    weights = np.zeros((len(row_compartments), N_EVENT_KINDS, len(shifts)))
    for kind, row, shift, value in entries:
        onto_b = _RATE_SOURCE[kind] != b and row_compartments[row] == b
        weights[row, kind, shifts.index(shift)] += value * (rf.hk_ratio if onto_b else 1.0)
    weights = weights.reshape(len(row_compartments), -1)
    # gather[s, j]: the site whose kinds land on site j through shifts[s]
    gather = (np.arange(n_sites) - np.array(shifts)[:, None]) % n_sites
    rates_of = density_rates(rf.params)

    def contract(y: np.ndarray, infection: Optional[np.ndarray] = None) -> np.ndarray:
        # (..., 14, shifts, n)
        rates = rates_of(y, infection)[..., gather]
        return weights @ rates.reshape(rates.shape[:-3] + (-1, n_sites))

    return contract


def drift_field(rf: ReactionField, n_sites: int) -> Callable[..., np.ndarray]:
    """The lattice companion system's vector field, reactions and bacterial
    transport: the contraction of STOICHIOMETRY (``table_contraction``),
    (..., 4, n_sites) -> (..., 4, n_sites).  On one site it is the
    well-mixed system."""
    return table_contraction(STOICHIOMETRY, range(len(COMPARTMENTS)), rf, n_sites)


def growth_constant(rf: ReactionField) -> float:
    """A constant M with |F(y)|_1 <= M |y|_1 on the nonnegative cone.

    Componentwise, using b/(1+b) <= 1:
        |F_S| <= max(beta, mu, mu+rho) |y|_1
        |F_I| <= max(beta, gamma+alpha+mu) |y|_1
        |F_R| <= max(gamma, mu+rho) |y|_1
        |F_B| <= max(mu_b, (H/K) p/W) |y|_1
    and the four bounds add up.
    """
    p = rf.params
    m_s = max(p.beta, p.mu, p.mu + p.rho)
    m_i = max(p.beta, p.gamma + p.alpha + p.mu)
    m_r = max(p.gamma, p.mu + p.rho)
    m_b = max(p.mu_b, rf.hk_ratio * p.p_over_w)
    return m_s + m_i + m_r + m_b


def auto_dt(rf: ReactionField) -> float:
    """Stability-derived RK4 step on the lattice of ``rf.params``:
    safety / (4 D n^2 + nu n + L_reaction)."""
    tc = rf.params.transport
    n = tc.n_sites
    denom = 4.0 * tc.diffusion * n**2 + abs(tc.nu) * n + growth_constant(rf)
    if denom <= 0.0:
        return 1.0  # nothing moves; any step works
    return STABILITY_SAFETY / denom


def _rk4_march(
    y0: np.ndarray,
    horizon: float,
    sample_times: Optional[Sequence[float]],
    dt: float | str,
    auto_step: float,
    rhs: Callable[[np.ndarray], np.ndarray],
    stats: Optional[dict],
) -> np.ndarray:
    """Fixed-step RK4 from sample time to sample time, clamping roundoff
    negatives to zero and aborting on blow-up.  The step is ``dt``, or
    ``auto_step`` when ``dt`` is "auto".  Returns the solution at every
    sample time, shape (n_samples,) + y0.shape."""
    if np.any(y0 < 0):
        raise ValueError("initial state must be nonnegative")
    grid = _resolve_grid(horizon, sample_times)
    step = auto_step if dt == "auto" else float(dt)
    if step <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    clamped = 0
    min_seen = 0.0
    n_steps = 0
    y = y0.copy()
    out = np.empty((grid.size,) + y0.shape)
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for g, (a, b_t) in enumerate(zip(grid[:-1], grid[1:]), start=1):
            span = b_t - a
            m = max(1, math.ceil(span / step))
            h = span / m
            for _ in range(m):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                n_steps += 1
                if not np.all(np.isfinite(y)):
                    raise IntegrationError(
                        f"solution blew up near t={a:.6g} (step {h:.3g}); "
                        "the step may be too large or the parameters invalid"
                    )
                neg = y < 0.0
                if neg.any():
                    low = float(y.min())
                    if low < NEGATIVE_ABORT:
                        raise IntegrationError(
                            f"solution went negative ({low:.3g}) near t={a:.6g}; "
                            "this exceeds the roundoff budget and signals an "
                            "unstable step or invalid parameters"
                        )
                    min_seen = min(min_seen, low)
                    clamped += int(neg.sum())
                    y[neg] = 0.0
            out[g] = y
    if stats is not None:
        stats["clamped"] = stats.get("clamped", 0) + clamped
        stats["min_value_seen"] = min(stats.get("min_value_seen", 0.0), min_seen)
        stats["n_steps"] = stats.get("n_steps", 0) + n_steps
        stats["n_entries"] = stats.get("n_entries", 0) + n_steps * y0.size
    return out


def integrate(
    initial: DeterministicState,
    horizon: float,
    rf: ReactionField,
    dt: float | str = "auto",
    sample_times: Optional[Sequence[float]] = None,
    stats: Optional[dict] = None,
) -> np.ndarray:
    """Integrate the lattice companion system over [0, horizon].

    Args:
        initial: nonnegative starting densities.
        horizon: final time.
        rf: the system; its params' transport must match the lattice.
        dt: fixed RK4 step, or "auto" for ``auto_dt(rf)``.
        sample_times: output grid (defaults to the two endpoints).
        stats: optional dict collecting step/clamp counters.

    Returns:
        The densities at every sample time, an (n_samples, 4, n) float
        array with rows (S, I, R, B).
    """
    n = rf.params.transport.n_sites
    if n != initial.n_sites:
        raise ValueError(f"transport built for n={n}, state has n={initial.n_sites}")
    return _rk4_march(initial.stack(), horizon, sample_times, dt, auto_dt(rf),
                      drift_field(rf, n), stats)


def homogeneous_ode(
    initial: Sequence[float],
    horizon: float,
    rf: ReactionField,
    dt: float | str = "auto",
    sample_times: Optional[Sequence[float]] = None,
    stats: Optional[dict] = None,
) -> np.ndarray:
    """Integrate the spatially homogeneous 4-compartment system.

    Returns an array of shape (n_samples, 4) in the order (S, I, R, B).
    """
    y0 = np.asarray(initial, dtype=float)
    if y0.shape != (4,):
        raise ValueError(f"expected a 4-vector initial state, got shape {y0.shape}")
    return _rk4_march(
        y0.reshape(4, 1), horizon, sample_times, dt,
        STABILITY_SAFETY / max(growth_constant(rf), 1e-12), drift_field(rf, 1), stats,
    )[:, :, 0]


def linear_oracle(
    m: int,
    amplitude: float,
    tc: TransportCoefficients,
    mu_b: float,
    t: float,
    x,
    baseline: float = 0.0,
) -> np.ndarray:
    """Exact solution of the bacteria-only linear equation for Fourier data.

    With initial profile ``baseline + amplitude * sin(2 pi m x)`` the
    solution is a decaying travelling wave::

        baseline * exp(-mu_b t)
        + amplitude * exp(-(mu_b + D (2 pi m)^2) t) * sin(2 pi m (x - nu t))

    where D and nu are the continuum coefficients ``tc.diffusion`` and
    ``tc.nu`` of the lattice transport.  Returns an array of the shape of
    ``x``.
    """
    x = np.asarray(x, dtype=float)
    w = 2.0 * math.pi * m
    wave = amplitude * math.exp(-(mu_b + tc.diffusion * w**2) * t) * np.sin(w * (x - tc.nu * t))
    return baseline * math.exp(-mu_b * t) + wave


def refine_compare(
    initial_fns: Sequence[Callable],
    rf: ReactionField,
    horizon: float,
    dt: float | str = "auto",
    quadrature_points: int = 64,
) -> float:
    """Distance between the lattice solutions at the resolution m of
    ``rf.params`` and at 2m, on 17 equally spaced times over [0, horizon].

    The finer run keeps the continuum transport coefficients
    (``EpidemicParams.with_lattice``); its solution is projected onto the
    coarser lattice before comparing.  Returns the sup over sample times
    and compartments of the max-over-sites distance.
    """
    m = rf.params.transport.n_sites
    rf_fine = replace(rf, params=rf.params.with_lattice(2 * m))
    grid = uniform_grid(horizon, 17)
    v0_c = DeterministicState.from_functions(initial_fns, m, quadrature_points)
    v0_f = DeterministicState.from_functions(initial_fns, 2 * m, quadrature_points)
    coarse = integrate(v0_c, horizon, rf, dt=dt, sample_times=grid)
    fine = integrate(v0_f, horizon, rf_fine, dt=dt, sample_times=grid)
    # project the fine solution onto the coarse lattice: pairwise site averages
    fine = fine.reshape(grid.size, 4, m, 2).mean(axis=-1)
    return float(np.max(np.abs(coarse - fine)))
