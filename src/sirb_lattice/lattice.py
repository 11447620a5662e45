"""Periodic 1-D lattice: the projection of profiles onto per-site float
arrays, and the coefficients of the biased nearest-neighbour transport.

The unit interval is split into ``n`` sites; site ``j`` (0-based) covers
``(j/n, (j+1)/n]`` and all indexing wraps around modulo ``n``.  User-facing
output elsewhere in the package reports sites 1-based; internally everything
is 0-based.

The transport operator is the two hop kinds of the reaction table, applied
by ``deterministic.table_contraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MIN_SITES",
    "TransportCoefficients",
    "project",
]

# Centered stencils need two distinct neighbours per site.
MIN_SITES = 3


@dataclass(frozen=True)
class TransportCoefficients:
    """Bacterial hop rate and direction bias on an ``n_sites`` lattice.

    ``nu`` (advection velocity) and ``diffusion`` are always derived from
    ``(ell, p_out, n_sites)``; they cannot be set independently.
    """

    ell: float
    p_out: float
    n_sites: int

    def __post_init__(self):
        if not np.isfinite(self.ell) or self.ell < 0:
            raise ValueError(f"transport rate ell must be finite and >= 0, got {self.ell}")
        if not 0.0 <= self.p_out <= 1.0:
            raise ValueError(f"p_out must lie in [0, 1], got {self.p_out}")
        if self.n_sites < MIN_SITES:
            raise ValueError(f"lattice needs at least {MIN_SITES} sites, got {self.n_sites}")

    @property
    def p_in(self) -> float:
        return 1.0 - self.p_out

    @property
    def bias(self) -> float:
        """Net downstream bias in [-1, 1]."""
        return 2.0 * self.p_out - 1.0

    @property
    def nu(self) -> float:
        """Advection velocity of the continuum limit."""
        return self.bias * self.ell / self.n_sites

    @property
    def diffusion(self) -> float:
        """Diffusion coefficient of the continuum limit."""
        return self.ell / (2.0 * self.n_sites**2)

    @classmethod
    def from_continuum(cls, diffusion: float, nu: float, n_sites: int) -> "TransportCoefficients":
        """Build the lattice transport whose continuum limit is (diffusion, nu).

        Inverts nu = bias*ell/n and diffusion = ell/(2 n^2).  Raises if the
        requested advection exceeds what a probability bias can produce at
        this resolution (|bias| must not exceed 1).
        """
        if diffusion < 0 or not np.isfinite(diffusion):
            raise ValueError(f"diffusion must be finite and >= 0, got {diffusion}")
        if diffusion == 0.0:
            if nu != 0.0:
                raise ValueError("nu must be 0 when diffusion is 0 (bias is bounded by 1)")
            return cls(ell=0.0, p_out=0.5, n_sites=n_sites)
        ell = 2.0 * diffusion * n_sites**2
        bias = nu * n_sites / ell
        if abs(bias) > 1.0:
            raise ValueError(
                f"advection {nu} not representable at n={n_sites} with diffusion {diffusion}"
            )
        return cls(ell=ell, p_out=0.5 * (1.0 + bias), n_sites=n_sites)


def project(f: Callable, n_sites: int, quadrature_points: int = 16) -> np.ndarray:
    """Project a 1-periodic function onto the lattice by per-site averaging.

    Site j receives ``n * integral of f over (j/n, (j+1)/n]``, approximated
    by the composite midpoint rule with ``quadrature_points`` sub-points per
    site.  Exact for functions that are constant on each site.

    Args:
        f: 1-periodic function of x in [0, 1], vectorized: it maps an
            array of points to an array of values of the same shape.
        n_sites: lattice resolution.
        quadrature_points: midpoint sub-points per site (>= 1).

    Returns:
        The site averages, a float array of length ``n_sites``.

    Raises:
        ValueError: on values of another shape than the points, on
            non-finite values, or on bad arguments.
    """
    if n_sites < MIN_SITES:
        raise ValueError(f"lattice needs at least {MIN_SITES} sites, got {n_sites}")
    q = int(quadrature_points)
    if q < 1:
        raise ValueError(f"quadrature_points must be >= 1, got {quadrature_points}")
    # Midpoints of q equal sub-intervals of each site, shape (n_sites, q).
    x = (np.arange(n_sites)[:, None] + (np.arange(q)[None, :] + 0.5) / q) / n_sites
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        raise ValueError(f"function must map points of shape {x.shape} to values of "
                         f"that shape, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("function returned non-finite values on [0, 1]")
    return vals.mean(axis=1)
