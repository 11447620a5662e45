"""Lattice operators: stencils vs matrices, spectra, and projection."""

import math

import numpy as np
import pytest

from sirb_lattice.deterministic import (
    DeterministicState,
    ReactionField,
    drift_field,
    integrate,
)
from sirb_lattice.lattice import TransportCoefficients, project
from sirb_lattice.stochastic import (
    STOICHIOMETRY,
    EpidemicParams,
    EventKind,
    ScalingParams,
    SystemState,
    all_rates,
)

RNG = np.random.default_rng(20240811)


def random_field(n):
    return RNG.normal(size=n)


def inner(f, g):
    """Lattice L2 inner product (1/n) * sum f_j g_j."""
    return float(np.mean(f * g))


def transport(f, tc):
    """The package's transport on a lattice field: the bacteria row of the
    drift of a bacteria-only state when every reaction rate is zero.  The
    infection field is given as zero, since b/(1+b) is undefined at the
    field values -1 that these tests may hold."""
    n = f.size
    params = EpidemicParams(mu=0.0, alpha=0.0, gamma=0.0, rho=0.0, beta=0.0,
                            p_over_w=0.0, mu_b=0.0, transport=tc)
    y = np.zeros((4, n))
    y[3] = f
    field = drift_field(ReactionField(params, hk_ratio=1.0), n)
    return field(y, np.zeros(n))[3]


# ---------------------------------------------------------------------------
# Dense matrices: the brute-force oracle of the stencils

def shift_matrix(n, k):
    """Matrix S with (S f)[j] = f[j + k] (periodic)."""
    return np.roll(np.eye(n), k, axis=1)


def grad_matrix(n):
    return 0.5 * n * (shift_matrix(n, 1) - shift_matrix(n, -1))


def laplace_matrix(n):
    return n**2 * (shift_matrix(n, 1) - 2.0 * np.eye(n) + shift_matrix(n, -1))


def transport_matrix(tc):
    n = tc.n_sites
    return -tc.nu * grad_matrix(n) + tc.diffusion * laplace_matrix(n)


def grad_centered(f):
    """Centered difference (n/2) * (f[j+1] - f[j-1]) through its matrix: the
    oracle of the stencil's advection term."""
    return grad_matrix(f.size) @ f


def laplace(f):
    """Centered second difference n^2 * (f[j+1] - 2 f[j] + f[j-1]) read off
    the stencil: unbiased hops at rate 2 n^2 give diffusion 1 and no
    advection."""
    n = f.size
    return transport(f, TransportCoefficients(ell=2.0 * n**2, p_out=0.5, n_sites=n))


# ---------------------------------------------------------------------------
# Lattice size

def test_field_rejects_too_few_sites():
    two = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="at least 3 sites"):
        project(lambda x: np.ones_like(np.asarray(x, float)), 2)
    with pytest.raises(ValueError, match="at least 3 sites"):
        DeterministicState(two, two, two, two)
    with pytest.raises(ValueError, match="n >= 3"):
        SystemState(np.ones((4, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# Projection

def test_project_constant_is_constant():
    f = project(lambda x: np.full_like(np.asarray(x, float), 2.5), 8)
    assert np.allclose(f, 2.5)


def test_project_fixes_step_functions():
    values = RNG.normal(size=6)
    step = lambda x: values[(np.floor(np.asarray(x) * 6).astype(int)) % 6]
    f = project(step, 6, quadrature_points=7)
    assert np.allclose(f, values, rtol=0, atol=1e-15)


def test_project_sine_matches_antiderivative():
    # Site averages of sin(2 pi x) on 4 sites: the exact antiderivative gives
    # (2/pi) * (1, 1, -1, -1).
    expected = (2.0 / math.pi) * np.array([1.0, 1.0, -1.0, -1.0])
    f = project(lambda x: np.sin(2 * np.pi * np.asarray(x)), 4, quadrature_points=4096)
    assert np.allclose(f, expected, atol=1e-8)


def test_project_scalar_function_fallback():
    f = project(lambda x: 1.0 if x < 0.5 else 2.0, 4, quadrature_points=8)
    assert np.allclose(f, [1.0, 1.0, 2.0, 2.0])


def test_project_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        project(lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0), 4)


def test_project_rejects_bad_quadrature():
    with pytest.raises(ValueError):
        project(lambda x: np.ones_like(np.asarray(x, float)), 4, quadrature_points=0)


def test_project_sup_contraction():
    for _ in range(20):
        coef = RNG.normal(size=3)
        fn = lambda x: (coef[0] + coef[1] * np.sin(2 * np.pi * np.asarray(x))
                        + coef[2] * np.cos(4 * np.pi * np.asarray(x)))
        xs = np.linspace(0, 1, 4001)
        sup = np.max(np.abs(fn(xs)))
        f = project(fn, 16, quadrature_points=32)
        assert np.max(np.abs(f)) <= sup + 1e-12


# ---------------------------------------------------------------------------
# Difference operators

def test_grad_centered_constant_is_zero():
    f = np.full(7, 3.3)
    assert np.allclose(grad_centered(f), 0.0)


def test_grad_centered_hand_stencil():
    # (n/2)(f[j+1] - f[j-1]) on f = (0, 1, 0, -1) with n = 4.
    f = np.array([0.0, 1.0, 0.0, -1.0])
    assert np.array_equal(grad_centered(f), np.array([4.0, 0.0, -4.0, 0.0]))


def test_grad_centered_skew_adjoint():
    for n in (3, 5, 16):
        for _ in range(5):
            f, g = random_field(n), random_field(n)
            lhs = inner(grad_centered(f), g) + inner(f, grad_centered(g))
            assert abs(lhs) < 1e-12


def test_laplace_constant_is_zero():
    f = np.full(6, 9.9)
    assert np.allclose(laplace(f), 0.0)


def test_laplace_cosine_eigenvector():
    n = 12
    f = np.cos(2 * np.pi * np.arange(n) / n)
    eig = 2.0 * n**2 * (math.cos(2 * math.pi / n) - 1.0)
    assert np.allclose(laplace(f), eig * f, atol=1e-9)


def test_laplace_matrix_row_sums_zero():
    for n in (3, 8, 17):
        assert np.allclose(laplace_matrix(n).sum(axis=1), 0.0, atol=1e-9)


def test_laplace_symmetric_negative_semidefinite():
    for n in (4, 9):
        mat = laplace_matrix(n)
        assert np.allclose(mat, mat.T)
        for _ in range(10):
            f = random_field(n)
            assert inner(laplace(f), f) <= 1e-10


def test_fourier_modes_diagonalize_laplacian():
    # Brute force over every mode m < n for lattices up to 32 sites.
    for n in (3, 4, 5, 8, 16, 32):
        mat = laplace_matrix(n)
        for m in range(n):
            mode = np.exp(2j * np.pi * m * np.arange(n) / n)
            eig = 2.0 * n**2 * (math.cos(2 * math.pi * m / n) - 1.0)
            assert np.allclose(mat @ mode, eig * mode, atol=1e-7 * n**2)


def test_operators_commute_with_cyclic_shift():
    n = 10
    f = random_field(n)
    tc = TransportCoefficients(ell=1.3, p_out=0.8, n_sites=n)
    for op in (grad_centered, laplace, lambda g: transport(g, tc)):
        shifted_then_op = op(np.roll(f, 3))
        op_then_shifted = np.roll(op(f), 3)
        assert np.allclose(shifted_then_op, op_then_shifted, atol=1e-9)


def test_matrices_agree_with_stencils():
    n = 9
    f = random_field(n)
    tc = TransportCoefficients(ell=0.7, p_out=0.25, n_sites=n)
    pairs = [
        (laplace_matrix(n), laplace),
        (transport_matrix(tc), lambda g: transport(g, tc)),
    ]
    for mat, op in pairs:
        assert np.allclose(mat @ f, op(f), atol=1e-9)


# ---------------------------------------------------------------------------
# Transport

def test_transport_annihilates_constants():
    tc = TransportCoefficients(ell=2.0, p_out=0.9, n_sites=6)
    f = np.full(6, 4.2)
    assert np.allclose(transport(f, tc), 0.0, atol=1e-12)


def test_transport_unbiased_is_pure_diffusion():
    n = 8
    tc = TransportCoefficients(ell=1.1, p_out=0.5, n_sites=n)
    assert tc.nu == 0.0
    f = random_field(n)
    assert np.allclose(
        transport(f, tc),
        tc.diffusion * laplace(f),
        rtol=1e-12, atol=1e-12,
    )


def test_transport_matches_event_form():
    # Hop bookkeeping: ell * p_out * (f[j-1] - f[j]) + ell * p_in * (f[j+1] - f[j])
    # must equal the advection-diffusion stencil exactly.
    for n, p_out in ((5, 0.7), (12, 0.0), (8, 1.0), (6, 0.5)):
        tc = TransportCoefficients(ell=1.9, p_out=p_out, n_sites=n)
        for _ in range(5):
            f = random_field(n)
            v = f
            event_form = tc.ell * tc.p_out * (np.roll(v, 1) - v) + \
                tc.ell * tc.p_in * (np.roll(v, -1) - v)
            assert np.allclose(transport(f, tc), event_form,
                               rtol=1e-12, atol=1e-12)


def test_transport_rejects_mismatched_lattice():
    tc = TransportCoefficients(ell=1.0, p_out=0.6, n_sites=5)
    params = EpidemicParams(mu=0.2, alpha=0.1, gamma=0.5, rho=0.3, beta=1.0,
                            p_over_w=0.8, mu_b=0.5, transport=tc)
    v = DeterministicState.constant([1.0, 0.0, 0.0, 0.5], 8)
    rf = ReactionField(params, hk_ratio=1.0)
    with pytest.raises(ValueError, match="transport built for n=5"):
        integrate(v, 1.0, rf)


# ---------------------------------------------------------------------------
# Hop law of the transport events, read from the reaction table

def hop_probability(tc, i, j):
    """Probability that a bacterium transported from site i lands on site j:
    the rates of the transport kinds whose STOICHIOMETRY row adds it at j,
    over the hop rate ell of one bacterium."""
    n = tc.n_sites
    params = EpidemicParams(mu=0.0, alpha=0.0, gamma=0.0, rho=0.0, beta=0.0,
                            p_over_w=0.0, mu_b=0.0, transport=tc)
    zeros = np.zeros(n, dtype=int)
    state = SystemState.from_counts(zeros, zeros, zeros, np.ones(n, dtype=int))
    rates = all_rates(state, params, ScalingParams(n, 1, 1))[:, i]
    lands = [
        kind for kind in (EventKind.TRANSPORT_OUT, EventKind.TRANSPORT_IN)
        if any(c == 3 and d > 0 and (i + off) % n == j
               for c, off, d in STOICHIOMETRY[kind].tolist())
    ]
    return sum(rates[kind] for kind in lands) / tc.ell


def hop_matrix(tc):
    n = tc.n_sites
    return np.array([[hop_probability(tc, i, j) for j in range(n)] for i in range(n)])


def test_transition_probabilities_sum_to_one():
    tc = TransportCoefficients(ell=1.0, p_out=0.7, n_sites=8)
    assert hop_probability(tc, 3, 4) == pytest.approx(0.7)
    assert hop_probability(tc, 3, 2) == pytest.approx(0.3)
    mat = hop_matrix(tc)
    assert np.allclose(mat.sum(axis=1), 1.0)


def test_transition_probability_pure_downstream():
    tc = TransportCoefficients(ell=1.0, p_out=1.0, n_sites=5)
    assert hop_probability(tc, 2, 1) == 0.0
    assert hop_probability(tc, 2, 3) == 1.0


def test_transition_probability_nearest_neighbour_only():
    tc = TransportCoefficients(ell=1.0, p_out=0.7, n_sites=9)
    for i in range(9):
        for j in range(9):
            d = (j - i) % 9
            if d not in (1, 8):
                assert hop_probability(tc, i, j) == 0.0


def test_transition_probability_wraps_around():
    tc = TransportCoefficients(ell=1.0, p_out=0.7, n_sites=4)
    assert hop_probability(tc, 3, 0) == pytest.approx(0.7)
    assert hop_probability(tc, 0, 3) == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# TransportCoefficients derived values

def test_transport_coefficients_derived_quantities():
    tc = TransportCoefficients(ell=2.0, p_out=0.75, n_sites=10)
    assert tc.p_in == pytest.approx(0.25)
    assert tc.bias == pytest.approx(0.5)
    assert tc.nu == pytest.approx(0.5 * 2.0 / 10)
    assert tc.diffusion == pytest.approx(2.0 / 200)


def test_transport_coefficients_validation():
    with pytest.raises(ValueError):
        TransportCoefficients(ell=-1.0, p_out=0.5, n_sites=5)
    with pytest.raises(ValueError):
        TransportCoefficients(ell=1.0, p_out=1.3, n_sites=5)
    with pytest.raises(ValueError):
        TransportCoefficients(ell=1.0, p_out=0.5, n_sites=2)


def test_from_continuum_round_trip():
    tc = TransportCoefficients(ell=0.5, p_out=0.7, n_sites=8)
    tc2 = TransportCoefficients.from_continuum(tc.diffusion, tc.nu, 8)
    assert tc2.ell == pytest.approx(tc.ell)
    assert tc2.p_out == pytest.approx(tc.p_out)
    # Refining preserves the continuum coefficients, not the raw hop rate.
    tc_fine = TransportCoefficients.from_continuum(tc.diffusion, tc.nu, 16)
    assert tc_fine.diffusion == pytest.approx(tc.diffusion)
    assert tc_fine.nu == pytest.approx(tc.nu)
    assert tc_fine.ell == pytest.approx(4 * tc.ell)


def test_from_continuum_rejects_unreachable_advection():
    with pytest.raises(ValueError):
        TransportCoefficients.from_continuum(diffusion=1e-4, nu=1.0, n_sites=4)
    with pytest.raises(ValueError):
        TransportCoefficients.from_continuum(diffusion=0.0, nu=0.5, n_sites=4)
