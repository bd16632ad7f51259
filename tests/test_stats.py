"""Means, variances, covariances, and the variance growth rate."""

import numpy as np
import pytest
from conftest import random_hermitian, random_model, random_observable, random_state
from reference_points import covariance_sym, expectation, rho_dot_delta_sq

from fluctuation_bounds.bounds import adjoint_heisenberg_rate
from fluctuation_bounds.dynamics import (
    analytic_amplitude_damping,
    integrate,
    lindblad_model,
    lindblad_rhs,
    trajectory_from_states,
)
from fluctuation_bounds.linalg import sigma_minus, sigma_x, sigma_y, sigma_z
from fluctuation_bounds.observables import cosine, observable, sine, static_observable
from fluctuation_bounds.stats import state_derivative, variance, variance_rate

PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def damped_state(t, gamma_rate=1.0, omega=0.0):
    return analytic_amplitude_damping(PROJ_1, gamma_rate, omega, t)


def damping_model(gamma_rate=1.0, omega=None):
    h = None if omega is None else static_observable((omega / 2.0) * sigma_z)
    return lindblad_model(h, [np.sqrt(gamma_rate) * sigma_minus])


def damping_trajectory(gamma_rate=1.0, omega=0.0, t_max=2.0, dt=1e-3, with_model=True):
    times = np.arange(int(round(t_max / dt)) + 1) * dt
    states = [damped_state(t, gamma_rate, omega) for t in times]
    model = damping_model(gamma_rate, omega if omega != 0.0 else None)
    return trajectory_from_states(times, states, model if with_model else None)


ROTATING = observable([(cosine(1.0, 1.0), sigma_x), (sine(1.0, 1.0), sigma_y)])


# ---------------------------------------------------------------------------
# expectation / variance

def test_expectation_population_difference():
    for t in (0.1, 0.7, 2.0):
        rho = damped_state(t)
        assert expectation(rho, sigma_z) == pytest.approx(1 - 2 * np.exp(-t), abs=1e-14)


def test_expectation_identity_and_rotating_mean():
    rho = damped_state(0.9, omega=1.0)
    assert expectation(rho, np.eye(2, dtype=complex)) == pytest.approx(1.0, abs=1e-14)
    for t in (0.0, 0.4, 1.8):
        rho = damped_state(t, omega=1.0)
        assert abs(expectation(rho, ROTATING.evaluate(t))) < 1e-14


def test_expectation_rejects_bad_input():
    with pytest.raises(ValueError, match="Hermitian"):
        expectation(np.eye(2) / 2, sigma_minus)
    with pytest.raises(ValueError, match="imaginary"):
        expectation(np.array([[0.5, 0.5], [0.0, 0.5]]), sigma_y)
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(np.eye(3) / 3, sigma_z)


def test_variance_damped_population():
    for t in (0.2, 1.0, 3.0):
        rho = damped_state(t)
        u = 1 - 2 * np.exp(-t)
        assert variance(rho, sigma_z) == pytest.approx(1 - u * u, abs=1e-12)


def test_variance_edge_states():
    assert variance(PROJ_1, sigma_z) == 0.0
    assert variance(np.eye(2) / 2, sigma_z) == pytest.approx(1.0, abs=1e-15)


def test_variance_clamps_round_off():
    # A pure eigenstate can go a hair negative in floating point; the
    # report clamps at zero rather than returning -1e-17.
    rng = np.random.default_rng(79)
    for _ in range(20):
        h = random_hermitian(rng, 3)
        w, v = np.linalg.eigh(h)
        rho = np.outer(v[:, 0], v[:, 0].conj())
        rho = (rho + rho.conj().T) / 2
        assert variance(rho, h) >= 0.0


# ---------------------------------------------------------------------------
# covariance

def test_covariance_zero_partner():
    rho = damped_state(0.5)
    assert covariance_sym(rho, sigma_z, np.zeros((2, 2), dtype=complex)) == 0.0


def test_covariance_self_is_variance():
    rng = np.random.default_rng(83)
    for _ in range(20):
        rho = random_state(rng, 3)
        rho = (rho + rho.conj().T) / 2
        a = random_hermitian(rng, 3)
        assert covariance_sym(rho, a, a) == pytest.approx(variance(rho, a), abs=1e-12)


def test_covariance_sym_matches_real_part_form():
    rng = np.random.default_rng(89)
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        rho = random_state(rng, dim)
        rho = (rho + rho.conj().T) / 2
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        real_part = np.trace(rho @ a @ b).real - expectation(rho, a) * expectation(rho, b)
        assert abs(covariance_sym(rho, a, b) - real_part) < 1e-12


def test_covariance_rotating_observable():
    for t in (0.3, 1.2):
        rho = damped_state(t, omega=1.0)
        a_t = ROTATING.evaluate(t)
        da_t = ROTATING.partial_time(t)
        # {A, dA} = 0 and <A> = 0 here, so both routes give exactly zero
        assert covariance_sym(rho, a_t, da_t) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# rho_dot term

def test_rho_dot_delta_sq_zero_derivative():
    assert rho_dot_delta_sq(np.zeros((2, 2)), damped_state(1.0), sigma_z) == 0.0


def test_rho_dot_delta_sq_requires_traceless():
    with pytest.raises(ValueError, match="traceless"):
        rho_dot_delta_sq(np.eye(2, dtype=complex), damped_state(1.0), sigma_z)


def test_rho_dot_delta_sq_reproduces_damping_rhs_form():
    # With a vanishing explicit derivative the bound's right side collapses
    # to value^2/(2 sigma^2) = 2 Gamma^2 e^{-Gt}(1-2e^{-Gt})^2/(1-e^{-Gt}).
    model = damping_model()
    for t in (0.2, 0.9, 2.5):
        rho = damped_state(t)
        value = rho_dot_delta_sq(lindblad_rhs(model, rho, t), rho, sigma_z)
        sig_sq = variance(rho, sigma_z)
        got = value**2 / (2 * sig_sq)
        u = 1 - 2 * np.exp(-t)
        want = 2 * np.exp(-t) * u**2 / (1 - np.exp(-t))
        assert got == pytest.approx(want, rel=1e-12)


def test_rho_dot_delta_sq_rotating_is_zero():
    model = damping_model(omega=1.0)
    for t in (0.4, 1.6):
        rho = damped_state(t, omega=1.0)
        value = rho_dot_delta_sq(lindblad_rhs(model, rho, t), rho, ROTATING.evaluate(t))
        assert abs(value) < 1e-14


# ---------------------------------------------------------------------------
# variance_rate

def test_variance_rate_matches_closed_form_derivative():
    traj = damping_trajectory()
    a = static_observable(sigma_z)
    for t in (0.1, 0.693, 1.5):
        sp = variance_rate(traj, a, round(t / traj.dt) * traj.dt)
        tt = sp.t
        want = 4 * np.exp(-tt) * (2 * np.exp(-tt) - 1)
        assert sp.var_rate == pytest.approx(want, abs=1e-12)


def test_variance_rate_finite_difference_mode():
    traj = damping_trajectory(with_model=False)
    a = static_observable(sigma_z)
    sp = variance_rate(traj, a, 0.5, rho_dot_mode="finite_difference")
    want = 4 * np.exp(-0.5) * (2 * np.exp(-0.5) - 1)
    assert sp.var_rate == pytest.approx(want, abs=1e-6)


def test_variance_rate_stationary_state():
    ground = np.diag([1.0, 0.0]).astype(complex)
    times = np.arange(11) * 0.1
    traj = trajectory_from_states(times, [ground] * 11, damping_model())
    for t in (0.5, np.float64(0.5), np.array(0.5), 1):  # a one-time t is stored as a float
        sp = variance_rate(traj, static_observable(sigma_z), t)
        assert type(sp.t) is float and sp.t == t
        assert sp.var_rate == 0.0
        assert sp.sigma == 0.0


def test_variance_rate_rotating_observable_is_zero():
    traj = damping_trajectory(omega=1.0)
    for t in (0.1, 0.8, 1.9):
        sp = variance_rate(traj, ROTATING, round(t / traj.dt) * traj.dt)
        assert sp.variance == pytest.approx(1.0, abs=1e-12)
        assert abs(sp.var_rate) < 1e-12


def test_variance_rate_identity_decomposition():
    # var_rate must always equal its two published pieces added together.
    rng = np.random.default_rng(97)
    model = random_model(rng, 2)
    traj = integrate(model, random_state(rng, 2), t_max=0.2, dt=1e-3)
    a = static_observable(random_hermitian(rng, 2))
    sp = variance_rate(traj, a, 0.1)
    assert sp.var_rate == sp.rho_dot_term + 2 * sp.cov


def test_state_derivative_modes_and_errors():
    traj = damping_trajectory(t_max=0.5)
    k = traj.index_of(0.25)
    analytic = state_derivative(traj, k, 0.25, "analytic")
    fd = state_derivative(traj, k, 0.25, "finite_difference")
    assert np.max(np.abs(analytic - fd)) < 1e-6
    with pytest.raises(ValueError, match="no two-sided neighbors"):
        state_derivative(traj, 0, 0.0, "finite_difference")
    with pytest.raises(ValueError, match="mode"):
        state_derivative(traj, k, 0.25, "adjoint")
    bare = damping_trajectory(t_max=0.5, with_model=False)
    with pytest.raises(ValueError, match="no model"):
        state_derivative(bare, k, 0.25, "analytic")


# ---------------------------------------------------------------------------
# mean_rate

def random_run(seed, dim, dt, time_dependent):
    """A seeded open model at dimension dim, integrated to t = 0.4, and an observable."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    traj = integrate(model, random_state(rng, dim), t_max=0.4, dt=dt)
    return traj, random_observable(rng, dim, time_dependent=time_dependent)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("time_dependent", [False, True])
def test_mean_rate_is_the_heisenberg_mean_under_analytic_rho_dot(dim, time_dependent):
    # tr(rho_dot A) + <partial_t A> against <Adot>, the Heisenberg picture.
    traj, a = random_run(500 + dim, dim, 1e-3, time_dependent)
    times = traj.times[1:-1]
    sp = variance_rate(traj, a, times, "analytic")
    rho_adot = traj.states[1:-1] @ adjoint_heisenberg_rate(traj.model, a, times)
    want = np.trace(rho_adot, axis1=1, axis2=2).real
    assert np.max(np.abs(sp.mean_rate - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    one = variance_rate(traj, a, float(times[7]), "analytic")
    assert type(one.mean_rate) is float and one.mean_rate == sp.mean_rate[7]


@pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_mean_rate_is_the_central_difference_of_the_mean(mode, dim):
    # The gap to (mean[k+1] - mean[k-1]) / 2dt falls as dt^2: by 4 when
    # dt halves, within a margin for the next order.
    gaps = []
    for dt in (2e-3, 1e-3):
        traj, a = random_run(600 + dim, dim, dt, time_dependent=True)
        sp = variance_rate(traj, a, traj.times[1:-1], mode)
        central = (sp.mean[2:] - sp.mean[:-2]) / (2.0 * dt)
        gaps.append(np.max(np.abs(sp.mean_rate[1:-1] - central)))
    assert gaps[0] < 1e-3
    assert 3.5 < gaps[0] / gaps[1] < 4.5


def test_finite_difference_mean_rate_of_a_static_observable_is_the_central_difference():
    # With rho_dot the central difference of the states and A static,
    # tr(rho_dot A) is the central difference of the mean itself.
    traj, a = random_run(603, 3, 2e-3, time_dependent=False)
    sp = variance_rate(traj, a, traj.times[1:-1], "finite_difference")
    central = (sp.mean[2:] - sp.mean[:-2]) / (2.0 * 2e-3)
    assert np.max(np.abs(sp.mean_rate[1:-1] - central)) <= 1e-12 * np.max(np.abs(central))
