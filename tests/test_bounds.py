"""The two fluctuation-growth inequalities and their supporting identities."""

import numpy as np
import pytest
from conftest import random_hermitian, random_jump, random_model, random_observable, random_state
from reference_points import closed_system_anticommutator_rate

from fluctuation_bounds.bounds import (
    TAU_BOUND,
    adjoint_heisenberg_rate,
    cauchy_schwarz_margin,
    closed_bound,
    open_bound,
    var_rate_residual,
)
from fluctuation_bounds.dynamics import (
    analytic_amplitude_damping,
    integrate,
    lindblad_model,
    lindblad_rhs,
    trajectory_from_states,
)
from fluctuation_bounds.linalg import sigma_minus, sigma_x, sigma_y, sigma_z
from fluctuation_bounds.observables import constant, cosine, observable, sine, static_observable
from fluctuation_bounds.stats import variance, variance_rate

PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
ROTATING = observable([(cosine(1.0, 1.0), sigma_x), (sine(1.0, 1.0), sigma_y)])


def damping_model(gamma_rate=1.0, omega=None):
    h = None if omega is None else static_observable((omega / 2.0) * sigma_z)
    return lindblad_model(h, [np.sqrt(gamma_rate) * sigma_minus])


def damping_trajectory(gamma_rate=1.0, omega=0.0, t_max=3.0, dt=1e-3):
    times = np.arange(int(round(t_max / dt)) + 1) * dt
    states = [analytic_amplitude_damping(PROJ_1, gamma_rate, omega, t) for t in times]
    return trajectory_from_states(
        times, states, damping_model(gamma_rate, omega if omega != 0.0 else None)
    )


def example1_lhs(t, gamma_rate=1.0):
    e = np.exp(-gamma_rate * t)
    return gamma_rate**2 * e * (1 - 2 * e) ** 2 / (1 - e)


# ---------------------------------------------------------------------------
# open bound

def test_open_bound_damped_population():
    traj = damping_trajectory()
    a = static_observable(sigma_z)
    for t in (0.1, 0.4, 1.0, 2.5):
        rep = open_bound(traj, a, t, stat=variance_rate(traj, a, t))
        assert not rep.skipped
        assert rep.lhs == pytest.approx(example1_lhs(t), rel=1e-10)
        # with no explicit time dependence the two sides sit in a fixed 2:1 ratio
        assert rep.rhs == pytest.approx(2 * rep.lhs, abs=1e-10)
        assert rep.satisfied and rep.margin >= -TAU_BOUND


def test_open_bound_zero_lhs_at_sign_change():
    traj = damping_trajectory()
    t = traj.times[traj.index_of(round(np.log(2) / traj.dt) * traj.dt)]
    a = static_observable(sigma_z)
    rep = open_bound(traj, a, t, stat=variance_rate(traj, a, t))
    assert rep.lhs < 1e-5  # the mean crosses zero here, so the rate vanishes
    assert rep.satisfied


def test_open_bound_rotating_observable():
    traj = damping_trajectory(omega=1.0)
    for t in (0.2, 0.9, 2.0):
        rep = open_bound(traj, ROTATING, t, stat=variance_rate(traj, ROTATING, t))
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs == pytest.approx(2.0, abs=1e-10)
        assert rep.satisfied


def test_open_bound_skips_zero_spread():
    ground = np.diag([1.0, 0.0]).astype(complex)
    times = np.arange(11) * 0.1
    traj = trajectory_from_states(times, [ground] * 11, damping_model())
    a = static_observable(sigma_z)
    rep = open_bound(traj, a, 0.5, stat=variance_rate(traj, a, 0.5))
    assert rep.skipped
    assert "sigma" in rep.reason
    assert not rep.satisfied
    assert np.isnan(rep.margin)


def test_open_bound_generator_independence():
    # Finite-difference and analytic state derivatives must agree on the
    # reports up to the stencil's own O(dt^2) error.
    traj = damping_trajectory(t_max=1.0)
    a = static_observable(sigma_z)
    for t in (0.1, 0.5, 0.9):
        r_an = open_bound(traj, a, t, stat=variance_rate(traj, a, t, "analytic"))
        r_fd = open_bound(traj, a, t, stat=variance_rate(traj, a, t, "finite_difference"))
        assert r_fd.lhs == pytest.approx(r_an.lhs, abs=1e-5)
        assert r_fd.rhs == pytest.approx(r_an.rhs, abs=1e-5)
        assert r_fd.satisfied


# ---------------------------------------------------------------------------
# Heisenberg rate and the closed bound

def test_heisenberg_rate_of_static_a_undriven_is_formed_once():
    # Static A under an undriven model: the rate is the same at every time,
    # formed at the first and returned as a read-only broadcast, bit for
    # bit the per-time rates stacked.
    rng = np.random.default_rng(31)
    times = np.linspace(0.0, 2.0, 41)
    for d in (2, 3, 5):
        model, a = random_model(rng, d), random_observable(rng, d)
        stack = adjoint_heisenberg_rate(model, a, times)
        assert stack.shape == (41, d, d) and not stack.flags.writeable and stack.strides[0] == 0
        per_time = np.stack([adjoint_heisenberg_rate(model, a, float(t)) for t in times])
        assert stack.tobytes() == per_time.tobytes()
        assert adjoint_heisenberg_rate(model, a, times[:0]).shape == (0, d, d)
        with pytest.raises(ValueError, match="^time must be finite, got nan$"):
            adjoint_heisenberg_rate(model, a, np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            adjoint_heisenberg_rate(model, random_observable(rng, d + 1), times)


def test_heisenberg_rate_of_driven_model_or_time_dependent_a_is_stacked():
    rng = np.random.default_rng(32)
    times = np.linspace(0.0, 2.0, 41)
    for d in (2, 3):
        h = observable([(constant(1.0), random_hermitian(rng, d)), (cosine(0.8, 2.0), random_hermitian(rng, d))])
        driven = lindblad_model(h, [random_jump(rng, d)])
        for model, a in ((driven, random_observable(rng, d)),
                         (random_model(rng, d), random_observable(rng, d, time_dependent=True))):
            stack = adjoint_heisenberg_rate(model, a, times)
            assert stack.flags.writeable and stack.strides[0] != 0
            per_time = np.stack([adjoint_heisenberg_rate(model, a, float(t)) for t in times])
            assert stack.tobytes() == per_time.tobytes()


def test_adjoint_rate_damping():
    model = damping_model(gamma_rate=1.3)
    adot = adjoint_heisenberg_rate(model, static_observable(sigma_z), 0.0)
    assert np.max(np.abs(adot - 2 * 1.3 * PROJ_1)) < 1e-14


def test_adjoint_rate_conserved_observable():
    model = lindblad_model(static_observable(0.7 * sigma_z), [])
    adot = adjoint_heisenberg_rate(model, static_observable(sigma_z), 1.0)
    assert np.max(np.abs(adot)) == 0.0


def test_adjoint_rate_precession():
    omega = 1.1
    model = lindblad_model(static_observable((omega / 2.0) * sigma_z), [])
    adot = adjoint_heisenberg_rate(model, static_observable(sigma_x), 0.0)
    oracle = 1j * (omega / 2.0) * (sigma_z @ sigma_x - sigma_x @ sigma_z)
    assert np.max(np.abs(adot - oracle)) < 1e-14
    assert np.max(np.abs(adot - (-omega) * sigma_y)) < 1e-14


def test_adjoint_rate_is_dual_to_rhs():
    # tr(X L(rho)) = tr(L^dag(X) rho), with L^dag(X) = Adot - partial_t X,
    # on driven models and time-dependent observables.
    rng = np.random.default_rng(97)
    for dim in (2, 3, 5):
        for _ in range(4):
            h = observable([
                (cosine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)), random_hermitian(rng, dim)),
                (sine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)), random_hermitian(rng, dim)),
            ])
            model = lindblad_model(h, [random_jump(rng, dim) for _ in range(int(rng.integers(1, 4)))])
            a = random_observable(rng, dim, time_dependent=True)
            rho = random_state(rng, dim)
            t = float(rng.uniform(0.0, 3.0))
            lhs = np.trace(a.evaluate(t) @ lindblad_rhs(model, rho, t))
            rhs = np.trace((adjoint_heisenberg_rate(model, a, t) - a.partial_time(t)) @ rho)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def gamma_of(t, gamma_rate):
    return 1 - np.exp(-gamma_rate * t)


def test_closed_bound_on_damping_crossover():
    traj = damping_trajectory()
    a = static_observable(sigma_z)
    model = traj.model

    t_half = round(np.log(2) / traj.dt) * traj.dt  # damping probability 1/2
    rep = closed_bound(traj, model, a, t_half, stat=variance_rate(traj, a, t_half))
    assert rep.satisfied
    assert rep.rhs == pytest.approx(4 * gamma_of(t_half, 1) * (1 - gamma_of(t_half, 1)), rel=1e-9)

    t_eighth = round(np.log(8 / 7) / traj.dt) * traj.dt  # damping probability ~ 1/8
    rep = closed_bound(traj, model, a, t_eighth, stat=variance_rate(traj, a, t_eighth))
    assert not rep.satisfied and not rep.skipped
    assert rep.margin < -TAU_BOUND


def test_closed_bound_rhs_is_adjoint_rate_spread():
    # sigma_{Adot} = 2 Gamma sqrt(gamma(1-gamma)) along the decay
    for gamma_rate in (0.5, 1.0, 2.0):
        traj = damping_trajectory(gamma_rate, t_max=2.0)
        a = static_observable(sigma_z)
        for t in (0.2, 0.7, 1.5):
            rep = closed_bound(traj, traj.model, a, t, stat=variance_rate(traj, a, t))
            g = gamma_of(t, gamma_rate)
            assert np.sqrt(rep.rhs) == pytest.approx(2 * gamma_rate * np.sqrt(g * (1 - g)), abs=1e-8)


def test_closed_bound_flip_time():
    for gamma_rate in (0.5, 1.0, 2.0):
        dt = 1e-3
        traj = damping_trajectory(gamma_rate, t_max=2.0 / gamma_rate, dt=dt)
        a = static_observable(sigma_z)
        flags = []
        for k in range(1, len(traj) - 1):
            t = float(traj.times[k])
            flags.append(closed_bound(traj, traj.model, a, t, stat=variance_rate(traj, a, t)).satisfied)
        flips = [i for i in range(1, len(flags)) if flags[i] != flags[i - 1]]
        assert len(flips) == 1
        t_flip = traj.times[flips[0] + 1]
        t_star = np.log(4 / 3) / gamma_rate
        assert abs(t_flip - t_star) <= dt


# ---------------------------------------------------------------------------
# variance-rate residual and Cauchy-Schwarz

def test_var_rate_residual_damping():
    traj = damping_trajectory(t_max=2.0)
    a = static_observable(sigma_z)
    for t in (0.1, 0.7, 1.5):
        assert var_rate_residual(traj, a, t, stat=variance_rate(traj, a, t)) <= 1e-5


def test_var_rate_residual_static_scenario():
    ground = np.diag([1.0, 0.0]).astype(complex)
    times = np.arange(11) * 0.1
    traj = trajectory_from_states(times, [ground] * 11, damping_model())
    a = static_observable(sigma_z)
    assert var_rate_residual(traj, a, 0.5, stat=variance_rate(traj, a, 0.5)) == 0.0


def test_var_rate_residual_rotating():
    traj = damping_trajectory(omega=1.0, t_max=2.0)
    for t in (0.3, 1.1):
        sp = variance_rate(traj, ROTATING, t)
        assert abs(sp.rho_dot_term) < 1e-12
        assert abs(sp.cov) < 1e-12
        assert var_rate_residual(traj, ROTATING, t, stat=sp) <= 1e-5


def test_var_rate_residual_boundary_error():
    # The edge is checked before the neighbours' variances are formed.
    traj = damping_trajectory(t_max=0.01)
    a = static_observable(sigma_z)
    with pytest.raises(ValueError, match=r"^grid index 0 has no two-sided neighbors$"):
        var_rate_residual(traj, a, 0.0, stat=variance_rate(traj, a, 0.0))


def test_cauchy_schwarz_everywhere():
    rng = np.random.default_rng(101)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        model = random_model(rng, dim)
        traj = integrate(model, random_state(rng, dim), t_max=0.1, dt=1e-3)
        a = random_observable(rng, dim, time_dependent=True)
        for t in (0.02, 0.05, 0.08):
            assert cauchy_schwarz_margin(traj, a, t, stat=variance_rate(traj, a, t)) >= -1e-10


def test_cauchy_schwarz_margin_from_the_stat_point_is_bitwise_the_same():
    # A scalar margin is element k of the grid margin, bit for bit.
    rng = np.random.default_rng(109)
    model = random_model(rng, 3)
    traj = integrate(model, random_state(rng, 3), t_max=0.05, dt=1e-3)
    a = random_observable(rng, 3, time_dependent=True)
    times = traj.times[1:-1]
    grid = cauchy_schwarz_margin(traj, a, times, stat=variance_rate(traj, a, times))
    for k, t in enumerate(times[::10].tolist()):
        one = cauchy_schwarz_margin(traj, a, t, stat=variance_rate(traj, a, t))
        assert type(one) is float and one == grid[10 * k]


def test_square_sum_inequality_on_encountered_pairs():
    # (x+y)^2 <= 2(x^2+y^2) for the actual decomposition pieces
    rng = np.random.default_rng(103)
    for _ in range(10):
        model = random_model(rng, 2)
        traj = integrate(model, random_state(rng, 2), t_max=0.1, dt=1e-3)
        a = random_observable(rng, 2, time_dependent=True)
        sp = variance_rate(traj, a, 0.05)
        x, y = sp.rho_dot_term, 2 * sp.cov
        assert (x + y) ** 2 <= 2 * (x**2 + y**2) + 1e-12


# ---------------------------------------------------------------------------
# closed-system identities

def test_anticommutator_rate_matches_finite_difference():
    model = lindblad_model(static_observable(sigma_x / 2), [])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = integrate(model, rho0, t_max=1.0, dt=1e-3)
    a = static_observable(sigma_z)
    for k in (100, 500, 900):
        t = float(traj.times[k])
        rate = closed_system_anticommutator_rate(traj, model, a, t)
        var_up = variance(traj.states[k + 1], sigma_z)
        var_dn = variance(traj.states[k - 1], sigma_z)
        fd = (var_up - var_dn) / (2 * traj.dt)
        assert abs(rate - fd) < 1e-6


def test_anticommutator_rate_conserved_observable():
    model = lindblad_model(static_observable(sigma_z), [])
    traj = integrate(model, np.diag([0.8, 0.2]).astype(complex), t_max=0.1, dt=1e-3)
    assert closed_system_anticommutator_rate(traj, model, static_observable(sigma_z), 0.05) == 0.0


def test_anticommutator_rate_cross_check_with_variance_rate():
    model = lindblad_model(static_observable(0.5 * sigma_z), [])
    traj = integrate(model, np.diag([0.7, 0.3]).astype(complex), t_max=1.0, dt=1e-3)
    for t in (0.2, 0.6):
        rate = closed_system_anticommutator_rate(traj, model, ROTATING, t)
        sp = variance_rate(traj, ROTATING, t)
        assert rate == pytest.approx(sp.var_rate, abs=1e-8)


def test_anticommutator_rate_rejects_open_models():
    traj = damping_trajectory(t_max=0.1)
    with pytest.raises(ValueError, match="jump operators"):
        closed_system_anticommutator_rate(traj, traj.model, static_observable(sigma_z), 0.05)


def test_closed_bound_holds_for_closed_models():
    rng = np.random.default_rng(107)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        model = lindblad_model(static_observable(random_hermitian(rng, dim)), [])
        traj = integrate(model, random_state(rng, dim), t_max=0.1, dt=1e-3)
        a = random_observable(rng, dim, time_dependent=bool(rng.integers(2)))
        for t in (0.02, 0.05, 0.08):
            rep = closed_bound(traj, model, a, t, stat=variance_rate(traj, a, t))
            if not rep.skipped:
                assert rep.margin >= -1e-9
