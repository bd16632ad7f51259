"""Lindblad right-hand side, RK4 integration, closed forms, generator extraction."""

import itertools

import numpy as np
import pytest
import reference_coefficients
from conftest import (
    SCREEN_PASSES,
    placed_state,
    positivity_cases,
    random_hermitian,
    random_jump,
    random_model,
    random_state,
)
from numpy.testing import assert_allclose
from reference_rk4 import block_integrate, generator_parts, reference_integrate, reference_rhs
from reference_rk4 import check_steps as reference_check_steps

from fluctuation_bounds import dynamics
from fluctuation_bounds.dynamics import (
    CHECK_BLOCK,
    G_MIN,
    STEP_MAP_MAX,
    TAU_PSD_RUN,
    IntegrationError,
    analytic_amplitude_damping,
    eigenflow_rate_terms,
    extract_pseudo_hamiltonian,
    integrate,
    lindblad_model,
    lindblad_rhs,
    pseudo_hamiltonian_residuals,
    step_map_size,
    trajectory_from_states,
)
from fluctuation_bounds.linalg import (
    TAU_TRACE,
    matrix_exponential_antihermitian,
    sigma_minus,
    sigma_x,
    sigma_z,
)
from fluctuation_bounds.observables import (
    CoefficientFunction,
    constant,
    cosine,
    exponential_decay,
    observable,
    polynomial,
    sine,
    static_observable,
)

PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def damping_model(gamma_rate, omega=None):
    h = None if omega is None else static_observable((omega / 2.0) * sigma_z)
    return lindblad_model(h, [np.sqrt(gamma_rate) * sigma_minus])


def driven_model(rng, dim, n_jumps):
    """Static part plus cosine, sine, polynomial and exponential-decay drives."""
    scale = 1.0 / np.sqrt(dim)
    h = observable(
        [
            (constant(1.0), scale * random_hermitian(rng, dim)),
            (cosine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0), rng.uniform(0, 6)),
             scale * random_hermitian(rng, dim)),
            (sine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0), rng.uniform(0, 6)),
             scale * random_hermitian(rng, dim)),
            (polynomial([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)]),
             scale * random_hermitian(rng, dim)),
            (exponential_decay(rng.uniform(0.5, 1.5), rng.uniform(-1, 2)),
             scale * random_hermitian(rng, dim)),
        ]
    )
    return lindblad_model(h, [random_jump(rng, dim, 0.7 * scale) for _ in range(n_jumps)])


# ---------------------------------------------------------------------------
# right-hand side

def test_rhs_pure_decay_from_excited():
    model = damping_model(1.7)
    rhs = lindblad_rhs(model, PROJ_1)
    assert_allclose(rhs, 1.7 * np.diag([1.0, -1.0]), atol=1e-14)


def test_rhs_closed_system_is_von_neumann():
    omega = 0.9
    model = lindblad_model(static_observable((omega / 2.0) * sigma_z), [])
    plus = np.full((2, 2), 0.5, dtype=complex)
    h = (omega / 2.0) * sigma_z
    assert_allclose(lindblad_rhs(model, plus), -1j * (h @ plus - plus @ h), atol=1e-15)


def test_rhs_coherence_decay_rate():
    # On the analytic state the off-diagonal obeys
    # d(rho01)/dt = -(Gamma/2 + i omega) rho01.
    gamma_rate, omega = 1.3, 0.8
    model = damping_model(gamma_rate, omega)
    rho0 = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    for t in (0.0, 0.7, 2.1):
        rho = analytic_amplitude_damping(rho0, gamma_rate, omega, t)
        rhs = lindblad_rhs(model, rho, t)
        assert rhs[0, 1] == pytest.approx(-(gamma_rate / 2 + 1j * omega) * rho[0, 1], abs=1e-14)


def test_rhs_traceless_random_models():
    rng = np.random.default_rng(71)
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        model = random_model(rng, dim)
        rho = random_state(rng, dim)
        rhs = lindblad_rhs(model, rho, 0.3)
        assert abs(np.trace(rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_rhs_matches_matrix_form_on_driven_models():
    # Stage inputs need not be Hermitian, so compare on general matrices too.
    rng = np.random.default_rng(75)
    for dim in range(2, 9):
        model = driven_model(rng, dim, 1 + dim % 3)
        for rho in (random_state(rng, dim), random_jump(rng, dim)):
            for t in (0.0, 0.37, 2.5):
                assert_allclose(lindblad_rhs(model, rho, t), reference_rhs(model, rho, t),
                                rtol=0, atol=1e-13)


def test_operator_sum_layout():
    # Terms: -iK | I, I | iK^dag, one L | L^dag per jump, then one pair per drive.
    model = damping_model(1.0, omega=0.8)
    a, b = model.terms()
    assert model.n_terms == 3 and a.shape == b.shape == (3, 2, 2)
    k = 0.4 * sigma_z - 0.5j * (sigma_minus.conj().T @ sigma_minus)
    assert_allclose(a[0], -1j * k, atol=1e-15)
    assert_allclose(b[1], 1j * k.conj().T, atol=1e-15)
    assert_allclose(a[2], sigma_minus, atol=1e-15)
    assert_allclose(model.weights(3.0), np.ones(3))
    driven = lindblad_model(observable([(cosine(2.0, 1.0), sigma_x)]), [])
    assert driven.n_terms == 4
    assert_allclose(driven.weights(0.5), [1.0, 1.0, 2 * np.cos(0.5), 2 * np.cos(0.5)])
    with pytest.raises(ValueError, match="finite"):
        lindblad_rhs(driven, np.eye(2) / 2, float("nan"))


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        lindblad_rhs(damping_model(1.0), np.eye(3) / 3)


# ---------------------------------------------------------------------------
# integration

def test_integrate_decay_population():
    traj = integrate(damping_model(1.0), PROJ_1, t_max=1.0, dt=1e-3)
    rho_end = traj.states[-1]
    assert abs(rho_end[1, 1].real - np.exp(-1.0)) < 1e-8


def test_integrate_closed_system_matches_exponential():
    h = 0.7 * sigma_x + 0.3 * sigma_z
    model = lindblad_model(static_observable(h), [])
    rho0 = np.diag([0.8, 0.2]).astype(complex)
    traj = integrate(model, rho0, t_max=1.0, dt=1e-3)
    for k in (100, 500, 1000):
        u = matrix_exponential_antihermitian(h, traj.times[k])
        assert np.max(np.abs(traj.states[k] - u @ rho0 @ u.conj().T)) < 1e-8


def test_integrate_fourth_order_convergence():
    model = damping_model(1.0)
    errs = {}
    for dt in (0.02, 0.01):
        traj = integrate(model, PROJ_1, t_max=2.0, dt=dt)
        exact = analytic_amplitude_damping(PROJ_1, 1.0, 0.0, 2.0)
        errs[dt] = np.max(np.abs(traj.states[-1] - exact))
    ratio = errs[0.02] / errs[0.01]
    assert 16 * 0.8 <= ratio <= 16 * 1.2


def test_integrate_state_invariants_hold():
    traj = integrate(damping_model(2.0, omega=1.0), PROJ_1, t_max=3.0, dt=1e-3)
    for rho in traj.states[:: 50]:
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) <= 1e-8
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
    assert traj.dt == pytest.approx(1e-3)
    assert len(traj) == 3001
    assert traj.index_of(traj.times[42]) == 42


def test_integrate_aborts_on_instability():
    # dt far beyond the RK4 stability region makes the population explode;
    # the run must stop at the first bad state, not return garbage.
    with pytest.raises(IntegrationError, match="positivity") as err:
        integrate(damping_model(1.0), PROJ_1, t_max=30.0, dt=3.0)
    assert err.value.t == pytest.approx(3.0)


def test_integrate_matches_per_step_reference_loop():
    rng = np.random.default_rng(77)
    for dim in range(2, 9):
        for n_jumps in (1, 2, 3):
            model = driven_model(rng, dim, n_jumps)
            rho0 = random_state(rng, dim)
            traj = integrate(model, rho0, t_max=0.3, dt=2e-3)
            times, states = reference_integrate(model, rho0, 0.3, 2e-3)
            assert np.array_equal(traj.times, times)
            assert np.max(np.abs(traj.states - states)) <= 1e-12


def _reference_failure(model, rho0, t_max, dt):
    with pytest.raises(IntegrationError) as ref:
        reference_integrate(model, rho0, t_max, dt)
    return ref.value


def test_integrate_positivity_failure_inside_block_reports_reference_step():
    # Gamma dt just past RK4's real stability limit (2.785): the excited
    # population grows by a few percent per step and the ground population
    # turns negative after tens of steps, in the middle of a check block.
    mixed = np.eye(2, dtype=complex) / 2
    for dt, step in ((2.8, 32), (2.79, 98)):
        ref = _reference_failure(damping_model(1.0), mixed, 300 * dt, dt)
        assert ref.t == pytest.approx(step * dt)
        assert step % CHECK_BLOCK not in (0, 1)
        with pytest.raises(IntegrationError, match="positivity") as err:
            integrate(damping_model(1.0), mixed, t_max=300 * dt, dt=dt)
        assert str(err.value) == str(ref)
        assert err.value.t == ref.t


def test_integrate_reports_failed_step_before_a_later_exception():
    # A zero-amplitude growing drive adds nothing until math.exp overflows
    # at step 43; positivity is already lost at step 32 of the same block.
    h = observable([(exponential_decay(0.0, -6.0), sigma_x)])
    model = lindblad_model(h, [sigma_minus])
    mixed = np.eye(2, dtype=complex) / 2
    ref = _reference_failure(model, mixed, 300 * 2.8, 2.8)
    with pytest.raises(IntegrationError) as err:
        integrate(model, mixed, t_max=300 * 2.8, dt=2.8)
    assert (str(err.value), err.value.t) == (str(ref), ref.t)
    with pytest.raises(OverflowError):
        integrate(model, PROJ_1, t_max=300 * 2.8, dt=0.1)


def test_integrate_raises_on_non_finite_state():
    # A t^8 drive of size 1e300 overflows in the first step; the NaN state
    # must abort the run, not be returned as a trajectory.
    coeffs = [0.0] * 8 + [1e300]
    model = lindblad_model(observable([(polynomial(coeffs), sigma_x)]), [0.5 * sigma_minus])
    with pytest.raises(IntegrationError) as err:
        integrate(model, PROJ_1, t_max=30.0, dt=0.05)
    assert err.value.t == pytest.approx(0.05)


def test_integrate_validates_arguments():
    model = damping_model(1.0)
    with pytest.raises(ValueError, match="dt"):
        integrate(model, PROJ_1, t_max=1.0, dt=0.0)
    with pytest.raises(ValueError, match="t_max"):
        integrate(model, PROJ_1, t_max=1e-4, dt=1e-3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        integrate(model, np.eye(3) / 3, t_max=1.0, dt=1e-3)


@pytest.mark.parametrize("t_max,dt,match", [
    (1.0, float("nan"), "dt must be positive and finite, got nan"),
    (1.0, float("inf"), "dt must be positive and finite, got inf"),
    (float("inf"), 1e-3, "t_max must be finite, got inf"),
    (float("nan"), 1e-3, "t_max must be finite, got nan"),
    (float("inf"), float("inf"), "dt must be positive and finite"),
])
def test_integrate_rejects_non_finite_grid(t_max, dt, match):
    with pytest.raises(ValueError, match=match):
        integrate(damping_model(1.0), PROJ_1, t_max=t_max, dt=dt)


# ---------------------------------------------------------------------------
# step maps

DRIVES = (
    lambda rng: cosine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0), rng.uniform(0, 6)),
    lambda rng: sine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0), rng.uniform(0, 6)),
    lambda rng: polynomial([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)]),
    lambda rng: exponential_decay(rng.uniform(0.5, 1.5), rng.uniform(-1, 2)),
)


def model_with_drives(rng, dim, n_drives, n_jumps, first_kind=0):
    """Static part plus n_drives time-dependent terms whose kinds cycle
    through DRIVES from first_kind."""
    scale = 1.0 / np.sqrt(dim)
    terms = [(constant(1.0), scale * random_hermitian(rng, dim))]
    terms += [(DRIVES[(first_kind + k) % len(DRIVES)](rng), scale * random_hermitian(rng, dim))
              for k in range(n_drives)]
    return lindblad_model(observable(terms), [random_jump(rng, dim, 0.7 * scale) for _ in range(n_jumps)])


def test_step_map_size_counts_the_monomial_maps():
    rng = np.random.default_rng(5)
    for n_drives, k in zip(range(4), (1, 12, 54, 160)):
        assert step_map_size(model_with_drives(rng, 3, n_drives, 1)) == k * 3 ** 4


def test_integrate_matches_reference_with_zero_to_three_drives():
    # 150 steps: two full check blocks and a partial one.
    rng = np.random.default_rng(2024)
    paths = set()
    for n_drives in range(4):
        for dim in range(2, 9):
            model = model_with_drives(rng, dim, n_drives, n_jumps=1 + dim % 3, first_kind=dim)
            paths.add(step_map_size(model) <= STEP_MAP_MAX)
            rho0 = random_state(rng, dim)
            traj = integrate(model, rho0, t_max=0.3, dt=2e-3)
            times, states = reference_integrate(model, rho0, 0.3, 2e-3)
            assert np.array_equal(traj.times, times)
            assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert paths == {True, False}  # models on both sides of the size rule


def test_step_map_states_are_exactly_hermitian():
    rng = np.random.default_rng(31)
    for model in (model_with_drives(rng, 4, 2, 2), model_with_drives(rng, 5, 0, 3)):
        assert step_map_size(model) <= STEP_MAP_MAX
        traj = integrate(model, random_state(rng, model.dim), t_max=0.2, dt=1e-3)
        for rho in traj.states[1:]:
            assert np.array_equal(rho, rho.conj().T)


def test_stage_loop_states_are_exactly_hermitian():
    # The block check accepts a finite block on its trace test and
    # Cholesky screen alone, without a Hermiticity scan; that is sound
    # only because both paths build states that are Hermitian bit for bit.
    rng = np.random.default_rng(32)
    model = model_with_drives(rng, 9, 2, 2)
    assert step_map_size(model) > STEP_MAP_MAX
    states = integrate(model, random_state(rng, model.dim), t_max=0.2, dt=1e-3).states[1:]
    assert np.array_equal(states, states.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("case", ["jump entry 1e308", "drive 1e300 t^8"])
def test_step_map_fails_at_the_first_non_finite_step(case, monkeypatch):
    if case == "jump entry 1e308":
        jump = np.array([[0.0, 1e308], [0.0, 0.0]], dtype=complex)
        with np.errstate(all="ignore"):  # L^dagger L overflows: a non-finite generator
            model = lindblad_model(static_observable(0.5 * sigma_z), [jump])
        t_max, dt = 1.0, 0.01
    else:
        model = lindblad_model(observable([(polynomial([0.0] * 8 + [1e300]), sigma_x)]),
                               [0.5 * sigma_minus])  # non-finite step map
        t_max, dt = 30.0, 0.05
    assert step_map_size(model) <= STEP_MAP_MAX
    # The reference loop lets a NaN state pass; its first one is step 1.
    with np.errstate(all="ignore"):
        _, states = reference_integrate(model, PROJ_1, t_max, dt)
    assert not np.isfinite(states[1]).all()
    with pytest.raises(IntegrationError) as fast:
        integrate(model, PROJ_1, t_max=t_max, dt=dt)
    monkeypatch.setattr(dynamics, "STEP_MAP_MAX", 0)
    with pytest.raises(IntegrationError) as operator_sum:
        integrate(model, PROJ_1, t_max=t_max, dt=dt)
    expected = (f"trace drift nan at t = {dt:.6g}", dt)
    assert (str(fast.value), fast.value.t) == (str(operator_sum.value), operator_sum.value.t) == expected


def test_non_finite_state_fails_at_its_time_before_eigvalsh(monkeypatch):
    # J[0, 1] = 1e308 at d = 3: L^dagger L overflows, and eigvalsh raises
    # LinAlgError on the first non-finite state instead of returning nan.
    jump = np.zeros((3, 3), dtype=complex)
    jump[0, 1] = 1e308
    with np.errstate(all="ignore"):
        model = lindblad_model(static_observable(np.diag([0.5, 0.0, -0.5])), [jump])
    rho0 = np.diag([0.2, 0.3, 0.5])
    eigvalsh = np.linalg.eigvalsh

    def nan_if_non_finite(a):
        return eigvalsh(a) if np.isfinite(a).all() else np.full(a.shape[:-1], np.nan)

    with monkeypatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(np.linalg, "eigvalsh", nan_if_non_finite)
        times, states = reference_integrate(model, rho0, 1.0, 0.01)
    j = int(np.argmin(np.isfinite(states).all(axis=(1, 2))))
    assert j > 0
    t = float(times[j])
    drift = abs(np.trace(states[j]).real - 1.0)
    with pytest.raises(IntegrationError) as err:
        integrate(model, rho0, 1.0, 0.01)
    assert (str(err.value), err.value.t) == (f"trace drift {drift:.3e} at t = {t:.6g}", t)


def test_block_check_fails_a_non_finite_lower_entry_at_its_time():
    rng = np.random.default_rng(71)
    states = np.array([placed_state(rng, 5, 0.01) for _ in range(6)])
    states[3, 4, 0] = np.nan  # trace and diagonal stay finite
    states[5, 0, 0] = np.nan  # a later state that fails as well
    with pytest.raises(IntegrationError) as err:
        dynamics._check_steps(states, 0.5 * np.arange(1, 7))
    assert (str(err.value), err.value.t) == ("positivity lost (min eigenvalue nan) at t = 2", 2.0)


def test_step_map_overflow_on_a_finite_run_takes_the_operator_sum():
    # c dt = 1e-5 per step, but the degree-4 monomial c^4 overflows, so
    # every block is taken by the operator sum instead.
    dt = 1e-90
    model = lindblad_model(observable([(constant(0.5), sigma_z), (polynomial([1e85]), sigma_x)]),
                           [0.5 * sigma_minus])
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    traj = integrate(model, rho0, t_max=100 * dt, dt=dt)
    _, states = reference_integrate(model, rho0, 100 * dt, dt)
    assert np.max(np.abs(states[-1] - states[0])) > 1e-4
    assert np.max(np.abs(traj.states - states)) <= 1e-12


def test_drive_overflow_at_the_first_stage_of_a_block_propagates():
    # exp(110.56 t) overflows between t = 6.4 and 6.45: at the midpoint of
    # step 65, the first step of the second check block, with no step of
    # that block taken yet.
    dt = 0.1
    h = observable([(constant(0.5), sigma_z), (exponential_decay(0.0, -110.56), sigma_x)])
    model = lindblad_model(h, [0.1 * sigma_minus])
    with pytest.raises(OverflowError):
        reference_integrate(model, PROJ_1, 10.0, dt)
    with pytest.raises(OverflowError):
        integrate(model, PROJ_1, t_max=10.0, dt=dt)


def _failure(run):
    with pytest.raises((IntegrationError, OverflowError)) as err:
        run()
    return type(err.value), str(err.value), getattr(err.value, "t", None)


@pytest.mark.parametrize("path", ["step map", "stage loop"])
@pytest.mark.parametrize("case", ["drive overflow at block 2", "positivity at step 32, then drive overflow"])
def test_both_paths_fail_as_the_reference(path, case, monkeypatch):
    if case == "drive overflow at block 2":
        # exp(110.56 t) overflows at the first midpoint of the second check
        # block, so that block's drive table has no step.
        h = observable([(constant(0.5), sigma_z), (exponential_decay(0.0, -110.56), sigma_x)])
        model, rho0, t_max, dt = lindblad_model(h, [0.1 * sigma_minus]), PROJ_1, 10.0, 0.1
        kind = OverflowError
    else:
        # The drive overflows at step 43, after positivity is lost at step 32.
        model = lindblad_model(observable([(exponential_decay(0.0, -6.0), sigma_x)]), [sigma_minus])
        rho0, t_max, dt = np.eye(2, dtype=complex) / 2, 300 * 2.8, 2.8
        kind = IntegrationError
    assert step_map_size(model) <= STEP_MAP_MAX
    expected = _failure(lambda: reference_integrate(model, rho0, t_max, dt))
    assert expected[0] is kind
    if path == "stage loop":
        monkeypatch.setattr(dynamics, "STEP_MAP_MAX", 0)
    assert _failure(lambda: integrate(model, rho0, t_max=t_max, dt=dt)) == expected


def test_each_run_evaluates_its_drive_table_once(monkeypatch):
    # Every block of this run falls back from the step map to the stage
    # loop (see the c = 1e85 test above); both read the one table of the
    # run: one kernel call per coefficient, over its 2 * steps + 1 stage
    # times, however many blocks there are.
    dt, steps = 1e-90, 100
    assert steps > CHECK_BLOCK
    model = lindblad_model(observable([(constant(0.5), sigma_z), (polynomial([1e85]), sigma_x),
                                       (cosine(0.1, 1.0), sigma_z)]),
                           [0.5 * sigma_minus])
    calls = []
    values = CoefficientFunction.values

    def counted(self, times, derivative=False):
        calls.append(len(times))
        return values(self, times, derivative)

    monkeypatch.setattr(CoefficientFunction, "values", counted)
    integrate(model, np.diag([0.3, 0.7]).astype(complex), t_max=steps * dt, dt=dt)
    assert calls == [2 * steps + 1] * len(model.drive)


# ---------------------------------------------------------------------------
# per-run tables against the per-block reference, bit for bit

def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("path", ["step map", "stage loop"])
def test_integrate_matches_the_block_reference_bit_for_bit(path, monkeypatch):
    # d = 2..8 with 0..3 drives (kinds cycling with d), over one step, one
    # block short of, at and past CHECK_BLOCK, and three blocks and one step.
    if path == "stage loop":
        monkeypatch.setattr(dynamics, "STEP_MAP_MAX", 0)
    rng = np.random.default_rng(2121)
    paths = set()
    for dim in range(2, 9):
        for n_drives in range(4):
            model = model_with_drives(rng, dim, n_drives, n_jumps=1 + dim % 3, first_kind=dim + n_drives)
            paths.add(step_map_size(model) <= dynamics.STEP_MAP_MAX)
            rho0 = random_state(rng, dim)
            for steps in (1, CHECK_BLOCK - 1, CHECK_BLOCK, CHECK_BLOCK + 1, 3 * CHECK_BLOCK + 1):
                traj = integrate(model, rho0, t_max=steps * 2e-3, dt=2e-3)
                times, states = block_integrate(model, rho0, steps * 2e-3, 2e-3)
                assert np.array_equal(bits(traj.times), bits(times))
                assert np.array_equal(bits(traj.states), bits(states)), (dim, n_drives, steps)
    assert paths == ({True, False} if path == "step map" else {False})


@pytest.mark.parametrize("path", ["step map", "stage loop"])
def test_negative_zero_coordinates_match_the_block_reference(path, monkeypatch):
    # A diagonal state whose coherences are -0.0 under a diagonal
    # Hamiltonian and decay: the coherences stay zero, signed as each
    # path's arithmetic leaves them, over three blocks and one step.
    if path == "stage loop":
        monkeypatch.setattr(dynamics, "STEP_MAP_MAX", 0)
    d = 3
    rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
    rho0[~np.eye(d, dtype=bool)] = complex(-0.0, 0.0)
    lower = np.diag([1.0, 1.0], 1).astype(complex)
    for drive in (constant(1.0), sine(0.7, 1.3, 0.2)):
        h = observable([(constant(0.5), np.diag([1.0, 0.0, -1.0])), (drive, np.diag([0.0, 1.0, 0.0]))])
        model = lindblad_model(h, [0.4 * lower])
        traj = integrate(model, rho0, t_max=(3 * CHECK_BLOCK + 1) * 0.01, dt=0.01)
        _, states = block_integrate(model, rho0, (3 * CHECK_BLOCK + 1) * 0.01, 0.01)
        x = dynamics._coordinates(traj.states[0])
        assert np.signbit(x[x == 0]).any()
        assert np.array_equal(bits(traj.states), bits(states))


def test_a_block_after_a_stage_loop_block_reads_its_coordinates_again(monkeypatch):
    # c(t) = 1e85 exp(-1e90 t): the degree-4 monomial overflows in the
    # first block only, so that block falls back to the stage loop and the
    # blocks after it take step maps again from the states it wrote.
    dt = 1e-90
    model = lindblad_model(observable([(constant(0.5), sigma_z), (exponential_decay(1e85, 1e90), sigma_x)]),
                           [0.5 * sigma_minus])
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    assert step_map_size(model) <= STEP_MAP_MAX
    blocks = []
    stage_block = dynamics._stage_block

    def counted(model, states, dt, start, table):
        blocks.append(start)
        stage_block(model, states, dt, start, table)

    monkeypatch.setattr(dynamics, "_stage_block", counted)
    traj = integrate(model, rho0, t_max=200 * dt, dt=dt)
    assert blocks == [1]
    _, states = block_integrate(model, rho0, 200 * dt, dt)
    assert np.array_equal(bits(traj.states), bits(states))


@pytest.mark.parametrize("path", ["step map", "stage loop"])
@pytest.mark.parametrize("case", ["drive overflow mid-block", "drive overflow at block 2",
                                  "non-finite step map", "positivity, then drive overflow"])
def test_failures_match_the_block_reference(path, case, monkeypatch):
    if case == "drive overflow mid-block":
        # exp(1000 t) overflows once t passes 0.71: step 143, in the third block.
        h = observable([(constant(0.5), sigma_z), (exponential_decay(1e-300, -1000.0), sigma_x)])
        model, rho0, t_max, dt = lindblad_model(h, [0.3 * sigma_minus]), PROJ_1, 1.0, 0.005
    elif case == "drive overflow at block 2":
        h = observable([(constant(0.5), sigma_z), (exponential_decay(0.0, -110.56), sigma_x)])
        model, rho0, t_max, dt = lindblad_model(h, [0.1 * sigma_minus]), PROJ_1, 10.0, 0.1
    elif case == "non-finite step map":
        # The step map of step 1 is not finite; the stage loop takes the
        # block again and its state fails the check.
        model = lindblad_model(observable([(polynomial([0.0] * 8 + [1e300]), sigma_x)]), [0.5 * sigma_minus])
        rho0, t_max, dt = PROJ_1, 30.0, 0.05
    else:
        model = lindblad_model(observable([(exponential_decay(0.0, -6.0), sigma_x)]), [sigma_minus])
        rho0, t_max, dt = np.eye(2, dtype=complex) / 2, 300 * 2.8, 2.8
    assert step_map_size(model) <= STEP_MAP_MAX
    if path == "stage loop":
        monkeypatch.setattr(dynamics, "STEP_MAP_MAX", 0)
    expected = _failure(lambda: block_integrate(model, rho0, t_max, dt))
    assert _failure(lambda: integrate(model, rho0, t_max=t_max, dt=dt)) == expected


def test_generator_parts_match_the_stacked_product():
    rng = np.random.default_rng(2122)
    for dim in range(2, 13):
        for n_drives in range(4):
            model = model_with_drives(rng, dim, n_drives, n_jumps=dim % 3, first_kind=n_drives)
            assert np.array_equal(bits(dynamics._generator_parts(model)), bits(generator_parts(model)))


# Two drives that fail at different stage times (the second first), and
# at the same one, in both orders.  On a grid of 0.125: cosine(1e308 t)
# and exp(390 t) first fail at t = 1.875, exp(100 t) at t = 7.125.  The
# amplitudes keep the drives below 1e-3 before that.
COS = cosine(1e-300, 1e308, 0.0)
EXP_100, EXP_390 = exponential_decay(1e-300, -100.0), exponential_decay(1e-300, -390.0)
FAILING_DRIVES = {
    "different times": (EXP_100, COS),
    "same time, cosine first": (COS, EXP_390),
    "same time, exponential first": (EXP_390, COS),
}


@pytest.mark.parametrize("case", list(FAILING_DRIVES))
def test_drive_table_fails_as_the_time_major_loop(case):
    drive = FAILING_DRIVES[case]
    stage_times = 0.125 * np.arange(81)
    got, error = dynamics._drive_values(drive, stage_times)
    want, want_error = reference_coefficients.drive_values(drive, stage_times.tolist())
    assert (type(error), str(error)) == (type(want_error), str(want_error))
    assert got.shape == want.shape == (15, 2) and np.array_equal(got, want)
    # integrate raises that error once the steps before it are checked
    model = lindblad_model(observable([(constant(0.5), sigma_z), (drive[0], sigma_x), (drive[1], sigma_z)]),
                           [0.3 * sigma_minus])
    with pytest.raises(type(want_error)) as run:
        integrate(model, PROJ_1, t_max=10.0, dt=0.25)
    with pytest.raises(type(want_error)) as reference:
        reference_integrate(model, PROJ_1, 10.0, 0.25)
    assert str(run.value) == str(reference.value) == str(want_error)


def test_block_check_screen_matches_the_eigvalsh_reference(monkeypatch):
    rng = np.random.default_rng(67)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for dim in (2, 3, 5, 8):
        cases = positivity_cases(rng, dim, TAU_PSD_RUN)
        for name_a, name_b in itertools.product(cases, repeat=2):
            for names in (["valid", name_a, "valid", name_b], [name_a, name_b], []):
                states = np.array([cases[n] for n in names], dtype=complex).reshape(-1, dim, dim)
                times = 0.25 * np.arange(1, len(states) + 1)
                calls.clear()
                got = block_check_outcome(dynamics._check_steps, states, times)
                # The states before the first non-finite one are checked
                # with no eigenvalue when there are two or more and all
                # are at or above -0.4 tau.
                prefix = list(itertools.takewhile(lambda n: "nan" not in n and "inf" not in n, names))
                assert (not calls) == (len(prefix) > 1 and SCREEN_PASSES.issuperset(prefix))
                assert got == expected_block_outcome(states, times)


def block_check_outcome(check, states, times):
    try:
        check(states, times)
    except IntegrationError as err:
        return str(err), err.t
    return None


def expected_block_outcome(states, times):
    """The reference's outcome on the states before the first non-finite
    one; if those pass, that state fails with minimum eigenvalue nan (the
    reference's eigvalsh may raise LinAlgError on it, or pass it)."""
    finite = np.isfinite(states).all(axis=(1, 2))
    j = int(np.argmin(finite)) if not finite.all() else len(states)
    want = block_check_outcome(reference_check_steps, states[:j], times[:j])
    if want is None and j < len(states):
        t = float(times[j])
        drift = abs(np.trace(states[j]).real - 1.0)
        if not drift <= TAU_TRACE:
            return f"trace drift {drift:.3e} at t = {t:.6g}", t
        return f"positivity lost (min eigenvalue nan) at t = {t:.6g}", t
    return want


def test_size_rule_picks_the_path(monkeypatch):
    def operator_sum(*args):
        raise AssertionError("operator-sum stage")

    monkeypatch.setattr(dynamics, "_apply", operator_sum)
    rng = np.random.default_rng(8)
    small = [damping_model(1.0, omega=1.0), model_with_drives(rng, 3, 1, 2),
             model_with_drives(rng, 6, 3, 1)]
    large = model_with_drives(rng, 7, 3, 1)
    assert max(map(step_map_size, small)) <= STEP_MAP_MAX < step_map_size(large)
    for model in small:
        integrate(model, random_state(rng, model.dim), t_max=0.2, dt=1e-3)
    with pytest.raises(AssertionError, match="operator-sum stage"):
        integrate(large, random_state(rng, large.dim), t_max=0.2, dt=1e-3)


# ---------------------------------------------------------------------------
# closed-form solution

def test_analytic_excited_state_decay():
    for gamma_rate in (0.5, 1.0, 2.0):
        for t in (0.1, 1.0, 3.0):
            rho = analytic_amplitude_damping(PROJ_1, gamma_rate, 0.0, t)
            decay = np.exp(-gamma_rate * t)
            assert_allclose(rho, np.diag([1.0 - decay, decay]), atol=1e-15)


def test_analytic_time_zero_is_identity_map():
    rng = np.random.default_rng(73)
    rho0 = random_state(rng, 2)
    rho0 = (rho0 + rho0.conj().T) / 2
    assert np.array_equal(analytic_amplitude_damping(rho0, 1.3, 0.7, 0.0), rho0)


def test_analytic_long_time_limit():
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    rho = analytic_amplitude_damping(rho0, 1.0, 0.0, 50.0)
    assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) < 1e-10


def test_analytic_coherence_rotation():
    rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    gamma_rate, omega, t = 0.6, 1.4, 1.1
    rho = analytic_amplitude_damping(rho0, gamma_rate, omega, t)
    expected = 0.3 * np.exp(-gamma_rate * t / 2) * np.exp(-1j * omega * t)
    assert rho[0, 1] == pytest.approx(expected, abs=1e-15)
    assert rho[1, 0] == pytest.approx(np.conj(expected), abs=1e-15)


def test_analytic_validates_input():
    with pytest.raises(ValueError, match="dimension 2"):
        analytic_amplitude_damping(np.eye(3) / 3, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        analytic_amplitude_damping(PROJ_1, -1.0, 0.0, 1.0)


def test_analytic_rejects_nan_rate():
    with pytest.raises(ValueError, match="decay rate must be nonnegative, got nan"):
        analytic_amplitude_damping(PROJ_1, np.nan, 0.0, 1.0)


def test_analytic_rejects_infinite_rate_and_splitting():
    # An infinite rate gives exp(-inf * 0) = nan at t = 0.
    for gamma_rate, omega in ((np.inf, 0.0), (1.0, np.inf), (1.0, -np.inf), (1.0, np.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            analytic_amplitude_damping(PROJ_1, gamma_rate, omega, 0.0)


def test_analytic_rejects_infinite_time():
    for t in (np.inf, np.array([0.0, 0.5, np.inf]), [np.nan]):
        with pytest.raises(ValueError, match="time must be finite"):
            analytic_amplitude_damping(PROJ_1, 1.0, 0.0, t)


# ---------------------------------------------------------------------------
# external trajectories

def test_trajectory_from_states_wraps_grid():
    times = np.arange(5) * 0.1
    states = [np.diag([0.6, 0.4]).astype(complex)] * 5
    traj = trajectory_from_states(times, states)
    assert traj.model is None
    assert traj.dim == 2


def test_trajectory_from_states_rejects_bad_input():
    good = np.diag([0.6, 0.4]).astype(complex)
    with pytest.raises(ValueError, match="uniform"):
        trajectory_from_states([0.0, 0.1, 0.3], [good] * 3)
    with pytest.raises(ValueError, match="positivity"):
        trajectory_from_states([0.0, 0.1], [good, np.diag([1.5, -0.5]).astype(complex)])
    with pytest.raises(ValueError, match="grid"):
        trajectory_from_states([0.0, 0.1], [good, good]).index_of(0.05)


def test_trajectory_from_states_rejects_non_finite_grid():
    good = np.diag([0.6, 0.4]).astype(complex)
    for times in ([0.0, 1.0, np.nan], [np.nan, 1.0, 2.0], [0.0, np.inf, np.inf]):
        with pytest.raises(ValueError, match="trajectory grid must be uniform and increasing"):
            trajectory_from_states(times, [good] * 3)


def test_trajectory_from_states_needs_one_state_per_time():
    good = np.diag([0.6, 0.4]).astype(complex)
    for states in (good, [good] * 3):  # one (2, 2) state, not a stack of two; three states
        with pytest.raises(ValueError, match="lengths differ"):
            trajectory_from_states([0.0, 0.1], states)


# ---------------------------------------------------------------------------
# pseudo-Hamiltonian extraction

def test_extract_stationary_diagonal_gives_zero():
    rho = np.diag([0.7, 0.3]).astype(complex)
    omega = extract_pseudo_hamiltonian(rho, rho, 1e-3)
    assert np.array_equal(omega, np.zeros((2, 2)))


def test_extract_damping_diagonal_gives_zero():
    # Eigenvectors stay |0>, |1> for the whole decay, so no flow generator.
    rho_a = analytic_amplitude_damping(PROJ_1, 1.0, 0.0, 0.1)
    rho_b = analytic_amplitude_damping(PROJ_1, 1.0, 0.0, 0.1 + 1e-3)
    omega = extract_pseudo_hamiltonian(rho_a, rho_b, 1e-3)
    assert np.max(np.abs(omega)) < 1e-12


def closed_pair(h, rho0, t, dt):
    ua = matrix_exponential_antihermitian(h, t)
    ub = matrix_exponential_antihermitian(h, t + dt)
    return ua @ rho0 @ ua.conj().T, ub @ rho0 @ ub.conj().T


def test_extract_reproduces_hamiltonian_commutator():
    h = sigma_x
    rho0 = np.diag([0.8, 0.2]).astype(complex)
    a = sigma_z
    for dt, tol in ((1e-3, 1e-2), (1e-4, 1e-3)):
        rho_a, rho_b = closed_pair(h, rho0, 0.4, dt)
        omega = extract_pseudo_hamiltonian(rho_a, rho_b, dt)
        got = (1j * np.trace(rho_a @ (omega @ a - a @ omega))).real
        want = (1j * np.trace(rho_a @ (h @ a - a @ h))).real
        assert abs(got - want) < tol


def test_extract_residual_is_second_order():
    h = 0.9 * sigma_x + 0.4 * sigma_z
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    res = {}
    for dt in (2e-3, 1e-3, 5e-4):
        rho_a, rho_b = closed_pair(h, rho0, 0.3, dt)
        res[dt] = float(np.max(pseudo_hamiltonian_residuals(rho_a, rho_b, dt)))
    c_fit = res[2e-3] / (2e-3) ** 2
    for dt in (1e-3, 5e-4):
        assert res[dt] <= 1.5 * c_fit * dt**2
        assert res[dt] >= 0.5 * c_fit * dt**2


def test_extract_rejects_degenerate_and_ambiguous():
    with pytest.raises(ValueError, match="degenerate"):
        extract_pseudo_hamiltonian(np.eye(2) / 2, np.diag([0.7, 0.3]), 1e-3)
    rho_a = np.diag([0.8, 0.2]).astype(complex)
    u = matrix_exponential_antihermitian(sigma_y_like(), np.pi / 4)
    rho_b = u @ rho_a @ u.conj().T
    with pytest.raises(ValueError, match="ambiguous"):
        extract_pseudo_hamiltonian(rho_a, rho_b, 1e-3)
    with pytest.raises(ValueError, match="dt"):
        extract_pseudo_hamiltonian(rho_a, rho_a, 0.0)
    assert G_MIN == 1e-6


def sigma_y_like():
    return np.array([[0.0, -1.0j], [1.0j, 0.0]])


def test_eigenflow_rejects_infinite_step():
    rho_a, rho_b = np.diag([0.8, 0.2]).astype(complex), np.diag([0.79, 0.21]).astype(complex)
    for fn in (extract_pseudo_hamiltonian, pseudo_hamiltonian_residuals):
        with pytest.raises(ValueError, match="dt must be finite, got inf"):
            fn(rho_a, rho_b, np.inf)
        with pytest.raises(ValueError, match="dt must be positive, got -inf"):
            fn(rho_a, rho_b, -np.inf)
    # A hand-built grid whose first time is -inf has dt = inf.
    traj = dynamics.Trajectory(times=np.array([-np.inf, 0.0, 0.125]),
                               states=np.array([rho_b, rho_a, rho_b]), model=None)
    with pytest.raises(ValueError, match="dt must be finite, got inf"):
        eigenflow_rate_terms(traj, static_observable(sigma_z), 1)


# ---------------------------------------------------------------------------
# expectation-rate decomposition

def fd_expectation_rate(traj, a, k):
    dt = traj.dt
    up = np.trace(traj.states[k + 1] @ a.evaluate(traj.times[k + 1])).real
    dn = np.trace(traj.states[k - 1] @ a.evaluate(traj.times[k - 1])).real
    return (up - dn) / (2 * dt)


def test_eigenflow_closure_static_observable():
    model = lindblad_model(static_observable(sigma_x), [])
    traj = integrate(model, np.diag([0.8, 0.2]).astype(complex), t_max=1.0, dt=1e-3)
    a = static_observable(sigma_z)
    for k in (1, 250, 500, 999):
        terms = eigenflow_rate_terms(traj, a, k)
        assert abs(sum(terms) - fd_expectation_rate(traj, a, k)) < 10 * traj.dt


def test_eigenflow_closure_time_dependent_observable():
    model = lindblad_model(static_observable(0.5 * sigma_z), [])
    traj = integrate(model, np.diag([0.7, 0.3]).astype(complex), t_max=1.0, dt=1e-3)
    a = observable([(cosine(1.0, 1.0), sigma_x), (sine(1.0, 1.0), sigma_z)])
    for k in (10, 400, 800):
        terms = eigenflow_rate_terms(traj, a, k)
        assert abs(sum(terms) - fd_expectation_rate(traj, a, k)) < 10 * traj.dt


def test_eigenvalue_rates_sum_to_zero():
    traj = integrate(damping_model(1.0, omega=0.5), PROJ_1, t_max=1.0, dt=1e-3)
    sums = np.array([np.sum(np.linalg.eigvalsh(s)) for s in traj.states])
    p_dot_total = (sums[2:] - sums[:-2]) / (2 * traj.dt)
    assert np.max(np.abs(p_dot_total)) < 1e-8


def test_eigenflow_rejects_boundary_index():
    traj = integrate(damping_model(1.0), PROJ_1, t_max=0.1, dt=1e-3)
    with pytest.raises(ValueError, match="neighbors"):
        eigenflow_rate_terms(traj, static_observable(sigma_z), 0)
