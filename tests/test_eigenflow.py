"""Eigenvector-flow diagnostics against the pair-twice reference.

``extract_pseudo_hamiltonian`` and ``pseudo_hamiltonian_residuals``
decompose their two states as one stack; ``eigenflow_rate_terms`` reads
a trajectory's spectral series, built once for all its states.  They
must give bit-identical results to tests/reference_eigenflow.py,
which decomposes and pairs the same states several times, and raise the
reference's message for the first failing check, in the reference's order.
"""

import itertools

import numpy as np
import pytest
from conftest import random_hermitian, random_model, random_observable, random_state
from reference_eigenflow import eigenflow_rate_terms as ref_rate_terms
from reference_eigenflow import extract_pseudo_hamiltonian as ref_extract
from reference_eigenflow import pseudo_hamiltonian_residuals as ref_residuals

from fluctuation_bounds import dynamics
from fluctuation_bounds.dynamics import (
    Trajectory,
    eigenflow_rate_terms,
    extract_pseudo_hamiltonian,
    integrate,
    lindblad_model,
    pseudo_hamiltonian_residuals,
    trajectory_from_states,
)
from fluctuation_bounds.linalg import matrix_exponential_antihermitian, sigma_z
from fluctuation_bounds.observables import static_observable


def random_trajectories():
    rng = np.random.default_rng(2024)
    for dim in (2, 3, 4):
        for closed in (True, False):
            if closed:
                model = lindblad_model(static_observable(random_hermitian(rng, dim)), [])
            else:
                model = random_model(rng, dim, jump_scale=0.3)
            traj = integrate(model, random_state(rng, dim), t_max=0.2, dt=0.01)
            yield traj, random_observable(rng, dim, time_dependent=True)


TRAJECTORIES = list(random_trajectories())


@pytest.mark.parametrize("case", range(len(TRAJECTORIES)))
def test_outputs_are_bit_identical_to_reference(case):
    traj, a = TRAJECTORIES[case]
    dt = traj.dt
    for k in range(1, len(traj) - 1):
        assert eigenflow_rate_terms(traj, a, k) == ref_rate_terms(traj, a, k)
        rho_a, rho_b = traj.states[k], traj.states[k + 1]
        assert np.array_equal(extract_pseudo_hamiltonian(rho_a, rho_b, dt),
                              ref_extract(rho_a, rho_b, dt))
        assert np.array_equal(pseudo_hamiltonian_residuals(rho_a, rho_b, dt),
                              ref_residuals(rho_a, rho_b, dt))


def test_each_state_is_decomposed_once(monkeypatch):
    calls = []
    decompose = dynamics.hermitian_eigendecomposition

    def counting(m):
        calls.append(len(m) if np.ndim(m) == 3 else 1)  # states decomposed
        return decompose(m)

    monkeypatch.setattr(dynamics, "hermitian_eigendecomposition", counting)
    traj, a = TRAJECTORIES[3]
    traj = trajectory_from_states(traj.times, traj.states)  # no spectral series yet
    for k in range(1, len(traj) - 1):
        eigenflow_rate_terms(traj, a, k)
    assert sum(calls) == len(traj)
    rho_a, rho_b = traj.states[4], traj.states[5]
    for fn in (pseudo_hamiltonian_residuals, extract_pseudo_hamiltonian):
        calls.clear()
        fn(rho_a, rho_b, traj.dt)
        assert calls == [2], fn.__name__
    # A degenerate state at k = 6 fails k = 5, 6 and 7 from the series too.
    traj, a = TRAJECTORIES[2]  # d = 3
    states = np.array(traj.states)
    states[6] = np.diag([0.5, 0.25, 0.25])
    traj = Trajectory(times=traj.times, states=states, model=None)
    calls.clear()
    failed = [k for k in range(1, len(traj) - 1)
              if isinstance(outcome(eigenflow_rate_terms, traj, a, k)[0], type)]
    assert failed == [5, 6, 7]
    assert sum(calls) == len(traj)


def test_series_gives_the_reference_values_in_any_order():
    rng = np.random.default_rng(5)
    for case in (0, 3, 5):
        traj, a = TRAJECTORIES[case]
        fresh = trajectory_from_states(traj.times, traj.states)  # no spectral series yet
        order = rng.permutation(np.arange(1, len(traj) - 1))
        for k in [*order, order[2]]:  # shuffled, and one k a second time
            assert eigenflow_rate_terms(fresh, a, k) == ref_rate_terms(traj, a, k)


@pytest.mark.parametrize("replacement,message", [
    (np.diag([0.5, 0.25, 0.25]), "spectrum is degenerate"),
    (np.diag([0.6, 0.3, 0.2]), "violates trace normalization"),
])
def test_a_bad_state_fails_only_the_points_that_touch_it(replacement, message):
    traj, a = TRAJECTORIES[2]  # d = 3
    bad = 6
    states = np.array(traj.states)
    states[bad] = replacement
    # built by hand: trajectory_from_states refuses a state off trace one
    traj = Trajectory(times=traj.times, states=states, model=None)
    for k in range(1, len(traj) - 1):
        got = outcome(eigenflow_rate_terms, traj, a, k)
        assert got == outcome(ref_rate_terms, traj, a, k)
        if abs(k - bad) <= 1:
            assert message in got[1]
        else:
            assert all(isinstance(x, float) for x in got)


def test_trajectory_states_are_read_only():
    traj, _ = TRAJECTORIES[0]
    states = np.array(traj.states)
    wrapped = trajectory_from_states(traj.times, states)
    for t in (traj, wrapped):
        with pytest.raises(ValueError, match="read-only"):
            t.states[1] = t.states[0]
    states[3] = states[2]  # the caller's array stays writable, and apart
    assert np.array_equal(states[3], states[2])
    assert not np.array_equal(wrapped.states[3], wrapped.states[2])


ROTATION = matrix_exponential_antihermitian(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.pi / 4)
MIDDLE = np.diag([0.8, 0.2]).astype(complex)
NEIGHBOURS = {
    "ok": np.diag([0.79, 0.21]).astype(complex),
    "degenerate": np.eye(2, dtype=complex) / 2,
    "ambiguous": ROTATION @ MIDDLE @ ROTATION.conj().T,  # overlaps 1/sqrt(2) each
}


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("prev,middle,nxt", itertools.product(
    NEIGHBOURS, ("ok", "degenerate"), NEIGHBOURS))
def test_rate_terms_raise_the_reference_error_first(prev, middle, nxt):
    mid = MIDDLE if middle == "ok" else NEIGHBOURS["degenerate"]
    states = [NEIGHBOURS[prev], mid, NEIGHBOURS[nxt]]
    traj = trajectory_from_states([0.0, 0.125, 0.25], states)
    a = static_observable(sigma_z)
    got = outcome(eigenflow_rate_terms, traj, a, 1)
    assert got == outcome(ref_rate_terms, traj, a, 1)
    if (prev, middle, nxt) != ("ok", "ok", "ok"):
        # degenerate rho_{k-1}, rho_k or rho_{k+1}, or an ambiguous pairing
        # on either side, in the reference's order
        assert isinstance(got[1], str)
    for fn, ref in ((extract_pseudo_hamiltonian, ref_extract),
                    (pseudo_hamiltonian_residuals, ref_residuals)):
        got = outcome(fn, mid, NEIGHBOURS[nxt], 0.125)
        want = outcome(ref, mid, NEIGHBOURS[nxt], 0.125)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)


def test_index_and_step_checks_keep_their_order():
    a = static_observable(sigma_z)
    degenerate = NEIGHBOURS["degenerate"]
    # A hand-built grid running backwards has dt < 0: pairing errors come
    # first, then the dt check.
    for states in ([NEIGHBOURS["ok"], MIDDLE, NEIGHBOURS["ok"]], [degenerate, MIDDLE, degenerate]):
        traj = Trajectory(times=np.array([0.0, -0.125, -0.25]), states=np.array(states), model=None)
        for k in (0, 1, 2):
            got = outcome(eigenflow_rate_terms, traj, a, k)
            assert got == outcome(ref_rate_terms, traj, a, k)
            assert isinstance(got[1], str)
    for dt in (0.0, -0.125):
        for rho_b in (NEIGHBOURS["ok"], degenerate):
            want = outcome(ref_extract, MIDDLE, rho_b, dt)
            assert outcome(extract_pseudo_hamiltonian, MIDDLE, rho_b, dt) == want
            assert outcome(pseudo_hamiltonian_residuals, MIDDLE, rho_b, dt) == want
            assert "dt must be positive" in want[1]


def test_non_finite_step_is_rejected():
    # The reference lets nan through its dt <= 0 guard and returns all-nan.
    with np.errstate(invalid="ignore"):
        assert np.isnan(ref_extract(MIDDLE, NEIGHBOURS["ok"], float("nan"))).all()
    for fn in (extract_pseudo_hamiltonian, pseudo_hamiltonian_residuals):
        with pytest.raises(ValueError, match="dt must be positive, got nan"):
            fn(MIDDLE, NEIGHBOURS["ok"], float("nan"))
    traj = Trajectory(times=np.array([np.nan, 0.125, 0.25]),
                      states=np.array([NEIGHBOURS["ok"], MIDDLE, NEIGHBOURS["ok"]]), model=None)
    with pytest.raises(ValueError, match="dt must be positive, got nan"):
        eigenflow_rate_terms(traj, static_observable(sigma_z), 1)
