"""Kraus channels: amplitude damping, completeness, composition."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from reference_channels import completeness_residual, kraus_channel

from fluctuation_bounds.channels import amplitude_damping, apply
from fluctuation_bounds.dynamics import analytic_amplitude_damping
from fluctuation_bounds.linalg import matrix_exponential_antihermitian, sigma_minus

PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def random_state(rng, dim=2):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim=2):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return matrix_exponential_antihermitian((m + m.conj().T) / 2, 1.0)


# ---------------------------------------------------------------------------
# construction

def test_amplitude_damping_endpoints():
    ch0 = amplitude_damping(0.0)
    assert_allclose(ch0.operators[0], np.eye(2), atol=0)
    assert_allclose(ch0.operators[1], np.zeros((2, 2)), atol=0)
    ch1 = amplitude_damping(1.0)
    assert_allclose(ch1.operators[0], np.diag([1.0, 0.0]), atol=0)
    assert_allclose(ch1.operators[1], sigma_minus, atol=0)


def test_amplitude_damping_half_life():
    # gamma = 1 - e^{-Gamma t} at Gamma = 1, t = ln 2 is exactly 1/2
    gamma = 1.0 - np.exp(-np.log(2.0))
    assert gamma == pytest.approx(0.5, abs=1e-15)
    ch = amplitude_damping(gamma)
    assert ch.operators[1][0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_amplitude_damping_rejects_bad_gamma():
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            amplitude_damping(bad)


def test_kraus_channel_rejects_incomplete_set():
    with pytest.raises(ValueError, match="completeness"):
        kraus_channel([np.eye(2) / 2])


# ---------------------------------------------------------------------------
# apply

def test_apply_identity_channel():
    rng = np.random.default_rng(47)
    ch = amplitude_damping(0.0)
    rho = random_state(rng)
    assert_allclose(apply(ch, rho), rho, atol=1e-15)


def test_apply_excited_state():
    for gamma in (0.2, 0.5, 0.9):
        out = apply(amplitude_damping(gamma), PROJ_1)
        assert_allclose(out, np.diag([gamma, 1.0 - gamma]), atol=1e-15)


def test_apply_equal_superposition_half_damping():
    # |psi> = (|0> + |1>)/sqrt(2), gamma = 1/2; direct substitution oracle
    rho = np.full((2, 2), 0.5, dtype=complex)
    gamma = 0.5
    e0 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    e1 = np.sqrt(gamma) * sigma_minus
    oracle = e0 @ rho @ e0.conj().T + e1 @ rho @ e1.conj().T
    out = apply(amplitude_damping(gamma), rho)
    assert_allclose(out, oracle, atol=1e-15)
    expected = np.array([[0.75, np.sqrt(0.5) / 2], [np.sqrt(0.5) / 2, 0.25]])
    assert_allclose(out, expected, atol=1e-15)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply(amplitude_damping(0.5), np.eye(3) / 3)


def test_apply_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(53)
    for _ in range(50):
        u = random_unitary(rng)
        v = random_unitary(rng)
        base = amplitude_damping(rng.uniform(0, 1))
        ch = kraus_channel([u @ e @ v for e in base.operators])
        out = apply(ch, random_state(rng))
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.array_equal(out, out.conj().T)


# ---------------------------------------------------------------------------
# completeness residual

def test_completeness_residual_valid_channel():
    assert completeness_residual(amplitude_damping(0.3).operators) < 1e-15


def test_completeness_residual_half_identity():
    assert completeness_residual([np.eye(2) / 2]) == pytest.approx(0.75, abs=1e-15)


def test_completeness_residual_unitary_singleton():
    rng = np.random.default_rng(59)
    assert completeness_residual([random_unitary(rng, 3)]) <= 1e-12


def test_completeness_residual_of_no_operators_is_a_value_error():
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        completeness_residual([])


# ---------------------------------------------------------------------------
# composition and master-equation consistency

def test_composition_law():
    rng = np.random.default_rng(61)
    for _ in range(100):
        g1 = rng.uniform(0, 1)
        g2 = rng.uniform(0, 1)
        rho = random_state(rng)
        two_step = apply(amplitude_damping(g2), apply(amplitude_damping(g1), rho))
        one_step = apply(amplitude_damping(g1 + g2 - g1 * g2), rho)
        assert np.max(np.abs(two_step - one_step)) < 1e-12


def test_channel_matches_analytic_solution():
    rng = np.random.default_rng(67)
    for _ in range(100):
        rho0 = random_state(rng)
        gamma_rate = rng.uniform(0.1, 3.0)
        t = rng.uniform(0.0, 4.0)
        via_channel = apply(amplitude_damping(1.0 - np.exp(-gamma_rate * t)), rho0)
        via_lindblad = analytic_amplitude_damping(rho0, gamma_rate, 0.0, t)
        assert np.max(np.abs(via_channel - via_lindblad)) < 1e-10
