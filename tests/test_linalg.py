"""Matrix algebra identities, eigensystems, exponentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fluctuation_bounds.linalg import (
    TAU_ORTH,
    TAU_RECON,
    TAU_UNIT,
    as_density_matrices,
    as_density_matrix,
    as_matrix,
    hermitian_eigendecomposition,
    matrix_exponential_antihermitian,
    matrix_from_dict,
    matrix_to_dict,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_z,
)

# ---------------------------------------------------------------------------
# oracles

def expm_series_oracle(g: np.ndarray, s: float, terms: int = 20) -> np.ndarray:
    """Partial sum of exp(-i*s*g) = sum_k (-i*s*g)^k / k!."""
    x = -1j * s * np.asarray(g, dtype=complex)
    out = np.eye(g.shape[0], dtype=complex)
    term = np.eye(g.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    return out


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1><1|


# ---------------------------------------------------------------------------
# eigendecomposition

def test_eigh_sigma_z():
    dec = hermitian_eigendecomposition(sigma_z)
    assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-15)
    assert_allclose(dec.eigenvectors[:, 0], [1.0, 0.0], atol=1e-15)
    assert_allclose(dec.eigenvectors[:, 1], [0.0, 1.0], atol=1e-15)


def test_eigh_damped_population_state():
    # Diagonal state diag(1 - e^{-Gt}, e^{-Gt}): eigenvalues are that pair,
    # sorted descending.
    for gt in (0.1, np.log(2.0), 1.0, 3.0):
        p1 = np.exp(-gt)
        rho = np.diag([1.0 - p1, p1]).astype(complex)
        dec = hermitian_eigendecomposition(rho)
        expected = sorted([1.0 - p1, p1], reverse=True)
        assert_allclose(dec.eigenvalues, expected, atol=1e-15)


def test_eigh_reconstruction_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        m = random_hermitian(rng, dim)
        dec = hermitian_eigendecomposition(m)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        assert dec.gram_defect() <= TAU_ORTH
        assert np.max(np.abs(dec.reconstruct() - m)) <= TAU_RECON * max(1.0, np.abs(m).max())


def test_eigh_phase_fix():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = random_hermitian(rng, 4)
        dec = hermitian_eigendecomposition(m)
        for j in range(4):
            v = dec.eigenvectors[:, j]
            k = int(np.argmax(np.abs(v)))
            assert v[k].imag == pytest.approx(0.0, abs=1e-12)
            assert v[k].real > 0


def test_eigh_degenerate_is_deterministic():
    dec1 = hermitian_eigendecomposition(np.eye(3, dtype=complex))
    dec2 = hermitian_eigendecomposition(np.eye(3, dtype=complex))
    assert_allclose(dec1.eigenvalues, np.ones(3), atol=1e-15)
    assert np.array_equal(dec1.eigenvectors, dec2.eigenvectors)
    # Columns are still an orthonormal set reconstructing the identity.
    assert dec1.gram_defect() <= TAU_ORTH
    assert_allclose(dec1.reconstruct(), np.eye(3), atol=1e-14)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigendecomposition(sigma_minus)


# ---------------------------------------------------------------------------
# matrix exponential

def test_expm_diagonal_generator():
    for theta in (0.3, 1.0, 2.5):
        u = matrix_exponential_antihermitian(sigma_z, theta)
        expected = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        assert_allclose(u, expected, atol=1e-14)


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(23)
    g = random_hermitian(rng, 3)
    assert_allclose(matrix_exponential_antihermitian(g, 0.0), np.eye(3), atol=1e-14)


def test_expm_half_pi_x_rotation():
    u = matrix_exponential_antihermitian(sigma_x, np.pi / 2)
    assert_allclose(u, expm_series_oracle(sigma_x, np.pi / 2, terms=20), atol=1e-13)
    assert_allclose(u, -1j * sigma_x, atol=1e-14)


@settings(max_examples=100)
@given(seed=st.integers(0, 10**6), s=st.floats(-5.0, 5.0), dim=st.integers(2, 6))
def test_expm_unitary(seed, s, dim):
    rng = np.random.default_rng(seed)
    g = random_hermitian(rng, dim)
    u = matrix_exponential_antihermitian(g, s)
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= TAU_UNIT * dim


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential_antihermitian(sigma_plus, 1.0)


# ---------------------------------------------------------------------------
# validation and serialization

def test_as_matrix_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_density_matrix_accepts_valid_states():
    as_density_matrix(np.eye(2) / 2)
    as_density_matrix(PROJ_1)
    rng = np.random.default_rng(29)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    as_density_matrix(rho)


def test_density_matrix_names_violated_invariant():
    with pytest.raises(ValueError, match="hermiticity"):
        as_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        as_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="positivity"):
        as_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_stack_matches_single_checks():
    rng = np.random.default_rng(37)
    good = []
    for dim in (2, 2, 2):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = m @ m.conj().T
        good.append(rho / np.trace(rho).real)
    assert np.array_equal(as_density_matrices(good), np.stack(good))
    bad = {
        "hermiticity": np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
        "trace": np.eye(2, dtype=complex),
        "positivity": np.diag([1.5, -0.5]).astype(complex),
        "finite": np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex),
    }
    for name, state in bad.items():
        with pytest.raises(ValueError) as single:
            as_density_matrix(state)
        with pytest.raises(ValueError, match=name) as stacked:
            as_density_matrices(good + [state] + good)
        assert str(stacked.value) == str(single.value)
    # the first bad state is the one reported
    with pytest.raises(ValueError, match="trace"):
        as_density_matrices([good[0], bad["trace"], bad["positivity"]])
    with pytest.raises(ValueError, match="positivity"):
        as_density_matrices([bad["positivity"], bad["trace"]], tau_psd=1e-8)
    with pytest.raises(ValueError, match="shape"):
        as_density_matrices(np.eye(2))


def test_matrix_dict_round_trip():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)


def test_matrix_from_dict_real_only():
    m = matrix_from_dict({"re": [[1.0, 0.0], [0.0, -1.0]]})
    assert np.array_equal(m, sigma_z)


def test_matrix_from_dict_shape_mismatch():
    with pytest.raises(ValueError, match="re/im"):
        matrix_from_dict({"re": [[1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
