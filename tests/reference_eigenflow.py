"""Eigenvector-flow diagnostics as written before each state was
decomposed only once per call.

Every pairing decomposes both of its states afresh, the residuals
re-extract the generator and then pair the same two states a second
time, and ``eigenflow_rate_terms`` pairs (k, k+1) twice.  Tests hold
``dynamics.extract_pseudo_hamiltonian``, ``pseudo_hamiltonian_residuals``
and ``eigenflow_rate_terms`` to it, values bit for bit and errors by
message.  It decomposes through ``reference_linalg``'s tie-sorting
eigendecomposition, so it does not change with the code it checks.
"""

import numpy as np
from reference_linalg import as_density_matrix, hermitian_eigendecomposition, symmetrize

from fluctuation_bounds.dynamics import G_MIN, Trajectory
from fluctuation_bounds.observables import TimeDependentObservable


def _nondegenerate_decomposition(rho, what: str):
    dec = hermitian_eigendecomposition(as_density_matrix(rho))
    gaps = -np.diff(dec.eigenvalues)
    if dec.eigenvalues.shape[-1] > 1 and float(np.min(gaps)) < G_MIN:
        raise ValueError(
            f"{what} spectrum is degenerate (min gap {float(np.min(gaps)):.3e} < {G_MIN})"
        )
    return dec


def _match_columns(ref: np.ndarray, other: np.ndarray) -> list:
    """For each column of ref, the index of the other column with the
    largest overlap.  Errors when the two best overlaps are within 10%
    of each other or when the assignment is not one-to-one."""
    n = ref.shape[1]
    overlap = np.abs(other.conj().T @ ref)  # overlap[k, j] = |<other_k|ref_j>|
    picks = []
    for j in range(n):
        col = overlap[:, j]
        order = np.argsort(-col)
        best = int(order[0])
        if n > 1:
            runner = int(order[1])
            if col[runner] >= 0.9 * col[best]:
                raise ValueError(
                    f"eigenvector pairing ambiguous: overlaps {col[best]:.6f} and "
                    f"{col[runner]:.6f} within 10%"
                )
        picks.append(best)
    if len(set(picks)) != n:
        raise ValueError("eigenvector pairing is not one-to-one")
    return picks


def _paired_eigensystem(rho_a, rho_b):
    """Eigenvectors of both states, columns of b reordered onto a's and
    phase-fixed so <psi_j(a)|psi_j(b)> is real positive."""
    dec_a = _nondegenerate_decomposition(rho_a, "first state")
    dec_b = _nondegenerate_decomposition(rho_b, "second state")
    picks = _match_columns(dec_a.eigenvectors, dec_b.eigenvectors)
    vb = np.empty_like(dec_b.eigenvectors)
    pb = np.empty_like(dec_b.eigenvalues)
    for j, k in enumerate(picks):
        col = dec_b.eigenvectors[:, k]
        ov = np.vdot(dec_a.eigenvectors[:, j], col)
        if abs(ov) > 0:
            col = col * (ov.conjugate() / abs(ov))
        vb[:, j] = col
        pb[j] = dec_b.eigenvalues[k]
    return dec_a, vb, pb


def extract_pseudo_hamiltonian(rho_a, rho_b, dt: float) -> np.ndarray:
    """Hermitian generator moving the eigenvectors of rho_a onto rho_b.

    Builds the transfer map T = sum_j |psi_j(b)><psi_j(a)| from
    overlap-paired, phase-fixed eigenvectors and returns the Hermitian
    part of i(T - I)/dt.  The generator is gauge-dependent; only
    commutator expectations against the state are physical.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dec_a, vb, _ = _paired_eigensystem(rho_a, rho_b)
    transfer = vb @ dec_a.eigenvectors.conj().T
    dim = transfer.shape[0]
    return symmetrize(1j * (transfer - np.eye(dim)) / dt)


def pseudo_hamiltonian_residuals(rho_a, rho_b, dt: float) -> np.ndarray:
    """Per-eigenvector norms ||(I - i Omega dt) psi_j(a) - psi_j(b)||."""
    omega = extract_pseudo_hamiltonian(rho_a, rho_b, dt)
    dec_a, vb, _ = _paired_eigensystem(rho_a, rho_b)
    step = np.eye(omega.shape[0], dtype=complex) - 1j * dt * omega
    return np.linalg.norm(step @ dec_a.eigenvectors - vb, axis=0)


def eigenflow_rate_terms(traj: Trajectory, a: TimeDependentObservable, k: int):
    """Decompose d<A>/dt at interior grid index k into the eigenvalue-drift,
    explicit-time and eigenvector-flow contributions.

    Eigenvalue rates use central differences with overlap pairing against
    the middle point; the flow generator is extracted over the forward
    step, so the decomposition carries O(dt) error overall.
    """
    if not 0 < k < len(traj) - 1:
        raise ValueError(f"index {k} has no two-sided neighbors")
    dt = traj.dt
    rho_k = traj.states[k]
    t_k = float(traj.times[k])
    dec_k, _, p_next = _paired_eigensystem(rho_k, traj.states[k + 1])
    _, _, p_prev = _paired_eigensystem(rho_k, traj.states[k - 1])
    p_dot = (p_next - p_prev) / (2.0 * dt)

    a_k = a.evaluate(t_k)
    vecs = dec_k.eigenvectors
    diag_a = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), a_k, vecs))
    pdot_term = float(np.dot(p_dot, diag_a))
    partial_term = float(np.trace(rho_k @ a.partial_time(t_k)).real)
    omega = extract_pseudo_hamiltonian(rho_k, traj.states[k + 1], dt)
    omega_term = float((1j * np.trace(rho_k @ (omega @ a_k - a_k @ omega))).real)
    return pdot_term, partial_term, omega_term
