"""Dense complex matrix algebra for small quantum systems.

Everything here works on plain ``numpy`` arrays of shape ``(d, d)`` with
``complex128`` entries.  Validation helpers raise ``ValueError`` with the
name of the violated invariant; they never repair their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical tolerances, sized for double precision at dim <= 16.
TAU_HERM = 1e-10   # Hermiticity defect, scaled by the largest entry magnitude
TAU_TRACE = 1e-8   # unit-trace deviation of density matrices
TAU_PSD = 1e-10    # most negative admissible density-matrix eigenvalue
TAU_ORTH = 1e-10   # eigenvector orthonormality defect
TAU_RECON = 1e-9   # eigendecomposition reconstruction residual
TAU_UNIT = 1e-10   # unitarity defect of matrix exponentials

# Single-qubit operator basis (|0> first).
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
for _m in (sigma_x, sigma_y, sigma_z, sigma_plus, sigma_minus):
    _m.setflags(write=False)


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)|."""
    return float(np.abs(m - m.conj().T).max())


def _hermiticity_scale(m: np.ndarray) -> float:
    # Relative to the largest entry, floored at an absolute scale of one.
    return max(float(np.abs(m).max()), 1.0)


def is_hermitian(m: np.ndarray, tol: float = TAU_HERM) -> bool:
    return hermiticity_defect(m) <= tol * _hermiticity_scale(m)


def require_hermitian(m: np.ndarray, what: str = "matrix", tol: float = TAU_HERM) -> np.ndarray:
    a = as_matrix(m)
    if not is_hermitian(a, tol):
        raise ValueError(f"{what} is not Hermitian (defect {hermiticity_defect(a):.3e})")
    return a


def require_hermitian_stack(
    ms, what: str = "matrix", tol: float = TAU_HERM
) -> np.ndarray:
    """:func:`require_hermitian` for a (d, d) matrix or an (n, d, d) stack.

    A stack is checked in one pass and comes back as a complex array of
    the same shape; the first matrix that fails raises the same
    ``ValueError`` as :func:`require_hermitian` would for it.
    """
    if np.ndim(ms) != 3:
        return require_hermitian(ms, what, tol)
    stack = np.asarray(ms, dtype=complex)
    if stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"matrix stack must have shape (n, d, d), got {stack.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf; non-finite entries fail below
        defect = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    # An infinite entry can pass the defect test against an infinite scale.
    ok = np.isfinite(stack).all(axis=(1, 2)) & (defect <= tol * scale)
    for k in np.flatnonzero(~ok):
        require_hermitian(stack[k], what, tol)  # raises with the scalar message
    return stack


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dagger)/2."""
    return (m + m.conj().T) / 2


def as_density_matrix(m, *, tau_psd: float = TAU_PSD) -> np.ndarray:
    """Validate the three density-matrix invariants and return the array.

    Raises ``ValueError`` naming the violated invariant: "hermiticity",
    "trace" or "positivity".
    """
    rho = as_matrix(m)
    if not is_hermitian(rho):
        raise ValueError(
            f"density matrix violates hermiticity (defect {hermiticity_defect(rho):.3e})"
        )
    tr = np.trace(rho)
    if abs(tr - 1.0) > TAU_TRACE:
        raise ValueError(f"density matrix violates trace normalization (tr = {tr:.12g})")
    lo = float(np.min(np.linalg.eigvalsh(symmetrize(rho))))
    if lo < -tau_psd:
        raise ValueError(f"density matrix violates positivity (min eigenvalue {lo:.3e})")
    return rho


def as_density_matrices(ms, *, tau_psd: float = TAU_PSD) -> np.ndarray:
    """:func:`as_density_matrix` for a stack of states, in one batched pass.

    Returns the (n, d, d) complex stack.  For the first state that breaks
    an invariant it raises the same ``ValueError`` as
    :func:`as_density_matrix` would.
    """
    stack = np.asarray(ms, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[0] < 1:
        raise ValueError(f"density matrices must stack to shape (n, d, d), got {stack.shape}")
    scale = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1.0)
    adjoint = stack.conj().transpose(0, 2, 1)
    defect = np.max(np.abs(stack - adjoint), axis=(1, 2))
    drift = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    lo = np.min(np.linalg.eigvalsh((stack + adjoint) / 2), axis=1)
    # NaN fails every comparison, so non-finite states are flagged too.
    ok = (defect <= TAU_HERM * scale) & (drift <= TAU_TRACE) & (-lo <= tau_psd)
    for k in np.flatnonzero(~ok):
        as_density_matrix(stack[k], tau_psd=tau_psd)  # raises naming the invariant
    return stack


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues descending.

    ``eigenvectors[:, j]`` is the unit eigenvector for ``eigenvalues[j]``,
    phase-fixed so its largest-magnitude component is real and positive.
    """

    eigenvalues: np.ndarray   # (d,) real, descending
    eigenvectors: np.ndarray  # (d, d) complex, columns

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """sum_j p_j |psi_j><psi_j|."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T

    def gram_defect(self) -> float:
        """max |V^dagger V - I|."""
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0.0:
        return v
    return v * (pivot.conjugate() / abs(pivot))


def hermitian_eigendecomposition(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with deterministic ordering.

    The input must pass the Hermiticity check; the decomposition then acts
    on the symmetrized matrix to strip round-off asymmetry.  Eigenvalues
    come out descending; exact ties are ordered by comparing the
    phase-fixed eigenvectors lexicographically (component-wise on
    (real, imag)).
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh(symmetrize(a))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    cols = [_fix_phase(v[:, j]) for j in range(v.shape[1])]

    # Deterministic ordering inside degenerate clusters.
    scale = max(1.0, float(np.max(np.abs(w))))
    idx = list(range(len(w)))
    start = 0
    while start < len(idx):
        stop = start + 1
        while stop < len(idx) and abs(w[start] - w[stop]) <= 1e-12 * scale:
            stop += 1
        if stop - start > 1:
            group = sorted(
                idx[start:stop],
                key=lambda j: tuple((c.real, c.imag) for c in cols[j]),
            )
            idx[start:stop] = group
        start = stop

    eigenvalues = np.array([w[j] for j in idx], dtype=float)
    eigenvectors = np.column_stack([cols[j] for j in idx])
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def matrix_exponential_antihermitian(g: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*g) for Hermitian g, via the spectral decomposition."""
    dec = hermitian_eigendecomposition(require_hermitian(g, "generator"))
    phases = np.exp(-1j * s * dec.eigenvalues)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def matrix_to_dict(m: np.ndarray) -> dict:
    """Serialize as paired real/imaginary row-major grids."""
    a = as_matrix(m)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_dict(d: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_dict`; "im" may be omitted for real input."""
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise ValueError("re/im grids must have identical shapes")
    return as_matrix(re + 1j * im)
