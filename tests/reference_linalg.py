"""One-matrix validators as written before each invariant had a single
implementation for a matrix or a stack, and the eigendecomposition as
written before equal eigenvalues kept ``eigh``'s order.

``require_hermitian`` and ``as_density_matrix`` check exactly one (d, d)
matrix: shape, then finite entries, then Hermiticity, then (for states)
trace and positivity.  Tests hold ``linalg.require_hermitian`` and
``linalg.as_density_matrix`` to them, acceptance and error messages
alike, for one matrix and for the first failing matrix of a stack.  The
other reference modules validate through them, so they do not depend on
the code they check.
"""

import numpy as np

from fluctuation_bounds.linalg import SpectralDecomposition

TAU_HERM = 1e-10   # Hermiticity defect, scaled by the largest entry magnitude
TAU_TRACE = 1e-8   # unit-trace deviation of density matrices
TAU_PSD = 1e-10    # most negative admissible density-matrix eigenvalue


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


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dagger)/2."""
    return (m + m.conj().T) / 2


def as_density_matrix(m) -> np.ndarray:
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
    if lo < -TAU_PSD:
        raise ValueError(f"density matrix violates positivity (min eigenvalue {lo:.3e})")
    return rho


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
