"""One-matrix validators as written before each invariant had a single
implementation for a matrix or a stack.

``require_hermitian`` and ``as_density_matrix`` check exactly one (d, d)
matrix: shape, then finite entries, then Hermiticity, then (for states)
trace and positivity.  Tests hold ``linalg.require_hermitian`` and
``linalg.as_density_matrix`` to them, acceptance and error messages
alike, for one matrix and for the first failing matrix of a stack.  The
other reference modules validate through them, so they do not depend on
the code they check.
"""

import numpy as np

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
