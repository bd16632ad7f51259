"""Kraus channels from arbitrary operator sets, checked for completeness.

The package builds only the amplitude-damping channel; tests build other
channels here, and a set failing completeness is rejected, never
renormalized.
"""

import numpy as np

from fluctuation_bounds.channels import KrausChannel
from fluctuation_bounds.linalg import as_matrix

TAU_KRAUS = 1e-10


def completeness_residual(operators) -> float:
    """max |sum_k E_k^dagger E_k - I| of a list of operators.

    Incomplete sets are measured rather than rejected.
    """
    ops = [as_matrix(e) for e in operators]
    if not ops:
        raise ValueError("channel needs at least one Kraus operator")
    dim = ops[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for e in ops:
        acc = acc + e.conj().T @ e
    return float(np.max(np.abs(acc - np.eye(dim))))


def kraus_channel(operators) -> KrausChannel:
    ops = [as_matrix(e) for e in operators]
    if not ops:
        raise ValueError("channel needs at least one Kraus operator")
    dim = ops[0].shape[0]
    for e in ops[1:]:
        if e.shape[0] != dim:
            raise ValueError(f"dimension mismatch: {e.shape[0]} vs {dim}")
    res = completeness_residual(ops)
    if res > TAU_KRAUS:
        raise ValueError(f"channel violates completeness (residual {res:.3e})")
    return KrausChannel(operators=tuple(ops))
