"""Discrete-time CPTP channels as Kraus operator sums.

Only amplitude damping is provided as a named constructor; arbitrary
operator sets are accepted as long as they satisfy the completeness
relation.  Channels failing completeness are rejected at construction,
never renormalized, so a bad scenario file fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_density_matrix,
    as_matrix,
    sigma_minus,
    symmetrize,
)

TAU_KRAUS = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map rho -> sum_k E_k rho E_k^dagger."""

    operators: tuple  # (ndarray, ...)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


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


def amplitude_damping(gamma: float) -> KrausChannel:
    """Relaxation |1> -> |0> with damping probability gamma."""
    gamma = float(gamma)
    if not (0.0 <= gamma <= 1.0) or not math.isfinite(gamma):
        raise ValueError(f"damping probability must lie in [0, 1], got {gamma}")
    e0 = np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex)
    e1 = math.sqrt(gamma) * sigma_minus
    return KrausChannel(operators=(e0, e1))


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k E_k rho E_k^dagger, exactly symmetrized on output."""
    rho = as_density_matrix(as_matrix(rho))
    if rho.shape[0] != ch.dim:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]} vs channel {ch.dim}")
    out = np.zeros_like(rho)
    for e in ch.operators:
        out = out + e @ rho @ e.conj().T
    return as_density_matrix(symmetrize(out))
