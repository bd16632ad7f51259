"""Discrete-time CPTP channels as Kraus operator sums.

Amplitude damping is the one constructor; its operators satisfy the
completeness relation exactly.  ``apply`` validates the state it maps
and the state it returns and never renormalizes, so an operator set
that is not trace-preserving fails loudly at its first use.
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

@dataclass(frozen=True)
class KrausChannel:
    """CPTP map rho -> sum_k E_k rho E_k^dagger."""

    operators: tuple  # (ndarray, ...)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


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
