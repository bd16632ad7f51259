"""Discrete-time CPTP channels as Kraus operator sums.

A channel is the tuple of its Kraus operators (E_0, E_1, ...).
Amplitude damping is the one constructor; its operators satisfy the
completeness relation exactly.  ``apply`` validates the state it maps
and the state it returns and never renormalizes, so an operator set
that is not trace-preserving fails loudly at its first use.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    as_density_matrix,
    as_matrix,
    sigma_minus,
    symmetrize,
)


def amplitude_damping(gamma: float) -> tuple:
    """Kraus operators (E_0, E_1) of the relaxation |1> -> |0> with
    damping probability gamma."""
    gamma = float(gamma)
    if not (0.0 <= gamma <= 1.0) or not math.isfinite(gamma):
        raise ValueError(f"damping probability must lie in [0, 1], got {gamma}")
    e0 = np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex)
    e1 = math.sqrt(gamma) * sigma_minus
    return e0, e1


def apply(operators, rho: np.ndarray) -> np.ndarray:
    """sum_k E_k rho E_k^dagger over the Kraus operators, exactly
    symmetrized on output."""
    rho = as_density_matrix(as_matrix(rho))
    dim = operators[0].shape[0]
    if rho.shape[0] != dim:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]} vs channel {dim}")
    out = np.zeros_like(rho)
    for e in operators:
        out = out + e @ rho @ e.conj().T
    return as_density_matrix(symmetrize(out))
