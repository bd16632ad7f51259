"""Matrix-form Lindblad right-hand side and per-step-checked RK4 loop.

This is the direct formulation the operator-sum integrator replaced:
H(t) is rebuilt from its terms at every stage, every jump operator is
applied by hand, and trace and positivity are checked after every single
step.  Tests hold ``dynamics.integrate`` to it, values and failures alike,
except that these checks compare with ``>`` and so let a NaN state pass.
``check_steps`` is integrate's batched block check as it was before the
Cholesky screen: a full ``eigvalsh`` of every state.
"""

import numpy as np

from fluctuation_bounds.dynamics import TAU_PSD_RUN, IntegrationError
from fluctuation_bounds.linalg import TAU_TRACE, symmetrize


def reference_rhs(model, rho, t=0.0):
    """-i[H(t), rho] + sum_k (L rho L^dag - (1/2){L^dag L, rho})."""
    out = np.zeros_like(rho, dtype=complex)
    if model.hamiltonian is not None:
        h = model.hamiltonian.evaluate(t)
        out = -1j * (h @ rho - rho @ h)
    for L in model.jump_operators:
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def reference_integrate(model, rho0, t_max, dt):
    """States on the grid, raising IntegrationError at the first bad step."""
    n_steps = int(round(t_max / dt))
    rho = np.asarray(rho0, dtype=complex)
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, model.dim, model.dim), dtype=complex)
    states[0] = rho
    for k in range(n_steps):
        t = times[k]
        k1 = reference_rhs(model, rho, t)
        k2 = reference_rhs(model, rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = reference_rhs(model, rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = reference_rhs(model, rho + dt * k3, t + dt)
        rho = symmetrize(rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        t_next = float(times[k + 1])
        drift = abs(np.trace(rho).real - 1.0)
        if drift > TAU_TRACE:
            raise IntegrationError(f"trace drift {drift:.3e} at t = {t_next:.6g}", t_next)
        lo = float(np.min(np.linalg.eigvalsh(rho)))
        if lo < -TAU_PSD_RUN:
            raise IntegrationError(
                f"positivity lost (min eigenvalue {lo:.3e}) at t = {t_next:.6g}", t_next
            )
        states[k + 1] = rho
    return times, states


def check_steps(states, times):
    """Trace and positivity of a block of states, batched, from a full
    ``eigvalsh`` of every state: the block check without its Cholesky
    screen.  Raises for the first failing state, trace first; a
    non-finite trace or eigenvalue fails."""
    drift = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    lo = np.min(np.linalg.eigvalsh(states), axis=1)
    bad = ~((drift <= TAU_TRACE) & (-lo <= TAU_PSD_RUN))
    if not bad.any():
        return
    j = int(np.argmax(bad))
    t = float(times[j])
    if not drift[j] <= TAU_TRACE:
        raise IntegrationError(f"trace drift {drift[j]:.3e} at t = {t:.6g}", t)
    raise IntegrationError(f"positivity lost (min eigenvalue {lo[j]:.3e}) at t = {t:.6g}", t)
