"""Matrix-form Lindblad right-hand side and per-step-checked RK4 loop.

This is the direct formulation the operator-sum integrator replaced:
H(t) is rebuilt from its terms at every stage, every jump operator is
applied by hand, and trace and positivity are checked after every single
step.  Tests hold ``dynamics.integrate`` to it, values and failures alike,
except that these checks compare with ``>`` and so let a NaN state pass.
``check_steps`` is integrate's batched block check as it was before the
Cholesky screen: a full ``eigvalsh`` of every state.

``block_integrate`` is ``dynamics.integrate`` as it was before its tables
were built once per run: each CHECK_BLOCK of steps evaluates its own
drive table and monomial values, reads its first coordinates back from
the states, and writes its states with six fancy-index writes; its
generator parts come from one stacked matmul over every term and basis
matrix.  Tests hold integrate to it bit for bit, failures included.
"""

import numpy as np

from fluctuation_bounds import dynamics
from fluctuation_bounds.dynamics import TAU_PSD_RUN, IntegrationError
from fluctuation_bounds.linalg import TAU_TRACE, as_density_matrix, as_matrix, symmetrize


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


# ---------------------------------------------------------------------------
# integrate, one set of tables per block


def drive_table(drive, times, dt):
    """(start, mid, end, error) for the steps between the block's grid times."""
    stage_times = np.empty(2 * len(times) - 1)
    stage_times[0::2] = times
    stage_times[1::2] = times[:-1] + 0.5 * dt
    v, error = dynamics._drive_values(drive, stage_times)
    steps = max(len(v) - 1, 0) // 2
    v = v[:2 * steps + 1]
    return v[0:-1:2], v[1::2], v[2::2], error


def monomial_values(start, mid, end):
    """(n, K): the step-map monomials of n steps, formed from scratch."""
    one = np.ones((len(start), 1))
    u1, b, u3 = np.hstack([one, start]), np.hstack([one, mid]), np.hstack([one, end])
    ku, lu = np.triu_indices(b.shape[1])
    u2 = b[:, ku] * b[:, lu]
    k = u1.shape[1] * u2.shape[1] * u3.shape[1]
    return (u1[:, :, None, None] * u2[:, None, :, None] * u3[:, None, None, :]).reshape(len(start), k)


def set_from_coordinates(out, x):
    """Write the matrices with coordinates x (n, d^2) into out (n, d, d)."""
    d = out.shape[-1]
    _, diag, iu, ju = dynamics._hermitian_basis(d)
    p = len(iu)
    re, im = out.real, out.imag
    re[:, diag, diag] = x[:, :d]
    im[:, diag, diag] = 0.0
    re[:, iu, ju] = re[:, ju, iu] = x[:, d:d + p]
    im[:, iu, ju] = x[:, d + p:]
    im[:, ju, iu] = -x[:, d + p:]


def generator_parts(model):
    """(D+1, d^2, d^2) generator parts from one stacked matmul of the
    (M, d^2, d, d) images A_m E_a B_m."""
    a, b = model.terms()
    basis = dynamics._hermitian_basis(model.dim)[0]
    images = a[:, None] @ basis @ b[:, None]
    split = len(a) - 2 * len(model.drive)
    parts = [images[:split].sum(axis=0)]
    parts += [images[m:m + 2].sum(axis=0) for m in range(split, len(a), 2)]
    return dynamics._coordinates(np.stack(parts)).transpose(0, 2, 1)


def map_block(model, monomials, states, start, table):
    """Step-map RK4 from states[start - 1]; False, writing nothing, if a
    state comes out non-finite."""
    dim = model.dim * model.dim
    steps = len(table[1])
    if model.drive:
        maps = monomial_values(*table) @ monomials
    else:
        maps = np.broadcast_to(monomials, (steps, dim * dim))
    maps = maps.reshape(steps, dim, dim)
    x = np.empty((steps + 1, dim))
    x[0] = dynamics._coordinates(states[start - 1])
    rows = list(x)
    for step, here, there in zip(maps, rows, rows[1:]):
        step.dot(here, out=there)
    if not np.isfinite(x).all():
        return False
    set_from_coordinates(states[start:start + steps], x[1:])
    return True


def block_integrate(model, rho0, t_max, dt):
    """(times, states) of ``dynamics.integrate``, every table built per
    block; raises as it does.  Reads STEP_MAP_MAX and CHECK_BLOCK from
    ``dynamics`` when called."""
    n_steps = int(round(t_max / dt))
    rho = as_density_matrix(as_matrix(rho0))
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, model.dim, model.dim), dtype=complex)
    states[0] = rho
    block = dynamics.CHECK_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        monomials = None
        if dynamics.step_map_size(model) <= dynamics.STEP_MAP_MAX:
            monomials = dynamics._step_monomials(generator_parts(model), dt)
        for start in range(1, n_steps + 1, block):
            stop = min(start + block, n_steps + 1)
            *table, error = drive_table(model.drive, times[start - 1:stop], dt)
            if monomials is None or not map_block(model, monomials, states, start, table):
                dynamics._stage_block(model, states, dt, start, table)
            stop = start + len(table[1])
            dynamics._check_steps(states[start:stop], times[start:stop])
            if error is not None:
                raise error
    return times, states
