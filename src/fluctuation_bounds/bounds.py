"""Fluctuation-growth inequalities evaluated pointwise on trajectories.

Two bounds are checked.  The open-system bound

    (d sigma_A/dt)^2  <=  2 [ <(partial_t A)^2> + tr(rho_dot DeltaA^2)^2 / (4 sigma_A^2) ]

holds for any trace-preserving state derivative.  The closed-system bound

    (d sigma_A/dt)^2  <=  sigma_{Adot}^2

uses the Heisenberg-picture rate Adot and is allowed to fail for open
dynamics; reports record violations instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LindbladModel, Trajectory
from .observables import TimeDependentObservable, squared_partial_expectation
from .stats import (
    EPS_SIGMA,
    StatPoint,
    covariance_sym,
    expectation,
    state_derivative,
    variance,
    variance_rate,
)

TAU_BOUND = 1e-9  # absolute slack separating violations from round-off


@dataclass(frozen=True)
class BoundReport:
    kind: str  # "open" | "closed"
    t: float
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    skipped: bool
    reason: str = ""


def _skipped(kind: str, t: float, reason: str) -> BoundReport:
    nan = float("nan")
    return BoundReport(
        kind=kind, t=t, lhs=nan, rhs=nan, margin=nan,
        satisfied=False, skipped=True, reason=reason,
    )


def _report(kind: str, t: float, lhs: float, rhs: float) -> BoundReport:
    margin = rhs - lhs
    return BoundReport(
        kind=kind, t=t, lhs=lhs, rhs=rhs, margin=margin,
        satisfied=bool(margin >= -TAU_BOUND), skipped=False,
    )


def open_bound(
    traj: Trajectory,
    a: TimeDependentObservable,
    t: float,
    eps_sigma: float = EPS_SIGMA,
    rho_dot_mode: str = "auto",
    stat: StatPoint | None = None,
) -> BoundReport:
    """Generator-independent bound on the spread growth rate.

    lhs = var_rate^2 / (4 sigma^2) is (d sigma_A/dt)^2; points with
    sigma below eps_sigma are reported as skipped, not errors.  Pass a
    precomputed StatPoint for t as stat to skip recomputing it.
    """
    sp = stat if stat is not None else variance_rate(traj, a, t, rho_dot_mode)
    if sp.sigma < eps_sigma:
        return _skipped("open", t, f"sigma {sp.sigma:.3e} below {eps_sigma:.0e}")
    lhs = sp.var_rate**2 / (4.0 * sp.variance)
    rho = traj.states[traj.index_of(t)]
    rhs = 2.0 * (
        squared_partial_expectation(a, t, rho)
        + sp.rho_dot_term**2 / (4.0 * sp.variance)
    )
    return _report("open", t, lhs, rhs)


def adjoint_heisenberg_rate(
    model: LindbladModel, a: TimeDependentObservable, t: float
) -> np.ndarray:
    """Adot = partial_t A + i[H, A] + sum_k (L^dag A L - (1/2){L^dag L, A}).

    The generator part is the Heisenberg adjoint of the model's operator
    sum, sum_m w_m(t) A_m^dag A B_m^dag.
    """
    a_t = a.evaluate(t)
    if a.dim != model.dim:
        raise ValueError(f"dimension mismatch: observable {a.dim} vs model {model.dim}")
    left, right = model.terms()
    terms = left.conj().transpose(0, 2, 1) @ a_t @ right.conj().transpose(0, 2, 1)
    return a.partial_time(t) + np.tensordot(model.weights(t), terms, axes=1)


def closed_bound(
    traj: Trajectory,
    model: LindbladModel,
    a: TimeDependentObservable,
    t: float,
    eps_sigma: float = EPS_SIGMA,
    stat: StatPoint | None = None,
) -> BoundReport:
    """Heisenberg-rate bound; guaranteed only without jump operators.

    Evaluating it on open dynamics is deliberate (that is how the
    crossover time shows up); violations set satisfied=False.
    """
    sp = stat if stat is not None else variance_rate(traj, a, t)
    if sp.sigma < eps_sigma:
        return _skipped("closed", t, f"sigma {sp.sigma:.3e} below {eps_sigma:.0e}")
    lhs = sp.var_rate**2 / (4.0 * sp.variance)
    rho = traj.states[traj.index_of(t)]
    rhs = variance(rho, adjoint_heisenberg_rate(model, a, t))
    return _report("closed", t, lhs, rhs)


def var_rate_residual(
    traj: Trajectory,
    a: TimeDependentObservable,
    t: float,
    rho_dot_mode: str = "auto",
    stat: StatPoint | None = None,
) -> float:
    """|var_rate - central difference of sigma^2|; O(dt^2) on smooth runs.

    Cross-checks the algebraic variance-rate assembly against the grid.
    Interior points only.
    """
    k = traj.index_of(t)
    if not 0 < k < len(traj) - 1:
        raise ValueError(f"grid index {k} has no two-sided neighbors")
    sp = stat if stat is not None else variance_rate(traj, a, t, rho_dot_mode)
    var_up = variance(traj.states[k + 1], a.evaluate(traj.times[k + 1]))
    var_dn = variance(traj.states[k - 1], a.evaluate(traj.times[k - 1]))
    fd = (var_up - var_dn) / (2.0 * traj.dt)
    return abs(sp.var_rate - fd)


def cauchy_schwarz_margin(
    traj: Trajectory,
    a: TimeDependentObservable,
    t: float,
) -> float:
    """sigma_A^2 <(partial_t A)^2> - Cov(A, partial_t A)^2, nonnegative up to round-off."""
    k = traj.index_of(t)
    rho = traj.states[k]
    a_t = a.evaluate(t)
    da_t = a.partial_time(t)
    cov = covariance_sym(rho, a_t, da_t)
    return variance(rho, a_t) * squared_partial_expectation(a, t, rho) - cov**2


def closed_system_anticommutator_rate(
    traj: Trajectory,
    model: LindbladModel,
    a: TimeDependentObservable,
    t: float,
) -> float:
    """<{DeltaA, Adot}>, which equals d(sigma^2)/dt for closed dynamics."""
    if not model.is_closed:
        raise ValueError("anticommutator rate is a closed-system identity; jump operators present")
    k = traj.index_of(t)
    rho = traj.states[k]
    a_t = a.evaluate(t)
    adot = adjoint_heisenberg_rate(model, a, t)
    mean = expectation(rho, a_t)
    delta = a_t - mean * np.eye(a_t.shape[0])
    return float(np.trace(rho @ (delta @ adot + adot @ delta)).real)
