"""Fluctuation-growth inequalities evaluated pointwise on trajectories.

Two bounds are checked.  The open-system bound

    (d sigma_A/dt)^2  <=  2 [ <(partial_t A)^2> + tr(rho_dot DeltaA^2)^2 / (4 sigma_A^2) ]

holds for any trace-preserving state derivative.  The closed-system bound

    (d sigma_A/dt)^2  <=  sigma_{Adot}^2

uses the Heisenberg-picture rate Adot and is allowed to fail for open
dynamics; reports record violations instead of raising.  Every check
takes the StatPoint of stats.variance_rate as its required ``stat`` and
reads its moments, times and grid indices there, so only variance_rate
assembles moments and maps times to the grid.  The ``a`` and ``t`` each
check takes are the stat's observable and times; a scalar stat gives
scalar results and a stat over a 1-D array of times gives arrays.  No
check validates a state: the Trajectory's states passed
``as_density_matrix`` where they were made (``dynamics.integrate`` or
``dynamics.trajectory_from_states``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LindbladModel, Trajectory
from .observables import TimeDependentObservable, finite_times
# variance_rate is not called here, but it stays bound: the benchmark's
# tracer test names bounds.variance_rate as a patched binding site.
from .stats import EPS_SIGMA, StatPoint, variance, variance_rate  # noqa: F401

TAU_BOUND = 1e-9  # absolute slack separating violations from round-off


@dataclass(frozen=True)
class BoundReport:
    """One bound at one time (Python scalars), or at a 1-D array of n
    times ((n,) arrays, ``reason`` a tuple of n strings), as StatPoint,
    whose ``t`` gives the times.

    ``lhs``, ``rhs`` and ``margin`` are nan where ``live`` is False
    (sigma below EPS_SIGMA); ``reason`` gives the skip reason there and
    "" elsewhere.  ``satisfied`` is ``margin >= -TAU_BOUND``, so False
    where skipped.
    """

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    margin: float | np.ndarray
    satisfied: bool | np.ndarray
    live: bool | np.ndarray
    reason: str | tuple

    @property
    def skipped(self) -> int:
        """How many of the points were skipped."""
        return int(np.size(self.live) - np.count_nonzero(self.live))


def _squared(x: np.ndarray) -> np.ndarray:
    """x**2 elementwise, raising OverflowError where a float ``x**2`` would:
    for a finite x whose square leaves the float range."""
    with np.errstate(over="ignore"):
        sq = x * x
    if (np.isinf(sq) & np.isfinite(x)).any():
        raise OverflowError(34, "Numerical result out of range")
    return sq


def _bound(sp, rhs_at) -> BoundReport:
    """Shared skeleton of the two bounds, at the times of the StatPoint sp.

    Points with sigma below EPS_SIGMA are skipped; at the others lhs =
    var_rate^2 / (4 sigma^2), and rhs_at(live) gives the right side at
    all of them (``live`` masks sp's points) in one call.  For a scalar
    sp.t the report holds element 0 of each array.
    """
    sigma, var, var_rate = (np.atleast_1d(x) for x in (sp.sigma, sp.variance, sp.var_rate))
    live = ~(sigma < EPS_SIGMA)
    lhs = np.full(len(live), np.nan)
    rhs = np.full(len(live), np.nan)
    if live.any():
        lhs[live] = _squared(var_rate[live]) / (4.0 * var[live])
        rhs[live] = rhs_at(live)
    reason = [""] * len(live)
    for j in np.flatnonzero(~live):
        reason[j] = f"sigma {float(sigma[j]):.3e} below {EPS_SIGMA:.0e}"
    margin = rhs - lhs
    fields = (lhs, rhs, margin, margin >= -TAU_BOUND, live)
    if np.ndim(sp.t) > 0:
        return BoundReport(*fields, tuple(reason))
    return BoundReport(*(x[0].item() for x in fields), reason[0])


def open_bound(
    traj: Trajectory,
    a: TimeDependentObservable,
    t,
    stat: StatPoint,
) -> BoundReport:
    """Generator-independent bound on the spread growth rate.

    lhs = var_rate^2 / (4 sigma^2) is (d sigma_A/dt)^2; points with
    sigma below EPS_SIGMA are reported as skipped, not errors.  Every
    term comes from the StatPoint ``stat`` of A at times t; a stat over
    a 1-D array of times is evaluated in one batched pass.
    """

    def rhs_at(live):
        partial_sq, rd_term, var = (
            np.atleast_1d(x)[live] for x in (stat.partial_sq, stat.rho_dot_term, stat.variance))
        return 2.0 * (partial_sq + _squared(rd_term) / (4.0 * var))

    return _bound(stat, rhs_at)


def adjoint_heisenberg_rate(model: LindbladModel, a: TimeDependentObservable, t) -> np.ndarray:
    """Adot = partial_t A + i[H, A] + sum_k (L^dag A L - (1/2){L^dag L, A}).

    The generator part is the Heisenberg adjoint of the model's operator
    sum, sum_m w_m(t) A_m^dag A B_m^dag.  A 1-D array of n times gives
    the (n, d, d) stack.  For a static A under an undriven model the rate
    does not depend on t: the stack is then the rate at the first time,
    formed once and returned as a read-only broadcast view.
    """
    n = None
    if not model.drive and a.is_static:
        times, stacked = finite_times(t)
        if stacked:  # the same rate at every time: form it at the first
            n, t = len(times), times[:1]
    a_t = a.evaluate(t)
    if a.dim != model.dim:
        raise ValueError(f"dimension mismatch: observable {a.dim} vs model {model.dim}")
    left, right = model.terms()
    terms = left.conj().transpose(0, 2, 1) @ a_t[..., None, :, :] @ right.conj().transpose(0, 2, 1)
    da_t = a.partial_time(t)
    w = model.weights(t)
    d = model.dim
    rate = w[..., None, :] @ terms.reshape(terms.shape[:-2] + (d * d,))
    rate = da_t + rate.reshape(a_t.shape)
    return rate if n is None else np.broadcast_to(rate, (n, d, d))


def closed_bound(
    traj: Trajectory,
    model: LindbladModel,
    a: TimeDependentObservable,
    t,
    stat: StatPoint,
) -> BoundReport:
    """Heisenberg-rate bound; guaranteed only without jump operators.

    Evaluating it on open dynamics is deliberate (that is how the
    crossover time shows up); violations set satisfied=False.  Reads
    lhs off ``stat`` and forms the Heisenberg rate of A at its live
    times, like :func:`open_bound`.
    """

    def rhs_at(live):
        times, ks = (np.atleast_1d(x)[live] for x in (stat.t, stat.k))
        return variance(traj.states[ks], adjoint_heisenberg_rate(model, a, times))

    return _bound(stat, rhs_at)


def var_rate_residual(
    traj: Trajectory,
    a: TimeDependentObservable,
    t,
    stat: StatPoint,
):
    """|var_rate - central difference of sigma^2|; O(dt^2) on smooth runs.

    Cross-checks the algebraic variance-rate assembly of ``stat`` against
    the grid.  Interior points only, checked before anything is computed;
    a stat over a 1-D array of times gives the n residuals.  The
    neighbours' variances are read off the stat where it holds them (on
    a grid of times, every point but the two ends) and computed for the
    rest.
    """
    ks = np.atleast_1d(stat.k)
    edge = ~((0 < ks) & (ks < len(traj) - 1))
    if edge.any():
        raise ValueError(f"grid index {ks[edge][0]} has no two-sided neighbors")
    # The variance of every neighbouring grid point the stat does not
    # hold is computed once, highest index first, so one point checks
    # k+1 before k-1.
    var_at = np.empty(len(traj))
    var_at[stat.k] = stat.variance
    fresh = np.zeros(len(traj), dtype=bool)
    fresh[ks - 1] = fresh[ks + 1] = True
    fresh[ks] = False
    need = np.flatnonzero(fresh)[::-1]
    var_at[need] = variance(traj.states[need], a.evaluate(traj.times[need]))
    fd = (var_at[stat.k + 1] - var_at[stat.k - 1]) / (2.0 * traj.dt)
    residual = np.abs(stat.var_rate - fd)
    return float(residual) if np.ndim(stat.t) == 0 else residual


def cauchy_schwarz_margin(
    traj: Trajectory,
    a: TimeDependentObservable,
    t,
    stat: StatPoint,
):
    """sigma_A^2 <(partial_t A)^2> - Cov(A, partial_t A)^2, nonnegative up to round-off.

    The moments come from ``stat``, as in the bounds, on states the
    Trajectory already holds as density matrices.  A stat over a 1-D
    array of times gives the n margins.
    """
    cov_sq = _squared(np.asarray(stat.cov))
    margin = stat.variance * stat.partial_sq - cov_sq
    return float(margin) if np.ndim(stat.t) == 0 else margin
