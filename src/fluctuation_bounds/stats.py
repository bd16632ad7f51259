"""Observable statistics along trajectories.

Every per-point moment of A the bounds read (mean, variance,
Cov(A, partial_t A), <(partial_t A)^2>, tr(rho_dot DeltaA^2)), the
variance growth rate tr(rho_dot DeltaA^2) + 2 Cov(A, partial_t A) and
the mean's rate tr(rho_dot A) + <partial_t A> come out of one
StatPoint, together with the grid indices of its times.  Each of them,
and every variance this module returns, is finite: a point where one
is not fails with a message that names it.
variance_rate is the only place that assembles them and maps a time to
a grid index; every check in bounds requires its StatPoint.  The state
derivative comes from the model's generator when one is attached to the
trajectory and from central finite differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, lindblad_rhs
from .linalg import _fixed, _products, require_hermitian, traces
from .observables import TimeDependentObservable

EPS_SIGMA = 1e-6         # below this spread, bound ratios are not evaluated
VARIANCE_FLOOR = -1e-12  # round-off negatives above this are reported as 0

RHO_DOT_MODES = ("auto", "analytic", "finite_difference")


def _first(values: np.ndarray, bad: np.ndarray):
    """The entry of values at the first True of bad (0-d or 1-d)."""
    return values.flat[int(np.argmax(bad))]


def _require_finite(names: tuple, values: tuple) -> None:
    """Raise naming the first of the equal-shape values that is not
    finite everywhere; one test covers them all when every one is."""
    if np.isfinite(values).all():
        return
    for name, value in zip(names, values):
        bad = ~np.isfinite(value)
        if bad.any():
            raise ValueError(f"{name} is not finite, got {_first(value, bad):.3e}")


def _check_dims(rho: np.ndarray, m: np.ndarray) -> None:
    if rho.shape != m.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {m.shape}")


def _real_part(value: np.ndarray) -> np.ndarray:
    """Real part of traces that must be real up to round-off."""
    bad = np.abs(value.imag) > 1e-10 * np.fmax(1.0, np.abs(value.real))
    if bad.any():
        raise ValueError(
            f"expectation has non-negligible imaginary part {_first(value.imag, bad):.3e}"
        )
    return value.real


def _mean_and_variance(rho: np.ndarray, m: np.ndarray):
    _check_dims(rho, m)
    rho_m = _products(rho, m)
    mean = _real_part(traces(rho_m))
    second = traces(_products(rho_m, m)).real
    var = second - mean * mean
    bad = var < VARIANCE_FLOOR * np.fmax(1.0, second)
    if bad.any():
        raise ValueError(
            f"variance {_first(var, bad):.3e} below the round-off floor; state is invalid"
        )
    return mean, np.where(0.0 > var, 0.0, var)


def _symmetrized(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/2) tr(rho {a, b}); of two stacks of copies, {a, b} is formed once."""
    ab, ba = _products(a, b), _products(b, a)
    if _fixed(ab) is None or _fixed(ba) is None:
        anti = ab + ba
    else:
        anti = np.broadcast_to(ab[0] + ba[0], ab.shape)
    return traces(_products(rho, anti)).real / 2.0


def _rho_dot_terms(rho_dot: np.ndarray, a: np.ndarray, mean: np.ndarray):
    """(tr(rho_dot DeltaA^2), tr(rho_dot A)) of a traceless rho_dot."""
    tr = traces(rho_dot)
    bad = np.abs(tr) > 1e-10 * np.fmax(1.0, np.abs(rho_dot).max(axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"rho_dot must be traceless, got trace {complex(_first(tr, bad)):.3e}")
    rho_dot_a = _products(rho_dot, a)
    linear = traces(rho_dot_a).real
    return traces(_products(rho_dot_a, a)).real - 2.0 * mean * linear, linear


def variance(rho: np.ndarray, m: np.ndarray):
    """tr(rho m^2) - tr(rho m)^2, clamped to 0 over round-off negatives;
    a value that is not finite raises.

    One (d, d) state and matrix give a float; (n, d, d) stacks give the n
    values, m checked once as a stack.
    """
    m = require_hermitian(m, "observable matrix")
    var = _mean_and_variance(rho, m)[1]
    _require_finite(("variance",), (var,))
    return float(var) if var.ndim == 0 else var


@dataclass(frozen=True)
class StatPoint:
    """Statistics of A at one grid time (floats, ``k`` an int), or at a
    1-D array of n grid times ((n,) arrays, ``t`` and ``k`` included)."""

    t: float
    mean: float
    variance: float
    sigma: float
    cov: float           # Cov(A, partial_t A)
    partial_sq: float    # <(partial_t A)^2>
    rho_dot_term: float  # tr(rho_dot DeltaA^2)
    var_rate: float      # d(sigma^2)/dt = rho_dot_term + 2 cov
    mean_rate: float     # d<A>/dt = tr(rho_dot A) + <partial_t A>
    k: int               # grid index of t


# What a failing finiteness check calls the StatPoint fields it tests, in
# field order; mean and sigma are finite where the variance is.
_MOMENT_NAMES = ("variance", "Cov(A, partial_t A)", "<(partial_t A)^2>",
                 "tr(rho_dot DeltaA^2)", "d(sigma^2)/dt", "d<A>/dt")


def state_derivative(traj: Trajectory, k, t, mode: str = "auto") -> np.ndarray:
    """rho_dot at grid index k, analytic or central finite difference.

    k and t are one index and time, or matching 1-D arrays of them for
    the (n, d, d) stack of derivatives.
    """
    if mode not in RHO_DOT_MODES:
        raise ValueError(f"rho_dot mode must be one of {RHO_DOT_MODES}, got {mode!r}")
    model_known = traj.model is not None
    if mode == "auto":
        mode = "analytic" if model_known else "finite_difference"
    if mode == "analytic":
        if not model_known:
            raise ValueError("analytic rho_dot requested but the trajectory has no model")
        return lindblad_rhs(traj.model, traj.states[k], t)
    k = np.asarray(k)
    bad = ~((0 < k) & (k < len(traj) - 1))
    if bad.any():
        raise ValueError(
            f"grid index {_first(k, bad)} has no two-sided neighbors for finite differences"
        )
    return (traj.states[k + 1] - traj.states[k - 1]) / (2.0 * traj.dt)


def variance_rate(
    traj: Trajectory,
    a: TimeDependentObservable,
    t,
    rho_dot_mode: str = "auto",
) -> StatPoint:
    """Assemble the StatPoint at time t on the trajectory grid.

    ``t`` may be a 1-D array of grid times: every statistic then comes
    from one pass of stacked products over all of them, with A(t) and
    partial_t A(t) validated once per stack, and each per-point check
    (Hermiticity, imaginary parts, the variance floor, a traceless
    rho_dot, finite moments) raising the message of the first time that
    fails it.  ``mean_rate`` is d<A>/dt; under an analytic rho_dot it
    is <Adot>, the mean of the Heisenberg rate.  This
    is the one place a time becomes a grid index: the StatPoint's ``k``
    holds it, and every check reads it there.
    """
    k = traj.index_of(t)
    rho = traj.states[k]
    a_t = a.evaluate(t)
    da_t = a.partial_time(t)
    a_t = require_hermitian(a_t, "observable matrix")
    mean, var = _mean_and_variance(rho, a_t)
    da_t = require_hermitian(da_t, "second observable")
    rho_da = _products(rho, da_t)  # read by <partial_t A> and <(partial_t A)^2>
    mean_da = _real_part(traces(rho_da))
    cov = _symmetrized(rho, a_t, da_t) - mean * mean_da
    partial_sq = traces(_products(rho_da, da_t)).real
    rd_term, rd_linear = _rho_dot_terms(state_derivative(traj, k, t, rho_dot_mode), a_t, mean)
    rates = (cov, partial_sq, rd_term, rd_term + 2.0 * cov, rd_linear + mean_da)
    _require_finite(_MOMENT_NAMES, (var, *rates))
    out = (mean, var, np.sqrt(var), *rates)
    if np.ndim(t) == 0:
        return StatPoint(float(t), *(float(x) for x in out), k)
    return StatPoint(np.asarray(t, dtype=float), *out, k)
