"""Per-point scenario evaluation: one grid time at a time, scalar calls only.

This is the direct formulation the batched grid pass replaced: every
statistic and bound is assembled for a single time, re-validating its
matrices at each use.  Tests hold ``scenarios.run_scenario`` (and the
stacked forms of the stats and bounds functions) to it, values and
failures alike.  Model, observable, trajectory and report types and
tolerances come from the package, but every report is built here;
matrices and states are validated by the one-matrix checks in
tests/reference_linalg.py.  ``reference_csv_text`` is the CSV writer
that formatted a ResultTable one row tuple at a time.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from reference_linalg import as_density_matrix, require_hermitian

from fluctuation_bounds.bounds import TAU_BOUND, BoundReport
from fluctuation_bounds.dynamics import LindbladModel, Trajectory, lindblad_rhs
from fluctuation_bounds.observables import TimeDependentObservable
from fluctuation_bounds.scenarios import RESULT_COLUMNS, ResultTable, build_trajectory
from fluctuation_bounds.stats import EPS_SIGMA, RHO_DOT_MODES, VARIANCE_FLOOR, StatPoint

_NAN = float("nan")

Row = namedtuple("Row", RESULT_COLUMNS)  # one grid point, in RESULT_COLUMNS order


@dataclass(frozen=True)
class PointRecord:
    """One grid point's full evaluation, including checks with no CSV column."""

    row: Row
    open_report: BoundReport | None
    closed_report: BoundReport | None
    cs_margin: float | None


def _skipped(kind: str, t: float, sigma: float) -> BoundReport:
    reason = f"sigma {sigma:.3e} below {EPS_SIGMA:.0e}"
    return BoundReport(kind, t, _NAN, _NAN, _NAN, satisfied=False, live=False, reason=reason)


def _report(kind: str, t: float, lhs: float, rhs: float) -> BoundReport:
    margin = rhs - lhs
    return BoundReport(
        kind, t, lhs, rhs, margin, satisfied=margin >= -TAU_BOUND, live=True, reason=""
    )


def reference_evaluate_scenario(spec, traj=None):
    """PointRecords of every interior grid point, evaluated point by point."""
    traj = build_trajectory(spec) if traj is None else traj
    model = traj.model
    records = []
    for k in range(1, len(traj) - 1):
        t = float(traj.times[k])
        try:
            records.append(_evaluate_point(spec, traj, model, t))
        except (ValueError, OverflowError) as err:
            raise RuntimeError(f"scenario {spec.name!r} failed at t = {t:.6g}: {err}") from err
    return records


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite, got {value:.3e}")


def expectation(rho: np.ndarray, m: np.ndarray) -> float:
    """tr(rho m) for Hermitian m; the imaginary part must be round-off."""
    m = require_hermitian(m, "observable matrix")
    if rho.shape != m.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {m.shape}")
    value = complex(np.trace(rho @ m))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has non-negligible imaginary part {value.imag:.3e}")
    return value.real


def floored_variance(rho: np.ndarray, m: np.ndarray) -> float:
    """tr(rho m^2) - tr(rho m)^2, clamped to 0 over round-off negatives;
    possibly not finite."""
    m = require_hermitian(m, "observable matrix")
    mean = expectation(rho, m)
    second = float(np.trace(rho @ m @ m).real)
    var = second - mean * mean
    if var < VARIANCE_FLOOR * max(1.0, second):
        raise ValueError(f"variance {var:.3e} below the round-off floor; state is invalid")
    return max(var, 0.0)


def variance(rho: np.ndarray, m: np.ndarray) -> float:
    """The floored variance, which must be finite."""
    var = floored_variance(rho, m)
    _require_finite("variance", var)
    return var


def covariance_sym(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized covariance (1/2)<{a, b}> - <a><b>."""
    a = require_hermitian(a, "first observable")
    b = require_hermitian(b, "second observable")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    half_anti = float(np.trace(rho @ (a @ b + b @ a)).real) / 2.0
    return half_anti - expectation(rho, a) * expectation(rho, b)


def rho_dot_delta_sq(rho_dot: np.ndarray, rho: np.ndarray, a: np.ndarray) -> float:
    """tr(rho_dot DeltaA^2) = tr(rho_dot a^2) - 2<a> tr(rho_dot a).

    Requires a traceless rho_dot; the <a>^2 tr(rho_dot) term is dropped
    on that ground.
    """
    a = require_hermitian(a, "observable matrix")
    tr = complex(np.trace(rho_dot))
    if abs(tr) > 1e-10 * max(1.0, float(np.max(np.abs(rho_dot)))):
        raise ValueError(f"rho_dot must be traceless, got trace {tr:.3e}")
    mean = expectation(rho, a)
    term_sq = float(np.trace(rho_dot @ a @ a).real)
    term_lin = float(np.trace(rho_dot @ a).real)
    return term_sq - 2.0 * mean * term_lin


def state_derivative(
    traj: Trajectory, k: int, t: float, mode: str = "auto"
) -> np.ndarray:
    """rho_dot at grid index k, analytic or central finite difference."""
    if mode not in RHO_DOT_MODES:
        raise ValueError(f"rho_dot mode must be one of {RHO_DOT_MODES}, got {mode!r}")
    model_known = isinstance(traj.model, LindbladModel)
    if mode == "auto":
        mode = "analytic" if model_known else "finite_difference"
    if mode == "analytic":
        if not model_known:
            raise ValueError("analytic rho_dot requested but the trajectory has no model")
        return lindblad_rhs(traj.model, traj.states[k], t)
    if not 0 < k < len(traj) - 1:
        raise ValueError(f"grid index {k} has no two-sided neighbors for finite differences")
    return (traj.states[k + 1] - traj.states[k - 1]) / (2.0 * traj.dt)


def variance_rate(
    traj: Trajectory,
    a: TimeDependentObservable,
    t: float,
    rho_dot_mode: str = "auto",
) -> StatPoint:
    """Assemble the StatPoint at time t on the trajectory grid."""
    k = traj.index_of(t)
    rho = traj.states[k]
    a_t = a.evaluate(t)
    da_t = a.partial_time(t)
    mean = expectation(rho, a_t)
    var = floored_variance(rho, a_t)  # checked finite with the other moments
    cov = covariance_sym(rho, a_t, da_t)
    partial_sq = float(np.trace(rho @ da_t @ da_t).real)
    rho_dot = state_derivative(traj, k, t, rho_dot_mode)
    rd_term = rho_dot_delta_sq(rho_dot, rho, a_t)
    var_rate = rd_term + 2.0 * cov
    mean_rate = float(np.trace(rho_dot @ a_t).real) + expectation(rho, da_t)
    for name, value in (("variance", var), ("Cov(A, partial_t A)", cov), ("<(partial_t A)^2>", partial_sq),
                        ("tr(rho_dot DeltaA^2)", rd_term), ("d(sigma^2)/dt", var_rate),
                        ("d<A>/dt", mean_rate)):
        _require_finite(name, value)
    return StatPoint(
        t=t,
        mean=mean,
        variance=var,
        sigma=float(np.sqrt(var)),
        cov=cov,
        partial_sq=partial_sq,
        rho_dot_term=rd_term,
        var_rate=var_rate,
        mean_rate=mean_rate,
        k=k,
    )


def squared_partial_expectation(a: TimeDependentObservable, t: float, rho: np.ndarray) -> float:
    """tr(rho * (partial_t A)^2), real and nonnegative."""
    rho = as_density_matrix(rho)
    da = a.partial_time(t)
    if da.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {da.shape} vs {rho.shape}")
    return float(np.trace(rho @ da @ da).real)


def open_bound(
    traj: Trajectory,
    a: TimeDependentObservable,
    t: float,
    stat: StatPoint,
) -> BoundReport:
    """Generator-independent bound on the spread growth rate.

    lhs = var_rate^2 / (4 sigma^2) is (d sigma_A/dt)^2; points with
    sigma below EPS_SIGMA are reported as skipped, not errors.  The
    moments come from the StatPoint stat of A at t.
    """
    if stat.sigma < EPS_SIGMA:
        return _skipped("open", t, stat.sigma)
    lhs = stat.var_rate**2 / (4.0 * stat.variance)
    rho = traj.states[traj.index_of(t)]
    rhs = 2.0 * (
        squared_partial_expectation(a, t, rho)
        + stat.rho_dot_term**2 / (4.0 * stat.variance)
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
    stat: StatPoint,
) -> BoundReport:
    """Heisenberg-rate bound; guaranteed only without jump operators.

    Evaluating it on open dynamics is deliberate (that is how the
    crossover time shows up); violations set satisfied=False.
    """
    if stat.sigma < EPS_SIGMA:
        return _skipped("closed", t, stat.sigma)
    lhs = stat.var_rate**2 / (4.0 * stat.variance)
    rho = traj.states[traj.index_of(t)]
    rhs = variance(rho, adjoint_heisenberg_rate(model, a, t))
    return _report("closed", t, lhs, rhs)


def closed_system_anticommutator_rate(
    traj: Trajectory,
    model: LindbladModel,
    a: TimeDependentObservable,
    t: float,
) -> float:
    """<{DeltaA, Adot}>, which equals d(sigma^2)/dt for closed dynamics."""
    if model.jump_operators:
        raise ValueError("anticommutator rate is a closed-system identity; jump operators present")
    rho = traj.states[traj.index_of(t)]
    a_t = a.evaluate(t)
    adot = adjoint_heisenberg_rate(model, a, t)
    delta = a_t - expectation(rho, a_t) * np.eye(a_t.shape[0])
    return float(np.trace(rho @ (delta @ adot + adot @ delta)).real)


def var_rate_residual(
    traj: Trajectory,
    a: TimeDependentObservable,
    t: float,
    stat: StatPoint,
) -> float:
    """|var_rate - central difference of sigma^2|; O(dt^2) on smooth runs.

    Cross-checks the algebraic variance-rate assembly of stat against
    the grid.  Interior points only.
    """
    k = traj.index_of(t)
    if not 0 < k < len(traj) - 1:
        raise ValueError(f"grid index {k} has no two-sided neighbors")
    var_up = variance(traj.states[k + 1], a.evaluate(traj.times[k + 1]))
    var_dn = variance(traj.states[k - 1], a.evaluate(traj.times[k - 1]))
    fd = (var_up - var_dn) / (2.0 * traj.dt)
    return abs(stat.var_rate - fd)


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


def _evaluate_point(spec, traj, model, t) -> PointRecord:
    sp = variance_rate(traj, spec.observable, t, spec.rho_dot_mode)
    flags = []

    open_report = None
    lhs_o = rhs_o = margin_o = _NAN
    if "open" in spec.bounds:
        open_report = open_bound(traj, spec.observable, t, stat=sp)
        if open_report.skipped:
            flags.append(f"open:{open_report.reason}")
        else:
            lhs_o, rhs_o, margin_o = open_report.lhs, open_report.rhs, open_report.margin

    closed_report = None
    lhs_c = rhs_c = margin_c = _NAN
    if "closed" in spec.bounds:
        closed_report = closed_bound(traj, model, spec.observable, t, stat=sp)
        if closed_report.skipped:
            flags.append(f"closed:{closed_report.reason}")
        else:
            lhs_c, rhs_c, margin_c = closed_report.lhs, closed_report.rhs, closed_report.margin

    residual = _NAN
    if "var_rate_residual" in spec.bounds:
        residual = var_rate_residual(traj, spec.observable, t, stat=sp)

    cs_margin = None
    if "cauchy_schwarz" in spec.bounds:
        cs_margin = cauchy_schwarz_margin(traj, spec.observable, t)

    row = Row(
        t=t,
        mean=sp.mean,
        sigma=sp.sigma,
        sigma_sq=sp.variance,
        var_rate=sp.var_rate,
        lhs_open=lhs_o,
        rhs_open=rhs_o,
        margin_open=margin_o,
        lhs_closed=lhs_c,
        rhs_closed=rhs_c,
        margin_closed=margin_c,
        var_rate_residual=residual,
        skipped_flags=";".join(flags),
    )
    return PointRecord(row=row, open_report=open_report, closed_report=closed_report, cs_margin=cs_margin)


def reference_csv_text(rows, columns=RESULT_COLUMNS) -> str:
    """CSV text of a sequence of equal-length tuples, or of a ResultTable
    read one point at a time; each row formatted as %.11e numbers and bare
    strings, which column is which read off the first row."""
    if isinstance(rows, ResultTable):
        rows = [tuple(rows.columns[c][j] for c in columns) for j in range(len(rows))]
    lines = [",".join(columns)]
    if len(rows):
        fmt = ",".join("%s" if isinstance(v, str) else "%.11e" for v in rows[0])
        lines += [fmt % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"
