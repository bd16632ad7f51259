"""Scenario files, batch execution, and CSV emission.

A scenario is a JSON description of one model + observable pair together
with a time grid and the set of checks to evaluate.  Execution produces
the result table, a dict mapping each quantity's name to its column of
values over the interior grid points, and that table is the run's only
record: its CSV, in a fixed column order formatted for byte-stable
regression files, and the CLI's verdict are both read off its columns.
Every builtin, figure1 included, is a packaged scenario file run
through the same pipeline; FIGURE_COLUMNS names the columns of the view
the CLI writes of a figure1 run.

Validation is all-at-once: every violated invariant is collected and
reported in a single structured error, so a bad file shows all of its
problems on the first run.  The four matrix-valued fields (the initial
state, the hamiltonian, each jump operator and the observable) go
through one rule: parse, run the field's check, compare the dimension,
each failure one violation under the field's label.  Every number in a
scenario, matrix entries included, must be a JSON number
(``linalg._is_number``).
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (
    cauchy_schwarz_margin,
    closed_bound,
    open_bound,
    var_rate_residual,
)
from .dynamics import (
    LindbladModel,
    Trajectory,
    analytic_amplitude_damping,
    integrate,
    lindblad_model,
    trajectory_from_states,
)
from .linalg import _is_number, as_density_matrix, json_object, matrix_from_dict
from .observables import TimeDependentObservable, observable_from_dict
from .stats import variance_rate

BOUND_NAMES = ("open", "closed", "var_rate_residual", "cauchy_schwarz")
BUILTIN_NAMES = ("example1", "example2", "crossover", "figure1")

RESULT_COLUMNS = (
    "t",
    "mean",
    "sigma",
    "sigma_sq",
    "var_rate",
    "lhs_open",
    "rhs_open",
    "margin_open",
    "lhs_closed",
    "rhs_closed",
    "margin_closed",
    "var_rate_residual",
    "skipped_flags",
)

FIGURE_COLUMNS = ("t", "mu_A", "sigma_A", "v_A", "margin_closed")


class ScenarioError(ValueError):
    """Carries every violated invariant of a scenario file."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid scenario: " + "; ".join(self.violations))


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    dimension: int
    initial_state: np.ndarray
    hamiltonian: TimeDependentObservable | None
    jump_terms: tuple  # ((matrix, rate-or-None), ...)
    observable: TimeDependentObservable
    t_max: float
    dt: float
    bounds: tuple
    rho_dot_mode: str


# ---------------------------------------------------------------------------
# parsing

# What a field's parser raises on bad input; OverflowError: an int too large for a float.
_FIELD_ERRORS = (ValueError, TypeError, KeyError, OverflowError)


def _finite_number(x) -> bool:
    """A number (not a bool) that is a finite float."""
    return _is_number(x) and abs(x) <= sys.float_info.max


def _jump_term(entry) -> tuple:
    """(matrix, rate or None) of one jump_operators entry.  A rate that
    is not a number raises; its sign is _nonnegative_rate's check."""
    entry = json_object(entry)
    m = matrix_from_dict(json_object(entry["matrix"], "matrix"))
    rate = entry.get("rate")
    if rate is not None and not _is_number(rate):
        kind = "nonnegative" if isinstance(rate, bool) else "a number"
        raise TypeError(f"rate must be {kind}, got {rate!r}")
    return m, None if rate is None else float(rate)


def _nonnegative_rate(term) -> None:
    rate = term[1]
    if rate is not None and not (rate >= 0.0 and math.isfinite(rate)):
        raise ValueError(f"rate must be nonnegative, got {rate}")


def _dimension(parsed) -> int:
    """The dimension of a parsed matrix, observable or jump term."""
    if isinstance(parsed, TimeDependentObservable):
        return parsed.dim
    return len(parsed[0] if isinstance(parsed, tuple) else parsed)


def parse_scenario(data: dict, default_name: str = "unnamed") -> ScenarioSpec:
    violations = []

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        violations.append("name: must be a nonempty string")
        name = default_name

    dimension = data.get("dimension")
    if type(dimension) is not int or dimension < 1:
        violations.append("dimension: must be a positive integer")
        dimension = 0

    def field(label, value, parse, check=None):
        """parse(value), then check(parsed) and the parsed dimension against
        ``dimension``, each failure one violation under label; None where
        value does not parse."""
        try:
            parsed = parse(value)
        except _FIELD_ERRORS as err:
            violations.append(f"{label}: {err}")
            return None
        try:
            if check is not None:
                check(parsed)
        except _FIELD_ERRORS as err:
            violations.append(f"{label}: {err}")
        d = _dimension(parsed)
        if dimension and d != dimension:
            violations.append(f"{label}: dimension {d} does not match {dimension}")
        return parsed

    def required(key, parse, check=None):
        """The field under key, or None and "<key>: missing" without one."""
        if key in data:
            return field(key, data[key], parse, check)
        violations.append(f"{key}: missing")
        return None

    initial_state = required("initial_state", matrix_from_dict, as_density_matrix)
    hamiltonian = None
    if data.get("hamiltonian") is not None:
        hamiltonian = field("hamiltonian", data["hamiltonian"], observable_from_dict)
    jump_entries = data.get("jump_operators", [])
    if not isinstance(jump_entries, list):
        violations.append(f"jump_operators: must be a list, got {jump_entries!r}")
        jump_entries = []
    jump_terms = [field(f"jump_operators[{i}]", entry, _jump_term, _nonnegative_rate)
                  for i, entry in enumerate(jump_entries)]
    obs = required("observable", observable_from_dict)

    dt = data.get("dt", 0.0)
    t_max = data.get("t_max", 0.0)
    dt_ok = _finite_number(dt) and dt > 0
    if not dt_ok:
        violations.append(f"dt: must be positive, got {dt!r}")
    if not (_finite_number(t_max) and t_max >= (10 * dt if dt_ok else 0.0)):
        violations.append(f"t_max: must be at least 10*dt, got {t_max!r}")

    bounds = data.get("bounds", ["open"])
    if not isinstance(bounds, list):
        violations.append(f"bounds: must be a list, got {bounds!r}")
        bounds = []
    for b in bounds:
        if b not in BOUND_NAMES:
            violations.append(f"bounds: unknown check {b!r}, expected subset of {BOUND_NAMES}")

    rho_dot_mode = data.get("rho_dot_mode", "analytic")
    if rho_dot_mode not in ("analytic", "finite_difference"):
        violations.append(
            f"rho_dot_mode: must be 'analytic' or 'finite_difference', got {rho_dot_mode!r}"
        )

    if data.get("hamiltonian") is None and not jump_entries:
        violations.append("model: scenario needs a hamiltonian or at least one jump operator")

    if violations:
        raise ScenarioError(violations)

    return ScenarioSpec(
        name=name,
        dimension=dimension,
        initial_state=initial_state,
        hamiltonian=hamiltonian,
        jump_terms=tuple(jump_terms),
        observable=obs,
        t_max=float(t_max),
        dt=float(dt),
        bounds=tuple(bounds),
        rho_dot_mode=rho_dot_mode,
    )


def read_scenario(path) -> dict:
    """The top-level JSON object of a scenario file, not yet parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError([f"read: {err}"]) from err
    except (ValueError, RecursionError) as err:
        # JSONDecodeError, an integer past Python's digit limit, or
        # nesting deeper than the decoder recurses
        raise ScenarioError([f"parse: {err}"]) from err
    if not isinstance(data, dict):
        raise ScenarioError(["parse: top-level value must be an object"])
    return data


def load_scenario(path) -> ScenarioSpec:
    return parse_scenario(read_scenario(path), default_name=str(path))


def builtin_scenario_dict(name: str) -> dict:
    if name not in BUILTIN_NAMES:
        raise ValueError(f"no builtin scenario file named {name!r}")
    ref = importlib.resources.files("fluctuation_bounds") / "builtin_scenarios" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# execution

def build_model(spec: ScenarioSpec) -> LindbladModel:
    jumps = []
    for m, rate in spec.jump_terms:
        jumps.append(m if rate is None else math.sqrt(rate) * m)
    return lindblad_model(spec.hamiltonian, jumps)


def _damping_params(spec: ScenarioSpec):
    """(effective decay rate, splitting) when the model is exactly a qubit
    amplitude damping, else None."""
    if spec.dimension != 2 or len(spec.jump_terms) != 1:
        return None
    m, rate = spec.jump_terms[0]
    if m[0, 0] != 0 or m[1, 0] != 0 or m[1, 1] != 0 or m[0, 1] == 0:
        return None
    gamma_eff = (1.0 if rate is None else rate) * abs(m[0, 1]) ** 2
    if spec.hamiltonian is None:
        return gamma_eff, 0.0
    if not spec.hamiltonian.is_static:
        return None
    h = spec.hamiltonian.evaluate(0.0)
    if abs(h[0, 1]) > 0 or abs(h[0, 0] + h[1, 1]) > 1e-14 * max(1.0, abs(h[0, 0])):
        return None
    return gamma_eff, 2.0 * float(h[0, 0].real)


def build_trajectory(spec: ScenarioSpec) -> Trajectory:
    """Closed-form states when the model is exact amplitude damping,
    otherwise RK4."""
    model = build_model(spec)
    params = _damping_params(spec)
    if params is not None:
        gamma_eff, omega = params
        n = int(round(spec.t_max / spec.dt))
        times = np.arange(n + 1) * spec.dt
        states = analytic_amplitude_damping(spec.initial_state, gamma_eff, omega, times)
        return trajectory_from_states(times, states, model)
    return integrate(model, spec.initial_state, spec.t_max, spec.dt)


def run_scenario(spec: ScenarioSpec) -> dict:
    """The result table of every interior grid point, one column per quantity.

    The table maps each RESULT_COLUMNS name to a 1-D array of its values
    in grid order (an object array of strings for ``skipped_flags``),
    and two names no CSV of RESULT_COLUMNS writes: ``mean_rate`` to the
    StatPoint's d<A>/dt and ``cauchy_schwarz`` to the Cauchy-Schwarz
    margins.  ``len(table["t"])`` is the number of points.  A check that
    was not requested leaves its columns nan, and a requested bound
    leaves its lhs, rhs and margin nan at a point it skipped, so
    ``lhs_open``, ``lhs_closed`` and ``cauchy_schwarz`` are nan exactly
    where their check was not evaluated.

    All points are evaluated in one batched pass, one call per requested
    check.  If that pass raises, the points are replayed one at a time in
    grid order, so the first point that fails reports its own error and
    time.  A coefficient that overflows (math.exp past the float range
    raises OverflowError) fails the run like any other invalid point, and
    so does a grid too long for numpy to size (ValueError) or to hold
    (MemoryError).  A MemoryError in the batched pass is raised as it
    is: replaying the points would not free what the pass could not get.
    """
    try:
        traj = build_trajectory(spec)
    except (OverflowError, ValueError, MemoryError) as err:
        raise RuntimeError(f"scenario {spec.name!r} failed building its trajectory: {err}") from err
    times = traj.times[1:-1]
    try:
        # Points past the first failing one are never reached one at a
        # time, so their floating-point warnings are left out.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _evaluate_points(spec, traj, times)
    except (ValueError, OverflowError) as err:
        batch_error = err
    for k in range(len(times)):
        try:
            _evaluate_points(spec, traj, times[k:k + 1])
        except (ValueError, OverflowError) as err:
            t = float(times[k])
            raise RuntimeError(f"scenario {spec.name!r} failed at t = {t:.6g}: {err}") from err
    raise RuntimeError(f"scenario {spec.name!r} failed: {batch_error}") from batch_error


def _evaluate_points(spec, traj, times) -> dict:
    """The result table at a 1-D array of grid times, every check batched."""
    a = spec.observable
    nan = np.full(len(times), np.nan)
    sp = variance_rate(traj, a, times, spec.rho_dot_mode)
    open_reports = closed_reports = None
    residuals = cs_margins = nan
    if "open" in spec.bounds:
        open_reports = open_bound(traj, a, times, stat=sp)
    if "closed" in spec.bounds:
        closed_reports = closed_bound(traj, traj.model, a, times, stat=sp)
    if "var_rate_residual" in spec.bounds:
        residuals = var_rate_residual(traj, a, times, stat=sp)
    if "cauchy_schwarz" in spec.bounds:
        cs_margins = cauchy_schwarz_margin(traj, a, times, stat=sp)

    flags = [""] * len(times)
    bound_columns = []
    for kind, reports in (("open", open_reports), ("closed", closed_reports)):
        if reports is None:
            bound_columns += [nan] * 3
            continue
        bound_columns += [reports.lhs, reports.rhs, reports.margin]
        for j in np.flatnonzero(~reports.live):
            flags[j] += f"{';' if flags[j] else ''}{kind}:{reports.reason[j]}"
    values = (sp.t, sp.mean, sp.sigma, sp.variance, sp.var_rate, *bound_columns, residuals)
    columns = dict(zip(RESULT_COLUMNS, values + (np.array(flags, dtype=object),)))
    columns["mean_rate"] = sp.mean_rate
    columns["cauchy_schwarz"] = cs_margins
    return columns


# ---------------------------------------------------------------------------
# CSV emission

@functools.cache
def _format_tables():
    """Read-only tables of the CSV number field, built on first use.

    A field is 24 bytes, three 8-byte words: "-d.ddd" and two pad bytes,
    eight digits, and "e+ddd," and two pad bytes.  The tables are the
    first word of 0000..9999, then of nan and inf; the 4-digit half word
    of 0000..9999; the last word of the exponents -300..300; the bytes a
    field keeps, by its form (bit 0: a sign, bit 1: a 3-digit exponent,
    bit 2: nan or inf; 8: a text field, 9: a row left to the fallback);
    and the correctly rounded 10**k for k = -300..305.
    """
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    head = np.zeros((10002, 8), dtype=np.uint8)
    head[:, 0] = ord("-")
    head[:10000, 2] = ord(".")
    head[:10000, [1, 3, 4, 5]] = digits
    head[10000:, 1:4] = np.frombuffer(b"naninf", dtype=np.uint8).reshape(2, 3)
    e = np.arange(-300, 301)
    tail = np.zeros((601, 8), dtype=np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2:5] = digits[abs(e), 1:]
    tail[:, 5] = ord(",")
    forms = np.arange(8)
    keep = np.zeros((10, 24), dtype=bool)
    keep[:8] = np.array([0, 1, 1, 1, 1, 1, 0, 0] + [1] * 8 + [1, 1, 0, 1, 1, 1, 0, 0], dtype=bool)
    keep[:8, 0], keep[:8, 18] = forms & 1, forms & 2
    keep[4:8, 4:21] = False
    keep[8, 21] = True
    powers = np.array([float(f"1e{k}") for k in range(-300, 306)])
    tables = (head.view(np.uint64)[:, 0], digits.view(np.uint32)[:, 0], tail.view(np.uint64)[:, 0], keep, powers)
    for table in tables:
        table.setflags(write=False)
    return tables


def rows_to_csv_text(table: dict, columns=RESULT_COLUMNS) -> str:
    """CSV text of the named columns of a result table.

    Numbers are written as Python's %.11e and strings as they are.  A
    column of dtype kind O, U or S holds strings.  All numbers are
    formatted at once by array arithmetic: a nonzero |x| in [1e-290,
    1e290] is scaled by the correctly rounded 10**(11 - e), e from
    log10, so the scaled value lies within 3e-4 of exact; rounded to an
    integer of 12 digits, it is written from digit tables.  A row falls
    back to one %-format, its number columns %.11e and its string columns
    %s as the first row reads them, when its text is not empty or one of
    its numbers is nonzero outside that range, within 1e-3 of a rounding
    tie, or has an exponent estimate that does not settle.
    """
    arrays = [table[c] for c in columns]
    header = ",".join(columns) + "\n"
    n, m = (len(arrays[0]) if arrays else 0), len(arrays)
    if n == 0:
        return header
    head, quad, tail, keep, powers = _format_tables()
    text = np.array([a.dtype.kind in "OUS" for a in arrays])
    x = np.zeros((n, m))
    slow = np.zeros(n, dtype=bool)
    for j, a in enumerate(arrays):
        if text[j]:
            slow |= a != ""
        else:
            x[:, j] = a
    mag = np.abs(x)
    fast = (mag >= 1e-290) & (mag <= 1e290)
    e = np.floor(np.log10(np.where(fast, mag, 1.0)))
    s = np.where(fast, mag, 0.0) * powers[(311 - e).astype(np.intp)]  # 10**(11 - e)
    q = np.rint(s)
    exact = (s >= 1e11) & (q <= 1e12) & (np.abs(s - q) <= 0.499)
    finite = mag < np.inf
    slow |= (finite & (mag > 0) & ~exact).any(axis=1)
    top = q == 1e12  # rounded up to the next power of ten
    q = np.where(top, 1e11, q).astype(np.int64)
    e = (e + top).astype(np.intp)
    words = np.empty((n, m, 3), dtype=np.uint64)
    words[..., 0] = head[np.where(finite, q // 10**8, 10000 + np.isinf(x))]
    words.view(np.uint32)[..., 2] = quad[q // 10**4 % 10**4]
    words.view(np.uint32)[..., 3] = quad[q % 10**4]
    words[..., 2] = tail[e + 300]
    byte = words.view(np.uint8)
    byte[:, -1, 21] = ord("\n")
    form = (np.signbit(x) & ~np.isnan(x)) + 2 * (np.abs(e) >= 100) + 4 * ~finite
    form[:, text] = 8
    form[slow] = 9
    body = byte[keep[form]].tobytes().decode("ascii")
    if slow.any():
        fmt = ",".join("%s" if isinstance(a[0], str) else "%.11e" for a in arrays)
        rows = zip(*(a[slow].tolist() for a in arrays))
        lines = body.split("\n")
        for j, row in zip(np.flatnonzero(slow).tolist(), rows):
            lines.insert(j, fmt % row)
        body = "\n".join(lines)
    return header + body
