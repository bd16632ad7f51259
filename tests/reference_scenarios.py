"""The scenario reader as it was written before its field rule, kept as a
reference: each matrix-valued field parsed, checked and compared against
the dimension by code of its own.

Its number rule is its own copy, and it reads matrix grids through the
package's ``matrix_from_dict``, so the two readers agree only on grids
whose entries are JSON numbers; the differential test feeds it those.
"""

import math
import numbers
import sys

from fluctuation_bounds.linalg import as_density_matrix, json_object, matrix_from_dict
from fluctuation_bounds.observables import observable_from_dict
from fluctuation_bounds.scenarios import BOUND_NAMES, ScenarioError, ScenarioSpec

_FIELD_ERRORS = (ValueError, TypeError, KeyError, OverflowError)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _finite_number(x) -> bool:
    return _is_number(x) and abs(x) <= sys.float_info.max


def reference_parse_scenario(data: dict, default_name: str = "unnamed") -> ScenarioSpec:
    violations = []

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        violations.append("name: must be a nonempty string")
        name = default_name

    dimension = data.get("dimension")
    if type(dimension) is not int or dimension < 1:
        violations.append("dimension: must be a positive integer")
        dimension = 0

    initial_state = None
    if "initial_state" not in data:
        violations.append("initial_state: missing")
    else:
        try:
            initial_state = matrix_from_dict(data["initial_state"])
            as_density_matrix(initial_state)
        except _FIELD_ERRORS as err:
            violations.append(f"initial_state: {err}")
    if initial_state is not None and dimension and initial_state.shape[0] != dimension:
        violations.append(
            f"initial_state: dimension {initial_state.shape[0]} does not match {dimension}"
        )

    hamiltonian = None
    if data.get("hamiltonian") is not None:
        try:
            hamiltonian = observable_from_dict(data["hamiltonian"])
            if dimension and hamiltonian.dim != dimension:
                violations.append(
                    f"hamiltonian: dimension {hamiltonian.dim} does not match {dimension}"
                )
        except _FIELD_ERRORS as err:
            violations.append(f"hamiltonian: {err}")

    jump_terms = []
    jump_entries = data.get("jump_operators", [])
    if not isinstance(jump_entries, list):
        violations.append(f"jump_operators: must be a list, got {jump_entries!r}")
        jump_entries = []
    for i, entry in enumerate(jump_entries):
        try:
            entry = json_object(entry)
            m = matrix_from_dict(json_object(entry["matrix"], "matrix"))
            rate = entry.get("rate")
            if rate is not None:
                if not _is_number(rate):
                    kind = "nonnegative" if isinstance(rate, bool) else "a number"
                    raise TypeError(f"rate must be {kind}, got {rate!r}")
                rate = float(rate)
                if not (rate >= 0.0 and math.isfinite(rate)):
                    violations.append(f"jump_operators[{i}]: rate must be nonnegative, got {rate}")
            if dimension and m.shape[0] != dimension:
                violations.append(
                    f"jump_operators[{i}]: dimension {m.shape[0]} does not match {dimension}"
                )
            jump_terms.append((m, rate))
        except _FIELD_ERRORS as err:
            violations.append(f"jump_operators[{i}]: {err}")

    obs = None
    if "observable" not in data:
        violations.append("observable: missing")
    else:
        try:
            obs = observable_from_dict(data["observable"])
            if dimension and obs.dim != dimension:
                violations.append(f"observable: dimension {obs.dim} does not match {dimension}")
        except _FIELD_ERRORS as err:
            violations.append(f"observable: {err}")

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
