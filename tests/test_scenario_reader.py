"""The scenario reader against its reference: pinned violations, and seeded
mutations of the builtin scenario dicts that must give the reference's
violations, in the reference's order."""

import copy
import warnings

import numpy as np
import pytest
from conftest import random_hermitian, random_state
from reference_scenarios import reference_parse_scenario
from scenario_writers import scenario_to_dict

from fluctuation_bounds.scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    builtin_scenario_dict,
    parse_scenario,
)

TOP_KEYS = ("name", "dimension", "initial_state", "hamiltonian", "jump_operators",
            "observable", "t_max", "dt", "bounds", "rho_dot_mode")
JUNK = (None, True, False, 0, -1, 3, 2.5, -0.5, 10**400, float("inf"), "", "x", "1.0",
        [], [1, 2], ["open"], {}, {"re": [[1.0]]})


def outcome(parse, data):
    """("ok", the spec as a dict) or (the error's type, its violations or message)."""
    try:
        with np.errstate(all="ignore"):  # as the CLI parses
            return "ok", scenario_to_dict(parse(copy.deepcopy(data), default_name="mutant"))
    except ScenarioError as err:
        return "ScenarioError", err.violations
    except Exception as err:  # noqa: BLE001 - any other outcome must match too
        return type(err).__name__, str(err)


def pick(rng, values):
    return values[int(rng.integers(len(values)))]


def number(rng):
    """A JSON number: an int or a float, now and then a large or infinite one."""
    kind = int(rng.integers(8))
    if kind == 0:
        return int(rng.integers(-2, 3))
    if kind == 1:
        return pick(rng, (1e300, -1e308, float("inf"), 2**70))
    return float(np.round(rng.normal(), 3))


def numeric_grid(rng) -> dict:
    """A matrix dict whose grids hold JSON numbers only: a state, a
    Hermitian or an arbitrary matrix of size 1-4, a non-square, ragged or
    1-D grid, an entry too large for a float, or re/im of two shapes."""
    n = int(rng.integers(1, 5))
    kind = int(rng.integers(9))
    if kind in (0, 1):
        m = random_state(rng, n) if kind == 0 else random_hermitian(rng, n)
        out = {"re": m.real.tolist(), "im": m.imag.tolist()}
        if kind == 1 and rng.random() < 0.5:
            del out["im"]
        return out
    if kind == 2:
        return {"re": [[number(rng) for _ in range(n)] for _ in range(n)],
                "im": [[number(rng) for _ in range(n)] for _ in range(n)]}
    if kind == 3:
        return {"re": [[number(rng) for _ in range(n + 1)] for _ in range(n)]}
    if kind == 4:
        return {"re": [[1.0, 0.0], [0.0]]}
    if kind == 5:
        return {"re": [number(rng) for _ in range(n)]}
    if kind == 6:
        return {"re": [[10**400, 0], [0, 0]]}
    if kind == 7:
        return {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0]]}
    return {"im": [[0.0]]} if rng.random() < 0.5 else pick(rng, ([], 5, "m", None))


def matrix_sites(data) -> list:
    """(container, key) of every matrix dict the scenario holds now."""
    sites = []
    if isinstance(data.get("initial_state"), dict):
        sites.append((data, "initial_state"))
    for key in ("hamiltonian", "observable"):
        terms = data.get(key, {}).get("terms") if isinstance(data.get(key), dict) else None
        if isinstance(terms, list):
            sites += [(t, "matrix") for t in terms if isinstance(t, dict) and "matrix" in t]
    jumps = data.get("jump_operators")
    if isinstance(jumps, list):
        sites += [(j, "matrix") for j in jumps if isinstance(j, dict) and "matrix" in j]
    return sites


def mutate(rng, data: dict) -> None:
    kind = int(rng.integers(10))
    if kind == 0:
        data.pop(pick(rng, TOP_KEYS), None)
    elif kind == 1:
        data[pick(rng, TOP_KEYS)] = copy.deepcopy(pick(rng, JUNK))
    elif kind == 2:
        data["dimension"] = int(rng.integers(1, 5))
    elif kind in (3, 4, 5):
        sites = matrix_sites(data)
        if sites:
            container, key = pick(rng, sites)
            container[key] = numeric_grid(rng)
    elif kind == 6:
        jumps = data.get("jump_operators")
        if isinstance(jumps, list) and jumps and isinstance(jumps[0], dict):
            entry = pick(rng, jumps) if all(isinstance(j, dict) for j in jumps) else jumps[0]
            if rng.random() < 0.2:
                entry.pop("rate", None)
            else:
                entry["rate"] = copy.deepcopy(pick(rng, JUNK + (0.0, 1.5, -2.0, 7)))
    elif kind == 7:
        jumps = data.setdefault("jump_operators", [])
        if isinstance(jumps, list):
            jumps.append(pick(rng, ({"matrix": numeric_grid(rng), "rate": 0.5},
                                    {"matrix": numeric_grid(rng)}, {"rate": 1.0}, 5, [])))
    elif kind == 8:
        key = pick(rng, ("hamiltonian", "observable"))
        obs = data.get(key)
        if isinstance(obs, dict) and isinstance(obs.get("terms"), list) and obs["terms"]:
            term = obs["terms"][int(rng.integers(len(obs["terms"])))]
            if isinstance(term, dict):
                field = pick(rng, ("kind", "value", "amplitude", "omega", "coefficients"))
                term[field] = copy.deepcopy(pick(rng, JUNK + ("cosine", "polynomial", [1, 2])))
        elif rng.random() < 0.5:
            data[key] = pick(rng, ({"terms": []}, {"terms": 5}, {"terms": [5]}, None))
    else:
        data["bounds"] = pick(rng, (["open", "closed"], ["tight"], [], ["open", 5]))


def mutants(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = builtin_scenario_dict(pick(rng, BUILTIN_NAMES))
        for _ in range(int(rng.integers(1, 5))):
            mutate(rng, data)
        yield data


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_mutated_builtins_give_the_reference_violations(seed):
    outcomes = set()
    for data in mutants(seed, 1000):
        want = outcome(reference_parse_scenario, data)
        assert outcome(parse_scenario, data) == want, data
        outcomes.add(want[0])
    assert outcomes == {"ok", "ScenarioError"}


def test_mutations_reach_every_matrix_violation():
    # The mutants reach a parse failure and a dimension mismatch in each
    # of the four matrix-valued fields.
    seen = set()
    for data in mutants(11, 1000):
        kind, violations = outcome(reference_parse_scenario, data)
        if kind == "ScenarioError":
            seen.update(v.split(":")[0].split("[")[0] + ("  dim" if "does not match" in v else "")
                        for v in violations)
    for field in ("initial_state", "hamiltonian", "jump_operators", "observable"):
        assert field + "  dim" in seen and field in seen


EVERY_FIELD_BROKEN = {
    "name": "",
    "dimension": 2,
    "initial_state": {"re": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "hamiltonian": {"terms": [{"kind": "constant", "value": 1.0,
                               "matrix": {"re": [[0.0, 1.0], [0.0, 0.0]]}}]},
    "jump_operators": [
        {"matrix": {"re": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]}, "rate": -1.0},
        {"matrix": {"re": [[0.0, 1.0], [0.0, 0.0]]}, "rate": "1"},
        {"rate": 1.0},
        5,
    ],
    "observable": {"terms": [{"kind": "constant", "value": 1.0,
                              "matrix": {"re": [[1.0]]}}]},
    "t_max": "long",
    "dt": -0.1,
    "bounds": ["open", "tight"],
    "rho_dot_mode": "spectral",
}


def test_a_scenario_that_breaks_every_field_lists_every_violation_in_order():
    with pytest.raises(ScenarioError) as info:
        parse_scenario(EVERY_FIELD_BROKEN)
    assert info.value.violations == (
        "name: must be a nonempty string",
        "initial_state: density matrix violates trace normalization (tr = 3+0j)",
        "initial_state: dimension 3 does not match 2",
        "hamiltonian: observable basis matrix is not Hermitian (defect 1.000e+00)",
        "jump_operators[0]: rate must be nonnegative, got -1.0",
        "jump_operators[0]: dimension 3 does not match 2",
        "jump_operators[1]: rate must be a number, got '1'",
        "jump_operators[2]: 'matrix'",
        "jump_operators[3]: must be an object, got 5",
        "observable: dimension 1 does not match 2",
        "dt: must be positive, got -0.1",
        "t_max: must be at least 10*dt, got 'long'",
        "bounds: unknown check 'tight', expected subset of "
        "('open', 'closed', 'var_rate_residual', 'cauchy_schwarz')",
        "rho_dot_mode: must be 'analytic' or 'finite_difference', got 'spectral'",
    )
    assert outcome(parse_scenario, EVERY_FIELD_BROKEN) == outcome(
        reference_parse_scenario, EVERY_FIELD_BROKEN)


THREE = {"re": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]}


@pytest.mark.parametrize("field, violation", [
    ("initial_state", "initial_state: dimension 3 does not match 2"),
    ("hamiltonian", "hamiltonian: dimension 3 does not match 2"),
    ("jump_operators", "jump_operators[0]: dimension 3 does not match 2"),
    ("observable", "observable: dimension 3 does not match 2"),
])
def test_a_matrix_of_another_dimension_is_one_violation(field, violation):
    data = builtin_scenario_dict("example2")
    if field == "initial_state":
        data[field] = THREE
    elif field == "jump_operators":
        data[field][0]["matrix"] = THREE
    else:
        data[field] = {"terms": [{"kind": "constant", "value": 1.0, "matrix": THREE}]}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(data)
    assert info.value.violations == (violation,)


def test_a_state_that_fails_its_check_still_has_its_dimension_compared():
    data = builtin_scenario_dict("example1")
    data["initial_state"] = {"re": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -0.5]]}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(data)
    assert info.value.violations == (
        "initial_state: density matrix violates trace normalization (tr = 0.5+0j)",
        "initial_state: dimension 3 does not match 2",
    )


INF_IM = {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[float("inf"), 0.0], [0.0, 0.0]]}
HUGE_SKEW = {"re": [[0.5, 1e308], [-1e308, 0.5]]}  # m - m^dagger overflows


@pytest.mark.parametrize("field, matrix, violation", [
    ("initial_state", INF_IM, "initial_state: matrix entries must be finite"),
    ("initial_state", HUGE_SKEW, "initial_state: density matrix violates hermiticity (defect inf)"),
    ("hamiltonian", INF_IM, "hamiltonian: matrix entries must be finite"),
    ("hamiltonian", HUGE_SKEW, "hamiltonian: observable basis matrix is not Hermitian (defect inf)"),
    ("jump_operators", INF_IM, "jump_operators[0]: matrix entries must be finite"),
    ("observable", INF_IM, "observable: matrix entries must be finite"),
    ("observable", HUGE_SKEW, "observable: observable basis matrix is not Hermitian (defect inf)"),
])
def test_inf_and_overflowing_entries_are_violations_not_warnings(field, matrix, violation):
    data = builtin_scenario_dict("example1")
    if field == "initial_state":
        data[field] = matrix
    elif field == "jump_operators":
        data[field][0]["matrix"] = matrix
    else:
        data[field] = {"terms": [{"kind": "constant", "value": 1.0, "matrix": matrix}]}
    with warnings.catch_warnings(), pytest.raises(ScenarioError) as info:
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        parse_scenario(data)
    assert info.value.violations == (violation,)
