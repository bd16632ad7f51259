"""Scenario parsing, builtin runs, closed-form curve family, CSV emission."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import random_hermitian, random_jump, random_state, sanity_check_figure_sigma
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_points import reference_csv_text
from scenario_writers import scenario_to_dict

from fluctuation_bounds import scenarios as sc
from fluctuation_bounds.cli import _emit
from fluctuation_bounds.dynamics import IntegrationError, LindbladModel
from fluctuation_bounds.linalg import sigma_minus, sigma_plus, sigma_x
from fluctuation_bounds.observables import constant, cosine, observable, polynomial, static_observable
from fluctuation_bounds.scenarios import (
    BUILTIN_NAMES,
    FIGURE_COLUMNS,
    RESULT_COLUMNS,
    ScenarioError,
    builtin_scenario_dict,
    build_trajectory,
    figure1_curves,
    load_builtin,
    load_scenario,
    parse_scenario,
    read_scenario,
    rows_to_csv_text,
    run_scenario,
)


def small_example1(t_max=0.5, dt=0.001, **extra):
    data = builtin_scenario_dict("example1")
    data["t_max"] = t_max
    data["dt"] = dt
    data.update(extra)
    return parse_scenario(data, default_name="example1")


# ---------------------------------------------------------------------------
# parsing and serialization

@pytest.mark.parametrize("name", ["example1", "example2", "crossover"])
def test_builtin_round_trips_unchanged(name):
    data = builtin_scenario_dict(name)
    assert scenario_to_dict(parse_scenario(data)) == data


def test_builtin_names_cover_files_plus_curves():
    assert BUILTIN_NAMES == ("example1", "example2", "crossover", "figure1")
    with pytest.raises(ValueError, match="figure1"):
        builtin_scenario_dict("figure1")
    with pytest.raises(ValueError):
        builtin_scenario_dict("nosuch")


def test_subnormalized_state_rejected_with_trace_diagnostic():
    data = builtin_scenario_dict("example1")
    data["initial_state"] = {"re": [[0.0, 0.0], [0.0, 0.9]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ScenarioError, match="trace"):
        parse_scenario(data)


def test_negative_rate_rejected():
    data = builtin_scenario_dict("example1")
    data["jump_operators"][0]["rate"] = -1
    with pytest.raises(ScenarioError, match="rate must be nonnegative"):
        parse_scenario(data)


def test_all_violations_reported_at_once():
    try:
        parse_scenario({"name": 3, "dimension": -1, "dt": 0.0})
    except ScenarioError as err:
        fields = {v.split(":")[0] for v in err.violations}
    else:
        pytest.fail("expected ScenarioError")
    assert {"name", "dimension", "initial_state", "observable", "dt", "model"} <= fields


def test_short_grid_rejected():
    data = builtin_scenario_dict("example1")
    data["t_max"] = 0.009  # below 10*dt at dt=1e-3
    with pytest.raises(ScenarioError, match="t_max"):
        parse_scenario(data)


def test_unknown_bound_and_mode_rejected():
    data = builtin_scenario_dict("example1")
    data["bounds"] = ["open", "tight"]
    data["rho_dot_mode"] = "spectral"
    try:
        parse_scenario(data)
    except ScenarioError as err:
        msg = str(err)
    assert "'tight'" in msg and "rho_dot_mode" in msg


@pytest.mark.parametrize("field,value", [
    ("bounds", 5), ("bounds", "open"), ("bounds", None),
    ("jump_operators", 7), ("jump_operators", {"matrix": {"re": [[0.0]]}}),
])
def test_list_fields_must_be_lists(field, value):
    data = builtin_scenario_dict("example1")
    data[field] = value
    data["dt"] = -1.0  # violations are still collected together
    with pytest.raises(ScenarioError) as info:
        parse_scenario(data)
    assert f"{field}: must be a list, got {value!r}" in info.value.violations
    assert any(v.startswith("dt:") for v in info.value.violations)
    assert not any("unknown check" in v for v in info.value.violations)
    if field == "jump_operators":  # example1 has no hamiltonian to fall back on
        assert any(v.startswith("model:") for v in info.value.violations)


def set_field(data: dict, field: str, value) -> dict:
    """data with field set; "rate" is the first jump operator's rate, "term
    value" the first observable term's constant, "amplitude" and
    "coefficients" those of the first observable term made a cosine or a
    polynomial, "state entry" the first real entry of the initial state,
    and "jump matrix" and "term matrix" the matrix of the first jump
    operator and of the first observable term."""
    term = data["observable"]["terms"][0]
    if field == "rate":
        data["jump_operators"][0]["rate"] = value
    elif field == "jump matrix":
        data["jump_operators"][0]["matrix"] = value
    elif field == "term matrix":
        term["matrix"] = value
    elif field == "term value":
        term["value"] = value
    elif field == "amplitude":
        data["observable"]["terms"][0] = {"kind": "cosine", "amplitude": value, "omega": 1.0,
                                          "matrix": term["matrix"]}
    elif field == "coefficients":
        data["observable"]["terms"][0] = {"kind": "polynomial", "coefficients": value,
                                          "matrix": term["matrix"]}
    elif field == "state entry":
        data["initial_state"]["re"][0][0] = value
    else:
        data[field] = value
    return data


def parse_violations(data: dict) -> tuple:
    with pytest.raises(ScenarioError) as info:
        parse_scenario(data)
    return info.value.violations


@pytest.mark.parametrize("field, violation", [
    ("dimension", "dimension: must be a positive integer"),
    ("dt", "dt: must be positive, got True"),
    ("t_max", "t_max: must be at least 10*dt, got True"),
    ("rate", "jump_operators[0]: rate must be nonnegative, got True"),
    ("term value", "observable: constant coefficient parameters must be numbers, got True"),
    ("amplitude", "observable: cosine coefficient parameters must be numbers, got True"),
])
def test_json_booleans_are_not_numbers(field, violation):
    violations = parse_violations(set_field(builtin_scenario_dict("example1"), field, True))
    assert violations == (violation,)


@pytest.mark.parametrize("field, value, violation", [
    ("rate", "1.0", "jump_operators[0]: rate must be a number, got '1.0'"),
    ("rate", [1.0], "jump_operators[0]: rate must be a number, got [1.0]"),
    ("term value", "1.0", "observable: constant coefficient parameters must be numbers, got '1.0'"),
    ("amplitude", "1", "observable: cosine coefficient parameters must be numbers, got '1'"),
    # tuple("12") is ("1", "2") and a dict iterates its keys
    ("coefficients", "12", "observable: polynomial coefficient parameters must be numbers, got '1'"),
    ("coefficients", {"1": 2}, "observable: polynomial coefficient parameters must be numbers, got '1'"),
    ("coefficients", [1, None], "observable: polynomial coefficient parameters must be numbers, got None"),
])
def test_json_values_that_are_not_numbers_are_one_violation(field, value, violation):
    violations = parse_violations(set_field(builtin_scenario_dict("example1"), field, value))
    assert violations == (violation,)


@pytest.mark.parametrize("field, value, violation", [
    ("hamiltonian", [], "hamiltonian: must be an object, got []"),
    ("hamiltonian", 5, "hamiltonian: must be an object, got 5"),
    ("observable", [], "observable: must be an object, got []"),
    ("observable", "A", "observable: must be an object, got 'A'"),
    ("initial_state", [], "initial_state: must be an object, got []"),
    ("initial_state", [[1, 0], [0, 0]], "initial_state: must be an object, got [[1, 0], [0, 0]]"),
    ("jump_operators", [5], "jump_operators[0]: must be an object, got 5"),
    ("jump_operators", [[]], "jump_operators[0]: must be an object, got []"),
    ("jump matrix", 5, "jump_operators[0]: matrix: must be an object, got 5"),
    ("term matrix", 5, "observable: matrix: must be an object, got 5"),
    ("term matrix", [[1, 0], [0, -1]], "observable: matrix: must be an object, got [[1, 0], [0, -1]]"),
])
def test_fields_that_are_not_objects_are_one_violation(field, value, violation):
    violations = parse_violations(set_field(builtin_scenario_dict("example1"), field, value))
    assert violations == (violation,)


@pytest.mark.parametrize("value", ["0.01", None, [0.01], {"dt": 0.01}])
def test_dt_that_is_not_a_number_is_one_violation(value):
    violations = parse_violations(set_field(builtin_scenario_dict("example1"), "dt", value))
    assert violations == (f"dt: must be positive, got {value!r}",)


@pytest.mark.parametrize("field, prefix", [
    ("dt", "dt: must be positive"),
    ("t_max", "t_max: must be at least 10*dt"),
    ("rate", "jump_operators[0]: int too large to convert to float"),
    ("term value", "observable: int too large to convert to float"),
    ("state entry", "initial_state: int too large to convert to float"),
])
def test_integers_too_large_for_a_float_are_violations(field, prefix):
    violations = parse_violations(set_field(builtin_scenario_dict("example1"), field, 10**400))
    assert violations[0].startswith(prefix)


@pytest.mark.parametrize("observable, violation", [
    ("absent", "observable: missing"),
    ({"terms": [{"kind": "constant", "value": 1.0}]}, "observable: 'matrix'"),
    ({"terms": [{"kind": "polynomial", "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]}}]},
     "observable: 'coefficients'"),
])
def test_observable_is_missing_only_when_absent(observable, violation):
    data = builtin_scenario_dict("example1")
    if observable == "absent":
        del data["observable"]
    else:
        data["observable"] = observable
    assert parse_violations(data) == (violation,)


@pytest.mark.parametrize("state, violation", [
    ("absent", "initial_state: missing"),
    ({"im": [[0, 0], [0, 0]]}, "initial_state: 're'"),
])
def test_initial_state_is_missing_only_when_absent(state, violation):
    data = builtin_scenario_dict("example1")
    if state == "absent":
        del data["initial_state"]
    else:
        data["initial_state"] = state
    assert parse_violations(data) == (violation,)


def test_load_scenario_non_utf8_file(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ScenarioError, match="read:"):
        load_scenario(p)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="read:"):
        load_scenario(tmp_path / "nope.json")


def test_read_scenario_returns_the_object_unparsed(tmp_path):
    data = builtin_scenario_dict("example1")
    data["dt"] = -1.0  # invalid, but reading does not parse
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    assert read_scenario(p) == data
    with pytest.raises(ScenarioError, match="dt:"):
        load_scenario(p)


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="parse:"):
        load_scenario(p)
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ScenarioError, match="top-level"):
        load_scenario(p)


# ---------------------------------------------------------------------------
# amplitude-damping fast path

def test_damping_params_detected_for_builtins():
    g1, w1 = sc._damping_params(load_builtin("example1"))
    assert g1 == 1.0 and w1 == 0.0
    g2, w2 = sc._damping_params(load_builtin("example2"))
    assert g2 == 1.0 and w2 == 1.0


def test_damping_params_scaled_jump():
    spec = small_example1()
    spec = dataclasses.replace(spec, jump_terms=((2.0 * np.array([[0, 1], [0, 0]], dtype=complex), 0.5),))
    assert sc._damping_params(spec) == (2.0, 0.0)


def test_damping_params_rejects_non_damping_models():
    spec = small_example1()
    assert sc._damping_params(dataclasses.replace(spec, dimension=3)) is None
    two = spec.jump_terms + spec.jump_terms
    assert sc._damping_params(dataclasses.replace(spec, jump_terms=two)) is None
    raising = ((sigma_plus.copy(), 1.0),)
    assert sc._damping_params(dataclasses.replace(spec, jump_terms=raising)) is None
    off_diag = dataclasses.replace(spec, hamiltonian=static_observable(sigma_x))
    assert sc._damping_params(off_diag) is None
    driven = dataclasses.replace(
        spec, hamiltonian=observable([(cosine(1.0, 1.0), np.diag([1.0, -1.0]))])
    )
    assert sc._damping_params(driven) is None


def test_integrator_path_matches_analytic_path():
    """A zero-rate extra jump defeats the fast-path detection without
    changing the dynamics, so both routes must agree to RK4 accuracy."""
    exact = small_example1()
    padded = dataclasses.replace(
        exact, jump_terms=exact.jump_terms + ((np.array([[0, 1], [0, 0]], dtype=complex), 0.0),)
    )
    assert sc._damping_params(padded) is None
    ta = build_trajectory(exact)
    tb = build_trajectory(padded)
    assert isinstance(ta.model, LindbladModel)
    assert np.max(np.abs(ta.states - tb.states)) <= 1e-8


# ---------------------------------------------------------------------------
# builtin runs

def test_example1_rows_match_closed_forms():
    table = run_scenario(small_example1(t_max=1.0))
    cols = table.columns
    assert len(table) == 999  # interior points only
    assert cols["t"][0] == pytest.approx(0.001)
    assert cols["t"][-1] == pytest.approx(0.999)
    for k in range(0, len(table), 97):
        u = math.exp(-cols["t"][k])
        lhs = u * (1.0 - 2.0 * u) ** 2 / (1.0 - u)
        assert cols["lhs_open"][k] == pytest.approx(lhs, rel=1e-6)
        assert abs(cols["rhs_open"][k] - 2.0 * cols["lhs_open"][k]) <= 1e-12
        assert cols["sigma_sq"][k] == pytest.approx(4.0 * u * (1.0 - u), rel=1e-12)
        assert cols["skipped_flags"][k] == ""


def test_example2_rows_reduce_to_zero_le_two():
    data = builtin_scenario_dict("example2")
    data["t_max"] = 0.5
    cols = run_scenario(parse_scenario(data)).columns
    for k in range(0, len(cols["t"]), 53):
        assert abs(cols["mean"][k]) <= 1e-10
        assert abs(cols["lhs_open"][k]) <= 1e-10
        assert abs(cols["rhs_open"][k] - 2.0) <= 1e-12
        assert cols["var_rate_residual"][k] <= 1e-10


def test_crossover_margin_flips_once_near_threshold():
    data = builtin_scenario_dict("crossover")
    data["t_max"] = 0.6
    cols = run_scenario(parse_scenario(data)).columns
    signs = (cols["margin_closed"] >= 0).tolist()
    flips = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
    assert len(flips) == 1
    t_star = math.log(4.0 / 3.0)
    assert cols["t"][flips[0]] < t_star <= cols["t"][flips[0] + 1] + 1e-12
    assert not signs[0] and signs[-1]


def test_unrequested_bounds_stay_nan():
    cols = run_scenario(small_example1(bounds=["closed"])).columns
    assert math.isnan(cols["lhs_open"][100]) and math.isnan(cols["var_rate_residual"][100])
    assert math.isfinite(cols["lhs_closed"][100])


def test_zero_spread_points_are_flagged_not_fatal():
    identity_obs = {
        "terms": [
            {"kind": "constant", "value": 1.0,
             "matrix": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}
        ]
    }
    spec = small_example1(t_max=0.1, observable=identity_obs, bounds=["open"])
    table = run_scenario(spec)
    assert len(table)
    cols = table.columns
    for k in range(len(table)):
        assert cols["skipped_flags"][k].startswith("open:sigma")
        assert math.isnan(cols["margin_open"][k])
        assert cols["mean"][k] == pytest.approx(1.0)


def test_unstable_grid_aborts_with_time_stamp():
    # dt far beyond the RK4 stability limit; zero-rate pad forces integration
    data = builtin_scenario_dict("example1")
    data["dt"] = 3.0
    data["t_max"] = 30.0
    data["jump_operators"].append(
        {"matrix": {"re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}, "rate": 0.0}
    )
    spec = parse_scenario(data)
    with pytest.raises(IntegrationError) as exc:
        run_scenario(spec)
    assert exc.value.t > 0


def test_point_failure_is_time_stamped(monkeypatch):
    spec = small_example1(t_max=0.1)

    def boom(*args, **kwargs):
        raise ValueError("synthetic statistics failure")

    monkeypatch.setattr(sc, "variance_rate", boom)
    with pytest.raises(RuntimeError, match=r"'example1' failed at t = 0\.001"):
        run_scenario(spec)


def test_batch_failure_no_point_repeats_is_run_failed(monkeypatch):
    spec = small_example1(t_max=0.1)
    real = sc._evaluate_points

    def batch_only(spec, traj, times):
        if len(times) > 1:
            raise ValueError("synthetic batch failure")
        return real(spec, traj, times)

    monkeypatch.setattr(sc, "_evaluate_points", batch_only)
    with pytest.raises(RuntimeError, match=r"^scenario 'example1' failed: synthetic batch failure$"):
        run_scenario(spec)


def test_runs_are_deterministic():
    spec = small_example1(t_max=0.2)
    a = rows_to_csv_text(run_scenario(spec))
    b = rows_to_csv_text(run_scenario(spec))
    assert a == b


# ---------------------------------------------------------------------------
# closed-form curve family

def test_figure1_start_and_tail():
    gamma = 1.0
    rows = figure1_curves(gamma, 50.0, 0.5)
    t0, mu0, s0, v0, m0 = rows[0]
    assert (t0, mu0, s0) == (0.0, -1.0, 0.0)
    assert v0 == pytest.approx(2.0 * gamma)
    assert math.isnan(m0)  # spread vanishes at t=0
    t_end, mu_end, s_end, v_end, m_end = rows[-1]
    assert t_end == pytest.approx(50.0 / gamma)
    assert abs(mu_end - 1.0) <= 1e-10
    assert abs(s_end) <= 1e-10
    assert abs(v_end) <= 1e-9


def test_figure1_margin_matches_closed_form_and_flips_at_quarter():
    gamma = 2.0
    rows = figure1_curves(gamma, 2.0, 0.001)
    t_star = math.log(4.0 / 3.0) / gamma
    for t, _, _, _, margin in rows[1::173]:
        u = math.exp(-gamma * t)
        expected = gamma**2 * u * (3.0 - 4.0 * u) / (1.0 - u)
        assert margin == pytest.approx(expected, rel=1e-10)
        assert (margin >= 0) == (t >= t_star)


@settings(deadline=None, max_examples=60)
@given(
    gamma=st.floats(min_value=0.1, max_value=2.0),
    t=st.floats(min_value=0.01, max_value=8.0),
)
def test_figure1_sigma_agrees_with_statistics_pipeline(gamma, t):
    # gamma*t capped: past ~20 the variance difference 1-(1-2p)^2 loses
    # the last digits to cancellation and the 1e-12 match no longer applies
    u = math.exp(-gamma * t)
    curve = 2.0 * math.sqrt(u) * math.sqrt(1.0 - u)
    assert abs(curve - sanity_check_figure_sigma(gamma, t)) <= 1e-12


def test_figure1_rejects_bad_arguments():
    with pytest.raises(ValueError, match="decay rate"):
        figure1_curves(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        figure1_curves(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        figure1_curves(1.0, 0.05, 0.1)


@pytest.mark.parametrize("gamma, t_max, dt, field", [
    (math.nan, 1.0, 0.1, "gamma"),
    (math.inf, 1.0, 0.1, "gamma"),
    (1.0, math.inf, 0.1, "t_max"),
    (1.0, math.nan, 0.1, "t_max"),
    (1.0, 1.0, math.nan, "dt"),
    (1.0, 1.0, math.inf, "dt"),
])
def test_figure1_rejects_non_finite_arguments(gamma, t_max, dt, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        figure1_curves(gamma, t_max, dt)


def test_figure1_rejects_overflowing_step_count():
    with pytest.raises(ValueError, match="t_max / dt overflows"):
        figure1_curves(1.0, 1e308, 1e-300)


# ---------------------------------------------------------------------------
# CSV emission

def test_result_columns_match_row_fields():
    assert FIGURE_COLUMNS == ("t", "mu_A", "sigma_A", "v_A", "margin_closed")


def test_csv_format_is_stable():
    text = rows_to_csv_text([(math.pi, "why", float("nan"))], columns=("a", "b", "c"))
    assert text == "a,b,c\n3.14159265359e+00,why,nan\n"


def test_csv_file_bytes(tmp_path):
    rows = run_scenario(small_example1(t_max=0.05))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    _emit(rows_to_csv_text(rows), p1)
    _emit(rows_to_csv_text(rows), p2)
    blob = p1.read_bytes()
    assert blob == p2.read_bytes()
    assert b"\r" not in blob
    header = blob.decode("utf-8").splitlines()[0]
    assert header == ",".join(RESULT_COLUMNS)
    assert len(blob.decode("utf-8").splitlines()) == len(rows) + 1


def driven_d4_spec():
    """A seeded open model at d = 4 with a cosine drive: RK4 builds its trajectory."""
    rng = np.random.default_rng(404)
    herm = [random_hermitian(rng, 4) for _ in range(4)]
    rho0 = random_state(rng, 4)
    return sc.ScenarioSpec(
        name="driven-d4", dimension=4, initial_state=rho0,
        hamiltonian=observable([(constant(1.0), herm[0]), (cosine(0.6, 1.7, 0.4), herm[1])]),
        jump_terms=tuple((random_jump(rng, 4, 0.4), None) for _ in range(2)),
        observable=observable([(constant(1.0), herm[2]), (cosine(1.1, 0.9), herm[3])]),
        t_max=0.3, dt=0.005, bounds=sc.BOUND_NAMES, rho_dot_mode="analytic",
    )


def skipped_points_spec():
    """sigma vanishes at t = 0.5 (c(t) = t - 0.5), so that point's bounds are
    skipped; the closed bound and the residual are not requested (nan columns)."""
    return sc.ScenarioSpec(
        name="skipped", dimension=2, initial_state=np.diag([0.3, 0.7]).astype(complex),
        hamiltonian=None, jump_terms=((sigma_minus, None),),
        observable=observable([(polynomial([-0.5, 1.0]), sigma_x)]),
        t_max=1.25, dt=0.125, bounds=("open", "cauchy_schwarz"), rho_dot_mode="analytic",
    )


@pytest.mark.parametrize("case", ["example1", "example2", "crossover", "skipped", "driven-d4"])
def test_csv_from_columns_matches_the_row_writer(case):
    if case == "skipped":
        spec = skipped_points_spec()
    elif case == "driven-d4":
        spec = driven_d4_spec()
    else:
        spec = dataclasses.replace(load_builtin(case), bounds=sc.BOUND_NAMES)
    table = run_scenario(spec)
    if case == "skipped":
        assert table.columns["skipped_flags"][3].startswith("open:sigma")
        assert np.isnan(table.columns["margin_closed"]).all()
    assert rows_to_csv_text(table) == reference_csv_text(table)


def test_csv_of_figure1_tuples_matches_the_row_writer():
    rows = figure1_curves(1.0, 5.0, 0.01)
    assert rows_to_csv_text(rows, FIGURE_COLUMNS) == reference_csv_text(rows, FIGURE_COLUMNS)
