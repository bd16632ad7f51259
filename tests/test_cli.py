"""Exit codes, CSV emission, overrides, and sweep behavior of the CLI."""

import copy
import functools
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import reference_points
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from conftest import figure1_view, random_hermitian, random_jump, random_observable, random_state
from reference_points import reference_evaluate_scenario

from fluctuation_bounds import cli, scenarios
from fluctuation_bounds.bounds import (
    TAU_BOUND,
    cauchy_schwarz_margin,
    closed_bound,
    open_bound,
    var_rate_residual,
)
from fluctuation_bounds.channels import amplitude_damping, apply
from fluctuation_bounds.cli import cli_main
from fluctuation_bounds.linalg import sigma_minus, sigma_x
from fluctuation_bounds.observables import constant, cosine, observable, polynomial
from fluctuation_bounds.scenarios import (
    BOUND_NAMES,
    FIGURE_COLUMNS,
    RESULT_COLUMNS,
    ScenarioSpec,
    builtin_scenario_dict,
    parse_scenario,
)
from fluctuation_bounds.stats import variance_rate


def write_small_scenario(tmp_path, name="small", t_max=0.2, dt=0.001, **extra):
    data = builtin_scenario_dict("example1")
    data["name"] = name
    data["t_max"] = t_max
    data["dt"] = dt
    data.update(extra)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def last_stderr_json(capsys):
    captured = capsys.readouterr()
    lines = [ln for ln in captured.err.splitlines() if ln.startswith("{")]
    assert lines, f"no JSON on stderr: {captured.err!r}"
    return json.loads(lines[-1]), captured


# ---------------------------------------------------------------------------
# run

def test_run_writes_csv(tmp_path, capsys):
    scen = write_small_scenario(tmp_path)
    out = tmp_path / "rows.csv"
    assert cli_main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 200  # header + 199 interior points


def test_run_stdout_default(tmp_path, capsys):
    scen = write_small_scenario(tmp_path, t_max=0.05)
    assert cli_main(["run", "--scenario", str(scen)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t,mean,sigma")
    assert out.endswith("\n")


def test_library_calls_of_perfbench_keep_their_types(tmp_path, capsys):
    # perfbench/workloads.py makes these calls in-process: rk4_probe the
    # single-time checks, cli_sweep rows_to_csv_text(run_scenario(spec)) as
    # the CLI's CSV, eigenflow_probe channels.apply of amplitude_damping.
    scen = write_small_scenario(tmp_path, t_max=0.05, bounds=list(BOUND_NAMES))
    spec = scenarios.load_scenario(scen)
    traj = scenarios.build_trajectory(spec)
    a, t = spec.observable, float(traj.times[5])
    stat = variance_rate(traj, a, t)
    for report in (open_bound(traj, a, t, stat=stat), closed_bound(traj, traj.model, a, t, stat=stat)):
        assert (type(report.skipped), type(report.satisfied), type(report.margin)) == (int, bool, float)
    assert type(var_rate_residual(traj, a, t, stat=stat)) is float
    assert cli_main(["run", "--scenario", str(scen)]) == 0
    assert capsys.readouterr().out == scenarios.rows_to_csv_text(scenarios.run_scenario(spec))
    out = apply(amplitude_damping(0.3), np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([0.3, 0.7]), rtol=0.0, atol=1e-15)


def test_run_is_byte_deterministic(tmp_path):
    scen = write_small_scenario(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--scenario", str(scen), "--out", str(out1)]) == 0
    assert cli_main(["run", "--scenario", str(scen), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert cli_main(["run", "--scenario", str(tmp_path / "nope.json")]) == 2
    payload, _ = last_stderr_json(capsys)
    assert payload["error"] == "invalid-scenario"
    assert payload["violations"]


def test_run_invalid_scenario_lists_violations(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dimension": 2, "dt": -1}', encoding="utf-8")
    assert cli_main(["run", "--scenario", str(p)]) == 2
    payload, _ = last_stderr_json(capsys)
    assert any(v.startswith("dt:") for v in payload["violations"])


def test_run_matrix_entry_that_is_a_string_exits_2(tmp_path, capsys):
    # numpy reads "1" as 1.0; the scenario reader does not
    scen = write_small_scenario(tmp_path, initial_state={"re": [["1", 0], [0, 0]]})
    assert cli_main(["run", "--scenario", str(scen)]) == 2
    payload, captured = last_stderr_json(capsys)
    assert captured.out == ""
    assert payload["violations"] == ["initial_state: matrix entries must be numbers, got '1'"]


def test_run_non_utf8_file_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    for cmd in ("run", "verify"):
        assert cli_main([cmd, "--scenario", str(p)]) == 2
        payload, captured = last_stderr_json(capsys)
        assert payload["error"] == "invalid-scenario"
        assert payload["violations"][0].startswith("read:")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "builtin", "figure1"])
def test_out_in_missing_directory_exits_2(command, tmp_path, capsys):
    argv = {
        "run": ["run", "--scenario", str(write_small_scenario(tmp_path, t_max=0.05))],
        "builtin": ["builtin", "--name", "example1", "--t-max", "0.05"],
        "figure1": ["builtin", "--name", "figure1", "--dt", "0.1", "--t-max", "1.0"],
    }[command]
    out = tmp_path / "missing" / "rows.csv"
    assert cli_main(argv + ["--out", str(out)]) == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "write-failed"
    assert str(out) in payload["detail"]
    assert captured.out == ""


SIGMA_X = {"re": [[0.0, 1.0], [1.0, 0.0]]}


def test_run_overflowing_observable_exits_2(tmp_path, capsys):
    # exp(1000 t) passes the float range at t ~ 0.71: one JSON line, exit 2.
    observable = {"terms": [{"kind": "exponential-decay", "amplitude": 1.0,
                             "rate": -1000.0, "matrix": SIGMA_X}]}
    scen = write_small_scenario(tmp_path, t_max=3.0, dt=0.01, observable=observable)
    assert cli_main(["run", "--scenario", str(scen)]) == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "run-failed"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert cli_main(["verify", "--scenario", str(scen)]) == 2
    assert last_stderr_json(capsys)[0]["error"] == "run-failed"


def test_run_overflowing_hamiltonian_exits_2(tmp_path, capsys):
    # A zero-amplitude drive leaves the dynamics alone until its coefficient
    # overflows inside the RK4 run.
    hamiltonian = {"terms": [{"kind": "exponential-decay", "amplitude": 0.0,
                              "rate": -1000.0, "matrix": SIGMA_X}]}
    scen = write_small_scenario(tmp_path, t_max=3.0, dt=0.01, hamiltonian=hamiltonian)
    assert cli_main(["run", "--scenario", str(scen)]) == 2
    payload, _ = last_stderr_json(capsys)
    assert payload["error"] == "run-failed"
    assert "trajectory" in payload["detail"]


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_initial_state_with_huge_eigenvalues_is_an_invalid_scenario(example, tmp_path, capsys):
    # Eigenvalues 0.5 +- 1e308: finite, but the Hermitian part (m + m^H)/2
    # overflows unless it is halved before adding.
    data = builtin_scenario_dict(example)
    data["initial_state"] = {"re": [[0.5, 1e308], [1e308, 0.5]]}
    scen = tmp_path / "huge.json"
    scen.write_text(json.dumps(data), encoding="utf-8")
    for command in ("run", "verify"):
        assert cli_main([command, "--scenario", str(scen)]) == 2
        payload, captured = last_stderr_json(capsys)
        assert payload["error"] == "invalid-scenario"
        assert payload["violations"][0].startswith("initial_state:")
        assert "violates positivity" in payload["violations"][0]
        assert captured.out == ""


def test_run_grid_too_long_to_allocate_exits_2(tmp_path, capsys):
    # 2e299 grid points: numpy refuses the size before it allocates.
    scen = write_small_scenario(tmp_path, dt=1e-300)
    assert cli_main(["run", "--scenario", str(scen)]) == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "run-failed"
    assert "trajectory" in payload["detail"]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_trajectory_too_large_to_hold_is_run_failed(command, tmp_path, capsys, monkeypatch):
    # Stands in for numpy's _ArrayMemoryError; a real request of that size
    # may not fail cleanly under memory overcommit.
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(scenarios, "build_trajectory", out_of_memory)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    scen = write_small_scenario(tmp_path)
    assert cli_main(scenario_argv(command, scen, tmp_path)) == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "run-failed"
    assert "trajectory: Unable to allocate" in payload["detail"]
    assert "Traceback" not in captured.err


# A closed qutrit under a cosine drive, from a pure state.  At dt = 0.02
# RK4 takes it to a state with minimum eigenvalue -1.050e-10 at t = 0.26,
# just below the TAU_PSD floor; at dt = 0.01 every state stays above it.
PURE_QUTRIT = {
    "name": "pure", "dimension": 3, "t_max": 5.0,
    "initial_state": {"re": [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]]},
    "hamiltonian": {"terms": [
        {"kind": "constant", "value": 1, "matrix": {"re": [[1, 0.3, 0], [0.3, -0.5, 0.2], [0, 0.2, 0.1]]}},
        {"kind": "cosine", "amplitude": 0.3, "omega": 1.0, "matrix": {"re": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}},
    ]},
    "observable": {"terms": [{"kind": "constant", "value": 1, "matrix": {"re": [[1, 0, 0], [0, 0, 0], [0, 0, -1]]}}]},
}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("check", BOUND_NAMES)
def test_positivity_verdict_does_not_depend_on_the_check(command, check, tmp_path, capsys):
    path = tmp_path / "pure.json"
    for dt, code in ((0.02, 2), (0.01, 0)):
        path.write_text(json.dumps(dict(PURE_QUTRIT, dt=dt, bounds=[check])), encoding="utf-8")
        assert cli_main([command, "--scenario", str(path)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == json.dumps({
                "error": "run-failed", "detail": "positivity lost (min eigenvalue -1.050e-10) at t = 0.26"}) + "\n"
        else:
            assert captured.err == ""
            assert len(captured.out.splitlines()) == (500 if command == "run" else 1)


# ---------------------------------------------------------------------------
# builtin

@pytest.mark.parametrize("name", ["example1", "example2", "crossover"])
def test_builtin_smoke(name, capsys):
    rc = cli_main(["builtin", "--name", name, "--t-max", "0.05", "--dt", "0.001"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 50


def test_builtin_figure1(capsys):
    assert cli_main(["builtin", "--name", "figure1", "--dt", "0.1", "--t-max", "1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(FIGURE_COLUMNS)
    assert len(lines) == 10  # header + the interior points t = 0.1..0.9
    assert lines[1].split(",")[:2] == ["1.00000000000e-01", f"{1.0 - 2.0 * math.exp(-0.1):.11e}"]


def test_builtin_bad_name_exits_2(capsys):
    assert cli_main(["builtin", "--name", "nosuch"]) == 2
    capsys.readouterr()


def test_builtin_gamma_override_changes_rows(capsys):
    assert cli_main(["builtin", "--name", "example1", "--t-max", "0.05", "--gamma", "2.0"]) == 0
    fast = capsys.readouterr().out
    assert cli_main(["builtin", "--name", "example1", "--t-max", "0.05", "--gamma", "0.5"]) == 0
    slow = capsys.readouterr().out
    # faster decay, larger spread growth at matching times
    sigma_fast = float(fast.splitlines()[1].split(",")[2])
    sigma_slow = float(slow.splitlines()[1].split(",")[2])
    assert sigma_fast > sigma_slow


def test_builtin_omega_override(capsys):
    rc = cli_main(["builtin", "--name", "example1", "--t-max", "0.05", "--omega", "3.0"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 50


def test_builtin_omega_applies_to_figure1(capsys):
    # A splitting along sigma_z leaves a sigma_z decay from the excited
    # state as it is: the curves agree with the undriven ones.
    driven = figure1_view("--omega", "1.0")
    plain = figure1_view()
    assert len(driven) == len(plain) == 499
    for got, want in zip(driven, plain):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("flags, field", [
    (["--t-max", "inf"], "t_max"),
    (["--dt", "nan"], "dt"),
    (["--gamma", "nan"], "gamma"),
    (["--gamma", "inf"], "gamma"),
    (["--t-max", "1e308", "--dt", "1e-300"], "t_max / dt"),
    (["--t-max", "1e20", "--dt", "1"], "t_max / dt"),  # more points than numpy sizes
    (["--t-max", "1e300", "--dt", "1"], "t_max / dt"),
])
def test_builtin_figure1_rejects_non_finite_parameters(flags, field, capsys):
    # A value the scenario cannot take is invalid-scenario, as for every
    # builtin; a grid too long to build fails the run.
    assert cli_main(["builtin", "--name", "figure1", *flags]) == 2
    payload, captured = last_stderr_json(capsys)
    assert captured.out == ""
    if field == "t_max / dt":
        assert payload["error"] == "run-failed"
        assert payload["detail"].startswith("scenario 'figure1' failed building its trajectory")
        return
    assert payload["error"] == "invalid-scenario"
    prefix = {"gamma": "jump_operators[0]: rate", "t_max": "t_max:", "dt": "dt:"}[field]
    assert [v for v in payload["violations"] if v.startswith(prefix)]


def test_builtin_negative_gamma_exits_2(capsys):
    assert cli_main(["builtin", "--name", "example1", "--gamma", "-1"]) == 2
    payload, _ = last_stderr_json(capsys)
    assert payload["error"] == "invalid-scenario"


def test_gamma_requires_explicit_rate(tmp_path, capsys):
    data = builtin_scenario_dict("example1")
    del data["jump_operators"][0]["rate"]
    data["t_max"] = 0.05
    p = tmp_path / "bare.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    rc = cli_main(["sweep", "--scenario", str(p), "--param", "gamma",
                   "--values", "1.0", "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    payload, _ = last_stderr_json(capsys)
    assert "rate" in payload["detail"]


# ---------------------------------------------------------------------------
# verify

def test_verify_small_scenario_ok(tmp_path, capsys):
    scen = write_small_scenario(tmp_path)
    assert cli_main(["verify", "--scenario", str(scen)]) == 0
    assert "all requested bounds satisfied" in capsys.readouterr().out


def test_verify_crossover_reports_first_violation(capsys):
    assert cli_main(["verify", "--builtin", "crossover"]) == 1
    payload, _ = last_stderr_json(capsys)
    assert payload["error"] == "bound-violation"
    first = payload["first"]
    assert first["kind"] == "closed"
    assert first["t"] == pytest.approx(0.001)  # violated from the first interior point
    assert first["margin"] < 0


def test_verify_verdict_matches_the_reference(tmp_path, capsys, monkeypatch):
    # Cauchy-Schwarz made to fail at t = 0.001, where closed fails too, and
    # at t = 0.4, where closed holds.  The count and the first violation
    # must be what the point-by-point reference records give, closed
    # before cauchy_schwarz at one time.
    bad_times = (0.001, 0.4)

    def shifted(real):
        def margin(traj, a, t, **stat):
            hit = np.isclose(np.asarray(t)[..., None], bad_times, rtol=0.0, atol=1e-12).any(-1)
            out = real(traj, a, t, **stat) - np.where(hit, 1.0, 0.0)
            return float(out) if np.ndim(t) == 0 else out
        return margin

    for module in (scenarios, reference_points):
        monkeypatch.setattr(module, "cauchy_schwarz_margin",
                            shifted(module.cauchy_schwarz_margin))
    data = builtin_scenario_dict("crossover")
    data.update(t_max=0.5, bounds=["open", "closed", "cauchy_schwarz"])
    path = tmp_path / "crossover.json"
    path.write_text(json.dumps(data), encoding="utf-8")

    records = reference_evaluate_scenario(parse_scenario(data))
    failures = []
    for rec in records:
        for kind, rep in (("open", rec.open_report), ("closed", rec.closed_report)):
            if not rep.skipped and not rep.satisfied:
                failures.append((kind, rec.row.t, rep.margin))
        if rec.cs_margin < -TAU_BOUND:
            failures.append(("cauchy_schwarz", rec.row.t, rec.cs_margin))
    assert [f[:2] for f in failures if f[0] == "cauchy_schwarz"] == [
        ("cauchy_schwarz", t) for t in bad_times]

    assert cli_main(["verify", "--scenario", str(path)]) == 1
    payload, _ = last_stderr_json(capsys)
    # The count is of points: t = 0.001 fails two checks and counts once.
    points = len({t for _, t, _ in failures})
    assert points == len(failures) - 1
    assert payload["detail"] == f"{points} of {len(records)} points violate a requested bound"
    kind, t, margin = failures[0]
    assert (payload["first"]["kind"], payload["first"]["t"]) == (kind, t) == ("closed", 0.001)
    assert payload["first"]["margin"] == pytest.approx(margin, rel=1e-12)


def reference_verify_failures(times, reports, cs_margins):
    """verify's verdict read off the (kind, report) pairs of the bounds and
    the Cauchy-Schwarz margins, as it was before the table held only
    columns: a report fails at a point where it is live and not satisfied,
    a margin where it is below -TAU_BOUND.  (count of failing points,
    (kind, t, margin) of the first failure) or (0, None)."""
    checks = [(kind, ~r.satisfied & r.live, r.margin) for kind, r in reports]
    if cs_margins is not None:
        checks.append(("cauchy_schwarz", cs_margins < -TAU_BOUND, cs_margins))
    failed = np.array([mask for _, mask, _ in checks]).reshape(len(checks), len(times))
    if not failed.any():
        return 0, None
    points = np.flatnonzero(failed.any(axis=0))
    j = int(points[0])
    kind, _, margin = checks[int(np.flatnonzero(failed[:, j])[0])]
    return len(points), (kind, float(times[j]), float(margin[j]))


def verify_case(seed):
    """For seed 0, a qubit whose observable has zero spread at t = 0.5
    only; otherwise a seeded driven model at d = 2..4 decaying down a
    ladder from near its top level, which fails the closed bound at some
    points for most seeds, with every check."""
    if seed == 0:
        return ScenarioSpec(
            name="skipped", dimension=2, initial_state=np.diag([0.3, 0.7]).astype(complex),
            hamiltonian=None, jump_terms=((sigma_minus, None),),
            observable=observable([(polynomial([-0.5, 1.0]), sigma_x)]),
            t_max=1.25, dt=0.125, bounds=BOUND_NAMES, rho_dot_mode="analytic")
    rng = np.random.default_rng(700 + seed)
    dim = 2 + seed % 3
    jump = rng.uniform(1.0, 2.0) * np.diag(np.ones(dim - 1), 1) + 0.1 * random_jump(rng, dim, 1.0)
    hamiltonian = observable([(constant(0.2), random_hermitian(rng, dim)),
                              (cosine(0.1, 1.5, 0.3), random_hermitian(rng, dim))])
    psi = np.eye(dim)[-1] + 0.1 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    rho = 0.95 * np.outer(psi, psi.conj()) / np.vdot(psi, psi).real + 0.05 * np.eye(dim) / dim
    obs = observable([(constant(1.0), np.diag(rng.uniform(-1.0, 1.0, dim)).astype(complex)),
                      (cosine(0.3, 1.0), 0.3 * random_hermitian(rng, dim))])
    return ScenarioSpec(
        name=f"ladder-{seed}", dimension=dim, initial_state=rho, hamiltonian=hamiltonian,
        jump_terms=((jump, None),), observable=obs, t_max=0.5, dt=0.01,
        bounds=BOUND_NAMES, rho_dot_mode=("analytic", "finite_difference")[seed % 2])


def test_verify_verdict_from_columns_matches_the_report_rule():
    verdicts = []
    for seed in range(9):
        spec = verify_case(seed)
        traj = scenarios.build_trajectory(spec)
        a, times = spec.observable, traj.times[1:-1]
        stat = variance_rate(traj, a, times, spec.rho_dot_mode)
        reports = (("open", open_bound(traj, a, times, stat=stat)),
                   ("closed", closed_bound(traj, traj.model, a, times, stat=stat)))
        want = reference_verify_failures(
            times, reports, cauchy_schwarz_margin(traj, a, times, stat=stat))
        got = cli._verify_failures(scenarios.run_scenario(spec))
        assert repr(got) == repr(want), spec.name
        verdicts.append((want[0], sum(r.skipped for _, r in reports)))
    # the rules are compared on skipped points and on failing ones
    assert verdicts[0][1] == 2
    assert sum(count > 0 for count, _ in verdicts) >= 5


def test_verify_counts_a_live_point_whose_sides_both_overflowed():
    # lhs = rhs = inf: the margin is nan, and the point was evaluated, so
    # it fails.  The point whose lhs is nan was skipped and does not.
    nan, inf = math.nan, math.inf
    lhs = np.array([1.0, inf, nan])
    columns = {c: np.full(3, nan) for c in RESULT_COLUMNS[:-1] + ("cauchy_schwarz",)}
    columns.update(t=np.array([0.1, 0.2, 0.3]), lhs_open=lhs, rhs_open=np.array([2.0, inf, nan]))
    with np.errstate(invalid="ignore"):  # inf - inf
        columns["margin_open"] = columns["rhs_open"] - lhs
    count, (kind, t, margin) = cli._verify_failures(columns)
    assert (count, kind, t) == (1, "open", 0.2) and math.isnan(margin)


def test_verify_figure1_reports_the_closed_bound_violation(capsys):
    # figure1 checks the closed bound on open dynamics, which fails early
    # in the decay (example1's margin is negative until ln(4/3)/gamma).
    assert cli_main(["verify", "--builtin", "figure1"]) == 1
    payload, captured = last_stderr_json(capsys)
    assert len(captured.err.splitlines()) == 1
    assert payload["error"] == "bound-violation" and payload["scenario"] == "figure1"
    assert payload["detail"] == "28 of 499 points violate a requested bound"
    assert (payload["first"]["kind"], payload["first"]["t"]) == ("closed", 0.01)
    assert payload["first"]["margin"] < 0


def test_verify_needs_exactly_one_source(tmp_path, capsys):
    assert cli_main(["verify"]) == 2
    scen = write_small_scenario(tmp_path)
    assert cli_main(["verify", "--scenario", str(scen), "--builtin", "example1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep

def test_sweep_writes_one_file_per_value(tmp_path, capsys):
    scen = write_small_scenario(tmp_path, t_max=0.1)
    out_dir = tmp_path / "sweep"
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "gamma",
                   "--values", "0.5", "1.0", "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["small__gamma_0.5.csv", "small__gamma_1.0.csv"]
    stdout = capsys.readouterr().out
    assert stdout.index("gamma=0.5") < stdout.index("gamma=1.0")
    for p in out_dir.iterdir():
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 100


def test_sweep_dt_values_change_row_counts(tmp_path, capsys):
    scen = write_small_scenario(tmp_path, t_max=0.1)
    out_dir = tmp_path / "sweep"
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "dt",
                   "--values", "0.005", "0.0025", "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    coarse = (out_dir / "small__dt_0.005.csv").read_text(encoding="utf-8").splitlines()
    fine = (out_dir / "small__dt_0.0025.csv").read_text(encoding="utf-8").splitlines()
    assert len(coarse) == 20 and len(fine) == 40


def test_sweep_rejects_non_numeric_value(tmp_path, capsys):
    scen = write_small_scenario(tmp_path)
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "dt",
                   "--values", "fast", "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    payload, _ = last_stderr_json(capsys)
    assert payload["error"] == "override"


def test_sweep_bad_value_fails_in_band(tmp_path, capsys):
    scen = write_small_scenario(tmp_path)
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "t_max",
                   "--values", "0.2", "0.001", "--out-dir", str(tmp_path / "o")])
    assert rc == 2  # second value breaks t_max >= 10*dt
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "run-failed"
    assert payload["value"] == "0.001"
    assert "t_max=0.2" in captured.out  # the good value still completed


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fluctuation_bounds.cli",
         "builtin", "--name", "figure1", "--dt", "0.1", "--t-max", "1.0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(FIGURE_COLUMNS)


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # The parser is built once per process, so no call may leave anything
    # in it that changes what a later call prints or returns.  COLUMNS
    # fixes the width of argparse's help and usage text.
    monkeypatch.setenv("COLUMNS", "80")
    scen = str(write_small_scenario(tmp_path, t_max=0.02))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    sequence = [
        ["run", "--scenario", scen],
        ["run"],
        ["nosuch"],
        ["builtin", "--name", "nope"],
        ["--help"],
        ["verify", "--builtin", "figure1"],
        ["run", "--scenario", str(bad)],
        ["builtin", "--name", "figure1", "--omega", "1"],
        ["verify", "--builtin", "crossover"],
        ["run", "--scenario", scen],
    ]
    for argv in sequence:
        code = cli_main(argv)
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "fluctuation_bounds.cli", *argv],
                              capture_output=True, timeout=60)
        assert (code, out.encode(), err.encode()) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
def test_overflowing_input_prints_one_stderr_line_from_a_process(command, entry, tmp_path):
    # As a process, numpy's floating-point warnings would reach stderr.
    # A 1e308 entry in place of sigma_minus's 1 keeps the closed form;
    # in sigma_plus's place the model is integrated.
    data = builtin_scenario_dict("example1")
    data["jump_operators"][0]["matrix"]["re"] = [[0.0, 0.0], [0.0, 0.0]]
    data["jump_operators"][0]["matrix"]["re"][entry[0]][entry[1]] = 1e308
    data["t_max"] = 0.2
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = {"run": ["run", "--scenario", str(path)],
            "sweep": ["sweep", "--scenario", str(path), "--param", "dt", "--values", "0.01",
                      "--out-dir", str(tmp_path / "o")]}[command]
    proc = subprocess.run([sys.executable, "-m", "fluctuation_bounds.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "run-failed"


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    workers = []

    def __init__(self, max_workers):
        SerialPool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


def test_sweep_pool_is_capped_at_available_cpus(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    SerialPool.workers.clear()
    scen = write_small_scenario(tmp_path, t_max=0.02)
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "gamma",
                   "--values", "0.5", "1.0", "2.0", "--out-dir", str(tmp_path / "o")])
    assert rc == 0 and SerialPool.workers == [2]
    assert len(list((tmp_path / "o").iterdir())) == 3
    capsys.readouterr()


def test_available_cpus_prefers_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._available_cpus() == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._available_cpus() == 64
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._available_cpus() == 1


def test_sweep_rejects_repeated_values_before_forking(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started workers")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    scen = write_small_scenario(tmp_path)
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "dt",
                   "--values", "0.01", "0.02", "0.01", "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    payload, _ = last_stderr_json(capsys)
    assert payload["error"] == "override" and "'0.01'" in payload["detail"]
    assert not (tmp_path / "o").exists()


def test_sweep_out_dir_naming_a_file_exits_2(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started workers")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    scen = write_small_scenario(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "dt",
                   "--values", "0.01", "--out-dir", str(taken)])
    assert rc == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "write-failed"
    assert "Traceback" not in captured.err


def test_sweep_worker_write_failure_is_reported_in_band(tmp_path, capsys):
    scen = write_small_scenario(tmp_path, t_max=0.02)
    out_dir = tmp_path / "o"
    (out_dir / "small__gamma_0.5.csv").mkdir(parents=True)  # the worker cannot open it
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "gamma",
                   "--values", "0.5", "1.0", "--out-dir", str(out_dir)])
    assert rc == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "run-failed"
    assert payload["value"] == "0.5"
    assert "gamma=1.0" in captured.out  # the other value still completed
    assert (out_dir / "small__gamma_1.0.csv").is_file()


# ---------------------------------------------------------------------------
# one error map for every command

@pytest.fixture
def no_workers(monkeypatch):
    """Fails the test if sweep starts its process pool."""
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started workers")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)


def scenario_argv(command, path, tmp_path):
    return {
        "run": ["run", "--scenario", str(path)],
        "verify": ["verify", "--scenario", str(path)],
        "sweep": ["sweep", "--scenario", str(path), "--param", "dt",
                  "--values", "0.01", "--out-dir", str(tmp_path / "o")],
    }[command]


def write_bad_scenario(tmp_path, bad):
    if bad == "invalid-field":
        return write_small_scenario(tmp_path, dt=-1.0), "dt:"
    path = tmp_path / "bad.json"
    if bad == "non-utf8":
        path.write_bytes(b'{"name": "caf\xe9"}')
    elif bad == "not-an-object":
        path.write_text("[1, 2]", encoding="utf-8")
    return path, {"missing": "read:", "non-utf8": "read:", "not-an-object": "parse:"}[bad]


@pytest.mark.parametrize("bad", ["missing", "non-utf8", "not-an-object", "invalid-field"])
def test_scenario_errors_agree_across_commands(bad, tmp_path, capsys, no_workers):
    path, prefix = write_bad_scenario(tmp_path, bad)
    reported = {}
    for command in ("run", "verify", "sweep"):
        assert cli_main(scenario_argv(command, path, tmp_path)) == 2
        payload, captured = last_stderr_json(capsys)
        assert "Traceback" not in captured.err and captured.out == ""
        reported[command] = (payload["error"], payload["violations"])
    assert reported["run"] == reported["verify"] == reported["sweep"]
    assert reported["run"][0] == "invalid-scenario"
    assert reported["run"][1][0].startswith(prefix)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", ["int-digits", "deep-nesting"])
@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_decoder_errors_besides_bad_syntax_are_parse_violations(
        command, bad, tmp_path, capsys, no_workers):
    # An integer literal past Python's 4300-digit limit raises a plain
    # ValueError; nesting too deep raises RecursionError.  The top level is
    # an array, so a decoder that nests deeper still fails with "parse:".
    path = tmp_path / "bad.json"
    text = {"int-digits": '{"t_max": ' + "1" * 4301 + "}",
            "deep-nesting": "[" * 100_000 + "]" * 100_000}[bad]
    path.write_text(text, encoding="utf-8")
    assert cli_main(scenario_argv(command, path, tmp_path)) == 2
    payload, captured = last_stderr_json(capsys)
    assert "Traceback" not in captured.err and captured.out == ""
    assert payload["error"] == "invalid-scenario"
    assert len(payload["violations"]) == 1 and payload["violations"][0].startswith("parse:")
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_a_name_with_a_path_separator(tmp_path, capsys, no_workers):
    data = builtin_scenario_dict("example1")
    data.update(name="../escaped", t_max=0.2, dt=0.001)
    scen = tmp_path / "escaping.json"
    scen.write_text(json.dumps(data), encoding="utf-8")
    rc = cli_main(["sweep", "--scenario", str(scen), "--param", "dt",
                   "--values", "0.01", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "invalid-scenario"
    assert [v.split(":")[0] for v in payload["violations"]] == ["name"]
    assert captured.out == "" and not list(tmp_path.rglob("*.csv"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "builtin", "figure1", "sweep"])
def test_unwritable_output_is_write_failed(command, tmp_path, capsys, no_workers):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory", encoding="utf-8")
    out = str(taken / "out")
    scen = str(write_small_scenario(tmp_path, t_max=0.05))
    argv = {
        "run": ["run", "--scenario", scen, "--out", out],
        "builtin": ["builtin", "--name", "example2", "--t-max", "0.05", "--out", out],
        "figure1": ["builtin", "--name", "figure1", "--dt", "0.1", "--t-max", "1.0",
                    "--out", out],
        "sweep": ["sweep", "--scenario", scen, "--param", "gamma", "--values", "1.0",
                  "--out-dir", out],
    }[command]
    assert cli_main(argv) == 2
    payload, captured = last_stderr_json(capsys)
    assert payload["error"] == "write-failed"
    assert out in payload["detail"]
    assert "Traceback" not in captured.err and captured.out == ""


def memory_argv(command, tmp_path):
    path = write_small_scenario(tmp_path, t_max=0.2)
    if command == "builtin":
        return ["builtin", "--name", "example2", "--t-max", "0.05"]
    return scenario_argv(command, path, tmp_path)


@pytest.mark.parametrize("command, stage", [
    *((c, "grid pass") for c in ("run", "builtin", "verify", "sweep")),
    *((c, "csv") for c in ("run", "builtin", "sweep")),  # verify writes no CSV
])
def test_out_of_memory_is_run_failed_without_a_replay(command, stage, tmp_path, capsys,
                                                      monkeypatch):
    # numpy raises a MemoryError subclass when a stacked product cannot
    # be allocated; formatting the CSV can raise a bare one.  Either ends
    # the run with one run-failed line, and the grid pass is not replayed
    # point by point.
    calls = []

    def no_memory(*args, **kwargs):
        calls.append(args)
        raise MemoryError("Unable to allocate 1.00 GiB" if stage == "grid pass" else "")

    if stage == "grid pass":
        monkeypatch.setattr(scenarios, "variance_rate", no_memory)
    else:
        monkeypatch.setattr(cli, "rows_to_csv_text", no_memory)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    assert cli_main(memory_argv(command, tmp_path)) == 2
    payload, captured = last_stderr_json(capsys)
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert payload["error"] == "run-failed"
    assert payload["detail"] == ("Unable to allocate 1.00 GiB" if stage == "grid pass"
                                 else "out of memory")
    assert len(calls) == 1
    assert not list(tmp_path.rglob("*.csv"))


HUGE_SIGMA_Z = {"terms": [{"kind": "constant", "value": 1e200,
                           "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]}}]}
SIGMA_Z_PLUS_HUGE_T_SIGMA_X = {"terms": [
    {"kind": "constant", "value": 1.0, "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]}},
    {"kind": "polynomial", "coefficients": [0.0, 1e200], "matrix": SIGMA_X},
]}


@pytest.mark.parametrize("observable, bounds, moment", [
    (HUGE_SIGMA_Z, None, "variance is not finite, got nan"),
    (HUGE_SIGMA_Z, ["cauchy_schwarz"], "variance is not finite, got nan"),
    (SIGMA_Z_PLUS_HUGE_T_SIGMA_X, None, "variance is not finite, got inf"),
])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_finite_moments_fail_the_run(observable, bounds, moment, command, tmp_path,
                                         capsys):
    # A moment past the float range used to pass every per-point check:
    # run wrote a CSV of nan and verify printed a NaN margin, or nothing
    # at all when only Cauchy-Schwarz was requested.
    extra = {"observable": observable} if bounds is None else {
        "observable": observable, "bounds": bounds}
    path = write_small_scenario(tmp_path, t_max=0.05, **extra)
    assert cli_main(scenario_argv(command, path, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    payload = json.loads(captured.err, parse_constant=reject_constant)
    assert payload["error"] == "run-failed"
    assert payload["detail"] == f"scenario 'small' failed at t = 0.001: {moment}"


NON_OBJECT_TERMS = {
    "observable terms [5]": ("observable", {"terms": [5]},
                             "observable: terms[0] must be an object, got 5"),
    "observable terms 'ab'": ("observable", {"terms": "ab"},
                              "observable: terms must be a list, got 'ab'"),
    "observable terms {'a': 1}": ("observable", {"terms": {"a": 1}},
                                  "observable: terms must be a list, got {'a': 1}"),
    "hamiltonian terms [null]": ("hamiltonian", {"terms": [None]},
                                 "hamiltonian: terms[0] must be an object, got None"),
}


@pytest.mark.parametrize("case", list(NON_OBJECT_TERMS))
def test_terms_that_are_not_objects_are_invalid_scenario(case, tmp_path, capsys, no_workers):
    field, value, violation = NON_OBJECT_TERMS[case]
    path = write_small_scenario(tmp_path, **{field: value})
    for command in ("run", "verify", "sweep"):
        assert cli_main(scenario_argv(command, path, tmp_path)) == 2
        payload, captured = last_stderr_json(capsys)
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert payload["error"] == "invalid-scenario"
        assert violation in payload["violations"]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# the CLI contract on mutated scenario files

def readme_error_table() -> dict:
    """slug -> exit code, from README's table of CLI errors."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| slug | cause | exit |\n| --- | --- | --- |\n", 1)[1]
    rows = itertools.takewhile(lambda line: line.startswith("| `"), table.splitlines())
    return {m[1]: int(m[2]) for m in (re.match(r"\| `([a-z-]+)` \|.*\| (\d) \|$", r) for r in rows)}


def small_builtin(name: str) -> dict:
    """A builtin scenario on a grid of 20 steps."""
    data = builtin_scenario_dict(name)
    data["t_max"], data["dt"] = 0.2, 0.01
    return data


def json_paths(node, path=()):
    """The path of every value in a JSON tree, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def reject_constant(name):
    """json.loads hook: NaN and Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"{name} in an error line")


MATRIX_3X3 = {"re": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0, -1e3, math.inf, -math.inf, math.nan, 1e308, 10**400]),
    st.text(max_size=3),
    st.sampled_from(["open", "closed", "cauchy_schwarz", "tight", "finite_difference"]),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.sampled_from(["re", "im", "kind", "terms", "matrix", "x"]),
                    st.integers(0, 2), max_size=2),
    st.just([[1.0]]),
    st.just(MATRIX_3X3),
    st.just({"terms": [{"kind": "constant", "value": 1.0, "matrix": MATRIX_3X3}]}),
).map(copy.deepcopy)  # a later mutation may edit the value in place


@st.composite
def mutated_scenarios(draw):
    """A small builtin scenario with one to three fields mutated: a field, or
    any value inside it, is replaced, deleted or gets a sibling inserted."""
    data = small_builtin(draw(st.sampled_from(["example1", "example2", "crossover"])))
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(sorted(data) + ["hamiltonian", "unknown_field"]))
        if field not in data:
            data[field] = draw(JSON_JUNK)
            continue
        *parents, key = draw(st.sampled_from(list(json_paths(data[field], (field,)))))
        parent = functools.reduce(lambda node, k: node[k], parents, data)
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif action == "insert" and isinstance(parent, list):
            parent.insert(key, draw(JSON_JUNK))
        else:
            parent[key] = draw(JSON_JUNK)
    # No parse-time grid cap exists yet: a larger grid would only cost time.
    dt, t_max = data.get("dt"), data.get("t_max")
    if all(type(x) in (int, float) and 0 < x <= 1e308 for x in (dt, t_max)):
        assume(t_max <= 2000 * dt)
    return data


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_scenarios(), command=st.sampled_from(["run", "verify"]))
def test_any_scenario_file_ends_in_an_exit_code_and_at_most_one_json_line(
        data, command, tmp_path, capsys):
    slugs = readme_error_table()
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = cli_main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code in (0, 1, 2)
    if code == 0:
        assert captured.err == ""
        return
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0], parse_constant=reject_constant)
    assert slugs[payload["error"]] == code
