"""The batched grid pass against the point-by-point reference evaluator.

``scenarios.run_scenario`` evaluates all interior grid points in one
stacked pass per check.  Its table must match tests/reference_points.py
to round-off, with the same NaN positions and skip flags, and every
per-point check must fail at the same grid time with the same message.
"""

import dataclasses
import math

import numpy as np
import pytest
import reference_linalg
from conftest import random_hermitian, random_jump, random_observable, random_state
from reference_points import adjoint_heisenberg_rate as ref_adjoint_rate
from reference_points import reference_evaluate_scenario
from reference_points import var_rate_residual as ref_var_rate_residual
from reference_points import variance_rate as ref_variance_rate

from fluctuation_bounds import scenarios as sc
from fluctuation_bounds import stats
from fluctuation_bounds.bounds import (
    TAU_BOUND,
    adjoint_heisenberg_rate,
    cauchy_schwarz_margin,
    closed_bound,
    open_bound,
    var_rate_residual,
)
from fluctuation_bounds.dynamics import (
    Trajectory,
    analytic_amplitude_damping,
    lindblad_model,
    lindblad_rhs,
    trajectory_from_states,
)
from fluctuation_bounds.linalg import require_hermitian, sigma_x, sigma_z
from fluctuation_bounds.observables import (
    TimeDependentObservable,
    constant,
    cosine,
    exponential_decay,
    observable,
    polynomial,
    static_observable,
)
from fluctuation_bounds.scenarios import (
    BOUND_NAMES,
    RESULT_COLUMNS,
    ScenarioSpec,
    builtin_scenario_dict,
    run_scenario,
    parse_scenario,
)

ALL_CHECKS = BOUND_NAMES
DT = 0.125  # exact in binary, so chosen grid times are hit exactly
DAMPING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def assert_same_number(got, want, what):
    if want is None or got is None:
        assert got is want, what
        return
    if math.isnan(want):
        assert math.isnan(got), f"{what}: {got!r} where the reference has nan"
        return
    assert abs(got - want) <= 1e-12 * abs(want) + 1e-15, f"{what}: {got!r} vs {want!r}"


def assert_same_records(got, want):
    """A result table against the reference's PointRecords.

    A bound's lhs, rhs and margin columns are nan where the reference has
    no report or a skipped one; where it has a live one they hold its
    values, and the margin is satisfied where the report is.
    """
    assert len(got["t"]) == len(want)
    for k, w in enumerate(want):
        for col in RESULT_COLUMNS[:-1]:
            assert_same_number(got[col][k], getattr(w.row, col), f"t={w.row.t} {col}")
        assert got["skipped_flags"][k] == w.row.skipped_flags
        for kind, rw in (("open", w.open_report), ("closed", w.closed_report)):
            lhs, rhs, margin = (got[f"{f}_{kind}"][k] for f in ("lhs", "rhs", "margin"))
            if rw is None or not rw.live:
                assert math.isnan(lhs) and math.isnan(rhs) and math.isnan(margin)
                assert rw is None or f"{kind}:{rw.reason}" in got["skipped_flags"][k]
                continue
            assert (margin >= -TAU_BOUND) == rw.satisfied
            for f, value in (("lhs", lhs), ("rhs", rhs), ("margin", margin)):
                assert_same_number(value, getattr(rw, f), f"t={w.row.t} {kind}.{f}")
        cs = math.nan if w.cs_margin is None else w.cs_margin
        assert_same_number(got["cauchy_schwarz"][k], cs, f"t={w.row.t} cs_margin")


def spec_for(model_parts, rho0, obs, t_max, dt, bounds=ALL_CHECKS, mode="analytic", name="grid"):
    hamiltonian, jumps = model_parts
    return ScenarioSpec(
        name=name, dimension=rho0.shape[0], initial_state=rho0, hamiltonian=hamiltonian,
        jump_terms=tuple((j, None) for j in jumps), observable=obs, t_max=t_max, dt=dt,
        bounds=tuple(bounds), rho_dot_mode=mode,
    )


def short_builtin(name, points):
    data = builtin_scenario_dict(name)
    data["t_max"] = (points + 1) * data["dt"]
    return parse_scenario(data, default_name=name)


def with_trajectory(monkeypatch, traj):
    """Make the scenario run on a hand-made trajectory."""
    monkeypatch.setattr(sc, "build_trajectory", lambda spec: traj)


def assert_both_fail_at(spec, traj, t, match):
    with pytest.raises(RuntimeError) as ref:
        reference_evaluate_scenario(spec, traj)
    with pytest.raises(RuntimeError) as got:
        run_scenario(spec)
    assert str(got.value) == str(ref.value)
    assert f"failed at t = {t:.6g}:" in str(got.value)
    assert match in str(got.value)


# ---------------------------------------------------------------------------
# values

@pytest.mark.parametrize("name", ["example1", "example2", "crossover"])
def test_builtins_match_reference(name):
    spec = short_builtin(name, 400)
    assert_same_records(run_scenario(spec), reference_evaluate_scenario(spec))


@pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_random_driven_models_match_reference(dim, mode):
    rng = np.random.default_rng(1000 + 10 * dim + (mode == "analytic"))
    hamiltonian = observable([
        (constant(1.0), random_hermitian(rng, dim)),
        (cosine(rng.uniform(0.2, 0.8), rng.uniform(0.5, 3.0), rng.uniform(0, 6)),
         random_hermitian(rng, dim)),
    ])
    jumps = [random_jump(rng, dim, 0.5) for _ in range(int(rng.integers(1, 3)))]
    obs = random_observable(rng, dim, time_dependent=True)
    spec = spec_for((hamiltonian, jumps), random_state(rng, dim), obs, 0.3, 0.01, mode=mode)
    got = run_scenario(spec)
    assert len(got["t"]) == 29
    assert_same_records(got, reference_evaluate_scenario(spec))


@pytest.mark.parametrize("bounds", [[b] for b in ALL_CHECKS] + [["closed", "cauchy_schwarz"]])
def test_each_check_alone_matches_reference(bounds):
    rng = np.random.default_rng(7)
    obs = random_observable(rng, 3, time_dependent=True)
    spec = spec_for((static_observable(random_hermitian(rng, 3)), [random_jump(rng, 3)]),
                    random_state(rng, 3), obs, 0.2, 0.01, bounds=bounds)
    assert_same_records(run_scenario(spec), reference_evaluate_scenario(spec))


def test_zero_spread_points_match_reference():
    # c(t) = t - 0.5 vanishes on the grid point t = 0.5 only; the identity
    # observable has zero spread everywhere.
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    one_zero = observable([(polynomial([-0.5, 1.0]), sigma_x)])
    spec = spec_for((None, [DAMPING]), rho0, one_zero, 1.25, DT)
    got = run_scenario(spec)
    flags = got["skipped_flags"].tolist()
    assert [f != "" for f in flags] == (got["t"] == 0.5).tolist()
    assert flags[3].startswith("open:sigma") and ";closed:sigma" in flags[3]
    assert_same_records(got, reference_evaluate_scenario(spec))

    traj = sc.build_trajectory(spec)
    times = traj.times[1:-1]
    reports = open_bound(traj, one_zero, times, stat=stats.variance_rate(traj, one_zero, times))
    assert len(reports.live) == 9 and reports.skipped == 1 and not reports.live[3]

    flat = spec_for((None, [DAMPING]), rho0, static_observable(np.eye(2)), 1.25, DT)
    got = run_scenario(flat)
    assert np.isnan(got["lhs_open"]).all() and np.isnan(got["lhs_closed"]).all()
    assert_same_records(got, reference_evaluate_scenario(flat))


def test_clean_run_is_one_batched_pass(monkeypatch):
    calls = []
    real = sc.variance_rate

    def counting(traj, a, t, mode="auto"):
        calls.append(np.ndim(t))
        return real(traj, a, t, mode)

    monkeypatch.setattr(sc, "variance_rate", counting)
    table = run_scenario(short_builtin("example1", 50))
    assert len(table["t"]) == 50 and calls == [1]


def test_all_checks_evaluate_a_and_its_derivative_once_per_use(monkeypatch):
    # A(t): variance_rate, the closed bound's Heisenberg rate and the
    # residual's neighbours; partial_t A: variance_rate and the Heisenberg
    # rate.  The open bound and the Cauchy-Schwarz margin read the StatPoint.
    calls = {"evaluate": [], "partial_time": []}
    for name, seen in calls.items():
        def counting(self, t, real=getattr(TimeDependentObservable, name), seen=seen):
            seen.append(np.ndim(t))
            return real(self, t)
        monkeypatch.setattr(TimeDependentObservable, name, counting)
    data = builtin_scenario_dict("example1")
    data.update(t_max=51 * data["dt"], bounds=list(ALL_CHECKS))
    assert len(run_scenario(parse_scenario(data))["t"]) == 50
    assert calls == {"evaluate": [1, 1, 1], "partial_time": [1, 1]}


# ---------------------------------------------------------------------------
# failures: each per-point check, hit at a single interior point

def damped_states(n, rho0=None):
    rho0 = np.diag([0.25, 0.75]).astype(complex) if rho0 is None else rho0
    return list(analytic_amplitude_damping(rho0, 1.0, 0.0, np.arange(n) * DT))


def crafted(states, bounds=("open",), obs=None, mode="analytic", model=None):
    n = len(states)
    model = lindblad_model(None, [DAMPING]) if model is None else model
    traj = trajectory_from_states(np.arange(n) * DT, states, model)
    obs = static_observable(sigma_z) if obs is None else obs
    spec = spec_for((None, [DAMPING]), states[0], obs, (n - 1) * DT, DT, bounds, mode)
    return spec, traj


def test_variance_floor_failure_matches_reference(monkeypatch):
    # Passes the TAU_PSD state check; its sigma_z variance is about -2e-10.
    states = damped_states(12)
    states[5] = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    spec, traj = crafted(states)
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 5 * DT, "below the round-off floor")


def test_variance_floor_at_a_neighbour_matches_reference(monkeypatch):
    # The residual at t = 0.5 needs the variance at 0.625, which is invalid.
    states = damped_states(12)
    states[5] = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    spec, traj = crafted(states, bounds=("var_rate_residual",))
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 4 * DT, "below the round-off floor")
    # Both neighbours of t = 0.75 invalid, with different variances: a
    # scalar and a one-point call check k+1 first, as the reference does.
    states[7] = np.diag([1.0 + 2e-11, -2e-11]).astype(complex)
    spec, traj = crafted(states, bounds=("var_rate_residual",))
    a, t = spec.observable, 6 * DT
    with pytest.raises(ValueError, match="variance -8.000e-11 below") as ref:
        ref_var_rate_residual(traj, a, t, stat=ref_variance_rate(traj, a, t))
    for times in (t, np.array([t])):
        with pytest.raises(ValueError) as got:
            var_rate_residual(traj, a, times, stat=stats.variance_rate(traj, a, times))
        assert str(got.value) == str(ref.value)


def test_non_traceless_finite_difference_matches_reference(monkeypatch):
    states = damped_states(12)
    states[7] = states[7] * (1.0 + 5e-9)  # trace within the 1e-8 state check
    spec, traj = crafted(states, mode="finite_difference")
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 6 * DT, "traceless")


def test_imaginary_expectation_matches_reference(monkeypatch):
    # Hermitian to 1e-10 relative, yet tr(rho A) has an imaginary part
    # 2e-5 (p0 - p1), which vanishes on the maximally mixed states.
    a0 = 5e5 * sigma_x + 2e-5j * sigma_z
    states = [np.eye(2, dtype=complex) / 2] * 12
    states[6] = np.diag([0.6, 0.4]).astype(complex)
    spec, traj = crafted(states, obs=static_observable(a0))
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 6 * DT, "imaginary part")


def test_hermiticity_of_the_combination_matches_reference(monkeypatch):
    # B1 + c(t) B2 with c(0.5) = 1 cancels the large Hermitian parts and
    # leaves only the two small anti-Hermitian defects.  Equal populations
    # keep the defects out of the imaginary part of <A>.
    h = 1e6 * sigma_x
    e = 1e-7j * sigma_z
    obs = observable([(constant(1.0), h + e), (polynomial([0.0, 2.0]), -h + e)])
    spec, traj = crafted([np.eye(2, dtype=complex) / 2] * 12, obs=obs)
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 4 * DT, "not Hermitian")


def test_hermiticity_of_the_derivative_matches_reference(monkeypatch):
    # A = t B1 + t^2 B2 stays Hermitian enough up to t = 1, but its
    # derivative B1 + 2t B2 is only the small defects at t = 0.5.
    h = 1e6 * sigma_x
    e = 1e-7j * sigma_z
    obs = observable([(polynomial([0.0, 1.0]), h + e), (polynomial([0.0, 0.0, 1.0]), -h + e)])
    spec, traj = crafted([np.eye(2, dtype=complex) / 2] * 12, obs=obs)
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 4 * DT, "second observable is not Hermitian")


def test_earlier_failure_wins_over_later_overflow(monkeypatch):
    # The tiny exponential term overflows math.exp from t = 0.75 on; the
    # variance floor already fails at t = 0.375.
    states = damped_states(12)
    states[3] = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    obs = observable([(constant(1.0), sigma_z), (exponential_decay(1e-300, -1000.0), sigma_x)])
    spec, traj = crafted(states, obs=obs)
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 3 * DT, "below the round-off floor")
    states[3] = states[2]
    spec, traj = crafted(states, obs=obs)
    with_trajectory(monkeypatch, traj)
    assert_both_fail_at(spec, traj, 6 * DT, "math range error")


@pytest.mark.parametrize("bounds", [[b] for b in ALL_CHECKS])
def test_float_overflow_of_a_square_matches_reference(bounds):
    # A = e^{1000 t} sigma_x: the squares of var_rate and Cov pass the float
    # range at t = 0.18.  The residual squares neither; it fails where the
    # moment <(partial_t A)^2> = 10^6 e^{2000 t} is no longer finite, at
    # 0.35, long before math.exp itself overflows at 0.71.
    data = builtin_scenario_dict("example1")
    data.update(t_max=1.0, dt=0.01, bounds=bounds, observable={"terms": [
        {"kind": "exponential-decay", "amplitude": 1.0, "rate": -1000.0,
         "matrix": {"re": [[0.0, 1.0], [1.0, 0.0]]}}]})
    spec = parse_scenario(data)
    traj = sc.build_trajectory(spec)
    t, match = (0.35, "<(partial_t A)^2> is not finite") if bounds == ["var_rate_residual"] \
        else (0.18, "range")
    with np.errstate(all="ignore"):
        assert_both_fail_at(spec, traj, t, match)


@pytest.mark.parametrize("bounds", [["open"], ["cauchy_schwarz"], list(ALL_CHECKS)])
@pytest.mark.parametrize("terms, match", [
    ([{"kind": "constant", "value": 1e200, "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]}}],
     "variance is not finite, got nan"),
    ([{"kind": "constant", "value": 1.0, "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]}},
      {"kind": "polynomial", "coefficients": [0.0, 1e200], "matrix": {"re": [[0.0, 1.0], [1.0, 0.0]]}}],
     "variance is not finite, got inf"),
])
def test_non_finite_moment_matches_reference(terms, match, bounds):
    # <A^2> passes the float range at the first interior point: the
    # variance is inf - inf or inf, which no comparison with the floor
    # catches, so it fails as a moment that is not finite.
    data = builtin_scenario_dict("example1")
    data.update(t_max=0.2, dt=0.01, bounds=bounds, observable={"terms": terms})
    spec = parse_scenario(data)
    traj = sc.build_trajectory(spec)
    with np.errstate(all="ignore"):
        assert_both_fail_at(spec, traj, 0.01, match)


# ---------------------------------------------------------------------------
# stacked forms of the scalar calls

@pytest.mark.parametrize("kind", ["open", "closed"])
def test_one_time_report_is_element_k_of_the_grid_report(kind):
    # c(t) = t - 0.5 vanishes at t = 0.5, so the grid report skips one point.
    one_zero = observable([(polynomial([-0.5, 1.0]), sigma_x)])
    spec = spec_for((None, [DAMPING]), np.diag([0.3, 0.7]).astype(complex), one_zero, 1.25, DT)
    traj = sc.build_trajectory(spec)
    check = {"open": lambda t: open_bound(traj, one_zero, t, stats.variance_rate(traj, one_zero, t)),
             "closed": lambda t: closed_bound(
                 traj, traj.model, one_zero, t, stats.variance_rate(traj, one_zero, t))}[kind]
    times = traj.times[1:-1]
    grid = check(times)
    assert len(grid.live) == len(times) and grid.skipped == 1
    scalar_types = {"lhs": float, "rhs": float, "margin": float,
                    "satisfied": bool, "live": bool, "reason": str}
    for k, t in enumerate(times.tolist()):
        one = check(t)
        assert one.skipped == int(not grid.live[k])
        for name, scalar_type in scalar_types.items():
            got, want = getattr(one, name), getattr(grid, name)[k]
            assert type(got) is scalar_type, f"t={t} {name}: {type(got)}"
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f"t={t} {name}"


def test_stacked_evaluate_matches_scalar_bitwise():
    rng = np.random.default_rng(3)
    obs = random_observable(rng, 4, time_dependent=True)
    times = np.linspace(0.0, 2.0, 9)
    for stack, scalar in ((obs.evaluate(times), obs.evaluate),
                          (obs.partial_time(times), obs.partial_time)):
        assert stack.shape == (9, 4, 4)
        for k, t in enumerate(times):
            assert np.array_equal(stack[k], scalar(float(t)))
    assert obs.evaluate(times[:0]).shape == (0, 4, 4)
    with pytest.raises(ValueError, match="time must be finite, got nan"):
        obs.evaluate(np.array([0.0, np.nan]))


def test_stacked_state_functions_match_scalar():
    rng = np.random.default_rng(5)
    hamiltonian = observable([
        (constant(1.0), random_hermitian(rng, 3)), (cosine(0.5, 2.0), random_hermitian(rng, 3)),
    ])
    model = lindblad_model(hamiltonian, [random_jump(rng, 3)])
    rhos = np.stack([random_state(rng, 3) for _ in range(6)])
    times = np.linspace(0.1, 0.6, 6)
    rhs = lindblad_rhs(model, rhos, times)
    obs = random_observable(rng, 3, time_dependent=True)
    rates = adjoint_heisenberg_rate(model, obs, times)
    for k, t in enumerate(times):
        assert np.array_equal(rhs[k], lindblad_rhs(model, rhos[k], float(t)))
        assert np.array_equal(rates[k], ref_adjoint_rate(model, obs, float(t)))
    with pytest.raises(ValueError, match="times"):
        lindblad_rhs(model, rhos, 0.1)
    rho2 = random_state(rng, 2)
    damped = analytic_amplitude_damping(rho2, 0.7, 1.3, times)
    for k, t in enumerate(times):
        assert np.array_equal(damped[k], analytic_amplitude_damping(rho2, 0.7, 1.3, float(t)))


def test_stacked_variance_rate_matches_reference_bitwise():
    spec = short_builtin("crossover", 60)
    traj = sc.build_trajectory(spec)
    times = traj.times[1:-1]
    grid = stats.variance_rate(traj, spec.observable, times)
    for k, t in enumerate(times.tolist()):
        want = ref_variance_rate(traj, spec.observable, t)
        got = stats.variance_rate(traj, spec.observable, t)
        assert got == want
        assert dataclasses.replace(want, t=times[k]) == stats.StatPoint(
            times[k], *(float(getattr(grid, f.name)[k]) for f in dataclasses.fields(grid)[1:-1]),
            int(grid.k[k]))


def residual_case(case):
    if case != "driven-d4":
        return sc.parse_scenario(sc.builtin_scenario_dict(case), default_name=case)
    rng = np.random.default_rng(44)
    hamiltonian = observable([
        (constant(1.0), random_hermitian(rng, 4)),
        (cosine(rng.uniform(0.2, 0.8), rng.uniform(0.5, 3.0), rng.uniform(0, 6)),
         random_hermitian(rng, 4)),
    ])
    jumps = [random_jump(rng, 4, 0.5) for _ in range(2)]
    obs = random_observable(rng, 4, time_dependent=True)
    return spec_for((hamiltonian, jumps), random_state(rng, 4), obs, 0.3, 0.01)


@pytest.mark.parametrize("case", ["example1", "example2", "driven-d4"])
def test_residual_reads_neighbour_variances_off_the_stat_bitwise(case):
    # On a grid, the residual takes every interior variance from the
    # StatPoint and computes only the two grid ends; the reference
    # computes both neighbours of each point itself.  A grid, a one-point
    # and a scalar call go through the same code, in either rho_dot mode.
    spec = residual_case(case)
    traj = sc.build_trajectory(spec)
    a, times = spec.observable, traj.times[1:-1]
    for mode in ("analytic", "finite_difference"):
        sp = stats.variance_rate(traj, a, times, mode)
        grid = var_rate_residual(traj, a, times, stat=sp)
        for k, t in enumerate(times.tolist()):
            point = stats.StatPoint(
                t, *(float(getattr(sp, f.name)[k]) for f in dataclasses.fields(sp)[1:-1]), int(sp.k[k]))
            assert grid[k] == ref_var_rate_residual(traj, a, t, stat=point), f"{mode} t={t}"
        # The replay path's one-point stat and a scalar t hold no neighbour.
        for k in (0, 1, len(times) // 2, len(times) - 1):
            one = times[k:k + 1]
            got = var_rate_residual(traj, a, one, stat=stats.variance_rate(traj, a, one, mode))
            assert got.tobytes() == grid[k:k + 1].tobytes(), f"{mode} k={k}"
            t = float(times[k])
            got = var_rate_residual(traj, a, t, stat=stats.variance_rate(traj, a, t, mode))
            assert type(got) is float and got == grid[k], f"{mode} k={k}"


@pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
def test_empty_times_give_empty_results(mode):
    # No times, no rows: the stat and all four checks return empty arrays.
    spec = residual_case("driven-d4")
    traj = sc.build_trajectory(spec)
    a, none = spec.observable, np.array([])
    sp = stats.variance_rate(traj, a, none, mode)
    assert all(np.shape(getattr(sp, f.name)) == (0,) for f in dataclasses.fields(sp))
    for report in (open_bound(traj, a, none, sp), closed_bound(traj, traj.model, a, none, sp)):
        assert report.live.shape == report.margin.shape == (0,) and report.reason == ()
    assert var_rate_residual(traj, a, none, sp).shape == (0,)
    assert cauchy_schwarz_margin(traj, a, none, sp).shape == (0,)


def counting_index_maps(monkeypatch):
    """The list to which every Trajectory.index_of call appends the
    number of dimensions of its times."""
    calls = []
    real = Trajectory.index_of

    def counting(self, t):
        calls.append(np.ndim(t))
        return real(self, t)

    monkeypatch.setattr(Trajectory, "index_of", counting)
    return calls


@pytest.mark.parametrize("name", ["example1", "example2", "crossover"])
def test_grid_pass_maps_times_to_indices_once(monkeypatch, name):
    # variance_rate maps the grid times once; every check reads StatPoint.k.
    data = builtin_scenario_dict(name)
    data["bounds"] = list(ALL_CHECKS)
    spec = parse_scenario(data)
    calls = counting_index_maps(monkeypatch)
    table = run_scenario(spec)
    assert len(table["t"]) == int(round(spec.t_max / spec.dt)) - 1
    assert calls == [1]


def test_scalar_probe_maps_its_time_once(monkeypatch):
    # One probe time through the stat and the three checks that take it.
    spec = residual_case("driven-d4")
    traj = sc.build_trajectory(spec)
    a, t = spec.observable, float(traj.times[17])
    calls = counting_index_maps(monkeypatch)
    sp = stats.variance_rate(traj, a, t)
    open_bound(traj, a, t, stat=sp)
    closed_bound(traj, traj.model, a, t, stat=sp)
    var_rate_residual(traj, a, t, stat=sp)
    assert calls == [0]
    assert sp.k == 17 and type(sp.k) is int


def test_require_hermitian_stack_reports_the_first_bad_matrix():
    good = [sigma_x, sigma_z]
    bad = {
        "not Hermitian": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        "finite": np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex),
        "finite ": np.array([[0.0, np.inf], [1.0, 0.0]], dtype=complex),
    }
    for name, m in bad.items():
        with pytest.raises(ValueError) as single:
            reference_linalg.require_hermitian(m, "thing")
        with pytest.raises(ValueError, match=name.strip()) as stacked:
            require_hermitian(np.stack(good + [m] + good), "thing")
        assert str(stacked.value) == str(single.value)
    assert require_hermitian(sigma_x).shape == (2, 2)
    with pytest.raises(ValueError, match="shape"):
        require_hermitian(np.zeros((2, 2, 3)))
