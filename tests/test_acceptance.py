"""End-to-end acceptance gate: one test and one printed verdict per criterion.

Each test prints a single "[acceptance] criterion N PASS/FAIL" line on the
real stderr, so the gate stays visible under output capture.  Tolerances
are stated inline; random-model criteria fix their seeds and scales.
"""

import functools
import math
import sys
import time

import numpy as np

import conftest
from conftest import (
    random_hermitian,
    random_model,
    random_observable,
    random_state,
    sanity_check_figure_sigma,
)
from reference_points import closed_system_anticommutator_rate, expectation
from fluctuation_bounds.bounds import (
    closed_bound,
    open_bound,
    var_rate_residual,
)
from fluctuation_bounds.channels import amplitude_damping, apply
from fluctuation_bounds.dynamics import (
    analytic_amplitude_damping,
    dyson_propagator,
    eigenflow_rate_terms,
    exact_propagator,
    integrate,
    lindblad_model,
    pseudo_hamiltonian_residuals,
    taylor_propagator,
)
from fluctuation_bounds.linalg import matrix_exponential_antihermitian, sigma_minus, sigma_z
from fluctuation_bounds.observables import observable, polynomial, static_observable
from fluctuation_bounds.scenarios import (
    builtin_scenario_dict,
    figure1_curves,
    parse_scenario,
    run_scenario,
)
from fluctuation_bounds.stats import variance_rate


def criterion(num, summary):
    """Records and prints the PASS/FAIL verdict for one acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as err:
                line = f"criterion {num:2d} FAIL: {summary} ({type(err).__name__})"
                conftest.ACCEPTANCE_LINES.append(line)
                print(line, file=sys.stderr)
                raise
            tail = f" ({detail})" if detail else ""
            line = f"criterion {num:2d} PASS: {summary}{tail}"
            conftest.ACCEPTANCE_LINES.append(line)
            print(line, file=sys.stderr)

        return wrapper

    return deco


@criterion(1, "damping scenario reproduces its closed forms with rhs = 2*lhs")
def test_criterion_01_damping_closed_forms():
    start = time.perf_counter()
    cols = run_scenario(parse_scenario(builtin_scenario_dict("example1"))).columns
    elapsed = time.perf_counter() - start
    worst_rel = worst_double = 0.0
    checked = 0
    for t, lhs, rhs in zip(*(cols[c].tolist() for c in ("t", "lhs_open", "rhs_open"))):
        if t < 0.05:
            continue
        u = math.exp(-t)
        ref = u * (1.0 - 2.0 * u) ** 2 / (1.0 - u)  # rate 1 spread-growth lhs
        worst_rel = max(worst_rel, abs(lhs - ref) / ref)
        worst_double = max(worst_double, abs(rhs - 2.0 * lhs))
        checked += 1
    assert checked > 4900
    assert worst_rel <= 1e-6, f"lhs off by {worst_rel:.3e} relative"
    assert worst_double <= 1e-8, f"rhs != 2*lhs by {worst_double:.3e}"
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"
    return f"{checked} rows, lhs rel err {worst_rel:.1e}, runtime {elapsed:.2f}s"


@criterion(2, "rotating observable collapses the bound to 0 <= 2")
def test_criterion_02_rotating_observable():
    start = time.perf_counter()
    table = run_scenario(parse_scenario(builtin_scenario_dict("example2")))
    elapsed = time.perf_counter() - start
    cols = table.columns
    worst_mean = max(abs(x) for x in cols["mean"].tolist())
    worst_lhs = max(abs(x) for x in cols["lhs_open"].tolist())
    worst_rhs = max(abs(x - 2.0) for x in cols["rhs_open"].tolist())
    assert worst_mean <= 1e-10, f"mean drifts to {worst_mean:.3e}"
    assert worst_lhs <= 1e-8 and worst_rhs <= 1e-8
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"
    return f"{len(table)} rows, |mean| <= {worst_mean:.1e}, runtime {elapsed:.2f}s"


@criterion(3, "closed-bound verdict flips at the damping threshold")
def test_criterion_03_crossover_threshold():
    details = []
    for gamma in (0.5, 1.0, 2.0):
        data = builtin_scenario_dict("crossover")
        data["jump_operators"][0]["rate"] = gamma
        table = run_scenario(parse_scenario(data))
        times = table.columns["t"].tolist()
        t_star = math.log(4.0 / 3.0) / gamma
        flags = table.closed.satisfied.tolist()
        flips = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
        assert len(flips) == 1, f"gamma={gamma}: {len(flips)} verdict flips"
        lo, hi = times[flips[0]], times[flips[0] + 1]
        assert not flags[0] and flags[-1]
        assert lo < t_star <= hi + 1e-12, f"gamma={gamma}: flip at ({lo}, {hi}], t*={t_star}"
        worst = 0.0
        for t, rhs in zip(times, table.columns["rhs_closed"].tolist()):
            g = 1.0 - math.exp(-gamma * t)
            ref = 2.0 * gamma * math.sqrt(g * (1.0 - g))
            worst = max(worst, abs(math.sqrt(rhs) - ref))
        assert worst <= 1e-8, f"gamma={gamma}: rate spread off by {worst:.3e}"
        details.append(f"gamma={gamma} flip in ({lo:.3f},{hi:.3f}]")
    return "; ".join(details)


@criterion(4, "decay curve family matches closed forms and the statistics pipeline")
def test_criterion_04_curve_family():
    gamma = 1.0
    rows = figure1_curves(gamma, 5.0, 0.01)
    assert len(rows) >= 500
    worst_curve = worst_pipeline = 0.0
    for t, mu, sig, v, _ in rows:
        u = math.exp(-gamma * t)
        worst_curve = max(
            worst_curve,
            abs(mu - (1.0 - 2.0 * u)),
            abs(sig - 2.0 * math.sqrt(u) * math.sqrt(1.0 - u)),
            abs(v - 2.0 * gamma * math.sqrt(u)),
        )
        worst_pipeline = max(worst_pipeline, abs(sig - sanity_check_figure_sigma(gamma, t)))
    assert worst_curve <= 1e-10
    assert worst_pipeline <= 1e-12
    return f"{len(rows)} points, curve err {worst_curve:.1e}, pipeline err {worst_pipeline:.1e}"


@criterion(5, "integrator tracks the analytic damping solution")
def test_criterion_05_integrator_fidelity():
    rho0 = np.array([[0.25, 0.25 - 0.1j], [0.25 + 0.1j, 0.75]])
    worst_state = worst_trace = 0.0
    min_eig = np.inf
    for gamma in (0.5, 1.0, 2.0):
        for omega in (0.0, 1.0):
            h = static_observable(0.5 * omega * sigma_z) if omega else None
            model = lindblad_model(h, [math.sqrt(gamma) * sigma_minus])
            traj = integrate(model, rho0, 5.0, 1e-3)
            exact = np.stack(
                [analytic_amplitude_damping(rho0, gamma, omega, float(t)) for t in traj.times]
            )
            worst_state = max(worst_state, float(np.max(np.abs(traj.states - exact))))
            traces = np.trace(traj.states, axis1=1, axis2=2)
            worst_trace = max(worst_trace, float(np.max(np.abs(traces - 1.0))))
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(traj.states))))
    assert worst_state <= 1e-8, f"state error {worst_state:.3e}"
    assert worst_trace <= 1e-8, f"trace drift {worst_trace:.3e}"
    assert min_eig >= -1e-8, f"negative weight {min_eig:.3e}"
    return f"state err {worst_state:.1e}, trace drift {worst_trace:.1e}, min eig {min_eig:.1e}"


@criterion(6, "open bound holds on 200 random models; rate residual is second order")
def test_criterion_06_open_bound_universality():
    rng = np.random.default_rng(2026)
    t_max, dt = 0.1, 1e-3
    worst_margin = np.inf
    worst_res = 0.0
    checked = skipped = 0
    ratios = []
    for idx in range(200):
        dim = 2 + (idx % 2)
        model = random_model(rng, dim, jump_scale=0.25, h_scale=0.3)
        rho0 = random_state(rng, dim)
        a = random_observable(rng, dim, time_dependent=(idx % 4) >= 2, scale=0.4)
        traj = integrate(model, rho0, t_max, dt)
        for k in range(1, len(traj) - 1):
            t = float(traj.times[k])
            sp = variance_rate(traj, a, t)
            rep = open_bound(traj, a, t, stat=sp)
            if rep.skipped:
                skipped += 1
                continue
            checked += 1
            worst_margin = min(worst_margin, rep.margin)
            worst_res = max(worst_res, var_rate_residual(traj, a, t, stat=sp))
        if idx < 40:
            # same model on a halved grid; probe time lies on both grids
            fine = integrate(model, rho0, t_max, dt / 2)
            r_coarse = var_rate_residual(traj, a, 0.05, stat=variance_rate(traj, a, 0.05))
            r_fine = var_rate_residual(fine, a, 0.05, stat=variance_rate(fine, a, 0.05))
            if r_coarse >= 1e-8:  # below that, round-off owns the ratio
                ratios.append(r_coarse / r_fine)
    assert checked > 15000
    assert worst_margin >= -1e-9, f"margin dips to {worst_margin:.3e}"
    assert worst_res <= 1e-5, f"residual reaches {worst_res:.3e}"
    assert len(ratios) >= 5, f"only {len(ratios)} models above the residual floor"
    off = [r for r in ratios if not 2.8 <= r <= 5.2]
    assert not off, f"halving ratios outside 4 +/- 30%: {off}"
    return (
        f"{checked} points ({skipped} skipped), margin >= {worst_margin:.1e}, "
        f"residual <= {worst_res:.1e}, {len(ratios)} halving ratios ~ {np.median(ratios):.3f}"
    )


@criterion(7, "propagator errors scale as dt^3; first-order term matches")
def test_criterion_07_propagator_orders():
    rng = np.random.default_rng(7)
    h_const = static_observable(random_hermitian(rng, 3))
    dts = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    errs_taylor, errs_dyson = [], []
    for dt in dts:
        exact = exact_propagator(h_const, 0.0, float(dt)).matrix
        errs_taylor.append(np.linalg.norm(taylor_propagator(h_const, 0.0, float(dt), 2).matrix - exact))
        errs_dyson.append(np.linalg.norm(dyson_propagator(h_const, 0.0, float(dt), 2).matrix - exact))
    slope_t = np.polyfit(np.log(dts), np.log(errs_taylor), 1)[0]
    slope_d = np.polyfit(np.log(dts), np.log(errs_dyson), 1)[0]
    assert abs(slope_t - 3.0) <= 0.2, f"taylor slope {slope_t:.3f}"
    assert abs(slope_d - 3.0) <= 0.2, f"dyson slope {slope_d:.3f}"

    agree = float(
        np.max(
            np.abs(
                dyson_propagator(h_const, 0.0, 1e-2, 2).matrix
                - taylor_propagator(h_const, 0.0, 1e-2, 2).matrix
            )
        )
    )
    assert agree <= 1e-12, f"schemes disagree by {agree:.3e} on constant input"

    m0, m1 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    h_lin = observable([(polynomial([0.3, 0.8]), m0), (polynomial([0.0, -0.4]), m1)])
    t0, dt = 0.2, 5e-3
    first = dyson_propagator(h_lin, t0, dt, 1).matrix - np.eye(2)
    ref = -1j * (h_lin.evaluate(t0) * dt + h_lin.partial_time(t0) * dt**2 / 2.0)
    lin_err = float(np.max(np.abs(first - ref)))
    assert lin_err <= 1e-10, f"first-order term off by {lin_err:.3e}"
    return f"slopes {slope_t:.2f}/{slope_d:.2f}, scheme gap {agree:.1e}, linear term {lin_err:.1e}"


@criterion(8, "eigenflow decomposition closes; extraction residual is second order")
def test_criterion_08_eigenflow_closure():
    rng = np.random.default_rng(8)
    details = []
    for dim in (2, 3):
        h = random_hermitian(rng, dim)
        model = lindblad_model(static_observable(h), [])
        rho0 = random_state(rng, dim)
        a = random_observable(rng, dim, time_dependent=True)
        dt = 1e-3
        traj = integrate(model, rho0, 0.05, dt)
        worst = 0.0
        for k in range(1, len(traj) - 1):
            pdot, dpart, flow = eigenflow_rate_terms(traj, a, k)
            up = expectation(traj.states[k + 1], a.evaluate(traj.times[k + 1]))
            dn = expectation(traj.states[k - 1], a.evaluate(traj.times[k - 1]))
            fd = (up - dn) / (2.0 * dt)
            worst = max(worst, abs(pdot + dpart + flow - fd))
        assert worst <= 10 * dt, f"dim {dim}: closure gap {worst:.3e}"

        consts = []
        for step in (1e-2, 5e-3, 2.5e-3):
            u = matrix_exponential_antihermitian(h, step)
            rho_b = u @ rho0 @ u.conj().T
            r = float(np.max(pseudo_hamiltonian_residuals(rho0, rho_b, step)))
            consts.append(r / step**2)
        spread = max(consts) / min(consts)
        assert spread <= 1.5, f"dim {dim}: residual constants {consts}"
        details.append(f"dim {dim} gap {worst:.1e}, C in [{min(consts):.2f}, {max(consts):.2f}]")
    return "; ".join(details)


@criterion(9, "closed dynamics: variance rate identity and rate-spread bound")
def test_criterion_09_closed_reduction():
    rng = np.random.default_rng(9)
    worst_identity = 0.0
    worst_margin = np.inf
    for idx in range(50):
        dim = 2 + (idx % 2)
        model = lindblad_model(static_observable(random_hermitian(rng, dim)), [])
        rho0 = random_state(rng, dim)
        a = random_observable(rng, dim, time_dependent=(idx % 4) >= 2)
        traj = integrate(model, rho0, 0.05, 1e-3)
        for k in range(1, len(traj) - 1):
            t = float(traj.times[k])
            sp = variance_rate(traj, a, t)
            anti = closed_system_anticommutator_rate(traj, model, a, t)
            worst_identity = max(worst_identity, abs(sp.var_rate - anti))
            rep = closed_bound(traj, model, a, t, stat=sp)
            if not rep.skipped:
                worst_margin = min(worst_margin, rep.margin)
    assert worst_identity <= 1e-8, f"identity gap {worst_identity:.3e}"
    assert worst_margin >= -1e-9, f"margin dips to {worst_margin:.3e}"
    return f"identity gap {worst_identity:.1e}, margin >= {worst_margin:.1e}"


@criterion(10, "jump-map and generator routes agree; composition law holds")
def test_criterion_10_channel_consistency():
    rng = np.random.default_rng(10)
    worst_route = 0.0
    for _ in range(100):
        rho0 = random_state(rng, 2, full_rank=False)
        gamma_rate = rng.uniform(0.1, 3.0)
        t = rng.uniform(0.0, 5.0)
        via_channel = apply(amplitude_damping(1.0 - math.exp(-gamma_rate * t)), rho0)
        via_generator = analytic_amplitude_damping(rho0, gamma_rate, 0.0, t)
        worst_route = max(worst_route, float(np.max(np.abs(via_channel - via_generator))))
    assert worst_route <= 1e-10, f"routes disagree by {worst_route:.3e}"

    worst_comp = 0.0
    for _ in range(100):
        g1, g2 = rng.uniform(0.0, 1.0, size=2)
        rho = random_state(rng, 2)
        two_step = apply(amplitude_damping(g2), apply(amplitude_damping(g1), rho))
        one_step = apply(amplitude_damping(g1 + g2 - g1 * g2), rho)
        worst_comp = max(worst_comp, float(np.max(np.abs(two_step - one_step))))
    assert worst_comp <= 1e-12, f"composition law off by {worst_comp:.3e}"
    return f"route gap {worst_route:.1e}, composition gap {worst_comp:.1e}"
