"""Per-layer metrics derived from a traced run.

``GROUPS`` maps each layer to the traced functions whose self time it owns;
``CALLS`` names the entry points whose calls count as the layer's calls
(nested members such as ``extract_pseudo_hamiltonian`` are left out so one
diagnostic counts once).
"""

from __future__ import annotations

GROUPS = {
    "cli": ("cli.cli_main", "cli.main", "cli.sweep_job"),
    "scenarios.parse": ("scenarios.load_scenario", "scenarios.parse_scenario",
                        "scenarios.builtin_scenario_dict", "scenarios.load_builtin",
                        "scenarios.scenario_to_dict"),
    "scenarios.build_trajectory": ("scenarios.build_trajectory", "scenarios.build_model"),
    "scenarios.evaluate": ("scenarios.evaluate_scenario", "scenarios.run_scenario"),
    "scenarios.csv": ("scenarios.rows_to_csv_text", "scenarios.write_csv"),
    "dynamics.trajectory_from_states": ("dynamics.trajectory_from_states",),
    "dynamics.integrate": ("dynamics.integrate",),
    "dynamics.rhs": ("dynamics.lindblad_rhs",),
    "dynamics.eigenflow": ("dynamics.eigenflow_rate_terms", "dynamics.pseudo_hamiltonian_residuals",
                           "dynamics.extract_pseudo_hamiltonian"),
    "dynamics.propagator": ("dynamics.exact_propagator", "dynamics.taylor_propagator",
                            "dynamics.dyson_propagator"),
    "observables.evaluate": ("observables.TimeDependentObservable.evaluate",),
    "observables.partial_time": ("observables.TimeDependentObservable.partial_time",),
    "stats.variance_rate": ("stats.variance_rate",),
    "stats.expectation": ("stats.expectation",),
    "bounds.open": ("bounds.open_bound",),
    "bounds.closed": ("bounds.closed_bound", "bounds.adjoint_heisenberg_rate"),
    "bounds.residual": ("bounds.var_rate_residual",),
    "bounds.cauchy_schwarz": ("bounds.cauchy_schwarz_margin",),
    "linalg.eigendecomposition": ("linalg.hermitian_eigendecomposition",),
    "linalg.density_check": ("linalg.as_density_matrix",),
    "linalg.require_hermitian": ("linalg.require_hermitian",),
    "channels.apply": ("channels.apply",),
}

CALLS = {
    "dynamics.rhs": ("dynamics.lindblad_rhs",),
    "dynamics.eigenflow": ("dynamics.eigenflow_rate_terms", "dynamics.pseudo_hamiltonian_residuals"),
    "dynamics.propagator": GROUPS["dynamics.propagator"],
    "observables.evaluate": GROUPS["observables.evaluate"],
    "observables.partial_time": GROUPS["observables.partial_time"],
    "stats.variance_rate": ("stats.variance_rate",),
    "stats.expectation": ("stats.expectation",),
    "linalg.eigendecomposition": GROUPS["linalg.eigendecomposition"],
    "linalg.density_check": GROUPS["linalg.density_check"],
    "linalg.require_hermitian": GROUPS["linalg.require_hermitian"],
    "channels.apply": ("channels.apply",),
}

# name -> unit, in report order
PER_LAYER = {
    "cli.self_s": "s",
    "cli.sweep.workers": "count",
    "cli.sweep.parallel_eff": "frac",
    "scenarios.parse.self_s": "s",
    "scenarios.build_trajectory.self_s": "s",
    "dynamics.trajectory_from_states.self_s": "s",
    "scenarios.evaluate.self_s": "s",
    "scenarios.csv.self_s": "s",
    "scenarios.csv.bytes": "B",
    "dynamics.integrate.self_s": "s",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.steps_per_s": "1/s",
    "dynamics.rhs.calls": "count",
    "dynamics.rhs.self_s": "s",
    "dynamics.eigenflow.calls": "count",
    "dynamics.eigenflow.self_s": "s",
    "dynamics.propagator.calls": "count",
    "dynamics.propagator.self_s": "s",
    "observables.evaluate.calls": "count",
    "observables.evaluate.self_s": "s",
    "observables.evaluate.calls_per_point": "count/point",
    "observables.partial_time.calls": "count",
    "observables.partial_time.self_s": "s",
    "stats.variance_rate.calls": "count",
    "stats.variance_rate.self_s": "s",
    "stats.expectation.calls": "count",
    "bounds.open.self_s": "s",
    "bounds.closed.self_s": "s",
    "bounds.residual.self_s": "s",
    "bounds.cauchy_schwarz.self_s": "s",
    "bounds.skipped_frac": "frac",
    "linalg.eigendecomposition.calls": "count",
    "linalg.eigendecomposition.self_s": "s",
    "linalg.density_check.calls": "count",
    "linalg.density_check.self_s": "s",
    "linalg.require_hermitian.calls_per_point": "count/point",
    "channels.apply.calls": "count",
    "channels.apply.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.count_mismatches": "count",
}


def layer_metrics(summary: dict, counters, run: dict) -> dict:
    """All PER_LAYER values.  ``run`` carries what the trace alone cannot
    give: points, walls of both passes, worker count, serial sweep time and
    the number of count mismatches.  Layers a workload never reaches are 0."""

    def calls(group):
        return sum(summary.get(n, {}).get("calls", 0) for n in CALLS[group])

    def self_s(group):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in GROUPS[group])

    points = max(run["points"], 1)
    values = {}
    for name in PER_LAYER:
        group, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = self_s(group)
        elif stat == "calls" and group in CALLS:
            values[name] = calls(group)
        elif stat == "calls_per_point":
            values[name] = calls(group) / points
    integrate_s = summary.get("dynamics.integrate", {}).get("total_s", 0.0)
    steps = counters["dynamics.integrate.steps"]
    reports = counters["bounds.reports"]
    values.update({
        "cli.sweep.workers": run["workers"],
        "cli.sweep.parallel_eff": (run["serial_s"] / (run["workers"] * run["sweep_s"])
                                   if run["workers"] and run["sweep_s"] else 0.0),
        "scenarios.csv.bytes": counters["scenarios.csv.bytes"],
        "dynamics.integrate.steps": steps,
        "dynamics.integrate.steps_per_s": steps / integrate_s if integrate_s else 0.0,
        "bounds.skipped_frac": counters["bounds.skipped"] / reports if reports else 0.0,
        "trace.overhead_frac": (run["traced_s"] - run["untraced_s"]) / run["untraced_s"],
        "trace.count_mismatches": run["mismatches"],
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
