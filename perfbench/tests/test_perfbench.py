"""Tests of the benchmark itself: seeding, oracles, tracer, comparison tool.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import compare, layers, run, tracer as tracing, workloads  # noqa: E402
from perfbench.workloads import WORKLOADS, Case  # noqa: E402

PROG, MODS = run.load_program()


def canonical(value):
    """Bytes that differ whenever two generated inputs differ."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    if isinstance(value, dict):
        return b"{" + b",".join(k.encode() + b":" + canonical(v) for k, v in sorted(value.items())) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(canonical(v) for v in value) + b"]"
    return repr(value).encode()


def built(name, seed, index, tmp_path):
    wl = WORKLOADS[name]
    case = Case(index, wl.generate(seed, index))
    wl.construct(PROG, case, str(tmp_path))
    return wl, case


# ---------------------------------------------------------------------------
# seeding

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    wl = WORKLOADS[name]
    for index in range(6):
        first, again = wl.generate(11, index), wl.generate(11, index)
        assert canonical(first) == canonical(again)
        assert canonical(first) != canonical(wl.generate(12, index))


@pytest.mark.parametrize("name", ["builtin_grid", "cli_sweep"])
def test_same_seed_gives_identical_scenario_files(name, tmp_path):
    wl = WORKLOADS[name]
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        case = Case(4, wl.generate(3, 4))
        wl.construct(PROG, case, str(tmp_path / sub))
        texts.append(Path(case.data[0]).read_bytes())
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# oracles pass on the program and fail on perturbed outputs

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_passes_on_program_output(name, tmp_path):
    for index in range(3):
        wl, case = built(name, 5, index, tmp_path)
        _, fails = run.attempt(wl, PROG, case)
        assert fails == []


def builtin_csv(family_index, tmp_path):
    wl, case = built("builtin_grid", 2, family_index, tmp_path)
    assert wl.run(PROG, case) == 0
    return case.inputs, Path(case.data[1]).read_text()


def edit_cell(text, row, column, fn):
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = f"{fn(float(cells[col])):.11e}"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_builtin_oracle_catches_perturbed_rhs(tmp_path):
    inputs, text = builtin_csv(0, tmp_path)  # example1 family
    assert workloads.check_builtin_csv(inputs, 0, text) == []
    bad = edit_cell(text, 40, "rhs_open", lambda v: v * (1 + 1e-6))
    assert any("2*lhs" in f for f in workloads.check_builtin_csv(inputs, 0, bad))


def test_builtin_oracle_catches_dropped_row_and_exit_code(tmp_path):
    inputs, text = builtin_csv(1, tmp_path)  # example2 family
    lines = text.splitlines()
    dropped = "\n".join(lines[:10] + lines[11:]) + "\n"
    assert workloads.check_builtin_csv(inputs, 0, dropped)
    assert workloads.check_builtin_csv(inputs, 2, text) == ["exit code 2"]
    bad = edit_cell(text, 5, "lhs_open", lambda v: 1e-6)
    assert workloads.check_builtin_csv(inputs, 0, bad)


def test_builtin_oracle_catches_misplaced_crossover(tmp_path):
    inputs, text = builtin_csv(2, tmp_path)  # crossover family
    assert workloads.check_builtin_csv(inputs, 0, text) == []
    # force a second flip by marking an early violated point satisfied
    bad = edit_cell(text, 3, "margin_closed", lambda v: abs(v))
    assert any("flips" in f for f in workloads.check_builtin_csv(inputs, 0, bad))


def test_rk4_oracle_catches_perturbations(tmp_path):
    wl, case = built("rk4_probe", 4, 0, tmp_path)
    out = wl.run(PROG, case)
    ref = workloads.reference_final_state(case.inputs)
    assert workloads.check_rk4(case.inputs, out, ref) == []

    drifted = dict(out, final=out["final"] + 1e-7)
    assert any("final state" in f for f in workloads.check_rk4(case.inputs, drifted, ref))

    t, open_rep, closed_rep, residual = out["probes"][2]
    violated = open_rep.__class__(**{**open_rep.__dict__, "satisfied": False, "margin": -1e-3})
    probes = list(out["probes"])
    probes[2] = (t, violated, closed_rep, residual)
    assert any("open bound" in f for f in workloads.check_rk4(case.inputs, dict(out, probes=probes), ref))

    probes[2] = (t, open_rep, closed_rep, case.inputs["dt"])  # O(dt), not O(dt^2)
    assert any("residual" in f for f in workloads.check_rk4(case.inputs, dict(out, probes=probes), ref))


def test_eigenflow_oracle_catches_perturbations(tmp_path):
    wl, case = built("eigenflow_probe", 4, 1, tmp_path)
    out = wl.run(PROG, case)
    assert workloads.check_eigenflow(case.inputs, out) == []

    bad = copy.deepcopy(out)
    k, terms = bad["eigenflow"][3]
    bad["eigenflow"][3] = (k, (terms[0] + 1e-2, terms[1], terms[2]))
    assert any("closure" in f for f in workloads.check_eigenflow(case.inputs, bad))

    bad = copy.deepcopy(out)
    bad["taylor_static"] = bad["taylor_static"] + 1e-5
    assert any("taylor_static" in f for f in workloads.check_eigenflow(case.inputs, bad))

    bad = copy.deepcopy(out)
    bad["via_channel"][0] = bad["via_channel"][0] + 1e-9
    assert any("channel" in f for f in workloads.check_eigenflow(case.inputs, bad))


def test_sweep_oracle_catches_dropped_row_and_missing_file(tmp_path):
    wl, case = built("cli_sweep", 4, 0, tmp_path)
    code = wl.run(PROG, case)
    texts = {v: Path(p).read_text() for v, p in case.data[2].items()}
    refs = {v: workloads.sweep_reference(PROG, case.inputs["data"], v) for v in case.inputs["values"]}
    assert workloads.check_sweep_outputs(case.inputs, code, texts, refs) == []

    first = case.inputs["values"][0]
    lines = texts[first].splitlines()
    dropped = dict(texts, **{first: "\n".join(lines[:-1]) + "\n"})
    fails = workloads.check_sweep_outputs(case.inputs, code, dropped, refs)
    assert any("rows" in f for f in fails) and any("differs" in f for f in fails)

    missing = {first: texts[first]}
    assert any("no CSV" in f for f in workloads.check_sweep_outputs(case.inputs, code, missing, refs))


def test_failed_cases_reach_the_report(tmp_path):
    """A perturbed output and a raising case both count as failed."""
    wl, case = built("builtin_grid", 6, 0, tmp_path)

    class Perturbed(type(wl)):
        def run(self, prog, case):
            code = super().run(prog, case)
            path = case.data[1]
            Path(path).write_text(edit_cell(Path(path).read_text(), 7, "rhs_open", lambda v: v * (1 + 1e-6)))
            return code

    class Raising(type(wl)):
        def run(self, prog, case):
            raise RuntimeError("boom")

    report = run.Report()
    for bench in (wl, Perturbed(), Raising()):
        wl.construct(PROG, case, str(tmp_path))
        report.record(case, run.attempt(bench, PROG, case)[1])
    assert (report.attempted, report.failed) == (3, 2)


# ---------------------------------------------------------------------------
# tracer

def test_tracer_patches_every_binding_site_and_restores_them():
    originals = {(name, attr): obj for name, mod in MODS.items() for attr, obj in vars(mod).items()}
    method = PROG.observables.TimeDependentObservable.evaluate
    tr = tracing.Tracer(MODS, "unused")
    targets = tr._targets()
    tr.install()
    try:
        # names bound by `from .x import f` in other modules are patched too
        assert PROG.stats.lindblad_rhs is PROG.dynamics.lindblad_rhs
        assert PROG.stats.lindblad_rhs.__wrapped__ is originals[("dynamics", "lindblad_rhs")]
        assert PROG.cli.run_scenario.__wrapped__ is originals[("scenarios", "run_scenario")]
        assert PROG.bounds.variance_rate.__wrapped__ is originals[("stats", "variance_rate")]
        assert PROG.observables.TimeDependentObservable.evaluate.__wrapped__ is method
        for name, mod in MODS.items():
            for attr, obj in vars(mod).items():
                original = originals[(name, attr)]
                if inspect.isfunction(original) and original in targets:
                    assert getattr(obj, "__wrapped__", None) is originals[(name, attr)], (name, attr)
    finally:
        tr.uninstall()
    assert all(getattr(MODS[n], a) is obj for (n, a), obj in originals.items())
    assert PROG.observables.TimeDependentObservable.evaluate is method


COUNT_UNITS = ("count", "B", "count/point")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_match_analytic_values_and_repeat(name):
    wl = WORKLOADS[name]
    seconds = 2.0 / wl.trace_rate  # two traced cases
    results = []
    for _ in range(2):
        workdir = run.WORK_DIR / f"test-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            results.append(run.run_traced(wl, 9, seconds, str(workdir)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    first, second = results
    assert first["correct"] and first["failed"] == 0
    assert first["metrics"]["trace.count_mismatches"]["value"] == 0
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] in COUNT_UNITS}
    again = {k: m["value"] for k, m in second["metrics"].items() if m["unit"] in COUNT_UNITS}
    assert counts == again
    assert set(first["metrics"]) == set(layers.PER_LAYER)
    if name == "cli_sweep":
        assert 1 <= counts["cli.sweep.workers"] <= workloads.SWEEP_VALUES
        assert counts["dynamics.rhs.calls"] > 0  # spans from the forked workers arrived


# ---------------------------------------------------------------------------
# comparison tool

def write_runs(path, metric, values_by_seed, failed=0):
    with open(path, "a", encoding="utf-8") as fh:
        for seed, value in values_by_seed.items():
            result = {"correct": True, "attempted": 10, "failed": failed,
                      "metrics": {metric: {"value": value, "unit": "s"}}}
            fh.write(json.dumps({"workload": "w", "seed": seed, "seconds": 1, "trace": 0,
                                 "result": result}) + "\n")


@pytest.mark.parametrize("change_scale, expected", [
    (1.00, "within bound"),
    (1.30, "worse"),
    (0.80, "better"),
])
def test_compare_verdicts(tmp_path, change_scale, expected):
    parent = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    change = {s: v * change_scale for s, v in parent.items()}
    assert compare.verdict(parent, change, 0.15, lower_is_better=True) == expected


def test_compare_reports_unresolved_when_parent_spread_exceeds_bound():
    parent = {s: [1.0, 1.5, 2.0, 0.6][s % 4] for s in range(8)}
    change = {s: v * 0.95 for s, v in parent.items()}
    assert compare.verdict(parent, change, 0.15, lower_is_better=True) == "unresolved"


def test_compare_cli_flags_more_failures(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_runs(a, "case_s_p50", {s: 1.0 for s in range(5)})
    write_runs(b, "case_s_p50", {s: 1.0 for s in range(5)}, failed=1)
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0


# ---------------------------------------------------------------------------
# contract

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert len(spec["workloads"]) >= 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, no result is printed."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "builtin_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_keeps_ten_cases_above_it():
    walls = [float(i) for i in range(40)]
    value, pct, n = run.tail(walls)
    assert n == 40 and sum(w > value for w in walls) == run.TAIL_BEYOND
    assert math.isclose(pct, 75.0)
