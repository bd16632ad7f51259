#!/usr/bin/env python3
"""Run one benchmark workload against the program under ``src/``.

    python3 perfbench/run.py --workload builtin_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` times cases untraced for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs a fixed number of cases untraced and
then traced, and reports the per-layer metrics.  Every case's output goes
through the workload's oracle.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``--workload all`` runs each
workload in its own process and combines their results.  ``--results FILE``
appends the result, tagged with workload and seed, to a JSON-lines file that
``perfbench/compare.py`` reads.

Exit code 0 whenever a result is printed (check "correct"); 2 when the
program cannot be loaded or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, tracer as tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Case  # noqa: E402

PACKAGE = "fluctuation_bounds"
SETUP_REPEATS = 3    # setup_s is the median of this many full set-ups
TAIL_BEYOND = 10     # case_s_tail keeps at least this many cases above it
CAL_REF_S = 3.5e-3   # calibration kernel time that defines reference speed (2-vCPU dev VM)
CAL_WINDOW = 4       # kernel timings around a timed stretch the speed factor takes
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "case_s_p50": "s",
    "case_s_tail": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    pass


def _hermiticity_defect(m) -> float:
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a.real)):
        raise ValueError("non-finite entry")
    return float(np.max(np.abs(a - a.conj().T)))


def calibration_kernel() -> float:
    """Seconds for one fixed pass of small-matrix work of the kind the program
    does: 3x3 products, traces, eigvalsh and float formatting, then 2x2
    validation-style calls through a Python function."""
    start = time.perf_counter()
    a = np.eye(3, dtype=complex) * 0.5 + 0.1j
    acc = 0.0
    for _ in range(75):
        b = a @ a + a
        acc += float(np.trace(b).real)
        np.linalg.eigvalsh(b + b.conj().T)
        f"{acc:.11e}"
    m = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    for _ in range(150):
        r = np.zeros((2, 2), dtype=complex) + 0.5 * m
        acc += _hermiticity_defect(r) + float(np.trace(r @ m).real)
    return time.perf_counter() - start


class SpeedGauge:
    """How fast the machine ran around each timed stretch, against CAL_REF_S.

    The host shares its cores with other tenants, which moves raw wall times
    by 10-50% within a run and between runs minutes apart.  Timings are
    therefore reported in reference seconds: the calibration kernel runs
    before every timed stretch and once after the last, and each wall time
    is multiplied by CAL_REF_S over the median of the CAL_WINDOW kernel
    timings centred on it.  The kernel does not touch the program, so no
    change to the program moves it.
    """

    def __init__(self):
        calibration_kernel()  # the first call pays numpy's lazy set-up
        self.samples = []

    def sample(self) -> None:
        self.samples.append(calibration_kernel())

    def factors(self, count: int) -> list:
        """Speed factor for each of the first ``count`` stretches (below 1
        when the machine ran slower than reference); stretch i ran between
        samples i and i + 1."""
        half = CAL_WINDOW // 2
        return [CAL_REF_S / statistics.median(self.samples[max(0, i - half + 1):i + half + 1])
                for i in range(count)]


def load_program():
    """Fresh import of every traced module from ROOT/src.

    Earlier imports are dropped from sys.modules first, so each call pays
    the package's full import cost (numpy stays loaded)."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in tracing.LAYER_MODULES}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(src.resolve()):
            raise ProgramMissing(f"{mod.__name__} imported from {mod.__file__}, not {src}")
    return types.SimpleNamespace(**mods), mods


def set_up(wl, seed: int, pool: int, workdir: str):
    start = time.perf_counter()
    prog, mods = load_program()
    cases = [Case(i, wl.generate(seed, i)) for i in range(pool)]
    for case in cases:
        wl.construct(prog, case, workdir)
    return time.perf_counter() - start, prog, mods, cases


def attempt(wl, prog, case, tracer=None):
    """(wall seconds, failures) for one case; the oracle runs untimed and untraced."""
    start = time.perf_counter()
    try:
        output = wl.run(prog, case)
    except Exception as err:  # a raising case is a failed case, not a crashed run
        return time.perf_counter() - start, [f"raised {type(err).__name__}: {err}"]
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    try:
        fails = wl.check(prog, case, output)
    except Exception as err:
        fails = [f"oracle raised {type(err).__name__}: {err}"]
    finally:
        if tracer is not None:
            tracer.active = True
    return wall, fails


def tail(walls):
    """(value, percentile, count): the highest order statistic that still has
    TAIL_BEYOND cases above it, or the maximum when there are too few."""
    ordered = sorted(walls)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Report:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shown = 0

    def record(self, case, fails) -> bool:
        self.attempted += 1
        if not fails:
            return True
        self.failed += 1
        if self.shown < 5:
            print(f"case {case.index} failed: {'; '.join(fails[:3])}", file=sys.stderr)
            self.shown += 1
        return False


def run_timed(wl, seed: int, seconds: float, workdir: str) -> dict:
    pool = max(math.ceil(seconds * wl.pool_rate), 2 * TAIL_BEYOND) + 1
    setup_gauge = SpeedGauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_gauge.sample()
        took, prog, _, cases = set_up(wl, seed, pool, workdir)
        setups.append(took)
    setup_gauge.sample()
    report = Report()
    report.record(cases[0], attempt(wl, prog, cases[0])[1])  # warm-up, untimed
    gc.collect()
    gauge = SpeedGauge()
    walls, points = [], 0
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        case = cases[1 + (i - 1) % (pool - 1)]
        gauge.sample()
        wall, fails = attempt(wl, prog, case)
        walls.append(wall)
        if report.record(case, fails):
            points += wl.points(case)
        i += 1
    gauge.sample()
    factors = gauge.factors(len(walls))
    scaled = [w * f for w, f in zip(walls, factors)]
    tail_s, tail_pct, n = tail(scaled)
    raw = {
        "setup_s": statistics.median(setups),
        "points_per_s": points / sum(walls),
        "case_s_p50": statistics.median(walls),
        "case_s_tail": tail(walls)[0],
    }
    values = {
        "setup_s": statistics.median(t * f for t, f in zip(setups, setup_gauge.factors(SETUP_REPEATS))),
        "points_per_s": points / sum(scaled),
        "case_s_p50": statistics.median(scaled),
        "case_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    speed = statistics.median(factors)
    print(f"workload {wl.name} seed {seed}: {n} timed cases, pool {pool}, "
          f"{report.attempted} attempted, {report.failed} failed, "
          f"machine speed {speed:.3f} x reference")
    for name, unit in END_TO_END.items():
        extra = f"  (p{tail_pct:.1f} of {n} cases)" if name == "case_s_tail" else ""
        extra += f"  raw {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:14s} {values[name]:.6g} {unit}{extra}")
    print(f"  {'failed_frac':14s} {report.failed / report.attempted:.6g} frac")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": report.failed == 0, "attempted": report.attempted,
            "failed": report.failed, "metrics": metrics}


def run_traced(wl, seed: int, seconds: float, workdir: str) -> dict:
    count = max(math.ceil(seconds * wl.trace_rate), 2)
    _, prog, mods, cases = set_up(wl, seed, count + 1, workdir)
    report = Report()
    report.record(cases[0], attempt(wl, prog, cases[0])[1])  # warm-up
    timed = cases[1:]
    points = sum(wl.points(c) for c in timed)

    untraced_s = serial_s = 0.0
    for case in timed:
        wall, fails = attempt(wl, prog, case)
        untraced_s += wall
        serial_s += case.notes.get("serial_s", 0.0)
        report.record(case, fails)

    spill = os.path.join(workdir, "spill")
    os.makedirs(spill, exist_ok=True)
    tracer = tracing.Tracer(mods, spill)
    tracer.install()
    traced_s = 0.0
    try:
        for case in timed:
            tracer.case = case.index
            wall, fails = attempt(wl, prog, case, tracer)
            traced_s += wall
            report.record(case, fails)
    finally:
        tracer.uninstall()
    tracer.collect_workers()

    summary = tracing.summarize(tracer)
    mismatches = 0
    for name, want in wl.expected_calls(timed).items():
        got = summary.get(name, {}).get("calls", 0)
        if got != want:
            mismatches += 1
            print(f"TRACE COUNT MISMATCH {name}: traced {got}, expected {want}", file=sys.stderr)
    workers = tracing.worker_pids_per_case(tracer)
    run = {
        "points": points,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "workers": statistics.mean(workers.values()) if workers else 0,
        "serial_s": serial_s,
        "sweep_s": untraced_s,
        "mismatches": mismatches,
    }
    metrics = layers.layer_metrics(summary, tracer.counters, run)
    trace_dir = WORK_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(str(trace_dir / f"{wl.name}.npz"))

    print(f"workload {wl.name} seed {seed} traced: {len(timed)} cases, {points} points, "
          f"{tracer.spans().shape[0]} spans, {report.failed} of {report.attempted} attempts failed")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    return {"correct": report.failed == 0, "attempted": report.attempted,
            "failed": report.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS and imports stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.results:
            cmd += ["--results", args.results]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None, help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        try:
            result = run_all(args)
        except RuntimeError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
        print(json.dumps(result))
        return 0

    wl = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_timed
        result = runner(wl, args.seed, args.seconds, str(workdir))
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
