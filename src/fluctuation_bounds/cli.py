"""Command-line front end: run scenarios, emit CSV, verify bounds, sweep.

Exit codes: 0 success, 1 bound violation (verify), 2 operational error
(bad file, bad flags, failed run, out of memory, unwritable output).
Every error is reported as one JSON line on stderr so callers can parse
failures without scraping text.

The argparse parser is built once per process and shared by every
``cli_main`` call.  A run's ResultTable is its only record: CSV is
written by ``scenarios.rows_to_csv_text``, which formats a table's
column values as plain tuples (for figure1, ``builtin`` writes a table
of the FIGURE_COLUMNS view of its run instead), and ``verify`` reads
the margin columns and ``t`` and counts the points that fail a check.
``builtin`` and ``verify --builtin`` read a builtin through the same
``builtin_scenario_dict`` and ``parse_scenario``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bounds import TAU_BOUND
from .scenarios import (
    BUILTIN_NAMES,
    FIGURE_COLUMNS,
    RESULT_COLUMNS,
    ResultTable,
    ScenarioError,
    builtin_scenario_dict,
    load_scenario,
    parse_scenario,
    read_scenario,
    rows_to_csv_text,
    run_scenario,
)

SWEEP_PARAMS = ("dt", "t_max", "gamma")


class OverrideError(ValueError):
    """A command-line value the scenario cannot take."""


def _error(slug: str, detail: str, **extra) -> None:
    payload = {"error": slug, "detail": detail}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


def _detail(err: Exception) -> str:
    """An error's message; a MemoryError may carry none."""
    return str(err) or "out of memory"


def _emit(text: str, out_path) -> None:
    """Write to stdout or to out_path."""
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _omega_hamiltonian(omega: float) -> dict:
    return {
        "terms": [
            {
                "kind": "constant",
                "value": 0.5 * omega,
                "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            }
        ]
    }


def _apply_overrides(data: dict, dt=None, t_max=None, gamma=None, omega=None) -> dict:
    """New scenario dict with the requested fields replaced.

    gamma rewrites the rate of every jump operator, so it only applies to
    entries that carry an explicit rate; omega swaps the hamiltonian for a
    diagonal splitting of the two levels of a qubit (every builtin is one).
    """
    out = json.loads(json.dumps(data))  # deep copy, JSON types only
    if dt is not None:
        out["dt"] = dt
    if t_max is not None:
        out["t_max"] = t_max
    if gamma is not None:
        jumps = out.get("jump_operators")
        if not jumps:
            raise OverrideError("--gamma: scenario has no jump operators")
        for i, entry in enumerate(jumps):
            if "rate" not in entry:
                raise OverrideError(
                    f"--gamma: jump_operators[{i}] has no explicit rate to override"
                )
            entry["rate"] = gamma
    if omega is not None:
        out["hamiltonian"] = _omega_hamiltonian(omega)
    return out


# Each check verify reads: its kind, its margin column, and the column
# that is nan exactly where the check was not evaluated (not requested,
# or a skipped point).
_VERIFY_CHECKS = (
    ("open", "margin_open", "lhs_open"),
    ("closed", "margin_closed", "lhs_closed"),
    ("cauchy_schwarz", "cauchy_schwarz", "cauchy_schwarz"),
)


def _verify_failures(table):
    """How many points have an evaluated check whose margin is not at
    least -TAU_BOUND (nan included), and the first such check as (kind,
    t, margin): earliest time first, then open, closed, cauchy_schwarz
    at one time.  (0, None) when no point has one."""
    c = table.columns
    failed = np.array([~(c[margin] >= -TAU_BOUND) & ~np.isnan(c[evaluated])
                       for _, margin, evaluated in _VERIFY_CHECKS])  # (check, point)
    if not failed.any():
        return 0, None
    points = np.flatnonzero(failed.any(axis=0))
    j = int(points[0])
    kind, margin, _ = _VERIFY_CHECKS[int(np.flatnonzero(failed[:, j])[0])]
    return len(points), (kind, float(c["t"][j]), float(c[margin][j]))


def _cmd_run(args) -> int:
    _emit(rows_to_csv_text(run_scenario(load_scenario(args.scenario))), args.out)
    return 0


def _cmd_builtin(args) -> int:
    data = _apply_overrides(
        builtin_scenario_dict(args.name),
        dt=args.dt, t_max=args.t_max, gamma=args.gamma, omega=args.omega,
    )
    table = run_scenario(parse_scenario(data, default_name=args.name))
    columns = RESULT_COLUMNS
    if args.name == "figure1":
        # its decay curves, v_A = <Adot^2>^(1/2) from Var(Adot) + <Adot>^2
        c = table.columns
        v_a = np.sqrt(c["rhs_closed"] + c["mean_rate"] ** 2)
        curves = (c["t"], c["mean"], c["sigma"], v_a, c["margin_closed"])
        table, columns = ResultTable(dict(zip(FIGURE_COLUMNS, curves))), FIGURE_COLUMNS
    _emit(rows_to_csv_text(table, columns), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.builtin is not None:
        spec = parse_scenario(builtin_scenario_dict(args.builtin), default_name=args.builtin)
    else:
        spec = load_scenario(args.scenario)
    table = run_scenario(spec)
    count, first = _verify_failures(table)
    if first is not None:
        kind, t, margin = first
        _error(
            "bound-violation",
            f"{count} of {len(table)} points violate a requested bound",
            scenario=spec.name,
            first={"kind": kind, "t": t, "margin": margin},
        )
        return 1
    print(f"{spec.name}: {len(table)} points, all requested bounds satisfied")
    return 0


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_job(job) -> dict:
    """Runs in a worker process; reports failure in-band so nothing custom
    has to cross the process boundary."""
    data, param, value_text, out_path = job
    try:
        # as in cli_main, which a spawned worker does not run under
        with np.errstate(all="ignore"):
            overridden = _apply_overrides(data, **{param: float(value_text)})
            spec = parse_scenario(overridden, default_name=data.get("name", "sweep"))
            rows = run_scenario(spec)
            _emit(rows_to_csv_text(rows), out_path)
    except (ValueError, RuntimeError, OSError, MemoryError) as err:
        return {"ok": False, "param": param, "value": value_text, "detail": _detail(err)}
    return {"ok": True, "param": param, "value": value_text, "rows": len(rows), "out": out_path}


def _cmd_sweep(args) -> int:
    data = read_scenario(args.scenario)
    parse_scenario(data, default_name=str(args.scenario))  # fail before forking
    name = data.get("name", "sweep")
    if os.path.basename(name) != name:
        # every CSV path is built from the name and must stay in --out-dir
        raise ScenarioError([f"name: must not contain a path separator in sweep, got {name!r}"])
    for i, value_text in enumerate(args.values):
        try:
            float(value_text)
        except ValueError:
            raise OverrideError(f"--values: {value_text!r} is not a number") from None
        if value_text in args.values[:i]:
            # both workers would write the same CSV
            raise OverrideError(f"--values: {value_text!r} is given more than once")
    os.makedirs(args.out_dir, exist_ok=True)
    jobs = [
        (data, args.param, v, os.path.join(args.out_dir, f"{name}__{args.param}_{v}.csv"))
        for v in args.values
    ]
    # one worker per value, at most one per available CPU; each writes its
    # own file, parent prints in order
    with ProcessPoolExecutor(max_workers=min(len(jobs), _available_cpus())) as pool:
        results = list(pool.map(_sweep_job, jobs))
    code = 0
    for res in results:
        if res["ok"]:
            print(f"{args.param}={res['value']}: {res['rows']} rows -> {res['out']}")
        else:
            _error("run-failed", res["detail"], param=res["param"], value=res["value"])
            code = 2
    return code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluctuation-bounds",
        description="Run small open-system scenarios and check fluctuation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file, emit result CSV")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_builtin = sub.add_parser("builtin", help="run a builtin scenario or curve family")
    p_builtin.add_argument("--name", required=True, choices=BUILTIN_NAMES)
    p_builtin.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_builtin.add_argument("--dt", type=float, default=None, help="override grid step")
    p_builtin.add_argument("--t-max", type=float, default=None, help="override final time")
    p_builtin.add_argument("--gamma", type=float, default=None,
                           help="override every jump operator rate")
    p_builtin.add_argument("--omega", type=float, default=None,
                           help="replace the hamiltonian with a diagonal splitting")
    p_builtin.set_defaults(func=_cmd_builtin)

    p_verify = sub.add_parser("verify", help="exit 0 iff every requested bound holds")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", default=None, help="scenario JSON path")
    group.add_argument("--builtin", default=None, choices=BUILTIN_NAMES)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run one scenario across parameter values")
    p_sweep.add_argument("--scenario", required=True, help="scenario JSON path")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True, nargs="+",
                         help="one or more numeric values")
    p_sweep.add_argument("--out-dir", required=True, help="directory for per-value CSVs")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:  # argparse handles usage/help printing
        return int(err.code or 0)
    # The one map from exception to error slug; README's table mirrors it.
    # A non-finite intermediate ends in one of these errors, or in none;
    # numpy's floating-point warnings about it would add stderr lines.
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except ScenarioError as err:
        _error("invalid-scenario", str(err), violations=list(err.violations))
    except OverrideError as err:
        _error("override", str(err))
    except (RuntimeError, MemoryError) as err:
        _error("run-failed", _detail(err))
    except OSError as err:
        _error("write-failed", str(err))
    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
