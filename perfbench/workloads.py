"""The four benchmark workloads: seeded inputs, one timed case, an oracle.

Case ``index`` of a workload is generated from
``numpy.random.default_rng([seed, tag, index])``, so the same seed gives the
same bytes whatever the pool size.  The program receives only generated
inputs: scenario files on disk for the CLI workloads, and arrays (plus the
program objects built from them during set-up) for the in-process ones.

Structure (dimension, number of jump operators, scenario family) cycles
through fixed strata by case index; the seed draws only the values inside a
stratum.  Grid lengths are set per stratum so that every case of a workload
costs about the same: every seed then loads the program with the same mix
of work, and the case-time distribution has one mode, so its median does
not jump between clusters from run to run.

Each oracle returns a list of failure strings; an empty list is a pass.
Oracles never call the program function under test to decide correctness,
except where the check is defined as agreement between two program routes
(``cli_sweep`` against the in-process ``run_scenario``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

TAU_BOUND = 1e-9  # slack the program applies before calling a margin a violation

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


# ---------------------------------------------------------------------------
# generation helpers (numpy only, never the program)

def case_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def random_hermitian(rng, dim: int) -> np.ndarray:
    """Hermitian matrix scaled to unit spectral norm."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def random_operator(rng, dim: int, norm: float) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return norm * m / np.linalg.norm(m, 2)


def random_state(rng, dim: int, spread: float = 0.3) -> np.ndarray:
    """Full-rank state with eigenvalues in ratio 1 : 2 : ... : dim (jittered),
    so the spectrum is nondegenerate with gaps well above the program's
    pairing threshold."""
    weights = np.arange(1, dim + 1, dtype=float) + rng.uniform(-spread, spread, dim)
    p = weights / weights.sum()
    v = np.linalg.eigh(random_hermitian(rng, dim))[1]
    rho = (v * p) @ v.conj().T
    return (rho + rho.conj().T) / 2


def matrix_dict(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def term_dict(kind: str, params: tuple, matrix) -> dict:
    if kind == "constant":
        out = {"kind": "constant", "value": params[0]}
    else:
        a, omega, phase = params
        out = {"kind": kind, "amplitude": a, "omega": omega, "phase": phase}
    out["matrix"] = matrix_dict(matrix)
    return out


def coefficient(kind: str, params: tuple, t: float) -> float:
    if kind == "constant":
        return params[0]
    a, omega, phase = params
    if kind == "cosine":
        return a * math.cos(omega * t + phase)
    return a * math.sin(omega * t + phase)


def evaluate_terms(terms, t: float) -> np.ndarray:
    """Sum of coefficient(t) * matrix, the oracle's own A(t) or H(t)."""
    return sum(coefficient(kind, params, t) * m for kind, params, m in terms)


def build_observable(prog, terms):
    obs = prog.observables
    made = []
    for kind, params, m in terms:
        if kind == "constant":
            made.append((obs.constant(params[0]), m))
        else:
            made.append((getattr(obs, kind)(*params), m))
    return obs.observable(made)


def parse_csv(text: str):
    """(header, rows) with numeric cells as floats and the flags column as text."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append([c if h == "skipped_flags" else float(c) for h, c in zip(header, cells)])
    return header, rows


@contextlib.contextmanager
def captured_streams():
    """Keep the CLI's stdout and stderr out of the benchmark's own output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


# ---------------------------------------------------------------------------
# reference integration for rk4_probe (superoperator form, independent code)

def liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """Row-major vectorised generator: vec(A rho B) = kron(A, B.T) vec(rho)."""
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in jumps:
        norm = op.conj().T @ op
        out = out + np.kron(op, op.conj()) - 0.5 * (np.kron(norm, eye) + np.kron(eye, norm.T))
    return out


def reference_final_state(inputs: dict, substeps: int = 2) -> np.ndarray:
    """RK4 on the vectorised Lindblad equation with dt / substeps."""
    d = inputs["dim"]
    static = liouvillian(inputs["h0"], inputs["jumps"])
    eye = np.eye(d)
    drive = -1j * (np.kron(inputs["h1"], eye) - np.kron(eye, inputs["h1"].T))
    a, omega, phase = inputs["drive"]
    h = inputs["dt"] / substeps
    v = inputs["rho0"].reshape(-1).astype(complex)
    n = inputs["steps"] * substeps
    for k in range(n):
        t = k * h
        s0 = static + a * math.cos(omega * t + phase) * drive
        sm = static + a * math.cos(omega * (t + h / 2) + phase) * drive
        s1 = static + a * math.cos(omega * (t + h) + phase) * drive
        k1 = s0 @ v
        k2 = sm @ (v + (h / 2) * k1)
        k3 = sm @ (v + (h / 2) * k2)
        k4 = s1 @ (v + h * k3)
        v = v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v.reshape(d, d)


# ---------------------------------------------------------------------------

@dataclass
class Case:
    index: int
    inputs: dict
    data: object = None  # program objects or file paths built during set-up
    notes: dict = field(default_factory=dict)  # measurements the oracle takes


class Workload:
    """One seeded input family.  Subclasses fill in the hooks below."""

    name = ""
    why = ""
    tag = 0
    pool_rate = 1.0   # pooled cases per second of --seconds (about 3x the seed commit's rate)
    trace_rate = 1.0  # traced cases per second of --seconds (fixed, so counts repeat)

    def generate(self, seed: int, index: int) -> dict:
        raise NotImplementedError

    def construct(self, prog, case: Case, workdir: str) -> None:
        """Set-up work for one case: write files or build program objects."""

    def run(self, prog, case: Case):
        raise NotImplementedError

    def check(self, prog, case: Case, output) -> list:
        raise NotImplementedError

    def points(self, case: Case) -> int:
        raise NotImplementedError

    def expected_calls(self, cases) -> dict:
        """Analytic call counts per traced function for these cases."""
        return {}


# ---------------------------------------------------------------------------
# builtin_grid

FAMILIES = ("example1", "example2", "crossover")
FAMILY_STEPS = {"example1": 320, "example2": 280, "crossover": 480}  # about 0.2 s each at the seed commit


def builtin_variant(family: str, name: str, gamma: float, omega: float,
                    t_max: float, dt: float) -> dict:
    """Scenario dict of one shipped family with the given parameters."""
    data = {
        "name": name,
        "dimension": 2,
        "initial_state": matrix_dict(EXCITED),
        "jump_operators": [{"matrix": matrix_dict(SIGMA_MINUS), "rate": gamma}],
        "t_max": t_max,
        "dt": dt,
        "rho_dot_mode": "analytic",
    }
    z_term = term_dict("constant", (1.0,), SIGMA_Z)
    if family == "crossover":
        data["observable"] = {"terms": [z_term]}
        data["bounds"] = ["open", "closed"]
        return data
    data["hamiltonian"] = {"terms": [term_dict("constant", (0.5 * omega,), SIGMA_Z)]}
    if family == "example1":
        data["observable"] = {"terms": [z_term]}
    else:
        data["observable"] = {
            "terms": [
                term_dict("cosine", (1.0, omega, 0.0), SIGMA_X),
                term_dict("sine", (1.0, omega, 0.0), SIGMA_Y),
            ]
        }
    data["bounds"] = ["open", "var_rate_residual", "cauchy_schwarz"]
    return data


def check_builtin_csv(inputs: dict, code: int, text: str) -> list:
    """Oracle for one builtin_grid case from its CSV text."""
    if code != 0:
        return [f"exit code {code}"]
    header, rows = parse_csv(text)
    col = {h: i for i, h in enumerate(header)}
    steps, dt = inputs["steps"], inputs["dt"]
    gamma, omega = inputs["gamma"], inputs["omega"]
    fails = []
    if len(rows) != steps - 1:
        return [f"{len(rows)} rows, expected {steps - 1}"]
    for k, row in enumerate(rows, start=1):
        if abs(row[col["t"]] - k * dt) > 1e-10 * max(1.0, k * dt):
            fails.append(f"row {k}: t = {row[col['t']]!r}, expected {k * dt!r}")
            break
        if row[col["skipped_flags"]]:
            fails.append(f"row {k}: skipped ({row[col['skipped_flags']]})")
            break
        if row[col["margin_open"]] < -TAU_BOUND:
            fails.append(f"row {k}: open bound violated (margin {row[col['margin_open']]:.3e})")
            break
    if fails:
        return fails

    t = np.array([r[col["t"]] for r in rows])
    family = inputs["family"]
    if family == "example1":
        lhs = np.array([r[col["lhs_open"]] for r in rows])
        rhs = np.array([r[col["rhs_open"]] for r in rows])
        u = np.exp(-gamma * t)
        ref = gamma**2 * u * (1.0 - 2.0 * u) ** 2 / (1.0 - u)
        lhs_err = np.abs(lhs - ref) - (1e-7 * ref + 1e-10 * gamma**2)
        if np.max(lhs_err) > 0:
            k = int(np.argmax(lhs_err))
            fails.append(f"t={t[k]:.6g}: lhs {lhs[k]!r} vs closed form {ref[k]!r}")
        ratio_err = np.abs(rhs - 2.0 * lhs) - 1e-10 * np.abs(rhs)
        if np.max(ratio_err) > 0:
            k = int(np.argmax(ratio_err))
            fails.append(f"t={t[k]:.6g}: rhs {rhs[k]!r} != 2*lhs {2 * lhs[k]!r}")
    elif family == "example2":
        mean = np.array([r[col["mean"]] for r in rows])
        lhs = np.array([r[col["lhs_open"]] for r in rows])
        rhs = np.array([r[col["rhs_open"]] for r in rows])
        if np.max(np.abs(mean)) > 1e-10 or np.max(np.abs(lhs)) > 1e-10:
            fails.append(f"lhs/mean not 0: max |lhs| {np.max(np.abs(lhs)):.3e}, "
                         f"max |mean| {np.max(np.abs(mean)):.3e}")
        want = 2.0 * omega**2
        if np.max(np.abs(rhs - want)) > 1e-9 * want:
            fails.append(f"rhs off 2*omega^2 by {np.max(np.abs(rhs - want)):.3e}")
    else:
        margin = np.array([r[col["margin_closed"]] for r in rows])
        rhs = np.array([r[col["rhs_closed"]] for r in rows])
        g = 1.0 - np.exp(-gamma * t)
        ref = 2.0 * gamma * np.sqrt(g * (1.0 - g))
        if np.max(np.abs(np.sqrt(rhs) - ref)) > 1e-8 * gamma:
            fails.append(f"closed rhs off its closed form by {np.max(np.abs(np.sqrt(rhs) - ref)):.3e}")
        ok = margin >= -TAU_BOUND
        flips = np.flatnonzero(ok[1:] != ok[:-1])
        t_star = math.log(4.0 / 3.0) / gamma
        if len(flips) != 1 or ok[0] or not ok[-1]:
            fails.append(f"{len(flips)} closed-bound verdict flips, expected one (violated -> satisfied)")
        else:
            lo, hi = t[flips[0]], t[flips[0] + 1]
            if not (lo - dt < t_star <= hi + dt):
                fails.append(f"verdict flips in ({lo:.6g}, {hi:.6g}], t* = {t_star:.6g}")
    return fails


class BuiltinGrid(Workload):
    name = "builtin_grid"
    why = ("closed-form qubit trajectories through CLI run: every grid point goes "
           "through stats and bounds at d=2, then CSV; RK4 does no work")
    tag = 1
    pool_rate = 9.0
    trace_rate = 0.5

    def generate(self, seed, index):
        rng = case_rng(seed, self.tag, index)
        family = FAMILIES[index % 3]
        steps = FAMILY_STEPS[family]
        gamma = float(rng.uniform(0.5, 2.0))
        omega = float(rng.uniform(0.5, 2.0))
        if family == "crossover":
            t_max = float(rng.uniform(2.0, 4.0)) * math.log(4.0 / 3.0) / gamma
        else:
            t_max = float(rng.uniform(1.0, 4.0)) / gamma
        dt = t_max / steps
        scenario = builtin_variant(family, f"{family}-{index}", gamma, omega, steps * dt, dt)
        return {"family": family, "steps": steps, "gamma": gamma, "omega": omega,
                "dt": dt, "text": json.dumps(scenario, indent=1)}

    def construct(self, prog, case, workdir):
        path = os.path.join(workdir, f"scenario-{case.index:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.inputs["text"])
        case.data = (path, os.path.join(workdir, f"out-{case.index:05d}.csv"))

    def run(self, prog, case):
        path, out = case.data
        with captured_streams():
            return prog.cli.cli_main(["run", "--scenario", path, "--out", out])

    def check(self, prog, case, output):
        with open(case.data[1], encoding="utf-8") as fh:
            text = fh.read()
        os.remove(case.data[1])
        return check_builtin_csv(case.inputs, output, text)

    def points(self, case):
        return case.inputs["steps"] - 1

    def expected_calls(self, cases):
        pts = sum(c.inputs["steps"] - 1 for c in cases)
        closed = sum(c.inputs["steps"] - 1 for c in cases if c.inputs["family"] == "crossover")
        n = len(cases)
        # A.evaluate per point: variance_rate 1, H in lindblad_rhs 1 (if H),
        # residual 2, Cauchy-Schwarz 1 | closed: adjoint rate 1 (+1 for H);
        # plus one H(0) per case in the closed-form damping check.
        evaluate = 0
        for c in cases:
            p = c.inputs["steps"] - 1
            evaluate += 2 * p if c.inputs["family"] == "crossover" else 5 * p + 1
        return {
            "cli.cli_main": n,
            "scenarios.load_scenario": n,
            "scenarios.parse_scenario": n,
            "scenarios.build_trajectory": n,
            "scenarios.rows_to_csv_text": n,
            "dynamics.integrate": 0,
            "dynamics.trajectory_from_states": n,
            "dynamics.analytic_amplitude_damping": sum(c.inputs["steps"] + 1 for c in cases),
            "dynamics.lindblad_rhs": pts,
            "stats.variance_rate": pts,
            "bounds.open_bound": pts,
            "bounds.closed_bound": closed,
            "bounds.var_rate_residual": pts - closed,
            "bounds.cauchy_schwarz_margin": pts - closed,
            "observables.TimeDependentObservable.evaluate": evaluate,
        }


# ---------------------------------------------------------------------------
# rk4_probe

RK4_STEPS = {1: 1500, 2: 1110, 3: 840}  # by jump count: about 0.18 s per case at the seed commit
RK4_PROBES = 6
FINAL_STATE_TOL = 1e-9   # program RK4 at dt vs reference RK4 at dt/2
RESIDUAL_C = 0.1         # var_rate_residual <= RESIDUAL_C * dt^2 * scale


def residual_scale(inputs: dict) -> float:
    """(rate)^3 * ||A||^2, the size of d^3 sigma^2 / dt^3 that the O(dt^2)
    central-difference error of var_rate_residual is proportional to.  The
    rate adds the unit Hamiltonian, the drive, the jump strengths and the
    observable's own frequency; every matrix has unit spectral norm."""
    drive_a, drive_omega, _ = inputs["drive"]
    obs_omega = inputs["obs"][1][1][1]
    rate = 1.0 + drive_a + drive_omega + obs_omega
    rate += sum(np.linalg.norm(op, 2) ** 2 for op in inputs["jumps"])
    a_norm = sum(abs(params[0]) for _, params, _ in inputs["obs"])
    return rate**3 * a_norm**2


def check_rk4(inputs: dict, output: dict, reference: np.ndarray) -> list:
    fails = []
    dt = inputs["dt"]
    limit = RESIDUAL_C * dt * dt * residual_scale(inputs)
    for t, open_rep, _, residual in output["probes"]:
        if not open_rep.skipped and not open_rep.satisfied:
            fails.append(f"t={t:.6g}: open bound violated (margin {open_rep.margin:.3e})")
        if not residual <= limit:
            fails.append(f"t={t:.6g}: var_rate_residual {residual:.3e} above {limit:.3e}")
    err = float(np.max(np.abs(output["final"] - reference)))
    if not err <= FINAL_STATE_TOL:
        fails.append(f"final state off the reference by {err:.3e}")
    return fails


class Rk4Probe(Workload):
    name = "rk4_probe"
    why = ("random driven open models at d=3..8: one long RK4 integrate per case, "
           "bounds at a few probe times; stats per point barely shows")
    tag = 2
    pool_rate = 10.0
    trace_rate = 1.0

    def generate(self, seed, index):
        rng = case_rng(seed, self.tag, index)
        dim = 3 + index % 6
        n_jumps = 1 + (index // 6) % 3
        dt = float(rng.uniform(1e-3, 2e-3))
        return {
            "dim": dim,
            "steps": RK4_STEPS[n_jumps],
            "dt": dt,
            "h0": random_hermitian(rng, dim),
            "h1": random_hermitian(rng, dim),
            "drive": (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 3.0)),
                      float(rng.uniform(0.0, 2 * math.pi))),
            "jumps": [random_operator(rng, dim, float(rng.uniform(0.3, 0.8))) for _ in range(n_jumps)],
            "rho0": random_state(rng, dim),
            "obs": [
                ("constant", (1.0,), random_hermitian(rng, dim)),
                ("cosine", (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(0.0, 2 * math.pi))), random_hermitian(rng, dim)),
            ],
        }

    def construct(self, prog, case, workdir):
        x = case.inputs
        hamiltonian = build_observable(prog, [("constant", (1.0,), x["h0"]),
                                              ("cosine", x["drive"], x["h1"])])
        model = prog.dynamics.lindblad_model(hamiltonian, x["jumps"])
        probes = [round(x["steps"] * j / (RK4_PROBES + 1)) for j in range(1, RK4_PROBES + 1)]
        case.data = (model, build_observable(prog, x["obs"]), probes)

    def run(self, prog, case):
        model, a, probes = case.data
        x = case.inputs
        traj = prog.dynamics.integrate(model, x["rho0"], x["steps"] * x["dt"], x["dt"])
        out = []
        for k in probes:
            t = float(traj.times[k])
            sp = prog.stats.variance_rate(traj, a, t)
            out.append((
                t,
                prog.bounds.open_bound(traj, a, t, stat=sp),
                prog.bounds.closed_bound(traj, model, a, t, stat=sp),
                prog.bounds.var_rate_residual(traj, a, t, stat=sp),
            ))
        return {"final": traj.states[-1].copy(), "probes": out}

    def check(self, prog, case, output):
        return check_rk4(case.inputs, output, reference_final_state(case.inputs))

    def points(self, case):
        return RK4_PROBES

    def expected_calls(self, cases):
        steps = sum(c.inputs["steps"] for c in cases)
        probes = RK4_PROBES * len(cases)
        # H.evaluate once per rhs; per probe A.evaluate in variance_rate (1),
        # closed bound (1, plus H once) and residual (2).
        return {
            "dynamics.integrate": len(cases),
            "dynamics.lindblad_rhs": 4 * steps + probes,
            "stats.variance_rate": probes,
            "bounds.open_bound": probes,
            "bounds.closed_bound": probes,
            "bounds.var_rate_residual": probes,
            "observables.TimeDependentObservable.evaluate": 4 * steps + 6 * probes,
        }


# ---------------------------------------------------------------------------
# eigenflow_probe

EIGEN_STEPS = 10
CHANNEL_STATES = 3
DYSON_QUAD = 16          # program default quadrature points per axis
CLOSURE_C = 1.0          # closure gap <= CLOSURE_C * dt * ||H|| * ||A||  (O(dt))
PSEUDO_C = 2.0           # extraction residual <= PSEUDO_C * (||H|| dt)^2   (O(dt^2))
SCHEME_C = 0.25          # |dyson2 - taylor2| <= SCHEME_C * (h_rate * h)^3   (O(dt^3))


def taylor_remainder(x: float) -> float:
    """Bound on ||exp(-iHs) - (1 - iHs - H^2 s^2/2)|| for x = ||H|| s."""
    return x**3 / 6.0 * math.exp(x)


def check_eigenflow(inputs: dict, output: dict) -> list:
    fails = []
    dt = inputs["dt"]
    states, times = output["states"], output["times"]
    h_norm = np.linalg.norm(inputs["h"], 2)
    a_norm = sum(abs(p[0]) for _, p, _ in inputs["obs"])
    limit = CLOSURE_C * dt * h_norm * a_norm
    for k, terms in output["eigenflow"]:
        up = np.trace(states[k + 1] @ evaluate_terms(inputs["obs"], times[k + 1])).real
        dn = np.trace(states[k - 1] @ evaluate_terms(inputs["obs"], times[k - 1])).real
        gap = abs(sum(terms) - (up - dn) / (2.0 * dt))
        if not gap <= limit:
            fails.append(f"k={k}: eigenflow closure gap {gap:.3e} above {limit:.3e}")
    limit = PSEUDO_C * (h_norm * dt) ** 2
    for k, res in output["residuals"]:
        if not float(np.max(res)) <= limit:
            fails.append(f"k={k}: pseudo-Hamiltonian residual {np.max(res):.3e} above {limit:.3e}")

    h, step = inputs["h"], inputs["prop_dt"]
    w, v = np.linalg.eigh(h)
    exact = (v * np.exp(-1j * step * w)) @ v.conj().T
    if np.max(np.abs(output["exact"] - exact)) > 1e-12:
        fails.append(f"exact propagator off by {np.max(np.abs(output['exact'] - exact)):.3e}")
    limit = taylor_remainder(h_norm * step) + 1e-13
    for scheme in ("taylor_static", "dyson_static"):
        err = np.linalg.norm(output[scheme] - exact, 2)
        if not err <= limit:
            fails.append(f"{scheme}: error {err:.3e} above the O(dt^3) remainder {limit:.3e}")
    rate = h_norm + sum(abs(p[0]) * (1.0 + abs(p[1])) for kind, p, _ in inputs["h_t"] if kind != "constant")
    limit = SCHEME_C * (rate * step) ** 3
    gap = np.linalg.norm(output["dyson_t"] - output["taylor_t"], 2)
    if not gap <= limit:
        fails.append(f"time-dependent dyson2 vs taylor2 gap {gap:.3e} above {limit:.3e}")

    for (rho, gamma, t), via_channel, via_generator in zip(
            inputs["channel"], output["via_channel"], output["via_generator"]):
        u = math.exp(-gamma * t)
        want = np.array([[rho[0, 0] + (1 - u) * rho[1, 1], math.sqrt(u) * rho[0, 1]],
                         [math.sqrt(u) * rho[1, 0], u * rho[1, 1]]])
        err = max(np.max(np.abs(via_channel - want)), np.max(np.abs(via_generator - want)))
        if not err <= 1e-12:
            fails.append(f"channel and generator routes off the closed form by {err:.3e}")
    return fails


class EigenflowProbe(Workload):
    name = "eigenflow_probe"
    why = ("short closed trajectories with nondegenerate spectra at d=2..4: "
           "eigendecompositions, Dyson quadrature and channels dominate")
    tag = 3
    pool_rate = 80.0
    trace_rate = 4.0

    def generate(self, seed, index):
        rng = case_rng(seed, self.tag, index)
        dim = 2 + index % 3
        h = random_hermitian(rng, dim)
        channel = []
        for _ in range(CHANNEL_STATES):
            rho = random_state(rng, 2, spread=0.45)
            channel.append((rho, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 5.0))))
        return {
            "dim": dim,
            "steps": EIGEN_STEPS,
            "dt": float(rng.uniform(5e-4, 2e-3)),
            "h": h,
            "rho0": random_state(rng, dim),
            "obs": [
                ("constant", (1.0,), random_hermitian(rng, dim)),
                ("cosine", (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(0.0, 2 * math.pi))), random_hermitian(rng, dim)),
            ],
            "h_t": [
                ("constant", (1.0,), h),
                ("cosine", (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 3.0)),
                            float(rng.uniform(0.0, 2 * math.pi))), random_hermitian(rng, dim)),
            ],
            "prop_t0": float(rng.uniform(0.0, 1.0)),
            "prop_dt": float(rng.uniform(5e-3, 2e-2)),
            "channel": channel,
        }

    def construct(self, prog, case, workdir):
        x = case.inputs
        static = build_observable(prog, [("constant", (1.0,), x["h"])])
        case.data = {
            "model": prog.dynamics.lindblad_model(static, []),
            "static": static,
            "h_t": build_observable(prog, x["h_t"]),
            "a": build_observable(prog, x["obs"]),
        }

    def run(self, prog, case):
        dyn, ch = prog.dynamics, prog.channels
        x, d = case.inputs, case.data
        dt, step, t0 = x["dt"], x["prop_dt"], x["prop_t0"]
        traj = dyn.integrate(d["model"], x["rho0"], x["steps"] * dt, dt)
        interior = range(1, len(traj) - 1)
        out = {
            "states": traj.states,
            "times": traj.times,
            "eigenflow": [(k, dyn.eigenflow_rate_terms(traj, d["a"], k)) for k in interior],
            "residuals": [(k, dyn.pseudo_hamiltonian_residuals(traj.states[k], traj.states[k + 1], dt))
                          for k in interior],
            "exact": dyn.exact_propagator(d["static"], 0.0, step).matrix,
            "taylor_static": dyn.taylor_propagator(d["static"], 0.0, step, 2).matrix,
            "dyson_static": dyn.dyson_propagator(d["static"], 0.0, step, 2).matrix,
            "taylor_t": dyn.taylor_propagator(d["h_t"], t0, step, 2).matrix,
            "dyson_t": dyn.dyson_propagator(d["h_t"], t0, step, 2).matrix,
            "via_channel": [ch.apply(ch.amplitude_damping(1.0 - math.exp(-g * t)), rho)
                            for rho, g, t in x["channel"]],
            "via_generator": [dyn.analytic_amplitude_damping(rho, g, 0.0, t)
                              for rho, g, t in x["channel"]],
        }
        return out

    def check(self, prog, case, output):
        return check_eigenflow(case.inputs, output)

    def points(self, case):
        interior = case.inputs["steps"] - 1
        return 2 * interior + 5 + 2 * CHANNEL_STATES

    def expected_calls(self, cases):
        n = len(cases)
        steps = sum(c.inputs["steps"] for c in cases)
        interior = steps - n
        dyson = DYSON_QUAD + DYSON_QUAD * DYSON_QUAD  # evaluate calls per order-2 Dyson step
        return {
            "dynamics.integrate": n,
            "dynamics.lindblad_rhs": 4 * steps,
            "dynamics.eigenflow_rate_terms": interior,
            "dynamics.pseudo_hamiltonian_residuals": interior,
            "dynamics.extract_pseudo_hamiltonian": 2 * interior,
            # 6 per rate decomposition, 4 per residual, 1 per exact propagator
            "linalg.hermitian_eigendecomposition": 10 * interior + n,
            # rhs H(t), A(t) per decomposition, 2 Dyson, 2 Taylor, 1 exact
            "observables.TimeDependentObservable.evaluate": 4 * steps + interior + n * (2 * dyson + 3),
            "observables.TimeDependentObservable.partial_time": interior + 2 * n,
            "channels.apply": CHANNEL_STATES * n,
        }


# ---------------------------------------------------------------------------
# cli_sweep

SWEEP_STEPS = 160
SWEEP_VALUES = 2  # sweep starts one worker per value; keep <= nproc


def sweep_reference(prog, data: dict, value: str) -> str:
    """CSV text of the in-process run for one swept gamma value."""
    scen = prog.scenarios
    over = json.loads(json.dumps(data))
    for entry in over["jump_operators"]:
        entry["rate"] = float(value)
    spec = scen.parse_scenario(over, default_name=over["name"])
    return scen.rows_to_csv_text(scen.run_scenario(spec))


def check_sweep_outputs(inputs: dict, code: int, texts: dict, references: dict) -> list:
    if code != 0:
        return [f"exit code {code}"]
    fails = []
    for value in inputs["values"]:
        text = texts.get(value)
        if text is None:
            fails.append(f"gamma={value}: no CSV written")
            continue
        header, rows = parse_csv(text)
        if len(rows) != inputs["steps"] - 1:
            fails.append(f"gamma={value}: {len(rows)} rows, expected {inputs['steps'] - 1}")
        margin = header.index("margin_open")
        if any(r[margin] < -TAU_BOUND for r in rows):
            fails.append(f"gamma={value}: open bound violated")
        if text != references[value]:
            fails.append(f"gamma={value}: CSV differs from the in-process run")
    return fails


class CliSweep(Workload):
    name = "cli_sweep"
    why = ("CLI sweep over two gamma values of an RK4 scenario: the only path "
           "that forks workers, pickles jobs and writes files from several processes")
    tag = 4
    pool_rate = 8.0
    trace_rate = 0.5

    def generate(self, seed, index):
        rng = case_rng(seed, self.tag, index)
        dim = 3 + index % 2
        n_jumps = 1 + (index // 2) % 2
        steps = SWEEP_STEPS
        dt = float(rng.uniform(2e-3, 5e-3))
        name = f"sweep-{index}"
        data = {
            "name": name,
            "dimension": dim,
            "initial_state": matrix_dict(random_state(rng, dim)),
            "hamiltonian": {"terms": [term_dict("constant", (1.0,), random_hermitian(rng, dim))]},
            "jump_operators": [{"matrix": matrix_dict(random_operator(rng, dim, 1.0)),
                                "rate": float(rng.uniform(0.2, 1.0))} for _ in range(n_jumps)],
            "observable": {"terms": [
                term_dict("constant", (1.0,), random_hermitian(rng, dim)),
                term_dict("cosine", (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 2.0)),
                                     float(rng.uniform(0.0, 2 * math.pi))), random_hermitian(rng, dim)),
            ]},
            "t_max": steps * dt,
            "dt": dt,
            "bounds": ["open", "closed"],
            "rho_dot_mode": "analytic",
        }
        low = float(rng.uniform(0.1, 0.7))
        values = [f"{low:.6f}", f"{low + float(rng.uniform(0.1, 0.8)):.6f}"]
        return {"steps": steps, "data": data, "values": values, "text": json.dumps(data, indent=1)}

    def construct(self, prog, case, workdir):
        path = os.path.join(workdir, f"scenario-{case.index:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.inputs["text"])
        out_dir = os.path.join(workdir, f"out-{case.index:05d}")
        name = case.inputs["data"]["name"]
        csvs = {v: os.path.join(out_dir, f"{name}__gamma_{v}.csv") for v in case.inputs["values"]}
        case.data = (path, out_dir, csvs)

    def run(self, prog, case):
        path, out_dir, _ = case.data
        argv = ["sweep", "--scenario", path, "--param", "gamma",
                "--values", *case.inputs["values"], "--out-dir", out_dir]
        with captured_streams():
            return prog.cli.cli_main(argv)

    def check(self, prog, case, output):
        texts = {}
        for value, csv_path in case.data[2].items():
            if os.path.exists(csv_path):
                with open(csv_path, encoding="utf-8") as fh:
                    texts[value] = fh.read()
                os.remove(csv_path)
        start = time.perf_counter()
        references = {v: sweep_reference(prog, case.inputs["data"], v) for v in case.inputs["values"]}
        case.notes["serial_s"] = time.perf_counter() - start
        return check_sweep_outputs(case.inputs, output, texts, references)

    def points(self, case):
        return SWEEP_VALUES * (case.inputs["steps"] - 1)

    def expected_calls(self, cases):
        n = len(cases)
        rhs = sum(SWEEP_VALUES * (4 * c.inputs["steps"] + c.inputs["steps"] - 1) for c in cases)
        return {
            "cli.cli_main": n,
            "cli.sweep_job": SWEEP_VALUES * n,
            "scenarios.parse_scenario": n + SWEEP_VALUES * n,
            "scenarios.run_scenario": SWEEP_VALUES * n,
            "scenarios.write_csv": SWEEP_VALUES * n,
            "dynamics.integrate": SWEEP_VALUES * n,
            "dynamics.lindblad_rhs": rhs,
        }


WORKLOADS = {w.name: w for w in (BuiltinGrid(), Rk4Probe(), EigenflowProbe(), CliSweep())}
