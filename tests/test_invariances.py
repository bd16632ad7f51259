"""Invariances of the whole pipeline, from parse_scenario to run_scenario.

Seeded driven open scenarios at d = 2..4, each with a constant-plus-cosine
Hamiltonian, one jump operator with a rate and a constant-plus-sine
observable, run with either rho_dot mode, on step maps and on the
operator-sum stage loop:

- a unitary change of frame, every matrix M -> Q M Q^dagger, leaves every
  statistic and every check's columns as they were;
- slowing the dynamics down by SLOW (the Hamiltonian, the rate and every
  omega divided by it, t_max and dt multiplied by it) leaves every
  statistic at the same grid index as it was once each time derivative
  is scaled back: var_rate and its residual by SLOW, the bounds' sides
  and the Cauchy-Schwarz margin by SLOW^2;
- RK4's final state converges at fourth order in dt.
"""

import math

import numpy as np
import pytest
from conftest import random_hermitian, random_jump, random_state, random_unitary

from fluctuation_bounds import dynamics
from fluctuation_bounds.scenarios import (
    BOUND_NAMES,
    build_model,
    build_trajectory,
    parse_scenario,
    run_scenario,
)

SEEDS = range(10)
MODES = ("analytic", "finite_difference")
SLOW = 2.0  # a power of two: the slowed grid times are the original ones times SLOW, exactly
TOL = 1e-11  # on |x - y| / max(1, |x|)
# The compared columns, each with the power of SLOW that scales it back.
SCALED_COLUMNS = {"mean": 0, "sigma_sq": 0, "var_rate": 1, "var_rate_residual": 1,
                  "lhs_open": 2, "rhs_open": 2, "margin_open": 2,
                  "lhs_closed": 2, "rhs_closed": 2, "margin_closed": 2, "cauchy_schwarz": 2}


@pytest.fixture(params=["step maps", "stage loop"])
def path(request, monkeypatch):
    """Which integrator path the runs take: step maps (every model here is
    under STEP_MAP_MAX) or, with STEP_MAP_MAX = 0, the stage loop."""
    if request.param == "stage loop":
        monkeypatch.setattr(dynamics, "STEP_MAP_MAX", 0)
    return request.param


def scenario(seed, mode="analytic", frame=False, slow=1.0, t_max=1.0, dt=0.01) -> dict:
    """The scenario file of the seed's model, with every matrix in the
    seed's rotated frame if frame, and slowed down by the factor slow."""
    rng = np.random.default_rng(2700 + seed)
    d = 2 + seed % 3
    rho0, h0, h1, a0, a1 = random_state(rng, d), *(random_hermitian(rng, d) / d for _ in range(4))
    jump, rate = random_jump(rng, d, 0.5), rng.uniform(0.2, 0.6)
    drive, sine = rng.uniform([0.3, 0.5, 0.0], [0.9, 2.0, 2 * math.pi], (2, 3)).tolist()
    q = random_unitary(rng, d) if frame else np.eye(d)

    def matrix(m):
        m = q @ m @ q.conj().T
        return {"re": m.real.tolist(), "im": m.imag.tolist()}

    def wave(kind, params, m):
        amplitude, omega, phase = params
        return {"kind": kind, "amplitude": amplitude, "omega": omega / slow, "phase": phase, "matrix": matrix(m)}

    return {
        "name": f"invariance-{seed}", "dimension": d, "initial_state": matrix(rho0),
        "hamiltonian": {"terms": [{"kind": "constant", "value": 1.0 / slow, "matrix": matrix(h0)},
                                  wave("cosine", [drive[0] / slow, *drive[1:]], h1)]},
        "jump_operators": [{"matrix": matrix(jump), "rate": rate / slow}],
        "observable": {"terms": [{"kind": "constant", "value": 1.0, "matrix": matrix(a0)},
                                 wave("sine", sine, a1)]},
        "t_max": t_max * slow, "dt": dt * slow, "bounds": list(BOUND_NAMES), "rho_dot_mode": mode,
    }


def parsed(data, path):
    """The spec of a scenario file, checked to take the integrator path."""
    spec = parse_scenario(data)
    assert (dynamics.step_map_size(build_model(spec)) <= dynamics.STEP_MAP_MAX) == (path == "step maps")
    return spec


def assert_same_columns(got, want, scale=1.0):
    """Each compared column of got, times scale to its power, against want."""
    for name, power in SCALED_COLUMNS.items():
        x, y = want[name], got[name] * scale**power
        assert not np.isnan(x).any(), name
        err = np.max(np.abs(x - y) / np.maximum(1.0, np.abs(x)))
        assert err <= TOL, f"{name}: scaled error {err:.2e}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_a_unitary_frame_leaves_every_column_unchanged(seed, mode, path):
    want = run_scenario(parsed(scenario(seed, mode), path))
    got = run_scenario(parsed(scenario(seed, mode, frame=True), path))
    assert np.array_equal(got["t"], want["t"])
    assert_same_columns(got, want)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_slowed_dynamics_scale_each_rate_by_its_power_of_the_factor(seed, mode, path):
    want = run_scenario(parsed(scenario(seed, mode), path))
    got = run_scenario(parsed(scenario(seed, mode, slow=SLOW), path))
    assert np.array_equal(got["t"], SLOW * want["t"])
    assert_same_columns(got, want, scale=SLOW)


@pytest.mark.parametrize("seed", SEEDS)
def test_rk4_final_state_converges_at_fourth_order(seed, path):
    finals = [build_trajectory(parsed(scenario(seed, t_max=2.0, dt=dt), path)).states[-1]
              for dt in (0.02, 0.01, 0.005)]
    coarse, fine = (np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:]))
    assert 3.8 <= math.log2(coarse / fine) <= 4.2, (coarse, fine)
