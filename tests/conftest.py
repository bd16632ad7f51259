"""Shared random-model builders, the figure-1 spread from the statistics
pipeline, the figure-1 curves as the CLI writes them, and the acceptance
verdict summary."""

import contextlib
import io
import math

import numpy as np

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from fluctuation_bounds.cli import cli_main
from fluctuation_bounds.linalg import matrix_exponential_antihermitian, sigma_z
from fluctuation_bounds.dynamics import analytic_amplitude_damping, lindblad_model
from fluctuation_bounds.observables import (
    cosine,
    observable,
    polynomial,
    sine,
    static_observable,
)
from fluctuation_bounds.scenarios import FIGURE_COLUMNS
from fluctuation_bounds.stats import variance


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_state(rng, dim, full_rank=True):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    if full_rank:
        rho = rho + 0.1 * np.eye(dim)
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    return matrix_exponential_antihermitian(random_hermitian(rng, dim), 1.0)


def random_jump(rng, dim, scale=0.7):
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def random_model(rng, dim, n_jumps=None, jump_scale=0.7, h_scale=1.0):
    if n_jumps is None:
        n_jumps = int(rng.integers(1, 3))
    jumps = [random_jump(rng, dim, jump_scale) for _ in range(n_jumps)]
    return lindblad_model(static_observable(h_scale * random_hermitian(rng, dim)), jumps)


def random_observable(rng, dim, time_dependent=False, scale=1.0):
    if not time_dependent:
        return static_observable(scale * random_hermitian(rng, dim))
    return observable(
        [
            (cosine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)), scale * random_hermitian(rng, dim)),
            (sine(rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)), scale * random_hermitian(rng, dim)),
            (polynomial([rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)]), scale * random_hermitian(rng, dim)),
        ]
    )


def sanity_check_figure_sigma(gamma_rate: float, t: float) -> float:
    """Spread of the population-difference observable from the statistics
    pipeline on the closed-form state; cross-checks the curve formula."""
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    rho = analytic_amplitude_damping(rho0, gamma_rate, 0.0, t)
    return float(math.sqrt(variance(rho, sigma_z)))


def figure1_view(*flags) -> list:
    """The rows ``builtin --name figure1`` writes with the given flags, as
    tuples of floats in FIGURE_COLUMNS order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["builtin", "--name", "figure1", *flags]) == 0
    header, *lines = out.getvalue().splitlines()
    assert header == ",".join(FIGURE_COLUMNS)
    return [tuple(float(x) for x in line.split(",")) for line in lines]


def placed_state(rng, dim, lowest):
    """A trace-one Hermitian matrix in a random basis with eigenvalue
    ``lowest``, its others positive."""
    p = rng.uniform(0.5, 1.5, dim)
    p *= (1.0 - lowest) / p[1:].sum()
    p[0] = lowest
    u = random_unitary(rng, dim)
    rho = (u * p) @ u.conj().T
    return (rho + rho.conj().T) / 2


# The positivity_cases that the Cholesky screen alone accepts: finite, with
# every eigenvalue at or above -0.4 tau.
SCREEN_PASSES = {"valid", "lowest -0.4 tau", "lowest 0 tau", "lowest +0.1", "pure"}


def positivity_cases(rng, dim, tau):
    """Named (dim, dim) matrices around the positivity floor tau: a valid
    state, smallest eigenvalue placed at -2, -1, -0.6, -0.4 and 0 times tau
    and at +0.1, a pure state, a trace drift with a negative eigenvalue,
    and a valid state with a NaN or inf on the diagonal, in the lower or in
    the upper triangle."""
    cases = {"valid": placed_state(rng, dim, 0.05 / dim)}
    cases.update((f"lowest {x:g} tau", placed_state(rng, dim, x * tau)) for x in (-2.0, -1.0, -0.6, -0.4, 0.0))
    cases["lowest +0.1"] = placed_state(rng, dim, 0.1)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    cases["pure"] = np.outer(psi, psi.conj())
    cases["trace drift, negative"] = 1.001 * placed_state(rng, dim, -2.0 * tau)
    for value in (np.nan, np.inf):
        for where, (i, j) in (("diagonal", (dim - 1, dim - 1)), ("lower", (dim - 1, 0)), ("upper", (0, dim - 1))):
            m = placed_state(rng, dim, 0.05 / dim)
            m[i, j] = value
            cases[f"{value} {where}"] = m
    return cases
