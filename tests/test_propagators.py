"""Short-time propagators: Taylor and Dyson expansions against exact exponentials."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fluctuation_bounds
from fluctuation_bounds.dynamics import (
    dyson_propagator,
    exact_propagator,
    taylor_propagator,
)
from fluctuation_bounds.linalg import sigma_x, sigma_y, sigma_z
from fluctuation_bounds.observables import (
    constant,
    cosine,
    observable,
    polynomial,
    sine,
    static_observable,
)

H_CONST = static_observable(0.8 * sigma_x + 0.5 * sigma_z)
TAU_UNIT = 1e-10  # unitarity defect of a propagator


def h_linear(t0_shift=0.0):
    # H(t) = H0 + H1 * t via degree-1 polynomial coefficients
    return observable(
        [
            (polynomial([0.6, 0.0]), sigma_x),
            (polynomial([0.0, 0.9]), sigma_z),
            (constant(0.2), sigma_y),
        ]
    )


H_ROTATING = observable([(cosine(1.0, 1.3), sigma_x), (sine(0.7, 0.9), sigma_z)])


# ---------------------------------------------------------------------------
# Taylor

def test_taylor2_constant_hamiltonian():
    h = H_CONST.evaluate(0.0)
    dt = 0.01
    step = taylor_propagator(H_CONST, 0.0, dt, order=2)
    expected = np.eye(2) - 1j * dt * h - (dt**2 / 2) * (h @ h)
    assert_allclose(step.matrix, expected, atol=1e-15)
    assert step.scheme == "taylor2"
    assert step.interval == (0.0, dt)


def test_taylor_zero_step_is_identity():
    for order in (1, 2):
        step = taylor_propagator(H_ROTATING, 0.5, 0.0, order=order)
        assert np.array_equal(step.matrix, np.eye(2))


def test_taylor2_cosine_hamiltonian_at_zero():
    # H(t) = sigma_z cos t: the derivative vanishes at t0 = 0, so the
    # second-order term is the pure square.
    h = observable([(cosine(1.0, 1.0), sigma_z)])
    dt = 0.02
    step = taylor_propagator(h, 0.0, dt, order=2)
    expected = np.eye(2) - 1j * dt * sigma_z - (dt**2 / 2) * (sigma_z @ sigma_z)
    assert_allclose(step.matrix, expected, atol=1e-15)


def test_taylor_validates_arguments():
    with pytest.raises(ValueError, match="order"):
        taylor_propagator(H_CONST, 0.0, 0.01, order=3)
    with pytest.raises(ValueError, match="dt"):
        taylor_propagator(H_CONST, 0.0, -0.01, order=1)


# ---------------------------------------------------------------------------
# Dyson

def test_dyson_matches_taylor_for_constant_h():
    dt = 0.01
    d2 = dyson_propagator(H_CONST, 0.0, dt, order=2)
    t2 = taylor_propagator(H_CONST, 0.0, dt, order=2)
    assert np.max(np.abs(d2.matrix - t2.matrix)) < 1e-12


def test_dyson_first_order_term_linear_h():
    h = h_linear()
    t0, dt = 0.3, 0.05
    step = dyson_propagator(h, t0, dt, order=1)
    integral = h.evaluate(t0) * dt + h.partial_time(t0) * dt**2 / 2
    assert np.max(np.abs((step.matrix - np.eye(2)) - (-1j) * integral)) < 1e-10


def test_dyson_zero_step_is_identity():
    step = dyson_propagator(H_ROTATING, 0.2, 0.0, order=2)
    assert_allclose(step.matrix, np.eye(2), atol=1e-15)


def test_dyson_validates_arguments():
    with pytest.raises(ValueError, match="order"):
        dyson_propagator(H_CONST, 0.0, 0.01, order=0)


@pytest.mark.parametrize("propagator", [taylor_propagator, dyson_propagator])
@pytest.mark.parametrize("order", [1, 2])
def test_short_time_propagators_reject_nan_step(propagator, order):
    with pytest.raises(ValueError, match="dt must be nonnegative, got nan"):
        propagator(H_ROTATING, 0.0, float("nan"), order=order)


def test_taylor_rejects_infinite_step():
    for order in (1, 2):
        with pytest.raises(ValueError, match="dt must be finite, got inf"):
            taylor_propagator(H_ROTATING, 0.0, math.inf, order=order)


def test_dyson_rejects_infinite_step():
    for order in (1, 2):
        with pytest.raises(ValueError, match="dt must be finite, got inf"):
            dyson_propagator(H_ROTATING, 0.0, math.inf, order=order)


def test_exact_propagator_rejects_non_finite_step_but_steps_backwards():
    for dt in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"dt must be finite, got {dt}"):
            exact_propagator(H_CONST, 0.0, dt)
    forward = exact_propagator(H_CONST, 0.0, 0.3).matrix
    backward = exact_propagator(H_CONST, 0.0, -0.3).matrix
    assert_allclose(forward @ backward, np.eye(2), atol=1e-14)


# ---------------------------------------------------------------------------
# order of accuracy

def fitted_slope(errors):
    steps = np.array(sorted(errors, reverse=True))
    logs = np.log(np.array([errors[s] for s in steps]))
    return np.polyfit(np.log(steps), logs, 1)[0]


def test_second_order_schemes_have_cubic_error():
    h = H_CONST.evaluate(0.0)
    taylor_err, dyson_err = {}, {}
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        exact = exact_propagator(H_CONST, 0.0, dt).matrix
        taylor_err[dt] = np.max(np.abs(taylor_propagator(H_CONST, 0.0, dt, 2).matrix - exact))
        dyson_err[dt] = np.max(np.abs(dyson_propagator(H_CONST, 0.0, dt, 2).matrix - exact))
    assert abs(fitted_slope(taylor_err) - 3.0) < 0.2
    assert abs(fitted_slope(dyson_err) - 3.0) < 0.2
    assert np.max(np.abs(h)) > 0  # guard: nontrivial generator


def test_dyson_taylor_gap_is_third_order():
    ks = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        gap = np.max(
            np.abs(
                dyson_propagator(H_ROTATING, 0.1, dt, 2).matrix
                - taylor_propagator(H_ROTATING, 0.1, dt, 2).matrix
            )
        )
        ks.append(gap / dt**3)
    assert max(ks) < 2.0 * min(ks)


# ---------------------------------------------------------------------------
# exact scheme

def test_exact_propagator_unitary():
    for dt in (0.01, 0.5, 2.0):
        step = exact_propagator(H_CONST, 0.0, dt)
        u = step.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= TAU_UNIT * 2
    assert step.scheme == "exact"


def test_exact_propagator_requires_static_h():
    with pytest.raises(ValueError, match="time-independent"):
        exact_propagator(H_ROTATING, 0.0, 0.1)


# ---------------------------------------------------------------------------
# batched quadrature against the node-by-node loop

def reference_dyson(h, t0, dt, order, quad_points=16):
    """Node-by-node Dyson expansion with a fresh Gauss-Legendre rule per interval."""

    def gauss_legendre(a, b, n):
        x, w = np.polynomial.legendre.leggauss(n)
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return mid + half * x, half * w

    dim = h.dim
    t1_nodes, t1_weights = gauss_legendre(t0, t0 + dt, quad_points)
    first = np.zeros((dim, dim), dtype=complex)
    second = np.zeros((dim, dim), dtype=complex)
    for t1, w1 in zip(t1_nodes, t1_weights):
        h1 = h.evaluate(t1)
        first = first + w1 * h1
        if order == 2:
            inner = np.zeros((dim, dim), dtype=complex)
            t2_nodes, t2_weights = gauss_legendre(t0, t1, quad_points)
            for t2, w2 in zip(t2_nodes, t2_weights):
                inner = inner + w2 * h.evaluate(t2)
            second = second + w1 * (h1 @ inner)
    u = np.eye(dim, dtype=complex) - 1j * first
    if order == 2:
        u = u - second
    return u


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "h", [H_CONST, h_linear(), H_ROTATING], ids=["static", "linear", "rotating"]
)
def test_dyson_matches_node_by_node_loop(h, order):
    for t0, dt in ((0.0, 0.01), (0.37, 0.2), (1.5, 0.05), (0.2, 0.0)):
        got = dyson_propagator(h, t0, dt, order).matrix
        assert np.max(np.abs(got - reference_dyson(h, t0, dt, order))) <= 1e-14


def test_gauss_legendre_rule_is_cached_read_only():
    from fluctuation_bounds.dynamics import QUAD_POINTS, _gauss_legendre

    x, w = _gauss_legendre()
    assert _gauss_legendre() is _gauss_legendre()
    assert x.shape == w.shape == (QUAD_POINTS,)
    assert not x.flags.writeable and not w.flags.writeable
    assert_allclose(w.sum(), 2.0, rtol=1e-14)


def test_importing_the_package_leaves_numpy_polynomial_unloaded():
    # The quadrature rule is built on first use, so a run without a Dyson
    # propagator or a polynomial coefficient never imports numpy.polynomial.
    src = str(Path(fluctuation_bounds.__file__).resolve().parent.parent)
    code = ("import sys; import fluctuation_bounds.cli, fluctuation_bounds.dynamics; "
            "print('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
