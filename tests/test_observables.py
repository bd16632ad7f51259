"""Observable evaluation, exact time derivatives, serialization."""

import numpy as np
import pytest
import reference_coefficients
from numpy.testing import assert_allclose
from reference_points import squared_partial_expectation
from scenario_writers import observable_to_dict

from fluctuation_bounds.linalg import sigma_x, sigma_y, sigma_z
from fluctuation_bounds.observables import (
    MAX_POLY_DEGREE,
    constant,
    cosine,
    exponential_decay,
    observable,
    observable_from_dict,
    polynomial,
    sine,
    static_observable,
)


def rotating_observable():
    # cos(t) sigma_x + sin(t) sigma_y
    return observable([(cosine(1.0, 1.0), sigma_x), (sine(1.0, 1.0), sigma_y)])


def central_difference(a, t, h):
    return (a.evaluate(t + h) - a.evaluate(t - h)) / (2 * h)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_rotating_at_zero_and_half_pi():
    a = rotating_observable()
    assert_allclose(a.evaluate(0.0), sigma_x, atol=1e-15)
    assert_allclose(a.evaluate(np.pi / 2), sigma_y, atol=1e-15)


def test_evaluate_static():
    a = static_observable(sigma_z)
    for t in (0.0, 1.7, -3.0):
        assert_allclose(a.evaluate(t), sigma_z, atol=0)
    assert a.is_static


# ---------------------------------------------------------------------------
# partial_time

def test_partial_time_rotating_at_zero():
    a = rotating_observable()
    assert_allclose(a.partial_time(0.0), sigma_y, atol=1e-15)


def test_partial_time_static_is_zero():
    a = static_observable(sigma_z)
    assert_allclose(a.partial_time(2.3), np.zeros((2, 2)), atol=0)


def test_partial_time_matches_finite_difference():
    rng = np.random.default_rng(37)
    a = observable(
        [
            (cosine(0.7, 2.0, 0.3), sigma_x),
            (sine(1.1, 1.5), sigma_y),
            (exponential_decay(0.9, 0.4), sigma_z),
            (polynomial([0.2, -0.5, 0.0, 0.1]), np.eye(2)),
        ]
    )
    for t in rng.uniform(-2.0, 2.0, size=10):
        fd = central_difference(a, t, 1e-6)
        assert np.max(np.abs(a.partial_time(t) - fd)) < 1e-8


def test_partial_time_quadratic_convergence():
    # Large third derivative so truncation dominates round-off at h = 1e-5.
    a = observable([(cosine(1.0, 3.0), sigma_x)])
    t = 0.37
    errs = {}
    for h in (1e-3, 1e-4, 1e-5):
        errs[h] = np.max(np.abs(a.partial_time(t) - central_difference(a, t, h)))
    c_fit = errs[1e-3] / 1e-3**2
    for h in (1e-4, 1e-5):
        assert errs[h] <= 2.0 * c_fit * h**2
    assert errs[1e-3] > errs[1e-4] > errs[1e-5]


def test_partial_time_linearity():
    t = 0.83
    t1 = (cosine(0.4, 2.2, 0.1), sigma_x)
    t2 = (polynomial([1.0, -2.0, 3.0]), sigma_z)
    combined = observable([t1, t2]).partial_time(t)
    split = observable([t1]).partial_time(t) + observable([t2]).partial_time(t)
    assert np.array_equal(combined, split)


def test_random_samples_stay_hermitian():
    rng = np.random.default_rng(41)
    makers = [
        lambda r: constant(r.uniform(-2, 2)),
        lambda r: cosine(r.uniform(-2, 2), r.uniform(0, 3), r.uniform(0, 6)),
        lambda r: sine(r.uniform(-2, 2), r.uniform(0, 3), r.uniform(0, 6)),
        lambda r: exponential_decay(r.uniform(-2, 2), r.uniform(0, 2)),
        lambda r: polynomial(r.uniform(-1, 1, size=r.integers(1, 9))),
    ]
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            terms.append((makers[rng.integers(len(makers))](rng), (m + m.conj().T) / 2))
        a = observable(terms)
        t = float(rng.uniform(-3, 3))
        for value in (a.evaluate(t), a.partial_time(t)):
            assert np.max(np.abs(value - value.conj().T)) < 1e-12 * max(
                1.0, np.max(np.abs(value))
            )


# ---------------------------------------------------------------------------
# the array kernel against the scalar formulas

KERNEL_CASES = {
    "constant": [constant(-1.3), constant(0.0)],
    "cosine": [cosine(0.8, 2.7, 0.4), cosine(-1.1, 0.3, 5.9)],
    "sine": [sine(-1.1, 1.9, 5.0), sine(0.6, 4.2, 0.0)],
    "exponential-decay": [exponential_decay(0.9, 0.35), exponential_decay(-1.4, -1.2)],
    # the second is constant, so its derivative is a signed zero
    "polynomial": [polynomial([0.2, -0.5, 0.0, 0.1, -0.03, 1e-3, 0.0, -2e-4, 1e-6]), polynomial([-2.0])],
}


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns, signed zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def same_error(a, b) -> bool:
    return type(a) is type(b) and str(a) == str(b)


@pytest.mark.parametrize("kind", list(KERNEL_CASES))
def test_kernel_matches_the_scalar_formula_bit_for_bit(kind):
    rng = np.random.default_rng(71)
    times = np.concatenate([rng.uniform(-25.0, 25.0, 100_000), [0.0, -0.0, 5e-324, -1e-300, 1e-8]])
    for coeff in KERNEL_CASES[kind]:
        for derivative in (False, True):
            got, error = coeff.values(times, derivative)
            want, want_error = reference_coefficients.values(coeff, times.tolist(), derivative)
            assert error is None and want_error is None
            assert same_bits(got, want)


OVERFLOWING = {
    # omega * t overflows to +inf at t = 1e9, then to -inf at t = -1e9
    "cosine, omega t": (cosine(0.7, 1e300, 0.2), [0.5, 1.0, 1.7, -2.0, 1e9, 3.0, -1e9]),
    "sine, omega t": (sine(-0.7, -1e300, 0.2), [0.5, 1.0, 1.7, -2.0, -1e9, 3.0, 1e9]),
    # omega * t is finite; adding phi overflows
    "cosine, phase": (cosine(1.0, 1.0, 1.7e308), [0.0, 1e307, 1.7e308, 2.0]),
    "sine, phase": (sine(1.0, -1.0, -1.7e308), [0.0, 1e307, 1.7e308, 2.0]),
    # exp(100 t) overflows past t = 7.0978
    "exponential-decay": (exponential_decay(0.5, -100.0), [0.0, 1.0, 7.09, 7.1, 3.0, 8.0]),
}


@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_kernel_errors_where_the_scalar_formula_raises(case):
    coeff, times = OVERFLOWING[case]
    for derivative in (False, True):
        got, error = coeff.values(np.array(times), derivative)
        want, want_error = reference_coefficients.values(coeff, times, derivative)
        assert error is not None and same_error(error, want_error)
        assert 0 < len(want) < len(times)
        assert same_bits(got, want)


def test_evaluate_raises_the_first_failing_term_error():
    # The exponential overflows at t = 8, the cosine already at t = 2; the
    # terms are read in order, so the exponential's error comes first.
    a = observable([(exponential_decay(1.0, -100.0), sigma_x), (cosine(1.0, 1e308, 0.0), sigma_z)])
    times = np.array([0.0, 1.0, 2.0, 8.0])
    for method, f in ((a.evaluate, reference_coefficients.value),
                      (a.partial_time, reference_coefficients.derivative)):
        with pytest.raises(OverflowError) as err:
            method(times)
        with pytest.raises(OverflowError) as want:
            [f(coeff, t) for coeff, _ in a.terms for t in times.tolist()]
        assert same_error(err.value, want.value)
        with pytest.raises(ValueError, match="math domain error"):
            method(2.0)


# ---------------------------------------------------------------------------
# squared_partial_expectation

def test_squared_partial_expectation_rotating_is_one():
    # (partial_t A)^2 = I for the rotating observable, so the expectation is 1
    # in any state.
    a = rotating_observable()
    rng = np.random.default_rng(43)
    for t in (0.0, 0.9, 2.4):
        for _ in range(5):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            assert squared_partial_expectation(a, t, rho) == pytest.approx(1.0, abs=1e-12)


def test_squared_partial_expectation_static_is_zero():
    a = static_observable(sigma_z)
    assert squared_partial_expectation(a, 1.0, np.eye(2) / 2) == 0.0


def test_squared_partial_expectation_decaying_z():
    lam = 0.8
    a = observable([(exponential_decay(1.0, lam), sigma_z)])
    rho = np.eye(2) / 2
    for t in (0.0, 0.5, 2.0):
        # partial_t A = -lam e^{-lam t} sigma_z, squared = lam^2 e^{-2 lam t} I
        dm = -lam * np.exp(-lam * t) * sigma_z
        oracle = np.trace(rho @ dm @ dm).real
        got = squared_partial_expectation(a, t, rho)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(lam**2 * np.exp(-2 * lam * t), rel=1e-12)


def test_squared_partial_expectation_dimension_mismatch():
    a = rotating_observable()
    with pytest.raises(ValueError, match="dimension mismatch"):
        squared_partial_expectation(a, 0.0, np.eye(3) / 3)


# ---------------------------------------------------------------------------
# construction and serialization

def test_observable_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one term"):
        observable([])
    with pytest.raises(ValueError, match="Hermitian"):
        observable([(constant(1.0), np.array([[0.0, 1.0], [0.0, 0.0]]))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        observable([(constant(1.0), sigma_x), (constant(1.0), np.eye(3))])
    with pytest.raises(ValueError, match="degree"):
        polynomial(np.ones(MAX_POLY_DEGREE + 2))
    with pytest.raises(ValueError, match="non-finite"):
        cosine(np.inf, 1.0)
    with pytest.raises(ValueError, match="finite"):
        rotating_observable().evaluate(np.nan)


def test_observable_dict_round_trip():
    a = observable(
        [
            (cosine(0.7, 2.0, 0.3), sigma_x),
            (sine(1.1, 1.5), sigma_y),
            (exponential_decay(0.9, 0.4), sigma_z),
            (polynomial([0.2, -0.5, 0.1]), np.eye(2)),
            (constant(-2.0), sigma_z),
        ]
    )
    b = observable_from_dict(observable_to_dict(a))
    for t in (0.0, 0.7, -1.3):
        assert np.array_equal(a.evaluate(t), b.evaluate(t))
        assert np.array_equal(a.partial_time(t), b.partial_time(t))


def test_coefficient_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown coefficient kind"):
        observable_from_dict({"terms": [{"kind": "tanh", "matrix": {"re": [[0.0]]}}]})
