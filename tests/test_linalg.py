"""Matrix algebra identities, eigensystems, exponentials, validation."""

import itertools
import re

import numpy as np
import pytest
import reference_linalg
from conftest import SCREEN_PASSES, positivity_cases
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scenario_writers import matrix_to_dict

from fluctuation_bounds.channels import amplitude_damping, apply
from fluctuation_bounds.dynamics import analytic_amplitude_damping, integrate, lindblad_model
from fluctuation_bounds.linalg import (
    TAU_HERM,
    TAU_PSD,
    TAU_UNIT,
    _fixed,
    _products,
    as_density_matrix,
    as_matrix,
    hermitian_eigendecomposition,
    matrix_exponential_antihermitian,
    matrix_from_dict,
    require_hermitian,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_z,
    traces,
)
from fluctuation_bounds.observables import constant, observable

# ---------------------------------------------------------------------------
# oracles

TAU_ORTH = 1e-10   # eigenvector orthonormality defect
TAU_RECON = 1e-9   # eigendecomposition reconstruction residual


def reconstruct(dec) -> np.ndarray:
    """sum_j p_j |psi_j><psi_j| of a SpectralDecomposition."""
    return (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T


def gram_defect(dec) -> float:
    """max |V^dagger V - I| of a SpectralDecomposition's eigenvectors."""
    v = dec.eigenvectors
    return float(np.max(np.abs(v.conj().T @ v - np.eye(dec.dim))))


def expm_series_oracle(g: np.ndarray, s: float, terms: int = 20) -> np.ndarray:
    """Partial sum of exp(-i*s*g) = sum_k (-i*s*g)^k / k!."""
    x = -1j * s * np.asarray(g, dtype=complex)
    out = np.eye(g.shape[0], dtype=complex)
    term = np.eye(g.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    return out


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1><1|


# ---------------------------------------------------------------------------
# eigendecomposition

def test_eigh_sigma_z():
    dec = hermitian_eigendecomposition(sigma_z)
    assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-15)
    assert_allclose(dec.eigenvectors[:, 0], [1.0, 0.0], atol=1e-15)
    assert_allclose(dec.eigenvectors[:, 1], [0.0, 1.0], atol=1e-15)


def test_eigh_damped_population_state():
    # Diagonal state diag(1 - e^{-Gt}, e^{-Gt}): eigenvalues are that pair,
    # sorted descending.
    for gt in (0.1, np.log(2.0), 1.0, 3.0):
        p1 = np.exp(-gt)
        rho = np.diag([1.0 - p1, p1]).astype(complex)
        dec = hermitian_eigendecomposition(rho)
        expected = sorted([1.0 - p1, p1], reverse=True)
        assert_allclose(dec.eigenvalues, expected, atol=1e-15)


def test_eigh_reconstruction_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        m = random_hermitian(rng, dim)
        dec = hermitian_eigendecomposition(m)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        assert gram_defect(dec) <= TAU_ORTH
        assert np.max(np.abs(reconstruct(dec) - m)) <= TAU_RECON * max(1.0, np.abs(m).max())


def test_eigh_phase_fix():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = random_hermitian(rng, 4)
        dec = hermitian_eigendecomposition(m)
        for j in range(4):
            v = dec.eigenvectors[:, j]
            k = int(np.argmax(np.abs(v)))
            assert v[k].imag == pytest.approx(0.0, abs=1e-12)
            assert v[k].real > 0


def test_eigh_degenerate_is_deterministic():
    dec1 = hermitian_eigendecomposition(np.eye(3, dtype=complex))
    dec2 = hermitian_eigendecomposition(np.eye(3, dtype=complex))
    assert_allclose(dec1.eigenvalues, np.ones(3), atol=1e-15)
    assert np.array_equal(dec1.eigenvectors, dec2.eigenvectors)
    # Columns are still an orthonormal set reconstructing the identity.
    assert gram_defect(dec1) <= TAU_ORTH
    assert_allclose(reconstruct(dec1), np.eye(3), atol=1e-14)


def test_eigh_degenerate_matches_reference():
    # Ties keep eigh's order, so columns inside a cluster may come out in
    # another order than the reference's tie sort; the spectrum and the
    # matrix they rebuild do not move.
    rng = np.random.default_rng(23)
    for trial in range(300):
        dim = int(rng.integers(2, 7))
        values = rng.choice(rng.uniform(-2.0, 2.0, int(rng.integers(1, dim))), size=dim)
        if trial % 3 == 0:
            values = values + rng.choice([0.0, 1e-13], size=dim)  # near-ties
        u = matrix_exponential_antihermitian(random_hermitian(rng, dim), 1.0)
        m = (u * values) @ u.conj().T
        m = (m + m.conj().T) / 2
        dec = hermitian_eigendecomposition(m)
        ref = reference_linalg.hermitian_eigendecomposition(m)
        assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) <= 1e-12
        assert np.max(np.abs(reconstruct(dec) - m)) <= 1e-14
        assert gram_defect(dec) <= TAU_ORTH


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigendecomposition(sigma_minus)


def test_eigh_stack_equals_the_one_matrix_call_bit_for_bit():
    rng = np.random.default_rng(29)
    for dim in (2, 3, 4, 5):
        u = matrix_exponential_antihermitian(random_hermitian(rng, dim), 1.0)
        tied = (u * np.repeat([0.7, 0.3], [dim - 1, 1])) @ u.conj().T
        pivot_tie = np.zeros((dim, dim), dtype=complex)  # eigenvectors (e_0 +- e_1)/sqrt(2)
        pivot_tie[0, 1] = pivot_tie[1, 0] = 1.0
        members = [random_hermitian(rng, dim) for _ in range(6)]
        members += [np.eye(dim, dtype=complex), (tied + tied.conj().T) / 2, pivot_tie]
        stack = np.array(members)
        dec = hermitian_eigendecomposition(stack)
        assert dec.eigenvalues.shape == (len(stack), dim)
        assert dec.eigenvectors.shape == stack.shape
        assert dec.dim == dim
        for m, values, vectors in zip(stack, dec.eigenvalues, dec.eigenvectors):
            one = hermitian_eigendecomposition(m)
            assert np.array_equal(values, one.eigenvalues)
            assert np.array_equal(vectors, one.eigenvectors)


def test_eigh_stack_raises_the_first_non_hermitian_message():
    stack = np.array([sigma_z, 2 * sigma_minus, sigma_minus])
    with pytest.raises(ValueError) as err:
        hermitian_eigendecomposition(stack)
    with pytest.raises(ValueError) as first:
        hermitian_eigendecomposition(stack[1])
    assert str(err.value) == str(first.value) == "matrix is not Hermitian (defect 2.000e+00)"


# ---------------------------------------------------------------------------
# traces: numpy's trace, bit for bit

SPECIALS = np.array([np.inf, -np.inf, np.nan, 1.5e308, -1.5e308, 1e300, -1e300, 1e-300, -1e-300,
                     0.0, -0.0])


def assert_same_traces(x):
    got, want = traces(x), np.trace(x, axis1=-2, axis2=-1)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    for part in (np.real, np.imag):  # the sign of a zero sum too
        g, w = part(got), part(want)
        assert np.array_equal(np.signbit(g) & ~np.isnan(g), np.signbit(w) & ~np.isnan(w))


def trace_layouts(rng, n, d):
    """The stack of n random (d, d) matrices, wide in magnitude so that
    the order of the sum shows, in each layout ``traces`` follows: C
    order, a slice, a transposed view, a reversed stack, a submatrix
    view, Fortran order and its reversal, and a stack whose stack axis is
    innermost; then one matrix of it in C and Fortran order.  In half the
    matrices about one diagonal entry in two is one of SPECIALS (+-inf,
    nan, near +-1e308 where the order decides an overflow, +-1e+-300, +-0)."""
    shape = (n, d, d)
    x = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
         + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
    special = (rng.random(shape) < 0.5 / d) & (rng.random((n, 1, 1)) < 0.5)
    x.real[special] = rng.choice(SPECIALS, special.sum())
    x.imag[special] = rng.choice(SPECIALS, special.sum())
    wide = np.zeros((2 * n, d + 2, d + 2), dtype=complex)
    wide[::2, 1:-1, 1:-1] = x
    yield x
    yield wide[::2, 1:-1, 1:-1]
    yield x.transpose(0, 2, 1)
    yield x[::-1]
    yield np.asfortranarray(x)
    yield np.asfortranarray(x)[::-1]
    yield np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
    if n:
        yield x[0]
        yield np.asfortranarray(x[0])


@pytest.mark.parametrize("dims", [range(1, 17), range(17, 67), range(67, 131)], ids=str)
def test_traces_match_numpy_bit_for_bit(dims):
    # Stacks of n >= 4d with d <= 64 take the column sums, the rest
    # numpy's trace; n = 4d - 1 and 4d, d = 64 and 65 sit on either side.
    # Long stacks at every d up to 16, and at each d mod 4 near 32 and 64.
    rng = np.random.default_rng(dims.start)
    for d in dims:
        lengths = [0, 1, 2]
        if d <= 16 or 29 <= d <= 32 or 61 <= d <= 66:
            lengths += [64, 4 * d - 1, 4 * d] + ([479] if d <= 16 else [])
        for n in lengths:
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, in both
                for x in trace_layouts(rng, n, d):
                    assert_same_traces(x)
        zeros = np.full((max(lengths + [3]), d, d), complex(-0.0, -0.0))
        zeros[1, 0, 0] = 0.0
        for x in (zeros, np.asfortranarray(zeros), zeros[2]):
            assert_same_traces(x)  # numpy's identity +0.0 turns a -0.0 sum positive


def test_traces_shapes_and_types():
    assert isinstance(traces(sigma_z), np.complex128) and traces(sigma_z) == 0.0
    empty = traces(np.zeros((0, 3, 3), dtype=complex))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert traces(np.eye(2)) == 2.0 and traces(np.eye(2)).dtype == np.float64
    with pytest.raises(ValueError):
        traces(np.ones(3, dtype=complex))


def test_traces_of_stacks_of_copies_match_numpy():
    # A stack with stack stride 0 (np.broadcast_to) takes numpy's pairwise
    # order, as C order does, not the left-to-right one of Fortran order.
    rng = np.random.default_rng(7)
    for d in (2, 4, 5, 8, 9, 16, 33, 64):
        for x in itertools.islice(trace_layouts(rng, 1, d), 1):
            for n in (4 * d, 479):
                with np.errstate(invalid="ignore", over="ignore"):
                    assert_same_traces(np.broadcast_to(x[0], (n, d, d)))


def test_require_hermitian_checks_a_stack_of_copies_on_its_one_matrix():
    # The same verdict and message as for the stack written out in full.
    for one in (sigma_z + 1e-6 * sigma_plus, sigma_x + 0j, np.array([[1.0, np.inf], [np.inf, 1.0]])):
        copies = np.broadcast_to(np.asarray(one, dtype=complex), (9, 2, 2))
        try:
            want = require_hermitian(np.array(copies), "observable matrix")
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                require_hermitian(copies, "observable matrix")
        else:
            got = require_hermitian(copies, "observable matrix")
            assert got is copies and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# products: numpy's matmul, bit for bit

def assert_same_products(got, want):
    # The same bits, signs of zeros and nans included.
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def wide_complex(rng, shape):
    """Random entries wide in magnitude, so the order of each dot product
    shows, about one in five of them one of SPECIALS."""
    x = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
         + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
    special = rng.random(shape) < 0.2
    x.real[special] = rng.choice(SPECIALS, special.sum())
    x.imag[special] = rng.choice(SPECIALS, special.sum())
    return x


def product_layouts(rng, n, d):
    """An (n, d, d) stack in C order, as a slice, as transposed and
    conjugate-transposed views, and in Fortran order."""
    x = wide_complex(rng, (n, d, d))
    wide = np.zeros((2 * n, d + 1, d + 2), dtype=complex)
    wide[::2, 1:, 1:-1] = x
    yield x
    yield wide[::2, 1:, 1:-1]
    yield x.transpose(0, 2, 1)
    yield x.conj().transpose(0, 2, 1)
    yield np.asfortranarray(x)


@pytest.mark.parametrize("dims", [range(1, 7), range(7, 12), range(12, 17)], ids=str)
def test_products_match_numpy_bit_for_bit(dims):
    # A stack times one (d, d*M) matrix, 2-D or a stack of copies, runs
    # as one product of n*d rows; a stack of copies times one matrix as
    # one (d, d*M) product. Each must give np.matmul's entries.
    rng = np.random.default_rng(dims.start)
    for d in dims:
        for n in (0, 1, 2, 3, 4 * d, 64, 479, 2000):
            m = d * (1 + n % 5)  # every column count d..5d over the lengths
            y = wide_complex(rng, (d, m))
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, in both
                for x in product_layouts(rng, n, d):
                    for right in (y, np.broadcast_to(y, (n, d, m)), np.asfortranarray(y)):
                        assert_same_products(_products(x, right), np.matmul(x, right))
                copies = np.broadcast_to(wide_complex(rng, (d, d)), (n, d, d))
                for right in (y, np.broadcast_to(y, (n, d, m))):
                    assert_same_products(_products(copies, right), np.matmul(copies, right))


def test_products_forms_one_product_of_stacks_of_copies():
    rng = np.random.default_rng(8)
    a, b = wide_complex(rng, (3, 3)), wide_complex(rng, (3, 6))
    with np.errstate(invalid="ignore", over="ignore"):
        out = _products(np.broadcast_to(a, (50, 3, 3)), np.broadcast_to(b, (50, 3, 6)))
        assert_same_products(_fixed(out), a @ b)
    assert out.shape == (50, 3, 6) and not out.flags.writeable
    assert _fixed(np.broadcast_to(a, (0, 3, 3))) is None and _fixed(a) is None
    assert _fixed(np.zeros((4, 3, 3))) is None


def test_products_pass_other_shapes_to_matmul():
    # One matrix, two varying stacks, a fixed left factor times a varying
    # stack, other dtypes and mismatched shapes: np.matmul's result or error.
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, 5, 3, 3)) + 1j * rng.standard_normal((2, 5, 3, 3))
    copies = np.broadcast_to(x[0], (5, 3, 3))
    for left, right in ((x[0], y[0]), (x[0], y), (x, y), (copies, y), (x.real, y[0].real),
                        (x, y[0].real), (x, np.broadcast_to(y[0], (1, 3, 3)))):
        assert_same_products(_products(left, right), np.matmul(left, right))
    for left, right in ((x, y[0, :2]), (x, np.broadcast_to(y[0], (4, 3, 3)))):
        with pytest.raises(ValueError):
            _products(left, right)


# ---------------------------------------------------------------------------
# matrix exponential

def test_expm_diagonal_generator():
    for theta in (0.3, 1.0, 2.5):
        u = matrix_exponential_antihermitian(sigma_z, theta)
        expected = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        assert_allclose(u, expected, atol=1e-14)


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(23)
    g = random_hermitian(rng, 3)
    assert_allclose(matrix_exponential_antihermitian(g, 0.0), np.eye(3), atol=1e-14)


def test_expm_half_pi_x_rotation():
    u = matrix_exponential_antihermitian(sigma_x, np.pi / 2)
    assert_allclose(u, expm_series_oracle(sigma_x, np.pi / 2, terms=20), atol=1e-13)
    assert_allclose(u, -1j * sigma_x, atol=1e-14)


@settings(max_examples=100)
@given(seed=st.integers(0, 10**6), s=st.floats(-5.0, 5.0), dim=st.integers(2, 6))
def test_expm_unitary(seed, s, dim):
    rng = np.random.default_rng(seed)
    g = random_hermitian(rng, dim)
    u = matrix_exponential_antihermitian(g, s)
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= TAU_UNIT * dim


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential_antihermitian(sigma_plus, 1.0)


# ---------------------------------------------------------------------------
# validation and serialization

def test_as_matrix_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_density_matrix_accepts_valid_states():
    as_density_matrix(np.eye(2) / 2)
    as_density_matrix(PROJ_1)
    rng = np.random.default_rng(29)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    as_density_matrix(rho)


def test_density_matrix_names_violated_invariant():
    with pytest.raises(ValueError, match="hermiticity"):
        as_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        as_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="positivity"):
        as_density_matrix(np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize("m", [
    [[0.5, 1e308], [1e308, 0.5]],
    [[0.5, 9e307, 0.0], [9e307, 0.25, 0.0], [0.0, 0.0, 0.25]],
], ids=["2x2", "3x3"])
def test_density_matrix_with_huge_finite_entries_fails_positivity(m):
    # (m + m^H)/2 overflows to inf here, and eigvalsh of that returns nan
    # (2x2) or does not converge (3x3).  reference_linalg computes it so
    # too, hence the direct assertions.
    with np.errstate(all="raise"), pytest.raises(ValueError, match="violates positivity") as err:
        as_density_matrix(np.array(m, dtype=complex))
    lo = float(re.search(r"min eigenvalue (\S+)\)", str(err.value)).group(1))
    assert lo == -m[0][1]


def test_density_matrix_stack_matches_single_checks():
    rng = np.random.default_rng(37)
    good = []
    for dim in (2, 2, 2):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = m @ m.conj().T
        good.append(rho / np.trace(rho).real)
    assert np.array_equal(as_density_matrix(good), np.stack(good))
    bad = {
        "hermiticity": np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
        "trace": np.eye(2, dtype=complex),
        "positivity": np.diag([1.5, -0.5]).astype(complex),
        "finite": np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex),
    }
    for name, state in bad.items():
        with pytest.raises(ValueError) as single:
            reference_linalg.as_density_matrix(state)
        with pytest.raises(ValueError, match=name) as stacked:
            as_density_matrix(good + [state] + good)
        assert str(stacked.value) == str(single.value)
    # the first bad state is the one reported
    with pytest.raises(ValueError, match="trace"):
        as_density_matrix([good[0], bad["trace"], bad["positivity"]])
    with pytest.raises(ValueError, match="positivity"):
        as_density_matrix([bad["positivity"], bad["trace"]], tau_psd=1e-8)


def _skewed(diagonal, defect):
    """diag(diagonal) with defect added at [0, 1]: Hermiticity defect exactly defect."""
    m = np.diag(diagonal).astype(complex)
    m[0, 1] = defect
    return m


INF, NAN = np.inf, np.nan

# 2 x 2 matrices that one or both validators accept or reject, each kind once.
VALIDATION_CASES = {
    "state": np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]),
    "pure state": np.diag([0.0, 1.0]),
    "observable": np.array([[0.0, -1j], [1j, 0.0]]),
    "non-Hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    "trace drift": np.eye(2),
    "negative eigenvalue": np.diag([1.5, -0.5]),
    "nan": np.array([[NAN, 0.0], [0.0, 1.0]]),
    "nan off the diagonal": np.array([[0.5, NAN], [NAN, 0.5]]),
    "nan and non-Hermitian": np.array([[0.5, NAN], [1.0, 0.5]]),
    "+inf on the diagonal": np.array([[INF, 0.0], [0.0, 1.0]]),
    "-inf on the diagonal": np.array([[-INF, 0.0], [0.0, 1.0]]),
    "inf off the diagonal": np.array([[0.5, INF], [0.0, 0.5]]),
    "inf on both sides": np.array([[0.5, INF], [INF, 0.5]]),
    "-inf imaginary part": np.array([[0.5, complex(0.0, -INF)], [complex(0.0, INF), 0.5]]),
    "scale 1, defect below": _skewed([0.5, 0.5], 0.99 * TAU_HERM),
    "scale 1, defect above": _skewed([0.5, 0.5], 1.01 * TAU_HERM),
    "scale 1000, defect below": _skewed([1000.0, -999.0], 0.99 * TAU_HERM * 1000),
    "scale 1000, defect above": _skewed([1000.0, -999.0], 1.01 * TAU_HERM * 1000),
    "scale 1000, defect of scale 1 above": _skewed([1000.0, -999.0], 1.01 * TAU_HERM),
}

VALIDATORS = {
    "require_hermitian": (
        lambda m: require_hermitian(m, "thing"),
        lambda m: reference_linalg.require_hermitian(m, "thing"),
    ),
    "as_density_matrix": (as_density_matrix, reference_linalg.as_density_matrix),
}


def validation_outcome(check, m):
    """The error message of check(m), or None after checking what it returned."""
    try:
        out = check(m)
    except ValueError as err:
        return str(err)
    assert out.dtype == complex and np.array_equal(out, m)
    return None


@pytest.mark.parametrize("validator", list(VALIDATORS))
def test_validators_match_the_reference_on_matrices_and_stacks(validator):
    merged, reference = VALIDATORS[validator]
    cases = [np.asarray(m, dtype=complex) for m in VALIDATION_CASES.values()]
    expected = [validation_outcome(reference, m) for m in cases]
    assert None in expected and len(set(expected)) >= 4  # accepts some, fails in several ways
    for m, want in zip(cases, expected):
        assert validation_outcome(merged, m) == want
    # In a stack, the first matrix the reference rejects names the failure.
    valid = cases[0]
    for (a, want_a), (b, want_b) in itertools.product(zip(cases, expected), repeat=2):
        stack = np.stack([valid, a, valid, b])
        assert validation_outcome(merged, stack) == (want_a if want_a is not None else want_b)


@pytest.mark.parametrize("tau", [TAU_PSD, 1e-8])
def test_positivity_screen_matches_the_eigvalsh_reference(tau, monkeypatch):
    rng = np.random.default_rng(61)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    merged = lambda m: as_density_matrix(m, tau_psd=tau)  # noqa: E731
    reference = lambda m: reference_linalg.as_density_matrix(m, tau_psd=tau)  # noqa: E731
    for dim in (2, 3, 5, 8):
        cases = positivity_cases(rng, dim, tau)
        expected = {name: validation_outcome(reference, m) for name, m in cases.items()}
        assert expected["lowest -2 tau"] is not None and expected["lowest -0.6 tau"] is None
        for name_a, name_b in itertools.product(cases, repeat=2):
            # [a, b] has an empty valid prefix when a is not finite
            for names in (["valid", name_a, "valid", name_b], [name_a, name_b]):
                calls.clear()
                want = next((expected[n] for n in names if expected[n] is not None), None)
                assert validation_outcome(merged, [cases[n] for n in names]) == want
                # The states before the first non-finite one are checked
                # with no eigenvalue when there are two or more and all
                # are at or above -0.4 tau.
                prefix = list(itertools.takewhile(lambda n: "nan" not in n and "inf" not in n, names))
                assert (not calls) == (len(prefix) > 1 and SCREEN_PASSES.issuperset(prefix))


def test_validators_accept_an_empty_stack():
    empty = np.zeros((0, 3, 3), dtype=complex)
    assert require_hermitian(empty).shape == (0, 3, 3)
    assert as_density_matrix(empty).shape == (0, 3, 3)


ONE_MATRIX_CALLS = {
    "integrate": lambda m: integrate(lindblad_model(None, [sigma_minus]), m, 0.1, 0.01),
    "analytic_amplitude_damping": lambda m: analytic_amplitude_damping(m, 1.0, 0.0, 0.1),
    "channels.apply": lambda m: apply(amplitude_damping(0.5), m),
    "observable": lambda m: observable([(constant(1.0), m)]),
}


@pytest.mark.parametrize("name", list(ONE_MATRIX_CALLS))
def test_one_matrix_functions_reject_a_stack(name):
    stack = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 2, 2\)"):
        ONE_MATRIX_CALLS[name](stack)


def test_matrix_dict_round_trip():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)


def test_matrix_from_dict_real_only():
    m = matrix_from_dict({"re": [[1.0, 0.0], [0.0, -1.0]]})
    assert np.array_equal(m, sigma_z)


def test_matrix_from_dict_shape_mismatch():
    with pytest.raises(ValueError, match="re/im"):
        matrix_from_dict({"re": [[1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
