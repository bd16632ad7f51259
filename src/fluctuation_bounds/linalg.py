"""Dense complex matrix algebra for small quantum systems.

Everything here works on plain ``numpy`` arrays of shape ``(d, d)`` with
``complex128`` entries; the two validators, ``require_hermitian`` and
``as_density_matrix``, and ``hermitian_eigendecomposition`` also take an
``(n, d, d)`` stack and act on every matrix in it.  Validation raises
``ValueError`` with the name of the violated invariant, for the first
matrix that violates one; it never repairs its input.  Equal eigenvalues
keep ``eigh``'s order.

``_state_verdict`` is the one implementation of the density-matrix
invariants (finite entries, Hermiticity, unit trace within TAU_TRACE,
no eigenvalue below -TAU_PSD): ``as_density_matrix`` raises its message,
and the integrator's span check and the eigenvector-flow spectral
series in ``dynamics`` read it too.  TAU_PSD is the one positivity
floor: a state is checked once, where it is made, at the same floor
whichever check reads it later.

``traces`` is the one trace of the package: every stacked statistic,
bound and state check reads it.  numpy's ``trace`` reduces each matrix
of a stack in a call of its own to numpy's complex pairwise sum, which
is compiled for the baseline ISA; right after an OpenBLAS product has
left the AVX-512 upper state dirty, that sum runs several times slower.
On a stack of n >= 4d complex128 matrices with d <= 64, ``traces`` adds
the diagonal columns across the stack with binary ``+`` instead, which
numpy's dispatched loops run, in the order numpy's reduce adds them, so
every result is numpy's bit for bit.  That order follows the layout:

- stacks whose matrix axes are innermost in memory (C order, its
  slices and transposed views) and stacks of copies (stack stride 0):
  numpy's pairwise sum, a plain left-to-right sum for d < 4, and for
  4 <= d <= 64 four accumulators over the entries j mod 4, combined as
  (r0 + r1) + (r2 + r3), then the remaining entries in order;
- stacks whose stack axis is innermost in memory (Fortran order):
  left to right.

Both start from numpy's identity +0.0, which turns a -0.0 sum into
+0.0.  Everything else goes to numpy's ``trace`` itself: one matrix and
stacks shorter than 4d, where n reduce calls cost less than d column
adds; d > 64, where numpy halves the sum recursively; other dtypes.

``_products`` is the one stacked product of the grid pass.  numpy's
``matmul`` of an (n, d, k) stack calls OpenBLAS once per matrix, even
when the right factor is the same matrix at every time: a static
observable, its Heisenberg rate, or the generator's ``right``.
``_products`` runs a complex128 stack (d > 1) times one matrix, a 2-D
array or a stack of copies (stack stride 0, as ``np.broadcast_to``
makes; ``_fixed`` finds its one matrix), as one product of n*d rows, and
two stacks of copies as one (d, m) product broadcast over the stack;
every entry is numpy's bit for bit.  A fixed left factor times a varying
stack keeps numpy's per-matrix product: run as one product, with the
stack's matrices side by side as columns, its entries differ from
numpy's at most d.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Numerical tolerances, sized for double precision at dim <= 16.
TAU_HERM = 1e-10   # Hermiticity defect, scaled by the largest entry magnitude
TAU_TRACE = 1e-8   # unit-trace deviation of density matrices
TAU_PSD = 1e-10    # most negative admissible density-matrix eigenvalue

# Single-qubit operator basis (|0> first).
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
for _m in (sigma_x, sigma_y, sigma_z, sigma_plus, sigma_minus):
    _m.setflags(write=False)


def traces(x) -> np.ndarray:
    """The trace of one (d, d) matrix, or of each in an (n, d, d) stack:
    ``np.trace(x, axis1=-2, axis2=-1)`` bit for bit, with its shape and
    type (a numpy scalar for one matrix)."""
    x = np.asarray(x)
    n, d = (len(x), x.shape[-1]) if x.ndim == 3 else (0, 0)
    if not 0 < 4 * d <= n or d > 64 or x.shape[1] != d or x.dtype != np.complex128:
        # one matrix, a stack shorter than 4d, d > 64, not square or not complex128
        return np.trace(x, axis1=-2, axis2=-1)
    diag = x.diagonal(axis1=1, axis2=2)
    cols = list(diag.T)
    if d < 4 or 0 < abs(diag.strides[0]) < abs(diag.strides[1]):
        return sum(cols, 0.0)  # left to right, from the identity
    # numpy's pairwise block: four accumulators, then the rest in order
    whole = d - d % 4
    r0, r1, r2, r3 = (sum(cols[j + 4:whole:4], cols[j]) for j in range(4))
    return 0.0 + sum(cols[whole:], (r0 + r1) + (r2 + r3))


def _fixed(x: np.ndarray):
    """The one matrix of a nonempty stack of copies (an (n, d, k) array
    with stack stride 0), else None."""
    return x[0] if x.ndim == 3 and len(x) and not x.strides[0] else None


def _products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` bit for bit, with its shape.

    An (n, d, k) complex128 stack x with d > 1 times one (k, m)
    complex128 matrix y, 2-D or a stack of copies, is one (n*d, k) @
    (k, m) product; if x is a stack of copies too, the one (d, m) product
    comes back as a read-only broadcast over the stack.  Everything else
    goes to numpy's ``@``: one matrix x at once, after its one ``ndim``
    test, and a varying stack y after one more; d = 1 too, where numpy's
    per-matrix call is a dot product whose nan results can differ in sign
    from the one product's.
    """
    if x.ndim != 3 or y.ndim == 3 and y.strides[0]:
        return x @ y  # one matrix, or a varying stack: numpy's per-matrix product
    n, d, k = x.shape
    one = y if y.ndim == 2 else _fixed(y)
    if (one is None or (y.ndim == 3 and len(y) != n) or one.shape[0] != k or d < 2
            or x.dtype != np.complex128 or one.dtype != np.complex128):
        return x @ y
    if _fixed(x) is not None:
        return np.broadcast_to(x[0] @ one, (n, d, one.shape[1]))
    return (x.reshape(n * d, k) @ one).reshape(n, d, one.shape[1])


def _square(m, ndims=(2, 3)) -> np.ndarray:
    """m as complex128: one (d, d) matrix, or an (n, d, d) stack of them
    where ``ndims`` allows it."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a square (d, d) complex128 array with finite entries."""
    a = _square(m, (2,))
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _first_non_hermitian(stack: np.ndarray, failure: str):
    """(k, message) for the first matrix of an (n, d, d) stack that has a
    non-finite entry or a Hermiticity defect max |m_ij - conj(m_ji)| above
    TAU_HERM * max(max |m_ij|, 1); (n, None) if none has.  ``failure``
    starts the defect message.
    """
    # A difference of huge finite entries overflows to a defect of inf,
    # and inf - inf is nan in a matrix that fails as non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(stack).all():
            # Every scale is at least 1, so this alone accepts the whole stack.
            if np.abs(stack - stack.conj().transpose(0, 2, 1)).max(initial=0.0) <= TAU_HERM:
                return len(stack), None
        defect = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    finite = np.isfinite(stack).all(axis=(1, 2))
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    bad = ~(finite & (defect <= TAU_HERM * scale))
    k = int(np.argmax(bad))
    if not bad[k]:
        return len(stack), None
    if not finite[k]:
        return k, "matrix entries must be finite"
    return k, f"{failure} (defect {defect[k]:.3e})"


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    """Check one (d, d) matrix or an (n, d, d) stack for Hermiticity.

    Returns the complex array, same shape.  The first matrix with a
    non-finite entry, or a defect above TAU_HERM relative to its largest
    entry (floored at 1), raises ``ValueError``.  A stack of copies is
    checked on its one matrix, with the same verdict.
    """
    a = _square(m)
    stack = a.reshape(-1, a.shape[-1], a.shape[-1])
    if len(stack) > 1 and not stack.strides[0]:
        stack = stack[:1]  # a stack of copies: its one matrix decides
    _, failure = _first_non_hermitian(stack, f"{what} is not Hermitian")
    if failure is not None:
        raise ValueError(failure)
    return a


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dagger)/2 of a matrix or of each in a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _psd_screen(stack: np.ndarray) -> bool:
    """True only if the finite (n, d, d) stack has n > 1 and ``stack +
    (TAU_PSD/2) I`` has a Cholesky factor (from the lower triangle, which
    ``eigvalsh`` reads too): every smallest eigenvalue is then at least
    -TAU_PSD/2 - O(d eps), so above -TAU_PSD.  False decides nothing; a
    single matrix costs ``eigvalsh`` less than this screen."""
    if len(stack) < 2:
        return False
    try:
        np.linalg.cholesky(stack + (0.5 * TAU_PSD) * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _trace_drift(stack: np.ndarray):
    """(tr, drifted): the traces of an (n, d, d) stack, and where they
    miss 1 by more than TAU_TRACE (a nan trace does not)."""
    tr = traces(stack)
    return tr, np.abs(tr - 1.0) > TAU_TRACE


def _state_verdict(stack: np.ndarray):
    """(k, message, lo) for the first state of an (n, d, d) stack that
    breaks an invariant, as ``as_density_matrix`` names it, and lo its
    minimum eigenvalue (nan if it is not finite and Hermitian); (n, None,
    nan) if none does.  ``eigvalsh`` runs only if the states before the
    first non-Hermitian one fail the stacked trace or ``_psd_screen``.
    """
    k, failure = _first_non_hermitian(stack, "density matrix violates hermiticity")
    # The states before k are finite and Hermitian; the first of them to
    # fail trace or positivity comes before k.
    valid = stack[:k]
    tr, drifted = _trace_drift(valid)
    half = 0.5 * valid  # halved before adding: the Hermitian part stays finite
    hermitian = half + half.conj().transpose(0, 2, 1)
    lo = np.nan
    if drifted.any() or not _psd_screen(hermitian):
        lows = np.linalg.eigvalsh(hermitian)[:, 0]  # ascending
        bad = drifted | ~(lows >= -TAU_PSD)  # a nan eigenvalue fails
        if bad.any():
            k = int(np.argmax(bad))
            lo = float(lows[k])
            if drifted[k]:
                failure = f"density matrix violates trace normalization (tr = {tr[k]:.12g})"
            else:
                failure = f"density matrix violates positivity (min eigenvalue {lo:.3e})"
    return k, failure, lo


def as_density_matrix(m) -> np.ndarray:
    """Validate one (d, d) state or an (n, d, d) stack; return the array.

    The first state that breaks an invariant raises ``ValueError`` naming
    the first it breaks: finite entries, "hermiticity", "trace" (within
    TAU_TRACE of 1) or "positivity" (no eigenvalue below -TAU_PSD).  The
    package has this one floor: every state a run reads has passed it.
    """
    rho = _square(m)
    _, failure, _ = _state_verdict(rho.reshape(-1, rho.shape[-1], rho.shape[-1]))
    if failure is not None:
        raise ValueError(failure)
    return rho


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, or of each in a stack,
    eigenvalues descending.

    ``eigenvectors[..., :, j]`` is the unit eigenvector for
    ``eigenvalues[..., j]``, phase-fixed so its largest-magnitude
    component is real and positive.
    """

    eigenvalues: np.ndarray   # (d,) or (n, d) real, descending
    eigenvectors: np.ndarray  # (d, d) or (n, d, d) complex, columns


def hermitian_eigendecomposition(m) -> SpectralDecomposition:
    """Eigendecompose one Hermitian matrix or an (n, d, d) stack of them,
    eigenvalues descending.

    The input must pass the Hermiticity check (the first failing matrix
    of a stack raises); the decomposition then acts on the symmetrized
    matrices to strip round-off asymmetry, in one stacked ``eigh``.
    Equal eigenvalues keep ``eigh``'s order, which is deterministic for a
    given matrix.  A stack gives each matrix's one-matrix result bit for
    bit: the phase factors are numpy scalar divisions, one per column.
    """
    a = require_hermitian(m)
    d = a.shape[-1]
    w, v = np.linalg.eigh(symmetrize(a.reshape(-1, d, d)))
    order = np.argsort(-w, axis=-1, kind="stable")
    stack, cols = np.arange(len(w))[:, None], np.arange(d)
    w, v = w[stack, order], v[stack[:, :, None], cols[:, None], order[:, None, :]]
    pivots = v[stack, np.argmax(np.abs(v), axis=1), cols]
    phases = np.array([z.conjugate() / abs(z) for z in pivots.ravel()]).reshape(pivots.shape)
    return SpectralDecomposition(eigenvalues=w.reshape(a.shape[:-1]),
                                 eigenvectors=(v * phases[:, None, :]).reshape(a.shape))


def matrix_exponential_antihermitian(g: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*g) for Hermitian g, via the spectral decomposition."""
    dec = hermitian_eigendecomposition(require_hermitian(as_matrix(g), "generator"))
    phases = np.exp(-1j * s * dec.eigenvalues)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def _is_number(x) -> bool:
    """A real number that is not a bool: a JSON int or float, or numpy's.
    The one number rule of the scenario reader; a JSON number is let
    through by its exact type, before the slower test against the
    ``numbers.Real`` ABC."""
    return type(x) in (int, float) or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def json_object(value, name: str = "") -> dict:
    """``value`` if it is a JSON object (a dict), else TypeError
    "<name>: must be an object, got <repr>" (no name: from "must")."""
    if not isinstance(value, dict):
        raise TypeError(f"{name}{': ' if name else ''}must be an object, got {value!r}")
    return value


def matrix_from_dict(d: dict) -> np.ndarray:
    """A matrix from paired real/imaginary row-major grids of numbers;
    "im" may be omitted for real input.

    Both grids are converted to floats first, so a ragged grid or an int
    too large for a float fails as numpy fails on it; then the first
    entry of "re", and then of "im", that is not a number (a string, a
    bool, null) raises TypeError.
    """
    re = np.asarray(json_object(d)["re"], dtype=float)
    im = np.asarray(d.get("im", np.zeros_like(re)), dtype=float)
    for grid in (d["re"], d.get("im", 0.0)):
        for x in np.asarray(grid, dtype=object).flat:
            if not _is_number(x):
                raise TypeError(f"matrix entries must be numbers, got {x!r}")
    if re.shape != im.shape:
        raise ValueError("re/im grids must have identical shapes")
    with np.errstate(invalid="ignore"):  # 1j * inf has a nan real part; as_matrix rejects it
        return as_matrix(re + 1j * im)
