"""Continuous-time evolution of density matrices.

Covers the Lindblad generator, fixed-step RK4 integration, the
closed-form amplitude-damping solution, short-time Taylor and Dyson
propagators, and extraction of the Hermitian generator that drives the
eigenvector flow of a trajectory.

The generator is built once per model as an operator sum

    rho_dot = sum_m w_m(t) A_m rho B_m

with M = 2 + (jump operators) + 2 (time-dependent Hamiltonian terms)
terms: -iK rho and rho iK^dagger for K = H_static - (i/2) sum L^dagger L,
one L rho L^dagger per jump, and -i B_k rho, rho i B_k for each
time-dependent term c_k(t) B_k, weighted by w = c_k(t).  Every other
weight is 1.  Whatever M is, one application is two 2-D matmuls,
``left(t) @ (rho @ right).reshape(d*M, d)`` (layout in LindbladModel),
at O(M d^3) cost.  The RK4 integrator, ``lindblad_rhs`` and the
Heisenberg adjoint in ``bounds`` all read this one representation.

RK4 takes small models by step maps: on the d^2 real coordinates of a
Hermitian state, one step is x -> P_n x, and P_n is a polynomial in the
drive coefficients at the step's three stage times.  Its K monomial
matrices are expanded from the operator sum once per ``integrate`` call.
The size rule ``step_map_size(model) <= STEP_MAP_MAX`` (K d^4 doubles)
picks this path; larger models run the operator-sum stage loop.

Both paths read one drive table per run: the drive coefficients at
every stage time of the grid, one array per coefficient, which each
block of CHECK_BLOCK steps slices.  The step-map path also forms the
start, midpoint and end factors of its monomials once per run, and
carries a block's last coordinates over as the next block's first.
Blocks stay at 64 steps because their arithmetic depends on the size:
OpenBLAS rounds a block's (steps, K) @ (K, d^4) product differently at
other row counts.
Integration never repairs its state: ``integrate`` checks trace and
positivity of every step taken, one batch per CHECK_SPAN of four blocks
(the last span holds the steps left over), and the first violation
aborts with the failing time in the message, at most one span after
that step was taken; only then is a drive coefficient's deferred error
raised.

Every state is checked once, where it is made, at the floors of
``linalg.as_density_matrix`` (TAU_TRACE, TAU_PSD): by ``integrate`` or
by ``trajectory_from_states``.  A Trajectory they return holds density
matrices, and the bounds read its states without checking them again,
so whether a run fails on a state does not depend on the checks it asks
for.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TAU_TRACE,
    _products,
    _psd_screen,
    _state_verdict,
    _trace_drift,
    as_density_matrix,
    as_matrix,
    hermitian_eigendecomposition,
    matrix_exponential_antihermitian,
    symmetrize,
    traces,
)
from .observables import TimeDependentObservable, finite_times

CHECK_BLOCK = 64     # RK4 steps per step-map product, drive-table slice and stage-loop fallback
CHECK_SPAN = 4 * CHECK_BLOCK  # RK4 steps per batched trace/positivity check
STEP_MAP_MAX = 300_000  # largest step_map_size that integrate advances by step maps
QUAD_POINTS = 16     # Gauss-Legendre nodes per Dyson propagator integral
G_MIN = 1e-6         # smallest admissible eigenvalue gap for eigenvector pairing


class IntegrationError(RuntimeError):
    """State invariant broke mid-run; carries the failing time."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class LindbladModel:
    """Markovian generator: Hamiltonian part plus jump operators.

    Jump operators carry their rates, e.g. L = sqrt(Gamma) sigma_minus.
    The generator is cached as the operator sum sum_m w_m(t) A_m rho B_m
    in two (d, d*M) matrices laid out so that one application is two
    plain 2-D matmuls:

      ``right[:, m*d + j] = B_m[:, j]``  (the B_m side by side)
      ``left[:, i*M + m] = A_m[:, i]``   (the A_m interleaved column by column)

    so ``(rho @ right).reshape(d*M, d)`` has row i*M + m equal to row i
    of rho B_m, and ``left @`` that sums A_m rho B_m over m.  The last
    2 * len(drive) terms come in pairs, one pair per time-dependent
    Hamiltonian coefficient in ``drive``; every other weight is 1.
    """

    hamiltonian: TimeDependentObservable | None
    jump_operators: tuple
    dim: int
    left: np.ndarray
    right: np.ndarray
    drive: tuple  # CoefficientFunction per time-dependent Hamiltonian term

    @property
    def n_terms(self) -> int:
        return self.right.shape[1] // self.dim

    def terms(self):
        """(A, B): the operator-sum factors as two (M, d, d) stacks."""
        d = self.dim
        a = self.left.reshape(d, d, -1).transpose(2, 0, 1)
        b = self.right.reshape(d, -1, d).transpose(1, 0, 2)
        return a, b

    def weights(self, t) -> np.ndarray:
        """w_m(t): shape (M,) at one time, (n, M) over a 1-D array of n times."""
        times, stacked = finite_times(t)
        values, error = _drive_values(self.drive, times)
        if error is not None:
            raise error
        w = _weights(self, values)
        return w if stacked else w[0]


def _drive_values(drive: tuple, times: np.ndarray):
    """(values, error): the (n, D) drive coefficients at each of the n
    ``times``, one ``values`` call per coefficient.

    If a coefficient raises, ``values`` stops before the earliest time one
    failed at, and ``error`` is that of the first to fail there, as in a
    time-by-time evaluation."""
    if not drive:
        return np.empty((len(times), 0)), None
    columns = [c.values(times) for c in drive]
    n, error = len(times), None
    for v, err in columns:
        if len(v) < n:
            n, error = len(v), err
    return np.column_stack([v[:n] for v, _ in columns]), error


def _weights(model: LindbladModel, values: np.ndarray) -> np.ndarray:
    """The (..., M) weights for (..., D) drive coefficient values: 1 for
    every static term, then each value twice, once per term of its pair."""
    ones = np.ones(values.shape[:-1] + (model.n_terms - 2 * len(model.drive),))
    return np.concatenate([ones, np.repeat(values, 2, axis=-1)], axis=-1)


def lindblad_model(hamiltonian=None, jump_operators=()) -> LindbladModel:
    jumps = tuple(as_matrix(L) for L in jump_operators)
    dims = [L.shape[0] for L in jumps]
    if hamiltonian is not None:
        dims.append(hamiltonian.dim)
    if not dims:
        raise ValueError("model needs a Hamiltonian or at least one jump operator")
    dim = dims[0]
    if any(d != dim for d in dims):
        raise ValueError(f"dimension mismatch across model operators: {dims}")

    # K = H_static - (i/2) sum L^dag L gives -iK rho + rho (iK^dag).
    eye = np.eye(dim, dtype=complex)
    k = np.zeros((dim, dim), dtype=complex)
    drive, drive_pairs = [], []
    for coeff, basis in hamiltonian.terms if hamiltonian is not None else ():
        if coeff.kind == "constant":
            k = k + coeff.params[0] * basis
        else:
            drive.append(coeff)
            drive_pairs += [(-1j * basis, eye), (eye, 1j * basis)]
    for L in jumps:
        k = k - 0.5j * (L.conj().T @ L)
    pairs = [(-1j * k, eye), (eye, 1j * k.conj().T)]
    pairs += [(L, L.conj().T) for L in jumps]
    pairs += drive_pairs
    a = np.stack([p[0] for p in pairs])  # (M, d, d)
    b = np.stack([p[1] for p in pairs])
    left = a.transpose(1, 2, 0).reshape(dim, -1)
    right = b.transpose(1, 0, 2).reshape(dim, -1)
    left.setflags(write=False)
    right.setflags(write=False)
    return LindbladModel(
        hamiltonian=hamiltonian,
        jump_operators=jumps,
        dim=dim,
        left=left,
        right=right,
        drive=tuple(drive),
    )


def _weighted_left(model: LindbladModel, w: np.ndarray) -> np.ndarray:
    """``left`` with each A_m scaled by w_m: (d, d*M) for (M,) weights,
    (n, d, d*M) for (n, M)."""
    d = model.dim
    return (model.left.reshape(d, d, -1) * w[..., None, None, :]).reshape(w.shape[:-1] + model.left.shape)


def _apply(left: np.ndarray, right: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_m A_m rho B_m for weighted ``left`` and ``right`` laid out as in
    LindbladModel, for one state or an (n, d, d) stack: one (d*M, d) block
    per state.  ``rho @ right`` of a stack is one ``_products`` call; the
    weighted ``left`` stays a per-matrix product."""
    return left @ _products(rho, right).reshape(rho.shape[:-2] + (right.shape[-1], rho.shape[-1]))


def lindblad_rhs(model: LindbladModel, rho: np.ndarray, t=0.0) -> np.ndarray:
    """-i[H(t), rho] + sum_k (L rho L^dag - (1/2){L^dag L, rho}).

    Evaluated from the model's cached operator sum, for one state at one
    time or for an (n, d, d) stack of states at a 1-D array of n times
    (one batched application).  No state validation here: RK4 stage
    inputs are not density matrices.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (model.dim, model.dim):
        raise ValueError(f"dimension mismatch: state {rho.shape} vs model dim {model.dim}")
    if rho.ndim == 3 and np.shape(t) != rho.shape[:1]:
        raise ValueError(f"{len(rho)} states need as many times, got shape {np.shape(t)}")
    left = _weighted_left(model, model.weights(t)) if model.drive else model.left
    return _apply(left, model.right, rho)


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid.

    ``integrate`` and ``trajectory_from_states`` hand over read-only
    states that have passed ``as_density_matrix``: finite, Hermitian,
    trace within TAU_TRACE of 1 and no eigenvalue below -TAU_PSD.  The
    bounds rely on that and check no state; the spectral series that
    ``eigenflow_rate_terms`` reads can be built from the states once, on
    its first call.
    """

    times: np.ndarray  # (n,)
    states: np.ndarray  # (n, d, d)
    model: LindbladModel | None  # None when the states came from elsewhere

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return self.times.shape[0]

    def index_of(self, t):
        """Grid index of a time, or the index array of a 1-D array of times."""
        times = np.asarray(t, dtype=float)
        k = np.rint((times - self.times[0]) / self.dt)
        ok = (k >= 0) & (k < len(self))  # false for a non-finite t as well
        k = np.where(ok, k, 0).astype(int)
        ok &= np.abs(self.times[k] - times) <= 1e-6 * self.dt
        if not ok.all():
            bad = t if times.ndim == 0 else times[~ok][0]
            raise ValueError(f"t = {bad} is not on the trajectory grid")
        return int(k) if times.ndim == 0 else k

    @functools.cached_property
    def _spectra(self):
        """The spectral series: ``_stack_spectra`` of every state."""
        return _stack_spectra(self.states)


def trajectory_from_states(times, states, model=None) -> Trajectory:
    """Wrap a read-only copy of externally produced states, enforcing grid
    and state invariants; the caller's array stays as it was.  The states
    pass ``as_density_matrix`` or its ValueError is raised, at the same
    floors as ``integrate``'s checks."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("trajectory needs at least two grid points")
    with np.errstate(invalid="ignore"):  # inf - inf, in a grid that fails anyway
        steps = np.diff(times)
        dt = steps[0]
        if not (dt > 0 and np.max(np.abs(steps - dt)) <= 1e-9 * dt):
            raise ValueError("trajectory grid must be uniform and increasing")
    checked = as_density_matrix(np.array(states, dtype=complex))
    if checked.shape[:-2] != times.shape:
        raise ValueError("times and states lengths differ")
    checked.setflags(write=False)
    return Trajectory(times=times, states=checked, model=model)


def _check_steps(states: np.ndarray, times: np.ndarray) -> None:
    """Trace and positivity of a span of integrated states, at TAU_TRACE
    and TAU_PSD, the floors of ``as_density_matrix``.

    Both RK4 paths build exactly Hermitian states, so a finite span is
    accepted by the state verdict's trace test and ``_psd_screen`` alone,
    without its Hermiticity scan.  Otherwise the full ``_state_verdict``
    decides, and its first failing state raises with its time, trace
    first as for one step: a non-finite trace fails as drift, and a state
    with a non-finite entry whose trace holds has minimum eigenvalue nan.
    """
    if np.isfinite(states).all() and not _trace_drift(states)[1].any() and _psd_screen(states):
        return
    j, failure, lo = _state_verdict(states)
    if failure is None:
        return
    t = float(times[j])
    drift = abs(traces(states[j]).real - 1.0)
    if not drift <= TAU_TRACE:
        raise IntegrationError(f"trace drift {drift:.3e} at t = {t:.6g}", t)
    raise IntegrationError(f"positivity lost (min eigenvalue {lo:.3e}) at t = {t:.6g}", t)


def _drive_table(drive: tuple, times: np.ndarray, dt: float):
    """(start, mid, end, error): the drive coefficients at the start,
    midpoint and end of each step between consecutive grid times, as
    three (n, D) arrays, from one ordered evaluation of the stage times.

    If a coefficient raises, the arrays stop before the first step that
    needs that time and the exception comes back as ``error``, to be
    raised once the steps before are taken and checked.
    """
    stage_times = np.empty(2 * len(times) - 1)
    stage_times[0::2] = times
    stage_times[1::2] = times[:-1] + 0.5 * dt
    v, error = _drive_values(drive, stage_times)
    steps = max(len(v) - 1, 0) // 2
    v = v[:2 * steps + 1]
    return v[0:-1:2], v[1::2], v[2::2], error


def _stage_block(model: LindbladModel, states: np.ndarray, dt: float, start: int, table) -> None:
    """Operator-sum RK4 from states[start - 1] over the steps of the drive
    table ``(start, mid, end)``.

    Each stage applies the model's cached operator sum (O(M d^3) for M
    terms), with the weighted left blocks formed once per stage time, and
    every step is re-symmetrized.
    """
    c_start, c_mid, c_end = table
    if model.drive:
        nodes = _weighted_left(model, _weights(model, np.concatenate([c_start[:1], c_end])))
        mids = _weighted_left(model, _weights(model, c_mid))
    else:
        nodes = mids = np.broadcast_to(model.left, (len(c_mid) + 1,) + model.left.shape)
    rho, right = states[start - 1], model.right
    for j in range(len(c_mid)):
        k1 = _apply(nodes[j], right, rho)
        k2 = _apply(mids[j], right, rho + 0.5 * dt * k1)
        k3 = _apply(mids[j], right, rho + 0.5 * dt * k2)
        k4 = _apply(nodes[j + 1], right, rho + dt * k3)
        rho = symmetrize(rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        states[start + j] = rho


# ---------------------------------------------------------------------------
# step maps: RK4 as one real matrix per step
#
# A Hermitian d x d state has d^2 real coordinates
# x = (diag rho, Re rho_upper, Im rho_upper), upper entries in
# np.triu_indices order.  On them the generator is G(t) = G_0 +
# sum_k c_k(t) G_k, and one RK4 step is x -> P x with
#
#   P = I + h/6 (G1 + 4 G2 + G3) + h^2/6 (G2 G1 + G2 G2 + G3 G2)
#         + h^3/12 (G2 G2 G1 + G3 G2 G2) + h^4/24 G3 G2 G2 G1
#
# for G1, G2, G3 the generator at the start, midpoint and end of the step.
# P is a polynomial in the drive coefficients at those three times: of
# degree <= 1 in the start and end values and <= 2 in the midpoint values.

# (weight, stages of the factors from left to right); 1 start, 2 midpoint, 3 end.
_RK4_PRODUCTS = (
    (1 / 6, (1,)), (4 / 6, (2,)), (1 / 6, (3,)),
    (1 / 6, (2, 1)), (1 / 6, (2, 2)), (1 / 6, (3, 2)),
    (1 / 12, (2, 2, 1)), (1 / 12, (3, 2, 2)),
    (1 / 24, (3, 2, 2, 1)),
)


def step_map_size(model: LindbladModel) -> int:
    """K * d^4: the doubles in a model's K monomial step maps, with
    K = (D+1)^2 (D+1)(D+2)/2 for D drive coefficients."""
    n = len(model.drive) + 1
    return n * n * n * (n + 1) // 2 * model.dim ** 4


@functools.lru_cache(maxsize=16)
def _hermitian_basis(d: int):
    """(basis, diag, iu, ju): the (d^2, d, d) matrices E_a with
    rho = sum_a x_a E_a, the indices of the diagonal and the row and
    column indices of the upper triangle, all read-only."""
    diag = np.arange(d)
    iu, ju = np.triu_indices(d, 1)
    upper = d + np.arange(len(iu))
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[diag, diag, diag] = 1.0
    basis[upper, iu, ju] = basis[upper, ju, iu] = 1.0
    basis[upper + len(iu), iu, ju] = 1j
    basis[upper + len(iu), ju, iu] = -1j
    out = (basis, diag, iu, ju)
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def _state_index(d: int) -> np.ndarray:
    """Read-only (2 d^2,): for each double of a (d, d) complex state (real
    then imaginary part of each entry, row-major), its column in the
    extended coordinates (x, -Im rho_upper, 0) of a d^2 + p + 1 wide
    ``_StepMapRun`` buffer, p = d(d-1)/2.  One gather through it writes a
    state whose lower entries are the conjugates of its upper ones."""
    _, diag, iu, ju = _hermitian_basis(d)
    p = len(iu)
    pair = np.arange(p)
    index = np.full((d, d, 2), d * d + p)  # imaginary diagonal: the zero column
    index[diag, diag, 0] = diag
    index[iu, ju, 0] = index[ju, iu, 0] = d + pair
    index[iu, ju, 1] = d + p + pair
    index[ju, iu, 1] = d * d + pair
    index = index.reshape(-1)
    index.setflags(write=False)
    return index


def _coordinates(m: np.ndarray) -> np.ndarray:
    """The d^2 coordinates of the Hermitian part of a (..., d, d) matrix or stack."""
    _, diag, iu, ju = _hermitian_basis(m.shape[-1])
    off = 0.5 * (m[..., iu, ju] + m[..., ju, iu].conj())
    return np.concatenate([m[..., diag, diag].real, off.real, off.imag], axis=-1)


def _generator_parts(model: LindbladModel) -> np.ndarray:
    """(D+1, d^2, d^2): G_0, the weight-1 terms of the operator sum, then
    one G_k per drive coefficient, from its pair of terms; column a of
    each is that part applied to basis matrix E_a, in coordinates.

    The images A_m E_a B_m of all d^2 basis matrices take two 2-D
    products per term, A_m @ [E_1 | ... | E_{d^2}] and then, its rows
    regrouped, @ B_m: 2M products in two stacked calls."""
    a, b = model.terms()
    d, m = model.dim, len(a)
    row = _hermitian_basis(d)[0].transpose(1, 0, 2).reshape(d, d ** 3)  # [E_1 | ... | E_{d^2}]
    images = ((a @ row).reshape(m, d ** 3, d) @ b).reshape(m, d, d * d, d)  # [m, i, a, j]
    split = m - 2 * len(model.drive)
    parts = [images[:split].sum(axis=0)]
    parts += [images[k:k + 2].sum(axis=0) for k in range(split, m, 2)]
    return _coordinates(np.stack(parts).transpose(0, 2, 1, 3)).transpose(0, 2, 1)


@functools.lru_cache(maxsize=16)
def _pair_indices(n: int):
    """Read-only np.triu_indices(n): the pairs k <= l of midpoint monomials."""
    out = np.triu_indices(n)
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def _word_slots(n: int) -> tuple:
    """Per word length j = 1..4, the (weight, word, slot) terms of the RK4
    products of length j over n generator parts, in ``_RK4_PRODUCTS``
    order and, within a product, in word order: ``word`` indexes the n^j
    words G_k1 ... G_kj in lexicographic order of (k1, ..., kj), and
    ``slot`` is the flat position of the monomial that the product's stage
    coefficients make of it, as ``_step_factors`` orders them."""
    n_pairs = n * (n + 1) // 2
    pairs = np.empty((n, n), dtype=int)  # position of the pair {k, l} in triu order
    ku, lu = _pair_indices(n)
    pairs[ku, lu] = pairs[lu, ku] = np.arange(n_pairs)
    out = []
    for length in range(1, 5):
        terms = []
        for weight, stages in _RK4_PRODUCTS:
            if len(stages) != length:
                continue
            for word, ks in enumerate(itertools.product(range(n), repeat=length)):
                # the factor index per stage; 0 (the static part) where a stage is absent
                at = {1: [], 2: [], 3: []}
                for stage, k in zip(stages, ks):
                    at[stage].append(k)
                start, mid, end = at[1] + [0], at[2] + [0, 0], at[3] + [0]
                terms.append((weight, word, (start[0] * n_pairs + int(pairs[mid[0], mid[1]])) * n + end[0]))
        out.append(tuple(terms))
    return tuple(out)


def _step_monomials(parts: np.ndarray, dt: float) -> np.ndarray:
    """(K, d^4): the flattened C_m of P = sum_m monomial_m * C_m, with the
    K monomials ordered as by ``_step_factors``, for the D+1 generator
    ``parts`` of ``_generator_parts``.

    Every word G_k1 ... G_kj (j <= 4) over the parts is formed once, each
    from its prefix of length j-1, and added to the monomials of
    ``_word_slots``: one per RK4 product of that length.
    """
    n, dim = parts.shape[0], parts.shape[1]
    monomials = np.zeros((n * n * n * (n + 1) // 2, dim, dim))  # K, as in step_map_size
    monomials[0] = np.eye(dim)
    words = [np.eye(dim)]
    for length, terms in enumerate(_word_slots(n), 1):
        words = [w @ p for w in words for p in parts]
        scale = dt ** length
        for weight, word, slot in terms:
            monomials[slot] += weight * scale * words[word]
    return monomials.reshape(-1, dim * dim)


def _step_factors(table):
    """(u1, u2, u3): the factors of the monomials of ``_step_monomials`` for
    the n steps of the drive table ``(start, mid, end)``, formed once per
    run: u1 = [1, c] at the start, u2 the products b_k b_l (k <= l) of
    b = [1, c] at the midpoint, and u3 = [1, c] at the end.  A step's K
    monomials are the outer product u1 x u2 x u3 of its rows."""
    start, mid, end = table
    one = np.ones((len(mid), 1))
    b = np.hstack([one, mid])
    ku, lu = _pair_indices(b.shape[1])
    return np.hstack([one, start]), b[:, ku] * b[:, lu], np.hstack([one, end])


class _StepMapRun:
    """The step-map path of one ``integrate`` run.

    Takes the run CHECK_BLOCK steps at a time, whatever span of blocks
    ``integrate`` checks at once: the bits of a block's step maps depend
    on its row count.  Holds what the run's blocks share, formed once:
    the flat (K, d^4) ``_step_monomials``, the ``_step_factors`` of the
    run's drive table (None undriven), and one (CHECK_BLOCK + 1,
    d^2 + p + 1) coordinate buffer laid out as ``_state_index`` reads it,
    whose last column is zero, with the list of its rows' coordinate
    views.  Row 0 holds the coordinates of the state before the next
    block: carried over from the last row of a block this path took, or
    read from the states after one it did not.
    """

    def __init__(self, model: LindbladModel, dt: float, table):
        d = model.dim
        self.monomials = _step_monomials(_generator_parts(model), dt)
        self.factors = _step_factors(table) if model.drive else None
        self.x = np.zeros((CHECK_BLOCK + 1, d * d + d * (d - 1) // 2 + 1))
        self.rows = list(self.x[:, :d * d])
        self.carried = False

    def map_block(self, states: np.ndarray, start: int, stop: int) -> bool:
        """Step-map RK4 for the states start..stop-1, one matvec per step.

        The block forms its P_n with one (steps, K) @ (K, d^4) product of
        its rows of the factors and the monomials; undriven it reuses the
        one P.  States are written from the buffer by one gather.

        Returns False, writing no state, if a state comes out non-finite:
        the caller then takes the steps by the operator sum, which fails
        where it fails, and the next block reads its first coordinates
        from the states.
        """
        x, d = self.x, states.shape[-1]
        dim, steps = d * d, stop - start
        if not self.carried:
            x[0, :dim] = _coordinates(states[start - 1])
        if self.factors is None:
            maps = np.broadcast_to(self.monomials, (steps, dim * dim))
        else:
            u1, u2, u3 = (f[start - 1:stop - 1] for f in self.factors)
            maps = (u1[:, :, None, None] * u2[:, None, :, None] * u3[:, None, None, :]).reshape(steps, -1)
            maps = maps @ self.monomials
        for step, here, there in zip(maps.reshape(steps, dim, dim), self.rows, self.rows[1:]):
            step.dot(here, out=there)
        taken = x[1:steps + 1]
        self.carried = bool(np.isfinite(taken[:, :dim]).all())
        if not self.carried:
            return False
        p = (dim - d) // 2
        np.negative(taken[:, d + p:dim], out=taken[:, dim:dim + p])
        # mode "clip" writes to out unbuffered; every index is in range
        np.take(taken, _state_index(d), axis=1, mode="clip",
                out=states[start:stop].view(float).reshape(steps, 2 * dim))
        x[0] = x[steps]
        return True


def integrate(model: LindbladModel, rho0, t_max: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 from t = 0 to t_max.

    One drive table per run holds the drive coefficients at the start,
    midpoint and end of every step, one array per coefficient
    (``_drive_table``); each CHECK_BLOCK of steps reads its slice.  Steps
    are taken in blocks of CHECK_BLOCK (64) whatever the check span: a
    block's (steps, K) @ (K, d^4) product rounds differently at other row
    counts, and a block the step maps cannot take is taken whole by the
    stage loop, so blocks of another size would change states' bits.
    Models with ``step_map_size(model) <= STEP_MAP_MAX`` take each step
    as one real matvec ``x -> P_n x`` on the d^2 Hermitian coordinates of
    the state.  The K monomial maps of P and, from the table, the factors of
    their monomials are formed once per call; each block forms its P_n
    with one (steps, K) @ (K, d^4) product, or, undriven (K = 1), reuses
    the one constant P.  The coordinates live in one buffer across
    blocks, each block starting from the last row of the one before.
    States are gathered from the coordinates, so they are exactly
    Hermitian by construction.  A block with a non-finite state is taken
    again by the operator-sum stage loop, which every larger model uses:
    each stage applies the cached operator sum (O(M d^3) for M terms),
    with the weighted left blocks formed from the table once per stage
    time, and states are re-symmetrized every step; the block after it
    reads its coordinates from the states again.

    This function is the one place that checks its states and raises;
    nothing downstream checks them again.  Trace drift and negative
    eigenvalues of every step taken are checked, never corrected: one
    ``linalg`` state verdict per CHECK_SPAN (four blocks, 256 steps; the
    last span holds the steps left over), each on exactly the states
    taken since the check before, so every state is checked once.  The
    first step past TAU_TRACE / TAU_PSD, the floors of
    ``as_density_matrix``, or with a non-finite entry, aborts the run
    with its time, at most one span later, whatever checks the run asks
    for; the blocks after it in its span are taken first.
    A drive coefficient that raised while the table was built stops the
    table short; its error is raised after the steps before it pass.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not t_max < math.inf:
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < dt:
        raise ValueError(f"t_max = {t_max} shorter than one step dt = {dt}")
    n_steps = int(round(t_max / dt))
    rho = as_density_matrix(as_matrix(rho0))
    if rho.shape[0] != model.dim:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]} vs model {model.dim}")

    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, model.dim, model.dim), dtype=complex)
    states[0] = rho
    # A blown-up state surfaces as an IntegrationError below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        *table, error = _drive_table(model.drive, times, dt)
        taken = len(table[1])  # short of n_steps if a drive coefficient raised
        step_maps = _StepMapRun(model, dt, table) if step_map_size(model) <= STEP_MAP_MAX else None
        for span in range(1, taken + 1, CHECK_SPAN):
            end = min(span + CHECK_SPAN, taken + 1)
            for start in range(span, end, CHECK_BLOCK):
                stop = min(start + CHECK_BLOCK, end)
                if step_maps is None or not step_maps.map_block(states, start, stop):
                    _stage_block(model, states, dt, start, [c[start - 1:stop - 1] for c in table])
            _check_steps(states[span:end], times[span:end])
        if error is not None:
            raise error
    states.setflags(write=False)
    return Trajectory(times=times, states=states, model=model)


def analytic_amplitude_damping(rho0, gamma_rate: float, omega: float, t) -> np.ndarray:
    """Closed-form qubit state under decay rate Gamma and splitting omega.

    Populations relax as e^{-Gamma t}; the coherence shrinks by
    e^{-Gamma t/2} and rotates by e^{-i omega t}.  ``t`` is one time,
    giving a (2, 2) state, or a 1-D array of n times, giving the
    (n, 2, 2) stack; rho0 is validated once either way.  Gamma, omega
    and every time must be finite.
    """
    rho0 = as_density_matrix(as_matrix(rho0))
    if rho0.shape[0] != 2:
        raise ValueError("closed-form solution is for dimension 2 only")
    if not gamma_rate >= 0:
        raise ValueError(f"decay rate must be nonnegative, got {gamma_rate}")
    if not (math.isfinite(gamma_rate) and math.isfinite(omega)):
        raise ValueError(f"decay rate and splitting must be finite, got {gamma_rate} and {omega}")
    times, stacked = finite_times(t)
    shape = (len(times),) if stacked else ()
    decay = np.array([math.exp(-gamma_rate * tj) for tj in times.tolist()]).reshape(shape)
    times = np.reshape(times, shape)
    scaled = rho0[0, 1] * np.sqrt(decay)
    phase = np.exp(-1j * omega * times)
    out = np.empty(times.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = rho0[0, 0] + (1.0 - decay) * rho0[1, 1]
    # scaled * phase, spelled out: numpy's vectorised complex product may
    # fuse multiply-adds and round differently from the one-time product.
    out[..., 0, 1].real = scaled.real * phase.real - scaled.imag * phase.imag
    out[..., 0, 1].imag = scaled.real * phase.imag + scaled.imag * phase.real
    out[..., 1, 0] = np.conj(out[..., 0, 1])
    out[..., 1, 1] = decay * rho0[1, 1]
    return out


@functools.cache
def _gauss_legendre():
    """The read-only QUAD_POINTS-node Gauss-Legendre rule on [-1, 1], built
    on first use: most runs never import numpy.polynomial."""
    rule = np.polynomial.legendre.leggauss(QUAD_POINTS)
    for a in rule:
        a.setflags(write=False)
    return rule


def _quadrature(a, b):
    """QUAD_POINTS Gauss-Legendre nodes and weights on [a, b]; for a 1-D
    array b, one rule per entry, as columns of (QUAD_POINTS, len(b))
    arrays."""
    x, w = _gauss_legendre()
    shape = (QUAD_POINTS,) + (1,) * np.ndim(b)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x.reshape(shape), half * w.reshape(shape)


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * stack[j] over the leading axis, in node order."""
    return np.add.reduce(weights[..., None, None] * stack, axis=0)


@dataclass(frozen=True)
class PropagatorStep:
    matrix: np.ndarray
    scheme: str  # exact | taylor1 | taylor2 | dyson1 | dyson2
    interval: tuple  # (t0, t1)


def _check_step(dt: float, nonnegative: bool = True) -> None:
    if nonnegative and not dt >= 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")


def exact_propagator(h: TimeDependentObservable, t0: float, dt: float) -> PropagatorStep:
    """exp(-i H dt); only defined for time-independent H.  A negative dt
    steps backwards."""
    _check_step(dt, nonnegative=False)
    if not h.is_static:
        raise ValueError("exact propagator requires a time-independent Hamiltonian")
    u = matrix_exponential_antihermitian(h.evaluate(t0), dt)
    return PropagatorStep(matrix=u, scheme="exact", interval=(t0, t0 + dt))


def taylor_propagator(h: TimeDependentObservable, t0: float, dt: float, order: int) -> PropagatorStep:
    """Short-time expansion about t0 from H(t0) and its exact derivative."""
    _check_step(dt)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    h0 = h.evaluate(t0)
    dim = h0.shape[0]
    u = np.eye(dim, dtype=complex) - 1j * dt * h0
    if order == 2:
        hdot0 = h.partial_time(t0)
        u = u + (-1j * hdot0 - h0 @ h0) * (dt * dt / 2.0)
    return PropagatorStep(matrix=u, scheme=f"taylor{order}", interval=(t0, t0 + dt))


def dyson_propagator(h: TimeDependentObservable, t0: float, dt: float, order: int) -> PropagatorStep:
    """Time-ordered expansion to first or second order.

    The second-order term integrates H(t1) H(t2) over the triangle
    t0 <= t2 <= t1 <= t0+dt; the inner integral is rescaled onto [t0, t1]
    so Gauss-Legendre nodes stay inside the ordering constraint.
    """
    _check_step(dt)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    t1_nodes, t1_weights = _quadrature(t0, t0 + dt)
    h1 = h.evaluate(t1_nodes)
    u = np.eye(h.dim, dtype=complex) - 1j * _weighted_sum(t1_weights, h1)
    if order == 2:
        # Inner rule on [t0, t1] for every outer node t1 at once: axis 0
        # runs over the inner nodes, axis 1 over the outer ones.
        t2_nodes, t2_weights = _quadrature(t0, t1_nodes)
        h2 = h.evaluate(t2_nodes.reshape(-1)).reshape(t2_nodes.shape + h1.shape[1:])
        u = u - _weighted_sum(t1_weights, h1 @ _weighted_sum(t2_weights, h2))
    return PropagatorStep(matrix=u, scheme=f"dyson{order}", interval=(t0, t0 + dt))


# ---------------------------------------------------------------------------
# eigenvector-flow generator

def _stack_spectra(states: np.ndarray):
    """(dec, failures, gaps) for an (n, d, d) stack of states: the stacked
    eigendecomposition, and per state its ``_state_verdict`` message
    (None for a density matrix) and smallest eigenvalue gap.
    When the stack passes, that is one verdict, one decomposition and one
    gap test; else each state takes a verdict of its own, and a failing
    one is decomposed as the identity, not to be read."""
    failures = [None] * len(states)
    if _state_verdict(states)[1] is not None:
        failures = [_state_verdict(rho[None])[1] for rho in states]
        ok = np.array([f is None for f in failures])
        states = np.where(ok[:, None, None], states, np.eye(states.shape[-1]))
    dec = hermitian_eigendecomposition(states)
    gaps = np.min(-np.diff(dec.eigenvalues, axis=-1), axis=-1, initial=np.inf)
    return dec, failures, gaps


def _usable(spectra, j: int, what: str):
    """(eigenvalues, eigenvectors) of state j of a ``_stack_spectra``
    result ``spectra``.  A state that failed its verdict raises that
    message; one with a gap below G_MIN raises naming ``what``."""
    dec, failures, gaps = spectra
    if failures[j] is not None:
        raise ValueError(failures[j])
    if gaps[j] < G_MIN:
        raise ValueError(f"{what} spectrum is degenerate (min gap {gaps[j]:.3e} < {G_MIN})")
    return dec.eigenvalues[j], dec.eigenvectors[j]


def _pair(va, pb, vb):
    """(vb, pb): the eigenvectors vb and eigenvalues pb of a second state,
    columns reordered onto the eigenvectors va of a first by largest
    overlap and phase-fixed so <psi_j(a)|psi_j(b)> is real positive.
    Raises for the first column whose two best overlaps are within 10%,
    or for an assignment that is not one-to-one."""
    overlap = np.abs(vb.conj().T @ va)  # overlap[k, j] = |<b_k|a_j>|
    ranked = np.argsort(-overlap, axis=0)
    picks, cols = ranked[0], np.arange(len(overlap))
    if len(picks) > 1:
        best, runner = overlap[picks, cols], overlap[ranked[1], cols]
        close = runner >= 0.9 * best
        if close.any():
            j = int(np.argmax(close))
            raise ValueError(
                f"eigenvector pairing ambiguous: overlaps {best[j]:.6f} and "
                f"{runner[j]:.6f} within 10%"
            )
    if len(set(picks.tolist())) != len(picks):
        raise ValueError("eigenvector pairing is not one-to-one")
    vb = np.take(vb, picks, axis=1)
    overlaps = map(np.vdot, va.T, vb.T)  # <psi_j(a)|psi_j(b)>, column by column
    phases = np.array([z.conjugate() / abs(z) for z in overlaps])
    return vb * phases, pb[picks]


def _flow_generator(va: np.ndarray, vb: np.ndarray, dt: float) -> np.ndarray:
    """Hermitian part of i(T - I)/dt for the transfer map T = sum_j
    |vb_j><va_j| between paired eigenvector columns."""
    transfer = vb @ va.conj().T
    return symmetrize(1j * (transfer - np.eye(transfer.shape[0])) / dt)


def _check_flow_step(dt: float) -> None:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_step(dt, nonnegative=False)


def _paired_flow(rho_a, rho_b, dt: float):
    """(va, vb, omega): the eigenvectors of rho_a, the paired ones of
    rho_b, and the flow generator between them.  dt is checked first;
    then the two states are decomposed as one stack and paired once."""
    _check_flow_step(dt)
    a, b = np.asarray(rho_a, dtype=complex), np.asarray(rho_b, dtype=complex)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1] or a.size == 0:
        # each state's own error first, as a one-state series
        for rho, what in ((a, "first state"), (b, "second state")):
            _usable(_stack_spectra(as_matrix(rho)[None]), 0, what)
        raise ValueError(f"states differ in shape: {a.shape} and {b.shape}")
    spectra = _stack_spectra(np.stack([a, b]))
    _, va = _usable(spectra, 0, "first state")
    vb, _ = _pair(va, *_usable(spectra, 1, "second state"))
    return va, vb, _flow_generator(va, vb, dt)


def extract_pseudo_hamiltonian(rho_a, rho_b, dt: float) -> np.ndarray:
    """Hermitian generator moving the eigenvectors of rho_a onto rho_b.

    Builds the transfer map T = sum_j |psi_j(b)><psi_j(a)| from
    overlap-paired, phase-fixed eigenvectors and returns the Hermitian
    part of i(T - I)/dt.  The two states are decomposed as one stack.
    The generator is gauge-dependent; only commutator expectations
    against the state are physical.
    """
    return _paired_flow(rho_a, rho_b, dt)[2]


def pseudo_hamiltonian_residuals(rho_a, rho_b, dt: float) -> np.ndarray:
    """Per-eigenvector norms ||(I - i Omega dt) psi_j(a) - psi_j(b)||,
    with Omega from ``extract_pseudo_hamiltonian``; the two states are
    decomposed as one stack and paired once."""
    va, vb, omega = _paired_flow(rho_a, rho_b, dt)
    step = np.eye(omega.shape[0], dtype=complex) - 1j * dt * omega
    return np.linalg.norm(step @ va - vb, axis=0)


def eigenflow_rate_terms(traj: Trajectory, a: TimeDependentObservable, k: int):
    """Decompose d<A>/dt at interior grid index k into the eigenvalue-drift,
    explicit-time and eigenvector-flow contributions.

    Eigenvalue rates use central differences with overlap pairing against
    the middle point; the flow generator is extracted over the forward
    step, so the decomposition carries O(dt) error overall.  The states
    at k - 1, k and k + 1 are read from the trajectory's spectral series,
    which its first call builds from all states at once (one validation,
    one stacked decomposition, one gap test), and the (k, k + 1) pairing
    serves both the eigenvalue rate and the flow generator.
    """
    if not 0 < k < len(traj) - 1:
        raise ValueError(f"index {k} has no two-sided neighbors")
    dt = traj.dt
    rho_k = traj.states[k]
    t_k = float(traj.times[k])
    spectra = traj._spectra
    _, vecs = _usable(spectra, k, "first state")
    v_next, p_next = _pair(vecs, *_usable(spectra, k + 1, "second state"))
    _, p_prev = _pair(vecs, *_usable(spectra, k - 1, "second state"))
    p_dot = (p_next - p_prev) / (2.0 * dt)

    a_k = a.evaluate(t_k)
    diag_a = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), a_k, vecs))
    pdot_term = float(np.dot(p_dot, diag_a))
    partial_term = float(traces(rho_k @ a.partial_time(t_k)).real)
    _check_flow_step(dt)
    omega = _flow_generator(vecs, v_next, dt)
    omega_term = float((1j * traces(rho_k @ (omega @ a_k - a_k @ omega))).real)
    return pdot_term, partial_term, omega_term
