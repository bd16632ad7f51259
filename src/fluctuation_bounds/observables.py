"""Time-dependent Hermitian observables A(t) = sum_k c_k(t) B_k.

Coefficients come from a closed family of scalar functions with exact
calculus derivatives, so the partial time derivative of an observable is
computed analytically rather than by finite differences.  This keeps
derivative error out of any quantity built on top of it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, json_object, matrix_from_dict, require_hermitian

MAX_POLY_DEGREE = 8

_KINDS = ("constant", "cosine", "sine", "exponential-decay", "polynomial")


@dataclass(frozen=True)
class CoefficientFunction:
    """One real scalar coefficient c(t) from the closed function family.

    kind/params pairs:
      constant            (c,)                 c
      cosine              (a, omega, phi)      a*cos(omega*t + phi)
      sine                (a, omega, phi)      a*sin(omega*t + phi)
      exponential-decay   (a, lam)             a*exp(-lam*t)
      polynomial          (c0, ..., cn) n<=8   sum_k c_k t^k
    """

    kind: str
    params: tuple

    def values(self, times: np.ndarray, derivative: bool = False):
        """(values, error): c(t), or c'(t) if ``derivative``, at each time of
        a 1-D float array, bit for bit the scalar ``math`` formula.  Where
        that raises (``math.exp`` overflows, or omega*t + phi is infinite),
        ``values`` stops before the first such time and ``error`` is its
        exception."""
        if self.kind == "constant":
            return np.full(len(times), 0.0 if derivative else self.params[0]), None
        if self.kind == "polynomial":
            coef = np.polynomial.polynomial.polyder(self.params) if derivative else self.params
            return np.polynomial.polynomial.polyval(times, coef), None
        if self.kind == "exponential-decay":
            # np.exp rounds differently from math.exp on some arguments.
            a, lam = self.params
            scale, out = (-a * lam if derivative else a), []
            try:
                for t in times.tolist():
                    out.append(scale * math.exp(-lam * t))
            except OverflowError as err:
                return np.array(out), err
            return np.array(out), None
        # cosine: a cos(arg), (-a omega) sin(arg); sine: a sin(arg), (a omega) cos(arg)
        a, omega, phi = self.params
        if derivative:
            a = (-a if self.kind == "cosine" else a) * omega
        scalar, vector = (math.cos, np.cos) if (self.kind == "cosine") != derivative else (math.sin, np.sin)
        with np.errstate(over="ignore", invalid="ignore"):  # math raises below instead
            arg = omega * times + phi
            out = a * vector(arg)
        if np.isinf(arg).any():
            k = int(np.argmax(np.isinf(arg)))
            try:
                scalar(arg[k])
            except ValueError as err:
                return out[:k], err
        return out, None


def _is_number(x) -> bool:
    """A real number that is not a bool: a JSON int or float, or numpy's."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _finite_params(params, kind: str) -> tuple:
    for p in params:
        if not _is_number(p):
            raise TypeError(f"{kind} coefficient parameters must be numbers, got {p!r}")
    out = tuple(float(p) for p in params)
    if not all(math.isfinite(p) for p in out):
        raise ValueError(f"{kind} coefficient has non-finite parameters")
    return out


def constant(c: float) -> CoefficientFunction:
    return CoefficientFunction("constant", _finite_params((c,), "constant"))


def cosine(amplitude: float, omega: float, phase: float = 0.0) -> CoefficientFunction:
    return CoefficientFunction("cosine", _finite_params((amplitude, omega, phase), "cosine"))


def sine(amplitude: float, omega: float, phase: float = 0.0) -> CoefficientFunction:
    return CoefficientFunction("sine", _finite_params((amplitude, omega, phase), "sine"))


def exponential_decay(amplitude: float, rate: float) -> CoefficientFunction:
    return CoefficientFunction(
        "exponential-decay", _finite_params((amplitude, rate), "exponential-decay")
    )


def polynomial(coefficients) -> CoefficientFunction:
    params = _finite_params(tuple(coefficients), "polynomial")
    if len(params) == 0:
        raise ValueError("polynomial needs at least one coefficient")
    if len(params) - 1 > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
    return CoefficientFunction("polynomial", params)


def coefficient_from_dict(d: dict) -> CoefficientFunction:
    kind = d.get("kind")
    if kind == "constant":
        return constant(d["value"])
    if kind == "cosine":
        return cosine(d["amplitude"], d["omega"], d.get("phase", 0.0))
    if kind == "sine":
        return sine(d["amplitude"], d["omega"], d.get("phase", 0.0))
    if kind == "exponential-decay":
        return exponential_decay(d["amplitude"], d["rate"])
    if kind == "polynomial":
        return polynomial(d["coefficients"])
    raise ValueError(f"unknown coefficient kind {kind!r}, expected one of {_KINDS}")


@dataclass(frozen=True)
class TimeDependentObservable:
    """Hermitian observable as real coefficients times fixed Hermitian matrices."""

    terms: tuple  # ((CoefficientFunction, ndarray), ...)

    @property
    def dim(self) -> int:
        return self.terms[0][1].shape[0]

    def evaluate(self, t) -> np.ndarray:
        """A(t); Hermitian because coefficients are real.

        ``t`` is one time, giving a (d, d) matrix, or a 1-D array of n
        times, giving the (n, d, d) stack; of a static observable, that is
        its one matrix as a read-only broadcast over the stack.
        """
        return self._combine(t, derivative=False)

    def partial_time(self, t) -> np.ndarray:
        """Exact partial derivative of the explicit time dependence only;
        one time or a 1-D array of times, as for :meth:`evaluate`."""
        return self._combine(t, derivative=True)

    def _combine(self, t, derivative: bool) -> np.ndarray:
        """sum_k c_k(t) B_k (or c_k'(t) B_k) at every time of t.

        Each term's coefficients come from one ``values`` call over all the
        times, bit for bit the scalar formula; its error, if any, is raised
        for the first term that has one.  Each term is then added over the
        whole stack at once, in the order of ``terms``.  A static
        observable's stack is the matrix of its first time, broadcast.
        """
        times, stacked = finite_times(t)
        n, static = len(times), stacked and self.is_static
        if static:
            times = times[:1]  # constant coefficients: one matrix serves every time
        out = np.zeros((len(times),) * stacked + (self.dim, self.dim), dtype=complex)
        for coeff, basis in self.terms:
            values, error = coeff.values(times, derivative)
            if error is not None:
                raise error
            c = values.reshape(-1, 1, 1) if stacked else values[0]
            out = out + c * basis
        return np.broadcast_to(out, (n, self.dim, self.dim)) if static else out

    @functools.cached_property
    def is_static(self) -> bool:
        return all(coeff.kind == "constant" for coeff, _ in self.terms)


def finite_times(t):
    """(times, stacked): the times of ``t`` as a 1-D float array, and
    whether ``t`` is a 1-D array of times rather than a single time.

    Raises ``ValueError`` naming the first non-finite time.
    """
    stacked = isinstance(t, (np.ndarray, list, tuple)) and np.ndim(t) > 0
    times = np.asarray(t if stacked else [float(t)], dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {times.shape}")
    finite = np.isfinite(times)
    if not finite.all():
        bad = float(times[~finite][0]) if stacked else t
        raise ValueError(f"time must be finite, got {bad!r}")
    return times, stacked


def observable(terms) -> TimeDependentObservable:
    """Build an observable from (coefficient, Hermitian matrix) pairs."""
    if not terms:
        raise ValueError("observable needs at least one term")
    checked = []
    for coeff, basis in terms:
        checked.append((coeff, require_hermitian(as_matrix(basis), "observable basis matrix")))
    dim = checked[0][1].shape[0]
    for _, basis in checked[1:]:
        if basis.shape[0] != dim:
            raise ValueError(f"dimension mismatch: {basis.shape[0]} vs {dim}")
    return TimeDependentObservable(terms=tuple(checked))


def static_observable(matrix: np.ndarray) -> TimeDependentObservable:
    return observable([(constant(1.0), matrix)])


def observable_from_dict(d: dict) -> TimeDependentObservable:
    entries = json_object(d)["terms"]
    if not isinstance(entries, list):
        raise TypeError(f"terms must be a list, got {entries!r}")
    terms = []
    for i, term in enumerate(entries):
        if not isinstance(term, dict):
            raise TypeError(f"terms[{i}] must be an object, got {term!r}")
        terms.append((coefficient_from_dict(term), matrix_from_dict(json_object(term["matrix"], "matrix"))))
    return observable(terms)
