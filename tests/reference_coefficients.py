"""Scalar coefficient formulas and the time-major drive table, as written
before coefficients were evaluated as arrays.

``value`` and ``derivative`` evaluate one ``CoefficientFunction`` at one
time with the ``math`` formula of its kind, raising what that formula
raises.  ``drive_values`` evaluates a drive table time by time, every
coefficient at each time, and stops at the first that raises.  Tests hold
``CoefficientFunction.values`` and ``dynamics._drive_values`` to them bit
for bit, errors included.
"""

import math

import numpy as np


def value(coeff, t: float) -> float:
    if coeff.kind == "constant":
        return coeff.params[0]
    if coeff.kind == "cosine":
        a, omega, phi = coeff.params
        return a * math.cos(omega * t + phi)
    if coeff.kind == "sine":
        a, omega, phi = coeff.params
        return a * math.sin(omega * t + phi)
    if coeff.kind == "exponential-decay":
        a, lam = coeff.params
        return a * math.exp(-lam * t)
    return float(np.polynomial.polynomial.polyval(t, coeff.params))


def derivative(coeff, t: float) -> float:
    if coeff.kind == "constant":
        return 0.0
    if coeff.kind == "cosine":
        a, omega, phi = coeff.params
        return -a * omega * math.sin(omega * t + phi)
    if coeff.kind == "sine":
        a, omega, phi = coeff.params
        return a * omega * math.cos(omega * t + phi)
    if coeff.kind == "exponential-decay":
        a, lam = coeff.params
        return -a * lam * math.exp(-lam * t)
    dcoef = np.polynomial.polynomial.polyder(np.asarray(coeff.params, dtype=float))
    return float(np.polynomial.polynomial.polyval(t, dcoef))


def values(coeff, times, derivative_: bool = False):
    """(values, error) over a sequence of times, one scalar call each."""
    f = derivative if derivative_ else value
    out, error = [], None
    try:
        for t in times:
            out.append(f(coeff, t))
    except (ValueError, OverflowError) as err:
        error = err
    return np.array(out, dtype=float), error


def drive_values(drive: tuple, times):
    """(values, error): the (n, D) coefficients, time by time; at the first
    time where a coefficient raises, the rows stop and its error returns."""
    rows, error = [], None
    try:
        for t in times:
            rows.append([value(c, t) for c in drive])
    except (ValueError, OverflowError) as err:
        error = err
    return np.array(rows).reshape(-1, len(drive)), error
