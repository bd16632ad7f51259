"""Closed-form decay curves of amplitude damping, the reference for figure1.

``builtin --name figure1`` writes its curves as a column view of a
checked run of the example1 model.  This is the independent closed form
they are held to: sigma_z under decay at rate G from the excited state,
one grid time at a time.
"""

import math

from fluctuation_bounds.stats import EPS_SIGMA

_NAN = float("nan")


def figure1_curves(gamma_rate: float, t_max: float, dt: float) -> list:
    """Sampled decay curves (t, mean, spread, speed, closed-bound margin)
    at t = 0, dt, ..., t_max.

    mu = 1 - 2e^{-Gt}, sigma = 2e^{-Gt/2} sqrt(1-e^{-Gt}), v = 2G e^{-Gt/2};
    the margin column is v^2 - (dmu/dt)^2 - (dsigma/dt)^2, undefined (nan)
    where sigma vanishes.
    """
    n = int(round(t_max / dt))
    out = []
    for k in range(n + 1):
        t = k * dt
        u = math.exp(-gamma_rate * t)
        mu = 1.0 - 2.0 * u
        sigma = 2.0 * math.sqrt(u) * math.sqrt(max(1.0 - u, 0.0))
        v = 2.0 * gamma_rate * math.sqrt(u)
        if sigma < EPS_SIGMA:
            margin = _NAN
        else:
            mu_dot_sq = (2.0 * gamma_rate * u) ** 2
            sigma_dot_sq = gamma_rate**2 * u * (2.0 * u - 1.0) ** 2 / (1.0 - u)
            margin = v * v - mu_dot_sq - sigma_dot_sq
        out.append((t, mu, sigma, v, margin))
    return out
