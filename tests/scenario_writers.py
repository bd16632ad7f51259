"""JSON writers for scenario specs, the inverses of the package's readers.

Scenario JSON is input only, so the package has no writers; the
round-trip tests hold each reader to these.
"""

from fluctuation_bounds.linalg import as_matrix


def matrix_to_dict(m) -> dict:
    """Serialize as paired real/imaginary row-major grids."""
    a = as_matrix(m)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def coefficient_to_dict(c) -> dict:
    if c.kind == "constant":
        return {"kind": "constant", "value": c.params[0]}
    if c.kind in ("cosine", "sine"):
        a, omega, phi = c.params
        return {"kind": c.kind, "amplitude": a, "omega": omega, "phase": phi}
    if c.kind == "exponential-decay":
        a, lam = c.params
        return {"kind": c.kind, "amplitude": a, "rate": lam}
    return {"kind": "polynomial", "coefficients": list(c.params)}


def observable_to_dict(a) -> dict:
    terms = []
    for coeff, basis in a.terms:
        d = coefficient_to_dict(coeff)
        d["matrix"] = matrix_to_dict(basis)
        terms.append(d)
    return {"terms": terms}


def scenario_to_dict(spec) -> dict:
    out = {
        "name": spec.name,
        "dimension": spec.dimension,
        "initial_state": matrix_to_dict(spec.initial_state),
        "observable": observable_to_dict(spec.observable),
        "t_max": spec.t_max,
        "dt": spec.dt,
        "bounds": list(spec.bounds),
        "rho_dot_mode": spec.rho_dot_mode,
    }
    if spec.hamiltonian is not None:
        out["hamiltonian"] = observable_to_dict(spec.hamiltonian)
    if spec.jump_terms:
        entries = []
        for m, rate in spec.jump_terms:
            entry = {"matrix": matrix_to_dict(m)}
            if rate is not None:
                entry["rate"] = rate
            entries.append(entry)
        out["jump_operators"] = entries
    return out
