"""Reference oracles: the correlation split computed outcome by outcome, and
the classical kernel validated row by row.

The split is the label-keyed dict implementation the package used before the
array kernel `qcorr.measure.correlation_split` replaced it. It mixes with
`math.fsum`, divides point by point, and builds every per-component
statistic through its own copy of the trace rule `expectation` at the
component's density operator, so it shares no arithmetic with the kernel.
Each denominator's support is taken from linear quantities, as the kernel
takes it: the points where the sum over parts of the smaller weighted
factor exceeds EPS.
`reference_kernel` is the row-by-row validation `ClassicalObservable` ran
before it held one matrix. Tests compare the package with both.
"""

import math

import numpy as np

from qcorr import (
    AbsoluteContinuityViolation,
    DensityOperator,
    DimensionMismatch,
    DiscreteMeasure,
    NonHermitianInput,
    SpaceMismatch,
    UnknownLabel,
    ValidationError,
)
from qcorr.hilbert import _as_complex_matrix, _hermitian_deviation
from qcorr.tolerance import EPS, validation_eps


def expectation(effect, state: DensityOperator) -> float:
    """Expectation value Tr(E D) of an effect at a density operator.

    Parameters
    ----------
    effect : array_like
        Square matrix of the same dimension as `state`. Must be Hermitian;
        positivity is the caller's obligation (every effect produced by this
        package is validated at construction).
    state : DensityOperator

    Returns
    -------
    float
        The real trace value. An imaginary part above tolerance raises
        NonHermitianInput, since it means the inputs were not Hermitian.
    """
    matrix = _as_complex_matrix(effect, name="effect")
    if matrix.shape[0] != state.dim:
        raise DimensionMismatch(
            f"effect dimension {matrix.shape[0]} does not match state dimension {state.dim}"
        )
    eps = validation_eps()
    deviation = _hermitian_deviation(matrix)
    if deviation > eps:
        raise NonHermitianInput(f"effect is not Hermitian (max deviation {deviation:.3e})")
    value = complex(np.trace(matrix @ state.matrix))
    if abs(value.imag) > eps:
        raise NonHermitianInput(f"Tr(E D) has imaginary part {value.imag!r}")
    return float(value.real)


def reference_kernel(domain, codomain, kernel):
    """The points x outcomes matrix `ClassicalObservable(domain, codomain,
    kernel)` holds, built from one validated DiscreteMeasure per row: rows in
    the kernel's order, missing rows reported last."""
    rows = {}
    for point, row in dict(kernel).items():
        if point not in domain:
            raise UnknownLabel(f"kernel row at {point!r} is not a phase-space point")
        if isinstance(row, DiscreteMeasure):
            if row.space != codomain:
                raise SpaceMismatch(f"kernel row at {point!r} lives on the wrong space")
        else:
            row = DiscreteMeasure(codomain, row)
        rows[point] = row
    missing = [p for p in domain.labels if p not in rows]
    if missing:
        raise ValidationError(f"kernel is missing rows for {missing!r}")
    return np.array([rows[p].as_array() for p in domain.labels])


def _trace_rule(observable, state):
    return {o: expectation(observable.effect(o), state) for o in observable.space.outcomes}


def _product(nu1, nu2):
    return {(l, r): a * b for l, a in nu1.items() for r, b in nu2.items()}


def _mix(parts):
    """The mixture sum_i w_i p1_i (x) p2_i of the parts (w_i, p1_i, p2_i) and
    its support: the points where sum_i min(w_i p1_i, w_i p2_i) exceeds EPS."""
    products = [(w, _product(p1, p2)) for w, p1, p2 in parts]
    mixed = {o: math.fsum(w * nu[o] for w, nu in products) for o in products[0][1]}
    bound = {o: math.fsum(min(w * p1[o[0]], w * p2[o[1]]) for w, p1, p2 in parts) for o in mixed}
    return mixed, {o for o, mass in bound.items() if mass > EPS}


def density(num, den, support):
    """Quotient on `support` where den is positive; raises where num has
    mass off it."""
    values = {}
    for outcome, n in num.items():
        d = den[outcome]
        if outcome in support and d > 0.0:
            values[outcome] = max(n, 0.0) / d
        elif n > EPS:
            raise AbsoluteContinuityViolation(
                f"numerator has mass {n!r} at {outcome!r} where the denominator vanishes"
            )
    return values


def _split(joint, marginal_1, marginal_2, parts):
    product, held = _mix([(1.0, marginal_1, marginal_2)])
    classical, mixed = _mix(parts)
    out = {
        "joint": joint,
        "marginal_1": marginal_1,
        "marginal_2": marginal_2,
        "product": product,
        "classical": classical,
        "rho_t": density(joint, product, held),
        "rho_c": None,
        "rho_e": None,
        "rho_c_error": None,
        "rho_e_error": None,
        "residual": None,
    }
    for name, num, den, support in (
        ("rho_c", classical, product, held),
        ("rho_e", joint, classical, mixed),
    ):
        try:
            out[name] = density(num, den, support)
        except AbsoluteContinuityViolation as exc:
            out[f"{name}_error"] = str(exc)
    rho_c, rho_e, rho_t = out["rho_c"], out["rho_e"], out["rho_t"]
    if rho_c is not None and rho_e is not None:
        common = rho_c.keys() & rho_e.keys() & rho_t.keys()
        out["residual"] = max(
            (abs(rho_c[o] * rho_e[o] - rho_t[o]) for o in common), default=0.0
        )
    return out


def quantum_split(joint, a1, a2, decomposition):
    """The split of `correlation_report(joint, a1, a2, decomposition)`."""
    state = decomposition.target
    parts = []
    for weight, component in decomposition.components:
        pure = DensityOperator.from_pure(component)
        parts.append((weight, _trace_rule(a1, pure), _trace_rule(a2, pure)))
    return _split(_trace_rule(joint, state), _trace_rule(a1, state), _trace_rule(a2, state), parts)


def _apply(observable, state):
    return {
        outcome: math.fsum(
            state.weight(point) * observable.row(point).weight(outcome)
            for point in observable.domain.labels
        )
        for outcome in observable.codomain.outcomes
    }


def classical_split(joint, a1, a2, state):
    """The split `run_scenario` reports for a classical scenario."""
    parts = [
        (state.weight(point), dict(a1.row(point).items()), dict(a2.row(point).items()))
        for point in state.space.labels
    ]
    return _split(_apply(joint, state), _apply(a1, state), _apply(a2, state), parts)
