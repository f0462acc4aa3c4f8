"""Reference oracles: the correlation split computed outcome by outcome, and
the classical kernel validated row by row.

The split is the label-keyed dict implementation the package used before the
array kernel `qcorr.measure.correlation_split` replaced it. It mixes with
`math.fsum`, divides point by point, and builds every per-component
statistic through its own copy of the trace rule `expectation` at the
component's density operator, so it shares no arithmetic with the kernel.
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
    outcomes = parts[0][1].keys()
    return {o: math.fsum(w * nu[o] for w, nu in parts) for o in outcomes}


def density(num, den):
    """Quotient on den's support; raises where num has mass off it."""
    values = {}
    for outcome, n in num.items():
        d = den[outcome]
        if d > EPS:
            values[outcome] = max(n, 0.0) / d
        elif n > EPS:
            raise AbsoluteContinuityViolation(
                f"numerator has mass {n!r} at {outcome!r} where the denominator vanishes"
            )
    return values


def _split(joint, marginal_1, marginal_2, classical):
    product = _product(marginal_1, marginal_2)
    out = {
        "joint": joint,
        "marginal_1": marginal_1,
        "marginal_2": marginal_2,
        "product": product,
        "classical": classical,
        "rho_t": density(joint, product),
        "rho_c": None,
        "rho_e": None,
        "rho_c_error": None,
        "rho_e_error": None,
        "residual": None,
    }
    for name, num, den in (("rho_c", classical, product), ("rho_e", joint, classical)):
        try:
            out[name] = density(num, den)
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
        parts.append((weight, _product(_trace_rule(a1, pure), _trace_rule(a2, pure))))
    return _split(
        _trace_rule(joint, state), _trace_rule(a1, state), _trace_rule(a2, state), _mix(parts)
    )


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
        (
            state.weight(point),
            _product(dict(a1.row(point).items()), dict(a2.row(point).items())),
        )
        for point in state.space.labels
    ]
    return _split(_apply(joint, state), _apply(a1, state), _apply(a2, state), _mix(parts))
