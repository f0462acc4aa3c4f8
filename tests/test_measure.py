import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    AbsoluteContinuityViolation,
    ConvexDecomposition,
    DensityOperator,
    DensityFunction,
    DiscreteMeasure,
    NotAProductSpace,
    OutcomeSpace,
    ProductSpace,
    PureState,
    SpaceMismatch,
    UnknownLabel,
    ValidationError,
    dirac,
    marginal,
)
from qcorr.correlation import split_report
from qcorr.scenario import _real

BITS = OutcomeSpace(("0", "1"))
TRITS = OutcomeSpace(("a", "b", "c"))
ONE = OutcomeSpace(("x",))


def measures(space):
    """Strategy: random strictly positive measures on `space`."""
    size = len(space.labels)
    return (
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=size,
            max_size=size,
        )
        .map(lambda raw: [v / math.fsum(raw) for v in raw])
        .map(lambda ws: DiscreteMeasure(space, dict(zip(space.labels, ws))))
    )


def test_outcome_space_validation():
    with pytest.raises(ValidationError):
        OutcomeSpace(())
    with pytest.raises(ValidationError):
        OutcomeSpace(("x", "x"))
    with pytest.raises(ValidationError):
        OutcomeSpace(("x", ""))


def test_product_space_points_row_major():
    space = ProductSpace(BITS, TRITS)
    assert space.points[:3] == (("0", "a"), ("0", "b"), ("0", "c"))
    assert len(space.points) == 6


def test_product_space_rejects_nested_products():
    with pytest.raises(ValidationError):
        ProductSpace(ProductSpace(BITS, BITS), BITS)


def test_measure_fills_missing_outcomes_with_zero():
    nu = DiscreteMeasure(BITS, {"0": 1.0})
    assert nu.weight("1") == 0.0
    assert nu.support() == ("0",)


def test_measure_validation():
    with pytest.raises(ValidationError, match="sum"):
        DiscreteMeasure(BITS, {"0": 0.4, "1": 0.4})
    with pytest.raises(ValidationError, match="negative"):
        DiscreteMeasure(BITS, {"0": 1.2, "1": -0.2})
    with pytest.raises(UnknownLabel):
        DiscreteMeasure(BITS, {"2": 1.0})


def test_dirac_is_point_mass():
    nu = dirac(TRITS, "b")
    assert nu.weight("b") == 1.0
    assert nu.support() == ("b",)


@pytest.mark.parametrize(
    "space, outcome", [(TRITS, "b"), (ONE, "x"), (ProductSpace(BITS, TRITS), ("1", "c"))]
)
def test_dirac_holds_the_bits_of_the_checked_point_mass(space, outcome):
    nu = dirac(space, outcome)
    checked = DiscreteMeasure.from_array(space, np.eye(len(space))[space.outcomes.index(outcome)])
    assert nu.space is space
    assert nu.as_array().dtype == checked.as_array().dtype
    assert nu.as_array().tobytes() == checked.as_array().tobytes()
    assert not nu.as_array().flags.writeable
    with pytest.raises(UnknownLabel):
        dirac(space, "z")


def test_dirac_is_valid_by_construction_and_reads_no_eps(monkeypatch):
    monkeypatch.setenv("QCORR_EPS", "eps")
    assert dirac(TRITS, "c").weight("c") == 1.0
    with pytest.raises(ValidationError, match="QCORR_EPS must be a number"):
        DiscreteMeasure.from_array(TRITS, [0.0, 0.0, 1.0])


def test_weights_summing_past_the_float_range_sum_to_inf():
    # math.fsum raises OverflowError on such a sum; it reads as inf
    with pytest.raises(ValidationError) as excinfo:
        DiscreteMeasure.from_array(BITS, [1e308, 1e308])
    assert str(excinfo.value) == "weights sum to inf, expected 1"
    with pytest.raises(ValidationError, match="^weights sum to inf, expected 1$"):
        DiscreteMeasure(BITS, {"0": 1e308, "1": 1e308})


@given(measures(BITS), measures(TRITS))
def test_product_marginals_recover_factors(nu1, nu2):
    space = ProductSpace(BITS, TRITS)
    joint = DiscreteMeasure.from_array(space, np.multiply.outer(nu1.as_array(), nu2.as_array()))
    left = marginal(joint, "left")
    right = marginal(joint, "right")
    for label in BITS.labels:
        assert left.weight(label) == pytest.approx(nu1.weight(label), abs=1e-12)
    for label in TRITS.labels:
        assert right.weight(label) == pytest.approx(nu2.weight(label), abs=1e-12)


def test_marginal_requires_product_space():
    with pytest.raises(NotAProductSpace):
        marginal(dirac(BITS, "0"), "left")


def quotient(num, den):
    """rho_t of `split_report` on a k x 1 grid: the density num / den."""
    space = ProductSpace(num.space, ONE)
    one = np.ones(1)
    report = split_report(
        DiscreteMeasure.from_array(space, num.as_array()),
        den,
        DiscreteMeasure.from_array(ONE, one),
        one,
        den.as_array()[None, :],
        one[None, :],
        "explicit",
    )
    return report.rho_t


@given(measures(TRITS), measures(TRITS))
@settings(max_examples=50)
def test_density_reproduces_numerator(num, den):
    rho = quotient(num, den)
    for label in den.support():
        assert rho.value((label, "x")) * den.weight(label) == pytest.approx(
            num.weight(label), abs=1e-12
        )


def test_density_of_measure_against_itself_is_one():
    nu = DiscreteMeasure(TRITS, {"a": 0.2, "b": 0.3, "c": 0.5})
    rho = quotient(nu, nu)
    assert rho.deviation_from(1.0) == pytest.approx(0.0, abs=1e-15)


def test_density_absolute_continuity_violation_names_the_point():
    num = DiscreteMeasure(BITS, {"0": 0.5, "1": 0.5})
    den = dirac(BITS, "0")
    with pytest.raises(AbsoluteContinuityViolation, match=r"at \('1', 'x'\)"):
        quotient(num, den)


def test_density_undefined_off_support():
    num = dirac(BITS, "0")
    den = dirac(BITS, "0")
    rho = quotient(num, den)
    assert rho.get(("1", "x")) is None
    with pytest.raises(UnknownLabel):
        rho.value(("1", "x"))


def test_max_difference_over_shared_support():
    rho1 = DensityFunction(BITS, {"0": 2.0, "1": 1.0})
    rho2 = DensityFunction(BITS, {"0": 2.5})
    assert rho1.max_difference(rho2) == pytest.approx(0.5)
    with pytest.raises(SpaceMismatch):
        rho1.max_difference(DensityFunction(TRITS, {"a": 1.0}))


def test_measure_as_array_row_major():
    space = ProductSpace(BITS, BITS)
    nu = DiscreteMeasure(
        space,
        {("0", "0"): 0.4, ("0", "1"): 0.3, ("1", "0"): 0.2, ("1", "1"): 0.1},
    )
    np.testing.assert_allclose(nu.as_array(), [0.4, 0.3, 0.2, 0.1])


def test_measure_as_array_is_read_only_and_shared():
    nu = DiscreteMeasure(BITS, {"0": 0.25, "1": 0.75})
    assert nu.as_array() is nu.as_array()
    with pytest.raises(ValueError):
        nu.as_array()[0] = 1.0
    rho = DensityFunction(BITS, {"1": 2.0})
    np.testing.assert_array_equal(rho.as_array(), [np.nan, 2.0])
    assert not rho.as_array().flags.writeable


def test_from_array_copies_its_input():
    values = np.array([0.25, 0.75])
    nu = DiscreteMeasure.from_array(BITS, values)
    values[0] = 0.5
    assert nu.weight("0") == 0.25


@pytest.mark.parametrize(
    "values",
    [
        (0.5, 0.5),
        (1.0, -1e-10),
        (math.nan, 1.0),
        (math.inf, 0.0),
        (1.2, -0.2),
        (0.4, 0.4),
        (-0.5, math.nan),
    ],
)
def test_measure_constructors_agree(values):
    """The mapping constructor and `from_array` keep the same array and
    raise the same error, type and message, on the same weights."""
    outcomes = {"0": values[0], "1": values[1]}
    try:
        expected = DiscreteMeasure(BITS, outcomes).as_array()
    except ValidationError as exc:
        with pytest.raises(type(exc)) as raised:
            DiscreteMeasure.from_array(BITS, values)
        assert str(raised.value) == str(exc)
        return
    np.testing.assert_array_equal(DiscreteMeasure.from_array(BITS, values).as_array(), expected)


@pytest.mark.parametrize(
    "values", [(2.0, 0.0), (math.nan, 0.5), (math.inf, 1.0), (1.0, -1e-300), (-0.5, 1.0)]
)
def test_density_constructors_agree(values):
    """As for measures; NaN in the array marks a point off the support, which
    the mapping form expresses by leaving the point out."""
    given = {label: v for label, v in zip(BITS.labels, values) if not math.isnan(v)}
    try:
        expected = DensityFunction(BITS, given).as_array()
    except ValidationError as exc:
        with pytest.raises(type(exc)) as raised:
            DensityFunction.from_array(BITS, values)
        assert str(raised.value) == str(exc)
        return
    np.testing.assert_array_equal(DensityFunction.from_array(BITS, values).as_array(), expected)


def test_density_mapping_rejects_nan():
    with pytest.raises(ValidationError, match="density value nan at '0' is invalid"):
        DensityFunction(BITS, {"0": math.nan})


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: DiscreteMeasure.from_array(BITS, [[1.0], [0.0, 1.0]]),
            "expected 2 values, got a ragged sequence",
        ),
        (
            lambda: DiscreteMeasure.from_array(BITS, [np.zeros(2), np.zeros((2, 3))]),
            "expected 2 values, got a ragged sequence",
        ),
        (
            lambda: DiscreteMeasure.from_array(BITS, ["a", 1.0]),
            "values[0]: expected a number, got 'a'",
        ),
        (
            lambda: DiscreteMeasure(BITS, {"0": "a", "1": 1.0}),
            "weight at '0': expected a number, got 'a'",
        ),
        (
            lambda: DensityFunction.from_array(BITS, [1.0, [2.0]]),
            "expected 2 values, got a ragged sequence",
        ),
        (
            lambda: DensityFunction(BITS, {"1": "q"}),
            "density value at '1': expected a number, got 'q'",
        ),
    ],
)
def test_ragged_or_non_numeric_input_is_a_validation_error(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert str(excinfo.value) == message


HUGE = 10**400  # an int beyond the float range


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiscreteMeasure.from_array(BITS, [HUGE, 0]), "values[0]"),
        (lambda: DiscreteMeasure(BITS, {"0": HUGE}), "weight at '0'"),
        (lambda: DensityFunction.from_array(BITS, [1.0, HUGE]), "values[1]"),
        (lambda: DensityOperator([[HUGE, 0], [0, 1]]), "density matrix[0][0]"),
        (lambda: PureState([1, HUGE]), "state vector[1]"),
        (
            lambda: ConvexDecomposition(
                [(HUGE, PureState([1, 0]))], DensityOperator(np.eye(2) / 2)
            ),
            "decomposition weight",
        ),
        (lambda: _real(HUGE, "state[0]"), "state[0]"),
    ],
)
def test_integer_beyond_the_float_range_is_a_validation_error(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert str(excinfo.value) == f"{message}: number too large for a float"


@pytest.mark.parametrize(
    "values, message",
    [
        (np.array([0.5 + 1j, 0.5]), "values[0]: expected a number, got (0.5+1j)"),
        (np.array([0.5 + 0j, 0.5]), "values[0]: expected a number, got (0.5+0j)"),
        (np.array([[0.5 + 1j, 0.5]]), "values[0][0]: expected a number, got (0.5+1j)"),
        (
            [np.complex128(0.5 + 1j), 0.5],
            "values[0]: expected a number, got np.complex128(0.5+1j)",
        ),
        (
            [np.complex64(0.5 + 0j), 0.5],
            "values[0]: expected a number, got np.complex64(0.5+0j)",
        ),
    ],
)
def test_complex_array_is_rejected_like_the_list_form(values, message):
    forms = (values, values.tolist()) if isinstance(values, np.ndarray) else (values,)
    for form in forms:
        with pytest.raises(ValidationError) as excinfo:
            DiscreteMeasure.from_array(BITS, form)
        assert str(excinfo.value) == message
    if not isinstance(values, np.ndarray):  # a numpy complex scalar in a mapping
        with pytest.raises(ValidationError) as excinfo:
            DiscreteMeasure(BITS, dict(zip(BITS.labels, values)))
        assert str(excinfo.value) == message.replace("values[0]", "weight at '0'")


def test_from_array_rejects_wrong_length():
    with pytest.raises(ValidationError, match="expected 2 values, got 3"):
        DiscreteMeasure.from_array(BITS, [0.2, 0.3, 0.5])
