"""Correlation decomposition for finite-dimensional statistical models.

The package measures how strongly two observables are correlated at a state
and splits that correlation, relative to an explicit convex decomposition of
the state, into a mixing part and a part the decomposition cannot explain.
All three quantities are density functions on the product outcome space, not
scalars, so the split is reported pointwise.

Quick start::

    from qcorr import run_paper_example, emit_report

    report = run_paper_example("iii", params={"a": 0.25})
    print(emit_report(report))
"""

from .classical_frame import (
    ClassicalJoint,
    ClassicalObservable,
    PhaseSpace,
    classical_joint,
    classical_report,
    is_deterministic,
    is_marginally_consistent,
)
from .correlation import CorrelationReport, correlation_report
from .errors import (
    AbsoluteContinuityViolation,
    ConvergenceFailure,
    DimensionMismatch,
    JointMarginalMismatch,
    NonCommuting,
    NonHermitianInput,
    NotAProductSpace,
    NotProjective,
    ParseError,
    QcorrError,
    SpaceMismatch,
    UnknownExample,
    UnknownLabel,
    ValidationError,
)
from .examples import (
    PAPER_EXAMPLE_IDS,
    build_paper_example,
    bundled_scenario_names,
    bundled_scenario_text,
    run_paper_example,
)
from .hilbert import (
    ConvexDecomposition,
    DensityOperator,
    PureState,
    hermitian_eigensystem,
    random_decomposition,
    spectral_decompose,
)
from .measure import (
    DensityFunction,
    DiscreteMeasure,
    OutcomeSpace,
    ProductSpace,
    dirac,
    marginal,
)
from .observable import (
    SPIN_LABELS,
    Povm,
    check_joint,
    joint_from_commuting,
    outcome_measure,
    spin_z_pair,
)
from .report import ReportDocument, emit_report
from .scenario import (
    ClassicalScenario,
    QuantumScenario,
    Scenario,
    load_scenario,
    loads_scenario,
    run_scenario,
    scenario_from_jsonable,
    scenario_to_jsonable,
)
from .selftest import SelftestReport, SuiteResult, run_selftest
from .tolerance import (
    DEGENERACY_TOL,
    EPS,
    PRODUCT_RULE_TOL,
    RECONSTRUCTION_TOL,
    validation_eps,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spaces, measures, densities
    "OutcomeSpace",
    "ProductSpace",
    "DiscreteMeasure",
    "DensityFunction",
    "dirac",
    "marginal",
    # quantum states and observables
    "PureState",
    "DensityOperator",
    "ConvexDecomposition",
    "Povm",
    "SPIN_LABELS",
    "hermitian_eigensystem",
    "spectral_decompose",
    "random_decomposition",
    "outcome_measure",
    "joint_from_commuting",
    "check_joint",
    "spin_z_pair",
    # correlation engine
    "CorrelationReport",
    "correlation_report",
    # classical frame
    "PhaseSpace",
    "ClassicalObservable",
    "ClassicalJoint",
    "classical_joint",
    "is_deterministic",
    "is_marginally_consistent",
    "classical_report",
    # scenarios and reports
    "QuantumScenario",
    "ClassicalScenario",
    "Scenario",
    "load_scenario",
    "loads_scenario",
    "scenario_from_jsonable",
    "scenario_to_jsonable",
    "run_scenario",
    "ReportDocument",
    "emit_report",
    # examples and self test
    "PAPER_EXAMPLE_IDS",
    "build_paper_example",
    "run_paper_example",
    "bundled_scenario_names",
    "bundled_scenario_text",
    "SelftestReport",
    "SuiteResult",
    "run_selftest",
    # tolerances
    "EPS",
    "RECONSTRUCTION_TOL",
    "PRODUCT_RULE_TOL",
    "DEGENERACY_TOL",
    "validation_eps",
    # errors
    "QcorrError",
    "ValidationError",
    "ParseError",
    "UnknownExample",
    "UnknownLabel",
    "DimensionMismatch",
    "NonHermitianInput",
    "SpaceMismatch",
    "NotAProductSpace",
    "NotProjective",
    "AbsoluteContinuityViolation",
    "NonCommuting",
    "JointMarginalMismatch",
    "ConvergenceFailure",
]
