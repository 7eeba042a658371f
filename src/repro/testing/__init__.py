"""``repro.testing`` — the verification layer.

Library-grade oracles any PR can call to prove it kept the numerics:

* :mod:`~repro.testing.gradcheck` — central-difference gradient checking
  with dtype-aware tolerances and per-element failure reports;
* :mod:`~repro.testing.equivalence` — parallel-equivalence oracle: every
  simulated-cluster parallelism vs its single-rank reference;
* :mod:`~repro.testing.fuzz` — seeded property-based fuzzing of the
  tensor-engine ops against independent float64 references;
* :mod:`~repro.testing.conformance` — collective value + byte-accounting
  conformance for the simulated communicator;
* :mod:`~repro.testing.golden` — golden-file regression checks for
  rendered artifacts (benchmark tables).

See DESIGN.md's "Verification layer" section for the guarantees each
oracle provides and how to wire one into a new test.
"""

from .conformance import (
    ASYNC_COLLECTIVES,
    COLLECTIVES,
    CollectiveResult,
    ConformanceFailure,
    ConformanceReport,
    check_async_collective,
    check_collective,
    check_in_place,
    expected_sent_bytes,
    run_async_conformance,
    run_conformance,
    run_in_place_conformance,
)
from .equivalence import (
    PARALLELISMS,
    Comparison,
    EquivalenceFailure,
    EquivalenceReport,
    check_parallel_equivalence,
    oracle_config,
    warm_head,
)
from .fuzz import OPS, FuzzFailure, FuzzReport, OpSpec, fuzz_ops, seeded_arrays
from .golden import (
    GoldenMismatch,
    check_golden,
    extract_numbers,
    structure_of,
    update_requested,
)
from .gradcheck import (
    ElementMismatch,
    GradcheckFailure,
    check_gradient,
    check_gradients,
    default_tolerances,
    numerical_grad,
    numerical_grad_multi,
)

__all__ = [
    # gradcheck
    "ElementMismatch",
    "GradcheckFailure",
    "check_gradient",
    "check_gradients",
    "default_tolerances",
    "numerical_grad",
    "numerical_grad_multi",
    # equivalence
    "PARALLELISMS",
    "Comparison",
    "EquivalenceFailure",
    "EquivalenceReport",
    "check_parallel_equivalence",
    "oracle_config",
    "warm_head",
    # fuzz
    "OPS",
    "OpSpec",
    "FuzzFailure",
    "FuzzReport",
    "fuzz_ops",
    "seeded_arrays",
    # conformance
    "ASYNC_COLLECTIVES",
    "COLLECTIVES",
    "CollectiveResult",
    "ConformanceFailure",
    "ConformanceReport",
    "check_async_collective",
    "check_collective",
    "check_in_place",
    "expected_sent_bytes",
    "run_async_conformance",
    "run_conformance",
    "run_in_place_conformance",
    # golden
    "GoldenMismatch",
    "check_golden",
    "extract_numbers",
    "structure_of",
    "update_requested",
]
