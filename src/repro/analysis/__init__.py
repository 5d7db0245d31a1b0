"""Static analysis and runtime validation of the paper's correctness contract.

Three layers, each reporting typed :class:`Violation` records:

- :mod:`repro.analysis.lint` — AST-based linter for
  :class:`~repro.vertexcentric.program.VertexProgram` subclasses
  (section 4 / Table 3 programming contract), codes ``L0xx``;
- :mod:`repro.analysis.invariants` — structural validators for CSR,
  G-Shards, and Concatenated Windows (sections 2, 3.1, 3.2), codes
  ``S1xx``;
- :mod:`repro.analysis.races` — simulated-race detector over the reference
  path (stage discipline of Figure 5, commutativity of section 4), codes
  ``R2xx``;
- :mod:`repro.analysis.perf` — static performance auditor, model-vs-
  measured drift gate, and benchmark comparator (the paper's performance
  contract: sections 3.2-3.3, Tables 4-7), codes ``P3xx``, with the
  contracted cost constants mirrored in :mod:`repro.analysis.budgets`;
- :mod:`repro.analysis.certify` — kernel property certifier proving the
  algebraic contracts (identity, commutativity, monotonicity, purity,
  frontier- and async-safety) that the frontier, async, and batching fast
  paths silently assume, codes ``C4xx``, enforced at run time through
  ``RunConfig(certify="off"|"warn"|"enforce")``;
- :mod:`repro.analysis.ranges` — abstract interpretation over the certify
  IR (interval and dtype/width domains) discharging overflow, non-finite,
  termination, and invariant-range certificates, codes ``W5xx``, consumed
  by proven-safe dtype narrowing (``RunConfig(narrow="off"|"auto")``).

Engine wiring lives in :mod:`repro.analysis.preflight`
(``RunConfig(validate="off"|"structure"|"full"|"perf")``); deliberately
broken fixtures proving every rule fires are in
:mod:`repro.analysis.fixtures`.  The CLI front ends are ``python -m repro
check`` and ``python -m repro perfgate``.  See ``docs/analysis.md``.
"""

from repro.analysis.certify import (
    ASYNC_REQUIRED,
    BATCH_REQUIRED,
    CHECK_CODES,
    FRONTIER_REQUIRED,
    PROVED,
    REFUTED,
    UNKNOWN,
    Certificate,
    CheckResult,
    certify_program,
    certify_violations,
    program_fingerprint,
    runtime_gate,
)
from repro.analysis.invariants import (
    validate_csr,
    validate_cw,
    validate_gshards,
    validate_structure,
)
from repro.analysis.lint import lint_program
from repro.analysis.perf import (
    DriftReport,
    StagePrediction,
    audit_cw,
    compare_reports,
    cost_contract_check,
    drift_gate,
    perf_audit,
    static_predictions,
)
from repro.analysis.ranges import (
    RANGE_CHECK_CODES,
    GraphBounds,
    RangesCertificate,
    analyze_ranges,
    narrowing_plan,
    ranges_fingerprint,
    ranges_violations,
)
from repro.analysis.preflight import (
    VALIDATE_LEVELS,
    collect_violations,
    preflight,
    publish_violations,
)
from repro.analysis.races import (
    frontier_discipline_check,
    order_sensitivity_check,
    race_check,
    stage_discipline_check,
)
from repro.analysis.violations import CODES, ValidationError, Violation, describe

__all__ = [
    "ASYNC_REQUIRED",
    "BATCH_REQUIRED",
    "CHECK_CODES",
    "CODES",
    "Certificate",
    "CheckResult",
    "DriftReport",
    "FRONTIER_REQUIRED",
    "GraphBounds",
    "PROVED",
    "RANGE_CHECK_CODES",
    "REFUTED",
    "RangesCertificate",
    "StagePrediction",
    "UNKNOWN",
    "VALIDATE_LEVELS",
    "ValidationError",
    "Violation",
    "analyze_ranges",
    "audit_cw",
    "certify_program",
    "certify_violations",
    "collect_violations",
    "compare_reports",
    "cost_contract_check",
    "describe",
    "drift_gate",
    "frontier_discipline_check",
    "lint_program",
    "narrowing_plan",
    "perf_audit",
    "program_fingerprint",
    "ranges_fingerprint",
    "ranges_violations",
    "static_predictions",
    "order_sensitivity_check",
    "preflight",
    "publish_violations",
    "race_check",
    "stage_discipline_check",
    "validate_csr",
    "validate_cw",
    "validate_gshards",
    "validate_structure",
]
