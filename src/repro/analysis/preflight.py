"""Validation-enabled run gating: lint + invariants (+ races) before ``_run``.

:func:`preflight` is what :meth:`repro.frameworks.base.Engine.run` calls when
``RunConfig(validate=...)`` is not ``"off"``:

``"structure"``
    Lint the program and structurally validate every representation the
    engine is about to execute over (each engine reports its own via
    :meth:`Engine.preflight_representations`, through the same
    representation cache its run uses, so the build cost is shared).
``"full"``
    Additionally run the simulated-race detector — a bounded number of
    instrumented reference iterations plus one permuted-edge-order diff.
    This executes the scalar device functions edge by edge in Python, so
    it is intended for small graphs (tests, CI gates, ``repro check``).
``"perf"``
    The ``"structure"`` checks plus the static performance auditor
    (:mod:`repro.analysis.perf`): cost-contract, occupancy, write-back,
    and coalescing assertions derived from the representations without
    running an iteration (``P3xx`` codes).

All violations are published to the run's tracer metrics under
``analysis.violations`` (total, split by severity, and one counter per
violation kind); *error* violations abort the run with
:class:`~repro.analysis.violations.ValidationError` before the engine
touches any state.
"""

from __future__ import annotations

from repro.analysis.invariants import validate_structure
from repro.analysis.lint import lint_program
from repro.analysis.races import order_sensitivity_check, stage_discipline_check
from repro.analysis.violations import ValidationError, Violation

__all__ = ["VALIDATE_LEVELS", "collect_violations", "preflight", "publish_violations"]

VALIDATE_LEVELS = ("off", "structure", "full", "perf")

#: iteration bounds for the (expensive) dynamic checks under ``"full"``
_RACE_ITERATIONS = 2


def collect_violations(
    engine, graph, program, config, cache=None
) -> list[Violation]:
    """Every violation the configured ``validate`` level surfaces.

    ``cache`` is the run's :class:`~repro.cache.RunCache`, which serves
    every representation and certificate lookup; without one, a fresh
    :meth:`Engine.run_cache` does.
    """
    if cache is None:
        cache = engine.run_cache(graph, config)
    out = lint_program(program)
    for rep in engine.preflight_representations(graph, program, config,
                                                cache):
        out.extend(validate_structure(rep))
    if config.validate == "full":
        out.extend(
            stage_discipline_check(
                graph, program, max_iterations=_RACE_ITERATIONS
            )
        )
        out.extend(
            order_sensitivity_check(graph, program, iterations=_RACE_ITERATIONS)
        )
    if config.validate == "perf":
        # Imported here: the perf auditor pulls in the engine layer, which
        # the lint/invariant levels do not need.
        from repro.analysis.perf import perf_audit

        out.extend(perf_audit(engine, graph, program, config, cache))
    if getattr(config, "certify", "off") != "off":
        # Kernel certificates surface as warnings here so `repro check`
        # and validated runs report them; *enforcement* (refusing or
        # degrading certify-gated fast paths) lives in
        # :func:`repro.analysis.certify.runtime_gate`.
        from repro.analysis.certify import certify_violations

        out.extend(certify_violations(program, cache=cache))
    if getattr(config, "narrow", "off") != "off":
        # Narrowing consults the range certificates; surface their
        # verdicts here so a validated narrow="auto" run reports what the
        # gate will rely on (UNKNOWN verdicts are warnings — the gate
        # simply declines to narrow unproven fields).
        from repro.analysis.ranges import ranges_violations

        out.extend(ranges_violations(program, graph, cache=cache))
    return out


def publish_violations(metrics, violations: list[Violation]) -> None:
    """Publish violation counts as ``analysis.violations*`` metrics."""
    total = metrics.counter("analysis.violations")
    if violations:
        total.inc(len(violations))
    else:
        total.inc(0)
    for v in violations:
        metrics.counter(f"analysis.violations.{v.severity}").inc()
        metrics.counter(f"analysis.violations.{v.kind}").inc()


def preflight(engine, graph, program, config, cache=None) -> list[Violation]:
    """Gate one engine run; returns the (non-fatal) violations.

    Raises :class:`ValidationError` when any *error*-severity violation is
    found; warnings are published to telemetry and returned.  ``cache``
    is the run's :class:`~repro.cache.RunCache`.
    """
    violations = collect_violations(engine, graph, program, config, cache)
    publish_violations(config.tracer.metrics, violations)
    errors = [v for v in violations if v.severity == "error"]
    if errors:
        raise ValidationError(errors)
    return violations
