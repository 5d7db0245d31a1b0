"""Proven-safe dtype narrowing behind ``RunConfig(narrow="auto")``.

The range certifier (:mod:`repro.analysis.ranges`) proves per-field
invariant value ranges (W504) and overflow safety (W501) for a program on
a concrete graph.  When a proof justifies it, :func:`narrow_gate` wraps
the program in a :class:`NarrowedProgram` whose declared ``vertex_dtype``
uses the narrower widths — so every engine allocates narrowed
``VertexValues`` and message buffers through the unchanged
``initial_values`` / ``init_local`` paths, and the cost model charges the
narrowed ``vertex_value_bytes``.

The wrapper keeps the *computation* wide: each kernel call widens its
narrow inputs back to the original dtype, runs the inner program's kernel
bit-for-bit, and narrows the stored outputs.  Narrowing is lossless
because W504 proves every stored value fits the narrow dtype, with the
one deliberate exception of the ``UINT_INF`` sentinel, which remaps to
the narrow dtype's max (order-preserving under the min/max reducers the
plan admits; the plan requires ``hi`` strictly below that max so the
remapped sentinel stays distinguishable).  The run result is widened back
before it reaches the caller, so ``narrow="auto"`` is bit-exact against
``narrow="off"``.

``validate="full"`` additionally arms :class:`RangeProbeHooks`: a
:class:`~repro.frameworks.base.FaultHooks` wrapper whose ``values`` site
vectorized-asserts the proven W504 ranges on the live values each flush,
raising a typed W504 :class:`~repro.errors.ValidationError` on escape.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from repro.frameworks.base import FaultHooks
from repro.vertexcentric.datatypes import UINT_INF
from repro.vertexcentric.program import VertexProgram

__all__ = ["NarrowedProgram", "RangeProbeHooks", "narrow_gate"]


class NarrowedProgram(VertexProgram):
    """A program whose stored ``VertexValues`` use proven narrower dtypes.

    ``plan`` maps field name -> narrow base dtype (from
    :func:`repro.analysis.ranges.narrowing_plan`); ``ranges`` maps each
    planned field to its proven ``(lo, hi, has_inf)`` triple.  Subarray
    shapes are preserved; fields outside the plan keep their declared
    dtype.
    """

    def __init__(self, inner: VertexProgram, plan: dict, ranges: dict):
        self.inner = inner
        self.plan = {f: np.dtype(dt) for f, dt in plan.items()}
        self.ranges = dict(ranges)
        wide = inner.vertex_dtype
        self._wide_dtype = wide
        #: field -> (wide base dtype, narrow base dtype).
        self._bases: dict[str, tuple[np.dtype, np.dtype]] = {}
        #: field -> (wide base dtype, narrow sentinel value) for fields
        #: whose proven range includes the UINT_INF sentinel.
        self._sentinel: dict[str, tuple[np.dtype, np.generic]] = {}
        #: field -> the signed dtype of its narrow width, for sentinel
        #: fields widened by sign extension (see :meth:`_widen_field`).
        self._sign_extend: dict[str, np.dtype] = {}
        #: Sentinel fields the narrowing cast does not already map to the
        #: narrow sentinel (casting UINT_INF to an unsigned dtype keeps
        #: its low bits, all ones: that dtype's max).
        self._remap: set[str] = set()
        descr = []
        for fname in wide.names:
            ft = wide.fields[fname][0]
            base = ft.base if ft.subdtype is not None else ft
            shape = ft.shape if ft.subdtype is not None else ()
            nd = self.plan.get(fname, base)
            self._bases[fname] = (base, nd)
            if fname in self.plan and self.ranges[fname][2]:
                smax = nd.type(np.iinfo(nd).max)
                self._sentinel[fname] = (base, smax)
                hi = self.ranges[fname][1]
                if (nd.kind == "u" and base == np.dtype(np.uint32)
                        and hi < 2 ** (8 * nd.itemsize - 1)):
                    self._sign_extend[fname] = np.dtype(f"i{nd.itemsize}")
                if np.array(UINT_INF, dtype=base).astype(nd) != smax:
                    self._remap.add(fname)
            descr.append((fname, nd, shape) if shape else (fname, nd))
        self.vertex_dtype = np.dtype(descr)
        #: The one field of a scalar single-field record (``None`` for
        #: multi-field or subarray layouts): its conversions are views of
        #: the converted field array, with no per-record struct copy.
        self._single: str | None = None
        if len(wide.names) == 1:
            ft, offset = wide.fields[wide.names[0]][:2]
            if ft.subdtype is None and offset == 0 and (
                    wide.itemsize == ft.itemsize):
                self._single = wide.names[0]
        # Delegated declarations (the narrowed struct is the only change).
        self.name = inner.name
        self.static_dtype = inner.static_dtype
        self.edge_dtype = inner.edge_dtype
        self.reduce_ops = inner.reduce_ops
        self.tolerance = inner.tolerance
        self.certify_state = inner.certify_state

    # -- lossless dtype conversion --------------------------------------
    def widen(self, arr: np.ndarray) -> np.ndarray:
        """Narrow storage -> original wide dtype (sentinel remapped)."""
        if self._single is not None:
            fname = self._single
            return self._widen_field(fname, arr[fname]).view(
                self._wide_dtype)
        out = np.empty(arr.shape, dtype=self._wide_dtype)
        for fname in self._wide_dtype.names:
            out[fname] = self._widen_field(fname, arr[fname])
        return out

    def narrow(self, arr: np.ndarray) -> np.ndarray:
        """Original wide dtype -> narrow storage (sentinel remapped)."""
        if self._single is not None:
            fname = self._single
            return self._narrow_field(fname, arr[fname]).view(
                self.vertex_dtype)
        out = np.empty(arr.shape, dtype=self.vertex_dtype)
        for fname in self._wide_dtype.names:
            out[fname] = self._narrow_field(fname, arr[fname])
        return out

    def _widen_field(self, fname: str, data: np.ndarray) -> np.ndarray:
        """One field's narrow storage as a new array of its wide base."""
        signed = self._sign_extend.get(fname)
        if signed is not None:
            # The proven range keeps every value below the narrow sign
            # bit, so only the sentinel (all ones) reads as negative, and
            # sign extension turns it into all ones at the wide width:
            # UINT_INF.  One cast, with no compare or scatter.
            return data.view(signed).astype(np.int32).view(np.uint32)
        sent = self._sentinel.get(fname)
        if sent is None:
            return data.astype(self._bases[fname][0])
        base, smax = sent
        wide = data.astype(base)
        wide[data == smax] = UINT_INF
        return wide

    def _narrow_field(self, fname: str, data: np.ndarray) -> np.ndarray:
        """One field's wide values as a new array of its narrow base."""
        narrow = data.astype(self._bases[fname][1])
        if fname in self._remap:
            narrow[data == UINT_INF] = self._sentinel[fname][1]
        return narrow

    def _widen_value(self, fname: str, val):
        arr = np.asarray(val)
        sent = self._sentinel.get(fname)
        if sent is not None:
            base, smax = sent
            wide = np.where(arr == smax, UINT_INF, arr.astype(base))
            wide = wide.astype(base)
            return wide[()] if wide.ndim == 0 else wide
        if fname in self.plan:
            ft = self._wide_dtype.fields[fname][0]
            base = ft.base if ft.subdtype is not None else ft
            wide = arr.astype(base)
            return wide[()] if wide.ndim == 0 else wide
        return val

    def _narrow_value(self, fname: str, val):
        arr = np.asarray(val)
        if fname not in self.plan:
            return val
        sent = self._sentinel.get(fname)
        narrow = arr.astype(self.plan[fname])
        if sent is not None:
            narrow = np.where(arr == UINT_INF, sent[1], narrow)
            narrow = narrow.astype(self.plan[fname])
        return narrow[()] if narrow.ndim == 0 else narrow

    def _widen_record(self, rec: dict) -> dict:
        return {f: self._widen_value(f, v) for f, v in rec.items()}

    def _store_record(self, wide: dict, rec: dict) -> None:
        for f, v in wide.items():
            rec[f] = self._narrow_value(f, v)

    # -- problem setup ---------------------------------------------------
    def initial_values(self, graph) -> np.ndarray:
        return self.narrow(self.inner.initial_values(graph))

    def static_values(self, graph):
        return self.inner.static_values(graph)

    def edge_values(self, graph):
        return self.inner.edge_values(graph)

    # -- scalar device functions (widen per call, narrow the write-back) -
    def init_compute(self, local_v: dict, v: dict) -> None:
        wl = self._widen_record(local_v)
        self.inner.init_compute(wl, self._widen_record(v))
        self._store_record(wl, local_v)

    def compute(self, src_v, src_static, edge, local_v) -> None:
        wl = self._widen_record(local_v)
        self.inner.compute(self._widen_record(src_v), src_static, edge, wl)
        self._store_record(wl, local_v)

    def update_condition(self, local_v: dict, v: dict) -> bool:
        wl = self._widen_record(local_v)
        decision = self.inner.update_condition(wl, self._widen_record(v))
        self._store_record(wl, local_v)
        return bool(decision)

    # -- vectorized kernels: wide local plan ------------------------------
    def init_local(self, current: np.ndarray) -> np.ndarray:
        # The engine's reduction buffer stays wide; apply() narrows the
        # survivors back into the narrow VertexValues.
        return self.inner.init_local(self.widen(current))

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return self.inner.messages(
            self.widen(src_vals), src_static, edge_vals, self.widen(dest_old)
        )

    def apply(self, local, old):
        final, updated = self.inner.apply(local, self.widen(old))
        return self.narrow(final), updated

    # -- bookkeeping ------------------------------------------------------
    def begin_iteration(self, iteration: int) -> None:
        self.inner.begin_iteration(iteration)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        planned = {f: dt.name for f, dt in sorted(self.plan.items())}
        return f"NarrowedProgram({self.inner!r}, plan={planned})"


class RangeProbeHooks(FaultHooks):
    """Runtime W504 invariant probe armed under ``validate="full"``.

    Wraps the run's existing :class:`FaultHooks` (delegating each site
    only when the inner hooks are active) and vectorized-asserts the
    proven per-field ranges at every ``values`` flush.
    """

    active = True

    def __init__(self, inner: FaultHooks, program, ranges: dict):
        self._inner = inner
        self._program = program
        self._ranges = dict(ranges)

    def launch(self, engine, shared_bytes, limit_bytes) -> None:
        if self._inner.active:
            self._inner.launch(engine, shared_bytes, limit_bytes)

    def transfer(self, engine, which) -> None:
        if self._inner.active:
            self._inner.transfer(engine, which)

    def kernel(self, engine, iteration, exec_path) -> None:
        if self._inner.active:
            self._inner.kernel(engine, iteration, exec_path)

    def representations(self, engine, graph, program, config, cache) -> None:
        if self._inner.active:
            self._inner.representations(engine, graph, program, config,
                                        cache)

    def values(self, engine, iteration, values) -> None:
        if self._inner.active:
            self._inner.values(engine, iteration, values)
        from repro.analysis.violations import Violation
        from repro.errors import ValidationError

        wide = values
        if isinstance(self._program, NarrowedProgram):
            wide = self._program.widen(values)
        for fname, (lo, hi, _has_inf) in self._ranges.items():
            if fname not in (wide.dtype.names or ()):
                continue
            data = np.asarray(wide[fname])
            if data.dtype.kind == "f":
                lanes = data[np.isfinite(data)]
            elif data.dtype == np.dtype(np.uint32):
                lanes = data[data != UINT_INF]
            else:
                lanes = data
            if lanes.size == 0:
                continue
            worst_lo = float(lanes.min())
            worst_hi = float(lanes.max())
            if worst_lo < lo or worst_hi > hi:
                raise ValidationError([Violation(
                    "W504",
                    f"iteration {iteration}: live values of field "
                    f"{fname!r} escaped the proven invariant range "
                    f"[{lo:g}, {hi:g}] (observed [{worst_lo:g}, "
                    f"{worst_hi:g}])",
                    subject=str(getattr(self._program, "name", "")),
                )])


def narrow_gate(engine, graph, program, config, *, cache=None):
    """Resolve ``narrow="auto"`` for one run.

    Called from :meth:`Engine.run` after the certify gate, with the run's
    :class:`~repro.cache.RunCache` as ``cache`` (by default the engine's
    own cache option).  Returns ``(program, config, widen_back)``: the
    (possibly wrapped) program, the (possibly adjusted) config, and a
    callable that widens the final ``RunResult.values`` back to the
    declared dtype — ``None`` when no field narrowed.
    """
    from repro.analysis.ranges import analyze_ranges, narrowing_plan

    tracer = config.tracer
    metrics = tracer.metrics
    name = str(getattr(program, "name", type(program).__name__))
    if cache is None:
        cache = getattr(engine, "cache", None)
    with tracer.span("analysis.ranges.gate", "analysis", program=name):
        cert = analyze_ranges(program, graph, cache=cache)
        metrics.counter("analysis.ranges.analyzed").inc()
        for check in cert.checks:
            metrics.counter(
                f"analysis.ranges.{check.status.lower()}"
            ).inc()
        plan = narrowing_plan(cert, program)
        probe_ranges = (
            dict(cert.ranges) if cert.proved("W504") else {}
        )
        if config.validate == "full" and probe_ranges:
            metrics.counter("analysis.ranges.probe.armed").inc()
        if not plan:
            metrics.counter("analysis.ranges.gate.noop").inc()
            narrowed = None
        else:
            metrics.counter("analysis.ranges.gate.narrowed").inc()
            metrics.gauge(f"analysis.ranges.fields.{name}").set(len(plan))
            ranges = {f: cert.field_range(f) for f in plan}
            narrowed = NarrowedProgram(program, plan, ranges)
    if narrowed is None:
        if config.validate == "full" and probe_ranges:
            config = dc_replace(config, faults=RangeProbeHooks(
                config.faults, program, probe_ranges))
        return program, config, None
    if config.resume_values is not None:
        config = dc_replace(
            config,
            resume_values=narrowed.narrow(np.asarray(config.resume_values)),
        )
    if config.validate == "full" and probe_ranges:
        config = dc_replace(config, faults=RangeProbeHooks(
            config.faults, narrowed, probe_ranges))
    return narrowed, config, narrowed.widen
