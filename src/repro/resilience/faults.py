"""Deterministic, seed-driven GPU fault injection.

A :class:`FaultPlan` is a list of :class:`FaultSpec` records armed on a
:class:`~repro.frameworks.base.RunConfig` (``config.faults``).  Engines call
the :class:`~repro.frameworks.base.FaultHooks` sites at fixed per-launch /
per-transfer / per-iteration boundaries; when a site matches a live spec the
plan raises the corresponding :class:`InjectedFault` subclass, simulating
the GPU-side failure at *exactly* the same point on the ``fast`` and
``reference`` execution paths.

Fault classes (:data:`FAULT_CLASSES`):

``transfer``
    Transient PCIe error on a bulk ``h2d``/``d2h`` copy.  Nothing on the
    device changed — a retry re-issues the transfer.
``kernel-abort``
    A kernel abort in one of the four CuSha pipeline stages; the in-flight
    iteration is lost, device VertexValues are untrusted.
``bitflip-values``
    An uncorrectable-ECC bit-flip in the device VertexValues array.  The
    hook *actually flips the bit* in the engine's live array before raising
    (modeling the ECC interrupt), so recovery must restore from a
    checkpoint rather than trust device state.
``bitflip-representation``
    A bit-flip in the device copy of a shard/CW/CSR array.  Detected by
    running the :mod:`repro.analysis` structural validators over a
    corrupted copy; the host/cache copy stays intact, so recovery is a
    rebuild + re-transfer.
``sharedmem-oom``
    A shared-memory allocation failure at kernel launch.  Persistent by
    construction: the same launch configuration can never succeed, so the
    policy engine degrades instead of retrying.
``device-loss``
    A device dropping out of a multi-device run at an iteration boundary
    (hook fires only when ``RunConfig.devices > 1``).  Recovery is
    structural: the supervisor repartitions the dead device's shards
    across the survivors and resumes from the newest valid checkpoint —
    see :class:`repro.resilience.ResilientRunner`.

Determinism: all randomness is derived once, in ``__init__``, from
``seed`` and the spec's position — never from wall clock or global RNG
state — so a campaign replays bit-identically.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.frameworks.base import NULL_FAULTS, FaultHooks

__all__ = [
    "NULL_FAULTS",
    "FAULT_CLASSES",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "TransferFault",
    "KernelAbortFault",
    "MemoryCorruptionFault",
    "RepresentationCorruptionFault",
    "SharedMemOOMFault",
    "DeviceLostFault",
    "CUSHA_STAGES",
]

FAULT_CLASSES: tuple[str, ...] = (
    "transfer",
    "kernel-abort",
    "bitflip-values",
    "bitflip-representation",
    "sharedmem-oom",
    "device-loss",
)

CUSHA_STAGES: tuple[str, ...] = (
    "stage1-fetch",
    "stage2-compute",
    "stage3-update",
    "stage4-writeback",
)

#: Default representation array to corrupt, per representation class name.
#: All are index arrays, so flipping a high bit guarantees an out-of-range
#: value the structural validators (S1xx) detect.
_REP_TARGETS: dict[str, str] = {
    "CSR": "src_indxs",
    "GShards": "src_index",
    "ConcatenatedWindows": "mapper",
}


# The fault exception types live in the consolidated exception module
# (repro.errors); these re-exports keep the import path this subsystem has
# always published.
from repro.errors import (DeviceLostFault, InjectedFault,  # noqa: E402
                          KernelAbortFault, MemoryCorruptionFault,
                          RepresentationCorruptionFault, SharedMemOOMFault,
                          TransferFault)


@dataclass
class FaultSpec:
    """One fault to inject.

    ``engine`` is an exact engine name or ``"*"``; ``exec_path`` narrows a
    fault to one execution path (``"fast"``/``"reference"``/``"*"``), which
    is what makes the fast→reference rung of the degradation ladder
    observable.  ``site`` is the transfer direction for ``transfer``, a
    :data:`CUSHA_STAGES` label for ``kernel-abort``, or a representation
    attribute name for ``bitflip-representation``.  ``iteration`` pins
    iteration-scoped faults (0 = derive deterministically from the plan
    seed).  ``count`` is how many times the spec fires; ``None`` means
    persistent (every time its site is reached).  ``device`` selects the
    device a ``device-loss`` spec kills (reduced modulo the live
    placement's device count, so any integer is valid).
    """

    kind: str
    engine: str = "*"
    exec_path: str = "*"
    site: str = ""
    iteration: int = 0
    count: int | None = 1
    bit: int = 30
    index: int = 0
    device: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_CLASSES:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_CLASSES}"
            )
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 or None (persistent)")


@dataclass(frozen=True)
class FiredFault:
    """Record of one spec firing (for reports and exactly-once tests)."""

    kind: str
    engine: str
    site: str
    iteration: int
    spec_index: int


class FaultPlan(FaultHooks):
    """Seed-driven deterministic fault injector.

    Arms on ``RunConfig(faults=plan)``.  The plan is stateful across the
    segments of one supervised run: a ``count=1`` spec that fired during a
    failed segment stays consumed when the supervisor replays, which is
    exactly how a *transient* fault behaves.
    """

    active = True

    def __init__(self, specs, seed: int = 0) -> None:
        self.seed = int(seed)
        self.specs: list[FaultSpec] = []
        for i, spec in enumerate(specs):
            spec = copy.copy(spec)
            if spec.iteration == 0 and spec.kind in (
                "kernel-abort", "bitflip-values", "device-loss"
            ):
                # Deterministic site derivation: position + seed, no RNG.
                spec.iteration = 1 + (self.seed + i) % 3
            if spec.kind == "kernel-abort" and not spec.site:
                spec.site = CUSHA_STAGES[(self.seed + i) % len(CUSHA_STAGES)]
            self.specs.append(spec)
        self._remaining: list[int | None] = [s.count for s in self.specs]
        self.fired: list[FiredFault] = []

    # -- bookkeeping ---------------------------------------------------
    @property
    def injected(self) -> int:
        """Total number of faults fired so far."""
        return len(self.fired)

    def unfired(self) -> list[FaultSpec]:
        """Specs that never fired (campaigns assert this comes back empty)."""
        fired_idx = {f.spec_index for f in self.fired}
        return [s for i, s in enumerate(self.specs) if i not in fired_idx]

    def _match(
        self, kind: str, engine: str, *, iteration: int | None = None,
        site: str | None = None, exec_path: str | None = None,
    ) -> int | None:
        for i, spec in enumerate(self.specs):
            if spec.kind != kind:
                continue
            if self._remaining[i] is not None and self._remaining[i] <= 0:
                continue
            if spec.engine not in ("*", engine):
                continue
            if exec_path is not None and spec.exec_path not in ("*", exec_path):
                continue
            if iteration is not None and spec.iteration != iteration:
                continue
            if site is not None and spec.site not in ("", site):
                continue
            return i
        return None

    def _consume(
        self, i: int, engine: str, site: str, iteration: int
    ) -> FaultSpec:
        if self._remaining[i] is not None:
            self._remaining[i] -= 1
        spec = self.specs[i]
        self.fired.append(
            FiredFault(spec.kind, engine, site, iteration, i)
        )
        return spec

    # -- hook sites (see frameworks.base.FaultHooks) -------------------
    def launch(self, engine: str, shared_bytes: int, limit_bytes: int) -> None:
        i = self._match("sharedmem-oom", engine)
        if i is None:
            return
        self._consume(i, engine, "launch", 0)
        raise SharedMemOOMFault(
            f"injected shared-memory OOM launching {engine}: "
            f"requested {max(shared_bytes, limit_bytes + 1)} bytes, "
            f"limit {limit_bytes}",
            kind="sharedmem-oom", engine=engine, site="launch",
        )

    def transfer(self, engine: str, which: str) -> None:
        i = self._match("transfer", engine, site=which)
        if i is None:
            return
        self._consume(i, engine, which, 0)
        raise TransferFault(
            f"injected transient PCIe error on {engine} {which} transfer",
            kind="transfer", engine=engine, site=which,
        )

    def kernel(self, engine: str, iteration: int, exec_path: str) -> None:
        i = self._match(
            "kernel-abort", engine, iteration=iteration, exec_path=exec_path
        )
        if i is None:
            return
        spec = self._consume(i, engine, self.specs[i].site, iteration)
        raise KernelAbortFault(
            f"injected kernel abort in {engine} {spec.site} "
            f"at iteration {iteration}",
            kind="kernel-abort", engine=engine, site=spec.site,
            iteration=iteration, iterations_completed=iteration - 1,
        )

    def device(
        self, engine: str, iteration: int, exec_path: str, placement
    ) -> None:
        i = self._match(
            "device-loss", engine, iteration=iteration, exec_path=exec_path
        )
        if i is None:
            return
        spec = self.specs[i]
        dead = spec.device % placement.num_devices
        self._consume(i, engine, f"device-{dead}", iteration)
        raise DeviceLostFault(
            f"injected device loss: device {dead} of "
            f"{placement.num_devices} dropped out of {engine} "
            f"at iteration {iteration}",
            kind="device-loss", engine=engine, site=f"device-{dead}",
            iteration=iteration, iterations_completed=iteration - 1,
            device=dead, placement=placement,
        )

    def values(self, engine: str, iteration: int, values: np.ndarray) -> None:
        i = self._match("bitflip-values", engine, iteration=iteration)
        if i is None:
            return
        spec = self._consume(i, engine, "vertex-values", iteration)
        flat = values.view(np.uint8).reshape(-1)
        pos = (spec.index + self.seed * 7919 + i) % flat.size
        flat[pos] ^= np.uint8(1 << (spec.bit % 8))
        raise MemoryCorruptionFault(
            f"injected uncorrectable ECC bit-flip in {engine} VertexValues "
            f"(byte {pos}, bit {spec.bit % 8}) at iteration {iteration}",
            kind="bitflip-values", engine=engine, site="vertex-values",
            iteration=iteration, iterations_completed=iteration - 1,
        )

    def representations(self, engine, graph, program, config, cache) -> None:
        i = self._match("bitflip-representation", engine.name)
        if i is None:
            return
        reps = engine.preflight_representations(graph, program, config, cache)
        if not reps:
            return  # engine exposes no device representation to corrupt
        spec = self._consume(i, engine.name, "representation", 0)
        rep = reps[0]
        attr = spec.site or _REP_TARGETS.get(type(rep).__name__, "")
        if not attr or not isinstance(getattr(rep, attr, None), np.ndarray):
            attr = next(
                name for name, v in vars(rep).items()
                if isinstance(v, np.ndarray)
                and np.issubdtype(v.dtype, np.integer)
            )
        # Corrupt a *copy* standing in for the device transfer — the host /
        # cache representation stays intact, so a rebuild can recover.
        device_rep = copy.copy(rep)
        arr = np.array(getattr(rep, attr), copy=True)
        pos = (spec.index + self.seed * 7919 + i) % max(1, arr.size)
        flat = arr.reshape(-1)
        flat[pos] ^= flat.dtype.type(1) << flat.dtype.type(
            spec.bit % (flat.dtype.itemsize * 8 - 1)
        )
        setattr(device_rep, attr, arr)
        from repro.analysis.invariants import validate_structure

        violations = validate_structure(device_rep)
        raise RepresentationCorruptionFault(
            f"injected bit-flip in device copy of "
            f"{type(rep).__name__}.{attr}[{pos}] on {engine.name}: "
            f"{len(violations)} structural violation(s)",
            kind="bitflip-representation", engine=engine.name, site=attr,
            violations=violations,
        )
