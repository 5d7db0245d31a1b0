"""Frontier-centric execution: dirty bitmaps, influence maps, direction.

Every engine historically swept all shards every iteration even when only
a handful of vertices changed.  ``RunConfig(frontier=...)`` turns on
work-efficient sweeps built from three pieces that live here:

**Dirty bitmap** (:class:`ShardFrontier`).  One boolean per scheduling
unit — a G-Shards/CW shard for the CuSha engines, a vertex chunk for VWC.
A unit's bit is cleared when the unit is processed and set again when
something it depends on changes.  Processing a *clean* unit is a
deterministic no-op (its inputs are bit-identical to the last time it ran,
so ``apply`` reports no updates), which is the whole correctness argument:
skipping clean units changes **nothing** about values, traces, update
counts, or iteration counts — only the modeled (and wall-clock) work.

**Influence map** (:func:`vertex_influence_csr`).  A vertex ``u`` can
invalidate unit ``t`` only if ``u`` has an out-edge whose destination
lives in ``t`` — exactly the shard→dest-window mapping, deduplicated to a
``vertex → units`` CSR.  Engines mark from the *genuinely updated* vertex
indices at their write-back boundaries (that is when other units can first
observe the new value), plus the updater's own unit immediately (a unit
reads its own destination values live).  ``always_writeback`` runs mark
from the same updated set — writing back an unchanged value invalidates
nobody.

**Direction choice** (:func:`choose_direction`).  Gunrock/Beamer-style
push/pull switching for ``frontier="auto"``: when the frontier touches
more than ``1/alpha`` of the edges, a dense full sweep (CuSha's native
gather form — "pull") is cheaper than assembling the sparse gather
("push"); below the threshold push wins by orders of magnitude.  Both
directions are bit-exact, so the per-iteration switch is free to be a pure
heuristic.

**Resume** (:func:`resume_dirty`).  The dirty set left at the end of an
iteration is a pure function of that iteration's updated-vertex mask plus
static schedule data: a mark from ``u`` (unit ``s``, flushed at position
``flush_pos[s]``) into unit ``t`` survives the iteration iff ``t`` was
already processed when the mark landed — ``flush_pos[t] <= flush_pos[s]``
— otherwise ``t``'s own later processing cleared it (and ``t``'s own
updates, also in the mask, re-mark whatever is still live).  Checkpoints
therefore store just the ``(n,)`` updated-vertex mask
(:attr:`RunResult.frontier_mask`) and segmented runs rebuild the exact
bitmap a continuous run would hold.

**Deferred marks** (:meth:`ShardFrontier.defer`).  A pull iteration
processes every unit, so the bitmap it leaves is exactly the resume rule
applied to its updated-vertex mask, and nothing reads that bitmap before
the next direction test.  Pull iterations therefore hand the mask over
instead of marking, and :meth:`ShardFrontier.direction` resolves it
lazily.  It first prices the updaters' own units: an own-unit mark always
survives (``flush_pos[s] <= flush_pos[s]``), so they are a subset of the
exact dirty set, and the edges they own are a lower bound on the exact
frontier's edges.  If that bound already clears the pull threshold, the
exact set would pull too, and the bitmap stays unresolved — the pull
sweep that follows processes every unit regardless of it.  Only when the
bound falls below the threshold is the bitmap rebuilt with
:func:`resume_dirty`, and the choice is made on it exactly as an eager
run would make it.  Push iterations keep marking live.
"""

from __future__ import annotations

import numpy as np

from repro.frameworks.wavebatch import multi_arange

__all__ = [
    "FRONTIER_MODES",
    "DIRECTION_ALPHA",
    "vertex_influence_csr",
    "resume_dirty",
    "choose_direction",
    "ShardFrontier",
]

FRONTIER_MODES = ("off", "sparse", "auto")

#: Beamer's direction-switching constant: pull (dense sweep) once the
#: frontier's out-edges exceed ``total_edges / DIRECTION_ALPHA``.
DIRECTION_ALPHA = 14.0


def vertex_influence_csr(
    sources: np.ndarray,
    destinations: np.ndarray,
    num_vertices: int,
    unit_size: int,
    num_units: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated ``vertex -> scheduling units it can invalidate`` CSR.

    ``(indptr, targets)`` with ``targets[indptr[u]:indptr[u+1]]`` the
    sorted unique units holding a destination of one of ``u``'s out-edges.
    Unit membership is by uniform ranges (``vertex // unit_size``), which
    matches G-Shards/CW shards, streamed shards, and VWC chunks alike.
    """
    src = np.asarray(sources, dtype=np.int64)
    dst_unit = np.asarray(destinations, dtype=np.int64) // unit_size
    pairs = np.unique(src * num_units + dst_unit)
    u = pairs // num_units
    targets = (pairs % num_units).astype(np.int64)
    counts = np.bincount(u, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, targets


def choose_direction(
    active_edges: int, total_edges: int, alpha: float = DIRECTION_ALPHA
) -> str:
    """``"pull"`` (dense sweep) or ``"push"`` (sparse gather) this iteration.

    ``active_edges`` is the number of shard entries the sparse gather
    would process (the frontier size × its average degree, exactly).
    """
    return "pull" if active_edges * alpha >= total_edges else "push"


def resume_dirty(
    mask: np.ndarray,
    unit_size: int,
    num_units: int,
    indptr: np.ndarray,
    targets: np.ndarray,
    flush_pos: np.ndarray,
) -> np.ndarray:
    """Rebuild the end-of-iteration dirty bitmap from an updated-vertex mask.

    ``flush_pos[t]`` is the position in the processing order at which unit
    ``t``'s marks are flushed: ``shard // wave_size`` for wave-synchronous
    CuSha, the unit index itself for async CuSha and VWC chunks, and all
    zeros for BSP/streamed (one flush at iteration end, every mark
    survives).  See the module docstring for the survival rule.
    """
    dirty = np.zeros(num_units, dtype=bool)
    upd = np.flatnonzero(np.asarray(mask, dtype=bool)).astype(np.int64)
    if not upd.size:
        return dirty
    src_unit = upd // unit_size
    dirty[src_unit] = True
    lo, hi = indptr[upd], indptr[upd + 1]
    edges = multi_arange(lo, hi)
    tgt = targets[edges]
    src_pos = np.repeat(flush_pos[src_unit], hi - lo)
    dirty[tgt[flush_pos[tgt] <= src_pos]] = True
    return dirty


class ShardFrontier:
    """Live dirty bitmap + work counters for one frontier-gated run.

    The iteration driver calls :meth:`direction` to choose the iteration's
    sweep.  A push sweep calls :meth:`active` to pick the units it
    processes, :meth:`clear` on them, and :meth:`mark` with the genuinely
    updated vertex indices at each write-back flush (self-units are marked
    here too — the call sites coincide for every engine's flush
    discipline, see the module docstring).  After a pull sweep the driver
    calls :meth:`defer` once instead; while a mask is deferred,
    :attr:`dirty` is stale and only :meth:`direction` may read it.
    """

    __slots__ = (
        "dirty",
        "unit_size",
        "indptr",
        "targets",
        "flush_pos",
        "deferred",
        "edges_processed",
        "shards_skipped",
    )

    def __init__(
        self,
        num_units: int,
        unit_size: int,
        indptr: np.ndarray,
        targets: np.ndarray,
        resume: np.ndarray | None = None,
        flush_pos: np.ndarray | None = None,
    ) -> None:
        if resume is None:
            # A fresh run: everything is dirty (the first sweep is full).
            self.dirty = np.ones(num_units, dtype=bool)
        else:
            assert flush_pos is not None
            self.dirty = resume_dirty(
                resume, unit_size, num_units, indptr, targets, flush_pos
            )
        self.unit_size = unit_size
        self.indptr = indptr
        self.targets = targets
        self.flush_pos = flush_pos
        #: Updated-vertex mask of the last pull iteration, not yet resolved
        #: into :attr:`dirty` (``None`` when the bitmap is live).
        self.deferred: np.ndarray | None = None
        self.edges_processed = 0
        self.shards_skipped = 0

    def direction(self, unit_edges: np.ndarray, total_edges: int) -> str:
        """:func:`choose_direction` for the current frontier.

        ``unit_edges[t]`` is the number of entries unit ``t`` would process.
        A deferred mask is resolved here, and only when its own-unit lower
        bound does not already pull (see the module docstring).
        """
        mask = self.deferred
        if mask is not None:
            self.deferred = None
            # One entry per unit holding vertices (an empty graph still
            # has one shard, so ``own`` may be shorter than unit_edges).
            own = np.logical_or.reduceat(
                mask, np.arange(0, mask.size, self.unit_size)
            )
            bound = int(unit_edges[:own.size][own].sum())
            if choose_direction(bound, total_edges) == "pull":
                return "pull"
            self.dirty = resume_dirty(
                mask, self.unit_size, self.dirty.size, self.indptr,
                self.targets, self.flush_pos,
            )
        return choose_direction(int(unit_edges[self.dirty].sum()), total_edges)

    def active(self, lo: int, hi: int) -> np.ndarray:
        """Absolute indices of dirty units within ``[lo, hi)``."""
        return lo + np.flatnonzero(self.dirty[lo:hi])

    def clear(self, units: np.ndarray) -> None:
        self.dirty[units] = False

    def mark(self, updated_vertices: np.ndarray) -> None:
        """Mark the updaters' own units and every unit they influence."""
        upd = np.asarray(updated_vertices, dtype=np.int64)
        if not upd.size:
            return
        self.dirty[upd // self.unit_size] = True
        edges = multi_arange(self.indptr[upd], self.indptr[upd + 1])
        self.dirty[self.targets[edges]] = True

    def defer(self, updated_mask: np.ndarray) -> None:
        """End a pull iteration: it processed every unit, so its bitmap is
        :func:`resume_dirty` of ``updated_mask``, rebuilt only if the next
        :meth:`direction` needs it.  The mask is held, not copied, and must
        not change before that call.
        """
        assert self.flush_pos is not None
        self.deferred = updated_mask
