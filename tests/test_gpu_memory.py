"""Unit tests for the coalescing model, with hand-computed expectations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.gpu.memory as mem
from repro.gpu.memory import (
    TransactionCount,
    contiguous_transactions,
    gather_transactions,
    gather_transactions_segmented,
    segments_rowwise,
    strided_transactions,
)


def _distinct_pairs(indices, item_bytes, active, warp, tx_bytes, base):
    """Independent oracle: distinct (warp row, segment) pairs over the
    active threads — one transaction each."""
    pos = np.arange(indices.size, dtype=np.int64)
    if active is not None:
        pos = pos[active]
    if pos.size == 0:
        return 0
    seg = (base + indices[pos].astype(np.int64) * item_bytes) // tx_bytes
    return int(np.unique(np.stack([pos // warp, seg], axis=1), axis=0).shape[0])


#: Pricing parameters: item bytes, warp size, transaction bytes, base byte.
_pricing = st.tuples(
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 4, 8, 32]),
    st.sampled_from([32, 128]),
    st.sampled_from([0, 4, 64, 100]),
)
#: Addresses over a drawn range, so segments range from widely shared
#: (many equal ids per warp row) to mostly distinct.
_values = st.sampled_from([40, 400, 4000]).flatmap(
    lambda hi: st.lists(st.integers(0, hi), min_size=0, max_size=300)
)


class TestSegmentsRowwise:
    def test_single_row_distinct(self):
        seg = np.array([[0, 1, 2, 3]])
        assert segments_rowwise(seg) == 4

    def test_single_row_shared(self):
        seg = np.array([[5, 5, 5, 5]])
        assert segments_rowwise(seg) == 1

    def test_mask_excludes_lanes(self):
        seg = np.array([[0, 1, 2, 3]])
        mask = np.array([[True, False, True, False]])
        assert segments_rowwise(seg, mask) == 2

    def test_fully_masked_row(self):
        seg = np.array([[0, 1]])
        assert segments_rowwise(seg, np.zeros((1, 2), dtype=bool)) == 0

    def test_multiple_rows_sum(self):
        seg = np.array([[0, 0], [1, 2]])
        assert segments_rowwise(seg) == 3

    def test_empty(self):
        assert segments_rowwise(np.empty((0, 32), dtype=np.int64)) == 0


class TestGather:
    def test_fully_coalesced_warp(self):
        tc = gather_transactions(np.arange(32), 4, transaction_bytes=128)
        assert tc == TransactionCount(1, 128)

    def test_fully_scattered_warp(self):
        tc = gather_transactions(np.arange(32) * 64, 4, transaction_bytes=128)
        assert tc.transactions == 32

    def test_sector_granularity(self):
        """Kepler loads: 32 consecutive 4-byte items span 4 sectors of 32B."""
        tc = gather_transactions(np.arange(32), 4, transaction_bytes=32)
        assert tc.transactions == 4
        assert tc.efficiency(32) == 1.0

    def test_two_warps_counted_separately(self):
        """The same address touched by two warps costs two transactions."""
        idx = np.concatenate([np.zeros(32, dtype=int), np.zeros(32, dtype=int)])
        tc = gather_transactions(idx, 4, transaction_bytes=128)
        assert tc.transactions == 2

    def test_partial_tail_warp(self):
        tc = gather_transactions(np.arange(40), 4, transaction_bytes=128)
        assert tc.transactions == 2  # full warp 1 + tail crossing into seg 2
        assert tc.bytes_requested == 160

    def test_active_mask_reduces_requested_bytes(self):
        idx = np.arange(64)
        act = idx % 2 == 0
        tc = gather_transactions(idx, 4, active=act, transaction_bytes=128)
        assert tc.bytes_requested == 32 * 4

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            gather_transactions(np.arange(4), 4, active=np.ones(3, dtype=bool))

    def test_empty(self):
        assert gather_transactions(np.empty(0), 4).transactions == 0

    def test_base_byte_offset_can_split_segments(self):
        aligned = gather_transactions(np.arange(32), 4, transaction_bytes=128)
        shifted = gather_transactions(
            np.arange(32), 4, base_byte=64, transaction_bytes=128
        )
        assert shifted.transactions == aligned.transactions + 1

    def test_item_bytes_scale_requested(self):
        tc8 = gather_transactions(np.arange(16), 8, transaction_bytes=128)
        assert tc8.bytes_requested == 128
        assert tc8.transactions == 1

    def test_chunking_consistent(self):
        """Chunked processing must match a single-shot computation."""
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 10_000, size=5000)

        whole = gather_transactions(idx, 4)
        old = mem._CHUNK_ROWS
        try:
            mem._CHUNK_ROWS = 4  # force many chunks
            chunked = gather_transactions(idx, 4)
        finally:
            mem._CHUNK_ROWS = old
        assert whole == chunked


class TestPricingProperties:
    """Both orderings of the same addresses: ascending inputs take the
    run-counting branch, shuffled ones the sorting branch."""

    @staticmethod
    def _orderings(values, seed):
        asc = np.sort(np.asarray(values, dtype=np.int64))
        shuffled = np.random.default_rng(seed).permutation(asc)
        return asc, shuffled

    @settings(max_examples=80, deadline=None)
    @given(
        values=_values,
        cuts=st.lists(st.integers(0, 300), max_size=6),
        pricing=_pricing,
        seed=st.integers(0, 2**16),
    )
    def test_segmented_equals_sum_of_calls(self, values, cuts, pricing, seed):
        item_bytes, warp, tx_bytes, base = pricing
        m = len(values)
        offsets = np.array(
            [0] + sorted(min(c, m) for c in cuts) + [m], dtype=np.int64
        )
        kw = dict(warp_size=warp, transaction_bytes=tx_bytes, base_byte=base)
        for idx in self._orderings(values, seed):
            calls = [
                gather_transactions(idx[lo:hi], item_bytes, **kw)
                for lo, hi in zip(offsets[:-1], offsets[1:])
            ]
            total, per = gather_transactions_segmented(
                idx, item_bytes, offsets, per_segment=True, **kw
            )
            assert total == sum(calls, TransactionCount(0, 0))
            assert per.tolist() == [c.transactions for c in calls]
            assert gather_transactions_segmented(
                idx, item_bytes, offsets, **kw
            ) == total

    @settings(max_examples=80, deadline=None)
    @given(
        values=_values,
        active_bits=st.lists(st.booleans(), min_size=300, max_size=300),
        pricing=_pricing,
        seed=st.integers(0, 2**16),
    )
    def test_gather_with_active_mask(self, values, active_bits, pricing, seed):
        item_bytes, warp, tx_bytes, base = pricing
        active = np.array(active_bits[:len(values)], dtype=bool)
        kw = dict(warp_size=warp, transaction_bytes=tx_bytes, base_byte=base)
        for idx in self._orderings(values, seed):
            for act in (None, active):
                tc = gather_transactions(idx, item_bytes, active=act, **kw)
                assert tc.transactions == _distinct_pairs(
                    idx, item_bytes, act, warp, tx_bytes, base
                )
                n_act = idx.size if act is None else int(act.sum())
                assert tc.bytes_requested == n_act * item_bytes

    @pytest.mark.parametrize("warp", [4, 32])
    def test_runs_longer_than_one_chunk(self, warp):
        # Past _CHUNK_ROWS * warp_size threads gather_transactions prices
        # chunk by chunk, each chunk taking its own branch; ascending,
        # shuffled and mixed (first chunk ascending, tail shuffled) inputs
        # must all agree with the oracle there.
        n = mem._CHUNK_ROWS * warp + 37
        rng = np.random.default_rng(warp)
        asc = np.sort(rng.integers(0, 3 * n, size=n))
        active = rng.random(n) < 0.7
        offsets = np.array([0, 5, n // 2, n // 2, n], dtype=np.int64)
        head = mem._CHUNK_ROWS * warp
        mixed = np.concatenate([asc[:head], rng.permutation(asc[head:])])
        for idx in (asc, rng.permutation(asc), mixed):
            for act in (None, active):
                tc = gather_transactions(
                    idx, 4, active=act, warp_size=warp, base_byte=64
                )
                assert tc.transactions == _distinct_pairs(
                    idx, 4, act, warp, 128, 64
                )
            total, per = gather_transactions_segmented(
                idx, 4, offsets, warp_size=warp, base_byte=64,
                per_segment=True,
            )
            calls = [
                gather_transactions(
                    idx[lo:hi], 4, warp_size=warp, base_byte=64
                ).transactions
                for lo, hi in zip(offsets[:-1], offsets[1:])
            ]
            assert per.tolist() == calls
            assert total.transactions == sum(calls)


class TestContiguous:
    def test_aligned_block(self):
        tc = contiguous_transactions(1024, 4, transaction_bytes=128)
        assert tc.transactions == 32
        assert tc.efficiency(128) == 1.0

    def test_misaligned_start_adds_crossings(self):
        aligned = contiguous_transactions(1024, 4, transaction_bytes=128)
        off = contiguous_transactions(
            1024, 4, start_byte=4, transaction_bytes=128
        )
        assert off.transactions > aligned.transactions

    def test_tail_rows(self):
        tc = contiguous_transactions(33, 4, transaction_bytes=128)
        assert tc.transactions == 2
        assert tc.bytes_requested == 132

    def test_empty(self):
        assert contiguous_transactions(0, 4).transactions == 0

    def test_sector_loads(self):
        tc = contiguous_transactions(64, 4, transaction_bytes=32)
        assert tc.transactions == 8
        assert tc.efficiency(32) == 1.0


class TestStrided:
    def test_aos_field_access(self):
        """4-byte field at 16-byte stride: a warp spans 512 B = 4 lines."""
        tc = strided_transactions(32, 16, 4, transaction_bytes=128)
        assert tc.transactions == 4
        assert tc.efficiency(128) == pytest.approx(0.25)

    def test_degenerates_to_contiguous(self):
        a = strided_transactions(100, 4, 4, transaction_bytes=128)
        b = contiguous_transactions(100, 4, transaction_bytes=128)
        assert a == b

    def test_empty(self):
        assert strided_transactions(0, 16, 4).transactions == 0


class TestTransactionCount:
    def test_addition(self):
        a = TransactionCount(2, 100) + TransactionCount(3, 50)
        assert a == TransactionCount(5, 150)

    def test_efficiency_of_zero_transactions(self):
        assert TransactionCount(0, 0).efficiency() == 1.0
