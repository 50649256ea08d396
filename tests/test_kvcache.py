import json

import numpy as np
import pytest

from parcot.errors import CacheConsistencyError, LifecycleError
from parcot.kvcache import GROWTH_SLOTS, PagedKVCache, assemble_summary_view
from parcot.masking import REASONING, SUMMARIZATION, LayoutPlan
from parcot.positional import ANSWER, PROMPT, path_key

RNG = np.random.default_rng(99)

DIMS = dict(n_layers=2, n_heads=2, d_k=4)


def make_cache():
    return PagedKVCache(**DIMS)


def entry():
    shape = (DIMS["n_layers"], DIMS["n_heads"], DIMS["d_k"])
    return (
        RNG.standard_normal(shape).astype(np.float32),
        RNG.standard_normal(shape).astype(np.float32),
    )


class TestAppendRead:
    def test_round_trip(self):
        cache = make_cache()
        k, v = entry()
        addr = cache.append(PROMPT, k, v, position=7, j=3)
        got_k, got_v, pos, j = cache.tables[PROMPT].read(addr.index)
        assert np.array_equal(got_k, k) and np.array_equal(got_v, v)
        assert (pos, j) == (7, 3)

    def test_seventeen_appends_grow_an_unreserved_segment(self):
        cache = make_cache()
        ks = []
        for t in range(GROWTH_SLOTS + 1):
            k, v = entry()
            cache.append(PROMPT, k, v, position=t + 1, j=0)
            ks.append(k)
        table = cache.tables[PROMPT]
        assert table.slab.capacity == 2 * GROWTH_SLOTS
        assert cache.length(PROMPT) == GROWTH_SLOTS + 1
        for t, k in enumerate(ks):  # growing kept every earlier slot
            assert np.array_equal(table.read(t)[0], k)
        assert table.positions().tolist() == list(range(1, GROWTH_SLOTS + 2))

    def test_interleaved_appends_stay_per_path(self):
        cache = make_cache()
        cache.reserve_paths(4, 6)
        log = []  # flat reference: (segment, position, k-bytes)
        for step in range(6):
            for i in range(4):
                k, v = entry()
                pos = 10 * i + step
                cache.append(path_key(i), k, v, position=pos, j=i + 1)
                log.append((path_key(i), pos, k.tobytes()))
        for i in range(4):
            table = cache.tables[path_key(i)]
            expected = [(seg, pos, kb) for seg, pos, kb in log if seg == path_key(i)]
            assert table.filled == len(expected)
            for idx, (_, pos, kb) in enumerate(expected):
                got_k, _, got_pos, got_j = table.read(idx)
                assert got_pos == pos
                assert got_j == i + 1
                assert got_k.tobytes() == kb

    def test_bad_shape_rejected(self):
        cache = make_cache()
        bad = np.zeros((1, 2, 4), dtype=np.float32)
        with pytest.raises(CacheConsistencyError):
            cache.append(PROMPT, bad, bad, position=1, j=0)

    def test_capacity_limit(self):
        cache = make_cache()
        cache.reserve(PROMPT, 2)
        k, v = entry()
        cache.append(PROMPT, k, v, 1, 0)
        cache.append(PROMPT, k, v, 2, 0)
        with pytest.raises(CacheConsistencyError):
            cache.append(PROMPT, k, v, 3, 0)
        assert cache.length(PROMPT) == 2

    def test_reserve_rejects_a_written_segment(self):
        cache = make_cache()
        k, v = entry()
        cache.append(PROMPT, k, v, 1, 0)
        with pytest.raises(LifecycleError):
            cache.reserve(PROMPT, 4)
        cache.reserve_paths(2, 3)
        with pytest.raises(LifecycleError):
            cache.reserve_paths(2, 3)

    def test_read_past_fill_rejected(self):
        cache = make_cache()
        k, v = entry()
        cache.append(PROMPT, k, v, 1, 0)
        with pytest.raises(CacheConsistencyError):
            cache.tables[PROMPT].read(1)


class TestGather:
    def test_order_across_segments_and_growth(self):
        cache = make_cache()
        ks = []
        for t in range(GROWTH_SLOTS + 1):
            k, v = entry()
            cache.append(PROMPT, k, v, t + 1, 0)
            ks.append(k)
        for t in range(3):
            k, v = entry()
            cache.append(path_key(0), k, v, GROWTH_SLOTS + 2 + t, 1)
            ks.append(k)
        gathered_k, _, positions = cache.gather([PROMPT, path_key(0)], layer=1)
        want = np.stack([k[1] for k in ks])
        assert np.array_equal(gathered_k, want)
        assert positions.tolist() == list(range(1, GROWTH_SLOTS + 5))

    def test_single_segment_comes_back_as_views(self):
        cache = make_cache()
        cache.reserve(PROMPT, 4)
        for t in range(3):
            k, v = entry()
            cache.append(PROMPT, k, v, t + 1, 0)
        keys, values, _ = cache.gather([PROMPT], layer=0)
        storage = cache.tables[PROMPT].slab
        assert keys.shape == (3, DIMS["n_heads"], DIMS["d_k"])
        assert keys.base is storage.k and values.base is storage.v


    def test_empty_segments_skipped(self):
        cache = make_cache()
        k, v = entry()
        cache.append(PROMPT, k, v, 1, 0)
        gathered_k, _, positions = cache.gather([PROMPT, path_key(0)], layer=0)
        assert gathered_k.shape[0] == 1 and positions.tolist() == [1]


class TestPathSlab:
    def test_batched_rows_write_and_read_the_slab(self):
        cache = make_cache()
        slab = cache.reserve_paths(3, 4)
        segments = [path_key(i) for i in range(3)]
        shape = (DIMS["n_layers"], 3, DIMS["n_heads"], DIMS["d_k"])
        written = []
        for t in range(2):
            k = RNG.standard_normal(shape).astype(np.float32)
            cache.append_paths(segments, k, k + 1, position=10 + t, thoughts=[1, 2, 3])
            written.append(k)
        for i in range(3):
            got_k, got_v, pos, j = cache.tables[path_key(i)].read(1)
            assert np.array_equal(got_k, written[1][:, i])
            assert np.array_equal(got_v, written[1][:, i] + 1)
            assert (pos, j) == (11, i + 1)
        # every row in order: views of the slab; a subset: copied rows
        keys, values = cache.gather_paths(segments, layer=1, length=2)
        assert keys.shape == (3, 2, DIMS["n_heads"], DIMS["d_k"])
        assert keys.base is slab.k and values.base is slab.v
        sub_k, _ = cache.gather_paths([path_key(2), path_key(0)], layer=1, length=2)
        assert np.array_equal(sub_k, keys[[2, 0]])
        assert not np.shares_memory(sub_k, slab.k)

    def test_rows_must_be_reserved_and_in_step(self):
        cache = make_cache()
        shape = (DIMS["n_layers"], 2, DIMS["n_heads"], DIMS["d_k"])
        k = np.zeros(shape, dtype=np.float32)
        with pytest.raises(CacheConsistencyError):
            cache.append_paths([path_key(0), path_key(1)], k, k, 5, [1, 2])
        cache.reserve_paths(2, 1)
        one = np.zeros(shape[:1] + shape[2:], dtype=np.float32)
        cache.append(path_key(0), one, one, 5, 1)
        with pytest.raises(CacheConsistencyError):  # unequal lengths
            cache.append_paths([path_key(0), path_key(1)], k, k, 6, [1, 2])
        cache.append(path_key(1), one, one, 5, 2)
        with pytest.raises(CacheConsistencyError):  # full
            cache.append_paths([path_key(0), path_key(1)], k, k, 6, [1, 2])
        assert [cache.length(path_key(i)) for i in range(2)] == [1, 1]


def fill_session_like(cache, l_x=3, path_lengths=(4, 4), answer=0):
    for t in range(l_x):
        k, v = entry()
        cache.append(PROMPT, k, v, t + 1, 0)
    for i, length in enumerate(path_lengths):
        for t in range(length):
            k, v = entry()
            cache.append(path_key(i), k, v, l_x + t + 1, i + 1)
    for t in range(answer):
        k, v = entry()
        cache.append(ANSWER, k, v, l_x + max(path_lengths) + t + 1, 0)


class TestSummaryView:
    def test_single_path_view_is_the_sequential_cache(self):
        cache = make_cache()
        fill_session_like(cache, l_x=2, path_lengths=(3,))
        layout = LayoutPlan(2, (3,), 0, SUMMARIZATION)
        view = assemble_summary_view(cache, layout)
        assert view.segments() == [PROMPT, path_key(0), ANSWER]
        assert view.entries[0][1] is cache.tables[PROMPT]
        assert view.entries[1][1] is cache.tables[path_key(0)]

    def test_slot_count(self):
        cache = make_cache()
        fill_session_like(cache, l_x=2, path_lengths=(5, 5, 5))
        layout = LayoutPlan(2, (5, 5, 5), 0, SUMMARIZATION)
        view = assemble_summary_view(cache, layout)
        assert view.total_slots() == 2 + 3 * 5

    def test_zero_copy_storage_identity(self):
        cache = make_cache()
        cache.reserve(PROMPT, 3)
        slab = cache.reserve_paths(2, 4)
        fill_session_like(cache, l_x=3, path_lengths=(4, 4))
        prompt_storage = cache.tables[PROMPT].slab
        layout = LayoutPlan(3, (4, 4), 0, SUMMARIZATION)
        view = assemble_summary_view(cache, layout)
        for seg, held in view.entries[:-1]:
            storage = prompt_storage if seg == PROMPT else slab
            assert held is cache.tables[seg] and held.slab is storage
            assert np.shares_memory(held.keys(0), storage.k)
        # sizing the answer keeps the view's answer entry; its writes leave
        # the prompt and path storage unchanged
        cache.reserve(ANSWER, 2)
        assert view.entries[-1][1] is cache.tables[ANSWER]
        hashes = {
            seg: cache.tables[seg].content_hash()
            for seg in (PROMPT, path_key(0), path_key(1))
        }
        k, v = entry()
        cache.append(ANSWER, k, v, 8, 0)
        for seg, digest in hashes.items():
            assert cache.tables[seg].content_hash() == digest

    def test_requires_summarization_stage(self):
        cache = make_cache()
        fill_session_like(cache, l_x=2, path_lengths=(2, 2))
        with pytest.raises(LifecycleError):
            assemble_summary_view(cache, LayoutPlan(2, (2, 2), 0, REASONING))

    def test_rejects_length_mismatch(self):
        cache = make_cache()
        fill_session_like(cache, l_x=2, path_lengths=(2, 2))
        with pytest.raises(LifecycleError):
            assemble_summary_view(cache, LayoutPlan(2, (2, 3), 0, SUMMARIZATION))


class TestDebugDump:
    def test_json_structure(self):
        cache = make_cache()
        cache.reserve_paths(1, 4)
        fill_session_like(cache, l_x=3, path_lengths=(2,))
        dump = json.loads(cache.debug_tables())
        assert dump["tables"][PROMPT] == {"capacity": GROWTH_SLOTS, "filled": 3, "path_row": None}
        assert dump["tables"][path_key(0)] == {"capacity": 4, "filled": 2, "path_row": 0}
