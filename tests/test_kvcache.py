import json

import numpy as np
import pytest

from parcot.errors import CacheConsistencyError, LifecycleError
from parcot.kvcache import PagedKVCache, Rows, assemble_summary_view, reserved_slab, row_index
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
        cache.reserve(PROMPT, 1)
        k, v = entry()
        addr = cache.append(PROMPT, k, v)
        got_k, got_v = cache.tables[PROMPT].read(addr.index)
        assert np.array_equal(got_k, k) and np.array_equal(got_v, v)

    def test_write_to_an_unreserved_segment_raises(self):
        cache = make_cache()
        k, v = entry()
        with pytest.raises(CacheConsistencyError):
            cache.append(PROMPT, k, v)
        with pytest.raises(CacheConsistencyError, match="never reserved"):
            reserved_slab([cache.table(path_key(0))])
        assert cache.length(PROMPT) == 0
        cache.table(ANSWER)  # known to a summary view, still without storage
        with pytest.raises(CacheConsistencyError):
            cache.append(ANSWER, k, v)
        assert cache.length(ANSWER) == 0

    def test_interleaved_appends_stay_per_path(self):
        cache = make_cache()
        cache.reserve_paths(4, 6)
        log = []  # flat reference: (segment, k-bytes, v-bytes)
        for step in range(6):
            for i in range(4):
                k, v = entry()
                cache.append(path_key(i), k, v)
                log.append((path_key(i), k.tobytes(), v.tobytes()))
        for i in range(4):
            table = cache.tables[path_key(i)]
            expected = [(kb, vb) for seg, kb, vb in log if seg == path_key(i)]
            assert table.filled == len(expected)
            for idx, (kb, vb) in enumerate(expected):
                got_k, got_v = table.read(idx)
                assert got_k.tobytes() == kb
                assert got_v.tobytes() == vb

    def test_bad_shape_rejected(self):
        cache = make_cache()
        bad = np.zeros((1, 2, 4), dtype=np.float32)
        with pytest.raises(CacheConsistencyError):
            cache.append(PROMPT, bad, bad)

    def test_capacity_limit(self):
        cache = make_cache()
        cache.reserve(PROMPT, 2)
        k, v = entry()
        cache.append(PROMPT, k, v)
        cache.append(PROMPT, k, v)
        with pytest.raises(CacheConsistencyError):
            cache.append(PROMPT, k, v)
        assert cache.length(PROMPT) == 2

    def test_reserve_rejects_a_written_segment(self):
        cache = make_cache()
        cache.reserve(PROMPT, 1)
        k, v = entry()
        cache.append(PROMPT, k, v)
        with pytest.raises(LifecycleError):
            cache.reserve(PROMPT, 4)
        cache.reserve_paths(2, 3)
        with pytest.raises(LifecycleError):
            cache.reserve_paths(2, 3)

    def test_read_past_fill_rejected(self):
        cache = make_cache()
        cache.reserve(PROMPT, 1)
        k, v = entry()
        cache.append(PROMPT, k, v)
        with pytest.raises(CacheConsistencyError):
            cache.tables[PROMPT].read(1)


class TestGather:
    def test_single_segment_comes_back_as_views(self):
        cache = make_cache()
        cache.reserve(PROMPT, 4)
        for t in range(3):
            k, v = entry()
            cache.append(PROMPT, k, v)
        keys, values = cache.gather(PROMPT, layer=0)
        storage = cache.tables[PROMPT].slab
        assert keys.shape == (3, DIMS["n_heads"], DIMS["d_k"])
        assert keys.base is storage.k and values.base is storage.v


def block(rows, m):
    """k (or v) for ``m`` new slots of ``rows`` segments at one layer."""
    return RNG.standard_normal((rows, m, DIMS["n_heads"], DIMS["d_k"])).astype(np.float32)


def write_rows(cache, segments, n):
    """A handle for ``n`` new slots of ``segments``, resolved as a stage
    plan resolves its owners: their one reserved slab and their rows."""
    segs = [cache.table(segment) for segment in segments]
    return Rows(reserved_slab(segs), row_index([s.row for s in segs]), segs, segs[0].filled, n)


class TestRows:
    def test_staged_slots_are_invisible_until_commit(self):
        cache = make_cache()
        cache.reserve(PROMPT, 5)
        k, v = entry()
        cache.append(PROMPT, k, v)
        held = cache.tables[PROMPT].content_hash()
        rows = write_rows(cache, [PROMPT], 3)
        staged = [(block(1, 3), block(1, 3)) for _ in range(DIMS["n_layers"])]
        for layer, (k3, v3) in enumerate(staged):
            rows.stage(layer, 0, k3[:, :2], v3[:, :2])
            rows.stage(layer, 2, k3[:, 2:], v3[:, 2:])
        assert cache.length(PROMPT) == 1
        assert cache.gather(PROMPT, 0)[0].shape[0] == 1
        assert cache.tables[PROMPT].content_hash() == held
        # the writing pass reads its own staged slots back
        assert np.array_equal(rows.keys(1, 4)[0, 1:], staged[1][0][0])
        assert np.array_equal(rows.values(0, 4)[0, 1:], staged[0][1][0])
        rows.commit()
        assert cache.length(PROMPT) == 4
        keys, values = cache.gather(PROMPT, 1)
        assert np.array_equal(keys[1:], staged[1][0][0])
        assert np.array_equal(values[1:], staged[1][1][0])
        # the slot written before the handle was taken keeps its k/v
        assert np.array_equal(keys[0], k[1]) and np.array_equal(values[0], v[1])

    def test_mismatched_commit_raises(self):
        cache = make_cache()
        cache.reserve_paths(2, 4)
        rows = write_rows(cache, [path_key(0), path_key(1)], 2)
        with pytest.raises(CacheConsistencyError):  # past the new slots
            rows.stage(0, 1, block(2, 2), block(2, 2))
        assert [cache.length(path_key(i)) for i in range(2)] == [0, 0]
        rows.commit()
        with pytest.raises(CacheConsistencyError):  # committed once already
            rows.commit()
        assert [cache.length(path_key(i)) for i in range(2)] == [2, 2]


class TestPathSlab:
    def test_batched_rows_write_and_read_the_slab(self):
        cache = make_cache()
        slab = cache.reserve_paths(3, 4)
        segments = [path_key(i) for i in range(3)]
        written = []
        for t in range(2):
            rows = write_rows(cache, segments, 1)
            k = [block(3, 1) for _ in range(DIMS["n_layers"])]
            for layer in range(DIMS["n_layers"]):
                rows.stage(layer, 0, k[layer], k[layer] + 1)
            rows.commit()
            written.append(k)
        for i in range(3):
            got_k, got_v = cache.tables[path_key(i)].read(1)
            for layer in range(DIMS["n_layers"]):
                assert np.array_equal(got_k[layer], written[1][layer][i, 0])
                assert np.array_equal(got_v[layer], written[1][layer][i, 0] + 1)
        # every row in order, or one row: views of the slab; a subset: copied
        rows = write_rows(cache, segments, 1)
        keys, values = rows.keys(1, 2), rows.values(1, 2)
        assert keys.shape == (3, 2, DIMS["n_heads"], DIMS["d_k"])
        assert keys.base is slab.k and values.base is slab.v
        one = write_rows(cache, [path_key(1)], 1).keys(1, 2)
        assert one.base is slab.k and np.array_equal(one[0], keys[1])
        subset = write_rows(cache, [path_key(2), path_key(0)], 1)
        sub_k = subset.keys(1, 2)
        assert np.array_equal(sub_k, keys[[2, 0]])
        assert not np.shares_memory(sub_k, slab.k)
        # a subset of rows writes only its own rows
        new_k, new_v = block(2, 1), block(2, 1)
        subset.stage(0, 0, new_k, new_v)
        subset.commit()
        assert [cache.length(path_key(i)) for i in range(3)] == [3, 2, 3]
        for i, row in ((2, 0), (0, 1)):  # the subset's rows, in its order
            got_k, got_v = cache.tables[path_key(i)].read(2)
            assert np.array_equal(got_k[0], new_k[row, 0])
            assert np.array_equal(got_v[0], new_v[row, 0])

    def test_rows_must_be_reserved_and_in_step(self):
        cache = make_cache()
        one = np.zeros((DIMS["n_layers"], DIMS["n_heads"], DIMS["d_k"]), dtype=np.float32)
        pair = [path_key(0), path_key(1)]
        with pytest.raises(CacheConsistencyError, match="never reserved"):
            write_rows(cache, pair, 1)
        cache.reserve(PROMPT, 4)
        cache.reserve_paths(2, 1)
        with pytest.raises(CacheConsistencyError, match="share one slab"):
            write_rows(cache, [PROMPT, path_key(0)], 1)
        cache.append(path_key(0), one, one)
        with pytest.raises(CacheConsistencyError, match="does not extend"):  # unequal lengths
            write_rows(cache, pair, 1)
        cache.append(path_key(1), one, one)
        with pytest.raises(CacheConsistencyError, match="full"):
            write_rows(cache, pair, 1)
        assert [cache.length(path_key(i)) for i in range(2)] == [1, 1]


def fill_session_like(cache, l_x=3, path_lengths=(4, 4)):
    cache.reserve(PROMPT, l_x)
    if cache.paths is None:
        cache.reserve_paths(len(path_lengths), max(path_lengths))
    for t in range(l_x):
        k, v = entry()
        cache.append(PROMPT, k, v)
    for i, length in enumerate(path_lengths):
        for t in range(length):
            k, v = entry()
            cache.append(path_key(i), k, v)


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
        fill_session_like(cache, l_x=3, path_lengths=(4, 4))
        slab = cache.paths
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
        cache.append(ANSWER, k, v)
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
        assert dump["tables"][PROMPT] == {"capacity": 3, "filled": 3, "path_row": None}
        assert dump["tables"][path_key(0)] == {"capacity": 4, "filled": 2, "path_row": 0}
