import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcot.errors import (
    CacheConsistencyError,
    ConfigError,
    DataError,
    LayoutError,
    LifecycleError,
    PositionOverflowError,
)
from parcot.kvcache import PagedKVCache, SlotAddress, assemble_summary_view
from parcot.masking import SUMMARIZATION, LayoutPlan
from parcot.model import (
    CAUSAL_CHUNK,
    FLAT,
    REASONING,
    DecodeLayout,
    ModelConfig,
    StagePlan,
    attend,
    forward_causal,
    forward_paths,
    forward_step,
    init_weights,
    load_weights,
    prefill,
    save_weights,
)
from parcot.positional import (
    ANSWER,
    FLATTENED,
    PROMPT,
    SHARED,
    PositionAssignment,
    init_thought_table,
    path_key,
    zero_thought_table,
)

from oracles import causal_mask, dense_logits


def reasoning_layout(l_x, labels, l_max=16):
    return DecodeLayout(
        stage=REASONING,
        assignment=PositionAssignment(
            SHARED, l_x=l_x, l_max=l_max, num_paths=max(len(labels), 1)
        ),
        thought_labels=tuple(labels),
    )


def fresh_cache(cfg, slots=1024):
    """A cache with storage reserved for every segment these tests write."""
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    for segment in (PROMPT, path_key(0), path_key(1), "seq"):
        cache.reserve(segment, slots)
    return cache


class TestConfig:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=60, n_heads=4, d_k=16, d_ff=64, vocab_size=300)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=60, n_heads=4, d_k=15, d_ff=64, vocab_size=300)


class TestInitWeights:
    def test_deterministic(self, toy_config):
        a = init_weights(toy_config, seed=42)
        b = init_weights(toy_config, seed=42)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_seed_sensitivity(self, toy_config):
        a = init_weights(toy_config, seed=42)
        b = init_weights(toy_config, seed=43)
        assert any(not np.array_equal(ta, tb) for ta, tb in zip(a.tensors(), b.tensors()))

    def test_all_entries_finite(self, toy_config):
        weights = init_weights(toy_config, seed=7)
        for tensor in weights.tensors():
            assert np.all(np.isfinite(tensor))

    def test_scale(self, toy_config):
        weights = init_weights(toy_config, seed=7)
        std = float(np.std(weights.embedding))
        assert abs(std - toy_config.d_model**-0.5) < 0.02


class TestAttend:
    def test_single_visible_entry_returns_its_value(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((2, 4)).astype(np.float32)
        keys = rng.standard_normal((1, 2, 4)).astype(np.float32)
        values = rng.standard_normal((1, 2, 4)).astype(np.float32)
        out = attend(q[None], [keys], [values], d_k=4)
        assert np.array_equal(out[0], values[0])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_grouped_part_equals_its_groups(self, rows):
        """Slab rows read in place as one [1, g, m, H, d_k] part attend like
        the same rows given as one part each."""
        rng = np.random.default_rng(11)
        heads, d_k = 4, 8
        q = rng.standard_normal((rows, heads, d_k)).astype(np.float32)
        shared = rng.standard_normal((2, 7, heads, d_k)).astype(np.float32)
        slab = rng.standard_normal((2, 3, 5, heads, d_k)).astype(np.float32)
        own = rng.standard_normal((2, rows, heads, d_k)).astype(np.float32)
        grouped = slab[:, None, :, :4]  # 4 of each row's 5 slots: a strided view
        assert np.shares_memory(grouped, slab)
        got = attend(
            q, [shared[0], grouped[0], own[0]], [shared[1], grouped[1], own[1]], d_k,
            causal=True,
        )
        split = [[shared[i], *slab[i, :, :4], own[i]] for i in range(2)]
        want = attend(q, split[0], split[1], d_k, causal=True)
        assert np.max(np.abs(got - want)) <= 1e-6


class TestForwardStep:
    def test_matches_dense_oracle_on_prompt(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=6, labels=(1,))
        tokens = [3, 99, 20, 7, 250, 31]
        got = []
        for t, token in enumerate(tokens):
            got.append(
                forward_step(
                    small_weights, small_table, cache, layout, token, SlotAddress(PROMPT, t)
                )
            )
        want = dense_logits(
            small_weights,
            small_table,
            tokens,
            positions=list(range(1, 7)),
            thoughts=[0] * 6,
            visible=causal_mask(6),
        )
        diff = np.max(np.abs(np.stack(got) - want))
        assert diff <= 1e-5

    def test_identical_paths_with_zero_thoughts_match(self, small_weights, vocab):
        cfg = small_weights.config
        zero = zero_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=2, labels=(1, 2))
        prefill(small_weights, zero, cache, layout, [10, 11])
        stream = [vocab.think_open(1), 42, 7, 99]
        for t, token in enumerate(stream):
            a = forward_step(
                small_weights, zero, cache, layout, token, SlotAddress(path_key(0), t)
            )
            b = forward_step(
                small_weights, zero, cache, layout, token, SlotAddress(path_key(1), t)
            )
            assert np.array_equal(a, b)

    def test_perturbing_visible_entry_changes_logits(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=3, labels=(1,))
        prefill(small_weights, small_table, cache, layout, [5, 6, 7])
        probe = copy.deepcopy(cache)
        base = forward_step(
            small_weights, small_table, cache, layout, 42, SlotAddress(path_key(0), 0)
        )
        probe.tables[PROMPT].slab.k[0, 0, 1] += 0.25
        changed = forward_step(
            small_weights, small_table, probe, layout, 42, SlotAddress(path_key(0), 0)
        )
        assert np.max(np.abs(base - changed)) > 1e-7

    def test_perturbing_masked_entry_leaves_logits_alone(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=2, labels=(1, 2))
        prefill(small_weights, small_table, cache, layout, [5, 6])
        for t, token in enumerate([260, 33, 44]):
            forward_step(
                small_weights, small_table, cache, layout, token,
                SlotAddress(path_key(1), t),
            )
        probe = copy.deepcopy(cache)
        base = forward_step(
            small_weights, small_table, cache, layout, 42, SlotAddress(path_key(0), 0)
        )
        probe.tables[path_key(1)].slab.k[:, 0, :3] += 5.0
        probe.tables[path_key(1)].slab.v[:, 0, :3] += 5.0
        unchanged = forward_step(
            small_weights, small_table, probe, layout, 42, SlotAddress(path_key(0), 0)
        )
        assert np.array_equal(base, unchanged)

    def test_position_overflow(self, small_table):
        cfg = ModelConfig(
            n_layers=1, d_model=32, n_heads=2, d_k=16, d_ff=64, vocab_size=292,
            max_position=2,
        )
        weights = init_weights(cfg, seed=1)
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=3, labels=(1,))
        with pytest.raises(PositionOverflowError, match="prompt would reach position 3"):
            prefill(weights, small_table, cache, layout, [1, 2, 3])
        # every position is checked before the first slot is written
        assert cache.length(PROMPT) == 0
        # a decode step checks its own position: path slot 0 sits at 3
        layout = reasoning_layout(l_x=2, labels=(1,))
        prefill(weights, small_table, cache, layout, [1, 2])
        with pytest.raises(PositionOverflowError, match="path:0 would reach position 3"):
            forward_step(weights, small_table, cache, layout, 9, SlotAddress(path_key(0), 0))
        assert cache.length(path_key(0)) == 0
        assert not cache.tables[path_key(0)].slab.k.any()

    def test_slot_must_extend_segment(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=2, labels=(1,))
        prefill(small_weights, small_table, cache, layout, [1, 2])
        with pytest.raises(CacheConsistencyError):
            forward_step(
                small_weights, small_table, cache, layout, 9, SlotAddress(path_key(0), 1)
            )

    def test_missing_visible_entries_detected(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=4, labels=(1,))
        prefill(small_weights, small_table, cache, layout, [1, 2])  # two short
        with pytest.raises(CacheConsistencyError):
            forward_step(
                small_weights, small_table, cache, layout, 9, SlotAddress(path_key(0), 0)
            )

    def test_token_range_checked(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=1, labels=(1,))
        with pytest.raises(DataError):
            forward_step(
                small_weights, small_table, cache, layout, cfg.vocab_size,
                SlotAddress(PROMPT, 0),
            )

    @pytest.mark.parametrize("bad", [3.5, True, "7", None])
    def test_non_integer_ids_raise_data_error(self, small_weights, small_table, bad):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=3, labels=(1,))
        with pytest.raises(DataError, match="at offset 1 is not an integer"):
            prefill(small_weights, small_table, cache, layout, [5, bad, 6])
        assert cache.length(PROMPT) == 0


class TestBatchChecks:
    """A stage plan derives its owners' position and shared segments once;
    owners that do not share them raise when the plan is built, before any
    write."""

    def prefilled(self, weights, table, layout, num_paths=3):
        cfg = weights.config
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve(PROMPT, 2)
        prefill(weights, table, cache, layout, [5, 6])
        cache.reserve_paths(num_paths, 8)
        return cache

    def test_flattened_rows_do_not_share_a_position(self, small_weights, small_table):
        layout = DecodeLayout(
            stage=REASONING,
            assignment=PositionAssignment(FLATTENED, l_x=2, l_max=8, num_paths=3),
            thought_labels=(1, 2, 3),
        )
        cache = self.prefilled(small_weights, small_table, layout)
        for rows in ([0, 1, 2], [0, 2], [1, 2]):
            with pytest.raises(CacheConsistencyError, match="share one position"):
                StagePlan(cache, layout, [path_key(i) for i in rows])
        assert [cache.length(path_key(i)) for i in range(3)] == [0, 0, 0]
        # one flattened row alone is a batch
        plan = StagePlan(cache, layout, [path_key(2)])
        forward_paths(small_weights, small_table, plan, [40], [0], 0)

    def test_prompt_and_path_rows_do_not_batch(self, small_weights, small_table):
        layout = reasoning_layout(l_x=2, labels=(1, 2, 3))
        cache = self.prefilled(small_weights, small_table, layout)
        with pytest.raises(CacheConsistencyError):
            StagePlan(cache, layout, [path_key(0), PROMPT])

    def test_rows_must_extend_their_segments(self, small_weights, small_table):
        layout = reasoning_layout(l_x=2, labels=(1, 2, 3))
        cache = self.prefilled(small_weights, small_table, layout)
        plan = StagePlan(cache, layout, [path_key(0), path_key(1)])
        with pytest.raises(CacheConsistencyError, match="does not extend"):
            forward_paths(small_weights, small_table, plan, [40, 41], [0, 1], 1)

    def test_shared_rows_equal_their_single_row_passes(self, small_weights, small_table):
        layout = reasoning_layout(l_x=2, labels=(1, 2, 3))
        batched = self.prefilled(small_weights, small_table, layout)
        alone = self.prefilled(small_weights, small_table, layout)
        plan = StagePlan(batched, layout, [path_key(i) for i in range(3)])
        block = forward_paths(small_weights, small_table, plan, [40, 41, 42], [0, 1, 2], 0)
        for i in range(3):
            slot = SlotAddress(path_key(i), 0)
            row = forward_step(small_weights, small_table, alone, layout, 40 + i, slot)
            assert np.array_equal(block[i], row)


class TestStalePlan:
    """A plan that does not fit the pass or the cache raises before
    anything is staged."""

    def reasoned(self, weights, table, l_x=2, path_slots=0):
        """A cache holding an ``l_x``-slot prompt and ``path_slots`` slots
        of each of two paths, with answer storage reserved."""
        cfg = weights.config
        layout = reasoning_layout(l_x=l_x, labels=(1, 2))
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve(PROMPT, l_x)
        prefill(weights, table, cache, layout, list(range(5, 5 + l_x)))
        cache.reserve_paths(2, 8)
        cache.reserve(ANSWER, 4)
        plan = StagePlan(cache, layout, [path_key(0), path_key(1)])
        for t in range(path_slots):
            forward_paths(weights, table, plan, [40, 41], [0, 1], t)
        return cache, layout

    @staticmethod
    def summary_layout(l_x, reasoning_len):
        return DecodeLayout(
            stage=SUMMARIZATION,
            assignment=PositionAssignment(
                SHARED, l_x=l_x, l_max=8, num_paths=2, reasoning_len=reasoning_len
            ),
            thought_labels=(1, 2),
        )

    def test_segment_the_plan_does_not_own(self, small_weights, small_table):
        cache, layout = self.reasoned(small_weights, small_table)
        plan = StagePlan(cache, layout, [path_key(0)])
        for rows in ([1], [0, 1]):
            with pytest.raises(CacheConsistencyError, match=r"cannot write its rows \["):
                forward_paths(small_weights, small_table, plan, [40] * len(rows), rows, 0)
        assert [cache.length(path_key(i)) for i in range(2)] == [0, 0]
        assert not cache.paths.k.any()

    @pytest.mark.parametrize("fault, match", [
        ("never reserved", "never reserved"),
        ("owner named twice", "distinct owner segments"),
        ("row named twice", r"cannot write its rows \[1, 1\]"),
        ("not an owner", r"cannot write its rows \[2\]"),
        ("two slabs", "share one slab"),
        ("unequal lengths", r"does not extend segments holding \[1, 0\]"),
        ("does not extend", r"slot 1 does not extend segments holding \[0, 0\]"),
        ("full", "full at their reserved 2 slots"),
    ])
    def test_write_checks_raise_before_staging(self, small_weights, small_table, fault, match):
        """The plan checks its owners when it is built (distinct) and when
        it binds their storage at the first write (reserved, one slab); a
        pass checks the rows it names and the write handle the fill and
        the room.  Each raises before a slot is staged."""
        cfg = small_weights.config
        layout = reasoning_layout(l_x=2, labels=(1, 2))
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve(PROMPT, 2)
        prefill(small_weights, small_table, cache, layout, [5, 6])
        owners, rows, index = [path_key(0), path_key(1)], [0, 1], 0
        if fault == "two slabs":
            cache.reserve(path_key(0), 2)
            cache.reserve(path_key(1), 2)
        elif fault != "never reserved":
            cache.reserve_paths(2, 2)
        if fault == "owner named twice":
            owners = [path_key(0), path_key(0)]
        elif fault == "row named twice":
            rows = [1, 1]
        elif fault == "not an owner":
            rows = [2]
        elif fault == "unequal lengths":
            forward_paths(small_weights, small_table, StagePlan(cache, layout, owners), [40], [0], 0)
        elif fault == "does not extend":
            index = 1
        elif fault == "full":
            plan = StagePlan(cache, layout, owners)
            for t in range(2):
                forward_paths(small_weights, small_table, plan, [40, 41], rows, t)
            index = 2
        lengths = [cache.length(segment) for segment in owners]
        held = [cache.table(segment).slab.k.copy() for segment in owners]
        with pytest.raises(CacheConsistencyError, match=match):
            plan = StagePlan(cache, layout, owners)
            forward_paths(small_weights, small_table, plan, [40] * len(rows), rows, index)
        assert [cache.length(segment) for segment in owners] == lengths
        for segment, k in zip(owners, held):
            assert np.array_equal(cache.table(segment).slab.k, k)

    def test_path_outside_the_layout(self, small_weights, small_table):
        cache, layout = self.reasoned(small_weights, small_table)
        for segment in (path_key(2), "path:-1"):
            with pytest.raises(LayoutError, match="not one of the layout's paths"):
                StagePlan(cache, layout, [segment])

    def test_reasoning_plan_for_an_answer_slot(self, small_weights, small_table):
        # a pass names only the plan's own owners, so the answer cannot be
        # reached through a reasoning plan; the answer's causal pass under
        # one raises before staging
        cache, layout = self.reasoned(small_weights, small_table, path_slots=2)
        plan = StagePlan(cache, layout, [path_key(0), path_key(1)])
        held = cache.paths.k.copy()
        with pytest.raises(CacheConsistencyError, match="writes one segment, the plan owns 2"):
            forward_causal(small_weights, small_table, plan, [40], 2)
        assert [cache.length(path_key(i)) for i in range(2)] == [2, 2]
        assert np.array_equal(cache.paths.k, held)
        assert cache.length(ANSWER) == 0
        assert not cache.tables[ANSWER].slab.k.any()

    def test_plan_built_before_its_shared_segments_are_complete(self, small_weights, small_table):
        cache, _ = self.reasoned(small_weights, small_table, l_x=2)
        with pytest.raises(CacheConsistencyError, match="'prompt' holds 2 slots, expected 4"):
            StagePlan(cache, reasoning_layout(l_x=4, labels=(1, 2)), [path_key(0)])
        cache, _ = self.reasoned(small_weights, small_table, path_slots=2)
        with pytest.raises(CacheConsistencyError, match="longest visible path holds 2 slots"):
            StagePlan(cache, self.summary_layout(2, reasoning_len=3), [ANSWER])
        StagePlan(cache, self.summary_layout(2, reasoning_len=2), [ANSWER])  # complete now

    def test_short_path_is_the_summary_views_check(self, small_weights, small_table):
        """The layout knows the longest path only: a path short of its own
        length passes the plan, and ``assemble_summary_view`` (which the
        engine runs before the answer stage) rejects it."""
        cache, layout = self.reasoned(small_weights, small_table, path_slots=2)
        plan = StagePlan(cache, layout, [path_key(1)])
        forward_paths(small_weights, small_table, plan, [42], [0], 2)
        StagePlan(cache, self.summary_layout(2, reasoning_len=3), [ANSWER])
        with pytest.raises(LifecycleError, match="path:0 holds 2 slots, layout says 3"):
            assemble_summary_view(cache, LayoutPlan(2, (3, 3), 0, SUMMARIZATION))


class TestPrefill:
    def test_equivalent_to_iterated_steps(self, small_weights, small_table):
        cfg = small_weights.config
        tokens = [9, 8, 7, 6]
        layout = reasoning_layout(l_x=5, labels=(1,))

        cache_a = fresh_cache(cfg)
        last_a = prefill(small_weights, small_table, cache_a, layout, tokens)
        next_a = forward_step(
            small_weights, small_table, cache_a, layout, 55, SlotAddress(PROMPT, 4)
        )

        cache_b = fresh_cache(cfg)
        last_b = None
        for t, token in enumerate(tokens):
            last_b = forward_step(
                small_weights, small_table, cache_b, layout, token, SlotAddress(PROMPT, t)
            )
        next_b = forward_step(
            small_weights, small_table, cache_b, layout, 55, SlotAddress(PROMPT, 4)
        )
        assert np.max(np.abs(last_a - last_b)) <= 1e-5
        assert np.max(np.abs(next_a - next_b)) <= 1e-5

    @pytest.mark.parametrize(
        "length",
        [1, CAUSAL_CHUNK - 1, CAUSAL_CHUNK, CAUSAL_CHUNK + 1, 3 * CAUSAL_CHUNK + 5, 768],
    )
    @pytest.mark.parametrize("kind", ["prompt", "flat", "path"])
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_causal_blocks_match_iterated_steps(
        self, small_weights, small_table, kind, length, seed
    ):
        """Blocked prefill (prompt, thought row 0), a flattened sequence
        with gapped positions, and a path block that also sees the prompt
        all match one forward_step per slot, then decode the next slot
        alike."""
        cfg = small_weights.config
        rng = np.random.default_rng(seed)
        tokens = [int(t) for t in rng.integers(0, 256, size=length)]
        before = []  # slots both caches hold first, fed one step at a time
        if kind == "prompt":
            segment = PROMPT
            layout = reasoning_layout(l_x=length, labels=(1,))
            next_slot = SlotAddress(path_key(0), 0)
        elif kind == "flat":
            segment = "seq"
            gaps = rng.integers(1, 4, size=length + 1)
            layout = DecodeLayout(stage=FLAT, flat_positions=tuple(np.cumsum(gaps).tolist()))
            next_slot = SlotAddress(segment, length)
        else:
            segment = path_key(0)
            layout = reasoning_layout(l_x=5, labels=(1,), l_max=length + 1)
            before = [(PROMPT, int(t)) for t in rng.integers(0, 256, size=5)]
            next_slot = SlotAddress(segment, length)

        caches = [fresh_cache(cfg), fresh_cache(cfg)]
        for cache in caches:
            for t, (seg, token) in enumerate(before):
                forward_step(
                    small_weights, small_table, cache, layout, token, SlotAddress(seg, t)
                )
        blocked, stepped = caches
        if kind == "prompt":
            got = prefill(small_weights, small_table, blocked, layout, tokens)[None]
        else:
            got = forward_causal(
                small_weights, small_table, StagePlan(blocked, layout, [segment]), tokens, 0,
                keep=length,
            )
        want = np.stack([
            forward_step(
                small_weights, small_table, stepped, layout, token, SlotAddress(segment, t)
            )
            for t, token in enumerate(tokens)
        ])[-len(got):]
        assert np.max(np.abs(got - want)) <= 1e-5
        assert blocked.length(segment) == stepped.length(segment) == length
        for li in range(cfg.n_layers):  # same positions and thought rows, so the same k/v
            for got_kv, want_kv in zip(blocked.gather(segment, li), stepped.gather(segment, li)):
                assert np.max(np.abs(got_kv - want_kv)) <= 1e-5
        after = [
            forward_step(small_weights, small_table, cache, layout, 42, next_slot)
            for cache in caches
        ]
        assert np.max(np.abs(after[0] - after[1])) <= 1e-5

    @pytest.mark.parametrize("fault", ["token", "position"])
    def test_fault_in_a_later_chunk_writes_nothing(self, small_weights, small_table, fault):
        cfg = small_weights.config
        n = 2 * CAUSAL_CHUNK + 3
        bad = CAUSAL_CHUNK + 5  # row of the second chunk
        tokens = [7] * n
        weights = small_weights
        if fault == "token":
            tokens[bad] = cfg.vocab_size
            error = DataError
        else:  # prompt slot 3 + bad sits at position 4 + bad
            weights = init_weights(dataclasses.replace(cfg, max_position=3 + bad), seed=3)
            error = PositionOverflowError
        cache = fresh_cache(cfg)
        cache.reserve(PROMPT, 3 + n)
        layout = reasoning_layout(l_x=3 + n, labels=(1,))
        prefill(weights, small_table, cache, layout, [1, 2, 3])
        held = cache.tables[PROMPT].content_hash()
        with pytest.raises(error):
            prefill(weights, small_table, cache, layout, tokens)
        assert cache.length(PROMPT) == 3
        assert cache.tables[PROMPT].content_hash() == held

    def test_prefill_memory_is_bounded_by_chunk_rows(self, toy_config, vocab):
        cfg = toy_config
        weights = init_weights(cfg, seed=1)
        table = init_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k, seed=2)
        l_x = 768
        tokens = [int(t) for t in np.random.default_rng(3).integers(0, 256, size=l_x)]
        layout = reasoning_layout(l_x=l_x, labels=(1,))
        prefill(weights, table, fresh_cache(cfg), layout, tokens[:CAUSAL_CHUNK])
        cache = fresh_cache(cfg)
        cache.reserve(PROMPT, l_x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prefill(weights, table, cache, layout, tokens)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a few float32 [n_heads, CAUSAL_CHUNK, l_x] score blocks at most;
        # one [n_heads, l_x, l_x] score matrix would be 9.4 MB
        assert peak <= 3 * cfg.n_heads * CAUSAL_CHUNK * l_x * 4, peak

    def test_short_flat_layout_raises_before_staging(self, small_weights, small_table):
        cfg = small_weights.config
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve("seq", 5)
        layout = DecodeLayout(stage=FLAT, flat_positions=(1, 2, 3))
        with pytest.raises(LayoutError, match="flat layout lists 3 positions"):
            forward_causal(
                small_weights, small_table, StagePlan(cache, layout, ["seq"]), [5, 6, 7, 8], 0
            )
        assert cache.length("seq") == 0
        assert not cache.tables["seq"].slab.k.any()
        assert layout.positions("seq", 1, 2).tolist() == [2, 3]

    def test_empty_prefill_errors_without_cache_change(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        layout = reasoning_layout(l_x=3, labels=(1,))
        with pytest.raises(DataError):
            prefill(small_weights, small_table, cache, layout, [])
        assert cache.length(PROMPT) == 0

    def test_prefill_twice_identical_cache(self, small_weights, small_table):
        cfg = small_weights.config
        layout = reasoning_layout(l_x=3, labels=(1,))
        caches = []
        for _ in range(2):
            cache = fresh_cache(cfg)
            prefill(small_weights, small_table, cache, layout, [4, 5, 6])
            caches.append(cache)
        a, b = caches
        assert a.debug_tables() == b.debug_tables()
        assert (
            a.tables[PROMPT].content_hash() == b.tables[PROMPT].content_hash()
        )


class TestWeightFile:
    def test_round_trip(self, small_weights, tmp_path):
        path = str(tmp_path / "model.ptw")
        save_weights(small_weights, path)
        loaded = load_weights(path)
        assert loaded.config == small_weights.config
        for ta, tb in zip(loaded.tensors(), small_weights.tensors()):
            assert np.array_equal(ta, tb)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ptw"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ConfigError):
            load_weights(str(path))

    def test_truncated(self, small_weights, tmp_path):
        path = tmp_path / "model.ptw"
        save_weights(small_weights, str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            load_weights(str(path))
