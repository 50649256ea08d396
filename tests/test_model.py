import copy
import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from parcot import model
from parcot.errors import (
    CacheConsistencyError,
    ConfigError,
    DataError,
    LayoutError,
    LifecycleError,
    PositionOverflowError,
)
from parcot.kvcache import PagedKVCache, SlotAddress, assemble_summary_view
from parcot.masking import LayoutPlan
from parcot.model import (
    CAUSAL_CHUNK,
    ModelConfig,
    StagePlan,
    attend,
    forward,
    forward_step,
    init_weights,
    load_weights,
    prefill,
    save_weights,
)
from parcot.positional import (
    ANSWER,
    PROMPT,
    SHARED,
    PositionAssignment,
    init_thought_table,
    path_index,
    path_key,
    zero_thought_table,
)

from oracles import causal_mask, dense_logits, reference_answer_parts


def shared_plan(cache, owners, l_x, labels=(1,), l_max=16):
    """A plan for ``owners`` (the prompt, or paths) as the
    engine builds one: shared-scheme positions for the prompt's ``l_x``
    slots or a path's ``l_max``, thought index 0 for the prompt and
    ``labels[i]`` for path i."""
    positions = PositionAssignment(SHARED, l_x=l_x, l_max=l_max).positions(
        owners[0], 0, l_x if owners[0] == PROMPT else l_max
    )
    thoughts = [0 if seg == PROMPT else labels[path_index(seg)] for seg in owners]
    return StagePlan(cache, owners, thoughts, positions)


def summary_plan(cache, l_x, reasoning_len, slots=4):
    """The answer's plan after a reasoning stage of ``reasoning_len`` slots."""
    assignment = PositionAssignment(SHARED, l_x=l_x, l_max=0, reasoning_len=reasoning_len)
    return StagePlan(cache, [ANSWER], [0], assignment.positions(ANSWER, 0, slots))


def flat_plan(cache, positions):
    """The re-prefill baseline's plan: the prompt of a cache of its own
    (``cache``, whose prompt is reserved and empty) at listed positions."""
    return StagePlan(cache, [PROMPT], [0], positions)


def fresh_cache(cfg, slots=1024):
    """A cache with storage reserved for every segment these tests write."""
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    for segment in (PROMPT, path_key(0), path_key(1)):
        cache.reserve(segment, slots)
    return cache


class TestConfig:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=60, n_heads=4, d_k=16, d_ff=64, vocab_size=300)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=60, n_heads=4, d_k=15, d_ff=64, vocab_size=300)

    @pytest.mark.parametrize("field, bad", [
        ("n_layers", 2.5), ("n_layers", True), ("d_ff", np.bool_(True)),
        ("vocab_size", 292.0), ("max_position", 4096.5), ("d_model", "64"),
    ])
    def test_sizes_must_be_integers(self, field, bad):
        sizes = dict(n_layers=2, d_model=64, n_heads=4, d_k=16, d_ff=256, vocab_size=292)
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got"):
            ModelConfig(**{**sizes, field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0, True, "10000"])
    def test_rope_base_must_be_a_finite_positive_real(self, bad):
        with pytest.raises(ConfigError, match="^rope_base must be a finite positive real"):
            ModelConfig(n_layers=1, d_model=32, n_heads=2, d_k=16, d_ff=64, vocab_size=292,
                        rope_base=bad)

    def test_numpy_sizes_stored_as_int_and_rope_base_kept(self):
        cfg = ModelConfig(n_layers=np.int64(2), d_model=np.int32(32), n_heads=2, d_k=16,
                          d_ff=np.uint16(64), vocab_size=292, rope_base=500)
        assert all(type(getattr(cfg, f)) is int
                   for f in ("n_layers", "d_model", "d_ff", "max_position"))
        assert type(cfg.rope_base) is int
        assert type(ModelConfig(1, 32, 2, 16, 64, 292, np.float64(5.5)).rope_base) is np.float64


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
        own = rng.standard_normal((2, 1, rows, heads, d_k)).astype(np.float32)
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
        plan = shared_plan(cache, [PROMPT], l_x=6)
        tokens = [3, 99, 20, 7, 250, 31]
        got = []
        for t, token in enumerate(tokens):
            got.append(
                forward_step(small_weights, small_table, plan, token, SlotAddress(PROMPT, t))
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
        prefill(small_weights, zero, cache, [10, 11])
        plans = [shared_plan(cache, [path_key(i)], l_x=2, labels=(1, 2)) for i in range(2)]
        stream = [vocab.think_open(1), 42, 7, 99]
        for t, token in enumerate(stream):
            a, b = (
                forward_step(small_weights, zero, plan, token, SlotAddress(path_key(i), t))
                for i, plan in enumerate(plans)
            )
            assert np.array_equal(a, b)

    def test_perturbing_visible_entry_changes_logits(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        prefill(small_weights, small_table, cache, [5, 6, 7])
        probe = copy.deepcopy(cache)
        slot = SlotAddress(path_key(0), 0)
        base = forward_step(
            small_weights, small_table, shared_plan(cache, [path_key(0)], l_x=3), 42, slot
        )
        probe.tables[PROMPT].slab.k[0, 0, 1] += 0.25
        changed = forward_step(
            small_weights, small_table, shared_plan(probe, [path_key(0)], l_x=3), 42, slot
        )
        assert np.max(np.abs(base - changed)) > 1e-7

    def test_perturbing_masked_entry_leaves_logits_alone(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        prefill(small_weights, small_table, cache, [5, 6])
        other = shared_plan(cache, [path_key(1)], l_x=2, labels=(1, 2))
        for t, token in enumerate([260, 33, 44]):
            forward_step(small_weights, small_table, other, token, SlotAddress(path_key(1), t))
        probe = copy.deepcopy(cache)
        slot = SlotAddress(path_key(0), 0)
        base = forward_step(
            small_weights, small_table, shared_plan(cache, [path_key(0)], l_x=2), 42, slot
        )
        probe.tables[path_key(1)].slab.k[:, 0, :3] += 5.0
        probe.tables[path_key(1)].slab.v[:, 0, :3] += 5.0
        unchanged = forward_step(
            small_weights, small_table, shared_plan(probe, [path_key(0)], l_x=2), 42, slot
        )
        assert np.array_equal(base, unchanged)

    def test_position_overflow(self, small_table):
        cfg = ModelConfig(
            n_layers=1, d_model=32, n_heads=2, d_k=16, d_ff=64, vocab_size=292,
            max_position=2,
        )
        weights = init_weights(cfg, seed=1)
        cache = fresh_cache(cfg)
        with pytest.raises(PositionOverflowError, match="prompt would reach position 3"):
            prefill(weights, small_table, cache, [1, 2, 3])
        # every position is checked before the first slot is written
        assert cache.length(PROMPT) == 0
        # a decode step checks its own position: path slot 0 sits at 3
        prefill(weights, small_table, cache, [1, 2])
        plan = shared_plan(cache, [path_key(0)], l_x=2)
        with pytest.raises(PositionOverflowError, match="path:0 would reach position 3"):
            forward_step(weights, small_table, plan, 9, SlotAddress(path_key(0), 0))
        assert cache.length(path_key(0)) == 0
        assert not cache.tables[path_key(0)].slab.k.any()

    def test_slot_must_extend_segment(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        prefill(small_weights, small_table, cache, [1, 2])
        plan = shared_plan(cache, [path_key(0)], l_x=2)
        with pytest.raises(CacheConsistencyError):
            forward_step(small_weights, small_table, plan, 9, SlotAddress(path_key(0), 1))

    def test_missing_visible_entries_detected(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        prefill(small_weights, small_table, cache, [1, 2])  # two short
        with pytest.raises(CacheConsistencyError):
            forward_step(
                small_weights, small_table, shared_plan(cache, [path_key(0)], l_x=4), 9,
                SlotAddress(path_key(0), 0),
            )

    def test_token_range_checked(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        plan = shared_plan(cache, [PROMPT], l_x=1)
        with pytest.raises(DataError):
            forward_step(small_weights, small_table, plan, cfg.vocab_size, SlotAddress(PROMPT, 0))

    @pytest.mark.parametrize("bad", [3.5, True, "7", None])
    def test_non_integer_ids_raise_data_error(self, small_weights, small_table, bad):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        with pytest.raises(DataError, match="at offset 1 is not an integer"):
            prefill(small_weights, small_table, cache, [5, bad, 6])
        assert cache.length(PROMPT) == 0


class TestBatchChecks:
    """A stage plan derives its owners' shared segments once; owners that
    do not share them raise when the plan is built, before any write."""

    def prefilled(self, weights, table, num_paths=3):
        cfg = weights.config
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve(PROMPT, 2)
        prefill(weights, table, cache, [5, 6])
        cache.reserve_paths(num_paths, 8)
        return cache

    def test_prompt_and_path_rows_do_not_batch(self, small_weights, small_table):
        cache = self.prefilled(small_weights, small_table)
        positions = PositionAssignment(SHARED, l_x=2, l_max=8).positions(path_key(0), 0, 8)
        with pytest.raises(CacheConsistencyError, match="share their visible segments"):
            StagePlan(cache, [path_key(0), PROMPT], [1, 0], positions)

    def test_owner_without_a_rule(self, small_weights, small_table):
        cache = self.prefilled(small_weights, small_table)
        cache.reserve("seq", 4)
        with pytest.raises(LayoutError, match="'seq' is not the prompt, a path or the answer"):
            StagePlan(cache, ["seq"], [0], [1, 2, 3, 4])

    def test_rows_must_extend_their_segments(self, small_weights, small_table):
        cache = self.prefilled(small_weights, small_table)
        plan = shared_plan(cache, [path_key(0), path_key(1)], l_x=2, labels=(1, 2, 3))
        with pytest.raises(CacheConsistencyError, match="does not extend"):
            forward(small_weights, small_table, plan, [40, 41], [0, 1], 1)

    def test_shared_rows_equal_their_single_row_passes(self, small_weights, small_table):
        owners, labels = [path_key(i) for i in range(3)], (1, 2, 3)
        batched = self.prefilled(small_weights, small_table)
        alone = self.prefilled(small_weights, small_table)
        plan = shared_plan(batched, owners, l_x=2, labels=labels)
        block = forward(small_weights, small_table, plan, [40, 41, 42], [0, 1, 2], 0)
        plan = shared_plan(alone, owners, l_x=2, labels=labels)
        for i in range(3):
            row = forward_step(small_weights, small_table, plan, 40 + i, SlotAddress(owners[i], 0))
            assert np.array_equal(block[i], row)


class TestOwnersTimesSlots:
    """One pass feeds m slots to each of n owners.  Each owner's slots and
    logits match a pass of its own within float32 rounding (a block of
    several owners' rows rounds like any other block height), and the
    logits come back owner by owner."""

    @pytest.mark.parametrize("m, keep", [(3, 3), (40, 1), (40, 35), (70, 70)])
    def test_matches_one_owner_at_a_time(self, vocab, m, keep):
        weights, table = gained_model(2, vocab)
        cfg = weights.config
        tokens = np.random.default_rng(m).integers(0, 256, size=(3, m)).tolist()
        caches, logits = [], []
        for together in (True, False):
            cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
            cache.reserve(PROMPT, 5)
            prefill(weights, table, cache, [3, 1, 4, 1, 5])
            cache.reserve_paths(3, m)
            plan = shared_plan(cache, [path_key(i) for i in range(3)], l_x=5,
                               labels=(1, 2, 3), l_max=m)
            if together:
                flat = [t for owner in tokens for t in owner]
                logits.append(forward(weights, table, plan, flat, [0, 1, 2], 0, keep))
            else:
                logits.append(np.concatenate([
                    forward(weights, table, plan, tokens[r], [r], 0, keep) for r in range(3)
                ]))
            caches.append(cache)
        got, want = logits
        assert got.shape == (3 * keep, cfg.vocab_size)
        assert np.max(np.abs(got - want)) <= 1e-5
        for a, b in ((caches[0].paths.k, caches[1].paths.k), (caches[0].paths.v, caches[1].paths.v)):
            assert np.max(np.abs(a - b)) <= 1e-5
        assert [caches[0].length(path_key(i)) for i in range(3)] == [m] * 3

    @pytest.mark.parametrize("tokens, keep, match", [
        ([], 1, "cannot feed 0 tokens to 2 owners, keeping 1 each"),
        ([5, 6, 7], 1, "cannot feed 3 tokens to 2 owners"),
        ([5, 6, 7, 8], 3, "cannot feed 4 tokens to 2 owners, keeping 3 each"),
        ([5, 6, 7, 8], -1, "cannot feed 4 tokens to 2 owners, keeping -1 each"),
    ])
    def test_token_count_and_keep_checked_before_staging(
        self, small_weights, small_table, tokens, keep, match
    ):
        cache = fresh_cache(small_weights.config)
        prefill(small_weights, small_table, cache, [5, 6])
        cache.reserve_paths(2, 4)
        plan = shared_plan(cache, [path_key(0), path_key(1)], l_x=2, labels=(1, 2), l_max=4)
        with pytest.raises(DataError, match=match):
            forward(small_weights, small_table, plan, tokens, [0, 1], 0, keep)
        assert not cache.paths.k.any()


class TestStalePlan:
    """A plan that does not fit the pass or the cache raises before
    anything is staged."""

    def reasoned(self, weights, table, l_x=2, path_slots=0):
        """A cache holding an ``l_x``-slot prompt and ``path_slots`` slots
        of each of two paths, with answer storage reserved."""
        cfg = weights.config
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve(PROMPT, l_x)
        prefill(weights, table, cache, list(range(5, 5 + l_x)))
        cache.reserve_paths(2, 8)
        cache.reserve(ANSWER, 4)
        plan = shared_plan(cache, [path_key(0), path_key(1)], l_x=l_x, labels=(1, 2))
        for t in range(path_slots):
            forward(weights, table, plan, [40, 41], [0, 1], t)
        return cache

    def test_segment_the_plan_does_not_own(self, small_weights, small_table):
        cache = self.reasoned(small_weights, small_table)
        plan = shared_plan(cache, [path_key(0)], l_x=2)
        for rows in ([1], [0, 1]):
            with pytest.raises(CacheConsistencyError, match=r"cannot write its rows \["):
                forward(small_weights, small_table, plan, [40] * len(rows), rows, 0)
        with pytest.raises(CacheConsistencyError, match="cannot write 'path:1'"):
            forward_step(small_weights, small_table, plan, 40, SlotAddress(path_key(1), 0))
        assert [cache.length(path_key(i)) for i in range(2)] == [0, 0]
        assert not cache.paths.k.any()

    @pytest.mark.parametrize("fault, match", [
        ("never reserved", "never reserved"),
        ("owner named twice", "distinct owner segments"),
        ("thought missing", "one thought index each"),
        ("row named twice", r"cannot write its rows \[1, 1\]"),
        ("not an owner", r"cannot write its rows \[2\]"),
        ("two slabs", "share one slab"),
        ("unequal lengths", r"does not extend segments holding \[1, 0\]"),
        ("does not extend", r"slot 1 does not extend segments holding \[0, 0\]"),
        ("full", "full at their reserved 2 slots"),
    ])
    def test_write_checks_raise_before_staging(self, small_weights, small_table, fault, match):
        """The plan checks its owners when it is built (distinct, one
        thought index each) and when it binds their storage at the first
        write (reserved, one slab); a pass checks the rows it names and the
        write handle the fill and the room.  Each raises before a slot is
        staged."""
        cfg = small_weights.config
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve(PROMPT, 2)
        prefill(small_weights, small_table, cache, [5, 6])
        owners, rows, index = [path_key(0), path_key(1)], [0, 1], 0
        thoughts = [1, 2]
        positions = PositionAssignment(SHARED, l_x=2, l_max=8).positions(path_key(0), 0, 8)
        if fault == "two slabs":
            cache.reserve(path_key(0), 2)
            cache.reserve(path_key(1), 2)
        elif fault != "never reserved":
            cache.reserve_paths(2, 2)
        if fault == "owner named twice":
            owners = [path_key(0), path_key(0)]
        elif fault == "thought missing":
            thoughts = [1]
        elif fault == "row named twice":
            rows = [1, 1]
        elif fault == "not an owner":
            rows = [2]
        elif fault == "unequal lengths":
            plan = StagePlan(cache, owners, thoughts, positions)
            forward(small_weights, small_table, plan, [40], [0], 0)
        elif fault == "does not extend":
            index = 1
        elif fault == "full":
            plan = StagePlan(cache, owners, thoughts, positions)
            for t in range(2):
                forward(small_weights, small_table, plan, [40, 41], rows, t)
            index = 2
        lengths = [cache.length(segment) for segment in owners]
        held = [cache.table(segment).slab.k.copy() for segment in owners]
        with pytest.raises(CacheConsistencyError, match=match):
            plan = StagePlan(cache, owners, thoughts, positions)
            forward(small_weights, small_table, plan, [40] * len(rows), rows, index)
        assert [cache.length(segment) for segment in owners] == lengths
        for segment, k in zip(owners, held):
            assert np.array_equal(cache.table(segment).slab.k, k)

    @pytest.mark.parametrize("positions", [[1, 2, 2, 3], [1, 3, 2]])
    def test_positions_must_increase(self, positions):
        """A pass checks only its last slot's position against the model's
        limit, so a plan refuses positions that do not increase."""
        cache = PagedKVCache(2, 2, 16)
        cache.reserve(PROMPT, 4)
        with pytest.raises(LayoutError, match="the positions of 'prompt' do not increase"):
            flat_plan(cache, positions)

    def test_path_outside_the_layout(self, small_weights, small_table):
        """A path the slab does not hold has no storage: a plan that owns it
        raises at its first write, before anything is staged."""
        cache = self.reasoned(small_weights, small_table)
        positions = shared_plan(cache, [path_key(0)], l_x=2).positions
        for segment in (path_key(2), "path:-1"):
            plan = StagePlan(cache, [segment], [3], positions)
            with pytest.raises(CacheConsistencyError, match="never reserved"):
                forward(small_weights, small_table, plan, [40], [0], 0)
        assert [cache.length(path_key(i)) for i in range(2)] == [0, 0]
        assert not cache.paths.k.any()

    def test_reasoning_plan_for_an_answer_slot(self, small_weights, small_table):
        # a pass names only the plan's own owners, so the answer cannot be
        # reached through a reasoning plan; an answer slot asked of one
        # raises before staging
        cache = self.reasoned(small_weights, small_table, path_slots=2)
        plan = shared_plan(cache, [path_key(0), path_key(1)], l_x=2, labels=(1, 2))
        held = cache.paths.k.copy()
        with pytest.raises(CacheConsistencyError, match="cannot write 'answer'"):
            forward_step(small_weights, small_table, plan, 40, SlotAddress(ANSWER, 0))
        assert [cache.length(path_key(i)) for i in range(2)] == [2, 2]
        assert np.array_equal(cache.paths.k, held)
        assert cache.length(ANSWER) == 0
        assert not cache.tables[ANSWER].slab.k.any()

    def test_plan_built_before_its_shared_segments_are_complete(self, small_weights, small_table):
        """An owner's slot 0 sits right after the prompt and the longest
        path it sees: the plan checks its first position against their
        fills."""
        cache = self.reasoned(small_weights, small_table, l_x=2)
        with pytest.raises(
            CacheConsistencyError, match="sits at position 5, but the prompt and longest path"
            " it sees end at position 2",
        ):
            shared_plan(cache, [path_key(0)], l_x=4)
        cache = self.reasoned(small_weights, small_table, path_slots=2)
        with pytest.raises(CacheConsistencyError, match="position 6, .* end at position 4"):
            summary_plan(cache, 2, reasoning_len=3)
        summary_plan(cache, 2, reasoning_len=2)  # complete now

    def test_short_path_is_the_summary_views_check(self, small_weights, small_table):
        """The plan checks the longest path only: a path short of its own
        length passes the plan, and ``assemble_summary_view`` (which the
        engine runs before the answer stage) rejects it."""
        cache = self.reasoned(small_weights, small_table, path_slots=2)
        plan = shared_plan(cache, [path_key(1)], l_x=2, labels=(1, 2))
        forward(small_weights, small_table, plan, [42], [0], 2)
        summary_plan(cache, 2, reasoning_len=3)
        with pytest.raises(LifecycleError, match="path:0 holds 2 slots, layout says 3"):
            assemble_summary_view(cache, LayoutPlan(2, (3, 3), 0))


def path_fills(kind, num_paths, capacity, rng):
    """Drawn path lengths of one kind, each in [1, capacity]."""
    if kind == "equal full":
        return [capacity] * num_paths
    if kind == "equal short":
        return [int(rng.integers(1, capacity))] * num_paths
    fills = rng.integers(1, capacity, num_paths).tolist()
    if kind == "one at capacity":
        fills[int(rng.integers(num_paths))] = capacity
    return fills


def answer_cache(cfg, l_x, fills, capacity, seed):
    """A cache holding a drawn ``l_x``-slot prompt and path slots of the
    given fills on a ``capacity``-slot slab, with answer storage; the same
    seed gives the same slots."""
    rng = np.random.default_rng(seed)
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    cache.reserve(PROMPT, l_x)
    cache.reserve_paths(len(fills), capacity)
    cache.reserve(ANSWER, 8)
    shape = (cfg.n_layers, cfg.n_heads, cfg.d_k)
    for segment, n in [(PROMPT, l_x)] + [(path_key(i), n) for i, n in enumerate(fills)]:
        for _ in range(n):
            k, v = rng.standard_normal((2, *shape)).astype(np.float32)
            cache.append(segment, k, v)
    return cache


class TestAnswerRead:
    """An answer slot reads the path slab as one part up to the longest
    path, whatever the paths' lengths, and the plan's ``hidden`` mask
    scores each path's slots past its own fill -inf.  Its logits match the
    earlier read (``reference_answer_parts``: one part per path, each to
    its own fill, when the lengths differ) within 1e-6 of the largest
    logit, and have its bits when the paths are equally long."""

    @pytest.mark.parametrize("kind", ["equal full", "equal short", "uneven", "one at capacity"])
    @pytest.mark.parametrize("num_paths", [1, 2, 4, 8, 16])
    def test_one_masked_part_matches_per_path_parts(
        self, small_weights, small_table, num_paths, kind
    ):
        cfg = small_weights.config
        rng = np.random.default_rng([num_paths, len(kind)])
        for draw in range(3):
            capacity = int(rng.integers(3, 41))
            fills = path_fills(kind, num_paths, capacity, rng)
            l_x, longest = int(rng.integers(1, 6)), max(fills)
            logits = []
            for reference in (False, True):
                cache = answer_cache(cfg, l_x, fills, capacity, seed=[num_paths, draw])
                plan = summary_plan(cache, l_x, longest, slots=8)
                if reference:
                    plan.shared, plan.hidden = reference_answer_parts(cache, num_paths), None
                elif len(set(fills)) == 1:
                    assert plan.hidden is None
                else:
                    assert plan.hidden.sum() == sum(longest - fill for fill in fills)
                # a causal block of three answer rows, then one row at a time
                rows = [forward(small_weights, small_table, plan, [7, 8, 9], [0], 0, keep=3)]
                for index, token in enumerate([10, 11], 3):
                    rows.append(forward(small_weights, small_table, plan, [token], [0], index))
                logits.append(np.concatenate(rows))
            got, want = logits
            if len(set(fills)) == 1:
                assert np.array_equal(got, want), (capacity, fills)
            else:
                # a slot's score rounds differently in a grouped product than
                # in its own path's part: a few float32 ulps of the logits
                assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), (capacity, fills)


class TestPrefill:
    def test_equivalent_to_iterated_steps(self, small_weights, small_table):
        cfg = small_weights.config
        tokens = [9, 8, 7, 6]

        cache_a = fresh_cache(cfg)
        assert prefill(small_weights, small_table, cache_a, tokens) is None
        plan = shared_plan(cache_a, [PROMPT], l_x=5)
        next_a = forward_step(small_weights, small_table, plan, 55, SlotAddress(PROMPT, 4))

        cache_b = fresh_cache(cfg)
        plan = shared_plan(cache_b, [PROMPT], l_x=5)
        for t, token in enumerate(tokens):
            forward_step(small_weights, small_table, plan, token, SlotAddress(PROMPT, t))
        next_b = forward_step(small_weights, small_table, plan, 55, SlotAddress(PROMPT, 4))
        for li in range(cfg.n_layers):  # the prompt's k/v, then the slot after it
            for got, want in zip(cache_a.gather(PROMPT, li), cache_b.gather(PROMPT, li)):
                assert np.max(np.abs(got - want)) <= 1e-5
        assert np.max(np.abs(next_a - next_b)) <= 1e-5

    @pytest.mark.parametrize(
        "length",
        [1, CAUSAL_CHUNK - 1, CAUSAL_CHUNK, CAUSAL_CHUNK + 1, 3 * CAUSAL_CHUNK + 5, 768],
    )
    @pytest.mark.parametrize("kind", ["prompt", "flat", "path"])
    # no shrinking: a failure over a 768-token prompt reports in seconds
    @settings(
        max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
    )
    @given(seed=st.integers(0, 2**16))
    def test_causal_blocks_match_iterated_steps(
        self, small_weights, small_table, kind, length, seed
    ):
        """Blocked prefill (prompt, thought row 0, no logits kept), a
        flattened sequence with gapped positions, and a path block that
        also sees the prompt all stage the k/v of one forward_step per slot
        and match its logits, then decode the next slot alike."""
        cfg = small_weights.config
        rng = np.random.default_rng(seed)
        tokens = [int(t) for t in rng.integers(0, 256, size=length)]
        caches = [fresh_cache(cfg), fresh_cache(cfg)]
        if kind == "prompt":
            segment = PROMPT
            plans = [shared_plan(cache, [PROMPT], l_x=length) for cache in caches]
        elif kind == "flat":
            segment = PROMPT
            positions = np.cumsum(rng.integers(1, 4, size=length + 1))
            plans = [flat_plan(cache, positions) for cache in caches]
        else:
            segment = path_key(0)
            before = [int(t) for t in rng.integers(0, 256, size=5)]
            for cache in caches:  # a prompt both caches hold first, fed one step at a time
                plan = shared_plan(cache, [PROMPT], l_x=5)
                for t, token in enumerate(before):
                    forward_step(small_weights, small_table, plan, token, SlotAddress(PROMPT, t))
            plans = [
                shared_plan(cache, [segment], l_x=5, l_max=length + 1) for cache in caches
            ]
        blocked, stepped = caches
        if kind == "prompt":
            got = prefill(small_weights, small_table, blocked, tokens)
        else:
            got = forward(small_weights, small_table, plans[0], tokens, [0], 0, keep=length)
        want = np.stack([
            forward_step(small_weights, small_table, plans[1], token, SlotAddress(segment, t))
            for t, token in enumerate(tokens)
        ])
        if got is not None:
            assert np.max(np.abs(got - want)) <= 1e-5
        assert blocked.length(segment) == stepped.length(segment) == length
        for li in range(cfg.n_layers):  # same positions and thought rows, so the same k/v
            for got_kv, want_kv in zip(blocked.gather(segment, li), stepped.gather(segment, li)):
                assert np.max(np.abs(got_kv - want_kv)) <= 1e-5
        if kind == "prompt":  # the next slot is the first path slot
            segment, length = path_key(0), 0
            plans = [shared_plan(cache, [segment], l_x=len(tokens)) for cache in caches]
        after = [
            forward_step(small_weights, small_table, plan, 42, SlotAddress(segment, length))
            for plan in plans
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
        prefill(weights, small_table, cache, [1, 2, 3])
        held = cache.tables[PROMPT].content_hash()
        with pytest.raises(error):
            prefill(weights, small_table, cache, tokens)
        assert cache.length(PROMPT) == 3
        assert cache.tables[PROMPT].content_hash() == held

    def test_prefill_memory_is_bounded_by_chunk_rows(self, toy_config, vocab):
        cfg = toy_config
        weights = init_weights(cfg, seed=1)
        table = init_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k, seed=2)
        l_x = 768
        tokens = [int(t) for t in np.random.default_rng(3).integers(0, 256, size=l_x)]
        prefill(weights, table, fresh_cache(cfg), tokens[:CAUSAL_CHUNK])
        cache = fresh_cache(cfg)
        cache.reserve(PROMPT, l_x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prefill(weights, table, cache, tokens)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a few float32 [n_heads, CAUSAL_CHUNK, l_x] score blocks at most;
        # one [n_heads, l_x, l_x] score matrix would be 9.4 MB
        assert peak <= 3 * cfg.n_heads * CAUSAL_CHUNK * l_x * 4, peak

    @pytest.mark.parametrize("kind", ["path", "answer", "flat"])
    def test_slots_past_the_plans_positions_raise_before_staging(
        self, small_weights, small_table, kind
    ):
        """Every plan lists its owners' positions, and a pass that asks for
        a slot past them raises before it stages anything.  Each plan here
        lists 3 positions; its owners have room for 5 slots."""
        cfg = small_weights.config
        cache = answer_cache(cfg, 2, [1, 1], 5, seed=4)  # each path holds one slot
        if kind == "path":
            owner = path_key(0)
            plan = shared_plan(cache, [owner, path_key(1)], l_x=2, labels=(1, 2), l_max=3)
        elif kind == "answer":
            owner, plan = ANSWER, summary_plan(cache, 2, reasoning_len=1, slots=3)
        else:  # a cache of its own
            cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
            cache.reserve(PROMPT, 5)
            owner, plan = PROMPT, flat_plan(cache, [1, 2, 4])

        def write(index):
            if kind == "path":
                forward(small_weights, small_table, plan, [5, 6], [0, 1], index)
            else:
                forward(small_weights, small_table, plan, [5], [0], index)

        for index in range(cache.length(owner), 3):
            write(index)
        held = cache.table(owner).slab.k.copy()
        with pytest.raises(LayoutError, match="the plan lists 3 positions, slots 3..3 asked for"):
            write(3)
        assert cache.length(owner) == 3
        assert np.array_equal(cache.table(owner).slab.k, held)

    def test_empty_prefill_errors_without_cache_change(self, small_weights, small_table):
        cfg = small_weights.config
        cache = fresh_cache(cfg)
        with pytest.raises(DataError):
            prefill(small_weights, small_table, cache, [])
        assert cache.length(PROMPT) == 0

    def test_prefill_twice_identical_cache(self, small_weights, small_table):
        cfg = small_weights.config
        caches = []
        for _ in range(2):
            cache = fresh_cache(cfg)
            prefill(small_weights, small_table, cache, [4, 5, 6])
            caches.append(cache)
        a, b = caches
        structure = [
            [(seg, t.slab.capacity, t.filled, t.row) for seg, t in sorted(c.tables.items())]
            for c in caches
        ]
        assert structure[0] == structure[1]
        assert (
            a.tables[PROMPT].content_hash() == b.tables[PROMPT].content_hash()
        )


def gained_model(n_layers, vocab, seed=11):
    """Small weights with ``n_layers`` layers and norm gains that are not 1,
    and a thought table whose rows are not zero."""
    cfg = ModelConfig(
        n_layers=n_layers, d_model=32, n_heads=2, d_k=16, d_ff=64, vocab_size=292
    )
    weights = init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    gains = [weights.final_norm] + [g for lw in weights.layers for g in (lw.attn_norm, lw.ffn_norm)]
    for gain in gains:
        gain += (rng.standard_normal(gain.shape) * 0.3).astype(np.float32)
    weights.validate()
    table = init_thought_table(vocab.p_max, n_layers, cfg.n_heads, cfg.d_k, seed=seed)
    return weights, table


def run_every_layer(patch):
    """Make every causal block run every layer for every row, as it did
    before a block with no kept row stopped at the last layer."""
    decode_rows = model._decode_rows

    def every_layer(weights, table, tokens, thoughts, positions, attention, stage_last=None):
        return decode_rows(weights, table, tokens, thoughts, positions, attention)

    patch.setattr(model, "_decode_rows", every_layer)


def causal_state(weights, table, kind, tokens, keep):
    """Logits and segment hash of one causal pass: a prefill (keep 0, so
    no logits), a pass over the prompt, over a flattened prompt with
    gapped positions, or over a path that also sees a 5-slot prompt."""
    cfg = weights.config
    n = len(tokens)
    cache = fresh_cache(cfg, slots=max(n, 8))
    if kind == "prefill":
        segment = PROMPT
        logits = prefill(weights, table, cache, tokens)
    else:
        if kind == "prompt":
            segment, plan = PROMPT, shared_plan(cache, [PROMPT], l_x=n)
        elif kind == "flat":
            segment = PROMPT
            gaps = np.random.default_rng(n).integers(1, 4, size=n)
            plan = flat_plan(cache, np.cumsum(gaps))
        else:
            segment = path_key(0)
            prefill(weights, table, cache, [3, 1, 4, 1, 5])
            plan = shared_plan(cache, [segment], l_x=5, labels=(2,), l_max=n + 1)
        logits = forward(weights, table, plan, tokens, [0], 0, keep)
    assert cache.length(segment) == n
    return logits, cache.tables[segment].content_hash()


# every (length, keep) with keep in 1, 2, 33 and the length itself that fits
LENGTH_KEEP = list(dict.fromkeys(
    (n, keep) for n in [1, 31, 32, 33, 64, 65, 97, 800] for keep in (1, 2, 33, n) if keep <= n
))


class TestWriteOnlyLastLayer:
    """A causal block with no kept row stops at the last layer once its k/v
    are staged.  Its slots and the returned logits keep the bits of a pass
    that runs every layer for every row.  A prefill keeps no logits, so
    its prompt slots are all it leaves."""

    def assert_identical(self, monkeypatch, weights, table, kind, tokens, keep):
        got = causal_state(weights, table, kind, tokens, keep)
        with monkeypatch.context() as patch:
            run_every_layer(patch)
            want = causal_state(weights, table, kind, tokens, keep)
        if keep:
            assert got[0].shape == (keep, weights.config.vocab_size)
            assert np.array_equal(got[0], want[0])
        else:
            assert got[0] is None and want[0] is None
        assert got[1] == want[1]

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("length, keep", LENGTH_KEEP)
    def test_prompt_identical_to_every_layer(self, vocab, monkeypatch, n_layers, length, keep):
        weights, table = gained_model(n_layers, vocab)
        tokens = np.random.default_rng(length).integers(0, 256, size=length).tolist()
        self.assert_identical(monkeypatch, weights, table, "prompt", tokens, keep)

    @pytest.mark.parametrize("kind, length, keep", [
        *(("prefill", n, 0) for n in (1, 33, 65, 97, 800)),
        *((kind, n, keep) for kind in ("flat", "path")
          for n, keep in ((33, 1), (65, 2), (97, 33), (800, 1), (65, 65))),
    ])
    def test_other_passes_identical_to_every_layer(self, vocab, monkeypatch, kind, length, keep):
        weights, table = gained_model(2, vocab)
        tokens = np.random.default_rng(length + 1).integers(0, 256, size=length).tolist()
        self.assert_identical(monkeypatch, weights, table, kind, tokens, keep)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("length, keep", LENGTH_KEEP)
    def test_attend_calls(self, vocab, monkeypatch, n_layers, length, keep):
        """(L-1)·⌈n/32⌉ attend calls, plus one per block holding a kept
        row; a prefill keeps none."""
        weights, table = gained_model(n_layers, vocab)
        calls = []
        attend = model.attend

        def counting(*args, **kwargs):
            calls.append(1)
            return attend(*args, **kwargs)

        monkeypatch.setattr(model, "attend", counting)
        causal_state(weights, table, "prompt", [7] * length, keep)
        blocks = -(-length // CAUSAL_CHUNK)
        kept_blocks = blocks - (length - keep) // CAUSAL_CHUNK
        assert len(calls) == (n_layers - 1) * blocks + kept_blocks
        calls.clear()
        causal_state(weights, table, "prefill", [7] * length, 0)
        assert len(calls) == (n_layers - 1) * blocks


def cache_state(cache):
    """Each segment's fill and content hash, by name."""
    return {seg: (t.filled, t.content_hash()) for seg, t in sorted(cache.tables.items())}


class TestKeepNone:
    """A pass that keeps no logits (``keep`` 0) returns None and leaves the
    cache byte for byte as a pass that keeps its last slot's logits."""

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 97])
    def test_prefill(self, vocab, length):
        weights, table = gained_model(2, vocab)
        tokens = np.random.default_rng(length).integers(0, 256, size=length).tolist()
        states = []
        for keep in (0, 1):
            cache = fresh_cache(weights.config, slots=length)
            plan = shared_plan(cache, [PROMPT], l_x=length)
            logits = forward(weights, table, plan, tokens, [0], 0, keep)
            assert (logits is None) == (keep == 0)
            states.append(cache_state(cache))
        assert states[0] == states[1]
        assert states[0][PROMPT][0] == length
        cache = fresh_cache(weights.config, slots=length)
        assert prefill(weights, table, cache, tokens) is None
        assert cache_state(cache) == states[0]

    @pytest.mark.parametrize("num_paths", [1, 16])
    def test_reasoning_pass(self, vocab, num_paths):
        weights, table = gained_model(2, vocab)
        owners = [path_key(i) for i in range(num_paths)]
        labels = tuple(range(1, num_paths + 1))
        tokens = np.random.default_rng(num_paths).integers(0, 256, size=num_paths).tolist()
        cfg, states = weights.config, []
        for keep in (0, 1):
            cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
            cache.reserve(PROMPT, 5)
            prefill(weights, table, cache, [3, 1, 4, 1, 5])
            cache.reserve_paths(num_paths, 4)
            plan = shared_plan(cache, owners, l_x=5, labels=labels, l_max=4)
            logits = forward(weights, table, plan, tokens, list(range(num_paths)), 0, keep)
            assert (logits is None) == (keep == 0)
            states.append(cache_state(cache))
        assert states[0] == states[1]
        assert [states[0][seg][0] for seg in owners] == [1] * num_paths

    def test_answer_pass(self, vocab):
        weights, table = gained_model(2, vocab)
        states = []
        for keep in (0, 1):
            cache = answer_cache(weights.config, 3, [2, 4, 1], 4, seed=5)
            plan = summary_plan(cache, 3, reasoning_len=4)
            logits = forward(weights, table, plan, [42], [0], 0, keep)
            assert (logits is None) == (keep == 0)
            states.append(cache_state(cache))
        assert states[0] == states[1]
        assert states[0][ANSWER][0] == 1


class TestValidate:
    """Each check names the tensor it rejects."""

    @pytest.fixture
    def weights(self, small_config):
        return init_weights(small_config, seed=5)

    def test_wrong_layer_count(self, weights):
        weights.layers.pop()
        with pytest.raises(ConfigError, match="expected 2 layers, got 1"):
            weights.validate()

    @pytest.mark.parametrize(
        "layer, name, label",
        [
            (None, "embedding", "embedding"),
            (0, "attn_norm", "layer0.attn_norm"),
            (1, "w_o", "layer1.w_o"),
            (1, "w_ff1", "layer1.w_ff1"),
            (0, "w_ff2", "layer0.w_ff2"),
            (None, "final_norm", "final_norm"),
            (None, "head", "head"),
        ],
    )
    def test_wrong_shape(self, weights, layer, name, label):
        owner = weights if layer is None else weights.layers[layer]
        tensor = getattr(owner, name)
        setattr(owner, name, tensor[:-1])
        with pytest.raises(ConfigError, match=rf"{label} has shape \({tensor.shape[0] - 1}"):
            weights.validate()

    def test_fused_projection_with_extra_columns(self, weights):
        """A stack of four matrices, or the three as one [d, 3d] matrix of
        column blocks, is not the [3, d, d] projection stack."""
        layer = weights.layers[1]
        stacked = layer.w_qkv
        for malformed in (np.concatenate([stacked, stacked[:1]]), np.concatenate(stacked, axis=1)):
            layer.w_qkv = malformed
            shape = ", ".join(map(str, malformed.shape))
            with pytest.raises(ConfigError, match=rf"layer1\.w_qkv has shape \({shape}\)"):
                weights.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, weights, bad):
        weights.layers[1].w_ff1[3, 5] = bad
        with pytest.raises(ConfigError, match=r"layer1\.w_ff1 contains non-finite entries"):
            weights.validate()


class TestWeightFile:
    def test_round_trip(self, small_weights, tmp_path):
        path = str(tmp_path / "model.ptw")
        save_weights(small_weights, path)
        loaded = load_weights(path)
        assert loaded.config == small_weights.config
        for ta, tb in zip(loaded.tensors(), small_weights.tensors()):
            assert np.array_equal(ta, tb)

    def test_round_trip_keeps_field_types(self, tmp_path):
        config = ModelConfig(
            n_layers=1, d_model=16, n_heads=2, d_k=8, d_ff=32, vocab_size=292,
            rope_base=500.0, max_position=777,
        )
        path = str(tmp_path / "model.ptw")
        save_weights(init_weights(config, seed=1), path)
        loaded = load_weights(path).config
        assert loaded == config
        assert type(loaded.rope_base) is float
        assert all(type(getattr(loaded, f)) is int for f in
                   ("n_layers", "d_model", "n_heads", "d_k", "d_ff", "vocab_size", "max_position"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ptw"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ConfigError):
            load_weights(str(path))

    def test_contradictory_header_rejected(self, small_weights, tmp_path):
        path = tmp_path / "model.ptw"
        save_weights(small_weights, str(path))
        blob = bytearray(path.read_bytes())
        blob[12:16] = struct.pack("<I", 3)  # n_heads 3, so d_model != n_heads * d_k
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="d_model 32 != n_heads 3"):
            load_weights(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "model.ptw"
        path.write_bytes(b"PTW1" + struct.pack("<2I", 2, 32))
        with pytest.raises(ConfigError, match="header"):
            load_weights(str(path))

    def test_one_tensor_short_rejected(self, small_weights, tmp_path):
        path = tmp_path / "model.ptw"
        save_weights(small_weights, str(path))
        head_bytes = small_weights.head.nbytes
        path.write_bytes(path.read_bytes()[:-head_bytes])
        with pytest.raises(ConfigError, match="weight file length"):
            load_weights(str(path))

    def test_truncated(self, small_weights, tmp_path):
        path = tmp_path / "model.ptw"
        save_weights(small_weights, str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            load_weights(str(path))
