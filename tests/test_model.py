import copy

import numpy as np
import pytest

from parcot.errors import (
    CacheConsistencyError,
    ConfigError,
    DataError,
    PositionOverflowError,
)
from parcot.kvcache import PagedKVCache, SlotAddress
from parcot.model import (
    REASONING,
    DecodeLayout,
    ModelConfig,
    attend,
    forward_step,
    init_weights,
    load_weights,
    prefill,
    save_weights,
)
from parcot.positional import (
    PROMPT,
    SHARED,
    PositionAssignment,
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
        expected_lengths={PROMPT: l_x},
    )


def fresh_cache(cfg):
    return PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)


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
        with pytest.raises(PositionOverflowError):
            prefill(weights, small_table, cache, layout, [1, 2, 3])
        # the failing slot wrote nothing
        assert cache.length(PROMPT) == 2

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
