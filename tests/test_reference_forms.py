"""The lean forward pass against its reference forms (tests/oracles.py).

The q/k/v product (one broadcast product over the [3, d, d] stack) and
the interleaved-table rotation must give the same bits as three products
and the even/odd rotation, so prompt logits and the prompt's cache slots
do not move.  Reasoning attention reads the
rows' own slots through the staged new slot as one part; that changes
rounding only, and stays within float32 noise of the three-part form.
"""

import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcot import engine, model
from parcot.engine import GenerationBudget, SamplerConfig, Termination, run_reasoning
from parcot.kvcache import PagedKVCache
from parcot.model import init_weights, load_weights, save_weights
from parcot.positional import (
    ANSWER,
    PROMPT,
    SHARED,
    PositionAssignment,
    Rope,
    path_key,
    rope_for,
)

from oracles import (
    reference_decode_rows,
    reference_forward_causal,
    reference_forward_paths,
    reference_projections,
    reference_reasoning_attention,
    reference_rotate,
)

GREEDY = SamplerConfig(greedy=True)

# sha256 of save_weights(init_weights(config, seed)) as written before the
# q/k/v projections were fused: the PTW1 bytes must not change.
PINNED_WEIGHT_FILES = [
    ("toy_config", 42, "6289f14fe6806abcf864ee0d3671ec980811a3ebbb830a37e8b02f59e39bdfad"),
    ("small_config", 3, "02999a29da4f55704b55b094579fad0ff82f62edba88ccccd6cf9e99a518ddd1"),
]


def scaled(rng, shape, scale):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


class TestFusedProjection:
    @given(n=st.integers(1, 40), scale=st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_equals_three_products(self, toy_config, n, scale, seed):
        weights = init_weights(toy_config, seed=seed)
        rng = np.random.default_rng(seed)
        d = toy_config.d_model
        for layer in weights.layers:
            u = scaled(rng, (n, d), scale)
            stacked = u @ layer.w_qkv  # [3, n, d]
            for got, want in zip(stacked, reference_projections(u, layer), strict=True):
                assert np.array_equal(got, want)

    def test_projections_are_views_of_the_fused_matrix(self, small_weights):
        d = small_weights.config.d_model
        for layer in small_weights.layers:
            assert layer.w_qkv.shape == (3, d, d)
            for i, block in enumerate((layer.w_q, layer.w_k, layer.w_v)):
                assert block.base is layer.w_qkv
                assert block.flags.c_contiguous
                assert np.array_equal(block, layer.w_qkv[i])

    def test_layer_attributes_are_the_file_tensors(self, toy_config):
        """Every attribute of a layer is a tensor, and their bytes add up to
        the layer's bytes in a PTW1 file: what a benchmark summing
        ``vars(layer)`` counts as one weight pass."""
        weights = init_weights(toy_config, seed=1)
        d, f = toy_config.d_model, toy_config.d_ff
        ptw1_layer_bytes = 4 * (d + 4 * d * d + d + d * f + f * d)
        for layer in weights.layers:
            tensors = vars(layer).values()
            assert all(isinstance(t, np.ndarray) for t in tensors)
            assert sum(t.nbytes for t in tensors) == ptw1_layer_bytes

    @pytest.mark.parametrize("config_name, seed, digest", PINNED_WEIGHT_FILES)
    def test_weight_file_bytes_unchanged(self, request, tmp_path, config_name, seed, digest):
        config = request.getfixturevalue(config_name)
        path = tmp_path / "model.ptw"
        save_weights(init_weights(config, seed=seed), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        again = tmp_path / "again.ptw"
        save_weights(load_weights(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()


class TestRotation:
    @given(n=st.integers(1, 40), scale=st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
           seed=st.integers(0, 2**16), shared=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_even_odd_rotation(self, n, scale, seed, shared):
        rope = rope_for(16, 10000.0)
        rng = np.random.default_rng(seed)
        v = scaled(rng, (n, 2, 4, 16), scale)
        t = int(rng.integers(0, 4097)) if shared else rng.integers(0, 4097, size=n)
        want = reference_rotate(rope, v, t)
        assert np.array_equal(rope.rotate(v, t), want)
        assert np.array_equal(rope.rotate(v, rope.tables(t)), want)

    def test_sweep_of_positions_and_scales(self):
        """3,000 blocks: positions 0-4096 (both ends included), one per row
        or one for all, input scales 1e-3 to 1e3."""
        rope = Rope(16, 10000.0)  # its own table cache
        rng = np.random.default_rng(12)
        for case in range(3000):
            n = 1 + case % 40
            v = scaled(rng, (n, 2, 4, 16), 10.0 ** rng.uniform(-3, 3))
            if case % 2:
                t = rng.integers(0, 4097, size=n)
                t[0] = 4096 if case % 4 == 1 else 0
            else:
                t = int(rng.integers(0, 4097))
            assert np.array_equal(rope.rotate(v, t), reference_rotate(rope, v, t))

    def test_float64_and_strided_inputs(self):
        rope = Rope(8, 500.0)
        rng = np.random.default_rng(3)
        block = rng.standard_normal((5, 3, 8))
        v = block[:, 1:]  # a strided view
        t = np.arange(100, 105)
        got = rope.rotate(v, t)
        assert got.dtype == np.float64
        assert np.array_equal(got, reference_rotate(rope, v, t))
        assert np.array_equal(rope.rotate(block[0, 0], -7), reference_rotate(rope, block[0, 0], -7))

    def test_tables_are_cached_and_read_only(self):
        rope = Rope(16, 10000.0)
        cos2, sin2 = rope.tables(37)
        assert rope.tables(37)[0] is cos2
        with pytest.raises(ValueError):
            cos2[0] = 2.0
        with pytest.raises(ValueError):
            sin2[0] = 2.0


def prompt_state(weights, table, tokens):
    """Prompt logits and the prompt segment's hash, prefilled as a session does."""
    cfg = weights.config
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    cache.reserve(PROMPT, len(tokens))
    logits = model.prefill(weights, table, cache, tokens)
    return logits, cache.tables[PROMPT].content_hash()


@pytest.fixture(scope="module")
def gained_weights(small_config):
    """Weights whose norm gains are not all 1, so the order of a norm's
    products shows in its bits."""
    weights = init_weights(small_config, seed=8)
    rng = np.random.default_rng(8)
    for layer in weights.layers:
        layer.attn_norm = scaled(rng, layer.attn_norm.shape, 0.3) + 1
        layer.ffn_norm = scaled(rng, layer.ffn_norm.shape, 0.3) + 1
    weights.final_norm = scaled(rng, weights.final_norm.shape, 0.3) + 1
    weights.validate()
    return weights


class TestPromptUnchanged:
    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 64, 65, 77, 97])
    def test_prompt_equals_reference_forms(self, gained_weights, small_table, monkeypatch, length):
        rng = np.random.default_rng(length)
        tokens = rng.integers(0, 256, size=length).tolist()
        new = prompt_state(gained_weights, small_table, tokens)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_decode_rows", reference_decode_rows)
            old = prompt_state(gained_weights, small_table, tokens)
        assert np.array_equal(new[0], old[0])
        assert new[1] == old[1]


class TestReasoningAttention:
    @pytest.mark.parametrize("strategy", [Termination.FIRST_FINISH, Termination.LAST_FINISH])
    @pytest.mark.parametrize("num_paths", [1, 3, 8])
    def test_two_parts_match_three_parts(
        self, small_weights, small_table, vocab, monkeypatch, num_paths, strategy
    ):
        """Each reasoning attend call, rebuilt as the three-part reference
        (the own part split at the staged slot), gives the same output up
        to float32 rounding."""
        d_k = small_weights.config.d_k
        checked = []
        attend = model.attend
        signature = inspect.signature(attend)

        def compare(q, keys, values, *args, **kwargs):
            out = attend(q, keys, values, *args, **kwargs)
            own_k, own_v = keys[-1], values[-1]
            causal = signature.bind(q, keys, values, *args, **kwargs).arguments.get("causal")
            if own_k.ndim == 4 and not causal:  # a reasoning pass
                rows = q.shape[0]
                new_k = np.broadcast_to(own_k[:, -1], (rows, *own_k.shape[2:]))
                new_v = np.broadcast_to(own_v[:, -1], (rows, *own_v.shape[2:]))
                want = reference_reasoning_attention(
                    q, new_k, new_v, keys[:-1], values[:-1],
                    own_k[:, :-1], own_v[:, :-1], d_k,
                )
                assert np.max(np.abs(out - want)) <= 1e-6
                checked.append(own_k.shape[1])
            return out

        monkeypatch.setattr(model, "attend", compare)
        session = engine.GenerationSession(
            small_weights, small_table, vocab, [5, 9, 2, 7], num_paths, seed=2
        )
        run_reasoning(session, GREEDY, GenerationBudget(10), strategy)
        assert checked and min(checked) == 1 and max(checked) > 2


def slab_bytes(cache):
    """Every reserved storage array of the cache, in a fixed order."""
    slabs = {id(seg.slab): seg.slab for _, seg in sorted(cache.tables.items())}
    return [array for slab in slabs.values() for array in (slab.k, slab.v)]


def assert_same_state(got, want):
    """Logits (lists of arrays) and every slab byte of two caches are equal."""
    (got_logits, got_cache), (want_logits, want_cache) = got, want
    assert len(got_logits) == len(want_logits)
    for a, b in zip(got_logits, want_logits):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    for a, b in zip(slab_bytes(got_cache), slab_bytes(want_cache)):
        assert np.array_equal(a, b)


class TestOnePassEqualsTwoPasses:
    """``model.forward`` has the bits of the two passes it replaced
    (``reference_forward_paths`` for reasoning steps,
    ``reference_forward_causal`` for causal blocks): every logit and every
    slab byte, on the machine that runs the test."""

    def paths_state(self, weights, table, num_paths, schedule, reference):
        """A prompt, then reasoning passes over ``num_paths`` paths; each
        schedule entry names the rows one pass feeds."""
        cfg = weights.config
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve(PROMPT, 5)
        model.prefill(weights, table, cache, [3, 1, 4, 1, 5])
        cache.reserve_paths(num_paths, len(schedule) + 1)
        owners = [path_key(i) for i in range(num_paths)]
        positions = PositionAssignment(SHARED, l_x=5, l_max=len(schedule) + 1).positions(
            owners[0], 0, len(schedule) + 1
        )
        plan = model.StagePlan(cache, owners, list(range(1, num_paths + 1)), positions)
        rng = np.random.default_rng([num_paths, len(schedule)])
        logits = []
        for rows in schedule:
            index = cache.length(owners[rows[0]])
            tokens = rng.integers(0, 256, size=len(rows)).tolist()
            if reference:
                logits.append(reference_forward_paths(weights, table, plan, tokens, rows, index))
            else:
                logits.append(model.forward(weights, table, plan, tokens, rows, index))
        return logits, cache

    @pytest.mark.parametrize("num_paths", [1, 2, 16])
    def test_reasoning_steps(self, gained_weights, small_table, num_paths):
        schedule = [list(range(num_paths))] * 6
        got, want = (
            self.paths_state(gained_weights, small_table, num_paths, schedule, reference)
            for reference in (False, True)
        )
        assert_same_state(got, want)

    def test_lone_row_of_a_multi_owner_plan(self, gained_weights, small_table):
        """Rows of a three-path plan fed alone and in subsets, as half and
        last finish feed the paths still open."""
        schedule = [[0, 1, 2], [1], [0, 2], [0], [2], [1], [0, 1, 2]]
        got, want = (
            self.paths_state(gained_weights, small_table, 3, schedule, reference)
            for reference in (False, True)
        )
        assert_same_state(got, want)

    def causal_state(self, weights, table, plan_of, owner, passes, reference):
        """Causal passes (tokens, keep) over one owner from slot 0 on."""
        cfg = weights.config
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        plan = plan_of(cache)
        logits = []
        for tokens, keep in passes:
            index = cache.length(owner)
            if reference:
                logits.append(reference_forward_causal(weights, table, plan, tokens, index, keep))
            else:
                logits.append(model.forward(weights, table, plan, tokens, [0], index, keep))
        return logits, cache

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("keep", ["one", "all"])
    def test_causal_blocks(self, gained_weights, small_table, length, keep):
        """A prompt of ``length`` slots in one pass, then one slot more."""
        tokens = np.random.default_rng(length).integers(0, 256, size=length + 1).tolist()
        keep = 1 if keep == "one" else length

        def prompt_plan(cache):
            cache.reserve(PROMPT, length + 1)
            positions = PositionAssignment(SHARED, l_x=length + 1, l_max=0).positions(
                PROMPT, 0, length + 1
            )
            return model.StagePlan(cache, [PROMPT], [0], positions)

        passes = [(tokens[:length], keep), (tokens[length:], 1)]
        got, want = (
            self.causal_state(gained_weights, small_table, prompt_plan, PROMPT, passes, reference)
            for reference in (False, True)
        )
        assert_same_state(got, want)

    @pytest.mark.parametrize("fills", [[6, 6, 6, 6], [9, 2, 6, 9, 1], [4]])
    def test_answers(self, gained_weights, small_table, fills):
        """Answer slots over a slab of equal or uneven paths: a causal block
        of three, then one slot at a time."""
        cfg = gained_weights.config
        l_x, longest = 3, max(fills)

        def answer_plan(cache):
            rng = np.random.default_rng(len(fills))
            cache.reserve(PROMPT, l_x)
            cache.reserve_paths(len(fills), longest + 1)
            cache.reserve(ANSWER, 6)
            shape = (cfg.n_layers, cfg.n_heads, cfg.d_k)
            for segment, n in [(PROMPT, l_x)] + [(path_key(i), n) for i, n in enumerate(fills)]:
                for _ in range(n):
                    cache.append(segment, *rng.standard_normal((2, *shape)).astype(np.float32))
            assignment = PositionAssignment(SHARED, l_x=l_x, l_max=0, reasoning_len=longest)
            positions = assignment.positions(ANSWER, 0, 6)
            plan = model.StagePlan(cache, [ANSWER], [0], positions)
            assert (plan.hidden is None) == (len(set(fills)) == 1)
            return plan

        passes = [([7, 8, 9], 3), ([10], 1), ([11], 1), ([12], 1)]
        got, want = (
            self.causal_state(gained_weights, small_table, answer_plan, ANSWER, passes, reference)
            for reference in (False, True)
        )
        assert_same_state(got, want)

    def test_flat_baseline(self, gained_weights, small_table):
        """The re-prefill baseline's plan: the prompt of a cache of its own
        at gapped positions, a teacher-forced pass keeping every answer
        row, then one slot at a time."""
        positions = np.cumsum(np.random.default_rng(4).integers(1, 4, size=80))
        tokens = np.random.default_rng(5).integers(0, 256, size=80).tolist()

        def flat_plan(cache):
            cache.reserve(PROMPT, len(positions))
            return model.StagePlan(cache, [PROMPT], [0], positions)

        passes = [(tokens[:70], 37), (tokens[70:71], 1), (tokens[71:72], 1)]
        got, want = (
            self.causal_state(gained_weights, small_table, flat_plan, PROMPT, passes, reference)
            for reference in (False, True)
        )
        assert_same_state(got, want)
