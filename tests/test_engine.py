import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcot.engine import (
    EvalReport,
    GenerationBudget,
    GenerationSession,
    SamplerConfig,
    Termination,
    canonical_json,
    majority_vote,
    pass_at_1,
    run_reasoning,
    run_session,
    run_summarization,
    sample_token,
    session_record,
)
from parcot import engine, kvcache, model
from parcot.errors import (
    ConfigError,
    DataError,
    LifecycleError,
    PositionOverflowError,
    SamplingError,
    VocabError,
)
from parcot.model import ModelConfig, init_weights
from parcot.positional import ANSWER, PROMPT, init_thought_table, path_key
from parcot.tokenizer import encode

from oracles import (
    causal_mask,
    dense_logits,
    greedy_dense_decode,
    reference_sample_token,
    serialized_view,
)

GREEDY = SamplerConfig(greedy=True)


def make_session(weights, table, vocab, num_paths=2, seed=0, prompt="hi there", **kwargs):
    return GenerationSession(
        weights, table, vocab, encode(prompt, vocab, markup=False), num_paths,
        seed=seed, **kwargs
    )


def forced_schedule(vocab, finish_steps, horizon):
    """Per-path body scripts: EOS exactly at the given step, filler elsewhere."""
    forced = {}
    for i, at in enumerate(finish_steps):
        body = [65 + i] * horizon
        if at is not None:
            body[at - 1] = vocab.eos
        forced[i] = body
    return forced


def spy_passes(monkeypatch) -> list:
    """Record each ``engine.forward`` call's (tokens, rows) from here on."""
    passes = []
    real = engine.forward

    def spy(weights, table, plan, tokens, rows, index):
        passes.append((list(tokens), list(rows)))
        return real(weights, table, plan, tokens, rows, index)

    monkeypatch.setattr(engine, "forward", spy)
    return passes


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(temperature=0.0)
        for temperature in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match="finite and positive"):
                SamplerConfig(temperature=temperature)
        with pytest.raises(ConfigError):
            SamplerConfig(top_p=0.0)
        with pytest.raises(ConfigError):
            SamplerConfig(top_p=1.5)

    @pytest.mark.parametrize("field, value, named", [
        ("temperature", "x", "temperature must be a real number, got 'x'"),
        ("temperature", True, "temperature must be a real number, got True"),
        ("top_p", "0.5", "top_p must be a real number, got '0.5'"),
        ("top_p", None, "top_p must be a real number, got None"),
        ("greedy", "no", "greedy must be true or false, got 'no'"),
        ("greedy", 0, "greedy must be true or false, got 0"),
    ])
    def test_field_types(self, field, value, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            SamplerConfig(**{field: value})

    def test_numpy_reals_are_reals(self):
        sampler = SamplerConfig(temperature=np.float32(0.5), top_p=np.float64(0.9))
        assert (sampler.temperature, sampler.top_p) == (0.5, 0.9)


class TestSampleToken:
    def test_one_hot_distribution(self):
        logits = np.full(8, -40.0)
        logits[5] = 40.0
        rng = np.random.default_rng(0)
        sampler = SamplerConfig(temperature=1.0, top_p=1.0)
        assert all(
            sample_token(logits, sampler, rng) == 5 for _ in range(50)
        )

    def test_greedy_tie_breaks_to_lowest_id(self):
        logits = np.zeros(6)
        logits[2] = logits[4] = 3.0
        assert sample_token(logits, GREEDY, np.random.default_rng(0)) == 2

    def test_greedy_float32_matches_float64_argmax(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((200, 292)).astype(np.float32)
        rows[::2, 17] = rows[::2, 250] = rows[::2].max(axis=1) + 1  # ties
        for row in rows:
            want = int(np.argmax(row.astype(np.float64)))
            assert sample_token(row, GREEDY, None) == want
        assert sample_token(rows[0], GREEDY, None) == 17

    def test_nucleus_support(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        logits = np.log(probs)
        sampler = SamplerConfig(temperature=1.0, top_p=0.5)
        rng = np.random.default_rng(1)
        draws = np.array([sample_token(logits, sampler, rng) for _ in range(10_000)])
        assert set(draws.tolist()) == {0, 1}
        # renormalized nucleus is {4/7, 3/7}
        count0 = int(np.sum(draws == 0))
        expect = 10_000 * 4 / 7
        sigma = np.sqrt(10_000 * (4 / 7) * (3 / 7))
        assert abs(count0 - expect) <= 3 * sigma

    def test_all_masked_rejected(self):
        with pytest.raises(SamplingError):
            sample_token(np.full(4, -np.inf), GREEDY, np.random.default_rng(0))

    def test_temperature_overflow_rejected(self):
        sampler = SamplerConfig(temperature=1e-300)
        with pytest.raises(SamplingError, match="overflow"), np.errstate(over="ignore"):
            sample_token(np.array([1e10, 0.0]), sampler, np.random.default_rng(0))


def outcome(fn, logits, sampler, draw):
    """A draw's token id, or the SamplingError message it raised."""
    try:
        return fn(logits, sampler, draw)
    except SamplingError as exc:
        return f"SamplingError: {exc}"


@st.composite
def logit_rows(draw):
    """Rows with ties, a dominant token, near-zero tails, or non-finite entries."""
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(["normal", "ties", "dominant", "tails", "nonfinite"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(n) * draw(st.sampled_from([0.1, 1.0, 8.0]))
    if kind == "ties" and n:
        row = rng.choice(draw(st.lists(st.floats(-20, 20), min_size=1, max_size=4)), size=n)
    elif kind == "dominant" and n:
        row[rng.integers(n)] = draw(st.floats(20, 400))
    elif kind == "tails" and n:
        row[rng.random(n) < 0.7] = -draw(st.floats(30, 2000))  # exp underflows to 0
    elif kind == "nonfinite" and n:
        row[rng.integers(n, size=draw(st.integers(1, n)))] = draw(
            st.sampled_from([-np.inf, np.inf, np.nan])
        )
    return row.astype(draw(st.sampled_from([np.float32, np.float64])))


class TestSamplerOracle:
    """sample_token equals the pre-change sampler that drew through
    Generator.choice: same token id on every draw, same SamplingError."""

    @given(
        logits=logit_rows(),
        temperature=st.floats(0.05, 5.0),
        top_p=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
        greedy=st.booleans(),
        key=st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 16), st.integers(1, 4096)),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_choice_sampler(self, logits, temperature, top_p, greedy, key):
        sampler = SamplerConfig(temperature=temperature, top_p=top_p, greedy=greedy)
        want = outcome(reference_sample_token, logits, sampler, engine.draw_rng(*key))
        got = outcome(sample_token, logits, sampler, engine.draw_rng(*key))
        assert got == want

    @pytest.mark.parametrize("top_p", [1.0, 0.9, 0.5])
    def test_matches_choice_sampler_on_model_like_rows(self, top_p):
        rng = np.random.default_rng(11)
        sampler = SamplerConfig(temperature=0.7, top_p=top_p)
        for step in range(1, 1001):
            row = (rng.standard_normal(292) * 3).astype(np.float32)
            want = reference_sample_token(row, sampler, engine.draw_rng(5, 1, step))
            assert sample_token(row, sampler, engine.draw_rng(5, 1, step)) == want


    @pytest.mark.parametrize("top_p", [1.0, 0.95])
    def test_matches_choice_sampler_at_the_flip_points(self, top_p):
        """Where a draw flips between two tokens as one logit moves by an ulp,
        a cumulative sum off by rounding, or a uniform equal to a cdf entry
        searched from the wrong side, picks the other token."""
        base = np.random.default_rng(0).standard_normal(12)
        sampler = SamplerConfig(temperature=0.9, top_p=top_p)

        def draw(fn, x, key):
            row = base.copy()
            row[0] = x
            return fn(row, sampler, engine.draw_rng(*key))

        flips = 0
        for seed in range(40):
            key = (seed, 1, 1)
            lo, hi = -30.0, 30.0
            low_token = draw(reference_sample_token, lo, key)
            if draw(reference_sample_token, hi, key) == low_token:
                continue
            while np.nextafter(lo, hi) < hi:  # bisect down to adjacent floats
                mid = (lo + hi) / 2
                if mid in (lo, hi):
                    break
                if draw(reference_sample_token, mid, key) == low_token:
                    lo = mid
                else:
                    hi = mid
            flips += 1
            x = lo
            for _ in range(16):
                x = np.nextafter(x, -np.inf)
            for _ in range(32):
                assert draw(sample_token, x, key) == draw(reference_sample_token, x, key)
                x = np.nextafter(x, np.inf)
        assert flips >= 20


class TestBlockGreedy:
    def test_block_argmax_equals_per_row_sample_token_on_ties(
        self, small_weights, small_table, vocab, monkeypatch
    ):
        """Greedy steps take one argmax over the [n, vocab] block; with every
        row tied between two ids, each path takes the lower one, as
        sample_token would."""
        forward = engine.forward
        rng = np.random.default_rng(3)
        seen = []

        def tied(*args):
            logits = forward(*args)
            out = np.zeros_like(logits)
            for row in out:
                a, b = rng.choice(np.arange(32, 127), size=2, replace=False)
                row[[a, b]] = 1.0
            seen.append(out)
            return out

        monkeypatch.setattr(engine, "forward", tied)
        draws = []
        monkeypatch.setattr(engine, "sample_token", lambda *args: draws.append(args))
        session = make_session(small_weights, small_table, vocab, num_paths=5)
        run_reasoning(session, GREEDY, GenerationBudget(6))
        assert draws == []  # greedy reasoning selects without sample_token
        monkeypatch.undo()
        # block s picks body token s + 1; after the sixth, budget closes the paths
        for step, block in enumerate(seen[:6]):
            for path, row in zip(session.paths, block):
                token = path.tokens[step + 1]
                assert token == sample_token(row, GREEDY, None)
                assert token == int(np.flatnonzero(row == 1.0)[0])


class TestTerminationSemantics:
    def test_first_finish_stops_at_first_completion(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, num_paths=3)
        forced = forced_schedule(vocab, [5, 9, 7], horizon=12)
        run_reasoning(session, GREEDY, GenerationBudget(12), Termination.FIRST_FINISH, forced)
        assert {len(p.tokens) for p in session.paths} == {7}  # opener + 5 body + closer
        assert session.paths[0].finish_cause == "eos"
        assert session.paths[1].finish_cause == "strategy_stop"
        assert session.paths[2].finish_cause == "strategy_stop"
        assert session.reasoning_len == 7

    def test_half_finish_stops_at_second_completion(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, num_paths=4)
        forced = forced_schedule(vocab, [5, 9, 7, 12], horizon=14)
        run_reasoning(session, GREEDY, GenerationBudget(14), Termination.HALF_FINISH, forced)
        lengths = [len(p.tokens) for p in session.paths]
        causes = [p.finish_cause for p in session.paths]
        assert lengths == [7, 9, 9, 9]  # path 0 froze at its EOS, stop at step 7
        assert causes == ["eos", "strategy_stop", "eos", "strategy_stop"]
        assert session.reasoning_len == 9

    def test_half_finish_odd_path_count_uses_ceiling(self, small_weights, small_table, vocab):
        assert Termination.HALF_FINISH.threshold(3) == 2
        session = make_session(small_weights, small_table, vocab, num_paths=3)
        forced = forced_schedule(vocab, [4, 9, 6], horizon=12)
        run_reasoning(session, GREEDY, GenerationBudget(12), Termination.HALF_FINISH, forced)
        assert [len(p.tokens) for p in session.paths] == [6, 8, 8]
        assert session.reasoning_len == 8

    def test_last_finish_waits_for_all(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, num_paths=3)
        forced = forced_schedule(vocab, [4, 9, 6], horizon=12)
        run_reasoning(session, GREEDY, GenerationBudget(12), Termination.LAST_FINISH, forced)
        assert [len(p.tokens) for p in session.paths] == [6, 11, 8]
        assert all(p.finish_cause == "eos" for p in session.paths)
        assert session.reasoning_len == 11

    def test_budget_stop_when_nothing_finishes(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, num_paths=3)
        forced = forced_schedule(vocab, [None, None, None], horizon=6)
        run_reasoning(session, GREEDY, GenerationBudget(6), Termination.FIRST_FINISH, forced)
        assert {p.finish_cause for p in session.paths} == {"budget"}
        assert {len(p.tokens) for p in session.paths} == {8}  # opener + 6 + closer
        assert all(p.body_length() == 6 for p in session.paths)

    @pytest.mark.parametrize("strategy, finish_steps, budget, rides, closed, causes, lengths", [
        # half of 4: path 0 ends on step 3 and closes in the step-4 pass;
        # paths 2 and 3 end on step 5 while path 1 is still open
        (Termination.HALF_FINISH, [3, 9, 5, 5], 12, 4, [1, 2, 3],
         ["eos", "strategy_stop", "eos", "eos"], [5, 7, 7, 7]),
        # path 0 closes in the step-3 pass; the budget stops the stage on
        # the step path 1 emits EOS
        (Termination.LAST_FINISH, [2, 6, None], 6, 3, [1, 2],
         ["eos", "eos", "budget"], [4, 8, 8]),
    ])
    def test_stopping_step_closes_every_open_path_in_one_pass(
        self, small_weights, small_table, vocab, monkeypatch,
        strategy, finish_steps, budget, rides, closed, causes, lengths,
    ):
        passes = spy_passes(monkeypatch)
        session = make_session(small_weights, small_table, vocab, num_paths=len(finish_steps))
        forced = forced_schedule(vocab, finish_steps, horizon=budget)
        run_reasoning(session, GREEDY, GenerationBudget(budget), strategy, forced)
        close = [vocab.think_close(p.think_label) for p in session.paths]
        # path 0's closer rides the pass of the other paths' body tokens
        assert passes[rides] == (
            [close[0]] + [forced[i][rides - 1] for i in range(1, len(finish_steps))],
            list(range(len(finish_steps))),
        )
        closer_only = [rows for tokens, rows in passes if tokens == [close[r] for r in rows]]
        assert closer_only == [closed]
        assert passes[-1] == ([close[r] for r in closed], closed)
        assert [p.finish_cause for p in session.paths] == causes
        assert [len(p.tokens) for p in session.paths] == lengths

    @pytest.mark.parametrize("strategy", list(Termination))
    def test_a_reasoning_stage_is_reasoning_len_passes(
        self, small_weights, small_table, vocab, monkeypatch, strategy
    ):
        sampler = SamplerConfig(temperature=3.0)
        budget = GenerationBudget(24)
        uneven = 0
        for num_paths in (1, 2, 4, 16):
            runs = [(sampler, seed, None) for seed in range(4)]
            # forced: path i ends at step 2 + 3i (past the budget: never)
            steps = [2 + 3 * i if 2 + 3 * i <= 24 else None for i in range(num_paths)]
            runs.append((GREEDY, 0, forced_schedule(vocab, steps, horizon=24)))
            for run_sampler, seed, forced in runs:
                passes = spy_passes(monkeypatch)
                session = make_session(
                    small_weights, small_table, vocab, num_paths=num_paths, seed=seed
                )
                run_reasoning(session, run_sampler, budget, strategy, forced)
                assert len(passes) == session.reasoning_len
                fed = {p.index: [] for p in session.paths}
                for tokens, rows in passes:
                    for token, row in zip(tokens, rows):
                        fed[row].append(token)
                for path in session.paths:
                    # every token fed once, in order; the closer in the pass
                    # after the path's end: its EOS or the stop
                    assert fed[path.index] == path.tokens
                    body = path.tokens[1:-1]
                    assert path.tokens[-1] == vocab.think_close(path.think_label)
                    assert vocab.eos not in body[:-1]
                    if path.finish_cause == "eos":
                        assert body[-1] == vocab.eos
                    else:  # fed in every pass of the stage
                        assert body[-1] != vocab.eos
                        assert len(path.tokens) == session.reasoning_len
                uneven += len({len(p.tokens) for p in session.paths}) > 1
        if strategy is Termination.FIRST_FINISH:
            assert uneven == 0
        else:
            assert uneven > 0

    def test_paths_open_with_their_think_token(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, num_paths=2)
        run_reasoning(session, GREEDY, GenerationBudget(3), Termination.FIRST_FINISH)
        for path in session.paths:
            assert path.tokens[0] == vocab.think_open(path.think_label)
            assert path.tokens[-1] == vocab.think_close(path.think_label)

    def test_too_many_paths_rejected(self, small_weights, small_table, vocab):
        with pytest.raises(ConfigError):
            make_session(small_weights, small_table, vocab, num_paths=vocab.p_max + 1)

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["layers", "heads", "d_k"])
    def test_thought_table_must_fit_the_model(self, small_weights, vocab, monkeypatch, axis):
        cfg = small_weights.config
        dims = [cfg.n_layers, cfg.n_heads, cfg.d_k]
        dims[axis] += 1
        table = init_thought_table(vocab.p_max, *dims, seed=6)
        allocated = []
        monkeypatch.setattr(engine, "PagedKVCache", lambda *args: allocated.append(args))
        with pytest.raises(ConfigError) as raised:
            make_session(small_weights, table, vocab)
        assert str(raised.value).startswith(f"thought table rows have shape {tuple(dims)}")
        assert allocated == []

    @pytest.mark.parametrize("strategy", ["bogus", "first", 3])
    def test_unknown_strategy_rejected_before_any_write(
        self, small_weights, small_table, vocab, strategy
    ):
        session = make_session(small_weights, small_table, vocab)
        with pytest.raises(ConfigError, match=f"unknown termination strategy {strategy!r}"):
            run_reasoning(session, GREEDY, GenerationBudget(2), strategy)
        assert session.cache.paths is None and not any(p.tokens for p in session.paths)
        run_reasoning(session, GREEDY, GenerationBudget(2), "half_finish")

    def test_stage_cannot_rerun(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab)
        run_reasoning(session, GREEDY, GenerationBudget(2))
        with pytest.raises(LifecycleError):
            run_reasoning(session, GREEDY, GenerationBudget(2))


class TestPathIsolation:
    def test_multi_path_session_replays_per_path(self, small_weights, small_table, vocab):
        budget = GenerationBudget(10, 4)
        multi = run_session(
            small_weights, small_table, vocab, encode("abc", vocab, markup=False),
            3, GREEDY, budget, seed=21, record_logits=True,
        )
        for path in multi.paths:
            solo = run_session(
                small_weights, small_table, vocab, encode("abc", vocab, markup=False),
                1, GREEDY, budget, think_labels=[path.think_label], seed=21,
                record_logits=True,
            )
            assert solo.paths[0].tokens == path.tokens
            for a, b in zip(path.step_logits, solo.paths[0].step_logits):
                assert np.max(np.abs(a - b)) <= 1e-5

    def test_sampled_paths_replay_via_label_streams(self, small_weights, small_table, vocab):
        sampler = SamplerConfig(temperature=0.9)
        budget = GenerationBudget(8, 2)
        multi = run_session(
            small_weights, small_table, vocab, encode("xy", vocab, markup=False),
            4, sampler, budget, seed=33,
        )
        # a single-path run with the same label and seed draws the same
        # stream, so the bodies agree up to the earlier of the two stops
        for path in multi.paths:
            solo = run_session(
                small_weights, small_table, vocab, encode("xy", vocab, markup=False),
                1, sampler, budget, think_labels=[path.think_label], seed=33,
            )
            multi_body = path.tokens[1:-1]
            solo_body = solo.paths[0].tokens[1:-1]
            n = min(len(multi_body), len(solo_body))
            assert multi_body[:n] == solo_body[:n]


class TestUniformLength:
    def test_first_finish_always_uniform(self, small_weights, small_table, vocab):
        sampler = SamplerConfig(temperature=1.1)
        for seed in range(6):
            session = make_session(small_weights, small_table, vocab, num_paths=3, seed=seed)
            run_reasoning(session, sampler, GenerationBudget(9), Termination.FIRST_FINISH)
            assert len({len(p.tokens) for p in session.paths}) == 1


class TestCacheDiscipline:
    def test_no_path_writes_after_transition(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, num_paths=2, seed=4)
        run_reasoning(session, GREEDY, GenerationBudget(5, 6))
        hashes = {
            path_key(i): session.cache.tables[path_key(i)].content_hash()
            for i in range(2)
        }
        prompt_hash = session.cache.tables["prompt"].content_hash()
        run_summarization(session, GREEDY)
        for seg, digest in hashes.items():
            assert session.cache.tables[seg].content_hash() == digest
        assert session.cache.tables["prompt"].content_hash() == prompt_hash

    def test_cached_entries_match_scratch_recompute(self, small_weights, small_table, vocab):
        # re-running the whole session from scratch must land on the same
        # cached entries; a float64 dense recompute stays within 1e-5
        session = run_session(
            small_weights, small_table, vocab, encode("pq", vocab, markup=False),
            2, GREEDY, GenerationBudget(4, 3), seed=8, record_logits=True,
        )
        replay = run_session(
            small_weights, small_table, vocab, encode("pq", vocab, markup=False),
            2, GREEDY, GenerationBudget(4, 3), seed=8,
        )
        tokens, positions, thoughts, visible = serialized_view(session)
        _, k_all, v_all = dense_logits(
            small_weights, small_table, tokens, positions, thoughts, visible,
            return_kv=True,
        )
        slot = 0
        segments = [("prompt", session.l_x)] + [
            (path_key(p.index), len(p.tokens)) for p in session.paths
        ] + [("answer", len(session.answer_tokens))]
        for seg, length in segments:
            table = session.cache.tables[seg]
            fresh = replay.cache.tables[seg]
            for idx in range(length):
                k_got, v_got = table.read(idx)
                k_new, v_new = fresh.read(idx)
                assert np.max(np.abs(k_got - k_new)) <= 1e-6
                assert np.max(np.abs(v_got - v_new)) <= 1e-6
                assert np.max(np.abs(k_got - k_all[:, slot])) <= 1e-5
                assert np.max(np.abs(v_got - v_all[:, slot])) <= 1e-5
                slot += 1


class TestFailureAtomicity:
    @pytest.fixture(scope="class")
    def short_model(self, vocab):
        cfg = ModelConfig(
            n_layers=1, d_model=32, n_heads=2, d_k=16, d_ff=64, vocab_size=292,
            max_position=40,
        )
        table = init_thought_table(vocab.p_max, 1, 2, 16, seed=6)
        return init_weights(cfg, seed=5), table

    @staticmethod
    def assert_in_step(session):
        assert session.cache.length(PROMPT) == session.l_x
        for path in session.paths:
            assert session.cache.length(path_key(path.index)) == len(path.tokens)
        assert session.cache.length(ANSWER) == len(session.answer_tokens)

    def test_reasoning_overflow_raises_before_any_write(self, short_model, vocab):
        weights, table = short_model
        session = GenerationSession(weights, table, vocab, list(range(65, 73)), 2)
        with pytest.raises(PositionOverflowError):  # 8 + 64 + 2 > 40
            run_reasoning(session, GREEDY, GenerationBudget(64))
        self.assert_in_step(session)
        assert all(not p.tokens for p in session.paths)
        run_reasoning(session, GREEDY, GenerationBudget(8))  # a budget that fits
        self.assert_in_step(session)

    def test_answer_overflow_raises_before_any_write(self, short_model, vocab):
        weights, table = short_model
        session = GenerationSession(weights, table, vocab, list(range(65, 73)), 2)
        forced = forced_schedule(vocab, [None, None], horizon=8)
        run_reasoning(session, GREEDY, GenerationBudget(8, 30), forced=forced)
        before = self.session_state(session)
        with pytest.raises(PositionOverflowError):  # 8 + 10 + 1 + 30 > 40
            run_summarization(session, GREEDY)
        self.assert_in_step(session)
        assert session.answer_tokens == []
        assert self.session_state(session) == before
        with pytest.raises(PositionOverflowError):  # refused the same way again
            run_summarization(session, GREEDY)
        assert self.session_state(session) == before

    def test_failed_step_appends_no_token(self, small_weights, small_table, vocab, monkeypatch):
        session = make_session(small_weights, small_table, vocab, num_paths=3)
        forced = {i: [70, 71, 72] for i in range(3)}
        forward, passes = engine.forward, []

        def refuse(*args):
            raise DataError("injected failure")

        def third_fails(*args):
            passes.append(args)
            if len(passes) == 4:  # the openers, then body steps 1-3: fail once staged
                monkeypatch.setattr(model, "_head", refuse)
            return forward(*args)

        monkeypatch.setattr(engine, "forward", third_fails)
        with pytest.raises(DataError, match="injected"):
            run_reasoning(session, GREEDY, GenerationBudget(5), forced=forced)
        self.assert_in_step(session)
        assert [len(p.tokens) for p in session.paths] == [3, 3, 3]  # opener + 2 body

    @pytest.mark.parametrize("forced, match", [
        ({7: [65]}, r"path 7 \(1 tokens\) does not fit paths 0..1 with a budget of 5"),
        ({-1: [65]}, "path -1 "),
        ({0: [65] * 6}, r"path 0 \(6 tokens\) does not fit"),
        ({0: [5, 6, 10**6]}, "at offset 2 outside vocab"),
        ({1: [65, 3.5]}, "at offset 1 is not an integer"),
    ])
    def test_bad_forced_script_rejected_before_any_write(
        self, small_weights, small_table, vocab, forced, match
    ):
        session = make_session(small_weights, small_table, vocab, num_paths=2)
        with pytest.raises(DataError, match=match):
            run_reasoning(session, GREEDY, GenerationBudget(5), forced=forced)
        self.assert_in_step(session)
        assert all(not p.tokens for p in session.paths)
        assert session.budget is session.strategy is session.cache.paths is None
        run_reasoning(session, GREEDY, GenerationBudget(5))  # the session is still usable
        self.assert_in_step(session)

    @pytest.mark.parametrize(
        "bad", [3.5, 2.0, True, np.bool_(False), "7", "a", np.float32(2), None]
    )
    def test_non_integer_prompt_id_rejected_before_allocation(
        self, small_weights, small_table, vocab, monkeypatch, bad
    ):
        def refuse(*args):
            raise AssertionError("a cache was allocated for a bad prompt")

        monkeypatch.setattr(engine, "PagedKVCache", refuse)
        with pytest.raises(DataError, match="at offset 1 is not an integer"):
            GenerationSession(small_weights, small_table, vocab, [65, bad, 66], 2)

    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, True, np.bool_(True), "3", None, np.int64(-2)])
    def test_bad_seed_rejected_before_allocation(
        self, small_weights, small_table, vocab, monkeypatch, bad
    ):
        def refuse(*args):
            raise AssertionError("a cache was allocated for a bad seed")

        monkeypatch.setattr(engine, "PagedKVCache", refuse)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            GenerationSession(small_weights, small_table, vocab, [65, 66], 2, seed=bad)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, np.bool_(True), np.float64(4), "3", None])
    def test_budget_that_is_not_an_integer(self, bad):
        with pytest.raises(ConfigError, match="path budget must be an integer of at least 1"):
            GenerationBudget(bad)
        with pytest.raises(ConfigError, match="answer budget must be an integer of at least 0"):
            GenerationBudget(4, bad)

    def test_numpy_budget_stored_as_int(self):
        budget = GenerationBudget(np.int64(4), np.uint8(2))
        assert budget == GenerationBudget(4, 2)
        assert type(budget.max_path_tokens) is int and type(budget.max_answer_tokens) is int

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, np.bool_(True), "3", None, -1])
    def test_bad_answer_cap_refused_before_any_write(self, small_weights, small_table, vocab, bad):
        # the answer cap is the session budget's, refused when the budget is
        # built, so a session never holds one
        session = make_session(small_weights, small_table, vocab, num_paths=2)
        before = self.session_state(session)
        with pytest.raises(ConfigError, match="answer budget must be an integer of at least 0"):
            run_reasoning(session, GREEDY, GenerationBudget(3, bad))
        assert self.session_state(session) == before
        run_reasoning(session, GREEDY, GenerationBudget(3, np.int64(2)))  # still usable
        run_summarization(session, GREEDY)
        assert type(session.budget.max_answer_tokens) is int
        assert session.budget.max_answer_tokens == 2
        assert 2 <= len(session.answer_tokens) <= 3  # SUMMARY_OPEN and at most 2 samples

    def test_numpy_seed_stored_as_int(self, small_weights, small_table, vocab):
        sampler = SamplerConfig(temperature=0.9)
        records = []
        for seed in (np.int64(5), np.uint32(5), 5):
            session = run_session(
                small_weights, small_table, vocab, [65, 66], 2, sampler,
                GenerationBudget(4, 2), seed=seed,
            )
            assert type(session.seed) is int
            records.append(canonical_json(session_record(session)))
        assert len(set(records)) == 1

    @staticmethod
    def session_state(session):
        """Every field a refused session could have touched, by value."""
        return (
            session.num_paths, list(session.think_labels),
            [(p.think_label, list(p.tokens), p.finish_cause) for p in session.paths],
            session.stage, session.budget, session.strategy, session.reasoning_len,
            session.prompt_logits.tobytes(),
            [(seg, t.slab.capacity, t.filled, t.row)
             for seg, t in sorted(session.cache.tables.items())],
            session.cache.tables[PROMPT].content_hash(),
        )

    def refuse_before_allocation(self, weights, table, vocab, monkeypatch, error, match, **kwargs):
        """The session is refused before any cache is made, and the prompt
        donor it names keeps every field."""
        donor = GenerationSession(weights, table, vocab, [65, 66], 2)
        before = self.session_state(donor)

        def refuse(*args):
            raise AssertionError("a cache was allocated for a bad session")

        monkeypatch.setattr(engine, "PagedKVCache", refuse)
        kwargs.setdefault("num_paths", 2)
        with pytest.raises(error, match=match):
            GenerationSession(weights, table, vocab, [65, 66], prompt_from=donor, **kwargs)
        assert self.session_state(donor) == before

    @pytest.mark.parametrize(
        "bad", [True, np.bool_(True), 2.0, np.float64(2), 1.5, "2", None]
    )
    def test_non_integer_path_count_refused_before_allocation(
        self, small_weights, small_table, vocab, monkeypatch, bad
    ):
        self.refuse_before_allocation(
            small_weights, small_table, vocab, monkeypatch, ConfigError,
            "num_paths must be an integer", num_paths=bad,
        )

    @pytest.mark.parametrize(
        "bad", [True, np.bool_(True), 1.0, np.float32(3), 2.5, "3", None]
    )
    def test_non_integer_think_label_refused_before_allocation(
        self, small_weights, small_table, vocab, monkeypatch, bad
    ):
        self.refuse_before_allocation(
            small_weights, small_table, vocab, monkeypatch, ConfigError,
            "think label .* is not an integer", think_labels=[4, bad],
        )

    @pytest.mark.parametrize("bad", [0, np.int64(0), 17, np.uint8(17), -1])
    def test_think_label_out_of_range_refused_before_allocation(
        self, small_weights, small_table, vocab, monkeypatch, bad
    ):
        self.refuse_before_allocation(
            small_weights, small_table, vocab, monkeypatch, VocabError,
            "out of range", think_labels=[bad, 2],
        )

    def test_numpy_path_count_and_labels_stored_as_int(self, small_weights, small_table, vocab):
        sampler = SamplerConfig(temperature=0.9)
        records = []
        for num_paths, labels in (
            (np.int64(2), [np.int64(3), np.int64(1)]),
            (np.uint8(2), (np.uint8(3), 1)),
            (2, [3, 1]),
        ):
            session = run_session(
                small_weights, small_table, vocab, [65, 66], num_paths, sampler,
                GenerationBudget(4, 2), think_labels=labels, seed=5,
            )
            assert type(session.num_paths) is int
            assert [type(label) for label in session.think_labels] == [int, int]
            assert [type(path.think_label) for path in session.paths] == [int, int]
            records.append(canonical_json(session_record(session)))
        assert len(set(records)) == 1
        assert '"think_labels":[3,1]' in records[0]

    def test_integer_prompt_ids_of_any_integer_type_accepted(self, small_weights, small_table, vocab):
        ids = [np.int64(65), np.uint8(66), 67]
        session = GenerationSession(small_weights, small_table, vocab, ids, 1)
        assert session.prompt_tokens == [65, 66, 67]
        assert all(type(t) is int for t in session.prompt_tokens)
        with pytest.raises(DataError, match="at offset 2 outside vocab"):
            GenerationSession(small_weights, small_table, vocab, [65, 66, -1], 1)

    def test_numpy_array_prompt_accepted(self, small_weights, small_table, vocab):
        """A prompt's emptiness is its length: a numpy array has no truth
        value."""
        records = [
            canonical_json(session_record(run_session(
                small_weights, small_table, vocab, prompt, 2, SamplerConfig(temperature=0.9),
                GenerationBudget(4, 2), seed=3,
            )))
            for prompt in (np.array([104, 105]), [104, 105])
        ]
        assert records[0] == records[1]
        with pytest.raises(DataError, match="prompt must contain at least one token"):
            GenerationSession(small_weights, small_table, vocab, np.array([], dtype=np.int64), 1)

    def test_greedy_decoding_draws_no_generator(self, small_weights, small_table, vocab, monkeypatch):
        def refuse(*args):
            raise AssertionError("greedy decoding drew a uniform or ran the sampler")

        for name in ("draw_rng", "uniforms", "sample_tokens"):
            monkeypatch.setattr(engine, name, refuse)
        run_session(
            small_weights, small_table, vocab, encode("hi", vocab, markup=False), 3,
            GREEDY, GenerationBudget(4, 3), strategy=Termination.HALF_FINISH,
        )


class TestSummarization:
    def test_single_path_matches_sequential_oracle(self, small_weights, small_table, vocab):
        prompt = encode("sum", vocab, markup=False)
        budget = GenerationBudget(6, 5)
        session = run_session(
            small_weights, small_table, vocab, prompt, 1, GREEDY, budget,
            seed=2, record_logits=True,
        )
        path_tokens, _, state = greedy_dense_decode(
            small_weights, small_table, vocab, prompt, think_label=1,
            body_budget=budget.max_path_tokens,
        )
        assert session.paths[0].tokens == path_tokens

        tokens, positions, thoughts = state
        l_x = len(prompt)
        reasoning_len = len(path_tokens)
        answer = [vocab.summary_open]
        for step in range(budget.max_answer_tokens + 1):
            seq_tokens = tokens + answer
            seq_positions = positions + [
                l_x + reasoning_len + t + 1 for t in range(len(answer))
            ]
            seq_thoughts = thoughts + [0] * len(answer)
            full = dense_logits(
                small_weights, small_table, seq_tokens, seq_positions, seq_thoughts,
                causal_mask(len(seq_tokens)),
            )
            engine_logits = session.answer_logits[len(answer) - 1]
            assert np.max(np.abs(full[-1] - engine_logits)) <= 1e-5
            if step == budget.max_answer_tokens:
                break
            token = int(np.argmax(full[-1]))
            answer.append(token)
            if token in (vocab.summary_close, vocab.eos):
                break
        assert session.answer_tokens == answer

    def test_answer_conditions_on_every_path(self, small_weights, small_table, vocab):
        # hiding one path's slots from the answer rows must move the logits
        session = run_session(
            small_weights, small_table, vocab, encode("mn", vocab, markup=False),
            2, GREEDY, GenerationBudget(5, 3), seed=6, record_logits=True,
        )
        tokens, positions, thoughts, visible = serialized_view(session)
        full = dense_logits(small_weights, small_table, tokens, positions, thoughts, visible)
        answer_start = len(tokens) - len(session.answer_tokens)
        assert np.max(np.abs(full[answer_start] - session.answer_logits[0])) <= 1e-5

        ablated = visible.copy()
        path1 = range(session.l_x + len(session.paths[0].tokens),
                      session.l_x + len(session.paths[0].tokens) + len(session.paths[1].tokens))
        for t in range(answer_start, len(tokens)):
            ablated[t, list(path1)] = False
        hidden = dense_logits(small_weights, small_table, tokens, positions, thoughts, ablated)
        assert np.max(np.abs(hidden[answer_start] - full[answer_start])) > 1e-6

    def test_zero_answer_budget(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, num_paths=2, seed=1)
        run_reasoning(session, GREEDY, GenerationBudget(3, 0))
        sampled = run_summarization(session, GREEDY)
        assert sampled == []
        assert session.answer_tokens == [vocab.summary_open]

    def test_requires_reasoning_first(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab)
        with pytest.raises(LifecycleError):
            run_summarization(session, GREEDY)

    def test_cannot_rerun(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, seed=3)
        run_reasoning(session, GREEDY, GenerationBudget(3, 2))
        run_summarization(session, GREEDY)
        with pytest.raises(LifecycleError):
            run_summarization(session, GREEDY)

    def test_stage_transition_happens_once(self, small_weights, small_table, vocab):
        session = make_session(small_weights, small_table, vocab, seed=5)
        assert session.stage == "reasoning"
        run_reasoning(session, GREEDY, GenerationBudget(3, 2))
        assert session.stage == "summarization"
        run_summarization(session, GREEDY)
        assert session.stage == "done"


def spy_attend(monkeypatch):
    """Records (query rows, key parts, value parts, hidden) of every attend call."""
    calls = []
    attend = model.attend
    signature = inspect.signature(attend)

    def spy(q, keys, values, *args, **kwargs):
        bound = signature.bind(q, keys, values, *args, **kwargs)
        calls.append((q.shape[0], list(keys), list(values), bound.arguments.get("hidden")))
        return attend(q, keys, values, *args, **kwargs)

    monkeypatch.setattr(model, "attend", spy)
    return calls


def key_slots(part):
    """Key slots in an attention part, [m, H, d_k] or [1, g, m, H, d_k]."""
    return int(np.prod(part.shape[:-2]))


def tail_columns(l_x, lengths):
    """The score columns of slab slots at or past each row's fill, when the
    slab is read up to the longest row after an ``l_x``-slot prompt."""
    longest = max(lengths)
    return {
        l_x + row * longest + t
        for row, length in enumerate(lengths)
        for t in range(length, longest)
    }


def spread_finish(num_paths, horizon, stop_every=None):
    """EOS steps spread over [2, horizon]; every ``stop_every``-th path
    never emits EOS."""
    return [
        None if stop_every and i % stop_every == 0 else 2 + (3 * i) % (horizon - 1)
        for i in range(num_paths)
    ]


class TestAnswerPass:
    """Each answer token is one one-row causal pass over three parts per
    layer under every termination strategy: the prompt, the path slab
    read in place up to the longest row's fill, and the answer.  When the
    rows are unequally long the plan's ``hidden`` mask scores each row's
    slots at or past its own fill -inf, so they get no weight."""

    def reasoned(self, weights, table, vocab, strategy, finish_steps):
        session = make_session(weights, table, vocab, num_paths=len(finish_steps),
                               seed=3, record_logits=True)
        forced = forced_schedule(vocab, finish_steps, horizon=12)
        run_reasoning(session, GREEDY, GenerationBudget(12, 6), strategy, forced)
        return session

    @pytest.mark.parametrize("strategy, finish_steps", [
        (Termination.FIRST_FINISH, [5, None, None, None]),  # equal rows, short of capacity
        (Termination.FIRST_FINISH, [None, None, None]),  # full rows
        (Termination.HALF_FINISH, [3, 9, 6, None]),
        (Termination.LAST_FINISH, [4, 9, 6]),
        (Termination.HALF_FINISH, spread_finish(16, 12, stop_every=3)),
        (Termination.LAST_FINISH, spread_finish(16, 12)),  # one row at capacity: a flat part
    ])
    def test_answer_reads_the_slab_and_nothing_past_it(
        self, small_weights, small_table, vocab, monkeypatch, strategy, finish_steps
    ):
        session = self.reasoned(small_weights, small_table, vocab, strategy, finish_steps)
        lengths = [len(p.tokens) for p in session.paths]
        equal = len(set(lengths)) == 1
        assert equal == (strategy is Termination.FIRST_FINISH)

        calls = spy_attend(monkeypatch)
        run_summarization(session, GREEDY)
        slab = session.cache.paths
        assert calls
        for _, keys, values, hidden in calls:
            assert len(keys) == len(values) == 3  # prompt, slab, answer
            k, v = keys[1], values[1]
            assert np.shares_memory(k, slab.k) and np.shares_memory(v, slab.v)
            assert key_slots(k) == len(lengths) * max(lengths)
            if equal:
                assert hidden is None
                continue
            assert hidden.shape == (session.l_x + key_slots(k),)
            assert hidden.sum() == sum(max(lengths) - length for length in lengths)
            assert set(np.flatnonzero(hidden).tolist()) == tail_columns(session.l_x, lengths)

        # slab slots past each row's fill hold large finite values: not read
        poisoned = self.reasoned(small_weights, small_table, vocab, strategy, finish_steps)
        for row, length in enumerate(lengths):
            poisoned.cache.paths.k[:, row, length:] = 1e4
            poisoned.cache.paths.v[:, row, length:] = -1e4
        run_summarization(poisoned, GREEDY)
        assert poisoned.answer_tokens == session.answer_tokens
        for got, want in zip(poisoned.answer_logits, session.answer_logits):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("strategy", list(Termination))
    @pytest.mark.parametrize("num_paths", [1, 4, 16])
    def test_pass_structure(
        self, small_weights, small_table, vocab, monkeypatch, num_paths, strategy
    ):
        calls = spy_attend(monkeypatch)
        active, index, in_place = [], [], []
        forward = engine.forward

        def counting(weights, table, plan, tokens, rows, at):
            active.append(len(rows))
            index.append(at)
            in_place.append(rows == list(range(rows[0], rows[0] + len(rows))))
            return forward(weights, table, plan, tokens, rows, at)

        monkeypatch.setattr(engine, "forward", counting)
        session = make_session(small_weights, small_table, vocab, num_paths=num_paths, seed=7)
        prefill_calls = len(calls)
        finish = [3 + (i % 5) for i in range(num_paths)]
        forced = forced_schedule(vocab, finish, horizon=8)
        run_reasoning(session, GREEDY, GenerationBudget(8, 5), strategy, forced)
        layers = small_weights.config.n_layers
        reasoning = calls[prefill_calls:]
        assert len(reasoning) == layers * len(active)
        slab = session.cache.paths
        for call, (rows, keys, values, hidden) in enumerate(reasoning):
            assert rows == max(active[call // layers], 2)
            # two parts: the prompt, then the rows' own slots through the
            # staged new slot, read in place unless a frozen row splits them
            assert len(keys) == len(values) == 2
            assert hidden is None
            own_k, own_v = keys[-1], values[-1]
            assert own_k.shape[:2] == (active[call // layers], index[call // layers] + 1)
            shared = np.shares_memory(own_k, slab.k) and np.shares_memory(own_v, slab.v)
            assert shared == in_place[call // layers]
        assert any(in_place)

        del calls[:]
        run_summarization(session, GREEDY)
        assert len(calls) == layers * len(session.answer_tokens)
        lengths = [len(p.tokens) for p in session.paths]
        equal = len(set(lengths)) == 1
        assert equal == (strategy is Termination.FIRST_FINISH or num_paths == 1)
        tails = sum(max(lengths) - length for length in lengths)
        for rows, keys, _, hidden in calls:
            assert rows == 1 and len(keys) == 3
            assert (hidden is None) if equal else (hidden.sum() == tails)


class TestStagePlans:
    """Each stage resolves its plan once: one for the prefill (none for a
    session given ``prompt_from``), one for reasoning and one for
    summarization, however many passes they run.  No pass looks up a
    segment length or resolves a segment's storage by name (``table``, a
    lookup in ``cache.tables``), and no slot address is built: a pass
    names its rows by their positions among the plan's owners."""

    @pytest.mark.parametrize("strategy", list(Termination))
    @pytest.mark.parametrize("num_paths", [1, 3, 8])
    def test_one_plan_per_stage(
        self, small_weights, small_table, vocab, monkeypatch, strategy, num_paths
    ):
        builds, lookups, in_pass, passes, addresses = [], [], [], [], []
        build, length = model.StagePlan.__init__, engine.PagedKVCache.length
        table, cache_init = engine.PagedKVCache.table, engine.PagedKVCache.__init__
        address_init = kvcache.SlotAddress.__init__

        class Tables(dict):
            """``cache.tables``, noting every lookup made inside a pass."""

            def __getitem__(self, segment):
                if in_pass:
                    lookups.append(("tables", segment))
                return super().__getitem__(segment)

            def get(self, segment, default=None):
                if in_pass:
                    lookups.append(("tables", segment))
                return super().get(segment, default)

        def counted_build(plan, *args, **kwargs):
            builds.append(plan)
            build(plan, *args, **kwargs)

        def counted_length(cache, segment):
            if in_pass:
                lookups.append(("length", segment))
            return length(cache, segment)

        def counted_table(cache, segment):
            if in_pass:
                lookups.append(("table", segment))
            return table(cache, segment)

        def spied_cache(cache, *args, **kwargs):
            cache_init(cache, *args, **kwargs)
            cache.tables = Tables(cache.tables)

        def counted_address(address, *args, **kwargs):
            addresses.append(args)
            address_init(address, *args, **kwargs)

        def passing(fn):
            def run(*args, **kwargs):
                passes.append(fn.__name__)
                in_pass.append(True)
                try:
                    return fn(*args, **kwargs)
                finally:
                    in_pass.pop()
            return run

        monkeypatch.setattr(model.StagePlan, "__init__", counted_build)
        monkeypatch.setattr(engine.PagedKVCache, "length", counted_length)
        monkeypatch.setattr(engine.PagedKVCache, "table", counted_table)
        monkeypatch.setattr(engine.PagedKVCache, "__init__", spied_cache)
        monkeypatch.setattr(kvcache.SlotAddress, "__init__", counted_address)
        monkeypatch.setattr(engine, "forward", passing(engine.forward))
        forced = forced_schedule(vocab, [3 + i % 4 for i in range(num_paths)], horizon=8)
        donor = None
        for _ in range(2):
            session = make_session(
                small_weights, small_table, vocab, num_paths=num_paths, prompt_from=donor
            )
            assert len(builds) == (0 if donor else 1)
            assert isinstance(session.cache.tables, Tables)
            run_reasoning(session, GREEDY, GenerationBudget(8, 6), strategy, forced)
            run_summarization(session, GREEDY)
            assert len(builds) == (2 if donor else 3)
            assert passes.count("forward") > 4
            donor, builds[:], passes[:] = session, [], []
        assert lookups == []
        assert addresses == []


class TestDistinctTokenDivergence:
    def test_sampled_paths_usually_differ(self, small_weights, small_table, vocab):
        sampler = SamplerConfig(temperature=1.0)
        diverged = 0
        for seed in range(20):
            session = make_session(
                small_weights, small_table, vocab, num_paths=4, seed=seed
            )
            run_reasoning(
                session,
                SamplerConfig(temperature=1.0),
                GenerationBudget(8),
                Termination.FIRST_FINISH,
            )
            prefixes = {tuple(p.tokens[1:9]) for p in session.paths}
            if len(prefixes) >= 2:
                diverged += 1
        assert diverged >= 19

    def test_greedy_divergence_is_mechanism_driven(self, small_weights, small_table, vocab):
        # no sampling noise: distinct openers and thought rows split the paths
        session = make_session(small_weights, small_table, vocab, num_paths=4, seed=0)
        run_reasoning(session, GREEDY, GenerationBudget(8))
        assert len({tuple(p.tokens[1:9]) for p in session.paths}) >= 2


class TestEvalUtilities:
    def test_majority_basic(self):
        assert majority_vote([7, 7, 3]) == 7

    def test_majority_tie_takes_earliest(self):
        assert majority_vote([1, 2]) == 1
        assert majority_vote(["b", "a"]) == "b"

    def test_majority_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            answers = [int(a) for a in rng.integers(0, 6, size=64)]
            counts = {}
            for a in answers:
                counts[a] = counts.get(a, 0) + 1
            best = max(counts.values())
            oracle = min(
                (a for a in counts if counts[a] == best), key=answers.index
            )
            assert majority_vote(answers) == oracle

    def test_majority_rejects_empty(self):
        with pytest.raises(DataError):
            majority_vote([])

    def test_pass_at_1_formula(self):
        assert pass_at_1([1, 0, 1, 1], 4) == 0.75
        assert pass_at_1([1] * 5, 5) == 1.0

    def test_pass_at_1_random_matches_sum(self):
        rng = np.random.default_rng(9)
        bits = [int(b) for b in rng.integers(0, 2, size=16)]
        assert pass_at_1(bits, 16) == sum(bits) / 16

    def test_pass_at_1_validation(self):
        with pytest.raises(DataError):
            pass_at_1([], 0)
        with pytest.raises(DataError):
            pass_at_1([1, 0], 3)

    def test_eval_report(self):
        report = EvalReport.from_samples(["a", "b", "a"], [1, 0, 1])
        assert report.pass_at_1 == pytest.approx(2 / 3)
        assert report.majority_answer == "a"
        assert report.vote_counts == {"a": 2, "b": 1}
        assert report.k == 3


class TestDeterminism:
    def test_session_reproduces_byte_identically(self, small_weights, small_table, vocab):
        sampler = SamplerConfig(temperature=0.8)
        records = []
        for _ in range(2):
            session = run_session(
                small_weights, small_table, vocab, encode("rs", vocab, markup=False),
                3, sampler, GenerationBudget(7, 4), seed=14,
            )
            records.append(canonical_json(session_record(session)))
        assert records[0] == records[1]
