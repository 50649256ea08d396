"""Sampled draws: the uniform kernel, the batched sampler and the engine's
draw rule, each against a per-draw reference.

Every draw of a session is ``sample_token(logits, sampler, draw_rng(seed,
stream, step))``: the engine takes each sampled stage's uniforms from one
``pcg.uniforms`` table, for any seed, and samples all of a reasoning
step's rows in one ``sample_tokens`` call.  Neither may change a single
token.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcot import engine
from parcot.engine import (
    ANSWER_STREAM,
    GenerationBudget,
    SamplerConfig,
    Termination,
    canonical_json,
    draw_rng,
    run_session,
    sample_token,
    sample_tokens,
)
from parcot.errors import SamplingError
from parcot.harness import run_experiment
from parcot.pcg import uniforms
from parcot.tokenizer import encode

from oracles import reference_sample_token


class TestUniformKernel:
    def test_matches_default_rng_over_random_keys(self, vocab):
        rng = np.random.default_rng(20261018)
        seeds = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63 - 2, 2**64 - 1]
        seeds += [int(s) for s in rng.integers(0, 2**32, 12)]
        seeds += [int(s) for s in rng.integers(2**32, 2**63, 12, dtype=np.int64)]
        seeds += [2**63 - 1 - int(d) for d in rng.integers(0, 2**20, 8)]
        # seeds of 3 to 7 words: the key's words past the 4-word pool are
        # mixed into it
        seeds += [2**64, 2**64 + 3, 2**96, 2**128 - 1, 2**160 + 1, 2**192, 2**200 + 7, 2**224 - 1]
        wide = np.random.default_rng(20261020)
        seeds += [int(wide.integers(1, 2**62)) << int(wide.integers(64, 161)) for _ in range(8)]
        assert {max(1, -(-seed.bit_length() // 32)) for seed in seeds} == set(range(1, 8))
        streams = list(range(vocab.p_max + 1))
        checked = 0
        for seed in seeds:
            steps = [0, 1, 2, 15, 16, 2**31, 2**32 - 1]
            steps += [int(s) for s in rng.integers(0, 2**32, 8, dtype=np.int64)]
            got = uniforms(seed, streams, steps)
            assert got.shape == (len(streams), len(steps))
            for i, stream in enumerate(streams):
                for j, step in enumerate(steps):
                    want = np.random.default_rng((seed, stream, step)).random()
                    assert got[i, j] == want, (seed, stream, step)
                    checked += 1
        assert checked >= 10_000

    def test_empty_grids(self):
        assert uniforms(3, [], [1, 2]).shape == (0, 2)
        assert uniforms(3, [1], []).shape == (1, 0)

    @pytest.mark.parametrize(
        "seed, streams, steps",
        [(-1, [1], [1]), (0, [2**32], [1]), (0, [-1], [1]), (0, [1], [2**32])],
    )
    def test_keys_outside_the_words_are_rejected(self, seed, streams, steps):
        with pytest.raises(ValueError):
            uniforms(seed, streams, steps)


def outcome(logits, sampler, draw):
    """Token ids of a block's rows, or the SamplingError message it raised."""
    try:
        return [int(t) for t in draw(logits, sampler)]
    except SamplingError as exc:
        return f"SamplingError: {exc}"


def per_row(block, sampler, keys):
    """The reference, row after row: the first row that raises decides."""
    return outcome(
        block, sampler,
        lambda b, s: [reference_sample_token(row, s, draw_rng(*k)) for row, k in zip(b, keys)],
    )


def batched(block, sampler, keys):
    u = np.array([draw_rng(*k).random() for k in keys])
    return outcome(block, sampler, lambda b, s: sample_tokens(b, s, u))


@st.composite
def logit_blocks(draw):
    """[n, vocab] blocks whose rows mix ties, dominant tokens, underflowing
    tails and (rarely) non-finite entries."""
    n = draw(st.integers(1, 16))
    vocab = draw(st.sampled_from([0, 1, 2, 12, 64, 292]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.standard_normal((n, vocab)) * draw(st.sampled_from([0.1, 1.0, 8.0]))
    for row in block:
        kind = draw(st.sampled_from(["normal"] * 3 + ["ties", "dominant", "tails", "nonfinite"]))
        if not vocab:
            break
        if kind == "ties":
            row[:] = rng.choice(rng.standard_normal(draw(st.integers(1, 4))) * 5, size=vocab)
        elif kind == "dominant":
            row[rng.integers(vocab)] = draw(st.floats(20, 400))
        elif kind == "tails":
            row[rng.random(vocab) < 0.7] = -draw(st.floats(30, 2000))
        elif kind == "nonfinite" and draw(st.integers(0, 3)) == 0:
            row[rng.integers(vocab, size=draw(st.integers(1, vocab)))] = draw(
                st.sampled_from([-np.inf, np.inf, np.nan])
            )
    return block.astype(draw(st.sampled_from([np.float32, np.float64])))


class TestBatchedSampler:
    """Each row of a ``sample_tokens`` block takes the token the reference
    takes on that row alone with the same key; a block that cannot be
    sampled raises what its first such row raises."""

    @given(
        block=logit_blocks(),
        temperature=st.floats(0.05, 5.0),
        top_p=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
        greedy=st.booleans(),
        seed=st.integers(0, 2**63 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_reference(self, block, temperature, top_p, greedy, seed):
        sampler = SamplerConfig(temperature=temperature, top_p=top_p, greedy=greedy)
        keys = [(seed, r + 1, 1 + r % 3) for r in range(len(block))]
        assert batched(block, sampler, keys) == per_row(block, sampler, keys)

    @pytest.mark.parametrize("top_p", [1.0, 0.9, 0.5])
    def test_model_like_blocks(self, top_p):
        rng = np.random.default_rng(12)
        sampler = SamplerConfig(temperature=0.7, top_p=top_p)
        for step in range(1, 201):
            block = (rng.standard_normal((1 + step % 16, 292)) * 3).astype(np.float32)
            keys = [(99, label, step) for label in range(1, len(block) + 1)]
            assert batched(block, sampler, keys) == per_row(block, sampler, keys)

    @pytest.mark.parametrize("top_p", [1.0, 0.95])
    def test_flip_point_rows_inside_blocks(self, top_p):
        """The rows of ``test_matches_choice_sampler_at_the_flip_points``
        (one logit within 16 ulps of where the reference's draw flips
        between two tokens), each placed among other rows of a block."""
        base = np.random.default_rng(0).standard_normal(12)
        sampler = SamplerConfig(temperature=0.9, top_p=top_p)

        def with_x(x):
            row = base.copy()
            row[0] = x
            return row

        def reference(x, key):
            return reference_sample_token(with_x(x), sampler, draw_rng(*key))

        rows, keys = [], []
        for seed in range(40):
            key = (seed, 1, 1)
            lo, hi = -30.0, 30.0
            low_token = reference(lo, key)
            if reference(hi, key) == low_token:
                continue
            while np.nextafter(lo, hi) < hi:
                mid = (lo + hi) / 2
                if mid in (lo, hi):
                    break
                if reference(mid, key) == low_token:
                    lo = mid
                else:
                    hi = mid
            x = lo
            for _ in range(16):
                x = np.nextafter(x, -np.inf)
            for _ in range(32):
                rows.append(with_x(x))
                keys.append(key)
                x = np.nextafter(x, np.inf)
        assert len(rows) >= 20 * 32
        rows = np.array(rows)
        rng = np.random.default_rng(1)
        filler = rng.standard_normal((len(rows), 12))
        at = 0
        while at < len(rows):
            size = int(rng.integers(1, 17))
            flips = int(rng.integers(1, size + 1))
            block = np.concatenate([rows[at : at + flips], filler[at : at + size - flips]])
            block_keys = keys[at : at + flips] + [(7, 2, 1 + i) for i in range(size - flips)]
            order = rng.permutation(len(block))
            block, block_keys = block[order], [block_keys[i] for i in order]
            assert batched(block, sampler, block_keys) == per_row(block, sampler, block_keys)
            at += flips

    def test_first_bad_row_decides_the_error(self):
        sampler = SamplerConfig(temperature=1e-300)
        finite_overflow = np.array([1e10, 0.0, 1.0])
        masked = np.full(3, -np.inf)
        nan_row = np.array([0.0, np.nan, 1.0])
        fine = np.array([0.0, 0.5, 1.0])
        keys = [(1, 1, 1)] * 3
        with np.errstate(over="ignore"):
            for block, message in [
                ([fine, finite_overflow, masked], "overflow"),
                ([fine, masked, finite_overflow], "masked out"),
                ([nan_row, finite_overflow, fine], "non-finite"),
            ]:
                got = batched(np.array(block), sampler, keys)
                assert got == per_row(np.array(block), sampler, keys)
                assert message in got

    def test_generator_draws_only_after_the_rows_are_checked(self):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(SamplingError):
            sample_tokens(np.array([[0.0, 1.0], [0.0, np.nan]]), SamplerConfig(), rng)
        assert rng.bit_generator.state == before
        assert sample_tokens(np.zeros((0, 5)), SamplerConfig(), rng).shape == (0,)

    def test_sample_token_is_the_one_row_case(self, monkeypatch):
        calls = []
        original = engine.sample_tokens

        def spy(logits, sampler, draws):
            calls.append(np.shape(logits))
            return original(logits, sampler, draws)

        monkeypatch.setattr(engine, "sample_tokens", spy)
        row = np.random.default_rng(5).standard_normal(40)
        token = sample_token(row, SamplerConfig(top_p=0.9), draw_rng(3, 1, 1))
        assert calls == [(1, 40)]
        assert token == reference_sample_token(row, SamplerConfig(top_p=0.9), draw_rng(3, 1, 1))


STRATEGIES = list(Termination)


def session_cases():
    """Sampled sessions over P 1..16, all strategies, some paths scripted
    for their first steps (so scripted rows turn into sampled ones mid-stage),
    budgets of 3 to 40 and seeds of one, two and three words."""
    rng = np.random.default_rng(77)
    seeds = [0, 12, 2**32 + 5, 2**63 - 11, 2**64 + 3]
    for case in range(30):
        num_paths = [1, 2, 3, 5, 8, 16][case % 6]
        budget = int(rng.choice([3, 9, 20, 40]))
        forced = {}
        for index in range(num_paths):
            if rng.random() < 0.35:
                length = int(rng.integers(1, budget + 1))
                forced[index] = [int(t) for t in rng.integers(65, 90, length)]
        sampler = SamplerConfig(
            temperature=float(rng.choice([0.7, 1.3])), top_p=float(rng.choice([1.0, 0.8]))
        )
        yield num_paths, budget, STRATEGIES[case % 3], seeds[case % len(seeds)], forced, sampler


def count_kernel_calls(monkeypatch) -> list:
    """Record (seed, streams, steps) of every engine ``uniforms`` call."""
    calls = []
    kernel = engine.uniforms

    def counted(seed, streams, steps):
        calls.append((seed, list(streams), list(steps)))
        return kernel(seed, streams, steps)

    monkeypatch.setattr(engine, "uniforms", counted)
    return calls


def stage_tables(session, forced) -> list:
    """The ``uniforms`` calls the one-table rule makes for a sampled session:
    one per stage that draws, over every stream of the stage, from the
    stage's first draw to its last step (B, or the answer's cap)."""
    scripted = {p.index: len(forced.get(p.index, [])) for p in session.paths}
    # body token s of a path is drawn when s is past its script
    first = min(
        (scripted[p.index] + 1 for p in session.paths if len(p.tokens) - 2 > scripted[p.index]),
        default=None,
    )
    tables = []
    if first is not None:
        steps = list(range(first, session.budget.max_path_tokens + 1))
        tables.append((session.seed, session.think_labels, steps))
    if len(session.answer_tokens) > 1:  # a token after SUMMARY_OPEN
        steps = list(range(1, session.budget.max_answer_tokens + 1))
        tables.append((session.seed, [ANSWER_STREAM], steps))
    return tables


class TestEngineDraws:
    def test_every_draw_is_the_per_draw_reference(
        self, small_weights, small_table, vocab, monkeypatch
    ):
        calls = count_kernel_calls(monkeypatch)
        prompt = encode("count the ways", vocab, markup=False)
        drawn = 0
        for num_paths, budget, strategy, seed, forced, sampler in session_cases():
            calls.clear()
            session = run_session(
                small_weights, small_table, vocab, prompt, num_paths, sampler,
                GenerationBudget(budget, 6), strategy, seed=seed, record_logits=True,
                forced=forced,
            )
            for path in session.paths:
                script = forced.get(path.index, [])
                body = path.tokens[1:-1]  # between the opener and the closer
                for s, token in enumerate(body, 1):
                    if s <= len(script):
                        assert token == script[s - 1]
                        continue
                    logits = path.step_logits[s - 1]
                    want = sample_token(logits, sampler, draw_rng(seed, path.think_label, s))
                    assert token == want, (num_paths, strategy, seed, path.index, s)
                    assert want == reference_sample_token(
                        logits, sampler, draw_rng(seed, path.think_label, s)
                    )
                    drawn += 1
            for s, token in enumerate(session.answer_tokens[1:], 1):
                rng = draw_rng(seed, ANSWER_STREAM, s)
                assert token == sample_token(session.answer_logits[s - 1], sampler, rng)
            assert calls == stage_tables(session, forced), (num_paths, strategy, seed)
        assert drawn > 1000

    @pytest.mark.parametrize("seed", [7, 2**64 + 3, 2**200 + 7], ids=["1w", "3w", "7w"])
    @pytest.mark.parametrize(
        "script_lengths", [{}, {0: 5, 1: 9, 2: 30}], ids=["unscripted", "scripted"]
    )
    def test_each_sampled_stage_takes_one_table(
        self, small_weights, small_table, vocab, monkeypatch, seed, script_lengths
    ):
        calls = count_kernel_calls(monkeypatch)
        rng = np.random.default_rng(seed % 2**32)
        forced = {i: [int(t) for t in rng.integers(65, 90, n)] for i, n in script_lengths.items()}
        sampler = SamplerConfig(temperature=0.9, top_p=0.95)
        session = run_session(
            small_weights, small_table, vocab, encode("one table", vocab, markup=False), 3,
            sampler, GenerationBudget(40, 24), Termination.LAST_FINISH, seed=seed,
            record_logits=True, forced=forced,
        )
        first = min(script_lengths.values(), default=0) + 1
        assert calls == [
            (seed, session.think_labels, list(range(first, 41))),
            (seed, [ANSWER_STREAM], list(range(1, 25))),
        ]
        # both stages drew past one 16-step chunk of their first draw
        assert max(len(p.tokens) - 2 for p in session.paths) >= first + 16
        assert len(session.answer_tokens) - 1 > 16
        for path in session.paths:
            for s in range(len(forced.get(path.index, [])) + 1, len(path.tokens) - 1):
                rng = draw_rng(seed, path.think_label, s)
                assert path.tokens[s] == sample_token(path.step_logits[s - 1], sampler, rng)

    def test_sampler_seed_changes_nothing(self, vocab):
        # the CLI writes sampler.seed beside the top-level seed; stored
        # configs with any value of it run the same sessions
        config = {
            "model": {"n_layers": 2, "d_model": 32, "n_heads": 2, "d_k": 16,
                      "d_ff": 64, "vocab_size": 292, "rope_base": 10000.0,
                      "max_position": 4096},
            "model_seed": 0, "table_seed": 0, "vocab": {"base_size": 256, "p_max": 16},
            "prompt": encode("same draws", vocab, markup=False),
            "paths": 4, "budget": 12, "max_answer_tokens": 5,
            "strategy": "half_finish", "seed": 21,
        }
        outputs = {
            canonical_json(run_experiment(
                "generate",
                {**config, "sampler": {"temperature": 1.1, "top_p": 0.9, "greedy": False,
                                       "seed": seed}},
            ))
            for seed in (0, 1, 2, 2**40)
        }
        assert len(outputs) == 1
        with pytest.raises(TypeError):
            SamplerConfig(temperature=1.1, seed=0)


class TestAnswerDraws:
    """An answer draws on its one stream by the reasoning stage's rule: its
    first draw, at step 1, computes one table of steps 1 .. cap, whatever
    the seed and however early the answer stops."""

    @pytest.mark.parametrize("cap", [7, 15, 16, 17, 33])
    def test_every_answer_token_is_the_per_draw_reference(
        self, small_weights, small_table, vocab, monkeypatch, cap
    ):
        calls = count_kernel_calls(monkeypatch)
        sampler = SamplerConfig(temperature=1.2, top_p=0.95)
        prompt = encode("answer me", vocab, markup=False)
        reached_cap = 0
        for seed in (0, 9, 2**40 + 1, 2**64 + 3, 2**200 + 7):
            calls.clear()
            session = run_session(
                small_weights, small_table, vocab, prompt, 2, sampler,
                GenerationBudget(3, cap), seed=seed, record_logits=True,
            )
            answer = session.answer_tokens[1:]  # after SUMMARY_OPEN
            for s, token in enumerate(answer, 1):
                logits = session.answer_logits[s - 1]
                want = sample_token(logits, sampler, draw_rng(seed, ANSWER_STREAM, s))
                assert token == want, (cap, seed, s)
                assert want == reference_sample_token(
                    logits, sampler, draw_rng(seed, ANSWER_STREAM, s)
                )
            reached_cap += len(answer) == cap
            answer_calls = [call for call in calls if call[1] == [ANSWER_STREAM]]
            assert answer_calls == [(seed, [ANSWER_STREAM], list(range(1, cap + 1)))]
        assert reached_cap, "no answer ran to its cap"


class TestRowsJoiningMidChunk:
    """Scripted paths that end after the stage's first draw start drawing
    inside its table (the stage's one chunk of uniforms, computed for every
    stream at that first draw), and each draw is still the per-draw
    reference."""

    @pytest.mark.parametrize("labels, script_lengths", [
        ([7, 2, 11, 5], {0: 3, 1: 7, 2: 10}),  # path 3 draws from step 1
        ([9, 4], {0: 5, 1: 9}),  # the table starts at step 6
        ([3, 8, 1, 6], {0: 20, 1: 4, 3: 27}),  # joins 16 or more steps in
    ])
    def test_every_draw_is_the_per_draw_reference(
        self, small_weights, small_table, vocab, monkeypatch, labels, script_lengths
    ):
        calls = count_kernel_calls(monkeypatch)
        rng = np.random.default_rng(len(labels))
        forced = {i: [int(t) for t in rng.integers(65, 90, n)] for i, n in script_lengths.items()}
        sampler = SamplerConfig(temperature=1.1, top_p=0.9)
        prompt = encode("join late", vocab, markup=False)
        for seed in (4, 2**33 + 7, 2**64 + 3):
            calls.clear()
            session = run_session(
                small_weights, small_table, vocab, prompt, len(labels), sampler,
                GenerationBudget(40, 4), Termination.LAST_FINISH, think_labels=labels,
                seed=seed, record_logits=True, forced=forced,
            )
            # one table over every path, then the answer's on its one stream
            assert calls == stage_tables(session, forced)
            table_steps = calls[0][2]
            joined_mid_table = 0
            for path in session.paths:
                script = forced.get(path.index, [])
                body = path.tokens[1:-1]
                assert body[: len(script)] == script
                for s in range(len(script) + 1, len(body) + 1):
                    logits = path.step_logits[s - 1]
                    rng_key = (seed, path.think_label, s)
                    assert body[s - 1] == sample_token(logits, sampler, draw_rng(*rng_key))
                joined = len(script) + 1
                if script and len(body) >= joined:
                    # the step it joined at lies inside the table computed before it
                    joined_mid_table += table_steps[0] < joined <= table_steps[-1]
            assert joined_mid_table
