"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

import numpy as np

from parcot.costmodel import load_profile, params_from_profile, predict_step_time
from parcot.datagen import (
    MAX_CONTEXT_TOKENS,
    RawProblem,
    build_sample,
    parse_sample,
    training_layout,
)
from parcot.engine import (
    GenerationBudget,
    GenerationSession,
    SamplerConfig,
    Termination,
    majority_vote,
    pass_at_1,
    run_reasoning,
    run_session,
    run_summarization,
)
from parcot.harness import run_experiment, transcripts_text, verify_experiment_dir, write_experiment
from parcot.kvcache import PagedKVCache, SlotAddress
from parcot.masking import LayoutPlan, build_reasoning_mask, build_summary_mask
from parcot.model import ModelConfig, StagePlan, forward_step, init_weights, prefill
from parcot.positional import (
    ANSWER,
    FLATTENED,
    PROMPT,
    SHARED,
    PositionAssignment,
    Rope,
    init_thought_table,
    path_key,
)
from parcot.tokenizer import encode

from oracles import (
    brute_reasoning_mask,
    brute_summary_mask,
    dense_logits,
    rope_matrix,
    serialized_view,
)

GREEDY = SamplerConfig(greedy=True)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} FAIL  {description}")
        raise
    print(f"[acceptance] {number:02d} PASS  {description}")


def test_criterion_01_path_isolation(vocab):
    with criterion(1, "path isolation: P=4 greedy paths replay identically, logits <= 1e-5"):
        started = time.perf_counter()
        config = ModelConfig(
            n_layers=2, d_model=64, n_heads=4, d_k=16, d_ff=256,
            vocab_size=256 + 36,
        )
        weights = init_weights(config, seed=101)
        table = init_thought_table(
            vocab.p_max, config.n_layers, config.n_heads, config.d_k, seed=102
        )
        prompt = encode("how many primes below forty?", vocab, markup=False)
        budget = GenerationBudget(32, 4)
        multi = run_session(
            weights, table, vocab, prompt, 4, GREEDY, budget, seed=7,
            record_logits=True,
        )
        worst = 0.0
        for path in multi.paths:
            solo = run_session(
                weights, table, vocab, prompt, 1, GREEDY, budget,
                think_labels=[path.think_label], seed=7, record_logits=True,
            )
            assert solo.paths[0].tokens == path.tokens
            assert len(solo.paths[0].step_logits) == len(path.step_logits)
            for a, b in zip(path.step_logits, solo.paths[0].step_logits):
                worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-5, worst
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, elapsed


def test_criterion_02_zero_reprefill_equivalence(small_weights, small_table, vocab):
    with criterion(2, "zero-re-prefill: view logits == recompute within 1e-5, storage reused"):
        rng = np.random.default_rng(200)
        for trial in range(20):
            num_paths = int(rng.integers(2, 4))
            body_budget = int(rng.integers(4, 8))
            prompt = [int(t) for t in rng.integers(0, 256, size=int(rng.integers(2, 6)))]
            _zero_reprefill_trial(
                small_weights, small_table, vocab, prompt, num_paths, 300 + trial,
                GenerationBudget(body_budget, 4), Termination.FIRST_FINISH, None,
            )
        # half and last finish, under scripts that end paths on different
        # steps: the answer reads paths of unequal length, whose closers
        # rode the other paths' passes
        rng = np.random.default_rng(201)
        uneven = 0
        for trial in range(16):
            strategy = (Termination.HALF_FINISH, Termination.LAST_FINISH)[trial % 2]
            num_paths = int(rng.integers(2, 5))
            body_budget = int(rng.integers(4, 9))
            prompt = [int(t) for t in rng.integers(0, 256, size=int(rng.integers(2, 6)))]
            forced = {}
            for i in range(num_paths):
                # a body of filler bytes up to step `at`: EOS there, or
                # sampling from there on
                at = int(rng.integers(1, body_budget + 1))
                forced[i] = [int(t) for t in rng.integers(0, 256, size=at)]
                if rng.random() < 0.7:
                    forced[i][-1] = vocab.eos
            lengths = _zero_reprefill_trial(
                small_weights, small_table, vocab, prompt, num_paths, 400 + trial,
                GenerationBudget(body_budget, 4), strategy, forced,
            )
            uneven += len(set(lengths)) > 1
        assert uneven > 0


def _zero_reprefill_trial(weights, table, vocab, prompt, num_paths, seed, budget, strategy, forced):
    """One session's answer over the reused caches against a recompute of
    every slot in a fresh cache, each path replayed one token at a time at
    its own length; returns the written path lengths."""
    cfg = weights.config
    sampler = SamplerConfig(temperature=0.9)
    session = GenerationSession(
        weights, table, vocab, prompt, num_paths, seed=seed, record_logits=True,
    )
    run_reasoning(session, sampler, budget, strategy, forced)
    reasoning_storage = {PROMPT: session.cache.tables[PROMPT].slab}
    context = [PROMPT] + [path_key(i) for i in range(num_paths)]
    for seg in context[1:]:
        reasoning_storage[seg] = session.cache.paths
    hashes = {seg: session.cache.tables[seg].content_hash() for seg in context}
    path_fill = {
        path_key(i): session.cache.length(path_key(i))
        for i in range(num_paths)
    }
    run_summarization(session, sampler)

    # zero-copy: the view's prompt/path entries are the reasoning
    # storage itself, and nothing in it changed during summarization
    assert session.summary_view.segments() == context + [ANSWER]
    for seg, entry in session.summary_view.entries:
        if seg == ANSWER:
            continue
        storage = reasoning_storage[seg]
        assert entry is session.cache.tables[seg] and entry.slab is storage
        for layer in range(cfg.n_layers):
            assert np.shares_memory(entry.keys(layer), storage.k)
            assert np.shares_memory(entry.values(layer), storage.v)
        assert entry.content_hash() == hashes[seg]
    for seg, want in path_fill.items():
        assert session.cache.length(seg) == want

    # full recompute: fresh cache, same tokens/positions/thought rows
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    cache.reserve(PROMPT, len(prompt))
    cache.reserve_paths(num_paths, budget.max_path_tokens + 2)
    cache.reserve(ANSWER, len(session.answer_tokens))
    prefill(weights, table, cache, prompt)
    l_max = budget.max_path_tokens + 2
    shared = PositionAssignment(
        SHARED, l_x=len(prompt), l_max=l_max, reasoning_len=session.reasoning_len
    )
    owners = [path_key(i) for i in range(num_paths)]
    replay = StagePlan(
        cache, owners, session.think_labels, shared.positions(path_key(0), 0, l_max)
    )
    for path in session.paths:
        for t0, token in enumerate(path.tokens):
            forward_step(
                weights, table, replay, token, SlotAddress(path_key(path.index), t0),
            )
    answer = StagePlan(
        cache, [ANSWER], [0], shared.positions(ANSWER, 0, len(session.answer_tokens))
    )
    for k, token in enumerate(session.answer_tokens):
        logits = forward_step(weights, table, answer, token, SlotAddress(ANSWER, k))
        diff = float(np.max(np.abs(logits - session.answer_logits[k])))
        assert diff <= 1e-5, (seed, k, diff)
    # and against a float64 pass over the serialized sequence under the dense
    # mask, which reads each path to its own length with no cache at all
    tokens, positions, thoughts, visible = serialized_view(session)
    full = dense_logits(weights, table, tokens, positions, thoughts, visible)
    answer_rows = full[len(tokens) - len(session.answer_tokens):]
    diff = float(np.max(np.abs(answer_rows - np.array(session.answer_logits))))
    assert diff <= 1e-5, (seed, diff)
    return [len(p.tokens) for p in session.paths]


def test_criterion_03_rope_and_score_algebra():
    with criterion(3, "rotary algebra: additivity and score split within 1e-6 over 1000 trials"):
        rope = Rope(d_k=16, base=10000.0)
        rng = np.random.default_rng(400)
        for _ in range(1000):
            m, n = (int(v) for v in rng.integers(0, 4096, size=2))
            lhs = rope_matrix(rope, n).T @ rope_matrix(rope, m)
            rhs = rope_matrix(rope, m - n)
            assert np.max(np.abs(lhs - rhs)) <= 1e-6
        for _ in range(1000):
            q = rng.standard_normal(16)
            k = rng.standard_normal(16)
            thought = rng.standard_normal(16)
            m, n = (int(v) for v in rng.integers(0, 4096, size=2))
            full = (rope_matrix(rope, n) @ q) @ (rope_matrix(rope, m) @ (k + thought))
            cc = q @ (rope_matrix(rope, m - n) @ k)
            cs = q @ (rope_matrix(rope, m - n) @ thought)
            assert abs(full - (cc + cs)) <= 1e-6


def test_criterion_04_mask_oracle_exhaustive():
    with criterion(4, "mask oracle: exhaustive equality on layouts up to 24 slots, P <= 4"):
        reasoning_checked = summary_checked = 0
        for l_x in range(1, 4):
            for num_paths in range(1, 5):
                for path_len in range(1, 6):
                    for answer_len in range(0, 4):
                        lengths = (path_len,) * num_paths
                        total = l_x + sum(lengths) + answer_len
                        if total > 24:
                            continue
                        plan = LayoutPlan(l_x, lengths, answer_len)
                        for i in range(num_paths):
                            built = build_reasoning_mask(plan, i).visible
                            brute = brute_reasoning_mask(l_x, lengths, answer_len, i)
                            assert np.array_equal(built, brute)
                            reasoning_checked += 1
                        if answer_len >= 1:
                            built = build_summary_mask(plan).visible
                            brute = brute_summary_mask(l_x, lengths, answer_len)
                            assert np.array_equal(built, brute)
                            summary_checked += 1
        assert reasoning_checked >= 400 and summary_checked >= 100


def _scripted(vocab, finish_steps, horizon):
    forced = {}
    for i, at in enumerate(finish_steps):
        body = [65 + i] * horizon
        if at is not None:
            body[at - 1] = vocab.eos
        forced[i] = body
    return forced


def test_criterion_05_termination_semantics(small_weights, small_table, vocab):
    with criterion(5, "termination: scripted first/half/last schedules, ceil(P/2), uniform first-finish"):
        prompt = encode("go", vocab, markup=False)

        def fresh(num_paths):
            return GenerationSession(
                small_weights, small_table, vocab, prompt, num_paths, seed=0
            )

        session = fresh(3)
        run_reasoning(session, GREEDY, GenerationBudget(12),
                      Termination.FIRST_FINISH, _scripted(vocab, [5, 9, 7], 12))
        assert [len(p.tokens) for p in session.paths] == [7, 7, 7]
        assert session.paths[0].finish_cause == "eos"

        session = fresh(4)
        run_reasoning(session, GREEDY, GenerationBudget(14),
                      Termination.HALF_FINISH, _scripted(vocab, [5, 9, 7, 12], 14))
        assert [len(p.tokens) for p in session.paths] == [7, 9, 9, 9]

        assert Termination.HALF_FINISH.threshold(3) == 2
        session = fresh(3)
        run_reasoning(session, GREEDY, GenerationBudget(12),
                      Termination.HALF_FINISH, _scripted(vocab, [4, 9, 6], 12))
        assert [len(p.tokens) for p in session.paths] == [6, 8, 8]

        session = fresh(3)
        run_reasoning(session, GREEDY, GenerationBudget(12),
                      Termination.LAST_FINISH, _scripted(vocab, [4, 9, 6], 12))
        assert [len(p.tokens) for p in session.paths] == [6, 11, 8]
        assert session.reasoning_len == 11

        session = fresh(3)
        run_reasoning(session, GREEDY, GenerationBudget(6),
                      Termination.FIRST_FINISH, _scripted(vocab, [None] * 3, 6))
        assert {p.finish_cause for p in session.paths} == {"budget"}
        assert {p.body_length() for p in session.paths} == {6}

        for seed in range(8):
            session = GenerationSession(
                small_weights, small_table, vocab, prompt, 4, seed=seed
            )
            run_reasoning(
                session, SamplerConfig(temperature=1.1),
                GenerationBudget(9), Termination.FIRST_FINISH,
            )
            assert len({len(p.tokens) for p in session.paths}) == 1


def test_criterion_06_datagen_conformance(vocab):
    with criterion(6, "datagen: 500 samples respect the grammar, round trip, context limit; P uniform"):
        rng = np.random.default_rng(600)
        for case in range(500):
            num_candidates = int(rng.integers(2, 8))
            problem = RawProblem(
                query=f"question {case}",
                answer=f"answer {case}",
                paths=tuple(
                    f"reasoning {case}.{i} " + "t" * int(rng.integers(1, 30))
                    for i in range(num_candidates)
                ),
            )
            p_hat = int(rng.choice([2, 4, 6]))
            if p_hat > num_candidates:
                p_hat = num_candidates
            sample = build_sample(problem, vocab, p_hat=p_hat, seed=case)
            parsed = parse_sample(sample.tokens, vocab)
            assert len(parsed.paths) == p_hat
            labels = [label for label, _ in parsed.paths]
            assert len(set(labels)) == p_hat
            layout = training_layout(sample, vocab)
            assert len(layout.tokens) <= MAX_CONTEXT_TOKENS

        counts = {2: 0, 4: 0, 6: 0}
        base = RawProblem(
            query="q", answer="a", paths=tuple(f"r{i}" for i in range(6))
        )
        trials = 3000
        for seed in range(trials):
            counts[build_sample(base, vocab, seed=seed).p_hat] += 1
        sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
        for value, count in counts.items():
            assert abs(count - trials / 3) <= 3 * sigma, (value, count)


def test_criterion_07_cost_model():
    with criterion(7, "cost model: documented profile keeps T(16)/T(1) < 2 at 1K/4K/16K; monotone"):
        profile = load_profile()
        for length in (1024, 4096, 16384):
            one = predict_step_time(params_from_profile(profile, 1, length))
            sixteen = predict_step_time(params_from_profile(profile, 16, length))
            assert sixteen / one < 2.0, (length, sixteen / one)

        base = params_from_profile(profile, 4, 4096)
        base_time = predict_step_time(base)
        from dataclasses import replace

        for field in (
            "paths",
            "tokens_per_path",
            "bytes_per_weight_pass",
            "kv_bytes_per_token_per_slot",
            "flops_per_token",
        ):
            grown = replace(base, **{field: getattr(base, field) * 2})
            assert predict_step_time(grown) >= base_time, field


def test_criterion_08_position_growth_contrast():
    with criterion(8, "positions: flattened max grows linearly in P, shared max is P-independent"):
        l_x, l_max, reasoning_len, answer_len = 6, 20, 14, 5
        flattened = []
        shared = []
        for num_paths in (1, 2, 4, 8):
            flat = PositionAssignment(
                FLATTENED, l_x=l_x, l_max=l_max, num_paths=num_paths,
                reasoning_len=reasoning_len,
            )
            last_path = path_key(num_paths - 1)
            flat_max = int(flat.positions(last_path, 0, reasoning_len)[-1])
            assert flat_max == l_x + (num_paths - 1) * l_max + reasoning_len
            flattened.append(flat_max)
            shr = PositionAssignment(
                SHARED, l_x=l_x, l_max=l_max, num_paths=num_paths,
                reasoning_len=reasoning_len,
            )
            assert shr.positions(last_path, 0, reasoning_len)[-1] == l_x + reasoning_len
            shared.append(int(shr.positions(ANSWER, answer_len - 1, 1)[0]))
        steps = np.diff(flattened)
        assert steps.tolist() == [l_max * 1, l_max * 2, l_max * 4]
        assert set(shared) == {l_x + reasoning_len + answer_len}


def test_criterion_09_eval_utilities():
    with criterion(9, "evaluation: pass@1 formula, majority against counting oracle, tie-break"):
        assert pass_at_1([1, 0, 1, 1], 4) == 0.75
        rng = np.random.default_rng(900)
        for _ in range(1000):
            answers = [int(a) for a in rng.integers(0, 5, size=int(rng.integers(1, 20)))]
            counts = {}
            for a in answers:
                counts[a] = counts.get(a, 0) + 1
            best = max(counts.values())
            oracle = min((a for a in counts if counts[a] == best), key=answers.index)
            assert majority_vote(answers) == oracle
        # maj@2 with a 1-1 split keeps the earlier sample
        assert majority_vote([5, 9]) == 5
        assert majority_vote([9, 5]) == 9


def test_criterion_10_experiment_determinism(tmp_path):
    with criterion(10, "determinism: experiments rerun byte-identically from config + seed"):
        config = {
            "model": {
                "n_layers": 2, "d_model": 32, "n_heads": 2, "d_k": 16,
                "d_ff": 64, "vocab_size": 292, "rope_base": 10000.0, "max_position": 4096,
            },
            "model_seed": 3,
            "table_seed": 4,
            "vocab": {"base_size": 256, "p_max": 16},
            "sampler": {"temperature": 0.8, "top_p": 1.0, "greedy": False, "seed": 17},
            "seed": 17,
            "prompts": [[104, 105, 106]],
            "budgets": [5],
            "paths": [2],
            "strategy": "first_finish",
            "allocation": "total-budget-split",
            "max_answer_tokens": 3,
        }
        first = run_experiment("sweep", config)
        second = run_experiment("sweep", config)
        assert transcripts_text(first[1]) == transcripts_text(second[1])
        assert first[0] == second[0]

        out = str(tmp_path / "exp")
        write_experiment(out, "sweep", config, *first)
        assert verify_experiment_dir(out) == []
