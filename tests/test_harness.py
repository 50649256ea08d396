import numpy as np
import pytest

from parcot.engine import (
    ANSWER_STREAM,
    GenerationBudget,
    SamplerConfig,
    Termination,
    draw_rng,
    run_session,
    sample_token,
    session_record,
)
from parcot import harness
from parcot.errors import ConfigError, DataError
from parcot.harness import (
    DEFAULT_PREFIX_GRID,
    ModelBundle,
    derive_seed,
    run_budget_sweep,
    run_prefix_recovery,
    run_reprefill_baseline,
    run_termination_comparison,
    verify_experiment_dir,
    write_experiment,
)
from parcot.kvcache import PagedKVCache, SlotAddress
from parcot.model import FLAT, DecodeLayout, ModelConfig, forward_step, init_weights
from parcot.positional import init_thought_table, zero_thought_table
from parcot.tokenizer import Vocab, encode

from oracles import causal_mask, dense_logits


@pytest.fixture(scope="module")
def bundle(small_weights, small_table, vocab):
    return ModelBundle(weights=small_weights, table=small_table, vocab=vocab)


@pytest.fixture(scope="module")
def prompt(vocab):
    return encode("prove it", vocab, markup=False)


SAMPLER = SamplerConfig(temperature=0.9, seed=5)


def count_calls(monkeypatch, name):
    """Record each call of ``harness.<name>``; returns the list of calls."""
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "sweep", 8, 2, 0) == derive_seed(1, "sweep", 8, 2, 0)
        assert derive_seed(1, "sweep", 8, 2, 0) != derive_seed(1, "sweep", 8, 2, 1)


class TestBudgetSweep:
    def test_record_fields_and_budget_split(self, bundle, prompt):
        records, transcripts = run_budget_sweep(
            bundle, [prompt], budgets=[8], paths_list=[2], sampler=SAMPLER, seed=1
        )
        by_mode = {rec["mode"]: rec for rec in records}
        assert set(by_mode) == {"parallel", "majority"}
        maj = by_mode["majority"]
        assert maj["per_sample_budget"] == 4
        assert maj["body_tokens"] <= 2 * 4
        assert len(transcripts) == 3  # one parallel session + two majority samples

    def test_full_truncation_when_budget_tiny(self, bundle, prompt):
        records, _ = run_budget_sweep(
            bundle, [prompt], budgets=[2], paths_list=[2], sampler=SAMPLER,
            allocation="per-path-budget", seed=3,
        )
        parallel = next(r for r in records if r["mode"] == "parallel")
        assert parallel["truncation_rate"] == 1.0

    def test_single_path_cell_matches_direct_session(self, bundle, prompt):
        records, transcripts = run_budget_sweep(
            bundle, [prompt], budgets=[6], paths_list=[1], sampler=SAMPLER, seed=9
        )
        direct = run_session(
            bundle.weights, bundle.table, bundle.vocab, prompt, 1, SAMPLER,
            GenerationBudget(6, 8), Termination.FIRST_FINISH,
            seed=derive_seed(9, "sweep", 6, 1, 0),
        )
        parallel = next(r for r in records if r["mode"] == "parallel")
        assert parallel["L_r"] == direct.reasoning_len
        assert parallel["total_path_tokens"] == len(direct.paths[0].tokens)
        stored = next(
            t for t in transcripts if t["key"][:2] == ["sweep", "parallel"]
        )
        assert stored["record"] == session_record(direct)

    def test_split_needs_enough_budget(self, bundle, prompt):
        with pytest.raises(DataError):
            run_budget_sweep(
                bundle, [prompt], budgets=[2], paths_list=[4], sampler=SAMPLER
            )

    def test_whole_grid_checked_before_the_first_session(
        self, bundle, prompt, monkeypatch
    ):
        sessions = count_calls(monkeypatch, "run_session")
        with pytest.raises(DataError):  # the second budget cannot be split
            run_budget_sweep(
                bundle, [prompt], budgets=[8, 2], paths_list=[4], sampler=SAMPLER
            )
        assert sessions == []

    def test_only_one_worker(self, bundle, prompt, monkeypatch):
        sessions = count_calls(monkeypatch, "run_session")
        with pytest.raises(ConfigError):
            run_budget_sweep(
                bundle, [prompt], budgets=[4], paths_list=[1], sampler=SAMPLER, workers=2
            )
        assert sessions == []


class TestPrefixRecovery:
    def test_default_grid_is_the_standard_one(self):
        assert DEFAULT_PREFIX_GRID == (0, 100, 200, 400, 800, 1600)

    def test_zero_prefix_equals_unconditioned_run(self, bundle, prompt):
        trace = {"prompt": prompt, "body": [70, 71, 72, 73]}
        _, transcripts = run_prefix_recovery(
            bundle, [trace], GenerationBudget(6, 2), SAMPLER, target_token=65,
            prefix_lengths=(0,), samples=2, seed=4,
        )
        free = run_session(
            bundle.weights, bundle.table, bundle.vocab, prompt, 1, SAMPLER,
            GenerationBudget(6, 2), think_labels=[1],
            seed=derive_seed(4, "prefix", 0, 0, 0),
        )
        assert transcripts[0]["record"]["paths"][0]["tokens"] == free.paths[0].tokens

    def test_prefix_is_injected_and_positions_continue(self, bundle, prompt, vocab):
        from parcot.engine import GenerationSession, run_reasoning

        body = [70, 71, 72, 73]
        session = GenerationSession(
            bundle.weights, bundle.table, bundle.vocab, prompt, 1,
            think_labels=[1], seed=0,
        )
        run_reasoning(
            session, SAMPLER, GenerationBudget(7), Termination.FIRST_FINISH,
            forced={0: body[:3]},
        )
        tokens = session.paths[0].tokens
        assert tokens[0] == vocab.think_open(1)
        assert tokens[1:4] == body[:3]
        # path 0's keys are the dense reference's at positions l_x + t + 1
        l_x = len(prompt)
        _, k_ref, _ = dense_logits(
            bundle.weights, bundle.table, list(prompt) + tokens,
            list(range(1, l_x + 1)) + [l_x + t + 1 for t in range(len(tokens))],
            [0] * l_x + [1] * len(tokens), causal_mask(l_x + len(tokens)), return_kv=True,
        )
        path = session.cache.tables["path:0"]
        assert path.filled == len(tokens)
        for li in range(bundle.weights.config.n_layers):
            assert np.max(np.abs(path.keys(li) - k_ref[li, l_x:])) <= 1e-5

    def test_success_rate_counts_target(self, bundle, prompt):
        trace = {"prompt": prompt, "body": [70, 71, 72, 73]}
        records, transcripts = run_prefix_recovery(
            bundle, [trace], GenerationBudget(6, 2), SAMPLER, target_token=70,
            prefix_lengths=(0, 2), samples=3, seed=8,
        )
        for rec in records:
            hits = 0
            for t in transcripts:
                if t["key"][:3] == ["prefix", 0, rec["prefix_length"]]:
                    continuation = t["record"]["paths"][0]["tokens"][1 + rec["prefix_length"]:]
                    hits += 70 in continuation
            assert rec["success_rate"] == hits / rec["samples"]

    def test_prefix_longer_than_trace_rejected(self, bundle, prompt):
        trace = {"prompt": prompt, "body": [70]}
        with pytest.raises(DataError):
            run_prefix_recovery(
                bundle, [trace], GenerationBudget(8, 2), SAMPLER, target_token=1,
                prefix_lengths=(4,), samples=1,
            )

    def test_prefix_must_leave_budget(self, bundle, prompt):
        trace = {"prompt": prompt, "body": [70, 71, 72, 73]}
        with pytest.raises(DataError):
            run_prefix_recovery(
                bundle, [trace], GenerationBudget(3, 2), SAMPLER, target_token=1,
                prefix_lengths=(3,), samples=1,
            )

    @pytest.mark.parametrize("bodies, budget", [
        ([[70, 71, 72], [70]], 8),  # the second trace is too short for prefix 2
        ([[70, 71, 72, 73, 74]], 4),  # prefix 4 leaves no budget
    ])
    def test_whole_grid_checked_before_the_first_session(
        self, bundle, prompt, monkeypatch, bodies, budget
    ):
        sessions = count_calls(monkeypatch, "GenerationSession")
        traces = [{"prompt": prompt, "body": body} for body in bodies]
        with pytest.raises(DataError):
            run_prefix_recovery(
                bundle, traces, GenerationBudget(budget, 2), SAMPLER, target_token=1,
                prefix_lengths=(0, 2, 4) if budget == 4 else (0, 2), samples=1,
            )
        assert sessions == []


class TestTerminationComparison:
    def test_stop_step_ordering_under_shared_seeds(self, bundle, prompt):
        records, _ = run_termination_comparison(
            bundle, [prompt],
            ["first_finish", "half_finish", "last_finish"],
            SamplerConfig(temperature=1.2, seed=0), GenerationBudget(24, 2),
            num_paths=4, seed=11,
        )
        by_strategy = {rec["strategy"]: rec for rec in records}
        assert (
            by_strategy["first_finish"]["L_r"]
            <= by_strategy["half_finish"]["L_r"]
            <= by_strategy["last_finish"]["L_r"]
        )

    def test_first_finish_matches_engine_default(self, bundle, prompt):
        records, _ = run_termination_comparison(
            bundle, [prompt], ["first_finish"], SAMPLER, GenerationBudget(6, 2),
            num_paths=3, seed=7,
        )
        session = run_session(
            bundle.weights, bundle.table, bundle.vocab, prompt, 3, SAMPLER,
            GenerationBudget(6, 2), seed=derive_seed(7, "terminate", 0),
        )
        assert records[0]["L_r"] == session.reasoning_len
        assert records[0]["total_path_tokens"] == sum(
            len(p.tokens) for p in session.paths
        )

    def test_token_totals_recount_from_transcripts(self, bundle, prompt):
        records, transcripts = run_termination_comparison(
            bundle, [prompt],
            ["first_finish", "half_finish", "last_finish"],
            SamplerConfig(temperature=1.2, seed=0), GenerationBudget(20, 2),
            num_paths=4, seed=13,
        )
        for rec, t in zip(records, transcripts):
            lengths = [len(p["tokens"]) for p in t["record"]["paths"]]
            assert rec["total_path_tokens"] == sum(lengths)
            if rec["strategy"] == "first_finish":
                assert rec["total_path_tokens"] == 4 * rec["L_r"]


def per_token_reprefill(bundle, session, sampler):
    """The re-prefill baseline fed one forward_step per slot: the
    teacher-forced logit divergence and the baseline's own answer."""
    cfg = bundle.weights.config
    zero = bundle.with_zero_table().table
    l_max = session.budget.max_path_tokens + 2
    tokens = list(session.prompt_tokens)
    positions = list(range(1, session.l_x + 1))
    for i, path in enumerate(session.paths):
        tokens += path.tokens
        positions += [session.l_x + i * l_max + t for t in range(1, len(path.tokens) + 1)]
    base = session.l_x + (session.num_paths - 1) * l_max + session.reasoning_len
    answer_positions = [base + t for t in range(1, session.budget.max_answer_tokens + 2)]
    layout = DecodeLayout(stage=FLAT, flat_positions=tuple(positions + answer_positions))

    def feed(fed):
        cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        cache.reserve("seq", len(layout.flat_positions))
        logits = [
            forward_step(bundle.weights, zero, cache, layout, token, SlotAddress("seq", t))
            for t, token in enumerate(fed)
        ]
        return cache, logits

    _, logits = feed(tokens + session.answer_tokens)
    divergence = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(logits[len(tokens):], session.answer_logits)
    )
    vocab = bundle.vocab
    answer = [vocab.summary_open]
    cache, logits = feed(tokens + answer)
    logits = logits[-1]
    for step in range(1, session.budget.max_answer_tokens + 1):
        token = sample_token(logits, sampler, draw_rng(session.seed, ANSWER_STREAM, step))
        answer.append(token)
        logits = forward_step(
            bundle.weights, zero, cache, layout, token,
            SlotAddress("seq", len(tokens) + step),
        )
        if token in (vocab.summary_close, vocab.eos):
            break
    return divergence, answer


class TestReprefillBaseline:
    @pytest.mark.parametrize("paths, budget, seed", [(3, 5, 6), (4, 12, 11), (2, 30, 17)])
    def test_matches_per_token_feed(self, bundle, prompt, paths, budget, seed):
        session = run_session(
            bundle.weights, bundle.table, bundle.vocab, prompt, paths, SAMPLER,
            GenerationBudget(budget, 6), seed=seed, record_logits=True,
        )
        record = run_reprefill_baseline(bundle, session, SAMPLER)
        divergence, answer = per_token_reprefill(bundle, session, SAMPLER)
        assert abs(record["logit_divergence"] - divergence) <= 1e-5
        assert record["own_answer"] == answer

    def test_single_path_degeneracy_without_thought_embeddings(
        self, small_weights, vocab, prompt
    ):
        cfg = small_weights.config
        zero = zero_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k)
        bundle = ModelBundle(weights=small_weights, table=zero, vocab=vocab)
        session = run_session(
            small_weights, zero, vocab, prompt, 1, SamplerConfig(greedy=True),
            GenerationBudget(5, 4), seed=3, record_logits=True,
        )
        record = run_reprefill_baseline(bundle, session, SamplerConfig(greedy=True))
        assert record["logit_divergence"] <= 1e-5
        assert record["own_answer"] == session.answer_tokens

    def test_position_and_token_accounting(self, bundle, prompt):
        session = run_session(
            bundle.weights, bundle.table, bundle.vocab, prompt, 3, SAMPLER,
            GenerationBudget(5, 3), seed=6, record_logits=True,
        )
        record = run_reprefill_baseline(bundle, session, SAMPLER)
        l_x = session.l_x
        l_max = 5 + 2
        assert record["prefill_tokens"] == l_x + sum(
            len(p.tokens) for p in session.paths
        )
        assert record["max_path_position"] == l_x + 2 * l_max + session.reasoning_len
        assert record["overflow"] is False
        assert record["logit_divergence"] > 0  # different scheme and masking

    def test_overflow_recorded_not_raised(self, vocab, prompt):
        cfg = ModelConfig(
            n_layers=1, d_model=32, n_heads=2, d_k=16, d_ff=64, vocab_size=292,
            max_position=40,
        )
        weights = init_weights(cfg, seed=5)
        table = zero_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k)
        bundle = ModelBundle(weights=weights, table=table, vocab=vocab)
        session = run_session(
            weights, table, vocab, prompt, 3, SAMPLER, GenerationBudget(8, 2), seed=1
        )
        record = run_reprefill_baseline(bundle, session, SAMPLER)
        assert record["overflow"] is True
        assert record["own_answer"] is None

    @pytest.mark.parametrize("seed", [0, 3])
    def test_own_answer_budget_overflow_recorded_not_raised(self, seed):
        # the session's answer stops early, so its own positions fit, but the
        # baseline's own-answer decode may fill the whole 40-token budget
        vocab = Vocab(256, 4)
        cfg = ModelConfig(
            n_layers=1, d_model=16, n_heads=2, d_k=8, d_ff=16, vocab_size=vocab.size,
            max_position=60,
        )
        weights = init_weights(cfg, seed=1)
        table = init_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k, seed=2)
        sampler = SamplerConfig(temperature=3.0, seed=3)
        session = run_session(
            weights, table, vocab, [1, 2, 3], 2, sampler, GenerationBudget(8, 40), seed=seed
        )
        assert len(session.answer_tokens) < 41
        record = run_reprefill_baseline(ModelBundle(weights, table, vocab), session, sampler)
        # the own-answer decode's last slot: SUMMARY_OPEN plus 40 samples
        # after the prompt, one full path stride and the last path
        path_stride = session.budget.max_path_tokens + 2
        own_last = len(session.prompt_tokens) + path_stride + session.reasoning_len + 41
        assert record["max_position_used"] == own_last > cfg.max_position
        assert record["overflow"] is True
        assert record["overflow"] == (record["max_position_used"] > cfg.max_position)
        assert record["own_answer"] is None


class TestVerification:
    def sweep_config(self, prompt):
        return {
            "model": {
                "n_layers": 2, "d_model": 32, "n_heads": 2, "d_k": 16,
                "d_ff": 64, "vocab_size": 292,
            },
            "model_seed": 3,
            "table_seed": 4,
            "vocab": {"base_size": 256, "p_max": 16},
            "sampler": {"temperature": 0.9, "seed": 5},
            "seed": 1,
            "prompts": [prompt],
            "budgets": [4],
            "paths": [2],
            "max_answer_tokens": 3,
        }

    def test_round_trip_verifies(self, tmp_path, prompt):
        from parcot.harness import run_experiment

        config = self.sweep_config(prompt)
        records, transcripts = run_experiment("sweep", config)
        out = str(tmp_path / "exp")
        write_experiment(out, "sweep", config, records, transcripts)
        assert verify_experiment_dir(out) == []

    def test_tampered_transcripts_detected(self, tmp_path, prompt):
        from parcot.harness import run_experiment

        config = self.sweep_config(prompt)
        records, transcripts = run_experiment("sweep", config)
        out = tmp_path / "exp"
        write_experiment(str(out), "sweep", config, records, transcripts)
        path = out / "transcripts.jsonl"
        path.write_text(path.read_text().replace('"L_r":', '"L_x":', 1))
        problems = verify_experiment_dir(str(out))
        assert any("transcripts" in p for p in problems)

    def test_tampered_csv_detected(self, tmp_path, prompt):
        from parcot.harness import run_experiment

        config = self.sweep_config(prompt)
        records, transcripts = run_experiment("sweep", config)
        out = tmp_path / "exp"
        write_experiment(str(out), "sweep", config, records, transcripts)
        path = out / "records.csv"
        text = path.read_text().splitlines()
        text[1] = text[1].replace("parallel", "parallel2", 1)
        path.write_text("\n".join(text) + "\n")
        problems = verify_experiment_dir(str(out))
        assert any("records.csv" in p for p in problems)
