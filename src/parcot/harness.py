"""Experiment runner: budget sweeps, prefix-continuation studies,
termination comparisons, the re-prefill baseline, and the cost model.

Every experiment is a pure function of (config, seed): per-session seeds
are derived by hashing the experiment key, records carry the config hash,
and ``verify_experiment_dir`` re-runs an experiment from its stored
config and byte-compares the regenerated outputs.  Each experiment
checks its whole grid before its first session runs.
"""

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from .costmodel import (
    load_profile,
    params_from_profile,
    predict_decode_time,
    predict_step_time,
)
from .engine import (
    ANSWER_STREAM,
    GenerationBudget,
    GenerationSession,
    SamplerConfig,
    Termination,
    draw_rng,
    canonical_json,
    majority_vote,
    run_reasoning,
    run_session,
    sample_token,
    session_record,
)
from .errors import ConfigError, DataError, LifecycleError
from .kvcache import PagedKVCache, SlotAddress
from .model import (
    FLAT,
    SUMMARIZATION,
    DecodeLayout,
    ModelConfig,
    forward_causal,
    init_weights,
    load_weights,
)
from .positional import (
    ANSWER,
    FLATTENED,
    PROMPT,
    PositionAssignment,
    ThoughtEmbeddingTable,
    init_thought_table,
    load_thought_table,
    path_key,
    zero_thought_table,
)
from .tokenizer import Vocab

DEFAULT_PREFIX_GRID = (0, 100, 200, 400, 800, 1600)

FLAT_SEGMENT = "seq"


@dataclass
class ModelBundle:
    weights: object
    table: ThoughtEmbeddingTable
    vocab: Vocab

    def with_zero_table(self) -> "ModelBundle":
        rows, n_layers, n_heads, d_k = self.table.vectors.shape
        return ModelBundle(
            weights=self.weights,
            table=zero_thought_table(rows - 1, n_layers, n_heads, d_k),
            vocab=self.vocab,
        )


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from any JSON-serializable key."""
    digest = hashlib.sha256(canonical_json(list(parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


# ---------------------------------------------------------------------------
# budget sweep
# ---------------------------------------------------------------------------

def run_budget_sweep(
    bundle: ModelBundle,
    prompts: list[list[int]],
    budgets: list[int],
    paths_list: list[int],
    sampler: SamplerConfig,
    strategy: Termination = Termination.FIRST_FINISH,
    allocation: str = "total-budget-split",
    max_answer_tokens: int = 8,
    seed: int = 0,
    workers: int = 1,
) -> tuple[list[dict], list[dict]]:
    """Parallel sessions plus majority baselines for each (budget, paths).

    Under the "total-budget-split" allocation the majority baseline gives
    each of its P independent samples B // P body tokens, so its total
    spend stays within the shared budget B; "per-path-budget" gives every
    sample the full B.

    Sessions run one after another: a thread pool made sweeps slower,
    because decoding is Python dispatch that holds the GIL.  ``workers``
    stays as a keyword for callers that pass 1, the only value accepted.
    """
    if workers != 1:
        raise ConfigError(f"sweeps run serially; workers must be 1, got {workers}")
    if allocation not in ("total-budget-split", "per-path-budget"):
        raise DataError(f"unknown allocation policy {allocation!r}")
    if allocation == "total-budget-split":
        for budget_tokens in budgets:
            for num_paths in paths_list:
                if budget_tokens < num_paths:
                    raise DataError(
                        f"budget {budget_tokens} cannot be split across {num_paths} samples"
                    )
    records: list[dict] = []
    transcripts: list[dict] = []

    def one_cell(budget_tokens: int, num_paths: int, pi: int, prompt: list[int]):
        sess_seed = derive_seed(seed, "sweep", budget_tokens, num_paths, pi)
        session = run_session(
            bundle.weights,
            bundle.table,
            bundle.vocab,
            prompt,
            num_paths,
            sampler,
            GenerationBudget(budget_tokens, max_answer_tokens),
            strategy,
            seed=sess_seed,
        )
        records.append(_sweep_record("parallel", budget_tokens, num_paths, pi, [session]))
        transcripts.append(
            {"key": ["sweep", "parallel", budget_tokens, num_paths, pi],
             "record": session_record(session)}
        )

        if allocation == "total-budget-split":
            per_sample = budget_tokens // num_paths
        else:
            per_sample = budget_tokens
        maj_sessions = []
        for s in range(num_paths):
            maj_seed = derive_seed(seed, "sweep-maj", budget_tokens, num_paths, pi, s)
            maj_sessions.append(
                run_session(
                    bundle.weights,
                    bundle.table,
                    bundle.vocab,
                    prompt,
                    1,
                    sampler,
                    GenerationBudget(per_sample, max_answer_tokens),
                    Termination.FIRST_FINISH,
                    seed=maj_seed,
                )
            )
        rec = _sweep_record("majority", budget_tokens, num_paths, pi, maj_sessions)
        rec["per_sample_budget"] = per_sample
        rec["majority_answer_len"] = len(
            majority_vote([tuple(s.answer_tokens) for s in maj_sessions])
        )
        records.append(rec)
        for s, ms in enumerate(maj_sessions):
            transcripts.append(
                {"key": ["sweep", "majority", budget_tokens, num_paths, pi, s],
                 "record": session_record(ms)}
            )

    for budget_tokens in budgets:
        for num_paths in paths_list:
            for pi, prompt in enumerate(prompts):
                one_cell(budget_tokens, num_paths, pi, prompt)
    return records, transcripts


def _sweep_record(mode, budget_tokens, num_paths, prompt_index, sessions) -> dict:
    paths = [p for s in sessions for p in s.paths]
    truncated = sum(1 for p in paths if p.finish_cause == "budget")
    return {
        "mode": mode,
        "budget": budget_tokens,
        "paths": num_paths,
        "prompt_index": prompt_index,
        "L_r": max(s.reasoning_len for s in sessions),
        "total_path_tokens": sum(len(p.tokens) for p in paths),
        "body_tokens": sum(p.body_length() for p in paths),
        "truncation_rate": truncated / len(paths),
        "answer_tokens": sum(len(s.answer_tokens) for s in sessions),
    }


# ---------------------------------------------------------------------------
# erroneous-prefix continuation
# ---------------------------------------------------------------------------

def run_prefix_recovery(
    bundle: ModelBundle,
    traces: list[dict],
    budget: GenerationBudget,
    sampler: SamplerConfig,
    target_token: int,
    prefix_lengths=DEFAULT_PREFIX_GRID,
    samples: int = 16,
    seed: int = 0,
) -> tuple[list[dict], list[dict]]:
    """Continue single-path decoding from forced trace prefixes.

    Each trace is {"prompt": [...ids], "body": [...ids]} taken from a
    failed run.  For each prefix length n, the first n body tokens are
    injected as the path's leading tokens and decoding continues normally;
    a sample "recovers" when ``target_token`` shows up among the freshly
    sampled tokens.
    """
    for ti, trace in enumerate(traces):
        for n in prefix_lengths:
            if n > len(trace["body"]):
                raise DataError(
                    f"trace {ti} has {len(trace['body'])} tokens, cannot take prefix {n}"
                )
            if n >= budget.max_path_tokens:
                raise DataError(
                    f"prefix {n} leaves no budget (B={budget.max_path_tokens})"
                )
    records: list[dict] = []
    transcripts: list[dict] = []
    for ti, trace in enumerate(traces):
        prompt = trace["prompt"]
        body = trace["body"]
        for n in prefix_lengths:
            successes = 0
            for s in range(samples):
                sess_seed = derive_seed(seed, "prefix", ti, n, s)
                session = GenerationSession(
                    bundle.weights,
                    bundle.table,
                    bundle.vocab,
                    prompt,
                    1,
                    think_labels=[1],
                    seed=sess_seed,
                )
                run_reasoning(
                    session,
                    sampler,
                    budget,
                    Termination.FIRST_FINISH,
                    forced={0: list(body[:n])},
                )
                continuation = session.paths[0].tokens[1 + n :]
                if target_token in continuation:
                    successes += 1
                transcripts.append(
                    {"key": ["prefix", ti, n, s], "record": session_record(session)}
                )
            records.append(
                {
                    "trace": ti,
                    "prefix_length": n,
                    "samples": samples,
                    "success_rate": successes / samples,
                }
            )
    return records, transcripts


# ---------------------------------------------------------------------------
# termination comparison
# ---------------------------------------------------------------------------

def run_termination_comparison(
    bundle: ModelBundle,
    prompts: list[list[int]],
    strategies,
    sampler: SamplerConfig,
    budget: GenerationBudget,
    num_paths: int = 4,
    seed: int = 0,
) -> tuple[list[dict], list[dict]]:
    """Identical seeds across strategies; records lengths and token totals."""
    records: list[dict] = []
    transcripts: list[dict] = []
    for pi, prompt in enumerate(prompts):
        sess_seed = derive_seed(seed, "terminate", pi)  # shared across strategies
        for strategy in strategies:
            strategy = Termination(strategy)
            session = run_session(
                bundle.weights,
                bundle.table,
                bundle.vocab,
                prompt,
                num_paths,
                sampler,
                budget,
                strategy,
                seed=sess_seed,
            )
            records.append(
                {
                    "strategy": strategy.value,
                    "prompt_index": pi,
                    "L_r": session.reasoning_len,
                    "total_path_tokens": sum(len(p.tokens) for p in session.paths),
                    "body_tokens": sum(p.body_length() for p in session.paths),
                    "answer_tokens": len(session.answer_tokens),
                }
            )
            transcripts.append(
                {"key": ["terminate", strategy.value, pi], "record": session_record(session)}
            )
    return records, transcripts


# ---------------------------------------------------------------------------
# re-prefill baseline
# ---------------------------------------------------------------------------

def _flat_feed(weights, table, layout, tokens, keep=1):
    """Feed ``tokens`` to a fresh flattened cache in causal chunks.

    One ``forward_causal`` pass over the single FLAT segment, reserved for
    every position the layout lists.  Returns the cache and the last
    ``keep`` rows' logits.
    """
    cfg = weights.config
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    cache.reserve(FLAT_SEGMENT, len(layout.flat_positions))
    logits = forward_causal(
        weights, table, cache, layout, tokens, SlotAddress(FLAT_SEGMENT, 0), keep
    )
    return cache, logits


def run_reprefill_baseline(
    bundle: ModelBundle, session: GenerationSession, sampler: SamplerConfig
) -> dict:
    """Re-encode prompt + concatenated paths with flattened positions.

    The baseline runs without thought embeddings and with plain causal
    attention over the concatenation, mimicking feeding the full context
    back through a vanilla model.  Records the positions it needs, the
    prefill size the cached-KV pathway avoids, the per-step logit
    divergence against the session's answer, and its own answer.
    Position overflow is recorded as an outcome, not raised: it is decided
    before either pass runs, over every position either would feed (the
    own-answer decode may fill its whole answer budget), and
    ``max_position_used`` is the largest of those positions.
    """
    if session.stage != SUMMARIZATION or not session.answer_done:
        raise LifecycleError("re-prefill baseline needs a completed session")
    cfg = bundle.weights.config
    l_x = session.l_x
    l_max = session.budget.max_path_tokens + 2
    num_paths = session.num_paths
    flattened = PositionAssignment(
        FLATTENED, l_x=l_x, l_max=l_max, num_paths=num_paths, reasoning_len=session.reasoning_len
    )
    flat_tokens = session.prompt_tokens + [t for path in session.paths for t in path.tokens]
    context = np.concatenate(
        [flattened.positions(PROMPT, 0, l_x)]
        + [flattened.positions(path_key(i), 0, len(p.tokens)) for i, p in enumerate(session.paths)]
    )
    teacher = np.concatenate(
        [context, flattened.positions(ANSWER, 0, len(session.answer_tokens))]
    )
    own = np.concatenate(
        [context, flattened.positions(ANSWER, 0, session.budget.max_answer_tokens + 1)]
    )
    max_pos_used = max(int(teacher.max()), int(own.max()))
    record = {
        "paths": num_paths,
        "prefill_tokens": len(flat_tokens),
        # read off the positions: a frozen last path can be shorter than the others
        "max_path_position": int(context.max()),
        "max_position_used": max_pos_used,
        "overflow": max_pos_used > cfg.max_position,
        "logit_divergence": None,
        "own_answer": None,
    }
    if record["overflow"]:
        return record

    zero = bundle.with_zero_table().table

    # teacher-forced pass: the answer tokens are known, so they run in the
    # same causal pass as the context; compare per-step logits
    if session.record_logits and session.answer_logits:
        layout = DecodeLayout(stage=FLAT, flat_positions=teacher)
        answer = session.answer_tokens
        _, logits = _flat_feed(
            bundle.weights, zero, layout, flat_tokens + answer, keep=len(answer)
        )
        record["logit_divergence"] = float(
            np.max(np.abs(logits - np.stack(session.answer_logits)))
        )

    # independent answer decode over a fresh flattened prefill
    budget = session.budget
    layout = DecodeLayout(stage=FLAT, flat_positions=own)
    vocab = bundle.vocab
    answer = [vocab.summary_open]
    cache, logits = _flat_feed(bundle.weights, zero, layout, flat_tokens + answer)
    logits = logits[0]
    for step in range(1, budget.max_answer_tokens + 1):
        rng = draw_rng(session.seed, ANSWER_STREAM, step)
        token = sample_token(logits, sampler, rng)
        answer.append(token)
        logits = forward_causal(
            bundle.weights, zero, cache, layout, [token],
            SlotAddress(FLAT_SEGMENT, len(flat_tokens) + step),
        )[0]
        if token in (vocab.summary_close, vocab.eos):
            break
    record["own_answer"] = answer
    return record


# ---------------------------------------------------------------------------
# cost model table
# ---------------------------------------------------------------------------

def run_cost_model(
    profile: dict, paths_list: list[int], lengths: list[int]
) -> list[dict]:
    records = []
    for length in lengths:
        base = params_from_profile(profile, 1, length)
        base_step = predict_step_time(base)
        for num_paths in paths_list:
            params = params_from_profile(profile, num_paths, length)
            step = predict_step_time(params)
            records.append(
                {
                    "paths": num_paths,
                    "tokens_per_path": length,
                    "step_time_s": step,
                    "decode_time_s": predict_decode_time(params),
                    "step_ratio_vs_p1": step / base_step,
                }
            )
    return records


# ---------------------------------------------------------------------------
# experiment persistence and verification
# ---------------------------------------------------------------------------

def bundle_from_config(config: dict) -> ModelBundle:
    vocab = Vocab(**config.get("vocab", {}))
    if config.get("weights_file"):
        weights = load_weights(config["weights_file"])
    else:
        weights = init_weights(
            ModelConfig(**config["model"]), config.get("model_seed", 0)
        )
    cfg = weights.config
    if config.get("thought_table_file"):
        table = load_thought_table(config["thought_table_file"])
    elif config.get("zero_thought_table"):
        table = zero_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k)
    else:
        table = init_thought_table(
            vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k,
            config.get("table_seed", 0),
        )
    return ModelBundle(weights=weights, table=table, vocab=vocab)


def run_experiment(name: str, config: dict) -> tuple[list[dict], list[dict]]:
    """Dispatch an experiment from a pure-JSON config (used by verify)."""
    sampler = SamplerConfig(**config.get("sampler", {}))
    seed = config.get("seed", 0)
    if name == "costmodel":
        profile = load_profile(config.get("profile_file"))
        records = run_cost_model(profile, config["paths"], config["lengths"])
        return records, []
    bundle = bundle_from_config(config)
    if name == "sweep":
        return run_budget_sweep(
            bundle,
            config["prompts"],
            config["budgets"],
            config["paths"],
            sampler,
            strategy=Termination(config.get("strategy", "first_finish")),
            allocation=config.get("allocation", "total-budget-split"),
            max_answer_tokens=config.get("max_answer_tokens", 8),
            seed=seed,
        )
    if name == "prefix":
        return run_prefix_recovery(
            bundle,
            config["traces"],
            GenerationBudget(config["budget"], config.get("max_answer_tokens", 8)),
            sampler,
            config["target_token"],
            prefix_lengths=tuple(config.get("prefix_lengths", DEFAULT_PREFIX_GRID)),
            samples=config.get("samples", 16),
            seed=seed,
        )
    if name == "terminate":
        return run_termination_comparison(
            bundle,
            config["prompts"],
            config.get("strategies", [t.value for t in Termination]),
            sampler,
            GenerationBudget(config["budget"], config.get("max_answer_tokens", 8)),
            num_paths=config.get("paths", 4),
            seed=seed,
        )
    if name == "reprefill":
        session = run_session(
            bundle.weights,
            bundle.table,
            bundle.vocab,
            config["prompt"],
            config["paths"],
            sampler,
            GenerationBudget(config["budget"], config.get("max_answer_tokens", 8)),
            seed=seed,
            record_logits=True,
        )
        record = run_reprefill_baseline(bundle, session, sampler)
        return [record], [
            {"key": ["reprefill", config["paths"]], "record": session_record(session)}
        ]
    if name == "generate":
        session = run_session(
            bundle.weights,
            bundle.table,
            bundle.vocab,
            config["prompt"],
            config["paths"],
            sampler,
            GenerationBudget(config["budget"], config.get("max_answer_tokens", 32)),
            strategy=Termination(config.get("strategy", "first_finish")),
            seed=seed,
        )
        rec = {
            "paths": config["paths"],
            "L_r": session.reasoning_len,
            "answer_tokens": len(session.answer_tokens),
        }
        return [rec], [{"key": ["generate"], "record": session_record(session)}]
    raise DataError(f"unknown experiment {name!r}")


def records_csv_text(name: str, config: dict, records: list[dict]) -> str:
    chash = config_hash({"experiment": name, "config": config})
    columns = sorted({key for rec in records for key in rec})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", *columns, "config_hash"])
    for rec in records:
        row = [name]
        for c in columns:
            value = rec.get(c, "")
            row.append(canonical_json(value) if isinstance(value, (list, dict)) else value)
        row.append(chash)
        writer.writerow(row)
    return buf.getvalue()


def transcripts_text(transcripts: list[dict]) -> str:
    return "".join(canonical_json(t) + "\n" for t in transcripts)


def write_experiment(
    out_dir: str, name: str, config: dict, records: list[dict], transcripts: list[dict]
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"experiment": name, "config": config}, fh, sort_keys=True, indent=2)
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8") as fh:
        fh.write(records_csv_text(name, config, records))
    with open(os.path.join(out_dir, "transcripts.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(transcripts_text(transcripts))


def verify_experiment_dir(out_dir: str) -> list[str]:
    """Re-run from the stored config; report any byte-level mismatch."""
    problems: list[str] = []
    with open(os.path.join(out_dir, "config.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    name, config = stored["experiment"], stored["config"]
    records, transcripts = run_experiment(name, config)

    with open(os.path.join(out_dir, "records.csv"), encoding="utf-8") as fh:
        stored_csv = fh.read()
    expected_csv = records_csv_text(name, config, records)
    if stored_csv != expected_csv:
        problems.append("records.csv does not match a fresh re-run")
    chash = config_hash({"experiment": name, "config": config})
    for line in stored_csv.splitlines()[1:]:
        if line and not line.endswith(chash):
            problems.append("records.csv carries a stale config hash")
            break

    with open(os.path.join(out_dir, "transcripts.jsonl"), encoding="utf-8") as fh:
        stored_tr = fh.read()
    if stored_tr != transcripts_text(transcripts):
        problems.append("transcripts.jsonl does not match a fresh re-run")
    return problems
