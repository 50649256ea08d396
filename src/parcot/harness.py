"""Experiment runner: budget sweeps, prefix-continuation studies,
termination comparisons, the re-prefill baseline, and the cost model.

Every experiment is a pure function of (config, seed): per-session seeds
are derived by hashing the experiment key, records carry the config hash,
and ``verify_experiment_dir`` re-runs an experiment from its stored
config and byte-compares the regenerated outputs.  A stored config is
read whole: it holds every key its CLI subcommand writes, a key it lacks
is an error, and no key takes a default here (the CLI's argparse options
are the one place a default is written); only the two file keys,
``weights_file`` and ``thought_table_file``, may be absent.  Every key
is read and checked before any weights are drawn or loaded, and a
weights file must hold the config's ``model``.  Each experiment checks
its whole grid before its first session runs: every budget, every path
count, every prompt and every forced prefix, by the checks the session
itself would apply (``engine.check_num_paths``, ``check_prompt``,
``check_forced``).

Every experiment runs its sessions through one runner (``_Runner``),
which holds two rules.  Prompt sharing: within one call, the first
session on a prompt prefills it, and every later session on the same
tokens, whichever prompt or trace of the grid names them, is given that
session as ``prompt_from``.  Transcripts: as each session ends, the
runner appends ``{"key": key, "record": session_record(session)}`` to the
call's transcript list, so transcripts are in the order sessions ran.
"""

import csv
import hashlib
import inspect
import io
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .costmodel import (
    load_profile,
    params_from_profile,
    predict_decode_time,
    predict_step_time,
)
from .engine import (
    DONE,
    GenerationBudget,
    GenerationSession,
    SamplerConfig,
    Termination,
    canonical_json,
    check_forced,
    check_num_paths,
    check_prompt,
    check_vocab,
    decode_answer,
    majority_vote,
    run_reasoning,
    run_session,
    session_record,
)
from .errors import ConfigError, DataError, LifecycleError
from .kvcache import PagedKVCache
from .model import (
    ModelConfig,
    StagePlan,
    forward,
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
from .tokenizer import Vocab, check_seed, is_token_int, read_text

DEFAULT_PREFIX_GRID = (0, 100, 200, 400, 800, 1600)


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


class _Runner:
    """Runs one experiment call's sessions on ``bundle`` with ``sampler``
    by the prompt-sharing and transcript rules of the module docstring.
    Every prompt the call will run is checked when the runner is built,
    before its first session."""

    def __init__(self, bundle: ModelBundle, sampler: SamplerConfig, prompts):
        for prompt in prompts:
            check_prompt(bundle.weights.config, prompt)
        self.bundle = bundle
        self.sampler = sampler
        self.donors: dict[tuple, GenerationSession] = {}
        self.transcripts: list[dict] = []

    def session(self, key, prompt, num_paths, budget, strategy, seed, record_logits=False):
        """A full session: reasoning under ``strategy``, then the answer."""
        weights, table, vocab = self.bundle.weights, self.bundle.table, self.bundle.vocab
        session = run_session(
            weights, table, vocab, prompt, num_paths, self.sampler, budget, strategy,
            seed=seed, record_logits=record_logits, prompt_from=self.donors.get(tuple(prompt)),
        )
        return self._ended(key, session)

    def reasoning(self, key, prompt, budget, forced, seed):
        """A one-path session that reasons to its first finish, its leading
        body tokens ``forced``, and answers nothing."""
        weights, table, vocab = self.bundle.weights, self.bundle.table, self.bundle.vocab
        session = GenerationSession(
            weights, table, vocab, prompt, 1, seed=seed, prompt_from=self.donors.get(tuple(prompt))
        )
        run_reasoning(session, self.sampler, budget, Termination.FIRST_FINISH, forced={0: forced})
        return self._ended(key, session)

    def _ended(self, key, session: GenerationSession) -> GenerationSession:
        self.donors.setdefault(tuple(session.prompt_tokens), session)
        self.transcripts.append({"key": key, "record": session_record(session)})
        return session


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
    split = allocation == "total-budget-split"
    cells = []  # (B, P, the parallel session's budget, each majority sample's)
    for budget_tokens in budgets:
        for num_paths in paths_list:
            if split and budget_tokens < num_paths:
                raise DataError(
                    f"budget {budget_tokens} cannot be split across {num_paths} samples"
                )
            budget = GenerationBudget(budget_tokens, max_answer_tokens)
            check_num_paths(num_paths, bundle.vocab)
            per_sample = budget_tokens // num_paths if split else budget_tokens
            sample = GenerationBudget(per_sample, max_answer_tokens)
            cells.append((budget_tokens, num_paths, budget, sample))
    runner = _Runner(bundle, sampler, prompts)
    records: list[dict] = []
    for budget_tokens, num_paths, budget, sample in cells:
        for pi, prompt in enumerate(prompts):
            cell = [budget_tokens, num_paths, pi]
            session = runner.session(
                ["sweep", "parallel", *cell], prompt, num_paths, budget, strategy,
                derive_seed(seed, "sweep", *cell),
            )
            records.append(_sweep_record("parallel", *cell, [session]))
            votes = [
                runner.session(
                    ["sweep", "majority", *cell, s], prompt, 1, sample, Termination.FIRST_FINISH,
                    derive_seed(seed, "sweep-maj", *cell, s),
                )
                for s in range(num_paths)
            ]
            rec = _sweep_record("majority", *cell, votes)
            rec["per_sample_budget"] = sample.max_path_tokens
            rec["majority_answer_len"] = len(
                majority_vote([tuple(s.answer_tokens) for s in votes])
            )
            records.append(rec)
    return records, runner.transcripts


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
    prefix_lengths=None,
    samples: int = 16,
    seed: int = 0,
) -> tuple[list[dict], list[dict]]:
    """Continue single-path decoding from forced trace prefixes.

    Each trace is {"prompt": [...ids], "body": [...ids]} taken from a
    failed run.  For each prefix length n, the first n body tokens are
    injected as the path's leading tokens and decoding continues normally;
    a sample "recovers" when ``target_token`` shows up among the freshly
    sampled tokens.  ``prefix_lengths`` None takes the lengths of
    ``DEFAULT_PREFIX_GRID`` that leave the path some budget.
    """
    if prefix_lengths is None:
        prefix_lengths = [n for n in DEFAULT_PREFIX_GRID if n < budget.max_path_tokens]
    if not is_token_int(samples) or samples < 1:
        raise DataError(f"samples must be an integer of at least 1, got {samples!r}")
    vocab_size = bundle.weights.config.vocab_size
    if not is_token_int(target_token) or not 0 <= target_token < vocab_size:
        raise DataError(f"target token {target_token!r} outside vocab of size {vocab_size}")
    for n in prefix_lengths:
        if not is_token_int(n) or n < 0:
            raise DataError(f"prefix length must be a non-negative integer, got {n!r}")
    for ti, trace in enumerate(traces):
        if not (isinstance(trace, dict)
                and all(isinstance(trace.get(key), list) for key in ("prompt", "body"))):
            raise DataError(f"trace {ti} must be an object with prompt and body id lists")
        for n in prefix_lengths:
            if n > len(trace["body"]):
                raise DataError(
                    f"trace {ti} has {len(trace['body'])} tokens, cannot take prefix {n}"
                )
            if n >= budget.max_path_tokens:
                raise DataError(
                    f"prefix {n} leaves no budget (B={budget.max_path_tokens})"
                )
            check_forced({0: trace["body"][:n]}, 1, budget, vocab_size)
    runner = _Runner(bundle, sampler, [trace["prompt"] for trace in traces])
    records: list[dict] = []
    for ti, trace in enumerate(traces):
        for n in prefix_lengths:
            successes = 0
            for s in range(samples):
                session = runner.reasoning(
                    ["prefix", ti, n, s], trace["prompt"], budget, trace["body"][:n],
                    derive_seed(seed, "prefix", ti, n, s),
                )
                # the sampled tokens: not the opener, the forced prefix or
                # the closer the engine appends
                successes += target_token in session.paths[0].tokens[1 + n : -1]
            records.append(
                {
                    "trace": ti,
                    "prefix_length": n,
                    "samples": samples,
                    "success_rate": successes / samples,
                }
            )
    return records, runner.transcripts


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
    strategies = [Termination(strategy) for strategy in strategies]
    runner = _Runner(bundle, sampler, prompts)
    records: list[dict] = []
    for pi, prompt in enumerate(prompts):
        sess_seed = derive_seed(seed, "terminate", pi)  # shared across strategies
        for strategy in strategies:
            session = runner.session(
                ["terminate", strategy.value, pi], prompt, num_paths, budget, strategy, sess_seed
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
    return records, runner.transcripts


# ---------------------------------------------------------------------------
# re-prefill baseline
# ---------------------------------------------------------------------------

def _flat_feed(weights, table, positions, tokens, keep=1):
    """Feed ``tokens`` to a fresh flattened cache in causal chunks.

    The flattened sequence is a causal prefill at flattened positions, so
    it is decoded as the prompt segment of a cache of its own: one
    ``forward`` pass of 1 owner x len(tokens) slots, the prompt reserved
    for every slot of ``positions``, which lists each slot's position.
    Returns the prompt's plan, for the passes that extend it, and the last
    ``keep`` slots' logits.
    """
    cfg = weights.config
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    cache.reserve(PROMPT, len(positions))
    plan = StagePlan(cache, [PROMPT], [0], positions)
    logits = forward(weights, table, plan, tokens, [0], 0, keep)
    return plan, logits


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
    if session.stage != DONE:
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
        answer = session.answer_tokens
        _, logits = _flat_feed(
            bundle.weights, zero, teacher, flat_tokens + answer, keep=len(answer)
        )
        # 4 significant digits: the BLAS kernels move the digits after them
        divergence = np.max(np.abs(logits - np.stack(session.answer_logits)))
        record["logit_divergence"] = float(f"{divergence:.4g}")

    # independent answer decode over a fresh flattened prefill, by the
    # engine's answer loop
    vocab = bundle.vocab
    fed = flat_tokens + [vocab.summary_open]
    plan, logits = _flat_feed(bundle.weights, zero, own, fed)

    def feed(token: int) -> np.ndarray:
        fed.append(token)
        return forward(bundle.weights, zero, plan, [token], [0], len(fed) - 1)[0]

    answer = decode_answer(
        logits[0], feed, session.seed, sampler, vocab, session.budget.max_answer_tokens
    )
    record["own_answer"] = [vocab.summary_open, *answer]
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
    """The model bundle a run's config describes, read by the whole-config
    rule of ``run_experiment``: ``vocab`` and ``model``, then the weights of
    ``weights_file``, which must hold that model, or of ``model`` drawn
    with ``model_seed``, then the thought table of ``thought_table_file``
    or drawn with ``table_seed``.  Every key is read and checked before
    anything is drawn or loaded.  A file key that is absent or null names
    no file."""
    config = _keys(config, "the config")
    vocab = _build(Vocab, config["vocab"], "vocab")
    model = _build(ModelConfig, config["model"], "model")
    check_vocab(model, vocab)  # before the table, whose size grows with the vocab's P_max
    weights_file = _path(config.get("weights_file"), "weights_file")
    table_file = _path(config.get("thought_table_file"), "thought_table_file")
    model_seed = None if weights_file else check_seed(config["model_seed"], "model_seed")
    table_seed = None if table_file else check_seed(config["table_seed"], "table_seed")
    if weights_file:
        weights = load_weights(weights_file)
        for f in fields(model):  # the file's own model is the one that runs
            ours, theirs = getattr(model, f.name), getattr(weights.config, f.name)
            if ours != theirs:
                raise ConfigError(
                    f"'model' has {f.name} {ours!r}, but weights file {weights_file!r}"
                    f" holds {theirs!r}"
                )
    else:
        weights = init_weights(model, model_seed)
    if table_file:
        table = load_thought_table(table_file)
    else:
        table = init_thought_table(vocab.p_max, model.n_layers, model.n_heads, model.d_k, table_seed)
    return ModelBundle(weights=weights, table=table, vocab=vocab)


class _Keys(dict):
    """A JSON object of a run's config, named ``what``, in which reading a
    key it lacks raises ConfigError naming the key and ``what``."""

    def __init__(self, value: dict, what: str):
        super().__init__(value)
        self.what = what

    def __missing__(self, key):
        raise ConfigError(f"{key!r} is missing from {self.what}")


def _keys(value, what: str) -> _Keys:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got a {type(value).__name__}")
    return _Keys(value, what)


def _build(cls, value, key: str, drop=()):
    """``cls`` from the config's object at ``key``, which holds every
    argument of ``cls`` and each key in ``drop`` (read, then left out), and
    nothing else; a key it lacks, or one ``cls`` does not take, raises
    ConfigError naming it."""
    value = _keys(value, repr(key))
    fields = [*inspect.signature(cls).parameters, *drop]
    for name in value:
        if name not in fields:
            raise ConfigError(f"{key!r}: got an unexpected keyword argument {name!r}")
    args = {name: value[name] for name in fields}
    return cls(**{name: arg for name, arg in args.items() if name not in drop})


# what a config list's elements must be, by name
_ELEMENTS = {"integers": is_token_int, "lists": lambda value: isinstance(value, list)}


def _list(config: _Keys, key: str, of: str | None = None) -> list:
    """The list at ``key``; ``of`` names what each element must be (an
    _ELEMENTS key)."""
    value = config[key]
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list, got {value!r}")
    if of and not all(map(_ELEMENTS[of], value)):
        raise ConfigError(f"{key!r} must be a list of {of}, got {value!r}")
    return value


def _path(value, key: str) -> str | None:
    """The file path or null at ``key``: ``open`` would take an integer as
    a descriptor."""
    if not isinstance(value, (str, type(None))):
        raise ConfigError(f"{key!r} must be a file path or null, got {value!r}")
    return value


def run_experiment(name: str, config: dict) -> tuple[list[dict], list[dict]]:
    """Dispatch an experiment from a pure-JSON config (used by verify).

    The config is read whole: it holds every key its subcommand writes
    (``cli._run_config``), and every field of its ``model``, ``vocab`` and
    ``sampler`` objects, and no key takes a default here, so a stored run
    re-runs as exactly the experiment the CLI ran.  Only ``weights_file``
    and ``thought_table_file`` may be absent, which names no file; the
    model's seed is read only when no weights file is named (a named file
    must hold the config's ``model``), and the table seed only when no
    table file is.  An unknown name, a config that is not an object, or a
    key it reads and lacks or cannot use raises ConfigError naming it:
    the experiment's own keys before the model is built, and every key
    before any session runs.  The CLI writes
    a ``sampler.seed`` equal to the top-level ``seed``; no draw reads it
    (draws are keyed by session seeds), so it is dropped once read, and
    configs that carry any value of it run the same sessions and hash as
    written.
    """
    if name not in ("costmodel", "sweep", "prefix", "terminate", "reprefill", "generate"):
        raise ConfigError(f"unknown experiment {name!r}")
    config = _keys(config, "the config")
    if name == "costmodel":
        profile = load_profile(_path(config["profile_file"], "profile_file"))
        records = run_cost_model(profile, _list(config, "paths"), _list(config, "lengths"))
        return records, []
    sampler = _build(SamplerConfig, config["sampler"], "sampler", drop=("seed",))
    seed = check_seed(config["seed"])
    # every key the experiment reads is read and checked before the model is built
    if name == "sweep":
        grid = dict(
            prompts=_list(config, "prompts", of="lists"),
            budgets=_list(config, "budgets", of="integers"),
            paths_list=_list(config, "paths", of="integers"),
            strategy=Termination(config["strategy"]),
            allocation=config["allocation"],
            # checked as each cell's budget checks it
            max_answer_tokens=GenerationBudget(1, config["max_answer_tokens"]).max_answer_tokens,
        )
        return run_budget_sweep(bundle_from_config(config), sampler=sampler, seed=seed, **grid)
    budget = GenerationBudget(config["budget"], config["max_answer_tokens"])
    if name == "prefix":
        lengths = config["prefix_lengths"]  # null: the default grid below the budget
        study = dict(
            traces=_list(config, "traces"),
            target_token=config["target_token"],
            prefix_lengths=None if lengths is None else _list(config, "prefix_lengths"),
            samples=config["samples"],
        )
        return run_prefix_recovery(
            bundle_from_config(config), budget=budget, sampler=sampler, seed=seed, **study
        )
    num_paths = config["paths"]
    if name == "terminate":
        prompts = _list(config, "prompts", of="lists")
        strategies = [Termination(strategy) for strategy in _list(config, "strategies")]
        return run_termination_comparison(
            bundle_from_config(config), prompts, strategies, sampler, budget,
            num_paths=num_paths, seed=seed,
        )
    # generate and reprefill: one session; reprefill writes no strategy and
    # runs first finish
    prompt = _list(config, "prompt")
    strategy = Termination(config["strategy"] if name == "generate" else "first_finish")
    bundle = bundle_from_config(config)
    runner = _Runner(bundle, sampler, [prompt])
    key = [name, num_paths] if name == "reprefill" else [name]
    session = runner.session(
        key, prompt, num_paths, budget, strategy, seed, record_logits=name == "reprefill"
    )
    if name == "reprefill":
        record = run_reprefill_baseline(bundle, session, sampler)
    else:
        record = {
            "paths": num_paths,
            "L_r": session.reasoning_len,
            "answer_tokens": len(session.answer_tokens),
        }
    return [record], runner.transcripts


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
    texts = {
        "config.json": json.dumps({"experiment": name, "config": config}, sort_keys=True, indent=2),
        "records.csv": records_csv_text(name, config, records),
        "transcripts.jsonl": transcripts_text(transcripts),
    }
    for file, text in texts.items():
        # "\n" line endings on every platform: ``verify`` compares bytes
        with open(os.path.join(out_dir, file), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def verify_experiment_dir(out_dir: str) -> list[str]:
    """Re-run from the stored config; report any byte-level mismatch or
    missing output file.  The stored files are read as bytes and the fresh
    text is encoded as UTF-8, so line endings and undecodable bytes count."""
    problems: list[str] = []
    stored = _keys(json.loads(read_text(os.path.join(out_dir, "config.json"))), "config.json")
    name, config = stored["experiment"], stored["config"]
    records, transcripts = run_experiment(name, config)
    chash = config_hash({"experiment": name, "config": config}).encode()
    expected = {
        "records.csv": records_csv_text(name, config, records),
        "transcripts.jsonl": transcripts_text(transcripts),
    }
    for file, text in expected.items():
        try:
            with open(os.path.join(out_dir, file), "rb") as fh:
                stored_bytes = fh.read()
        except FileNotFoundError:
            problems.append(f"{file} is missing")
            continue
        if stored_bytes != text.encode("utf-8"):
            problems.append(f"{file} does not match a fresh re-run")
        if file == "records.csv" and any(
            line and not line.endswith(chash) for line in stored_bytes.splitlines()[1:]
        ):
            problems.append("records.csv carries a stale config hash")
    return problems
