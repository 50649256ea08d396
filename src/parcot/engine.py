"""Two-stage generation: synchronized parallel reasoning, then summarization.

The reasoning stage drives all paths from one decode loop.  Step s feeds
each active path its s-th body token; a path completes when that token is
EOS.  The stage stops at the first step where the termination strategy's
completion count is reached or the body budget B is hit, and every still
open path receives its THINK_CLOSE token.  Under first_finish all paths
therefore end with identical written lengths.  Under half/last_finish a
completed path is closed and frozen immediately (it stops writing cache
entries) while the others continue, so frozen paths may be shorter; the
reasoning length used for answer positions is the maximum written length.

Each reasoning step (the openers, every body step and each round of
closers) decodes all the paths it feeds in one batched forward pass over
the cache's path slab.  Every stage checks before it writes anything that
its last position fits the model, and a token joins a path only after its
forward pass succeeds, so a failed call leaves tokens and cache in step.

The summarization stage reuses the reasoning-phase KV storage directly
(no re-prefill): the engine inserts SUMMARY_OPEN and decodes the answer
against the prompt, every path, and the answer prefix, one token per
one-row causal pass (``model.forward_causal``).

Sampling draws are seeded per (session seed, stream, step), where the
stream is the path's think label (or 0 for the answer), so any single
path replays identically in isolation.  Greedy decoding draws nothing.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    LifecycleError,
    PositionOverflowError,
    SamplingError,
)
from .kvcache import PagedKVCache, SlotAddress, SummaryContextView, assemble_summary_view
from .masking import REASONING, SUMMARIZATION, LayoutPlan
from .model import (
    DecodeLayout,
    ModelWeights,
    forward_causal,
    forward_paths,
    forward_step,  # noqa: F401  perfbench/instrument.py wraps it by this name
    prefill,
)
from .positional import (
    ANSWER,
    PROMPT,
    SHARED,
    PositionAssignment,
    ThoughtEmbeddingTable,
    path_key,
)
from .tokenizer import Vocab

ANSWER_STREAM = 0  # think labels start at 1, so stream 0 is free


@dataclass(frozen=True)
class SamplerConfig:
    temperature: float = 1.0
    top_p: float = 1.0
    seed: int = 0
    greedy: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")


@dataclass(frozen=True)
class GenerationBudget:
    max_path_tokens: int  # body tokens per reasoning path
    max_answer_tokens: int = 64

    def __post_init__(self):
        if self.max_path_tokens < 1:
            raise ConfigError("path budget must be at least 1")
        if self.max_answer_tokens < 0:
            raise ConfigError("answer budget must be non-negative")


class Termination(str, Enum):
    FIRST_FINISH = "first_finish"
    HALF_FINISH = "half_finish"
    LAST_FINISH = "last_finish"

    def threshold(self, num_paths: int) -> int:
        if self is Termination.FIRST_FINISH:
            return 1
        if self is Termination.HALF_FINISH:
            return math.ceil(num_paths / 2)
        return num_paths


@dataclass
class PathState:
    index: int
    think_label: int
    tokens: list[int] = field(default_factory=list)
    finished: bool = False
    finish_cause: str | None = None  # eos | budget | strategy_stop
    step_logits: list[np.ndarray] = field(default_factory=list)

    def body_length(self) -> int:
        """Sampled tokens, excluding the opener and closer control tokens."""
        n = len(self.tokens)
        return max(0, n - 2) if self.finished else max(0, n - 1)


class GenerationSession:
    """State for one prompt: cache, path states, stage, and the answer."""

    def __init__(
        self,
        weights: ModelWeights,
        table: ThoughtEmbeddingTable,
        vocab: Vocab,
        prompt_tokens: list[int],
        num_paths: int,
        think_labels: list[int] | None = None,
        seed: int = 0,
        record_logits: bool = False,
    ):
        cfg = weights.config
        if num_paths < 1:
            raise ConfigError("need at least one path")
        if num_paths > vocab.p_max:
            raise ConfigError(f"P={num_paths} exceeds P_max={vocab.p_max}")
        if cfg.vocab_size < vocab.size:
            raise ConfigError(
                f"model vocab {cfg.vocab_size} cannot hold tokenizer vocab {vocab.size}"
            )
        if table.p_max < vocab.p_max:
            raise ConfigError(
                f"thought table has {table.p_max} path rows, vocab allows {vocab.p_max}"
            )
        if not prompt_tokens:
            raise DataError("prompt must contain at least one token")
        _check_position(len(prompt_tokens), cfg.max_position, "prompt")
        if think_labels is None:
            think_labels = list(range(1, num_paths + 1))
        if len(think_labels) != num_paths:
            raise ConfigError("one think label per path required")
        if len(set(think_labels)) != num_paths:
            raise ConfigError("think labels must be distinct")
        for label in think_labels:
            vocab.think_open(label)  # validates the range

        self.weights = weights
        self.table = table
        self.vocab = vocab
        self.prompt_tokens = list(int(t) for t in prompt_tokens)
        self.num_paths = num_paths
        self.think_labels = list(think_labels)
        self.seed = seed
        self.record_logits = record_logits
        self.stage = REASONING
        self.answer_done = False
        self.paths = [
            PathState(index=i, think_label=think_labels[i]) for i in range(num_paths)
        ]
        self.answer_tokens: list[int] = []
        self.answer_logits: list[np.ndarray] = []
        self.reasoning_len: int | None = None  # max written path length at transition
        self.budget: GenerationBudget | None = None
        self.strategy: Termination | None = None
        self.summary_view: SummaryContextView | None = None

        self.cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
        self.cache.reserve(PROMPT, len(self.prompt_tokens))
        prompt_layout = DecodeLayout(
            stage=REASONING,
            assignment=PositionAssignment(SHARED, l_x=len(self.prompt_tokens), l_max=0),
            thought_labels=tuple(think_labels),
        )
        self.prompt_logits = prefill(
            weights, table, self.cache, prompt_layout, self.prompt_tokens
        )

    @property
    def l_x(self) -> int:
        return len(self.prompt_tokens)

    def reasoning_layout(self, budget: GenerationBudget) -> DecodeLayout:
        return DecodeLayout(
            stage=REASONING,
            assignment=PositionAssignment(
                SHARED,
                l_x=self.l_x,
                l_max=budget.max_path_tokens + 2,  # opener + body + closer
                num_paths=self.num_paths,
            ),
            thought_labels=tuple(self.think_labels),
            expected_lengths={PROMPT: self.l_x},
        )

    def summary_layout(self) -> DecodeLayout:
        if self.reasoning_len is None:
            raise LifecycleError("summarization layout requires a finished reasoning stage")
        expected = {PROMPT: self.l_x}
        for path in self.paths:
            expected[path_key(path.index)] = len(path.tokens)
        return DecodeLayout(
            stage=SUMMARIZATION,
            assignment=PositionAssignment(
                SHARED,
                l_x=self.l_x,
                l_max=self.budget.max_path_tokens + 2,
                num_paths=self.num_paths,
                reasoning_len=self.reasoning_len,
            ),
            thought_labels=tuple(self.think_labels),
            expected_lengths=expected,
        )

    def layout_plan(self) -> LayoutPlan:
        """Serialized slot layout of the session's current contents."""
        return LayoutPlan(
            l_x=self.l_x,
            path_lengths=tuple(len(p.tokens) for p in self.paths),
            answer_length=len(self.answer_tokens),
            stage=SUMMARIZATION,
        )


def _check_position(last: int, max_position: int, stage: str) -> None:
    if last > max_position:
        raise PositionOverflowError(
            f"{stage} would reach position {last}, beyond max_position {max_position}"
        )


def draw_rng(seed: int, stream: int, step: int) -> np.random.Generator:
    """Per-draw generator; the stream is a think label or ANSWER_STREAM."""
    return np.random.default_rng((seed, stream, step))


def sample_token(
    logits: np.ndarray, sampler: SamplerConfig, rng: np.random.Generator
) -> int:
    """Temperature softmax with nucleus truncation; greedy mode is argmax.

    Greedy ties break toward the lowest token id; greedy mode never
    touches ``rng``, which may then be None, and takes the argmax of the
    logits as given (widening float32 to float64 is exact, so it would
    pick the same id).  The nucleus keeps the smallest probability-sorted
    prefix whose mass reaches top_p, in float64.
    """
    logits = np.asarray(logits)
    if logits.size == 0:
        raise SamplingError("all tokens are masked out")
    if not np.isfinite(logits).all():
        if np.isneginf(logits).all():
            raise SamplingError("all tokens are masked out")
        raise SamplingError("logits contain non-finite values")
    if sampler.greedy:
        return int(np.argmax(logits))
    scaled = logits.astype(np.float64) / sampler.temperature
    scaled -= np.max(scaled)
    probs = np.exp(scaled)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    before = csum - probs[order]
    support = order[before < sampler.top_p]
    kept = probs[support] / probs[support].sum()
    return int(rng.choice(support, p=kept))


def _draw(session: GenerationSession, sampler: SamplerConfig, logits, stream: int, step: int):
    rng = None if sampler.greedy else draw_rng(session.seed, stream, step)
    return sample_token(logits, sampler, rng)


def _feed_paths(session: GenerationSession, layout: DecodeLayout, paths, tokens) -> np.ndarray:
    """One batched forward pass feeding tokens[r] to paths[r]; [n, vocab] logits."""
    slots = [SlotAddress(path_key(p.index), len(p.tokens)) for p in paths]
    logits = forward_paths(
        session.weights, session.table, session.cache, layout, tokens, slots
    )
    for path, token, row in zip(paths, tokens, logits):
        path.tokens.append(int(token))
        if session.record_logits:
            path.step_logits.append(row)
    return logits


def _close_paths(session, layout, paths: list[PathState], causes: list[str]) -> None:
    closers = [session.vocab.think_close(p.think_label) for p in paths]
    _feed_paths(session, layout, paths, closers)
    for path, cause in zip(paths, causes):
        path.finished = True
        path.finish_cause = cause


def run_reasoning(
    session: GenerationSession,
    sampler: SamplerConfig,
    budget: GenerationBudget,
    strategy: Termination = Termination.FIRST_FINISH,
    forced: dict[int, list[int]] | None = None,
) -> GenerationSession:
    """Decode all paths in lockstep until the strategy or budget stops them.

    ``forced`` optionally supplies per-path body tokens that replace
    sampling for the leading steps (used for prefix-continuation studies
    and scripted termination schedules).
    """
    if session.stage != REASONING or any(p.tokens for p in session.paths):
        raise LifecycleError("reasoning stage already consumed")
    strategy = Termination(strategy)
    forced = forced or {}
    layout = session.reasoning_layout(budget)
    last = layout.positions(path_key(0), 0, budget.max_path_tokens + 2)[-1]
    _check_position(last, session.weights.config.max_position, "reasoning")
    session.budget = budget
    session.strategy = strategy
    session.cache.reserve_paths(session.num_paths, budget.max_path_tokens + 2)
    eos = session.vocab.eos
    threshold = strategy.threshold(session.num_paths)

    active = list(session.paths)
    openers = [session.vocab.think_open(p.think_label) for p in active]
    logits = _feed_paths(session, layout, active, openers)  # row r belongs to active[r]
    completed = 0
    stop_cause = None
    step = 0
    while stop_cause is None:
        step += 1
        chosen = []
        for path, row in zip(active, logits):
            script = forced.get(path.index)
            if script is not None and step <= len(script):
                chosen.append(int(script[step - 1]))
            else:
                chosen.append(_draw(session, sampler, row, path.think_label, step))
        logits = _feed_paths(session, layout, active, chosen)
        finished_now = [p for p, token in zip(active, chosen) if token == eos]
        completed += len(finished_now)
        if strategy is not Termination.FIRST_FINISH and finished_now:
            # freeze naturally finished paths; the rest keep decoding
            _close_paths(session, layout, finished_now, ["eos"] * len(finished_now))
            keep = [r for r, token in enumerate(chosen) if token != eos]
            active = [active[r] for r in keep]
            logits = logits[keep]
            chosen = [chosen[r] for r in keep]
        if completed >= threshold:
            stop_cause = "strategy"
        elif step >= budget.max_path_tokens:
            stop_cause = "budget"

    causes = []
    for token in chosen:
        if strategy is Termination.FIRST_FINISH and token == eos:
            causes.append("eos")
        elif stop_cause == "budget":
            causes.append("budget")
        else:
            causes.append("strategy_stop")
    if active:
        _close_paths(session, layout, active, causes)

    session.reasoning_len = max(len(p.tokens) for p in session.paths)
    if strategy is Termination.FIRST_FINISH:
        lengths = {len(p.tokens) for p in session.paths}
        if len(lengths) != 1:
            raise LifecycleError(f"first_finish produced unequal path lengths {lengths}")
    session.stage = SUMMARIZATION
    session.summary_view = assemble_summary_view(session.cache, session.layout_plan())
    return session


def run_summarization(
    session: GenerationSession, sampler: SamplerConfig, max_answer_tokens: int
) -> list[int]:
    """Decode the answer over the reused caches; returns the sampled tokens.

    The engine inserts SUMMARY_OPEN itself.  Decoding stops after
    ``max_answer_tokens`` samples or once SUMMARY_CLOSE or EOS is sampled
    (the terminator is recorded and fed like any other token).
    """
    if session.stage != SUMMARIZATION:
        raise LifecycleError("summarization requires a finished reasoning stage")
    if session.answer_done:
        raise LifecycleError("summarization already ran for this session")
    if max_answer_tokens < 0:
        raise ConfigError("answer budget must be non-negative")
    vocab = session.vocab
    layout = session.summary_layout()
    last = layout.positions(ANSWER, 0, max_answer_tokens + 1)[-1]  # SUMMARY_OPEN first
    _check_position(last, session.weights.config.max_position, "answer")
    session.cache.reserve(ANSWER, max_answer_tokens + 1)

    def feed(token: int) -> np.ndarray:
        slot = SlotAddress(ANSWER, len(session.answer_tokens))
        logits = forward_causal(
            session.weights, session.table, session.cache, layout, [int(token)], slot
        )[0]
        session.answer_tokens.append(int(token))
        if session.record_logits:
            session.answer_logits.append(logits)
        return logits

    logits = feed(vocab.summary_open)
    sampled: list[int] = []
    for step in range(1, max_answer_tokens + 1):
        token = _draw(session, sampler, logits, ANSWER_STREAM, step)
        sampled.append(token)
        logits = feed(token)
        if token in (vocab.summary_close, vocab.eos):
            break
    session.answer_done = True
    return sampled


def run_session(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    vocab: Vocab,
    prompt_tokens: list[int],
    num_paths: int,
    sampler: SamplerConfig,
    budget: GenerationBudget,
    strategy: Termination = Termination.FIRST_FINISH,
    think_labels: list[int] | None = None,
    seed: int = 0,
    record_logits: bool = False,
    forced: dict[int, list[int]] | None = None,
) -> GenerationSession:
    session = GenerationSession(
        weights,
        table,
        vocab,
        prompt_tokens,
        num_paths,
        think_labels=think_labels,
        seed=seed,
        record_logits=record_logits,
    )
    run_reasoning(session, sampler, budget, strategy, forced=forced)
    run_summarization(session, sampler, budget.max_answer_tokens)
    return session


def majority_vote(answers: list):
    """Modal answer; ties break toward the earliest sample index."""
    if not answers:
        raise DataError("majority vote over an empty answer list")
    counts = Counter(answers)
    best = max(counts.values())
    tied = [a for a, c in counts.items() if c == best]
    return min(tied, key=answers.index)


def pass_at_1(bits, k: int) -> float:
    """Mean of k binary correctness indicators."""
    bits = list(bits)
    if k < 1:
        raise DataError("k must be at least 1")
    if len(bits) != k:
        raise DataError(f"expected {k} indicators, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise DataError("correctness indicators must be 0 or 1")
    return sum(bits) / k


@dataclass(frozen=True)
class EvalReport:
    bits: tuple[int, ...]
    k: int
    pass_at_1: float
    majority_answer: object
    vote_counts: dict

    @classmethod
    def from_samples(cls, answers: list, bits) -> "EvalReport":
        bits = tuple(bits)
        if len(answers) != len(bits):
            raise DataError("one correctness bit per answer required")
        k = len(answers)
        return cls(
            bits=bits,
            k=k,
            pass_at_1=pass_at_1(bits, k),
            majority_answer=majority_vote(answers),
            vote_counts=dict(Counter(answers)),
        )


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def session_record(session: GenerationSession) -> dict:
    """Transcript of one session; reruns must reproduce it byte-identically."""
    cfg = session.weights.config
    return {
        "format": "ptsession-1",
        "prompt": session.prompt_tokens,
        "paths": [
            {
                "think_label": p.think_label,
                "tokens": p.tokens,
                "finish_cause": p.finish_cause,
            }
            for p in session.paths
        ],
        "L_r": session.reasoning_len,
        "answer": session.answer_tokens,
        "config": {
            "model": {
                "n_layers": cfg.n_layers,
                "d_model": cfg.d_model,
                "n_heads": cfg.n_heads,
                "d_k": cfg.d_k,
                "d_ff": cfg.d_ff,
                "vocab_size": cfg.vocab_size,
                "rope_base": cfg.rope_base,
                "max_position": cfg.max_position,
            },
            "num_paths": session.num_paths,
            "think_labels": session.think_labels,
            "budget": {
                "max_path_tokens": session.budget.max_path_tokens if session.budget else None,
                "max_answer_tokens": session.budget.max_answer_tokens if session.budget else None,
            },
            "strategy": session.strategy.value if session.strategy else None,
        },
        "seed": session.seed,
    }
