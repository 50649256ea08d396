"""Two-stage generation: synchronized parallel reasoning, then summarization.

The reasoning stage drives all paths from one decode loop, whose one piece
of state maps each path index to the token that path's next pass feeds:
its opener, its body tokens (scripted or chosen), then the THINK_CLOSE it
takes in the pass after it ends.  Pass s feeds exactly the paths that hold
a token, in path order, and a path that has taken its closer holds none.
One rule ends paths under every termination strategy.  A path ends when
its token is EOS (cause ``eos``), or when the stage stops: once the paths
that emitted EOS reach the strategy's threshold (``Termination.threshold``)
or the step reaches the body budget B, every path still open ends with
cause ``strategy_stop`` or ``budget``.  A path writes nothing after its
closer.  The pass after the stop feeds closers only and takes no draw.
Under first_finish the threshold is one, so all paths end on the same
step with identical written lengths; under half/last_finish paths that
ended earlier are shorter, and the reasoning length L_r used for answer
positions is the maximum written length.

A reasoning stage thus makes exactly L_r passes: the openers, one per
body step and the pass after the stop, each decoding all the paths it
feeds as one batched forward pass over the cache's path slab.  Every
stage checks before it builds anything that its last position fits the
model, and builds one plan (``model.StagePlan``) that every pass of the
stage runs under.  A token joins a path only after its forward pass
succeeds, so a failed call leaves tokens and cache in step.

The summarization stage reuses the reasoning-phase KV storage directly
(no re-prefill): the engine inserts SUMMARY_OPEN and decodes the answer
against the prompt, every path, and the answer prefix, one token per
one-slot pass (``model.forward``).  A session's budget is written once,
by ``run_reasoning``: the answer cap is that budget's
``max_answer_tokens``, and the session record and the re-prefill
baseline read the same one.  A session's ``stage`` advances REASONING ->
SUMMARIZATION -> DONE: ``run_reasoning`` runs only at the first,
``run_summarization`` only at the second, and the re-prefill baseline
(``harness.run_reprefill_baseline``) only at DONE.

Sampling draws are keyed (session seed, stream, step), where the stream
is the path's think label (or ANSWER_STREAM, 0, for the answer), so any
single path replays identically in isolation.  A draw's uniform double is
``draw_rng(seed, stream, step).random()`` and its token is the temperature
softmax, the nucleus, and that uniform searched in the nucleus's
cumulative distribution (``sample_tokens``): the arithmetic that
``Generator.choice`` performs once it has validated its probabilities,
written out so that draws (and ``verify``) do not rest on numpy's
``choice`` internals.  Both stages pick tokens by one rule (``_choose``):
greedy takes each row's argmax and draws nothing; otherwise one
``sample_tokens`` call draws every row of the block, a reasoning step's
unscripted open paths or the answer's one row.  Both stages also take
their uniforms by one rule: a sampled stage's first draw computes, by one
call of the kernel ``pcg.uniforms`` (the same doubles, for any seed), the
table of every stream of the stage from that step to the stage's last (B
for reasoning, the cap for the answer), and every later draw indexes it.
The answer, reused cache or re-prefill baseline alike, is decoded by one
loop (``decode_answer``).

A session given ``prompt_from``, an earlier session on the same weights,
thought table and prompt, prefills nothing: its cache reads the earlier
session's prompt slots in place (``PagedKVCache.share``) and it reuses
that session's prompt logits.  A prompt's storage and logits are
read-only once prefilled, so no session can change what another reads.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, LifecycleError, SamplingError
from .kvcache import PagedKVCache, SummaryContextView, assemble_summary_view
from .masking import LayoutPlan
from .model import (
    ModelConfig,
    ModelWeights,
    StagePlan,
    check_position,
    check_token_ids,
    forward,
    forward_step,  # noqa: F401  perfbench/instrument.py wraps it by this name
    prefill,
)
from .pcg import uniforms
from .positional import (
    ANSWER,
    PROMPT,
    SHARED,
    PositionAssignment,
    ThoughtEmbeddingTable,
    path_key,
)
from .tokenizer import Vocab, check_seed, is_real, is_token_int

ANSWER_STREAM = 0  # think labels start at 1, so stream 0 is free

# a session's lifecycle: it reasons, then summarizes, then is done
REASONING = "reasoning"
SUMMARIZATION = "summarization"
DONE = "done"


@dataclass(frozen=True)
class SamplerConfig:
    """How a row's token is chosen: temperature, nucleus mass, or greedy.

    It holds no seed: every draw is keyed by the session's seed
    (``GenerationSession(seed=...)``), a stream and a step.
    """

    temperature: float = 1.0
    top_p: float = 1.0
    greedy: bool = False

    def __post_init__(self):
        for name in ("temperature", "top_p"):
            if not is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not isinstance(self.greedy, bool):
            raise ConfigError(f"greedy must be true or false, got {self.greedy!r}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be finite and positive, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")


@dataclass(frozen=True)
class GenerationBudget:
    """Token caps, each a Python or numpy integer (``is_token_int``, so not a
    bool), stored as ``int``."""

    max_path_tokens: int  # body tokens per reasoning path
    max_answer_tokens: int = 64

    def __post_init__(self):
        object.__setattr__(self, "max_path_tokens", _token_cap(self.max_path_tokens, 1, "path"))
        object.__setattr__(
            self, "max_answer_tokens", _token_cap(self.max_answer_tokens, 0, "answer")
        )


def _token_cap(value, least: int, what: str) -> int:
    if not is_token_int(value) or value < least:
        raise ConfigError(f"{what} budget must be an integer of at least {least}, got {value!r}")
    return int(value)


class Termination(str, Enum):
    """When the reasoning stage stops: once ``threshold(P)`` of its P paths
    have emitted EOS (one, half rounded up, or all), or at the body budget."""

    FIRST_FINISH = "first_finish"
    HALF_FINISH = "half_finish"
    LAST_FINISH = "last_finish"

    @classmethod
    def _missing_(cls, value):
        raise ConfigError(f"unknown termination strategy {value!r}")

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
    finish_cause: str | None = None  # eos | budget | strategy_stop
    step_logits: list[np.ndarray] = field(default_factory=list)

    def body_length(self) -> int:
        """Sampled tokens, excluding the opener and closer control tokens."""
        n = len(self.tokens)
        return max(0, n - 2) if self.finish_cause is not None else max(0, n - 1)


class GenerationSession:
    """State for one prompt: cache, path states, stage, and the answer.

    ``prompt_from`` is an earlier session on the same weights, thought
    table and prompt tokens; this session then reads its prefilled prompt
    in place instead of prefilling one.  A mismatch raises ``ConfigError``
    before anything is allocated.
    """

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
        prompt_from: "GenerationSession | None" = None,
    ):
        cfg = weights.config
        num_paths = check_num_paths(num_paths, vocab)
        check_vocab(cfg, vocab)
        if table.p_max < vocab.p_max:
            raise ConfigError(
                f"thought table has {table.p_max} path rows, vocab allows {vocab.p_max}"
            )
        if table.vectors.shape[1:] != (cfg.n_layers, cfg.n_heads, cfg.d_k):
            raise ConfigError(
                f"thought table rows have shape {table.vectors.shape[1:]}, the model needs"
                f" (n_layers, n_heads, d_k) = {(cfg.n_layers, cfg.n_heads, cfg.d_k)}"
            )
        seed = check_seed(seed)
        prompt_tokens = check_prompt(cfg, prompt_tokens)
        if think_labels is None:
            think_labels = range(1, num_paths + 1)
        if len(think_labels) != num_paths:
            raise ConfigError("one think label per path required")
        for label in think_labels:
            vocab.think_open(label)  # an integer (ConfigError) in range (VocabError)
        think_labels = [int(label) for label in think_labels]
        if len(set(think_labels)) != num_paths:
            raise ConfigError("think labels must be distinct")
        if prompt_from is not None:
            _check_donor(prompt_from, weights, table, prompt_tokens)

        self.weights = weights
        self.table = table
        self.vocab = vocab
        self.prompt_tokens = prompt_tokens
        self.num_paths = num_paths
        self.think_labels = think_labels
        self.seed = seed
        self.record_logits = record_logits
        self.stage = REASONING
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
        if prompt_from is not None:
            self.cache.share(prompt_from.cache.tables[PROMPT])
            self.prompt_logits = prompt_from.prompt_logits
        else:
            prompt = self.cache.reserve(PROMPT, len(self.prompt_tokens))
            self.prompt_logits = prefill(weights, table, self.cache, self.prompt_tokens)
            # read-only from here on, so a session given this one as
            # ``prompt_from`` reads exactly what this one reads
            prompt.slab.seal()
            self.prompt_logits.flags.writeable = False

    @property
    def l_x(self) -> int:
        return len(self.prompt_tokens)


def check_num_paths(num_paths, vocab: Vocab) -> int:
    """A session's path count as ``int``: an integer from 1 to the vocab's
    ``p_max``."""
    if not is_token_int(num_paths):
        raise ConfigError(f"num_paths must be an integer, got {num_paths!r}")
    num_paths = int(num_paths)
    if num_paths < 1:
        raise ConfigError("need at least one path")
    if num_paths > vocab.p_max:
        raise ConfigError(f"P={num_paths} exceeds P_max={vocab.p_max}")
    return num_paths


def check_prompt(cfg: ModelConfig, prompt_tokens) -> list[int]:
    """A session's prompt as ``int`` ids: at least one token, every id in
    the model's vocab, and its last position within ``max_position``."""
    if len(prompt_tokens) == 0:  # a numpy array has no truth value
        raise DataError("prompt must contain at least one token")
    check_token_ids(prompt_tokens, cfg.vocab_size)
    prompt_tokens = [int(t) for t in prompt_tokens]
    check_position(cfg, len(prompt_tokens), "prompt")
    return prompt_tokens


def check_forced(
    forced: dict[int, list[int]], num_paths: int, budget: GenerationBudget, vocab_size: int
) -> None:
    """Each forced script must be keyed by a path index below ``num_paths``,
    fit the body budget and hold ids of a vocab of ``vocab_size``."""
    for index, script in forced.items():
        if index not in range(num_paths) or len(script) > budget.max_path_tokens:
            raise DataError(
                f"forced script for path {index!r} ({len(script)} tokens) does not fit"
                f" paths 0..{num_paths - 1} with a budget of {budget.max_path_tokens}"
            )
        check_token_ids(script, vocab_size)


def check_vocab(cfg: ModelConfig, vocab: Vocab) -> None:
    """The model's vocab must hold every id of the tokenizer's."""
    if cfg.vocab_size < vocab.size:
        raise ConfigError(f"model vocab {cfg.vocab_size} cannot hold tokenizer vocab {vocab.size}")


def _check_donor(donor: GenerationSession, weights, table, prompt_tokens) -> None:
    """A session can reuse ``donor``'s prefilled prompt only when it would
    have computed the same one: same weights, thought table and tokens.
    The prompt's slots depend on nothing else (thought index 0, positions
    1..l_x)."""
    if donor.weights is not weights:
        raise ConfigError("prompt_from session was built on other weights")
    if donor.table is not table:
        raise ConfigError("prompt_from session was built on another thought table")
    if donor.prompt_tokens != prompt_tokens:
        raise ConfigError("prompt_from session has a different prompt")


def draw_rng(seed: int, stream: int, step: int) -> np.random.Generator:
    """Per-draw generator; the stream is a think label or ANSWER_STREAM.

    The reference for every draw's uniform: ``draw_rng(seed, stream,
    step).random()``.  ``_StageUniforms`` takes the same doubles from the
    vectorized kernel ``uniforms``."""
    return np.random.default_rng((seed, stream, step))


def sample_tokens(logits: np.ndarray, sampler: SamplerConfig, draws) -> np.ndarray:
    """Temperature softmax with nucleus truncation over the rows of a
    ``[n, vocab]`` block; row r draws with the uniform ``draws[r]``.

    ``draws`` is n doubles in [0, 1), or a Generator from which n are
    taken (``random(n)``) once every row has been checked.  Greedy mode is
    the rows' argmax (lowest id on ties) and draws nothing.  Each row takes
    the token it takes alone, whatever the other rows hold, and a block
    that cannot be sampled raises the SamplingError of its first such row.

    Per row, in float64: softmax of logits / temperature; the nucleus is
    the smallest probability-sorted prefix whose mass reaches top_p (the
    mass ranked ahead of a token is below top_p), renormalized; the draw
    is the one ``Generator.choice(nucleus, p=renormalized)`` makes, spelled
    out: the uniform searched (``side="right"``) in the normalized
    cumulative sum.  Every row-wise step runs along axis 1 of the block,
    and numpy does each per row as it does on that row alone (reductions
    summing pairwise along the row, cumulative sums in order).  The
    ranking is the default argsort reversed, which is the only descending
    order when no two probabilities tie; a row with ties is ranked by the
    stable descending argsort, the order ``choice`` sees.  The nucleus is
    always a prefix of the ranking: the mass ranked ahead, ``cumsum - p``,
    never falls along it, since each rounded cumulative sum is at least the
    one before and each probability at most the one before.  Its mass is
    summed over the rows of one nucleus size at a time, since a pairwise
    sum depends on its length.
    """
    logits = np.asarray(logits)
    n, vocab = logits.shape
    if not vocab:
        raise SamplingError("all tokens are masked out")
    if sampler.greedy:
        if not np.isfinite(logits).all():
            _reject_row(logits[np.argmin(np.isfinite(logits).all(axis=1))])
        return logits.argmax(axis=1)
    probs = logits.astype(np.float64)
    probs /= sampler.temperature
    if not np.isfinite(probs).all():
        # the first row that is non-finite or whose scaled maximum overflows
        for row, scaled in zip(logits, probs):
            if not np.isfinite(row).all():
                _reject_row(row)
            if not np.isfinite(scaled.max()):
                raise SamplingError(f"logits / temperature {sampler.temperature} overflow float64")
    draws = draws.random(n) if isinstance(draws, np.random.Generator) else np.asarray(draws)
    top = probs.max(axis=1, keepdims=True)
    probs -= top
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)

    order = probs.argsort(axis=1)[:, ::-1]  # descending
    flat = order + np.arange(0, n * vocab, vocab)[:, None] if n > 1 else order
    ranked = probs.ravel()[flat]  # the same for any descending order
    if (ranked[:, 1:] == ranked[:, :-1]).any():
        for r in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)):
            order[r] = (-probs[r]).argsort(kind="stable")
    cdf = np.add.accumulate(ranked, axis=1)
    keep = cdf - ranked < sampler.top_p  # mass ranked ahead of each token
    sizes = keep.sum(axis=1)
    groups = set(sizes.tolist())
    if len(groups) == 1:
        mass = ranked[:, : sizes[0]].sum(axis=1, keepdims=True)
    else:
        mass = np.empty((n, 1))
        for size in groups:
            rows = sizes == size
            mass[rows, 0] = ranked[rows, :size].sum(axis=1)
    # the nucleus's cdf, normalized by its last entry; past the nucleus the
    # row runs on at >= 1.0, above every uniform, so it is never picked
    np.divide(ranked, mass, out=cdf)
    np.add.accumulate(cdf, axis=1, out=cdf)
    rows = np.arange(n)
    cdf /= cdf[rows, sizes - 1, None]
    return order[rows, (cdf > draws[:, None]).argmax(axis=1)]


def _reject_row(row: np.ndarray) -> None:
    if np.isneginf(row).all():
        raise SamplingError("all tokens are masked out")
    raise SamplingError("logits contain non-finite values")


def sample_token(logits: np.ndarray, sampler: SamplerConfig, rng) -> int:
    """One draw: ``sample_tokens`` on ``logits`` as a one-row block.

    Greedy mode never touches ``rng``, which may then be None.  Otherwise
    ``rng`` is the draw's uniform as a one-element array, or a Generator
    that gives one ``rng.random()`` after the row is checked: the token and
    advance ``rng.choice(nucleus, p=renormalized)`` would give.
    """
    return int(sample_tokens(np.asarray(logits).reshape(1, -1), sampler, rng)[0])


class _StageUniforms:
    """A stage's uniforms, keyed (session seed, stream, step).

    ``streams`` holds one stream per row: the paths' think labels in path
    order, or ``[ANSWER_STREAM]``.  The stage's first draw, at step ``s``,
    computes the table of every stream over steps ``s .. last_step`` by
    one ``uniforms`` call; every draw then indexes it.  Entry (row, step)
    is ``draw_rng(seed, streams[row], step).random()``.
    """

    def __init__(self, seed: int, streams: list[int], last_step: int):
        self.seed = seed
        self.streams = streams
        self.last_step = last_step
        self.first = None  # the step of the table's first column
        self.table = None  # [streams, last_step + 1 - first] uniforms

    def take(self, step: int, rows: list[int]) -> np.ndarray:
        """The uniforms of step ``step`` for the streams at ``rows``."""
        if self.table is None:
            self.first = step
            self.table = uniforms(self.seed, self.streams, range(step, self.last_step + 1))
        return self.table[rows, step - self.first]


def _choose(block: np.ndarray, sampler: SamplerConfig, draws, step: int, rows) -> list[int]:
    """The token rule of both stages: the tokens of a ``[n, vocab]`` block
    at ``step``.  Greedy takes each row's argmax (lowest id on ties; a
    forward pass has rejected non-finite logits) and draws nothing;
    otherwise one ``sample_tokens`` call draws row r with the uniform of
    the stage's stream at ``rows[r]``."""
    if sampler.greedy:
        return block.argmax(axis=1).tolist()
    return sample_tokens(block, sampler, draws.take(step, rows)).tolist()


def decode_answer(
    logits: np.ndarray, feed, seed: int, sampler: SamplerConfig, vocab: Vocab, cap: int
) -> list[int]:
    """The answer rule; returns the tokens taken from ``logits`` onward.

    Step s (1-based) takes its token by the token rule that reasoning
    uses (``_choose``, on ``logits`` as a one-row block: the argmax when
    greedy, else the draw with the uniform keyed (seed, ANSWER_STREAM, s)),
    and feeds it through ``feed(token) -> logits``.  Decoding stops after
    ``cap`` tokens, or once SUMMARY_CLOSE or EOS has been fed.
    """
    draws = _StageUniforms(seed, [ANSWER_STREAM], cap)
    answer: list[int] = []
    for step in range(1, cap + 1):
        token = _choose(logits[None], sampler, draws, step, [0])[0]
        answer.append(token)
        logits = feed(token)
        if token in (vocab.summary_close, vocab.eos):
            break
    return answer


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
    and scripted termination schedules).  Every script is checked before
    anything is written: it must be keyed by a path index of the session,
    fit the body budget and hold valid token ids.
    """
    if session.stage != REASONING or any(p.tokens for p in session.paths):
        raise LifecycleError("reasoning stage already consumed")
    strategy = Termination(strategy)
    forced = forced or {}
    check_forced(forced, session.num_paths, budget, session.weights.config.vocab_size)
    slots = budget.max_path_tokens + 2  # opener + body + closer
    assignment = PositionAssignment(SHARED, l_x=session.l_x, l_max=slots)
    check_position(session.weights.config, assignment.base(path_key(0)) + slots, "reasoning")
    positions = assignment.positions(path_key(0), 0, slots)
    owners = [path_key(p.index) for p in session.paths]
    plan = StagePlan(session.cache, owners, session.think_labels, positions)
    session.budget = budget
    session.strategy = strategy
    session.cache.reserve_paths(session.num_paths, slots)
    eos, close = session.vocab.eos, session.vocab.think_close
    threshold = strategy.threshold(session.num_paths)
    draws = _StageUniforms(session.seed, session.think_labels, budget.max_path_tokens)
    # the token each path's next pass feeds, in path order: its opener, its
    # body tokens, then the closer it takes in the pass after it ends
    feed = {p.index: session.vocab.think_open(p.think_label) for p in session.paths}
    completed = step = 0
    while feed:  # pass s feeds body token s (the openers at 0)
        # a path's index is its row among the plan's owners
        rows, tokens = list(feed), list(feed.values())
        completed += tokens.count(eos)
        stop = completed >= threshold or step == budget.max_path_tokens
        cause = "strategy_stop" if completed >= threshold else "budget"
        logits = forward(session.weights, session.table, plan, tokens, rows, step)
        feed, drawn = {}, []
        # a token joins its path only once the pass has succeeded
        for r, (i, token) in enumerate(zip(rows, tokens)):
            path = session.paths[i]
            path.tokens.append(token)
            if session.record_logits:
                path.step_logits.append(logits[r])
            if path.finish_cause:  # that was its closer
                continue
            if token == eos or stop:  # its own EOS, or else the stop
                path.finish_cause = "eos" if token == eos else cause
                feed[i] = close(path.think_label)
            elif step < len(forced.get(i, ())):
                feed[i] = int(forced[i][step])
            else:
                feed[i] = None
                drawn.append(r)
        if drawn:  # path i draws on stream row i
            block = logits if len(drawn) == len(rows) else logits[drawn]
            indices = [rows[r] for r in drawn]
            feed.update(zip(indices, _choose(block, sampler, draws, step + 1, indices)))
        step += 1

    lengths = tuple(len(p.tokens) for p in session.paths)
    session.reasoning_len = max(lengths)
    if strategy is Termination.FIRST_FINISH and len(set(lengths)) != 1:
        raise LifecycleError(f"first_finish produced unequal path lengths {set(lengths)}")
    session.stage = SUMMARIZATION
    session.summary_view = assemble_summary_view(session.cache, LayoutPlan(session.l_x, lengths, 0))
    return session


def run_summarization(session: GenerationSession, sampler: SamplerConfig) -> list[int]:
    """Decode the answer over the reused caches; returns the sampled tokens.

    The engine inserts SUMMARY_OPEN itself.  Decoding stops after the
    session budget's ``max_answer_tokens`` samples (the budget
    ``run_reasoning`` stored) or once SUMMARY_CLOSE or EOS is sampled (the
    terminator is recorded and fed like any other token).  The session
    then reaches its last stage, DONE.
    """
    if session.stage != SUMMARIZATION:
        raise LifecycleError(f"summarization runs at the summarization stage, not {session.stage}")
    vocab, cap = session.vocab, session.budget.max_answer_tokens
    slots = cap + 1  # SUMMARY_OPEN first
    assignment = PositionAssignment(
        SHARED, l_x=session.l_x, l_max=0, reasoning_len=session.reasoning_len
    )
    check_position(session.weights.config, assignment.base(ANSWER) + slots, "answer")
    positions = assignment.positions(ANSWER, 0, slots)
    plan = StagePlan(session.cache, [ANSWER], [0], positions)
    session.cache.reserve(ANSWER, slots)

    def feed(token: int) -> np.ndarray:
        index = len(session.answer_tokens)
        logits = forward(session.weights, session.table, plan, [int(token)], [0], index)[0]
        session.answer_tokens.append(int(token))
        if session.record_logits:
            session.answer_logits.append(logits)
        return logits

    logits = feed(vocab.summary_open)
    sampled = decode_answer(logits, feed, session.seed, sampler, vocab, cap)
    session.stage = DONE
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
    prompt_from: GenerationSession | None = None,
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
        prompt_from=prompt_from,
    )
    run_reasoning(session, sampler, budget, strategy, forced=forced)
    run_summarization(session, sampler)
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
            "model": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
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
