"""SFT sample construction for parallel-path training data.

A sample serializes P̂ teacher reasoning paths plus the groundtruth
answer as

    THINK_OPEN(i1) r1 THINK_CLOSE(i1) ... THINK_OPEN(iP) rP THINK_CLOSE(iP)
    SUMMARY_OPEN a SUMMARY_CLOSE

with distinct, randomly drawn think labels i1..iP so the special tokens
generalize beyond the path counts seen in any one sample.  Path and
answer text is byte-encoded (never markup-parsed), so body text cannot
inject control tokens.

A sample is serialized once, straight into one int64 array (each body's
UTF-8 bytes between its control ids), and parsed once: the parser finds
the control tokens with one array comparison and walks only their
positions.  ``build_sample`` keeps that parse, and ``training_layout``
lays the record out from it: the prompt's byte ids, then that array as it
is, each path at its real length (no PAD), rather than converting or
parsing the tokens again.

Input records are JSONL lines {"format": "ptsft-1", "query", "answer",
"paths": [...]}; emitted training records are JSONL lines
{"format": "ptsft-2", "tokens", "loss_mask", "segments", "P", "seed"}.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, LayoutError
from .masking import AttentionMask, LayoutPlan
# perfbench/instrument.py wraps these two by name in this module's namespace
from .masking import build_reasoning_mask, build_summary_mask  # noqa: F401
from .positional import ANSWER, PROMPT, SHARED, PositionAssignment, path_key
from .tokenizer import Vocab, encode, is_token_int, read_text, sample_think_tokens

SCHEMA_FORMAT = "ptsft-1"  # input problem records
RECORD_FORMAT = "ptsft-2"  # emitted training records and their manifest
MAX_CONTEXT_TOKENS = 28672
DEFAULT_PATH_COUNTS = (2, 4, 6)
DEFAULT_ANSWER_TEMPLATE = "Based on the parallel reasoning above, the final answer is: {answer}"

# Teacher-side sampling defaults recorded with emitted datasets; this
# pipeline consumes pre-sampled path files and never calls a teacher.
TEACHER_DEFAULTS = {"temperature": 0.8, "paths_per_problem": 6}


@dataclass(frozen=True)
class RawProblem:
    query: str
    answer: str
    paths: tuple[str, ...]

    def __post_init__(self):
        for name, value in (("query", self.query), ("answer", self.answer)):
            if not isinstance(value, str):
                raise DataError(f"problem {name} must be a string, got {type(value).__name__}")
        if not self.query:
            raise DataError("problem query must be non-empty")
        if not self.answer:
            raise DataError("problem groundtruth answer must be non-empty")
        if not self.paths:
            raise DataError("problem needs at least one candidate path")
        for i, path in enumerate(self.paths):
            if not isinstance(path, str):
                raise DataError(f"problem path {i} must be a string, got {type(path).__name__}")
        texts = {"query": self.query, "answer": self.answer}
        texts.update((f"path {i}", path) for i, path in enumerate(self.paths))
        for name, text in texts.items():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate, such as "\udcff"
                raise DataError(f"problem {name} is not UTF-8 text") from exc


@dataclass(frozen=True)
class SFTSample:
    query: str
    chosen_paths: tuple[str, ...]
    think_labels: tuple[int, ...]
    answer_text: str
    tokens: tuple[int, ...]  # serialized target, prompt excluded
    p_hat: int
    seed: int


@dataclass(frozen=True)
class ParsedSample:
    paths: tuple[tuple[int, tuple[int, ...]], ...]  # (think label, body tokens)
    answer: tuple[int, ...]
    empty_answer: bool


def build_sample(
    problem: RawProblem,
    vocab: Vocab,
    p_hat: int | None = None,
    seed: int = 0,
    template: str | None = DEFAULT_ANSWER_TEMPLATE,
) -> SFTSample:
    """Pick P̂ paths without replacement, assign labels, and serialize.

    With p_hat=None the path count is drawn uniformly from {2, 4, 6}.
    The summary body is the groundtruth answer, wrapped in ``template``
    when one is given.
    """
    if p_hat is not None and not is_token_int(p_hat):
        raise DataError(f"p_hat must be an integer, got {p_hat!r}")
    if not is_token_int(seed) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    rng = np.random.default_rng(seed)
    p_hat = int(rng.choice(DEFAULT_PATH_COUNTS)) if p_hat is None else int(p_hat)
    if p_hat < 1:
        raise DataError("p_hat must be at least 1")
    if p_hat > len(problem.paths):
        raise DataError(
            f"problem has {len(problem.paths)} candidate paths, need {p_hat}"
        )
    if p_hat > vocab.p_max:
        raise DataError(f"p_hat {p_hat} exceeds vocab p_max {vocab.p_max}")
    order = rng.permutation(len(problem.paths))[:p_hat]
    chosen = tuple(problem.paths[int(i)] for i in order)
    labels = tuple(
        sample_think_tokens(p_hat, vocab.p_max, seed=int(rng.integers(0, 2**63)))
    )
    answer_text = template.format(answer=problem.answer) if template else problem.answer

    parts: list = []
    for label, body in zip(labels, chosen):
        parts += [(vocab.think_open(label),), _utf8(body), (vocab.think_close(label),)]
    parts += [(vocab.summary_open,), _utf8(answer_text), (vocab.summary_close,)]
    ids = np.concatenate(parts, dtype=np.int64)

    sample = SFTSample(
        query=problem.query,
        chosen_paths=chosen,
        think_labels=labels,
        answer_text=answer_text,
        tokens=tuple(ids.tolist()),
        p_hat=p_hat,
        seed=seed,
    )
    if len(_sample_spans(sample.tokens, vocab, ids).labels) != p_hat:  # grammar self-check
        raise FormatError("serialized sample does not round-trip")
    return sample


def _utf8(text: str) -> np.ndarray:
    """``encode(text, vocab)`` (raw bytes, no markup) as a uint8 array."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


@dataclass(frozen=True)
class _Spans:
    """Where the parts of a serialized sample sit in its ids.

    ``bodies[k]`` is the ``(start, end)`` of path k's body, so its opener
    is at ``start - 1`` and its closer at ``end``; ``answer`` likewise
    brackets the summary body.
    """

    ids: np.ndarray  # int64, every id in [0, vocab.size)
    labels: tuple[int, ...]
    bodies: tuple[tuple[int, int], ...]
    answer: tuple[int, int]


def _as_ids(tokens) -> np.ndarray:
    """``tokens`` as a new int64 array (an object array if an id is past int64)."""
    try:
        return np.fromiter(tokens, dtype=np.int64)
    except OverflowError:  # an id past int64, compared below as Python ints
        return np.array([int(t) for t in tokens], dtype=object)


def _spans(ids: np.ndarray, vocab: Vocab) -> _Spans:
    """Checks that ``ids`` lie in the vocabulary and follow the sample
    grammar, and finds their spans.

    THINK_OPEN, THINK_CLOSE, SUMMARY_OPEN and SUMMARY_CLOSE are the ids
    [base_size, eos); a body may hold any other id, EOS and PAD included
    (an engine path that stops on EOS serializes as ... EOS THINK_CLOSE).
    So one array comparison finds every control token, and the walk visits
    only those: O(P̂) steps in Python, however long the bodies are.
    """
    outside = (ids < 0) | (ids >= vocab.size)
    if outside.any():
        pos = int(np.argmax(outside))
        raise FormatError(
            f"token id {ids[pos]} outside the vocabulary [0, {vocab.size})", offset=pos
        )
    n = len(ids)
    control = np.flatnonzero((ids >= vocab.base_size) & (ids < vocab.eos)).tolist()
    values = ids[control].tolist()
    # k indexes the first control token at or after pos; the one after a
    # path's opener must be its closer, and the one after the summary
    # opener the summary closer
    k = 0
    pos = 0
    labels: list[int] = []
    bodies: list[tuple[int, int]] = []

    while pos < n:
        label = vocab.think_open_label(int(ids[pos]))
        if label is None:
            break
        if label in labels:
            raise FormatError(f"think label {label} used twice", offset=pos)
        k += 1
        if k == len(control):
            raise FormatError(f"path {label} is never closed", offset=n)
        if values[k] != vocab.think_close(label):
            raise FormatError(
                f"unexpected control token inside path {label}", offset=control[k]
            )
        labels.append(label)
        bodies.append((pos + 1, control[k]))
        pos = control[k] + 1
        k += 1

    if not labels:
        raise FormatError("sample contains no reasoning paths", offset=pos)
    if pos >= n or ids[pos] != vocab.summary_open:
        raise FormatError("expected summary opener after the paths", offset=pos)
    k += 1
    if k == len(control):
        raise FormatError("summary is never closed", offset=n)
    if values[k] != vocab.summary_close:
        raise FormatError("unexpected control token inside the summary", offset=control[k])
    answer = (pos + 1, control[k])
    pos = control[k] + 1
    if pos != n:
        raise FormatError("trailing tokens after the summary closer", offset=pos)
    return _Spans(ids, tuple(labels), tuple(bodies), answer)


# The last parse of a sample's tokens, as (tokens, vocab, spans):
# build_sample keeps its self-check's parse here and training_layout reads
# it back, so a record is parsed once.  The entry holds its tokens tuple, so
# no other tuple can take that tuple's id while the entry stands.
_last_parse: tuple[tuple, Vocab, _Spans] | None = None


def _sample_spans(tokens: tuple, vocab: Vocab, ids: np.ndarray | None = None) -> _Spans:
    """The spans of a sample's ``tokens``, given as ``ids`` too when the
    caller already holds them as an int64 array.

    The kept parse answers when ``tokens`` is the very tuple it parsed and
    ``vocab`` equals its vocabulary; any other tuple is parsed afresh and
    becomes the kept parse.
    """
    global _last_parse
    last = _last_parse
    if last is not None and last[0] is tokens and last[1] == vocab:
        return last[2]
    spans = _spans(_as_ids(tokens) if ids is None else ids, vocab)
    spans.ids.flags.writeable = False
    _last_parse = (tokens, vocab, spans)
    return spans


def parse_sample(tokens, vocab: Vocab) -> ParsedSample:
    """Inverse of the serialization; rejects ids that are not integers
    (``is_token_int``), then ids outside the vocabulary, then malformed
    nesting.

    ``build_sample``'s self-check and ``training_layout`` read the ids
    that ``build_sample`` wrote, so they skip the integer check; this
    parse is the caller's own and is never kept."""
    for offset, token in enumerate(tokens):
        # the common case skips the slower isinstance checks
        if type(token) is not int and not is_token_int(token):
            raise FormatError(f"token id {token!r} is not an integer", offset=offset)
    spans = _spans(_as_ids(tokens), vocab)
    ids = spans.ids
    start, end = spans.answer
    answer = tuple(ids[start:end].tolist())
    return ParsedSample(
        paths=tuple(
            (label, tuple(ids[start:end].tolist()))
            for label, (start, end) in zip(spans.labels, spans.bodies)
        ),
        answer=answer,
        empty_answer=not answer,
    )


@dataclass(frozen=True)
class TrainingLayout:
    tokens: np.ndarray
    positions: np.ndarray
    thought_indices: np.ndarray
    loss_mask: np.ndarray
    segments: tuple[dict, ...]
    layout: LayoutPlan
    mask: AttentionMask


def training_layout(
    sample: SFTSample, vocab: Vocab, max_context: int = MAX_CONTEXT_TOKENS
) -> TrainingLayout:
    """Serialized training sequence with its mask, positions, and loss mask.

    The record is the prompt's byte ids followed by the sample's own ids,
    unchanged: path i's segment is its ``[opener ... closer]`` span at its
    real length, and the answer segment follows the last closer.  No slot
    is padded, so ``max_context`` counts real slots.  The loss mask is 1
    everywhere except the prompt and each segment's opener, which the
    engine writes itself.  Each row follows its own segment's visibility
    rule: path rows that path's reasoning mask, answer rows the
    summarization mask, so answer rows see every path's slots and path
    rows never see another path's.  Positions follow the shared scheme:
    path i's t-th slot sits at l_x + t, and the answer comes after the
    longest path, where ``engine.run_summarization`` puts it; like the
    thought indices, they are built one segment range at a time
    (``PositionAssignment.positions``).
    """
    spans = _sample_spans(sample.tokens, vocab)
    prompt_ids = np.asarray(encode(sample.query, vocab, markup=False), dtype=np.int64)
    l_x = len(prompt_ids)
    total = l_x + len(spans.ids)
    if total > max_context:
        raise LayoutError(
            f"serialized length {total} exceeds context limit {max_context}"
        )

    # a segment is its span [start - 1, end] of the ids: opener, body, closer
    ranges = (*spans.bodies, spans.answer)
    starts = [l_x + start - 1 for start, _ in ranges]
    lengths = (l_x, *(end - start + 2 for start, end in ranges))
    segments = [{"kind": "prompt", "start": 0, "length": l_x}]
    segments += [
        {"kind": "path", "label": label, "start": at, "length": n}
        for label, at, n in zip(spans.labels, starts, lengths[1:])
    ]
    segments.append({"kind": "answer", "start": starts[-1], "length": lengths[-1]})
    loss = np.ones(total, dtype=np.int64)
    loss[:l_x] = 0
    loss[starts] = 0  # each opener

    plan = LayoutPlan(l_x=l_x, path_lengths=lengths[1:-1], answer_length=lengths[-1])
    l_max = max(plan.path_lengths)
    assignment = PositionAssignment(SHARED, l_x=l_x, l_max=l_max, reasoning_len=l_max)
    keys = (PROMPT, *(path_key(i) for i in range(plan.num_paths)), ANSWER)
    thoughts = [0, *spans.labels, 0]  # one per segment

    return TrainingLayout(
        tokens=np.concatenate([prompt_ids, spans.ids]),
        positions=np.concatenate(
            [assignment.positions(seg, 0, n) for seg, n in zip(keys, lengths)]
        ),
        thought_indices=np.repeat(np.array(thoughts, dtype=np.int64), lengths),
        loss_mask=loss,
        segments=tuple(segments),
        layout=plan,
        mask=AttentionMask(plan),
    )


def problem_from_record(record: dict) -> RawProblem:
    if not isinstance(record, dict):
        raise DataError(f"problem record must be a JSON object, got {type(record).__name__}")
    if record.get("format") != SCHEMA_FORMAT:
        raise DataError(
            f"problem record format {record.get('format')!r} != {SCHEMA_FORMAT!r}"
        )
    try:
        query, answer, paths = record["query"], record["answer"], record["paths"]
    except KeyError as exc:
        raise DataError(f"problem record missing field {exc}") from exc
    if not isinstance(paths, list):
        raise DataError(f"problem paths must be a list of strings, got {type(paths).__name__}")
    return RawProblem(query=query, answer=answer, paths=tuple(paths))


def read_problems(path: str) -> list[RawProblem]:
    problems = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            problems.append(problem_from_record(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc
        except DataError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
    return problems


def training_record(sample: SFTSample, layout: TrainingLayout) -> dict:
    return {
        "format": RECORD_FORMAT,
        "tokens": layout.tokens.tolist(),
        "loss_mask": layout.loss_mask.tolist(),
        "segments": list(layout.segments),
        "P": sample.p_hat,
        "seed": sample.seed,
    }


def dataset_manifest(sample_count: int, seed: int, vocab: Vocab) -> dict:
    """Ingestion metadata emitted next to a dataset.

    The teacher block records the sampling configuration the candidate
    paths are expected to come from; this pipeline only consumes them.
    """
    return {
        "format": RECORD_FORMAT,
        "samples": sample_count,
        "seed": seed,
        "p_max": vocab.p_max,
        "path_count_choices": list(DEFAULT_PATH_COUNTS),
        "max_context_tokens": MAX_CONTEXT_TOKENS,
        "teacher": dict(TEACHER_DEFAULTS),
    }


def write_training_records(records, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
