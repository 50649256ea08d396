"""SFT sample construction for parallel-path training data.

A sample serializes P̂ teacher reasoning paths plus the groundtruth
answer as

    THINK_OPEN(i1) r1 THINK_CLOSE(i1) ... THINK_OPEN(iP) rP THINK_CLOSE(iP)
    SUMMARY_OPEN a SUMMARY_CLOSE

with distinct, randomly drawn think labels i1..iP so the special tokens
generalize beyond the path counts seen in any one sample.  Path and
answer text is byte-encoded (never markup-parsed), so body text cannot
inject control tokens.

Input records are JSONL lines {"format": "ptsft-1", "query", "answer",
"paths": [...]}; emitted training records are JSONL lines
{"format": "ptsft-1", "tokens", "loss_mask", "segments", "P", "seed"}.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, LayoutError
from .masking import REASONING, AttentionMask, LayoutPlan
# perfbench/instrument.py wraps these two by name in this module's namespace
from .masking import build_reasoning_mask, build_summary_mask  # noqa: F401
from .positional import ANSWER, PROMPT, SHARED, PositionAssignment, path_key
from .tokenizer import Vocab, encode, sample_think_tokens

SCHEMA_FORMAT = "ptsft-1"
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
        if not self.query:
            raise DataError("problem query must be non-empty")
        if not self.answer:
            raise DataError("problem groundtruth answer must be non-empty")
        if not self.paths:
            raise DataError("problem needs at least one candidate path")


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
    rng = np.random.default_rng(seed)
    if p_hat is None:
        p_hat = int(rng.choice(DEFAULT_PATH_COUNTS))
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

    tokens: list[int] = []
    for label, body in zip(labels, chosen):
        tokens.append(vocab.think_open(label))
        tokens.extend(encode(body, vocab, markup=False))
        tokens.append(vocab.think_close(label))
    tokens.append(vocab.summary_open)
    tokens.extend(encode(answer_text, vocab, markup=False))
    tokens.append(vocab.summary_close)

    sample = SFTSample(
        query=problem.query,
        chosen_paths=chosen,
        think_labels=labels,
        answer_text=answer_text,
        tokens=tuple(tokens),
        p_hat=p_hat,
        seed=seed,
    )
    parsed = parse_sample(sample.tokens, vocab)  # grammar self-check
    if len(parsed.paths) != p_hat:
        raise FormatError("serialized sample does not round-trip")
    return sample


def parse_sample(tokens, vocab: Vocab) -> ParsedSample:
    """Inverse of the serialization; rejects malformed nesting."""
    tokens = [int(t) for t in tokens]
    pos = 0
    n = len(tokens)
    paths: list[tuple[int, tuple[int, ...]]] = []
    seen_labels: set[int] = set()

    # THINK_OPEN, THINK_CLOSE, SUMMARY_OPEN and SUMMARY_CLOSE are the ids
    # [base_size, eos); a body may hold EOS and PAD (an engine path that
    # stops on EOS serializes as ... EOS THINK_CLOSE)
    control_lo, control_hi = vocab.base_size, vocab.eos

    while pos < n:
        label = vocab.think_open_label(tokens[pos])
        if label is None:
            break
        if label in seen_labels:
            raise FormatError(f"think label {label} used twice", offset=pos)
        seen_labels.add(label)
        close_id = vocab.think_close(label)
        pos += 1
        body: list[int] = []
        while pos < n and tokens[pos] != close_id:
            if control_lo <= tokens[pos] < control_hi:
                raise FormatError(
                    f"unexpected control token inside path {label}", offset=pos
                )
            body.append(tokens[pos])
            pos += 1
        if pos >= n:
            raise FormatError(f"path {label} is never closed", offset=n)
        pos += 1  # consume the closer
        paths.append((label, tuple(body)))

    if not paths:
        raise FormatError("sample contains no reasoning paths", offset=pos)
    if pos >= n or tokens[pos] != vocab.summary_open:
        raise FormatError("expected summary opener after the paths", offset=pos)
    pos += 1
    answer: list[int] = []
    while pos < n and tokens[pos] != vocab.summary_close:
        if control_lo <= tokens[pos] < control_hi:
            raise FormatError("unexpected control token inside the summary", offset=pos)
        answer.append(tokens[pos])
        pos += 1
    if pos >= n:
        raise FormatError("summary is never closed", offset=n)
    pos += 1
    if pos != n:
        raise FormatError("trailing tokens after the summary closer", offset=pos)
    return ParsedSample(
        paths=tuple(paths), answer=tuple(answer), empty_answer=not answer
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

    Path segments are padded with PAD to the longest segment so slots line
    up with synchronized decoding; pads carry no loss.  Each row follows
    its own segment's visibility rule: path rows that path's reasoning
    mask, answer rows the summarization mask, so answer rows see the PAD
    slots of shorter paths and path rows never see another path's slots
    or pads.  Positions follow the shared scheme (the t-th token of every
    path gets the same position); like the thought indices, they are
    built one segment range at a time (``PositionAssignment.positions``).
    """
    parsed = parse_sample(sample.tokens, vocab)
    prompt_ids = encode(sample.query, vocab, markup=False)
    l_x = len(prompt_ids)
    l_seg = max(len(body) + 2 for _, body in parsed.paths)

    tokens: list[int] = list(prompt_ids)
    loss: list[int] = [0] * l_x
    segments: list[dict] = [{"kind": "prompt", "start": 0, "length": l_x}]
    for label, body in parsed.paths:
        segments.append(
            {"kind": "path", "label": label, "start": len(tokens), "length": l_seg}
        )
        pad_count = l_seg - len(body) - 2
        tokens.extend([vocab.think_open(label), *body, vocab.think_close(label)])
        tokens.extend([vocab.pad] * pad_count)
        loss.extend([0] + [1] * len(body) + [1] + [0] * pad_count)
    answer_len = len(parsed.answer) + 2
    segments.append({"kind": "answer", "start": len(tokens), "length": answer_len})
    tokens.extend([vocab.summary_open, *parsed.answer, vocab.summary_close])
    loss.extend([0] + [1] * len(parsed.answer) + [1])

    if len(tokens) > max_context:
        raise LayoutError(
            f"serialized length {len(tokens)} exceeds context limit {max_context}"
        )

    num_paths = len(parsed.paths)
    plan = LayoutPlan(
        l_x=l_x,
        path_lengths=(l_seg,) * num_paths,
        answer_length=answer_len,
        stage=REASONING,
    )
    assignment = PositionAssignment(
        SHARED, l_x=l_x, l_max=l_seg, num_paths=num_paths, reasoning_len=l_seg
    )
    keys = (PROMPT, *(path_key(i) for i in range(num_paths)), ANSWER)
    lengths = (l_x, *plan.path_lengths, answer_len)
    thoughts = [0, *(label for label, _ in parsed.paths), 0]  # one per segment

    return TrainingLayout(
        tokens=np.asarray(tokens, dtype=np.int64),
        positions=np.concatenate(
            [assignment.positions(seg, 0, n) for seg, n in zip(keys, lengths)]
        ),
        thought_indices=np.repeat(np.array(thoughts, dtype=np.int64), lengths),
        loss_mask=np.asarray(loss, dtype=np.int64),
        segments=tuple(segments),
        layout=plan,
        mask=AttentionMask(plan, plan.segment_codes()),
    )


def problem_from_record(record: dict) -> RawProblem:
    if record.get("format") != SCHEMA_FORMAT:
        raise DataError(
            f"problem record format {record.get('format')!r} != {SCHEMA_FORMAT!r}"
        )
    try:
        return RawProblem(
            query=record["query"],
            answer=record["answer"],
            paths=tuple(record["paths"]),
        )
    except KeyError as exc:
        raise DataError(f"problem record missing field {exc}") from exc


def read_problems(path: str) -> list[RawProblem]:
    problems = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc
            problems.append(problem_from_record(record))
    return problems


def training_record(sample: SFTSample, layout: TrainingLayout) -> dict:
    return {
        "format": SCHEMA_FORMAT,
        "tokens": [int(t) for t in layout.tokens],
        "loss_mask": [int(b) for b in layout.loss_mask],
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
        "format": SCHEMA_FORMAT,
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
