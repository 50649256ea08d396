"""Two-phase attention visibility: one rule, keyed by a slot's segment.

``visible_segments`` is the rule, and a slot's segment alone decides it.
Reasoning: a prompt slot sees the prompt, a slot of path i the prompt
and path i.  Summarization: an answer slot sees the prompt, every path in
index order and the answer prefix.  The re-prefill baseline's flattened
sequence is the prompt of a cache of its own.  The decoder asks the rule
once per stage, when the stage's plan is built (``model.StagePlan``).

A serialized layout numbers slots 0..total-1: prompt, each path in index
order, then the answer.  Query t sees slot j iff j <= t (generation
order, self-inclusive; rotary positions play no role) and the rule lets
t's owner segment see j's segment.  Nothing here needs the paths to be
equally long.  ``AttentionMask`` holds this in O(N) memory (slot segment
codes, row owner codes, the rule as a (P+2)x(P+2) table built once per
P) and builds the dense N x N matrix only on request.  Path i owns every
row of its reasoning mask, the answer every row of the summary mask, and
each row of a training layout is owned by its own segment.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LayoutError
from .positional import ANSWER, PROMPT, is_path, path_key


def visible_segments(segment: str, num_paths: int) -> tuple[str, ...]:
    """Segments a slot of ``segment`` attends over, in layout order."""
    if segment == PROMPT:
        return (PROMPT,)
    if is_path(segment):
        return (PROMPT, segment)
    if segment == ANSWER:
        return (PROMPT, *(path_key(i) for i in range(num_paths)), ANSWER)
    raise LayoutError(f"{segment!r} is not the prompt, a path or the answer")


@dataclass(frozen=True)
class LayoutPlan:
    """Prompt/path/answer index ranges for one serialized sequence; the
    paths may be of any lengths."""

    l_x: int
    path_lengths: tuple[int, ...]
    answer_length: int

    def __post_init__(self):
        if self.l_x < 1:
            raise LayoutError("prompt must contain at least one slot")
        if not self.path_lengths:
            raise LayoutError("layout needs at least one path")
        if any(n < 1 for n in self.path_lengths):
            raise LayoutError("every path needs at least one slot")
        if self.answer_length < 0:
            raise LayoutError("answer length must be non-negative")

    @property
    def num_paths(self) -> int:
        return len(self.path_lengths)

    @property
    def total_slots(self) -> int:
        return self.l_x + sum(self.path_lengths) + self.answer_length

    def prompt_slots(self) -> range:
        return range(0, self.l_x)

    def path_slots(self, i: int) -> range:
        if not 0 <= i < self.num_paths:
            raise IndexError(f"path {i} out of range [0, {self.num_paths})")
        start = self.l_x + sum(self.path_lengths[:i])
        return range(start, start + self.path_lengths[i])

    def answer_slots(self) -> range:
        start = self.l_x + sum(self.path_lengths)
        return range(start, start + self.answer_length)

    def segment_codes(self) -> np.ndarray:
        """Each slot's segment code: 0 prompt, 1 + i path i, P + 1 answer."""
        lengths = (self.l_x, *self.path_lengths, self.answer_length)
        return np.repeat(np.arange(len(lengths)), lengths)


@lru_cache(maxsize=64)
def allowed_table(num_paths: int) -> np.ndarray:
    """The rule as a read-only [P+2, P+2] table: allowed[a, b] when segment
    code a sees code b.  The answer sees every segment, so its list is the
    codes' order.  It depends on P alone, so it is built once per P and
    shared."""
    keys = visible_segments(ANSWER, num_paths)
    table = np.array([[seen in visible_segments(k, num_paths) for seen in keys] for k in keys])
    table.flags.writeable = False
    return table


class AttentionMask:
    """Visibility of a serialized layout; rows are queries, columns keys.

    Row t sees slot j iff j <= t and ``allowed[owner[t], segment[j]]``,
    with ``segment`` the layout's slot codes and ``owner`` one code for
    every row or one per row.
    """

    def __init__(self, layout: LayoutPlan, owner):
        self.segment = layout.segment_codes()
        self.owner = np.broadcast_to(owner, self.segment.shape)
        self.allowed = allowed_table(layout.num_paths)

    @property
    def size(self) -> int:
        return len(self.segment)

    @property
    def visible(self) -> np.ndarray:
        """Dense [N, N] boolean matrix, built on request."""
        out = self.allowed[self.owner[:, None], self.segment[None, :]]
        out &= np.tri(self.size, dtype=bool)
        return out

    def visible_set(self, t: int) -> list[int]:
        """Slots visible to the query at slot t."""
        if not 0 <= t < self.size:
            raise IndexError(f"slot {t} out of range [0, {self.size})")
        row = self.allowed[self.owner[t], self.segment[: t + 1]]
        return [int(j) for j in np.flatnonzero(row)]


def build_reasoning_mask(layout: LayoutPlan, path: int) -> AttentionMask:
    """Mask decoded against during path ``path``'s reasoning phase."""
    if not 0 <= path < layout.num_paths:
        raise IndexError(f"path {path} out of range [0, {layout.num_paths})")
    return AttentionMask(layout, 1 + path)


def build_summary_mask(layout: LayoutPlan) -> AttentionMask:
    """Mask decoded against while generating the answer."""
    if layout.answer_length < 1:
        raise LayoutError("summary mask requires a non-empty answer range")
    return AttentionMask(layout, layout.num_paths + 1)

