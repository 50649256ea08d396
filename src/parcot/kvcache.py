"""Contiguous per-segment KV storage with zero-copy summary views.

Each appended slot stores the augmented key/value stacks for every layer
(thought embedding folded in, key rotated), plus the slot's absolute
position and thought index.  Every segment's final size is known when its
stage starts, so a session reserves each segment's storage once: the
prompt when the session is created, the ``P`` reasoning paths as the rows
of one ``[L, P, B+2, H, d_k]`` slab when reasoning starts, and the answer
when summarization starts; writing an unreserved segment raises.

Every write goes through one protocol (``PagedKVCache.rows``): a forward
pass stages its new slots past the committed ones and commits them after
its logits.  Entries are append-only: a written slot is never mutated,
which is what makes reusing reasoning-phase storage as the summarization
context exact.

Every read for attention goes through one call too
(``PagedKVCache.parts``): it turns a pass's visible segments into
attention parts.  A segment is one part, a view of its written slots.
When the visible segments hold every row of the path slab, as an answer
slot's do, and the rows are equally long (always so under first finish),
the rows are one part instead: slots ``[0, filled)`` of every row of the
layer's slab, read in place.  That is one ``[P·(B+2), H, d_k]`` reshape
when the rows are full, else the ``[P, filled, H, d_k]`` strided view,
scored as ``P`` groups of one part.  An answer token then scores three
parts per layer (prompt, slab, answer) whatever ``P`` is, and no slot
past a row's end is scored.  Rows of unequal length (half or last
finish) stay one part each.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import CacheConsistencyError, LifecycleError
from .masking import SUMMARIZATION, LayoutPlan, visible_segments
from .positional import ANSWER, PROMPT, path_key

@dataclass(frozen=True)
class SlotAddress:
    segment: str
    index: int


class Slab:
    """Storage for ``rows`` segments of equal capacity.

    k and v are [n_layers, rows, capacity, n_heads, d_k]; positions and
    thought indices are [rows, capacity].
    """

    def __init__(self, n_layers: int, rows: int, capacity: int, n_heads: int, d_k: int):
        shape = (n_layers, rows, capacity, n_heads, d_k)
        self.k = np.zeros(shape, dtype=np.float32)
        self.v = np.zeros(shape, dtype=np.float32)
        self.positions = np.zeros((rows, capacity), dtype=np.int64)
        self.thoughts = np.zeros((rows, capacity), dtype=np.int64)

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    def prefix(self, layer: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """(K, V) of slots [0, end) of every row at one layer, in row
        order; views.  [rows·end, n_heads, d_k] when that is a view (``end``
        is the capacity, or there is one row), else [1, rows, end, n_heads,
        d_k], the rows as groups of one part (``model.attend``)."""
        k, v = self.k[layer, :, :end], self.v[layer, :, :end]
        if end == self.capacity or len(k) == 1:
            return k.reshape(-1, *k.shape[2:]), v.reshape(-1, *v.shape[2:])
        return k[None], v[None]


class Segment:
    """One segment's slots: row ``row`` of a slab, written in order."""

    def __init__(self, owner: str, slab: Slab, row: int = 0):
        self.owner = owner
        self.slab = slab
        self.row = row
        self.filled = 0

    def keys(self, layer: int) -> np.ndarray:
        """Keys of the written slots at one layer, [filled, n_heads, d_k]; a view."""
        return self.slab.k[layer, self.row, : self.filled]

    def values(self, layer: int) -> np.ndarray:
        return self.slab.v[layer, self.row, : self.filled]

    def read(self, index: int) -> tuple[np.ndarray, np.ndarray, int, int]:
        if not 0 <= index < self.filled:
            raise CacheConsistencyError(
                f"segment {self.owner!r} has {self.filled} slots, asked for {index}"
            )
        s = self.slab
        return (
            s.k[:, self.row, index],
            s.v[:, self.row, index],
            int(s.positions[self.row, index]),
            int(s.thoughts[self.row, index]),
        )

    def positions(self) -> np.ndarray:
        return self.slab.positions[self.row, : self.filled]

    def content_hash(self) -> str:
        s, r, n = self.slab, self.row, self.filled
        h = hashlib.sha256()
        for part in (s.k[:, r, :n], s.v[:, r, :n], s.positions[r, :n], s.thoughts[r, :n]):
            h.update(np.ascontiguousarray(part).tobytes())
        return h.hexdigest()


class Rows:
    """``n`` new slots of each of several equally long segments of one slab.

    A forward pass stages each layer's k/v past the committed slots, reads
    them back while it computes, and commits them once its logits exist;
    until then no reader (``length``, ``gather``, a summary view) sees
    them, so a pass that raises leaves every segment as it was.
    """

    def __init__(self, slab: Slab, rows, segments: list[Segment], n: int):
        self.slab = slab
        self.rows = rows  # a slice when the rows are consecutive, else a list
        self.segments = segments
        self.start = segments[0].filled  # committed slots of every segment
        self.n = n

    def stage(self, layer: int, offset: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store one layer's k/v [rows, m, n_heads, d_k] at the new slots
        offset..offset+m."""
        if not 0 <= offset <= offset + k.shape[1] <= self.n:
            raise CacheConsistencyError(
                f"cannot stage slots {offset}..{offset + k.shape[1]} of {self.n} new ones"
            )
        at = slice(self.start + offset, self.start + offset + k.shape[1])
        self.slab.k[layer, self.rows, at] = k
        self.slab.v[layer, self.rows, at] = v

    def keys(self, layer: int, end: int) -> np.ndarray:
        """Keys of slots [0, end) at one layer, staged ones included,
        [rows, end, n_heads, d_k]: a view when the rows are consecutive
        (every row of the slab in order, or one row), else a copy."""
        return self.slab.k[layer, self.rows, :end]

    def values(self, layer: int, end: int) -> np.ndarray:
        return self.slab.v[layer, self.rows, :end]

    def commit(self, positions, thoughts) -> None:
        """The staged slots become written slots.

        ``positions`` holds one position for every new slot or one per
        slot (shared by the rows); ``thoughts`` one thought index for every
        row or one per row (shared by the slots).
        """
        positions, thoughts = np.asarray(positions), np.asarray(thoughts)
        if positions.shape not in ((), (self.n,)) or thoughts.shape not in (
            (), (len(self.segments),)
        ):
            raise CacheConsistencyError(
                f"commit of {self.n} slots x {len(self.segments)} rows got positions"
                f" {positions.shape} and thoughts {thoughts.shape}"
            )
        if any(seg.filled != self.start for seg in self.segments):
            raise CacheConsistencyError("segments were written since their rows were taken")
        at = slice(self.start, self.start + self.n)
        self.slab.positions[self.rows, at] = positions
        self.slab.thoughts[self.rows, at] = thoughts.reshape(-1, 1)
        for seg in self.segments:
            seg.filled += self.n


class PagedKVCache:
    """Per-segment contiguous storage; the reasoning paths share one slab.

    The class keeps the name it had when storage was paged in fixed-size
    blocks, because outside instrumentation looks it up by that name.
    """

    def __init__(self, n_layers: int, n_heads: int, d_k: int):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_k = d_k
        self.tables: dict[str, Segment] = {}
        self.paths: Slab | None = None  # the path slab, once reserved

    def _slab(self, rows: int, capacity: int) -> Slab:
        return Slab(self.n_layers, rows, capacity, self.n_heads, self.d_k)

    def table(self, segment: str) -> Segment:
        """The segment; one that was never reserved has no storage."""
        seg = self.tables.get(segment)
        if seg is None:
            seg = Segment(segment, self._slab(1, 0))
            self.tables[segment] = seg
        return seg

    def reserve(self, segment: str, capacity: int) -> Segment:
        """Fixed storage for a segment that holds nothing yet.

        An existing empty segment keeps its identity (a summary view may
        already hold it) and receives the new storage.
        """
        seg = self.table(segment)
        if seg.filled:
            raise LifecycleError(f"segment {segment!r} already holds {seg.filled} slots")
        seg.slab, seg.row = self._slab(1, capacity), 0
        return seg

    def reserve_paths(self, num_paths: int, capacity: int) -> Slab:
        """Path segments 0..num_paths-1 become the rows of one slab."""
        if self.paths is not None or any(
            self.length(path_key(i)) for i in range(num_paths)
        ):
            raise LifecycleError("path storage is already in use")
        slab = self._slab(num_paths, capacity)
        for i in range(num_paths):
            seg = self.table(path_key(i))
            seg.slab, seg.row = slab, i
        self.paths = slab
        return slab

    def length(self, segment: str) -> int:
        seg = self.tables.get(segment)
        return seg.filled if seg is not None else 0

    def rows(self, segments, n: int) -> Rows:
        """Write handle for ``n`` new slots of each of ``segments``.

        Checks everything before anything is written: the segments are
        distinct, share one slab, hold equally many slots, and have room
        for ``n`` more in their reserved storage.
        """
        segs = [self.tables.get(name) for name in segments]
        if not segs or n < 1 or len(set(segments)) != len(segs):
            raise CacheConsistencyError(f"cannot write {n} slots to segments {segments}")
        for name, seg in zip(segments, segs):
            if seg is None or seg.slab.capacity == 0:
                raise CacheConsistencyError(f"segment {name!r} was never reserved")
        slab, start = segs[0].slab, segs[0].filled
        if any(seg.slab is not slab for seg in segs):
            raise CacheConsistencyError("batched segments must share one slab")
        if any(seg.filled != start for seg in segs):
            raise CacheConsistencyError("batched segments differ in length")
        if start + n > slab.capacity:
            raise CacheConsistencyError(
                f"segments {segments} are full at their reserved {slab.capacity} slots"
                f" ({start} written, {n} more asked for)"
            )
        rows = [seg.row for seg in segs]
        if rows == list(range(rows[0], rows[0] + len(rows))):
            rows = slice(rows[0], rows[0] + len(rows))
        return Rows(slab, rows, segs, n)

    def append(
        self, segment: str, k: np.ndarray, v: np.ndarray, position: int, j: int
    ) -> SlotAddress:
        """Write one slot's full per-layer k/v stacks; returns its address."""
        expected = (self.n_layers, self.n_heads, self.d_k)
        if k.shape != expected or v.shape != expected:
            raise CacheConsistencyError(
                f"entry shape {k.shape} does not match cache dims {expected}"
            )
        rows = self.rows([segment], 1)
        for layer in range(self.n_layers):
            rows.stage(layer, 0, k[layer][None, None], v[layer][None, None])
        rows.commit(position, j)
        return SlotAddress(segment, rows.start)

    def gather(self, segment: str, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """(K, V) of one segment's written slots at one layer; views."""
        seg = self.tables[segment]
        return seg.keys(layer), seg.values(layer)

    def parts(self, segments) -> "Parts":
        """The attention parts of ``segments``' written slots, in order.

        Each segment is one part, except that the rows of the path slab
        become a single slab part when ``segments`` lists every one of
        them consecutively in row order and every row holds equally many
        slots (as under first finish): slots [0, filled) of every row,
        read in place.  Rows of unequal length stay one part each, so no
        slot past a row's ``filled`` is ever scored.
        """
        segments, slab = list(segments), self.paths
        if slab is None or path_key(0) not in segments:
            return Parts(self, segments)
        rows = [path_key(i) for i in range(slab.k.shape[1])]
        at = segments.index(rows[0])
        filled = {self.tables[seg].filled for seg in rows}
        if segments[at : at + len(rows)] != rows or len(filled) != 1:
            return Parts(self, segments)
        return Parts(self, segments[:at] + [slab] + segments[at + len(rows) :], filled.pop())

    def debug_tables(self) -> str:
        """JSON dump of the segment structure, for lifecycle tests."""
        payload = {
            seg: {
                "capacity": t.slab.capacity,
                "filled": t.filled,
                "path_row": t.row if t.slab is self.paths else None,
            }
            for seg, t in sorted(self.tables.items())
        }
        return json.dumps({"tables": payload}, sort_keys=True)


class Parts:
    """Attention parts over a pass's visible segments, read layer by layer.

    ``sources`` lists segment names (read with ``PagedKVCache.gather``)
    and at most one path ``Slab``, read as slots [0, ``end``) of every row
    (``Slab.prefix``).
    """

    def __init__(self, cache: PagedKVCache, sources: list, end: int = 0):
        self.cache = cache
        self.sources = sources
        self.end = end

    def at(self, layer: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The parts' keys and values at one layer, in order; views."""
        keys, values = [], []
        for source in self.sources:
            if isinstance(source, Slab):
                k, v = source.prefix(layer, self.end)
            else:
                k, v = self.cache.gather(source, layer)
            keys.append(k)
            values.append(v)
        return keys, values


class SummaryContextView:
    """Ordered references to the segments the answer attends over.

    Holds the same Segment objects written during reasoning; nothing is
    copied, so prompt and path entries stay in the reasoning storage,
    byte-identical.
    """

    def __init__(self, entries: list[tuple[str, Segment]]):
        self.entries = list(entries)

    def segments(self) -> list[str]:
        return [seg for seg, _ in self.entries]

    def total_slots(self) -> int:
        return sum(seg.filled for _, seg in self.entries)


def assemble_summary_view(cache: PagedKVCache, layout: LayoutPlan) -> SummaryContextView:
    """Zero-copy summarization context: the segments an answer slot sees
    (``masking.visible_segments``): prompt, every path, then answer."""
    if layout.stage != SUMMARIZATION:
        raise LifecycleError("summary view requires a summarization-stage layout")
    segments = visible_segments(SUMMARIZATION, ANSWER, layout.num_paths)
    for seg, expected in zip(segments, (layout.l_x, *layout.path_lengths)):
        if cache.length(seg) != expected:
            error = CacheConsistencyError if seg == PROMPT else LifecycleError
            raise error(f"{seg} holds {cache.length(seg)} slots, layout says {expected}")
    return SummaryContextView([(seg, cache.table(seg)) for seg in segments])
