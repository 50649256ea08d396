"""Contiguous per-segment KV storage with zero-copy summary views.

Each appended slot stores the augmented key/value stacks for every layer
(thought embedding folded in, key rotated), plus the slot's absolute
position and thought index.  Every segment's final size is known when its
stage starts, so a session reserves each segment's storage once: the
prompt when the session is created, the ``P`` reasoning paths as the rows
of one ``[L, P, B+2, H, d_k]`` slab when reasoning starts, and the answer
when summarization starts.  A segment that was never reserved (single-slot
decoding outside a session) grows by doubling.

Entries are append-only: a written slot is never mutated, which is what
makes reusing reasoning-phase storage as the summarization context exact.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import CacheConsistencyError, LifecycleError
from .masking import SUMMARIZATION, LayoutPlan, visible_segments
from .positional import ANSWER, PROMPT, path_key

GROWTH_SLOTS = 16  # first capacity of a segment that was never reserved


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


class Segment:
    """One segment's slots: row ``row`` of a slab, written in order."""

    def __init__(self, owner: str, slab: Slab, row: int = 0, growable: bool = False):
        self.owner = owner
        self.slab = slab
        self.row = row
        self.growable = growable
        self.filled = 0

    def keys(self, layer: int, end: int | None = None) -> np.ndarray:
        """Keys of slots [0, end) at one layer, [end, n_heads, d_k]; a view.

        ``end`` defaults to the written slots; a causal block reads its
        staged slots too.
        """
        return self.slab.k[layer, self.row, : self.filled if end is None else end]

    def values(self, layer: int, end: int | None = None) -> np.ndarray:
        return self.slab.v[layer, self.row, : self.filled if end is None else end]

    def stage(self, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store one layer's k/v [m, n_heads, d_k] at slots start.. past the
        written ones.  Readers see them only after ``commit``.
        """
        if start < self.filled or start + len(k) > self.slab.capacity:
            raise CacheConsistencyError(
                f"segment {self.owner!r} cannot stage slots {start}..{start + len(k)}"
                f" (filled={self.filled}, capacity={self.slab.capacity})"
            )
        self.slab.k[layer, self.row, start : start + len(k)] = k
        self.slab.v[layer, self.row, start : start + len(v)] = v

    def commit(self, positions, thought: int) -> None:
        """The next len(positions) staged slots become written slots."""
        start, end = self.filled, self.filled + len(positions)
        if end > self.slab.capacity:
            raise CacheConsistencyError(
                f"segment {self.owner!r} has room for {self.slab.capacity - start} slots"
            )
        self.slab.positions[self.row, start:end] = positions
        self.slab.thoughts[self.row, start:end] = thought
        self.filled = end

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
        seg = self.tables.get(segment)
        if seg is None:
            seg = Segment(segment, self._slab(1, 0), growable=True)
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
        seg.slab, seg.row, seg.growable = self._slab(1, capacity), 0, False
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
            seg.slab, seg.row, seg.growable = slab, i, False
        self.paths = slab
        return slab

    def length(self, segment: str) -> int:
        seg = self.tables.get(segment)
        return seg.filled if seg is not None else 0

    def _room(self, seg: Segment, extra: int = 1) -> None:
        if seg.filled + extra <= seg.slab.capacity:
            return
        if not seg.growable:
            raise CacheConsistencyError(
                f"segment {seg.owner!r} is full at its reserved {seg.slab.capacity} slots"
            )
        old, n = seg.slab, seg.filled
        seg.slab = self._slab(1, max(GROWTH_SLOTS, 2 * n, n + extra))
        seg.slab.k[:, 0, :n] = old.k[:, 0, :n]
        seg.slab.v[:, 0, :n] = old.v[:, 0, :n]
        seg.slab.positions[0, :n] = old.positions[0, :n]
        seg.slab.thoughts[0, :n] = old.thoughts[0, :n]

    def make_room(self, segment: str, n: int) -> Segment:
        """The segment, with storage for ``n`` slots past its written ones.

        A reserved segment without that room raises; the caller stages the
        slots' k/v in it and commits them (``Segment.stage``/``commit``).
        """
        seg = self.table(segment)
        self._room(seg, n)
        return seg

    def append(
        self, segment: str, k: np.ndarray, v: np.ndarray, position: int, j: int
    ) -> SlotAddress:
        """Write one slot's full per-layer k/v stacks; returns its address."""
        expected = (self.n_layers, self.n_heads, self.d_k)
        if k.shape != expected or v.shape != expected:
            raise CacheConsistencyError(
                f"entry shape {k.shape} does not match cache dims {expected}"
            )
        seg = self.table(segment)
        self._room(seg)
        s, r, index = seg.slab, seg.row, seg.filled
        s.k[:, r, index] = k
        s.v[:, r, index] = v
        s.positions[r, index] = position
        s.thoughts[r, index] = j
        seg.filled += 1
        return SlotAddress(segment, index)

    def _path_rows(self, segments) -> list[int] | slice:
        """Slab rows of ``segments``: all rows as a slice, else a row list."""
        slab = self.paths
        segs = [self.tables.get(name) for name in segments]
        if slab is None or any(seg is None or seg.slab is not slab for seg in segs):
            raise CacheConsistencyError("batched rows must be reserved path segments")
        rows = [seg.row for seg in segs]
        if rows == list(range(slab.k.shape[1])):
            return slice(None)
        return rows

    def append_paths(
        self, segments, k: np.ndarray, v: np.ndarray, position: int, thoughts
    ) -> None:
        """Write one slot to each of several path segments of equal length.

        k and v are [n_layers, n, n_heads, d_k], row r going to segments[r].
        """
        expected = (self.n_layers, len(segments), self.n_heads, self.d_k)
        if k.shape != expected or v.shape != expected:
            raise CacheConsistencyError(
                f"entry shape {k.shape} does not match cache dims {expected}"
            )
        rows = self._path_rows(segments)
        index = self.length(segments[0])
        if any(self.length(name) != index for name in segments):
            raise CacheConsistencyError("batched path segments differ in length")
        if index >= self.paths.capacity:
            raise CacheConsistencyError(
                f"path segments are full at their reserved {index} slots"
            )
        s = self.paths
        s.k[:, rows, index] = k
        s.v[:, rows, index] = v
        s.positions[rows, index] = position
        s.thoughts[rows, index] = thoughts
        for name in segments:
            self.tables[name].filled += 1

    def gather(self, segments: list[str] | tuple[str, ...], layer: int):
        """(K, V, positions) over segments, in segment order.

        A single segment comes back as views of its storage; several are
        concatenated into new arrays.
        """
        parts = [self.tables[s] for s in segments if self.length(s)]
        if len(parts) == 1:
            seg = parts[0]
            return seg.keys(layer), seg.values(layer), seg.positions()
        if not parts:
            shape = (0, self.n_heads, self.d_k)
            return (
                np.zeros(shape, dtype=np.float32),
                np.zeros(shape, dtype=np.float32),
                np.zeros(0, dtype=np.int64),
            )
        return (
            np.concatenate([seg.keys(layer) for seg in parts]),
            np.concatenate([seg.values(layer) for seg in parts]),
            np.concatenate([seg.positions() for seg in parts]),
        )

    def gather_paths(self, segments, layer: int, length: int):
        """(K, V) of several path segments, each [n, length, n_heads, d_k].

        Every path row of the slab in order comes back as a view; a subset
        of rows is copied out.
        """
        rows = self._path_rows(segments)
        if any(self.length(name) < length for name in segments):
            raise CacheConsistencyError(f"path segments hold fewer than {length} slots")
        s = self.paths
        return s.k[layer, rows, :length], s.v[layer, rows, :length]

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
