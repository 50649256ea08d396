"""Contiguous per-segment KV storage with zero-copy summary views.

Each appended slot stores the augmented key/value stacks for every layer
(thought embedding folded in, key rotated), and nothing else: a slot's
position and thought index live only in its k and v.  Every segment's
final size is known when its stage starts, so a session reserves each
segment's storage once: the prompt when the session is created, the ``P``
reasoning paths as the rows of one ``[L, P, B+2, H, d_k]`` slab when
reasoning starts, and the answer when summarization starts; writing an
unreserved segment raises.

Every write goes through one handle (``Rows``): a forward pass stages its
new slots past the committed ones and commits them after its logits.  The
slab and the rows a handle writes are resolved once per writer
(``reserved_slab``, ``row_index``): by a stage plan (``model.StagePlan``)
for every pass of its stage, by ``PagedKVCache.append`` for its one slot.
Entries are append-only: a written slot is never mutated, which is what
makes reusing reasoning-phase storage as the summarization context exact.

Reads for attention are views: ``gather`` gives one segment's written
slots at one layer, and ``Slab.prefix`` the first slots of every row of
the path slab.  Storage never moves once reserved, so a stage plan
(``model.StagePlan``) takes the views its stage reads once, when the
stage starts.

A prompt prefilled once can serve several sessions on the same model:
``Slab.seal`` makes a full segment's storage read-only, and
``PagedKVCache.share`` gives another cache its own segment over the same
slots, with no room to write more.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import CacheConsistencyError, LifecycleError
from .masking import LayoutPlan, visible_segments
from .positional import ANSWER, PROMPT, path_key

@dataclass(frozen=True)
class SlotAddress:
    segment: str
    index: int


class Slab:
    """Storage for ``rows`` segments of equal capacity.

    k and v are [n_layers, rows, capacity, n_heads, d_k], the slab's only
    arrays.
    """

    def __init__(self, n_layers: int, rows: int, capacity: int, n_heads: int, d_k: int):
        shape = (n_layers, rows, capacity, n_heads, d_k)
        self.k = np.zeros(shape, dtype=np.float32)
        self.v = np.zeros(shape, dtype=np.float32)

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    def seal(self) -> None:
        """Make the storage read-only: a stray write then raises."""
        for array in (self.k, self.v):
            array.flags.writeable = False

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

    def read(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """(k, v) stacks of one written slot, [n_layers, n_heads, d_k] each."""
        if not 0 <= index < self.filled:
            raise CacheConsistencyError(
                f"segment {self.owner!r} has {self.filled} slots, asked for {index}"
            )
        return self.slab.k[:, self.row, index], self.slab.v[:, self.row, index]

    def content_hash(self) -> str:
        s, r, n = self.slab, self.row, self.filled
        h = hashlib.sha256()
        for part in (s.k[:, r, :n], s.v[:, r, :n]):
            h.update(np.ascontiguousarray(part).tobytes())
        return h.hexdigest()


def reserved_slab(segments) -> Slab:
    """The one slab holding ``segments``; raises unless every segment is
    reserved and all of them share it."""
    slab = segments[0].slab
    for seg in segments:
        if seg.slab.capacity == 0:
            raise CacheConsistencyError(f"segment {seg.owner!r} was never reserved")
        if seg.slab is not slab:
            raise CacheConsistencyError("batched segments must share one slab")
    return slab


def row_index(rows: list[int]):
    """Slab rows as a slice when they are consecutive (read as views), else
    the list itself (read as copies)."""
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return rows


class Rows:
    """``n`` new slots of each of several equally long segments of one slab.

    A forward pass stages each layer's k/v past the committed slots, reads
    them back while it computes, and commits them once its logits exist;
    until then no reader (``length``, ``gather``, a summary view) sees
    them, so a pass that raises leaves every segment as it was.

    ``slab`` and ``rows`` (``row_index``) come resolved from the writer;
    the handle checks what every write can change: each segment holds
    ``start`` slots and has room for ``n`` more.
    """

    def __init__(self, slab: Slab, rows, segments: list[Segment], start: int, n: int):
        if any(seg.filled != start for seg in segments):
            raise CacheConsistencyError(
                f"slot {start} does not extend segments holding"
                f" {[seg.filled for seg in segments]} slots"
            )
        if start + n > slab.capacity:
            raise CacheConsistencyError(
                f"segments {[seg.owner for seg in segments]} are full at their reserved"
                f" {slab.capacity} slots ({start} written, {n} more asked for)"
            )
        self.slab, self.rows, self.segments, self.n = slab, rows, segments, n
        self.start = start  # committed slots of every segment

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

    def commit(self) -> None:
        """The staged slots become written slots; their k/v already carry
        their positions and thought indices."""
        if any(seg.filled != self.start for seg in self.segments):
            raise CacheConsistencyError("segments were written since their rows were taken")
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

    def share(self, source: Segment) -> Segment:
        """A segment of this cache over ``source``'s slots, read in place.

        ``source`` is a full, sealed segment of another cache (a prompt
        prefilled once for several sessions).  The new segment holds the
        same slots and no room for more, and its storage cannot be
        written, so no cache changes what another reads.
        """
        s = source.slab
        if source.filled != s.capacity:
            raise LifecycleError(
                f"segment {source.owner!r} holds {source.filled} of its {s.capacity}"
                " slots; only a full one can be shared"
            )
        if s.k.flags.writeable:
            raise LifecycleError(f"segment {source.owner!r} is not sealed")
        if self.length(source.owner):
            raise LifecycleError(f"segment {source.owner!r} already holds slots")
        seg = Segment(source.owner, s, source.row)
        seg.filled = source.filled
        self.tables[source.owner] = seg
        return seg

    def length(self, segment: str) -> int:
        seg = self.tables.get(segment)
        return seg.filled if seg is not None else 0

    def append(self, segment: str, k: np.ndarray, v: np.ndarray) -> SlotAddress:
        """Write one slot's full per-layer k/v stacks; returns its address."""
        expected = (self.n_layers, self.n_heads, self.d_k)
        if k.shape != expected or v.shape != expected:
            raise CacheConsistencyError(
                f"entry shape {k.shape} does not match cache dims {expected}"
            )
        seg = self.table(segment)
        rows = Rows(reserved_slab([seg]), slice(seg.row, seg.row + 1), [seg], seg.filled, 1)
        for layer in range(self.n_layers):
            rows.stage(layer, 0, k[layer][None, None], v[layer][None, None])
        rows.commit()
        return SlotAddress(segment, rows.start)

    def gather(self, segment: str, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """(K, V) of one segment's written slots at one layer; views."""
        seg = self.tables[segment]
        return seg.keys(layer), seg.values(layer)


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
    segments = visible_segments(ANSWER, layout.num_paths)
    for seg, expected in zip(segments, (layout.l_x, *layout.path_lengths)):
        if cache.length(seg) != expected:
            error = CacheConsistencyError if seg == PROMPT else LifecycleError
            raise error(f"{seg} holds {cache.length(seg)} slots, layout says {expected}")
    return SummaryContextView([(seg, cache.table(seg)) for seg in segments])
