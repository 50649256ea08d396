"""Rotary positions, per-path thought embeddings, and position assignment.

Keys are stored with the path's thought embedding folded in before the
rotation (k_aug = R_t(k + T[j])) and values with it added directly
(v_aug = v + T[j]), so cached entries are valid for both the reasoning
and the summarization phase without reprocessing.

Positions follow one affine rule: position = segment base + t, with
local indices ``t`` 1-based within a segment, so the first prompt token
sits at absolute position 1.  ``PositionAssignment.base`` is a segment's
offset under the shared or flattened scheme and ``positions`` gives a
whole range of a segment's slots as one array; every caller asks for
ranges.
"""

import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, LayoutError
from .tokenizer import check_seed

PROMPT = "prompt"
ANSWER = "answer"

SHARED = "shared"
FLATTENED = "flattened"


def path_key(i: int) -> str:
    """Segment key for the i-th reasoning path (0-based)."""
    return f"path:{i}"


def path_index(segment: str) -> int:
    if not segment.startswith("path:"):
        raise LayoutError(f"not a path segment: {segment!r}")
    return int(segment.split(":", 1)[1])


def is_path(segment: str) -> bool:
    return segment.startswith("path:")


class Rope:
    """Rotary rotation R_t over even-dimensional head vectors.

    R_t is block-diagonal in 2x2 rotations; pair d rotates by angle
    t * base^(-2d/d_k).  R_0 is the identity and (R_n)^T R_m = R_{m-n}.

    A rotation is one pass over interleaved float64 tables: with
    cos2 = (c_0, c_0, c_1, c_1, ...) and sin2 = (-s_0, s_0, -s_1, s_1, ...),
    R_t v = v * cos2 + swap(v) * sin2, where swap exchanges the two
    entries of every pair.  The tables of each position used are cached.
    Every product is float64, so the float32 result is the rounding of
    the exact-input rotation, the same for a row however it is batched.
    """

    def __init__(self, d_k: int, base: float):
        if d_k <= 0 or d_k % 2 != 0:
            raise ConfigError(f"rope dimension must be positive and even, got {d_k}")
        if base <= 0:
            raise ConfigError(f"rope base must be positive, got {base}")
        self.d_k = d_k
        self.base = float(base)
        self._inv_freq = self.base ** (-np.arange(0, d_k, 2, dtype=np.float64) / d_k)
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def tables(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(cos2, sin2) for one position, [d_k] (cached), or for an [n]
        array of positions, [n, d_k]; read-only float64."""
        if np.ndim(t) == 0:
            t = int(t)
            cached = self._tables.get(t)
            if cached is None:
                cached = self._tables[t] = _interleave(t * self._inv_freq)
            return cached
        t = np.asarray(t)
        if t.ndim != 1:
            raise ConfigError(f"positions must be one number or a 1-d array, got {t.shape}")
        return _interleave(t[:, None] * self._inv_freq)

    def rotate(self, v: np.ndarray, t) -> np.ndarray:
        """Apply R_t to the last axis of ``v`` (shape [..., d_k]).

        ``t`` is one position for every vector, an [n] array giving row i
        of ``v`` (shape [n, ..., d_k]) its own position, or the tables of
        either from ``tables``, built once for many calls.  Row i then
        gets the same bits as ``rotate(v[i], t[i])``.  Tables with more
        than two axes broadcast against ``v`` as they are: [n, 1, d_k]
        tables give row i of every [n, h, d_k] block of ``v`` its own
        position.
        """
        v = np.asarray(v)
        if v.shape[-1] != self.d_k:
            raise ConfigError(
                f"vector dim {v.shape[-1]} does not match rope dim {self.d_k}"
            )
        cos2, sin2 = t if isinstance(t, tuple) else self.tables(t)
        if cos2.ndim == 2:  # one position per row
            if v.ndim < 2 or len(cos2) != v.shape[0]:
                raise ConfigError(
                    f"{len(cos2)} positions do not give one per row of {v.shape}"
                )
            shape = (len(cos2),) + (1,) * (v.ndim - 2) + (self.d_k,)
            cos2, sin2 = cos2.reshape(shape), sin2.reshape(shape)
        out = v.astype(np.float64)  # a copy, exact
        swapped = np.empty_like(out)
        swapped[..., 0::2] = out[..., 1::2]
        swapped[..., 1::2] = out[..., 0::2]
        out *= cos2
        swapped *= sin2
        out += swapped
        return out.astype(v.dtype, copy=False)


def _interleave(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos2, sin2), [..., d_k], of angles [..., d_k/2]."""
    cos, sin = np.cos(angles), np.sin(angles)
    cos2 = np.repeat(cos, 2, axis=-1)
    sin2 = np.stack([-sin, sin], axis=-1).reshape(cos2.shape)
    cos2.flags.writeable = sin2.flags.writeable = False
    return cos2, sin2


@lru_cache(maxsize=8)
def rope_for(d_k: int, base: float) -> Rope:
    return Rope(d_k, base)


THOUGHT_MAGIC = b"PTT1"


class ThoughtEmbeddingTable:
    """Per-segment vectors T[j], j = 0..p_max, one per (layer, head).

    Row 0 is reserved for prompt and summary tokens.  Rows are initialized
    identically across layers (one draw per row, tiled), but a loaded file
    may carry distinct per-layer values.
    """

    def __init__(self, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 4:
            raise ConfigError("thought table must have shape [rows, layers, heads, d_k]")
        if not np.all(np.isfinite(vectors)):
            raise ConfigError("thought table contains non-finite entries")
        rows = vectors.reshape(vectors.shape[0], -1)
        for a in range(len(rows) - 1):
            # row a against every later row at once; == counts -0.0 as 0.0
            same = (rows[a + 1 :] == rows[a]).all(axis=1)
            if same.any():
                raise ConfigError(f"thought rows {a} and {a + 1 + same.argmax()} are identical")
        self.vectors = vectors

    @property
    def p_max(self) -> int:
        return self.vectors.shape[0] - 1


def init_thought_table(
    p_max: int, n_layers: int, n_heads: int, d_k: int, seed: int, scale: float = 0.02
) -> ThoughtEmbeddingTable:
    rng = np.random.default_rng(check_seed(seed, "table_seed"))
    per_row = rng.standard_normal((p_max + 1, n_heads, d_k)).astype(np.float32) * scale
    tiled = np.repeat(per_row[:, None, :, :], n_layers, axis=1)
    return ThoughtEmbeddingTable(tiled)


def zero_thought_table(p_max: int, n_layers: int, n_heads: int, d_k: int) -> ThoughtEmbeddingTable:
    """All-zero table for ablations; skips the row-distinctness check."""
    vectors = np.zeros((p_max + 1, n_layers, n_heads, d_k), dtype=np.float32)
    table = ThoughtEmbeddingTable.__new__(ThoughtEmbeddingTable)
    table.vectors = vectors
    return table


def save_thought_table(table: ThoughtEmbeddingTable, path: str) -> None:
    rows, n_layers, n_heads, d_k = table.vectors.shape
    with open(path, "wb") as fh:
        fh.write(THOUGHT_MAGIC)
        fh.write(struct.pack("<4I", rows, n_layers, n_heads, d_k))
        fh.write(table.vectors.astype("<f4").tobytes(order="C"))


def load_thought_table(path: str) -> ThoughtEmbeddingTable:
    """The table of a PTT1 file; its size is checked against the length its
    header implies before any vector byte is read."""
    with open(path, "rb") as fh:
        head = fh.read(20)
        if head[:4] != THOUGHT_MAGIC:
            raise ConfigError(f"bad thought-table magic in {path!r}")
        if len(head) < 20:
            raise ConfigError(f"thought-table file {path!r} is shorter than its 20-byte header")
        rows, n_layers, n_heads, d_k = struct.unpack("<4I", head[4:])
        length = os.fstat(fh.fileno()).st_size
        expected = 20 + rows * n_layers * n_heads * d_k * 4
        if length != expected:
            raise ConfigError(f"thought-table file length {length} != expected {expected}")
        blob = fh.read(expected - 20)
    vectors = np.frombuffer(blob, dtype="<f4").reshape(rows, n_layers, n_heads, d_k)
    return ThoughtEmbeddingTable(vectors.copy())


@dataclass(frozen=True)
class PositionAssignment:
    """Maps (segment, 1-based local index t) to an absolute position base + t.

    shared scheme:
        prompt t -> t
        path i, t -> l_x + t                    (identical across paths)
        answer t -> l_x + reasoning_len + t
    flattened scheme (paths indexed from 0):
        prompt t -> t
        path i, t -> l_x + i * l_max + t
        answer t -> l_x + (num_paths - 1) * l_max + reasoning_len + t

    ``reasoning_len`` is the longest path's written length at the stage
    switch, so the answer follows every path however long each is; it is
    only required once answer positions are needed.
    """

    scheme: str
    l_x: int
    l_max: int
    num_paths: int = 1
    reasoning_len: int | None = None

    def __post_init__(self):
        if self.scheme not in (SHARED, FLATTENED):
            raise LayoutError(f"unknown position scheme {self.scheme!r}")
        if self.l_x < 0 or self.l_max < 0 or self.num_paths < 1:
            raise LayoutError("position assignment dimensions must be non-negative")

    def base(self, segment: str) -> int:
        """The segment's offset: its t-th slot sits at position base + t."""
        if segment == PROMPT:
            return 0
        if segment == ANSWER:
            if self.reasoning_len is None:
                raise LayoutError("answer positions need the reasoning length")
            paths_before = self.num_paths - 1 if self.scheme == FLATTENED else 0
            return self.l_x + paths_before * self.l_max + self.reasoning_len
        i = path_index(segment)
        return self.l_x + (i * self.l_max if self.scheme == FLATTENED else 0)

    def positions(self, segment: str, start: int, n: int) -> np.ndarray:
        """Positions of the segment's slots start..start+n-1 (local indices
        start+1..start+n), int64; the whole range is checked at once."""
        if start < 0:
            raise LayoutError(f"local index must be >= 1, got {start + 1}")
        base, last = self.base(segment), start + n
        if segment == PROMPT and last > self.l_x:
            raise LayoutError(f"prompt index {last} exceeds prompt length {self.l_x}")
        if segment not in (PROMPT, ANSWER) and last > self.l_max:
            raise LayoutError(f"path index {last} exceeds per-path cap {self.l_max}")
        return np.arange(base + start + 1, base + last + 1, dtype=np.int64)
