"""Minimal decoder-only transformer: batched decode steps, chunked prefill.

Pre-norm blocks, no biases, SiLU feed-forward, RMS normalization, full
multi-head attention.  The forward pass takes an externally supplied
decode layout that fixes each slot's absolute position, thought index,
and the ordered set of cache segments it may attend over, which the one
visibility rule ``masking.visible_segments`` gives; attention is
computed only over those segments, scaled by 1/sqrt(d_k).

All parameters, cache entries, and activations are 32-bit floats.
Attention for a slot is reduced in a fixed order: visible segments in
layout order, then its own segment's slots in write order up to and
including itself.  Two passes run their rows through the layers as one
block (``_decode_rows``), so each weight matrix is read once per block.
A layer computes q, k and v as one product with its fused ``w_qkv``
(bit-identical to three products), adds the rows' thought embeddings
(looked up once per pass) to k and v, and rotates q and k in one
``Rope.rotate`` call (tables built once per pass, or the rope's cached
ones for a single position):

* ``forward_paths`` decodes one new slot for each active path of a
  reasoning step, and rows never mix.  Its attention has two parts per
  layer: the shared segments, and the rows' own slab rows read through
  the new slot staged there, scored row by row.  A one-row pass
  (``forward_step``) runs as two identical rows so that it uses the same
  BLAS kernels as a batch; with OpenBLAS a path's logits are then
  bit-identical to its single-path replay (the tested bound is 1e-5).
  Only reasoning needs that duplicated row; nothing else decodes
  through it.
* ``forward_causal`` feeds tokens to consecutive slots of one segment in
  causal blocks of ``CAUSAL_CHUNK`` rows with per-row positions: tokens
  known in advance (the prompt, the re-prefill baseline's flattened
  sequence), and each answer token (the engine's, and the re-prefill
  baseline's own) as a one-row block.  Its logits match one
  ``forward_step`` per slot within float32 rounding.

Both passes run under a ``StagePlan``, built once when a stage starts
(``prefill`` and ``forward_step`` build one for their single pass).  It
holds each layer's attention parts over the other visible segments, the
owners' segments, thought indices and storage, and the outcome of every
length and batch check, so a pass checks its token ids, stages its new
slots, attends over the plan's parts and its own slots, and commits.  An
answer slot sees every path; when the paths are equally long its parts
are three per layer: the prompt, the written part of the path slab as
one view, and the answer itself.

Both passes write the cache the same way.  A pass names the owners it
writes by their positions among the plan's owners, plus the one slot
index they all extend, and takes its write handle from the plan
(``StagePlan.rows``, a ``kvcache.Rows``) before the first layer; the
handle checks the owners' common fill and their room.  The pass stages
each layer's new k/v straight into the reserved storage past the
committed slots, and commits the slots only after the logits are
computed.  Staged slots are invisible to every other reader, so a pass
that raises leaves the cache at the length it had.

``attend`` starts its output from the first part's product, the softmax
runs in place on the scores, and the score scale and the causal triangle
are cached per ``d_k`` and per block height.

Weight file format ("PTW1", little-endian):
  magic (4 bytes), then the config as eight uint32 values in order
  (n_layers, d_model, n_heads, d_k, d_ff, vocab_size, rope_base,
  max_position), then float32 tensors row-major in this order:
  embedding [vocab, d_model]; per layer: attn_norm [d_model],
  w_q, w_k, w_v, w_o [d_model, d_model], ffn_norm [d_model],
  w_ff1 [d_model, d_ff], w_ff2 [d_ff, d_model]; final_norm [d_model];
  head [d_model, vocab].  ``w_q``, ``w_k`` and ``w_v`` are written as three
  matrices and loaded into one ``w_qkv``.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CacheConsistencyError,
    ConfigError,
    DataError,
    LayoutError,
    PositionOverflowError,
)
from .kvcache import PagedKVCache, Rows, SlotAddress, reserved_slab, row_index
# stage strings and the visibility rule live in masking; stages re-exported
from .masking import FLAT, REASONING, SUMMARIZATION, visible_segments  # noqa: F401
from .positional import (
    ANSWER,
    PROMPT,
    PositionAssignment,
    Rope,
    ThoughtEmbeddingTable,
    path_index,
    path_key,
    rope_for,
)
from .tokenizer import is_token_int

WEIGHT_MAGIC = b"PTW1"

NORM_EPS = 1e-6

# Rows per block of a causal pass (prefill, the re-prefill baseline): large
# enough that each weight read serves many rows, small enough that the
# scores stay at [CAUSAL_CHUNK, n_heads, length] however long the sequence is.
CAUSAL_CHUNK = 32


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_k: int
    d_ff: int
    vocab_size: int
    rope_base: float = 10000.0
    max_position: int = 4096

    def __post_init__(self):
        if min(self.n_layers, self.d_model, self.n_heads, self.d_k, self.d_ff) < 1:
            raise ConfigError("all model dimensions must be positive")
        if self.d_model != self.n_heads * self.d_k:
            raise ConfigError(
                f"d_model {self.d_model} != n_heads {self.n_heads} * d_k {self.d_k}"
            )
        if self.d_k % 2 != 0:
            raise ConfigError(f"d_k must be even for rotary pairs, got {self.d_k}")
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be positive")
        if self.rope_base <= 0:
            raise ConfigError("rope_base must be positive")
        if self.max_position < 1:
            raise ConfigError("max_position must be positive")

    def rope(self) -> Rope:
        return rope_for(self.d_k, self.rope_base)


@dataclass
class LayerWeights:
    """One block's tensors.  The query, key and value projections are the
    column blocks of one [d_model, 3·d_model] matrix, so one product gives
    all three; ``w_q``, ``w_k`` and ``w_v`` are views of those blocks."""

    attn_norm: np.ndarray
    w_qkv: np.ndarray
    w_o: np.ndarray
    ffn_norm: np.ndarray
    w_ff1: np.ndarray
    w_ff2: np.ndarray

    @classmethod
    def from_projections(cls, attn_norm, w_q, w_k, w_v, w_o, ffn_norm, w_ff1, w_ff2):
        return cls(attn_norm, np.concatenate([w_q, w_k, w_v], axis=1), w_o, ffn_norm, w_ff1, w_ff2)

    def _block(self, i: int) -> np.ndarray:
        d = self.w_qkv.shape[0]
        return self.w_qkv[:, i * d : (i + 1) * d]

    @property
    def w_q(self) -> np.ndarray:
        return self._block(0)

    @property
    def w_k(self) -> np.ndarray:
        return self._block(1)

    @property
    def w_v(self) -> np.ndarray:
        return self._block(2)


@dataclass
class ModelWeights:
    config: ModelConfig
    embedding: np.ndarray
    layers: list[LayerWeights]
    final_norm: np.ndarray
    head: np.ndarray

    def validate(self) -> None:
        cfg = self.config
        d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
        expected = {
            "embedding": (self.embedding, (v, d)),
            "final_norm": (self.final_norm, (d,)),
            "head": (self.head, (d, v)),
        }
        if len(self.layers) != cfg.n_layers:
            raise ConfigError(f"expected {cfg.n_layers} layers, got {len(self.layers)}")
        for li, lw in enumerate(self.layers):
            expected[f"layer{li}.attn_norm"] = (lw.attn_norm, (d,))
            expected[f"layer{li}.w_qkv"] = (lw.w_qkv, (d, 3 * d))
            expected[f"layer{li}.w_o"] = (lw.w_o, (d, d))
            expected[f"layer{li}.ffn_norm"] = (lw.ffn_norm, (d,))
            expected[f"layer{li}.w_ff1"] = (lw.w_ff1, (d, f))
            expected[f"layer{li}.w_ff2"] = (lw.w_ff2, (f, d))
        for name, (tensor, shape) in expected.items():
            if tensor.shape != shape:
                raise ConfigError(f"{name} has shape {tensor.shape}, expected {shape}")
            if not np.all(np.isfinite(tensor)):
                raise ConfigError(f"{name} contains non-finite entries")

    def tensors(self):
        """All tensors in the serialized file order."""
        yield self.embedding
        for lw in self.layers:
            yield lw.attn_norm
            yield lw.w_q
            yield lw.w_k
            yield lw.w_v
            yield lw.w_o
            yield lw.ffn_norm
            yield lw.w_ff1
            yield lw.w_ff2
        yield self.final_norm
        yield self.head


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Zero-mean gaussian matrices at scale 1/sqrt(d_model); unit norm gains."""
    rng = np.random.default_rng(seed)
    scale = config.d_model**-0.5
    d, f = config.d_model, config.d_ff

    def draw(*shape):
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    layers = [
        LayerWeights.from_projections(
            attn_norm=np.ones(d, dtype=np.float32),
            w_q=draw(d, d),
            w_k=draw(d, d),
            w_v=draw(d, d),
            w_o=draw(d, d),
            ffn_norm=np.ones(d, dtype=np.float32),
            w_ff1=draw(d, f),
            w_ff2=draw(f, d),
        )
        for _ in range(config.n_layers)
    ]
    weights = ModelWeights(
        config=config,
        embedding=draw(config.vocab_size, d),
        layers=layers,
        final_norm=np.ones(d, dtype=np.float32),
        head=draw(d, config.vocab_size),
    )
    weights.validate()
    return weights


def save_weights(weights: ModelWeights, path: str) -> None:
    cfg = weights.config
    if cfg.rope_base != int(cfg.rope_base):
        raise ConfigError("weight files store rope_base as an integer")
    header = struct.pack(
        "<8I",
        cfg.n_layers,
        cfg.d_model,
        cfg.n_heads,
        cfg.d_k,
        cfg.d_ff,
        cfg.vocab_size,
        int(cfg.rope_base),
        cfg.max_position,
    )
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(header)
        for tensor in weights.tensors():
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes(order="C"))


def load_weights(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != WEIGHT_MAGIC:
        raise ConfigError(f"bad weight-file magic in {path!r}")
    fields = struct.unpack("<8I", blob[4:36])
    config = ModelConfig(
        n_layers=fields[0],
        d_model=fields[1],
        n_heads=fields[2],
        d_k=fields[3],
        d_ff=fields[4],
        vocab_size=fields[5],
        rope_base=float(fields[6]),
        max_position=fields[7],
    )
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    shapes = [(v, d)]
    for _ in range(config.n_layers):
        shapes += [(d,), (d, d), (d, d), (d, d), (d, d), (d,), (d, f), (f, d)]
    shapes += [(d,), (d, v)]
    expected_floats = sum(int(np.prod(s)) for s in shapes)
    if len(blob) != 36 + 4 * expected_floats:
        raise ConfigError(
            f"weight file length {len(blob)} != expected {36 + 4 * expected_floats}"
        )
    flat = np.frombuffer(blob[36:], dtype="<f4")
    tensors = []
    offset = 0
    for shape in shapes:
        count = int(np.prod(shape))
        tensors.append(flat[offset : offset + count].reshape(shape).copy())
        offset += count
    it = iter(tensors)
    embedding = next(it)
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights.from_projections(
                attn_norm=next(it),
                w_q=next(it),
                w_k=next(it),
                w_v=next(it),
                w_o=next(it),
                ffn_norm=next(it),
                w_ff1=next(it),
                w_ff2=next(it),
            )
        )
    weights = ModelWeights(
        config=config,
        embedding=embedding,
        layers=layers,
        final_norm=next(it),
        head=next(it),
    )
    weights.validate()
    return weights


@lru_cache(maxsize=16)
def _f32(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float32 array.  An operand of this kind
    rounds like a Python number in a float32 operation (NumPy casts that
    number to float32 first) and skips the conversion on every call."""
    constant = np.array(value, dtype=np.float32)
    constant.flags.writeable = False
    return constant


_HALF, _ONE, _EPS = _f32(0.5), _f32(1.0), _f32(NORM_EPS)


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Normalize over the last axis, so a [n, d] block is n independent rows.
    Returns a new float32 array; ``x`` is left as it is."""
    scale = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    scale /= _f32(x.shape[-1])
    scale += _EPS
    np.sqrt(scale, out=scale)
    np.divide(_ONE, scale, out=scale)
    out = x * scale
    out *= gain
    return out.astype(np.float32, copy=False)


def silu(x: np.ndarray) -> np.ndarray:
    # x * sigmoid(x) with sigmoid(x) = (1 + tanh(x / 2)) / 2: stable for any x
    half = x * _HALF
    gate = np.tanh(half)
    gate += _ONE
    half *= gate
    return half


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: ``scores`` becomes the weights
    and is returned."""
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


@lru_cache(maxsize=8)
def _score_scale(d_k: int) -> np.ndarray:
    return _f32(np.sqrt(np.float32(d_k)))


@lru_cache(maxsize=CAUSAL_CHUNK)
def _later(n: int) -> np.ndarray:
    """[n, 1, n], read-only: row r's entry c is True when slot c comes after r."""
    later = np.triu(np.ones((n, n), dtype=bool), 1)[:, None, :]
    later.flags.writeable = False
    return later


def attend(q: np.ndarray, keys, values, d_k: int, causal: bool = False) -> np.ndarray:
    """Per-head attention of query rows over a visible set given in parts.

    q: [n, n_heads, d_k].  ``keys`` and ``values`` list the parts of the
    visible set in order.  A part of shape [m, n_heads, d_k] is seen by
    every row and scored for all rows in one product; a part of shape
    [n, m, n_heads, d_k] gives row r its own [m] entries, and one of
    shape [n, g, m, n_heads, d_k] its own g groups of [m] entries, group
    by group (a leading axis of 1 is shared by every row; the path slab,
    read in place, is such a part).  With ``causal`` the last part ends
    with the rows' own slots in row order, and row r does not see the
    n-1-r slots after its own.  One softmax runs over all parts' scores
    and the values are summed part by part, so no part is copied or
    concatenated.  Returns [n, n_heads, d_k].  A single-entry visible set
    reduces to that entry's value row exactly (softmax over one element
    is 1).
    """
    q_heads = q.transpose(1, 0, 2)  # [H, n, d_k]
    scores = []
    for k in keys:
        if k.ndim == 3:  # [H, n, d_k] @ [H, d_k, m] -> [n, H, m]
            scores.append((q_heads @ k.transpose(1, 2, 0)).transpose(1, 0, 2))
        elif k.ndim == 4:  # [n, H, m, d_k] @ [n, H, d_k, 1] -> [n, H, m]
            scores.append((k.transpose(0, 2, 1, 3) @ q[..., None])[..., 0])
        else:  # [n, g, H, m, d_k] @ [n, 1, H, d_k, 1] -> [n, H, g·m]
            grouped = (k.transpose(0, 1, 3, 2, 4) @ q[:, None, ..., None])[..., 0]
            scores.append(grouped.transpose(0, 2, 1, 3).reshape(q.shape[0], q.shape[1], -1))
    scores = scores[0] if len(scores) == 1 else np.concatenate(scores, axis=-1)
    scores /= _score_scale(d_k)  # a new array either way
    n = q.shape[0]
    if causal and n > 1:  # one row sees its whole part: no triangle to build
        np.copyto(scores[..., scores.shape[-1] - n :], -np.inf, where=_later(n))
    weights = softmax(scores)
    out = None
    start = 0
    for v in values:
        m = v.shape[-3] * (v.shape[1] if v.ndim == 5 else 1)
        w = weights[..., start : start + m]  # [n, H, m]
        if v.ndim == 3:  # [H, n, m] @ [H, m, d_k] -> [n, H, d_k]
            part = (w.transpose(1, 0, 2) @ v.transpose(1, 0, 2)).transpose(1, 0, 2)
        elif v.ndim == 4:  # [n, H, 1, m] @ [n, H, m, d_k] -> [n, H, d_k]
            part = (w[:, :, None, :] @ v.transpose(0, 2, 1, 3))[:, :, 0]
        else:  # [n, g, H, 1, m] @ [n, g, H, m, d_k] -> [n, H, d_k], summed over g
            w = w.reshape(*w.shape[:2], v.shape[1], -1).transpose(0, 2, 1, 3)
            part = (w[..., None, :] @ v.transpose(0, 1, 3, 2, 4))[..., 0, :].sum(axis=1)
        if out is None:
            out = part
        else:
            out += part
        start += m
    return out


@dataclass(eq=False)
class DecodeLayout:
    """Resolves a segment's slots to positions, thought index and visible segments.

    Positions come from ``assignment`` (``PositionAssignment.positions``),
    one segment range at a time.  Stage "flat" (the re-prefill baseline)
    is one causal segment whose positions are listed per slot in
    ``flat_positions`` (any int sequence, held as an int64 array).  The
    visible segments are ``masking.visible_segments`` for ``stage``.
    """

    stage: str
    assignment: PositionAssignment | None = None
    thought_labels: tuple[int, ...] = ()
    flat_positions: np.ndarray = ()

    def __post_init__(self):
        self.flat_positions = np.asarray(self.flat_positions, dtype=np.int64)

    def base(self, segment: str) -> int | None:
        """The segment's position offset; None for stage "flat", whose
        positions are listed per slot."""
        return None if self.stage == FLAT else self.assignment.base(segment)

    def positions(self, segment: str, start: int, n: int) -> np.ndarray:
        """Positions of the segment's slots start..start+n-1, [n] int64."""
        if self.stage != FLAT:
            return self.assignment.positions(segment, start, n)
        if not 0 <= start <= start + n <= len(self.flat_positions):
            raise LayoutError(
                f"flat layout lists {len(self.flat_positions)} positions,"
                f" slots {start}..{start + n - 1} asked for"
            )
        return self.flat_positions[start : start + n]

    def thought_index(self, segment: str) -> int:
        if self.stage == FLAT or segment in (PROMPT, ANSWER):
            return 0
        i = path_index(segment)
        if not 0 <= i < len(self.thought_labels):
            raise LayoutError(f"{segment!r} is not one of the layout's paths")
        return self.thought_labels[i]

    def visible_segments(self, segment: str) -> tuple[str, ...]:
        return visible_segments(self.stage, segment, len(self.thought_labels))


class StagePlan:
    """What every pass of one stage shares, resolved once for the stage.

    ``owners`` are the segments the stage writes, each named once: the
    prompt, the answer, the re-prefill baseline's one flat segment, or the
    reasoning paths, which must share one position base and their other
    visible segments.  Those other segments are complete when the stage
    starts and no pass of the stage writes them, so each layer's keys and
    values over them are taken here once, as views of the cache's storage:
    ``shared[li]`` holds layer ``li``'s key parts and value parts, in the
    rule's order.  A segment is one part (``PagedKVCache.gather``) and an
    empty one none.  When the segments hold every row of the path slab in
    row order and the rows are equally long (always so under first
    finish), the rows are one part instead: slots ``[0, filled)`` of every
    row, read in place (``Slab.prefix``).  An answer token then scores
    three parts per layer (prompt, slab, answer) whatever ``P`` is, and no
    slot past a row's end is scored.

    The other segments' lengths are checked here against the layout: the
    prompt holds ``l_x`` slots and the longest path the reasoning length.
    The layout does not hold each path's own length, so a path shorter
    than the longest is not checked here; ``assemble_summary_view``, which
    the engine runs before the answer stage, checks every path exactly.

    The owners' segments and thought indices are resolved here too, and a
    pass names the owners it writes by their positions in ``owners``
    (``rows``).  The engine reserves a stage's storage only after building
    its plan, once every check has passed, and a reserved segment keeps
    its identity, so the plan binds the owners' storage (reserved, on one
    slab, and their rows in it) once, at its first write.  A pass then
    checks only what it can change: the positions it names, their common
    fill against the slot it extends, and the room left.
    """

    def __init__(self, cache: PagedKVCache, layout: DecodeLayout, owners):
        names = tuple(owners)
        if not names or len(set(names)) != len(names):
            raise CacheConsistencyError(f"a plan needs distinct owner segments, got {names}")
        others = layout.visible_segments(names[0])[:-1]  # the rule lists a slot's own segment last
        for owner in names[1:]:
            if layout.base(owner) != layout.base(names[0]):
                raise CacheConsistencyError("batched slots must share one position")
            if layout.visible_segments(owner) != (*others, owner):
                raise CacheConsistencyError("batched slots must share their visible segments")
        fills = [cache.length(seg) for seg in others]
        if others:
            have, assignment = dict(zip(others, fills)), layout.assignment
            prompt = have.pop(PROMPT)
            if prompt != assignment.l_x:
                raise CacheConsistencyError(
                    f"visible segment 'prompt' holds {prompt} slots, expected {assignment.l_x}"
                )
            if have and max(have.values()) != assignment.reasoning_len:
                raise CacheConsistencyError(
                    f"the longest visible path holds {max(have.values())} slots,"
                    f" expected {assignment.reasoning_len}"
                )
        self.layout = layout
        self.owners = [cache.table(name) for name in names]
        self.thoughts = [layout.thought_index(name) for name in names]
        self.every = list(range(len(names)))  # the positions of all owners, in order
        self.slab = self.slab_rows = None  # bound at the first write
        sources, slab = list(others), cache.paths
        if slab is not None and path_key(0) in sources:
            rows = [path_key(i) for i in range(slab.k.shape[1])]
            at = sources.index(rows[0])
            span = slice(at, at + len(rows))
            if sources[span] == rows and len(set(fills[span])) == 1:
                sources[span], fills[span] = [slab], [fills[at]]
        sources = [(source, fill) for source, fill in zip(sources, fills) if fill]
        self.shared = []
        for li in range(cache.n_layers):
            parts = [
                slab.prefix(li, fill) if source is slab else cache.gather(source, li)
                for source, fill in sources
            ]
            self.shared.append(([k for k, _ in parts], [v for _, v in parts]))

    def rows(self, at: list[int], index: int, n: int) -> tuple[Rows, list[int]]:
        """Write handle for ``n`` new slots of the owners at positions
        ``at``, which hold ``index`` slots each, and their thought indices.

        ``at`` names each owner at most once; ``Rows`` checks the fill and
        the room left.
        """
        if self.slab is None:
            self.slab = reserved_slab(self.owners)
            self.slab_rows = row_index([seg.row for seg in self.owners])
        if at == self.every:
            return Rows(self.slab, self.slab_rows, self.owners, index, n), self.thoughts
        if not at or len(set(at)) != len(at) or not set(at) <= set(self.every):
            raise CacheConsistencyError(
                f"a plan for {[seg.owner for seg in self.owners]} cannot write its rows {at}"
            )
        segments = [self.owners[i] for i in at]
        rows = row_index([seg.row for seg in segments])
        return Rows(self.slab, rows, segments, index, n), [self.thoughts[i] for i in at]


def _decode_rows(
    weights: ModelWeights, table: ThoughtEmbeddingTable, tokens, thoughts, positions, attention
):
    """Run a block of rows through every layer; returns the hidden rows [n, d_model].

    ``tokens`` holds each row's token id; ``thoughts`` and ``positions``
    hold one thought index and one position for every row or one per
    row.  Each row goes through the projections and the feed-forward
    block as part of one [n, d_model] block, so each weight matrix is read
    once per call.  At layer ``li``, ``attention(li, q, k, v)`` receives
    the rows' rotated queries and augmented keys and values (thought
    embedding folded in), each [n, n_heads, d_k], and returns the rows'
    attention output of the same shape.
    """
    cfg = weights.config
    n = len(tokens)
    heads, d_k = cfg.n_heads, cfg.d_k
    rope = cfg.rope()
    # Every layer rotates at the same positions.  One position (a one-row
    # block's too) reads the rope's cached tables; per-row tables are
    # built here, once for all layers.
    if np.ndim(positions):
        positions = positions[0] if len(positions) == 1 else rope.tables(positions)
    # Thought rows, looked up once: [n_layers, n_heads, d_k] for one
    # index, else [n_layers, n, 1, n_heads, d_k], to add to k and v.
    thought = table.vectors[thoughts]
    if thought.ndim == 4:
        thought = thought[:, :, None].swapaxes(0, 1)
    x = weights.embedding[tokens]  # a copy, updated in place
    for li, lw in enumerate(weights.layers):
        qkv = (rms_norm(x, lw.attn_norm) @ lw.w_qkv).reshape(n, 3, heads, d_k)
        qkv[:, 1:] += thought[li]  # into k and v
        qk = rope.rotate(qkv[:, :2], positions)
        attn = attention(li, qk[:, 0], qk[:, 1], qkv[:, 2])
        x += attn.reshape(n, cfg.d_model) @ lw.w_o
        x += silu(rms_norm(x, lw.ffn_norm) @ lw.w_ff1) @ lw.w_ff2
    return x


def _head(weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Next-token logits [n, vocab] of hidden rows [n, d_model]."""
    logits = rms_norm(x, weights.final_norm) @ weights.head
    if not np.isfinite(logits).all():
        raise DataError("non-finite logits produced")
    return logits.astype(np.float32, copy=False)


def check_token_ids(tokens, vocab_size: int) -> None:
    """Every id must be an integer (``is_token_int``) in [0, vocab_size);
    raises DataError naming the offset of the first that is not."""
    for offset, token in enumerate(tokens):
        if type(token) is not int and not is_token_int(token):
            raise DataError(f"token id {token!r} at offset {offset} is not an integer")
        if not 0 <= token < vocab_size:
            raise DataError(
                f"token id {token} at offset {offset} outside vocab of size {vocab_size}"
            )


def check_position(cfg: ModelConfig, last: int, what: str) -> None:
    """``what`` (a stage, or the segment a pass writes) may reach position
    ``last`` only up to the model's ``max_position``."""
    if last > cfg.max_position:
        raise PositionOverflowError(
            f"{what} would reach position {last}, beyond max_position {cfg.max_position}"
        )


def forward_paths(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    plan: StagePlan,
    tokens,
    rows: list[int],
    index: int,
) -> np.ndarray:
    """Decode one token at each of ``n`` slots in one pass: [n, vocab] logits.

    Row r feeds ``tokens[r]`` to slot ``index`` of the plan's owner at
    position ``rows[r]``; every row's owner holds ``index`` slots.  The
    rows go through the layers as one block (``_decode_rows``).  The
    owners share one position and one visible set apart from their own
    segment; the active paths of a reasoning step under the shared
    position scheme do.  Each row attends over the plan's shared parts
    (one product for all rows), then its own segment's slots up to and
    including its new one, staged there first (one product over the rows
    of the cache's path slab).  The new slots are staged layer by layer
    and committed after the logits, so a call that raises leaves the
    cache as it was.
    """
    cfg = weights.config
    n = len(rows)
    if n < 1 or len(tokens) != n:
        raise DataError(f"need one token per row, got {len(tokens)} for {n} rows")
    check_token_ids(tokens, cfg.vocab_size)
    writes, js = plan.rows(rows, index, 1)
    position = int(plan.layout.positions(writes.segments[0].owner, index, 1)[0])
    check_position(cfg, position, writes.segments[0].owner)
    # BLAS sends a one-row product to a matrix-vector kernel that rounds
    # differently from the matrix-matrix kernel a block of rows uses, so a
    # single row runs as two identical rows.  With OpenBLAS that kernel
    # gives each row the same bits at any block height, so a path's logits
    # equal its single-path replay's and a greedy replay cannot flip.
    width = max(n, 2)

    def attention(li, q, k, v):
        writes.stage(li, 0, k[:n, None], v[:n, None])
        keys, values = plan.shared[li]
        # the rows' own segments up to and including the staged slot, one
        # [n, index+1] part scored row by row (a duplicated row shares it)
        own_k, own_v = writes.keys(li, index + 1), writes.values(li, index + 1)
        return attend(q, [*keys, own_k], [*values, own_v], cfg.d_k)

    tokens = list(tokens) * (width // n)
    x = _decode_rows(weights, table, tokens, js * (width // n), position, attention)
    logits = _head(weights, x)[:n]
    writes.commit()
    return logits


def forward_step(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    cache: PagedKVCache,
    layout: DecodeLayout,
    token: int,
    slot: SlotAddress,
) -> np.ndarray:
    """Decode one token at ``slot``: returns next-token logits.

    The one-row case of ``forward_paths``, under a plan built for this
    pass: attends over the layout's visible segments (stored slots first,
    this slot last), staging the slot's augmented k/v stacks in its
    segment and committing them after the logits.
    """
    plan = StagePlan(cache, layout, [slot.segment])
    return forward_paths(weights, table, plan, [token], [0], slot.index)[0]


def forward_causal(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    plan: StagePlan,
    tokens,
    index: int,
    keep: int = 1,
) -> np.ndarray:
    """Feed tokens known in advance to the new slots from ``index`` on, in
    the plan's one owner segment, which holds ``index`` slots; returns the
    last ``keep`` rows' logits, [keep, vocab].

    The rows run in causal blocks of ``CAUSAL_CHUNK``.  A block's k/v are
    staged in the segment's reserved storage, and its rows attend over
    the plan's shared parts and over their own segment up to and
    including themselves, in one masked product against a view of that
    storage, so the scores never exceed [CAUSAL_CHUNK, n_heads, length].
    Every token id, position and the segment's room are checked before
    anything is staged, and the slots are committed only after the last
    block, so a call that raises leaves the segment at the length it had.
    """
    cfg = weights.config
    n = len(tokens)
    if n < 1:
        raise DataError("a causal block of no tokens yields no logits")
    if not 1 <= keep <= n:
        raise DataError(f"cannot keep {keep} rows of {n}")
    if len(plan.owners) != 1:
        raise CacheConsistencyError(
            f"a causal pass writes one segment, the plan owns {len(plan.owners)}"
        )
    check_token_ids(tokens, cfg.vocab_size)
    writes, (j,) = plan.rows([0], index, n)
    owner = writes.segments[0].owner
    positions = plan.layout.positions(owner, index, n)
    check_position(cfg, int(positions.max()), owner)

    def attention(li, q, k, v):
        writes.stage(li, lo, k[None], v[None])
        keys, values = plan.shared[li]
        # the segment's own row through the block's last staged slot
        own_k, own_v = writes.keys(li, index + hi)[0], writes.values(li, index + hi)[0]
        return attend(q, [*keys, own_k], [*values, own_v], cfg.d_k, causal=True)

    first_kept = n - keep
    kept = []
    for lo in range(0, n, CAUSAL_CHUNK):
        hi = min(lo + CAUSAL_CHUNK, n)
        x = _decode_rows(weights, table, tokens[lo:hi], j, positions[lo:hi], attention)
        if hi > first_kept:
            kept.append(_head(weights, x[max(first_kept - lo, 0) :]))
    writes.commit()
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def prefill(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    cache: PagedKVCache,
    layout: DecodeLayout,
    tokens,
) -> np.ndarray:
    """Feed the prompt tokens in causal chunks; returns the last slot's logits.

    One ``forward_causal`` call over the prompt segment, under a plan
    built for it: the prompt runs in blocks of ``CAUSAL_CHUNK`` rows, not
    one forward pass per token, and a prefill that raises writes no prompt
    slot.
    """
    plan = StagePlan(cache, layout, [PROMPT])
    return forward_causal(weights, table, plan, list(tokens), cache.length(PROMPT))[0]
