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
block (``_decode_rows``), so each weight matrix is read once per block:

* ``forward_paths`` decodes one new slot for each active path of a
  reasoning step, and rows never mix.  A one-row pass (``forward_step``)
  runs as two identical rows so that it uses the same BLAS kernels as a
  batch; with OpenBLAS a path's logits are then bit-identical to its
  single-path replay (the tested bound is 1e-5).  Only reasoning needs
  that duplicated row; nothing else decodes through it.
* ``forward_causal`` feeds tokens to consecutive slots of one segment in
  causal blocks of ``CAUSAL_CHUNK`` rows with per-row positions: tokens
  known in advance (the prompt, the re-prefill baseline's flattened
  sequence), and each answer token (the engine's, and the re-prefill
  baseline's own) as a one-row block.  Its logits match one
  ``forward_step`` per slot within float32 rounding.

Both passes take the other visible segments as attention parts from
``PagedKVCache.parts``.  An answer slot sees every path; when the paths
are equally long its parts are three per layer: the prompt, the written
part of the path slab as one view, and the answer itself.

Both passes write the cache the same way: they take one write handle
(``PagedKVCache.rows``) for their new slots before the first layer, stage
each layer's new k/v straight into the reserved storage past the
committed slots, and commit the slots only after the logits are
computed.  Staged slots are invisible to every other reader, so a pass
that raises leaves the cache at the length it had.

Weight file format ("PTW1", little-endian):
  magic (4 bytes), then the config as eight uint32 values in order
  (n_layers, d_model, n_heads, d_k, d_ff, vocab_size, rope_base,
  max_position), then float32 tensors row-major in this order:
  embedding [vocab, d_model]; per layer: attn_norm [d_model],
  w_q, w_k, w_v, w_o [d_model, d_model], ffn_norm [d_model],
  w_ff1 [d_model, d_ff], w_ff2 [d_ff, d_model]; final_norm [d_model];
  head [d_model, vocab].
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CacheConsistencyError,
    ConfigError,
    DataError,
    LayoutError,
    PositionOverflowError,
)
from .kvcache import PagedKVCache, SlotAddress
# stage strings and the visibility rule live in masking; stages re-exported
from .masking import FLAT, REASONING, SUMMARIZATION, visible_segments  # noqa: F401
from .positional import (
    ANSWER,
    PROMPT,
    PositionAssignment,
    Rope,
    ThoughtEmbeddingTable,
    path_key,
    rope_for,
)

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
    attn_norm: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ffn_norm: np.ndarray
    w_ff1: np.ndarray
    w_ff2: np.ndarray


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
            expected[f"layer{li}.w_q"] = (lw.w_q, (d, d))
            expected[f"layer{li}.w_k"] = (lw.w_k, (d, d))
            expected[f"layer{li}.w_v"] = (lw.w_v, (d, d))
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
        LayerWeights(
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
            LayerWeights(
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


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Normalize over the last axis, so a [n, d] block is n independent rows."""
    mean_square = np.square(x).sum(axis=-1, keepdims=True) / x.shape[-1]
    return (x * (1.0 / np.sqrt(mean_square + NORM_EPS)) * gain).astype(np.float32, copy=False)


def silu(x: np.ndarray) -> np.ndarray:
    # x * sigmoid(x) with sigmoid(x) = (1 + tanh(x / 2)) / 2: stable for any x
    return 0.5 * x * (1.0 + np.tanh(0.5 * x))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    scores /= np.sqrt(np.float32(d_k))  # a new array either way
    n = q.shape[0]
    if causal and n > 1:  # one row sees its whole part: no triangle to build
        later = np.triu(np.ones((n, n), dtype=bool), 1)[:, None, :]
        np.copyto(scores[..., scores.shape[-1] - n :], -np.inf, where=later)
    weights = softmax(scores)
    out = np.zeros_like(q)
    start = 0
    for v in values:
        m = v.shape[-3] * (v.shape[1] if v.ndim == 5 else 1)
        w = weights[..., start : start + m]  # [n, H, m]
        if v.ndim == 3:  # [H, n, m] @ [H, m, d_k] -> [n, H, d_k]
            out += (w.transpose(1, 0, 2) @ v.transpose(1, 0, 2)).transpose(1, 0, 2)
        elif v.ndim == 4:  # [n, H, 1, m] @ [n, H, m, d_k] -> [n, H, d_k]
            out += (w[:, :, None, :] @ v.transpose(0, 2, 1, 3))[:, :, 0]
        else:  # [n, g, H, 1, m] @ [n, g, H, m, d_k] -> [n, H, d_k], summed over g
            w = w.reshape(*w.shape[:2], v.shape[1], -1).transpose(0, 2, 1, 3)
            out += (w[..., None, :] @ v.transpose(0, 1, 3, 2, 4))[..., 0, :].sum(axis=1)
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
    expected_lengths: dict[str, int] = field(default_factory=dict)
    flat_positions: np.ndarray = ()

    def __post_init__(self):
        self.flat_positions = np.asarray(self.flat_positions, dtype=np.int64)
        self._thoughts = {PROMPT: 0, ANSWER: 0}  # built once, read on every pass
        self._thoughts.update((path_key(i), j) for i, j in enumerate(self.thought_labels))

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
        return 0 if self.stage == FLAT else self._thoughts[segment]

    def visible_segments(self, segment: str) -> tuple[str, ...]:
        return visible_segments(self.stage, segment, len(self.thought_labels))


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
    # q and k rotate in one call, so per-row positions are given twice
    both = positions if np.ndim(positions) == 0 else np.concatenate([positions, positions])
    x = weights.embedding[tokens]
    for li, lw in enumerate(weights.layers):
        u = rms_norm(x, lw.attn_norm)
        q = (u @ lw.w_q).reshape(n, heads, d_k)
        k = (u @ lw.w_k).reshape(n, heads, d_k)
        v = (u @ lw.w_v).reshape(n, heads, d_k)
        thought = table.vectors[thoughts, li]
        rotated = rope.rotate(np.concatenate([q, k + thought]), both)
        attn = attention(li, rotated[:n], rotated[n:], v + thought)
        x = x + attn.reshape(n, cfg.d_model) @ lw.w_o
        u2 = rms_norm(x, lw.ffn_norm)
        x = x + silu(u2 @ lw.w_ff1) @ lw.w_ff2
    return x


def _head(weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Next-token logits [n, vocab] of hidden rows [n, d_model]."""
    logits = rms_norm(x, weights.final_norm) @ weights.head
    if not np.isfinite(logits).all():
        raise DataError("non-finite logits produced")
    return logits.astype(np.float32, copy=False)


def _check_tokens(cfg: ModelConfig, tokens) -> None:
    for token in tokens:
        if not 0 <= token < cfg.vocab_size:
            raise DataError(f"token id {token} outside vocab of size {cfg.vocab_size}")


def _visible_others(layout: DecodeLayout, cache: PagedKVCache, others) -> list[str]:
    """The non-empty segments of ``others``, each checked against the
    layout's expected length."""
    for seg in others:
        want = layout.expected_lengths.get(seg)
        if want is not None and cache.length(seg) != want:
            raise CacheConsistencyError(
                f"visible segment {seg!r} holds {cache.length(seg)} slots, expected {want}"
            )
    return [seg for seg in others if cache.length(seg)]


def _check_position(cfg: ModelConfig, position: int) -> None:
    if position > cfg.max_position:
        raise PositionOverflowError(
            f"position {position} exceeds max_position {cfg.max_position}"
        )


def forward_paths(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    cache: PagedKVCache,
    layout: DecodeLayout,
    tokens,
    slots,
) -> np.ndarray:
    """Decode one token at each of ``n`` slots in one pass: [n, vocab] logits.

    The rows go through the layers as one block (``_decode_rows``).  The
    rows must share one position and one visible set apart from their own
    segment; the active paths of a reasoning step under the shared
    position scheme do.  Each row attends over the shared segments (one
    product for all rows), then its own segment's committed slots (one
    product over the rows of the cache's path slab), then its own new
    slot.  The new slots are staged layer by layer and committed after
    the logits, so a call that raises leaves the cache as it was.
    """
    cfg = weights.config
    n = len(slots)
    if n < 1 or len(tokens) != n:
        raise DataError(f"need one token per slot, got {len(tokens)} for {n} slots")
    _check_tokens(cfg, tokens)
    owns = [slot.segment for slot in slots]
    rows = cache.rows(owns, 1)  # distinct segments of one slab, equally long
    index = rows.start
    position = int(layout.positions(owns[0], index, 1)[0])
    base = layout.base(owns[0])
    shared = [seg for seg in layout.visible_segments(owns[0]) if seg != owns[0]]
    for slot in slots:
        if slot.index != index:
            raise CacheConsistencyError(f"slot {slot} does not extend segment (filled={index})")
        if layout.base(slot.segment) != base:
            raise CacheConsistencyError("batched slots must share one position")
        mine = [seg for seg in layout.visible_segments(slot.segment) if seg != slot.segment]
        if mine != shared:
            raise CacheConsistencyError("batched slots must share their visible segments")
    _check_position(cfg, position)
    parts = cache.parts(_visible_others(layout, cache, shared))
    js = [layout.thought_index(seg) for seg in owns]
    # BLAS sends a one-row product to a matrix-vector kernel that rounds
    # differently from the matrix-matrix kernel a block of rows uses, so a
    # single row runs as two identical rows.  With OpenBLAS that kernel
    # gives each row the same bits at any block height, so a path's logits
    # equal its single-path replay's and a greedy replay cannot flip.
    width = max(n, 2)

    def attention(li, q, k, v):
        rows.stage(li, 0, k[:n, None], v[:n, None])
        keys, values = parts.at(li)
        if index:  # the rows' own segments, scored row by row at any width
            keys.append(rows.keys(li, index))
            values.append(rows.values(li, index))
        keys.append(k[:, None])
        values.append(v[:, None])
        return attend(q, keys, values, cfg.d_k)

    tokens = list(tokens) * (width // n)
    x = _decode_rows(weights, table, tokens, js * (width // n), position, attention)
    logits = _head(weights, x)[:n]
    rows.commit(position, js)
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

    The one-row case of ``forward_paths``: attends over the layout's
    visible segments (stored slots first, this slot last), staging the
    slot's augmented k/v stacks in its segment and committing them after
    the logits.
    """
    return forward_paths(weights, table, cache, layout, [token], [slot])[0]


def forward_causal(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    cache: PagedKVCache,
    layout: DecodeLayout,
    tokens,
    start: SlotAddress,
    keep: int = 1,
) -> np.ndarray:
    """Feed tokens known in advance to the new slots from ``start`` on, in
    one segment; returns the last ``keep`` rows' logits, [keep, vocab].

    The rows run in causal blocks of ``CAUSAL_CHUNK``.  A block's k/v are
    staged in the segment's reserved storage, and its rows attend over
    the other visible segments and over their own segment up to and
    including themselves, in one masked product against a view of that
    storage, so the scores never exceed [CAUSAL_CHUNK, n_heads, length].
    Every token id, position, visible length and the segment's room are
    checked before anything is staged, and the slots are committed only
    after the last block, so a call that raises leaves the segment at the
    length it had.
    """
    cfg = weights.config
    n = len(tokens)
    if n < 1:
        raise DataError("a causal block of no tokens yields no logits")
    if not 1 <= keep <= n:
        raise DataError(f"cannot keep {keep} rows of {n}")
    _check_tokens(cfg, tokens)
    owner, index = start.segment, start.index
    if index != cache.length(owner):
        raise CacheConsistencyError(
            f"slot {start} does not extend segment (filled={cache.length(owner)})"
        )
    positions = layout.positions(owner, index, n)
    _check_position(cfg, int(positions.max()))
    others = [seg for seg in layout.visible_segments(owner) if seg != owner]
    parts = cache.parts(_visible_others(layout, cache, others))
    j = layout.thought_index(owner)
    rows = cache.rows([owner], n)

    def attention(li, q, k, v):
        rows.stage(li, lo, k[None], v[None])
        keys, values = parts.at(li)
        keys.append(rows.keys(li, index + hi)[0])  # the segment's own row
        values.append(rows.values(li, index + hi)[0])
        return attend(q, keys, values, cfg.d_k, causal=True)

    first_kept = n - keep
    kept = []
    for lo in range(0, n, CAUSAL_CHUNK):
        hi = min(lo + CAUSAL_CHUNK, n)
        x = _decode_rows(weights, table, tokens[lo:hi], j, positions[lo:hi], attention)
        if hi > first_kept:
            kept.append(_head(weights, x[max(first_kept - lo, 0) :]))
    rows.commit(positions, j)
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def prefill(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    cache: PagedKVCache,
    layout: DecodeLayout,
    tokens,
) -> np.ndarray:
    """Feed the prompt tokens in causal chunks; returns the last slot's logits.

    One ``forward_causal`` call over the prompt segment: the prompt runs
    in blocks of ``CAUSAL_CHUNK`` rows, not one forward pass per token,
    and a prefill that raises writes no prompt slot.
    """
    tokens = list(tokens)
    start = SlotAddress(PROMPT, cache.length(PROMPT))
    return forward_causal(weights, table, cache, layout, tokens, start)[0]
