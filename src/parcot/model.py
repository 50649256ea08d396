"""Minimal decoder-only transformer: one forward pass for every stage.

Pre-norm blocks, no biases, SiLU feed-forward, RMS normalization, full
multi-head attention.  A forward pass runs under a stage plan
(``StagePlan``) that holds its slots' absolute positions and thought
indices, as given, and the ordered set of cache segments they may attend
over, which the one visibility rule ``masking.visible_segments`` gives
for their segment; attention is computed only over those segments,
scaled by 1/sqrt(d_k).

All parameters, cache entries, and activations are 32-bit floats.
Attention for a slot is reduced in a fixed order: visible segments in
the rule's order, then its own segment's slots in write order up to and
including itself.

``forward`` is the one pass.  It feeds m new slots to each of n owners,
the segments the plan lets it write: a reasoning step is n paths x 1
slot; the prompt, each answer token and the re-prefill baseline's
flattened sequence are 1 owner x m slots.  The slots run in blocks of up
to ``CAUSAL_CHUNK`` per owner, and a block's rows go through the layers
together (``_decode_rows``), so each weight matrix is read once per
block.  A layer computes q, k and v as one broadcast product of the rows
with its [3, d_model, d_model] ``w_qkv`` stack, adds the rows' thought
embeddings (looked up once per pass) to k and v, and rotates q and k in
one ``Rope.rotate`` call (tables built once per pass, or the rope's
cached ones for a single position).

Each row attends over the plan's shared parts, then over its own segment
up to and including its own new slot, staged there first: one part
[n, length] read in place, scored owner by owner, in which a row of a
block does not see the block's later slots.  Only each owner's last
``keep`` slots' logits are returned, and later slots read a slot only
through its k/v, so a block with none of them stops at the last layer
once its k/v are staged: no attention, output projection, feed-forward
or head runs for it there.  Every slot and logit keeps its bits.

The arithmetic contract, which the bit-identity tests check with
single-threaded OpenBLAS under the kernel it selects and under its
Haswell (which Zen CPUs run), SkylakeX and Sandybridge kernels, and also
with numpy's AVX-512 dispatch off and with BLAS threads unpinned:
  - the stack's product runs one BLAS product per matrix, so q, k and v
    have the bits of three separate products;
  - BLAS sends a one-row product to a matrix-vector kernel that rounds
    differently from the matrix-matrix kernel a block of rows uses, so a
    pass of one slot under a plan of reasoning paths runs it as two
    identical rows, through every product and the head.  A row then gets
    the same bits at any block height, so a path's logits equal its
    single-path replay's (the tested bound is 1e-5) and a greedy replay
    cannot flip.  Only reasoning needs the duplicated row.
Left open: under OpenBLAS's Prescott kernel a lone row run as two
duplicated rows does not get the bits it gets inside a larger batch.

A stage's plan is built once when the stage starts (``prefill`` builds
one for its single pass).  It holds each layer's attention parts over
the other visible segments, the owners' segments, thought indices,
positions and storage, and the outcome of every length and batch check,
so a pass checks its token ids, stages its new slots, attends over the
plan's parts and its own slots, and commits.  An answer slot sees every
path, and its parts are three per layer under every termination
strategy: the prompt, the path slab as one view up to the longest path's
fill, and the answer itself.  When the paths' lengths differ, the plan's
one mask (``StagePlan.hidden``) scores each path's unwritten tail -inf,
so no slot past a path's end gets any weight.

A pass names the owners it writes by their positions among the plan's
owners, plus the one slot index they all extend, and takes its write
handle from the plan (``StagePlan.rows``, a ``kvcache.Rows``) before the
first layer; the handle checks the owners' common fill and their room.
The pass stages each layer's new k/v straight into the reserved storage
past the committed slots, and commits the slots only after the logits
are computed.  Staged slots are invisible to every other reader, so a
pass that raises leaves the cache at the length it had.

``attend`` starts its output from the first part's product, the softmax
runs in place on the scores, and the score scale and the causal triangle
are cached per ``d_k`` and per block height.

Weight file format ("PTW1", little-endian):
  magic (4 bytes), then the config as one uint32 per ``ModelConfig``
  field in declaration order (n_layers, d_model, n_heads, d_k, d_ff,
  vocab_size, rope_base, max_position), then float32 tensors row-major,
  each named and shaped as ``tensor_shapes(config)`` lists them in file
  order: the embedding, each layer's tensors, the final norm and the
  head.  ``w_q``, ``w_k`` and ``w_v`` are written as three matrices, in
  the order of the ``w_qkv`` stack they are loaded into.  Both loaders
  build their weights with ``ModelWeights.from_tensors``.  One header
  reader gives a file's ``ModelConfig`` to ``load_weights`` and to
  ``weights_config``, which reads the header alone.
"""

import math
import os
import struct
from dataclasses import dataclass, fields
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
from .masking import visible_segments
from .positional import (
    PROMPT,
    SHARED,
    PositionAssignment,
    Rope,
    ThoughtEmbeddingTable,
    is_path,
    path_key,
    rope_for,
)
from .tokenizer import check_seed, is_real, is_token_int

WEIGHT_MAGIC = b"PTW1"

NORM_EPS = 1e-6

# Rows per block of a causal pass (prefill, the re-prefill baseline): large
# enough that each weight read serves many rows, small enough that the
# scores stay at [CAUSAL_CHUNK, n_heads, length] however long the sequence is.
CAUSAL_CHUNK = 32

# The most parameter bytes (float32, as PTW1 stores them) a model may have.
# ``ModelConfig`` checks it arithmetically, so a model of any size is
# refused before a tensor is listed, drawn or read; 1 GiB admits a
# bandwidth-bound roofline model of a few hundred MB.
MAX_MODEL_BYTES = 2**30


@dataclass(frozen=True)
class ModelConfig:
    """Every size is an integer (``is_token_int``, so not a bool), stored as
    ``int``; ``rope_base`` is a finite positive real, kept as given.  The
    parameters take at most ``MAX_MODEL_BYTES`` (``parameter_bytes``)."""

    n_layers: int
    d_model: int
    n_heads: int
    d_k: int
    d_ff: int
    vocab_size: int
    rope_base: float = 10000.0
    max_position: int = 4096

    def __post_init__(self):
        for f in fields(self):
            if f.name == "rope_base":
                continue
            value = getattr(self, f.name)
            if not is_token_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            object.__setattr__(self, f.name, int(value))
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
        base = self.rope_base
        if not (is_real(base) and math.isfinite(base) and base > 0):
            raise ConfigError(f"rope_base must be a finite positive real, got {base!r}")
        if self.max_position < 1:
            raise ConfigError("max_position must be positive")
        size = parameter_bytes(self)
        if size > MAX_MODEL_BYTES:
            raise ConfigError(
                f"model has {size} parameter bytes, above the cap of {MAX_MODEL_BYTES}"
            )

    def rope(self) -> Rope:
        return rope_for(self.d_k, self.rope_base)


# the PTW1 header after the magic: one uint32 per ModelConfig field
_HEADER = struct.Struct(f"<{len(fields(ModelConfig))}I")
_HEADER_END = len(WEIGHT_MAGIC) + _HEADER.size


@dataclass
class LayerWeights:
    """One block's tensors.  The query, key and value projections are the
    rows of one [3, d_model, d_model] stack, in PTW1 order, so one product
    gives all three; ``w_q``, ``w_k`` and ``w_v`` are its rows, C-contiguous
    views."""

    attn_norm: np.ndarray
    w_qkv: np.ndarray
    w_o: np.ndarray
    ffn_norm: np.ndarray
    w_ff1: np.ndarray
    w_ff2: np.ndarray

    @classmethod
    def from_projections(cls, attn_norm, w_q, w_k, w_v, w_o, ffn_norm, w_ff1, w_ff2):
        return cls(attn_norm, np.stack([w_q, w_k, w_v]), w_o, ffn_norm, w_ff1, w_ff2)

    @property
    def w_q(self) -> np.ndarray:
        return self.w_qkv[0]

    @property
    def w_k(self) -> np.ndarray:
        return self.w_qkv[1]

    @property
    def w_v(self) -> np.ndarray:
        return self.w_qkv[2]


def _tensor_table(config: ModelConfig) -> tuple[dict, dict, dict]:
    """PTW1's tensor shapes by field: those before the layers, one layer's
    (the arguments of ``from_projections``) and those after them."""
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    layer = {
        "attn_norm": (d,),
        "w_q": (d, d),
        "w_k": (d, d),
        "w_v": (d, d),
        "w_o": (d, d),
        "ffn_norm": (d,),
        "w_ff1": (d, f),
        "w_ff2": (f, d),
    }
    return {"embedding": (v, d)}, layer, {"final_norm": (d,), "head": (d, v)}


def _file_tensors(config: ModelConfig):
    """(layer index or None, field, shape) of every PTW1 tensor in file
    order."""
    leading, layer, trailing = _tensor_table(config)
    yield from ((None, field, shape) for field, shape in leading.items())
    for li in range(config.n_layers):
        yield from ((li, field, shape) for field, shape in layer.items())
    yield from ((None, field, shape) for field, shape in trailing.items())


def parameter_bytes(config: ModelConfig) -> int:
    """PTW1's parameter bytes for ``config``: one layer's times
    ``n_layers``, plus the tensors around the layers."""
    leading, layer, trailing = (
        sum(math.prod(shape) for shape in table.values()) for table in _tensor_table(config)
    )
    return 4 * (leading + config.n_layers * layer + trailing)


def tensor_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every tensor of a PTW1 file, in file order.  Layer
    li's tensors are named ``layer{li}.attn_norm`` and so on."""
    return [
        (field if li is None else f"layer{li}.{field}", shape)
        for li, field, shape in _file_tensors(config)
    ]


@dataclass
class ModelWeights:
    config: ModelConfig
    embedding: np.ndarray
    layers: list[LayerWeights]
    final_norm: np.ndarray
    head: np.ndarray

    @classmethod
    def from_tensors(cls, config: ModelConfig, tensors) -> "ModelWeights":
        """Validated weights from the tensors of ``tensor_shapes(config)``,
        in file order."""
        top, layers = {}, [{} for _ in range(config.n_layers)]
        for (li, field, _), tensor in zip(_file_tensors(config), tensors, strict=True):
            (top if li is None else layers[li])[field] = tensor
        weights = cls(config, layers=[LayerWeights.from_projections(**kw) for kw in layers], **top)
        weights.validate()
        return weights

    def validate(self) -> None:
        """Every tensor has its ``tensor_shapes`` shape and finite entries."""
        cfg = self.config
        if len(self.layers) != cfg.n_layers:
            raise ConfigError(f"expected {cfg.n_layers} layers, got {len(self.layers)}")
        for li, lw in enumerate(self.layers):
            # the table checks w_q, w_k and w_v, rows of w_qkv that cover
            # all of it only if it stacks three of them
            if lw.w_qkv.ndim != 3 or len(lw.w_qkv) != 3:
                raise ConfigError(f"layer{li}.w_qkv has shape {lw.w_qkv.shape}, not a stack of three")
        for (name, shape), tensor in zip(tensor_shapes(cfg), self.tensors()):
            if tensor.shape != shape:
                raise ConfigError(f"{name} has shape {tensor.shape}, expected {shape}")
            if not np.isfinite(tensor).all():
                raise ConfigError(f"{name} contains non-finite entries")

    def tensors(self):
        """All tensors in the serialized file order (``tensor_shapes``)."""
        for li, field, _ in _file_tensors(self.config):
            yield getattr(self if li is None else self.layers[li], field)


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Zero-mean gaussian matrices at scale 1/sqrt(d_model); unit norm gains."""
    rng = np.random.default_rng(check_seed(seed, "model_seed"))
    scale = config.d_model**-0.5

    def make(shape):
        if len(shape) == 1:
            return np.ones(shape, dtype=np.float32)
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    # draw order, which the pinned weight-file digests fix: every layer's
    # matrices in file order, then the embedding, then the head
    (_, embedding), *middle, (_, head) = tensor_shapes(config)
    middle = [make(shape) for _, shape in middle]
    return ModelWeights.from_tensors(config, [make(embedding), *middle, make(head)])


def save_weights(weights: ModelWeights, path: str) -> None:
    cfg = weights.config
    if cfg.rope_base != int(cfg.rope_base):
        raise ConfigError("weight files store rope_base as an integer")
    header = _HEADER.pack(*(int(getattr(cfg, f.name)) for f in fields(cfg)))
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(header)
        for tensor in weights.tensors():
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes(order="C"))


def _read_header(fh, path: str) -> ModelConfig:
    """The model of the PTW1 file open as ``fh``, from its magic and header;
    ``fh`` is left at the file's first tensor."""
    head = fh.read(_HEADER_END)
    if head[:4] != WEIGHT_MAGIC:
        raise ConfigError(f"bad weight-file magic in {path!r}")
    if len(head) < _HEADER_END:
        raise ConfigError(f"weight file {path!r} is shorter than its {_HEADER_END}-byte header")
    values = _HEADER.unpack(head[len(WEIGHT_MAGIC) :])
    # each field takes its declared type, so rope_base comes back a float
    return ModelConfig(**{f.name: f.type(v) for f, v in zip(fields(ModelConfig), values)})


def weights_config(path: str) -> ModelConfig:
    """The model a PTW1 file holds, read from its header alone."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_weights(path: str) -> ModelWeights:
    """The weights of a PTW1 file; its size is checked against the length
    its header implies before any tensor byte is read."""
    with open(path, "rb") as fh:
        config = _read_header(fh, path)
        shapes = [shape for _, shape in tensor_shapes(config)]
        sizes = [math.prod(shape) for shape in shapes]
        length, expected = os.fstat(fh.fileno()).st_size, _HEADER_END + 4 * sum(sizes)
        if length != expected:
            raise ConfigError(f"weight file length {length} != expected {expected}")
        blob = fh.read(expected - _HEADER_END)
    parts = np.split(np.frombuffer(blob, dtype="<f4"), np.cumsum(sizes)[:-1])
    return ModelWeights.from_tensors(
        config, [part.reshape(shape).copy() for part, shape in zip(parts, shapes)]
    )


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
    """[n, n], read-only: row r's entry c is True when slot c comes after r."""
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    later.flags.writeable = False
    return later


def attend(q: np.ndarray, keys, values, d_k: int, causal: bool = False, hidden=None) -> np.ndarray:
    """Per-head attention of query rows over a visible set given in parts.

    q: [n, n_heads, d_k].  ``keys`` and ``values`` list the parts of the
    visible set in order.  A part of shape [m, n_heads, d_k] is seen by
    every row and scored for all rows in one product.  A part of shape
    [o, m, n_heads, d_k] holds o owners' own [m] entries, and the rows are
    the owners' s = n/o rows each, owner by owner (one owner shared by a
    duplicated row has o = 1).  With ``causal`` an owner's s rows are
    scored against its entries as one [s, d_k] @ [d_k, m] product, else
    each row is scored alone, so a row's bits do not depend on how many
    rows share its owner.  A part of shape [n, g, m, n_heads, d_k] gives
    row r its own g groups of [m] entries, group by group (a leading axis
    of 1 is shared by every row; the path slab, read in place, is such a
    part).  With ``causal`` the last part
    is the owners' segments, ending with their rows' own slots in row
    order, and an owner's row j does not see its s-1-j slots after its
    own.  The score columns are the parts' slots in order, a grouped
    part's group by group; ``hidden``, a boolean [c] (a plan's
    ``hidden``), hides column j < c from every row where it is set.  A
    hidden or later slot scores -inf, so its weight is 0.  One softmax
    runs over all parts' scores and the values are summed part by part,
    so no part is copied or concatenated.  Returns [n, n_heads, d_k].  A
    single-entry visible set reduces to that entry's value row exactly
    (softmax over one element is 1).
    """
    n, heads = q.shape[:2]
    q_heads = q.transpose(1, 0, 2)  # [H, n, d_k]
    scores = []  # [H, n, m] each
    for k in keys:
        if k.ndim == 3:  # [H, n, d_k] @ [H, d_k, m]
            scores.append(q_heads @ k.transpose(1, 2, 0))
        elif k.ndim == 4:  # [H, n/g, g, d_k] @ [H, o, d_k, m]
            g = n // len(k) if causal else 1
            own = q_heads.reshape(heads, -1, g, d_k) @ k.transpose(2, 0, 3, 1)
            scores.append(own.reshape(heads, n, -1))
        else:  # [n, g, H, m, d_k] @ [n, 1, H, d_k, 1] -> [n, g, H, m]
            grouped = (k.transpose(0, 1, 3, 2, 4) @ q[:, None, ..., None])[..., 0]
            scores.append(grouped.transpose(2, 0, 1, 3).reshape(heads, n, -1))
    scores = scores[0] if len(scores) == 1 else np.concatenate(scores, axis=-1)
    scores /= _score_scale(d_k)  # a new array either way
    if causal:  # [H, o, s, s]: an owner's rows against its last s slots
        s = n // len(keys[-1])
        rows = scores.reshape(heads, -1, s, scores.shape[-1])
        np.copyto(rows[..., -s:], -np.inf, where=_later(s))
    if hidden is not None:
        np.copyto(scores[..., : hidden.size], -np.inf, where=hidden)
    weights = softmax(scores)
    out = None
    start = 0
    for v in values:
        m = v.shape[-3] * (v.shape[1] if v.ndim == 5 else 1)
        w = weights[..., start : start + m]  # [H, n, m]
        if v.ndim == 3:  # [H, n, m] @ [H, m, d_k]
            part = w @ v.transpose(1, 0, 2)
        elif v.ndim == 4:  # [H, n/g, g, m] @ [H, o, m, d_k]
            g = n // len(v) if causal else 1
            part = (w.reshape(heads, -1, g, m) @ v.transpose(2, 0, 1, 3)).reshape(heads, n, d_k)
        else:  # [n, g, H, 1, m] @ [n, g, H, m, d_k] -> [n, H, d_k], summed over g
            w = w.reshape(heads, n, v.shape[1], -1).transpose(1, 2, 0, 3)
            part = (w[..., None, :] @ v.transpose(0, 1, 3, 2, 4))[..., 0, :].sum(axis=1)
            part = part.transpose(1, 0, 2)
        if out is None:
            out = part
        else:
            out += part
        start += m
    return out.transpose(1, 0, 2)


class StagePlan:
    """What every pass of one stage shares, resolved once for the stage.

    ``owners`` are the segments the stage writes, each named once: the
    prompt, the answer, or the reasoning paths.  The re-prefill baseline's
    flattened sequence is a prompt too, in a cache of its own.
    ``thoughts`` holds each owner's thought index, and ``positions`` the
    int64 positions of the owners' slots 0..n-1, which they share:
    ``PositionAssignment.positions`` under the shared scheme, or the
    baseline's flattened list.  They must increase, so a pass's last slot
    sits at its largest position.  A pass that asks for a slot past them
    raises ``LayoutError`` before it stages anything.

    The owners must see the same other segments, which their segment alone
    decides (``masking.visible_segments``, with the path slab's rows as
    the paths).  Those segments are complete when the stage starts and no
    pass of the stage writes them, so each layer's keys and values over
    them are taken here once, as views of the cache's storage: ``shared[li]`` holds layer ``li``'s
    key parts and value parts, in the rule's order.  A segment is one part
    (``PagedKVCache.gather``) and an empty one none.  The one stage that
    sees paths, the answer, sees every row of the path slab in row order
    (``path:0..P-1`` right after the prompt), and reads them as one part,
    with no per-path alternative: in place up to the longest row's fill
    (``Slab.prefix``), so an answer token scores three parts per layer
    (prompt, slab, answer) whatever ``P`` is and however long each path
    is.  When the rows' fills differ, ``hidden`` marks the slots at or past each row's own fill among
    the shared parts' score columns, and ``attend`` gives them no weight;
    fills do not change while a stage runs, so the mask is built here once.
    When they are equal (always so under first finish), ``hidden`` is None.

    Under the shared scheme an owner's slot 0 sits right after the prompt
    and the longest path it sees, so a plan that sees other segments checks
    its first position against their fills.  A shorter path is read to its
    own fill, which the plan takes from the cache.

    A pass names the owners it writes by their positions in ``owners``
    (``rows``).  The engine reserves a stage's storage only after building
    its plan, once every check has passed, and a reserved segment keeps
    its identity, so the plan binds the owners' storage (reserved, on one
    slab, and their rows in it) once, at its first write.  A pass then
    checks only what it can change: the positions it names, their common
    fill against the slot it extends, and the room left.
    """

    def __init__(self, cache: PagedKVCache, owners, thoughts, positions):
        names = tuple(owners)
        if not names or len(set(names)) != len(names) or len(thoughts) != len(names):
            raise CacheConsistencyError(
                f"a plan needs distinct owner segments and one thought index each,"
                f" got {names} and {list(thoughts)}"
            )
        slab = cache.paths
        num_paths = 0 if slab is None else slab.k.shape[1]
        # the other segments a slot sees: none, or the prompt and then any paths
        sources = visible_segments(names[0], num_paths)[:-1]
        for owner in names[1:]:
            if visible_segments(owner, num_paths) != (*sources, owner):
                raise CacheConsistencyError("batched slots must share their visible segments")
        self.positions = np.asarray(positions, dtype=np.int64)
        if (np.diff(self.positions) <= 0).any():
            raise LayoutError(f"the positions of {names[0]!r} do not increase")
        fills = [cache.length(seg) for seg in sources]
        if sources:
            end = fills[0] + max(fills[1:], default=0)
            if self.positions[0] != end + 1:
                raise CacheConsistencyError(
                    f"slot 0 of {names[0]!r} sits at position {self.positions[0]}, but the"
                    f" prompt and longest path it sees end at position {end}"
                )
        self.owners = [cache.table(name) for name in names]
        self.thoughts = list(thoughts)
        # rows a pass of one slot runs as: two for reasoning paths (``forward``)
        self.lone_rows = 2 if is_path(names[0]) else 1
        self.every = list(range(len(names)))  # the positions of all owners, in order
        self.slab = self.slab_rows = None  # bound at the first write
        self.hidden = None  # shared score columns past a path's own fill
        if path_key(0) in sources:  # the answer's: the prompt, then every slab row
            own, longest = np.array(fills[1:]), max(fills[1:])
            if own.min() < longest:  # row i's columns [own[i], longest)
                tails = np.arange(longest) >= own[:, None]
                self.hidden = np.concatenate([np.zeros(fills[0], bool), tails.ravel()])
            sources, fills = [PROMPT, slab], [fills[0], longest]
        sources = [(source, fill) for source, fill in zip(sources, fills) if fill]
        self.shared = []
        for li in range(cache.n_layers):
            parts = [
                slab.prefix(li, fill) if source is slab else cache.gather(source, li)
                for source, fill in sources
            ]
            self.shared.append(([k for k, _ in parts], [v for _, v in parts]))

    def slot_positions(self, index: int, n: int) -> np.ndarray:
        """Positions of the owners' slots index..index+n-1, [n] int64."""
        if not 0 <= index <= index + n <= len(self.positions):
            raise LayoutError(
                f"the plan lists {len(self.positions)} positions,"
                f" slots {index}..{index + n - 1} asked for"
            )
        return self.positions[index : index + n]

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
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    tokens,
    thoughts,
    positions,
    attention,
    stage_last=None,
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

    A block whose hidden rows nobody reads passes ``stage_last``: the last
    layer then computes its keys and values as above, hands them to
    ``stage_last(li, k, v)`` and returns None, with no attention, output
    projection or feed-forward.  Every k/v it stages has the bits the full
    layer would stage.
    """
    cfg = weights.config
    n = len(tokens)
    heads, d_k = cfg.n_heads, cfg.d_k
    rope = cfg.rope()
    # Every layer rotates at the same positions.  One position for every
    # row reads the rope's cached tables; per-row tables are built here,
    # once for all layers, as [n, 1, d_k] to broadcast over [..., n, H, d_k].
    if np.ndim(positions):
        positions = tuple(part[:, None] for part in rope.tables(positions))
    # Thought rows, looked up once: [n_layers, n_heads, d_k] for one
    # index, else [n_layers, n, n_heads, d_k], to add to k and v.
    thought = table.vectors[thoughts]
    if thought.ndim == 4:
        thought = thought.swapaxes(0, 1)
    x = weights.embedding[tokens]  # a copy, updated in place
    last = cfg.n_layers - 1
    for li, lw in enumerate(weights.layers):
        # one broadcast product: [n, d] @ [3, d, d], a product per matrix
        qkv = (rms_norm(x, lw.attn_norm) @ lw.w_qkv).reshape(3, n, heads, d_k)
        qkv[1:] += thought[li]  # into k and v
        if li == last and stage_last is not None:
            # rotation is elementwise, so k rotated alone has the same bits
            stage_last(li, rope.rotate(qkv[1], positions), qkv[2])
            return None
        qk = rope.rotate(qkv[:2], positions)
        attn = attention(li, qk[0], qk[1], qkv[2])
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


def forward(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    plan: StagePlan,
    tokens,
    rows: list[int],
    index: int,
    keep: int = 1,
) -> np.ndarray:
    """Feed m = len(tokens) / len(rows) new slots, from ``index`` on, to
    each of the n plan owners at positions ``rows``, which hold ``index``
    slots each; returns the logits of each owner's last ``keep`` slots,
    [n·keep, vocab], owner by owner.

    ``tokens`` holds each owner's m tokens in turn.  The slots run in
    blocks of up to ``CAUSAL_CHUNK`` per owner, a block's rows through the
    layers as one (``_decode_rows``) at the plan's positions.  A block
    stages its k/v in the owners' reserved storage, and each row attends
    over the plan's shared parts and over its own segment up to and
    including itself, one part read in place, so the scores never exceed
    [n·CAUSAL_CHUNK, n_heads, length].  A block with no kept slot stops
    at the last layer once its k/v are staged, since nothing reads its
    last-layer output; the slots and the returned logits have the bits of
    a pass that runs every layer for every row.  Every token id, position
    and the owners' fill and room are checked before anything is staged,
    and the slots are committed only after the last block, so a call that
    raises leaves the cache as it was.
    """
    cfg = weights.config
    n = len(rows)
    m = len(tokens) // n if n else 0
    if m < 1 or n * m != len(tokens) or not 1 <= keep <= m:
        raise DataError(f"cannot feed {len(tokens)} tokens to {n} owners, keeping {keep} each")
    check_token_ids(tokens, cfg.vocab_size)
    writes, thoughts = plan.rows(rows, index, m)
    positions = plan.slot_positions(index, m)
    check_position(cfg, int(positions[-1]), writes.segments[0].owner)
    copies = plan.lone_rows if n * m == 1 else 1  # see the module docstring

    def stage(li, k, v):
        if h == 1:  # [n, 1, H, d_k]; a lone slot's copy is not staged
            writes.stage(li, lo, k[:n, None], v[:n, None])
        else:
            shape = (n, h, *k.shape[1:])
            writes.stage(li, lo, k.reshape(shape), v.reshape(shape))

    def attention(li, q, k, v):
        stage(li, k, v)
        keys, values = plan.shared[li]
        # the owners' own segments through the block's last staged slot
        own_k, own_v = writes.keys(li, index + hi), writes.values(li, index + hi)
        return attend(q, [*keys, own_k], [*values, own_v], cfg.d_k, h > 1, plan.hidden)

    first_kept = m - keep
    kept = []
    for lo in range(0, m, CAUSAL_CHUNK):
        hi = min(lo + CAUSAL_CHUNK, m)
        h = hi - lo
        # each row's token, thought index and position, owner by owner
        if h == 1:  # one slot of each owner
            ids, js, at = list(tokens[lo::m]) * copies, thoughts, positions[lo]
        else:
            ids = [t for first in range(lo, n * m, m) for t in tokens[first : first + h]]
            js, at = np.repeat(thoughts, h), np.tile(positions[lo:hi], n)
        # a block with no kept slot is read only through its k/v
        write_only = stage if hi <= first_kept else None
        x = _decode_rows(weights, table, ids, js[0] if n == 1 else js, at, attention, write_only)
        if write_only is None:
            if lo < first_kept:  # the block's kept slots of each owner
                x = x.reshape(n, h, -1)[:, first_kept - lo :].reshape(-1, x.shape[-1])
            kept.append(_head(weights, x))
    writes.commit()
    if len(kept) > 1:  # each owner's kept slots, block after block
        blocks = [block.reshape(n, -1, block.shape[-1]) for block in kept]
        kept = [np.concatenate(blocks, axis=1).reshape(n * keep, -1)]
    return kept[0][: n * keep]  # a lone slot's second row goes


def forward_step(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    plan: StagePlan,
    token: int,
    slot: SlotAddress,
) -> np.ndarray:
    """Decode one token at ``slot``, a slot of one of the plan's owners:
    returns next-token logits.  One ``forward`` of one slot."""
    names = [seg.owner for seg in plan.owners]
    if slot.segment not in names:
        raise CacheConsistencyError(f"a plan for {names} cannot write {slot.segment!r}")
    return forward(weights, table, plan, [token], [names.index(slot.segment)], slot.index)[0]


def prefill(
    weights: ModelWeights,
    table: ThoughtEmbeddingTable,
    cache: PagedKVCache,
    tokens,
) -> np.ndarray:
    """Feed the prompt tokens to the slots after the prompt's written ones,
    in causal chunks; returns the last slot's logits.

    One ``forward`` over the prompt segment, under a plan built for it
    (thought index 0, the shared scheme's prompt positions): the prompt
    runs in blocks of ``CAUSAL_CHUNK`` rows, not one forward pass per
    token, and a prefill that raises writes no prompt slot.  Only the
    block holding the last slot runs the whole last layer and the head; a
    block with no kept row stops at the last layer once its k/v are
    staged.
    """
    tokens, start = list(tokens), cache.length(PROMPT)
    end = start + len(tokens)
    positions = PositionAssignment(SHARED, l_x=end, l_max=0).positions(PROMPT, 0, end)
    plan = StagePlan(cache, [PROMPT], [0], positions)
    return forward(weights, table, plan, tokens, [0], start)[0]
