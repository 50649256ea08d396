"""Independent reference implementations used only as test oracles.

The dense decoder recomputes every slot's logits with full-sequence
float64 matrix math under an explicit dense mask; the mask oracles spell
out the visibility case-splits with plain Python loops.  Neither shares
code with the engine's per-slot decode loop.  The sample parser and the
training layout are datagen's token-by-token versions, kept to check
the array-based ones.  The sampler is the engine's nucleus sampler as it
was when it drew through ``Generator.choice``.  The decoder's reference
forms are the forward pass as it was before its projections were fused
and its rotation went through interleaved tables: three separate q, k
and v products, the even/odd float64 rotation, and reasoning attention
over three parts (shared segments, the rows' committed slots, the new
slot).
"""

import numbers

import numpy as np

from parcot.datagen import ParsedSample, TrainingLayout
from parcot.errors import FormatError, LayoutError, SamplingError
from parcot.masking import REASONING, AttentionMask, LayoutPlan
from parcot.model import NORM_EPS, attend
from parcot.positional import ANSWER, PROMPT, SHARED, PositionAssignment, Rope, path_key
from parcot.tokenizer import encode


def _rms(x, gain):
    scale = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + 1e-6)
    return x * scale * gain


def _silu(x):
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def dense_logits(weights, table, tokens, positions, thoughts, visible, return_kv=False):
    """Logits for every slot of a fully specified sequence.

    tokens/positions/thoughts are per-slot lists; ``visible`` is a dense
    [n, n] boolean mask (rows are queries).  With return_kv=True, also
    returns the augmented key/value stacks, [n_layers, n, heads, d_k].
    """
    cfg = weights.config
    n = len(tokens)
    heads, d_k = cfg.n_heads, cfg.d_k
    rope = Rope(cfg.d_k, cfg.rope_base)

    def rotate_rows(arr):
        out = np.empty_like(arr)
        for idx in range(n):
            out[idx] = rope.rotate(arr[idx], int(positions[idx]))
        return out

    k_layers = np.empty((cfg.n_layers, n, heads, d_k))
    v_layers = np.empty((cfg.n_layers, n, heads, d_k))
    x = weights.embedding.astype(np.float64)[list(tokens)]
    for li, lw in enumerate(weights.layers):
        u = _rms(x, lw.attn_norm.astype(np.float64))
        q = (u @ lw.w_q.astype(np.float64)).reshape(n, heads, d_k)
        k = (u @ lw.w_k.astype(np.float64)).reshape(n, heads, d_k)
        v = (u @ lw.w_v.astype(np.float64)).reshape(n, heads, d_k)
        t_rows = table.vectors.astype(np.float64)[list(thoughts), li]
        k_aug = rotate_rows(k + t_rows)
        v_aug = v + t_rows
        q_rot = rotate_rows(q)
        k_layers[li] = k_aug
        v_layers[li] = v_aug

        out = np.empty((n, heads, d_k))
        for h in range(heads):
            scores = q_rot[:, h, :] @ k_aug[:, h, :].T / np.sqrt(d_k)
            scores = np.where(visible, scores, -np.inf)
            shifted = scores - scores.max(axis=1, keepdims=True)
            weights_ = np.exp(shifted)
            weights_ /= weights_.sum(axis=1, keepdims=True)
            out[:, h, :] = weights_ @ v_aug[:, h, :]
        x = x + out.reshape(n, cfg.d_model) @ lw.w_o.astype(np.float64)
        x = x + _silu(_rms(x, lw.ffn_norm.astype(np.float64)) @ lw.w_ff1.astype(np.float64)) @ lw.w_ff2.astype(np.float64)
    logits = _rms(x, weights.final_norm.astype(np.float64)) @ weights.head.astype(np.float64)
    if return_kv:
        return logits, k_layers, v_layers
    return logits


def causal_mask(n):
    return np.tril(np.ones((n, n), dtype=bool))


def brute_reasoning_mask(l_x, path_lengths, answer_length, path):
    """Literal visibility case-split for one path's reasoning mask."""
    total = l_x + sum(path_lengths) + answer_length
    prompt = set(range(l_x))
    start = l_x + sum(path_lengths[:path])
    own = set(range(start, start + path_lengths[path]))
    mask = np.zeros((total, total), dtype=bool)
    for t in range(total):
        for j in range(total):
            if j <= t and (j in prompt or j in own):
                mask[t, j] = True
    return mask


def brute_summary_mask(l_x, path_lengths, answer_length):
    """Literal visibility case-split for the summarization mask."""
    total = l_x + sum(path_lengths) + answer_length
    prompt = set(range(l_x))
    path_union = set()
    start = l_x
    for length in path_lengths:
        path_union.update(range(start, start + length))
        start += length
    answer = set(range(start, start + answer_length))
    mask = np.zeros((total, total), dtype=bool)
    for t in range(total):
        for j in range(total):
            if j <= t and (j in prompt or j in path_union or j in answer):
                mask[t, j] = True
    return mask


def greedy_dense_decode(weights, table, vocab, prompt, think_label, body_budget):
    """Greedy single-path decode by full recomputation at every step.

    Returns (path tokens, per-step logits) where step s's logits are those
    that chose token s+1, mirroring the engine's recorded path logits.
    """
    l_x = len(prompt)
    tokens = list(prompt) + [vocab.think_open(think_label)]
    positions = list(range(1, l_x + 1)) + [l_x + 1]
    thoughts = [0] * l_x + [think_label]
    step_logits = []
    body = 0
    finished = False
    while True:
        n = len(tokens)
        full = dense_logits(weights, table, tokens, positions, thoughts, causal_mask(n))
        step_logits.append(full[-1])
        if finished or body >= body_budget:
            break
        token = int(np.argmax(full[-1]))
        tokens.append(token)
        positions.append(l_x + (len(tokens) - l_x))
        thoughts.append(think_label)
        body += 1
        if token == vocab.eos:
            finished = True
    closer = vocab.think_close(think_label)
    tokens.append(closer)
    positions.append(l_x + (len(tokens) - l_x))
    thoughts.append(think_label)
    n = len(tokens)
    full = dense_logits(weights, table, tokens, positions, thoughts, causal_mask(n))
    step_logits.append(full[-1])
    return tokens[l_x:], step_logits, (tokens, positions, thoughts)


def reference_parse_sample(tokens, vocab) -> ParsedSample:
    """datagen.parse_sample as a walk over every token.

    An id is an integer when it is a ``numbers.Integral`` that is not a
    bool; the first id that is not one raises before the grammar is read.
    """
    for offset, token in enumerate(tokens):
        if isinstance(token, bool) or not isinstance(token, numbers.Integral):
            raise FormatError(f"token id {token!r} is not an integer", offset=offset)
    tokens = [int(t) for t in tokens]
    pos = 0
    n = len(tokens)
    paths = []
    seen_labels = set()
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
        body = []
        while pos < n and tokens[pos] != close_id:
            if control_lo <= tokens[pos] < control_hi:
                raise FormatError(
                    f"unexpected control token inside path {label}", offset=pos
                )
            body.append(tokens[pos])
            pos += 1
        if pos >= n:
            raise FormatError(f"path {label} is never closed", offset=n)
        pos += 1
        paths.append((label, tuple(body)))

    if not paths:
        raise FormatError("sample contains no reasoning paths", offset=pos)
    if pos >= n or tokens[pos] != vocab.summary_open:
        raise FormatError("expected summary opener after the paths", offset=pos)
    pos += 1
    answer = []
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
    return ParsedSample(paths=tuple(paths), answer=tuple(answer), empty_answer=not answer)


def reference_training_layout(sample, vocab, max_context) -> TrainingLayout:
    """datagen.training_layout with tokens and loss built token by token."""
    parsed = reference_parse_sample(sample.tokens, vocab)
    prompt_ids = encode(sample.query, vocab, markup=False)
    l_x = len(prompt_ids)
    l_seg = max(len(body) + 2 for _, body in parsed.paths)

    tokens = list(prompt_ids)
    loss = [0] * l_x
    segments = [{"kind": "prompt", "start": 0, "length": l_x}]
    for label, body in parsed.paths:
        segments.append({"kind": "path", "label": label, "start": len(tokens), "length": l_seg})
        pad_count = l_seg - len(body) - 2
        tokens.extend([vocab.think_open(label), *body, vocab.think_close(label)])
        tokens.extend([vocab.pad] * pad_count)
        loss.extend([0] + [1] * len(body) + [1] + [0] * pad_count)
    answer_len = len(parsed.answer) + 2
    segments.append({"kind": "answer", "start": len(tokens), "length": answer_len})
    tokens.extend([vocab.summary_open, *parsed.answer, vocab.summary_close])
    loss.extend([0] + [1] * len(parsed.answer) + [1])
    if len(tokens) > max_context:
        raise LayoutError(f"serialized length {len(tokens)} exceeds context limit {max_context}")

    num_paths = len(parsed.paths)
    plan = LayoutPlan(
        l_x=l_x, path_lengths=(l_seg,) * num_paths, answer_length=answer_len, stage=REASONING
    )
    assignment = PositionAssignment(
        SHARED, l_x=l_x, l_max=l_seg, num_paths=num_paths, reasoning_len=l_seg
    )
    keys = (PROMPT, *(path_key(i) for i in range(num_paths)), ANSWER)
    lengths = (l_x, *plan.path_lengths, answer_len)
    thoughts = [0, *(label for label, _ in parsed.paths), 0]
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


def reference_sample_token(logits, sampler, rng) -> int:
    """engine.sample_token drawing through ``Generator.choice``."""
    logits = np.asarray(logits)
    if logits.size == 0:
        raise SamplingError("all tokens are masked out")
    if not np.isfinite(logits).all():
        if np.isneginf(logits).all():
            raise SamplingError("all tokens are masked out")
        raise SamplingError("logits contain non-finite values")
    if sampler.greedy:
        return int(np.argmax(logits))
    scaled = logits.astype(np.float64) / sampler.temperature
    if np.isposinf(scaled).any():  # a finite logit too large for the temperature
        raise SamplingError(f"logits / temperature {sampler.temperature} overflow float64")
    scaled -= np.max(scaled)
    probs = np.exp(scaled)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    before = csum - probs[order]
    support = order[before < sampler.top_p]
    kept = probs[support] / probs[support].sum()
    return int(rng.choice(support, p=kept))


def reference_projections(u, layer):
    """q, k and v of rows ``u`` [n, d_model] as three separate products."""
    return u @ layer.w_q, u @ layer.w_k, u @ layer.w_v


def reference_rotate(rope, v, t):
    """``Rope.rotate`` as even/odd pair arithmetic in float64.  ``t`` is
    one position, or an [n] array with one per row of ``v``."""
    half = rope._inv_freq
    if np.ndim(t) == 0:
        angles = int(t) * half
    else:
        t = np.asarray(t)
        angles = (t[:, None] * half).reshape((len(t),) + (1,) * (v.ndim - 2) + (len(half),))
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = v[..., 0::2], v[..., 1::2]
    out = np.empty_like(v)
    out[..., 0::2] = (even * cos - odd * sin).astype(v.dtype, copy=False)
    out[..., 1::2] = (even * sin + odd * cos).astype(v.dtype, copy=False)
    return out


def reference_rms_norm(x, gain):
    """``model.rms_norm`` as one float32 expression, no buffer reused."""
    mean_square = np.square(x).sum(axis=-1, keepdims=True) / x.shape[-1]
    return (x * (1.0 / np.sqrt(mean_square + NORM_EPS)) * gain).astype(np.float32, copy=False)


def reference_silu(x):
    return 0.5 * x * (1.0 + np.tanh(0.5 * x))


def reference_decode_rows(weights, table, tokens, thoughts, positions, attention):
    """``model._decode_rows`` with three projections, the even/odd rotation,
    the thought rows looked up layer by layer and the norms written as one
    expression each; it takes and returns the same things, so it can stand
    in for it."""
    cfg = weights.config
    n = len(tokens)
    heads, d_k = cfg.n_heads, cfg.d_k
    rope = cfg.rope()
    x = weights.embedding[tokens]
    for li, lw in enumerate(weights.layers):
        q, k, v = reference_projections(reference_rms_norm(x, lw.attn_norm), lw)
        q, k, v = (a.reshape(n, heads, d_k) for a in (q, k, v))
        thought = table.vectors[thoughts, li]
        q = reference_rotate(rope, q, positions)
        k = reference_rotate(rope, k + thought, positions)
        attn = attention(li, q, k, v + thought)
        x = x + attn.reshape(n, cfg.d_model) @ lw.w_o
        x = x + reference_silu(reference_rms_norm(x, lw.ffn_norm) @ lw.w_ff1) @ lw.w_ff2
    return x


def reference_reasoning_attention(q, k, v, shared_keys, shared_values, own_keys, own_values, d_k):
    """Reasoning attention over three parts: the shared segments, the rows'
    committed own slots ([rows, index, H, d_k]; none at index 0) and the
    rows' new slots k, v [n, H, d_k], each scored as its own part."""
    keys, values = list(shared_keys), list(shared_values)
    if own_keys.shape[1]:
        keys.append(own_keys)
        values.append(own_values)
    keys.append(k[:, None])
    values.append(v[:, None])
    return attend(q, keys, values, d_k)
