"""Independent reference implementations used only as test oracles.

The dense decoder recomputes every slot's logits with full-sequence
float64 matrix math under an explicit dense mask; the mask oracles spell
out the visibility case-splits with plain Python loops.  Neither shares
code with the engine's per-slot decode loop.  The sample parser and the
training layout are datagen's token-by-token versions, kept to check
the array-based ones.  The sampler is the engine's nucleus sampler as it
was when it drew through ``Generator.choice``, and the re-prefill answer
is the baseline's answer loop as it was when every token drew through its
own generator.  The decoder's reference forms are the forward pass as it
was before its projections were fused and its rotation went through
interleaved tables: three separate q, k and v products, the even/odd
float64 rotation, reasoning attention over three parts (shared
segments, the rows' committed slots, the new slot), the answer's read of
paths of unequal length as one part per path, and the two passes (with
their attention) that fed reasoning steps and causal blocks before one
pass served every stage.  The rotary
algebra's reference forms are a dense R_t matrix, one key/value pair's
thought fold and rotation, and the score split into its content and
segment terms.
"""

import numbers

import numpy as np

from parcot.datagen import ParsedSample, TrainingLayout
from parcot.engine import ANSWER_STREAM, draw_rng
from parcot.errors import ConfigError, FormatError, LayoutError, SamplingError
from parcot.kvcache import PagedKVCache
from parcot.masking import AttentionMask, LayoutPlan
from parcot import model
from parcot.model import NORM_EPS, StagePlan, attend, forward
from parcot.positional import PROMPT, Rope, path_key
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


def serialized_view(session):
    """A session's serialized sequence for ``dense_logits``: tokens,
    positions and thought rows slot by slot, and the combined dense mask."""
    l_x = session.l_x
    tokens = list(session.prompt_tokens)
    positions = list(range(1, l_x + 1))
    thoughts = [0] * l_x
    for path in session.paths:
        for t0, token in enumerate(path.tokens):
            tokens.append(token)
            positions.append(l_x + t0 + 1)
            thoughts.append(path.think_label)
    for t0, token in enumerate(session.answer_tokens):
        tokens.append(token)
        positions.append(l_x + session.reasoning_len + t0 + 1)
        thoughts.append(0)

    lengths = tuple(len(p.tokens) for p in session.paths)
    answer_len = len(session.answer_tokens)
    total = l_x + sum(lengths) + answer_len
    visible = np.zeros((total, total), dtype=bool)
    summary = brute_summary_mask(l_x, lengths, answer_len)
    visible[:l_x] = causal_mask(total)[:l_x]
    start = l_x
    for i, length in enumerate(lengths):
        rows = range(start, start + length)
        reasoning = brute_reasoning_mask(l_x, lengths, answer_len, i)
        for t in rows:
            visible[t] = reasoning[t]
        start += length
    for t in range(start, total):
        visible[t] = summary[t]
    return tokens, positions, thoughts, visible


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
    """datagen.training_layout with tokens, loss, positions and thought
    indices built token by token: each path at its real length, its t-th
    slot at l_x + t, and the answer after the longest path."""
    parsed = reference_parse_sample(sample.tokens, vocab)
    prompt_ids = encode(sample.query, vocab, markup=False)
    l_x = len(prompt_ids)
    l_max = max(len(body) + 2 for _, body in parsed.paths)

    tokens = list(prompt_ids)
    loss = [0] * l_x
    positions = list(range(1, l_x + 1))
    thoughts = [0] * l_x
    segments = [{"kind": "prompt", "start": 0, "length": l_x}]
    for label, body in parsed.paths:
        n = len(body) + 2
        segments.append({"kind": "path", "label": label, "start": len(tokens), "length": n})
        tokens.extend([vocab.think_open(label), *body, vocab.think_close(label)])
        loss.extend([0] + [1] * (n - 1))
        positions.extend(l_x + t for t in range(1, n + 1))
        thoughts.extend([label] * n)
    answer_len = len(parsed.answer) + 2
    segments.append({"kind": "answer", "start": len(tokens), "length": answer_len})
    tokens.extend([vocab.summary_open, *parsed.answer, vocab.summary_close])
    loss.extend([0] + [1] * (answer_len - 1))
    positions.extend(l_x + l_max + t for t in range(1, answer_len + 1))
    thoughts.extend([0] * answer_len)
    if len(tokens) > max_context:
        raise LayoutError(f"serialized length {len(tokens)} exceeds context limit {max_context}")

    plan = LayoutPlan(
        l_x=l_x,
        path_lengths=tuple(len(body) + 2 for _, body in parsed.paths),
        answer_length=answer_len,
    )
    return TrainingLayout(
        tokens=np.asarray(tokens, dtype=np.int64),
        positions=np.asarray(positions, dtype=np.int64),
        thought_indices=np.asarray(thoughts, dtype=np.int64),
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


def reference_reprefill_answer(weights, zero_table, vocab, session, sampler) -> list[int]:
    """The re-prefill baseline's own answer, SUMMARY_OPEN first, as a
    per-token loop with one generator per draw.

    The prompt, every path and SUMMARY_OPEN run in one causal pass at
    flattened positions (path i at ``l_x + i * l_max + t``, the answer after
    the last path's reserved range); each answer token is then drawn from
    ``draw_rng(seed, ANSWER_STREAM, step)`` (the argmax when greedy) and fed
    in its own pass, until the session's answer cap or a fed SUMMARY_CLOSE
    or EOS.
    """
    cfg = weights.config
    l_x, l_max = session.l_x, session.budget.max_path_tokens + 2
    cap = session.budget.max_answer_tokens
    tokens = list(session.prompt_tokens)
    positions = list(range(1, l_x + 1))
    for i, path in enumerate(session.paths):
        tokens += path.tokens
        positions += [l_x + i * l_max + t for t in range(1, len(path.tokens) + 1)]
    base = l_x + (session.num_paths - 1) * l_max + session.reasoning_len
    positions += [base + t for t in range(1, cap + 2)]
    cache = PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)
    cache.reserve(PROMPT, len(positions))
    plan = StagePlan(cache, [PROMPT], [0], positions)
    answer = [vocab.summary_open]
    logits = forward(weights, zero_table, plan, tokens + answer, [0], 0)[0]
    for step in range(1, cap + 1):
        token = reference_sample_token(
            logits, sampler, draw_rng(session.seed, ANSWER_STREAM, step)
        )
        answer.append(token)
        logits = forward(weights, zero_table, plan, [token], [0], len(tokens) + step)[0]
        if token in (vocab.summary_close, vocab.eos):
            break
    return answer


def reference_answer_parts(cache, num_paths):
    """Each layer's (key parts, value parts) over the prompt and every path
    as an answer slot read them before the path slab became one masked
    part: equally long paths as one ``Slab.prefix`` part, paths of unequal
    length as one part each, read to its own fill.  An empty segment is no
    part.  It has the shape of ``StagePlan.shared``, so it can stand in for
    it under ``hidden = None``."""
    fills = [cache.length(path_key(i)) for i in range(num_paths)]
    shared = []
    for li in range(cache.n_layers):
        reads = [cache.gather(PROMPT, li)]
        if len(set(fills)) > 1:
            reads += [cache.gather(path_key(i), li) for i, fill in enumerate(fills) if fill]
        elif fills[0]:
            reads.append(cache.paths.prefix(li, fills[0]))
        shared.append(([k for k, _ in reads], [v for _, v in reads]))
    return shared


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


def reference_decode_rows(
    weights, table, tokens, thoughts, positions, attention, stage_last=None
):
    """``model._decode_rows`` with three projections, the even/odd rotation,
    the thought rows looked up layer by layer and the norms written as one
    expression each; it takes and returns the same things, so it can stand
    in for it.  It ignores ``stage_last`` and runs every layer for every
    row, so the last layer's k/v are staged by ``attention``, as a full
    pass stages them."""
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


def reference_attend(q, keys, values, d_k, causal=False, hidden=None):
    """``model.attend`` as it was when a causal pass read its own segment
    as a 3-dim part seen by every row and a reasoning pass as a 4-dim part
    scored row by row, one matrix-vector product per row."""
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
    scores /= model._score_scale(d_k)
    n = q.shape[0]
    if causal and n > 1:
        np.copyto(scores[..., scores.shape[-1] - n :], -np.inf, where=model._later(n)[:, None])
    if hidden is not None:
        np.copyto(scores[..., : hidden.size], -np.inf, where=hidden)
    weights = model.softmax(scores)
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


def reference_forward_paths(weights, table, plan, tokens, rows, index):
    """The reasoning pass as it was before one pass served every stage: one
    new slot for each of n rows, a lone row run as two identical rows, the
    rows' own segments one 4-dim part scored row by row."""
    cfg = weights.config
    n = len(rows)
    model.check_token_ids(tokens, cfg.vocab_size)
    writes, js = plan.rows(rows, index, 1)
    position = int(plan.slot_positions(index, 1)[0])
    model.check_position(cfg, position, writes.segments[0].owner)
    width = max(n, 2)

    def attention(li, q, k, v):
        writes.stage(li, 0, k[:n, None], v[:n, None])
        keys, values = plan.shared[li]
        own_k, own_v = writes.keys(li, index + 1), writes.values(li, index + 1)
        return reference_attend(q, [*keys, own_k], [*values, own_v], cfg.d_k, hidden=plan.hidden)

    tokens = list(tokens) * (width // n)
    x = model._decode_rows(weights, table, tokens, js * (width // n), position, attention)
    logits = model._head(weights, x)[:n]
    writes.commit()
    return logits


def reference_forward_causal(weights, table, plan, tokens, index, keep=1):
    """The causal pass as it was before one pass served every stage:
    tokens fed to the plan's one owner in blocks of ``CAUSAL_CHUNK``, the
    segment one 3-dim part seen by every row of a block under the causal
    triangle; a block with no kept row stops at the last layer once its
    k/v are staged."""
    cfg = weights.config
    n = len(tokens)
    model.check_token_ids(tokens, cfg.vocab_size)
    writes, (j,) = plan.rows([0], index, n)
    positions = plan.slot_positions(index, n)
    model.check_position(cfg, int(positions.max()), writes.segments[0].owner)

    def stage(li, k, v):
        writes.stage(li, lo, k[None], v[None])

    def attention(li, q, k, v):
        stage(li, k, v)
        keys, values = plan.shared[li]
        own_k, own_v = writes.keys(li, index + hi)[0], writes.values(li, index + hi)[0]
        return reference_attend(q, [*keys, own_k], [*values, own_v], cfg.d_k, True, plan.hidden)

    first_kept = n - keep
    kept = []
    for lo in range(0, n, model.CAUSAL_CHUNK):
        hi = min(lo + model.CAUSAL_CHUNK, n)
        write_only = stage if hi <= first_kept else None
        x = model._decode_rows(
            weights, table, tokens[lo:hi], j, positions[lo:hi], attention, write_only
        )
        if write_only is None:
            kept.append(model._head(weights, x[max(first_kept - lo, 0) :]))
    writes.commit()
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def rope_matrix(rope, t: int) -> np.ndarray:
    """Dense float64 R_t, for algebra checks."""
    cos2, sin2 = rope.tables(int(t))
    m = np.diag(cos2)
    for d in range(0, rope.d_k, 2):
        m[d, d + 1] = sin2[d]
        m[d + 1, d] = sin2[d + 1]
    return m


def layer_row(table, j: int, layer: int) -> np.ndarray:
    """T[j] at one layer, shape [n_heads, d_k]."""
    if not 0 <= j <= table.p_max:
        raise IndexError(f"thought index {j} out of range [0, {table.p_max}]")
    return table.vectors[j, layer]


def augment_kv(k, v, j: int, t: int, table, rope, layer: int = 0, head: int = 0):
    """Fold T[j] into a key/value pair and rotate the key to position t.

    Accepts per-head vectors of shape [d_k] (``head`` selects the embedding)
    or full head stacks of shape [n_heads, d_k].
    """
    row = layer_row(table, j, layer)
    thought = row[head] if np.asarray(k).ndim == 1 else row
    k_aug = rope.rotate(np.asarray(k) + thought, t)
    v_aug = np.asarray(v) + thought
    return k_aug, v_aug


def decompose_score(q, n: int, k, m: int, thought, rope) -> tuple[float, float]:
    """Split the rotary attention score into its two additive terms.

    Returns (content_content, content_segment):
      content_content = q . R_{m-n} k
      content_segment = q . R_{m-n} thought
    Their sum equals (R_n q) . R_m (k + thought).
    """
    q64 = np.asarray(q, dtype=np.float64)
    k64 = np.asarray(k, dtype=np.float64)
    t64 = np.asarray(thought, dtype=np.float64)
    if not (q64.shape == k64.shape == t64.shape) or q64.shape[-1] != rope.d_k:
        raise ConfigError("decompose_score operands must all have shape [d_k]")
    rel = m - n
    cc = float(q64 @ rope.rotate(k64, rel))
    cs = float(q64 @ rope.rotate(t64, rel))
    return cc, cs
