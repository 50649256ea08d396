"""Train/infer consistency: datagen's layout reproduces the engine's logits.

A model trained on ``training_layout`` sees its tokens, positions,
thought indices and mask.  Each example runs a greedy engine session,
serializes it as an SFT sample, lays that sample out with
``training_layout`` and runs the dense full-sequence reference forward
(``oracles.dense_logits``) over the layout.  Every path-step logit and
every answer logit must match the engine's within 1e-5.

Path bodies are scripted with byte tokens (EOS at a scripted step, or
none) so that the serialized sample parses; the answer is decoded
greedily and compared up to its first token the SFT grammar rejects
inside a summary.  Under half and last finish the paths end at different
lengths; datagen lays each out at its real length and puts the answer
after the longest, as the engine does, so answer rows are compared under
every strategy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_logits
from parcot.datagen import SFTSample, training_layout
from parcot.engine import (
    GenerationBudget,
    SamplerConfig,
    Termination,
    run_session,
)
from parcot.tokenizer import encode

GREEDY = SamplerConfig(greedy=True)


def scripted_case(vocab, num_paths, budget, seed):
    """Prompt, think labels, per-path byte scripts and answer budget from one seed."""
    rng = np.random.default_rng(seed)
    prompt = "".join(chr(c) for c in rng.integers(32, 127, size=int(rng.integers(1, 65))))
    labels = [int(j) + 1 for j in rng.permutation(vocab.p_max)[:num_paths]]
    forced = {}
    for i in range(num_paths):
        body = [int(t) for t in rng.integers(0, 256, size=budget)]
        if rng.random() < 0.5:  # this path stops on EOS at a scripted step
            finish = int(rng.integers(1, budget + 1))
            body = body[: finish - 1] + [vocab.eos]
        forced[i] = body
    return prompt, labels, forced, int(rng.integers(0, 9))


def session_and_layout(weights, table, vocab, num_paths, budget, seed, strategy):
    prompt, labels, forced, answer_budget = scripted_case(vocab, num_paths, budget, seed)
    session = run_session(
        weights, table, vocab, encode(prompt, vocab, markup=False), num_paths, GREEDY,
        GenerationBudget(budget, answer_budget), strategy, think_labels=labels,
        seed=seed, record_logits=True, forced=forced,
    )
    # the answer up to the first control token a summary body may not hold;
    # EOS and PAD may, and a final SUMMARY_CLOSE is the closer itself
    answer = session.answer_tokens
    kept = 1
    while kept < len(answer) and not vocab.base_size <= answer[kept] < vocab.eos:
        kept += 1
    tokens = [t for path in session.paths for t in path.tokens] + answer[:kept]
    if tokens[-1] != vocab.summary_close:
        tokens.append(vocab.summary_close)
    sample = SFTSample(
        query=prompt,
        chosen_paths=tuple(str(path.tokens) for path in session.paths),
        think_labels=tuple(labels),
        answer_text=str(answer[:kept]),
        tokens=tuple(tokens),
        p_hat=num_paths,
        seed=seed,
    )
    layout = training_layout(sample, vocab)
    dense = dense_logits(
        weights, table, layout.tokens, layout.positions, layout.thought_indices,
        layout.mask.visible,
    )
    return session, layout, dense, kept


def path_gap(session, layout, dense) -> float:
    gap = 0.0
    for i, path in enumerate(session.paths):
        start = layout.layout.path_slots(i).start
        assert len(path.step_logits) == len(path.tokens)
        rows = dense[start : start + len(path.tokens)]
        gap = max(gap, float(np.max(np.abs(np.stack(path.step_logits) - rows))))
    return gap


def answer_gap(session, layout, dense, kept) -> float:
    start = layout.layout.answer_slots().start
    engine = np.stack(session.answer_logits[:kept])
    return float(np.max(np.abs(engine - dense[start : start + kept])))


@given(
    num_paths=st.integers(1, 8),
    budget=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_first_finish_layout_reproduces_engine_logits(
    small_weights, small_table, vocab, num_paths, budget, seed
):
    session, layout, dense, kept = session_and_layout(
        small_weights, small_table, vocab, num_paths, budget, seed, Termination.FIRST_FINISH
    )
    assert layout.layout.path_lengths == (session.reasoning_len,) * num_paths
    assert path_gap(session, layout, dense) <= 1e-5
    assert answer_gap(session, layout, dense, kept) <= 1e-5


@given(
    num_paths=st.integers(1, 8),
    budget=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    strategy=st.sampled_from([Termination.HALF_FINISH, Termination.LAST_FINISH]),
)
@settings(max_examples=20, deadline=None)
def test_uneven_paths_layout_reproduces_engine_logits(
    small_weights, small_table, vocab, num_paths, budget, seed, strategy
):
    session, layout, dense, kept = session_and_layout(
        small_weights, small_table, vocab, num_paths, budget, seed, strategy
    )
    assert layout.layout.path_lengths == tuple(len(path.tokens) for path in session.paths)
    assert max(layout.layout.path_lengths) == session.reasoning_len
    assert path_gap(session, layout, dense) <= 1e-5
    assert answer_gap(session, layout, dense, kept) <= 1e-5
