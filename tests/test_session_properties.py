"""Session invariants over randomized path counts, strategies and schedules.

Each example decodes P paths in lockstep under a random termination
strategy, with per-path scripts that force EOS at chosen steps (frozen
paths under half/last finish) and sampled tokens after the script runs
out.  Every path must replay on its own, token for token and logit for
logit, and the cache must hold exactly the written tokens.  First-finish
paths end equally long, and a rerun with the same seed gives the same
transcript bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parcot.engine import (
    GenerationBudget,
    GenerationSession,
    SamplerConfig,
    Termination,
    canonical_json,
    run_reasoning,
    run_summarization,
    session_record,
)
from parcot.positional import ANSWER, PROMPT, path_key

EOS = -1  # placeholder, replaced by the vocab's EOS id
PROMPT_TOKENS = [104, 111, 119, 32, 109, 97, 110, 121]


@st.composite
def sessions(draw):
    num_paths = draw(st.integers(1, 16))
    budget = draw(st.integers(1, 10))
    forced = {}
    for i in range(num_paths):
        finish = draw(st.one_of(st.none(), st.integers(1, budget)))
        length = finish if finish is not None else draw(st.integers(0, budget))
        body = draw(st.lists(st.integers(32, 126), min_size=length, max_size=length))
        if finish is not None:
            body[-1] = EOS
        forced[i] = body
    return {
        "num_paths": num_paths,
        "budget": budget,
        "strategy": draw(st.sampled_from(list(Termination))),
        "seed": draw(st.integers(0, 2**16)),
        "forced": forced,
    }


def cache_matches_tokens(session):
    cache = session.cache
    assert cache.length(PROMPT) == session.l_x
    for path in session.paths:
        assert cache.length(path_key(path.index)) == len(path.tokens)
    assert cache.length(ANSWER) == len(session.answer_tokens)


def reasoned(weights, table, vocab, case, sampler, forced):
    session = GenerationSession(
        weights, table, vocab, PROMPT_TOKENS, case["num_paths"],
        seed=case["seed"], record_logits=True,
    )
    run_reasoning(
        session, sampler, GenerationBudget(case["budget"], 3), case["strategy"], forced
    )
    return session


@given(sessions())
@settings(max_examples=25, deadline=None)
def test_lockstep_paths_replay_alone(small_weights, small_table, vocab, case):
    sampler = SamplerConfig(temperature=1.0)
    forced = {
        i: [vocab.eos if t == EOS else t for t in body] for i, body in case["forced"].items()
    }
    session = reasoned(small_weights, small_table, vocab, case, sampler, forced)
    cache_matches_tokens(session)
    if case["strategy"] is Termination.FIRST_FINISH:
        assert len({len(path.tokens) for path in session.paths}) == 1

    for path in session.paths:
        solo = GenerationSession(
            small_weights, small_table, vocab, PROMPT_TOKENS, 1,
            think_labels=[path.think_label], seed=case["seed"], record_logits=True,
        )
        body = len(path.tokens) - 2
        run_reasoning(
            solo, sampler, GenerationBudget(body), Termination.FIRST_FINISH,
            {0: forced[path.index][:body]},
        )
        assert solo.paths[0].tokens == path.tokens
        assert len(solo.paths[0].step_logits) == len(path.step_logits)
        for a, b in zip(path.step_logits, solo.paths[0].step_logits):
            assert np.max(np.abs(a - b)) <= 1e-5

    # nothing in the prompt or path storage changes after the transition
    context = [PROMPT] + [path_key(p.index) for p in session.paths]
    hashes = {seg: session.cache.tables[seg].content_hash() for seg in context}
    run_summarization(session, sampler)
    cache_matches_tokens(session)
    for seg, digest in hashes.items():
        assert session.cache.tables[seg].content_hash() == digest

    # same seed, same bytes
    again = reasoned(small_weights, small_table, vocab, case, sampler, forced)
    run_summarization(again, sampler)
    assert canonical_json(session_record(again)).encode() == canonical_json(
        session_record(session)
    ).encode()
