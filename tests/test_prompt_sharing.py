"""Sessions on one prompt sharing one prefill (``prompt_from``).

A session built with ``prompt_from`` reads the donor's prompt slots in
place and reuses its prompt logits.  It must be indistinguishable from
the same session built with its own prefill: same transcript, the same
logits at every slot and the same re-prefill record.  The shared storage
is read-only, and a donor on other weights, another thought table or
another prompt is refused before anything is allocated.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcot import engine, harness
from parcot.engine import (
    GenerationBudget,
    GenerationSession,
    SamplerConfig,
    Termination,
    canonical_json,
    run_reasoning,
    run_session,
    run_summarization,
    session_record,
)
from parcot.errors import CacheConsistencyError, ConfigError, LifecycleError
from parcot.harness import (
    ModelBundle,
    run_experiment,
    run_reprefill_baseline,
    verify_experiment_dir,
    write_experiment,
)
from parcot.positional import PROMPT, init_thought_table

PROMPT_TOKENS = [104, 111, 119, 32, 109, 97, 110, 121, 63]


@pytest.fixture(scope="module")
def bundle(small_weights, small_table, vocab):
    return ModelBundle(weights=small_weights, table=small_table, vocab=vocab)


@st.composite
def cases(draw):
    num_paths = draw(st.integers(1, 8))
    budget = draw(st.integers(1, 8))
    forced = {}
    for i in range(num_paths):
        if draw(st.booleans()):  # freeze this path with an EOS at a chosen step
            at = draw(st.integers(1, budget))
            forced[i] = [40 + i] * (at - 1) + ["eos"]
    greedy = draw(st.booleans())
    return {
        "num_paths": num_paths,
        "donor_paths": draw(st.integers(1, 4)),
        "budget": budget,
        "strategy": draw(st.sampled_from(list(Termination))),
        "sampler": SamplerConfig(
            temperature=draw(st.sampled_from([0.5, 1.0, 1.7])),
            top_p=draw(st.sampled_from([1.0, 0.9, 0.4])),
            greedy=greedy,
        ),
        "seed": draw(st.integers(0, 2**20)),
        "forced": forced,
    }


def decode(weights, table, vocab, case, prompt_from=None):
    session = GenerationSession(
        weights, table, vocab, PROMPT_TOKENS, case["num_paths"], seed=case["seed"],
        record_logits=True, prompt_from=prompt_from,
    )
    forced = {
        i: [vocab.eos if t == "eos" else t for t in body] for i, body in case["forced"].items()
    }
    run_reasoning(
        session, case["sampler"], GenerationBudget(case["budget"], 4), case["strategy"], forced
    )
    run_summarization(session, case["sampler"], 4)
    return session


@given(cases())
@settings(max_examples=30, deadline=None)
def test_shared_prefill_changes_nothing(small_weights, small_table, vocab, bundle, case):
    donor = GenerationSession(
        small_weights, small_table, vocab, PROMPT_TOKENS, case["donor_paths"], seed=7
    )
    shared = decode(small_weights, small_table, vocab, case, prompt_from=donor)
    alone = decode(small_weights, small_table, vocab, case)

    assert canonical_json(session_record(shared)) == canonical_json(session_record(alone))
    assert np.array_equal(shared.prompt_logits, alone.prompt_logits)
    for a, b in zip(shared.paths, alone.paths):
        assert len(a.step_logits) == len(b.step_logits)
        for x, y in zip(a.step_logits, b.step_logits):
            assert np.array_equal(x, y)
    assert len(shared.answer_logits) == len(alone.answer_logits)
    for x, y in zip(shared.answer_logits, alone.answer_logits):
        assert np.array_equal(x, y)
    assert canonical_json(run_reprefill_baseline(bundle, shared, case["sampler"])) == (
        canonical_json(run_reprefill_baseline(bundle, alone, case["sampler"]))
    )


def test_sharers_read_the_donors_storage_and_leave_it_unchanged(
    small_weights, small_table, vocab
):
    donor = GenerationSession(small_weights, small_table, vocab, PROMPT_TOKENS, 2)
    prompt = donor.cache.tables[PROMPT]
    held = prompt.content_hash()
    sharers, source = [], donor
    for i in range(6):
        session = run_session(
            small_weights, small_table, vocab, PROMPT_TOKENS, 1 + i % 3,
            SamplerConfig(temperature=1.2, seed=i), GenerationBudget(5, 3),
            Termination.LAST_FINISH, seed=i, prompt_from=source,
        )
        sharers.append(session)
        source = session if i % 2 else donor  # sharers can donate in turn
    assert prompt.content_hash() == held
    for session in sharers:
        assert session.cache.tables[PROMPT].slab is prompt.slab
        assert session.cache.tables[PROMPT] is not prompt  # each cache has its own segment
        assert session.prompt_logits is donor.prompt_logits
        assert session.cache.length(PROMPT) == len(PROMPT_TOKENS)


def test_prompt_storage_is_read_only(small_weights, small_table, vocab):
    donor = GenerationSession(small_weights, small_table, vocab, PROMPT_TOKENS, 2)
    sharer = GenerationSession(
        small_weights, small_table, vocab, PROMPT_TOKENS, 1, prompt_from=donor
    )
    for session in (donor, sharer):
        slab = session.cache.tables[PROMPT].slab
        arrays = [a for a in vars(slab).values() if isinstance(a, np.ndarray)]
        assert arrays  # every array the slab holds, so a new one cannot escape the seal
        for array in arrays:
            with pytest.raises(ValueError):
                array[..., 0] = 0
        with pytest.raises(ValueError):
            session.prompt_logits[0] = 0.0
        k = np.zeros(slab.k.shape[:1] + slab.k.shape[3:], dtype=np.float32)
        with pytest.raises(CacheConsistencyError, match="full"):
            session.cache.append(PROMPT, k, k)
        with pytest.raises(LifecycleError):
            session.cache.reserve(PROMPT, len(PROMPT_TOKENS))


def test_only_a_full_sealed_segment_is_shared(small_weights, small_table, vocab):
    cfg = small_weights.config

    def cache():
        return engine.PagedKVCache(cfg.n_layers, cfg.n_heads, cfg.d_k)

    donor = GenerationSession(small_weights, small_table, vocab, PROMPT_TOKENS, 1)
    unsealed = cache()
    layout = engine.DecodeLayout(
        stage=engine.REASONING,
        assignment=engine.PositionAssignment(engine.SHARED, l_x=3, l_max=0),
    )
    unsealed.reserve(PROMPT, 3)
    engine.prefill(small_weights, small_table, unsealed, layout, [5, 6, 7])
    partial = cache()
    partial.reserve(PROMPT, 4)
    partial.append(PROMPT, *unsealed.tables[PROMPT].read(0))
    partial.tables[PROMPT].slab.seal()
    for source, why in ((unsealed.tables[PROMPT], "not sealed"),
                        (partial.tables[PROMPT], "only a full one")):
        with pytest.raises(LifecycleError, match=why):
            cache().share(source)
    with pytest.raises(LifecycleError):  # the cache already holds a prompt
        donor.cache.share(donor.cache.tables[PROMPT])


@pytest.mark.parametrize("mismatch", ["weights", "table", "prompt", "prompt_prefix"])
def test_wrong_donor_raises_before_allocating(
    small_weights, small_table, vocab, monkeypatch, mismatch
):
    donor = GenerationSession(small_weights, small_table, vocab, PROMPT_TOKENS, 2)
    weights, table, prompt = small_weights, small_table, list(PROMPT_TOKENS)
    if mismatch == "weights":
        weights = copy.deepcopy(small_weights)  # equal values, another object
    elif mismatch == "table":
        cfg = small_weights.config
        table = init_thought_table(vocab.p_max, cfg.n_layers, cfg.n_heads, cfg.d_k, seed=4)
    elif mismatch == "prompt":
        prompt[3] += 1
    else:
        prompt = prompt[:-1]
    allocated = []
    cache_class = engine.PagedKVCache
    monkeypatch.setattr(
        engine, "PagedKVCache", lambda *args: allocated.append(args) or cache_class(*args)
    )
    with pytest.raises(ConfigError, match="prompt_from"):
        GenerationSession(weights, table, vocab, prompt, 1, prompt_from=donor)
    assert allocated == []


def count_prefills(monkeypatch):
    calls = []
    prefill = engine.prefill

    def counted(*args):
        calls.append(args[-1])
        return prefill(*args)

    monkeypatch.setattr(engine, "prefill", counted)
    return calls


def unshared(monkeypatch):
    """Harness entry points with prompt_from dropped: every session prefills."""
    run, session_class = harness.run_session, harness.GenerationSession

    def run_alone(*args, prompt_from=None, **kwargs):
        return run(*args, **kwargs)

    def session_alone(*args, prompt_from=None, **kwargs):
        return session_class(*args, **kwargs)

    monkeypatch.setattr(harness, "run_session", run_alone)
    monkeypatch.setattr(harness, "GenerationSession", session_alone)


def experiment_configs():
    """Each experiment's config and the number of prompts (or traces) it runs."""
    base = {
        "model": {
            "n_layers": 2, "d_model": 32, "n_heads": 2, "d_k": 16, "d_ff": 64,
            "vocab_size": 292,
        },
        "model_seed": 3,
        "table_seed": 4,
        "vocab": {"base_size": 256, "p_max": 16},
        "sampler": {"temperature": 0.9, "top_p": 0.8, "seed": 5},
        "seed": 2,
        "max_answer_tokens": 3,
    }
    prompts = [[104, 105, 33], [119, 104, 121, 63, 32, 98]]
    return {
        "sweep": (
            dict(base, prompts=prompts, budgets=[4, 6], paths=[1, 3],
                 strategy="half_finish"),
            2,
        ),
        "prefix": (
            dict(base, traces=[{"prompt": p, "body": [65, 66, 67, 68]} for p in prompts],
                 budget=6, prefix_lengths=[0, 2], samples=3, target_token=70),
            2,
        ),
        "terminate": (dict(base, prompts=prompts, budget=5, paths=3), 2),
    }


@pytest.mark.parametrize("name", ["sweep", "prefix", "terminate"])
def test_experiments_prefill_each_prompt_once_and_verify(tmp_path, monkeypatch, name):
    config, prompts = experiment_configs()[name]
    with monkeypatch.context() as patch:
        calls = count_prefills(patch)
        records, transcripts = run_experiment(name, config)
    assert len(calls) == prompts
    assert len(transcripts) > prompts  # the other sessions reused a prefill
    out = str(tmp_path / name)
    write_experiment(out, name, config, records, transcripts)
    assert verify_experiment_dir(out) == []

    with monkeypatch.context() as patch:
        unshared(patch)
        calls = count_prefills(patch)
        again = run_experiment(name, config)
    assert len(calls) == len(transcripts)
    assert harness.records_csv_text(name, config, records) == harness.records_csv_text(
        name, config, again[0]
    )
    assert harness.transcripts_text(transcripts) == harness.transcripts_text(again[1])
