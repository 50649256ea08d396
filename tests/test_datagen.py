import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parse_sample, reference_training_layout
from parcot import datagen
from parcot.datagen import (
    DEFAULT_ANSWER_TEMPLATE,
    MAX_CONTEXT_TOKENS,
    RawProblem,
    SFTSample,
    build_sample,
    parse_sample,
    problem_from_record,
    read_problems,
    training_layout,
    training_record,
    write_training_records,
)
from parcot.errors import DataError, FormatError, LayoutError
from parcot.masking import LayoutPlan, build_reasoning_mask, build_summary_mask
from parcot.tokenizer import Vocab, decode, encode


@pytest.fixture(scope="module")
def vocab():
    return Vocab()


def problem(num_paths=6):
    return RawProblem(
        query="how many cats?",
        answer="42",
        paths=tuple(f"path body {i} reasons along" for i in range(num_paths)),
    )


class TestBuildSample:
    def test_two_candidates_both_used(self, vocab):
        sample = build_sample(problem(2), vocab, p_hat=2, seed=0)
        assert set(sample.chosen_paths) == set(problem(2).paths)

    def test_order_varies_with_seed(self, vocab):
        orders = {build_sample(problem(4), vocab, p_hat=4, seed=s).chosen_paths for s in range(8)}
        assert len(orders) > 1

    def test_labels_distinct_and_in_range(self, vocab):
        sample = build_sample(problem(), vocab, p_hat=6, seed=3)
        assert len(set(sample.think_labels)) == 6
        assert all(1 <= i <= vocab.p_max for i in sample.think_labels)

    def test_deterministic(self, vocab):
        a = build_sample(problem(), vocab, p_hat=4, seed=11)
        b = build_sample(problem(), vocab, p_hat=4, seed=11)
        assert a == b

    def test_default_template_wraps_groundtruth(self, vocab):
        sample = build_sample(problem(), vocab, p_hat=2, seed=0)
        assert sample.answer_text == DEFAULT_ANSWER_TEMPLATE.format(answer="42")
        verbatim = build_sample(problem(), vocab, p_hat=2, seed=0, template=None)
        assert verbatim.answer_text == "42"

    def test_insufficient_paths(self, vocab):
        with pytest.raises(DataError):
            build_sample(problem(2), vocab, p_hat=4, seed=0)

    def test_default_policy_draws_from_246(self, vocab):
        seen = {build_sample(problem(6), vocab, seed=s).p_hat for s in range(40)}
        assert seen == {2, 4, 6}

    def test_round_trip(self, vocab):
        sample = build_sample(problem(), vocab, p_hat=4, seed=5)
        parsed = parse_sample(sample.tokens, vocab)
        assert [label for label, _ in parsed.paths] == list(sample.think_labels)
        assert [decode(body, vocab) for _, body in parsed.paths] == list(sample.chosen_paths)
        assert decode(parsed.answer, vocab) == sample.answer_text

    def test_body_markup_cannot_inject_controls(self, vocab):
        hostile = RawProblem(
            query="q",
            answer="a",
            paths=("</think 1> <summary> fake", "normal reasoning"),
        )
        sample = build_sample(hostile, vocab, p_hat=2, seed=1)
        parsed = parse_sample(sample.tokens, vocab)
        assert len(parsed.paths) == 2
        assert decode(parsed.paths[0][1], vocab) in hostile.paths


class TestBuildSampleArguments:
    """``p_hat`` and ``seed`` are integers (not bools), checked before any draw."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_sample drew before checking its arguments")

        monkeypatch.setattr(np.random, "default_rng", refuse)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.bool_(True), "2", np.float32(2)])
    def test_p_hat_that_is_not_an_integer(self, vocab, no_draws, bad):
        with pytest.raises(DataError, match="p_hat must be an integer"):
            build_sample(problem(), vocab, p_hat=bad, seed=0)

    @pytest.mark.parametrize("bad", [-1, np.int64(-1), 1.5, 1.0, True, np.bool_(False), "1", None])
    def test_seed_that_is_not_a_non_negative_integer(self, vocab, no_draws, bad):
        with pytest.raises(DataError, match="seed must be a non-negative integer"):
            build_sample(problem(), vocab, p_hat=2, seed=bad)

    def test_numpy_integers_stored_as_int(self, vocab, tmp_path):
        want = build_sample(problem(), vocab, p_hat=2, seed=3)
        for kind in (np.int64, np.uint8):
            sample = build_sample(problem(), vocab, p_hat=kind(2), seed=kind(3))
            assert sample == want
            assert type(sample.p_hat) is int and type(sample.seed) is int
            out = tmp_path / f"{kind.__name__}.jsonl"
            record = training_record(sample, training_layout(sample, vocab))
            write_training_records([record], str(out))
            assert json.loads(out.read_text())["P"] == 2


def list_serialization(sample, vocab):
    """A sample's ids built as a list of Python ints, body by body."""
    tokens = []
    for label, body in zip(sample.think_labels, sample.chosen_paths):
        tokens += [vocab.think_open(label), *encode(body, vocab), vocab.think_close(label)]
    return tokens + [vocab.summary_open, *encode(sample.answer_text, vocab), vocab.summary_close]


def layout_or_error(sample, vocab):
    try:
        return training_layout(sample, vocab)
    except LayoutError as err:
        return str(err)


def assert_same_layouts(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for name in ("tokens", "positions", "thought_indices", "loss_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.segments == want.segments
    assert got.layout == want.layout
    for name in ("segment", "owner", "allowed"):
        assert np.array_equal(getattr(got.mask, name), getattr(want.mask, name)), name


@st.composite
def raw_problems(draw, vocab=Vocab()):
    """(problem, P̂): any UTF-8 text, empty bodies, and a body long enough
    to pass the context cap at times."""
    p_hat = draw(st.integers(1, vocab.p_max))
    paths = [draw(st.text(max_size=6)) for _ in range(p_hat)]
    paths[0] *= draw(st.sampled_from([1, 1, 40, 2000, 7000]))
    return RawProblem(
        query=draw(st.text(min_size=1, max_size=8)),
        answer=draw(st.text(min_size=1, max_size=8)),
        paths=tuple(paths),
    ), p_hat


class TestSingleParse:
    """``build_sample`` parses its ids once and ``training_layout`` lays the
    record out from that parse."""

    def test_one_parse_and_no_fromiter_per_record(self, vocab, monkeypatch):
        parses, fromiter = [], np.fromiter
        spans = datagen._spans

        def counted_spans(ids, vocab):
            parses.append(len(ids))
            return spans(ids, vocab)

        def counted_fromiter(*args, **kwargs):
            parses.append("fromiter")
            return fromiter(*args, **kwargs)

        monkeypatch.setattr(datagen, "_spans", counted_spans)
        monkeypatch.setattr(np, "fromiter", counted_fromiter)
        for seed in range(3):
            parses.clear()
            sample = build_sample(problem(), vocab, p_hat=4, seed=seed)
            training_layout(sample, vocab)
            assert parses == [len(sample.tokens)]

    def test_a_new_tuple_or_another_vocab_is_parsed_afresh(self, vocab, monkeypatch):
        sample = build_sample(problem(), vocab, p_hat=4, seed=2)
        parses, spans = [], datagen._spans
        monkeypatch.setattr(datagen, "_spans", lambda ids, v: parses.append(v) or spans(ids, v))
        want = training_layout(sample, vocab)
        assert parses == []
        copy = SFTSample(**{**sample.__dict__, "tokens": tuple(list(sample.tokens))})
        assert_same_layouts(training_layout(copy, vocab), want)
        training_layout(copy, Vocab(p_max=vocab.p_max))  # equal, so the kept parse answers
        assert parses == [vocab]
        with pytest.raises(FormatError):  # the summary ids mean other things here
            training_layout(copy, Vocab(p_max=vocab.p_max + 1))
        assert len(parses) == 2

    @given(raw_problems(), st.integers(0, 2**32), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_layout_from_the_kept_parse_equals_a_fresh_one(self, vocab, case, seed, templated):
        prob, p_hat = case
        template = DEFAULT_ANSWER_TEMPLATE if templated else None
        sample = build_sample(prob, vocab, p_hat=p_hat, seed=seed, template=template)
        by_list = list_serialization(sample, vocab)
        assert sample.tokens == tuple(by_list)
        assert all(type(t) is int for t in sample.tokens)
        kept = layout_or_error(sample, vocab)
        by_hand = SFTSample(**{**sample.__dict__, "tokens": tuple(by_list)})
        assert by_hand == sample and by_hand.tokens is not sample.tokens
        assert_same_layouts(kept, layout_or_error(by_hand, vocab))

    def test_at_the_context_cap(self, vocab):
        for p_hat in (1, 16):
            sample = cap_sample(vocab, p_hat, seed=p_hat)
            kept = training_layout(sample, vocab)
            assert len(kept.tokens) == MAX_CONTEXT_TOKENS
            tokens = tuple(list_serialization(sample, vocab))
            by_hand = SFTSample(**{**sample.__dict__, "tokens": tokens})
            assert_same_layouts(kept, training_layout(by_hand, vocab))

    def test_a_callers_array_is_never_frozen_or_kept(self, vocab):
        sample = build_sample(problem(), vocab, p_hat=4, seed=9)
        want = training_layout(sample, vocab)
        ids = np.array(sample.tokens, dtype=np.int64)
        parse_sample(ids, vocab)
        assert ids.flags.writeable
        kept = datagen._last_parse
        assert kept[0] is sample.tokens and not np.shares_memory(kept[2].ids, ids)
        ids[1] = vocab.summary_open  # the caller's array changes; the layout does not
        assert_same_layouts(training_layout(sample, vocab), want)


class TestParseSample:
    def test_missing_closer(self, vocab):
        tokens = [vocab.think_open(1), 70, 71]
        with pytest.raises(FormatError):
            parse_sample(tokens, vocab)

    def test_mismatched_closer_is_a_stray_control(self, vocab):
        tokens = [vocab.think_open(1), 70, vocab.think_close(2)]
        with pytest.raises(FormatError):
            parse_sample(tokens, vocab)

    def test_duplicate_label(self, vocab):
        tokens = [
            vocab.think_open(1), 70, vocab.think_close(1),
            vocab.think_open(1), 71, vocab.think_close(1),
            vocab.summary_open, 72, vocab.summary_close,
        ]
        with pytest.raises(FormatError) as err:
            parse_sample(tokens, vocab)
        assert err.value.offset == 3

    def test_missing_summary(self, vocab):
        tokens = [vocab.think_open(1), 70, vocab.think_close(1)]
        with pytest.raises(FormatError):
            parse_sample(tokens, vocab)

    def test_trailing_tokens(self, vocab):
        tokens = [
            vocab.think_open(1), 70, vocab.think_close(1),
            vocab.summary_open, 72, vocab.summary_close, 73,
        ]
        with pytest.raises(FormatError):
            parse_sample(tokens, vocab)

    def test_bodies_hold_eos_and_pad_but_no_other_control(self, vocab):
        eos, pad = vocab.eos, vocab.pad
        tokens = [
            vocab.think_open(1), 70, eos, pad, vocab.think_close(1),
            vocab.summary_open, 72, eos, pad, vocab.summary_close,
        ]
        parsed = parse_sample(tokens, vocab)
        assert parsed.paths == ((1, (70, eos, pad)),)
        assert parsed.answer == (72, eos, pad)
        # the lowest and highest ids of each forbidden kind, at offset 2 of
        # the path body and offset 7 of the summary (whose closer ends it)
        kinds = [
            vocab.think_open(1), vocab.think_open(vocab.p_max),
            vocab.think_close(2), vocab.think_close(vocab.p_max),
            vocab.summary_open, vocab.summary_close,
        ]
        for offset, where in ((2, "inside path 1"), (7, "inside the summary")):
            for token in kinds:
                if offset == 7 and token == vocab.summary_close:
                    continue
                bad = tokens[:offset] + [token] + tokens[offset + 1 :]
                with pytest.raises(FormatError, match=where) as err:
                    parse_sample(bad, vocab)
                assert err.value.offset == offset

    def test_empty_summary_flagged(self, vocab):
        tokens = []
        for i in range(1, 7):
            tokens += [vocab.think_open(i), 70 + i, vocab.think_close(i)]
        tokens += [vocab.summary_open, vocab.summary_close]
        parsed = parse_sample(tokens, vocab)
        assert parsed.empty_answer and parsed.answer == ()
        assert len(parsed.paths) == 6


def outcome(parse, tokens, vocab):
    """What a parser makes of ``tokens``: its result, or its error."""
    try:
        return parse(tokens, vocab)
    except FormatError as err:
        return (str(err), err.offset)


def serialize(vocab, paths, answer):
    tokens = []
    for label, body in paths:
        tokens += [vocab.think_open(label), *body, vocab.think_close(label)]
    return tokens + [vocab.summary_open, *answer, vocab.summary_close]


@st.composite
def well_formed(draw, vocab=Vocab()):
    """(paths, answer) of a valid sample: P̂ 1-16, bodies and answer may be
    empty and may hold EOS and PAD."""
    body_ids = st.one_of(st.integers(0, vocab.base_size - 1), st.sampled_from([vocab.eos, vocab.pad]))
    labels = draw(st.permutations(range(1, vocab.p_max + 1)))[: draw(st.integers(1, vocab.p_max))]
    paths = [(label, draw(st.lists(body_ids, max_size=8))) for label in labels]
    return paths, draw(st.lists(body_ids, max_size=8))


# ids that int() would read as 65, 1 and 7
NOT_INTEGERS = [65.7, True, "7"]


@st.composite
def mutated(draw, vocab=Vocab()):
    """A well-formed sample after up to three edits: replace, insert or
    delete one id, truncate, append, or replace one id with one that is not
    an integer; edited ids lean to control ids."""
    paths, answer = draw(well_formed())
    tokens = serialize(vocab, paths, answer)
    any_id = st.one_of(
        st.integers(0, vocab.size - 1),
        st.integers(vocab.base_size, vocab.size - 1),
    )
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(
            st.sampled_from(["replace", "insert", "delete", "truncate", "append", "foreign"])
        )
        at = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if edit == "replace" and tokens:
            tokens[at] = draw(any_id)
        elif edit == "insert":
            tokens.insert(at, draw(any_id))
        elif edit == "delete" and tokens:
            del tokens[at]
        elif edit == "truncate":
            tokens = tokens[:at]
        elif edit == "append":
            tokens.append(draw(any_id))
        elif edit == "foreign" and tokens:
            tokens[at] = draw(st.sampled_from(NOT_INTEGERS))
    return tokens


class TestParserOracle:
    """The array parser against the token-by-token one (tests/oracles.py)."""

    @given(well_formed())
    @settings(max_examples=150, deadline=None)
    def test_well_formed_samples_parse_alike(self, vocab, sample):
        paths, answer = sample
        tokens = serialize(vocab, paths, answer)
        parsed = parse_sample(tokens, vocab)
        assert parsed == reference_parse_sample(tokens, vocab)
        assert parsed.paths == tuple((label, tuple(body)) for label, body in paths)
        assert parsed.answer == tuple(answer) and parsed.empty_answer == (not answer)

    @given(mutated())
    @settings(max_examples=300, deadline=None)
    def test_mutated_samples_parse_or_fail_alike(self, vocab, tokens):
        # equal paths and answer, or the same FormatError message and offset
        assert outcome(parse_sample, tokens, vocab) == outcome(
            reference_parse_sample, tokens, vocab
        )

    @pytest.mark.parametrize("bad", [*NOT_INTEGERS, np.bool_(False), np.float32(2), None])
    def test_reference_rejects_ids_that_are_not_integers(self, vocab, bad):
        tokens = serialize(vocab, [(1, [70, 71]), (2, [72])], [73])
        tokens[2] = bad
        tokens[6] = "8"  # a second one, later
        with pytest.raises(FormatError, match="is not an integer") as err:
            reference_parse_sample(tokens, vocab)
        assert err.value.offset == 2
        assert outcome(parse_sample, tokens, vocab) == outcome(
            reference_parse_sample, tokens, vocab
        )

    def test_numpy_input_parses_like_a_tuple(self, vocab):
        sample = build_sample(problem(), vocab, p_hat=4, seed=5)
        assert parse_sample(np.array(sample.tokens), vocab) == parse_sample(sample.tokens, vocab)


class TestIdsOutsideTheVocabulary:
    def sample(self, vocab):
        return serialize(vocab, [(1, [70, 71]), (2, [72])], [73])

    @pytest.mark.parametrize("bad", [-1, -(2**40), "size", "size+7", 2**64, -(2**64)])
    def test_rejected_at_the_first_offset(self, vocab, bad):
        bad = {"size": vocab.size, "size+7": vocab.size + 7}.get(bad, bad)
        for offset in (0, 2, 4, 8):
            tokens = self.sample(vocab)
            tokens[offset] = bad
            tokens[offset + 1] = -3  # a second bad id, later
            with pytest.raises(FormatError, match="outside the vocabulary") as err:
                parse_sample(tokens, vocab)
            assert err.value.offset == offset

    def test_checked_before_the_grammar(self, vocab):
        # a stray control at offset 1 comes first, but the range check runs first
        tokens = self.sample(vocab)
        tokens[1] = vocab.summary_open
        tokens[5] = vocab.size
        with pytest.raises(FormatError, match="outside the vocabulary") as err:
            parse_sample(tokens, vocab)
        assert err.value.offset == 5

    def test_never_reach_a_training_layout(self, vocab):
        sample = build_sample(problem(2), vocab, p_hat=2, seed=0)
        tokens = list(sample.tokens)
        tokens[1] = vocab.size
        bad = SFTSample(**{**sample.__dict__, "tokens": tuple(tokens)})
        with pytest.raises(FormatError):
            training_layout(bad, vocab)

    @pytest.mark.parametrize("bad", [65.7, True, np.bool_(False), "7", np.float32(2), None])
    def test_ids_that_are_not_integers_rejected(self, vocab, bad):
        # 65.7 once parsed as 65, True as 1 and "7" as 7
        tokens = self.sample(vocab)
        tokens[2] = bad
        tokens[5] = vocab.size  # outside the vocabulary, but later checked
        with pytest.raises(FormatError, match="is not an integer") as err:
            parse_sample(tokens, vocab)
        assert err.value.offset == 2

    @pytest.mark.parametrize("kind", [np.int64, np.uint8])
    def test_numpy_integer_ids_accepted(self, vocab, kind):
        tokens = self.sample(vocab)
        tokens[2] = kind(65)
        assert parse_sample(tokens, vocab).paths[0] == (1, (70, 65))

    def test_the_last_ids_of_the_vocabulary_are_body_ids(self, vocab):
        tokens = self.sample(vocab)
        tokens[1] = vocab.size - 1  # PAD
        assert parse_sample(tokens, vocab).paths[0] == (1, (vocab.pad, 71))


def cap_sample(vocab, p_hat, seed):
    """A sample of P̂ uneven paths whose layout fills the context cap exactly:
    10 prompt slots, each path at its real length plus its opener and
    closer, and 10 + 2 answer slots; the first path takes what the others
    leave, so it is the longest."""
    rng = np.random.default_rng(seed)
    l_x = answer_len = 10
    body_slots = MAX_CONTEXT_TOKENS - l_x - (answer_len + 2) - 2 * p_hat
    lengths = [int(rng.integers(0, body_slots // p_hat)) for _ in range(p_hat - 1)]
    lengths.insert(0, body_slots - sum(lengths))
    prob = RawProblem(
        query="q" * l_x, answer="a" * answer_len, paths=tuple("x" * n for n in lengths)
    )
    return build_sample(prob, vocab, p_hat=p_hat, seed=seed, template=None)


class TestLayoutOracle:
    """The span-copying layout against the token-by-token one."""

    def assert_same_layout(self, sample, vocab, max_context=MAX_CONTEXT_TOKENS):
        got = training_layout(sample, vocab, max_context)
        want = reference_training_layout(sample, vocab, max_context)
        for name in ("tokens", "positions", "thought_indices", "loss_mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int64, name
            assert np.array_equal(a, b), name
        assert got.segments == want.segments
        assert got.layout == want.layout
        for name in ("segment", "owner", "allowed"):
            assert np.array_equal(getattr(got.mask, name), getattr(want.mask, name)), name
        return got

    def test_random_samples(self, vocab):
        rng = np.random.default_rng(8)
        for case in range(60):
            p_hat = int(rng.integers(1, vocab.p_max + 1))
            prob = RawProblem(
                query="q" * int(rng.integers(1, 20)),
                answer="a" * int(rng.integers(1, 20)),
                paths=tuple("p" * int(rng.integers(0, 40)) for _ in range(p_hat + 2)),
            )
            sample = build_sample(prob, vocab, p_hat=p_hat, seed=case, template=None)
            self.assert_same_layout(sample, vocab)

    def test_empty_bodies_eos_and_pad(self, vocab):
        tokens = serialize(
            vocab, [(3, []), (1, [70, vocab.eos]), (9, [vocab.pad] * 3)], []
        )
        sample = SFTSample("q", ("", "", ""), (3, 1, 9), "", tuple(tokens), 3, 0)
        self.assert_same_layout(sample, vocab)

    @pytest.mark.parametrize("p_hat", [1, 2, 7, 16])
    def test_at_the_context_cap(self, vocab, p_hat):
        got = self.assert_same_layout(cap_sample(vocab, p_hat, seed=p_hat), vocab)
        assert len(got.tokens) == MAX_CONTEXT_TOKENS

    def test_over_the_cap_raises_alike(self, vocab):
        sample = cap_sample(vocab, 4, seed=0)
        with pytest.raises(LayoutError) as got:
            training_layout(sample, vocab, MAX_CONTEXT_TOKENS - 1)
        with pytest.raises(LayoutError) as want:
            reference_training_layout(sample, vocab, MAX_CONTEXT_TOKENS - 1)
        assert str(got.value) == str(want.value)

    def test_parse_walks_control_tokens_not_bodies(self, vocab, monkeypatch):
        # the walk asks for a think label once per path and once to stop
        sample = cap_sample(vocab, 16, seed=1)
        calls = []
        label_of = Vocab.think_open_label

        def counted(self, token):
            calls.append(token)
            return label_of(self, token)

        monkeypatch.setattr(Vocab, "think_open_label", counted)
        parse_sample(sample.tokens, vocab)
        assert len(calls) <= sample.p_hat + 1
        calls.clear()
        training_layout(sample, vocab)
        assert len(calls) <= sample.p_hat + 1


class TestTrainingLayout:
    def test_segment_codes_built_once_per_layout(self, vocab, monkeypatch):
        calls, codes = [], LayoutPlan.segment_codes
        monkeypatch.setattr(LayoutPlan, "segment_codes", lambda plan: calls.append(1) or codes(plan))
        for p_hat in (1, 4):
            calls.clear()
            tl = training_layout(build_sample(problem(p_hat), vocab, p_hat=p_hat, seed=3), vocab)
            assert calls == [1]
            assert np.array_equal(tl.mask.owner, tl.mask.segment)

    def test_masks_match_masking_module(self, vocab):
        sample = build_sample(problem(2), vocab, p_hat=2, seed=7)
        tl = training_layout(sample, vocab)
        plan = tl.layout
        summary = build_summary_mask(plan)
        for i in range(plan.num_paths):
            reasoning = build_reasoning_mask(plan, i)
            for t in plan.path_slots(i):
                assert np.array_equal(tl.mask.visible[t], reasoning.visible[t])
        for t in plan.answer_slots():
            assert np.array_equal(tl.mask.visible[t], summary.visible[t])

    def test_single_path_is_standard_causal(self, vocab):
        sample = build_sample(problem(1), vocab, p_hat=1, seed=0)
        tl = training_layout(sample, vocab)
        n = len(tl.tokens)
        assert np.array_equal(tl.mask.visible, np.tril(np.ones((n, n), dtype=bool)))

    def test_positions_follow_shared_scheme(self, vocab):
        uneven = RawProblem(query="q", answer="a", paths=("short", "a much longer path"))
        sample = build_sample(uneven, vocab, p_hat=2, seed=2)
        tl = training_layout(sample, vocab)
        plan = tl.layout
        l_x = plan.l_x
        assert tl.positions[: l_x].tolist() == list(range(1, l_x + 1))
        for i in range(plan.num_paths):
            slots = list(plan.path_slots(i))
            assert tl.positions[slots].tolist() == [
                l_x + t + 1 for t in range(len(slots))
            ]
        answer = list(plan.answer_slots())
        longest = max(plan.path_lengths)
        assert len(set(plan.path_lengths)) == 2  # the answer follows the longest path
        assert tl.positions[answer].tolist() == [
            l_x + longest + t + 1 for t in range(len(answer))
        ]

    @given(raw_problems(), st.integers(0, 2**32), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_a_record_is_its_prompt_plus_its_sample(self, vocab, case, seed, templated):
        prob, p_hat = case
        template = DEFAULT_ANSWER_TEMPLATE if templated else None
        sample = build_sample(prob, vocab, p_hat=p_hat, seed=seed, template=template)
        prompt = encode(sample.query, vocab, markup=False)
        if len(prompt) + len(sample.tokens) > MAX_CONTEXT_TOKENS:  # the cap counts real slots
            with pytest.raises(LayoutError):
                training_layout(sample, vocab)
            return
        tl = training_layout(sample, vocab)
        assert tl.tokens.tolist() == prompt + list(sample.tokens)
        at = 0  # the segments tile the tokens in order
        for segment in tl.segments:
            assert segment["start"] == at and segment["length"] >= 1
            at += segment["length"]
        assert at == len(tl.tokens)
        no_loss = set(range(len(prompt))) | {segment["start"] for segment in tl.segments}
        assert set(np.flatnonzero(tl.loss_mask == 0).tolist()) == no_loss
        assert set(tl.loss_mask.tolist()) <= {0, 1}

    def test_real_lengths_and_loss_mask(self, vocab):
        uneven = RawProblem(query="q", answer="a", paths=("short", "a much longer path"))
        sample = build_sample(uneven, vocab, p_hat=2, seed=4)
        tl = training_layout(sample, vocab)
        plan = tl.layout
        bodies = [len(body) for _, body in parse_sample(sample.tokens, vocab).paths]
        assert plan.path_lengths == tuple(n + 2 for n in bodies)
        assert len(set(plan.path_lengths)) == 2
        assert vocab.pad not in tl.tokens.tolist()
        assert all(tl.loss_mask[t] == 0 for t in plan.prompt_slots())
        for i in range(plan.num_paths):
            slots = list(plan.path_slots(i))
            assert tl.loss_mask[slots[0]] == 0  # opener carries no loss
            assert all(tl.loss_mask[t] == 1 for t in slots[1:])  # body and closer do
        answer = list(plan.answer_slots())
        assert tl.loss_mask[answer[0]] == 0  # engine inserts the summary opener
        assert tl.loss_mask[answer[-1]] == 1  # the closer is predicted

    def test_uneven_path_visibility(self, vocab):
        # answer rows see every slot of every path, however long, as the
        # summary mask does; path rows never see another path's slots
        uneven = RawProblem(query="q", answer="a", paths=("short", "a much longer path"))
        tl = training_layout(build_sample(uneven, vocab, p_hat=2, seed=4), vocab)
        plan = tl.layout
        all_paths = set(range(plan.l_x, plan.answer_slots().start))
        assert len(all_paths) == sum(plan.path_lengths)
        for t in plan.answer_slots():
            assert all_paths <= set(tl.mask.visible_set(t))
        visible = tl.mask.visible
        for i in range(plan.num_paths):
            others = all_paths - set(plan.path_slots(i))
            for t in plan.path_slots(i):
                assert not others & set(tl.mask.visible_set(t))
                assert not visible[t, sorted(others)].any()

    def test_layout_at_the_context_cap_is_bounded(self, vocab):
        # 10 prompt + (28637 + 2) + (9 + 2) + (10 + 2) = 28,672 slots: the
        # cap, over two paths of uneven length.  A dense N x N boolean mask
        # alone would be 822 MB here.
        prob = RawProblem(query="q" * 10, answer="a" * 10, paths=("x" * 28637, "y" * 9))
        sample = build_sample(prob, vocab, p_hat=2, seed=0, template=None)
        tracemalloc.start()
        try:
            tl = training_layout(sample, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tl.tokens) == tl.mask.size == MAX_CONTEXT_TOKENS
        assert peak <= 32 * 2**20, peak
        last = MAX_CONTEXT_TOKENS - 1
        assert tl.mask.visible_set(last) == list(range(MAX_CONTEXT_TOKENS))
        first_path = list(tl.layout.path_slots(0))
        assert tl.mask.visible_set(first_path[-1]) == list(range(first_path[-1] + 1))

    def test_thought_indices_track_labels(self, vocab):
        sample = build_sample(problem(4), vocab, p_hat=2, seed=9)
        tl = training_layout(sample, vocab)
        plan = tl.layout
        for i, (label, _) in enumerate(parse_sample(sample.tokens, vocab).paths):
            slots = list(plan.path_slots(i))
            assert set(tl.thought_indices[slots].tolist()) == {label}
        assert set(tl.thought_indices[list(plan.prompt_slots())].tolist()) == {0}

    def test_context_limit(self, vocab):
        # 10 prompt + (28649 + 2) + (10 + 2) = 28,673: one past the limit
        over = RawProblem(query="q" * 10, answer="a" * 10, paths=("x" * 28649,))
        sample = build_sample(over, vocab, p_hat=1, seed=0, template=None)
        with pytest.raises(LayoutError):
            training_layout(sample, vocab)

    def test_context_limit_boundary(self, vocab):
        # same boundary semantics, exercised at a desk-scale limit
        prob = RawProblem(query="q" * 10, answer="a" * 10, paths=("x" * 76,))
        sample = build_sample(prob, vocab, p_hat=1, seed=0, template=None)
        # 10 + 78 + 12 = 100 tokens exactly
        assert len(training_layout(sample, vocab, max_context=100).tokens) == 100
        with pytest.raises(LayoutError):
            training_layout(sample, vocab, max_context=99)
        assert MAX_CONTEXT_TOKENS == 28672


class TestJsonl:
    def test_problem_schema_requires_format(self):
        with pytest.raises(DataError):
            problem_from_record({"query": "q", "answer": "a", "paths": ["p"]})

    @pytest.mark.parametrize("record, message", [
        ([1, 2], "problem record must be a JSON object, got list"),
        ({"paths": "abc"}, "problem paths must be a list of strings, got str"),
        ({"paths": ["x", 7]}, "problem path 1 must be a string, got int"),
        ({"query": 5}, "problem query must be a string, got int"),
        ({"answer": None}, "problem answer must be a string, got NoneType"),
        # valid JSON escapes of a lone surrogate, which UTF-8 cannot encode
        ({"query": "\udcff"}, "problem query is not UTF-8 text"),
        ({"answer": "a\udcff"}, "problem answer is not UTF-8 text"),
        ({"paths": ["x", "\udcff"]}, "problem path 1 is not UTF-8 text"),
    ])
    def test_malformed_record_rejected_naming_its_line(self, tmp_path, record, message):
        if isinstance(record, dict):
            record = {"format": "ptsft-1", "query": "q", "answer": "a", "paths": ["p"], **record}
        with pytest.raises(DataError, match=f"^{message}$"):
            problem_from_record(record)
        problems_path = tmp_path / "problems.jsonl"
        problems_path.write_text(
            json.dumps({"format": "ptsft-1", "query": "q", "answer": "a", "paths": ["p"]})
            + "\n" + json.dumps(record) + "\n"
        )
        with pytest.raises(DataError, match=f"^line 2: {message}$"):
            read_problems(str(problems_path))

    def test_io_round_trip(self, vocab, tmp_path):
        problems_path = tmp_path / "problems.jsonl"
        with open(problems_path, "w") as fh:
            for i in range(3):
                fh.write(
                    json.dumps(
                        {
                            "format": "ptsft-1",
                            "query": f"question {i}",
                            "answer": str(i),
                            "paths": [f"r{i}a", f"r{i}b"],
                        }
                    )
                    + "\n"
                )
        problems = read_problems(str(problems_path))
        assert len(problems) == 3

        records = []
        for i, prob in enumerate(problems):
            sample = build_sample(prob, vocab, p_hat=2, seed=i)
            records.append(training_record(sample, training_layout(sample, vocab)))
        out_path = tmp_path / "train.jsonl"
        write_training_records(records, str(out_path))
        lines = [json.loads(l) for l in out_path.read_text().splitlines() if l.strip()]
        assert all(rec["format"] == "ptsft-2" for rec in lines)
        assert all(
            len(rec["tokens"]) == len(rec["loss_mask"]) for rec in lines
        )
        assert lines[0]["P"] == 2
