import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcot.errors import ConfigError, DataError, VocabError
from parcot.tokenizer import (
    Vocab,
    decode,
    encode,
    sample_think_tokens,
)


@pytest.fixture(scope="module")
def vocab():
    return Vocab()


class TestVocabLayout:
    def test_default_size(self, vocab):
        assert vocab.size == 256 + 2 * 16 + 4 == 292

    def test_control_ids_contiguous_above_base(self, vocab):
        ids = (
            [vocab.think_open(i) for i in range(1, 17)]
            + [vocab.think_close(i) for i in range(1, 17)]
            + [vocab.summary_open, vocab.summary_close, vocab.eos, vocab.pad]
        )
        assert ids == list(range(256, 292))

    def test_open_ids_distinct_per_label(self, vocab):
        assert len({vocab.think_open(i) for i in range(1, 17)}) == 16

    def test_label_bounds(self, vocab):
        with pytest.raises(VocabError):
            vocab.think_open(0)
        with pytest.raises(VocabError):
            vocab.think_open(17)

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 1.0, np.float64(3), "2", None])
    def test_label_must_be_an_integer(self, vocab, bad):
        for control in (vocab.think_open, vocab.think_close):
            with pytest.raises(ConfigError, match="is not an integer"):
                control(bad)

    def test_numpy_integer_label(self, vocab):
        assert vocab.think_open(np.int64(3)) == vocab.think_open(3)
        assert vocab.think_close(np.uint8(16)) == vocab.think_close(16)
        assert type(vocab.think_open(np.uint8(2))) is int
        with pytest.raises(VocabError):
            vocab.think_open(np.int64(17))


    @pytest.mark.parametrize("field, bad", [
        ("p_max", 2.5), ("p_max", True), ("base_size", 256.0), ("base_size", np.bool_(True)),
    ])
    def test_sizes_must_be_integers(self, field, bad):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got"):
            Vocab(**{field: bad})

    def test_numpy_sizes_stored_as_int(self):
        vocab = Vocab(base_size=np.int64(256), p_max=np.uint8(4))
        assert type(vocab.base_size) is int and type(vocab.p_max) is int
        assert type(vocab.think_close(1)) is int and vocab == Vocab(256, 4)


class TestEncodeDecode:
    def test_bytes_identity(self, vocab):
        assert encode("ab", vocab, markup=True) == [97, 98]

    def test_reserved_form_maps_to_control_id(self, vocab):
        assert encode("<think 3>", vocab, markup=True) == [vocab.think_open(3)]
        assert encode("</think 3>", vocab, markup=True) == [vocab.think_close(3)]
        assert encode("<summary>", vocab, markup=True) == [vocab.summary_open]
        assert encode("</summary>", vocab, markup=True) == [vocab.summary_close]

    def test_default_is_bytes_only(self, vocab):
        text = "<think 3></summary><eos>"
        assert encode(text, vocab) == list(text.encode("utf-8"))

    def test_plain_mode_never_emits_control_ids(self, vocab):
        ids = encode("<think 3> and </summary>", vocab, markup=False)
        assert all(i < 256 for i in ids)
        assert decode(ids, vocab) == "<think 3> and </summary>"

    def test_near_miss_forms_stay_bytes(self, vocab):
        for text in ("<think 03>", "<think 99>", "<think  3>", "<Think 3>"):
            assert all(i < 256 for i in encode(text, vocab, markup=True))

    def test_mixed_text_round_trip(self, vocab):
        text = "solve: <think 1>use algebra</think 1><summary>42</summary>"
        ids = encode(text, vocab, markup=True)
        assert vocab.think_open(1) in ids and vocab.summary_close in ids
        assert decode(ids, vocab) == text

    def test_unknown_id_rejected(self, vocab):
        with pytest.raises(VocabError):
            decode([292], vocab)

    @pytest.mark.parametrize("bad", [65.7, 66.0, True, np.bool_(False), "66", np.float32(65), None])
    def test_non_integer_id_rejected(self, vocab, bad):
        with pytest.raises(VocabError, match="is not an integer"):
            decode([65, bad, 66], vocab)

    def test_integer_ids_of_any_integer_type_accepted(self, vocab):
        assert decode([np.int64(65), np.uint8(66), 67], vocab) == "ABC"

    @given(st.text(max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_markup_round_trip_any_text(self, text):
        vocab = Vocab()
        assert decode(encode(text, vocab, markup=True), vocab) == text

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=12),
                st.sampled_from(
                    ["<think 1>", "</think 1>", "<think 16>", "<summary>", "</summary>"]
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_with_embedded_markers(self, pieces):
        vocab = Vocab()
        text = "".join(pieces)
        assert decode(encode(text, vocab, markup=True), vocab) == text


# Every control id of a p_max 1 vocab and a p_max 16 vocab, written out.
SURFACES = {
    1: {256: "<think 1>", 257: "</think 1>", 258: "<summary>", 259: "</summary>",
        260: "<eos>", 261: "<pad>"},
    16: {
        **{255 + i: f"<think {i}>" for i in range(1, 17)},
        **{271 + i: f"</think {i}>" for i in range(1, 17)},
        288: "<summary>", 289: "</summary>", 290: "<eos>", 291: "<pad>",
    },
}
NEAR_MISSES = ["<think 0>", "<think 01>", "<think 17>", "</think  1>", "<Summary>"]


class TestSurfaces:
    @pytest.mark.parametrize("p_max", sorted(SURFACES))
    def test_every_id_against_the_written_table(self, p_max):
        vocab = Vocab(p_max=p_max)
        table = SURFACES[p_max]
        for token in range(vocab.size):
            if token < vocab.base_size:
                with pytest.raises(VocabError):
                    vocab.surface(token)
                continue
            text = table[token]
            assert vocab.surface(token) == text
            assert vocab.control_id_for_surface(text) == token
            assert encode(text, vocab, markup=True) == [token]
            assert decode([token], vocab) == text
        assert len(table) == vocab.size - vocab.base_size

    @pytest.mark.parametrize("p_max", sorted(SURFACES))
    @pytest.mark.parametrize("text", NEAR_MISSES)
    def test_near_misses_are_not_control_tokens(self, p_max, text):
        vocab = Vocab(p_max=p_max)
        assert vocab.control_id_for_surface(text) is None
        assert encode(text, vocab, markup=True) == list(text.encode("utf-8"))


class TestSampleThinkTokens:
    def test_exhaustive_draw_is_permutation(self):
        assert sorted(sample_think_tokens(8, 8, seed=1)) == list(range(1, 9))

    def test_deterministic_per_seed(self):
        assert sample_think_tokens(4, 16, seed=9) == sample_think_tokens(4, 16, seed=9)

    def test_distinct(self):
        for seed in range(30):
            draw = sample_think_tokens(6, 16, seed=seed)
            assert len(set(draw)) == 6

    def test_over_capacity_rejected(self):
        with pytest.raises(DataError):
            sample_think_tokens(9, 8, seed=0)

    def test_uniform_over_seeds(self):
        counts = np.zeros(8, dtype=int)
        trials = 10_000
        for seed in range(trials):
            counts[sample_think_tokens(1, 8, seed=seed)[0] - 1] += 1
        expected = trials / 8
        sigma = np.sqrt(trials * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)
