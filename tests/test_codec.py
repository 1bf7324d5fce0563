import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import decode_ids, id_for
from phishdefense.codec import (
    PAD_ID,
    UNK_ID,
    default_vocab,
    encode_url,
)

VOCAB = default_vocab()


class TestDefaultVocab:
    def test_size(self):
        assert VOCAB.size == 97

    def test_space_maps_to_2(self):
        assert id_for(VOCAB, " ") == 2

    def test_lowercase_a(self):
        assert id_for(VOCAB, "a") == 67

    def test_every_printable_ascii_mapped_injectively(self):
        ids = [id_for(VOCAB, chr(c)) for c in range(32, 127)]
        assert len(set(ids)) == 95
        assert PAD_ID not in ids and UNK_ID not in ids


class TestEncodeUrl:
    def test_basic_padding(self):
        enc = encode_url("ab", VOCAB, 5)
        np.testing.assert_array_equal(enc.ids, [67, 68, 0, 0, 0])
        assert enc.true_len == 2

    def test_empty_string(self):
        enc = encode_url("", VOCAB, 3)
        np.testing.assert_array_equal(enc.ids, [0, 0, 0])
        assert enc.true_len == 0

    def test_truncation_keeps_head(self):
        enc = encode_url("xyz", VOCAB, 2)
        assert enc.true_len == 2
        np.testing.assert_array_equal(enc.ids, [id_for(VOCAB, "x"), id_for(VOCAB, "y")])

    def test_non_ascii_maps_to_unk(self):
        enc = encode_url("aéb\n", VOCAB, 10)
        assert enc.ids[1] == UNK_ID
        assert enc.ids[3] == UNK_ID

    def test_case_preserved(self):
        upper = encode_url("ABC", VOCAB, 5)
        lower = encode_url("abc", VOCAB, 5)
        assert not np.array_equal(upper.ids, lower.ids)

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            encode_url("x", VOCAB, 0)

    @given(st.text())
    def test_total_over_unicode(self, s):
        enc = encode_url(s, VOCAB, 16)
        assert enc.ids.shape == (16,)
        assert np.all(enc.ids < VOCAB.size)
        assert np.all(enc.ids[enc.true_len :] == PAD_ID)
        assert np.all(enc.ids[: enc.true_len] != PAD_ID) or enc.true_len == 0

    @given(st.text())
    def test_deterministic(self, s):
        a = encode_url(s, VOCAB, 12)
        b = encode_url(s, VOCAB, 12)
        assert np.array_equal(a.ids, b.ids) and a.true_len == b.true_len

    @given(st.text(max_size=40), st.integers(1, 30))
    def test_equals_per_character_lookup(self, s, max_len):
        want = [id_for(VOCAB, ch) for ch in s[:max_len]]
        enc = encode_url(s, VOCAB, max_len)
        assert enc.ids.tolist() == want + [PAD_ID] * (max_len - len(want))
        assert enc.true_len == len(want)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=19))
    def test_round_trip_printable_ascii(self, s):
        assert decode_ids(encode_url(s, VOCAB, 20), VOCAB) == s
