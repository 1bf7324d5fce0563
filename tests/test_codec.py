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
    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            encode_url("x", VOCAB, 0)

    @given(st.text(max_size=40), st.integers(1, 30))
    def test_equals_per_character_lookup(self, s, max_len):
        want = [id_for(VOCAB, ch) for ch in s[:max_len]]
        enc = encode_url(s, VOCAB, max_len)
        assert enc.ids.tolist() == want + [PAD_ID] * (max_len - len(want))
        assert enc.true_len == len(want)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=19))
    def test_round_trip_printable_ascii(self, s):
        assert decode_ids(encode_url(s, VOCAB, 20), VOCAB) == s
