"""Character-level URL tokenizer: printable ASCII plus PAD/UNK reserved ids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

PAD_ID = 0
UNK_ID = 1
_ASCII_LO = 32
_ASCII_HI = 126
# the longest id sequence a URL encodes to: RFC 9110 asks for URIs of at least
# 8000 octets, and a 1000-row batch of such ids is 64 MB
MAX_LEN = 8192


@dataclass(frozen=True)
class Vocab:
    size: int
    mapping: Dict[str, int]


@dataclass(frozen=True)
class EncodedUrl:
    """Fixed-length id sequence; ids[k] == PAD exactly for k >= true_len."""

    ids: np.ndarray
    true_len: int


def default_vocab() -> Vocab:
    """PAD=0, UNK=1, printable ASCII codepoint c -> c - 32 + 2. Size 97."""
    mapping = {chr(c): c - _ASCII_LO + 2 for c in range(_ASCII_LO, _ASCII_HI + 1)}
    return Vocab(size=2 + (_ASCII_HI - _ASCII_LO + 1), mapping=mapping)


def encode_url(url: str, vocab: Vocab, max_len: int = 200) -> EncodedUrl:
    """Encode left-to-right, truncating the tail and right-padding with PAD.

    Total over all of Unicode: anything outside printable ASCII maps to UNK.
    The head is kept on truncation since scheme and domain carry the most
    phishing signal.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    kept = url[:max_len]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[: len(kept)] = [vocab.mapping.get(ch, UNK_ID) for ch in kept]
    return EncodedUrl(ids=ids, true_len=len(kept))
