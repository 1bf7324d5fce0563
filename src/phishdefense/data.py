"""Dataset loading, train/test splitting, and shuffled mini-batching."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .codec import Vocab, encode_url
from .errors import DataError

_LABEL_TOKENS = {"0": 0, "1": 1, "legitimate": 0, "phishing": 1}


@dataclass
class LabeledDataset:
    records: List[Tuple[str, int]]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SplitPair:
    train: LabeledDataset
    test: LabeledDataset


def load_csv(path: str, dedup: bool = False) -> LabeledDataset:
    """Load a `url,label` CSV (RFC-4180 quoting, UTF-8).

    Labels may be 0/1 or legitimate/phishing (case-insensitive). Duplicate
    URLs are kept unless dedup is set.
    """
    records: List[Tuple[str, int]] = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e
    with fh:
        try:  # the file decodes as it is read: any row can fail
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header[:2]] != ["url", "label"]:
                raise DataError(f"{path}: expected header 'url,label', got {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
                url, raw_label = row[0], row[1].strip().lower()
                if raw_label not in _LABEL_TOKENS:
                    raise DataError(f"{path}:{lineno}: unknown label {row[1]!r}")
                if not url:
                    raise DataError(f"{path}:{lineno}: empty url")
                records.append((url, _LABEL_TOKENS[raw_label]))
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e}") from e
    if dedup:
        seen = set()
        unique = []
        for url, lab in records:
            if url not in seen:
                seen.add(url)
                unique.append((url, lab))
        records = unique
    return LabeledDataset(records=records)


def split(
    ds: LabeledDataset, ratio: float, seed: int, stratify: bool = False
) -> SplitPair:
    """Seeded shuffle then prefix split; |train| = round(ratio * N).

    With stratify, class proportions are preserved within one record.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    n = len(ds)
    n_train = int(round(ratio * n))
    if not 0 < n_train < n:
        raise DataError(f"cannot split {n} records at ratio {ratio}: a side would be empty")
    rng = np.random.default_rng(seed)
    if stratify:
        by_class: dict[int, list[int]] = {0: [], 1: []}
        for i, (_, lab) in enumerate(ds.records):
            by_class[lab].append(i)
        train_idx: list[int] = []
        test_idx: list[int] = []
        for lab in (0, 1):
            idx = np.array(by_class[lab], dtype=np.int64)
            rng.shuffle(idx)
            k = int(round(ratio * len(idx)))
            train_idx.extend(idx[:k].tolist())
            test_idx.extend(idx[k:].tolist())
        # keep the overall train size at round(ratio * N)
        while len(train_idx) > n_train:
            test_idx.append(train_idx.pop())
        while len(train_idx) < n_train and test_idx:
            train_idx.append(test_idx.pop())
        order_train = np.array(train_idx, dtype=np.int64)
        order_test = np.array(test_idx, dtype=np.int64)
        rng.shuffle(order_train)
        rng.shuffle(order_test)
    else:
        perm = rng.permutation(n)
        order_train, order_test = perm[:n_train], perm[n_train:]
    mk = lambda idx: LabeledDataset(records=[ds.records[i] for i in idx])
    return SplitPair(train=mk(order_train), test=mk(order_test))


def batches(
    ds: LabeledDataset,
    batch_size: int,
    epoch_seed: int,
    vocab: Vocab,
    max_len: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (ids, true_lens, labels) mini-batches, reshuffled from epoch_seed.

    The final partial batch is kept; batch count is ceil(N / batch_size).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(epoch_seed)
    perm = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        chunk = perm[start : start + batch_size]
        ids = np.zeros((len(chunk), max_len), dtype=np.int64)
        lens = np.zeros(len(chunk), dtype=np.int64)
        labels = np.zeros(len(chunk), dtype=np.int64)
        for row, i in enumerate(chunk):
            url, lab = ds.records[i]
            enc = encode_url(url, vocab, max_len)
            ids[row] = enc.ids
            lens[row] = enc.true_len
            labels[row] = lab
        yield ids, lens, labels
