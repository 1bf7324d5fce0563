"""Dataset loading, train/test splitting, and shuffled mini-batching."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterator, List, TextIO, Tuple

import numpy as np

from .codec import Vocab, encode_url
from .errors import DataError

CSV_COLUMNS = ("url", "label")  # a corpus CSV's header, exactly
# characters in one line of URL text, its line break included: above any row
# of two fields within csv's default limit of 131,072 characters, quoted
MAX_LINE = 1 << 20
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


def text_lines(fh: TextIO, name: str) -> Iterator[str]:
    """The lines of fh, a text stream that decodes strict UTF-8, without a
    leading byte-order mark; a decode error or a line of more than MAX_LINE
    characters is a DataError naming name. No more than MAX_LINE + 1
    characters of a line are read."""
    try:  # the stream decodes as it is read: any line can fail
        for k, line in enumerate(iter(lambda: fh.readline(MAX_LINE + 1), ""), 1):
            if len(line) > MAX_LINE:
                raise DataError(f"{name}:{k}: line longer than {MAX_LINE} characters")
            yield line.removeprefix("\ufeff") if k == 1 else line
    except UnicodeDecodeError as e:
        raise DataError(f"{name}: not UTF-8 text: {e}") from e


def load_csv(path: str, dedup: bool = False) -> LabeledDataset:
    """Load a `url,label` CSV (RFC-4180 quoting, UTF-8 with or without a BOM).

    Labels may be 0/1 or legitimate/phishing (case-insensitive). Duplicate
    URLs are kept unless dedup is set, which keeps the first record of each.
    """
    records: List[Tuple[str, int]] = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e
    with fh:
        reader = csv.reader(text_lines(fh, path))
        try:  # csv.Error: a field over csv's size limit
            header = next(reader, None)
            if header is None or tuple(c.strip().lower() for c in header) != CSV_COLUMNS:
                raise DataError(f"{path}: expected header '{','.join(CSV_COLUMNS)}', got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                url, raw_label = row[0], row[1].strip().lower()
                if raw_label not in _LABEL_TOKENS:
                    raise DataError(f"{path}:{reader.line_num}: unknown label {row[1]!r}")
                if not url:
                    raise DataError(f"{path}:{reader.line_num}: empty url")
                records.append((url, _LABEL_TOKENS[raw_label]))
        except csv.Error as e:
            raise DataError(f"{path}:{reader.line_num}: {e}") from e
    if dedup:
        first: Dict[str, int] = {}
        for url, lab in records:
            first.setdefault(url, lab)
        records = list(first.items())
    return LabeledDataset(records=records)


def split(
    ds: LabeledDataset, ratio: float, seed: int, stratify: bool = False
) -> SplitPair:
    """Split by one seeded permutation; |train| = round(ratio * N) exactly.

    Plain: the first round(ratio * N) records of the permutation train.
    Stratified: the permutation is stably sorted by label and position i
    trains when round((i + 1) * ratio) > round(i * ratio), so each label's
    train count is within one record of ratio times its size.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    n = len(ds)
    n_train = int(round(ratio * n))
    if not 0 < n_train < n:
        raise DataError(f"cannot split {n} records at ratio {ratio}: a side would be empty")
    perm = np.random.default_rng(seed).permutation(n)
    pos = np.arange(n)
    if stratify:
        labels = np.array([lab for _, lab in ds.records])
        perm = perm[np.argsort(labels[perm], kind="stable")]
        to_train = np.round((pos + 1) * ratio) > np.round(pos * ratio)
    else:
        to_train = pos < n_train
    mk = lambda idx: LabeledDataset(records=[ds.records[i] for i in idx])
    return SplitPair(train=mk(perm[to_train]), test=mk(perm[~to_train]))


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
    perm = np.random.default_rng(epoch_seed).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        chunk = [ds.records[i] for i in perm[start : start + batch_size]]
        encoded = [encode_url(url, vocab, max_len) for url, _ in chunk]
        yield (
            np.stack([enc.ids for enc in encoded]),
            np.array([enc.true_len for enc in encoded], dtype=np.int64),
            np.array([lab for _, lab in chunk], dtype=np.int64),
        )
