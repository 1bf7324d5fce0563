"""Bitwise pins of the training arithmetic.

SHA-256 digests of the float64 bytes that the train-mode forward and
backward passes and a short `train` run produce on tiny models. A change
to the scans, the head, the loss or Adam that moves any result by one ulp
fails here, where the benchmark's 1e-6 tolerance would let it through.

The digests hold for one numpy/BLAS build: a BLAS with another summation
order changes the last bits of the products, and the pins must then be
recorded again from a commit known to be right.
"""

import hashlib

import numpy as np
import pytest

from phishdefense.data import split
from phishdefense.model import backward_batch, build_model, default_config, forward_batch
from phishdefense.train import TrainConfig, make_synthetic_corpus, train

WIDTH = 12
BATCHES = {
    # rows of unsorted lengths, with an empty row, a tie and a full-width row
    "mixed": np.array([5, 12, 0, 3, 12, 1]),
    "equal": np.array([7, 7, 7, 7]),
    "single": np.array([4]),
    "no_lens": None,
}


def digest(named):
    h = hashlib.sha256()
    for name, value in sorted(named.items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    return h.hexdigest()


def tiny(cell, seed):
    return build_model(default_config(cell, hidden_dim=8, embed_dim=4, max_len=WIDTH, seed=seed))


def batch_case(case):
    lens = BATCHES[case]
    rng = np.random.default_rng(31)
    rows = 3 if lens is None else len(lens)
    ids = rng.integers(2, 97, size=(rows, WIDTH))
    if lens is not None:
        ids[np.arange(WIDTH)[None, :] >= lens[:, None]] = 0
    labels = rng.integers(0, 2, size=rows)
    return ids, lens, labels


FORWARD_BACKWARD_SHA256 = {
    ("gru", "mixed"): "caa10765bdc73021b4f74f74ea40f08c58e64b474359959df7a8d9120ae9798f",
    ("gru", "equal"): "05a59ab33b5d98e8dbe620428b32649f165ac971bf2a4772d58bb58efa6d3517",
    ("gru", "single"): "39328db7cc871fe87567454c4db9fc5a445706aa8c5ca5e39d6beb735364bd47",
    ("gru", "no_lens"): "0af72b2572d0bc70364e3a96c2dfb9ba025aa595fe2ba4cb1bb7a59233139805",
    ("lstm", "mixed"): "177a615f69c16430265c88c9188a7710aa3a11cbbc29c4b33d88c75e83348a73",
    ("lstm", "equal"): "8a25254ebdb2d7cdc69a9ab6a4a27d9b0fa06ee719f9f19f9e770f16726efe89",
    ("lstm", "single"): "520ee3f4781075a7c1bfdbd967829226c752d1ed14494bed98826f1c389d8900",
    ("lstm", "no_lens"): "a294da07786b1e151df08ce42fa1d336d88d1266cceb556060b649e7c884e6da",
}

TRAIN_SHA256 = {
    "gru": "1c642911880f4da1bae2ba8326850bb3baf91175956036ac3ccc539a719715b9",
    "lstm": "b0b8d80be2989abdfac3f1b3bffd405e04242af3e4e34db91f64650271074783",
}


@pytest.mark.parametrize("cell,case", sorted(FORWARD_BACKWARD_SHA256))
def test_forward_backward_bytes_are_pinned(cell, case):
    ids, lens, labels = batch_case(case)
    m = tiny(cell, seed=2)
    probs, caches = forward_batch(m, ids, lens, mode="train", seed=17)
    grads, loss = backward_batch(m, caches, labels)
    named = {"probs": probs, "loss": loss, **{f"grad.{k}": v for k, v in grads.items()}}
    assert digest(named) == FORWARD_BACKWARD_SHA256[(cell, case)]


@pytest.mark.parametrize("cell", sorted(TRAIN_SHA256))
def test_two_epoch_train_bytes_are_pinned(cell):
    pair = split(make_synthetic_corpus(60, 0.5, 4), 0.75, 4)
    m = tiny(cell, seed=4)
    best, history = train(m, pair, TrainConfig(epochs=2, batch_size=16, seed=4))
    named = {f"cur.{k}": v for k, v in m.params.items()}
    named.update({f"best.{k}": v for k, v in best.params.items()})
    named["losses"] = [(r.train_loss, r.val_loss) for r in history]
    assert digest(named) == TRAIN_SHA256[cell]
