"""Bitwise pins of the training arithmetic.

SHA-256 digests of the float64 bytes that the train-mode forward and
backward passes and a short `train` run produce on tiny models. A change
to the scans, the head, the loss or Adam that moves any result by one ulp
fails here, where the benchmark's 1e-6 tolerance would let it through.

The digests hold for one numpy/BLAS build and one BLAS kernel: a BLAS with
another summation order changes the last bits of the products, and the pins
must then be recorded again from a commit known to be right. numpy's
OpenBLAS picks its kernels per CPU at load time; tests/conftest.py sets
OPENBLAS_CORETYPE to the core the digests were recorded under, and a run on
any other core fails with a message that names both, not with a digest
mismatch.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from phishdefense.data import split
from phishdefense.model import backward_batch, build_model, default_config, forward_batch
from phishdefense.train import TrainConfig, make_synthetic_corpus, train

PINNED_CORE = "Haswell"
WIDTH = 12
BATCHES = {
    # rows of unsorted lengths, with an empty row, a tie and a full-width row
    "mixed": np.array([5, 12, 0, 3, 12, 1]),
    "equal": np.array([7, 7, 7, 7]),
    "single": np.array([4]),
    "no_lens": None,
}


def openblas_core():
    """The kernel core numpy's bundled OpenBLAS runs on, or None if it
    cannot be asked (another BLAS, or no scipy-openblas library)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def assert_pinned_core():
    core = openblas_core()
    assert core == PINNED_CORE, (
        f"OpenBLAS runs the {core} kernels; the digests were recorded under {PINNED_CORE} "
        f"(OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')})")


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
    ("gru", "mixed"): "6cf7b06f11915d8c179b73e1fa4b690f05f42e97ce4c944deae17f42479481dd",
    ("gru", "equal"): "b2bed01c97c842fe3da6d6f94a04d44718ebeb5ae73f7961e51dcfd1e8f4767d",
    ("gru", "single"): "56766eb40bbe8f7cc1dc1169110c00523e15d71120a3e6459e9ee2305c7d16c2",
    ("gru", "no_lens"): "ef6006247709a51e2d5c580e8133a8e023eb76ea26e875923b1c1526bf96ddaa",
    ("lstm", "mixed"): "cd8a16c940293831f71b34851dc10223dee5131a86cebee4e4ee9d52b46be9e8",
    ("lstm", "equal"): "0492998adbe6a317d6cc094c2ae8e1327ba7010596b032689faccf233a783b5d",
    ("lstm", "single"): "8bac30a32978c22f29f68fe80f6216918c6551539ffbbb6965b898f6399765cc",
    ("lstm", "no_lens"): "53a9a494027fd4ebd18f9ad3fbd661803f314d6cd4a784d5e23b59ba9fa2cd3f",
}

TRAIN_SHA256 = {
    "gru": "1d9a65843ec31c91ceeeffbb7e5371bb49b3c91893eeef449ce7011d04539839",
    "lstm": "11d3e380cc065cd3175dc10d5695611b911c78dcb0ecba12922c1b70f9a112f1",
}


@pytest.mark.parametrize("cell,case", sorted(FORWARD_BACKWARD_SHA256))
def test_forward_backward_bytes_are_pinned(cell, case):
    assert_pinned_core()
    ids, lens, labels = batch_case(case)
    m = tiny(cell, seed=2)
    probs, caches = forward_batch(m, ids, lens, mode="train", seed=17)
    grads, loss = backward_batch(m, caches, labels)
    named = {"probs": probs, "loss": loss, **{f"grad.{k}": v for k, v in grads.items()}}
    assert digest(named) == FORWARD_BACKWARD_SHA256[(cell, case)]


@pytest.mark.parametrize("cell", sorted(TRAIN_SHA256))
def test_two_epoch_train_bytes_are_pinned(cell):
    assert_pinned_core()
    pair = split(make_synthetic_corpus(60, 0.5, 4), 0.75, 4)
    m = tiny(cell, seed=4)
    best, history = train(m, pair, TrainConfig(epochs=2, batch_size=16, seed=4))
    named = {f"cur.{k}": v for k, v in m.params.items()}
    named.update({f"best.{k}": v for k, v in best.params.items()})
    named["losses"] = [(r.train_loss, r.val_loss) for r in history]
    assert digest(named) == TRAIN_SHA256[cell]
