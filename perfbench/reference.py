"""An independent forward pass of the phishdefense models, for output checks.

The checks that compare two of the program's own paths (batched against
per-URL, served against in-process) cannot see a change in the arithmetic
both paths share. This module computes the same probabilities from the
model's equations and its parameter arrays only: it encodes URLs itself,
runs each row over exactly its own length (rows sorted longest first, no
masked carry), and takes the logistic function from tanh. A fault in the
program's scan, masking, gates or head does not repeat here.

It also checks Adam against Algorithm 1 of Kingma and Ba, and gradients
against central differences of the reference loss.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

UNK_ID = 1
# Printable ASCII code point c has token id c - 30 (ids 0 and 1 are PAD and UNK).
ID_OFFSET = 30

# Largest absolute difference allowed between a program probability and the
# reference one. Reordered sums move a probability by about 1e-16; a changed
# equation moves it by far more than this.
PROB_ATOL = 1e-9
# Central differences: step and allowed error of one gradient coordinate.
FD_EPS = 1e-6
FD_ATOL = 1e-8
FD_RTOL = 1e-5
FD_COORDS_PER_TENSOR = 3
ADAM_STEPS = 3


def encode(url: str, max_len: int) -> List[int]:
    return [ord(ch) - ID_OFFSET if 32 <= ord(ch) <= 126 else UNK_ID for ch in url[:max_len]]


def logistic(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def probabilities(config, params: Dict[str, np.ndarray], urls: Sequence[str]) -> np.ndarray:
    """Infer-mode phishing probability of each URL."""
    seqs = [encode(u, config.max_len) for u in urls]
    order = sorted(range(len(seqs)), key=lambda k: -len(seqs[k]))
    lengths = np.array([len(seqs[k]) for k in order], dtype=np.int64)
    h = np.zeros((len(seqs), config.hidden_dim))
    c = np.zeros_like(h)
    w = {name[len("cell."):]: v for name, v in params.items() if name.startswith("cell.")}
    for t in range(int(lengths[0]) if len(lengths) else 0):
        k = int(np.count_nonzero(lengths > t))  # rows still running: a prefix
        x = params["embed"][[seqs[order[j]][t] for j in range(k)]]
        hk = h[:k]
        if config.cell_kind == "gru":
            z = logistic(x @ w["W_z"] + hk @ w["U_z"] + w["b_z"])
            r = logistic(x @ w["W_r"] + hk @ w["U_r"] + w["b_r"])
            cand = np.tanh(x @ w["W_h"] + (r * hk) @ w["U_h"] + w["b_h"])
            h[:k] = z * hk + (1.0 - z) * cand
        else:
            f = logistic(x @ w["W_f"] + hk @ w["U_f"] + w["b_f"])
            i = logistic(x @ w["W_i"] + hk @ w["U_i"] + w["b_i"])
            o = logistic(x @ w["W_o"] + hk @ w["U_o"] + w["b_o"])
            cand = np.tanh(x @ w["W_c"] + hk @ w["U_c"] + w["b_c"])
            c[:k] = f * c[:k] + i * cand
            h[:k] = o * np.tanh(c[:k])
    x = h
    n_dense = len(config.dense_dims)
    for k in range(n_dense):
        pre = x @ params[f"dense{k}.w"] + params[f"dense{k}.b"]
        if k < n_dense - 1:
            x = logistic(pre)
        elif config.output_kind == "sigmoid_scalar":
            x = logistic(pre[:, 0])
        else:  # two-class softmax: p1 = e^z1 / (e^z0 + e^z1)
            x = logistic(pre[:, 1] - pre[:, 0])
    out = np.empty(len(seqs))
    out[order] = x
    return out


def bce(labels: np.ndarray, probs: np.ndarray) -> float:
    """Mean binary cross-entropy, probabilities clamped to [1e-12, 1 - 1e-12]."""
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def prob_mismatches(program: np.ndarray, expected: np.ndarray) -> int:
    """How many program probabilities differ from the reference by more than PROB_ATOL."""
    return int(np.count_nonzero(~(np.abs(np.asarray(program) - expected) <= PROB_ATOL)))


def confusion(probs: np.ndarray, labels: Sequence[int]) -> Tuple[int, int, int, int]:
    """(TP, FP, TN, FN) of the verdicts probs > 0.5, the program's default threshold."""
    pred = np.asarray(probs) > 0.5
    y = np.asarray(labels) == 1
    return (int(np.sum(pred & y)), int(np.sum(pred & ~y)), int(np.sum(~pred & ~y)), int(np.sum(~pred & y)))


def gradient_mismatches(pd, model, records, seed: int) -> Tuple[int, int]:
    """Check backward_batch against central differences of the reference loss.

    The program's gradient comes from an infer-mode forward_batch (no
    dropout) on `records`; FD_COORDS_PER_TENSOR seeded coordinates of every
    parameter tensor are checked, embedding rows among those the URLs use.
    Returns (coordinates checked, coordinates outside tolerance).
    """
    cfg = model.config
    urls = [u for u, _ in records]
    labels = np.array([y for _, y in records], dtype=np.float64)
    vocab = pd.default_vocab()
    encoded = [pd.encode_url(u, vocab, cfg.max_len) for u in urls]
    ids = np.stack([e.ids for e in encoded])
    lens = np.array([e.true_len for e in encoded])
    _, caches = pd.forward_batch(model, ids, lens, mode="infer")
    grads, _ = pd.backward_batch(model, caches, labels)
    used_rows = sorted({i for u in urls for i in encode(u, cfg.max_len)})
    rng = np.random.default_rng([seed, 41])
    checked = bad = 0
    params = {k: v.copy() for k, v in model.params.items()}
    for name in sorted(params):
        tensor = params[name]
        for _ in range(FD_COORDS_PER_TENSOR):
            if name == "embed":
                idx = (used_rows[rng.integers(len(used_rows))], int(rng.integers(tensor.shape[1])))
            else:
                idx = np.unravel_index(int(rng.integers(tensor.size)), tensor.shape)
            keep = tensor[idx]
            tensor[idx] = keep + FD_EPS
            up = bce(labels, probabilities(cfg, params, urls))
            tensor[idx] = keep - FD_EPS
            down = bce(labels, probabilities(cfg, params, urls))
            tensor[idx] = keep
            numeric = (up - down) / (2 * FD_EPS)
            analytic = float(grads[name][idx])
            checked += 1
            bad += not abs(analytic - numeric) <= FD_ATOL + FD_RTOL * abs(numeric)
    return checked, bad


def adam_mismatches(pd, seed: int) -> Tuple[int, int]:
    """Check tensor.adam_step against Algorithm 1 of Kingma and Ba (2015).

    Returns (parameter tensors checked, tensors that differ).
    """
    rng = np.random.default_rng([seed, 43])
    params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
    state = pd.tensor.AdamState(alpha=1e-2)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    expected = {k: p.copy() for k, p in params.items()}
    checked = bad = 0
    for t in range(1, ADAM_STEPS + 1):
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        params = pd.tensor.adam_step(params, grads, state)
        for k, g in grads.items():
            m[k] = state.beta1 * m[k] + (1 - state.beta1) * g
            v[k] = state.beta2 * v[k] + (1 - state.beta2) * g ** 2
            m_hat = m[k] / (1 - state.beta1 ** t)
            v_hat = v[k] / (1 - state.beta2 ** t)
            expected[k] = expected[k] - state.alpha * m_hat / (np.sqrt(v_hat) + state.epsilon)
            checked += 1
            bad += not np.allclose(params[k], expected[k], rtol=1e-12, atol=1e-15)
    return checked, bad
