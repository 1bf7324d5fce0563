"""PD-LSTM / PD-GRU model graphs, binary cross-entropy, and prediction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .codec import MAX_LEN, Vocab, default_vocab, encode_url
from .errors import ConfigError, ShapeError
from .layers import (
    CELLS,
    dense_backward,
    dense_forward,
    dropout,
    embedding_backward,
    embedding_forward,
    gru_backward,
    gru_forward,
    infer_scan,
    lstm_backward,
    lstm_forward,
)
from .tensor import ParamSet, sigmoid, xavier_init

EPS_CLAMP = 1e-12

# The head's final dense width fixes (its output kind, the weights w that
# turn its output z into the phishing logit z @ w). A width-2 head is a
# softmax pair, whose phishing coordinate softmax(z)[1] is sigmoid(z1 - z0).
_HEADS = {1: ("sigmoid_scalar", np.array([1.0])), 2: ("softmax_pair", np.array([-1.0, 1.0]))}


@dataclass(frozen=True)
class ModelConfig:
    cell_kind: str = "gru"  # a key of layers.CELLS
    vocab_size: int = default_vocab().size
    embed_dim: int = 32
    hidden_dim: int = 128
    dense_dims: Tuple[int, ...] = ()
    dropout_rate: float = 0.0
    max_len: int = 200
    seed: int = 0

    @property
    def output_kind(self) -> str:
        """"sigmoid_scalar" for a final dense width of 1, "softmax_pair" for 2."""
        return _HEADS[self.dense_dims[-1]][0]

    def validate(self) -> None:
        if self.cell_kind not in CELLS:
            raise ConfigError(f"unknown cell kind {self.cell_kind!r}")
        if min(self.vocab_size, self.embed_dim, self.hidden_dim, self.max_len) < 1:
            raise ConfigError("all dims must be >= 1")
        if self.max_len > MAX_LEN:
            raise ConfigError(f"max_len {self.max_len} above the codec's limit of {MAX_LEN}")
        if any(d < 1 for d in self.dense_dims) or not self.dense_dims:
            raise ConfigError(f"bad dense widths {self.dense_dims}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate {self.dropout_rate} outside [0,1)")
        if self.dense_dims[-1] not in _HEADS:
            raise ConfigError(
                f"final dense width must be 1 (sigmoid scalar) or 2 (softmax pair), "
                f"got {self.dense_dims[-1]}"
            )


def default_config(cell_kind: str, **overrides) -> ModelConfig:
    """PD-LSTM: one dense layer of width 1 (sigmoid scalar), dropout 0.5.
    PD-GRU: dense 64 -> width 2 (softmax pair), dropout 0.2.
    Dropout masks the input of the last dense layer."""
    if cell_kind == "lstm":
        cfg = ModelConfig(cell_kind="lstm", dense_dims=(1,), dropout_rate=0.5)
    elif cell_kind == "gru":
        cfg = ModelConfig(cell_kind="gru", dense_dims=(64, 2), dropout_rate=0.2)
    else:
        raise ConfigError(f"unknown cell kind {cell_kind!r}")
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class ModelGraph:
    config: ModelConfig
    params: ParamSet
    threshold: float = 0.5

    @property
    def cell(self):
        return CELLS[self.config.cell_kind].from_dict(self.params, "cell.")

    def copy(self) -> "ModelGraph":
        return ModelGraph(
            config=self.config,
            params={k: v.copy() for k, v in self.params.items()},
            threshold=self.threshold,
        )


def build_model(cfg: ModelConfig) -> ModelGraph:
    """Deterministic construction from cfg.seed; recurrent weights orthogonal."""
    cfg.validate()
    seeds = np.random.SeedSequence(cfg.seed).generate_state(4 + len(cfg.dense_dims))
    params: ParamSet = {"embed": xavier_init(cfg.vocab_size, cfg.embed_dim, int(seeds[0]))}
    cell = CELLS[cfg.cell_kind].init(cfg.embed_dim, cfg.hidden_dim, int(seeds[1]))
    params.update(cell.to_dict("cell."))
    in_dim = cfg.hidden_dim
    for k, out_dim in enumerate(cfg.dense_dims):
        params[f"dense{k}.w"] = xavier_init(in_dim, out_dim, int(seeds[2 + k]))
        params[f"dense{k}.b"] = np.zeros(out_dim)
        in_dim = out_dim
    return ModelGraph(config=cfg, params=params)


def forward_batch(
    m: ModelGraph,
    ids: np.ndarray,
    lens: Optional[np.ndarray] = None,
    mode: str = "infer",
    seed: int = 0,
) -> Tuple[np.ndarray, Dict]:
    """Embedding -> recurrence over true lengths -> dense head.

    Hidden dense layers use a sigmoid; the last one is linear, and its
    output z gives the phishing logit: z itself at width 1, z1 - z0 for a
    softmax pair. In "train" mode, dropout seeded by seed masks the input
    of the last dense layer.
    Returns per-example phishing probability in (0,1) plus caches for BPTT.
    """
    ids = _trim(ids, lens)
    # only train-mode dropout draws from the generator
    rng = np.random.default_rng(seed) if mode == "train" else None
    xs = embedding_forward(m.params["embed"], ids)
    if m.config.cell_kind == "lstm":
        (x, _), cell_caches = lstm_forward(m.cell, xs, lens)
    else:
        x, cell_caches = gru_forward(m.cell, xs, lens)
    probs, dense_caches, drop_mask = _head(m, x, rng)
    caches = {"ids": ids, "cell": cell_caches, "dense": dense_caches,
              "drop_mask": drop_mask, "probs": probs}
    return probs, caches


def score_batch(m: ModelGraph, ids: np.ndarray, lens: Optional[np.ndarray] = None) -> np.ndarray:
    """Infer-mode phishing probabilities of a batch, equal to forward_batch's
    within rounding, without its caches: the recurrence is the forward-only
    `infer_scan` over the folded input projections."""
    x = infer_scan(m.cell, m.params["embed"], _trim(ids, lens), lens)
    return _head(m, x, None)[0]


def _trim(ids: np.ndarray, lens: Optional[np.ndarray]) -> np.ndarray:
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    if lens is not None:
        # columns beyond the longest row are padding: cut them
        ids = ids[:, : max(1, int(np.max(lens)))]
    return ids


def _head(
    m: ModelGraph, x: np.ndarray, rng: Optional[np.random.Generator]
) -> Tuple[np.ndarray, List[Dict], Optional[np.ndarray]]:
    """Dense head on the final hidden state x: hidden sigmoid layers, dropout
    from rng (none when rng is None) on the last layer's input, the linear
    last layer and the logit z @ w.
    Returns (probabilities, per-layer dense caches, dropout mask)."""
    cfg = m.config
    dense = []
    last = len(cfg.dense_dims) - 1
    for k in range(last):
        x, dcache = dense_forward(m.params[f"dense{k}.w"], m.params[f"dense{k}.b"], x, "sigmoid")
        dense.append(dcache)
    x, drop_mask = dropout(x, cfg.dropout_rate, rng)
    z, dcache = dense_forward(m.params[f"dense{last}.w"], m.params[f"dense{last}.b"], x)
    dense.append(dcache)
    return sigmoid(z @ _HEADS[cfg.dense_dims[-1]][1]), dense, drop_mask


def bce_loss(y: np.ndarray, p: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient wrt p.

    p is clamped to [1e-12, 1 - 1e-12] before the logs; the gradient is
    that of the clamped expression (zero where the clamp is active).
    """
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if y.shape != p.shape or y.size == 0:
        raise ShapeError(f"bce_loss: labels {y.shape} vs probs {p.shape}")
    n = y.size
    pc = np.clip(p, EPS_CLAMP, 1.0 - EPS_CLAMP)
    loss = -np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    grad = np.where(
        (p > EPS_CLAMP) & (p < 1.0 - EPS_CLAMP),
        (-y / pc + (1.0 - y) / (1.0 - pc)) / n,
        0.0,
    )
    return float(loss), grad


def backward_batch(
    m: ModelGraph, caches: Dict, labels: np.ndarray
) -> Tuple[ParamSet, float]:
    """Full parameter gradients of the mean BCE over the batch, at the
    weights the forward pass that filled caches ran: every weight is read
    from caches, none from m.params."""
    cfg = m.config
    probs, dense = caches["probs"], caches["dense"]
    labels = np.asarray(labels, dtype=np.float64)
    loss, dp = bce_loss(labels, probs)
    last = len(dense) - 1
    # d(loss)/d(logit), spread over the last dense layer's outputs z
    dx = (dp * probs * (1.0 - probs))[:, None] * _HEADS[cfg.dense_dims[-1]][1]
    grads: ParamSet = {}
    for k in range(last, -1, -1):
        if k < last:  # hidden dense layers use a sigmoid activation
            a = dense[k]["out"]
            dx = dx * a * (1.0 - a)
        grads[f"dense{k}.w"], grads[f"dense{k}.b"], dx = dense_backward(dense[k], dx)
        if k == last and caches["drop_mask"] is not None:
            dx = dx * caches["drop_mask"]
    backward = lstm_backward if cfg.cell_kind == "lstm" else gru_backward
    cell_grads, dxs = backward(caches["cell"], dx)
    grads.update({f"cell.{k}": v for k, v in cell_grads.items()})
    grads["embed"] = embedding_backward((cfg.vocab_size, cfg.embed_dim), caches["ids"], dxs)
    return grads, loss


def predict(
    m: ModelGraph, url: str, vocab: Vocab, threshold: Optional[float] = None
) -> Tuple[str, float]:
    """Infer-mode score for one URL at threshold (default: the model's own);
    ties at the threshold go to legitimate."""
    enc = encode_url(url, vocab, m.config.max_len)
    probs, _ = forward_batch(m, enc.ids[None, :], np.array([enc.true_len]))
    score = float(probs[0])
    if threshold is None:
        threshold = m.threshold
    verdict = "phishing" if score > threshold else "legitimate"
    return verdict, score
