"""Embedding, LSTM/GRU cells with hand-derived BPTT, dropout, dense layers.

Both recurrent cells run through one forward scan (`_scan`) and one
backward scan (`_bptt`); a cell contributes only its gate equations
(`step`) and their derivatives (`step_grad`).

Fused gate layout: a cell keeps W (d, G*h), U (h, G*h) and b (G*h,), one
h-wide block per gate, side by side in the PDM1 order -- "fico" for the
LSTM (forget, input, candidate, output) and "zrh" for the GRU (update,
reset, candidate). W_f, U_z, b_h, ... are views of their block.

Input projection: `_scan` computes x W + b for every step in one GEMM,
time-major (t, batch, G*h), before the time loop; each step then adds the
recurrent term, one GEMM (two for the GRU, whose reset gate multiplies
h_prev before U_h), and applies the gate activations in place, so the
projection buffer ends up holding the activations.

Variable lengths are handled by masked state carry: at step t, rows with
t >= true_len keep their previous state unchanged, which is exactly
equivalent to running the recurrence only over the first true_len steps
of each row. The backward scan mirrors that carry, so padded positions
contribute zero gradient.

A scan cache holds only what the backward scan reads: "x", the inputs
time-major (t, batch, d); "acts", the gate activations (t, batch, G*h);
"states", the carried states (t+1, S, batch, h) with the initial state at
index 0 (S = 2 for the LSTM's h and c, 1 for the GRU's h); and "pad", true
where a step is padding (t, batch, 1), or None without lengths. The
backward scan does not modify it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeError
from .tensor import ParamSet, orthogonal_init, sigmoid, softmax, xavier_init

Cache = Dict[str, np.ndarray]


class CellParams:
    """Fused input weights W (d x G*h), recurrent weights U (h x G*h), biases b (G*h,)."""

    GATES = ""  # one letter per gate block, in PDM1 order
    STATES = 1  # state vectors carried per row

    def __init__(self, **tensors: np.ndarray) -> None:
        """Fuse per-gate tensors W_<g>, U_<g>, b_<g> (copied) into W, U, b."""
        for kind in "WUb":
            blocks = [np.asarray(tensors[f"{kind}_{g}"], dtype=np.float64) for g in self.GATES]
            setattr(self, kind, np.concatenate(blocks, axis=-1))

    def __getattr__(self, name: str) -> np.ndarray:
        # W_f, U_z, b_h, ...: a writable view of that gate's block
        kind, _, gate = name.partition("_")
        k = self.GATES.find(gate) if kind in ("W", "U", "b") and len(gate) == 1 else -1
        if k < 0:
            raise AttributeError(name)
        h = self.hidden_dim
        return getattr(self, kind)[..., k * h : (k + 1) * h]

    @property
    def input_dim(self) -> int:
        return self.W.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[0]

    @classmethod
    def tensor_names(cls) -> Tuple[str, ...]:
        return tuple(f"{kind}_{g}" for kind in "WUb" for g in cls.GATES)

    @classmethod
    def shapes(cls, input_dim: int, hidden_dim: int) -> List[Tuple[str, Tuple[int, ...]]]:
        """(name, shape) of every per-gate tensor, in tensor_names() order."""
        dims = {"W": (input_dim, hidden_dim), "U": (hidden_dim, hidden_dim), "b": (hidden_dim,)}
        return [(n, dims[n[0]]) for n in cls.tensor_names()]

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, seed: int) -> "CellParams":
        """Xavier input weights, orthogonal recurrent weights, zero biases."""
        g = len(cls.GATES)
        tensors = {}
        for k, gate in enumerate(cls.GATES):
            tensors[f"W_{gate}"] = xavier_init(input_dim, hidden_dim, seed * 2 * g + k)
            tensors[f"U_{gate}"] = orthogonal_init(hidden_dim, hidden_dim, seed * 2 * g + g + k)
            tensors[f"b_{gate}"] = np.zeros(hidden_dim)
        return cls(**tensors)

    @classmethod
    def fused(cls, W: np.ndarray, U: np.ndarray, b: np.ndarray) -> "CellParams":
        """Wrap already fused arrays without copying them."""
        p = cls.__new__(cls)
        p.W, p.U, p.b = W, U, b
        return p

    @classmethod
    def from_dict(cls, params: ParamSet, prefix: str = "") -> "CellParams":
        return cls(**{n: params[prefix + n] for n in cls.tensor_names()})

    def to_dict(self, prefix: str = "") -> ParamSet:
        return {prefix + n: getattr(self, n) for n in self.tensor_names()}


class LstmParams(CellParams):
    """Forget, input, candidate and output gates; the state is (h, c)."""

    GATES = "fico"
    STATES = 2

    def step(self, a: np.ndarray, prev: np.ndarray, out: np.ndarray) -> None:
        """One step. a is x W + b (batch, 4h) and is overwritten with the gate
        activations; prev and out are (2, batch, h) holding (h, c).

        The cell update is the standard additive form c = f*c_prev + i*c_tilde
        (no outer squashing), so cell memory is unbounded and the carry
        property f=1, i=0 => c_t = c_prev holds exactly.
        """
        h = self.hidden_dim
        a += prev[0] @ self.U
        a[:, : 2 * h] = sigmoid(a[:, : 2 * h])
        np.tanh(a[:, 2 * h : 3 * h], out=a[:, 2 * h : 3 * h])
        a[:, 3 * h :] = sigmoid(a[:, 3 * h :])
        f, i, g, o = np.split(a, 4, axis=1)
        out[1] = f * prev[1] + i * g
        out[0] = o * np.tanh(out[1])

    def step_grad(
        self, a: np.ndarray, prev: np.ndarray, new: np.ndarray, d: np.ndarray, dU: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backward of step given d = (dh, dc) at new: returns the gradient at
        the pre-activations (batch, 4h) and (dh, dc) at prev; adds into dU."""
        f, i, g, o = np.split(a, 4, axis=1)
        tanh_c = np.tanh(new[1])
        dc = d[1] + d[0] * o * (1.0 - tanh_c**2)
        dpre = np.concatenate(
            [
                dc * prev[1] * f * (1.0 - f),
                dc * g * i * (1.0 - i),
                dc * i * (1.0 - g**2),
                d[0] * tanh_c * o * (1.0 - o),
            ],
            axis=1,
        )
        dU += prev[0].T @ dpre
        return dpre, np.stack([dpre @ self.U.T, dc * f])


class GruParams(CellParams):
    """Update (z), reset (r) and candidate (h) gates; the state is h.

    Reset is applied to the previous state before the recurrent transform:
    h_tilde = tanh(x W_h + (r * h_prev) U_h + b_h).
    """

    GATES = "zrh"
    STATES = 1

    def step(self, a: np.ndarray, prev: np.ndarray, out: np.ndarray) -> None:
        """One step. a is x W + b (batch, 3h) and is overwritten with the gate
        activations; prev and out are (1, batch, h) holding h."""
        n = self.hidden_dim
        h_prev = prev[0]
        zr, g = a[:, : 2 * n], a[:, 2 * n :]
        zr += h_prev @ self.U[:, : 2 * n]
        zr[:] = sigmoid(zr)
        z, r = zr[:, :n], zr[:, n:]
        g += (r * h_prev) @ self.U[:, 2 * n :]
        np.tanh(g, out=g)
        out[0] = (1.0 - z) * g + z * h_prev

    def step_grad(
        self, a: np.ndarray, prev: np.ndarray, new: np.ndarray, d: np.ndarray, dU: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backward of step given d = (dh,) at new: returns the gradient at the
        pre-activations (batch, 3h) and (dh,) at prev; adds into dU."""
        n = self.hidden_dim
        z, r, g = np.split(a, 3, axis=1)
        h_prev, dh = prev[0], d[0]
        dg = dh * (1.0 - z) * (1.0 - g**2)
        d_rh = dg @ self.U[:, 2 * n :].T
        dzr = np.concatenate(
            [dh * (h_prev - g) * z * (1.0 - z), d_rh * h_prev * r * (1.0 - r)], axis=1
        )
        dU[:, : 2 * n] += h_prev.T @ dzr
        dU[:, 2 * n :] += (r * h_prev).T @ dg
        dh_prev = dh * z + d_rh * r + dzr @ self.U[:, : 2 * n].T
        return np.concatenate([dzr, dg], axis=1), dh_prev[None]


CELLS = {"lstm": LstmParams, "gru": GruParams}
LSTM_TENSORS = LstmParams.tensor_names()
GRU_TENSORS = GruParams.tensor_names()


def _step_inputs(
    p: CellParams, x_t: np.ndarray, state: Sequence[np.ndarray], who: str
) -> Tuple[np.ndarray, np.ndarray]:
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    if x_t.shape[1] != p.input_dim:
        raise ShapeError(f"{who}: input dim {x_t.shape[1]} != expected {p.input_dim}")
    state = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in state]
    if any(s.shape[1] != p.hidden_dim for s in state):
        raise ShapeError(
            f"{who}: state dims {[s.shape for s in state]} != hidden {p.hidden_dim}"
        )
    return x_t @ p.W + p.b, np.stack(np.broadcast_arrays(*state))


def lstm_step(
    p: LstmParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Cache]:
    """One LSTM step through the cell the scan runs; returns (h, c, gates)."""
    a, prev = _step_inputs(p, x_t, (h_prev, c_prev), "lstm_step")
    out = np.empty((2, a.shape[0], p.hidden_dim))
    p.step(a, prev, out)
    f, i, c_tilde, o = np.split(a, 4, axis=1)
    return out[0], out[1], {"f": f, "i": i, "c_tilde": c_tilde, "o": o, "c": out[1], "h": out[0]}


def gru_step(p: GruParams, x_t: np.ndarray, h_prev: np.ndarray) -> Tuple[np.ndarray, Cache]:
    """One GRU step through the cell the scan runs; returns (h, gates)."""
    a, prev = _step_inputs(p, x_t, (h_prev,), "gru_step")
    out = np.empty((1, a.shape[0], p.hidden_dim))
    p.step(a, prev, out)
    z, r, h_tilde = np.split(a, 3, axis=1)
    return out[0], {"z": z, "r": r, "h_tilde": h_tilde, "h": out[0]}


def _scan(
    p: CellParams,
    xs: np.ndarray,
    lens: Optional[np.ndarray],
    state0: Sequence[Optional[np.ndarray]],
    who: str,
) -> Tuple[np.ndarray, Cache]:
    """The masked-carry forward scan of both cells; returns (states, cache)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 2:
        xs = xs[None, :, :]
    if xs.ndim != 3 or xs.shape[1] == 0:
        raise ShapeError(f"{who}: need (batch, time>=1, dim), got {xs.shape}")
    b, t_max, d = xs.shape
    if d != p.input_dim:
        raise ShapeError(f"{who}: input dim {d} != expected {p.input_dim}")
    x = np.ascontiguousarray(xs.transpose(1, 0, 2))
    acts = (x.reshape(t_max * b, d) @ p.W).reshape(t_max, b, -1)
    acts += p.b
    states = np.empty((t_max + 1, p.STATES, b, p.hidden_dim))
    for k, s0 in enumerate(state0):
        states[0, k] = 0.0 if s0 is None else s0
    pad = None
    if lens is not None:
        pad = (np.arange(t_max)[:, None] >= np.asarray(lens)[None, :])[:, :, None]
    for t in range(t_max):
        p.step(acts[t], states[t], states[t + 1])
        if pad is not None:
            np.copyto(states[t + 1], states[t], where=pad[t])
    return states, {"x": x, "acts": acts, "states": states, "pad": pad}


def _bptt(
    p: CellParams, cache: Cache, d_h_final: np.ndarray, who: str
) -> Tuple[ParamSet, np.ndarray]:
    """The backward scan of both cells: per-gate gradients and input gradients."""
    d_h_final = np.atleast_2d(np.asarray(d_h_final, dtype=np.float64))
    if d_h_final.shape[1] != p.hidden_dim:
        raise ShapeError(
            f"{who}: upstream dim {d_h_final.shape[1]} != hidden {p.hidden_dim}"
        )
    x, acts, states, pad = cache["x"], cache["acts"], cache["states"], cache["pad"]
    t_max, b, _ = x.shape
    dW, dU, db = np.zeros_like(p.W), np.zeros_like(p.U), np.zeros_like(p.b)
    dxs = np.empty((b, t_max, p.input_dim))
    ds = np.zeros(states.shape[1:])
    ds[0] = d_h_final
    for t in range(t_max - 1, -1, -1):
        d_new = ds if pad is None else np.where(pad[t], 0.0, ds)
        dpre, d_prev = p.step_grad(acts[t], states[t], states[t + 1], d_new, dU)
        dW += x[t].T @ dpre
        db += dpre.sum(axis=0)
        dxs[:, t, :] = dpre @ p.W.T
        ds = d_prev if pad is None else np.where(pad[t], ds, d_prev)
    return type(p).fused(dW, dU, db).to_dict(), dxs


def lstm_forward(
    p: LstmParams,
    xs: np.ndarray,
    lens: Optional[np.ndarray] = None,
    h0: Optional[np.ndarray] = None,
    c0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray], Cache]:
    """LSTM over (batch, time, dim); returns (h_seq, (h, c) final, cache)."""
    states, cache = _scan(p, xs, lens, (h0, c0), "lstm_forward")
    return states[1:, 0].transpose(1, 0, 2), (states[-1, 0], states[-1, 1]), cache


def lstm_backward(
    p: LstmParams, caches: Cache, d_h_final: np.ndarray
) -> Tuple[ParamSet, np.ndarray]:
    """BPTT gradients for all 12 LSTM tensors plus input gradients."""
    return _bptt(p, caches, d_h_final, "lstm_backward")


def gru_forward(
    p: GruParams,
    xs: np.ndarray,
    lens: Optional[np.ndarray] = None,
    h0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Cache]:
    """GRU over (batch, time, dim); returns (h_seq, h final, cache)."""
    states, cache = _scan(p, xs, lens, (h0,), "gru_forward")
    return states[1:, 0].transpose(1, 0, 2), states[-1, 0], cache


def gru_backward(
    p: GruParams, caches: Cache, d_h_final: np.ndarray
) -> Tuple[ParamSet, np.ndarray]:
    """BPTT gradients for all 9 GRU tensors plus input gradients."""
    return _bptt(p, caches, d_h_final, "gru_backward")


def embedding_forward(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row lookup: ids (batch, time) -> (batch, time, embed_dim)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"token id out of range [0, {table.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    return table[ids]


def embedding_backward(
    table_shape: Tuple[int, int], ids: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Accumulate upstream gradients into the rows the ids selected."""
    grad = np.zeros(table_shape)
    np.add.at(grad, np.asarray(ids, dtype=np.int64).ravel(),
              upstream.reshape(-1, table_shape[1]))
    return grad


def dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator, mode: str = "train"
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverted dropout; identity in infer mode. Returns (output, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if mode != "train" or rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dense_forward(
    w: np.ndarray, b: np.ndarray, x: np.ndarray, activation: str = "none"
) -> Tuple[np.ndarray, Cache]:
    """x W + b followed by sigmoid, softmax, or no activation."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: input dim {x.shape[1]} != weight rows {w.shape[0]}")
    pre = x @ w + b
    if activation == "sigmoid":
        out = sigmoid(pre)
    elif activation == "softmax":
        out = softmax(pre)
    elif activation == "none":
        out = pre
    else:
        raise ValueError(f"unknown activation {activation!r}")
    return out, {"x": x, "pre": pre, "out": out}


def dense_backward(
    w: np.ndarray, cache: Cache, d_pre: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for (w, b, x) given the gradient at the pre-activation."""
    x = cache["x"]
    dw = x.T @ d_pre
    db = d_pre.sum(axis=0)
    dx = d_pre @ w.T
    return dw, db, dx
