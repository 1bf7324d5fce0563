"""Embedding, LSTM/GRU cells with hand-derived BPTT, dropout, dense layers.

Both recurrent cells run through one forward scan (`_scan`) and one
backward scan (`_bptt`); a cell contributes only its gate equations
(`step`) and their derivatives (`step_grad`).

Gate layout: a cell keeps W (d, G*h), U (h, G*h) and b (G*h,), one h-wide
block per gate, side by side in the PDM1 order -- "fico" for the LSTM
(forget, input, candidate, output) and "zrh" for the GRU (update, reset,
candidate). A step takes its pre-activations gate-major, as a (G, n, h)
array whose a[k] is gate k for the step's n rows, whether that array is a
view of packed (n, G*h) rows or a contiguous block. The step adds the
recurrent term as one GEMM over the fused U, (n, h) @ (h, G*h), and one
elementwise add of its gate-major view, so the arithmetic is that of a
row-major step whatever the layout of a.

Packed variable lengths: the scan runs each row only over its own length.
Rows are stably sorted longest first, so step t works on a prefix of n_t
rows, the rows whose length is greater than t (n_0 >= n_1 >= ...; these
are the per-step row counts, "sizes"). Inputs and gate activations live in
packed buffers of sum(lens) rows, where step t owns the contiguous block
of n_t rows at offset n_0 + ... + n_{t-1}. Finished rows are not touched;
a row's final state is read at its own last step and returned in the
caller's row order. Without lengths every row runs every step.

Input projection: `_scan` computes x W + b for all packed rows in one GEMM
before the time loop and hands step t the gate-major view of its slab;
each step then adds the recurrent term, one GEMM (two for the GRU, whose
reset gate multiplies h_prev before U_h), and applies the gate
activations in place, so the projection buffer ends up holding the
activations. The backward scan walks the same prefixes, writes the
gradient at the pre-activations into one packed buffer, again through
gate-major views, and takes dW, db and the input gradients from it after
the loop, one GEMM or sum each; only dU accumulates per step.

A scan cache holds only what the backward scan reads: "cell", the
CellParams the scan ran, so the gradient is taken at the weights that
made the activations; "x", the packed inputs (sum(lens), d); "acts", the
packed gate activations (sum(lens), G*h); "states", (S, batch + sum(lens),
h) with the initial states of all rows in sorted order first and then one
block per step holding that step's output (S = 2 for the LSTM's h and c,
1 for the GRU's h); "sizes", the per-step row counts as Python ints;
"rows", the caller row at each sorted position; "index", the flat (batch,
time) position of each packed row; and "width", the time length of the
input. The backward scan does not modify it.

Forward-only scoring: `infer_scan` runs the same cell steps over the same
sorted prefixes but keeps no cache. It folds the embedding into the input
projection, T = embed W + b, once per call and lays it out gate-major as
(G, vocab, h); step t looks its rows' projections up in T into one reused
contiguous (G, n_t, h) buffer, so every gate op of the step runs on a
contiguous block (only the add of the recurrent product reads strided
rows), and the cell updates one (S, batch, h) state in place (a step's
out may be its prev). Memory is O(vocab + batch) rows instead of
O(sum(lens)).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeError
from .tensor import ParamSet, orthogonal_init, sigmoid, xavier_init

Cache = Dict[str, Any]


class CellParams:
    """Input weights W (d x G*h), recurrent weights U (h x G*h), biases b (G*h,)."""

    GATES = ""  # one letter per gate block, in PDM1 order
    STATES = 1  # state vectors carried per row

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray) -> None:
        """Wrap the gate-stacked arrays without copying them."""
        self.W, self.U, self.b = W, U, b

    @property
    def input_dim(self) -> int:
        return self.W.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[0]

    @classmethod
    def shapes(cls, input_dim: int, hidden_dim: int) -> List[Tuple[str, Tuple[int, ...]]]:
        """(name, shape) of every per-gate tensor W_<g>, U_<g>, b_<g>, in PDM1 order."""
        dims = {"W": (input_dim, hidden_dim), "U": (hidden_dim, hidden_dim), "b": (hidden_dim,)}
        return [(f"{kind}_{g}", dims[kind]) for kind in "WUb" for g in cls.GATES]

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, seed: int) -> "CellParams":
        """Xavier input weights, orthogonal recurrent weights, zero biases."""
        g = len(cls.GATES)
        W = [xavier_init(input_dim, hidden_dim, seed * 2 * g + k) for k in range(g)]
        U = [orthogonal_init(hidden_dim, hidden_dim, seed * 2 * g + g + k) for k in range(g)]
        return cls(np.concatenate(W, axis=1), np.concatenate(U, axis=1), np.zeros(g * hidden_dim))

    @classmethod
    def from_dict(cls, params: ParamSet, prefix: str = "") -> "CellParams":
        """Join the per-gate tensors <prefix>W_<g>, U_<g>, b_<g> into new arrays."""
        return cls(*(
            np.concatenate([np.asarray(params[f"{prefix}{kind}_{g}"], dtype=np.float64)
                            for g in cls.GATES], axis=-1)
            for kind in "WUb"
        ))

    def to_dict(self, prefix: str = "") -> ParamSet:
        """Split into the per-gate tensors, each a writable view of its block, in shapes() order."""
        h = self.hidden_dim
        return {f"{prefix}{kind}_{g}": getattr(self, kind)[..., k * h : (k + 1) * h]
                for kind in "WUb" for k, g in enumerate(self.GATES)}


def _rows(a: np.ndarray) -> np.ndarray:
    """The (n, k*h) row-major form of a gate-major (k, n, h) array: a view
    when a is a view of packed rows, as in the backward scan."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _gate_major(rows: np.ndarray, h: int) -> np.ndarray:
    """The (G, n, h) gate-major view of packed (n, G*h) rows."""
    return rows.reshape(len(rows), rows.shape[1] // h, h).transpose(1, 0, 2)


class LstmParams(CellParams):
    """Forget, input, candidate and output gates; the state is (h, c)."""

    GATES = "fico"
    STATES = 2

    def step(self, a: np.ndarray, prev: np.ndarray, out: np.ndarray) -> None:
        """One step. a is x W + b gate-major (4, batch, h) and is overwritten
        with the gate activations; prev and out are (2, batch, h) holding (h, c).

        The cell update is the standard additive form c = f*c_prev + i*c_tilde
        (no outer squashing), so cell memory is unbounded and the carry
        property f=1, i=0 => c_t = c_prev holds exactly.
        """
        a += _gate_major(prev[0] @ self.U, self.hidden_dim)
        fi, o = a[:2], a[3]
        # sigmoid(x) = 0.5 * (1 + tanh(x / 2)) on f, i and o, tanh on g: one tanh pass
        fi *= 0.5
        o *= 0.5
        np.tanh(a, out=a)
        for s in (fi, o):
            s += 1.0
            s *= 0.5
        f, i, g = a[0], a[1], a[2]
        # out may be prev: h_prev is spent, and c is updated elementwise
        h, c = out[0], out[1]
        np.multiply(i, g, out=h)
        np.multiply(f, prev[1], out=c)
        c += h
        np.tanh(c, out=h)
        h *= o

    def step_grad(
        self,
        a: np.ndarray,
        prev: np.ndarray,
        new: np.ndarray,
        d: np.ndarray,
        dpre: np.ndarray,
        dU: np.ndarray,
    ) -> None:
        """Backward of step given d = (dh, dc) at new: writes the gradient at
        the pre-activations, gate-major (4, batch, h) like a, into dpre,
        overwrites d with (dh, dc) at prev and adds into dU."""
        f, i, g, o = a
        df, di, dg, do = dpre
        tanh_c = np.tanh(new[1])
        dc = d[1] + d[0] * o * (1.0 - tanh_c**2)
        df[:] = dc * prev[1] * f * (1.0 - f)
        di[:] = dc * g * i * (1.0 - i)
        dg[:] = dc * i * (1.0 - g**2)
        do[:] = d[0] * tanh_c * o * (1.0 - o)
        dpre_rows = _rows(dpre)
        dU += prev[0].T @ dpre_rows
        d[0] = dpre_rows @ self.U.T
        d[1] = dc * f


class GruParams(CellParams):
    """Update (z), reset (r) and candidate (h) gates; the state is h.

    Reset is applied to the previous state before the recurrent transform:
    h_tilde = tanh(x W_h + (r * h_prev) U_h + b_h).
    """

    GATES = "zrh"
    STATES = 1

    def step(self, a: np.ndarray, prev: np.ndarray, out: np.ndarray) -> None:
        """One step. a is x W + b gate-major (3, batch, h) and is overwritten
        with the gate activations; prev and out are (1, batch, h) holding h."""
        n = self.hidden_dim
        h_prev = prev[0]
        zr, g = a[:2], a[2]
        zr += _gate_major(h_prev @ self.U[:, : 2 * n], n)
        zr *= 0.5  # sigmoid(x) = 0.5 * (1 + tanh(x / 2))
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        z, r = zr[0], zr[1]
        rh = r * h_prev
        g += rh @ self.U[:, 2 * n :]
        np.tanh(g, out=g)
        # out may be prev: z * h_prev is taken before out is written
        zh = np.multiply(z, h_prev, out=rh)
        h = out[0]
        np.subtract(1.0, z, out=h)
        h *= g
        h += zh

    def step_grad(
        self,
        a: np.ndarray,
        prev: np.ndarray,
        new: np.ndarray,
        d: np.ndarray,
        dpre: np.ndarray,
        dU: np.ndarray,
    ) -> None:
        """Backward of step given d = (dh,) at new: writes the gradient at the
        pre-activations, gate-major (3, batch, h) like a, into dpre,
        overwrites d with (dh,) at prev and adds into dU."""
        n = self.hidden_dim
        z, r, g = a
        dz, dr, dg = dpre
        h_prev, dh = prev[0], d[0]
        dg[:] = dh * (1.0 - z) * (1.0 - g**2)
        d_rh = dg @ self.U[:, 2 * n :].T
        dz[:] = dh * (h_prev - g) * z * (1.0 - z)
        dr[:] = d_rh * h_prev * r * (1.0 - r)
        dzr = _rows(dpre[:2])
        dU[:, : 2 * n] += h_prev.T @ dzr
        dU[:, 2 * n :] += (r * h_prev).T @ dg
        d[0] = dh * z + d_rh * r + dzr @ self.U[:, : 2 * n].T


CELLS = {"lstm": LstmParams, "gru": GruParams}


def _length_order(
    lens: Optional[np.ndarray], b: int, width: int, who: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows stably sorted longest first: (order, sorted lengths, live
    (steps, batch), true where a row runs the step). Lengths are clipped to
    width; no lens means every row runs all width steps."""
    lens = np.full(b, width) if lens is None else np.asarray(lens, dtype=np.int64)
    if lens.shape != (b,):
        raise ShapeError(f"{who}: lens shape {lens.shape} != batch ({b},)")
    lens = np.clip(lens, 0, width)
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    return order, lens, np.arange(lens[0])[:, None] < lens[None, :]


def _scan(
    p: CellParams,
    xs: np.ndarray,
    lens: Optional[np.ndarray],
    state0: Sequence[Optional[np.ndarray]],
    who: str,
) -> Tuple[np.ndarray, Cache]:
    """The packed forward scan of both cells; returns (final states (S, batch, h), cache)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[1] == 0:
        raise ShapeError(f"{who}: need (batch, time>=1, dim), got {xs.shape}")
    b, width, d = xs.shape
    if d != p.input_dim:
        raise ShapeError(f"{who}: input dim {d} != expected {p.input_dim}")
    h = p.hidden_dim
    order, lens, live = _length_order(lens, b, width, who)
    sizes = live.sum(axis=1).tolist()
    steps, rank = np.nonzero(live)
    index = order[rank] * width + steps
    x = xs.reshape(b * width, d)[index]
    acts = x @ p.W
    acts += p.b
    states = np.empty((p.STATES, b + len(x), h))
    for k, s0 in enumerate(state0):
        states[k, :b] = 0.0 if s0 is None else np.broadcast_to(s0, (b, h))[order]
    # state block t starts at bounds[t]: block 0 holds the b initial states,
    # block t + 1 the n_t outputs of step t, whose packed rows start at bounds[t + 1] - b
    bounds = [0, *accumulate(sizes, initial=b)]
    gates = _gate_major(acts, h)
    for t, n in enumerate(sizes):
        prev, out = bounds[t], bounds[t + 1]
        p.step(gates[:, out - b : out - b + n], states[:, prev : prev + n], states[:, out : out + n])
    # each row's state after its own last step, back in caller order
    final = np.empty((p.STATES, b, h))
    final[:, order] = states[:, np.array(bounds[:-1])[lens] + np.arange(b)]
    cache = {"cell": p, "x": x, "acts": acts, "states": states, "sizes": sizes,
             "rows": order, "index": index, "width": width}
    return final, cache


def _bptt(cache: Cache, d_h_final: np.ndarray, who: str) -> Tuple[ParamSet, np.ndarray]:
    """The backward scan of both cells, at the weights of the cell that
    filled cache: per-gate gradients and input gradients."""
    p = cache["cell"]
    d_h_final = np.atleast_2d(np.asarray(d_h_final, dtype=np.float64))
    if d_h_final.shape[1] != p.hidden_dim:
        raise ShapeError(
            f"{who}: upstream dim {d_h_final.shape[1]} != hidden {p.hidden_dim}"
        )
    x, acts, states, sizes = cache["x"], cache["acts"], cache["states"], cache["sizes"]
    rows, index, width = cache["rows"], cache["index"], cache["width"]
    b = states.shape[1] - len(x)
    # a row keeps its upstream gradient until the loop reaches its last step
    ds = np.zeros((p.STATES, b, p.hidden_dim))
    ds[0] = np.broadcast_to(d_h_final, (b, p.hidden_dim))[rows]
    dpre = np.empty_like(acts)
    dU = np.zeros_like(p.U)
    bounds = [0, *accumulate(sizes, initial=b)]
    gates, dgates = _gate_major(acts, p.hidden_dim), _gate_major(dpre, p.hidden_dim)
    for t in range(len(sizes) - 1, -1, -1):
        n, prev, out = sizes[t], bounds[t], bounds[t + 1]
        p.step_grad(
            gates[:, out - b : out - b + n],
            states[:, prev : prev + n],
            states[:, out : out + n],
            ds[:, :n],
            dgates[:, out - b : out - b + n],
            dU,
        )
    dxs = np.zeros((b * width, p.input_dim))
    dxs[index] = dpre @ p.W.T
    return type(p)(x.T @ dpre, dU, dpre.sum(axis=0)).to_dict(), dxs.reshape(b, width, -1)


def lstm_forward(
    p: LstmParams,
    xs: np.ndarray,
    lens: Optional[np.ndarray] = None,
    h0: Optional[np.ndarray] = None,
    c0: Optional[np.ndarray] = None,
) -> Tuple[Tuple[np.ndarray, np.ndarray], Cache]:
    """LSTM over (batch, time, dim) with rows of lengths lens; returns ((h, c) final, cache)."""
    final, cache = _scan(p, xs, lens, (h0, c0), "lstm_forward")
    return (final[0], final[1]), cache


def lstm_backward(cache: Cache, d_h_final: np.ndarray) -> Tuple[ParamSet, np.ndarray]:
    """BPTT gradients for all 12 LSTM tensors plus input gradients."""
    return _bptt(cache, d_h_final, "lstm_backward")


def gru_forward(
    p: GruParams,
    xs: np.ndarray,
    lens: Optional[np.ndarray] = None,
    h0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Cache]:
    """GRU over (batch, time, dim) with rows of lengths lens; returns (h final, cache)."""
    final, cache = _scan(p, xs, lens, (h0,), "gru_forward")
    return final[0], cache


def gru_backward(cache: Cache, d_h_final: np.ndarray) -> Tuple[ParamSet, np.ndarray]:
    """BPTT gradients for all 9 GRU tensors plus input gradients."""
    return _bptt(cache, d_h_final, "gru_backward")


def infer_scan(
    p: CellParams, embed: np.ndarray, ids: np.ndarray, lens: Optional[np.ndarray] = None
) -> np.ndarray:
    """Forward-only scan of token ids (batch, time) with rows of lengths
    lens, through the embedding table and the cell; returns the final h
    (batch, h) in the caller's row order.

    Keeps nothing for a backward pass: the input projection of every token
    is a row of the folded table embed W + b, laid out gate-major (G,
    vocab, h); step t looks its n_t rows up into one reused contiguous (G,
    n_t, h) buffer, and the step updates one (S, batch, h) state in place
    on its live prefix of rows (rows sorted longest first, as in the packed
    scan).
    """
    ids = _checked_ids(embed, ids)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ShapeError(f"infer_scan: need (batch, time>=1) ids, got {ids.shape}")
    if embed.shape[1] != p.input_dim:
        raise ShapeError(f"infer_scan: embed dim {embed.shape[1]} != expected {p.input_dim}")
    b, width = ids.shape
    h = p.hidden_dim
    order, _, live = _length_order(lens, b, width, "infer_scan")
    sizes = live.sum(axis=1).tolist()
    by_step = np.ascontiguousarray(ids[order].T)  # step t reads row t
    table = embed @ p.W
    table += p.b
    table = np.ascontiguousarray(_gate_major(table, h))
    n_gates = len(table)
    buf = np.empty(n_gates * b * h)
    state = np.zeros((p.STATES, b, h))
    for t, n in enumerate(sizes):
        a = buf[: n_gates * n * h].reshape(n_gates, n, h)
        # mode="clip" skips take's buffered range check; _checked_ids did it
        np.take(table, by_step[t, :n], axis=1, out=a, mode="clip")
        p.step(a, state[:, :n], state[:, :n])
    out = np.empty((b, h))
    out[order] = state[0]
    return out


def _checked_ids(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """ids as int64, or IndexError if any is not a row of table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"token id out of range [0, {table.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    return ids


def embedding_forward(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row lookup: ids (batch, time) -> (batch, time, embed_dim)."""
    return table[_checked_ids(table, ids)]


def embedding_backward(
    table_shape: Tuple[int, int], ids: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Accumulate upstream gradients into the rows the ids selected."""
    grad = np.zeros(table_shape)
    np.add.at(grad, np.asarray(ids, dtype=np.int64).ravel(),
              upstream.reshape(-1, table_shape[1]))
    return grad


def dropout(
    x: np.ndarray, rate: float, rng: Optional[np.random.Generator]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverted dropout drawn from rng; identity when rng is None (infer). Returns (output, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if rng is None or rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dense_forward(
    w: np.ndarray, b: np.ndarray, x: np.ndarray, activation: str = "none"
) -> Tuple[np.ndarray, Cache]:
    """x W + b followed by a sigmoid or no activation; the cache keeps x, w and the output."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: input dim {x.shape[1]} != weight rows {w.shape[0]}")
    pre = x @ w + b
    if activation == "sigmoid":
        out = sigmoid(pre)
    elif activation == "none":
        out = pre
    else:
        raise ValueError(f"unknown activation {activation!r}")
    return out, {"x": x, "w": w, "out": out}


def dense_backward(cache: Cache, d_pre: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for (w, b, x) given the gradient at the pre-activation."""
    return cache["x"].T @ d_pre, d_pre.sum(axis=0), d_pre @ cache["w"].T
