import math
import os
import struct
import threading
import zlib
from contextlib import contextmanager

# OpenBLAS picks its kernels per CPU once, when numpy loads it, and the last
# bits of a product follow the kernel's summation order: the bit pins of
# test_pinned_arithmetic.py were recorded under the Haswell kernels, which
# need AVX2, as every GitHub-hosted x86-64 runner has. Must come before numpy
# is imported.
os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")

import numpy as np
import pytest
from hypothesis import settings

# a red CI run prints the failing example's blob and reruns the same examples
settings.register_profile("ci", derandomize=True, print_blob=True)


def finite_diff_grad(loss_fn, params, h: float = 1e-5):
    """Central-difference gradient of loss_fn over every coordinate.

    Test oracle: O(2 * n_params) loss evaluations.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    grads = {}
    work = {k: v.copy() for k, v in params.items()}
    for name, p in work.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn(work)
            flat[i] = orig - h
            lo = loss_fn(work)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return grads


def id_for(vocab, ch: str) -> int:
    """The token id of one character; UNK for anything outside the vocabulary."""
    from phishdefense.codec import UNK_ID

    return vocab.mapping.get(ch, UNK_ID)


def labels(ds) -> np.ndarray:
    """The dataset's labels, in record order."""
    return np.array([lab for _, lab in ds.records], dtype=np.int64)


def char_for(vocab, token_id: int) -> str:
    """Inverse lookup for printable ids; PAD/UNK have no character."""
    if 2 <= token_id <= vocab.size - 1:
        return chr(token_id - 2 + 32)  # printable ASCII starts at 32
    raise KeyError(f"token id {token_id} has no character")


def decode_ids(enc, vocab) -> str:
    """Inverse of encode_url for printable-ASCII input (UNK is not invertible)."""
    return "".join(char_for(vocab, int(t)) for t in enc.ids[: enc.true_len])


def param_count(m) -> int:
    """Number of scalar parameters of a model graph."""
    return sum(v.size for v in m.params.values())


def gate(p, name: str) -> np.ndarray:
    """A writable view of one per-gate tensor of a cell, e.g. gate(p, "b_f")."""
    return p.to_dict()[name]


def _step_inputs(p, x_t, state):
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    state = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in state]
    # the step takes its pre-activations gate-major, as the scan hands them
    rows = x_t @ p.W + p.b
    gates = rows.reshape(len(rows), -1, p.hidden_dim).transpose(1, 0, 2)
    return gates, np.stack(np.broadcast_arrays(*state))


def lstm_step(p, x_t, h_prev, c_prev):
    """One LSTM step through the cell the scan runs; returns (h, c, gates)."""
    a, prev = _step_inputs(p, x_t, (h_prev, c_prev))
    out = np.empty((2, a.shape[1], p.hidden_dim))
    p.step(a, prev, out)
    f, i, c_tilde, o = a
    return out[0], out[1], {"f": f, "i": i, "c_tilde": c_tilde, "o": o, "c": out[1], "h": out[0]}


def gru_step(p, x_t, h_prev):
    """One GRU step through the cell the scan runs; returns (h, gates)."""
    a, prev = _step_inputs(p, x_t, (h_prev,))
    out = np.empty((1, a.shape[1], p.hidden_dim))
    p.step(a, prev, out)
    z, r, h_tilde = a
    return out[0], {"z": z, "r": r, "h_tilde": h_tilde, "h": out[0]}


def scalar_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def oracle_lstm_step(p, x, h_prev, c_prev):
    """Independent scalar-by-scalar LSTM step (no numpy vectorization)."""
    d = len(x)
    h = len(h_prev)

    def affine(g, k):
        W, U, b = (gate(p, f"{kind}_{g}") for kind in "WUb")
        s = b[k]
        for a in range(d):
            s += x[a] * W[a, k]
        for a in range(h):
            s += h_prev[a] * U[a, k]
        return s

    f = [scalar_sigmoid(affine("f", k)) for k in range(h)]
    i = [scalar_sigmoid(affine("i", k)) for k in range(h)]
    ct = [math.tanh(affine("c", k)) for k in range(h)]
    c = [f[k] * c_prev[k] + i[k] * ct[k] for k in range(h)]
    o = [scalar_sigmoid(affine("o", k)) for k in range(h)]
    hv = [o[k] * math.tanh(c[k]) for k in range(h)]
    return np.array(hv), np.array(c)


def oracle_gru_step(p, x, h_prev):
    """Independent scalar-by-scalar GRU step."""
    d = len(x)
    h = len(h_prev)

    def affine(g, k, hvec):
        W, U, b = (gate(p, f"{kind}_{g}") for kind in "WUb")
        s = b[k]
        for a in range(d):
            s += x[a] * W[a, k]
        for a in range(h):
            s += hvec[a] * U[a, k]
        return s

    z = [scalar_sigmoid(affine("z", k, h_prev)) for k in range(h)]
    r = [scalar_sigmoid(affine("r", k, h_prev)) for k in range(h)]
    rh = [r[k] * h_prev[k] for k in range(h)]
    ht = [math.tanh(affine("h", k, rh)) for k in range(h)]
    out = [(1.0 - z[k]) * ht[k] + z[k] * h_prev[k] for k in range(h)]
    return np.array(out)


def patch_header(blob: bytes, field: int, value) -> bytes:
    """A PDM1 file's bytes with one fixed header field (an index into
    cell_kind, vocab_size, embed_dim, hidden_dim, max_len, dropout,
    threshold, n_dense) set to value, and its CRC recomputed."""
    from phishdefense.store import _FIXED_HEADER

    body = bytearray(blob[12:-4])
    fields = list(_FIXED_HEADER.unpack_from(body))
    fields[field] = value
    _FIXED_HEADER.pack_into(body, 0, *fields)
    return blob[:12] + bytes(body) + struct.pack("<I", zlib.crc32(body))


def patch_payload(blob: bytes, index: int, value: float) -> bytes:
    """A PDM1 file's bytes with float32 number index of its payload set to
    value, and its CRC recomputed."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    body = bytearray(blob[12:-4])
    struct.pack_into("<f", body, header_len + 4 * index, value)
    return blob[:12] + bytes(body) + struct.pack("<I", zlib.crc32(body))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def confusion_fixture():
    """A real LSTM model plus 10 single-char URLs hitting TP=3 FP=1 TN=5 FN=1.

    embed=1, hidden=1; gates are saturated so h = tanh(tanh(x)) where x is
    the embedding value of the single character, and the sigmoid head pushes
    the score far from 0.5. Characters a,b,c,e score high; the rest score low.
    Labels: a,b,c,d phishing; e..j legitimate -> d is the miss, e the false alarm.
    """
    from phishdefense.codec import default_vocab
    from phishdefense.data import LabeledDataset
    from phishdefense.model import ModelConfig, ModelGraph

    vocab = default_vocab()
    cfg = ModelConfig(
        cell_kind="lstm",
        vocab_size=vocab.size,
        embed_dim=1,
        hidden_dim=1,
        dense_dims=(1,),
        dropout_rate=0.0,
        max_len=4,
        seed=0,
    )
    params = {
        "embed": np.zeros((vocab.size, 1)),
        "dense0.w": np.array([[10.0]]),
        "dense0.b": np.zeros(1),
    }
    for g in "fico":
        params[f"cell.W_{g}"] = np.zeros((1, 1))
        params[f"cell.U_{g}"] = np.zeros((1, 1))
        params[f"cell.b_{g}"] = np.zeros(1)
    params["cell.b_i"][:] = 50.0   # input gate open
    params["cell.b_o"][:] = 50.0   # output gate open
    params["cell.W_c"][:] = 1.0    # candidate = tanh(x)
    for ch in "abce":
        params["embed"][id_for(vocab, ch), 0] = 10.0
    for ch in "dfghij":
        params["embed"][id_for(vocab, ch), 0] = -10.0
    model = ModelGraph(config=cfg, params=params)
    ds = LabeledDataset(
        records=[(ch, 1) for ch in "abcd"] + [(ch, 0) for ch in "efghij"]
    )
    return model, ds


@pytest.fixture(scope="module")
def fixture_model_path(tmp_path_factory):
    """The PDM1 file of confusion_fixture's model."""
    from phishdefense.store import save_model

    path = tmp_path_factory.mktemp("models") / "fixture.pdm"
    save_model(confusion_fixture()[0], str(path))
    return str(path)


@contextmanager
def serving(handler, before=None):
    """The base URL of serve's loop answering with handler, in a thread of
    this process on a free local port. before(server_address), if given,
    runs once the socket listens and before the loop accepts. The loop
    polls every 10 ms, so leaving stops it at once, not at serve's
    half-second poll."""
    from phishdefense import serve

    server = serve._Server(("127.0.0.1", 0), handler)
    try:
        if before is not None:
            before(server.server_address)
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
        try:
            yield "http://%s:%d" % server.server_address
        finally:
            server.shutdown()
    finally:
        server.server_close()


def address(base):
    """The (host, port) of a base URL http://host:port."""
    host, _, port = base[len("http://"):].partition(":")
    return host, int(port)


def read_until_close(sock) -> bytes:
    """Every byte a server sends on sock until it closes the connection; a
    reset (a close with request bytes unread) ends the reply too."""
    reply = b""
    try:
        while chunk := sock.recv(65536):
            reply += chunk
    except ConnectionResetError:
        pass
    return reply
