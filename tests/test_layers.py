import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import finite_diff_grad, gate, gru_step, lstm_step
from phishdefense.errors import ShapeError
from phishdefense.layers import (
    GruParams,
    LstmParams,
    _gate_major,
    _scan,
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


def zero_lstm(d, h):
    return LstmParams.from_dict({n: np.zeros(shape) for n, shape in LstmParams.shapes(d, h)})


class TestLstmStep:
    def test_zero_weights(self):
        p = zero_lstm(3, 4)
        h, c, cache = lstm_step(p, np.ones(3), np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(cache["f"], 0.5)
        np.testing.assert_allclose(cache["i"], 0.5)
        np.testing.assert_allclose(cache["o"], 0.5)
        np.testing.assert_allclose(cache["c_tilde"], 0.0)
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_gate_ranges_random_inputs(self, rng):
        p = LstmParams.init(5, 6, seed=1)
        for _ in range(10):
            _, _, cache = lstm_step(
                p, rng.standard_normal(5) * 3, rng.standard_normal(6), rng.standard_normal(6)
            )
            for gate in ("f", "i", "o"):
                assert np.all(cache[gate] > 0) and np.all(cache[gate] < 1)
            assert np.all(np.abs(cache["c_tilde"]) < 1)
            assert np.all(np.abs(cache["h"]) < 1)


class TestLstmForward:
    def test_chained_steps(self, rng):
        p = LstmParams.init(3, 4, seed=3)
        xs = rng.standard_normal((1, 5, 3))
        (h, c), _ = lstm_forward(p, xs)
        hh = np.zeros((1, 4))
        cc = np.zeros((1, 4))
        for t in range(5):
            hh, cc, _ = lstm_step(p, xs[:, t, :], hh, cc)
        np.testing.assert_allclose(h, hh, atol=1e-15)
        np.testing.assert_allclose(c, cc, atol=1e-15)

    def test_zero_weights_zero_final(self):
        p = zero_lstm(3, 4)
        (h, _), _ = lstm_forward(p, np.zeros((2, 6, 3)))
        np.testing.assert_array_equal(h, np.zeros((2, 4)))

    def test_empty_sequence_raises(self):
        with pytest.raises(ShapeError):
            lstm_forward(zero_lstm(3, 4), np.zeros((1, 0, 3)))

    def test_cell_carry_over_sequence(self, rng):
        p = LstmParams.init(3, 4, seed=7)
        gate(p, "b_f")[:] = 60.0
        gate(p, "b_i")[:] = -60.0
        c0 = rng.standard_normal((1, 4))
        (_, c), _ = lstm_forward(p, rng.standard_normal((1, 8, 3)), c0=c0)
        np.testing.assert_allclose(c, c0, atol=1e-6)


class TestLstmBackward:
    def test_single_step_output_gate_chain(self):
        # h = 1, freeze f/i/c paths with zero inputs so only the o-gate
        # bias is live: h = sigmoid(b_o) * tanh(c), c = i * c_tilde = 0.
        # With c fixed via c0 and f forced to 1, dh/db_o = s(1-s) tanh(c0).
        p = zero_lstm(1, 1)
        gate(p, "b_f")[:] = 60.0
        gate(p, "b_o")[:] = 0.3
        c0 = np.array([[0.7]])
        _, caches = lstm_forward(p, np.zeros((1, 1, 1)), c0=c0)
        grads, _ = lstm_backward(caches, np.ones((1, 1)))
        s = 1.0 / (1.0 + np.exp(-0.3))
        expected = s * (1 - s) * np.tanh(0.7)
        np.testing.assert_allclose(grads["b_o"], [expected], atol=1e-12)


class TestGruStep:
    def test_reset_one_update_zero(self, rng):
        p = GruParams.init(3, 4, seed=5)
        gate(p, "b_z")[:] = -50.0  # z -> 0
        gate(p, "b_r")[:] = 50.0   # r -> 1
        x = rng.standard_normal(3)
        h_prev = rng.standard_normal(4)
        h, _ = gru_step(p, x, h_prev)
        expected = np.tanh(x @ gate(p, "W_h") + h_prev @ gate(p, "U_h") + gate(p, "b_h"))
        np.testing.assert_allclose(h[0], expected, atol=1e-6)

    def test_convex_combination_bound(self, rng):
        p = GruParams.init(4, 5, seed=8)
        for _ in range(20):
            h_prev = rng.standard_normal(5)
            h, cache = gru_step(p, rng.standard_normal(4), h_prev)
            lo = np.minimum(cache["h_tilde"][0], h_prev)
            hi = np.maximum(cache["h_tilde"][0], h_prev)
            assert np.all(h[0] >= lo - 1e-12) and np.all(h[0] <= hi + 1e-12)


# rows in unsorted length order, with a zero-length row and a tie
PACKED_LENS = np.array([2, 7, 0, 5, 7])
PACKED_CELLS = {
    "lstm": (LstmParams, lstm_forward, lstm_backward),
    "gru": (GruParams, gru_forward, gru_backward),
}


def packed_run(kind, p, xs, lens, state0):
    """Final states of either cell as a tuple (h, c) or (h,), and the cache."""
    final, cache = PACKED_CELLS[kind][1](p, xs, lens, *state0)
    return (final if kind == "lstm" else (final,)), cache


@pytest.mark.parametrize("kind", ["lstm", "gru"])
class TestPackedScan:
    def setup_case(self, kind, rng, seed):
        params, _, _ = PACKED_CELLS[kind]
        p = params.init(3, 4, seed=seed)
        xs = rng.standard_normal((len(PACKED_LENS), 7, 3))
        state0 = tuple(rng.standard_normal((len(PACKED_LENS), 4)) for _ in range(params.STATES))
        return p, xs, state0

    def test_final_states_match_own_short_run(self, kind, rng):
        p, xs, state0 = self.setup_case(kind, rng, seed=13)
        final, _ = packed_run(kind, p, xs, PACKED_LENS, state0)
        for row, n in enumerate(PACKED_LENS):
            if n == 0:
                for got, s0 in zip(final, state0):
                    np.testing.assert_array_equal(got[row], s0[row])
                continue
            own = tuple(s0[row : row + 1] for s0 in state0)
            short, _ = packed_run(kind, p, xs[row : row + 1, :n, :], None, own)
            for got, want in zip(final, short):
                np.testing.assert_allclose(got[row], want[0], atol=1e-15)

    def test_length_one_equals_step(self, kind, rng):
        p, xs, state0 = self.setup_case(kind, rng, seed=2)
        own = tuple(s0[:1] for s0 in state0)
        final, _ = packed_run(kind, p, xs[:1, :1], None, own)
        *want, _ = (lstm_step if kind == "lstm" else gru_step)(p, xs[0, :1], *own)
        for got, w in zip(final, want):
            np.testing.assert_array_equal(got, w)

    def test_zero_upstream(self, kind, rng):
        p, xs, state0 = self.setup_case(kind, rng, seed=10)
        _, cache = packed_run(kind, p, xs, PACKED_LENS, state0)
        grads, dxs = PACKED_CELLS[kind][2](cache, np.zeros((len(PACKED_LENS), 4)))
        for g in [*grads.values(), dxs]:
            assert np.all(g == 0)

    def test_input_gradient_zero_at_padding_and_cache_kept(self, kind, rng):
        p, xs, state0 = self.setup_case(kind, rng, seed=14)
        _, cache = packed_run(kind, p, xs, PACKED_LENS, state0)
        before = {k: np.copy(v) for k, v in cache.items() if isinstance(v, np.ndarray)}
        _, dxs = PACKED_CELLS[kind][2](cache, rng.standard_normal((len(PACKED_LENS), 4)))
        assert dxs.shape == xs.shape
        for row, n in enumerate(PACKED_LENS):
            assert np.all(dxs[row, n:] == 0.0)
            assert np.all(dxs[row, :n] != 0.0)
        for k, v in before.items():
            np.testing.assert_array_equal(cache[k], v)

    def test_gradcheck_unsorted_lens(self, kind, rng):
        params, _, backward = PACKED_CELLS[kind]
        p, xs, state0 = self.setup_case(kind, rng, seed=15)
        weights = rng.standard_normal((len(PACKED_LENS), 4))
        (h, *_), cache = packed_run(kind, p, xs, PACKED_LENS, state0)
        grads, dxs = backward(cache, weights)

        def loss_fn(ps):
            q = params.from_dict({k: v for k, v in ps.items() if k != "x"})
            (hf, *_), _ = packed_run(kind, q, ps["x"], PACKED_LENS, state0)
            return float(np.sum(hf * weights))

        fd = finite_diff_grad(loss_fn, {**p.to_dict(), "x": xs})
        for name, ana in [*grads.items(), ("x", dxs)]:
            num = fd[name]
            err = np.abs(num - ana) / np.maximum(np.abs(num), 1e-7)
            assert np.max(err) < 1e-4, name


@pytest.mark.parametrize("params", [LstmParams, GruParams])
class TestInferScan:
    def test_step_in_place_equals_fresh_out(self, params, rng):
        # infer_scan updates its state in place: out is prev
        p = params.init(3, 5, seed=21)
        a = rng.standard_normal((len(params.GATES), 4, 5))  # gate-major, as infer_scan's buffer
        prev = rng.standard_normal((params.STATES, 4, 5))
        a_fresh, fresh = a.copy(), np.empty_like(prev)
        p.step(a_fresh, prev.copy(), fresh)
        state = prev.copy()
        p.step(a, state, state)
        np.testing.assert_array_equal(state, fresh)
        np.testing.assert_array_equal(a, a_fresh)

    def test_ids_out_of_range(self, params):
        p = params.init(3, 4, seed=2)
        embed = np.zeros((5, 3))
        for bad in (5, -1):  # a bare np.take would wrap -1 to the last row
            with pytest.raises(IndexError):
                infer_scan(p, embed, np.array([[1, bad]]), np.array([2]))


GATE_MAJOR = settings(max_examples=150, deadline=None)
CELL_KINDS = st.sampled_from([LstmParams, GruParams])
WIDTHS = st.integers(1, 6)


@GATE_MAJOR
@given(params=CELL_KINDS, embed=WIDTHS, hidden=WIDTHS, seed=st.integers(0, 10**6),
       lens=st.lists(st.integers(0, 9), min_size=1, max_size=6))
def test_infer_scan_ends_in_the_packed_scan_state(params, embed, hidden, seed, lens):
    # infer_scan steps on contiguous gate-major blocks, _scan on views of its
    # packed rows; the final h must agree bit for bit
    rng = np.random.default_rng(seed)
    p = params.init(embed, hidden, seed=seed)
    p.b[:] = rng.standard_normal(p.b.shape)
    table = rng.standard_normal((7, embed))
    lens = np.array(lens)
    ids = rng.integers(0, len(table), (len(lens), max(1, lens.max())))
    got = infer_scan(p, table, ids, lens)
    (want, *_), _ = _scan(p, table[ids], lens, (None,) * params.STATES, "test")
    if lens.sum() == 1:  # a one-row projection runs another BLAS kernel than the table's
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(got, want)


def _row_major_lstm_step(p, a, prev):
    """The LSTM step on packed (n, 4h) rows, with the recurrent term fused."""
    h = p.hidden_dim
    a += prev[0] @ p.U
    fi, o = a[:, : 2 * h], a[:, 3 * h :]
    fi *= 0.5
    o *= 0.5
    np.tanh(a, out=a)
    for s in (fi, o):
        s += 1.0
        s *= 0.5
    f, i, g = fi[:, :h], fi[:, h:], a[:, 2 * h : 3 * h]
    c = f * prev[1] + i * g
    return np.stack([np.tanh(c) * o, c])


def _row_major_gru_step(p, a, prev):
    """The GRU step on packed (n, 3h) rows, with the z/r recurrent term fused."""
    n = p.hidden_dim
    h_prev = prev[0]
    zr, g = a[:, : 2 * n], a[:, 2 * n :]
    zr += h_prev @ p.U[:, : 2 * n]
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5
    z, r = zr[:, :n], zr[:, n:]
    g += (r * h_prev) @ p.U[:, 2 * n :]
    np.tanh(g, out=g)
    zh = z * h_prev
    h = 1.0 - z
    h *= g
    h += zh
    return h[None]


ROW_MAJOR_STEPS = {LstmParams: _row_major_lstm_step, GruParams: _row_major_gru_step}


@GATE_MAJOR
@given(params=CELL_KINDS, hidden=WIDTHS, n=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_a_step_on_a_packed_view_equals_the_step_on_a_contiguous_copy(params, hidden, n, seed):
    # both equal the row-major step with its fused recurrent GEMM, bit for bit
    rng = np.random.default_rng(seed)
    p = params.init(3, hidden, seed=seed)
    g = len(params.GATES)
    packed = rng.standard_normal((n + 2, g * hidden))
    rows = packed[1:-1].copy()
    # n rows of a packed buffer with a row on either side, seen gate-major
    view = packed.reshape(n + 2, g, hidden).transpose(1, 0, 2)[:, 1:-1]
    copy = view.copy()  # ascontiguousarray would return a one-row view itself
    prev = rng.standard_normal((params.STATES, n, hidden))
    want = ROW_MAJOR_STEPS[params](p, rows, prev)
    outs = np.empty((2, *prev.shape))
    p.step(view, prev, outs[0])
    p.step(copy, prev, outs[1])
    np.testing.assert_array_equal(outs[0], want)
    np.testing.assert_array_equal(outs[1], want)
    np.testing.assert_array_equal(view, copy)
    np.testing.assert_array_equal(_gate_major(rows, hidden), copy)


class TestEmbedding:
    def test_pad_rows_zero_table(self):
        out = embedding_forward(np.zeros((5, 3)), np.array([[0, 0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 2, 3)))

    def test_identity_table_one_hot(self):
        table = np.eye(4)
        out = embedding_forward(table, np.array([[2]]))
        np.testing.assert_array_equal(out[0, 0], [0, 0, 1, 0])

    def test_backward_accumulates(self, rng):
        g1 = rng.standard_normal(3)
        g2 = rng.standard_normal(3)
        grad = embedding_backward((5, 3), np.array([[3, 3]]), np.stack([g1, g2])[None])
        np.testing.assert_allclose(grad[3], g1 + g2)
        assert np.all(grad[[0, 1, 2, 4]] == 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            embedding_forward(np.zeros((5, 3)), np.array([[7]]))


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = rng.standard_normal((4, 8))
        for draws in (np.random.default_rng(0), None):  # train, infer
            out, mask = dropout(x, 0.0, draws)
            np.testing.assert_array_equal(out, x)
            assert mask is None

    def test_infer_identity(self, rng):
        x = rng.standard_normal((4, 8))
        out, mask = dropout(x, 0.5, None)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_train_mask_is_the_seeded_draw(self, rng):
        x = rng.standard_normal((4, 8))
        out, mask = dropout(x, 0.2, np.random.default_rng(3))
        want = (np.random.default_rng(3).random(x.shape) >= 0.2) / (1 - 0.2)
        np.testing.assert_array_equal(mask, want)
        np.testing.assert_array_equal(out, x * want)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 1.0, np.random.default_rng(0))


class TestDense:
    def test_zero_weights_sigmoid(self):
        out, _ = dense_forward(np.zeros((3, 2)), np.zeros(2), np.ones((1, 3)), "sigmoid")
        np.testing.assert_allclose(out, 0.5)

    def test_identity_no_activation(self, rng):
        x = rng.standard_normal((2, 4))
        out, _ = dense_forward(np.eye(4), np.zeros(4), x, "none")
        np.testing.assert_allclose(out, x)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            dense_forward(np.zeros((3, 2)), np.zeros(2), np.ones((1, 4)))
