import numpy as np
import pytest

from conftest import param_count
from phishdefense.codec import default_vocab
from phishdefense.data import LabeledDataset
from phishdefense.errors import ConfigError
from phishdefense.model import (
    ModelConfig,
    backward_batch,
    bce_loss,
    build_model,
    default_config,
    forward_batch,
    predict,
)
from phishdefense.store import load_model, save_model
from phishdefense.tensor import AdamState, adam_step
from phishdefense.train import evaluate

VOCAB = default_vocab()


def tiny_config(cell="gru", **kw):
    base = dict(
        cell_kind=cell,
        vocab_size=10,
        embed_dim=4,
        hidden_dim=5,
        dense_dims=(4, 2) if cell == "gru" else (1,),
        dropout_rate=0.2 if cell == "gru" else 0.5,
        max_len=6,
        seed=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def zeroed(model):
    for v in model.params.values():
        v[:] = 0.0
    return model


class TestBuildModel:
    def test_lstm_default_param_count(self):
        m = build_model(default_config("lstm"))
        # 97*32 + 4*(32*128 + 128*128 + 128) + (128*1 + 1)
        assert param_count(m) == 97 * 32 + 4 * (32 * 128 + 128 * 128 + 128) + 129

    def test_deterministic_construction(self):
        a = build_model(default_config("gru", seed=5))
        b = build_model(default_config("gru", seed=5))
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_head_width_mismatch(self):
        with pytest.raises(ConfigError):
            build_model(tiny_config("lstm", dense_dims=(3,)))
        with pytest.raises(ConfigError):
            build_model(tiny_config("gru", dense_dims=(4, 3)))

    def test_recurrent_weights_orthogonal(self):
        m = build_model(tiny_config("lstm", hidden_dim=6))
        for name in ("U_f", "U_i", "U_c", "U_o"):
            u = m.params[f"cell.{name}"]
            assert np.max(np.abs(u.T @ u - np.eye(6))) < 1e-6


class TestForwardBatch:
    def test_zero_weights_sigmoid_head(self):
        m = zeroed(build_model(tiny_config("lstm")))
        ids = np.array([[3, 4, 0, 0, 0, 0], [5, 0, 0, 0, 0, 0]])
        probs, _ = forward_batch(m, ids, np.array([2, 1]), mode="infer")
        np.testing.assert_allclose(probs, 0.5)

    def test_zero_weights_softmax_head(self):
        m = zeroed(build_model(tiny_config("gru")))
        probs, _ = forward_batch(m, np.array([[3, 4, 5, 0, 0, 0]]), np.array([3]), mode="infer")
        np.testing.assert_allclose(probs, 0.5)

    def test_infer_ignores_seed(self, rng):
        m = build_model(tiny_config("gru"))
        ids = rng.integers(0, 10, size=(3, 6))
        lens = np.array([6, 4, 2])
        p1, _ = forward_batch(m, ids, lens, mode="infer", seed=1)
        p2, _ = forward_batch(m, ids, lens, mode="infer", seed=99)
        np.testing.assert_array_equal(p1, p2)

    def test_probabilities_in_open_interval(self, rng):
        for cell in ("lstm", "gru"):
            m = build_model(tiny_config(cell))
            ids = rng.integers(0, 10, size=(5, 6))
            probs, _ = forward_batch(m, ids, np.full(5, 6), mode="infer")
            assert np.all(probs > 0) and np.all(probs < 1)


class TestHead:
    @pytest.mark.parametrize(
        "dims, kind",
        [((1,), "sigmoid_scalar"), ((2,), "softmax_pair"),
         ((4, 1), "sigmoid_scalar"), ((4, 2), "softmax_pair")],
    )
    def test_output_kind_follows_final_width(self, dims, kind):
        for cell in ("lstm", "gru"):
            assert tiny_config(cell, dense_dims=dims).output_kind == kind

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_dropout_masks_last_dense_input(self, cell, rng):
        cfg = default_config(cell, vocab_size=10, embed_dim=3, hidden_dim=5, max_len=6)
        m = build_model(cfg)
        ids = rng.integers(0, 10, size=(4, 6))
        _, caches = forward_batch(m, ids, np.full(4, 6), mode="train", seed=2)
        last = len(cfg.dense_dims) - 1
        assert caches["drop_mask"].shape == (4, m.params[f"dense{last}.w"].shape[0])

    def test_softmax_pair_probability(self, rng):
        m = build_model(tiny_config("gru"))
        ids = rng.integers(0, 10, size=(5, 6))
        probs, caches = forward_batch(m, ids, np.array([6, 5, 3, 1, 6]))
        z = caches["dense"][-1]["out"]
        np.testing.assert_allclose(probs, np.exp(z[:, 1]) / np.exp(z).sum(axis=1), rtol=0, atol=1e-15)

    def test_softmax_pair_on_a_single_dense_layer(self, tmp_path, rng):
        m = build_model(tiny_config("lstm", dense_dims=(2,)))
        path = str(tmp_path / "m.pdm")
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.config.dense_dims == (2,)
        assert loaded.config.output_kind == "softmax_pair"
        ids = rng.integers(0, 10, size=(3, 6))
        lens = np.array([6, 2, 4])
        p_loaded, caches = forward_batch(loaded, ids, lens)
        z = caches["dense"][-1]["out"]
        np.testing.assert_allclose(p_loaded, np.exp(z[:, 1]) / np.exp(z).sum(axis=1), rtol=0, atol=1e-15)
        p_source, _ = forward_batch(m, ids, lens)
        np.testing.assert_allclose(p_loaded, p_source, rtol=0, atol=1e-5)


class TestBceLoss:
    def test_perfect_prediction(self):
        loss, _ = bce_loss(np.array([1.0]), np.array([1.0 - 1e-12]))
        assert loss < 1e-11

    def test_gradient_is_zero_where_the_clamp_is_active(self):
        # at or beyond either end of [1e-12, 1 - 1e-12] the clamped loss is flat in p
        p = np.array([0.0, 1e-13, 1.0 - 1e-13, 1.0])
        for y in (0.0, 1.0):
            _, grad = bce_loss(np.full(len(p), y), p)
            np.testing.assert_array_equal(grad, 0.0)

    def test_nonnegative_and_label_flip_symmetry(self, rng):
        for _ in range(20):
            y = rng.integers(0, 2, 8).astype(float)
            p = rng.uniform(0.01, 0.99, 8)
            l1, _ = bce_loss(y, p)
            l2, _ = bce_loss(1.0 - y, 1.0 - p)
            assert l1 >= 0
            assert l1 == pytest.approx(l2, abs=1e-12)


class TestBackwardBatch:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_gradients_are_taken_at_the_forward_weights(self, cell, rng):
        # replacing the parameters between the passes must not reach the gradient
        m = build_model(tiny_config(cell))
        ids = rng.integers(0, 10, size=(3, 6))
        lens = np.array([6, 4, 2])
        labels = np.array([1, 0, 1])
        _, caches = forward_batch(m, ids, lens, mode="train", seed=5)
        want, want_loss = backward_batch(m, caches, labels)
        _, caches = forward_batch(m, ids, lens, mode="train", seed=5)
        m.params = adam_step(m.params, want, AdamState(alpha=0.1))
        got, got_loss = backward_batch(m, caches, labels)
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for k in want:
            np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    def test_duplicated_batch_same_gradients(self, rng):
        m = build_model(tiny_config("gru"))
        ids = rng.integers(0, 10, size=(2, 6))
        lens = np.array([6, 3])
        labels = np.array([1, 0])
        _, c1 = forward_batch(m, ids, lens, mode="infer")
        g1, _ = backward_batch(m, c1, labels)
        _, c2 = forward_batch(m, np.tile(ids, (2, 1)), np.tile(lens, 2), mode="infer")
        g2, _ = backward_batch(m, c2, np.tile(labels, 2))
        for k in g1:
            np.testing.assert_allclose(g1[k], g2[k], atol=1e-12)


class TestPredict:
    def test_zero_weight_tie_break(self):
        m = zeroed(build_model(tiny_config("lstm", vocab_size=97, max_len=20)))
        verdict, score = predict(m, "http://example.com", VOCAB)
        assert score == 0.5
        assert verdict == "legitimate"

    def test_deterministic(self):
        m = build_model(tiny_config("gru", vocab_size=97, max_len=20))
        a = predict(m, "http://x.com/path", VOCAB)
        b = predict(m, "http://x.com/path", VOCAB)
        assert a == b

    def test_empty_url_is_valid(self):
        m = build_model(tiny_config("gru", vocab_size=97, max_len=20))
        verdict, score = predict(m, "", VOCAB)
        assert verdict in ("phishing", "legitimate")
        assert 0 < score < 1

    def test_default_threshold_is_the_models(self):
        m = build_model(tiny_config("gru", vocab_size=97, max_len=20))
        url = "http://a.b"
        for threshold, verdict in ((0.0, "phishing"), (1.0, "legitimate")):
            m.threshold = threshold
            assert predict(m, url, VOCAB)[0] == verdict
            assert predict(m, url, VOCAB, 1.0 - threshold)[0] != verdict  # an explicit one wins
            # evaluate answers at the model's threshold too: the same verdict
            tp = evaluate(m, LabeledDataset([(url, 1)])).confusion[0]
            assert tp == (verdict == "phishing")


def test_default_vocab_size_is_the_codecs():
    assert ModelConfig().vocab_size == VOCAB.size
