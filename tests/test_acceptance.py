"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale training
criterion (5) and the CLI determinism criterion (6) train real models and
dominate the runtime (several minutes total on a desktop CPU).
"""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    confusion_fixture,
    finite_diff_grad,
    gate,
    gru_step,
    lstm_step,
    oracle_gru_step,
    oracle_lstm_step,
)
from phishdefense.cli import main
from phishdefense.codec import default_vocab
from phishdefense.data import split
from phishdefense.errors import ModelFormatError
from phishdefense.layers import GruParams, LstmParams
from phishdefense.model import (
    ModelConfig,
    ModelGraph,
    bce_loss,
    backward_batch,
    build_model,
    default_config,
    forward_batch,
    predict,
)
from phishdefense.store import load_model, save_model
from phishdefense.train import (
    TrainConfig,
    evaluate,
    make_synthetic_corpus,
    plateau,
    train,
)

VOCAB = default_vocab()
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def grad_close(numeric, analytic):
    err = np.abs(numeric - analytic)
    ok = err <= np.maximum(REL_TOL * np.abs(numeric), ABS_FLOOR)
    return bool(np.all(ok)), float(np.max(err / np.maximum(np.abs(numeric), ABS_FLOOR)))


def tiny_cfg(cell):
    return ModelConfig(
        cell_kind=cell,
        vocab_size=10,
        embed_dim=4,
        hidden_dim=5,
        dense_dims=(1,) if cell == "lstm" else (3, 2),
        dropout_rate=0.5 if cell == "lstm" else 0.2,
        max_len=6,
        seed=3,
    )


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for cell in ("lstm", "gru"):
        cfg = tiny_cfg(cell)
        m = build_model(cfg)
        ids = rng.integers(0, 10, size=(3, 6))
        lens = np.array([6, 4, 2])
        labels = np.array([1, 0, 1])
        _, caches = forward_batch(m, ids, lens, mode="train", seed=11)
        grads, _ = backward_batch(m, caches, labels)

        def loss_fn(params):
            m2 = ModelGraph(config=cfg, params=params)
            p2, _ = forward_batch(m2, ids, lens, mode="train", seed=11)
            return bce_loss(labels.astype(float), p2)[0]

        fd = finite_diff_grad(loss_fn, m.params, h=1e-6)
        for name in grads:
            ok, rel = grad_close(fd[name], grads[name])
            worst = max(worst, rel)
            assert ok, f"{cell} {name}: rel err {rel}"
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 30.0, f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_equation_level_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(50):
        d = int(rng.integers(1, 6))
        h = int(rng.integers(1, 7))
        seed = int(rng.integers(0, 10000))
        x = rng.standard_normal(d)
        h_prev = rng.standard_normal(h)
        c_prev = rng.standard_normal(h)

        lp = LstmParams.init(d, h, seed)
        hv, cv, _ = lstm_step(lp, x, h_prev, c_prev)
        oh, oc = oracle_lstm_step(lp, x, h_prev, c_prev)
        worst = max(worst, float(np.max(np.abs(hv[0] - oh))), float(np.max(np.abs(cv[0] - oc))))

        gp = GruParams.init(d, h, seed)
        gv, _ = gru_step(gp, x, h_prev)
        og = oracle_gru_step(gp, x, h_prev)
        worst = max(worst, float(np.max(np.abs(gv[0] - og))))
    assert worst < 1e-12, worst

    # gate-saturation identities
    lp = LstmParams.init(3, 4, 1)
    gate(lp, "b_f")[:] = 50.0
    gate(lp, "b_i")[:] = -50.0
    c_prev = rng.standard_normal(4)
    _, cv, _ = lstm_step(lp, rng.standard_normal(3), rng.standard_normal(4), c_prev)
    assert np.max(np.abs(cv[0] - c_prev)) < 1e-6

    gp = GruParams.init(3, 4, 2)
    gate(gp, "b_z")[:] = 50.0
    h_prev = rng.standard_normal(4)
    gv, _ = gru_step(gp, rng.standard_normal(3), h_prev)
    assert np.max(np.abs(gv[0] - h_prev)) < 1e-6

    elapsed = time.perf_counter() - t0
    report(2, elapsed < 5.0, f"(worst step error {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_loss_closed_forms():
    loss, _ = bce_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert abs(loss - np.log(2)) < 1e-12

    # sigmoid head: d(loss)/d(logit) = (p - y) / N, read off the head bias grad
    rng = np.random.default_rng(5)
    m = build_model(tiny_cfg("lstm"))
    ids = rng.integers(0, 10, size=(4, 6))
    labels = np.array([1, 0, 0, 1])
    probs, caches = forward_batch(m, ids, np.full(4, 6), mode="infer")
    grads, _ = backward_batch(m, caches, labels)
    expected = np.mean(probs - labels)
    assert abs(grads["dense0.b"][0] - expected) < 1e-10
    report(3, True, f"(bce([1,0],[.5,.5]) = ln 2 ± {abs(loss - np.log(2)):.1e})")


def test_criterion_4_scheduler_and_early_stop():
    def lr(n):  # the rate after n equal losses; the first one sets the best
        return plateau(1e-3, [1.0] * n)[0]

    for k in range(4):
        assert lr(2 + k) == 1e-3, k
    assert lr(6) == pytest.approx(1e-4)  # 5th stagnant epoch
    assert lr(26) == pytest.approx(1e-5)  # floored

    losses = [1.0, 0.5] + [0.5] * 5
    assert plateau(1e-3, losses)[1] is False
    assert plateau(1e-3, losses + [0.5])[1] is True
    report(4, True)


@pytest.mark.slow
def test_criterion_5_desk_scale_training():
    t0 = time.perf_counter()
    ds = make_synthetic_corpus(4000, 0.5, 1)
    pair = split(ds, 0.75, 1)
    accs = {}
    for cell, floor in (("gru", 0.97), ("lstm", 0.90)):
        model = build_model(default_config(cell, seed=1))
        best, history = train(model, pair, TrainConfig(seed=1))
        rep = evaluate(best, pair.test)
        accs[cell] = rep.accuracy
        assert rep.accuracy >= floor, f"{cell}: {rep.accuracy} < {floor}"
    elapsed = time.perf_counter() - t0
    report(
        5,
        elapsed < 600.0,
        f"(gru {accs['gru']:.4f} >= 0.97, lstm {accs['lstm']:.4f} >= 0.90, {elapsed:.0f}s)",
    )


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.slow
def test_criterion_6_cli_determinism(tmp_path):
    args = ["train", "--synthetic", "2000", "--seed", "7"]
    c1, out1 = run_cli(args + ["--out", str(tmp_path / "a.pdm")])
    c2, out2 = run_cli(args + ["--out", str(tmp_path / "b.pdm")])
    assert c1 == 0 and c2 == 0
    assert (tmp_path / "a.pdm").read_bytes() == (tmp_path / "b.pdm").read_bytes()
    j1, j2 = json.loads(out1), json.loads(out2)
    j1.pop("model_path"), j2.pop("model_path")
    assert json.dumps(j1) == json.dumps(j2)
    report(6, True, "(model files byte-identical, metrics JSON identical)")


def test_criterion_7_serialization(tmp_path):
    rng = np.random.default_rng(3)
    m = build_model(
        ModelConfig(
            cell_kind="gru",
            embed_dim=8,
            hidden_dim=10,
            dense_dims=(6, 2),
            dropout_rate=0.2,
            max_len=40,
            seed=4,
        )
    )
    path = str(tmp_path / "m.pdm")
    save_model(m, path)
    loaded = load_model(path)
    narrowed = m.copy()
    narrowed.params = {
        k: v.astype(np.float32).astype(np.float64) for k, v in m.params.items()
    }
    chars = list("abcdefghijklmnopqrstuvwxyz0123456789-._/:@")
    max_drift = 0.0
    for _ in range(100):
        url = "".join(rng.choice(chars, size=rng.integers(5, 30)))
        _, s64 = predict(m, url, VOCAB)
        _, s32 = predict(loaded, url, VOCAB)
        _, sn = predict(narrowed, url, VOCAB)
        assert s32 == sn  # exact vs 32-bit-narrowed weights
        max_drift = max(max_drift, abs(s64 - s32))
    assert max_drift <= 1e-5

    blob = bytearray(Path(path).read_bytes())
    for _ in range(100):  # single-byte corruption always detected
        pos = int(rng.integers(12, len(blob)))
        orig = blob[pos]
        blob[pos] ^= 0xFF
        (tmp_path / "c.pdm").write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(str(tmp_path / "c.pdm"))
        blob[pos] = orig

    cuts = set(int(c) for c in rng.integers(0, len(blob), size=1000))
    for cut in cuts:  # truncation never crashes
        (tmp_path / "t.pdm").write_bytes(bytes(blob[:cut]))
        with pytest.raises((ModelFormatError, IOError)):
            load_model(str(tmp_path / "t.pdm"))
    report(7, True, f"(max drift {max_drift:.2e}, {len(cuts)}-case truncation fuzz)")


def test_criterion_8_latency(tmp_path):
    model = build_model(default_config("gru", seed=0))
    path = str(tmp_path / "gru.pdm")
    save_model(model, path)
    code, out = run_cli(["bench", "--model", path, "--reps", "100"])
    assert code == 0
    stats = json.loads(out)
    report(8, stats["mean"] < 0.05, f"(mean {stats['mean'] * 1000:.2f} ms over 100 reps)")


def test_criterion_9_metrics_definitions():
    model, ds = confusion_fixture()
    rep = evaluate(model, ds)
    exact = (
        rep.confusion == (3, 1, 5, 1)
        and rep.precision == 0.75
        and rep.recall == 0.75
        and rep.f_score == 0.75
        and rep.accuracy == 0.8
    )
    report(9, exact, f"(confusion {rep.confusion})")
