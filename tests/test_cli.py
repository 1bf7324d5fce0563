import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import labels, patch_payload
from phishdefense import cli, serve
from phishdefense.cli import main
from phishdefense.codec import default_vocab
from phishdefense.data import MAX_LINE, LabeledDataset
from phishdefense.layers import CELLS
from phishdefense.model import ModelConfig, ModelGraph, build_model, predict
from phishdefense.store import load_model, save_model
from phishdefense.train import TrainConfig


def run_cli(argv, stdin_text=None, monkeypatch=None):
    buf = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory):
    """A small fast training run shared by eval/bench tests."""
    tmp = tmp_path_factory.mktemp("trained")
    out = str(tmp / "model.pdm")
    code, stdout = run_cli(
        ["train", "--synthetic", "300", "--cell", "gru", "--seed", "3",
         "--epochs", "3", "--batch", "50", "--hidden", "16", "--embed", "8",
         "--max-len", "60", "--out", out]
    )
    assert code == 0
    return out, stdout, str(tmp)


class TestTrainCommand:
    def test_missing_data_source_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--out", "/tmp/x.pdm"])
        assert exc.value.code == 2

    def test_synthetic_train_writes_artifacts(self, trained_model_path):
        out, stdout, tmp = trained_model_path
        import os

        assert os.path.exists(out)
        assert os.path.exists(out + ".history.jsonl")
        report = json.loads(stdout)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert set(report["confusion"]) == {"TP", "FP", "TN", "FN"}
        # latency deliberately not measured here (determinism of the JSON)
        assert report["mean_inference_seconds"] is None

    def test_determinism_metrics_json(self, tmp_path):
        args = ["train", "--synthetic", "120", "--cell", "lstm", "--seed", "9",
                "--epochs", "2", "--batch", "30", "--hidden", "10", "--embed", "6",
                "--max-len", "40"]
        c1, out1 = run_cli(args + ["--out", str(tmp_path / "a.pdm")])
        c2, out2 = run_cli(args + ["--out", str(tmp_path / "b.pdm")])
        assert c1 == c2 == 0
        j1, j2 = json.loads(out1), json.loads(out2)
        j1.pop("model_path"), j2.pop("model_path")
        assert j1 == j2
        assert (tmp_path / "a.pdm").read_bytes() == (tmp_path / "b.pdm").read_bytes()

    def test_resume_with_another_cell_exits_1(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--epochs", "1", "--batch", "20",
                "--hidden", "4", "--embed", "3", "--max-len", "20",
                "--workdir", str(tmp_path / "work"), "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args + ["--cell", "gru"])[0] == 0
        capsys.readouterr()
        code, stdout = run_cli(args + ["--cell", "lstm", "--epochs", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert stdout == ""
        assert "error:" in err and "cell_kind" in err
        assert "Traceback" not in err

    def test_resume_with_another_lr_and_corpus_exits_1(self, tmp_path, capsys):
        args = ["train", "--seed", "2", "--batch", "20", "--hidden", "4", "--embed", "3",
                "--max-len", "20", "--workdir", str(tmp_path / "work"),
                "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args + ["--synthetic", "40", "--epochs", "1"])[0] == 0
        capsys.readouterr()
        code, stdout = run_cli(args + ["--synthetic", "80", "--epochs", "2", "--lr", "0.5"])
        err = capsys.readouterr().err
        assert code == 1
        assert stdout == ""
        assert "error:" in err and "initial_lr" in err and "train_sha256" in err
        assert "Traceback" not in err


    def test_rerun_in_a_used_workdir_trains_nothing(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--epochs", "2", "--batch", "20",
                "--threshold", "0.3", *SMALL_TRAIN, "--workdir", str(tmp_path / "work"),
                "--out", str(tmp_path / "m.pdm")]
        code, first = run_cli(args)
        assert code == 0
        model = (tmp_path / "m.pdm").read_bytes()
        state = (tmp_path / "work" / "train_state.npz").read_bytes()
        capsys.readouterr()
        code, again = run_cli(args)
        err = capsys.readouterr().err
        assert code == 0 and again == first
        assert "epoch" not in err
        assert (tmp_path / "m.pdm").read_bytes() == model
        assert (tmp_path / "work" / "train_state.npz").read_bytes() == state

    def test_rerun_with_another_lr_exits_1_and_keeps_the_checkpoint(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--epochs", "1", "--batch", "20",
                *SMALL_TRAIN, "--workdir", str(tmp_path / "work"), "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args)[0] == 0
        state = (tmp_path / "work" / "train_state.npz").read_bytes()
        capsys.readouterr()
        code, stdout = run_cli(args + ["--lr", "0.01"])
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1 and "initial_lr 0.001 != 0.01" in err
        assert (tmp_path / "work" / "train_state.npz").read_bytes() == state

    def test_an_infinite_rate_exits_1_with_one_line_and_writes_no_model(self, tmp_path, capsys):
        # an infinite step turns every weight whose gradient is 0 into NaN
        out = tmp_path / "m.pdm"
        code, stdout = run_cli(["train", "--synthetic", "20", "--epochs", "1", "--hidden", "4",
                                "--embed", "4", "--lr", "inf", "--out", str(out)])
        err = capsys.readouterr().err
        assert (code, stdout) == (1, "")
        assert err == "error: epoch 0 batch 0: the update left a non-finite weight in parameter 'embed'\n"
        assert not out.exists()

    @pytest.mark.parametrize("corpus, error", [
        ("200", "error: epoch 0 batch 1: non-finite gradient for parameter 'dense1.w'"),
        ("20", "error: epoch 0: validation loss is nan"),  # the weights stay finite, near 1e308
    ])
    def test_a_diverging_run_exits_1_with_one_line_and_no_nan_in_its_history(self, tmp_path, corpus, error):
        # a subprocess: its stderr holds numpy's warnings too, which pytest would capture
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "phishdefense.cli", "train", "--synthetic", corpus, "--batch", "20",
             "--epochs", "1", "--hidden", "4", "--embed", "4", "--lr", "1e308", "--out", "y.pdm"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error + "\n")
        assert not (tmp_path / "y.pdm").exists()
        assert "NaN" not in (tmp_path / "y.pdm.history.jsonl").read_text()

    def test_two_record_csv_exits_1_with_one_line(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("url,label\nhttp://a.com,0\nhttp://b.com,1\n")
        code, stdout = run_cli(["train", "--data", str(data), "--out", str(tmp_path / "m.pdm"),
                                *SMALL_TRAIN])
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot split 2 records")
        assert not (tmp_path / "m.pdm").exists()

    def test_resume_from_a_truncated_checkpoint_exits_1(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--batch", "20", "--hidden", "4",
                "--embed", "3", "--max-len", "20", "--workdir", str(tmp_path / "work"),
                "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args + ["--epochs", "1"])[0] == 0
        state = tmp_path / "work" / "train_state.npz"
        blob = state.read_bytes()
        state.write_bytes(blob[: len(blob) // 2])
        capsys.readouterr()
        code, stdout = run_cli(args + ["--epochs", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "train_state.npz" in err


class TestPredictCommand:
    def test_tie_break_on_neutral_url(self, fixture_model_path):
        # 'm' has a zero embedding row: the fixture model scores exactly 0.5
        code, out = run_cli(["predict", "--model", fixture_model_path, "--url", "m"])
        assert code == 0
        rec = json.loads(out)
        assert rec["score"] == 0.5
        assert rec["verdict"] == "legitimate"

    def test_stdin_order_preserved(self, fixture_model_path, monkeypatch):
        code, out = run_cli(
            ["predict", "--model", fixture_model_path, "--stdin"],
            stdin_text="a\nf\nb\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["url"] for r in recs] == ["a", "f", "b"]
        assert recs[0]["verdict"] == "phishing"
        assert recs[1]["verdict"] == "legitimate"

    def test_crlf_stdin_line_scores_as_its_url(self, fixture_model_path, monkeypatch):
        url = "http://a.example/login"
        _, want = run_cli(["predict", "--model", fixture_model_path, "--url", url])
        code, got = run_cli(
            ["predict", "--model", fixture_model_path, "--stdin"],
            stdin_text=url + "\r\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert got == want

    def test_a_leading_byte_order_mark_is_dropped(self, fixture_model_path, monkeypatch):
        urls = b"http://a.b\nf\n"
        outs = []
        for data in (urls, b"\xef\xbb\xbf" + urls):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            code, out = run_cli(["predict", "--model", fixture_model_path, "--stdin"])
            assert code == 0
            outs.append(out)
        assert outs[1] == outs[0]
        assert [json.loads(line)["url"] for line in outs[0].splitlines()] == ["http://a.b", "f"]

    def test_corrupt_model_exits_1(self, tmp_path, fixture_model_path):
        blob = bytearray(Path(fixture_model_path).read_bytes())
        blob[-10] ^= 0xFF
        bad = tmp_path / "bad.pdm"
        bad.write_bytes(bytes(blob))
        code, _ = run_cli(["predict", "--model", str(bad), "--url", "a"])
        assert code == 1

    def test_no_url_source_exits_2(self, fixture_model_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["predict", "--model", fixture_model_path])
        assert exc.value.code == 2

    def test_empty_url_is_scored(self, fixture_model_path):
        code, out = run_cli(["predict", "--model", fixture_model_path, "--url", ""])
        assert code == 0
        verdict, score = predict(load_model(fixture_model_path), "", default_vocab())
        assert json.loads(out) == {"url": "", "score": score, "verdict": verdict}


class TestEvalCommand:
    def test_metrics_on_fixture(self, fixture_model_path, tmp_path):
        data = tmp_path / "fixture.csv"
        lines = ["url,label"] + [f"{ch},1" for ch in "abcd"] + [f"{ch},0" for ch in "efghij"]
        data.write_text("\n".join(lines) + "\n")
        code, out = run_cli(["eval", "--model", fixture_model_path, "--data", str(data)])
        assert code == 0
        rep = json.loads(out)
        assert rep["precision"] == 0.75
        assert rep["recall"] == 0.75
        assert rep["f_score"] == 0.75
        assert rep["accuracy"] == 0.8
        assert rep["mean_inference_seconds"] > 0

    def test_threshold_one_kills_recall(self, trained_model_path, tmp_path):
        out_model, _, _ = trained_model_path
        data = tmp_path / "d.csv"
        data.write_text("url,label\nhttp://a.com,1\nhttp://b.com,0\n")
        code, out = run_cli(
            ["eval", "--model", out_model, "--data", str(data), "--threshold", "1.0"]
        )
        assert code == 0
        assert json.loads(out)["recall"] == 0.0

    def test_missing_data_flag_exits_2(self, fixture_model_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", fixture_model_path])
        assert exc.value.code == 2


class TestBenchCommand:
    def test_url_file_without_urls_exits_2(self, fixture_model_path, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n   \n", encoding="utf-8")
        code, out = run_cli(["bench", "--model", fixture_model_path, "--urls", str(empty)])
        assert code == 2
        assert out == ""

    def test_a_leading_byte_order_mark_is_dropped(self, fixture_model_path, tmp_path, monkeypatch):
        timed = []
        monkeypatch.setattr(cli, "bench_inference", lambda model, urls, reps: timed.append(urls) or {})
        for mark in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "urls.txt"
            path.write_bytes(mark + b"http://a.b\n  \nf\n")
            assert run_cli(["bench", "--model", fixture_model_path, "--urls", str(path)])[0] == 0
        assert timed == [["http://a.b", "f"]] * 2


@pytest.mark.parametrize("command", ["eval", "predict", "bench", "serve"])
def test_a_model_with_a_smaller_vocabulary_exits_1(command, tmp_path, capsys, monkeypatch):
    def no_server(*args, **kwargs):
        raise AssertionError("a server was started")

    monkeypatch.setattr(serve, "_Server", no_server)
    model = tmp_path / "small.pdm"
    cfg = ModelConfig(vocab_size=20, embed_dim=2, hidden_dim=3, dense_dims=(1,), max_len=10)
    save_model(build_model(cfg), str(model))
    data = tmp_path / "d.csv"
    data.write_text("url,label\nhttp://a.com,1\n")
    where = {"eval": ["--data", str(data)], "predict": ["--url", "a"], "bench": [],
             "serve": ["--bind", "127.0.0.1:0"]}[command]
    code, stdout = run_cli([command, "--model", str(model), *where])
    assert code == 1 and stdout == ""
    assert capsys.readouterr().err == f"error: {model}: vocabulary of 20 ids, the URL codec needs 97\n"


class TestSynthCommand:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "corpus.csv"
        code, stdout = run_cli(["synth", "--n", "50", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(stdout)["written"] == 50
        from phishdefense.data import load_csv

        ds = load_csv(str(out))
        assert len(ds) == 50
        assert int(labels(ds).sum()) == 25

    def test_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert run_cli(["synth", "--n", "50", "--seed", "2", "--out", str(out)])[0] == 0
        data = out.read_bytes()
        assert data.startswith(b"url,label\r\n")
        assert hashlib.sha256(data).hexdigest() == (
            "969303b871e5dbb0fb022bcb4f795bae855ae3c58c30e66f29a87884a78cf5ef"
        )

    def test_failed_write_midway_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        def rows_then_fail():
            yield ("http://a.example", 0)
            yield ("http://b.example", 1)
            raise RuntimeError("interrupted")

        monkeypatch.setattr(cli, "make_synthetic_corpus",
                            lambda *_: LabeledDataset(records=rows_then_fail()))
        out = tmp_path / "corpus.csv"
        out.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="interrupted"):
            run_cli(["synth", "--n", "50", "--out", str(out)])
        assert out.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_rename_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(*_):
            raise OSError("rename refused")

        monkeypatch.setattr("phishdefense.store.os.replace", refuse)
        out = tmp_path / "corpus.csv"
        out.write_bytes(b"old")
        assert run_cli(["synth", "--n", "50", "--out", str(out)]) == (1, "")
        assert out.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [out]


SMALL_TRAIN = ["--hidden", "4", "--embed", "3", "--max-len", "20"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [(["train", "--synthetic", "20", "--lr", "1e-6", *SMALL_TRAIN], "--lr"),
         (["train", "--synthetic", "20", "--lr", "0", *SMALL_TRAIN], "--lr"),
         (["train", "--synthetic", "20", "--batch", "0", *SMALL_TRAIN], "--batch"),
         (["train", "--synthetic", "20", "--epochs", "-3", *SMALL_TRAIN], "--epochs"),
         (["train", "--synthetic", "5", *SMALL_TRAIN], "--synthetic"),
         (["synth", "--n", "5"], "--n"),
         (["synth", "--n", "20", "--fraction", "2"], "--fraction"),
         (["synth", "--n", "20", "--fraction", "-1"], "--fraction"),
         (["bench", "--reps", "0"], "--reps"),
         (["serve", "--bind", "localhost"], "--bind"),
         (["serve", "--bind", "127.0.0.1:99999"], "--bind"),
         (["train", "--synthetic", "20", "--threshold", "nan", *SMALL_TRAIN], "--threshold"),
         (["eval", "--threshold", "1.5"], "--threshold"),
         (["predict", "--threshold", "-5"], "--threshold"),
         (["serve", "--threshold", "nan"], "--threshold"),
         (["train", "--synthetic", "20", "--hidden", "0", "--embed", "3", "--max-len", "20"], "--hidden"),
         (["train", "--synthetic", "20", "--embed", "0", "--hidden", "4", "--max-len", "20"], "--embed"),
         (["train", "--synthetic", "20", "--max-len", "0", "--hidden", "4", "--embed", "3"], "--max-len"),
         (["train", "--data", "corpus.csv", "--synthetic", "20", *SMALL_TRAIN], "--synthetic"),
         (["predict", "--url", "a", "--stdin"], "--stdin"),
         (["train", "--synthetic", "20", "--max-len", str(10**12), "--hidden", "4", "--embed", "3"], "--max-len"),
         # a port of non-ASCII digits: 8080 in Arabic-Indic digits, and superscript two
         (["serve", "--bind", "127.0.0.1:\u0668\u0660\u0668\u0660"], "--bind"),
         (["serve", "--bind", "127.0.0.1:\u00b2"], "--bind")],
    )
    def test_flag_out_of_range_exits_2_with_one_line(
        self, argv, flag, fixture_model_path, tmp_path, capsys, monkeypatch
    ):
        def no_server(*args, **kwargs):
            raise AssertionError("a server was started")

        monkeypatch.setattr(serve, "_Server", no_server)
        out = tmp_path / "out"
        where = ["--model", fixture_model_path] if argv[0] in ("bench", "serve") else ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + where)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and f"argument {flag}:" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["synth", "--n", "20"], ["train", "--synthetic", "20", *SMALL_TRAIN]])
    def test_a_negative_seed_exits_2_with_one_line(self, argv, tmp_path, capsys):
        # numpy seeds are non-negative: a negative one must not reach them
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--seed", "-1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "argument --seed:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["predict", "--model", "a\0b", "--url", "x"], "--model"),
        (["eval", "--model", "m.pdm", "--data", "c\0.csv"], "--data"),
        (["bench", "--model", "m.pdm", "--urls", "\0"], "--urls"),
        (["synth", "--n", "20", "--out", "x\0.csv"], "--out"),
        (["train", "--data", "\0", "--out", "m.pdm"], "--data"),
        (["train", "--synthetic", "20", "--out", "x\0.pdm"], "--out"),
        (["train", "--synthetic", "20", "--out", "m.pdm", "--history", "h\0"], "--history"),
        (["train", "--synthetic", "20", "--out", "m.pdm", "--workdir", "w\0"], "--workdir"),
        (["serve", "--model", "\0m.pdm"], "--model"),
    ])
    def test_a_path_with_a_nul_exits_2_with_one_line(self, argv, flag, tmp_path, capsys, monkeypatch):
        # the operating system takes no path with a NUL: open() would raise ValueError
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and f"argument {flag}: a path cannot hold a NUL" in err, err
        assert os.listdir(tmp_path) == []

    def test_resume_flag_is_gone(self, tmp_path, capsys):
        work, out = tmp_path / "work", tmp_path / "m.pdm"
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--synthetic", "20", *SMALL_TRAIN, "--workdir", str(work), "--resume",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "unrecognized arguments: --resume" in err
        assert not work.exists() and not out.exists()

    def test_bad_pd_seed_exits_2_unless_seed_is_given(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PD_SEED", "abc")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--n", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "argument --seed: invalid int value: 'abc'" in err
        assert not out.exists()
        code, stdout = run_cli(["synth", "--n", "20", "--seed", "3", "--out", str(out)])
        assert code == 0 and json.loads(stdout)["written"] == 20

    @pytest.mark.parametrize("command", ["train", "eval", "bench", "predict"])
    def test_non_utf8_input_exits_1_naming_the_file(
        self, command, fixture_model_path, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"url,label\nhttp://a.com/\xff,1\n")
        argv = {
            "train": ["train", "--data", str(bad), "--out", str(tmp_path / "m.pdm"), *SMALL_TRAIN],
            "eval": ["eval", "--model", fixture_model_path, "--data", str(bad)],
            "bench": ["bench", "--model", fixture_model_path, "--urls", str(bad)],
            "predict": ["predict", "--model", fixture_model_path, "--stdin"],
        }[command]
        # the stdin of a POSIX locale: undecodable bytes become surrogates
        stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        named = "<stdin>" if command == "predict" else bad
        code, stdout = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and f"{named}: not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_field_over_the_csv_limit_exits_1_with_one_line(
        self, command, fixture_model_path, tmp_path, capsys
    ):
        data = tmp_path / "long.csv"
        data.write_text("url,label\nhttp://a.example/" + "x" * 200_000 + ",1\n")
        argv = {
            "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.pdm"), *SMALL_TRAIN],
            "eval": ["eval", "--model", fixture_model_path, "--data", str(data)],
        }[command]
        code, stdout = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert err == f"error: {data}:2: field larger than field limit (131072)\n"

    def test_a_30_mb_stdin_line_exits_1_unechoed(self, fixture_model_path, capsys, monkeypatch):
        line = "http://a.example/" + "x" * 30_000_000 + "\n"
        code, stdout = run_cli(["predict", "--model", fixture_model_path, "--stdin"],
                               "http://b.example/\n" + line, monkeypatch)
        err = capsys.readouterr().err
        assert code == 1
        assert [json.loads(out)["url"] for out in stdout.splitlines()] == ["http://b.example/"]
        assert err == f"error: <stdin>:2: line longer than {MAX_LINE} characters\n"


def test_readme_cli_matches_the_parser():
    """The README's sections from "## CLI" on describe this parser."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    block = section.split("```")[1]
    commands = [line.rpartition("| ")[2] for line in block.splitlines() if "phishdefense " in line]
    assert commands
    for command in commands:  # each example command line parses
        argv = shlex.split(command)
        assert argv[0] == "phishdefense"
        cli._build_parser().parse_args(argv[1:])
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named and not named - declared, named - declared


def test_train_parser_defaults_are_the_dataclasses(monkeypatch):
    monkeypatch.delenv("PD_SEED", raising=False)
    parser = cli._build_parser()
    args = parser.parse_args(["train", "--synthetic", "20", "--out", "m.pdm"])
    tc, mc = TrainConfig(), ModelConfig()
    assert (args.epochs, args.batch, args.lr, args.seed) == (tc.epochs, tc.batch_size, tc.initial_lr, tc.seed)
    assert (args.cell, args.max_len, args.embed, args.hidden) == (
        mc.cell_kind, mc.max_len, mc.embed_dim, mc.hidden_dim)
    assert args.threshold == ModelGraph(config=mc, params={}).threshold
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cell = next(a for a in sub.choices["train"]._actions if a.dest == "cell")
    assert cell.choices == sorted(CELLS)


def test_a_path_with_a_newline_exits_1_with_one_stderr_line(tmp_path, capsys):
    code, out = run_cli(["eval", "--model", str(tmp_path / "a\nb"), "--data", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "a\\x0ab" in err, err


@pytest.mark.parametrize("command", [["predict", "--url", "a"], ["eval", "--data", "corpus.csv"]])
def test_a_model_of_nan_weights_exits_1_with_one_line(fixture_model_path, command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # save_model refuses NaN weights: write one into a saved file, CRC and all
    blob = Path(fixture_model_path).read_bytes()
    Path("nan.pdm").write_bytes(patch_payload(blob, 0, float("nan")))
    assert main(["synth", "--n", "20", "--out", "corpus.csv"]) == 0
    capsys.readouterr()
    code, out = run_cli([command[0], "--model", "nan.pdm", *command[1:]])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: nan.pdm: tensor ") and len(err.splitlines()) == 1, err


def test_a_nan_score_is_an_error_not_a_json_line(fixture_model_path, capsys, monkeypatch):
    code, out = run_cli(["predict", "--model", fixture_model_path, "--url", "a"])
    verdict, score = predict(load_model(fixture_model_path), "a", default_vocab())
    assert (code, out) == (0, json.dumps({"url": "a", "score": score, "verdict": verdict}) + "\n")
    monkeypatch.setattr(cli, "predict", lambda *args: ("legitimate", float("nan")))
    code, out = run_cli(["predict", "--model", fixture_model_path, "--url", "a"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
