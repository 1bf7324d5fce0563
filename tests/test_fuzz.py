"""Fuzz gate for the two inputs a deployed model reads: PDM1 model files and
URL text. Every case runs in process through `cli.main` and must end in an
exit code with one stderr line per failure, never in an exception."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import confusion_fixture, patch_header
from phishdefense.cli import main
from phishdefense.codec import default_vocab
from phishdefense.model import ModelConfig, build_model
from phishdefense.store import save_model

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
MARK = b"\xef\xbb\xbf"
CELLS = st.sampled_from(["gru", "lstm"])
UINT32 = st.integers(0, 2**32 - 1)
FLOAT32 = st.floats(width=32)  # NaN and both infinities included
# one strategy per fixed header field, in the order store._FIXED_HEADER packs them:
# cell_kind, vocab_size, embed_dim, hidden_dim, max_len, dropout, threshold, n_dense
HEADER_FIELDS = [st.integers(0, 255), UINT32, UINT32, UINT32, UINT32, FLOAT32, FLOAT32, UINT32]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def tiny_model(cell, vocab_size=default_vocab().size):
    dense = (4, 2) if cell == "gru" else (1,)
    return build_model(ModelConfig(cell_kind=cell, vocab_size=vocab_size, embed_dim=2,
                                   hidden_dim=3, dense_dims=dense, max_len=16))


def assert_one_error_line(err, what="error:"):
    assert len(err.splitlines()) == 1 and err.startswith(what), err


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """The PDM1 bytes of a tiny GRU and a tiny LSTM model."""
    path = tmp_path_factory.mktemp("tiny") / "m.pdm"
    blobs = {}
    for cell in ("gru", "lstm"):
        save_model(tiny_model(cell), str(path))
        blobs[cell] = path.read_bytes()
    return blobs


@pytest.fixture(scope="module")
def scoring_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("scoring") / "fixture.pdm"
    save_model(confusion_fixture()[0], str(path))
    return str(path)


def predict_on(model_bytes, tmp_path):
    path = tmp_path / "m.pdm"
    path.write_bytes(model_bytes)
    code, out, err = run(["predict", "--model", str(path), "--url", "http://a.example/login"])
    assert code in (0, 1)
    if code == 0:
        assert set(json.loads(out)) == {"url", "score", "verdict"}
    else:
        assert out == ""
        assert_one_error_line(err)
    return code


@FUZZ
@given(cell=CELLS, how=st.sampled_from(["field", "truncate", "random", "random header"]),
       data=st.data())
def test_predict_on_a_mangled_model_file_exits_0_or_1(tiny_files, tmp_path, cell, how, data):
    blob = tiny_files[cell]
    if how == "field":
        field = data.draw(st.integers(0, len(HEADER_FIELDS) - 1), label="field")
        blob = patch_header(blob, field, data.draw(HEADER_FIELDS[field], label="value"))
    elif how == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:  # a random header keeps the magic, version and header length
        blob = blob[:12] * (how == "random header") + data.draw(st.binary(max_size=400))
    predict_on(blob, tmp_path)


@FUZZ
@given(cell=CELLS, vocab_size=st.integers(1, 200))
def test_a_model_answers_only_if_its_vocabulary_covers_the_codec(tmp_path, cell, vocab_size):
    path = tmp_path / "m.pdm"
    save_model(tiny_model(cell, vocab_size), str(path))
    assert predict_on(path.read_bytes(), tmp_path) == int(vocab_size < default_vocab().size)


def url_text(first_line=b""):
    """Random bytes or UTF-8 text after first_line, with or without a leading mark."""
    body = st.one_of(st.binary(max_size=200), st.text(max_size=60).map(str.encode))
    return st.tuples(st.booleans(), body).map(lambda t: MARK * t[0] + first_line + t[1])


@FUZZ
@given(data=url_text())
def test_url_text_on_predict_stdin(scoring_model, data):
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    with mock.patch.object(sys, "stdin", stdin):
        code, out, err = run(["predict", "--model", scoring_model, "--stdin"])
    assert code in (0, 1)
    if code == 0:
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
        assert len(out.splitlines()) == len(lines)
    else:
        assert_one_error_line(err, "error: <stdin>: not UTF-8 text")


@FUZZ
@given(data=url_text())
def test_url_text_on_bench_urls(scoring_model, tmp_path, data):
    path = tmp_path / "urls.txt"
    path.write_bytes(data)
    code, out, err = run(["bench", "--model", scoring_model, "--urls", str(path), "--reps", "1"])
    assert code in (0, 1, 2)
    if code == 0:
        assert json.loads(out)["repetitions"] == 1
    else:
        assert out == ""
        assert_one_error_line(err, "error:" if code == 1 else "bench: no URLs")


@FUZZ
@given(data=st.one_of(url_text(), url_text(b"url,label\n")))
def test_url_text_on_eval_data(scoring_model, tmp_path, data):
    path = tmp_path / "corpus.csv"
    path.write_bytes(data)
    code, out, err = run(["eval", "--model", scoring_model, "--data", str(path)])
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert_one_error_line(err)
