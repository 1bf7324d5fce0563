"""Fuzz gate for what a deployed model and a training run read: PDM1 model
files, URL text, HTTP requests, training checkpoints and command lines.
Every command-line case runs in process through `cli.main` and must end in
an exit code with one stderr line per failure, never in an exception; every
HTTP request gets a JSON reply or a closed connection."""

import argparse
import io
import json
import os
import socket
import struct
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import address, patch_header, patch_payload, read_until_close, serving
from phishdefense import cli, serve
from phishdefense.cli import main
from phishdefense.codec import default_vocab
from phishdefense.model import ModelConfig, build_model
from phishdefense.store import load_model, save_model

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
MARK = b"\xef\xbb\xbf"
CELLS = st.sampled_from(["gru", "lstm"])
UINT32 = st.integers(0, 2**32 - 1)
FLOAT32 = st.floats(width=32)  # NaN and both infinities included
NOT_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
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
@given(cell=CELLS, how=st.sampled_from(["field", "truncate", "random", "random header", "payload"]),
       data=st.data())
def test_predict_on_a_mangled_model_file_exits_0_or_1(tiny_files, tmp_path, cell, how, data):
    blob = tiny_files[cell]
    if how == "field":
        field = data.draw(st.integers(0, len(HEADER_FIELDS) - 1), label="field")
        blob = patch_header(blob, field, data.draw(HEADER_FIELDS[field], label="value"))
    elif how == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    elif how == "payload":  # a weight that is not finite, under a valid CRC
        (header_len,) = struct.unpack_from("<I", blob, 8)
        at = data.draw(st.integers(0, (len(blob) - 16 - header_len) // 4 - 1), label="float")
        blob = patch_payload(blob, at, data.draw(NOT_FINITE, label="value"))
    else:  # a random header keeps the magic, version and header length
        blob = blob[:12] * (how == "random header") + data.draw(st.binary(max_size=400))
    code = predict_on(blob, tmp_path)
    assert how != "payload" or code == 1


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
def test_url_text_on_predict_stdin(fixture_model_path, data):
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    with mock.patch.object(sys, "stdin", stdin):
        code, out, err = run(["predict", "--model", fixture_model_path, "--stdin"])
    assert code in (0, 1)
    if code == 0:
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
        assert len(out.splitlines()) == len(lines)
    else:
        assert_one_error_line(err, "error: <stdin>: not UTF-8 text")


@FUZZ
@given(data=url_text())
def test_url_text_on_bench_urls(fixture_model_path, tmp_path, data):
    path = tmp_path / "urls.txt"
    path.write_bytes(data)
    code, out, err = run(["bench", "--model", fixture_model_path, "--urls", str(path), "--reps", "1"])
    assert code in (0, 1, 2)
    if code == 0:
        assert json.loads(out)["repetitions"] == 1
    else:
        assert out == ""
        assert_one_error_line(err, "error:" if code == 1 else "bench: no URLs")


@FUZZ
@given(data=st.one_of(url_text(), url_text(b"url,label\n")))
def test_url_text_on_eval_data(fixture_model_path, tmp_path, data):
    path = tmp_path / "corpus.csv"
    path.write_bytes(data)
    code, out, err = run(["eval", "--model", fixture_model_path, "--data", str(path)])
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert_one_error_line(err)


def latin1_text(max_size):
    return st.text(st.characters(max_codepoint=255), max_size=max_size)


def mostly(choices, other):
    """One of choices three times in four, else a draw from other."""
    return st.one_of(*[st.sampled_from(choices)] * 3, other)


def http_request():
    """Request bytes: a method, a path, a version, header lines, an optional
    Content-Length of any text (or the body's true length) and a body."""
    method = mostly(["GET", "POST", "PUT", "HEAD", "DELETE"], latin1_text(8))
    path = mostly(["/check", "/health", "/", "/check?x=1"], latin1_text(20))
    version = mostly(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", ""], latin1_text(10))
    headers = st.lists(st.tuples(latin1_text(10), latin1_text(20)), max_size=5)
    length = mostly(["true"], st.one_of(st.none(), st.integers(-2, 40_000).map(str), latin1_text(8)))
    body = st.one_of(st.binary(max_size=20 * 1024),
                     st.text(max_size=100).map(lambda url: json.dumps({"url": url}).encode()))

    def build(method, path, version, headers, length, body):
        lines = [f"{method} {path} {version}".rstrip()] + [f"{k}: {v}" for k, v in headers]
        if length is not None:
            lines.append(f"Content-Length: {len(body) if length == 'true' else length}")
        return "\r\n".join(lines + ["", ""]).encode("latin-1") + body

    return st.builds(build, method, path, version, headers, length, body)


HTTP_STATUSES = {200, 400, 404, 413, 414, 431, 501, 505}


def test_every_http_request_gets_a_json_reply_or_a_close(fixture_model_path, monkeypatch):
    monkeypatch.setattr(serve, "REQUEST_TIMEOUT_S", 0.25)
    err = io.StringIO()
    with redirect_stderr(err), serving(cli.make_handler(load_model(fixture_model_path))) as base:

        @FUZZ
        @given(request=http_request(), ending=st.sampled_from(["wait", "half-close", "hang up"]))
        def exchange(request, ending):
            with socket.create_connection(address(base), timeout=serve.REQUEST_TIMEOUT_S + 5) as sock:
                try:
                    sock.sendall(request)
                    if ending == "half-close":
                        sock.shutdown(socket.SHUT_WR)
                except OSError:  # the server replied and closed before all was sent
                    pass
                if ending == "hang up":
                    return
                reply = read_until_close(sock)
            if not reply:  # closed without a reply: the request never completed
                return
            head, _, body = reply.partition(b"\r\n\r\n")
            status_line, *lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            assert int(status_line.split()[1]) in HTTP_STATUSES, status_line
            assert headers["Content-Type"] == "application/json"
            assert int(headers["Content-Length"]) == len(body)
            payload = json.loads(body)
            assert status_line.split()[1] == "200" or list(payload) == ["error"]

        exchange()
        with socket.create_connection(address(base), timeout=5) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            assert read_until_close(sock).startswith(b"HTTP/1.0 200 ")
    assert "Traceback" not in err.getvalue()


TRAIN_ARGS = ["train", "--synthetic", "40", "--seed", "2", "--batch", "20", "--hidden", "4",
              "--embed", "3", "--max-len", "20", "--epochs", "1"]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The train_state.npz bytes of a 1-epoch run of TRAIN_ARGS."""
    work = tmp_path_factory.mktemp("checkpoint")
    code, _, _ = run([*TRAIN_ARGS, "--workdir", str(work), "--out", str(work / "m.pdm")])
    assert code == 0
    return (work / "train_state.npz").read_bytes()


DELETE = object()  # a meta edit that removes the value
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def json_paths(node, at=()):
    """The path (keys and indices) of every value in a JSON tree."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, at + (key,))


def checkpoint_arrays(blob):
    with np.load(io.BytesIO(blob)) as npz:
        return {k: npz[k] for k in npz.files}


def checkpoint_bytes(arrays):
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


def with_tensor_cast(blob, data):
    """blob, a checkpoint, with one tensor cast to another dtype."""
    arrays = checkpoint_arrays(blob)
    name = data.draw(st.sampled_from(sorted(set(arrays) - {"__meta__"})), label="tensor")
    arrays[name] = arrays[name].astype(data.draw(st.sampled_from(["<U8", "<f4", "<i8", "?", "<c16"])))
    return checkpoint_bytes(arrays)


def with_nonfinite_tensor(blob, data):
    """blob, a checkpoint, with one value of one tensor NaN or infinite."""
    arrays = checkpoint_arrays(blob)
    name = data.draw(st.sampled_from(sorted(set(arrays) - {"__meta__"})), label="tensor")
    at = data.draw(st.integers(0, arrays[name].size - 1), label="at")
    arrays[name].flat[at] = data.draw(NOT_FINITE, label="value")
    return checkpoint_bytes(arrays)


def with_meta_edit(blob, data):
    """blob, a checkpoint, with one value of its meta JSON replaced or deleted."""
    arrays = checkpoint_arrays(blob)
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    path = data.draw(st.sampled_from(list(json_paths(meta))), label="path")
    value = data.draw(st.one_of(st.just(DELETE), JSON_VALUES), label="value")
    if not path:
        meta = {} if value is DELETE else value
    else:
        parent = meta
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return checkpoint_bytes(arrays)


@settings(FUZZ, max_examples=40)
@given(how=st.sampled_from(["random", "truncate", "flip", "meta", "dtype", "nonfinite"]), data=st.data())
def test_a_rerun_on_a_mangled_checkpoint_exits_0_or_1(checkpoint, tmp_path_factory, how, data):
    blob = checkpoint
    if how == "random":
        blob = data.draw(st.binary(max_size=2000), label="bytes")
    elif how == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    elif how == "flip":
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        blob = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255), label="xor")]) + blob[at + 1:]
    elif how == "meta":
        blob = with_meta_edit(blob, data)
    elif how == "nonfinite":
        blob = with_nonfinite_tensor(blob, data)
    else:
        blob = with_tensor_cast(blob, data)
    work = tmp_path_factory.mktemp("rerun")
    (work / "train_state.npz").write_bytes(blob)
    code, out, err = run([*TRAIN_ARGS, "--workdir", str(work), "--out", str(work / "m.pdm")])
    assert code in (0, 1)
    assert how != "nonfinite" or code == 1
    if code == 0:
        assert json.loads(out)["model_path"] == str(work / "m.pdm")
    else:
        assert out == ""
        assert_one_error_line("".join(line for line in err.splitlines(True) if not line.startswith("epoch ")))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory, fixture_model_path):
    """Paths a command line may name: inputs of each kind, a missing file and
    a directory to write outputs to."""
    root = tmp_path_factory.mktemp("argv")
    corpus, urls = root / "corpus.csv", root / "urls.txt"
    assert run(["synth", "--n", "40", "--seed", "1", "--out", str(corpus)])[0] == 0
    urls.write_text("http://a.example/login\nhttps://b.example/\n")
    (root / "out").mkdir()
    return {"model": fixture_model_path, "corpus": str(corpus), "urls": str(urls),
            "missing": str(root / "missing"), "dir": str(root), "out": root / "out"}


def argv(files):
    """An argument list of a subcommand other than serve: a small valid one,
    then up to 6 of the subcommand's own flags, each with a value of its kind
    or, one time in ten, any text. Sizes stay small: --synthetic and --n at
    most 40, --epochs 1, --hidden and --embed 8, --max-len 40, --reps 3."""
    out = files["out"]
    inputs = st.sampled_from([files[k] for k in ("model", "corpus", "urls", "missing", "dir")])
    base = {
        "train": [["--synthetic", "40"], ["--data", files["corpus"]]],
        "eval": [["--model", files["model"], "--data", files["corpus"]]],
        "predict": [["--model", files["model"], "--url", "http://a.example/"],
                    ["--model", files["model"], "--stdin"]],
        "bench": [["--model", files["model"], "--reps", "3"]],
        "synth": [["--n", "40", "--out", str(out / "corpus.csv")]],
    }
    base["train"] = [source + ["--out", str(out / "m.pdm"), "--epochs", "1", "--hidden", "8",
                               "--embed", "8", "--max-len", "40"] for source in base["train"]]
    small = {"--synthetic": 40, "--n": 40, "--epochs": 1, "--batch": 50, "--max-len": 40,
             "--embed": 8, "--hidden": 8, "--reps": 3}
    values = {
        "--model": inputs, "--data": inputs, "--urls": inputs,
        "--out": st.sampled_from([str(out / "m.pdm"), str(out), str(out / "no" / "m.pdm")]),
        "--history": st.sampled_from([str(out / "h.jsonl"), str(out)]),
        "--workdir": st.sampled_from([str(out / "work"), files["corpus"], str(out / "no" / "w")]),
        "--cell": st.sampled_from(["gru", "lstm"]),
        "--url": st.text(max_size=30),
        "--seed": st.integers(-2**70, 2**70).map(str),
        **{flag: st.floats().map(str) for flag in ("--lr", "--threshold", "--fraction")},
        **{flag: st.integers(-1, high).map(str) for flag, high in small.items()},
    }
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    @st.composite
    def draw(draw):
        name = draw(st.sampled_from(sorted(base)))
        args = [name, *draw(st.sampled_from(base[name]))]
        flags = [a for a in sub.choices[name]._actions if a.option_strings]
        for action in draw(st.lists(st.sampled_from(flags), max_size=6)):
            flag = draw(st.sampled_from(action.option_strings))
            args.append(flag)
            if action.nargs != 0:
                junk = draw(st.integers(0, 9)) == 0
                args.append(draw(st.text(max_size=8) if junk else values[flag]))
        return args

    assert set(base) == set(sub.choices) - {"serve"}
    return draw()


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_any_command_line_exits_0_1_or_2(argv_files, data):
    args = data.draw(argv(argv_files), label="argv")
    # a value of any text may be a relative output path: keep it in the test's directory
    cwd = os.getcwd()
    os.chdir(argv_files["out"])
    try:
        with mock.patch.object(sys, "stdin", io.StringIO("http://a.example/\n")):
            try:
                code = run(args)[0]
            except SystemExit as e:  # argparse: a usage error, or --help
                code = e.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
