"""Operator surface: train / eval / predict / bench / synth / serve.

stdout carries machine-parseable JSON only; diagnostics go to stderr.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback
from http.server import BaseHTTPRequestHandler

from .codec import MAX_LEN, Vocab, default_vocab
from .data import CSV_COLUMNS, load_csv, split, text_lines
from .errors import ModelFormatError, NumericError, PhishDefenseError
from .layers import CELLS
from .model import ModelConfig, ModelGraph, default_config, build_model, predict
from .serve import log, serve
from .store import atomic_write, load_model, save_model
from .train import (
    MIN_CORPUS,
    MIN_LR,
    SPLIT_RATIO,
    TrainConfig,
    bench_inference,
    evaluate,
    make_synthetic_corpus,
    train,
)

MAX_REQUEST_BODY = 16 * 1024
LATENCY_SAMPLE = 50  # URLs eval times single-URL predict on


def _json(payload: dict) -> str:
    """payload as JSON text; RFC 8259 has no NaN or Infinity, so a
    non-finite number is an error, not a line a strict parser rejects."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError:
        raise NumericError("the output holds a number that is not finite") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one stderr line and exit 2
        self.exit(2, f"{self.prog}: error: {message}\n")


def _in_range(kind, low, high=float("inf")):
    """argparse type: a kind(text) value in [low, high] (NaN is not)."""
    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low:g}, {high:g}], got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _path(text: str) -> str:
    """argparse type: a file system path, which cannot hold a NUL (the
    operating system's calls take none)."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot hold a NUL character")
    return text


def _address(text: str):
    """argparse type: HOST:PORT as (host, port); an empty host is 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with a port in 0..65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="phishdefense")
    probability = _in_range(float, 0.0, 1.0)
    positive = _in_range(int, 1)
    # argparse converts a string default only when its flag is absent, so a
    # bad PD_SEED is a usage error unless --seed is given; numpy seeds are >= 0
    seed = {"type": _in_range(int, 0), "default": os.environ.get("PD_SEED", str(TrainConfig.seed))}
    sub = ap.add_subparsers(dest="subcommand", required=True)

    scored = argparse.ArgumentParser(add_help=False)  # a model that answers at a threshold
    scored.add_argument("--model", type=_path, required=True)
    scored.add_argument("--threshold", type=probability,
                        help="phishing above this score (default: the model's own)")

    p = sub.add_parser("train", help="train a model on a CSV or synthetic corpus")
    p.set_defaults(run=cmd_train)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=_path, help="url,label CSV path")
    source.add_argument("--synthetic", type=_in_range(int, MIN_CORPUS),
                        help="generate a synthetic corpus of N URLs")
    p.add_argument("--epochs", type=_in_range(int, 0), default=TrainConfig.epochs)
    p.add_argument("--batch", type=positive, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=_in_range(float, MIN_LR), default=TrainConfig.initial_lr)
    p.add_argument("--threshold", type=probability, default=ModelGraph.threshold)
    p.add_argument("--out", type=_path, required=True, help="output model path (.pdm)")
    p.add_argument("--history", type=_path, help="history JSONL path (default: <out>.history.jsonl)")
    p.add_argument("--workdir", type=_path, help="checkpoint directory; a rerun resumes the run it holds")
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--stratify", action="store_true")
    p.add_argument("--cell", choices=sorted(CELLS), default=ModelConfig.cell_kind)
    p.add_argument("--max-len", type=_in_range(int, 1, MAX_LEN), default=ModelConfig.max_len)
    p.add_argument("--embed", type=positive, default=ModelConfig.embed_dim)
    p.add_argument("--hidden", type=positive, default=ModelConfig.hidden_dim)
    p.add_argument("--seed", **seed)

    p = sub.add_parser("eval", parents=[scored], help="evaluate a model on a labeled CSV")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--data", type=_path, required=True)

    p = sub.add_parser("predict", parents=[scored], help="score one URL or a stream of URLs")
    p.set_defaults(run=cmd_predict)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--url")
    source.add_argument("--stdin", action="store_true", help="score each line of stdin")

    p = sub.add_parser("bench", help="single-URL latency statistics")
    p.set_defaults(run=cmd_bench)
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--urls", type=_path, help="file with one URL per line (default: built-in sample)")
    p.add_argument("--reps", type=positive, default=100)

    p = sub.add_parser("synth", help="write a synthetic corpus CSV")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--n", type=_in_range(int, MIN_CORPUS), required=True)
    p.add_argument("--fraction", type=probability, default=0.5)
    p.add_argument("--seed", **seed)
    p.add_argument("--out", type=_path, required=True)

    p = sub.add_parser("serve", parents=[scored], help="HTTP scoring endpoint")
    p.set_defaults(run=cmd_serve)
    p.add_argument("--bind", type=_address, default="127.0.0.1:8080")
    return ap


def _scored_model(path: str, threshold: float | None = None) -> ModelGraph:
    """The model at path, answering at threshold when one is given; refused
    unless its embedding has a row for every id the URL codec gives (and,
    by load_model, unless every weight is finite)."""
    model = load_model(path)
    have, need = model.config.vocab_size, default_vocab().size
    if have < need:
        raise ModelFormatError(f"{path}: vocabulary of {have} ids, the URL codec needs {need}")
    if threshold is not None:
        model.threshold = threshold
    return model


def _answer(model: ModelGraph, url: str, vocab: Vocab) -> dict:
    """The JSON record `predict` prints and `serve` replies for one URL."""
    verdict, score = predict(model, url, vocab)
    return {"url": url, "score": score, "verdict": verdict}


def cmd_train(args) -> int:
    if args.synthetic is not None:
        ds = make_synthetic_corpus(args.synthetic, 0.5, args.seed)
    else:
        ds = load_csv(args.data, dedup=args.dedup)
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        initial_lr=args.lr,
        seed=args.seed,
    )
    pair = split(ds, SPLIT_RATIO, args.seed, stratify=args.stratify)
    model = build_model(
        default_config(
            args.cell,
            max_len=args.max_len,
            embed_dim=args.embed,
            hidden_dim=args.hidden,
            seed=args.seed,
        )
    )
    model.threshold = args.threshold
    history_path = args.history or args.out + ".history.jsonl"
    best, history = train(
        model,
        pair,
        cfg,
        checkpoint_dir=args.workdir,
        history_path=history_path,
        log=log,
    )
    save_model(best, args.out)
    # latency is measured by `bench`, not here: the metrics JSON must be
    # byte-identical across reruns with the same flags
    report = evaluate(best, pair.test)
    out = report.to_dict()
    out["epochs_run"] = len(history)
    out["model_path"] = args.out
    print(_json(out))
    return 0


def cmd_eval(args) -> int:
    model = _scored_model(args.model, args.threshold)
    ds = load_csv(args.data)
    report = evaluate(model, ds)
    urls = [url for url, _ in ds.records[:LATENCY_SAMPLE]]
    report.mean_inference_seconds = bench_inference(model, urls, len(urls))["mean"]
    print(_json(report.to_dict()))
    return 0


def cmd_predict(args) -> int:
    model = _scored_model(args.model, args.threshold)
    vocab = default_vocab()
    if args.stdin and hasattr(sys.stdin, "reconfigure"):  # a text stream without it is decoded already
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    urls = (line.rstrip("\r\n") for line in text_lines(sys.stdin, "<stdin>")) if args.stdin else [args.url]
    for url in urls:
        print(_json(_answer(model, url, vocab)))
    return 0


_SAMPLE_URLS = [
    "https://www.example.com/index",
    "http://login-secure-update.example.net/account",
    "https://news.site.org/articles/today",
]


def cmd_bench(args) -> int:
    model = _scored_model(args.model)
    if args.urls:
        with open(args.urls, encoding="utf-8") as fh:
            urls = [line.strip() for line in text_lines(fh, args.urls) if line.strip()]
        if not urls:
            log(f"bench: no URLs in {args.urls}")
            return 2
    else:
        urls = _SAMPLE_URLS
    stats = bench_inference(model, urls, args.reps)
    print(_json(stats))
    return 0


def cmd_synth(args) -> int:
    ds = make_synthetic_corpus(args.n, args.fraction, args.seed)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(ds.records)
    with atomic_write(args.out) as fh:
        fh.write(text.getvalue().encode("utf-8"))
    print(_json({"written": len(ds), "path": args.out}))
    return 0


def make_handler(model: ModelGraph):
    vocab = default_vocab()

    class Handler(BaseHTTPRequestHandler):
        # a request line without a version is answered as HTTP/1.0, not 0.9:
        # every reply carries its status line and headers
        default_request_version = "HTTP/1.0"

        def log_message(self, fmt, *args):  # route access logs to stderr
            log("%s - %s" % (self.address_string(), fmt % args))

        def _reply(self, code: int, text: str) -> None:
            body = text.encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def send_error(self, code, message=None, explain=None):
            """Every error reply, the handler's own and http.server's (414,
            431, 501, 505, ...), is {"error": message} JSON."""
            self._reply(code, _json({"error": message or self.responses[code][0]}))

        def do_GET(self):
            if self.path == "/health":
                self._reply(200, _json({"status": "ok", "model_loaded": True}))
            else:
                self.send_error(404, "not found")

        def parse_request(self):
            # then a POST's body, whatever its path, unless do_POST answers
            # its Content-Length 400 or 413 without reading a body
            if not super().parse_request():
                return False
            # Content-Length is 1*DIGIT in one field (RFC 9110 8.6), or -1
            value = ", ".join(self.headers.get_all("Content-Length", ["0"])).strip()
            try:
                self.length = int(value) if value.isascii() and value.isdigit() else -1
            except ValueError:  # more digits than int() converts
                self.length = -1
            post = self.command == "POST" and 0 <= self.length <= MAX_REQUEST_BODY
            self.body = self.rfile.read(self.length) if post else b""
            return True

        def do_POST(self):
            if self.path != "/check":
                self.send_error(404, "not found")
                return
            if self.length < 0:  # reply without reading a body of unknown size
                self.send_error(400, "bad request: invalid Content-Length")
                return
            if self.length > MAX_REQUEST_BODY:
                self.send_error(413, "request body too large")
                return
            try:
                payload = json.loads(self.body)
                url = payload["url"]
                if not isinstance(url, str):
                    raise TypeError("url must be a string")
            except (ValueError, KeyError, TypeError, RecursionError) as e:
                # RecursionError: json nests deeper than the parser's stack
                self.send_error(400, f"bad request: {e}")
                return
            try:
                body = _json(_answer(model, url, vocab))
            except Exception:  # the server keeps running; the client gets a JSON reply
                sys.stderr.write(traceback.format_exc())
                self.send_error(500, "internal error")
                return
            self._reply(200, body)

    return Handler


def cmd_serve(args) -> int:
    model = _scored_model(args.model, args.threshold)
    return serve(args.bind, make_handler(model))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except PhishDefenseError as e:
        log(f"error: {e}")
        return 1
    except OSError as e:
        log(f"i/o error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
