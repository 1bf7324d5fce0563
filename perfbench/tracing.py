"""Outside-in tracing of phishdefense, installed from the benchmark's own files.

`install` wraps every public function of the layer modules and rebinds the
wrapper wherever the package holds the original, including names a caller
imported with `from .x import y`. Each call records a span (name, start,
end, parent span, request id) in per-thread arrays; nothing is written
until `save` is called. Nothing under the program's source changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

from loadgen import REQUEST_HEADER
from timing import self_times

LAYERS = ("codec", "data", "layers", "tensor", "model", "train", "store", "cli")
CALIBRATION_CALLS = 20000  # no-op calls per timing of span_cost
# Per-thread array typecode and flat dtype of each span field.
_FIELDS = {
    "name": ("i", np.int64),
    "parent": ("i", np.int64),
    "rid": ("q", np.int64),
    "start": ("d", np.float64),
    "end": ("d", np.float64),
}


class _ThreadLog:
    """Spans of one thread, as parallel arrays, plus its open-span stack."""

    def __init__(self) -> None:
        for key, (code, _) in _FIELDS.items():
            setattr(self, key, array(code))
        self.stack: List[int] = []
        self.request_id = -1


class Tracer:
    """Span recorder shared by all threads; each thread appends to its own log."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._logs: List[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def set_request(self, request_id: int) -> None:
        """Tag the spans this thread opens from now on with request_id."""
        self._log().request_id = request_id

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def enter(self, nid: int):
        log = self._log()
        idx = len(log.start)
        log.name.append(nid)
        log.parent.append(log.stack[-1] if log.stack else -1)
        log.rid.append(log.request_id)
        log.end.append(0.0)
        log.stack.append(idx)
        log.start.append(time.perf_counter())
        return log, idx

    @staticmethod
    def leave(log: _ThreadLog, idx: int) -> None:
        log.end[idx] = time.perf_counter()
        log.stack.pop()

    def wrap(self, name: str, fn: Callable, observe: Callable = None) -> Callable:
        """A span around every call of fn; observe(tracer, args, kwargs, result) runs after."""
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log, idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(log, idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A span around each item the consumer waits for; counts rows per item."""
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                log, idx = enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(log, idx)
                self.count(f"{name}.rows", len(item[0]))
                yield item

        return traced

    def snapshot(self) -> Dict[str, np.ndarray]:
        """All spans as flat arrays whose parents index the flat order.

        A span still open is cut at the moment of the snapshot.
        """
        now = time.perf_counter()
        parts = {key: [] for key in _FIELDS}
        offset = 0
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            n = len(log.start)  # start is appended last in enter()
            for key, (_, dtype) in _FIELDS.items():
                parts[key].append(np.array(getattr(log, key)[:n], dtype=dtype))
            parent = parts["parent"][-1]
            parts["parent"][-1] = np.where(parent >= 0, parent + offset, -1)
            offset += n
        out = {k: np.concatenate(v) if v else np.zeros(0, dtype=_FIELDS[k][1]) for k, v in parts.items()}
        out["end"] = np.where(out["end"] > 0, out["end"], now)
        return out

    def save(self, path: str) -> None:
        save(path, self.snapshot(), self.names, dict(self.counters), dict(self.samples))


def save(path: str, spans: Dict[str, np.ndarray], names, counters, samples) -> None:
    """Write spans, counters and samples to an .npz file."""
    meta = {"names": list(names), "counters": counters, "samples": samples}
    np.savez_compressed(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **spans)


def load(path: str):
    """Read a file written by Tracer.save: (spans, names, counters, samples)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        spans = {k: data[k] for k in _FIELDS}
    return spans, meta["names"], meta["counters"], meta["samples"]


def layer_table(spans: Dict[str, np.ndarray], names: List[str]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    table = {}
    for nid, name in enumerate(names):
        sel = spans["name"] == nid
        table[name] = {
            "calls": int(np.count_nonzero(sel)),
            "s": float(dur[sel].sum()),
            "self_s": float(own[sel].sum()),
        }
    return table


def _observe_scan(tracer: Tracer, args, kwargs, result) -> None:
    # gru_forward / lstm_forward(p, xs, lens=None, ...): the scan runs every
    # row for every step of xs; only steps below a row's true length are useful.
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    lens = args[2] if len(args) > 2 else kwargs.get("lens")
    shape = np.shape(xs)
    rows, steps = (1, shape[0]) if len(shape) == 2 else (shape[0], shape[1])
    useful = rows * steps if lens is None else int(np.minimum(np.asarray(lens), steps).sum())
    tracer.count("layers.scan_steps_run", rows * steps)
    tracer.count("layers.scan_steps_useful", useful)


def _observe_rows(tracer: Tracer, args, kwargs, result) -> None:
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    tracer.samples["model.forward_batch.rows"].append(int(np.atleast_2d(ids).shape[0]))


def _observe_handler(tracer: Tracer, args, kwargs, handler_cls) -> None:
    """Time each POST /check on the server thread that answers it."""
    nid = tracer.name_id("cli.handler")
    do_post = handler_cls.do_POST

    def traced_post(handler):
        try:
            rid = int(handler.headers.get(REQUEST_HEADER, "-1"))
        except ValueError:
            rid = -1
        tracer.set_request(rid)
        log, idx = tracer.enter(nid)
        try:
            do_post(handler)
        finally:
            tracer.leave(log, idx)

    handler_cls.do_POST = traced_post


_OBSERVERS = {
    "layers.gru_forward": _observe_scan,
    "layers.lstm_forward": _observe_scan,
    "model.forward_batch": _observe_rows,
    "cli.make_handler": _observe_handler,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of every layer module; returns the undo."""
    modules = {layer: importlib.import_module(f"phishdefense.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(obj):
                wrappers[obj] = tracer.wrap_generator(name, obj)
            else:
                wrappers[obj] = tracer.wrap(name, obj, _OBSERVERS.get(name))
    rebound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "phishdefense" and not mod_name.startswith("phishdefense."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                rebound.append((mod, attr, obj))

    def uninstall() -> None:
        for mod, attr, obj in rebound:
            setattr(mod, attr, obj)

    return uninstall


def span_cost() -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        t1 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
    return max(best, 0.0)
