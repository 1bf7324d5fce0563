"""Training loop, plateau rate decay and early stopping, metrics, synthetic corpus."""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import zipfile
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .codec import Vocab, default_vocab
from .data import LabeledDataset, SplitPair, batches
from .errors import ConfigError, DataError, ModelFormatError, NumericError
from .model import ModelGraph, backward_batch, bce_loss, forward_batch, predict, score_batch
from .store import atomic_write, save_model
from .tensor import AdamState, adam_step

IMPROVE_TOL = 1e-6
# the reference regimen: plateau decay of the rate, its floor, early stopping
# and the train/test split are fixed; TrainConfig holds what a run may vary
LR_FACTOR = 0.1
LR_PATIENCE = 5
MIN_LR = 1e-5
EARLY_STOP_PATIENCE = 6
SPLIT_RATIO = 0.75
MIN_CORPUS = 10  # smallest synthetic corpus
EVAL_BATCH = 1000
BENCH_WARMUP = 3  # untimed predict calls before bench_inference measures
_GROUPS = ("cur", "best", "m1", "m2")  # a checkpoint's current and best weights, Adam's moments


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 500
    initial_lr: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        if not self.initial_lr >= MIN_LR:
            raise ValueError(f"initial_lr must be >= {MIN_LR:g}, got {self.initial_lr}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float
    lr: float
    wall_time: float


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f_score: float
    confusion: Tuple[int, int, int, int]  # TP, FP, TN, FN
    mean_inference_seconds: Optional[float] = None

    def to_dict(self) -> Dict:
        d = asdict(self)
        d["confusion"] = {
            "TP": self.confusion[0],
            "FP": self.confusion[1],
            "TN": self.confusion[2],
            "FN": self.confusion[3],
        }
        return d


def plateau(initial_lr: float, losses: Sequence[float]) -> Tuple[float, bool]:
    """The rate and the stop decision after the given training losses.

    A loss below the running best by more than IMPROVE_TOL improves it; every
    LR_PATIENCE-th epoch since the last improvement multiplies the rate by
    LR_FACTOR, floored at MIN_LR, and EARLY_STOP_PATIENCE of them stop.
    """
    lr, best, stagnant = initial_lr, float("inf"), 0
    for loss in losses:
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss {loss}")
        if loss < best - IMPROVE_TOL:
            best, stagnant = loss, 0
        else:
            stagnant += 1
            if stagnant % LR_PATIENCE == 0:
                lr = max(lr * LR_FACTOR, MIN_LR)
    return lr, stagnant >= EARLY_STOP_PATIENCE


def _score(
    m: ModelGraph, ds: LabeledDataset, vocab: Vocab, threshold: float
) -> Tuple[Tuple[int, int, int, int], float]:
    """The evaluation loop: one forward-only pass over ds in batches of EVAL_BATCH.

    Returns the confusion counts (TP, FP, TN, FN) at threshold and the mean
    binary cross-entropy.
    """
    tp = fp = tn = fn = 0
    total_loss = 0.0
    for ids, lens, labels in batches(ds, EVAL_BATCH, 0, vocab, m.config.max_len):
        probs = score_batch(m, ids, lens)
        loss, _ = bce_loss(labels.astype(np.float64), probs)
        total_loss += loss * len(labels)
        pred = (probs > threshold).astype(np.int64)
        tp += int(np.sum((pred == 1) & (labels == 1)))
        fp += int(np.sum((pred == 1) & (labels == 0)))
        tn += int(np.sum((pred == 0) & (labels == 0)))
        fn += int(np.sum((pred == 0) & (labels == 1)))
    return (tp, fp, tn, fn), total_loss / len(ds)


def _run_identity(m: ModelGraph, cfg: TrainConfig, data: SplitPair) -> Dict[str, Dict]:
    """What a resumed run must share with its checkpoint, as JSON values:
    the model config, the training config (all but epochs, so a run can be
    extended) and SHA-256 digests of the train and test records."""
    train_cfg = {k: v for k, v in asdict(cfg).items() if k != "epochs"}
    digests = {
        f"{name}_sha256": hashlib.sha256(
            json.dumps([[url, int(label)] for url, label in ds.records]).encode()
        ).hexdigest()
        for name, ds in (("train", data.train), ("test", data.test))
    }
    return json.loads(json.dumps(
        {"config": asdict(m.config), "train_config": train_cfg, "data": digests}
    ))


def _save_checkpoint(path: str, m: ModelGraph, best: ModelGraph, adam: AdamState,
                     history: List[EpochRecord], run: Dict[str, Dict]) -> None:
    """The run's identity, its history and the four tensor groups: Adam's
    rate and step and the stop decision replay from the history."""
    epoch = history[-1].epoch
    groups = (m.params, best.params, adam.first_moment, adam.second_moment)
    tensors = {f"{part}.{k}": v for part, g in zip(_GROUPS, groups) for k, v in g.items()}
    meta = json.dumps({**run, "history": [asdict(r) for r in history]})
    with atomic_write(path) as fh:
        np.savez(fh, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8), **tensors)
    ckdir = os.path.dirname(path) or "."
    save_model(m, os.path.join(ckdir, f"ck_epoch{epoch}.pdm"))
    # prune weight checkpoints to best + latest
    keep = {f"ck_epoch{epoch}.pdm", f"ck_epoch{_best_epoch(history)}.pdm"}
    for name in os.listdir(ckdir):
        if name.startswith("ck_epoch") and name.endswith(".pdm") and name not in keep:
            os.remove(os.path.join(ckdir, name))


def _best_epoch(history: List[EpochRecord]) -> int:
    """The first epoch of the highest validation accuracy."""
    return max(history, key=lambda r: (r.val_accuracy, -r.epoch)).epoch


def _write_history(path: str, history: Sequence[EpochRecord]) -> None:
    """Rewrite the JSONL history file whole: it holds exactly the run's records."""
    with atomic_write(path) as fh:
        fh.write("".join(json.dumps(asdict(r), allow_nan=False) + "\n" for r in history).encode())


_RUN_PARTS = {"config": "model config", "train_config": "training config", "data": "data digest"}


def _load_checkpoint(path: str, m: ModelGraph, run: Dict[str, Dict]):
    """The current and best weights, Adam's two moments and the history."""
    try:  # np.load reads members lazily: the member reads can fail too
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            tensors = {k: data[k] for k in data.files if k != "__meta__"}
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as e:
        raise ModelFormatError(f"{path}: unreadable training checkpoint: {e!r}") from e
    if not isinstance(meta, dict):
        raise ModelFormatError(f"{path}: checkpoint meta is not a JSON object")
    differ = []
    for part, what in _RUN_PARTS.items():
        saved, want = meta.get(part), run[part]
        if saved is None:
            raise ConfigError(f"{path}: checkpoint records no {what}, cannot resume")
        if not isinstance(saved, dict):
            raise ModelFormatError(f"{path}: checkpoint {what} is not a JSON object")
        differ += [f"{k} {saved.get(k)!r} != {want.get(k)!r}"
                   for k in sorted(want.keys() | saved.keys()) if want.get(k) != saved.get(k)]
    if differ:
        raise ConfigError(f"{path}: checkpoint is from a different run: " + ", ".join(differ))
    # each group must hold exactly the model's parameters, finite float64 of
    # their shapes: a NaN weight or moment would train on as NaN
    shapes = {k: v.shape for k, v in m.params.items()}
    groups = {}
    for part in _GROUPS:
        groups[part] = {k[len(part) + 1:]: v for k, v in tensors.items() if k.startswith(part + ".")}
        got = {k: v.shape for k, v in groups[part].items()
               if v.dtype == np.float64 and np.isfinite(v).all()}
        bad = [f"{part}.{k}" for k in sorted(shapes.keys() | got.keys()) if shapes.get(k) != got.get(k)]
        if bad:
            raise ModelFormatError(
                f"{path}: checkpoint tensors do not match the model's parameters: " + ", ".join(bad)
            )
    try:
        history = [EpochRecord(**r) for r in meta["history"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ModelFormatError(f"{path}: incomplete training checkpoint meta: {e!r}") from e
    return (*groups.values(), [_checked_record(path, i, r) for i, r in enumerate(history)])


def _checked_record(path: str, i: int, r: EpochRecord) -> EpochRecord:
    """Record i, epoch i, with every other field a finite float (JSON ints widened)."""
    checked = {}
    for name, value in vars(r).items():
        kind = int if name == "epoch" else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) <= sys.float_info.max:
            raise ModelFormatError(f"{path}: checkpoint history {name} is not a finite number: {value!r:.40}")
        checked[name] = value if name == "epoch" else float(value)
    if r.epoch != i:
        raise ModelFormatError(f"{path}: checkpoint history record {i} is of epoch {r.epoch}")
    return EpochRecord(**checked)


def train(
    model: ModelGraph,
    data: SplitPair,
    cfg: TrainConfig,
    vocab: Optional[Vocab] = None,
    checkpoint_dir: Optional[str] = None,
    history_path: Optional[str] = None,
    log=None,
) -> Tuple[ModelGraph, List[EpochRecord]]:
    """Run the full regimen: Adam, plateau rate decay and early stopping.

    Each epoch's rate and stop decision are plateau() of the TRAINING losses
    before it; the returned model carries the weights from the best
    validation-accuracy epoch and the model's threshold. A checkpoint_dir that holds a checkpoint resumes it,
    so rerunning a finished run trains nothing; a checkpoint of another run
    is refused.
    """
    cfg.validate()
    vocab = vocab or default_vocab()
    max_len = model.config.max_len
    history: List[EpochRecord] = []
    best_model = model.copy()
    m1, m2 = {}, {}  # Adam makes zero moments at its first step
    state_path = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        state_path = os.path.join(checkpoint_dir, "train_state.npz")
        run = _run_identity(model, cfg, data)
        if os.path.exists(state_path):
            model.params, best, m1, m2, history = _load_checkpoint(state_path, model, run)
            best_model = ModelGraph(config=model.config, params=best, threshold=model.threshold)
    n_train = len(data.train)
    # the rest of the state replays from the history, alike for fresh and resumed runs
    adam = AdamState(step=len(history) * math.ceil(n_train / cfg.batch_size),
                     first_moment=m1, second_moment=m2)
    if history_path:
        _write_history(history_path, history)
    while len(history) < cfg.epochs:
        adam.alpha, stop = plateau(cfg.initial_lr, [r.train_loss for r in history])
        if stop:
            break
        epoch = len(history)  # history holds epochs 0..epoch-1
        t0 = time.perf_counter()
        epoch_seed = int(np.random.SeedSequence([cfg.seed, epoch]).generate_state(1)[0])
        total_loss = 0.0
        correct = 0
        # an overflow is named by the checks below (the gradients, the
        # weights, the losses), not by numpy's warnings on stderr
        with np.errstate(all="ignore"):
            for b_idx, (ids, lens, labels) in enumerate(
                batches(data.train, cfg.batch_size, epoch_seed, vocab, max_len)
            ):
                drop_seed = int(
                    np.random.SeedSequence([cfg.seed, epoch, b_idx, 7]).generate_state(1)[0]
                )
                probs, caches = forward_batch(model, ids, lens, mode="train", seed=drop_seed)
                try:
                    grads, loss = backward_batch(model, caches, labels)
                    model.params = adam_step(model.params, grads, adam)
                except NumericError as e:
                    raise NumericError(f"epoch {epoch} batch {b_idx}: {e}") from e
                # freed before the next batch's forward: at batch 500 the
                # default LSTM's caches hold about 110 MB
                del caches, grads
                if not np.isfinite(loss):
                    raise NumericError(f"epoch {epoch} batch {b_idx}: loss is {loss}")
                total_loss += loss * len(labels)
                correct += int(np.sum((probs > 0.5).astype(np.int64) == labels))
            train_loss = total_loss / n_train
            train_acc = correct / n_train
            (tp, _, tn, _), val_loss = _score(model, data.test, vocab, 0.5)
        if not np.isfinite(val_loss):
            raise NumericError(f"epoch {epoch}: validation loss is {val_loss}")
        val_acc = (tp + tn) / len(data.test)
        history.append(EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            train_accuracy=train_acc,
            val_loss=val_loss,
            val_accuracy=val_acc,
            lr=adam.alpha,
            wall_time=time.perf_counter() - t0,
        ))
        if history_path:
            _write_history(history_path, history)
        if log:
            log(
                f"epoch {epoch}: train_loss={train_loss:.4f} "
                f"train_acc={train_acc:.4f} val_loss={val_loss:.4f} "
                f"val_acc={val_acc:.4f} lr={adam.alpha:g}"
            )
        if _best_epoch(history) == epoch:
            best_model = model.copy()
        if state_path:
            _save_checkpoint(state_path, model, best_model, adam, history, run)
    return best_model, history


def evaluate(model: ModelGraph, ds: LabeledDataset) -> MetricsReport:
    """Confusion-matrix metrics at the model's threshold.

    Zero-denominator convention: precision and recall are 1 when their
    denominators are empty.
    """
    if len(ds) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    (tp, fp, tn, fn), _ = _score(model, ds, default_vocab(), model.threshold)
    n = len(ds)
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    f_score = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return MetricsReport(
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f_score=f_score,
        confusion=(tp, fp, tn, fn),
    )


_WORDS = (
    "news", "shop", "cloud", "mail", "photo", "blog", "store", "media", "data",
    "home", "travel", "music", "game", "forum", "wiki", "tech", "bank", "book",
    "green", "river", "stone", "maple", "cedar", "swift", "lunar", "solar",
    "alpha", "delta", "nova", "prime", "atlas", "orbit", "pixel", "quartz",
)
_TLDS = (".com", ".org", ".net", ".io", ".edu")
_MARKERS = ("-secure-login", "-account-verify", "-webscr-update", "-signin-confirm")


def _legit_url(rng: np.random.Generator) -> str:
    scheme = "https" if rng.random() < 0.7 else "http"
    host = rng.choice(_WORDS)
    if rng.random() < 0.4:
        host += rng.choice(_WORDS)
    tld = rng.choice(_TLDS)
    path = "/".join(rng.choice(_WORDS) for _ in range(rng.integers(0, 4)))
    url = f"{scheme}://www.{host}{tld}"
    return url + ("/" + path if path else "")


def _phish_url(rng: np.random.Generator) -> str:
    """Always plants at least one character-level phishing signal."""
    scheme = "http" if rng.random() < 0.7 else "https"
    host = str(rng.choice(_WORDS))
    signal = int(rng.integers(0, 4))
    if signal == 0:  # marker substring in the host
        host += str(rng.choice(_MARKERS))
    elif signal == 1:  # long hyphenated subdomain chain
        host = "-".join(str(rng.choice(_WORDS)) for _ in range(5)) + "." + host
    elif signal == 2:  # digit-heavy host
        host += "".join(str(rng.integers(0, 10)) for _ in range(8))
    else:  # userinfo '@' trick
        host = f"{rng.choice(_WORDS)}{rng.choice(_TLDS)[1:]}@{host}{rng.integers(100, 999)}"
    tld = rng.choice(_TLDS)
    path = "/".join(str(rng.choice(_WORDS)) for _ in range(rng.integers(0, 3)))
    url = f"{scheme}://{host}{tld}"
    return url + ("/" + path if path else "")


def make_synthetic_corpus(n: int, phish_fraction: float, seed: int) -> LabeledDataset:
    """Deterministic labeled corpus with learnable character-level signals."""
    if n < MIN_CORPUS:
        raise ValueError(f"corpus size must be >= {MIN_CORPUS}, got {n}")
    if not 0.0 <= phish_fraction <= 1.0:
        raise ValueError(f"phishing fraction must be in [0,1], got {phish_fraction}")
    rng = np.random.default_rng(seed)
    n_phish = int(round(n * phish_fraction))
    records = [(_phish_url(rng), 1) for _ in range(n_phish)]
    records += [(_legit_url(rng), 0) for _ in range(n - n_phish)]
    order = rng.permutation(len(records))
    return LabeledDataset(records=[records[i] for i in order])


def bench_inference(model: ModelGraph, urls: Sequence[str], repetitions: int) -> Dict[str, float]:
    """Wall-clock stats for single-URL predict calls; warm-ups excluded."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    vocab = default_vocab()
    for k in range(BENCH_WARMUP):
        predict(model, urls[k % len(urls)], vocab)
    samples = np.zeros(repetitions)
    for k in range(repetitions):
        t0 = time.perf_counter()
        predict(model, urls[k % len(urls)], vocab)
        samples[k] = time.perf_counter() - t0
    return {
        "mean": float(samples.mean()),
        "p50": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
        "repetitions": repetitions,
    }
