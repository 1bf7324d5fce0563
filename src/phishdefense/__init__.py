"""Character-level LSTM/GRU phishing URL classifier, trained from scratch."""

from .codec import EncodedUrl, Vocab, default_vocab, encode_url
from .data import LabeledDataset, SplitPair, batches, load_csv, split
from .model import (
    ModelConfig,
    ModelGraph,
    backward_batch,
    bce_loss,
    build_model,
    default_config,
    forward_batch,
    predict,
)
from .store import load_model, save_model
from .train import (
    EpochRecord,
    MetricsReport,
    TrainConfig,
    bench_inference,
    evaluate,
    make_synthetic_corpus,
    plateau,
    train,
)

__version__ = "0.1.0"
