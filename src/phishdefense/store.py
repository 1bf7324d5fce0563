"""PDM1 compact binary model format for edge deployment.

Byte layout (all integers little-endian):

    offset  size  field
    0       4     magic "PDM1"
    4       4     format version (uint32, currently 1)
    8       4     header length in bytes (uint32)
    12      H     header:
                    cell_kind   uint8   (0 = lstm, 1 = gru)
                    vocab_size  uint32
                    embed_dim   uint32
                    hidden_dim  uint32
                    max_len     uint32
                    dropout     float32
                    threshold   float32
                    n_dense     uint32
                    dense dims  uint32 x n_dense
    12+H    4*P   payload: parameter tensors as float32, row-major, in
                  declared order (embedding, cell tensors, dense w/b pairs)
    end-4   4     CRC32 of header + payload
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from typing import BinaryIO, Iterator, List, Tuple

import numpy as np

from .errors import (
    ConfigError,
    ModelCorruptionError,
    ModelFormatError,
    ModelVersionError,
)
from .layers import CELLS
from .model import ModelConfig, ModelGraph

MAGIC = b"PDM1"
VERSION = 1
_CELL_CODES = {"lstm": 0, "gru": 1}
_CELL_NAMES = {v: k for k, v in _CELL_CODES.items()}
# the header's fixed fields, cell_kind through n_dense; the dense dims follow
_FIXED_HEADER = struct.Struct("<BIIIIffI")


def _tensor_shapes(cfg: ModelConfig) -> List[Tuple[str, Tuple[int, ...]]]:
    """Name and shape of every parameter tensor, in the fixed serialization
    order: embedding, cell tensors, dense w/b pairs."""
    shapes = [("embed", (cfg.vocab_size, cfg.embed_dim))]
    cell = CELLS[cfg.cell_kind].shapes(cfg.embed_dim, cfg.hidden_dim)
    shapes += [(f"cell.{n}", shape) for n, shape in cell]
    dims = (cfg.hidden_dim,) + tuple(cfg.dense_dims)
    for k in range(len(cfg.dense_dims)):
        shapes += [(f"dense{k}.w", dims[k : k + 2]), (f"dense{k}.b", dims[k + 1 : k + 2])]
    return shapes


def tensor_order(cfg: ModelConfig) -> List[str]:
    """The fixed serialization order of every parameter tensor."""
    return [name for name, _ in _tensor_shapes(cfg)]


def _check_threshold(path: str, threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # NaN fails too
        raise ModelFormatError(f"{path}: threshold {threshold} outside [0, 1]")


def _pack_header(cfg: ModelConfig, threshold: float) -> bytes:
    head = _FIXED_HEADER.pack(
        _CELL_CODES[cfg.cell_kind],
        cfg.vocab_size,
        cfg.embed_dim,
        cfg.hidden_dim,
        cfg.max_len,
        cfg.dropout_rate,
        threshold,
        len(cfg.dense_dims),
    )
    return head + struct.pack(f"<{len(cfg.dense_dims)}I", *cfg.dense_dims)


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """A binary file beside path, renamed over it once the with-block completes
    and removed if it fails: a reader never sees a partial file."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")  # x: never another writer's temp file
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_finite(path: str, name: str, tensor: np.ndarray) -> None:
    # a NaN weight would score every URL NaN, and NaN > threshold calls it legitimate
    if not np.isfinite(tensor).all():
        raise ModelFormatError(f"{path}: tensor {name} holds a value that is not finite")


def save_model(m: ModelGraph, path: str) -> int:
    """Write the model atomically; returns bytes written. A weight that is
    not finite in float32 (NaN, or beyond its range) is refused, as
    load_model would refuse the file."""
    _check_threshold(path, m.threshold)
    header = _pack_header(m.config, m.threshold)
    tensors = []
    for name in tensor_order(m.config):
        with np.errstate(over="ignore"):  # beyond float32's range is inf: refused next
            tensors.append(np.ascontiguousarray(m.params[name], dtype="<f4"))
        _check_finite(path, name, tensors[-1])
    payload = b"".join(t.tobytes() for t in tensors)
    body = header + payload
    blob = (
        MAGIC
        + struct.pack("<II", VERSION, len(header))
        + body
        + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    )
    try:
        with atomic_write(path) as fh:
            fh.write(blob)
    except OSError as e:
        raise IOError(f"cannot write model to {path}: {e}") from e
    return len(blob)


def load_model(path: str) -> ModelGraph:
    """Read a PDM1 file back into a graph (weights widened to f64). A file
    whose CRC holds but whose weights are not all finite is refused."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise IOError(f"cannot read model from {path}: {e}") from e
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise ModelFormatError(f"{path}: not a PDM1 file")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ModelVersionError(f"{path}: unsupported format version {version}")
    if len(blob) < 12 + header_len + 4:
        raise ModelFormatError(f"{path}: truncated header")
    body = blob[12:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    header = blob[12 : 12 + header_len]
    fixed = _FIXED_HEADER.size
    if header_len < fixed:
        raise ModelFormatError(f"{path}: header too short ({header_len} bytes)")
    cell_code, vocab, embed, hidden, max_len, drop, threshold, n_dense = _FIXED_HEADER.unpack_from(header)
    if cell_code not in _CELL_NAMES:
        raise ModelFormatError(f"{path}: unknown cell code {cell_code}")
    _check_threshold(path, threshold)
    if header_len != fixed + 4 * n_dense:
        raise ModelFormatError(f"{path}: header length inconsistent with {n_dense} dense dims")
    dense_dims = struct.unpack_from(f"<{n_dense}I", header, fixed)
    try:
        cfg = ModelConfig(
            cell_kind=_CELL_NAMES[cell_code],
            vocab_size=vocab,
            embed_dim=embed,
            hidden_dim=hidden,
            dense_dims=tuple(int(d) for d in dense_dims),
            dropout_rate=float(np.float32(drop)),
            max_len=max_len,
        )
        cfg.validate()
    except ConfigError as e:
        raise ModelFormatError(f"{path}: invalid header: {e}") from e
    shapes = _tensor_shapes(cfg)
    payload_len = 4 * sum(math.prod(s) for _, s in shapes)
    if len(blob) != 12 + header_len + payload_len + 4:
        raise ModelFormatError(
            f"{path}: payload size {len(blob) - 16 - header_len} != expected {payload_len}"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ModelCorruptionError(f"{path}: CRC mismatch, file is corrupt")
    params = {}
    offset = 12 + header_len
    for name, shape in shapes:
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        _check_finite(path, name, arr)
        params[name] = arr.astype(np.float64).reshape(shape)
        offset += 4 * count
    return ModelGraph(config=cfg, params=params, threshold=float(threshold))
