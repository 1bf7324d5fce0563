import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import param_count, patch_header, patch_payload
from phishdefense.codec import MAX_LEN, default_vocab
from phishdefense.errors import (
    ModelCorruptionError,
    ModelFormatError,
    ModelVersionError,
)
from phishdefense.model import ModelConfig, build_model, default_config, predict
from phishdefense.store import atomic_write, load_model, save_model, tensor_order

VOCAB = default_vocab()


def small_model(cell="gru", seed=0):
    return build_model(
        ModelConfig(
            cell_kind=cell,
            embed_dim=6,
            hidden_dim=8,
            dense_dims=(4, 2) if cell == "gru" else (1,),
            dropout_rate=0.2,
            max_len=30,
            seed=seed,
        )
    )


def narrowed(model):
    m = model.copy()
    m.params = {k: v.astype(np.float32).astype(np.float64) for k, v in m.params.items()}
    return m


def random_urls(n, rng):
    chars = "abcdefghijklmnopqrstuvwxyz0123456789-._/:@"
    return [
        "".join(rng.choice(list(chars), size=rng.integers(5, 25)))
        for _ in range(n)
    ]


class TestSaveModel:
    def test_file_size_matches_arithmetic(self, tmp_path):
        import struct

        m = small_model()
        path = str(tmp_path / "m.pdm")
        written = save_model(m, path)
        header = struct.calcsize("<BIIIIffI") + 4 * len(m.config.dense_dims)
        expected = 12 + header + 4 * param_count(m) + 4
        assert written == expected
        assert os.path.getsize(path) == expected

    def test_unwritable_path_no_partial_file(self, tmp_path):
        target_dir = tmp_path / "does" / "not" / "exist"
        with pytest.raises(IOError):
            save_model(small_model(), str(target_dir / "m.pdm"))
        assert not target_dir.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failed_atomic_write_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write(b"new")
                raise RuntimeError("writer failed")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]
        with atomic_write(str(target)) as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_a_weight_not_finite_in_float32_is_refused(self, tmp_path, value):
        # 1e300 is finite in float64 and inf once narrowed to float32
        m = small_model("lstm")
        m.params["cell.U_o"][1, 2] = value
        path = tmp_path / "m.pdm"
        with pytest.raises(ModelFormatError, match=r"m\.pdm: tensor cell\.U_o holds a value that is not finite$"):
            save_model(m, str(path))
        assert os.listdir(tmp_path) == []

    def test_save_twice_byte_identical(self, tmp_path):
        m = small_model()
        p1, p2 = str(tmp_path / "a.pdm"), str(tmp_path / "b.pdm")
        save_model(m, p1)
        save_model(m, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestLoadModel:
    def test_roundtrip_matches_narrowed_model_exactly(self, tmp_path, rng):
        for cell in ("lstm", "gru"):
            m = small_model(cell)
            path = str(tmp_path / f"{cell}.pdm")
            save_model(m, path)
            loaded = load_model(path)
            ref = narrowed(m)
            for url in random_urls(100, rng):
                assert predict(loaded, url, VOCAB) == predict(ref, url, VOCAB)

    def test_roundtrip_drift_vs_float64_source(self, tmp_path, rng):
        m = small_model("gru")
        path = str(tmp_path / "m.pdm")
        save_model(m, path)
        loaded = load_model(path)
        for url in random_urls(100, rng):
            _, s64 = predict(m, url, VOCAB)
            _, s32 = predict(loaded, url, VOCAB)
            assert abs(s64 - s32) <= 1e-5

    def test_config_and_threshold_roundtrip(self, tmp_path):
        m = small_model("lstm")
        m.threshold = 0.7
        path = str(tmp_path / "m.pdm")
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.config.cell_kind == "lstm"
        assert loaded.config.dense_dims == m.config.dense_dims
        assert loaded.config.max_len == m.config.max_len
        assert loaded.threshold == pytest.approx(0.7, abs=1e-7)

    @pytest.mark.parametrize("threshold", [float("nan"), -0.5, 1.5])
    def test_threshold_outside_unit_interval_refused(self, tmp_path, threshold):
        path = tmp_path / "m.pdm"
        save_model(small_model(), str(path))
        # save_model refuses such a threshold, so the header is patched
        path.write_bytes(patch_header(path.read_bytes(), 6, threshold))
        with pytest.raises(ModelFormatError, match=r"threshold .* outside \[0, 1\]"):
            load_model(str(path))

    @pytest.mark.parametrize("threshold", [float("nan"), -0.5, 1.5])
    def test_save_refuses_a_threshold_that_load_refuses(self, tmp_path, threshold):
        m = small_model()
        m.threshold = threshold
        with pytest.raises(ModelFormatError, match=r"threshold .* outside \[0, 1\]"):
            save_model(m, str(tmp_path / "m.pdm"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("max_len", [MAX_LEN + 1, 2**32 - 1])
    def test_max_len_above_the_codec_limit_refused(self, tmp_path, max_len):
        path = tmp_path / "m.pdm"
        save_model(small_model(), str(path))
        blob = path.read_bytes()
        path.write_bytes(patch_header(blob, 4, MAX_LEN))
        assert load_model(str(path)).config.max_len == MAX_LEN
        path.write_bytes(patch_header(blob, 4, max_len))
        with pytest.raises(ModelFormatError, match=f"max_len {max_len} above the codec's limit of {MAX_LEN}"):
            load_model(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_weight_that_is_not_finite_is_refused_after_the_crc(self, tmp_path, value):
        m = small_model("gru")
        path = tmp_path / "m.pdm"
        save_model(m, str(path))
        # the first float after the embedding is cell.W_z[0, 0]
        at = m.params["embed"].size
        path.write_bytes(patch_payload(path.read_bytes(), at, value))
        with pytest.raises(ModelFormatError, match=r"tensor cell\.W_z holds a value that is not finite$"):
            load_model(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pdm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_unknown_version(self, tmp_path):
        m = small_model()
        path = str(tmp_path / "m.pdm")
        save_model(m, path)
        blob = bytearray(Path(path).read_bytes())
        blob[4] = 99
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(str(path))

    def test_every_single_byte_flip_detected(self, tmp_path):
        m = small_model("gru", seed=1)
        path = str(tmp_path / "m.pdm")
        save_model(m, path)
        blob = bytearray(Path(path).read_bytes())
        rng = np.random.default_rng(0)
        # payload region: flips must raise corruption (or format for header bytes)
        for _ in range(200):
            pos = int(rng.integers(12, len(blob)))
            orig = blob[pos]
            blob[pos] ^= 0xFF
            Path(path).write_bytes(bytes(blob))
            with pytest.raises(ModelFormatError):
                load_model(str(path))
            blob[pos] = orig

    def test_truncation_fuzz_never_crashes(self, tmp_path):
        m = small_model("gru", seed=2)
        path = str(tmp_path / "m.pdm")
        save_model(m, path)
        blob = Path(path).read_bytes()
        rng = np.random.default_rng(1)
        cuts = set(int(c) for c in rng.integers(0, len(blob), size=1000))
        for cut in cuts:
            trunc = tmp_path / "t.pdm"
            trunc.write_bytes(blob[:cut])
            with pytest.raises((ModelFormatError, IOError)):
                load_model(str(trunc))

    def test_garbage_fuzz_never_crashes(self, tmp_path):
        rng = np.random.default_rng(2)
        for k in range(100):
            path = tmp_path / "g.pdm"
            size = int(rng.integers(0, 400))
            path.write_bytes(rng.integers(0, 256, size=size, dtype=np.uint8).tobytes())
            with pytest.raises((ModelFormatError, IOError)):
                load_model(str(path))


class TestTensorOrder:
    def test_order_is_stable_and_complete(self):
        m = small_model("lstm")
        names = tensor_order(m.config)
        assert names[0] == "embed"
        assert set(names) == set(m.params.keys())


# SHA-256 of the PDM1 bytes of freshly built default models. Weight
# initialization, tensor order and layout must not drift.
PDM1_SHA256 = {
    ("gru", 0): "9ce28688d3c6b86d6af90e9a888df6c81156f4ccd777358582dafd469435cc15",
    ("gru", 7): "43ed84b688dc660093aabd6126c3cc59fdb5b5d19d7b1b1472b7f91859e8fb58",
    ("lstm", 0): "b3eb479a8b1854443c002bc1d35477cc685a63ac09e6fba018c19ecfaa952f52",
    ("lstm", 7): "9df7bfbe88228cd061e93b348ed53f8c1d2759234e5870fccdec4c9cc55a2dca",
}


@pytest.mark.parametrize("cell,seed", sorted(PDM1_SHA256))
def test_fresh_model_bytes_are_pinned(cell, seed, tmp_path):
    path = tmp_path / "m.pdm"
    save_model(build_model(default_config(cell, seed=seed)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PDM1_SHA256[(cell, seed)]
