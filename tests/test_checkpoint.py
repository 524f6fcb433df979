"""Checkpoint container: round-trip fidelity and corruption detection."""
import numpy as np
import pytest

from recgpt.checkpoint import MAGIC, CheckpointError, load, save

from conftest import rewrite_manifest


def sample_tensors(rng):
    return {
        "a": rng.standard_normal((3, 4)).astype(np.float32),
        "b": rng.standard_normal(7).astype(np.float64),
        "c": rng.integers(0, 100, size=(2, 2)).astype(np.int64),
    }


def test_round_trip_bit_identical(tmp_path, rng):
    tensors = sample_tensors(rng)
    path = tmp_path / "model.ckpt"
    save(path, tensors, stage="pretrain", config_hash="abc123", meta={"k": 1})
    loaded, manifest = load(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].dtype == tensors[name].dtype
        assert np.array_equal(loaded[name], tensors[name])
    assert manifest["stage"] == "pretrain"
    assert manifest["config_hash"] == "abc123"
    assert manifest["meta"] == {"k": 1}


def test_flipped_blob_byte_detected(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save(path, sample_tensors(rng), stage="pretrain", config_hash="abc")
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load(path)


def test_truncated_file_detected(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save(path, sample_tensors(rng), stage="pretrain", config_hash="abc")
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(CheckpointError):
        load(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="not a recgpt checkpoint"):
        load(path)
    assert len(MAGIC) == 8


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load(tmp_path / "missing.ckpt")


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        save(tmp_path / "bad.ckpt", {"x": np.zeros(3, dtype=np.float16)},
             stage="s", config_hash="h")


def test_blob_sha256_stable(tmp_path, rng):
    tensors = sample_tensors(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save(p1, tensors, stage="s", config_hash="h1")
    save(p2, tensors, stage="s", config_hash="h2")
    # the hash covers tensors, not metadata
    assert load(p1)[1]["blob_sha256"] == load(p2)[1]["blob_sha256"]


def _entry(key, value):
    def edit(manifest):
        manifest["tensors"]["a"][key] = value
    return edit


@pytest.mark.parametrize("edit,match", [
    (lambda m: m.pop("blob_length"), "blob_length"),
    (lambda m: m.update(blob_length="156"), "blob_length"),
    (lambda m: m.update(tensors=[]), "tensors"),
    (lambda m: m["tensors"].update(a=[0, 48]), "tensor a: directory entry"),
    (_entry("dtype", "|O"), "tensor a: dtype"),
    (_entry("shape", [3, 3]), "tensor a: 48 bytes do not hold shape"),
    (_entry("shape", [-3, -4]), "tensor a: shape"),
    (_entry("shape", "3x4"), "tensor a: shape"),
    (_entry("offset", -8), "tensor a: offset and length"),
    (_entry("offset", 1.5), "tensor a: offset and length"),
    (_entry("length", 10**6), "tensor a: offset and length"),
    (_entry("length", 40), "tensor a: 40 bytes"),
], ids=["blob_length_missing", "blob_length_str", "tensors_not_a_dict", "entry_not_a_dict",
        "object_dtype", "shape_too_big", "negative_shape", "shape_not_a_list",
        "negative_offset", "float_offset", "length_past_blob", "length_short_of_shape"])
def test_directory_that_does_not_fit_the_blob_rejected(tmp_path, rng, edit, match):
    path = tmp_path / "model.ckpt"
    save(path, sample_tensors(rng), stage="pretrain", config_hash="abc")
    rewrite_manifest(path, edit)
    with pytest.raises(CheckpointError, match=match) as info:
        load(path)
    assert str(path) in str(info.value)
