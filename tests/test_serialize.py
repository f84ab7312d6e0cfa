"""Binary tensor container: byte-level round trips and corruption checks."""

import errno
import os

import numpy as np
import pytest

from energyformer import model as md
from energyformer import serialize, verify


def test_round_trip_shapes_and_bits(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "scalar": np.array(3.25),
        "vec": rng.normal(size=7),
        "mat": rng.normal(size=(3, 5)),
        "cube": rng.normal(size=(2, 3, 4)),
        "neg_zero": np.array([-0.0, 0.0, 1e-308, -1e308]),
    }
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, tensors)
    loaded = serialize.load_tensors(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        got = loaded[name]
        assert got.shape == arr.shape
        assert got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(arr, dtype="<f8").tobytes()


def test_loaded_arrays_are_writable(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.arange(4.0)})
    arr = serialize.load_tensors(path)["a"]
    assert arr.flags.writeable
    arr[0] = 99.0  # must not raise


def test_empty_container(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {})
    assert serialize.load_tensors(path) == {}


def test_integer_input_becomes_float64(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"n": np.arange(5)})
    got = serialize.load_tensors(path)["n"]
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, np.arange(5.0))


def test_unicode_names(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"bloc.0.poids": np.ones(2), "häd": np.zeros(3)})
    assert set(serialize.load_tensors(path)) == {"bloc.0.poids", "häd"}


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(serialize.FormatError):
        serialize.load_tensors(path)


def test_trailing_bytes_raise(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(serialize.FormatError):
        serialize.load_tensors(path)


def test_every_truncation_raises_format_error(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.arange(3.0), "bé": np.ones((2, 1)), "s": np.array(2.0)})
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(serialize.FormatError):
            serialize.load_tensors(path)


def test_garbled_name_and_extent_raise_format_error(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"ab": np.ones(2)})
    raw = path.read_bytes()
    name_at, extent_at = 4 + 4 + 2, 4 + 4 + 2 + 2 + 1
    bad_name = raw[:name_at] + b"\xff\xfe" + raw[name_at + 2 :]
    huge = raw[:extent_at] + (2**64 - 1).to_bytes(8, "little") + raw[extent_at + 8 :]
    for garbled in (bad_name, huge):
        path.write_bytes(garbled)
        with pytest.raises(serialize.FormatError):
            serialize.load_tensors(path)


# ---------------------------------------------------------------------------
# crash-safe writes


class _HalfWriter:
    """A file whose write stores the first half of the bytes, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_write(monkeypatch, nth: int) -> None:
    """Make the nth file write_atomic opens (0-based) fail halfway."""
    real_fdopen, calls = os.fdopen, []

    def fdopen(fd, mode):
        calls.append(fd)
        f = real_fdopen(fd, mode)
        return _HalfWriter(f) if len(calls) == nth + 1 else f

    monkeypatch.setattr(os, "fdopen", fdopen)


def test_failed_write_keeps_previous_container(tmp_path, monkeypatch):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.arange(4.0)})
    _fail_write(monkeypatch, 0)
    with pytest.raises(OSError):
        serialize.save_tensors(path, {"a": np.ones(1000), "b": np.zeros(3)})
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]  # no temp file left
    assert serialize.load_tensors(path)["a"].tobytes() == np.arange(4.0).tobytes()


@pytest.mark.parametrize("failing", [0, 1], ids=["tensors", "sidecar"])
def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch, failing):
    cfg = verify.full_feature_config()
    path = tmp_path / "model.bin"
    old = md.build_model(cfg, seed=1)
    md.save_checkpoint(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_write(monkeypatch, failing)
    with pytest.raises(OSError):
        md.save_checkpoint(md.build_model(cfg, seed=2), path)
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(after) == set(before) == {"model.bin", "model.bin.json"}
    failed = ("model.bin", "model.bin.json")[failing]
    assert after[failed] == before[failed]
    loaded = md.named_parameters(md.load_checkpoint(path))
    if failing == 0:
        for name, t in md.named_parameters(old).items():
            assert loaded[name].data.tobytes() == t.data.tobytes(), name
