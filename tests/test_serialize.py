"""Binary tensor container: byte-level round trips and corruption checks."""

import errno
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    serialize.save_tensors(path, tensors, {"step": 3})
    meta, loaded = serialize.load_tensors(path)
    assert meta == {"step": 3}
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        got = loaded[name]
        assert got.shape == arr.shape
        assert got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(arr, dtype="<f8").tobytes()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
ARRAYS = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3).flatmap(
    lambda shape: hnp.arrays("<f8", shape)  # every float, NaN payloads included
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    tensors=st.dictionaries(st.text(max_size=12), ARRAYS, max_size=4),
    meta=st.dictionaries(st.text(max_size=12), JSON, max_size=4),
)
def test_round_trip_property(tmp_path_factory, tensors, meta):
    # names of any script, 0-d and empty shapes such as (0,) and (2, 0),
    # any JSON object as metadata: everything comes back, and saving the
    # loaded pair again writes the same bytes
    path = tmp_path_factory.mktemp("rt") / "t.bin"
    serialize.save_tensors(path, tensors, meta)
    got_meta, got = serialize.load_tensors(path)
    assert got_meta == meta
    assert list(got) == list(tensors)
    for name, arr in tensors.items():
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()
    first = path.read_bytes()
    serialize.save_tensors(path, got, got_meta)
    assert path.read_bytes() == first


def test_loaded_arrays_are_writable(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.arange(4.0)}, {})
    arr = serialize.load_tensors(path)[1]["a"]
    assert arr.flags.writeable
    arr[0] = 99.0  # must not raise


def test_empty_container(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {}, {})
    assert serialize.load_tensors(path) == ({}, {})


def test_integer_input_becomes_float64(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"n": np.arange(5)}, {})
    got = serialize.load_tensors(path)[1]["n"]
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, np.arange(5.0))


def test_unicode_names(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"bloc.0.poids": np.ones(2), "häd": np.zeros(3)}, {})
    assert set(serialize.load_tensors(path)[1]) == {"bloc.0.poids", "häd"}


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.ones(2)}, {})
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(serialize.FormatError):
        serialize.load_tensors(path)


def test_eft1_container_raises_on_magic(tmp_path):
    # the header-less layout: magic, tensor count, records
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.ones(2)}, {"kind": "lm"})
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[4:8])
    path.write_bytes(b"EFT1" + raw[8 + header_len :])
    with pytest.raises(serialize.FormatError, match="magic"):
        serialize.load_tensors(path)


@pytest.mark.parametrize(
    "header",
    [b"\xff\xfe{}", b"{not json", b"", b"[" * 100_000, b"[1, 2]", b"3", b'"text"', b"null"],
    ids=["not-utf8", "not-json", "empty", "too-deep", "list", "number", "string", "null"],
)
def test_malformed_or_non_object_header_raises(tmp_path, header):
    path = tmp_path / "t.bin"
    body = struct.pack("<I", len(header)) + header + struct.pack("<I", 0)
    path.write_bytes(serialize.MAGIC + body)
    with pytest.raises(serialize.FormatError, match="header"):
        serialize.load_tensors(path)


def test_trailing_bytes_raise(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.ones(2)}, {})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(serialize.FormatError):
        serialize.load_tensors(path)


def _tiny_checkpoint_config() -> md.ModelConfig:
    # every tensor kind a checkpoint holds (0-d etas and ALiBi biases,
    # shared kq diagonal, low-rank factors), at a size whose every
    # truncation can be tried
    return md.ModelConfig(
        vocab_size=3,
        n_layers=1,
        block=md.BlockConfig(
            d_hidden=2, n_heads=2, d_head=1, d_mlp=2, learnable_eta=True, kq_diag="shared",
            attn_precond="diag_lowrank", attn_precond_rank=1,
            mlp_precond="diag_lowrank", mlp_precond_rank=1, alibi=True,
        ),
    )


def test_every_truncation_raises_format_error(tmp_path):
    path = tmp_path / "model.bin"
    md.save_checkpoint(md.build_model(_tiny_checkpoint_config(), seed=0), path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(serialize.FormatError):
            md.load_checkpoint(path)


def test_garbled_name_and_extent_raise_format_error(tmp_path):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"ab": np.ones(2)}, {"kind": "lm"})
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[4:8])
    first = 4 + 4 + header_len + 4  # magic, header length, header, tensor count
    name_at, extent_at = first + 2, first + 2 + 2 + 1
    bad_name = raw[:name_at] + b"\xff\xfe" + raw[name_at + 2 :]
    huge = raw[:extent_at] + (2**64 - 1).to_bytes(8, "little") + raw[extent_at + 8 :]
    for garbled in (bad_name, huge):
        path.write_bytes(garbled)
        with pytest.raises(serialize.FormatError):
            serialize.load_tensors(path)


def test_repeated_name_raises_format_error(tmp_path):
    # a later record under an earlier name must not replace it silently
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.ones(1), "b": np.ones(1)}, {})
    raw = path.read_bytes()
    assert raw.count(b"\x01\x00b") == 1  # the second record's name length and name
    path.write_bytes(raw.replace(b"\x01\x00b", b"\x01\x00a"))
    with pytest.raises(serialize.FormatError, match="'a' appears twice"):
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


def _fail_writes(monkeypatch) -> None:
    """Make every file write_atomic opens fail halfway."""
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _HalfWriter(real_fdopen(fd, mode)))


def test_failed_write_keeps_previous_container(tmp_path, monkeypatch):
    path = tmp_path / "t.bin"
    serialize.save_tensors(path, {"a": np.arange(4.0)}, {})
    _fail_writes(monkeypatch)
    with pytest.raises(OSError):
        serialize.save_tensors(path, {"a": np.ones(1000), "b": np.zeros(3)}, {})
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]  # no temp file left
    assert serialize.load_tensors(path)[1]["a"].tobytes() == np.arange(4.0).tobytes()


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    cfg = verify.full_feature_config()
    path = tmp_path / "model.bin"
    old = md.build_model(cfg, seed=1)
    md.save_checkpoint(old, path)
    before = path.read_bytes()
    _fail_writes(monkeypatch)
    with pytest.raises(OSError):
        md.save_checkpoint(md.build_model(cfg, seed=2), path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]  # no temp file left
    assert path.read_bytes() == before
    loaded = md.load_checkpoint(path)
    assert loaded.config == cfg
    loaded_params = md.named_parameters(loaded)
    for name, t in md.named_parameters(old).items():
        assert loaded_params[name].data.tobytes() == t.data.tobytes(), name


def test_checkpoint_is_one_self_contained_file(tmp_path):
    # the config travels inside the container: a checkpoint copied alone
    # into an empty directory loads to the same config and bytes
    cfg = verify.full_feature_config()
    model = md.build_model(cfg, seed=3)
    md.save_checkpoint(model, tmp_path / "model.bin")
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
    alone = tmp_path / "elsewhere" / "copy.bin"
    alone.parent.mkdir()
    alone.write_bytes((tmp_path / "model.bin").read_bytes())
    again = md.load_checkpoint(alone)
    assert again.config == cfg
    loaded = md.named_parameters(again)
    for name, t in md.named_parameters(model).items():
        assert loaded[name].data.tobytes() == t.data.tobytes(), name
