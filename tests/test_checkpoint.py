"""Binary checkpoint format: self-describing header and record, named
tensors, bit-exact round-trips including optimizer state."""

import itertools
import os
import struct
import tracemalloc

import numpy as np
import pytest

from hemenet.errors import ParseError
from hemenet.model import HeMeNetConfig, init_params, load_model, save_model
from hemenet.numcore import checkpoint
from hemenet.numcore import (
    OptimConfig,
    ParamStore,
    load_store,
    optimizer_step,
    read_tensors,
    save_store,
    write_tensors,
)

from conftest import SMALL_DIMS


def test_named_tensor_round_trip_bits(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.normal(size=(3, 4)),
        "b": np.array(2.5),
        "c.long.dotted.name": rng.normal(size=(2, 1, 5)),
    }
    path = tmp_path / "t.bin"
    write_tensors(path, arrays, dtype=np.float64)
    back, dtype, record = read_tensors(path)
    assert dtype == np.float64 and record == {}
    assert set(back) == set(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == np.float64
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == np.asarray(arr, dtype="<f8").tobytes()


def test_float32_round_trip(tmp_path):
    x = np.array([1.0, np.pi, 1e-7], dtype=np.float32)
    path = tmp_path / "t32.bin"
    write_tensors(path, {"x": x}, dtype=np.float32)
    back, dtype, _ = read_tensors(path)
    assert dtype == np.float32
    assert back["x"].dtype == np.float32
    assert back["x"].tobytes() == x.tobytes()


def test_record_round_trip_in_the_header(tmp_path):
    """The record sits after ``count`` as ``meta_len`` and a sorted-key
    JSON object, before the first entry."""
    record = {"z": [1, 2], "epoch": 3, "val_score": 0.25, "best": float("-inf")}
    path = tmp_path / "r.bin"
    write_tensors(path, {"x": np.ones(2)}, dtype=np.float64, record=record)
    back, _, got = read_tensors(path)
    assert got == record and back["x"].tolist() == [1.0, 1.0]
    raw = path.read_bytes()
    assert struct.unpack_from("<IBQQ", raw, 4)[0] == checkpoint.VERSION == 2
    meta_len = struct.unpack_from("<Q", raw, 17)[0]
    assert raw[25:25 + meta_len] == b'{"best":-Infinity,"epoch":3,"val_score":0.25,"z":[1,2]}'


def _with_record(path, meta: bytes):
    """Rewrite the archive at ``path`` with ``meta`` as its record bytes."""
    raw = path.read_bytes()
    meta_len = struct.unpack_from("<Q", raw, 17)[0]
    path.write_bytes(raw[:17] + struct.pack("<Q", len(meta)) + meta + raw[25 + meta_len:])


@pytest.mark.parametrize("meta, why", [
    (b'{"epoch": 1', "corrupt checkpoint"),  # not JSON
    (b'{"name": "\xff"}', "corrupt checkpoint"),  # not UTF-8
    (b"[1, 2]", "not a JSON object"),
    (b"[" * 100_000, "corrupt checkpoint"),  # deeper than json can parse
], ids=["not-json", "not-utf8", "list", "too-deep"])
def test_malformed_record_rejected(tmp_path, meta, why):
    path = tmp_path / "m.bin"
    write_tensors(path, {"x": np.ones(2)}, dtype=np.float64, record={"epoch": 1})
    _with_record(path, meta)
    with pytest.raises(ParseError, match=why) as err:
        read_tensors(path)
    assert str(path) in str(err.value)


def test_corrupt_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    write_tensors(path, {"x": np.ones(2)}, dtype=np.float64)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        read_tensors(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "trunc.bin"
    write_tensors(path, {"x": np.ones(8)}, dtype=np.float64)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ParseError):
        read_tensors(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "trail.bin"
    write_tensors(path, {"x": np.ones(2)}, dtype=np.float64)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError):
        read_tensors(path)


def _traced_peak(fn, *args):
    """(result or raised exception, traced peak bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        try:
            out = fn(*args)
        except Exception as exc:  # the caller checks what was raised
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MAGIC_HEADER = checkpoint.MAGIC + struct.pack("<IBQ", checkpoint.VERSION, 0, 1)


def _hostile(name_len=1, rank=1, dims=(1,), meta_len=2):
    """A float32 archive of one entry whose header claims the given
    sizes, followed by only a few bytes."""
    head = MAGIC_HEADER + struct.pack("<Q", meta_len) + b"{}"
    entry = struct.pack("<I", name_len) + b"x" + struct.pack("<I", rank)
    return head + entry + struct.pack(f"<{len(dims)}Q", *dims) + b"\0" * 8


@pytest.mark.parametrize("raw", [
    _hostile(dims=(2**40,)),
    _hostile(rank=2, dims=(2**32, 2**32)),
    _hostile(rank=2, dims=(0, 2**63)),  # zero values, yet no array can have that shape
    _hostile(meta_len=2**62),
    _hostile(name_len=2**32 - 1),
    _hostile(rank=2**32 - 1),
], ids=["dims-2^40", "dims-2^32x2^32", "dims-0x2^63", "meta-len", "name-len", "rank"])
def test_hostile_header_sizes_are_parse_errors(tmp_path, raw):
    """A length or shape larger than the file is refused before anything
    of that size is allocated."""
    path = tmp_path / "hostile.bin"
    path.write_bytes(raw)
    err, peak = _traced_peak(read_tensors, path)
    assert isinstance(err, ParseError), err
    assert str(path) in str(err)
    assert peak < 2**20, peak


def _adam_store(dtype, shapes):
    rng = np.random.default_rng(3)
    store = ParamStore(dtype=dtype)
    for k, shape in enumerate(shapes):
        store.add(f"w{k}", rng.normal(size=shape))
    store.add_state("norm.mean", rng.normal(size=(4,)))
    for _ in range(2):
        grads = {p: rng.normal(size=p.shape).astype(dtype) for p in store.params.values()}
        optimizer_step(store, OptimConfig(lr=1e-3), grads)
    return store


def test_read_holds_one_copy_of_the_values(tmp_path):
    """Values go from the file straight into their arrays: reading an
    N-byte archive peaks at no more than 1.1 N + 1 MB."""
    store = _adam_store(np.float32, [(512, 512), (256, 1024), (1000,)])
    path = tmp_path / "big.bin"
    save_store(path, store)
    size = path.stat().st_size
    (arrays, _, _), peak = _traced_peak(read_tensors, path)
    assert len(arrays) == 3 * 4 + 1
    assert peak <= 1.1 * size + 2**20, (peak, size)


def test_save_store_allocates_less_than_the_file(tmp_path):
    """Optimizer slots are written in the store's dtype as they are, not
    through float64 copies of every slot."""
    store = _adam_store(np.float32, [(512, 512), (256, 1024), (1000,)])
    path = tmp_path / "save.bin"
    _, peak = _traced_peak(save_store, path, store)
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_store_bytes_match_float64_slot_path(tmp_path, dtype):
    """The bytes equal those of the old path, which upcast every Adam
    slot (the integer step too) to float64 before writing."""
    store = _adam_store(dtype, [(5, 3), (), (7,)])
    arrays = {f"param:{n}": t.data for n, t in store.items()}
    arrays.update({f"state:{n}": a for n, a in store.state.items()})
    for name, slots in store.opt_state.items():
        for key, val in slots.items():
            arrays[f"opt:{name}:{key}"] = np.asarray(val, dtype=np.float64)
    old, new = tmp_path / "old.bin", tmp_path / "new.bin"
    write_tensors(old, arrays, store.dtype, {"epoch": 1})
    save_store(new, store, {"epoch": 1})
    assert new.read_bytes() == old.read_bytes()


def test_store_round_trip_with_optimizer_state(tmp_path):
    rng = np.random.default_rng(7)
    store = ParamStore(dtype=np.float64)
    store.add("w1", rng.normal(size=(4, 4)))
    store.add("w2", rng.normal(size=(4,)))
    store.add_state("norm.mean", np.zeros(4))
    grads = {p: rng.normal(size=p.shape) for p in store.params.values()}
    optimizer_step(store, OptimConfig(lr=1e-3), grads)

    path = tmp_path / "store.bin"
    save_store(path, store, {"epoch": 2})
    back, record = load_store(path)
    assert record == {"epoch": 2}
    assert back.dtype == store.dtype
    for name, p in store.params.items():
        assert back[name].data.tobytes() == p.data.tobytes()
    assert back.state["norm.mean"].tobytes() == store.state["norm.mean"].tobytes()
    for name in ("w1", "w2"):
        assert back.opt_state[name]["step"] == store.opt_state[name]["step"]
        for key in ("m", "v"):
            assert back.opt_state[name][key].tobytes() == store.opt_state[name][key].tobytes()

    # continuing optimization from the copy reproduces the original exactly
    for s in (store, back):
        grads = {p: np.ones(p.shape) for p in s.params.values()}
        optimizer_step(s, OptimConfig(lr=1e-3), grads)
    for name in store.params:
        assert back[name].data.tobytes() == store[name].data.tobytes()


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    store = ParamStore(dtype=np.float32)
    store.add("z", rng.normal(size=(5, 2)))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_store(p1, store)
    save_store(p2, store)
    assert p1.read_bytes() == p2.read_bytes()


# -- atomic writes ----------------------------------------------------------------


class _FailingFile:
    """Forwards writes to a real file until the ``fail_at``-th, which
    raises, so the earlier bytes are already on disk."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.calls = fh, fail_at, 0

    def write(self, data):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError("no space left on device (injected)")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


def fail_writes_to(monkeypatch, target, fail_at):
    """Make the ``fail_at``-th write to ``target``, or to its temporary
    file, raise; other files open normally."""
    target = os.fspath(target)
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = os.fspath(file)
        hit = name == target or name.startswith(f"{target}.{os.getpid()}.")
        return _FailingFile(fh, fail_at) if hit and "w" in mode else fh

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)


def test_failed_write_tensors_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "t.bin"
    write_tensors(path, {"a": np.ones(4), "b": np.zeros(3)}, dtype=np.float64)
    before = path.read_bytes()
    fail_writes_to(monkeypatch, path, fail_at=6)
    with pytest.raises(OSError, match="injected"):
        write_tensors(path, {"a": np.full(4, 2.0), "b": np.ones(3)}, dtype=np.float64)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["t.bin"]


# write_tensors writes the magic, the header with meta_len, then the record
RECORD_WRITES = 3


@pytest.mark.parametrize("part", ["binary", "sidecar"])
def test_interrupted_save_model_keeps_previous_checkpoint(tmp_path, monkeypatch, part):
    """Weights and record are one file: a save over it that fails at any
    of its writes leaves the old file byte-identical, still reporting its
    own epoch and score.  ``sidecar`` fails each write up to and including
    the record (what a ``.bin.json`` sidecar once held), ``binary`` each
    write of the weights after it."""
    cfg = HeMeNetConfig(L=1, d=8, heads=2, task_dims=SMALL_DIMS, dtype="float64")
    old, new = init_params(cfg, seed=1), init_params(cfg, seed=2)
    path = tmp_path / "best.bin"
    save_model(path, old, cfg, extra={"epoch": 0, "val_score": 0.5})
    before = path.read_bytes()

    if part == "sidecar":
        writes = range(1, RECORD_WRITES + 1)
    else:
        writes = itertools.count(RECORD_WRITES + 1)
    failed = 0
    for fail_at in writes:
        fail_writes_to(monkeypatch, path, fail_at)
        try:
            save_model(path, new, cfg, extra={"epoch": 1, "val_score": 0.7})
            break  # past the last write: this save went through
        except OSError as exc:
            assert "injected" in str(exc)
            failed += 1
        finally:
            monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["best.bin"]
        assert path.read_bytes() == before
        store, _, record = load_model(path, expect=cfg)
        assert (record["epoch"], record["val_score"]) == (0, 0.5)
        for name, t in old.items():
            assert store[name].data.tobytes() == t.data.tobytes()
    else:
        save_model(path, new, cfg, extra={"epoch": 1, "val_score": 0.7})
    if part == "sidecar":
        assert failed == RECORD_WRITES
    else:
        assert failed > len(old.params)  # each weight write up to the last failed once

    assert sorted(os.listdir(tmp_path)) == ["best.bin"]
    store, _, record = load_model(path, expect=cfg)
    assert (record["epoch"], record["val_score"]) == (1, 0.7)
    for name, t in new.items():
        assert store[name].data.tobytes() == t.data.tobytes()
