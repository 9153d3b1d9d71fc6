"""Binary checkpoint format: self-describing header, named tensors,
bit-exact round-trips including optimizer state."""

import os

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
    back, dtype = read_tensors(path)
    assert dtype == np.float64
    assert set(back) == set(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == np.float64
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == np.asarray(arr, dtype="<f8").tobytes()


def test_float32_round_trip(tmp_path):
    x = np.array([1.0, np.pi, 1e-7], dtype=np.float32)
    path = tmp_path / "t32.bin"
    write_tensors(path, {"x": x}, dtype=np.float32)
    back, dtype = read_tensors(path)
    assert dtype == np.float32
    assert back["x"].dtype == np.float32
    assert back["x"].tobytes() == x.tobytes()


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


def test_store_round_trip_with_optimizer_state(tmp_path):
    rng = np.random.default_rng(7)
    store = ParamStore(dtype=np.float64)
    store.add("w1", rng.normal(size=(4, 4)))
    store.add("w2", rng.normal(size=(4,)))
    store.add_state("norm.mean", np.zeros(4))
    for p in store.params.values():
        p.grad = rng.normal(size=p.shape)
    optimizer_step(store, OptimConfig(lr=1e-3))

    path = tmp_path / "store.bin"
    save_store(path, store)
    back = load_store(path)
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
        for p in s.params.values():
            p.grad = np.ones(p.shape)
        optimizer_step(s, OptimConfig(lr=1e-3))
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


def _model_files(path):
    return path.read_bytes(), (path.parent / (path.name + ".json")).read_bytes()


@pytest.mark.parametrize("target", ["binary", "sidecar"])
def test_interrupted_save_model_keeps_previous_checkpoint(tmp_path, monkeypatch, target):
    cfg = HeMeNetConfig(L=1, d=8, heads=2, task_dims=SMALL_DIMS, dtype="float64")
    old, new = init_params(cfg, seed=1), init_params(cfg, seed=2)
    path = tmp_path / "best.bin"
    save_model(path, old, cfg, extra={"epoch": 0})
    old_bin, old_sidecar = _model_files(path)

    failing = path if target == "binary" else tmp_path / "best.bin.json"
    fail_writes_to(monkeypatch, failing, fail_at=3)
    with pytest.raises(OSError, match="injected"):
        save_model(path, new, cfg, extra={"epoch": 1})
    assert sorted(os.listdir(tmp_path)) == ["best.bin", "best.bin.json"]
    assert path.read_bytes() == old_bin
    if target == "sidecar":
        assert _model_files(path) == (old_bin, old_sidecar)
    store, _, _ = load_model(path, expect=cfg)
    for name, t in old.items():
        assert store[name].data.tobytes() == t.data.tobytes()

    monkeypatch.undo()
    save_model(path, new, cfg, extra={"epoch": 1})
    assert sorted(os.listdir(tmp_path)) == ["best.bin", "best.bin.json"]
    store, _, sidecar = load_model(path, expect=cfg)
    assert sidecar["epoch"] == 1
    for name, t in new.items():
        assert store[name].data.tobytes() == t.data.tobytes()
