"""Binary archive of named tensors, bit-exact across save/load.

Layout (all integers little-endian):

    magic    4 bytes   b"HMNT"
    version  u32       currently 1
    dtype    u8        0 = float32, 1 = float64
    count    u64       number of entries
    then per entry, sorted by name:
        name_len u32
        name     UTF-8 bytes
        rank     u32
        dims     rank * u64
        values   raw IEEE-754, row-major

Entry names starting with ``state:`` or ``opt:`` are reserved for
non-trainable state and optimizer slots; bare parameter entries carry
the ``param:`` prefix.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from ..errors import ParseError
from .params import ParamStore

MAGIC = b"HMNT"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Write through a temporary file beside ``path`` and ``os.replace``
    it onto ``path`` on a clean exit; on any error the temporary file is
    removed and ``path`` keeps its old content.  Readers therefore see
    the old file or the new one, never a partial one."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_tensors(path, arrays: dict[str, np.ndarray], dtype) -> None:
    dtype = np.dtype(dtype)
    if dtype not in _DTYPE_CODES:
        raise ParseError(f"unsupported checkpoint dtype {dtype}")
    le = dtype.newbyteorder("<")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBQ", VERSION, _DTYPE_CODES[dtype], len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype=le, order="C")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
            fh.write(arr.tobytes())


def read_tensors(path) -> tuple[dict[str, np.ndarray], np.dtype]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: not a checkpoint (bad magic)")
    off = 4
    try:
        version, code, count = struct.unpack_from("<IBQ", blob, off)
    except struct.error as exc:
        raise ParseError(f"{path}: corrupt checkpoint header ({exc})") from exc
    off += struct.calcsize("<IBQ")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    if code not in _CODE_DTYPES:
        raise ParseError(f"{path}: unknown dtype code {code}")
    dtype = _CODE_DTYPES[code]
    le = dtype.newbyteorder("<")
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}Q", blob, off) if rank else ()
            off += 8 * rank
            n = int(np.prod(dims, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(blob, dtype=le, count=n, offset=off).astype(dtype)
            off += n * dtype.itemsize
            out[name] = arr.reshape(dims)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        # truncated or garbled payload; struct/numpy errors carry no path
        raise ParseError(f"{path}: corrupt checkpoint ({exc})") from exc
    if off != len(blob):
        raise ParseError(f"{path}: {len(blob) - off} trailing bytes")
    return out, dtype


def save_store(path, store: ParamStore) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, t in store.items():
        arrays[f"param:{name}"] = t.data
    for name, arr in store.state.items():
        arrays[f"state:{name}"] = arr
    for name, slots in store.opt_state.items():
        for key, val in slots.items():
            arrays[f"opt:{name}:{key}"] = np.asarray(val, dtype=np.float64)
    write_tensors(path, arrays, store.dtype)


def load_store(path) -> ParamStore:
    arrays, dtype = read_tensors(path)
    store = ParamStore(dtype)
    opt: dict[str, dict] = {}
    for name in sorted(arrays):
        if name.startswith("param:"):
            store.add(name[len("param:"):], arrays[name])
        elif name.startswith("state:"):
            store.add_state(name[len("state:"):], arrays[name])
        elif name.startswith("opt:"):
            pname, key = name[len("opt:"):].rsplit(":", 1)
            slots = opt.setdefault(pname, {})
            slots[key] = int(arrays[name]) if key == "step" else np.asarray(arrays[name], dtype=dtype)
        else:
            raise ParseError(f"{path}: entry {name!r} has no recognized prefix")
    store.opt_state = opt
    return store
