"""Binary archive of named tensors, bit-exact across save/load, with
the JSON record that describes them in the same file.

Layout (all integers little-endian):

    magic    4 bytes   b"HMNT"
    version  u32       currently 2
    dtype    u8        0 = float32, 1 = float64
    count    u64       number of entries
    meta_len u64       length of the record
    record   meta_len bytes, a UTF-8 JSON object with sorted keys
    then per entry, sorted by name:
        name_len u32
        name     UTF-8 bytes
        rank     u32
        dims     rank * u64
        values   raw IEEE-754, row-major

Entry names starting with ``state:`` or ``opt:`` are reserved for
non-trainable state and optimizer slots; bare parameter entries carry
the ``param:`` prefix.  One file is one atomic write, so a reader sees
the old archive or the new one, record and tensors together.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from ..errors import ParseError
from .params import ParamStore

MAGIC = b"HMNT"
VERSION = 2
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


def write_tensors(path, arrays: dict[str, np.ndarray], dtype, record=None) -> None:
    """Write ``arrays`` and the JSON ``record`` (``{}`` when None)."""
    dtype = np.dtype(dtype)
    if dtype not in _DTYPE_CODES:
        raise ParseError(f"unsupported checkpoint dtype {dtype}")
    le = dtype.newbyteorder("<")
    meta = json.dumps({} if record is None else record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBQQ", VERSION, _DTYPE_CODES[dtype], len(arrays), len(meta)))
        fh.write(meta)
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype=le, order="C")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
            fh.write(arr.reshape(-1).view(np.uint8))  # the values' own buffer, not a copy


class _Reader:
    """Sequential reads from a checkpoint of known size.  A read that
    asks for more than the file has left is refused before anything is
    allocated, so a hostile length or shape is a ParseError, not an
    allocation of the size it claims."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.left = os.fstat(fh.fileno()).st_size

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise ParseError(f"{self.path}: corrupt checkpoint (truncated: "
                             f"{n} bytes wanted, {self.left} left)")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        raw = self.fh.read(n)
        if len(raw) != n:
            raise ParseError(f"{self.path}: corrupt checkpoint (file shrank while read)")
        return raw

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dims: tuple, dtype: np.dtype) -> np.ndarray:
        """Read the values of one entry straight into a fresh array."""
        self._claim(math.prod(dims) * dtype.itemsize)  # Python ints: no overflow
        arr = np.empty(dims, dtype=dtype)
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise ParseError(f"{self.path}: corrupt checkpoint (file shrank while read)")
        return arr


def read_tensors(path) -> tuple[dict[str, np.ndarray], np.dtype, dict]:
    """(arrays, dtype, record).  A record that is cut short, not UTF-8,
    not JSON or not a JSON object is a ParseError naming ``path``, as is
    a length or shape larger than the file.  Each array is read from the
    file into its own buffer, so loading holds one copy of the values."""
    with open(path, "rb") as fh:
        rd = _Reader(fh, path)
        if rd.left < len(MAGIC) or rd.take(len(MAGIC)) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint (bad magic)")
        version, code, count = rd.unpack("<IBQ")
        if version != VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        if code not in _CODE_DTYPES:
            raise ParseError(f"{path}: unknown dtype code {code}")
        dtype = _CODE_DTYPES[code]
        le = dtype.newbyteorder("<")
        out: dict[str, np.ndarray] = {}
        try:
            (meta_len,) = rd.unpack("<Q")
            # no strict prefix of a JSON object is JSON, so a cut record fails here
            record = json.loads(rd.take(meta_len).decode("utf-8"))
            for _ in range(count):
                (name_len,) = rd.unpack("<I")
                name = rd.take(name_len).decode("utf-8")
                (rank,) = rd.unpack("<I")
                dims = rd.unpack(f"<{rank}Q")
                out[name] = rd.array(dims, le).astype(dtype, copy=False)
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            # garbled or too deeply nested; these errors carry no path
            raise ParseError(f"{path}: corrupt checkpoint ({exc})") from exc
        if rd.left:
            raise ParseError(f"{path}: {rd.left} trailing bytes")
    if not isinstance(record, dict):
        raise ParseError(f"{path}: checkpoint record is not a JSON object")
    return out, dtype, record


def save_store(path, store: ParamStore, record=None) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, t in store.items():
        arrays[f"param:{name}"] = t.data
    for name, arr in store.state.items():
        arrays[f"state:{name}"] = arr
    for name, slots in store.opt_state.items():
        for key, val in slots.items():
            # the file holds every entry in the store's dtype: cast once here,
            # which copies only the integer step
            arrays[f"opt:{name}:{key}"] = np.asarray(val, dtype=store.dtype)
    write_tensors(path, arrays, store.dtype, record)


def load_store(path) -> tuple[ParamStore, dict]:
    arrays, dtype, record = read_tensors(path)
    store = ParamStore(dtype)
    opt: dict[str, dict] = {}
    for name in sorted(arrays):
        arr = arrays.pop(name)  # the store copies params and state: free the read buffer
        if name.startswith("param:"):
            store.add(name[len("param:"):], arr)
        elif name.startswith("state:"):
            store.add_state(name[len("state:"):], arr)
        elif name.startswith("opt:"):
            pname, key = name[len("opt:"):].rsplit(":", 1)
            slots = opt.setdefault(pname, {})
            slots[key] = int(arr) if key == "step" else np.asarray(arr, dtype=dtype)
        else:
            raise ParseError(f"{path}: entry {name!r} has no recognized prefix")
    store.opt_state = opt
    return store, record
