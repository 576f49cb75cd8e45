"""Checkpoint container: length-prefixed JSON header + raw tensor bytes.

Layout:
  8 bytes  little-endian uint64 = header length in bytes
  N bytes  UTF-8 JSON header: {"meta": {...}, "tensors": [{name, shape,
           dtype}, ...]}  (tensor order == data order)
  payload  each tensor's row-major bytes, little-endian, concatenated

Round-trips are byte-exact: saving a loaded checkpoint reproduces the file.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .autodiff import Tensor

_DTYPES = {"f4": "<f4", "f8": "<f8"}


def save_checkpoint(path, tensors: dict, meta: dict | None = None):
    """Write named arrays (dict name -> numpy array or Tensor)."""
    names = list(tensors)
    arrays = []
    manifest = []
    for name in names:
        t = tensors[name]
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        code = "f8" if arr.dtype == np.float64 else "f4"
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        arrays.append(arr)
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": code})
    header = json.dumps(
        {"meta": meta or {}, "tensors": manifest},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Return (meta dict, dict name -> numpy array)."""
    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        out = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            dt = np.dtype(_DTYPES[entry["dtype"]])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * dt.itemsize)
            out[entry["name"]] = np.frombuffer(buf, dtype=dt).reshape(shape).copy()
    return header["meta"], out


def load_into(named: dict, arrays: dict):
    """Install `arrays` into the same-named tensors of `named`, ignoring extra
    arrays; a missing, misshaped or mistyped one raises ValueError first."""
    for name, p in named.items():
        a = arrays.get(name)
        if a is None or a.shape != p.shape or a.dtype != p.data.dtype:
            found = "missing" if a is None else f"{a.dtype.name} {a.shape}"
            raise ValueError(f"checkpoint tensor {name!r} is {found}; the "
                             f"model's is {p.data.dtype.name} {p.shape}")
    for name, p in named.items():
        p.data = arrays[name]
