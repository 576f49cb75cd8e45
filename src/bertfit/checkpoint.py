"""Checkpoint container: length-prefixed JSON header + raw tensor bytes.

Layout:
  8 bytes  little-endian uint64 = header length in bytes
  N bytes  UTF-8 JSON header: {"meta": {...}, "tensors": [{name, shape,
           dtype}, ...]}  (tensor order == data order)
  payload  each tensor's row-major bytes, little-endian, concatenated

Round-trips are byte-exact: saving a loaded checkpoint reproduces the file.

Each stage of a recipe chain hands its model to the next through
`save_model`, which writes the model meta, and `install`, which checks it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .autodiff import Tensor
from .data import InputError, open_input

_DTYPES = {"f4": "<f4", "f8": "<f8"}


def save_checkpoint(path, tensors: dict, meta: dict | None = None):
    """Write named arrays (dict name -> numpy array or Tensor) to a temp file
    beside `path`, then move it over `path`: a crash leaves the old file."""
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
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for arr in arrays:
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Return (meta dict, dict name -> numpy array). InputError names
    `path`, and the tensor where one applies, for a missing file, an
    unreadable header, a short payload or bytes after the last tensor."""
    with open_input(path, "checkpoint", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            (hlen,) = struct.unpack("<Q", fh.read(8))
            if hlen > size - 8:
                raise ValueError
            header = json.loads(fh.read(hlen).decode("utf-8"))
            meta = header["meta"]
            entries = [(e["name"], tuple(e["shape"]),
                        np.dtype(_DTYPES[e["dtype"]]))
                       for e in header["tensors"]]
        except (struct.error, ValueError, KeyError, TypeError):
            raise InputError(f"{path}: unreadable checkpoint header") \
                from None
        out = {}
        for name, shape, dt in entries:
            want, have = math.prod(shape) * dt.itemsize, size - fh.tell()
            if have < want:
                raise InputError(
                    f"{path}: checkpoint tensor {name!r} is cut short: "
                    f"{have} of {want} bytes")
            out[name] = np.frombuffer(fh.read(want), dtype=dt) \
                .reshape(shape).copy()
        extra = size - fh.tell()
        if extra:
            raise InputError(f"{path}: {extra} bytes after the last "
                             f"checkpoint tensor")
    return meta, out


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


def save_model(path, named: dict, config, vocab, step: int, **meta):
    """Save the `named` tensors of a model built from EncoderConfig `config`
    and `vocab`, with the meta that `install` checks."""
    save_checkpoint(path, named, meta={"config": config.to_dict(),
                                       "vocab_hash": vocab.content_hash(),
                                       "step": step, **meta})


def install(path, named: dict, config, vocab, combiner_kind=None):
    """Install checkpoint `path` into the `named` tensors of a model built
    from EncoderConfig `config` and `vocab`. Where the meta records them,
    the config (but dropout), vocab_hash and, if `named` holds the
    classifier, combiner kind must match, and each tensor installed must
    be finite, else InputError."""
    meta, arrays = load_checkpoint(path)
    saved = meta.get("config", {})
    for key, ours in config.to_dict().items():
        if key != "dropout" and saved.get(key, ours) != ours:
            raise InputError(f"{path}: checkpoint config {key} "
                             f"{saved[key]!r} does not match the "
                             f"model's {ours!r}")
    if meta.get("vocab_hash", vocab.content_hash()) != vocab.content_hash():
        raise InputError(f"{path}: checkpoint vocab_hash "
                         f"{meta['vocab_hash']} does not match the "
                         f"vocabulary's {vocab.content_hash()}")
    if "classifier.W" in named and \
            meta.get("combiner", combiner_kind) != combiner_kind:
        raise InputError(f"{path}: checkpoint combiner "
                         f"{meta['combiner']!r} does not match the "
                         f"config's {combiner_kind!r}")
    for name in named:
        if name in arrays and not np.isfinite(arrays[name]).all():
            raise InputError(f"{path}: checkpoint tensor {name!r} holds "
                             f"a NaN or inf")
    try:
        load_into(named, arrays)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None
