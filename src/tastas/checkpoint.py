"""Versioned binary checkpoint container.

Layout (little-endian throughout):

    magic   4 bytes  b"TTCK"
    version u32      currently 1; readers reject anything else
    hlen    u32      length of the UTF-8 JSON header
    header  bytes    {"kind": ..., "model": {...}, "extras": {...}}
    count   u32      number of named blobs
    blob*            u16 name length, name, u8 ndim, u32 dims..., f32 data

The "model" header holds ``asdict`` of the network's config dataclass,
and ``config_from_header`` is its inverse. Parameter blobs are float32,
which is also the training dtype, so a save and reload round trip is
bit-exact. ``save_container`` replaces the target atomically, so an
interrupted save never corrupts an existing checkpoint.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"TTCK"
VERSION = 1


def blas_threads() -> str:
    """The BLAS thread setting of this process's environment, as checkpoints record it.

    "OPENBLAS_NUM_THREADS=n" or "OMP_NUM_THREADS=n", whichever OpenBLAS reads
    first, else "unset". OpenBLAS splits the long contractions of the
    weight-gradient products across its threads, so a training run
    reproduces bit for bit only at the same thread count.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(name):
            return f"{name}={os.environ[name]}"
    return "unset"


def save_container(path, kind: str, header: dict, blobs: dict[str, np.ndarray]) -> None:
    payload = dict(header)
    payload["kind"] = kind
    header_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write a sibling temp file, make it durable, then rename it over the
    # target: a crash at any point leaves the previous checkpoint intact.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(struct.pack("<I", len(blobs)))
            for name, arr in blobs.items():
                data = np.asarray(arr, dtype="<f4", order="C")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", data.ndim))
                for dim in data.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(data.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise CheckpointError(f"{fh.name}: truncated checkpoint while reading {what}")
    return buf


def load_container(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint container (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported container version {version} (reader supports {VERSION})")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        try:
            header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")
        kind = header.get("kind")
        if not isinstance(kind, str):
            raise CheckpointError(f"{path}: header lacks a 'kind' field")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "blob count"))
        blobs: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "blob name length"))
            try:
                name = _read_exact(fh, name_len, "blob name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: blob name is not UTF-8 ({exc})") from exc
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "blob rank"))
            dims = tuple(
                struct.unpack("<I", _read_exact(fh, 4, "blob dim"))[0] for _ in range(ndim)
            )
            size = int(np.prod(dims)) if dims else 1
            raw = _read_exact(fh, 4 * size, f"blob '{name}' data")
            blobs[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        return kind, header, blobs


def config_from_header(cls, values, path):
    """Rebuild a config dataclass from the ``asdict`` a header holds; JSON lists become tuples."""
    names = {f.name for f in fields(cls)}
    keys = set(values) if isinstance(values, dict) else set()
    if keys != names:
        raise CheckpointError(
            f"{path}: model header does not match {cls.__name__}: "
            f"missing {sorted(names - keys)}, unexpected {sorted(keys - names)}"
        )
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
