"""Versioned binary checkpoint container.

Layout (little-endian throughout):

    magic   4 bytes  b"TTCK"
    version u32      currently 1; readers reject anything else
    hlen    u32      length of the UTF-8 JSON header
    header  bytes    {"kind": ..., "model": {...}, "extras": {...}}
    count   u32      number of named blobs
    blob*            u16 name length, name, u8 ndim, u32 dims..., f32 data

``save_network`` writes a trained network: ``asdict`` of its config under
"model", the run's extras plus the BLAS threads under "extras", and one
float32 ``param.<name>`` blob per parameter (float32 is the training
dtype, so a round trip is bit-exact). ``save_container`` replaces the
target atomically, so an interrupted save never corrupts a checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import CheckpointError
from .numerics.optim import ParamSet
from .numerics.sibling import blas_threads
from .numerics.tensor import Tensor

MAGIC = b"TTCK"
VERSION = 1


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
                fh.write(data)  # straight from the array's buffer
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _truncated(fh, what: str) -> CheckpointError:
    return CheckpointError(f"{fh.name}: truncated checkpoint while reading {what}")


def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise _truncated(fh, what)
    return buf


def load_container(path, prefix: str = "") -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, header, blobs) of a container; blobs whose names lack ``prefix`` are skipped unread."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
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
            nbytes = 4 * math.prod(dims)
            if fh.tell() + nbytes > file_size:
                raise _truncated(fh, f"blob '{name}' data")
            if name.startswith(prefix):
                blobs[name] = np.empty(dims, dtype="<f4")
                fh.readinto(blobs[name])  # straight into the array's buffer
            else:
                fh.seek(nbytes, os.SEEK_CUR)
        return kind, header, blobs


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the JSON values a header may hold for a field of each type, and their name in errors
_HEADER_TYPES = {
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    int: ("an integer", _is_int),
    float: ("a number", lambda value: _is_int(value) or isinstance(value, float)),
    tuple[int, ...]: ("a list of integers", lambda value: isinstance(value, list) and all(map(_is_int, value))),
}


def check_header_value(path, key: str, value, field_type) -> None:
    """Raise a CheckpointError naming path and key unless the JSON value fits
    a field of field_type: bool; int, which a bool is not; float, which an
    int is too; or tuple[int, ...], a list of ints."""
    name, fits = _HEADER_TYPES[field_type]
    if not fits(value):
        raise CheckpointError(f"{path}: header key '{key}' must be {name}, got {json.dumps(value)}")


def config_from_header(cls, values, path):
    """Rebuild a config dataclass from the ``asdict`` a header holds, each
    value checked against its field's type; JSON lists become tuples."""
    names = {f.name for f in fields(cls)}
    keys = set(values) if isinstance(values, dict) else set()
    if keys != names:
        raise CheckpointError(
            f"{path}: model header does not match {cls.__name__}: "
            f"missing {sorted(names - keys)}, unexpected {sorted(keys - names)}"
        )
    types = get_type_hints(cls)
    for key, value in values.items():
        check_header_value(path, f"model.{key}", value, types[key])
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def save_network(path, kind: str, config, params: ParamSet, extras: dict, header=None, blobs=None) -> None:
    """Save a network's config, extras and parameters, plus the caller's own header keys and blobs."""
    payload = {"model": asdict(config), "extras": {**extras, "blas_threads": blas_threads()}, **(header or {})}
    named = {f"param.{name}": tensor.data for name, tensor in params.items()}
    save_container(path, kind, payload, {**named, **(blobs or {})})


def load_network(path, kind: str, config_cls, weights_only: bool = False):
    """(config, params, header, blobs) of a ``save_network`` container of ``kind``.

    With ``weights_only`` the caller's own blobs (optimizer moments) are
    skipped unread, and ``blobs`` holds the parameters alone.
    """
    found, header, blobs = load_container(path, prefix="param." if weights_only else "")
    if found != kind:
        raise CheckpointError(f"{path}: container holds '{found}', expected '{kind}'")
    config = config_from_header(config_cls, header.get("model"), path)
    params = ParamSet({name[len("param.") :]: Tensor(arr) for name, arr in blobs.items() if name.startswith("param.")})
    if len(params) == 0:
        raise CheckpointError(f"{path}: no parameters in container")
    return config, params, header, blobs
