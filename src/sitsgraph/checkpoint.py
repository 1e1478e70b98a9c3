"""Checkpoint files: a length-prefixed JSON header (architecture, shapes,
seed, epoch, metrics) followed by the little-endian float32 parameter blob in
declaration order."""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigMismatch, ShapeMismatch, int_column, json_object, number_column, read_file, write_files


def save_checkpoint(path: str | Path, header: dict, params: list[np.ndarray]) -> None:
    header = dict(header)
    header["shapes"] = [list(p.shape) for p in params]
    hj = json.dumps(header, sort_keys=True).encode()
    path = Path(path)
    arrays = (np.ascontiguousarray(p, dtype="<f4") for p in params)
    write_files(path.parent, {path.name: b"".join([struct.pack("<I", len(hj)), hj, *arrays])})


def load_checkpoint(path: str | Path) -> tuple[dict, list[np.ndarray]]:
    raw = read_file(path, "checkpoint")
    if len(raw) < 4:
        raise ShapeMismatch(f"checkpoint {path} holds {len(raw)} bytes, shorter than its 4-byte header length")
    (hlen,) = struct.unpack("<I", raw[:4])
    if 4 + hlen > len(raw):
        raise ShapeMismatch(f"checkpoint {path} declares a {hlen}-byte header but holds {len(raw) - 4} bytes after it")
    header = json_object(raw[4 : 4 + hlen], f"checkpoint {path} header", ShapeMismatch, {"shapes": list})
    shapes = []
    for i, s in enumerate(header["shapes"]):
        what = f"checkpoint {path} parameter {i} has shape {s!r}"
        if not isinstance(s, list) or (int_column(s, f"{what}; a dimension", ShapeMismatch) < 0).any():
            raise ShapeMismatch(f"{what}, not a list of non-negative integers")
        shapes.append(tuple(s))
    expected = sum(math.prod(s) * 4 for s in shapes)
    blob = raw[4 + hlen :]
    if len(blob) != expected:
        raise ShapeMismatch(f"parameter blob holds {len(blob)} bytes, expected {expected}")
    params = []
    off = 0
    for i, s in enumerate(shapes):
        size = math.prod(s) * 4
        try:  # a zero-size shape can still name a dimension NumPy cannot hold
            params.append(np.frombuffer(blob[off : off + size], dtype="<f4").reshape(s).copy())
        except ValueError as e:
            raise ShapeMismatch(f"checkpoint {path} parameter {i} has shape {list(s)}: {e}") from None
        off += size
    return header, params


def config_from_dict(cls, config: dict):
    """Rebuild the config dataclass ``cls`` from a checkpoint header's
    ``config``, which must hold exactly the dataclass's fields, each with a
    value of the field's type: an ``int`` field takes a JSON integer, a
    ``float`` field any JSON number, a ``str`` field a string."""
    fields = {f.name for f in dataclasses.fields(cls)}
    if not isinstance(config, dict):
        raise ConfigMismatch(f"checkpoint config is not a JSON object: {config!r}")
    unknown = sorted(set(config) - fields)
    missing = sorted(fields - set(config))
    if unknown or missing:
        raise ConfigMismatch(f"checkpoint config for {cls.__name__}: unknown keys {unknown}, missing keys {missing}")
    hints = typing.get_type_hints(cls)
    for name, value in config.items():
        what = f"checkpoint config for {cls.__name__}: {name} = {value!r}"
        if hints[name] is int:
            int_column([value], what, ConfigMismatch)
        elif hints[name] is float:
            number_column([value], what, ConfigMismatch)
        elif not isinstance(value, str):
            raise ConfigMismatch(f"{what} must be a string")
    return cls(**config)
