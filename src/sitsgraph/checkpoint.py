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

from .errors import ConfigMismatch, MissingFile, ShapeMismatch


def save_checkpoint(path: str | Path, header: dict, params: list[np.ndarray]) -> None:
    header = dict(header)
    header["shapes"] = [list(p.shape) for p in params]
    blob = b"".join(np.ascontiguousarray(p, dtype="<f4").tobytes() for p in params)
    hj = json.dumps(header, sort_keys=True).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(hj)))
        f.write(hj)
        f.write(blob)


def load_checkpoint(path: str | Path) -> tuple[dict, list[np.ndarray]]:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"missing checkpoint {path}")
    raw = path.read_bytes()
    if len(raw) < 4:
        raise ShapeMismatch(f"checkpoint {path} holds {len(raw)} bytes, shorter than its 4-byte header length")
    (hlen,) = struct.unpack("<I", raw[:4])
    if 4 + hlen > len(raw):
        raise ShapeMismatch(f"checkpoint {path} declares a {hlen}-byte header but holds {len(raw) - 4} bytes after it")
    try:
        header = json.loads(raw[4 : 4 + hlen])
    except UnicodeDecodeError as e:
        raise ShapeMismatch(f"checkpoint {path} header is not UTF-8 text: {e}") from None
    if not isinstance(header, dict) or not isinstance(header.get("shapes"), list):
        raise ShapeMismatch(f"checkpoint {path} header carries no parameter shapes")
    shapes = []
    for i, s in enumerate(header["shapes"]):
        if not isinstance(s, list) or not all(type(d) is int and d >= 0 for d in s):
            raise ShapeMismatch(
                f"checkpoint {path} parameter {i} has shape {s!r}, not a list of non-negative integers"
            )
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


# the JSON values each config field type accepts: a number without a fraction
# is a valid float, a bool is no number
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def config_from_dict(cls, config: dict):
    """Rebuild the config dataclass ``cls`` from a checkpoint header's
    ``config``, which must hold exactly the dataclass's fields, each with a
    value of the field's type."""
    fields = {f.name for f in dataclasses.fields(cls)}
    if not isinstance(config, dict):
        raise ConfigMismatch(f"checkpoint config is not a JSON object: {config!r}")
    unknown = sorted(set(config) - fields)
    missing = sorted(fields - set(config))
    if unknown or missing:
        raise ConfigMismatch(f"checkpoint config for {cls.__name__}: unknown keys {unknown}, missing keys {missing}")
    hints = typing.get_type_hints(cls)
    for name, value in config.items():
        kind = hints[name]
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise ConfigMismatch(f"checkpoint config for {cls.__name__}: {name} = {value!r} is not {kind.__name__}")
    return cls(**config)
