"""Exception and warning types shared across the package, and the one rule
each for reading files from outside the program and for writing its own.

Data errors derive from ``SitsGraphError`` so the CLI can map them to a
single exit code; misuse of an API (bad argument combinations) raises the
specific subclass named after the violated precondition. Every loader reads
its file through ``read_file`` and ``json_object``, or ``read_array`` for a
raw array, and types its fields with ``int_column`` and ``number_column``,
which raise the caller's error type. Every writer hands its files to
``write_files``.
"""

import json
import math
from pathlib import Path

import numpy as np


class SitsGraphError(Exception):
    """Base class for all data/contract errors raised by this package."""


# -- datacube ---------------------------------------------------------------

class MissingFile(SitsGraphError):
    pass


class ShapeMismatch(SitsGraphError):
    pass


class NonMonotonicTimestamps(SitsGraphError):
    pass


class UnknownBand(SitsGraphError):
    pass


class InvalidSpec(SitsGraphError):
    pass


class InvalidCube(SitsGraphError):
    pass


# -- segmentation -----------------------------------------------------------

class EmptyImage(SitsGraphError):
    pass


class InvalidSegmentCount(SitsGraphError):
    pass


# -- features / graph -------------------------------------------------------

class DimMismatch(SitsGraphError):
    pass


class TooFewNodes(SitsGraphError):
    pass


class InvalidLag(SitsGraphError):
    pass


class UnknownNode(SitsGraphError):
    pass


# -- neural / training ------------------------------------------------------

class AllIgnored(SitsGraphError):
    pass


class ConfigMismatch(SitsGraphError):
    pass


class NoLabels(SitsGraphError):
    pass


class LengthMismatch(SitsGraphError):
    pass


class MeshMismatch(SitsGraphError):
    pass


class SiteLeakage(SitsGraphError):
    pass


class NoData(SitsGraphError):
    pass


class TapeReplayed(SitsGraphError):
    pass


class Diverged(SitsGraphError):
    """No training epoch gave a finite validation metric."""


# -- metrics ----------------------------------------------------------------

class EmptyMatrix(SitsGraphError):
    pass


# -- warnings ---------------------------------------------------------------

class AllNodataWarning(UserWarning):
    """An object contained no valid pixel; its statistics were zero-filled."""


class DegenerateFeature(UserWarning):
    """All feature values identical; symbolization produced a single bin."""


# -- reading input from outside the program, and writing output ------------

def read_file(path: str | Path, what: str) -> bytes:
    """The bytes of the file ``path``, called ``what`` when it is missing."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"missing {what} {path}")
    return path.read_bytes()


def read_array(path: str | Path, what: str, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """The file ``path``, called ``what``, as a read-only ``dtype`` array of
    ``shape`` that views its bytes with no copy. A ``-1`` dimension takes
    whatever the file holds; a file of any other size is a ``ShapeMismatch``
    naming it."""
    raw = read_file(path, what)
    dtype = np.dtype(dtype)
    if -1 in shape:
        if len(raw) % dtype.itemsize:
            raise ShapeMismatch(f"{what} {path} holds {len(raw)} bytes, not a whole number of {dtype.name} values")
    elif len(raw) != dtype.itemsize * math.prod(shape):
        raise ShapeMismatch(f"{what} {path} holds {len(raw)} bytes, expected {dtype.itemsize * math.prod(shape)}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def write_files(out: str | Path, files: dict) -> None:
    """Make the directory ``out`` and write each named file into it: bytes,
    and C-contiguous arrays as their raw bytes with no copy, text as it is,
    and anything else in the ``indent=2`` JSON layout."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        if isinstance(body, (bytes, np.ndarray)):
            (out / name).write_bytes(body)
        elif isinstance(body, str):
            (out / name).write_text(body)
        else:
            (out / name).write_text(json.dumps(body, indent=2) + "\n")


def json_object(raw: bytes | str, source: str, error: type[SitsGraphError], fields: dict[str, type]) -> dict:
    """``raw`` decoded as a JSON object that holds each key of ``fields`` with
    a value of its type (``object`` takes any). It must be UTF-8 text and JSON
    nested no deeper than the decoder can follow; anything else raises
    ``error`` naming ``source``."""
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as e:
        raise error(f"{source} is not UTF-8 text: {e}") from None
    try:
        doc = json.loads(text)
    except RecursionError:
        raise error(f"{source} nests too deep to read") from None
    except ValueError as e:  # bad syntax, or an integer literal beyond Python's digit limit
        raise error(f"{source} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{source} must hold a JSON object, got {type(doc).__name__}")
    for key, kind in fields.items():
        if key not in doc:
            raise error(f"{source} has no {key!r}")
        if not isinstance(doc[key], kind):
            raise error(f"{source} key {key!r} must be a {kind.__name__}, got {type(doc[key]).__name__}")
    return doc


def int_column(values: list, what: str, error: type[SitsGraphError]) -> np.ndarray:
    """``values``, a list, as int64: each an integer (never a bool) within 64
    bits, checked in one pass over the list. A JSON integer decodes to ``int``;
    a NumPy integer passes too, for columns built in memory."""
    if not isinstance(values, list):
        raise error(f"{what} must be integers in a list, got {type(values).__name__}")
    types = set(map(type, values))
    if bool in types or not all(issubclass(t, (int, np.integer)) for t in types):
        bad = next(v for v in values if type(v) is bool or not isinstance(v, (int, np.integer)))
        raise error(f"{what} must be an integer, got {bad!r}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise error(f"{what} out of the 64-bit range") from None


def number_column(values: list, what: str, error: type[SitsGraphError]) -> np.ndarray:
    """``values`` as float64, each a JSON number: an integer or a float, never
    a bool, checked in one pass over the list."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise error(f"{what} must be a number, got {bad!r}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise error(f"{what} does not fit a float") from None
