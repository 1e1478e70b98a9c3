"""Hypothesis edits shared by the loader fuzz tests: a JSON document with
keys or items dropped or retyped, and a file's bytes cut short or changed."""

import copy

from hypothesis import strategies as st

from sitsgraph.errors import SitsGraphError

# what cli.main reports as a one-line error: a loader raises nothing else
CLI_ERRORS = (SitsGraphError, OSError)

# a retyped field: strings, bools, lists, null, objects, integers outside 64
# bits, non-finite numbers and centroids of the wrong length
FUZZ_VALUES = ["x", "", True, False, None, {}, [], [1], [1.0], [1.0, 2.0, 3.0], ["a", "b"], 2**63, -(2**63) - 1, 2**64,
               1.5, -1, 0, float("nan"), float("inf"), -float("inf")]


def paths(doc, prefix=()):
    """The path of every value below ``doc``, as keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from paths(v, prefix + (k,))


def mutate(data, doc):
    """``doc`` after 1-3 edits drawn from ``data``: drop any key or list
    item, or retype any value, the whole document included. Edits ``doc``
    in place."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from([(), *paths(doc)]))
        value = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
        if not path:
            doc = value
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def truncate(data, blob: bytes) -> bytes:
    """``blob``, or a prefix of it."""
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    return blob


def damage(data, blob: bytes) -> bytes:
    """``blob`` as it is, cut short, grown by a few bytes, or with one byte
    replaced (which can make text invalid UTF-8)."""
    how = data.draw(st.sampled_from(["keep", "truncate", "grow", "byte"]))
    if how == "truncate":
        return blob[: data.draw(st.integers(0, max(0, len(blob) - 1)))]
    if how == "grow":
        return blob + data.draw(st.binary(min_size=1, max_size=8))
    if how == "byte" and blob:
        i = data.draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1 :]
    return blob
