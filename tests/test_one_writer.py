"""The package has one writer for the files it makes and one reader for raw
arrays: only ``errors.py`` makes a directory or opens a file for writing, so
every output goes through ``write_files`` and its layout for bytes, arrays,
text and JSON; and only ``errors.py`` and ``checkpoint.py`` view bytes as an
array, so every raw-array file goes through ``read_array``'s size check. A
checkpoint's parameters are the one other view: they are copied, since a
loaded state becomes the model's tensors."""

import json

import numpy as np
import pytest

from sitsgraph.errors import MissingFile, ShapeMismatch, read_array, write_files
from test_one_search import _modules_naming


def test_only_errors_writes_files():
    assert _modules_naming({"write_bytes", "write_text", "mkdir", "open"}) == ["errors.py"]


def test_only_errors_and_checkpoint_view_bytes_as_arrays():
    assert _modules_naming({"frombuffer"}) == ["checkpoint.py", "errors.py"]


class TestWriteFiles:
    def test_each_body_in_its_layout(self, tmp_path):
        frame = np.arange(6, dtype="<f4").reshape(2, 3)
        out = tmp_path / "a" / "b"  # made with its parents
        write_files(out, {"frame.bin": frame, "raw.bin": b"\x00\x01", "note.txt": "text\n", "doc.json": {"k": [1, 2]}})
        assert (out / "frame.bin").read_bytes() == frame.tobytes()
        assert (out / "raw.bin").read_bytes() == b"\x00\x01"
        assert (out / "note.txt").read_text() == "text\n"
        assert (out / "doc.json").read_text() == json.dumps({"k": [1, 2]}, indent=2) + "\n"
        assert (out / "doc.json").read_text() == '{\n  "k": [\n    1,\n    2\n  ]\n}\n'

    def test_an_empty_array_is_an_empty_file(self, tmp_path):
        write_files(tmp_path, {"empty.bin": np.zeros((0, 4), dtype="<i4")})
        assert (tmp_path / "empty.bin").read_bytes() == b""


class TestReadArray:
    def test_views_the_file_read_only(self, tmp_path):
        frame = np.arange(12, dtype="<i4").reshape(3, 4)
        write_files(tmp_path, {"f.bin": frame})
        got = read_array(tmp_path / "f.bin", "map", "<i4", (3, 4))
        np.testing.assert_array_equal(got, frame)
        assert got.dtype == np.dtype("<i4") and not got.flags.writeable
        flat = read_array(tmp_path / "f.bin", "map", "<i4", (-1,))
        assert flat.shape == (12,) and not flat.flags.writeable

    def test_a_fixed_shape_names_the_file_and_the_size_it_expects(self, tmp_path):
        write_files(tmp_path, {"f.bin": bytes(20)})
        with pytest.raises(ShapeMismatch, match=r"^map .*f\.bin holds 20 bytes, expected 48$"):
            read_array(tmp_path / "f.bin", "map", "<i4", (3, 4))

    def test_a_free_dimension_names_the_file_and_the_value_type(self, tmp_path):
        write_files(tmp_path, {"pred.bin": bytes(5)})
        with pytest.raises(ShapeMismatch, match=r"^--pred .*pred\.bin holds 5 bytes, not a whole number of float32 values$"):
            read_array(tmp_path / "pred.bin", "--pred", "<f4", (-1,))

    def test_a_missing_file_is_named(self, tmp_path):
        with pytest.raises(MissingFile, match="missing map .*f.bin"):
            read_array(tmp_path / "f.bin", "map", "<i4", (3, 4))
