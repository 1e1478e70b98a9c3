"""``tools/compare_chains.py``: which files it counts as differing, and the
classify chain's convolution swap."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_chains", ROOT / "tools" / "compare_chains.py")
compare_chains = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_chains)


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_lists_changed_and_one_sided_files_and_masks_the_root(tmp_path):
    a, b = tmp_path / "base", tmp_path / "changed"
    same = {"out/model/checkpoint.bin": b"\x00\x01", "out/graph/graph.json": b"{}"}
    _tree(a, {**same, "out/a.bin": b"1", "out/only_base": b"", "out/run_config.json": f'"{a}/setup"'.encode(),
              "logs/train.log": f"-> {a}/out\n".encode(), "out/path.txt": str(a).encode()})
    _tree(b, {**same, "out/a.bin": b"2", "out/only_changed": b"", "out/run_config.json": f'"{b}/setup"'.encode(),
              "logs/train.log": f"-> {b}/out\n".encode(), "out/path.txt": str(b).encode()})
    n, diff = compare_chains.differing(a, b)
    # the root is masked only where the program records it: run_config.json and the logs
    assert n == 8 and diff == ["out/a.bin", "out/only_base", "out/only_changed", "out/path.txt"]
    assert compare_chains.differing(a, a) == (7, [])


def test_conv_swaps_only_the_train_step():
    steps = {s.label: s for s in compare_chains.WORKLOADS["classify"].steps}
    train = compare_chains.with_conv(steps["train"], "gcn")
    assert train.argv[train.argv.index("--conv") + 1] == "gcn"
    assert [a for a in train.argv if a != "gcn"] == [a for a in steps["train"].argv if a != "sage"]
    assert compare_chains.with_conv(steps["predict"], "gcn") is steps["predict"]
    assert compare_chains.with_conv(steps["train"], None) is steps["train"]
