"""``tools/compare_chains.py``: which files it counts as differing, the
classify chain's convolution swap, and the runs one command plans over
seeds and convolutions."""

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


def test_plan_runs_each_workload_once_per_seed_and_classify_per_extra_conv():
    workloads = ["classify", "forecast", "objects"]
    assert compare_chains.plan(workloads, [0], None) == [(0, "classify", "sage"), (0, "forecast", None), (0, "objects", None)]
    assert compare_chains.plan(workloads, [0, 1], ["gcn", "mlp"]) == [
        (0, "classify", "gcn"), (0, "forecast", None), (0, "objects", None), (0, "classify", "mlp"),
        (1, "classify", "gcn"), (1, "forecast", None), (1, "objects", None), (1, "classify", "mlp"),
    ]
    assert compare_chains.plan(["objects"], [3], ["sage", "gcn"]) == [(3, "objects", None)]


def test_every_line_names_its_run_and_any_difference_fails(tmp_path, monkeypatch, capsys):
    # one run of three differs between the trees: the exit code is 1
    def run_chain(tree, workload, seed, root, conv):
        _tree(root, {"out/a.bin": b"1" if (tree.name, seed, conv) == ("changed", 1, "mlp") else b"0"})
        return ["train"] if (tree.name, seed) == ("base", 0) and conv == "mlp" else []

    monkeypatch.setattr(compare_chains, "warm", lambda tree: None)
    monkeypatch.setattr(compare_chains, "run_chain", run_chain)
    argv = [str(tmp_path / "base"), str(tmp_path / "changed"), "--workload", "classify"]
    assert compare_chains.main([*argv, "--seed", "0", "1", "--conv", "sage", "mlp", "--work", str(tmp_path / "w1")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "classify seed 0 conv sage: 1 files, 0 differ",
        "classify seed 0 conv mlp: base failed at train",
        "classify seed 0 conv mlp: 1 files, 0 differ",
        "classify seed 1 conv sage: 1 files, 0 differ",
        "classify seed 1 conv mlp: differs out/a.bin",
        "classify seed 1 conv mlp: 1 files, 1 differ",
    ]
    assert compare_chains.main([*argv, "--seed", "2", "--conv", "mlp", "--work", str(tmp_path / "w2")]) == 0
