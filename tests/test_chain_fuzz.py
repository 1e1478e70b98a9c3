"""Random small cubes through every subcommand, in process. Shapes go down
to 1x1 with 1 to 7 dates; samples are noise, constant or tiny, with NaN,
±inf and ``nodata`` sentinel samples sprinkled in. Every run ends with exit
0, or with exit 1 and one error line; any other warning than the package's
own ``AllNodataWarning`` and ``DegenerateFeature`` fails the test, since
pytest turns warnings into errors."""

from pathlib import Path

import numpy as np
import pytest

from sitsgraph.cli import main
from sitsgraph.datacube import GeoBounds, SitsCube, _month_sequence, save_cube, save_labels

SEED = 20261019
CUBES = 36
SENTINEL = -9999.0


def _random_cube(rng: np.random.Generator) -> tuple[SitsCube, np.ndarray]:
    t, h, w = (int(x) for x in rng.integers(1, [8, 7, 7]))
    bands = ["B03", "B08"] if rng.random() < 0.5 else ["NDWI"]
    shape = (t, len(bands), h, w)
    kind = rng.choice(["noise", "constant", "tiny"])
    if kind == "noise":
        values = rng.uniform(-1.0 if bands == ["NDWI"] else 0.0, 1.0, shape)
    elif kind == "constant":
        values = np.full(shape, rng.uniform(0.0, 1.0))
    else:
        values = rng.choice([0.0, 1e-45, 1e-38, 1e-20], shape)
    nodata = SENTINEL if rng.random() < 0.5 else None
    spellings = [np.nan, np.inf, -np.inf] + ([SENTINEL] if nodata is not None else [])
    missing = rng.random(shape) < rng.choice([0.0, 0.05, 0.3, 1.0])
    values = np.where(missing, rng.choice(spellings, shape), values).astype(np.float32)
    cube = SitsCube(values, _month_sequence(t), bands, GeoBounds(43.0, 44.0, 1.0, 2.0), nodata=nodata)
    return cube, rng.integers(-1, 3, (t, h, w)).astype(np.int32)


def _chain(root: Path, rng: np.random.Generator) -> list[list[str]]:
    """Every subcommand, each reading what the ones before it wrote."""
    cube, seg, graph, model, fc = (str(root / d) for d in ("site0", "seg", "graph", "model", "fc"))
    t, h, w = (str(n) for n in rng.integers(1, 6, 3))
    algo = (["--algo", "felzenszwalb", "--scale", str(rng.choice([0.5, 10.0])), "--min-size", "2"]
            if rng.random() < 0.5 else ["--algo", "slic", "--segments", str(rng.integers(1, 6)), "--iters", "3"])
    return [
        ["synth", "--seed", "1", "--t", t, "--height", h, "--width", w, "--blobs", "2", "--out", str(root / "synth")],
        ["segment", "--cube", cube, *algo, "--out", seg],
        ["features", "--cube", cube, "--seg", seg, "--geometry", "--standardize", "--out", str(root / "feat")],
        ["build-graph", "--cube", cube, "--seg", seg, "--spatial", "knn:1", "--out", str(root / "graph_knn")],
        ["build-graph", "--cube", cube, "--seg", seg, "--spatial", "sim:1", "--st", "sim:1", "--st", "periodic:2",
         "--out", str(root / "graph_sim")],
        ["build-graph", "--cube", cube, "--seg", seg, "--spatial", "adjacency", "--spatial", "eps:2", "--st", "overlap",
         "--out", graph],
        ["stats", "--graph", f"{graph}/graph.json", "--out", str(root / "stats")],
        ["events", "--graph", f"{graph}/graph.json", "--out", str(root / "events")],
        ["mine", "--graph", f"{graph}/graph.json", "--feature", "0", "--bins", "2", "--minsup", "1", "--maxlen", "2",
         "--out", str(root / "mine")],
        ["export", "--graph", f"{graph}/graph.json", "--format", str(rng.choice(["json", "graphml", "dot"])),
         "--out", str(root / "export")],
        ["train", "--graph", f"{graph}/graph.json", "--hidden", "4", "--layers", "2", "--epochs", "2", "--out", model],
        ["predict", "--checkpoint", f"{model}/checkpoint.bin", "--graph", f"{graph}/graph.json",
         "--out", str(root / "pred")],
        ["eval", "--checkpoint", f"{model}/checkpoint.bin", "--graph", f"{graph}/graph.json", "--seg", seg,
         "--cube", cube, "--out", str(root / "eval")],
        ["forecast", "train", "--cubes", cube, str(root / "site1"), str(root / "site2"), "--input-len", "1",
         "--segments", "2", "--hidden", "4", "--rounds", "1", "--epochs", "1", "--out", fc],
        ["forecast", "predict", "--checkpoint", f"{fc}/checkpoint.bin", "--cube", cube, "--out", str(root / "fp")],
        ["eval", "--task", "forecast", "--pred", str(root / "fp" / "frame.bin"), "--target",
         str(root / "fp" / "frame.bin"), "--out", str(root / "fe")],
    ]


@pytest.mark.filterwarnings("ignore::sitsgraph.errors.AllNodataWarning")
@pytest.mark.filterwarnings("ignore::sitsgraph.errors.DegenerateFeature")
def test_random_cubes_end_every_subcommand_in_exit_0_or_one_error_line(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    codes = []
    for i in range(CUBES):
        root = tmp_path / f"c{i}"
        cube, labels = _random_cube(rng)
        for site in ("site0", "site1", "site2"):
            save_cube(cube, root / site)
            save_labels(labels, root / site)
        for argv in _chain(root, rng):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1), argv
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            codes.append(code)
    # the chains reach their ends and their failures alike
    assert 0 in codes and 1 in codes
